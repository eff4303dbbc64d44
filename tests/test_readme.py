"""The examples in README.md run as written, so that a documented name that
the package no longer has, or a file that the walk-through reads but never
makes, fails the suite."""
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), re.M | re.S)


def test_python_blocks_run():
    blocks = _blocks("python")
    assert blocks
    for source in blocks:
        exec(compile(source, str(README), "exec"), {})


def test_cli_walk_through_runs(tmp_path):
    # the sh block that drives the CLI, in an empty directory, with the
    # entry point as the module of this checkout under this interpreter
    block, = [b for b in _blocks("sh") if "lingamsort generate" in b]
    script = f'lingamsort() {{ "{sys.executable}" -m lingamsort.cli "$@"; }}\n{block}'
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(["bash", "-e", "-c", script], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    assert len(run.stdout.splitlines()) == 6  # one summary line per command
    for name in ("ordering.json", "model.json", "results.jsonl"):
        assert (tmp_path / name).stat().st_size > 0


def test_module_table_names_every_module():
    table = re.findall(r"^\| `lingamsort\.(\w+)` \|", README.read_text(), re.M)
    modules = [path.stem for path in (ROOT / "src" / "lingamsort").glob("*.py")
               if path.stem != "__init__"]
    assert sorted(table) == sorted(modules)
