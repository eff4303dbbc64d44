"""Print the sha256 of every output of a fixed set of CLI runs, so that two
checkouts can be compared byte for byte.

Runs ``python -m lingamsort.cli`` from the ``src`` of the checkout that
holds this file, with one BLAS thread and without ``--timings``, on fixed
inputs drawn with the benchmark's coefficients (0.4-0.9) and scales
(0.25-0.9):

- the shapes of the ``pipe-corr-p2000`` and ``pipe-full-p300-logistic``
  workloads end to end (``generate``, ``sort``, ``eval``, ``fit``,
  ``loglik``), the second with ``sort --trace``;
- a scaled-t:5 pipeline at p = 200, n = 400 on ``corr:10:0.2:1``, with
  ``sort --trace``;
- a Laplace pipeline at p = 40, n = 200 whose graph is an edge list,
  ``edges.txt``, and whose ``sort`` and ``fit`` read their sets from a
  JSON file, ``neighborhoods.json``: the readers of both formats;
- one ``benchmark`` grid with a ``grid-mb-p5000``-shaped cell and a small
  ``corr:`` cell;
- ``quoted``: the ``pipe-full-p300-logistic`` pipeline again, its
  ``train.csv`` with every field in double quotes and LF line ends, the
  way R's ``write.csv`` quotes its header.  At about 4 MB the reader forks
  for it; its ``ordering.json`` and ``model.json`` must equal the unquoted
  case's.

A pipeline generates its training rows and then its held-out rows in one
file, and splits it as README's example does: ``train.csv`` is the header
and the first rows, ``test.csv`` the header and the last ones.  Every file
goes under ``OUTDIR/<case>/``, each command's stdout as ``<command>.out``;
commands run in that directory with relative paths, so no output names
OUTDIR.  One line ``sha256  <case>/<file>`` is printed per file, sorted::

    python tools/output_digests.py OUTDIR > digests.txt   # in each checkout
    diff parent-digests.txt digests.txt
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SEED = 1
GRAPH = {"scheme": "large-sparse", "root_frac": 0.05, "min_parents": 1, "max_parents": 2}
SIM = {"coef_low": 0.4, "coef_high": 0.9, "scale_low": 0.25, "scale_high": 0.9}
# case: (p, training rows, held-out rows, family, neighborhoods, sort --trace)
PIPELINES = {
    "pipe-corr-p2000": (2000, 500, 50, "laplace", "corr:10:0.2:1", False),
    "pipe-full-p300-logistic": (300, 600, 60, "logistic", "full", True),
    "scaled-t-p200": (200, 400, 40, "scaled-t:5", "corr:10:0.2:1", True),
}
# the edge-list case: p, training rows, held-out rows.  Its graph is a chain
# in which every third node has a second parent, three back; each node's set
# holds the nodes within three of it
EDGE_LIST = (40, 200, 20)
# the pipeline that the quoted case runs again on a quoted train.csv
QUOTED = "pipe-full-p300-logistic"
GRID = [
    {"p": 5000, "n_mult": 0.5, "family": "laplace", "neighborhoods": "mb", "replicates": 1},
    {"p": 200, "n_mult": 2.0, "family": "laplace", "neighborhoods": "corr:10:0.2",
     "replicates": 2},
]


def _run(where: Path, name: str, *args: str) -> None:
    """``lingamsort ARGS`` in ``where``, its stdout kept as ``name.out``."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with open(where / f"{name}.out", "w") as out:
        subprocess.run([sys.executable, "-m", "lingamsort.cli", *args], cwd=where, env=env,
                       stdout=out, check=True)


def _quoted(text: str) -> str:
    """A CSV of unquoted fields with every field in double quotes and LF
    line ends."""
    return "".join('"' + line.replace(",", '","') + '"\n' for line in text.splitlines())


def _pipeline(where: Path, p: int, n: int, held_out: int, family: str, nbhd: str,
              trace: bool, graph: dict = GRAPH, quoted: bool = False) -> None:
    config = {"p": p, "n": n + held_out, "seed": SEED, "family": family, "graph": graph, **SIM}
    (where / "config.json").write_text(json.dumps(config))
    _run(where, "generate", "generate", "--config", "config.json", "--out-data", "data.csv",
         "--out-truth", "truth.json")
    header, *rows = (where / "data.csv").read_text().splitlines(keepends=True)
    train = header + "".join(rows[:n])
    (where / "train.csv").write_text(_quoted(train) if quoted else train)
    (where / "test.csv").write_text(header + "".join(rows[-held_out:]))
    _run(where, "sort", "sort", "--data", "train.csv", "--family", family,
         "--neighborhoods", nbhd, "--out", "ordering.json", *["--trace"] * trace)
    _run(where, "eval", "eval", "--truth", "truth.json", "--ordering", "ordering.json")
    _run(where, "fit", "fit", "--data", "train.csv", "--ordering", "ordering.json",
         "--family", family, "--neighborhoods", nbhd, "--out", "model.json")
    _run(where, "loglik", "loglik", "--model", "model.json", "--data", "test.csv")


def _edge_list_pipeline(where: Path, p: int, n: int, held_out: int) -> None:
    (where / "edges.txt").write_text("".join(
        f"{k - 1} {k}\n" + (f"{k - 3} {k}\n" if k % 3 == 0 else "") for k in range(1, p)))
    sets = [[j for j in range(max(k - 3, 0), min(k + 4, p)) if j != k] for k in range(p)]
    (where / "neighborhoods.json").write_text(json.dumps(sets))
    _pipeline(where, p, n, held_out, "laplace", "neighborhoods.json", False,
              graph={"scheme": "edge-list", "path": "edges.txt"})


def digests(outdir: Path) -> list[str]:
    """Run every case into ``outdir`` and return the sorted digest lines."""
    for case, shape in PIPELINES.items():
        (outdir / case).mkdir(parents=True)
        _pipeline(outdir / case, *shape)
    (outdir / "edge-list").mkdir(parents=True)
    _edge_list_pipeline(outdir / "edge-list", *EDGE_LIST)
    (outdir / "quoted").mkdir(parents=True)
    _pipeline(outdir / "quoted", *PIPELINES[QUOTED], quoted=True)
    grid = outdir / "grid"
    grid.mkdir(parents=True)
    cells = [dict(cell, graph=GRAPH, **SIM) for cell in GRID]
    (grid / "grid.json").write_text(json.dumps({"base_seed": SEED, "cells": cells}))
    _run(grid, "benchmark", "benchmark", "--config", "grid.json", "--out", "results.jsonl")
    return sorted(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  "
                  f"{path.relative_to(outdir).as_posix()}"
                  for path in outdir.rglob("*") if path.is_file())


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/output_digests.py OUTDIR", file=sys.stderr)
        return 2
    try:
        lines = digests(Path(argv[0]))
    except subprocess.CalledProcessError as exc:  # the CLI has named the cause
        print(f"lingamsort {' '.join(exc.cmd[3:])} exited {exc.returncode}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
