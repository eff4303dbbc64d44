"""``tools/output_digests.py`` prints one digest per output of its fixed CLI
runs, and the same digests on a second run; the pipeline run on a quoted
``train.csv`` gives the ordering and model of the unquoted one, and the
twin case's copied column is reported degenerate."""
import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digests.py"
PIPELINE_FILES = ["config.json", "data.csv", "eval.out", "fit.out", "generate.out",
                  "loglik.out", "model.json", "ordering.json", "sort.out", "test.csv",
                  "train.csv", "truth.json"]


def test_two_runs_give_the_same_digest_of_every_output(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("output_digests", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    # the tool's cases at p <= 30, so that two runs take seconds
    monkeypatch.setattr(tool, "PIPELINES", {
        "corr": (30, 60, 10, "laplace", "corr:5:0.2:1", False),
        "full": (20, 80, 10, "logistic", "full", True),
        "scaled-t": (20, 60, 10, "scaled-t:5", "corr:5:0.2:1", True),
    })
    monkeypatch.setattr(tool, "EDGE_LIST", (20, 60, 10))
    monkeypatch.setattr(tool, "QUOTED", "full")
    monkeypatch.setattr(tool, "TWIN", (20, 80, 10, "logistic", "full", True))
    monkeypatch.setattr(tool, "TWIN_OF", 3)
    monkeypatch.setattr(tool, "GRID", [
        {"p": 30, "n_mult": 2.0, "family": "laplace", "neighborhoods": "mb", "replicates": 1},
        {"p": 20, "n_mult": 3.0, "family": "laplace", "neighborhoods": "corr:5:0.2",
         "replicates": 2},
    ])
    first = tool.digests(tmp_path / "a")
    assert tool.digests(tmp_path / "b") == first
    names = sorted(f"{case}/{name}" for case in ("corr", "full", "scaled-t", "quoted")
                   for name in PIPELINE_FILES)
    names += [f"edge-list/{name}" for name in PIPELINE_FILES + ["edges.txt", "neighborhoods.json"]]
    names += [f"twin/{name}" for name in PIPELINE_FILES
              if name not in ("fit.out", "loglik.out", "model.json")]
    names += ["grid/benchmark.out", "grid/grid.json", "grid/results.jsonl"]
    assert sorted(line.split("  ")[1] for line in first) == sorted(names)
    assert all(len(line.split("  ")[0]) == 64 for line in first)
    digest = {name: sha for sha, name in (line.split("  ") for line in first)}
    for name in ("ordering.json", "model.json", "loglik.out"):
        assert digest[f"quoted/{name}"] == digest[f"full/{name}"]
    assert digest["quoted/train.csv"] != digest["full/train.csv"]
    # the copy of column 3 is degenerate from the step after its twin's
    twin = json.loads((tmp_path / "a" / "twin" / "ordering.json").read_text())
    assert [node for node, _ in twin["diagnostics"]["degenerate"]] == [19]
