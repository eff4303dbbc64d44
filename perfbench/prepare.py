"""Set-up child of the benchmark: import check, provenance and held-out data.

Run as ``python3 perfbench/prepare.py OUT.json [CONFIG.json SEED ROWS TEST.csv]...``
with ``PYTHONPATH`` pointing at the checkout's ``src``.  It imports
``lingamsort`` (failing if the package does not come from that ``src``),
writes the library versions and BLAS build to OUT.json and, for each
(config, seed, rows, path), draws a held-out test CSV of ROWS rows from the
same model that ``lingamsort generate`` builds from that config, with its
own data seed.
"""
from __future__ import annotations

import json
import os
import platform
import sys


def _blas() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        return {"name": None, "version": None}


def _test_csv(config_path: str, test_seed: int, rows: int, out_path: str) -> None:
    import lingamsort as ls
    from lingamsort.cli import write_data_csv

    with open(config_path) as fh:
        doc = json.load(fh)
    graph = {k: v for k, v in doc["graph"].items() if k != "scheme"}
    cfg = ls.SimConfig(
        p=doc["p"], n=doc["n"], seed=doc["seed"],
        family=ls.NoiseFamily.from_string(doc["family"]),
        graph=ls.LargeSparse(**graph),
        coef_low=doc["coef_low"], coef_high=doc["coef_high"],
        scale_low=doc["scale_low"], scale_high=doc["scale_high"],
    )
    w, _ = ls.sample_model(cfg)
    write_data_csv(out_path, ls.sample_data(w, rows, test_seed))


def main(argv: list[str]) -> int:
    out, tests = argv[0], argv[1:]
    src = os.path.realpath(os.environ.get("PYTHONPATH", "").split(os.pathsep)[0])
    import lingamsort
    import numpy
    import scipy

    where = os.path.realpath(lingamsort.__file__)
    if not where.startswith(src + os.sep):
        print(f"lingamsort imported from {where}, not from {src}", file=sys.stderr)
        return 2
    for i in range(0, len(tests), 4):
        _test_csv(tests[i], int(tests[i + 1]), int(tests[i + 2]), tests[i + 3])
    info = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "lingamsort": getattr(lingamsort, "__version__", None),
        "blas_build": _blas(),
    }
    with open(out, "w") as fh:
        json.dump(info, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
