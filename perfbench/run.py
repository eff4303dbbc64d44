"""Benchmark of the lingamsort CLI: three workloads, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program under test is ``src/lingamsort`` of the checkout, run as
``python3 -m lingamsort.cli`` in child processes, one at a time.  With
``--trace 0`` each pipeline step is a plain CLI call and the last line of
standard output is a JSON object with the end-to-end metrics.  With
``--trace 1`` each step runs through ``perfbench/trace_step.py``, which wraps
the package's functions by name; the metrics are per layer, with the tracing
overhead against one plain pass over the same input.
Run records and guard values are kept under ``.perfbench/`` in the checkout.
See ``perfbench/README.md`` for the workloads and the layer table.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
STATE = ROOT / ".perfbench"

BLAS_THREADS = 1  # per child; the parent only waits
SETUP_REPEATS = 3
TEST_ROWS_FRAC = 0.1  # held-out rows per training row; keeps repeated set-ups cheap
ORDER_ERROR_CEILING = 0.05  # acceptance criterion 06's ceiling

GRAPH = {"scheme": "large-sparse", "root_frac": 0.05, "min_parents": 1, "max_parents": 2}
SIM = {"coef_low": 0.4, "coef_high": 0.9, "scale_low": 0.25, "scale_high": 0.9}

# ``datasets`` fixed data sets per run, each timed at least once, so that
# order_error and the counts are averages over a fixed set of inputs.
WORKLOADS = {
    "grid-mb-p5000": {"kind": "grid", "p": 5000, "n_mult": 0.5, "family": "laplace",
                      "nbhd": "mb", "datasets": 6},
    "pipe-corr-p2000": {"kind": "pipe", "p": 2000, "n": 500, "family": "laplace",
                        "nbhd": "corr:10:0.2:1", "datasets": 4},
    "pipe-full-p300-logistic": {"kind": "pipe", "p": 300, "n": 600, "family": "logistic",
                                "nbhd": "full", "datasets": 4},
}
# The same shapes at p=50, for perfbench/test_smoke.py.
SMOKE = {
    "grid-mb-p5000": {"p": 50, "n_mult": 4.0, "datasets": 1},
    "pipe-corr-p2000": {"p": 50, "n": 200, "datasets": 1},
    "pipe-full-p300-logistic": {"p": 50, "n": 200, "datasets": 1},
}

END_TO_END = {"wall_s": "s", "sort_s": "s", "peak_rss_mb": "MB", "order_error": "fraction",
              "setup_s": "s"}
LAYER_TIMES = [
    "regression.partial_update", "scoring.llr_score", "sorter.sort", "regression.standardize",
    "cli.write_data_csv", "cli.read_data_csv", "neighborhoods.top_correlated",
    "neighborhoods.markov_blankets", "metrics.fit_coefficients", "regression.ols_residual",
    "metrics.heldout_loglik", "simulate.sample_dataset",
]
LAYER_CALLS = ["regression.partial_update", "scoring.llr_score", "regression.ols_residual"]
COMMANDS = ["generate", "sort", "eval", "fit", "loglik", "benchmark"]
PER_LAYER = (
    {f"{layer}_s": "s" for layer in LAYER_TIMES}
    | {f"{layer}_calls": "count" for layer in LAYER_CALLS}
    | {f"cli.{cmd}_s": "s" for cmd in COMMANDS}
    | {"sorter.self_s": "s", "sorter.update_count": "count", "sorter.rescore_events": "count",
       "sorter.updates_per_rescore": "ratio", "cli.import_s": "s", "cli.csv_bytes": "bytes",
       "trace.overhead_frac": "ratio"}
)
# Counts that must repeat exactly for one seed, in every run of one source tree.
GUARDED = ["sorter.update_count", "sorter.rescore_events", "scoring.llr_score_calls",
           "regression.ols_residual_calls", "cli.csv_bytes", "order_error",
           "ordering_sha256", "model_sha256"]


class Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


class SetupError(Exception):
    """The program cannot be set up in this checkout; no result is printed."""


def derived_seed(*key: object) -> int:
    digest = hashlib.sha256(":".join(map(str, key)).encode()).digest()
    return int.from_bytes(digest[:4], "little")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(args: list[str], log: Path) -> tuple[int, float, float, str]:
    """Run ``python3 ARGS`` to completion; (exit code, wall s, peak RSS MB, stdout)."""
    with open(log.with_suffix(".out"), "w") as out, open(log.with_suffix(".err"), "w") as err:
        started = perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                                stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, log.with_suffix(".out").read_text()


def _stderr_tail(log: Path) -> str:
    lines = log.with_suffix(".err").read_text().strip().splitlines()
    return lines[-1] if lines else ""


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Dataset:
    """One fixed input of a run: its config files and output paths."""

    def __init__(self, work: Path, wl: dict, seed: int, index: int):
        self.index = index
        self.dir = work / f"d{index}"
        self.data_seed = derived_seed("data", seed, index)
        self.test_seed = derived_seed("test", seed, index)
        self.config = self.dir / "config.json"
        self.train, self.test = self.dir / "train.csv", self.dir / "test.csv"
        self.truth, self.ordering = self.dir / "truth.json", self.dir / "ordering.json"
        self.model, self.results = self.dir / "model.json", self.dir / "results.jsonl"
        if wl["kind"] == "grid":
            cell = {"p": wl["p"], "n_mult": wl["n_mult"], "family": wl["family"],
                    "neighborhoods": wl["nbhd"], "replicates": 1, "graph": GRAPH, **SIM}
            self.doc = {"base_seed": self.data_seed, "cells": [cell]}
        else:
            self.doc = {"p": wl["p"], "n": wl["n"], "seed": self.data_seed,
                        "family": wl["family"], "graph": GRAPH, **SIM}
            self.test_rows = max(2, round(TEST_ROWS_FRAC * wl["n"]))

    def steps(self, wl: dict) -> list[tuple[str, list[str]]]:
        fam, nbhd = wl["family"], wl["nbhd"]
        if wl["kind"] == "grid":
            return [("benchmark", ["benchmark", "--config", str(self.config),
                                   "--out", str(self.results), "--timings"])]
        return [
            ("generate", ["generate", "--config", str(self.config),
                          "--out-data", str(self.train), "--out-truth", str(self.truth)]),
            ("sort", ["sort", "--data", str(self.train), "--family", fam,
                      "--neighborhoods", nbhd, "--out", str(self.ordering)]),
            ("eval", ["eval", "--truth", str(self.truth), "--ordering", str(self.ordering)]),
            ("fit", ["fit", "--data", str(self.train), "--ordering", str(self.ordering),
                     "--family", fam, "--neighborhoods", nbhd, "--out", str(self.model)]),
            ("loglik", ["loglik", "--model", str(self.model), "--data", str(self.test)]),
        ]


def set_up(work: Path, wl: dict, datasets: list[Dataset]) -> tuple[float, dict]:
    """Write the inputs of every data set and check the program imports."""
    started = perf_counter()
    work.mkdir(parents=True, exist_ok=True)
    test_args: list[str] = []
    for ds in datasets:
        ds.dir.mkdir(exist_ok=True)
        ds.config.write_text(json.dumps(ds.doc, indent=2) + "\n")
        if wl["kind"] == "pipe":
            test_args += [str(ds.config), str(ds.test_seed), str(ds.test_rows), str(ds.test)]
    info_path = work / "prepare.json"
    code, _, _, _ = run_child([str(BENCH / "prepare.py"), str(info_path), *test_args],
                              work / "prepare")
    if code != 0:
        raise SetupError(f"set-up child exited {code}: {_stderr_tail(work / 'prepare')}")
    return perf_counter() - started, json.loads(info_path.read_text())


def run_pass(wl: dict, ds: Dataset, traced: bool, checks: Checks) -> dict | None:
    """One timed pass of the workload's pipeline over one data set, then its checks."""
    sample: dict = {"dataset": ds.index, "traced": traced, "steps": {}, "layers": {},
                    "import_s": 0.0, "absent": set(), "rescore_events": []}
    rss: list[float] = []
    outputs: dict[str, str] = {}
    started = perf_counter()
    for name, args in ds.steps(wl):
        log = ds.dir / f"{name}{'-traced' if traced else ''}"
        if traced:
            args = [str(BENCH / "trace_step.py"), str(log.with_suffix(".json")), "--", *args]
        else:
            args = ["-m", "lingamsort.cli", *args]
        code, wall, peak, out = run_child(args, log)
        if not checks.check(code == 0, f"{name} on data set {ds.index} exited {code}: "
                                       f"{_stderr_tail(log)}"):
            return None
        sample["steps"][name] = wall
        rss.append(peak)
        outputs[name] = out
        if traced:
            _add_trace(sample, json.loads(log.with_suffix(".json").read_text()))
    sample["wall_s"] = perf_counter() - started
    sample["rss_mb"] = max(rss)
    if not _check_outputs(wl, ds, outputs, sample, checks):
        return None
    return sample


def _add_trace(sample: dict, trace: dict) -> None:
    sample["import_s"] += trace["import_s"]
    sample["absent"].update(trace["absent"])
    sample["rescore_events"] += trace["rescore_events"]
    for layer, row in trace["layers"].items():
        acc = sample["layers"].setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key in acc:
            acc[key] += row[key]
    in_sort = sample.setdefault("in_sort_self_s", {})
    for layer, value in trace["in_sort_self_s"].items():
        in_sort[layer] = in_sort.get(layer, 0.0) + value


def _check_outputs(wl: dict, ds: Dataset, outputs: dict, sample: dict, checks: Checks) -> bool:
    where = f"data set {ds.index}"
    p = wl["p"]
    try:
        if wl["kind"] == "grid":
            records = [json.loads(line) for line in ds.results.read_text().splitlines()]
            rec = records[0]
            if not checks.check(len(records) == 1 and rec["error"] is None,
                                f"grid record on {where}: {rec.get('error')}"):
                return False
            sample["sort_s"] = rec["wall_time_ms"] / 1e3
            sample["update_count"] = rec["update_count"]
            sample["order_error"] = rec["order_error"]
            sample["cli.csv_bytes"] = 0
        else:
            ordering = json.loads(ds.ordering.read_text())
            checks.check(sorted(ordering["ordering"]) == list(range(p)),
                         f"ordering on {where} is not a permutation of 0..{p - 1}")
            sample["sort_s"] = sample["steps"]["sort"]
            sample["update_count"] = ordering["update_count"]
            sample["order_error"] = json.loads(outputs["eval"])["order_error"]
            loglik = json.loads(outputs["loglik"])["mean_loglik"]
            checks.check(isinstance(loglik, float) and math.isfinite(loglik),
                         f"mean_loglik on {where} is {loglik!r}")
            sample["cli.csv_bytes"] = ds.train.stat().st_size
            sample["ordering_sha256"] = _sha256(ds.ordering)
            sample["model_sha256"] = _sha256(ds.model)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        checks.check(False, f"unreadable output on {where}: {type(exc).__name__}: {exc}")
        return False
    checks.check(sample["order_error"] < ORDER_ERROR_CEILING,
                 f"order_error {sample['order_error']} on {where} is not under "
                 f"{ORDER_ERROR_CEILING}")
    return True


def guard_values(sample: dict) -> dict:
    """The machine-independent values of a pass that must repeat exactly."""
    values = {key: sample[key] for key in ("order_error", "cli.csv_bytes", "ordering_sha256",
                                           "model_sha256") if key in sample}
    values["sorter.update_count"] = sample["update_count"]
    if sample["traced"]:
        layers = sample["layers"]
        for layer in ("scoring.llr_score", "regression.ols_residual"):
            if layer not in sample["absent"]:
                values[f"{layer}_calls"] = layers.get(layer, {}).get("calls", 0)
        events = sample["rescore_events"]
        if events and None not in events:
            values["sorter.rescore_events"] = sum(events)
    return values


def compare_guard(stored: dict, values: dict, what: str, checks: Checks) -> None:
    for key in GUARDED:
        if key in stored and key in values:
            checks.check(stored[key] == values[key],
                         f"{key} on {what} changed: {stored[key]!r} then {values[key]!r}")
        elif key in values:
            stored[key] = values[key]


def source_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_file = ROOT / ".git" / ref[5:]
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def end_to_end(samples: list[dict], setups: list[float]) -> dict:
    """Times are means over the passes: every data set runs equally often,
    so each is the time of one pass over the run's fixed inputs, and a mean
    averages the host's speed over more of the run than a median of a few
    passes does."""
    by_set = {s["dataset"]: s["order_error"] for s in samples}
    return {
        "wall_s": statistics.fmean([s["wall_s"] for s in samples]),
        "sort_s": statistics.fmean([s["sort_s"] for s in samples]),
        "peak_rss_mb": statistics.median([s["rss_mb"] for s in samples]),
        "order_error": statistics.fmean(by_set.values()),
        "setup_s": statistics.median(setups),
    }


def per_layer(traced: list[dict], plain: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics: times are medians over traced passes, counts are
    means over the run's data sets (each the same on every pass of it)."""
    absent = set().union(*(s["absent"] for s in traced))
    first = {}
    for s in traced:
        first.setdefault(s["dataset"], s)
    once = list(first.values())

    def time_of(layer: str, key: str = "total_s") -> float:
        return statistics.median([s["layers"].get(layer, {}).get(key, 0.0) for s in traced])

    def count_of(value) -> float:
        return statistics.fmean(value(s) for s in once)

    metrics: dict[str, float] = {}
    for layer in LAYER_TIMES:
        if layer not in absent:
            metrics[f"{layer}_s"] = time_of(layer)
    for layer in LAYER_CALLS:
        if layer not in absent:
            metrics[f"{layer}_calls"] = count_of(
                lambda s, layer=layer: s["layers"].get(layer, {}).get("calls", 0))
    for cmd in COMMANDS:
        metrics[f"cli.{cmd}_s"] = time_of(f"cli.{cmd}")
    metrics["cli.import_s"] = statistics.median([s["import_s"] for s in traced])
    metrics["cli.csv_bytes"] = count_of(lambda s: s["cli.csv_bytes"])
    metrics["sorter.update_count"] = count_of(lambda s: s["update_count"])
    if "sorter.sort" not in absent:
        metrics["sorter.self_s"] = time_of("sorter.sort", "self_s")
    if all(s["rescore_events"] and None not in s["rescore_events"] for s in once):
        events = count_of(lambda s: sum(s["rescore_events"]))
        metrics["sorter.rescore_events"] = events
        metrics["sorter.updates_per_rescore"] = metrics["sorter.update_count"] / events
    same_input = [s["wall_s"] for s in traced if s["dataset"] == plain[0]["dataset"]]
    metrics["trace.overhead_frac"] = statistics.median(same_input) / plain[0]["wall_s"] - 1.0
    missing = sorted(set(PER_LAYER) - set(metrics))
    return metrics, missing


def sort_accounting(traced: list[dict], checks: Checks) -> list[dict]:
    """sorter.sort_s must equal its own self time plus the self times of
    the spans inside it."""
    rows = []
    for s in traced:
        sort_row = s["layers"].get("sorter.sort")
        if sort_row is None:
            continue
        inside = s.get("in_sort_self_s", {})
        total = sort_row["self_s"] + sum(inside.values())
        checks.check(abs(total - sort_row["total_s"]) <= 1e-6 * max(1.0, sort_row["total_s"]),
                     f"self times inside sorter.sort sum to {total}, span is "
                     f"{sort_row['total_s']}")
        rows.append({"sorter.sort_s": sort_row["total_s"], "sorter.self_s": sort_row["self_s"],
                     **{f"{k}_self_s": v for k, v in inside.items()}})
    return rows


def measure(wl: dict, datasets: list[Dataset], seconds: float, trace: bool,
            checks: Checks) -> tuple[list[dict], list[dict]]:
    """Timed passes in whole cycles over the data sets, until ``seconds``
    have gone, so that every data set runs equally often.  With tracing, one
    plain pass over the first data set comes first, as the reference for the
    tracing overhead, and the timed passes are traced."""
    plain: list[dict] = []
    traced: list[dict] = []
    first: dict[int, dict] = {}

    def one(ds: Dataset, is_traced: bool) -> bool:
        sample = run_pass(wl, ds, is_traced, checks)
        if sample is None:
            return False
        (traced if is_traced else plain).append(sample)
        compare_guard(first.setdefault(ds.index, {}), guard_values(sample),
                      f"data set {ds.index}", checks)
        return True

    if trace and not one(datasets[0], False):
        return plain, traced
    timed = traced if trace else plain
    started = perf_counter()
    while not timed or perf_counter() - started < seconds:
        for ds in datasets:
            if not one(ds, trace):
                return plain, traced
    return plain, traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="run the workload's shape at p=50 (for test_smoke.py)")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so that run_child kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "lingamsort" / "cli.py").is_file():
        print(f"error: no lingamsort sources under {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload] | (SMOKE[args.workload] if args.smoke else {})
    label = f"{args.workload}{'-smoke' if args.smoke else ''}-seed{args.seed}"
    work = STATE / "work" / f"{label}-{os.getpid()}"
    datasets = [Dataset(work, wl, args.seed, d) for d in range(wl["datasets"])]
    checks = Checks()
    try:
        setups: list[float] = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            elapsed, info = set_up(work, wl, datasets)
            setups.append(elapsed)
        plain, traced = measure(wl, datasets, args.seconds, bool(args.trace), checks)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    fingerprint = source_fingerprint()
    # Keyed by the inputs' definition too, so that a changed workload starts afresh.
    inputs = hashlib.sha256(json.dumps([wl, GRAPH, SIM, TEST_ROWS_FRAC], sort_keys=True)
                            .encode()).hexdigest()[:8]
    guard_path = STATE / "guard" / fingerprint / f"{label}-{inputs}.json"
    guard_path.parent.mkdir(parents=True, exist_ok=True)
    stored = json.loads(guard_path.read_text()) if guard_path.exists() else {}
    for ds_index, values in sorted({s["dataset"]: guard_values(s)
                                    for s in plain + traced}.items()):
        compare_guard(stored.setdefault(str(ds_index), {}), values,
                      f"data set {ds_index} against earlier runs", checks)
    guard_path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")

    missing: list[str] = []
    accounting: list[dict] = []
    if not plain or (args.trace and not traced):
        metrics: dict[str, float] = {}
    elif args.trace:
        metrics, missing = per_layer(traced, plain)
        accounting = sort_accounting(traced, checks)
    else:
        metrics = end_to_end(plain, setups)
    units = PER_LAYER if args.trace else END_TO_END

    record = {
        "workload": args.workload, "smoke": args.smoke, "seed": args.seed,
        "dataset_seeds": [ds.data_seed for ds in datasets],
        "test_seeds": [ds.test_seed for ds in datasets] if wl["kind"] == "pipe" else [],
        "seconds": args.seconds, "trace": args.trace,
        "machine": {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                    "cpu_model": cpu_model(), "platform": platform.platform()},
        "software": info, "child_blas_threads": BLAS_THREADS,
        "git_commit": git_commit(), "source_sha256": fingerprint,
        "setup_s": setups, "passes": len(plain), "traced_passes": len(traced),
        "samples": plain + traced,
        "absent": missing, "sort_accounting": accounting,
        "problems": checks.problems,
    }
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{label}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=sorted) + "\n")
    print(json.dumps({"provenance": {k: record[k] for k in (
        "machine", "software", "child_blas_threads", "git_commit", "source_sha256",
        "seed", "dataset_seeds", "passes", "traced_passes", "absent", "problems")},
        "trace_overhead_frac": metrics.get("trace.overhead_frac")}))
    print(json.dumps({
        "correct": checks.failed == 0 and bool(plain),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
