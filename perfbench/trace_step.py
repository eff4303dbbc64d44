"""Traced child of the benchmark: one ``lingamsort`` CLI call, in-process.

Run as ``python3 perfbench/trace_step.py OUT.json -- <lingamsort CLI args>``
with ``PYTHONPATH`` pointing at the checkout's ``src``.  It times the import
of ``lingamsort.cli``, replaces each function in ``WRAPPED`` by a wrapper in
the module namespace where the CLI or the sorter looks it up, runs
``lingamsort.cli.main`` on the arguments, and writes per-layer totals to
OUT.json.  Spans (name, parent, start, end) stay in memory until the call
returns; a layer's self time is its span time minus its child spans' time.
Nothing in the package is edited; a function that no longer exists under
its name is reported as absent.
"""
from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# (module, attribute, layer): one entry per namespace the name is looked up in.
WRAPPED = [
    ("lingamsort.cli", "run_sort", "sorter.sort"),
    ("lingamsort.sorter", "partial_update", "regression.partial_update"),
    ("lingamsort.sorter", "llr_score", "scoring.llr_score"),
    ("lingamsort.sorter", "standardize", "regression.standardize"),
    ("lingamsort.cli", "standardize", "regression.standardize"),
    ("lingamsort.sorter", "ols_residual", "regression.ols_residual"),
    ("lingamsort.metrics", "ols_residual", "regression.ols_residual"),
    ("lingamsort.cli", "write_data_csv", "cli.write_data_csv"),
    ("lingamsort.cli", "read_data_csv", "cli.read_data_csv"),
    ("lingamsort.cli", "top_correlated", "neighborhoods.top_correlated"),
    ("lingamsort.cli", "markov_blankets", "neighborhoods.markov_blankets"),
    ("lingamsort.cli", "fit_coefficients", "metrics.fit_coefficients"),
    ("lingamsort.cli", "heldout_loglik", "metrics.heldout_loglik"),
    ("lingamsort.cli", "sample_dataset", "simulate.sample_dataset"),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, parent index, start, end]
        self.stack = [-1]
        self.rescore_events: list[int | None] = []

    def wrap(self, fn, layer: str):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [layer, stack[-1], 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()

        return traced

    def wrap_sort(self, fn):
        """Also keep the sorter's own rescore-event count from its result."""
        traced = self.wrap(fn, "sorter.sort")

        def observed(*args, **kwargs):
            result = traced(*args, **kwargs)
            self.rescore_events.append(_rescore_events(result))
            return result

        return observed

    def layers(self) -> tuple[dict, dict]:
        """Per layer: calls, total and self seconds; and the time that each
        layer spends inside ``sorter.sort`` spans."""
        child_time = [0.0] * len(self.spans)
        for layer, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        in_sort: dict[str, float] = {}
        for i, (layer, parent, start, end) in enumerate(self.spans):
            row = out.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
            if layer != "sorter.sort" and self._inside_sort(parent):
                in_sort[layer] = in_sort.get(layer, 0.0) + end - start - child_time[i]
        return out, in_sort

    def _inside_sort(self, parent: int) -> bool:
        while parent >= 0:
            if self.spans[parent][0] == "sorter.sort":
                return True
            parent = self.spans[parent][1]
        return False


def _rescore_events(result) -> int | None:
    """The sorter's own count, or None (reported absent) if it no longer has one."""
    diagnostics = getattr(result, "diagnostics", None)
    if isinstance(diagnostics, dict) and "rescore_events" in diagnostics:
        return int(diagnostics["rescore_events"])
    return None


def main(argv: list[str]) -> int:
    out, cli_args = argv[0], argv[argv.index("--") + 1:]
    started = perf_counter()
    cli = importlib.import_module("lingamsort.cli")
    import_s = perf_counter() - started

    tracer = Tracer()
    present: set[str] = set()
    missing: set[str] = set()
    for module_name, attr, layer in WRAPPED:
        try:
            module = importlib.import_module(module_name)
        except ModuleNotFoundError:
            module = None
        fn = getattr(module, attr, None)
        if fn is None:
            missing.add(layer)
            continue
        present.add(layer)
        wrapped = tracer.wrap_sort(fn) if layer == "sorter.sort" else tracer.wrap(fn, layer)
        setattr(module, attr, wrapped)

    command = tracer.wrap(cli.main, "cli." + cli_args[0])
    code = command(cli_args)
    layers, in_sort = tracer.layers()
    with open(out, "w") as fh:
        json.dump({
            "import_s": import_s,
            "layers": layers,
            "in_sort_self_s": in_sort,
            "rescore_events": tracer.rescore_events,
            "absent": sorted(missing - present),
        }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
