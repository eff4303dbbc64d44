"""Batch command-line interface and file formats.

Subcommands wire the library into reproducible pipelines:

* ``generate``  -- sample a synthetic model and data set from a JSON config
* ``sort``      -- estimate a topological ordering from a CSV data matrix
* ``eval``      -- compare an estimated ordering against a truth file
* ``benchmark`` -- run a generate/sort/eval grid, one JSONL record per replicate
* ``fit``       -- OLS coefficients and noise scales given data and an ordering
* ``loglik``    -- held-out mean log-likelihood of a fitted model

Formats: data is RFC-4180 CSV with header v0..v{p-1} and full round-trip
float precision; graphs, orderings, and models are JSON; node indices are
0-based everywhere.  Exit codes: 0 success, 1 computation error, 2
usage/IO error.  Outputs are byte-stable across re-runs; measured wall
times are only emitted under ``--timings``.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .metrics import fit_coefficients, heldout_loglik, order_error, reversed_edge_count
from .model import (
    Dag,
    DataMatrix,
    NeighborhoodSets,
    NoiseFamily,
    Ordering,
    WeightedDag,
    is_topological,
)
from .neighborhoods import full_neighborhoods, markov_blankets, top_correlated
from .regression import (
    RankDeficient,
    VarianceOverflow,
    ZeroVarianceColumn,
    apply_moments,
    standardize,
)
from .scoring import DegenerateResidual
from .simulate import (
    STREAM_REPLICATE,
    STREAM_SPLIT,
    FromDag,
    LargeSparse,
    SimConfig,
    derive_seed,
    rng_stream,
    sample_dataset,
)
from .sorter import SortConfig, sort as run_sort


class UsageError(Exception):
    """Bad arguments, unreadable files, or invalid configuration (exit 2)."""


# ---------------------------------------------------------------------------
# file formats


def write_data_csv(path: str | Path, x: DataMatrix) -> None:
    """CSV with header v0..v{p-1}; floats carry full round-trip precision."""
    tmp = Path(str(path) + ".tmp")
    with open(tmp, "w", newline="") as fh:
        fh.write(",".join(f"v{k}" for k in range(x.p)) + "\r\n")
        # the repr of a list of floats is their shortest round-trip reprs
        # joined by ", "; no float repr needs CSV quoting, so these are the
        # bytes csv.writer writes for [repr(v) for v in row]
        for row in x.values:
            fh.write(repr(row.tolist())[1:-1].replace(", ", ",") + "\r\n")
    os.replace(tmp, path)


def _count_lines(path: str | Path) -> int:
    """Lines in a file; an unterminated last line counts as one."""
    lines, last = 0, b"\n"
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            lines += chunk.count(b"\n")
            last = chunk[-1:]
    return lines + (last != b"\n")


def _read_clean_csv(path: str | Path) -> tuple[list[str], np.ndarray] | None:
    """Header and values of a clean data CSV through numpy's C parser, or
    None for anything else: a parse error, a warning, or a shape other than
    one row per data line and one column per header field.  numpy skips
    blank lines, so they show up as missing rows."""
    data_lines = _count_lines(path) - 1
    if data_lines < 1:
        return None
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                values = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, dtype=float)
        except (ValueError, Warning):
            return None
    if values.shape != (data_lines, len(header)):
        return None
    return header, values


def _read_csv_rows(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Header and values through ``csv.reader``, naming the first bad line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise UsageError(f"{path}: empty file") from None
        p = len(header)
        rows: list[list[float]] = []
        for i, row in enumerate(reader, start=2):
            if len(row) != p:
                raise UsageError(f"{path}:{i}: expected {p} fields, found {len(row)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise UsageError(f"{path}:{i}: {exc}") from None
    if not rows:
        raise UsageError(f"{path}: no data rows")
    return header, np.asarray(rows)


def read_data_csv(path: str | Path) -> DataMatrix:
    """A data CSV as a DataMatrix.  A clean file is parsed by numpy's C
    parser; any other file goes through ``csv.reader``, which gives the same
    values or names the bad line."""
    header, values = _read_clean_csv(path) or _read_csv_rows(path)
    if not np.isfinite(values).all():
        i, k = np.argwhere(~np.isfinite(values))[0]
        raise UsageError(f"{path}:{i + 2}: column {header[k]} holds {values[i, k]}")
    return DataMatrix(values)


def _read_json(path: str | Path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None


def _write_json(path: str | Path, doc: object) -> None:
    tmp = Path(str(path) + ".tmp")
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    os.replace(tmp, path)


def family_to_doc(family: NoiseFamily) -> dict:
    doc: dict = {"tag": family.tag}
    if family.df is not None:
        doc["df"] = family.df
    return doc


def family_from_doc(doc: object, where: str) -> NoiseFamily:
    try:
        if isinstance(doc, str):
            return NoiseFamily.from_string(doc)
        if isinstance(doc, dict):
            return NoiseFamily(doc["tag"], df=doc.get("df"))
    except (KeyError, ValueError) as exc:
        raise UsageError(f"{where}: {exc}") from None
    raise UsageError(f"{where}: expected a family string or object")


def truth_to_doc(w: WeightedDag, ordering: Ordering, seed: int) -> dict:
    return {
        "p": w.p,
        "edges": [{"from": j, "to": k, "weight": wt} for j, k, wt in w.weighted_edges()],
        "family": family_to_doc(w.family),
        "scales": [float(s) for s in w.scales],
        "ordering": list(ordering.perm),
        "seed": int(seed),
    }


def weighted_dag_from_doc(doc: dict, edge_field: str, where: str) -> WeightedDag:
    """The model in a truth or model file: ``p``, ``family``, ``scales`` and
    ``{from, to, weight}`` records under ``edge_field``.  An out-of-range
    node, self-loop, cycle, zero or non-finite weight or bad scale is a UsageError."""
    try:
        p = int(doc["p"])
        family = family_from_doc(doc["family"], where)
        incoming: list[list[tuple[int, float]]] = [[] for _ in range(p)]
        for e in doc[edge_field]:
            k = e["to"]
            if not 0 <= k < p:
                raise ValueError(f"edge into node {k} out of range [0, {p})")
            incoming[k].append((int(e["from"]), float(e["weight"])))
        cols = [tuple(zip(*sorted(inc))) or ((), ()) for inc in incoming]  # as Dag sorts
        dag = Dag(p, [pa for pa, _ in cols])
        return WeightedDag(dag, [wt for _, wt in cols], family, doc["scales"])
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{where}: missing or malformed field ({exc})") from None


def truth_from_doc(doc: dict, where: str = "truth") -> tuple[WeightedDag, Ordering, int]:
    w = weighted_dag_from_doc(doc, "edges", where)
    try:
        return w, Ordering(doc["ordering"]), int(doc["seed"])
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{where}: missing or malformed field ({exc})") from None


def load_edge_list(path: str | Path, p: int | None = None) -> Dag:
    """Whitespace-separated ``from to`` pairs, 0-based, one edge per line."""
    edges: list[tuple[int, int]] = []
    with open(path) as fh:
        for i, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens) != 2:
                raise UsageError(f"{path}:{i}: expected 'from to', found {line.strip()!r}")
            try:
                edges.append((int(tokens[0]), int(tokens[1])))
            except ValueError:
                raise UsageError(f"{path}:{i}: node indices must be integers") from None
    if p is None:
        p = 1 + max((max(j, k) for j, k in edges), default=-1)
    try:
        return Dag.from_edges(p, edges)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None


def write_neighborhoods(path: str | Path, nbhd: NeighborhoodSets) -> None:
    _write_json(path, nbhd.to_lists())


def read_neighborhoods(path: str | Path) -> NeighborhoodSets:
    doc = _read_json(path)
    try:
        return NeighborhoodSets(doc)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# configuration


def _require(doc: dict, field: str, where: str):
    if field not in doc:
        raise UsageError(f"{where}: missing required field {field!r}")
    return doc[field]


def parse_sim_config(doc: dict, base_dir: Path, where: str = "config") -> SimConfig:
    p = int(_require(doc, "p", where))
    n = int(_require(doc, "n", where))
    seed = int(_require(doc, "seed", where))
    family = family_from_doc(_require(doc, "family", where), f"{where}: field 'family'")
    graph_doc = _require(doc, "graph", where)
    scheme = _require(graph_doc, "scheme", f"{where}: field 'graph'")
    if scheme == "large-sparse":
        graph: LargeSparse | FromDag = LargeSparse(
            root_frac=float(graph_doc.get("root_frac", 0.05)),
            min_parents=int(graph_doc.get("min_parents", 1)),
            max_parents=int(graph_doc.get("max_parents", 2)),
        )
    elif scheme == "edge-list":
        rel = _require(graph_doc, "path", f"{where}: field 'graph'")
        graph = FromDag(load_edge_list(base_dir / rel, p=p))
    else:
        raise UsageError(f"{where}: unknown graph scheme {scheme!r}")
    try:
        return SimConfig(
            p=p,
            n=n,
            seed=seed,
            family=family,
            graph=graph,
            coef_low=float(doc.get("coef_low", 0.4)),
            coef_high=float(doc.get("coef_high", 0.9)),
            scale_low=float(doc.get("scale_low", 0.4)),
            scale_high=float(doc.get("scale_high", 0.7)),
        )
    except ValueError as exc:
        raise UsageError(f"{where}: {exc}") from None


def _split_rows(x: DataMatrix, frac: float, seed: int) -> tuple[DataMatrix, DataMatrix]:
    """Deterministic (holdout, remainder) row split; rows keep their order."""
    if not 0 < frac < 1:
        raise UsageError("holdout fraction must lie in (0, 1)")
    n_hold = int(math.floor(frac * x.n))
    if n_hold < 3 or x.n - n_hold < 2:
        raise UsageError(f"cannot split {x.n} rows with fraction {frac}")
    perm = rng_stream(seed, STREAM_SPLIT).permutation(x.n)
    hold = np.sort(perm[:n_hold])
    rest = np.sort(perm[n_hold:])
    return DataMatrix(x.values[hold]), DataMatrix(x.values[rest])


def _parse_corr(spec: str, p: int, with_seed: bool, where: str) -> tuple:
    """``corr:m:frac`` as (m, frac), or ``corr:m:frac:seed`` as (m, frac,
    seed), with 0 < m < p checked."""
    fields = spec.split(":")[1:]
    if len(fields) != 2 + with_seed:
        form = "corr:m:frac:seed" if with_seed else "corr:m:frac (split seed is derived)"
        raise UsageError(f"{where}: expected {form}")
    try:
        parsed = (int(fields[0]), float(fields[1]), *map(int, fields[2:]))
    except ValueError as exc:
        raise UsageError(f"{where}: bad corr specification: {exc}") from None
    if not 0 < parsed[0] < p:
        raise UsageError(f"{where}: corr: need 0 < m < p, got m={parsed[0]}, p={p}")
    return parsed


def _corr_neighborhoods(x: DataMatrix, m: int, frac: float,
                        seed: int) -> tuple[NeighborhoodSets, DataMatrix]:
    """The top-m correlated sets from a held-out share of the rows, and the
    rows left for estimation."""
    hold, rows = _split_rows(x, frac, seed)
    return top_correlated(hold, m), rows


def resolve_neighborhoods(option: str, x: DataMatrix) -> tuple[NeighborhoodSets, DataMatrix, str]:
    """Parse ``full`` / ``file.json`` / ``corr:m:frac:seed``.

    Returns the sets, the rows left for estimation (the input minus any
    correlation holdout), and a normalized descriptor string.  Every set
    must fit in the estimation rows: a node cannot have more neighbors
    than there are rows to regress it on.
    """
    rows = x
    if option == "full":
        nbhd = full_neighborhoods(x.p)
    elif option.startswith("corr:"):
        nbhd, rows = _corr_neighborhoods(x, *_parse_corr(option, x.p, True, "--neighborhoods"))
    else:
        path = Path(option)
        if not path.exists():
            raise UsageError(f"neighborhood file not found: {option}")
        nbhd = read_neighborhoods(path)
        if nbhd.p != x.p:
            raise UsageError(f"{option}: covers {nbhd.p} nodes, data has {x.p}")
    for k, s in enumerate(nbhd.sets):
        if s.size > rows.n:
            raise UsageError(f"{option}: node {k} has {s.size} neighbors, "
                             f"more than the {rows.n} estimation rows")
    return nbhd, rows, option


def _read_estimation_csv(path: str | Path) -> DataMatrix:
    """A data CSV that a model is estimated from: at least two rows."""
    x = read_data_csv(path)
    if x.n < 2:
        raise UsageError(f"{path}: estimation needs at least two data rows, found {x.n}")
    return x


# ---------------------------------------------------------------------------
# commands


def cmd_generate(args: argparse.Namespace) -> int:
    config_path = Path(args.config)
    if not config_path.exists():
        raise UsageError(f"config file not found: {config_path}")
    cfg = parse_sim_config(_read_json(config_path), config_path.parent, where=str(config_path))
    w, ordering, x = sample_dataset(cfg)
    write_data_csv(args.out_data, x)
    _write_json(args.out_truth, truth_to_doc(w, ordering, cfg.seed))
    print(json.dumps({"data": str(args.out_data), "truth": str(args.out_truth),
                      "p": cfg.p, "n": cfg.n, "edges": w.dag.edge_count}))
    return 0


def _bad_column(path: str, exc: ZeroVarianceColumn | VarianceOverflow) -> UsageError:
    what = "is constant" if isinstance(exc, ZeroVarianceColumn) else "variance overflows"
    return UsageError(f"{path}: column v{exc.column} {what}")


def cmd_sort(args: argparse.Namespace) -> int:
    x = _read_estimation_csv(args.data)
    family = family_from_doc(args.family, "--family")
    try:
        nbhd, rows, descriptor = resolve_neighborhoods(args.neighborhoods, x)
        result = run_sort(rows, SortConfig(family=family, neighborhoods=nbhd, trace=args.trace))
    except (ZeroVarianceColumn, VarianceOverflow) as exc:
        raise _bad_column(args.data, exc) from None
    doc = {
        "p": x.p,
        "n_sorted": rows.n,
        "family": args.family,
        "neighborhoods": descriptor,
        "ordering": list(result.ordering.perm),
        "update_count": result.update_count,
        "wall_time_ms": result.wall_time * 1e3 if args.timings else None,
        "diagnostics": {
            "degenerate": [[k, t] for k, t in result.diagnostics.get("degenerate", [])],
            "skipped_updates": len(result.diagnostics.get("skipped_updates", [])),
        },
    }
    if result.step_scores is not None:
        doc["step_scores"] = [[[k, s] for k, s in step] for step in result.step_scores]
    _write_json(args.out, doc)
    print(json.dumps({"ordering": str(args.out), "update_count": result.update_count}))
    return 0


def read_ordering(path: str | Path) -> Ordering:
    doc = _read_json(path)
    try:
        return Ordering(doc["ordering"])
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{path}: {exc}") from None


def cmd_eval(args: argparse.Namespace) -> int:
    w, _, _ = truth_from_doc(_read_json(args.truth), where=str(args.truth))
    ordering = read_ordering(args.ordering)
    if ordering.p != w.p:
        raise UsageError(f"ordering has {ordering.p} nodes, truth has {w.p}")
    print(json.dumps({
        "order_error": order_error(w.dag, ordering),
        "is_topological": is_topological(w.dag, ordering),
        "reversed_edge_count": reversed_edge_count(w.dag, ordering),
    }))
    return 0


def _benchmark_cell(cell: dict, cell_idx: int, base_seed: int, timings: bool, where: str) -> list[dict]:
    replicates = int(cell.get("replicates", 1))
    p = int(_require(cell, "p", where))
    if "n" in cell:
        n = int(cell["n"])
    elif "n_mult" in cell:
        n = max(2, int(round(float(cell["n_mult"]) * p)))
    else:
        raise UsageError(f"{where}: need 'n' or 'n_mult'")
    family = family_from_doc(_require(cell, "family", where), where)
    scheme = cell.get("neighborhoods", "mb")
    if scheme.startswith("corr:"):
        corr_m, corr_frac = _parse_corr(scheme, p, False, where)
    elif scheme not in ("mb", "full"):
        raise UsageError(f"{where}: unknown neighborhood scheme {scheme!r}")
    graph_doc = cell.get("graph", {"scheme": "large-sparse"})
    if graph_doc.get("scheme", "large-sparse") != "large-sparse":
        raise UsageError(f"{where}: benchmark cells support only the large-sparse scheme")
    records: list[dict] = []
    for r in range(replicates):
        seed = derive_seed(base_seed, STREAM_REPLICATE, cell_idx, r)
        record = {
            "cell": cell_idx, "replicate": r, "seed": seed, "p": p, "n": n,
            "family": str(family), "neighborhoods": scheme,
            "order_error": None, "is_topological": None, "update_count": None,
            "wall_time_ms": None, "error": None,
        }
        try:
            sim_doc = {**cell, "n": n, "seed": seed,
                       "graph": {"scheme": "large-sparse", **graph_doc}}
            w, _, x = sample_dataset(parse_sim_config(sim_doc, Path(), where))
            if scheme == "mb":
                nbhd, rows = markov_blankets(w.dag), x
            elif scheme == "full":
                nbhd, rows = full_neighborhoods(p), x
            else:
                nbhd, rows = _corr_neighborhoods(x, corr_m, corr_frac,
                                                 derive_seed(seed, STREAM_SPLIT))
            result = run_sort(rows, SortConfig(family=family, neighborhoods=nbhd))
            record["order_error"] = order_error(w.dag, result.ordering)
            record["is_topological"] = is_topological(w.dag, result.ordering)
            record["update_count"] = result.update_count
            if timings:
                record["wall_time_ms"] = result.wall_time * 1e3
        except Exception as exc:  # per-replicate failure: record and continue
            record["error"] = f"{type(exc).__name__}: {exc}"
        records.append(record)
    return records


def cmd_benchmark(args: argparse.Namespace) -> int:
    config_path = Path(args.config)
    if not config_path.exists():
        raise UsageError(f"config file not found: {config_path}")
    doc = _read_json(config_path)
    base_seed = int(_require(doc, "base_seed", str(config_path)))
    cells = _require(doc, "cells", str(config_path))
    records: list[dict] = []
    for ci, cell in enumerate(cells):
        records.extend(_benchmark_cell(cell, ci, base_seed, args.timings,
                                       where=f"{config_path}: cells[{ci}]"))
    records.sort(key=lambda rec: (rec["cell"], rec["replicate"]))
    tmp = Path(str(args.out) + ".tmp")
    with open(tmp, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    os.replace(tmp, args.out)
    print(json.dumps({"results": str(args.out), "records": len(records)}))
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    x = _read_estimation_csv(args.data)
    ordering = read_ordering(args.ordering)
    if ordering.p != x.p:
        raise UsageError(f"ordering has {ordering.p} nodes, data has {x.p}")
    family = family_from_doc(args.family, "--family")
    try:
        nbhd, rows, _ = resolve_neighborhoods(args.neighborhoods, x)
        train = standardize(rows)
    except (ZeroVarianceColumn, VarianceOverflow) as exc:
        raise _bad_column(args.data, exc) from None
    mean, sd = train.moments
    try:
        model = fit_coefficients(train, ordering, nbhd, family)
    except RankDeficient as exc:
        raise UsageError(f"{args.data}: the predecessors of column v{exc.node} "
                         "are collinear") from None
    except DegenerateResidual as exc:
        raise UsageError(f"{args.data}: column v{exc.node} is explained exactly "
                         "by its predecessors") from None
    # edges by parent: the (from, to) order of model files, with no sorted copy
    by_parent: list[list[dict]] = [[] for _ in range(x.p)]
    for j, k, wt in model.weighted_edges():
        by_parent[j].append({"from": j, "to": k, "weight": wt})
    doc = {
        "p": x.p,
        "family": family_to_doc(family),
        "coefficients": [e for edges in by_parent for e in edges],
        "scales": [float(s) for s in model.scales],
        "train_means": [float(v) for v in mean],
        "train_sds": [float(v) for v in sd],
    }
    _write_json(args.out, doc)
    print(json.dumps({"model": str(args.out), "nonzero_coefficients": model.dag.edge_count}))
    return 0


def read_model(path: str | Path) -> tuple[WeightedDag, np.ndarray, np.ndarray]:
    """A model file as (model, train_means, train_sds)."""
    doc = _read_json(path)
    model = weighted_dag_from_doc(doc, "coefficients", str(path))
    try:
        return model, np.asarray(doc["train_means"], float), np.asarray(doc["train_sds"], float)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{path}: missing or malformed field ({exc})") from None


def cmd_loglik(args: argparse.Namespace) -> int:
    model, mean, sd = read_model(args.model)
    x = read_data_csv(args.data)
    if x.p != model.p:
        raise UsageError(f"model has {model.p} nodes, data has {x.p}")
    try:
        test = apply_moments(x, mean, sd)
    except ValueError as exc:
        raise UsageError(f"{args.model}: {exc}") from None
    value = heldout_loglik(test, model)
    print(json.dumps({"mean_loglik": value, "units": "per-observation-per-variable",
                      "family": str(model.family)}))
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lingamsort",
        description="Topological ordering of linear non-Gaussian acyclic models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="sample a synthetic model and data set")
    gen.add_argument("--config", required=True, help="JSON simulation config")
    gen.add_argument("--out-data", default="data.csv")
    gen.add_argument("--out-truth", default="truth.json")
    gen.set_defaults(func=cmd_generate)

    srt = sub.add_parser("sort", help="estimate a topological ordering")
    srt.add_argument("--data", required=True, help="CSV data matrix")
    srt.add_argument("--family", default="laplace",
                     help="laplace | logistic | scaled-t:NU")
    srt.add_argument("--neighborhoods", default="full",
                     help="full | FILE.json | corr:m:frac:seed")
    srt.add_argument("--trace", action="store_true", help="record per-step scores")
    srt.add_argument("--timings", action="store_true",
                     help="emit measured wall time (breaks byte-stability)")
    srt.add_argument("--out", default="ordering.json")
    srt.set_defaults(func=cmd_sort)

    ev = sub.add_parser("eval", help="score an ordering against the truth")
    ev.add_argument("--truth", required=True)
    ev.add_argument("--ordering", required=True)
    ev.set_defaults(func=cmd_eval)

    bench = sub.add_parser("benchmark", help="run a generate/sort/eval grid")
    bench.add_argument("--config", required=True, help="JSON benchmark grid")
    bench.add_argument("--out", default="results.jsonl")
    bench.add_argument("--timings", action="store_true")
    bench.set_defaults(func=cmd_benchmark)

    fit = sub.add_parser("fit", help="fit coefficients and scales along an ordering")
    fit.add_argument("--data", required=True)
    fit.add_argument("--ordering", required=True)
    fit.add_argument("--family", default="laplace",
                     help="laplace | logistic | scaled-t:NU | gaussian (evaluation only)")
    fit.add_argument("--neighborhoods", default="full")
    fit.add_argument("--out", default="model.json")
    fit.set_defaults(func=cmd_fit)

    ll = sub.add_parser("loglik", help="held-out mean log-likelihood of a model")
    ll.add_argument("--model", required=True)
    ll.add_argument("--data", required=True, help="test CSV, raw (training transform is applied)")
    ll.set_defaults(func=cmd_loglik)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"computation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
