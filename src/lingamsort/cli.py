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
usage/IO error.  For a fixed BLAS thread count, outputs are byte-stable
across re-runs (``fit``'s weights can move in their last digits with the
thread count); measured wall times are only emitted under ``--timings``.

``sort``, ``fit`` and each ``benchmark`` replicate get their neighborhood
sets and estimation rows, checked once, from :func:`estimation_input`.

Data CSVs are formatted and parsed by W = min(CPUs in the process's
affinity set, 8, the file's size in MiB) forked children, each bound to
its own CPU, while the parent waits; W = 1, or a child that fails, runs
the same code in-process on the whole file.  The bytes written and the
values read are the same for every W.  A read holds the n x p values
once, in a shared anonymous mmap that the returned DataMatrix keeps; each
child adds the numpy array of its own byte range while it parses it.
numpy's C parser gives every value, quoted cells included; ``csv.reader``
splits the header and, when numpy refuses a file, names its first bad line.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import mmap
import os
import shutil
import sys
import warnings
from contextlib import contextmanager, suppress
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain, islice
from pathlib import Path
from typing import Callable, Iterator, NoReturn

import numpy as np

from .metrics import (RankDeficient, fit_coefficients, heldout_loglik, is_topological,
                      order_error, reversed_edge_count)
from .model import (
    Dag,
    DataMatrix,
    NeighborhoodSets,
    NoiseFamily,
    Ordering,
    VarianceOverflow,
    WeightedDag,
    ZeroVarianceColumn,
    apply_moments,
    decimal_number,
    standardize,
)
from .neighborhoods import full_neighborhoods, markov_blankets, top_correlated
from .scoring import DegenerateResidual
from .simulate import (
    STREAM_REPLICATE,
    STREAM_SPLIT,
    LargeSparse,
    SimConfig,
    derive_seed,
    rng_stream,
    sample_dataset,
)
from .sorter import sort as run_sort


class UsageError(Exception):
    """Bad arguments, unreadable files, or invalid configuration (exit 2)."""


# ---------------------------------------------------------------------------
# file formats


def _workers(nbytes: int) -> int:
    """Processes that share the formatting or parsing of a CSV of ``nbytes``:
    one per CPU this process may run on, at most 8, and at most one per MiB."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, min(cpus, 8, nbytes >> 20))


def _fork(job: Callable[[], object], cpu: int) -> int:
    """Run ``job`` in a forked child bound to ``cpu``; its pid.  The child
    leaves through ``os._exit``: 0 when ``job`` returns, 1 when it raises."""
    with warnings.catch_warnings():
        # Python 3.12 warns on fork() in a process with threads, and an idle
        # OpenBLAS pool counts; the child never calls BLAS and runs no exit
        # handlers, so the threads it lacks are never waited for
        warnings.filterwarnings("ignore", r".*use of fork\(\) may lead to deadlocks",
                                DeprecationWarning)
        pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        # a kernel may leave a short-lived child on its parent's CPU for its
        # whole life, so that W children share one core; binding each to its
        # own CPU spreads them
        with suppress(OSError):
            os.sched_setaffinity(0, {cpu})
        job()
        code = 0
    finally:
        os._exit(code)


def _in_children(jobs: list[Callable[[], object]]) -> bool:
    """Run the jobs at once, each in a forked child on its own CPU (in turn
    when there are more jobs than CPUs); True when every child exits 0.
    Every child is reaped, also when the parent is interrupted while it
    waits."""
    cpus = sorted(os.sched_getaffinity(0))
    pids: list[int] = []
    ok = True
    try:
        try:
            for k, job in enumerate(jobs):
                pids.append(_fork(job, cpus[k % len(cpus)]))
        except OSError:  # no process to spare: report failure, the caller works alone
            ok = False
        while pids:
            ok &= os.waitpid(pids[0], 0)[1] == 0
            pids.pop(0)
    finally:
        for pid in pids:
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)
    return ok


@contextmanager
def _replacing(path: str | Path) -> Iterator[Path]:
    """A temporary path beside ``path`` that replaces it when the block
    completes; it is removed when the block or the rename fails."""
    tmp = Path(str(path) + ".tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


@contextmanager
def _malformed(where: str) -> Iterator[None]:
    """The one rule for a bad input value: what a reader of an input file,
    option or cell raises while it builds its value becomes a UsageError
    (exit 2) that names ``where``.  A byte that text decoding refuses is
    named by its value, not its position, which counts from the start of
    the decoder's current chunk, not of the file; a JSON syntax error by
    its line and column; a KeyError as the missing field; a TypeError,
    ValueError or OverflowError by its own message.  The first two are
    ValueErrors, so they are caught first."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise UsageError(f"{where}: byte 0x{exc.object[exc.start]:02x} is not "
                         f"{exc.encoding} text") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"{where}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except KeyError as exc:
        raise UsageError(f"{where}: missing field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"{where}: {exc}") from None


def _csv_row(row: np.ndarray) -> str:
    # the repr of a list of floats is their shortest round-trip reprs joined
    # by ", "; no float repr needs CSV quoting, so these are the bytes
    # csv.writer writes for [repr(v) for v in row]
    return repr(row.tolist())[1:-1].replace(", ", ",") + "\r\n"


def _write_rows(path: Path, head: str, rows: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(head)
        for row in rows:
            fh.write(_csv_row(row))


def write_data_csv(path: str | Path, x: DataMatrix) -> None:
    """CSV with header v0..v{p-1}; floats carry full round-trip precision.

    With W = ``_workers`` of the file's size (its first row times n) above
    1, W forked children format contiguous ranges of rows, the first into
    the temporary file and the others into part files that the parent then
    appends to it; if any child fails, the parent writes the whole file
    itself, so an error is the one a single writer raises.  The bytes do
    not depend on W."""
    head = ",".join(f"v{k}" for k in range(x.p)) + "\r\n"
    w = min(_workers(len(_csv_row(x.values[0])) * x.n), x.n)
    cuts = [x.n * k // w for k in range(w + 1)]
    with _replacing(path) as tmp:
        parts = [tmp] + [Path(f"{tmp}{k}") for k in range(1, w)]
        try:
            if w == 1 or not _in_children([
                    partial(_write_rows, part, head if k == 0 else "", x.values[lo:hi])
                    for k, (part, lo, hi) in enumerate(zip(parts, cuts, cuts[1:]))]):
                _write_rows(tmp, head, x.values)
            else:
                with open(tmp, "ab") as out:
                    for part in parts[1:]:
                        with open(part, "rb") as fh:
                            shutil.copyfileobj(fh, out, 1 << 20)
        finally:
            for part in parts[1:]:
                part.unlink(missing_ok=True)


def _count_lines(path: str | Path, cuts: list[int]) -> tuple[int, list[tuple[int, int]]]:
    """Lines in a file, an unterminated last line counting as one; and for
    each byte offset in the ascending ``cuts``, the first line start at or
    after it (the file's size when there is none) with the number of lines
    before that start."""
    lines, last, pos, starts = 0, b"\n", 0, []
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            while len(starts) < len(cuts):
                at = chunk.find(b"\n", max(cuts[len(starts)] - 1 - pos, 0))
                if at < 0:
                    break
                starts.append((pos + at + 1, lines + chunk.count(b"\n", 0, at + 1)))
            lines += chunk.count(b"\n")
            last = chunk[-1:]
            pos += len(chunk)
    lines += last != b"\n"
    return lines, starts + [(pos, lines)] * (len(cuts) - len(starts))


def _parse_range(path: str | Path, lo: int, shape: tuple[int, int], more: bool) -> np.ndarray:
    """The ``shape[0]`` lines from byte ``lo`` of a data CSV through numpy's
    C parser, quoted cells included.  A parse error, a warning or a shape
    other than ``shape`` raises, as does a parse that gives no value: numpy
    skips blank lines and joins the lines of a record that spans them, so
    both show up as missing rows.  When ``more`` lines follow the range, a
    line that closes a quote and then spoils its cell follows it too, so
    that a quote left open at the range's end raises; numpy stops before
    that line otherwise.  Lines end at newlines alone, as the line count
    splits them, and are decoded as ASCII, as the number rule requires."""
    with io.TextIOWrapper(open(path, "rb"), encoding="ascii", newline="\n") as fh, \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        fh.buffer.seek(lo)  # before the first read, so the wrapper holds no text yet
        lines = chain(islice(fh, shape[0]), ['"x\n'] * more)
        values = np.loadtxt(lines, delimiter=",", comments=None, quotechar='"', ndmin=2,
                            dtype=float, max_rows=shape[0])
    if values.shape != shape or not values.size:
        raise ValueError(f"expected {shape} values, found {values.shape}")
    return values


def _refuse(path: str | Path) -> NoReturn:
    """Raise the UsageError that names the first line of a data CSV that
    numpy's parser refuses: a record that spans lines, a wrong field count,
    or a cell outside the number rule, :func:`decimal_number`.
    ``csv.reader`` splits lines at newlines alone, as the line count does;
    no value it reads is kept."""
    with open(path, newline="\n") as fh, _malformed(str(path)):
        reader = csv.reader(fh)
        try:
            # each record before the first that spans lines holds one line,
            # so the count of records is the line a record starts on
            for i, row in enumerate(reader, start=1):
                if reader.line_num > i:
                    raise UsageError(f"{path}:{i}: a quoted cell holds a line break")
                if i == 1:
                    p = len(row)
                elif len(row) != p:
                    raise UsageError(f"{path}:{i}: expected {p} fields, found {len(row)}")
                else:
                    with _malformed(f"{path}:{i}"):
                        list(map(decimal_number, row))
        except csv.Error as exc:  # a bare carriage return, say; less csv's hint to coders
            raise UsageError(f"{path}:{reader.line_num}: {str(exc).partition(' - ')[0]}") from None
    if reader.line_num < 2:
        raise UsageError(f"{path}: {'no data rows' if reader.line_num else 'empty file'}")
    # numpy and the number rule agree on every cell: what is left is a
    # header of no fields over blank lines
    raise UsageError(f"{path}: data must be a non-empty 2-d array")


def read_data_csv(path: str | Path) -> DataMatrix:
    """A data CSV as a DataMatrix.  numpy's C parser gives every value;
    ``csv.reader`` splits the header from its one line and, only when numpy
    refuses the file, names the first bad line through :func:`_refuse`.

    The line count also cuts the data lines into W byte ranges at line
    starts, W = ``_workers`` of the file's size.  Above W = 1, each range is
    parsed by a forked child into its rows of one shared anonymous mmap,
    which the returned array keeps, while the parent waits; at W = 1, or
    when a child fails, the parent parses the whole file itself.
    DataMatrix makes the one finiteness pass; only when it refuses is the
    first non-finite cell located, and named by its line and column."""
    size = os.path.getsize(path)
    w = _workers(size)
    # the first line start at or after byte 1 ends the header
    lines, starts = _count_lines(path, [1] + [size * k // w for k in range(1, w)])
    bounds = starts + [(size, lines)]
    ranges = [(lo, a - 1, b - 1) for (lo, a), (hi, b) in zip(bounds, bounds[1:]) if hi > lo]
    try:
        with open(path, newline="\n") as fh:
            header = next(csv.reader([fh.readline()]))
        if any("\n" in name for name in header):  # a header that spans lines
            _refuse(path)
        shape = (lines - 1, len(header))
        shared = (np.frombuffer(mmap.mmap(-1, shape[0] * shape[1] * 8)).reshape(shape)
                  if len(ranges) > 1 else None)

        def fill(lo: int, a: int, b: int) -> None:
            shared[a:b] = _parse_range(path, lo, (b - a, shape[1]), b < shape[0])

        forked = shared is not None and _in_children([partial(fill, *r) for r in ranges])
        values = shared if forked else _parse_range(path, starts[0][0], shape, False)
    except (ValueError, Warning, csv.Error):
        _refuse(path)
    try:
        return DataMatrix(values)
    except ValueError:
        i, k = np.argwhere(~np.isfinite(values))[0]
        raise UsageError(f"{path}:{i + 2}: column {header[k]} holds {values[i, k]}") from None


# the JSON kind of each type that json.load gives
_JSON_KINDS = {dict: "object", list: "array", str: "string", int: "number", float: "number",
               bool: "boolean", type(None): "null"}


def _expect(doc: object, top: type, where: str):
    """``doc``, refused unless it is a ``top``: dict for a JSON object, list
    for a JSON array.  The refusal names both by their JSON kinds."""
    if type(doc) is tuple:  # an object that _edge_record decoded as a record
        doc = dict(zip(("from", "to", "weight"), doc))
    if not isinstance(doc, top):
        found = _JSON_KINDS.get(type(doc), type(doc).__name__)
        raise UsageError(f"{where}: expected a JSON {_JSON_KINDS[top]}, not {found}")
    return doc


def _read_json(path: str | Path, top: type = dict) -> dict | list:
    """The document in ``path``, each object decoded by :func:`_edge_record`,
    refused unless its top level is a ``top``, as :func:`_expect` checks."""
    with open(path) as fh, _malformed(str(path)):
        doc = json.load(fh, object_pairs_hook=_edge_record)
    return _expect(doc, top, str(path))


# the rule that _integers states when it refuses an entry of each kind
_RULES = {int: "node indices, counts and seeds must be integers",
          float: "weights, scales, moments and simulation settings must be numbers"}


def _integers(values: list, where: str, kind: type = int) -> list:
    """``values``, refused unless it is a JSON array whose every entry is of
    ``kind``: ``int`` for a JSON integer, ``float`` for any JSON number,
    which comes back as a float.  The one rule for a JSON scalar: a node
    index, a count or a seed is never truncated from a float, and no value
    is read from a boolean or a string."""
    for v in _expect(values, list, where):
        if type(v) not in (int, kind):  # a JSON integer is a number too
            raise UsageError(f"{where}: {_RULES[kind]}, found {json.dumps(v)}")
    return values if kind is int else [float(v) for v in values]


@dataclass(frozen=True)
class EdgeRecords:
    """A JSON list of ``{from, to, weight}`` records, held as three arrays.

    :func:`_write_json` formats it straight into the bytes that
    ``json.dump(..., indent=2)`` writes for the list of dicts, a block of
    records at a time, without building one dict per edge.
    """

    frm: np.ndarray
    to: np.ndarray
    weight: np.ndarray

    BLOCK = 4096  # records formatted per chunk of text

    @classmethod
    def of(cls, w: WeightedDag, by_parent: bool) -> EdgeRecords:
        """The edges of ``w`` by (to, from), or by (from, to) when ``by_parent``."""
        to = np.repeat(np.arange(w.p), [len(pa) for pa in w.dag.parents])
        frm = np.fromiter(chain.from_iterable(w.dag.parents), dtype=np.int64, count=to.size)
        weight = np.concatenate(w.weights)
        if by_parent:  # a stable sort keeps each parent's children ascending
            order = np.argsort(frm, kind="stable")
            frm, to, weight = frm[order], to[order], weight[order]
        return cls(frm, to, weight)

    def chunks(self) -> Iterator[str]:
        """The list as ``json.dumps`` indents the value of a top-level
        field, in pieces; floats by their repr, as ``json`` writes them."""
        if not self.frm.size:
            yield "[]"
            return
        record = '\n    {\n      "from": %d,\n      "to": %d,\n      "weight": %r\n    }'
        sep = "["
        for lo in range(0, self.frm.size, self.BLOCK):
            block = slice(lo, lo + self.BLOCK)
            edges = zip(self.frm[block].tolist(), self.to[block].tolist(),
                        self.weight[block].tolist())
            yield sep + ",".join([record % e for e in edges])
            sep = ","
        yield "\n  ]"


_ENCODER = json.JSONEncoder(indent=2)


def _encode(doc: dict) -> Iterator[str]:
    """The chunks of ``json.dumps(doc, indent=2)`` for a non-empty dict, any
    of whose top-level fields may hold :class:`EdgeRecords`."""
    sep = "{"
    for key, value in doc.items():
        yield f"{sep}\n  {json.dumps(key)}: "
        if isinstance(value, EdgeRecords):
            yield from value.chunks()
        else:  # one level deeper: every line break gains one indent
            for chunk in _ENCODER.iterencode(value):
                yield chunk.replace("\n", "\n  ")
        sep = ","
    yield "\n}"


def _write_json(path: str | Path, doc: dict) -> None:
    """``doc`` as ``json.dump(doc, fh, indent=2)`` writes it, plus a newline,
    through a temporary file that replaces ``path`` when complete."""
    with _replacing(path) as tmp, open(tmp, "w") as fh:
        fh.writelines(_encode(doc))
        fh.write("\n")


def family_to_doc(family: NoiseFamily) -> dict:
    doc: dict = {"tag": family.tag}
    if family.df is not None:
        doc["df"] = family.df
    return doc


def family_from_doc(doc: object, where: str) -> NoiseFamily:
    with _malformed(where):
        if isinstance(doc, str):
            return NoiseFamily.from_string(doc)
        if isinstance(doc, dict):
            return NoiseFamily(doc["tag"], df=doc.get("df"))
    raise UsageError(f"{where}: expected a family string or object")


def truth_to_doc(w: WeightedDag, ordering: Ordering, seed: int) -> dict:
    return {
        "p": w.p,
        "edges": EdgeRecords.of(w, by_parent=False),
        "family": family_to_doc(w.family),
        "scales": [float(s) for s in w.scales],
        "ordering": list(ordering.perm),
        "seed": int(seed),
    }


def _edge_record(pairs: list[tuple[str, object]]) -> object:
    """A decoded ``{"from", "to", "weight"}`` record, its keys in that
    order, as a (from, to, weight) tuple, which holds it in less than half
    a dict's memory; any other object as a dict.  :func:`_read_json`
    decodes every document through it, so that no dict is built per
    record."""
    if len(pairs) == 3:
        (a, j), (b, k), (c, weight) = pairs
        if a == "from" and b == "to" and c == "weight":
            return j, k, weight
    return dict(pairs)


def weighted_dag_from_doc(doc: dict, edge_field: str, where: str) -> WeightedDag:
    """The model in a truth or model file: ``p``, ``family``, ``scales`` and
    ``{from, to, weight}`` records under ``edge_field``, as
    :func:`_edge_record` tuples or as dicts: a record with other keys, or
    with its keys in another order, or a document built in Python; either
    is unpacked once, as (from, to, weight).  A node index that is not a
    JSON integer, a weight or scale that is not a JSON number, an
    out-of-range node, self-loop, cycle, zero or non-finite weight or bad
    scale is a UsageError."""
    with _malformed(where):
        p, = _integers([doc["p"]], where)
        family = family_from_doc(doc["family"], where)
        incoming: list[list[tuple[int, float]]] = [[] for _ in range(p)]
        for e in _expect(doc[edge_field], list, where):
            j, k, weight = e if type(e) is tuple else (e["from"], e["to"], e["weight"])
            if type(j) is not int or type(k) is not int or type(weight) is not float:
                (j, k), (weight,) = _integers([j, k], where), _integers([weight], where, float)
            if not 0 <= k < p:
                raise ValueError(f"edge into node {k} out of range [0, {p})")
            incoming[k].append((j, weight))
        cols = [tuple(zip(*sorted(inc))) or ((), ()) for inc in incoming]  # as Dag sorts
        scales = _integers(doc["scales"], where, float)
        return WeightedDag(Dag(p, [pa for pa, _ in cols]), [wt for _, wt in cols], family, scales)


def truth_from_doc(doc: dict, where: str = "truth") -> tuple[WeightedDag, Ordering, int]:
    w = weighted_dag_from_doc(doc, "edges", where)
    with _malformed(where):
        return w, Ordering(_integers(doc["ordering"], where)), _integers([doc["seed"]], where)[0]


def _decimal(text: str) -> int:
    """``text`` as an int if it is an optional ``-`` and ASCII digits, else
    a ValueError: ``int`` alone also reads ``1_0`` as 10, and takes a ``+``,
    surrounding spaces and non-ASCII digits."""
    if not (text.isascii() and text.removeprefix("-").isdecimal()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def load_edge_list(path: str | Path, p: int) -> Dag:
    """A DAG on ``p`` nodes from whitespace-separated ``from to`` pairs,
    0-based decimal integers, one edge per line."""
    edges: list[tuple[int, int]] = []
    with open(path) as fh, _malformed(str(path)):
        for i, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens) != 2:
                raise UsageError(f"{path}:{i}: expected 'from to', found {line.strip()!r}")
            try:
                edges.append((_decimal(tokens[0]), _decimal(tokens[1])))
            except ValueError:
                raise UsageError(f"{path}:{i}: node indices must be integers") from None
        return Dag.from_edges(p, edges)


def read_neighborhoods(path: str | Path) -> NeighborhoodSets:
    doc = _read_json(path, list)
    with _malformed(str(path)):
        return NeighborhoodSets([_integers(s, str(path)) for s in doc])


# ---------------------------------------------------------------------------
# configuration


def _given(doc: dict, where: str, kind: type, *fields: str) -> dict:
    """The ``fields`` that ``doc`` gives, each refused unless it is of
    ``kind`` as :func:`_integers` checks it, naming the field, and typed as
    it returns it.  A field ``doc`` omits is left out, so it takes its
    default from the dataclass."""
    return {f: _integers([doc[f]], f"{where}: field '{f}'", kind)[0] for f in fields if f in doc}


def parse_sim_config(doc: dict, base_dir: Path, where: str = "config") -> SimConfig:
    """A simulation config as a :class:`SimConfig`.  ``p``, ``n``, ``seed``,
    ``family`` and ``graph.scheme`` are required; every other field is
    optional, and its default is the one ``simulate`` states."""
    with _malformed(where):
        p, n, seed = _integers([doc["p"], doc["n"], doc["seed"]], where)
        family = family_from_doc(doc["family"], f"{where}: field 'family'")
        graph_doc = _expect(doc["graph"], dict, f"{where}: field 'graph'")
        with _malformed(f"{where}: field 'graph'"):
            scheme = graph_doc["scheme"]
            rel = graph_doc["path"] if scheme == "edge-list" else None
        if scheme == "large-sparse":
            graph: LargeSparse | Dag = LargeSparse(
                **_given(graph_doc, where, int, "min_parents", "max_parents"),
                **_given(graph_doc, where, float, "root_frac"))
        elif scheme == "edge-list":
            graph = load_edge_list(base_dir / rel, p=p)
        else:
            raise UsageError(f"{where}: unknown graph scheme {scheme!r}")
        ranges = _given(doc, where, float, "coef_low", "coef_high", "scale_low", "scale_high")
        return SimConfig(p=p, n=n, seed=seed, family=family, graph=graph, **ranges)


def _parse_corr(spec: str, p: int, where: str,
                split_seed: int | None = None) -> tuple[int, float, int]:
    """``corr:m:frac:seed`` as (m, frac, seed), or ``corr:m:frac`` as (m,
    frac, ``split_seed``) when the caller derives the split seed; 0 < m < p,
    0 < frac < 1 and a non-negative seed are checked."""
    fields = spec.split(":")[1:]
    if len(fields) != 2 + (split_seed is None):
        form = "corr:m:frac:seed" if split_seed is None else "corr:m:frac (split seed is derived)"
        raise UsageError(f"{where}: expected {form}")
    with _malformed(f"{where}: bad corr specification"):
        m, frac = _decimal(fields[0]), decimal_number(fields[1])
        seed = split_seed if split_seed is not None else _decimal(fields[2])
    if not 0 < m < p:
        raise UsageError(f"{where}: corr: need 0 < m < p, got m={m}, p={p}")
    if not 0 < frac < 1:  # NaN too
        raise UsageError(f"{where}: corr: holdout fraction must lie in (0, 1), found {frac}")
    if seed < 0:
        raise UsageError(f"{where}: corr: split seed must be non-negative, found {seed}")
    return m, frac, seed


def estimation_input(spec: str, data: str | Path | DataMatrix, where: str, *,
                     dag: Dag | None = None,
                     split_seed: int | None = None) -> tuple[NeighborhoodSets, DataMatrix]:
    """The neighborhood sets that ``spec`` names and the rows they are
    estimated from, for ``sort``, ``fit`` and each ``benchmark`` replicate.

    ``data`` is a sampled matrix, or a data CSV's path, read here so that a
    holdout split frees the whole array before the sets are built.  ``spec``
    is ``full``, ``mb`` (the Markov blankets of ``dag``, when given),
    ``corr:m:frac:seed`` or ``corr:m:frac`` with the caller's ``split_seed``
    (each node's m most correlated partners on a ``frac`` row holdout, the
    other rows left for estimation), or a JSON file of sets; ``where``
    names it in a parse error.  Fewer than two rows, sets for another node
    count and a set with more members than there are rows are refused.
    """
    rows = data if isinstance(data, DataMatrix) else read_data_csv(data)
    if rows.n < 2:
        source = where if isinstance(data, DataMatrix) else data
        raise UsageError(f"{source}: estimation needs at least two data rows, found {rows.n}")
    if spec == "full":
        nbhd = full_neighborhoods(rows.p)
    elif spec == "mb" and dag is not None:
        nbhd = markov_blankets(dag)
    elif spec.startswith("corr:"):
        m, frac, seed = _parse_corr(spec, rows.p, where, split_seed)
        n_hold = int(math.floor(frac * rows.n))
        if n_hold < 3 or rows.n - n_hold < 2:
            raise UsageError(f"{where}: corr: cannot split {rows.n} rows with holdout fraction "
                             f"{frac}: the split needs at least 3 holdout rows and 2 "
                             "estimation rows")
        perm = rng_stream(seed, STREAM_SPLIT).permutation(rows.n)
        hold = DataMatrix(rows.values[np.sort(perm[:n_hold])])
        rows = DataMatrix(rows.values[np.sort(perm[n_hold:])])  # drops a CSV's whole array
        nbhd = top_correlated(hold, m)
    elif spec == "mb" and not Path(spec).exists():
        raise UsageError("the mb scheme needs the true DAG, which only benchmark cells have")
    else:
        nbhd = read_neighborhoods(spec)
    if nbhd.p != rows.p:
        raise UsageError(f"{spec}: covers {nbhd.p} nodes, data has {rows.p}")
    big = np.flatnonzero(nbhd.sizes > rows.n)
    if big.size:
        k = int(big[0])
        raise UsageError(f"{spec}: node {k} has {nbhd.sizes[k]} neighbors, "
                         f"more than the {rows.n} estimation rows")
    return nbhd, rows


# ---------------------------------------------------------------------------
# commands


def cmd_generate(args: argparse.Namespace) -> int:
    config_path = Path(args.config)
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
    family = family_from_doc(args.family, "--family")
    try:
        nbhd, rows = estimation_input(args.neighborhoods, args.data, "--neighborhoods")
        result = run_sort(rows, family, nbhd, trace=args.trace)
    except (ZeroVarianceColumn, VarianceOverflow) as exc:
        raise _bad_column(args.data, exc) from None
    doc = {
        "p": rows.p,
        "n_sorted": rows.n,
        "family": args.family,
        "neighborhoods": args.neighborhoods,
        "ordering": list(result.ordering.perm),
        "update_count": result.update_count,
        "wall_time_ms": result.wall_time * 1e3 if args.timings else None,
        "diagnostics": {
            "degenerate": result.diagnostics["degenerate"],
            "skipped_updates": len(result.diagnostics["skipped_updates"]),
        },
    }
    if result.step_scores is not None:
        doc["step_scores"] = result.step_scores
    _write_json(args.out, doc)
    print(json.dumps({"ordering": str(args.out), "update_count": result.update_count}))
    return 0


def read_ordering(path: str | Path) -> Ordering:
    doc = _read_json(path)
    with _malformed(str(path)):
        return Ordering(_integers(doc["ordering"], str(path)))


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


@dataclass(frozen=True)
class _Cell:
    """A parsed benchmark cell.  ``cfg`` carries the grid's base seed, which
    each replicate replaces with its own."""

    where: str
    cfg: SimConfig
    replicates: int
    scheme: str


def _parse_cell(cell: object, base_seed: int, where: str) -> _Cell:
    cell = _expect(cell, dict, where)
    with _malformed(where):
        replicates, p = _integers([cell.get("replicates", 1), cell["p"]], where)
    if replicates < 0:
        raise UsageError(f"{where}: replicates must be non-negative, found {replicates}")
    if "n" in cell:
        n = cell["n"]
    elif "n_mult" in cell:
        with _malformed(field := f"{where}: field 'n_mult'"):
            if not (n_mult := _integers([cell["n_mult"]], field, float)[0]) > 0:  # NaN too
                raise ValueError(f"must be a positive number, found {json.dumps(cell['n_mult'])}")
            n = max(2, int(round(n_mult * p)))
    else:
        raise UsageError(f"{where}: need 'n' or 'n_mult'")
    graph_doc = _expect(cell.get("graph", {}), dict, f"{where}: field 'graph'")
    if graph_doc.get("scheme", "large-sparse") != "large-sparse":
        raise UsageError(f"{where}: benchmark cells support only the large-sparse scheme")
    cfg = parse_sim_config({**cell, "n": n, "seed": base_seed,
                            "graph": {"scheme": "large-sparse", **graph_doc}}, Path(), where)
    scheme = cell.get("neighborhoods", "mb")
    if isinstance(scheme, str) and scheme.startswith("corr:"):
        _parse_corr(scheme, p, where, split_seed=base_seed)  # each replicate derives its own
    elif scheme not in ("mb", "full"):
        raise UsageError(f"{where}: unknown neighborhood scheme {json.dumps(scheme)}")
    return _Cell(where, cfg, replicates, scheme)


def _run_replicate(cell: _Cell, cell_idx: int, r: int, timings: bool) -> dict:
    cfg = cell.cfg
    seed = derive_seed(cfg.seed, STREAM_REPLICATE, cell_idx, r)
    record = {
        "cell": cell_idx, "replicate": r, "seed": seed, "p": cfg.p, "n": cfg.n,
        "family": str(cfg.family), "neighborhoods": cell.scheme,
        "order_error": None, "is_topological": None, "update_count": None,
        "wall_time_ms": None, "error": None,
    }
    try:
        w, _, x = sample_dataset(replace(cfg, seed=seed))
        nbhd, rows = estimation_input(cell.scheme, x, cell.where, dag=w.dag,
                                      split_seed=derive_seed(seed, STREAM_SPLIT))
        result = run_sort(rows, cfg.family, nbhd)
        record["order_error"] = order_error(w.dag, result.ordering)
        record["is_topological"] = is_topological(w.dag, result.ordering)
        record["update_count"] = result.update_count
        if timings:
            record["wall_time_ms"] = result.wall_time * 1e3
    except Exception as exc:  # per-replicate failure: record and continue
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record


def cmd_benchmark(args: argparse.Namespace) -> int:
    config_path = Path(args.config)
    doc = _read_json(config_path)
    where = str(config_path)
    with _malformed(where):
        base_seed, = _integers([doc["base_seed"]], where)
        if base_seed < 0:
            raise UsageError(f"{where}: base_seed must be non-negative, found {base_seed}")
        cells = _expect(doc["cells"], list, f"{where}: field 'cells'")
    # every cell is checked before any is sampled
    parsed = [_parse_cell(cell, base_seed, f"{where}: cells[{ci}]") for ci, cell in enumerate(cells)]
    records = [_run_replicate(cell, ci, r, args.timings)
               for ci, cell in enumerate(parsed) for r in range(cell.replicates)]
    with _replacing(args.out) as tmp, open(tmp, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    print(json.dumps({"results": str(args.out), "records": len(records)}))
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    ordering = read_ordering(args.ordering)
    family = family_from_doc(args.family, "--family")
    try:
        nbhd, rows = estimation_input(args.neighborhoods, args.data, "--neighborhoods")
        if ordering.p != rows.p:
            raise UsageError(f"ordering has {ordering.p} nodes, data has {rows.p}")
        train = standardize(rows)
    except (ZeroVarianceColumn, VarianceOverflow) as exc:
        raise _bad_column(args.data, exc) from None
    del rows  # the raw array is not needed past standardization
    mean, sd = train.moments
    try:
        model = fit_coefficients(train, ordering, nbhd, family)
    except RankDeficient as exc:
        raise UsageError(f"{args.data}: the predecessors of column v{exc.node} "
                         "are collinear") from None
    except DegenerateResidual as exc:
        raise UsageError(f"{args.data}: column v{exc.node} is explained exactly "
                         "by its predecessors") from None
    doc = {
        "p": train.p,
        "family": family_to_doc(family),
        "coefficients": EdgeRecords.of(model, by_parent=True),
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
    with _malformed(str(path)):
        return (model, np.asarray(_integers(doc["train_means"], str(path), float)),
                np.asarray(_integers(doc["train_sds"], str(path), float)))


def cmd_loglik(args: argparse.Namespace) -> int:
    model, mean, sd = read_model(args.model)
    x = read_data_csv(args.data)
    if x.p != model.p:
        raise UsageError(f"model has {model.p} nodes, data has {x.p}")
    with _malformed(str(args.model)):
        test = apply_moments(x, mean, sd)
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
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"computation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
