import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import lingamsort
import lingamsort.cli as cli
from lingamsort import Dag, DataMatrix, NoiseFamily, Ordering, WeightedDag, rng_stream
from lingamsort.cli import (
    UsageError,
    load_edge_list,
    main,
    read_data_csv,
    read_model,
    truth_from_doc,
    truth_to_doc,
    write_data_csv,
)
from conftest import chain_dag


def _write_chain_config(path, p=20, n=1000, seed=1, coef=(0.8, 0.8), scale=(0.5, 0.5)):
    edges = path.parent / "edges.txt"
    edges.write_text("".join(f"{k - 1} {k}\n" for k in range(1, p)))
    path.write_text(json.dumps({
        "p": p, "n": n, "seed": seed, "family": "laplace",
        "graph": {"scheme": "edge-list", "path": "edges.txt"},
        "coef_low": coef[0], "coef_high": coef[1],
        "scale_low": scale[0], "scale_high": scale[1],
    }))


def _weighted_edges(w):
    """(parent, child, weight) of every edge of ``w``, by child, then parent."""
    return [(j, k, float(v)) for k, (pa, wt) in enumerate(zip(w.dag.parents, w.weights))
            for j, v in zip(pa, wt)]


def _written(tmp_path, doc):
    """``doc`` as the CLI writes it to a file, read back."""
    path = tmp_path / "doc.json"
    cli._write_json(path, doc)
    return json.loads(path.read_text())


class TestFileFormats:
    def test_csv_round_trip_is_bit_exact(self, tmp_path):
        rng = rng_stream(0, 0)
        values = np.concatenate([
            rng.standard_normal((20, 3)),
            [[1 / 3, 1e-17, -0.0], [math.pi, 2**-1074, 1e300]],
        ])
        x = DataMatrix(values)
        path = tmp_path / "x.csv"
        write_data_csv(path, x)
        back = read_data_csv(path)
        assert back.values.tobytes() == x.values.tobytes()

    def test_csv_bytes_match_csv_writer(self, tmp_path):
        awkward = [-0.0, 5e-324, 1e16, 1e-5, 0.1, 3.0]
        values = np.array([awkward, awkward[::-1], [-v for v in awkward]])
        ref = io.StringIO(newline="")
        writer = csv.writer(ref)
        writer.writerow([f"v{k}" for k in range(values.shape[1])])
        for row in values:
            writer.writerow([repr(float(v)) for v in row])
        path = tmp_path / "x.csv"
        write_data_csv(path, DataMatrix(values))
        assert path.read_bytes() == ref.getvalue().encode()

    def test_truth_round_trip_reproduces_b_exactly(self, tmp_path):
        dag = chain_dag(4)
        rng = rng_stream(1, 0)
        weights = [rng.uniform(0.4, 0.9, len(dag.parents[k])) for k in range(4)]
        w = WeightedDag(dag, weights, NoiseFamily.scaled_t(10), [0.4, 0.5, 0.6, 0.7])
        doc = _written(tmp_path, truth_to_doc(w, Ordering([0, 1, 2, 3]), 7))
        w2, _, seed = truth_from_doc(doc)
        assert seed == 7
        assert w2.dag == w.dag
        assert [c.tobytes() for c in w2.weights] == [c.tobytes() for c in w.weights]
        assert np.array_equal(w2.scales, w.scales)
        assert str(w2.family) == "scaled-t:10"

    def test_truth_edges_load_in_any_order(self, tmp_path):
        # each weight stays on its own edge whatever order the file lists them in
        dag = Dag(4, [[], [0], [0, 1], [0, 1, 2]])
        weights = [[], [0.5], [0.6, -0.7], [0.8, -0.9, 0.3]]
        w = WeightedDag(dag, weights, NoiseFamily.laplace(), [1.0] * 4)
        doc = _written(tmp_path, truth_to_doc(w, Ordering([0, 1, 2, 3]), 7))
        doc["edges"].reverse()
        w2, _, _ = truth_from_doc(doc)
        assert w2.dag == w.dag
        assert [c.tobytes() for c in w2.weights] == [c.tobytes() for c in w.weights]

    @pytest.mark.parametrize("model", [
        WeightedDag(Dag(3, [[]] * 3), [[]] * 3, NoiseFamily.laplace(), [0.5, 1.0, 2.0]),
        WeightedDag(Dag(1, [[]]), [[]], NoiseFamily.logistic(), [1e-05]),
        WeightedDag(Dag(4, [[], [0], [0, 1], [1, 2]]), [[], [-0.5], [1e-05, -1e+16], [3.0, -2.5e-300]],
                    NoiseFamily.scaled_t(5.0), [0.1, 1e+16, 1e-05, 0.3]),
        WeightedDag(Dag(5, [[3, 4], [0, 3], [], [2], [2]]),
                    [[0.1, -0.2], [1 / 3, -1e-17], [], [7.0], [-1.5e22]],
                    NoiseFamily.gaussian(), [1.0, 2.0, 3.0, 4.0, 5.0]),
    ], ids=["no-edges", "p-1", "negative-and-exponent-weights", "edges-out-of-index-order"])
    def test_json_writer_bytes_match_json_dump(self, tmp_path, monkeypatch, model):
        # model.json and truth.json are formatted without per-edge dicts;
        # their bytes must be json.dump's, indent 2, plus a newline; blocks
        # of two records put block boundaries inside every edge list
        monkeypatch.setattr(cli.EdgeRecords, "BLOCK", 2)
        by_parent = sorted(_weighted_edges(model), key=lambda e: e[0])
        model_doc = {
            "p": model.p, "family": cli.family_to_doc(model.family),
            "coefficients": cli.EdgeRecords.of(model, by_parent=True),
            "scales": [float(v) for v in model.scales],
            "train_means": [-1e-05] * model.p, "train_sds": [1e+16] * model.p,
        }
        as_dicts = dict(model_doc, coefficients=[
            {"from": j, "to": k, "weight": wt} for j, k, wt in by_parent])
        truth_doc = truth_to_doc(model, Ordering(model.dag.topological_order()), 3)
        truth_dicts = dict(truth_doc, edges=[
            {"from": j, "to": k, "weight": wt} for j, k, wt in _weighted_edges(model)])
        for doc, expected in ((model_doc, as_dicts), (truth_doc, truth_dicts)):
            path = tmp_path / "out.json"
            cli._write_json(path, doc)
            assert path.read_text() == json.dumps(expected, indent=2) + "\n"
            assert not (tmp_path / "out.json.tmp").exists()

    def test_edge_list_loader(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("0 1\n1 2\n\n0 2\n")
        dag = load_edge_list(path, p=3)
        assert dag.p == 3
        assert list(dag.edges()) == [(0, 1), (0, 2), (1, 2)]

    @pytest.mark.parametrize("line", ["1 -1", "-1 1", "0 3", "1 1"])
    def test_edge_list_rejects_bad_nodes(self, tmp_path, line):
        # a negative child used to wrap round to node p - 1
        path = tmp_path / "e.txt"
        path.write_text(f"0 1\n{line}\n")
        with pytest.raises(UsageError, match=str(path)):
            load_edge_list(path, p=3)

    def test_edge_list_rejects_triples(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 2\n")
        with pytest.raises(UsageError, match="expected"):
            load_edge_list(path, p=3)

    def test_csv_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("v0,v1\n1.0\n")
        with pytest.raises(UsageError, match="expected 2 fields"):
            read_data_csv(path)

    def test_csv_of_blank_lines_exits_2(self, tmp_path, capsys):
        # its empty header gives no columns, which exited 1
        path = tmp_path / "bad.csv"
        path.write_text("\n\n")
        assert main(["sort", "--data", str(path), "--out", str(tmp_path / "o.json")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: data must be a non-empty")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_exits_2_naming_line_and_column(self, tmp_path, capsys, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"v0,v1\n1.0,2.0\n3.0,{cell}\n5.0,6.0\n")
        assert main(["sort", "--data", str(path), "--out", str(tmp_path / "o.json")]) == 2
        assert f"{path}:3: column v1" in capsys.readouterr().err


def _decimal_number(text):
    """float(), refusing what is not ASCII or holds an underscore."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a decimal number: {text!r}")
    return float(text)


def read_data_csv_by_csv_reader(path) -> DataMatrix:
    """Reference reader: every row through csv.reader and float(), on ASCII
    text without underscores; a record must hold one line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise UsageError(f"{path}: empty file") from None
        p = len(header)
        rows = []
        for i, row in enumerate(reader, start=2):
            if reader.line_num != i:
                raise UsageError(f"{path}:{i}: a quoted cell holds a line break")
            if len(row) != p:
                raise UsageError(f"{path}:{i}: expected {p} fields, found {len(row)}")
            try:
                rows.append([_decimal_number(v) for v in row])
            except ValueError as exc:
                raise UsageError(f"{path}:{i}: {exc}") from None
    if not rows:
        raise UsageError(f"{path}: no data rows")
    values = np.asarray(rows)
    if not np.isfinite(values).all():
        i, k = np.argwhere(~np.isfinite(values))[0]
        raise UsageError(f"{path}:{i + 2}: column {header[k]} holds {values[i, k]}")
    return DataMatrix(values)


def _random_doubles_csv(newline: str) -> str:
    rng = rng_stream(9, 0)
    values = rng.standard_normal((6, 4)) * 10.0 ** rng.integers(-300, 300, (6, 4))
    values[0] = [5e-324, -2.5e-310, -0.0, 2.2250738585072009e-308]
    lines = ["v0,v1,v2,v3"]
    for r, row in enumerate(values):
        # shortest round-trip reprs and 17 significant digits
        lines.append(",".join(repr(float(v)) if r % 2 else f"{v:.17g}" for v in row))
    return newline.join(lines) + newline


CSV_CASES = {
    "random-lf": _random_doubles_csv("\n"),
    "random-crlf": _random_doubles_csv("\r\n"),
    "unterminated": "v0,v1\n1.5,2\n3,-4e-3",
    "unterminated-crlf": "v0,v1\r\n1.5,2\r\n3,-4e-3",
    "blank-middle": "v0,v1\n1,2\n\n3,4\n",
    "blank-end": "v0,v1\n1,2\n3,4\n\n",
    "hash-in-cell": "v0,v1\n1,2\n#3,4\n",
    "quoted-number": 'v0,v1\n1,"2.5"\n3,4\n',
    "spaces": "v0,v1\n 1 , 2\t\n3 ,  4\n",
    "underscore": "v0,v1\n1_0,2\n3,4\n",
    "ragged": "v0,v1\n1,2\n3\n5,6\n",
    "too-many": "v0,v1\n1,2,3\n",
    "nan": "v0,v1\n1,2\n3,nan\n",
    "inf": "v0,v1\n1,2\n-inf,4\n",
    "single-row": "v0,v1,v2\n1,2,3\n",
    "single-column": "v0\n1\n2\n",
    "header-only": "v0,v1\n",
    "header-only-unterminated": "v0,v1",
    "empty": "",
    "header-wider-than-rows": "v0,v1,v2\n1,2\n3,4\n",
    "arabic-digit": "v0,v1\n1,2\n\u0661,4\n",
    "fullwidth-digit": "v0,v1\n1,\uff11\uff10\n3,4\n",
    "quoted-header": '"v0","v1"\r\n"1.5","-2e-3"\r\n"3",4\r\n',
    "quoted-cell-spans-lines": 'v0,v1\n1,"2\n"\n3,4\n',
    "bad-cell-after-spanning-cell": 'v0,v1\n1,"2\n"\n3,x\n',
}


class TestCsvReader:
    """The C-parsed read gives the reference reader's values bit for bit, or
    its UsageError text."""

    @pytest.mark.parametrize("case", sorted(CSV_CASES))
    def test_matches_csv_reader(self, tmp_path, case):
        path = tmp_path / f"{case}.csv"
        path.write_bytes(CSV_CASES[case].encode())
        _assert_reads_as_csv_reader(path)

    @pytest.mark.parametrize("case", sorted(CSV_CASES))
    def test_matches_csv_reader_at_three_workers(self, tmp_path, monkeypatch, case):
        path = tmp_path / f"{case}.csv"
        path.write_bytes(CSV_CASES[case].encode())
        _force_workers(monkeypatch, 3)
        _assert_reads_as_csv_reader(path)

    @pytest.mark.parametrize("case", ["random-lf", "random-crlf", "unterminated", "spaces"])
    def test_clean_file_skips_csv_reader(self, tmp_path, monkeypatch, case):
        import lingamsort.cli as cli

        def refuse(path):
            raise AssertionError("clean file fell back to csv.reader")

        path = tmp_path / "x.csv"
        path.write_bytes(CSV_CASES[case].encode())
        monkeypatch.setattr(cli, "_refuse", refuse)
        assert read_data_csv(path).n >= 2

    def test_traced_peak_stays_under_twice_the_array(self, tmp_path):
        self._check_traced_peak(tmp_path)

    def test_traced_peak_stays_under_twice_the_array_in_process(self, tmp_path, monkeypatch):
        _force_workers(monkeypatch, 1)
        self._check_traced_peak(tmp_path)

    @staticmethod
    def _check_traced_peak(tmp_path):
        import tracemalloc

        x = DataMatrix(rng_stream(10, 0).standard_normal((500, 1000)))
        path = tmp_path / "x.csv"
        write_data_csv(path, x)
        tracemalloc.start()
        try:
            back = read_data_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back.values.tobytes() == x.values.tobytes()
        assert peak < 2 * x.values.nbytes


def _force_workers(monkeypatch, w):
    monkeypatch.setattr(cli, "_workers", lambda nbytes: w)


def _assert_reads_as_csv_reader(path):
    """``read_data_csv`` gives the reference reader's values bit for bit, or
    its UsageError text."""
    try:
        expected = read_data_csv_by_csv_reader(path)
    except UsageError as exc:
        with pytest.raises(UsageError) as got:
            read_data_csv(path)
        assert str(got.value) == str(exc)
        return
    got = read_data_csv(path).values
    assert got.shape == expected.values.shape
    assert np.array_equal(got.view(np.int64), expected.values.view(np.int64))


class TestCsvWorkers:
    """The CSV codec split between W forked children: the bytes written and
    the values read are the same for every W, and every diagnostic is the
    reference reader's."""

    @pytest.mark.parametrize("newline, terminated", [
        ("\n", True), ("\r\n", True), ("\n", False), ("\r\n", False)],
        ids=["lf", "crlf", "lf-unterminated", "crlf-unterminated"])
    def test_bytes_and_values_do_not_depend_on_the_worker_count(
            self, tmp_path, monkeypatch, newline, terminated):
        # 13 rows: no W above 1 divides them
        rng = rng_stream(11, 0)
        values = rng.standard_normal((13, 4)) * 10.0 ** rng.integers(-300, 300, (13, 4))
        values[0] = [5e-324, -0.0, 1 / 3, 1e16]
        ref = io.StringIO(newline="")
        writer = csv.writer(ref)
        writer.writerow([f"v{k}" for k in range(4)])
        writer.writerows([[repr(float(v)) for v in row] for row in values])
        forks = []
        fork = cli._fork
        monkeypatch.setattr(cli, "_fork", lambda job, cpu: forks.append(cpu) or fork(job, cpu))
        monkeypatch.setattr(cli, "_refuse", self._refuse)
        text = ref.getvalue().replace("\r\n", newline)
        data = tmp_path / "data.csv"
        data.write_bytes((text if terminated else text.removesuffix(newline)).encode())
        for w in (1, 2, 3, 5):
            _force_workers(monkeypatch, w)
            forks.clear()
            path = tmp_path / f"w{w}.csv"
            write_data_csv(path, DataMatrix(values))
            assert path.read_bytes() == ref.getvalue().encode()
            got = read_data_csv(data).values
            assert np.array_equal(got.view(np.int64), values.view(np.int64))
            assert len(forks) == (2 * w if w > 1 else 0)
            assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
                ["data.csv"] + [f"w{k}.csv" for k in (1, 2, 3, 5) if k <= w])

    @staticmethod
    def _refuse(path):
        raise AssertionError("clean file fell back to csv.reader")

    def test_quoted_file_reads_as_its_unquoted_twin(self, tmp_path, monkeypatch):
        # R's write.csv style: a quoted header, every cell quoted too, LF
        # line ends; at over 2 MiB, three forked children read it all
        x = DataMatrix(rng_stream(13, 0).standard_normal((2500, 50)))
        _force_workers(monkeypatch, 3)
        plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
        write_data_csv(plain, x)
        quoted.write_text("".join('"' + line.replace(",", '","') + '"\n'
                                  for line in plain.read_text().splitlines()))
        assert quoted.read_text().startswith('"v0","v1",')
        assert quoted.stat().st_size > 2 << 20
        monkeypatch.setattr(cli, "_refuse", self._refuse)
        in_parent = []
        parse = cli._parse_range
        monkeypatch.setattr(cli, "_parse_range", lambda *a: in_parent.append(a) or parse(*a))
        assert read_data_csv(quoted).values.tobytes() == x.values.tobytes()
        assert in_parent == []

    @pytest.mark.parametrize("defect", ["blank", "ragged", "nan", "open-quote"])
    def test_defect_just_after_a_cut_gets_the_reference_diagnostic(
            self, tmp_path, monkeypatch, defect):
        # every line is 18 bytes, so three workers cut the 12 lines at the
        # starts of lines 4 and 8 (the header is line 0); the defect opens
        # the second range, or a quote left open ends the first, where its
        # range alone reads as a closed record
        lines = ["v0000,v0001,v0002\n"] + [
            ",".join(f"{(3 * r + k) % 9 + 1.125:.3f}" for k in range(3)) + "\n" for r in range(11)]
        if defect == "blank":
            lines.insert(4, "\n")
        elif defect == "ragged":
            lines[4] = "1.125,2.125      \n"
        elif defect == "nan":
            lines[4] = "  nan" + lines[4][5:]
        else:
            lines[3] = '1.125,2.125,"3.12\n'
        path = tmp_path / "x.csv"
        path.write_text("".join(lines))
        size = path.stat().st_size
        _, starts = cli._count_lines(path, [1, size // 3, 2 * size // 3])
        assert starts[1] == (4 * 18, 4)
        _force_workers(monkeypatch, 3)
        with pytest.raises(UsageError) as got:
            read_data_csv(path)
        assert str(got.value) == {
            "blank": f"{path}:5: expected 3 fields, found 0",
            "ragged": f"{path}:5: expected 3 fields, found 2",
            "nan": f"{path}:5: column v0000 holds nan",
            "open-quote": f"{path}:4: a quoted cell holds a line break",
        }[defect]
        _assert_reads_as_csv_reader(path)

    def test_a_failed_child_falls_back_to_one_process(self, tmp_path, monkeypatch):
        # a child that cannot do its job leaves the parent to write or read
        # the file by itself, with the same result
        x = DataMatrix(rng_stream(12, 0).standard_normal((7, 3)))
        _force_workers(monkeypatch, 3)
        monkeypatch.setattr(cli, "_in_children", lambda jobs: False)
        path = tmp_path / "x.csv"
        write_data_csv(path, x)
        assert sorted(tmp_path.iterdir()) == [path]
        assert read_data_csv(path).values.tobytes() == x.values.tobytes()

    def test_every_command_reaps_its_children(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg.json"
        _write_chain_config(cfg, p=6, n=300)
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps({"base_seed": 1, "cells": [
            {"p": 6, "n": 60, "family": "laplace", "neighborhoods": "corr:2:0.2"}]}))
        d, t, o, m = (str(tmp_path / f) for f in ("d.csv", "t.json", "o.json", "m.json"))
        _force_workers(monkeypatch, 3)
        for args in (
            ["generate", "--config", str(cfg), "--out-data", d, "--out-truth", t],
            ["sort", "--data", d, "--neighborhoods", "corr:3:0.2:1", "--out", o],
            ["eval", "--truth", t, "--ordering", o],
            ["fit", "--data", d, "--ordering", o, "--neighborhoods", "corr:3:0.2:1", "--out", m],
            ["loglik", "--model", m, "--data", d],
            ["benchmark", "--config", str(bench), "--out", str(tmp_path / "r.jsonl")],
        ):
            assert main(args) == 0, capsys.readouterr().err
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)

    def test_forks_cleanly_with_a_blas_thread_pool(self, tmp_path):
        # Python 3.12 warns when a process with threads forks; with a BLAS
        # pool of two threads, generate and sort write a CSV of more than
        # 2 MiB (two workers on a host with two CPUs) and print no warning
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 50, "n": 2600, "seed": 5, "family": "laplace",
                                   "graph": {"scheme": "large-sparse"}}))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
        src = str(Path(lingamsort.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        for args in (["generate", "--config", str(cfg), "--out-data", "d.csv",
                      "--out-truth", "t.json"],
                     ["sort", "--data", "d.csv", "--out", "o.json"]):
            done = subprocess.run(
                [sys.executable, "-W", "error::DeprecationWarning", "-m", "lingamsort.cli", *args],
                cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
            assert (done.returncode, done.stderr) == (0, "")
        assert (tmp_path / "d.csv").stat().st_size > 2 << 20


class TestGenerate:
    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        _write_chain_config(cfg, p=2, n=50, seed=7)
        data, truth = tmp_path / "d.csv", tmp_path / "t.json"
        args = ["generate", "--config", str(cfg), "--out-data", str(data), "--out-truth", str(truth)]
        assert main(args) == 0
        first = (data.read_bytes(), truth.read_bytes())
        assert main(args) == 0
        assert (data.read_bytes(), truth.read_bytes()) == first

    def test_large_sparse_root_count(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "p": 1000, "n": 5, "seed": 3, "family": "laplace",
            "graph": {"scheme": "large-sparse", "root_frac": 0.05},
        }))
        truth = tmp_path / "t.json"
        assert main(["generate", "--config", str(cfg),
                     "--out-data", str(tmp_path / "d.csv"), "--out-truth", str(truth)]) == 0
        doc = json.loads(truth.read_text())
        children = {e["to"] for e in doc["edges"]}
        assert doc["p"] - len(children) == 50

    def test_missing_family_field_names_it(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 2, "n": 10, "seed": 1,
                                   "graph": {"scheme": "large-sparse"}}))
        code = main(["generate", "--config", str(cfg),
                     "--out-data", str(tmp_path / "d.csv"),
                     "--out-truth", str(tmp_path / "t.json")])
        assert code == 2
        assert "'family'" in capsys.readouterr().err

    def test_json_syntax_error_is_line_precise(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{\n  "p": 2,\n  oops\n}\n')
        code = main(["generate", "--config", str(cfg),
                     "--out-data", str(tmp_path / "d.csv"),
                     "--out-truth", str(tmp_path / "t.json")])
        assert code == 2
        assert f"{cfg}:3" in capsys.readouterr().err

    def test_omitted_fields_take_the_simulation_defaults(self):
        doc = {"p": 30, "n": 40, "seed": 3, "family": "laplace",
               "graph": {"scheme": "large-sparse"}}
        assert cli.parse_sim_config(doc, Path()) == lingamsort.SimConfig(
            p=30, n=40, seed=3, family=NoiseFamily.from_string("laplace"))

    def test_gaussian_family_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 2, "n": 10, "seed": 1, "family": "gaussian",
                                   "graph": {"scheme": "large-sparse"}}))
        assert main(["generate", "--config", str(cfg),
                     "--out-data", str(tmp_path / "d.csv"),
                     "--out-truth", str(tmp_path / "t.json")]) == 2


class TestSortEvalPipeline:
    def test_chain_recovery_across_seeds(self, tmp_path, capsys):
        # generate -> sort -> eval on a 20-node chain recovers the exact
        # order in nearly every replicate
        wins = 0
        for seed in range(30):
            cfg = tmp_path / "cfg.json"
            _write_chain_config(cfg, seed=seed)
            data, truth = tmp_path / "d.csv", tmp_path / "t.json"
            ordering = tmp_path / "o.json"
            assert main(["generate", "--config", str(cfg), "--out-data", str(data),
                         "--out-truth", str(truth)]) == 0
            assert main(["sort", "--data", str(data), "--family", "laplace",
                         "--neighborhoods", "full", "--out", str(ordering)]) == 0
            capsys.readouterr()
            assert main(["eval", "--truth", str(truth), "--ordering", str(ordering)]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["is_topological"] == (report["order_error"] == 0.0)
            wins += report["order_error"] == 0.0
        assert wins >= 27

    def test_sort_output_is_deterministic(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        _write_chain_config(cfg, p=6, n=200, seed=5)
        data = tmp_path / "d.csv"
        main(["generate", "--config", str(cfg), "--out-data", str(data),
              "--out-truth", str(tmp_path / "t.json")])
        out = tmp_path / "o.json"
        main(["sort", "--data", str(data), "--out", str(out)])
        first = out.read_bytes()
        main(["sort", "--data", str(data), "--out", str(out)])
        assert out.read_bytes() == first
        doc = json.loads(first)
        assert doc["wall_time_ms"] is None
        assert "step_scores" not in doc

    def test_trace_and_timings_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        _write_chain_config(cfg, p=5, n=100, seed=6)
        data = tmp_path / "d.csv"
        main(["generate", "--config", str(cfg), "--out-data", str(data),
              "--out-truth", str(tmp_path / "t.json")])
        out = tmp_path / "o.json"
        main(["sort", "--data", str(data), "--out", str(out), "--trace", "--timings"])
        doc = json.loads(out.read_text())
        assert isinstance(doc["wall_time_ms"], float)
        assert len(doc["step_scores"]) == 5

    def test_correlation_neighborhood_arm(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "p": 30, "n": 400, "seed": 11, "family": "laplace",
            "graph": {"scheme": "large-sparse"},
            "scale_low": 0.25, "scale_high": 0.9,
        }))
        data = tmp_path / "d.csv"
        main(["generate", "--config", str(cfg), "--out-data", str(data),
              "--out-truth", str(tmp_path / "t.json")])
        out = tmp_path / "o.json"
        assert main(["sort", "--data", str(data), "--neighborhoods", "corr:10:0.2:3",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert sorted(doc["ordering"]) == list(range(30))
        assert doc["n_sorted"] == 400 - int(0.2 * 400)

    def test_neighborhood_file_option(self, tmp_path):
        from lingamsort import markov_blankets
        from lingamsort.cli import read_neighborhoods, truth_from_doc

        cfg = tmp_path / "cfg.json"
        _write_chain_config(cfg, p=8, n=400, seed=9)
        data, truth = tmp_path / "d.csv", tmp_path / "t.json"
        main(["generate", "--config", str(cfg), "--out-data", str(data),
              "--out-truth", str(truth)])
        w, _, _ = truth_from_doc(json.loads(truth.read_text()))
        nbhd_path = tmp_path / "nbhd.json"
        with open(nbhd_path, "w") as fh:
            json.dump(markov_blankets(w.dag).to_lists(), fh)
        assert read_neighborhoods(nbhd_path).to_lists() == markov_blankets(w.dag).to_lists()
        out = tmp_path / "o.json"
        assert main(["sort", "--data", str(data), "--neighborhoods", str(nbhd_path),
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert sorted(doc["ordering"]) == list(range(8))
        assert doc["neighborhoods"] == str(nbhd_path)

    def test_neighborhood_file_p_mismatch(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        _write_chain_config(cfg, p=4, n=100, seed=10)
        data = tmp_path / "d.csv"
        main(["generate", "--config", str(cfg), "--out-data", str(data),
              "--out-truth", str(tmp_path / "t.json")])
        nbhd_path = tmp_path / "nbhd.json"
        nbhd_path.write_text(json.dumps([[1], [0]]))
        assert main(["sort", "--data", str(data), "--neighborhoods", str(nbhd_path),
                     "--out", str(tmp_path / "o.json")]) == 2

    def test_constant_column_exits_2_naming_it(self, tmp_path, capsys):
        rng = rng_stream(3, 0)
        values = rng.standard_normal((50, 3))
        values[:, 1] = 2.5
        data = tmp_path / "d.csv"
        write_data_csv(data, DataMatrix(values))
        out = tmp_path / "o.json"
        assert main(["sort", "--data", str(data), "--out", str(out)]) == 2
        assert "column v1 is constant" in capsys.readouterr().err
        assert not out.exists()
        out.write_text(json.dumps({"ordering": [0, 1, 2]}))
        assert main(["fit", "--data", str(data), "--ordering", str(out),
                     "--out", str(tmp_path / "m.json")]) == 2
        assert "column v1 is constant" in capsys.readouterr().err

    @pytest.mark.parametrize("nbhd", ["full", "corr:2:0.2:1"])
    def test_overflowing_variance_exits_2_naming_it(self, tmp_path, capsys, nbhd):
        # finite cells whose squares overflow; a numpy warning would become
        # an error here and exit 1
        values = rng_stream(4, 0).laplace(size=(60, 4))
        values[:, 2] *= 1e200
        data = tmp_path / "d.csv"
        write_data_csv(data, DataMatrix(values))
        out = tmp_path / "o.json"
        ordering = tmp_path / "ordering.json"
        ordering.write_text(json.dumps({"ordering": [0, 1, 2, 3]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sort", "--data", str(data), "--neighborhoods", nbhd,
                         "--out", str(out)]) == 2
            assert f"{data}: column v2 variance overflows" in capsys.readouterr().err
            assert not out.exists()
            assert main(["fit", "--data", str(data), "--ordering", str(ordering),
                         "--neighborhoods", nbhd, "--out", str(out)]) == 2
            assert f"{data}: column v2 variance overflows" in capsys.readouterr().err
            assert not out.exists()

    def test_one_row_csv_exits_2_naming_file(self, tmp_path, capsys):
        data = tmp_path / "one.csv"
        data.write_text("v0,v1\n1.0,2.0\n")
        out = tmp_path / "o.json"
        assert main(["sort", "--data", str(data), "--out", str(out)]) == 2
        assert f"{data}: estimation needs at least two data rows" in capsys.readouterr().err
        assert not out.exists()
        out.write_text(json.dumps({"ordering": [0, 1]}))
        model = tmp_path / "m.json"
        assert main(["fit", "--data", str(data), "--ordering", str(out),
                     "--out", str(model)]) == 2
        assert f"{data}: estimation needs at least two data rows" in capsys.readouterr().err
        assert not model.exists()

    def test_hub_bigger_than_n_exits_2_naming_node(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        write_data_csv(data, DataMatrix(rng_stream(5, 0).laplace(size=(4, 8))))
        hub = tmp_path / "hub.json"
        hub.write_text(json.dumps([list(range(1, 8))] + [[0]] * 7))
        out = tmp_path / "o.json"
        for option in (str(hub), "full"):
            assert main(["sort", "--data", str(data), "--neighborhoods", option,
                         "--out", str(out)]) == 2
            assert "node 0 has 7 neighbors" in capsys.readouterr().err
        assert not out.exists()
        out.write_text(json.dumps({"ordering": list(range(8))}))
        assert main(["fit", "--data", str(data), "--ordering", str(out),
                     "--neighborhoods", str(hub), "--out", str(tmp_path / "m.json")]) == 2
        assert "node 0 has 7 neighbors" in capsys.readouterr().err

    def test_first_of_several_hubs_is_named(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        write_data_csv(data, DataMatrix(rng_stream(5, 0).laplace(size=(4, 8))))
        hubs = tmp_path / "hubs.json"
        hubs.write_text(json.dumps([[j for j in range(8) if j != k] if k in (3, 5)
                                    else [(k + 1) % 8] for k in range(8)]))
        assert main(["sort", "--data", str(data), "--neighborhoods", str(hubs),
                     "--out", str(tmp_path / "o.json")]) == 2
        assert "node 3 has 7 neighbors, more than the 4 estimation rows" in \
            capsys.readouterr().err

    def test_single_column_sorts_to_zero(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("v0\n1.0\n2.5\n-0.3\n")
        out = tmp_path / "o.json"
        assert main(["sort", "--data", str(data), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["ordering"] == [0]

    def test_two_rows_give_a_permutation(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("v0,v1,v2\n1.0,2.0,0.5\n-1.0,0.3,0.7\n")
        out = tmp_path / "o.json"
        assert main(["sort", "--data", str(data), "--out", str(out)]) == 0
        assert sorted(json.loads(out.read_text())["ordering"]) == [0, 1, 2]

    def test_removed_mode_flag_is_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sort", "--data", str(tmp_path / "d.csv"), "--mode", "fast"])
        assert exc.value.code == 2

    def test_missing_input_exits_2_without_output(self, tmp_path, capsys):
        out = tmp_path / "o.json"
        code = main(["sort", "--data", str(tmp_path / "missing.csv"), "--out", str(out)])
        assert code == 2
        assert not out.exists()

    @staticmethod
    def _sort_and_fit(tmp_path, *options):
        """``sort`` and ``fit`` argument lists on a 6-column CSV, with ``options``."""
        data = tmp_path / "d.csv"
        write_data_csv(data, DataMatrix(rng_stream(6, 0).laplace(size=(50, 6))))
        ordering = tmp_path / "ordering.json"
        ordering.write_text(json.dumps({"ordering": list(range(6))}))
        return [
            ["sort", "--data", str(data), *options, "--out", str(tmp_path / "o.json")],
            ["fit", "--data", str(data), "--ordering", str(ordering), *options,
             "--out", str(tmp_path / "m.json")],
        ]

    @pytest.mark.parametrize("command", [0, 1], ids=["sort", "fit"])
    def test_infinite_df_exits_2_naming_the_family(self, tmp_path, capsys, command):
        # sort scored every step NaN and wrote the identity; fit exited 1
        args = self._sort_and_fit(tmp_path, "--family", "scaled-t:inf")[command]
        assert main(args) == 2
        assert "error: --family: scaled-t requires finite real degrees of freedom > 2" \
            in capsys.readouterr().err
        assert not Path(args[-1]).exists()

    @pytest.mark.parametrize("command", [0, 1], ids=["sort", "fit"])
    def test_negative_split_seed_exits_2_naming_the_option(self, tmp_path, capsys, command):
        args = self._sort_and_fit(tmp_path, "--neighborhoods", "corr:2:0.2:-1")[command]
        assert main(args) == 2
        assert ("error: --neighborhoods: corr: split seed must be non-negative, found -1"
                in capsys.readouterr().err)
        assert not Path(args[-1]).exists()

    @pytest.mark.parametrize("frac", ["0", "1", "1.5", "-0.2", "nan"])
    @pytest.mark.parametrize("command", [0, 1], ids=["sort", "fit"])
    def test_holdout_fraction_outside_0_1_exits_2_naming_the_option(self, tmp_path, capsys,
                                                                    command, frac):
        args = self._sort_and_fit(tmp_path, "--neighborhoods", f"corr:2:{frac}:1")[command]
        assert main(args) == 2
        assert (f"error: --neighborhoods: corr: holdout fraction must lie in (0, 1), "
                f"found {float(frac)}" in capsys.readouterr().err)
        assert not Path(args[-1]).exists()

    @pytest.mark.parametrize("frac", ["0.05", "0.98"],
                             ids=["2-holdout-rows", "1-estimation-row"])
    @pytest.mark.parametrize("command", [0, 1], ids=["sort", "fit"])
    def test_corr_split_too_small_exits_2_naming_the_option(self, tmp_path, capsys,
                                                            command, frac):
        # 50 rows: the holdout would keep 2 rows, or leave 1 for estimation;
        # this message named neither the option nor what the split needs
        args = self._sort_and_fit(tmp_path, "--neighborhoods", f"corr:2:{frac}:1")[command]
        assert main(args) == 2
        assert (f"error: --neighborhoods: corr: cannot split 50 rows with holdout fraction "
                f"{frac}: the split needs at least 3 holdout rows and 2 estimation rows"
                in capsys.readouterr().err)
        assert not Path(args[-1]).exists()

    @pytest.mark.parametrize("command", [0, 1], ids=["sort", "fit"])
    def test_mb_outside_a_benchmark_cell_exits_2_naming_the_scheme(self, tmp_path, capsys,
                                                                    monkeypatch, command):
        # with no file named mb, the scheme is meant: it needs the true DAG
        monkeypatch.chdir(tmp_path)
        args = self._sort_and_fit(tmp_path, "--neighborhoods", "mb")[command]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "the mb scheme needs the true DAG, which only benchmark cells have" in err
        assert "not found" not in err
        assert not Path(args[-1]).exists()
        # a file named mb is read as sets, as any other path
        Path("mb").write_text(json.dumps([[1], [0, 2], [1], [4], [3, 5], [4]]))
        assert main(args) == 0

    @pytest.mark.parametrize("command", [0, 1], ids=["sort", "fit"])
    def test_csv_array_is_freed_before_the_sets_are_built(self, tmp_path, monkeypatch,
                                                          command):
        # with a holdout, the CSV's whole array must be gone once its rows
        # are split, so that it does not add to the peak of top_correlated
        read, top = cli.read_data_csv, cli.top_correlated
        arrays, alive = [], []

        def spy_read(path):
            x = read(path)
            arrays.append(weakref.ref(x.values))
            return x

        def spy_top(hold, m):
            alive.extend(ref() is not None for ref in arrays)
            return top(hold, m)

        monkeypatch.setattr(cli, "read_data_csv", spy_read)
        monkeypatch.setattr(cli, "top_correlated", spy_top)
        args = self._sort_and_fit(tmp_path, "--neighborhoods", "corr:2:0.2:1")[command]
        assert main(args) == 0
        assert alive == [False]

    def test_eval_reversed_chain(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        _write_chain_config(cfg, p=3, n=50, seed=4)
        truth = tmp_path / "t.json"
        main(["generate", "--config", str(cfg), "--out-data", str(tmp_path / "d.csv"),
              "--out-truth", str(truth)])
        ordering = tmp_path / "o.json"
        ordering.write_text(json.dumps({"ordering": [2, 1, 0]}))
        capsys.readouterr()
        assert main(["eval", "--truth", str(truth), "--ordering", str(ordering)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["order_error"] == pytest.approx(2 / 9)
        assert report["reversed_edge_count"] == 2
        assert not report["is_topological"]

    def test_eval_p_mismatch(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        _write_chain_config(cfg, p=3, n=50, seed=2)
        main(["generate", "--config", str(cfg), "--out-data", str(tmp_path / "d.csv"),
              "--out-truth", str(tmp_path / "t.json")])
        ordering = tmp_path / "o.json"
        ordering.write_text(json.dumps({"ordering": [0, 1]}))
        assert main(["eval", "--truth", str(tmp_path / "t.json"),
                     "--ordering", str(ordering)]) == 2

    @pytest.mark.parametrize("edges", [
        [{"from": 0, "to": 1, "weight": 0.5}, {"from": 1, "to": 0, "weight": 0.5}],
        [{"from": 0, "to": 3, "weight": 0.5}],
        [{"from": 0, "to": 1, "weight": 0.0}],
    ], ids=["cycle", "node-out-of-range", "zero-weight"])
    def test_eval_bad_truth_exits_2_naming_it(self, tmp_path, capsys, edges):
        truth = tmp_path / "t.json"
        truth.write_text(json.dumps({"p": 3, "edges": edges, "family": {"tag": "laplace"},
                                     "scales": [1.0] * 3, "ordering": [0, 1, 2], "seed": 1}))
        ordering = tmp_path / "o.json"
        ordering.write_text(json.dumps({"ordering": [0, 1, 2]}))
        assert main(["eval", "--truth", str(truth), "--ordering", str(ordering)]) == 2
        assert f"error: {truth}: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["generate", "sort", "benchmark"])
def test_failed_write_leaves_no_temporary(tmp_path, capsys, command):
    # each output path names a directory, so the final rename fails
    cfg, data = tmp_path / "cfg.json", tmp_path / "d.csv"
    _write_chain_config(cfg, p=4, n=30)
    write_data_csv(data, DataMatrix(rng_stream(6, 0).laplace(size=(30, 4))))
    (tmp_path / "bench.json").write_text(json.dumps({"base_seed": 1, "cells": [
        {"p": 4, "n": 30, "family": "laplace"}]}))
    out = tmp_path / "outdir"
    out.mkdir()
    args = {
        "generate": ["generate", "--config", str(cfg), "--out-data", str(out),
                     "--out-truth", str(tmp_path / "t.json")],
        "sort": ["sort", "--data", str(data), "--out", str(out)],
        "benchmark": ["benchmark", "--config", str(tmp_path / "bench.json"),
                      "--out", str(out)],
    }[command]
    assert main(args) == 2
    assert "error: " in capsys.readouterr().err
    assert list(tmp_path.glob("outdir.tmp*")) == [] and list(out.iterdir()) == []


class TestBenchmark:
    def test_small_grid_stable_and_sorted(self, tmp_path, capsys):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({
            "base_seed": 42,
            "cells": [
                {"p": 10, "n_mult": 10, "family": "laplace",
                 "neighborhoods": "mb", "replicates": 2,
                 "scale_low": 0.25, "scale_high": 0.9},
                {"p": 8, "n": 64, "family": "logistic",
                 "neighborhoods": "full", "replicates": 2},
            ],
        }))
        out = tmp_path / "r.jsonl"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
        first = out.read_bytes()
        records = [json.loads(line) for line in first.decode().splitlines()]
        assert [(r["cell"], r["replicate"]) for r in records] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        for r in records:
            assert r["error"] is None
            assert r["wall_time_ms"] is None
            assert 0.0 <= r["order_error"] <= 1.0
        assert records[0]["n"] == 100
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_bytes() == first

    def test_zero_replicates_is_empty_success(self, tmp_path):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"base_seed": 1, "cells": [
            {"p": 5, "n": 20, "family": "laplace", "replicates": 0}]}))
        out = tmp_path / "r.jsonl"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_text() == ""

    @pytest.mark.parametrize("spec", ["corr:x:0.2", "corr:2:y", "corr:2"])
    def test_bad_corr_spec_exits_2_naming_the_cell(self, tmp_path, capsys, spec):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"base_seed": 1, "cells": [
            {"p": 5, "n": 40, "family": "laplace", "neighborhoods": spec}]}))
        out = tmp_path / "r.jsonl"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"error: {cfg}: cells[0]: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("m", [0, 5, 9])
    def test_corr_m_out_of_range_exits_2_naming_the_cell(self, tmp_path, capsys, m):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"base_seed": 1, "cells": [
            {"p": 8, "n": 40, "family": "laplace", "neighborhoods": "mb"},
            {"p": 5, "n": 40, "family": "laplace", "neighborhoods": f"corr:{m}:0.2"}]}))
        out = tmp_path / "r.jsonl"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 2
        assert (f"error: {cfg}: cells[1]: corr: need 0 < m < p, got m={m}, p=5"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("frac", ["1.5", "0", "nan"])
    def test_corr_fraction_out_of_range_exits_2_before_sampling(self, tmp_path, capsys,
                                                                monkeypatch, frac):
        # each replicate used to be sampled and to record the error, and the
        # command exited 0
        sampled = []
        monkeypatch.setattr(cli, "sample_dataset", sampled.append)
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"base_seed": 1, "cells": [
            {"p": 8, "n": 40, "family": "laplace", "neighborhoods": "mb"},
            {"p": 5, "n": 40, "family": "laplace", "neighborhoods": f"corr:2:{frac}",
             "replicates": 2}]}))
        out = tmp_path / "r.jsonl"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 2
        assert (f"error: {cfg}: cells[1]: corr: holdout fraction must lie in (0, 1), "
                f"found {float(frac)}" in capsys.readouterr().err)
        assert sampled == [] and not out.exists()

    def test_every_cell_is_checked_before_any_is_sampled(self, tmp_path, capsys, monkeypatch):
        sampled = []
        monkeypatch.setattr(cli, "sample_dataset", sampled.append)
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"base_seed": 1, "cells": [
            {"p": 8, "n": 40, "family": "laplace", "replicates": 3},
            {"p": 5, "n": 40, "family": "laplace", "coef_low": 0.9, "coef_high": 0.4}]}))
        out = tmp_path / "r.jsonl"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"error: {cfg}: cells[1]: " in capsys.readouterr().err
        assert sampled == [] and not out.exists()

    @pytest.mark.parametrize("cell, error", [
        ({"p": 30, "n": 10, "neighborhoods": "full"},
         "UsageError: full: node 0 has 29 neighbors, more than the 10 estimation rows"),
        ({"p": 5, "n": 1},
         "UsageError: {cfg}: cells[0]: estimation needs at least two data rows, found 1"),
        ({"p": 5, "n": 5, "neighborhoods": "corr:2:0.5"},
         "UsageError: {cfg}: cells[0]: corr: cannot split 5 rows with holdout fraction 0.5: "
         "the split needs at least 3 holdout rows and 2 estimation rows"),
    ], ids=["full-bigger-than-n", "one-row", "corr-split-too-small"])
    def test_replicate_gets_the_cli_diagnostic(self, tmp_path, cell, error):
        # a replicate's sets and rows are checked as sort's and fit's are
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"base_seed": 1, "cells": [
            {**cell, "family": "laplace", "replicates": 1}]}))
        out = tmp_path / "r.jsonl"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
        record, = [json.loads(line) for line in out.read_text().splitlines()]
        assert record["error"] == error.format(cfg=cfg)

    def test_replicate_failure_recorded_run_continues(self, tmp_path):
        # n too small for the corr split: the replicate records the error
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"base_seed": 1, "cells": [
            {"p": 5, "n": 4, "family": "laplace", "neighborhoods": "corr:2:0.2", "replicates": 1},
            {"p": 5, "n": 40, "family": "laplace", "neighborhoods": "mb", "replicates": 1},
        ]}))
        out = tmp_path / "r.jsonl"
        assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert records[0]["error"] is not None and records[0]["order_error"] is None
        assert records[1]["error"] is None


class TestFitLoglik:
    def _pipeline(self, tmp_path, family):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "p": 12, "n": 800, "seed": 21, "family": "laplace",
            "graph": {"scheme": "large-sparse"},
        }))
        data = tmp_path / "d.csv"
        truth = tmp_path / "t.json"
        main(["generate", "--config", str(cfg), "--out-data", str(data),
              "--out-truth", str(truth)])
        ordering = tmp_path / "o.json"
        main(["sort", "--data", str(data), "--out", str(ordering)])
        model = tmp_path / f"m-{family}.json"
        assert main(["fit", "--data", str(data), "--ordering", str(ordering),
                     "--family", family, "--out", str(model)]) == 0
        return data, model

    def test_fit_beats_null_model_on_training_data(self, tmp_path, capsys):
        data, model = self._pipeline(tmp_path, "gaussian")
        doc = json.loads(model.read_text())
        null = dict(doc, coefficients=[],
                    scales=[1.0] * doc["p"])  # sd of self-standardized columns
        null_path = tmp_path / "null.json"
        null_path.write_text(json.dumps(null))
        capsys.readouterr()
        assert main(["loglik", "--model", str(model), "--data", str(data)]) == 0
        fitted = json.loads(capsys.readouterr().out)["mean_loglik"]
        assert main(["loglik", "--model", str(null_path), "--data", str(data)]) == 0
        base = json.loads(capsys.readouterr().out)["mean_loglik"]
        assert fitted >= base - 1e-9

    def test_laplace_family_beats_gaussian_on_laplace_data(self, tmp_path, capsys):
        data, model_lap = self._pipeline(tmp_path, "laplace")
        _, model_gau = self._pipeline(tmp_path, "gaussian")
        capsys.readouterr()
        main(["loglik", "--model", str(model_lap), "--data", str(data)])
        lap = json.loads(capsys.readouterr().out)
        main(["loglik", "--model", str(model_gau), "--data", str(data)])
        gau = json.loads(capsys.readouterr().out)
        assert lap["units"] == "per-observation-per-variable"
        assert lap["mean_loglik"] > gau["mean_loglik"]

    def test_duplicate_column_fit_exits_2_naming_it(self, tmp_path, capsys):
        values = rng_stream(8, 0).laplace(size=(200, 3))
        values[:, 2] = values[:, 0]
        data = tmp_path / "dup.csv"
        write_data_csv(data, DataMatrix(values))
        ordering = tmp_path / "o.json"
        assert main(["sort", "--data", str(data), "--out", str(ordering)]) == 0
        assert json.loads(ordering.read_text())["diagnostics"]["degenerate"] == [[2, 2]]
        model = tmp_path / "m.json"
        capsys.readouterr()
        assert main(["fit", "--data", str(data), "--ordering", str(ordering),
                     "--out", str(model)]) == 2
        err = capsys.readouterr().err
        assert f"{data}: column v2 is explained exactly by its predecessors" in err
        assert not model.exists()

    def test_collinear_regressor_sort_skips_and_fit_refuses(self, tmp_path, capsys):
        # where the two differ by design: the sorter skips a regressor that
        # is collinear with a factor's columns and goes on, while fit
        # refuses the same predecessors
        rng = np.random.default_rng(0)
        v = rng.laplace(size=(300, 4))
        v[:, 2] = v[:, 0] + v[:, 1]
        v[:, 3] = 0.8 * v[:, 0] - 0.5 * v[:, 1] + rng.standard_normal(300)
        data = tmp_path / "d.csv"
        write_data_csv(data, DataMatrix(v))
        nbhd = tmp_path / "n.json"
        nbhd.write_text(json.dumps([[1, 2, 3], [0, 2, 3], [], [0, 1, 2]]))
        ordering = tmp_path / "o.json"
        assert main(["sort", "--data", str(data), "--neighborhoods", str(nbhd),
                     "--out", str(ordering)]) == 0
        doc = json.loads(ordering.read_text())
        assert doc["ordering"] == [1, 0, 2, 3]
        assert doc["diagnostics"]["skipped_updates"] == 1
        model = tmp_path / "m.json"
        capsys.readouterr()
        assert main(["fit", "--data", str(data), "--ordering", str(ordering),
                     "--neighborhoods", str(nbhd), "--out", str(model)]) == 2
        err = capsys.readouterr().err
        assert f"error: {data}: the predecessors of column v3 are collinear\n" in err
        assert not model.exists()

    def test_one_row_test_csv_is_accepted(self, tmp_path, capsys):
        data, model = self._pipeline(tmp_path, "laplace")
        one = tmp_path / "one.csv"
        one.write_text("\n".join(data.read_text().splitlines()[:2]) + "\n")
        capsys.readouterr()
        assert main(["loglik", "--model", str(model), "--data", str(one)]) == 0
        assert math.isfinite(json.loads(capsys.readouterr().out)["mean_loglik"])

    def test_model_data_p_mismatch(self, tmp_path, capsys):
        data, model = self._pipeline(tmp_path, "laplace")
        small = tmp_path / "small.csv"
        write_data_csv(small, DataMatrix(np.random.default_rng(0).standard_normal((10, 3))))
        assert main(["loglik", "--model", str(model), "--data", str(small)]) == 2

    @pytest.mark.parametrize("change", [
        {"coefficients": [{"from": -1, "to": 1, "weight": 0.5}]},
        {"coefficients": [{"from": 1, "to": 1, "weight": 0.5}]},
        {"coefficients": [{"from": 0, "to": 1, "weight": 0.5},
                          {"from": 1, "to": 0, "weight": 0.5}]},
        {"coefficients": [{"from": 0, "to": 3, "weight": 0.5}]},
        {"scales": [1.0, 1.0]},
        {"train_sds": [1.0, 1.0]},
        {"coefficients": [{"from": 0, "to": 1, "weight": math.nan}]},
        {"scales": [1.0, math.inf, 1.0]},
        {"train_sds": [1.0, math.inf, 1.0]},
    ], ids=["negative-node", "self-loop", "cycle", "node-out-of-range", "short-scales",
            "short-train-sds", "nan-weight", "infinite-scale", "infinite-train-sd"])
    def test_bad_model_exits_2_naming_it(self, tmp_path, capsys, change):
        data = tmp_path / "d.csv"
        write_data_csv(data, DataMatrix(rng_stream(9, 0).laplace(size=(20, 3))))
        good = {"p": 3, "family": {"tag": "laplace"},
                "coefficients": [{"from": 0, "to": 1, "weight": 0.5}],
                "scales": [1.0] * 3, "train_means": [0.0] * 3, "train_sds": [1.0] * 3}
        model = tmp_path / "m.json"
        model.write_text(json.dumps(good))
        assert main(["loglik", "--model", str(model), "--data", str(data)]) == 0
        model.write_text(json.dumps({**good, **change}))
        capsys.readouterr()
        assert main(["loglik", "--model", str(model), "--data", str(data)]) == 2
        assert f"error: {model}: " in capsys.readouterr().err

    def test_fit_writes_what_loglik_reads(self, tmp_path, capsys):
        # model.json lists coefficients by (from, to); read back, it is the
        # same WeightedDag that fit_coefficients returned
        data, model = self._pipeline(tmp_path, "laplace")
        doc = json.loads(model.read_text())
        pairs = [(e["from"], e["to"]) for e in doc["coefficients"]]
        assert pairs == sorted(pairs) and len(pairs) > 0
        w, mean, sd = read_model(model)
        assert sorted(_weighted_edges(w)) == [
            (e["from"], e["to"], e["weight"]) for e in doc["coefficients"]]
        assert list(w.scales) == doc["scales"]
        assert list(mean) == doc["train_means"] and list(sd) == doc["train_sds"]


def _edit(doc, path, value):
    """A copy of a JSON doc with the entry at ``path`` (keys and indices) set."""
    doc = json.loads(json.dumps(doc))
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    target[last] = value
    return doc


@pytest.mark.parametrize("command, kind, path, value", [
    ("fit", "ordering", ["ordering", 1], 1.5),
    ("fit", "ordering", ["ordering", 1], True),
    ("fit", "neighborhoods", [0, 0], 1.5),
    ("sort", "neighborhoods", [0, 0], 1.5),
    ("sort", "neighborhoods", [0, 0], True),
    ("loglik", "model", ["coefficients", 0, "from"], 0.5),
    ("loglik", "model", ["coefficients", 0, "to"], 2.0),
    ("loglik", "model", ["p"], 4.7),
    ("eval", "ordering", ["ordering", 1], 1.5),
    ("eval", "truth", ["ordering", 1], 1.5),
    ("eval", "truth", ["edges", 0, "from"], False),
    ("eval", "truth", ["p"], 4.0),
    ("eval", "truth", ["seed"], 1.5),
    ("eval", "truth", ["seed"], True),
], ids=["fit-ordering-float", "fit-ordering-bool", "fit-nbhd-float", "sort-nbhd-float",
        "sort-nbhd-bool", "model-from-float", "model-to-float", "model-p-float",
        "eval-ordering-float", "truth-ordering-float", "truth-from-bool", "truth-p-float",
        "truth-seed-float", "truth-seed-bool"])
def test_non_integer_node_index_exits_2_naming_the_file(tmp_path, capsys, command, kind,
                                                        path, value):
    # each of these was truncated by int() and ran on the wrong graph
    data = tmp_path / "d.csv"
    write_data_csv(data, DataMatrix(rng_stream(31, 0).laplace(size=(40, 4))))
    good = {
        "ordering": {"ordering": [0, 1, 2, 3]},
        "neighborhoods": [[1], [0, 2], [3], [2]],
        "model": {"p": 4, "family": {"tag": "laplace"},
                  "coefficients": [{"from": 0, "to": 1, "weight": 0.5}],
                  "scales": [1.0] * 4, "train_means": [0.0] * 4, "train_sds": [1.0] * 4},
        "truth": {"p": 4, "edges": [{"from": 0, "to": 1, "weight": 0.5}],
                  "family": {"tag": "laplace"}, "scales": [1.0] * 4,
                  "ordering": [0, 1, 2, 3], "seed": 1},
    }
    files = {}
    for name, doc in good.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(doc))
    args = {
        "fit": ["fit", "--data", str(data), "--ordering", str(files["ordering"]),
                "--neighborhoods", str(files["neighborhoods"]),
                "--out", str(tmp_path / "m.json")],
        "sort": ["sort", "--data", str(data), "--neighborhoods", str(files["neighborhoods"]),
                 "--out", str(tmp_path / "o.json")],
        "loglik": ["loglik", "--model", str(files["model"]), "--data", str(data)],
        "eval": ["eval", "--truth", str(files["truth"]), "--ordering", str(files["ordering"])],
    }[command]
    assert main(args) == 0
    files[kind].write_text(json.dumps(_edit(good[kind], path, value)))
    capsys.readouterr()
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"error: {files[kind]}: " in err and json.dumps(value) in err


@pytest.mark.parametrize("command, kind, path, message", [
    ("generate", "config", None, "expected a JSON object, not array"),
    ("benchmark", "grid", None, "expected a JSON object, not array"),
    ("eval", "truth", None, "expected a JSON object, not array"),
    ("eval", "ordering", None, "expected a JSON object, not array"),
    ("fit", "ordering", None, "expected a JSON object, not array"),
    ("loglik", "model", None, "expected a JSON object, not array"),
    ("sort", "neighborhoods", None, "expected a JSON array, not number"),
    ("generate", "config", ["p"], "missing field 'p'"),
    ("generate", "config", ["graph", "scheme"], "field 'graph': missing field 'scheme'"),
    ("benchmark", "grid", ["cells", 0, "p"], "cells[0]: missing field 'p'"),
    ("benchmark", "grid", ["base_seed"], "missing field 'base_seed'"),
    ("eval", "truth", ["seed"], "missing field 'seed'"),
    ("loglik", "model", ["train_sds"], "missing field 'train_sds'"),
    ("eval", "ordering", ["ordering"], "missing field 'ordering'"),
], ids=["config-top", "grid-top", "truth-top", "eval-ordering-top", "fit-ordering-top",
        "model-top", "nbhd-top", "config-p", "graph-scheme", "cell-p", "grid-base-seed",
        "truth-seed", "model-train-sds", "ordering-ordering"])
def test_malformed_json_input_exits_2_naming_the_file(tmp_path, capsys, command, kind,
                                                      path, message):
    # a top level of the wrong kind gave Python's reason for a truth, model,
    # ordering or neighborhood file; a missing field had two wordings
    data = tmp_path / "d.csv"
    write_data_csv(data, DataMatrix(rng_stream(31, 0).laplace(size=(40, 4))))
    good = {
        "config": {"p": 5, "n": 40, "seed": 1, "family": "laplace",
                   "graph": {"scheme": "large-sparse", "min_parents": 1, "max_parents": 2}},
        "grid": {"base_seed": 1, "cells": [{"p": 5, "n": 40, "family": "laplace"}]},
        "ordering": {"ordering": [0, 1, 2, 3]},
        "neighborhoods": [[1], [0, 2], [3], [2]],
        "model": {"p": 4, "family": {"tag": "laplace"},
                  "coefficients": [{"from": 0, "to": 1, "weight": 0.5}],
                  "scales": [1.0] * 4, "train_means": [0.0] * 4, "train_sds": [1.0] * 4},
        "truth": {"p": 4, "edges": [{"from": 0, "to": 1, "weight": 0.5}],
                  "family": {"tag": "laplace"}, "scales": [1.0] * 4,
                  "ordering": [0, 1, 2, 3], "seed": 1},
    }
    files = {}
    for name, doc in good.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(doc))
    out = str(tmp_path / "out")
    args = {
        "generate": ["generate", "--config", str(files["config"]), "--out-data", out,
                     "--out-truth", str(tmp_path / "t.json")],
        "benchmark": ["benchmark", "--config", str(files["grid"]), "--out", out],
        "sort": ["sort", "--data", str(data), "--neighborhoods", str(files["neighborhoods"]),
                 "--out", out],
        "eval": ["eval", "--truth", str(files["truth"]), "--ordering", str(files["ordering"])],
        "fit": ["fit", "--data", str(data), "--ordering", str(files["ordering"]),
                "--out", out],
        "loglik": ["loglik", "--model", str(files["model"]), "--data", str(data)],
    }[command]
    assert main(args) == 0
    if path is None:
        bad = 7 if kind == "neighborhoods" else [good[kind]]
    else:
        bad = json.loads(json.dumps(good[kind]))
        *head, last = path
        target = bad
        for key in head:
            target = target[key]
        del target[last]
    files[kind].write_text(json.dumps(bad))
    capsys.readouterr()
    assert main(args) == 2
    assert f"error: {files[kind]}: {message}\n" in capsys.readouterr().err


@pytest.mark.parametrize("value, found", [(None, "null"), ("abc", "string"), (1.5, "number"),
                                          (True, "boolean")])
@pytest.mark.parametrize("kind", ["truth", "neighborhoods"])
def test_json_top_level_is_named_by_its_json_kind(tmp_path, capsys, kind, value, found):
    # a refusal named Python's type of the value (NoneType, str, float, bool)
    data = tmp_path / "d.csv"
    write_data_csv(data, DataMatrix(rng_stream(31, 0).laplace(size=(40, 4))))
    ordering = tmp_path / "o.json"
    ordering.write_text(json.dumps({"ordering": [0, 1, 2, 3]}))
    bad = tmp_path / f"{kind}.json"
    bad.write_text(json.dumps(value))
    if kind == "truth":
        args, expected = ["eval", "--truth", str(bad), "--ordering", str(ordering)], "object"
    else:
        args = ["sort", "--data", str(data), "--neighborhoods", str(bad),
                "--out", str(tmp_path / "out")]
        expected = "array"
    assert main(args) == 2
    assert f"error: {bad}: expected a JSON {expected}, not {found}\n" in capsys.readouterr().err


@pytest.mark.parametrize("command, kind, path, value", [
    ("loglik", "model", ["coefficients", 0, "weight"], "0.5"),
    ("loglik", "model", ["coefficients", 0, "weight"], True),
    ("loglik", "model", ["scales", 2], "1.0"),
    ("loglik", "model", ["train_means", 1], True),
    ("loglik", "model", ["train_sds", 3], "1"),
    ("eval", "truth", ["scales", 2], "0.5"),
], ids=["model-weight-string", "model-weight-bool", "model-scale-string",
        "model-train-mean-bool", "model-train-sd-string", "truth-scale-string"])
def test_non_number_value_exits_2_naming_the_file(tmp_path, capsys, command, kind, path,
                                                  value):
    # float() and numpy read each of these as a number, a boolean as 1.0
    test_non_integer_node_index_exits_2_naming_the_file(tmp_path, capsys, command, kind,
                                                        path, value)


@pytest.mark.parametrize("line", ["1_0 2", "+1 2", "\u0661 2"],
                         ids=["underscore", "plus-sign", "arabic-indic-digit"])
def test_non_decimal_edge_list_index_exits_2_naming_the_line(tmp_path, capsys, line):
    # int() read these as 10 and 1: "1_0 2" gave the edge 10 -> 2
    config = tmp_path / "config.json"
    _write_chain_config(config, p=12, n=40)
    (tmp_path / "edges.txt").write_text(f"0 1\n{line}\n")
    args = ["generate", "--config", str(config), "--out-data", str(tmp_path / "d.csv"),
            "--out-truth", str(tmp_path / "t.json")]
    assert main(args) == 2
    assert (capsys.readouterr().err
            == f"error: {tmp_path / 'edges.txt'}:2: node indices must be integers\n")


@pytest.mark.parametrize("spec, bad, kind", [
    ("corr:1_0:0.5:1", "1_0", "integer"), ("corr:+3:0.5:1", "+3", "integer"),
    ("corr: 3:0.5:1", " 3", "integer"), ("corr:\u0663:0.5:1", "\u0663", "integer"),
    ("corr:3:0.5:1_0", "1_0", "integer"), ("corr:3:0.5:+1", "+1", "integer"),
    ("corr:3:0.2_5:1", "0.2_5", "number"), ("corr:3:\u0660.\u0665:1", "\u0660.\u0665", "number"),
], ids=["m-underscore", "m-plus-sign", "m-space", "m-arabic-indic-digit", "seed-underscore",
        "seed-plus-sign", "frac-underscore", "frac-arabic-indic-digits"])
def test_non_decimal_corr_integer_exits_2_naming_the_option(tmp_path, capsys, spec, bad, kind):
    # int() and float() read each of these, so "corr:1_0:0.5:1" ran with
    # m = 10 and "corr:3:0.2_5:1" with a holdout fraction of 0.25
    data = tmp_path / "d.csv"
    write_data_csv(data, DataMatrix(rng_stream(31, 0).laplace(size=(40, 12))))
    assert main(["sort", "--data", str(data), "--neighborhoods", spec,
                 "--out", str(tmp_path / "o.json")]) == 2
    assert (capsys.readouterr().err == "error: --neighborhoods: bad corr specification: "
            f"not a decimal {kind}: {bad!r}\n")


@pytest.mark.parametrize("command, kind, line", [
    ("generate", "config", 0),
    ("generate", "edges", 1),
    ("benchmark", "grid", 0),
    ("sort", "data", 0),
    ("sort", "data", 2),
    ("sort", "neighborhoods", 0),
    ("eval", "truth", 0),
    ("eval", "ordering", 0),
    ("fit", "ordering", 0),
    ("fit", "data", 3),
    ("loglik", "model", 0),
    ("loglik", "data", 1),
], ids=["generate-config", "generate-edge-list", "benchmark-config", "sort-data-header",
        "sort-data-line", "sort-nbhd", "eval-truth", "eval-ordering", "fit-ordering",
        "fit-data-line", "loglik-model", "loglik-data-line"])
def test_undecodable_byte_exits_2_naming_the_file(tmp_path, capsys, command, kind, line):
    # each of these exited 1 with a UnicodeDecodeError, and the edge list
    # exited 2 naming the config that points to it
    files = {name: tmp_path / name for name in
             ("config", "edges", "grid", "data", "neighborhoods", "truth", "ordering", "model")}
    _write_chain_config(files["config"], p=4, n=40)
    files["edges"] = files["config"].parent / "edges.txt"
    files["grid"].write_text(json.dumps({"base_seed": 1, "cells": [
        {"p": 5, "n": 40, "family": "laplace"}]}))
    files["neighborhoods"].write_text(json.dumps([[1], [0, 2], [3], [2]]))
    files["ordering"].write_text(json.dumps({"ordering": [0, 1, 2, 3]}))
    out = tmp_path / "out"
    args = {
        "generate": ["generate", "--config", str(files["config"]),
                     "--out-data", str(files["data"]), "--out-truth", str(files["truth"])],
        "benchmark": ["benchmark", "--config", str(files["grid"]), "--out", str(out)],
        "sort": ["sort", "--data", str(files["data"]),
                 "--neighborhoods", str(files["neighborhoods"]), "--out", str(out)],
        "eval": ["eval", "--truth", str(files["truth"]), "--ordering", str(files["ordering"])],
        "fit": ["fit", "--data", str(files["data"]), "--ordering", str(files["ordering"]),
                "--out", str(files["model"])],
        "loglik": ["loglik", "--model", str(files["model"]), "--data", str(files["data"])],
    }
    for setup in ("generate", "fit", command):
        assert main(args[setup]) == 0
    bad = files[kind]
    lines = bad.read_bytes().splitlines(keepends=True)
    lines[line] = b"\xff" + lines[line]
    bad.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert main(args[command]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: byte 0xff is not ")


_NUMBER_RULE = "weights, scales, moments and simulation settings must be numbers"


@pytest.mark.parametrize("command, path, value, message", [
    ("generate", ["p"], "abc", '"abc"'),
    ("generate", ["p"], 10.7, "10.7"),
    ("generate", ["n"], 40.5, "40.5"),
    ("generate", ["seed"], True, "true"),
    ("generate", ["graph", "min_parents"], 0, "min_parents"),
    ("generate", ["graph", "max_parents"], 1.5,
     "field 'max_parents': node indices, counts and seeds must be integers, found 1.5"),
    ("generate", ["graph", "root_frac"], 1.5, "root_frac"),
    ("benchmark", ["base_seed"], 1.5, "1.5"),
    ("benchmark", ["cells", 0, "replicates"], 1.9, "1.9"),
    ("benchmark", ["cells", 0, "p"], 10.7, "10.7"),
    ("benchmark", ["cells", 0, "coef_low"], 0.95, "coef_low"),
    ("benchmark", ["cells", 0, "graph"], {"root_frac": 1.5}, "root_frac"),
    ("benchmark", ["cells", 0, "family"], "gaussian", "generating"),
    ("generate", ["seed"], -3, "seed"),
    ("generate", ["graph"], 3, "field 'graph'"),
    ("benchmark", ["base_seed"], -1, "base_seed"),
    ("benchmark", ["cells"], {"p": 5}, "cells"),
    ("benchmark", ["cells", 0], 3, "object"),
    ("benchmark", ["cells", 0], {"p": 5, "n_mult": "abc", "family": "laplace"}, "n_mult"),
    ("benchmark", ["cells", 0], {"p": 5, "n_mult": math.inf, "family": "laplace"}, "n_mult"),
    ("benchmark", ["cells", 0], {"p": 5, "n_mult": -5, "family": "laplace"}, "n_mult"),
    ("benchmark", ["cells", 0], {"p": 5, "n_mult": 0, "family": "laplace"}, "n_mult"),
    ("benchmark", ["cells", 0], {"p": 5, "n_mult": True, "family": "laplace"}, "n_mult"),
    ("benchmark", ["cells", 0], {"p": 5, "n_mult": "2", "family": "laplace"}, "n_mult"),
    ("benchmark", ["cells", 0, "graph"], 3, "field 'graph'"),
    ("benchmark", ["cells", 0, "neighborhoods"], 7, "neighborhood scheme 7"),
    ("benchmark", ["cells", 0, "replicates"], -2, "replicates"),
    ("generate", ["family"], {"tag": "scaled-t", "df": "abc"}, "degrees of freedom"),
    ("generate", ["family"], {"tag": "scaled-t", "df": math.inf}, "degrees of freedom"),
    ("benchmark", ["cells", 0, "family"], {"tag": "scaled-t", "df": math.inf},
     "degrees of freedom"),
    ("generate", ["p"], 1, "p=1"),
    ("generate", ["graph", "root_frac"], 0.9, "root_frac 0.9"),
    ("benchmark", ["cells", 0, "p"], 1, "p=1"),
    ("benchmark", ["cells", 0, "graph"], {"root_frac": 0.9}, "root_frac 0.9"),
    ("generate", ["coef_high"], "1.5", f"field 'coef_high': {_NUMBER_RULE}, found \"1.5\""),
    ("generate", ["graph", "root_frac"], "0.2",
     f"field 'root_frac': {_NUMBER_RULE}, found \"0.2\""),
    ("generate", ["coef_low"], True, f"field 'coef_low': {_NUMBER_RULE}, found true"),
    ("generate", ["coef_high"], True, f"field 'coef_high': {_NUMBER_RULE}, found true"),
    ("benchmark", ["cells", 0, "coef_high"], "1.2",
     f"field 'coef_high': {_NUMBER_RULE}, found \"1.2\""),
    ("generate", ["coef_high"], math.inf, "coef_high < inf, found 0.4 and inf"),
    ("generate", ["scale_high"], math.inf, "scale_high < inf, found 0.4 and inf"),
    ("benchmark", ["cells", 0, "coef_high"], math.inf, "coef_high < inf, found 0.4 and inf"),
    ("benchmark", ["cells", 0, "scale_high"], math.inf, "scale_high < inf, found 0.4 and inf"),
], ids=["p-string", "p-float", "n-float", "seed-bool", "min-parents-zero",
        "max-parents-float", "root-frac-above-one", "base-seed-float", "replicates-float",
        "cell-p-float", "cell-coef-low-above-high", "cell-root-frac-above-one",
        "cell-gaussian", "seed-negative", "graph-not-object", "base-seed-negative",
        "cells-not-list", "cell-not-object", "cell-n-mult-string", "cell-n-mult-infinite",
        "cell-n-mult-negative", "cell-n-mult-zero", "cell-n-mult-bool",
        "cell-n-mult-numeric-string",
        "cell-graph-not-object",
        "cell-neighborhoods-not-string", "replicates-negative", "df-string", "df-infinite",
        "cell-df-infinite", "p-one", "root-frac-leaves-no-children", "cell-p-one",
        "cell-root-frac-leaves-no-children", "coef-high-string", "root-frac-string",
        "coef-low-bool", "coef-high-bool", "cell-coef-high-string", "coef-high-infinite", "scale-high-infinite",
        "cell-coef-high-infinite", "cell-scale-high-infinite"])
def test_bad_config_value_exits_2_naming_it(tmp_path, capsys, command, path, value, message):
    # each of these exited 1, was truncated, or exited 0 with its error in
    # every replicate record or with no records
    good = {
        "generate": {"p": 5, "n": 40, "seed": 1, "family": "laplace",
                     "graph": {"scheme": "large-sparse", "root_frac": 0.2,
                               "min_parents": 1, "max_parents": 2}},
        "benchmark": {"base_seed": 1, "cells": [
            {"p": 5, "n": 40, "family": "laplace", "replicates": 2}]},
    }[command]
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    args = {
        "generate": ["generate", "--config", str(cfg), "--out-data", str(out),
                     "--out-truth", str(tmp_path / "t.json")],
        "benchmark": ["benchmark", "--config", str(cfg), "--out", str(out)],
    }[command]
    cfg.write_text(json.dumps(good))
    assert main(args) == 0
    out.unlink()
    cfg.write_text(json.dumps(_edit(good, path, value)))
    capsys.readouterr()
    assert main(args) == 2
    err = capsys.readouterr().err
    where = f"{cfg}: cells[0]" if path[:2] == ["cells", 0] else f"{cfg}"
    assert err.startswith(f"error: {where}: ") and message in err, err
    assert not out.exists()


# Runs in a child whose sys.modules blocks scipy, so any scipy import fails.
_PIPELINE_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from lingamsort.cli import main
config, family = sys.argv[1:]
codes = [
    main(["generate", "--config", config, "--out-data", "d.csv", "--out-truth", "t.json"]),
    main(["sort", "--data", "d.csv", "--family", family, "--neighborhoods", "corr:5:0.2:1",
          "--out", "o.json"]),
    main(["fit", "--data", "d.csv", "--ordering", "o.json", "--family", family,
          "--out", "m.json"]),
    main(["loglik", "--model", "m.json", "--data", "d.csv"]),
]
print(json.dumps(codes))
"""


class TestNumpyOnlyRuntime:
    @staticmethod
    def _python(args, cwd):
        env = dict(os.environ)
        src = str(Path(lingamsort.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                              capture_output=True, text=True, check=True).stdout

    def test_cli_import_loads_no_scipy(self, tmp_path):
        out = self._python(["-c", "import sys, lingamsort.cli; print(sorted("
                            "m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
                           tmp_path)
        assert out.strip() == "[]"

    @pytest.mark.parametrize("family", ["laplace", "scaled-t:10"])
    def test_pipeline_runs_with_scipy_blocked(self, tmp_path, family):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "p": 20, "n": 400, "seed": 3, "family": family,
            "graph": {"scheme": "large-sparse"},
        }))
        script = tmp_path / "pipeline.py"
        script.write_text(_PIPELINE_WITHOUT_SCIPY)
        out = self._python([str(script), str(config), family], tmp_path)
        assert json.loads(out.splitlines()[-1]) == [0, 0, 0, 0]
        assert math.isfinite(json.loads(out.splitlines()[-2])["mean_loglik"])


def test_every_traced_layer_still_resolves():
    # perfbench/trace_step.py wraps each (module, attribute) of its WRAPPED
    # list where the CLI or the sorter looks the name up, and reports a layer
    # absent when none of its entries resolves; a move that drops a traced
    # name fails here, not only in the benchmark's smoke run
    path = Path(__file__).resolve().parent.parent / "perfbench" / "trace_step.py"
    spec = importlib.util.spec_from_file_location("trace_step", path)
    trace_step = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_step)
    resolved: dict[str, bool] = {}
    for module_name, attr, layer in trace_step.WRAPPED:
        try:
            module = importlib.import_module(module_name)
        except ModuleNotFoundError:
            module = None
        resolved[layer] = resolved.get(layer, False) or getattr(module, attr, None) is not None
    assert resolved
    assert [layer for layer, ok in resolved.items() if not ok] == []
