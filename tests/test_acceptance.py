"""Acceptance suite: one test per shipping criterion.

Every test prints exactly one ``[criterion NN] PASS/FAIL`` line with its
measured quantities, then asserts.  Monte Carlo runs use fixed derived
seeds, so the whole module is deterministic.
"""
import math
import time

import numpy as np
import pytest

from conftest import all_dags, all_orderings, diamond_dag, population_check
from lingamsort import (
    Dag,
    DataMatrix,
    LargeSparse,
    NoiseFamily,
    Ordering,
    SimConfig,
    WeightedDag,
    apply_moments,
    column_moments,
    derive_seed,
    fit_coefficients,
    fit_scale,
    heldout_loglik,
    is_topological,
    laplace_fast_score,
    llr_score,
    markov_blankets,
    order_error,
    rng_stream,
    sample_dataset,
    sample_noise,
    sample_weights,
    sort,
    standardize,
    top_correlated,
)

LAP = NoiseFamily.laplace()
LOGI = NoiseFamily.logistic()
T10 = NoiseFamily.scaled_t(10)
GAU = NoiseFamily.gaussian()

LAPLACE_GAP = 0.5 * math.log(math.pi / 2.0) - 0.5


def _report(num: int, name: str, ok: bool, detail: str, started: float, budget_s: float):
    elapsed = time.perf_counter() - started
    in_budget = elapsed < budget_s
    status = "PASS" if ok and in_budget else "FAIL"
    line = (f"[criterion {num:02d}] {status} {name}: {detail} "
            f"(runtime {elapsed:.1f}s / budget {budget_s:.0f}s)")
    print(line)
    assert ok and in_budget, line


def _weighted(dag: Dag, family: NoiseFamily, seed: int) -> WeightedDag:
    weights = sample_weights(dag, 0.4, 0.9, rng_stream(seed, 1))
    scales = rng_stream(seed, 2).uniform(0.4, 0.7, dag.p)
    return WeightedDag(dag, weights, family, scales)


def test_criterion_01_identifiability():
    started = time.perf_counter()
    pair = Dag(2, [[], [0]])
    fractions = {}
    ok = True
    for gi, dag in enumerate([diamond_dag(), pair]):
        for fi, family in enumerate([LAP, LOGI, T10]):
            w = _weighted(dag, family, derive_seed(1101, gi, fi))
            report = population_check(w, 10**5, [derive_seed(1102, gi, fi, s) for s in range(20)])
            fractions[f"p{dag.p}/{family.tag}"] = report["fraction"]
            ok &= report["fraction"] >= 0.95
    _report(1, "identifiability across families", ok, f"fractions={fractions}", started, 120)


def test_criterion_02_gaussian_negative_control():
    started = time.perf_counter()
    w = WeightedDag(Dag(2, [[], [0]]), [[], [0.8]], GAU, [0.5, 0.5])
    report = population_check(w, 10**5, [derive_seed(1201, s) for s in range(100)],
                              score_family=LAP)
    band = 1.96 * math.sqrt(0.25 / 100)
    frac = report["fraction"]
    ok = 0.5 - band <= frac <= 0.5 + band
    _report(2, "gaussian noise carries no ordering signal", ok,
            f"fraction={frac:.3f}, band=[{0.5 - band:.3f}, {0.5 + band:.3f}]", started, 60)


def test_criterion_03_fast_score_equivalence():
    started = time.perf_counter()
    rng = rng_stream(1301, 0)
    worst_gap_dev = 0.0
    argmax_matches = 0
    for _ in range(100):
        vectors = [rng.standard_normal(int(rng.integers(16, 400))) * rng.uniform(0.05, 20)
                   for _ in range(20)]
        fast = np.array([laplace_fast_score(v) for v in vectors])
        full = np.array([llr_score(LAP, v) for v in vectors])
        argmax_matches += int(np.argmax(fast)) == int(np.argmax(full))
        worst_gap_dev = max(worst_gap_dev, float(np.max(np.abs(full - fast - LAPLACE_GAP))))
    ok = argmax_matches == 100 and worst_gap_dev <= 1e-12
    _report(3, "norm-ratio shortcut matches the Laplace score", ok,
            f"argmax agreement {argmax_matches}/100, max gap deviation {worst_gap_dev:.2e}",
            started, 5)


def _median_errors(p: int, n: int, gen_family: NoiseFamily, score_family: NoiseFamily,
                   replicates: int, seed_base: int) -> float:
    errors = []
    for r in range(replicates):
        cfg = SimConfig(p=p, n=n, seed=derive_seed(seed_base, n, r), family=gen_family,
                        graph=LargeSparse(), scale_low=0.4, scale_high=0.7)
        w, _, x = sample_dataset(cfg)
        res = sort(x, score_family, markov_blankets(w.dag))
        errors.append(order_error(w.dag, res.ordering))
    return float(np.median(errors))


def test_criterion_04_small_network_accuracy():
    started = time.perf_counter()
    p = 50
    grid = [p // 2, p, 2 * p, 10 * p, 50 * p]
    medians = [_median_errors(p, n, LAP, LAP, 30, 3000) for n in grid]
    monotone = all(a >= b for a, b in zip(medians, medians[1:]))
    ok = monotone and medians[-1] <= 0.005
    _report(4, "error shrinks with sample size", ok,
            f"medians={[f'{m:.4f}' for m in medians]} over n={grid}", started, 180)


def test_criterion_05_misspecification_robustness():
    started = time.perf_counter()
    p, n = 50, 500
    details = {}
    ok = True
    for fi, family in enumerate([LOGI, T10]):
        mis = _median_errors(p, n, family, LAP, 30, 4100 + fi)
        matched = _median_errors(p, n, family, family, 30, 4100 + fi)
        details[family.tag] = (mis, matched)
        ok &= mis <= 2 * matched + 0.005
    _report(5, "laplace update robust to misspecified noise", ok,
            ", ".join(f"{k}: mis={a:.4f} vs matched={b:.4f}" for k, (a, b) in details.items()),
            started, 180)


def test_criterion_06_large_p_scalability():
    started = time.perf_counter()
    # slope of simple-regression updates over p, averaged over 3 replicates;
    # per-neighbor update events are tracked alongside as a diagnostic
    mean_updates = {}
    mean_events = {}
    cap_ok = True
    for p in (500, 1000, 2000):
        counts, events = [], []
        for r in range(3):
            cfg = SimConfig(p=p, n=p // 2, seed=derive_seed(1601, p, r), family=LAP,
                            graph=LargeSparse(), scale_low=0.25, scale_high=0.9)
            w, _, x = sample_dataset(cfg)
            res = sort(x, LAP, markov_blankets(w.dag))
            counts.append(res.update_count)
            events.append(res.diagnostics["rescore_events"])
            cap_ok &= res.update_count <= p * (p - 1)
        mean_updates[p] = float(np.mean(counts))
        mean_events[p] = float(np.mean(events))
    lp = np.log(list(mean_updates))
    slope = float(np.polyfit(lp, np.log(list(mean_updates.values())), 1)[0])
    event_slope = float(np.polyfit(lp, np.log(list(mean_events.values())), 1)[0])
    slope_ok = 0.75 <= slope <= 1.25

    cfg = SimConfig(p=5000, n=2500, seed=derive_seed(1602, 0), family=LAP,
                    graph=LargeSparse(), scale_low=0.25, scale_high=0.9)
    w, _, x = sample_dataset(cfg)
    big = sort(x, LAP, markov_blankets(w.dag))
    err = order_error(w.dag, big.ordering)
    cap_ok &= big.update_count <= 5000 * 4999
    ok = slope_ok and err <= 0.05 and cap_ok
    _report(6, "large-p run and update growth", ok,
            f"p=5000 err={err:.5f}, simple-regression slope={slope:.2f} (band 0.75..1.25), "
            f"neighbor-event slope={event_slope:.2f}, mean updates={mean_updates}, "
            f"cap_ok={cap_ok}", started, 600)


def test_criterion_07_scale_invariance():
    started = time.perf_counter()
    identical = 0
    for r in range(20):
        cfg = SimConfig(p=20, n=500, seed=derive_seed(1701, r), family=LAP,
                        graph=LargeSparse(), scale_low=0.4, scale_high=0.7)
        w, _, x = sample_dataset(cfg)
        nbhd = markov_blankets(w.dag)
        base = sort(x, LAP, nbhd).ordering.perm
        c = rng_stream(derive_seed(1701, r), 3).uniform(0.1, 10.0, x.p)
        scaled = sort(DataMatrix(x.values * c),
                      LAP, nbhd).ordering.perm
        identical += base == scaled
    ok = identical == 20
    _report(7, "column rescaling leaves the ordering bit-identical", ok,
            f"{identical}/20 seeds identical", started, 30)


def test_criterion_08_order_error_oracle():
    started = time.perf_counter()
    checked = 0
    ok = True
    for p in (1, 2, 3, 4):
        for dag in all_dags(p):
            for ordering in all_orderings(p):
                ok &= (order_error(dag, ordering) == 0.0) == is_topological(dag, ordering)
                checked += 1
    triangle = Dag(3, [[], [0], [0, 1]])
    ok &= order_error(triangle, Ordering([1, 0, 2])) == pytest.approx(1 / 9)
    ok &= order_error(triangle, Ordering([2, 1, 0])) == pytest.approx(3 / 9)
    _report(8, "order error vanishes exactly on topological orders", ok,
            f"{checked} (dag, permutation) pairs checked exhaustively", started, 5)


def test_criterion_09_estimator_consistency():
    started = time.perf_counter()
    theta = 0.5
    devs = {}
    ok = True
    for fi, (family, tol) in enumerate([(LAP, 0.005), (LOGI, 0.01), (T10, 0.01)]):
        draws = sample_noise(family, theta, 10**6, rng_stream(1901, fi))
        eta, _ = fit_scale(family, draws)
        devs[family.tag] = abs(eta - theta)
        ok &= devs[family.tag] <= tol
    _report(9, "scale estimators recover the true scale", ok,
            ", ".join(f"{k}: |dev|={v:.5f}" for k, v in devs.items()), started, 10)


def test_criterion_10_heldout_likelihood_ordering():
    started = time.perf_counter()
    wins = 0
    for r in range(50):
        seed = derive_seed(2001, r)
        cfg = SimConfig(p=100, n=2000, seed=seed, family=LAP,
                        graph=LargeSparse(), scale_low=0.4, scale_high=0.7)
        w, _, x = sample_dataset(cfg)
        half = x.n // 2
        train, test = DataMatrix(x.values[:half]), DataMatrix(x.values[half:])
        perm = rng_stream(seed, 4).permutation(train.n)
        hold = np.sort(perm[: train.n // 5])
        rest = np.sort(perm[train.n // 5:])
        nbhd = top_correlated(DataMatrix(train.values[hold]), 10)
        res = sort(DataMatrix(train.values[rest]), LAP, nbhd)
        mean, sd = column_moments(train.values)
        train_std = standardize(train)
        test_std = apply_moments(test, mean, sd)
        values = {}
        for family in (LAP, GAU):
            model = fit_coefficients(train_std, res.ordering, nbhd, family)
            values[family.tag] = heldout_loglik(test_std, model)
        wins += values["laplace"] > values["gaussian"]
    ok = wins >= 48
    _report(10, "laplace density wins the held-out likelihood", ok,
            f"laplace higher in {wins}/50 seeds", started, 120)
