"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the 200-instance benchmark is generated once and shared.
"""

import csv
import statistics
import time

import numpy as np
import pytest
from helpers import random_box, random_net, toy_box, toy_net, toy_problem
from reference_lp import solve_reference

from plverify import formats, lp
from plverify.bab import BabConfig, INPUT_SMART, bab_optimize
from plverify.canon import (
    Geq,
    canonicalize,
    lower_maxpools,
    maxpool_to_relu,
    validate_counterexample,
)
from plverify.cli import METHODS, cactus, run_bench, run_verify
from plverify.gensuite import GenSpec, generate, standard_suite, write_suite
from plverify.interval import propagate_box
from plverify.mip import ASYM, BOUNDS_INTERVAL, MipVariant, encode_mip
from plverify.model import (
    BoxDomain,
    Linear,
    MaxPool,
    Network,
    Relu,
    forward_eval,
    is_relu_only,
)
from plverify.oracle import oracle_min
from plverify.relax import (
    build_planet,
    fast_dual_bound,
    planet_lower_bound_with_point,
    reluplex_lower_bound,
)

RUN_TIMEOUT = 120.0


def _report(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def suite200():
    instances = []
    for spec in standard_suite(200):
        instances.append(generate(spec.seed, spec))
    return instances


@pytest.fixture(scope="module")
def method_runs(suite200):
    """Every (instance, method) verification run, single-threaded."""
    runs = {}
    for inst in suite200:
        for method in METHODS:
            rec = run_verify(
                inst.net, inst.prop, inst.box, method,
                timeout=RUN_TIMEOUT, seed=7, problem_id=f"i{inst.spec.seed}",
            )
            runs[(inst.spec.seed, method)] = rec
    return runs


def test_criterion_1_toy_regression():
    worst = 0.0
    for method in METHODS:
        t0 = time.monotonic()
        rec = run_verify(toy_net(), Geq(np.array([1.0]), -5.0), toy_box(), method, timeout=RUN_TIMEOUT)
        assert rec.status == "UNSAT", method
        doc_margin = rec.lb
        assert doc_margin == pytest.approx(1.0, abs=1e-3), method
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0, (method, elapsed)
        worst = max(worst, elapsed)

        t0 = time.monotonic()
        rec = run_verify(toy_net(), Geq(np.array([1.0]), -3.0), toy_box(), method, timeout=RUN_TIMEOUT)
        assert rec.status == "SAT", method
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0, (method, elapsed)
        worst = max(worst, elapsed)
    _report("criterion 1 (toy regression, 7 methods)", f"worst run {worst * 1e3:.0f} ms")


def test_criterion_2_oracle_agreement(suite200, method_runs):
    eps = 1e-3
    spurious_sat = 0
    for inst in suite200:
        for method in METHODS:
            rec = method_runs[(inst.spec.seed, method)]
            want = "UNSAT" if inst.expected == "unsat" else "SAT"
            assert rec.status == want, (inst.spec, method, rec.status)
        # optimisation agreement on the ReLU-only canonical problem
        lowered = lower_maxpools(inst.problem())
        exact = oracle_min(lowered.canonical_net, inst.box).min_value
        res = bab_optimize(lowered, BabConfig(epsilon=eps, seed=7, timeout=RUN_TIMEOUT))
        assert res.status == "converged", inst.spec
        assert abs(res.min_estimate - exact) <= eps + 1e-6, inst.spec
        assert res.best_lb <= exact + 1e-9, inst.spec
    _report("criterion 2 (200 instances x 7 methods vs oracle)", f"{len(suite200)} instances, 0 spurious SAT")


def test_criterion_3_bound_ordering():
    rng = np.random.default_rng(3000)
    count = 0
    for _ in range(500):
        n_in = int(rng.integers(2, 4))
        widths = [int(rng.integers(2, 4)) for _ in range(int(rng.integers(1, 3)))]
        net = random_net(rng, n_in, widths)
        box = random_box(rng, n_in)
        bounds = propagate_box(net, box)
        interval_lb = float(bounds.output_lb[0])
        planet = planet_lower_bound_with_point(build_planet(net, box))[0]
        fast = fast_dual_bound(net, box, bounds)
        rlx, _ = reluplex_lower_bound(net, box)
        exact = oracle_min(net, box).min_value
        assert interval_lb <= planet + 1e-6
        assert fast <= planet + 1e-6
        assert rlx <= planet + 1e-6
        for val in (interval_lb, planet, fast, rlx):
            assert val <= exact + 1e-6
        count += 1
    _report("criterion 3 (bound ordering)", f"{count} random net/box pairs")


def test_criterion_4_sherali_adams_level0():
    rng = np.random.default_rng(4000)
    for _ in range(1000):
        l = -rng.uniform(0.05, 5.0)
        u = rng.uniform(0.05, 5.0)
        xhat = rng.uniform(l, u)
        d_star = (xhat - l) / (u - l)
        val_star = min(xhat - l * (1.0 - d_star), u * d_star)
        hull = u * (xhat - l) / (u - l)
        assert abs(val_star - hull) <= 1e-9
        for d in np.linspace(0.0, 1.0, 11):
            assert min(xhat - l * (1.0 - d), u * d) <= val_star + 1e-9

    agree = 0
    for k in range(100):
        n_in = int(rng.integers(2, 4))
        widths = [int(rng.integers(2, 4)) for _ in range(int(rng.integers(1, 3)))]
        net = random_net(rng, n_in, widths)
        box = random_box(rng, n_in)
        enc = encode_mip(net, box, MipVariant(ASYM, BOUNDS_INTERVAL))
        root = lp.solve(enc.model).objective
        planet = planet_lower_bound_with_point(build_planet(net, box, tighten=False))[0]
        assert root == pytest.approx(planet, abs=1e-6)
        agree += 1
    _report("criterion 4 (level-0 equivalence)", f"1000 triples + {agree} root-relaxation matches")


def test_criterion_5_tightening_dominates_on_shrinking_boxes():
    rng = np.random.default_rng(5000)
    nets_checked = 0
    nets_improved = 0
    for _ in range(5):
        net = random_net(rng, 3, [4, 4, 4])  # depth 3
        center = rng.uniform(-0.3, 0.3, size=3)
        strict = 0
        loose_bounds = []
        for k in range(20):
            half = 1.5 * (0.8**k)
            box = BoxDomain(center - half, center + half)
            loose = planet_lower_bound_with_point(build_planet(net, box, tighten=False))[0]
            tight = planet_lower_bound_with_point(build_planet(net, box, tighten=True))[0]
            assert tight >= loose - 1e-6
            if tight > loose + 1e-6:
                strict += 1
            loose_bounds.append((box, loose))
        if strict:
            nets_improved += 1
        else:
            # a sound bound that is already exact cannot be strictly improved
            for box, loose in loose_bounds:
                exact = oracle_min(net, box).min_value
                assert abs(loose - exact) <= 1e-6, "tightening never improved an inexact bound"
        nets_checked += 1
    assert nets_improved >= 1, "tightening never improved on any depth-3 net"
    _report(
        "criterion 5 (rebuilt-bounds dominance)",
        f"{nets_checked} nets x 20 nested boxes; {nets_improved} improved strictly, the rest exact",
    )


def test_criterion_6_smart_branching_node_counts(suite200, method_runs):
    smart, longest = [], []
    for inst in suite200:
        if inst.expected != "unsat":
            continue
        smart.append(method_runs[(inst.spec.seed, "babsb")].nodes)
        longest.append(method_runs[(inst.spec.seed, "bab-input")].nodes)
    med_smart = statistics.median(smart)
    med_longest = statistics.median(longest)
    assert med_smart <= med_longest
    _report(
        "criterion 6 (smart branching efficiency)",
        f"median nodes babsb={med_smart} <= bab-input={med_longest} over {len(smart)} UNSAT instances",
    )


def test_criterion_7_margin_hardness(suite200, method_runs):
    for method in ("babsb", "bab-input", "bab-relusplit"):
        medians = []
        for bucket in (0.1, 1.0, 10.0):
            times = [
                method_runs[(inst.spec.seed, method)].time_s
                for inst in suite200
                if abs(inst.spec.margin) == bucket
            ]
            medians.append(statistics.median(times))
        assert medians[0] >= medians[1] >= medians[2], (method, medians)
    _report("criterion 7 (small margins are harder)", "median time non-increasing in |margin| for 3 BaB methods")


def test_criterion_8_maxpool_equivalence():
    rng = np.random.default_rng(8000)
    for trial in range(8):
        n_in = int(rng.integers(2, 4))
        k = int(rng.integers(2, 5))
        net = Network(
            n_in,
            (
                Linear(rng.normal(size=(k, n_in)), rng.uniform(-0.5, 0.5, k)),
                Relu(),
                Linear(rng.normal(size=(k, k)), rng.uniform(-0.5, 0.5, k)),
                MaxPool((tuple(range(k)),)),
                Linear(rng.normal(size=(1, 1)), rng.uniform(-0.5, 0.5, 1)),
            ),
        )
        box = random_box(rng, n_in)
        lowered = maxpool_to_relu(net, propagate_box(net, box))
        assert is_relu_only(lowered)
        pts = rng.uniform(box.lb, box.ub, size=(1000, n_in))
        for x in pts:
            assert abs(forward_eval(net, x)[0] - forward_eval(lowered, x)[0]) <= 1e-9

    # integral MaxPool deltas force y onto the selected input, which the
    # remaining rows force to be the group maximum
    net = Network(
        3,
        (
            Linear(rng.normal(size=(4, 3)), rng.uniform(-0.5, 0.5, 4)),
            MaxPool(((0, 1), (2, 3))),
            Linear(rng.normal(size=(1, 2)), rng.uniform(-0.5, 0.5, 1)),
        ),
    )
    box = BoxDomain(-np.ones(3), np.ones(3))
    enc = encode_mip(net, box, MipVariant(ASYM, BOUNDS_INTERVAL))
    checked = 0
    for layer, gi, deltas, y in enc.pool_groups:
        for pick in range(len(deltas)):
            model = enc.model.copy()
            for k, d in enumerate(deltas):
                model.lower[d] = model.upper[d] = 1.0 if k == pick else 0.0
            model.set_objective(rng.normal(size=model.num_vars))
            sol = lp.solve(model)
            if sol.status != lp.OPTIMAL:
                continue
            group = net.layers[1].groups[gi]
            pre_vars = [3 + j for j in group]  # linear outputs follow inputs
            assert sol.x[y] == pytest.approx(max(sol.x[v] for v in pre_vars), abs=1e-6)
            checked += 1
    assert checked >= 4
    _report("criterion 8 (maxpool equivalence)", f"8 lowered nets x 1000 points; {checked} integral-delta checks")


def test_criterion_9_lp_core():
    from test_lp import _random_model

    rng = np.random.default_rng(9000)
    statuses = {"optimal": 0, "infeasible": 0}
    for _ in range(500):
        model = _random_model(rng)
        got = lp.solve(model)
        ref = solve_reference(model)
        assert got.status == ref.status
        statuses[got.status] += 1
        if got.status == lp.OPTIMAL:
            assert got.objective == pytest.approx(ref.objective, abs=1e-6)
    models = [_random_model(rng) for _ in range(20)]
    assert [lp.solve(m).objective for m in models] == [lp.solve(m).objective for m in models]
    _report("criterion 9 (LP core vs reference)", f"500 LPs ({statuses['optimal']} optimal, {statuses['infeasible']} infeasible)")


def test_criterion_10_protocol_fidelity(tmp_path):
    suite = tmp_path / "suite"
    specs = [
        GenSpec(2, 2, 3, margin=1.0, seed=901),
        GenSpec(3, 2, 3, margin=-1.0, seed=902),
        GenSpec(2, 2, 4, margin=0.1, seed=903),
        GenSpec(3, 2, 4, margin=-0.1, seed=904),
    ]
    write_suite(specs, suite)
    out_csv = tmp_path / "runs.csv"
    run_bench(suite, ["babsb", "mip-planet-opt"], out_csv, timeout=60.0)

    rows = cactus(out_csv)
    by_method = {}
    for method, budget, frac in rows:
        by_method.setdefault(method, []).append((budget, frac))
    for method, series in by_method.items():
        assert series == sorted(series)
        fracs = [f for _, f in series]
        assert all(b >= a for a, b in zip(fracs, fracs[1:])), method
        assert fracs[-1] == pytest.approx(1.0)

    revalidated = 0
    with open(out_csv, newline="") as fh:
        for row in csv.DictReader(fh):
            if row["status"] != "SAT":
                continue
            doc = formats.load_result(row["result_file"])
            net = formats.load_network(suite / f"{row['problem']}.net.json")
            prop, box = formats.load_property(suite / f"{row['problem']}.prop.json")
            problem = canonicalize(net, prop, box)
            assert validate_counterexample(problem, np.array(doc["counterexample"]), 1e-6)
            revalidated += 1
    assert revalidated >= 2
    _report("criterion 10 (bench/cactus protocol)", f"monotone coverage; {revalidated} SAT rows re-validated from disk")
