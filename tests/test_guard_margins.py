"""Instances at the generator's boundary guard, over the standard suite's
shapes: margins of +-1e-3 (the guard, the smallest margin the generator
accepts) and +-2e-3. No verdict may ride on a solver tolerance there."""

import pytest

from plverify.bab import CONVERGED, BabConfig, bab_optimize
from plverify.canon import lower_maxpools
from plverify.cli import run_verify
from plverify.gensuite import BOUNDARY_GUARD, GenSpec, generate, standard_suite

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

SHAPES = sorted({(s.inputs, s.depth, s.width, s.maxpool) for s in standard_suite(10)})
EPS = 1e-4
TOL = 1e-6


@settings(derandomize=True, deadline=None, max_examples=20, database=None)
@given(
    shape=st.sampled_from(SHAPES),
    margin=st.sampled_from([BOUNDARY_GUARD, -BOUNDARY_GUARD, 2 * BOUNDARY_GUARD, -2 * BOUNDARY_GUARD]),
    seed=st.integers(0, 2**16),
)
def test_guard_margins_keep_their_verdicts(shape, margin, seed):
    inputs, depth, width, maxpool = shape
    inst = generate(seed, GenSpec(inputs, depth, width, margin, maxpool))
    for method in ("babsb", "mip-planet-opt"):
        rec = run_verify(inst.net, inst.prop, inst.box, method, timeout=120.0)
        assert rec.status == inst.expected.upper(), method
    # the canonical minimum is the margin itself
    res = bab_optimize(lower_maxpools(inst.problem()), BabConfig(epsilon=EPS, node_cap=600))
    if res.status == CONVERGED:
        assert abs(res.min_estimate - margin) <= EPS + TOL
    else:
        assert res.best_lb - TOL <= margin <= res.best_ub + TOL
