"""The benchmark tracer (perfbench/tracer.py) wraps plverify functions by
name; a renamed or deleted function must fail here rather than crash a
traced benchmark run."""

import importlib
import types
from pathlib import Path

import numpy as np
from helpers import random_box, random_net

from plverify import lp, mip
from plverify.relax import build_planet

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer() -> types.ModuleType:
    # exec the source directly so no bytecode cache is written next to it
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def test_traced_names_resolve_and_cover_expected():
    tracer = _load_tracer()
    traced = set()
    for short, names in tracer.TRACED.items():
        home = importlib.import_module(f"plverify.{short}")
        for name in names:
            assert callable(getattr(home, name, None)), f"plverify.{short}.{name}"
            traced.add(f"{short}.{name}")
    for workload, names in tracer.EXPECTED.items():
        missing = sorted(set(names) - traced)
        assert not missing, (workload, missing)
    # an lp.solve's purpose is read off its enclosing spans, so an untraced
    # purpose name would leave its LPs unattributed
    untraced = sorted(set(tracer.PURPOSES) - traced)
    assert not untraced, untraced


def test_lp_counts_read_the_rows_and_columns_solve_reads():
    # the tracer records len(model.rows) and model.num_vars of every model
    # passed to lp.solve: they must be the shape of the form the solve reads
    tracer = _load_tracer()
    rng = np.random.default_rng(71)
    net, box = random_net(rng, 3, [4, 4]), random_box(rng, 3)
    planet = build_planet(net, box, tighten=True)
    enc = mip.encode_mip(net, box, mip.PLANET_OPT)
    stack = lp.RowStack(box.lb, box.ub)
    for _ in range(3):
        stack.push(rng.normal(size=3), 1.0)
    models = [planet.model.with_objective({planet.output_var: 1.0}), mip._pinned(enc.model, {enc.int_vars[0]: 1}), stack]
    for model in models:
        result = lp.solve(model)
        form = model.standard_form()
        rows, num_vars, status = tracer._lp_counts((model,), {}, result, None)
        assert (rows, num_vars, status) == (len(form.rhs), form.rows.shape[1], result.status)
        assert form.full.shape == (rows, num_vars + rows) and len(form.lo) == num_vars + rows
        assert rows > 0 and num_vars > 0
