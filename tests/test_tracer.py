"""The benchmark tracer (perfbench/tracer.py) wraps plverify functions by
name; a renamed or deleted function must fail here rather than crash a
traced benchmark run."""

import importlib
import types
from pathlib import Path

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
