"""The benchmark's layer tracer still finds what it wraps.

perfbench/tracer.py wraps charplab functions named in its SPANS and LEAVES
tables, and looks each one up when it installs; a rename or removal in
src/ breaks every traced benchmark run.  Here the tracer's source is read
and executed as a fresh module (nothing is written next to it), installed
on the package, run over one small computation, and uninstalled.
"""

import pathlib
import types

import charplab
from charplab import Field, IdealHandle, Ring, colength, parse_poly
from charplab.engine import BasisContext

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / \
    "tracer.py"


def load_tracer() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_the_benchmark_tracer_installs_counts_and_uninstalls():
    tracer = load_tracer().Tracer()
    original = BasisContext.find_reducer
    R = Ring(Field(5), ("x", "y"))
    I = IdealHandle(R, [parse_poly(t, R) for t in ("x^2 + y^3", "x*y^2")])
    tracer.install(charplab)
    try:
        assert BasisContext.find_reducer is not original
        assert colength(I) > 0
    finally:
        tracer.uninstall()
    assert BasisContext.find_reducer is original
    totals = tracer.totals()
    for name in ("engine.groebner.calls", "engine.find_reducer.calls",
                 "engine.key_degree.calls", "engine.reduce_dict.calls",
                 "engine.reduce_dict.spoly_attempts", "field.mul.calls"):
        assert totals.get(name, 0) > 0, name
