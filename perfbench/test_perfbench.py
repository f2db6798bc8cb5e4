"""Tests of the benchmark itself (not collected by the tier-1 run, whose
testpaths is tests/).  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import calibrate  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

import charplab  # noqa: E402

# where each per-layer metric must be nonzero at this commit (the README
# table)
WHERE = {
    "engine.divisor_indices.": ("chain",),
    "engine.context.": ("chain",),
    "engine.groebner.": ("chain",),
    "engine.packspec.builds": ("chain",),
    "engine.reduce_dict.": ("normal-forms", "chain"),
    "engine.find_reducer.calls": ("normal-forms",),
    "engine.key_degree.calls": ("normal-forms",),
    "field.ops.calls": ("normal-forms",),
    "field.mul.calls": ("normal-forms",),
    "field.tables.s": ("suite",),
    "poly.mul.": ("suite", "chain"),
    "groebner.colon_by_basis.": ("chain",),
    "groebner.divide_exact.": ("chain",),
    "groebner.normal_form.": ("normal-forms",),
    "groebner.m_power_in.": ("normal-forms",),
    "groebner.staircase_count.s": ("normal-forms", "chain"),
    "groebner.basis_cache.hit_ratio": ("suite",),
    "invariants.": ("suite",),
    "discriminant.": ("suite",),
    "perturb.": ("suite",),
    "jobs.": ("suite",),
    "report.render.s": ("suite",),
}


def _traced_pass(workload: str, seed: int = 1) -> dict:
    """Per-layer metrics of one traced pass, in this process."""
    bench = workloads.setup(workload, seed, ROOT)
    tracer = Tracer()
    loop = run.Loop(bench.ops, tracer)
    tracer.install(charplab)
    try:
        loop.run_pass()
    finally:
        tracer.uninstall()
    assert loop.failures == []
    totals = tracer.totals()
    return {name: fn(totals) for name, (_, fn) in run.PER_LAYER.items()}


def _bindings() -> dict:
    """Identity of every attribute of the charplab modules and classes."""
    owners = [m for n, m in sys.modules.items()
              if n == "charplab" or n.startswith("charplab.")]
    owners += [c for m in list(owners) for c in vars(m).values()
               if isinstance(c, type) and c.__module__.startswith("charplab")]
    return {(id(o), attr): id(v) for o in owners
            for attr, v in vars(o).items()}


@pytest.fixture(autouse=True)
def _threads(monkeypatch):
    monkeypatch.setenv("CHARPLAB_THREADS", run.THREADS)


def test_benchmark_json_declares_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = run._units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: units[k] for k in list(run.PER_LAYER) + [run.OVERHEAD]}


def test_every_layer_metric_is_nonzero_on_its_workload():
    seen = {}
    for workload in workloads.WORKLOADS:
        seen[workload] = _traced_pass(workload)
    for name in run.PER_LAYER:
        prefix = next(p for p in WHERE if name.startswith(p))
        for workload in WHERE[prefix]:
            assert seen[workload][name] > 0, (name, workload)


def test_tracing_leaves_every_original_in_place():
    before = _bindings()
    bench = workloads.setup("suite", 1, ROOT)
    run._measure(bench.ops[:5], 0.0)
    assert _bindings() == before
    tracer = Tracer()
    tracer.install(charplab)
    try:
        assert _bindings() != before
    finally:
        tracer.uninstall()
    assert _bindings() == before


def test_counts_repeat_across_traced_runs():
    keys = ("engine.divisor_indices.calls", "engine.reduce_dict.calls",
            "engine.context.builds", "field.mul.calls")
    first, second = (_traced_pass("suite", 7) for _ in range(2))
    assert {k: first[k] for k in keys} == {k: second[k] for k in keys}
    assert all(first[k] > 0 for k in keys)


def _small_chain_counts(text: str) -> dict:
    ring = charplab.Ring(charplab.Field(5), ("x", "y", "t"))
    f = charplab.parse_poly(text, ring)
    tracer = Tracer()
    tracer.install(charplab)
    try:
        series = charplab.splitting_series(charplab.QuotientPresentation(
            ring, charplab.IdealHandle(ring, [f])), 2)
    finally:
        tracer.uninstall()
    assert [r.a for r in series.rows] == [13, 313]
    t = tracer.totals()
    return {k: int(t[k]) for k in (
        "engine.groebner.calls", "engine.context.calls",
        "engine.divisor_indices.calls", "engine.reduce_dict.calls",
        "engine.reduce_dict.spoly_attempts",
        "engine.reduce_dict.spoly_nonzero", "engine.find_reducer.calls",
        "engine.key_degree.calls", "engine.packspec.calls",
        "field.mul.calls", "groebner.divide_exact.calls")}


def test_small_chain_counts_are_pinned():
    assert _small_chain_counts("x^2 + y^2 + t^2") == {
        "engine.groebner.calls": 5, "engine.context.calls": 187,
        "engine.divisor_indices.calls": 2000,
        "engine.reduce_dict.calls": 287,
        "engine.reduce_dict.spoly_attempts": 172,
        "engine.reduce_dict.spoly_nonzero": 67,
        "engine.find_reducer.calls": 3986,
        "engine.key_degree.calls": 15250, "engine.packspec.calls": 8,
        "field.mul.calls": 4981, "groebner.divide_exact.calls": 36}


def test_every_coefficient_draw_does_the_same_work():
    # the engine work is identical; only making a leading coefficient
    # other than 1 monic costs a few field multiplications
    template, exps = inputs.SUM_A1
    base = _small_chain_counts(template.format(1, 1, 1))
    base.pop("field.mul.calls")
    for scales, unit in (((2, 1, 1), 1), ((3, 4, 2), 3), ((1, 1, 1), 2)):
        coeffs = inputs.scaled(exps, 5, scales, unit)
        got = _small_chain_counts(template.format(*coeffs))
        assert got.pop("field.mul.calls") <= 1.05 * 4981
        assert got == base


def test_probe_scales_by_the_kernel_samples_around_an_operation():
    probe = calibrate.Probe()
    probe.times = [1.0, 2.0, 5.0]
    probe.kernel = [calibrate.NOMINAL_S, 3 * calibrate.NOMINAL_S,
                    calibrate.NOMINAL_S]
    assert probe.scale(0.5) == 1.0                  # before the first
    assert probe.scale(1.5) == 0.5                  # between 1.0 and 2.0
    assert probe.scale(4.0) == 0.5                  # between 2.0 and 5.0
    assert probe.scale(6.0) == 1.0                  # after the last
    assert calibrate.kernel() == calibrate.CHECKSUM


def test_inputs_depend_only_on_the_seed():
    assert inputs.chain_inputs(3) == inputs.chain_inputs(3)
    assert inputs.normal_form_inputs(3) == inputs.normal_form_inputs(3)
    assert inputs.suite_order(["a", "b", "c"], 3) == \
        inputs.suite_order(["c", "b", "a"], 3)
    assert len(inputs.chain_inputs(3)) == len(inputs.chain_inputs(4))


def test_reference_table_matches_the_dense_oracle():
    import make_reference
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        table = json.load(fh)
    shape = inputs.NORMAL_FORM_SHAPES[2]
    terms = {exps: 1 for exps in shape["exps"]}
    text = inputs.shape_text(shape["text"], (1, 1, 1))
    assert make_reference.dense_threshold(terms, shape["weights"], 3, 3) == \
        table[inputs.reference_key(text, 3, 3)]
    quadric = {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}
    assert make_reference.dense_threshold(quadric, (1, 1, 1), 5, 1) == \
        inputs.quadric_threshold(5)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        check=False)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
