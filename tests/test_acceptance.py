"""Acceptance gate: one test per shipped criterion, every value exact or
within its stated tolerance, every runtime budget asserted.  Run with -v
to get one pass/fail line per criterion.

Each test recomputes its expected values from an independent route
(closed forms, dense linear algebra, brute staircase enumeration) rather
than trusting the code under test."""

import json
import math
import os
import random
import time
from fractions import Fraction

import pytest

import charplab.cli as cli
from charplab import (
    Field, IdealHandle, PerturbationPlan, QuotientPresentation, Ring,
    colength, convergence_diagnostic, disc_congruence_check, discriminant,
    ehk_estimate, fsig_estimate, hk_series, hs_multiplicity, ideal_equal,
    krull_dim, nu_series, parse_poly, run_experiment, sample_epsilons,
    splitting_series, stability_threshold, subalgebra_presentation,
    FiniteExtensionPresentation,
)
from charplab.invariants import _colon_splitting_count
from charplab.perturb import SplitMix64, _bracket_gens
from oracles import family_staircase_count, splitting_number_dense

SUITE = os.path.join(os.path.dirname(__file__), os.pardir, "paper-suite")


def free_presentation(p, n):
    ring = Ring(Field(p), ("x", "y", "t")[:n])
    return QuotientPresentation(ring, IdealHandle(ring, []))


def hypersurface(ring, text):
    return QuotientPresentation(
        ring, IdealHandle(ring, [parse_poly(text, ring)]))


def test_criterion_01_free_presentations_have_exact_power_colengths():
    start = time.monotonic()
    for p in (2, 3, 5):
        for n in (1, 2, 3):
            series = hk_series(free_presentation(p, n), 4)
            assert [r.length for r in series.rows] == \
                [p ** (e * n) for e in (1, 2, 3, 4)]
            assert convergence_diagnostic(series, n).constant == 0
    assert time.monotonic() - start < 5


def test_criterion_02_noncm_quotient_multiplicities_exact():
    start = time.monotonic()
    R = Ring(Field(3), ("x", "y", "z"))
    base = [parse_poly("x*y", R), parse_poly("x*z", R)]
    cases = [("y", 2)] + [(f"y + x^{N}", 1) for N in (2, 3, 4)]
    for extra, want in cases:
        pres = QuotientPresentation(
            R, IdealHandle(R, base + [parse_poly(extra, R)]))
        est = ehk_estimate(hk_series(pres, 5))
        assert est.value == want            # zero tolerance in dimension 1
        assert est.spread == 0
    assert time.monotonic() - start < 30


def test_criterion_03_node_deformation_family_tracks_the_oracle():
    start = time.monotonic()
    R = Ring(Field(3), ("x", "y", "t"))
    previous = None
    for n in (2, 3, 4):
        series = hk_series(hypersurface(R, f"x*y + t^{n}"), 5)
        # dense staircase enumeration, written first, decides the lengths
        assert [r.length for r in series.rows] == \
            [family_staircase_count(3 ** e, n) for e in (1, 2, 3, 4, 5)]
        est = ehk_estimate(series)
        # closed form recorded, not asserted: 2 - 2/n would give
        # 1, 4/3, 3/2 here; the extrapolated estimates track 2 - 1/n,
        # and the dense oracle above is the acceptance bar
        assert est.value < 2
        assert est.spread < Fraction(2, 100)
        if previous is not None:
            assert est.value > previous
        previous = est.value
    assert time.monotonic() - start < 120


def test_criterion_04_rational_double_point_splitting_rates():
    start = time.monotonic()
    R = Ring(Field(5), ("x", "y", "t"))
    for n, closed_form in ((2, lambda q: (q * q + 1) // 2),
                           (3, lambda q: (q * q + 2) // 3)):
        f = parse_poly(f"x^2 + y^2 + t^{n}", R)
        pres = QuotientPresentation(R, IdealHandle(R, [f]))
        series = splitting_series(pres, 4)
        # three independent routes: the classical A-series splitting
        # counts, the dense box oracle, and the literal colon formula
        assert [r.a for r in series.rows] == \
            [closed_form(5 ** e) for e in (1, 2, 3, 4)]
        assert series.rows[0].a == splitting_number_dense(f, 1)
        assert [series.rows[0].a, series.rows[1].a] == \
            [_colon_splitting_count(pres, e) for e in (1, 2)]
        est = fsig_estimate(series)
        assert abs(est.value - Fraction(1, n)) <= Fraction(1, 10)
    assert time.monotonic() - start < 180


def test_criterion_05_nonreduced_rings_never_split():
    start = time.monotonic()
    R = Ring(Field(2), ("x", "y"))
    series = splitting_series(hypersurface(R, "x^2"), 3)
    assert [r.a for r in series.rows] == [0, 0, 0]
    assert time.monotonic() - start < 1


def test_criterion_06_toric_subalgebra_presentation_and_multiplicity():
    start = time.monotonic()
    R = Ring(Field(5), ("x", "y", "z"))
    gens = [parse_poly(s, R) for s in
            ("x^3", "x^2*y", "y^3", "y^2*z", "z^3", "z^2*x")]
    pres = subalgebra_presentation(gens)
    assert krull_dim(pres) == 3
    ring6 = pres.ring
    cut = pres.with_polys([parse_poly("a1", ring6),
                           parse_poly("a3", ring6)])
    assert hs_multiplicity(QuotientPresentation(ring6, cut)) == 11
    assert time.monotonic() - start < 600


def test_criterion_07_quartic_family_estimate_near_three_plus_power():
    start = time.monotonic()
    R = Ring(Field(2, 2), ("x", "y", "z"))
    pres = hypersurface(
        R, "z^4 + x*y*z^2 + x^3*z + y^3*z + g*x^2*y^2")
    est = ehk_estimate(hk_series(pres, 5))
    assert any(abs(est.value - (3 + Fraction(1, 4 ** m)))
               <= Fraction(3, 100) for m in range(1, 11))
    assert time.monotonic() - start < 600


def test_criterion_08_certified_stability_for_random_instances():
    start = time.monotonic()
    pool = {
        2: ("x*y + y^3", "x^2 + y^3", "x*y", "x^2*y + x^3", "x + y^2"),
        3: ("x*y + t^2", "x^2 + y^2 + t^2", "x*y*t + t^3", "x^2*y + t^2",
            "x + y*t"),
    }
    stream = SplitMix64(2718)
    checked = 0
    for i in range(20):
        p = (2, 3, 5)[stream.below(3)]
        nvars = 2 + stream.below(2)
        ring = Ring(Field(p), ("x", "y", "t")[:nvars])
        f = parse_poly(pool[nvars][stream.below(5)], ring)
        e = 1 + stream.below(2)
        pres = QuotientPresentation(ring, IdealHandle(ring, []))
        N = stability_threshold(pres, (f,), e)
        plan = PerturbationPlan(pres, (f,), N, N + 1, 3, 1000 + i, (1,),
                                "splitting-monotonicity")
        brackets = _bracket_gens(ring, e)
        base = IdealHandle(ring, [f] + brackets)
        base_length = colength(base)
        for eps in sample_epsilons(plan):
            pert = IdealHandle(ring, [f + eps] + brackets)
            assert ideal_equal(base, pert)
            assert colength(pert) == base_length
            checked += 1
    assert checked == 60
    assert time.monotonic() - start < 120


def test_criterion_09_splitting_constancy_and_monotonicity():
    start = time.monotonic()
    R = Ring(Field(5), ("x", "y", "t"))
    pres = QuotientPresentation(R, IdealHandle(R, []))
    f = parse_poly("x^2 + y^2 + t^2", R)

    constancy = run_experiment(PerturbationPlan(
        pres, (f,), 373, 373, 10, 41, (1, 2, 3), "splitting-constancy"))
    assert constancy.thresholds == {1: 13, 2: 73, 3: 373}
    assert constancy.verdicts == {"splitting-constancy": "pass",
                                  "perturbed-ideal-equality": "pass"}
    assert len(constancy.rows) == 30
    assert all(r.verdict == "pass" and r.delta == 0
               for r in constancy.rows)
    assert constancy.failures == ()

    monotone = run_experiment(PerturbationPlan(
        pres, (f,), 2, 2, 10, 43, (1, 2, 3), "splitting-monotonicity"))
    assert monotone.verdicts == {"splitting-monotonicity": "pass"}
    assert len(monotone.rows) == 30
    assert all(r.perturbed <= r.base for r in monotone.rows)
    assert monotone.failures == ()
    assert time.monotonic() - start < 300


def test_criterion_10_discriminant_closed_forms_and_congruences():
    start = time.monotonic()
    quad = FiniteExtensionPresentation(
        Ring(Field(5), ("u",)), "z",
        parse_poly("z^2 - u", Ring(Field(5), ("u", "z"))))
    assert discriminant(quad).text() == "4*u"
    artin = FiniteExtensionPresentation(
        Ring(Field(2), ("u",)), "z",
        parse_poly("z^2 + z + u", Ring(Field(2), ("u", "z"))))
    d = discriminant(artin)
    assert d.is_constant() and d.constant_code() == 1
    for p in (2, 3, 5):
        insep = FiniteExtensionPresentation(
            Ring(Field(p), ("u",)), "z",
            parse_poly(f"z^{p} - u", Ring(Field(p), ("u", "z"))))
        assert discriminant(insep).is_zero()

    relations = {
        2: ("z^2 + z + u", "z^3 + u*z + u"),
        3: ("z^2 - u", "z^3 - u"),
        5: ("z^2 - u", "z^3 + u^2*z + u"),
    }
    host = Ring(Field(3), ("x", "y"))
    host_pres = QuotientPresentation(host, IdealHandle(host, []))
    for p, rels in relations.items():
        trials = 0
        base = Ring(Field(p), ("u",))
        ring = Ring(base.field, ("u", "z"))
        for k, rel in enumerate(rels):
            ext = FiniteExtensionPresentation(base, "z",
                                              parse_poly(rel, ring))
            plan = PerturbationPlan(host_pres, (), 3, 5, 25, 500 + k, (1,),
                                    "dis-congruence", extension=ext,
                                    n_target=3)
            for eps in sample_epsilons(plan):
                assert disc_congruence_check(ext, eps, 3).verdict
                trials += 1
        assert trials == 50
    assert time.monotonic() - start < 30


def test_criterion_11_nu_values_growth_and_subadditivity():
    start = time.monotonic()
    for p in (2, 3, 5):
        ring = Ring(Field(p), ("x",))
        for a in (1, 2, 3, 4):
            series = nu_series(parse_poly(f"x^{a}", ring), 4)
            assert [r.nu for r in series.rows] == \
                [math.ceil(p ** e / a) - 1 for e in (1, 2, 3, 4)]
    R7 = Ring(Field(7), ("x", "y"))
    assert nu_series(parse_poly("x^2 + y^3", R7), 1).rows[0].nu == 5

    rng = random.Random(1105)
    R3 = Ring(Field(3), ("x", "y"))
    pool = ["x", "y", "x^2", "x*y", "y^2", "x^2 + y^3", "x*y + y^2",
            "x^3 + x*y", "y^3", "x^2*y + x", "x + y", "x^2 + 2*y"]
    pairs = 0
    while pairs < 100:
        f = parse_poly(rng.choice(pool), R3)
        g = parse_poly(rng.choice(pool), R3)
        s = f + g
        if s.is_zero() or s.constant_code() != 0:
            continue
        sf, sg, ss = nu_series(f, 3), nu_series(g, 3), nu_series(s, 3)
        for rf, rg, rs in zip(sf.rows, sg.rows, ss.rows):
            assert rs.nu <= rf.nu + rg.nu + 1
        for r0, r1 in zip(sf.rows, sf.rows[1:]):
            assert r1.nu >= 3 * r0.nu
        pairs += 1
    assert time.monotonic() - start < 60


def test_criterion_12_suite_reports_are_byte_identical(capsys, tmp_path):
    def collect(sub):
        out_dir = tmp_path / sub
        code = cli.main(["run-suite", SUITE, "--out-dir", str(out_dir)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert out.splitlines()[-1] == "40/40 jobs passed"
        return {p.name: p.read_bytes()
                for p in sorted(out_dir.iterdir())
                if p.name.endswith(".csv")}
    first = collect("a")
    second = collect("b")
    assert len(first) == 40
    assert first == second
