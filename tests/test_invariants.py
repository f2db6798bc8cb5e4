"""Numerical invariants: bracket-power colengths, splitting numbers,
multiplicities, nu values, and the extrapolation layer on top of them.

Expected values come from the dense oracles (written first) or from
hand-checkable degenerate cases; the estimator is additionally pinned on
synthetic series where the limit is exact by construction.
"""

import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charplab import (
    GREVLEX, Field, GroebnerBasis, HKRow, HKSeries, IdealHandle, InputError,
    InternalError, LimitError, Limits, Polynomial, QuotientPresentation, Ring,
    TimeLimitError, colength,
    convergence_diagnostic, ehk_estimate, fpt_estimate, fsig_estimate,
    hk_length, hk_series, hs_multiplicity, nu_series, parameter_check,
    parse_poly, splitting_number, splitting_series, staircase_of,
)
from charplab import engine, invariants
from charplab.groebner import Staircase, colon_by_basis
from charplab.invariants import _colon_splitting_count, _count_or_zero
from oracles import (dense_colength_box, family_staircase_count,
                     family_staircase_enumerate, nu_direct,
                     splitting_number_dense)


def ring(p, *names, m=1):
    return Ring(Field(p, m), names)


def present(R, *texts):
    return QuotientPresentation(R, [parse_poly(t, R) for t in texts])


# -- bracket-power colengths -----------------------------------------------------

def test_hk_length_quadric_f3():
    R = ring(3, "x", "y", "t")
    P = present(R, "x*y + t^2")
    assert hk_length(P, 1) == 13
    assert dense_colength_box([parse_poly("x*y + t^2", R)], 3) == 13


def test_hk_length_shifted_family():
    R = ring(3, "x", "y", "z")
    for N in (2, 3, 4):
        P = present(R, "x*y", "x*z", f"y + x^{N}")
        gens = [parse_poly(t, R) for t in ("x*y", "x*z", f"y + x^{N}")]
        for e in (1, 2):
            q = 3 ** e
            got = hk_length(P, e)
            assert got == dense_colength_box(gens, q)
            if q > N + 1:
                assert got == q + N


def test_hk_length_regular_is_exact_power():
    for p in (2, 3, 5):
        for n in (1, 2, 3):
            R = ring(p, *"xyt"[:n])
            P = QuotientPresentation(R, IdealHandle(R, []))
            for e in (1, 2, 3):
                assert hk_length(P, e) == p ** (e * n)


def test_hk_length_validation():
    R = ring(3, "x")
    P = present(R, "x^2")
    with pytest.raises(InputError):
        hk_length(P, 0)


# -- series and extrapolation ----------------------------------------------------

def test_regular_series_estimates_one():
    R = ring(3, "x", "y")
    P = QuotientPresentation(R, IdealHandle(R, []))
    s = hk_series(P, 3)
    assert all(r.normalized == 1 for r in s.rows)
    est = ehk_estimate(s)
    assert est.value == 1 and est.spread == 0 and not est.flagged


def test_two_row_series_is_flagged():
    R = ring(3, "x", "y", "t")
    s = hk_series(present(R, "x*y + t^2"), 2)
    est = ehk_estimate(s)
    assert est.value == Fraction(41, 27)
    assert est.flagged


def test_eventually_linear_dimension_one_estimate_exact():
    # lengths are q + 3 once q > 4, so one extrapolation step is exact
    R = ring(3, "x", "y", "z")
    P = present(R, "x*y", "x*z", "y + x^3")
    s = hk_series(P, 3)
    assert [r.length for r in s.rows] == [5, 12, 30]
    assert s.d == 1
    est = ehk_estimate(s)
    assert est.value == 1
    assert est.spread == Fraction(1, 6)


def test_richardson_exact_on_synthetic_linear_series():
    # lengths alpha*q^2 + beta*q reproduce alpha exactly after one step
    p, alpha, beta = 3, 2, -1
    rows = []
    for e in (1, 2, 3):
        q = p ** e
        length = alpha * q * q + beta * q
        rows.append(HKRow(e, q, length, Fraction(length, q * q)))
    est = ehk_estimate(HKSeries(p, 2, tuple(rows)))
    assert est.value == alpha
    assert est.spread == 0


def test_normalized_rows_at_least_one():
    # unmixed quotients never dip below 1
    cases = [
        (ring(3, "x", "y", "t"), ("x*y + t^2",)),
        (ring(3, "x", "y", "t"), ("x*y + t^3",)),
        (ring(5, "x", "y", "t"), ("x^2 + y^2 + t^2",)),
        (ring(2, "x", "y"), ("x*y",)),
    ]
    for R, texts in cases:
        s = hk_series(present(R, *texts), 2)
        assert all(r.normalized >= 1 for r in s.rows)


def test_convergence_diagnostic_regular_and_family():
    R = ring(3, "x", "y")
    P = QuotientPresentation(R, IdealHandle(R, []))
    diag = convergence_diagnostic(hk_series(P, 3), 2)
    assert diag.constant == 0
    assert all(dev == 0 for _, dev in diag.devs)

    # regression fixture: the n = 3 family is exactly linear in q^2 from the
    # start, so every deviation vanishes
    R3 = ring(3, "x", "y", "t")
    s = hk_series(present(R3, "x*y + t^3"), 4)
    assert [r.length for r in s.rows] == [
        family_staircase_count(3 ** e, 3) for e in (1, 2, 3, 4)]
    diag = convergence_diagnostic(s, 2)
    assert diag.constant == 0


def test_estimates_and_diagnostic_need_two_consecutive_levels():
    R = ring(3, "x", "y")
    rows = hk_series(present(R, "x*y"), 3).rows
    for kept, message in ((rows[:1], "at least two rows"),
                          ((rows[0], rows[2]), "consecutive levels")):
        series = HKSeries(3, 1, kept)
        with pytest.raises(InputError, match=message):
            ehk_estimate(series)
        with pytest.raises(InputError, match=message):
            convergence_diagnostic(series, 1)


def test_family_oracle_self_agreement():
    for q in (2, 3, 4, 5, 9, 27):
        for n in (2, 3, 4):
            assert family_staircase_count(q, n) == \
                family_staircase_enumerate(q, n)


# -- Hilbert-Samuel multiplicity --------------------------------------------------

def test_hs_multiplicity_hypersurfaces():
    R = ring(5, "x", "y")
    assert hs_multiplicity(present(R, "x^2")) == 2
    R2 = ring(3, "x", "z")
    assert hs_multiplicity(present(R2, "x*z")) == 2


def test_hs_multiplicity_in_four_variables():
    # every leading term holds t, so the slices of the staircase reach the
    # empty corner set in both three and two variables
    R = ring(5, "x", "y", "z", "t")
    assert hs_multiplicity(present(R, "y*t^2")) == 3
    assert hs_multiplicity(present(R, "x*y*z*t")) == 4
    assert hs_multiplicity(present(R, "x^2*t + y^2*t")) == 3


def test_hs_multiplicity_inhomogeneous_route():
    # non-homogeneous defining ideal forces the literal colength route
    R = ring(5, "x", "y")
    assert hs_multiplicity(present(R, "x^2 + y^3")) == 2
    assert hs_multiplicity(present(R, "y^2 + x^5")) == 2


def test_hs_multiplicity_needs_no_cap_on_s():
    # l(R/m^s) = s for every s <= 70, so the lengths settle only past 70
    assert hs_multiplicity(present(ring(5, "x"), "x^70")) == 70


@pytest.mark.parametrize("p, names, texts, value", [
    # the d-th differences of s -> l(R/m^s) repeat a wrong value three
    # times before they settle at the multiplicity
    (2, ("x", "y"), ("y^2", "x^3*y"), 1),
    (2, ("x", "y", "z"), ("x^3 + x*y", "x^2*y^2"), 1),
    (3, ("x", "y"), ("y^3", "x^3*y^2"), 2),
    # globally of dimension 2 (the plane z = 1), but the ring at the
    # origin is the regular line x = y = 0, of dimension 1
    (5, ("x", "y", "z"), ("x*z - x", "y*z - y"), 1),
], ids=["y2-x3y", "x3+xy-x2y2", "y3-x3y2", "plane-and-line"])
def test_hs_multiplicity_is_the_local_multiplicity(p, names, texts, value):
    assert hs_multiplicity(present(ring(p, *names), *texts)) == value


def test_a_positive_dimensional_cone_run_drops_no_pair(monkeypatch):
    # a curve in four variables: the x-parts never span an m-primary ideal,
    # so the Loewy cut stays off and the homogenized run reduces all 26
    R = ring(5, "x", "y", "z", "t")
    calls = []
    spoly = engine._Buchberger._spoly

    def spy(self, *args):
        if self.spec.order.kind == "block":
            calls.append(args)
        return spoly(self, *args)
    monkeypatch.setattr(engine._Buchberger, "_spoly", spy)
    assert hs_multiplicity(present(
        R, "x*y - t^3", "x*z - y^3", "y*z - x^2 - t^4")) == 10
    assert len(calls) == 26


def test_hs_multiplicity_regular():
    R = ring(3, "x", "y")
    P = QuotientPresentation(R, IdealHandle(R, []))
    assert hs_multiplicity(P) == 1


# -- splitting numbers -------------------------------------------------------------

def test_splitting_nonreduced_vanishes():
    R = ring(2, "x", "y")
    P = present(R, "x^2")
    for e in (1, 2, 3):
        assert splitting_number(P, e) == 0
    R3 = ring(3, "x", "y")
    P3 = present(R3, "x^3 + y^3")
    assert splitting_number(P3, 1) == 0


def test_splitting_regular_equals_box_count():
    for p in (2, 5):
        R = ring(p, "x", "y")
        P = QuotientPresentation(R, IdealHandle(R, []))
        for e in (1, 2):
            assert splitting_number(P, e) == p ** (2 * e)


def test_splitting_chain_matches_dense_oracle():
    R = ring(5, "x", "y", "t")
    f = parse_poly("x^2 + y^2 + t^2", R)
    P = QuotientPresentation(R, [f])
    assert splitting_number(P, 1) == splitting_number_dense(f, 1) == 13
    g = parse_poly("x^2 + y^2 + t^3", R)
    Q = QuotientPresentation(R, [g])
    assert splitting_number(Q, 1) == splitting_number_dense(g, 1) == 9


def test_small_chain_engine_work_stays_bounded(monkeypatch):
    # upper bounds on the work of the x^2+y^2+t^2 chain to e = 2: the
    # counts of the engine before its pairs were pruned in bulk
    R = ring(5, "x", "y", "t")
    P = QuotientPresentation(R, IdealHandle(R, [parse_poly(
        "x^2 + y^2 + t^2", R)]))
    counts = {"spoly": 0, "context": 0}
    reduce_dict = engine.BasisContext.reduce_dict
    build = engine.BasisContext.__init__
    run = engine._Buchberger.run.__code__

    def counted_reduce(self, work, quotient=None):
        counts["spoly"] += sys._getframe(1).f_code is run
        return reduce_dict(self, work, quotient)

    def counted_build(self, *args):
        counts["context"] += 1
        build(self, *args)
    monkeypatch.setattr(engine.BasisContext, "reduce_dict", counted_reduce)
    monkeypatch.setattr(engine.BasisContext, "__init__", counted_build)
    assert [r.a for r in splitting_series(P, 2).rows] == [13, 313]
    assert 0 < counts["spoly"] <= 172
    assert 0 < counts["context"] <= 187


def test_splitting_chain_agrees_with_colon_formula():
    # the telescoping chain and the literal one-level colon compute the
    # same number for principal defining ideals
    R = ring(3, "x", "y", "t")
    for text in ("x*y + t^2", "x*y + t^3"):
        P = present(R, text)
        for e in (1, 2):
            assert splitting_number(P, e) == _colon_splitting_count(P, e)


def colon_at_every_level(g, e_max):
    """a_1..a_emax of (g) by C_e = (C_(e-1)^[p] : g^(p-1)), C_0 = (1),
    reading each a_e off the colength of a colon."""
    R = g.ring
    p = R.field.p
    current = [R.monomial(tuple(p if j == i else 0 for j in range(R.n)))
               for i in range(R.n)]
    out = []
    for _ in range(e_max):
        elems = colon_by_basis(current, R, g ** (p - 1))
        out.append(staircase_of(GroebnerBasis(R, GREVLEX, elems)).count())
        current = [h.frobenius_pow(1) for h in elems]
    return out


def test_staircase_count_on_a_level_four_chain_basis():
    """a_4 of x^2 + y^2 + t^2 over F3 is (81^2 + 1)/2 = 3281, the count of
    the staircase of the level-4 colon's reduced basis, whose leading
    exponents are already the minimal corners."""
    R = ring(3, "x", "y", "t")
    g = parse_poly("x^2 + y^2 + t^2", R)
    current = [R.monomial(tuple(3 if j == i else 0 for j in range(3)))
               for i in range(3)]
    for _ in range(4):
        elems = colon_by_basis(current, R, g ** 2)
        current = [h.frobenius_pow(1) for h in elems]
    lead = GroebnerBasis(R, GREVLEX, elems).leading_exponents()
    stair = Staircase(lead, 3)
    assert stair.count() == 3281
    assert stair.corners == set(lead)


@pytest.mark.parametrize("levels, closed_form", [
    (lambda P: [r.a for r in splitting_series(P, 5).rows],
     lambda q: (q * q + 2) // 3),
    (lambda P: [hk_length(P, 5)], lambda q: (5 * q * q - 2) // 3),
], ids=["splitting-series", "hk-length"])
def test_a2_at_level_five_meets_its_closed_form(levels, closed_form):
    """x^2 + y^2 + t^3 over F5 up to e = 5, q = 3125: a_e = (q^2 + 2)/3 and
    l(S/(f) + m^[q]) = (5q^2 - 2)/3, read off staircases of millions of
    standard monomials within 10 s of CPU each."""
    R = ring(5, "x", "y", "t")
    start = time.process_time()
    got = levels(present(R, "x^2 + y^2 + t^3"))
    assert time.process_time() - start < 10
    assert got == [closed_form(5 ** e) for e in range(6 - len(got), 6)]


def test_a1_at_level_five_meets_its_closed_form():
    """x^2 + y^2 + t^2 over F5 up to e = 5, q = 3125: a_e = (q^2 + 1)/2,
    the last level read off half a Hilbert function, within 10 s of CPU."""
    R = ring(5, "x", "y", "t")
    start = time.process_time()
    got = [r.a for r in splitting_series(present(R, "x^2 + y^2 + t^2"),
                                          5).rows]
    assert time.process_time() - start < 10
    assert got == [(5 ** (2 * e) + 1) // 2 for e in range(1, 6)]


def maximal_polys(R):
    """Polynomials with no constant term and 2-4 terms of degree 1-3."""
    exps = st.tuples(*[st.integers(0, 3) for _ in range(R.n)]).filter(
        lambda e: 1 <= sum(e) <= 3)
    return st.builds(lambda terms: Polynomial(R, terms), st.dictionaries(
        exps, st.integers(1, R.field.q - 1), min_size=2, max_size=4))


@st.composite
def hypersurface_cases(draw, box=20000, e_top=3):
    """(g, e_max): g from maximal_polys in 2-3 variables over GF(2), GF(3),
    GF(5) or GF(4), and e_max <= e_top with p^(e_max n) <= box."""
    p, m = draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2)]))
    n = draw(st.integers(2, 3))
    R = ring(p, *("x", "y", "t")[:n], m=m)
    top = max(e for e in range(1, e_top + 1) if p ** (e * n) <= box)
    return draw(maximal_polys(R)), draw(st.integers(1, top))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(hypersurface_cases())
def test_splitting_series_matches_a_colon_at_every_level(case):
    g, e_max = case
    P = QuotientPresentation(g.ring, [g])
    assert [r.a for r in splitting_series(P, e_max).rows] == \
        colon_at_every_level(g, e_max)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(hypersurface_cases(box=729, e_top=2), st.data())
def test_known_bases_plus_brackets_match_fresh_computations(case, data):
    # the last-level length of the chain and the literal colon formula
    # agree, and the length of J + m^[q] read off J's cached basis plus
    # the x_i^q equals the colength of a fresh ideal on all of them
    g, e = case
    R = g.ring
    P = QuotientPresentation(R, [g])
    assert _colon_splitting_count(P, e) == splitting_number(P, e)
    gens = [g] + data.draw(st.lists(maximal_polys(R), max_size=1))
    q = R.field.p ** e
    bracket = [R.monomial(tuple(q if j == i else 0 for j in range(R.n)))
               for i in range(R.n)]
    assert hk_length(QuotientPresentation(R, gens), e) == \
        colength(IdealHandle(R, gens + bracket))


@st.composite
def regular_hypersurface_cases(draw):
    """(g, e_max) from hypersurface_cases with a degree-1 term c x_i put
    into g, so that S/(g) is regular at the origin."""
    g, e_max = draw(hypersurface_cases(box=729))
    R = g.ring
    i = draw(st.integers(0, R.n - 1))
    unit = tuple(int(j == i) for j in range(R.n))
    return Polynomial(R, {**g.terms, unit: draw(
        st.integers(1, R.field.q - 1))}), e_max


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(regular_hypersurface_cases())
def test_a_regular_hypersurface_has_free_rank_q_to_the_n_minus_1(case):
    # Kunz: F_*^e of a regular local ring with perfect residue field is
    # free of rank q^(n-1) here, which the colon chain agrees with
    g, e_max = case
    R = g.ring
    P = QuotientPresentation(R, [g])
    want = [R.field.p ** (e * (R.n - 1)) for e in range(1, e_max + 1)]
    assert [r.a for r in splitting_series(P, e_max).rows] == want
    assert colon_at_every_level(g, e_max) == want


def test_a_regular_hypersurface_takes_no_basis_computation():
    R = ring(5, "x", "y", "t")
    P = present(R, "x^2*y*t + 4*y^2*t + 4*t^2 + x + 4*y")
    start = time.perf_counter()
    assert [r.a for r in splitting_series(P, 2).rows] == [25, 625]
    assert time.perf_counter() - start < 1


def test_the_chain_colons_by_its_multiplier_mod_the_bracket(monkeypatch):
    # level e colons C_(e-1)^[p], which contains m^[p^e], so the chain
    # hands colon_by_basis g^(p-1) with the terms in m^[p^e] dropped
    R = ring(5, "x", "y", "t")
    P = present(R, "x^2 + y^2 + t^2")
    seen = []
    real = invariants.colon_by_basis

    def spy(gb_elements, ring_, f, limits):
        seen.append(f)
        return real(gb_elements, ring_, f, limits)
    monkeypatch.setattr(invariants, "colon_by_basis", spy)
    assert [r.a for r in splitting_series(P, 3).rows] == [13, 313, 7813]
    assert len(seen) == 2
    for level, f in enumerate(seen, start=1):
        assert f.terms and all(max(k) < 5 ** level for k in f.terms)


def chain_spolys(monkeypatch, text):
    """The series of (text) over F5 to e = 3 and the count of the
    S-polynomials that its engine runs reduce."""
    R = ring(5, "x", "y", "t")
    calls = []
    spoly = engine._Buchberger._spoly

    def spy(self, *args):
        calls.append(args)
        return spoly(self, *args)
    monkeypatch.setattr(engine._Buchberger, "_spoly", spy)
    return [r.a for r in splitting_series(present(R, text), 3).rows], \
        len(calls)


def test_the_a1_chain_to_level_three_reduces_164_s_polynomials(monkeypatch):
    # the pair update and the midpoint cut of the last level decide which
    # S-polynomials are reduced; the full last run made it 405
    assert chain_spolys(monkeypatch, "x^2 + y^2 + t^2") == \
        ([13, 313, 7813], 164)


def test_the_a2_chain_to_level_three_reduces_149_s_polynomials(monkeypatch):
    # x^2 + y^2 + t^3 is not homogeneous, so its last level keeps the
    # full run of I + (r)
    assert chain_spolys(monkeypatch, "x^2 + y^2 + t^3") == \
        ([9, 209, 5209], 149)


def kunz_at_every_level(g, e_max):
    """a_1..a_emax of (g), each read as p^n a_(e-1) - l(S/(I + (r))) for
    I = C_(e-1)^[p] and r = g^(p-1) mod I, off the full run of I + (r)."""
    R = g.ring
    p = R.field.p
    current = [R.monomial(tuple(p if j == i else 0 for j in range(R.n)))
               for i in range(R.n)]
    out = [1]
    for _ in range(e_max):
        base = GroebnerBasis(R, GREVLEX, current)
        r = base.normal_form(g ** (p - 1))
        out.append(p ** R.n * out[-1]
                   - _count_or_zero(base.extend_staircase([r])))
        elems = colon_by_basis(current, R, g ** (p - 1))
        current = [h.frobenius_pow(1) for h in elems]
    return out[1:]


@st.composite
def form_cases(draw, box=6561):
    """(g, e_max): a form g of degree 1-4 with 2-4 terms in 2-4 variables
    over F2, F3 or F5, and e_max <= 3 with p^(e_max n) <= box."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(2, 4))
    d = draw(st.integers(1, 4))
    R = ring(p, *("x", "y", "z", "t")[:n])
    exps = st.lists(st.integers(0, n - 1), min_size=d, max_size=d).map(
        lambda picks: tuple(picks.count(i) for i in range(n)))
    g = Polynomial(R, draw(st.dictionaries(
        exps, st.integers(1, p - 1), min_size=2, max_size=4)))
    top = max(e for e in range(1, 4) if p ** (e * n) <= box)
    return g, draw(st.integers(1, top))


@settings(max_examples=160, deadline=None, derandomize=True, database=None)
@given(form_cases())
@example((parse_poly("x^2*y", ring(2, "x", "y")), 2))        # r = 0
@example((parse_poly("x^2*y + y^3", ring(3, "x", "y")), 2))   # r = 0
@example((parse_poly("x^2 + y^2 + t^2", ring(5, "x", "y", "t")), 2))
@example((parse_poly("x*y - z*t", ring(2, "x", "y", "z", "t")), 3))
def test_the_midpoint_cut_keeps_every_level_of_a_form(case):
    # the last level of each series, read off half the Hilbert function
    # of S/(I : r), against p^n a_(e-1) - l(S/(I + (r)))
    g, e_max = case
    P = QuotientPresentation(g.ring, [g])
    assert [splitting_number(P, e) for e in range(1, e_max + 1)] == \
        kunz_at_every_level(g, e_max)


def test_only_a_homogeneous_chain_takes_a_cut_run(monkeypatch):
    cuts = []
    init = engine._Buchberger.__init__

    def spy(self, *args):
        init(self, *args)
        cuts.append(self.bound is not None)
    monkeypatch.setattr(engine._Buchberger, "__init__", spy)
    R = ring(5, "x", "y", "t")
    assert [r.a for r in splitting_series(
        present(R, "x^2 + y^2 + t^3"), 3).rows] == [9, 209, 5209]
    assert cuts and not any(cuts)
    cuts.clear()
    assert [r.a for r in splitting_series(
        present(R, "x^2 + y^2 + t^2"), 3).rows] == [13, 313, 7813]
    assert cuts[-1] and not any(cuts[:-1])


def test_lengths_never_grow_a_reduced_basis(monkeypatch):
    # hk_length and the last chain level read only leading exponents, so
    # once the defining basis is cached neither calls GroebnerBasis.extend
    R = ring(3, "x", "y", "t")
    P = present(R, "x^2 + y^2 + t^2")

    def refuse(self, extra, limits=None):
        raise AssertionError("a length asked for a reduced basis")
    monkeypatch.setattr(GroebnerBasis, "extend", refuse)
    assert hk_length(P, 2) == dense_colength_box(
        [parse_poly("x^2 + y^2 + t^2", R)], 9)
    assert [r.a for r in splitting_series(P, 3).rows] == [5, 41, 365]


def test_lengths_keep_the_limits():
    # a principal J has no pairs, so its basis fits any limit; the runs
    # that add the brackets (hk_length) or r (the last and here only
    # chain level) do not
    R = ring(3, "x", "y", "t")
    g = parse_poly("x^2 + y^2 + t^2", R)
    for limits, error in ((Limits(max_seconds=0), TimeLimitError),
                          (Limits(max_basis=2), LimitError)):
        P = QuotientPresentation(R, IdealHandle(R, [g], limits))
        with pytest.raises(error):
            hk_length(P, 1)
        with pytest.raises(error):
            splitting_series(P, 1)


def test_colon_step_count_needs_a_finite_staircase():
    R = ring(3, "x", "y")
    x, y = R.gens()

    def count(*elems):
        return _count_or_zero(staircase_of(GroebnerBasis(R, GREVLEX, elems)))
    with pytest.raises(InternalError):
        count(x)
    assert count(R.one) == 0
    assert count(x**2, y) == 2


def test_splitting_bounds_multigenerator():
    R = ring(3, "x", "y", "z")
    P = present(R, "x*y", "x*z")
    d = P.dim
    assert d == 2
    for e in (1, 2):
        a = splitting_number(P, e)
        assert 0 <= a <= 3 ** (e * d)


def test_fsig_estimate_values():
    R = ring(5, "x", "y")
    P = QuotientPresentation(R, IdealHandle(R, []))
    est = fsig_estimate(splitting_series(P, 3))
    assert est.value == 1 and est.spread == 0

    R3 = ring(5, "x", "y", "t")
    s = splitting_series(present(R3, "x^2 + y^2 + t^2"), 3)
    assert [r.a for r in s.rows] == [13, 313, 7813]
    est = fsig_estimate(s)
    assert abs(est.value - Fraction(1, 2)) < Fraction(1, 10)

    nonred = splitting_series(present(R, "x^2"), 3)
    assert fsig_estimate(nonred).value == 0


# -- nu invariants ------------------------------------------------------------------

def test_nu_pure_powers():
    for p in (2, 3, 5):
        R = ring(p, "x", "y")
        for a in (1, 2, 3, 4):
            f = parse_poly(f"x^{a}", R)
            s = nu_series(f, 4)
            for r in s.rows:
                assert r.nu == -(-(p ** r.e) // a) - 1
                assert r.nu == nu_direct(f, r.e)


def test_nu_cusp_over_f7():
    R = ring(7, "x", "y")
    f = parse_poly("x^2 + y^3", R)
    s = nu_series(f, 1)
    assert s.rows[0].nu == 5 == nu_direct(f, 1)
    assert (s.rows[0].lower, s.rows[0].upper) == \
        (Fraction(5, 7), Fraction(6, 7))


def test_nu_node_interval_tends_to_one():
    R = ring(7, "x", "y")
    s = nu_series(parse_poly("x*y", R), 2)
    assert [r.nu for r in s.rows] == [6, 48]
    assert fpt_estimate(s) == (Fraction(48, 49), Fraction(1, 1))


def test_nu_subadditivity_and_growth_random():
    rng = random.Random(47)
    R = ring(3, "x", "y")
    pool = ["x", "y", "x^2", "x*y", "y^2", "x^2 + y^3", "x*y + y^2",
            "x^3 + x*y", "y^3", "x^2*y + x"]
    for _ in range(30):
        f = parse_poly(rng.choice(pool), R)
        g = parse_poly(rng.choice(pool), R)
        sf, sg = nu_series(f, 2), nu_series(g, 2)
        if not (f + g).is_zero() and (f + g).constant_code() == 0:
            sfg = nu_series(f + g, 2)
            for rf, rg, rfg in zip(sf.rows, sg.rows, sfg.rows):
                assert rfg.nu <= rf.nu + rg.nu + 1
        for s in (sf, sg):
            assert s.rows[1].nu >= 3 * s.rows[0].nu


def test_fpt_membership_bound():
    # f inside m^[p^e0] caps the upper endpoint at 1/p^e0 + 1/p^e
    R = ring(2, "x", "y")
    f = parse_poly("x^4", R)     # lies in m^[4], e0 = 2
    s = nu_series(f, 4)
    for r in s.rows:
        assert r.upper <= Fraction(1, 4) + Fraction(1, r.q)


NU_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)]


@st.composite
def nu_cases(draw):
    """(f, e_max): f with no constant term and 1-4 terms of degree 1-3 in
    1-3 variables over GF(2), GF(3), GF(4), GF(5), GF(7) or GF(9), and
    e_max with q n <= 200 at q = p^e_max."""
    p, m = draw(st.sampled_from(NU_FIELDS))
    n = draw(st.integers(1, 3))
    R = ring(p, *("x", "y", "t")[:n], m=m)
    exps = st.tuples(*[st.integers(0, 3) for _ in range(n)]).filter(
        lambda e: 1 <= sum(e) <= 3)
    terms = draw(st.dictionaries(exps, st.integers(1, R.field.q - 1),
                                 min_size=1, max_size=4))
    top = max(e for e in range(1, 9) if p ** e * n <= 200)
    return Polynomial(R, terms), draw(st.integers(1, top))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(nu_cases())
def test_nu_series_matches_direct_expansion(case):
    f, e_max = case
    s = nu_series(f, e_max)
    assert [r.e for r in s.rows] == list(range(1, e_max + 1))
    for r in s.rows:
        assert r.nu == nu_direct(f, r.e)
        assert (r.lower, r.upper) == (Fraction(r.nu, r.q),
                                      Fraction(r.nu + 1, r.q))


def nu_brute(f, q):
    """The largest t <= n(q - 1) with a term of f^t that has every exponent
    below q, trying each t; f^t mod m^[q] is (f^(t-1) mod m^[q]) f mod m^[q],
    and a zero one stays zero."""
    best, acc = 0, f.ring.one
    for t in range(1, f.ring.n * (q - 1) + 1):
        acc = Polynomial(f.ring, {k: v for k, v in (acc * f).terms.items()
                                  if max(k) < q})
        if acc.is_zero():
            break
        best = t
    return best


@st.composite
def wide_nu_cases(draw):
    """f with no constant term and 1-5 terms, each exponent 0-6 (so terms
    may already lie in m^[q]), in 1-3 variables over GF(2), GF(3), GF(5)
    or GF(4)."""
    p, m = draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2)]))
    n = draw(st.integers(1, 3))
    R = ring(p, *("x", "y", "t")[:n], m=m)
    exps = st.tuples(*[st.integers(0, 6) for _ in range(n)]).filter(any)
    return Polynomial(R, draw(st.dictionaries(
        exps, st.integers(1, R.field.q - 1), min_size=1, max_size=5)))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(wide_nu_cases())
def test_nu_series_is_the_brute_force_nu(f):
    s = nu_series(f, 2)
    assert [r.nu for r in s.rows] == [nu_brute(f, r.q) for r in s.rows]


def test_deep_nu_values_take_no_full_power():
    # one carried power per level: the bisection over full powers f^t took
    # 13-17 s on the cusp alone
    start = time.perf_counter()
    cusp = nu_series(parse_poly("x^2 + y^3", ring(7, "x", "y")), 5)
    fermat = nu_series(parse_poly("x^3 + y^3 + t^3", ring(5, "x", "y", "t")),
                       4)
    assert time.perf_counter() - start < 2
    assert [r.nu for r in cusp.rows] == [5, 40, 285, 2000, 14005]
    assert [r.nu for r in fermat.rows] == [3, 19, 99, 499]


def test_nu_validation():
    R = ring(3, "x")
    with pytest.raises(InputError):
        nu_series(R.zero, 1)
    with pytest.raises(InputError):
        nu_series(parse_poly("x + 1", R), 1)
    with pytest.raises(InputError):
        nu_series(parse_poly("x", R), 0)


# -- parameter sequences --------------------------------------------------------------

def test_parameter_check_examples():
    R = ring(3, "x", "y", "t")
    P = QuotientPresentation(R, IdealHandle(R, []))
    assert parameter_check(P, [parse_poly("x*y + t^2", R)])
    assert not parameter_check(P, [parse_poly("x", R),
                                   parse_poly("x", R)])

    R3 = ring(3, "x", "y", "z")
    nc = present(R3, "x*y", "x*z")
    assert parameter_check(nc, [parse_poly("y", R3)])


def test_parameter_check_validation():
    R = ring(3, "x", "y")
    P = QuotientPresentation(R, IdealHandle(R, []))
    with pytest.raises(InputError):
        parameter_check(P, [parse_poly("x + 1", R)])
    with pytest.raises(InputError):
        parameter_check(P, [parse_poly("2", R)])


# -- presentation plumbing -------------------------------------------------------------

def test_presentation_rejects_foreign_ideal():
    R = ring(3, "x", "y")
    S = ring(3, "x", "z")
    I = IdealHandle(S, [parse_poly("x", S)])
    with pytest.raises(InputError):
        QuotientPresentation(R, I)


def test_series_length_validation():
    R = ring(3, "x", "y")
    P = present(R, "x*y")
    with pytest.raises(InputError):
        hk_series(P, 1)
    with pytest.raises(InputError):
        splitting_series(P, 0)
