"""Perturbation harness: the PRNG and its documented draw order, plan
validation, certified stability thresholds, and the grading semantics of
every experiment mode.  Sampling is replayed against an independent
SplitMix64 transcript, and thresholds against m_power_in."""

import itertools
import math
from fractions import Fraction

import pytest

from charplab import (
    Field, IdealHandle, InputError, LimitError, Limits, PerturbationPlan,
    Polynomial, QuotientPresentation, ReportDocument, Ring, ideal_equal,
    m_power_in, parameter_check, parse_poly,
    run_experiment, sample_epsilons, stability_threshold,
    FiniteExtensionPresentation,
)
from charplab import engine, groebner as groebner_module, perturb
from charplab.errors import InternalError
from charplab.perturb import SplitMix64, stream_for_sample, _draw_epsilon
from oracles import splitmix64_reference

GOLDEN = 0x9E3779B97F4A7C15
MASK = (1 << 64) - 1


def presentation(p, names, gens=(), limits=None):
    ring = Ring(Field(p), names)
    polys = [parse_poly(t, ring) for t in gens]
    handle = IdealHandle(ring, polys) if limits is None \
        else IdealHandle(ring, polys, limits)
    return QuotientPresentation(ring, handle)


# -- the PRNG and per-sample streams ------------------------------------------------


def test_splitmix64_matches_reference_transcript():
    for seed in (0, 1, 42, 0x123456789ABCDEF, MASK):
        gen = SplitMix64(seed)
        assert [gen.next() for _ in range(8)] == \
            splitmix64_reference(seed, 8)


def test_splitmix64_below_rejects_empty_range():
    with pytest.raises(InternalError):
        SplitMix64(7).below(0)


def test_sample_streams_are_independent_and_seeded_by_index():
    seed = 2024
    states = []
    for i in range(6):
        s = stream_for_sample(seed, i)
        assert s.state == (seed ^ ((i + 1) * GOLDEN & MASK)) & MASK
        states.append(s.state)
    assert len(set(states)) == 6
    firsts = [stream_for_sample(seed, i).next() for i in range(6)]
    assert len(set(firsts)) == 6


# -- the draw order, replayed from the raw transcript ---------------------------


def degree_block(n, d):
    """Exponent tuples of total degree d, first exponent largest first."""
    out = [e for e in itertools.product(range(d + 1), repeat=n)
           if sum(e) == d]
    return sorted(out, reverse=True)


def replay_epsilon(ring, seed, index, N, cap):
    F = ring.field
    draws = iter(splitmix64_reference(
        (seed ^ ((index + 1) * GOLDEN & MASK)) & MASK, 64))
    terms = {}
    for _ in range(1 + next(draws) % 5):
        d = N + next(draws) % (cap - N + 1)
        block = degree_block(ring.n, d)
        assert len(block) == math.comb(d + ring.n - 1, ring.n - 1)
        exps = block[next(draws) % len(block)]
        code = 1 + next(draws) % (F.q - 1)
        merged = F.add(terms.get(exps, 0), code)
        if merged:
            terms[exps] = merged
        else:
            terms.pop(exps, None)
    return terms


@pytest.mark.parametrize("p,names", [(3, ("x", "y")), (2, ("x", "y", "t")),
                                     (7, ("x",))])
def test_sampled_epsilons_follow_the_documented_draw_order(p, names):
    R = presentation(p, names)
    f = parse_poly("*".join(names), R.ring)
    plan = PerturbationPlan(R, (f,), 2, 4, 6, 29, (1,),
                            "splitting-monotonicity")
    for i, eps in enumerate(sample_epsilons(plan)):
        assert dict(eps.terms) == replay_epsilon(R.ring, 29, i, 2, 4)


def test_sampling_is_deterministic_across_plan_rebuilds():
    def build():
        R = presentation(5, ("x", "y"))
        plan = PerturbationPlan(R, (parse_poly("x*y", R.ring),), 2, 5, 8,
                                777, (1,), "splitting-monotonicity")
        return [e.text() for e in sample_epsilons(plan)]
    assert build() == build()


def test_every_sampled_term_respects_the_degree_window():
    R = presentation(3, ("x", "y", "t"))
    plan = PerturbationPlan(R, (parse_poly("x*y", R.ring),), 3, 5, 10, 91,
                            (1,), "splitting-monotonicity")
    for eps in sample_epsilons(plan):
        for exps, code in eps.terms.items():
            assert 3 <= sum(exps) <= 5
            assert code != 0


def test_a_draw_over_one_base_variable_stays_in_its_window():
    # a ring has one variable or more, and an extension ring adds z after
    # them, so even the smallest base has a monomial of every degree
    for names, z_bound in ((("x",), None), (("x", "z"), 2)):
        R = Ring(Field(3), names)
        for seed in range(20):
            # two draws of one monomial may cancel, so eps can be zero
            eps = _draw_epsilon(SplitMix64(seed), R, 1, 4, z_bound)
            for exps in eps.terms:
                assert 1 <= exps[0] <= 4
                assert z_bound is None or exps[1] < z_bound


# -- plan validation -------------------------------------------------------------


def test_plan_rejects_bad_shapes():
    R = presentation(3, ("x", "y"))
    f = parse_poly("x*y", R.ring)
    good = dict(presentation=R, targets=(f,), N=2, degree_cap=3, samples=2,
                seed=1, e_range=(1,), mode="splitting-monotonicity")

    def bad(plan=good, **kw):
        with pytest.raises(InputError):
            PerturbationPlan(**dict(plan, **kw))

    bad(mode="shrink-wrap")
    bad(N=0)
    bad(N="2")
    bad(degree_cap=1)
    bad(samples=0)
    bad(seed=-1)
    bad(seed=1 << 64)
    bad(e_range=())
    bad(e_range=(2, 1))
    bad(e_range=(1, 1))
    bad(e_range=(0, 1))
    bad(targets=())
    bad(targets=(f + f + f,))                         # merged to zero
    bad(targets=(parse_poly("x + 1", R.ring),))       # unit offset
    other = Ring(Field(3), ("x", "z"))
    bad(targets=(parse_poly("x*z", other),))          # foreign ring
    bad(tolerance=1)                                  # read by continuity only
    continuity = dict(good, e_range=(1, 2), mode="hk-continuity")
    for tolerance in (-1, Fraction(-1, 2), 0.5, float("nan"), True, "1"):
        bad(continuity, tolerance=tolerance)          # not reportable
    PerturbationPlan(**dict(continuity, tolerance=1))
    PerturbationPlan(**dict(continuity, tolerance=Fraction(1, 2)))


def test_estimate_modes_need_consecutive_levels():
    R = presentation(3, ("x", "y"))
    f = parse_poly("x*y", R.ring)
    for mode in ("hk-continuity", "fsig-continuity", "open-question-probe"):
        with pytest.raises(InputError):
            PerturbationPlan(R, (f,), 2, 3, 1, 1, (2,), mode)
        with pytest.raises(InputError):
            PerturbationPlan(R, (f,), 2, 3, 1, 1, (1, 3), mode)
        PerturbationPlan(R, (f,), 2, 3, 1, 1, (1, 2), mode)


def test_dis_mode_needs_an_extension_and_a_target_order():
    R = presentation(3, ("x", "y"))
    base = Ring(Field(5), ("u",))
    ring = Ring(base.field, ("u", "z"))
    ext = FiniteExtensionPresentation(base, "z", parse_poly("z^2 - u", ring))
    with pytest.raises(InputError):
        PerturbationPlan(R, (), 2, 3, 1, 1, (1,), "dis-congruence")
    with pytest.raises(InputError):
        PerturbationPlan(R, (), 2, 3, 1, 1, (1,), "dis-congruence",
                         extension=ext)
    PerturbationPlan(R, (), 2, 3, 1, 1, (1,), "dis-congruence",
                     extension=ext, n_target=1)


def test_a_plan_rejects_fields_its_mode_never_reads():
    R = presentation(3, ("x", "y"))
    f = parse_poly("x*y", R.ring)
    base = Ring(Field(5), ("u",))
    ext = FiniteExtensionPresentation(
        base, "z", parse_poly("z^2 - u", Ring(base.field, ("u", "z"))))
    dis = dict(presentation=R, targets=(), N=2, degree_cap=3, samples=1,
               seed=1, e_range=(1,), mode="dis-congruence", extension=ext,
               n_target=1)
    sop = dict(dis, targets=(f,), mode="sop-stability", extension=None,
               n_target=None)
    PerturbationPlan(**dis)
    PerturbationPlan(**sop)
    for plan, unread, message in [
            (dis, dict(targets=(f,)), "takes no targets"),
            (dis, dict(tolerance=3), "tolerance needs mode"),
            (sop, dict(tolerance=Fraction(1, 2)), "tolerance needs mode"),
            (sop, dict(extension=ext), "need mode dis-congruence"),
            (sop, dict(n_target=2), "need mode dis-congruence")]:
        with pytest.raises(InputError, match=message):
            PerturbationPlan(**dict(plan, **unread))


# -- certified stability thresholds ---------------------------------------------


def test_threshold_is_one_more_than_the_all_monomials_degree():
    R = presentation(3, ("x", "y", "t"))
    f = parse_poly("x*y + t^2", R.ring)
    brackets = [parse_poly(s, R.ring) for s in ("x^3", "y^3", "t^3")]
    inner = m_power_in(IdealHandle(R.ring, [f] + brackets))
    assert inner == 4
    assert stability_threshold(R, (f,), 1) == inner + 1 == 5


def test_threshold_guarantee_holds_for_sampled_perturbations():
    R = presentation(3, ("x", "y", "t"))
    f = parse_poly("x*y + t^2", R.ring)
    N = stability_threshold(R, (f,), 1)
    brackets = [parse_poly(s, R.ring) for s in ("x^3", "y^3", "t^3")]
    base = IdealHandle(R.ring, [f] + brackets)
    plan = PerturbationPlan(R, (f,), N, N + 1, 5, 6, (1,),
                            "splitting-monotonicity")
    for eps in sample_epsilons(plan):
        assert ideal_equal(base, IdealHandle(R.ring, [f + eps] + brackets))


def test_threshold_without_the_margin_would_be_wrong():
    R = presentation(2, ("x",))
    x = parse_poly("x", R.ring)
    xx = parse_poly("x^2", R.ring)
    assert m_power_in(IdealHandle(R.ring, [x, xx])) == 1
    assert stability_threshold(R, (x,), 1) == 2
    base = IdealHandle(R.ring, [x, xx])
    # a degree-1 perturbation may cancel the generator outright
    assert not ideal_equal(base, IdealHandle(R.ring, [x + x, xx]))
    # one degree higher it is trapped below the generator
    assert ideal_equal(base, IdealHandle(R.ring, [x + xx, xx]))


def test_threshold_for_generators_of_the_maximal_ideal():
    R = presentation(3, ("x", "y"))
    x, y = parse_poly("x", R.ring), parse_poly("y", R.ring)
    assert stability_threshold(R, (x, y), 1) == 2
    brackets = [parse_poly(s, R.ring) for s in ("x^3", "y^3")]
    base = IdealHandle(R.ring, [x, y] + brackets)
    for e1, e2 in (("y^2", "x^2"), ("2*x^2", "x*y"), ("x*y + y^2", "2*y^2")):
        pert = IdealHandle(R.ring, [x + parse_poly(e1, R.ring),
                                    y + parse_poly(e2, R.ring)] + brackets)
        assert ideal_equal(base, pert)


def test_threshold_ignores_zero_padding_and_validates_input():
    R = presentation(3, ("x", "y"))
    x = parse_poly("x", R.ring)
    zero = x + parse_poly("2*x", R.ring)
    assert zero.is_zero()
    assert stability_threshold(R, (zero, x), 1) == \
        stability_threshold(R, (x,), 1) == 4
    with pytest.raises(InputError):
        stability_threshold(R, (x,), 0)
    with pytest.raises(InputError):
        stability_threshold(R, (x,), "1")
    with pytest.raises(InputError):
        stability_threshold(R, (parse_poly("x + 1", R.ring),), 1)
    other = Ring(Field(3), ("x", "z"))
    with pytest.raises(InputError):
        stability_threshold(R, (parse_poly("z", other),), 1)


@pytest.mark.parametrize("p,e,text,threshold", [
    (3, 3, "2*x*y + x^3 + 2*t^3", 46),
    (5, 2, "2*x^2 + 4*y^3 + 3*t^4", 48),
], ids=["F3-e3", "F5-e2"])
def test_a_tangent_cone_run_keeps_its_first_key_width(p, e, text, threshold,
                                                      monkeypatch):
    # the homogenized block_order(1) run of the tangent cone queues pairs
    # of degree 64, above C = 63 on its first 6-bit keys, but criterion B
    # drops each of them before it is popped: no restart on 8 bits
    R = presentation(p, ("x", "y", "t"))
    widths = []
    init = engine.PackSpec.__init__

    def spy(self, n, order, w):
        if order.kind == "block":
            widths.append(w)
        init(self, n, order, w)
    monkeypatch.setattr(engine.PackSpec, "__init__", spy)
    assert stability_threshold(R, [parse_poly(text, R.ring)], e) == threshold
    assert widths == [6]


ELEMENT_ENTRY_POINTS = [
    ("presentation", "defining generators",
     lambda R, f: QuotientPresentation(R.ring, [f])),
    ("parameter-check", "parameter candidates",
     lambda R, f: parameter_check(R, [f])),
    ("threshold", "elements", lambda R, f: stability_threshold(R, [f], 1)),
    ("plan-targets", "targets",
     lambda R, f: PerturbationPlan(R, (f,), 2, 3, 1, 1, (1,),
                                   "splitting-monotonicity")),
]


@pytest.mark.parametrize("what,call", [e[1:] for e in ELEMENT_ENTRY_POINTS],
                         ids=[e[0] for e in ELEMENT_ENTRY_POINTS])
def test_elements_of_the_maximal_ideal_follow_one_rule(what, call):
    R = presentation(3, ("x", "y"))
    want = (f"{what} must be polynomials of GF(3)[x, y] in the maximal "
            "ideal at the origin")
    unit_offset = parse_poly("x + 1", R.ring)
    foreign = parse_poly("x*z", Ring(Field(3), ("x", "z")))
    for f in (unit_offset, foreign):
        with pytest.raises(InputError) as err:
            call(R, f)
        assert str(err.value) == want


# -- splitting-constancy ----------------------------------------------------------


def node_plan(N, seed=5, samples=3):
    R = presentation(2, ("x", "y"))
    f = parse_poly("x*y", R.ring)
    return PerturbationPlan(R, (f,), N, N, samples, seed, (1, 2),
                            "splitting-constancy")


def test_constancy_above_every_threshold_asserts_equality():
    rep = run_experiment(node_plan(7))
    assert rep.thresholds == {1: 3, 2: 7}
    assert rep.verdicts == {"splitting-constancy": "pass",
                            "perturbed-ideal-equality": "pass"}
    assert len(rep.rows) == 6
    assert {(r.sample, r.e) for r in rep.rows} == \
        {(i, e) for i in range(3) for e in (1, 2)}
    assert all(r.verdict == "pass" and r.delta == 0 for r in rep.rows)
    assert rep.failures == ()


def test_constancy_below_every_threshold_is_indeterminate():
    rep = run_experiment(node_plan(2))
    assert rep.thresholds == {1: 3, 2: 7}
    assert rep.verdicts == {"splitting-constancy": "indeterminate"}
    assert all(r.verdict == "unasserted" for r in rep.rows)
    assert any("below every certified threshold" in n for n in rep.notes)


def test_constancy_asserts_only_the_certified_levels():
    rep = run_experiment(node_plan(3))
    verdicts_by_e = {}
    for r in rep.rows:
        verdicts_by_e.setdefault(r.e, set()).add(r.verdict)
    assert verdicts_by_e == {1: {"pass"}, 2: {"unasserted"}}
    assert rep.verdicts["splitting-constancy"] == "pass"
    assert rep.verdicts["perturbed-ideal-equality"] == "pass"


def test_constancy_builds_each_threshold_basis_once(monkeypatch):
    # the README's plan certifies both levels; the threshold ideal
    # J + (f) + m^[q] of each gives the threshold and then every equality
    # check against it, on one engine run
    real = groebner_module.groebner
    runs = []

    def counting(gens, *args, **kwargs):
        runs.append(list(gens))
        return real(gens, *args, **kwargs)

    monkeypatch.setattr(groebner_module, "groebner", counting)
    F2 = Ring(Field(2), ("x", "y"))
    node = parse_poly("x^2 + x*y", F2)
    plane = QuotientPresentation(F2, IdealHandle(F2, []))
    plan = PerturbationPlan(plane, (node,), 7, 8, 3, 7, (1, 2),
                            "splitting-constancy")
    rep = run_experiment(plan)
    assert rep.thresholds == {1: 3, 2: 7}
    assert rep.verdicts == {"splitting-constancy": "pass",
                            "perturbed-ideal-equality": "pass"}
    for q in (2, 4):
        ideal = [node, parse_poly(f"x^{q}", F2), parse_poly(f"y^{q}", F2)]
        assert sum(gens == ideal for gens in runs) == 1


def test_two_runs_of_one_plan_give_identical_reports():
    a = run_experiment(node_plan(7, samples=6))
    b = run_experiment(node_plan(7, samples=6))
    assert a.rows == b.rows
    assert a.verdicts == b.verdicts
    assert a.thresholds == b.thresholds
    assert a.failures == b.failures
    assert a.notes == b.notes


# -- splitting-monotonicity --------------------------------------------------------


def test_monotonicity_reports_honest_failures_below_the_threshold():
    # a degree-1 perturbation can smooth the crossing: xy + 2x cuts out
    # x(y + 2), one branch through the origin, and the splitting number
    # jumps from 1 to 3
    R = presentation(3, ("x", "y"))
    plan = PerturbationPlan(R, (parse_poly("x*y", R.ring),), 1, 1, 4, 3,
                            (1,), "splitting-monotonicity")
    rep = run_experiment(plan)
    assert rep.verdicts == {"splitting-monotonicity": "fail"}
    got = [(r.epsilon, r.base, r.perturbed, r.verdict) for r in rep.rows]
    assert got == [("0", 1, 1, "pass"), ("0", 1, 1, "pass"),
                   ("2*x", 1, 3, "fail"), ("2*x", 1, 3, "fail")]


def test_monotonicity_passes_at_a_certified_neighborhood():
    R = presentation(2, ("x", "y"))
    plan = PerturbationPlan(R, (parse_poly("x*y", R.ring),), 3, 3, 4, 9,
                            (1,), "splitting-monotonicity")
    rep = run_experiment(plan)
    assert rep.verdicts == {"splitting-monotonicity": "pass"}
    assert [(r.base, r.perturbed) for r in rep.rows] == [(1, 1)] * 4


# -- continuity modes --------------------------------------------------------------


def hk_node_plan(tolerance=None):
    R = presentation(3, ("x", "y"))
    return PerturbationPlan(R, (parse_poly("x*y", R.ring),), 2, 2, 2, 17,
                            (1, 2), "hk-continuity", tolerance=tolerance)


def test_continuity_with_two_levels_has_zero_default_tolerance():
    # the extrapolation spread vanishes on a two-row series, so the
    # default tolerance is exact equality at the deep level; sample 0
    # degenerates the crossing into a double line and honestly fails
    rep = run_experiment(hk_node_plan())
    assert rep.verdicts == {"hk-continuity": "fail"}
    got = [(r.sample, r.epsilon, r.e, r.base, r.perturbed, r.delta,
            r.verdict) for r in rep.rows]
    assert got == [
        (0, "2*x*y + y^2", 1, Fraction(5, 3), Fraction(2), Fraction(1, 3),
         "observed"),
        (0, "2*x*y + y^2", 2, Fraction(17, 9), Fraction(2), Fraction(1, 9),
         "fail"),
        (1, "x*y + y^2", 1, Fraction(5, 3), Fraction(5, 3), Fraction(0),
         "observed"),
        (1, "x*y + y^2", 2, Fraction(17, 9), Fraction(17, 9), Fraction(0),
         "pass"),
    ]
    assert rep.notes == \
        ("hypothesis verified: target is a squarefree hypersurface",)


def test_an_int_tolerance_is_reported_as_a_fraction():
    # a job file passes a Fraction; a library caller's int renders the same
    a = run_experiment(hk_node_plan(tolerance=1))
    b = run_experiment(hk_node_plan(tolerance=Fraction(1)))
    assert type(a.reproducibility["tolerance"]) is Fraction
    assert ReportDocument("perturb", a, {}).to_json() == \
        ReportDocument("perturb", b, {}).to_json()


def test_continuity_passes_under_an_explicit_tolerance():
    rep = run_experiment(hk_node_plan(tolerance=Fraction(1)))
    assert rep.verdicts == {"hk-continuity": "pass"}
    assert rep.reproducibility == {
        "seed": 17, "prng": "splitmix64", "mode": "hk-continuity",
        "neighborhood": 2, "degree_cap": 2, "samples": 2,
        "e_range": [1, 2], "tolerance": Fraction(1),
    }


def test_hypothesis_notes_flag_unverified_targets():
    R = presentation(2, ("x", "y"))
    plan = PerturbationPlan(R, (parse_poly("x^2", R.ring),), 3, 3, 1, 1,
                            (1, 2), "fsig-continuity",
                            tolerance=Fraction(10))
    assert run_experiment(plan).notes == \
        ("hypothesis unchecked: squarefreeness test failed for the target "
         "hypersurface",)
    plan2 = PerturbationPlan(R, (parse_poly("x", R.ring),
                                 parse_poly("y", R.ring)), 3, 3, 1, 1,
                             (1, 2), "fsig-continuity",
                             tolerance=Fraction(10))
    assert run_experiment(plan2).notes == \
        ("hypothesis unchecked: presentation is not a single hypersurface "
         "in a regular ambient ring",)


def test_per_sample_failures_are_recorded_and_the_run_continues():
    R = presentation(2, ("x", "y", "t"), limits=Limits(max_basis=6))
    plan = PerturbationPlan(R, (parse_poly("x*y", R.ring),), 2, 5, 4, 0,
                            (1, 2), "hk-continuity", tolerance=Fraction(2))
    rep = run_experiment(plan)
    assert {(r.sample, r.e) for r in rep.rows} == \
        {(i, e) for i in range(4) for e in (1, 2)}
    ok = [r for r in rep.rows if r.sample == 0]
    assert [r.verdict for r in sorted(ok, key=lambda r: r.e)] == \
        ["observed", "pass"]
    broken = [r for r in rep.rows if r.sample != 0]
    assert all(r.verdict == "error:limit" for r in broken)
    assert all(r.perturbed is None and r.delta is None and r.base is not None
               for r in broken)
    assert rep.failures == tuple(
        f"sample {i}: basis size exceeds the limit 6" for i in (1, 2, 3))
    assert rep.verdicts == {"hk-continuity": "fail"}


# mode, max_basis, targets, N, degree cap, e_range, failing samples,
# base value per error-row level, verdicts; every plan draws 4 samples
# with seed 0 in F2[x, y, t]
ERROR_PATH_CASES = [
    ("hk-continuity", 7, ("x*y",), 2, 5, (1, 2), (1, 2, 3),
     {1: Fraction(3, 2), 2: Fraction(7, 4)}, {"hk-continuity": "fail"}),
    ("fsig-continuity", 7, ("x*y",), 2, 4, (1, 2), (2,),
     {1: Fraction(1, 2), 2: Fraction(1, 4)}, {"fsig-continuity": "fail"}),
    ("splitting-constancy", 7, ("x*y",), 2, 4, (1, 2), (2,),
     {1: 2, 2: 4}, {"splitting-constancy": "indeterminate"}),
    ("splitting-monotonicity", 7, ("x*y",), 2, 4, (1, 2), (2,),
     {1: 2, 2: 4}, {"splitting-monotonicity": "fail"}),
    ("sop-stability", 4, ("x*y", "t^2"), 2, 4, (1,), (3,),
     {0: True}, {"parameter-stability": "fail"}),
    ("open-question-probe", 7, ("x*y",), 2, 5, (1, 2), (1, 2, 3),
     {1: Fraction(1, 2), 2: Fraction(1, 4)},
     {"open-question-probe": "observed"}),
]


@pytest.mark.parametrize("mode,max_basis,targets,N,cap,e_range,bad,base,"
                         "verdicts", ERROR_PATH_CASES,
                         ids=[c[0] for c in ERROR_PATH_CASES])
def test_every_mode_records_sample_errors_and_grades_them(
        mode, max_basis, targets, N, cap, e_range, bad, base, verdicts):
    R = presentation(2, ("x", "y", "t"), limits=Limits(max_basis=max_basis))
    plan = PerturbationPlan(R, tuple(parse_poly(t, R.ring) for t in targets),
                            N, cap, 4, 0, e_range, mode,
                            tolerance=Fraction(2) if "continuity" in mode
                            else None)
    rep = run_experiment(plan)
    firsts = [e.text() for e in sample_epsilons(plan)]
    assert [r.sample for r in rep.rows] == \
        [i for i in range(4) for _ in base]
    errors = [r for r in rep.rows if r.verdict.startswith("error")]
    assert [(r.sample, r.e, r.base, r.perturbed, r.delta, r.verdict)
            for r in errors] == \
        [(i, e, b, None, None, "error:limit") for i in bad
         for e, b in base.items()]
    assert all(r.epsilon.split("; ")[0] == firsts[r.sample] for r in errors)
    assert len({r.epsilon for r in rep.rows if r.sample == bad[0]}) == 1
    assert rep.failures == tuple(
        f"sample {i}: basis size exceeds the limit {max_basis}" for i in bad)
    assert rep.verdicts == verdicts
    if mode == "open-question-probe":
        assert [o["sample"] for o in rep.observations] == \
            [i for i in range(4) if i not in bad]


def test_certified_constancy_grades_a_sample_error_as_a_failure(monkeypatch):
    # no certified neighbourhood (N >= 4 here) drives a sample past a basis
    # cap that the base series stays under, so the cap is simulated on
    # the series of sample 1
    real = perturb.splitting_series
    calls = []

    def flaky(pres, e_max):
        calls.append(pres)
        if len(calls) == 3:
            raise LimitError("simulated cap")
        return real(pres, e_max)

    monkeypatch.setattr(perturb, "splitting_series", flaky)
    R = presentation(2, ("x", "y", "t"))
    plan = PerturbationPlan(R, (parse_poly("x*y", R.ring),), 4, 5, 3, 0,
                            (1, 2), "splitting-constancy")
    rep = run_experiment(plan)
    assert [(r.sample, r.e, r.base, r.perturbed, r.verdict)
            for r in rep.rows] == [
        (0, 1, 2, 2, "pass"), (0, 2, 4, 4, "unasserted"),
        (1, 1, 2, None, "error:limit"), (1, 2, 4, None, "error:limit"),
        (2, 1, 2, 2, "pass"), (2, 2, 4, 4, "unasserted")]
    assert rep.failures == ("sample 1: simulated cap",)
    assert rep.verdicts == {"splitting-constancy": "fail",
                            "perturbed-ideal-equality": "pass"}


def test_dis_congruence_records_sample_errors_and_grades_them(monkeypatch):
    real = perturb.disc_congruence_check
    calls = []

    def flaky(ext, eps, n_target):
        calls.append(eps)
        if len(calls) == 2:
            raise LimitError("simulated cap")
        return real(ext, eps, n_target)

    monkeypatch.setattr(perturb, "disc_congruence_check", flaky)
    R = presentation(3, ("x", "y"))
    base = Ring(Field(5), ("u",))
    ring = Ring(base.field, ("u", "z"))
    ext = FiniteExtensionPresentation(base, "z", parse_poly("z^2 - u", ring))
    plan = PerturbationPlan(R, (), 3, 3, 3, 13, (1,), "dis-congruence",
                            extension=ext, n_target=1)
    rep = run_experiment(plan)
    got = [(r.sample, r.epsilon, r.e, r.base, r.perturbed, r.delta,
            r.verdict) for r in rep.rows]
    assert got == [(0, "4*u^3*z + 3*u^3", 0, 1, 3, 2, "pass"),
                   (1, "3*u^3*z + 4*u^3", 0, 1, None, None, "error:limit"),
                   (2, "4*u^3*z + 4*u^3", 0, 1, 3, 2, "pass")]
    assert rep.failures == ("sample 1: simulated cap",)
    assert rep.verdicts == {"discriminant-congruence": "fail"}


# -- parameter stability -----------------------------------------------------------


def test_parameter_stability_passes_on_a_stable_sequence():
    R = presentation(3, ("x", "y", "z"), gens=("x*y", "x*z"))
    plan = PerturbationPlan(R, (parse_poly("y", R.ring),), 2, 3, 3, 7, (1,),
                            "sop-stability")
    rep = run_experiment(plan)
    assert rep.verdicts == {"parameter-stability": "pass"}
    assert [(r.e, r.base, r.perturbed, r.verdict) for r in rep.rows] == \
        [(0, True, True, "pass")] * 3


def test_parameter_stability_is_vacuous_when_the_base_fails():
    R = presentation(2, ("x", "y"))
    plan = PerturbationPlan(R, (parse_poly("x", R.ring),
                                parse_poly("x^2", R.ring)), 2, 3, 2, 7,
                            (1,), "sop-stability")
    rep = run_experiment(plan)
    assert rep.verdicts == {"parameter-stability": "indeterminate"}
    assert any("base sequence fails" in n for n in rep.notes)
    assert all(r.base is False for r in rep.rows)


# -- the open-question probe --------------------------------------------------------


def test_probe_records_observations_without_asserting():
    R = presentation(3, ("x", "y"))
    plan = PerturbationPlan(R, (parse_poly("x*y", R.ring),), 2, 2, 2, 11,
                            (1, 2), "open-question-probe")
    rep = run_experiment(plan)
    assert rep.verdicts == {"open-question-probe": "observed"}
    assert all(r.verdict == "observed" for r in rep.rows)
    assert len(rep.observations) == 2
    for obs in rep.observations:
        assert set(obs) == {"sample", "ehk_base", "ehk_perturbed",
                            "ehk_not_increasing", "fsig_base",
                            "fsig_perturbed", "fsig_not_decreasing"}
        assert isinstance(obs["ehk_not_increasing"], bool)
        assert isinstance(obs["fsig_not_decreasing"], bool)
    assert rep.failures == ()


# -- discriminant congruences ------------------------------------------------------


def test_dis_congruence_mode_grades_discriminant_orders():
    R = presentation(3, ("x", "y"))
    base = Ring(Field(5), ("u",))
    ring = Ring(base.field, ("u", "z"))
    ext = FiniteExtensionPresentation(base, "z", parse_poly("z^2 - u", ring))
    plan = PerturbationPlan(R, (), 3, 3, 3, 13, (1,), "dis-congruence",
                            extension=ext, n_target=1)
    rep = run_experiment(plan)
    assert rep.verdicts == {"discriminant-congruence": "pass"}
    got = [(r.sample, r.epsilon, r.base, r.perturbed, r.verdict)
           for r in rep.rows]
    assert got == [(0, "4*u^3*z + 3*u^3", 1, 3, "pass"),
                   (1, "3*u^3*z + 4*u^3", 1, 3, "pass"),
                   (2, "4*u^3*z + 4*u^3", 1, 3, "pass")]
    # the sampler's first draws are exactly the report's perturbations
    assert [e.text() for e in sample_epsilons(plan)] == \
        [r.epsilon for r in rep.rows]
    for eps in sample_epsilons(plan):
        for exps in eps.terms:
            assert exps[-1] < ext.n          # z-degree inside the module
            assert sum(exps[:-1]) >= 3       # base degree in the window
