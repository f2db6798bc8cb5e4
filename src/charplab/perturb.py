"""Deterministic m-adic perturbation experiments.

A plan fixes a presentation, target elements, a neighborhood exponent N,
and a seeded sampler; the harness draws sparse perturbations supported in
degrees >= N, recomputes the chosen invariant for every sample, and grades
the comparisons.  Everything is reproducible bit for bit: the only
randomness is SplitMix64 with a documented draw order, each sample owns an
independent stream derived from (seed, sample index), and reports carry no
wall-clock data.

Draw order per sample (one 64-bit draw per decision, in this order):
  1. term count: 1 + (draw mod 5)
  2. per term:
       a. z-degree: draw mod n        (extension perturbations only)
       b. total degree: N + (draw mod (degree_cap - N + 1))
       c. monomial: draw mod (number of degree-d monomials), unranked with
          the first variable's exponent largest first
       d. coefficient: nonzero scalar code 1 + (draw mod (q - 1))
Terms landing on the same monomial merge additively.

The certified threshold is one more than the minimal M with every
degree-M monomial inside the relevant ideal: perturbation terms of degree
> M lie in (maximal ideal) * (the ideal), so the Nakayama argument at the
origin, combined with triviality away from it, forces the perturbed and
unperturbed ideals to coincide (not merely their colengths).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .discriminant import FiniteExtensionPresentation, disc_congruence_check
from .errors import CharplabError, InputError, InternalError, TimeLimitError
from .groebner import ideal_equal, is_squarefree_hypersurface, m_power_in
from .invariants import (QuotientPresentation, _bracket_gens, ehk_estimate,
                         fsig_estimate, hk_series, parameter_check,
                         splitting_series)
from .poly import Polynomial, Ring

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    """The standard 64-bit mixer: state steps by the golden-gamma constant,
    output is the xor-shift-multiply finalizer of the stepped state."""

    __slots__ = ("state",)

    def __init__(self, state: int):
        self.state = state & MASK64

    def next(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        z = self.state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        if bound <= 0:
            raise InternalError("draw with empty range")
        return self.next() % bound


def stream_for_sample(seed: int, index: int) -> SplitMix64:
    return SplitMix64((seed ^ ((index + 1) * GOLDEN & MASK64)) & MASK64)


MODES = ("hk-continuity", "fsig-continuity", "splitting-constancy",
         "splitting-monotonicity", "sop-stability", "open-question-probe",
         "dis-congruence")


@dataclass(frozen=True)
class PerturbationPlan:
    presentation: QuotientPresentation
    targets: tuple
    N: int
    degree_cap: int
    samples: int
    seed: int
    e_range: tuple
    mode: str
    tolerance: Fraction | None = None
    extension: FiniteExtensionPresentation | None = None
    n_target: int | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise InputError(f"unknown experiment mode '{self.mode}'")
        if not isinstance(self.N, int) or self.N < 1:
            raise InputError("neighborhood exponent N must be >= 1")
        if not isinstance(self.degree_cap, int) or self.degree_cap < self.N:
            raise InputError("degree cap must be at least N")
        if not isinstance(self.samples, int) or self.samples < 1:
            raise InputError("need at least one sample")
        if not isinstance(self.seed, int) or not 0 <= self.seed <= MASK64:
            raise InputError("seed must be a 64-bit unsigned integer")
        tol = self.tolerance
        if tol is not None and (isinstance(tol, bool)
                                or not isinstance(tol, (int, Fraction))
                                or tol < 0):
            raise InputError("tolerance must be an int or a Fraction >= 0")
        e_range = tuple(self.e_range)
        object.__setattr__(self, "e_range", e_range)
        if not e_range:
            raise InputError("e_range must be nonempty")
        for a, b in zip(e_range, e_range[1:]):
            if b <= a:
                raise InputError("e_range must be strictly increasing")
        if any(not isinstance(e, int) or e < 1 for e in e_range):
            raise InputError("e_range entries must be positive integers")
        targets = tuple(self.targets)
        object.__setattr__(self, "targets", targets)
        ring = self.presentation.ring
        if self.mode == "dis-congruence":
            if self.extension is None:
                raise InputError("dis-congruence needs an extension "
                                 "presentation")
            if self.n_target is None or self.n_target < 1:
                raise InputError("dis-congruence needs a positive n_target")
        else:
            if not targets:
                raise InputError("this mode needs at least one target")
            for f in targets:
                if not isinstance(f, Polynomial) or f.ring != ring:
                    raise InputError("targets must live in the presentation "
                                     "ring")
                if f.is_zero() or f.constant_code() != 0:
                    raise InputError("targets must be nonzero elements of "
                                     "the maximal ideal")
        if self.mode in ("hk-continuity", "fsig-continuity",
                         "open-question-probe"):
            if len(self.e_range) < 2:
                raise InputError("estimate modes need at least two e levels")
            for a, b in zip(self.e_range, self.e_range[1:]):
                if b != a + 1:
                    raise InputError("estimate modes need consecutive "
                                     "e levels")


def _count_monomials(n: int, d: int) -> int:
    if n < 1:
        return 0
    return math.comb(d + n - 1, n - 1)


def _unrank_monomial(rank: int, n: int, d: int) -> tuple:
    """rank -> exponent tuple of total degree d; blocks are indexed by the
    first exponent, largest first."""
    if n == 1:
        return (d,)
    for e in range(d, -1, -1):
        block = _count_monomials(n - 1, d - e)
        if rank < block:
            return (e,) + _unrank_monomial(rank, n - 1, d - e)
        rank -= block
    raise InternalError("monomial rank out of range")


def _draw_epsilon(stream: SplitMix64, ring: Ring, N: int, cap: int,
                  z_bound: int | None = None) -> Polynomial:
    field_ = ring.field
    nbase = ring.n - (1 if z_bound is not None else 0)
    nterms = 1 + stream.below(5)
    terms: dict = {}
    for _ in range(nterms):
        zd = stream.below(z_bound) if z_bound is not None else None
        d = N + stream.below(cap - N + 1)
        count = _count_monomials(nbase, d)
        if count <= 0:
            raise InputError("no monomials available in the degree range")
        exps = _unrank_monomial(stream.below(count), nbase, d)
        code = 1 + stream.below(field_.q - 1)
        key = exps + (zd,) if zd is not None else exps
        terms[key] = field_.add(terms.get(key, 0), code)
    return Polynomial(ring, terms)


def _sample_draws(plan: PerturbationPlan, index: int):
    """The perturbations of one sample, drawn lazily from its own stream:
    one per target, or for dis-congruence a single one whose z-degree stays
    below the extension degree."""
    stream = stream_for_sample(plan.seed, index)
    if plan.mode == "dis-congruence":
        ring, z_bound, count = plan.extension.ring, plan.extension.n, 1
    else:
        ring, z_bound, count = plan.presentation.ring, None, len(plan.targets)
    for _ in range(count):
        yield _draw_epsilon(stream, ring, plan.N, plan.degree_cap, z_bound)


def sample_epsilons(plan: PerturbationPlan) -> list:
    """The first perturbation of each sample's stream, in sample order.
    Multi-target experiments keep drawing from the same stream, one
    perturbation per target; the first draw is exactly this list."""
    return [next(_sample_draws(plan, i)) for i in range(plan.samples)]


def stability_threshold(R: QuotientPresentation, fs, e: int) -> int:
    """Smallest certified N: perturbing the listed elements by anything
    supported in degrees >= N leaves the ideal they generate together with
    J and the e-th bracket power of the maximal ideal unchanged.  One more
    than the minimal all-monomials-inside degree, which buys the Nakayama
    margin that makes the guarantee an actual ideal equality."""
    fs = list(fs)
    if not isinstance(e, int) or e < 1:
        raise InputError("Frobenius level e must be a positive integer")
    for f in fs:
        if not isinstance(f, Polynomial) or f.ring != R.ring:
            raise InputError("elements must live in the presentation ring")
        if f.constant_code() != 0:
            raise InputError("elements must lie in the maximal ideal")
    handle = R.defining.with_polys(fs + _bracket_gens(R.ring, e))
    return m_power_in(handle) + 1


@dataclass(frozen=True)
class PerturbationRow:
    sample: int
    epsilon: str
    e: int
    base: object
    perturbed: object
    delta: object
    verdict: str


@dataclass(frozen=True)
class PerturbationReport:
    mode: str
    rows: tuple
    verdicts: dict
    thresholds: dict
    notes: tuple
    failures: tuple
    observations: tuple
    reproducibility: dict


def _run_samples(plan: PerturbationPlan, measure, error_bases) -> tuple:
    """Every sample in order: measure(i, eps), with eps the sample's
    perturbations, returns its rows as (e, base, perturbed, delta, verdict)
    cells plus an outcome.  A CharplabError becomes one error row per
    (e, base) pair of error_bases, a failure line and the outcome None, and
    the run goes on; only a TimeLimitError ends the run.  Returns the rows,
    failures and outcomes."""
    rows: list = []
    failures: list = []
    outcomes: list = []
    for i in range(plan.samples):
        eps = tuple(_sample_draws(plan, i))
        text = "; ".join(e.text() for e in eps)
        try:
            cells, outcome = measure(i, eps)
        except TimeLimitError:
            raise
        except CharplabError as err:
            cells = [(e, base, None, None, f"error:{err.kind}")
                     for e, base in error_bases]
            failures.append(f"sample {i}: {err}")
            outcome = None
        rows.extend(PerturbationRow(i, text, *c) for c in cells)
        outcomes.append(outcome)
    return rows, failures, outcomes


def _hypothesis_notes(plan: PerturbationPlan) -> list:
    if plan.mode not in ("hk-continuity", "fsig-continuity"):
        return []
    J = plan.presentation.defining
    if not J.generators and len(plan.targets) == 1:
        if is_squarefree_hypersurface(plan.targets[0]):
            return ["hypothesis verified: target is a squarefree "
                    "hypersurface"]
        return ["hypothesis unchecked: squarefreeness test failed for the "
                "target hypersurface"]
    return ["hypothesis unchecked: presentation is not a single "
            "hypersurface in a regular ambient ring"]


def run_experiment(plan: PerturbationPlan) -> PerturbationReport:
    dispatch = {
        "hk-continuity": _run_series_mode,
        "fsig-continuity": _run_series_mode,
        "splitting-constancy": _run_splitting_mode,
        "splitting-monotonicity": _run_splitting_mode,
        "sop-stability": _run_sop_mode,
        "open-question-probe": _run_probe_mode,
        "dis-congruence": _run_dis_mode,
    }
    rows, verdicts, thresholds, notes, failures, observations = \
        dispatch[plan.mode](plan)
    repro = {
        "seed": plan.seed,
        "prng": "splitmix64",
        "mode": plan.mode,
        "neighborhood": plan.N,
        "degree_cap": plan.degree_cap,
        "samples": plan.samples,
        "e_range": list(plan.e_range),
        "tolerance": None if plan.tolerance is None else plan.tolerance,
    }
    return PerturbationReport(plan.mode, tuple(rows), verdicts, thresholds,
                              tuple(notes), tuple(failures),
                              tuple(observations), repro)


def _perturbed_presentation(plan: PerturbationPlan, eps_tuple):
    gens = [f + eps for f, eps in zip(plan.targets, eps_tuple)]
    return QuotientPresentation(
        plan.presentation.ring,
        plan.presentation.defining.with_polys(gens))


def _base_presentation(plan: PerturbationPlan) -> QuotientPresentation:
    return QuotientPresentation(
        plan.presentation.ring,
        plan.presentation.defining.with_polys(list(plan.targets)))


def _run_series_mode(plan: PerturbationPlan):
    """hk-continuity / fsig-continuity: compare normalized values at the
    deepest level against a tolerance tied to the estimator's spread."""
    hk = plan.mode == "hk-continuity"
    series_of = hk_series if hk else splitting_series
    e_max = plan.e_range[-1]
    base_series = series_of(_base_presentation(plan), e_max)
    base_est = (ehk_estimate if hk else fsig_estimate)(base_series)
    base_by_e = {r.e: r.normalized for r in base_series.rows}
    tol = plan.tolerance if plan.tolerance is not None \
        else 4 * base_est.spread

    def measure(i: int, eps: tuple):
        series = series_of(_perturbed_presentation(plan, eps), e_max)
        pert_by_e = {r.e: r.normalized for r in series.rows}
        cells = []
        for e in plan.e_range:
            delta = pert_by_e[e] - base_by_e[e]
            verdict = "observed" if e < e_max else \
                "pass" if abs(delta) <= tol else "fail"
            cells.append((e, base_by_e[e], pert_by_e[e], delta, verdict))
        return cells, verdict == "pass"

    rows, failures, outcomes = _run_samples(
        plan, measure, [(e, base_by_e.get(e)) for e in plan.e_range])
    verdict = "pass" if all(outcomes) else "fail"
    return (rows, {plan.mode: verdict}, {}, _hypothesis_notes(plan),
            failures, ())


def _run_splitting_mode(plan: PerturbationPlan):
    """splitting-constancy / splitting-monotonicity on the a_e series."""
    constancy = plan.mode == "splitting-constancy"
    ring = plan.presentation.ring
    e_max = plan.e_range[-1]
    base_series = splitting_series(_base_presentation(plan), e_max)
    base_by_e = {r.e: r.a for r in base_series.rows}
    thresholds: dict = {}
    asserted: dict = {}
    base_ideals: dict = {}
    if constancy:
        for e in plan.e_range:
            q = ring.field.p ** e
            certified = max(
                stability_threshold(plan.presentation, plan.targets, e),
                ring.n * (q - 1) + 1)
            thresholds[e] = certified
            asserted[e] = plan.N >= certified
            if asserted[e]:
                base_ideals[e] = plan.presentation.defining.with_polys(
                    list(plan.targets) + _bracket_gens(ring, e))

    def measure(i: int, eps: tuple):
        pres = _perturbed_presentation(plan, eps)
        series = splitting_series(pres, e_max)
        pert_by_e = {r.e: r.a for r in series.rows}
        sample_ok = all_equal = True
        cells = []
        for e in plan.e_range:
            b, a = base_by_e[e], pert_by_e[e]
            if constancy and not asserted[e]:
                verdict = "unasserted"
            else:
                ok = a == b if constancy else a <= b
                verdict = "pass" if ok else "fail"
                sample_ok = sample_ok and ok
                if constancy:
                    pert_ideal = pres.defining.with_polys(
                        _bracket_gens(ring, e))
                    all_equal = ideal_equal(base_ideals[e], pert_ideal) \
                        and all_equal
            cells.append((e, b, a, a - b, verdict))
        return cells, (sample_ok, all_equal)

    rows, failures, outcomes = _run_samples(
        plan, measure, [(e, base_by_e.get(e)) for e in plan.e_range])
    all_ok = all(o is not None and o[0] for o in outcomes)
    notes: list = []
    verdicts = {}
    if not constancy:
        verdicts["splitting-monotonicity"] = "pass" if all_ok else "fail"
    elif not any(asserted.values()):
        verdicts["splitting-constancy"] = "indeterminate"
        notes.append("neighborhood below every certified threshold; "
                     "equalities recorded but not asserted")
    else:
        all_equal = all(o is None or o[1] for o in outcomes)
        verdicts["splitting-constancy"] = "pass" if all_ok else "fail"
        verdicts["perturbed-ideal-equality"] = \
            "pass" if all_equal else "fail"
        if not all_equal:
            notes.append("certified-threshold ideal equality failed; "
                         "this indicates an internal defect")
    return rows, verdicts, thresholds, notes, failures, ()


def _run_sop_mode(plan: PerturbationPlan):
    """sop-stability: the perturbed sequence must keep dropping dimension."""
    base_ok = parameter_check(plan.presentation, list(plan.targets))
    notes = []
    if not base_ok:
        notes.append("base sequence fails the parameter check; perturbed "
                     "results recorded but the property is vacuous")

    def measure(i: int, eps: tuple):
        ok = parameter_check(plan.presentation,
                             [f + ee for f, ee in zip(plan.targets, eps)])
        return [(0, base_ok, ok, None, "pass" if ok else "fail")], ok

    rows, failures, outcomes = _run_samples(plan, measure, [(0, base_ok)])
    verdict = "indeterminate" if not base_ok else (
        "pass" if all(outcomes) else "fail")
    return rows, {"parameter-stability": verdict}, {}, notes, failures, ()


def _run_probe_mode(plan: PerturbationPlan):
    """open-question-probe: record both conjectured inequalities between
    the base and perturbed limit estimates; never a failing verdict."""
    base_pres = _base_presentation(plan)
    e_max = plan.e_range[-1]
    base_hk = ehk_estimate(hk_series(base_pres, e_max))
    base_split_series = splitting_series(base_pres, e_max)
    base_fsig = fsig_estimate(base_split_series)
    base_by_e = {r.e: r.normalized for r in base_split_series.rows}

    def measure(i: int, eps: tuple):
        pres = _perturbed_presentation(plan, eps)
        pert_hk = ehk_estimate(hk_series(pres, e_max))
        split = splitting_series(pres, e_max)
        pert_fsig = fsig_estimate(split)
        pert_by_e = {r.e: r.normalized for r in split.rows}
        cells = [(e, base_by_e[e], pert_by_e[e], pert_by_e[e] - base_by_e[e],
                  "observed") for e in plan.e_range]
        return cells, {
            "sample": i,
            "ehk_base": base_hk.value,
            "ehk_perturbed": pert_hk.value,
            "ehk_not_increasing": base_hk.value >= pert_hk.value,
            "fsig_base": base_fsig.value,
            "fsig_perturbed": pert_fsig.value,
            "fsig_not_decreasing": base_fsig.value <= pert_fsig.value,
        }

    rows, failures, outcomes = _run_samples(
        plan, measure, [(e, base_by_e.get(e)) for e in plan.e_range])
    observations = [obs for obs in outcomes if obs is not None]
    notes: list = []
    for obs in observations:
        if not obs["ehk_not_increasing"]:
            notes.append(
                f"sample {obs['sample']}: observation contradicting the "
                "conjectured inequality (perturbed ehk estimate exceeds "
                "the base estimate)")
        if not obs["fsig_not_decreasing"]:
            notes.append(
                f"sample {obs['sample']}: observation contradicting the "
                "conjectured inequality (perturbed fsig estimate "
                "below the base estimate)")
    return (rows, {"open-question-probe": "observed"}, {}, notes, failures,
            observations)


def _run_dis_mode(plan: PerturbationPlan):
    """dis-congruence: discriminants before and after an m_A^N perturbation
    must agree to order n_target."""
    def measure(i: int, eps: tuple):
        rep = disc_congruence_check(plan.extension, eps[0], plan.n_target)
        order = rep.order
        delta = None if order is None else order - plan.n_target
        verdict = "pass" if rep.verdict else "fail"
        return [(0, plan.n_target, order, delta, verdict)], rep.verdict

    rows, failures, outcomes = _run_samples(plan, measure,
                                            [(0, plan.n_target)])
    verdict = "pass" if all(outcomes) else "fail"
    return rows, {"discriminant-congruence": verdict}, {}, [], failures, ()
