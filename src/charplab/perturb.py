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
from .field import _as_list, _at_least, _is_int, _of_type
from .groebner import ideal_equal, is_squarefree_hypersurface, m_power_in
from .invariants import (QuotientPresentation, _bracket_gens,
                         _maximal_elements, ehk_estimate, fsig_estimate,
                         hk_series, parameter_check, splitting_series)
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
        _at_least(self.N, 1, "neighborhood exponent N")
        _at_least(self.degree_cap, self.N, "degree_cap")
        _at_least(self.samples, 1, "samples")
        if not _is_int(self.seed) or not 0 <= self.seed <= MASK64:
            raise InputError("seed must be a 64-bit unsigned integer")
        tol = self.tolerance
        if tol is not None:
            if self.mode not in ("hk-continuity", "fsig-continuity"):
                raise InputError("tolerance needs mode hk-continuity or "
                                 "fsig-continuity")
            if not (_is_int(tol) or isinstance(tol, Fraction)) or tol < 0:
                raise InputError("tolerance must be an int or a Fraction >= 0")
            object.__setattr__(self, "tolerance", Fraction(tol))
        e_range = tuple(_at_least(e, 1, "e_range entry")
                        for e in _as_list(self.e_range, "e_range"))
        object.__setattr__(self, "e_range", e_range)
        if not e_range:
            raise InputError("e_range must be nonempty")
        for a, b in zip(e_range, e_range[1:]):
            if b <= a:
                raise InputError("e_range must be strictly increasing")
        targets = _as_list(self.targets, "targets")
        object.__setattr__(self, "targets", targets)
        ring = _of_type(self.presentation, "presentation",
                        QuotientPresentation).ring
        if self.mode == "dis-congruence":
            if self.extension is None:
                raise InputError("dis-congruence needs an extension "
                                 "presentation")
            _of_type(self.extension, "extension", FiniteExtensionPresentation)
            _at_least(self.n_target, 1, "n_target")
            if targets:
                raise InputError("dis-congruence takes no targets")
        else:
            if self.extension is not None or self.n_target is not None:
                raise InputError("extension and n_target need mode "
                                 "dis-congruence")
            if not targets:
                raise InputError("this mode needs at least one target")
            _maximal_elements(ring, targets, "targets")
            if any(f.is_zero() for f in targets):
                raise InputError("targets must be nonzero")
        if self.mode in ("hk-continuity", "fsig-continuity",
                         "open-question-probe"):
            if len(self.e_range) < 2:
                raise InputError("estimate modes need at least two e levels")
            for a, b in zip(self.e_range, self.e_range[1:]):
                if b != a + 1:
                    raise InputError("estimate modes need consecutive "
                                     "e levels")


def _count_monomials(n: int, d: int) -> int:
    """Monomials of degree d in n >= 1 variables: 1 or more."""
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
        exps = _unrank_monomial(stream.below(_count_monomials(nbase, d)),
                                nbase, d)
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
    return [next(_sample_draws(plan, i))
            for i in range(_of_type(plan, "plan", PerturbationPlan).samples)]


def _threshold(R: QuotientPresentation, fs, e: int) -> tuple:
    """The ideal J + (fs) + m^[p^e] and its stability threshold."""
    _at_least(e, 1, "Frobenius level e")
    _of_type(R, "presentation", QuotientPresentation)
    fs = _maximal_elements(R.ring, fs, "elements")
    handle = R.defining.with_polys([*fs, *_bracket_gens(R.ring, e)])
    return handle, m_power_in(handle) + 1


def stability_threshold(R: QuotientPresentation, fs, e: int) -> int:
    """Smallest certified N: perturbing the listed elements by anything
    supported in degrees >= N leaves the ideal they generate together with
    J and the e-th bracket power of the maximal ideal unchanged.  One more
    than the minimal all-monomials-inside degree, which buys the Nakayama
    margin that makes the guarantee an actual ideal equality."""
    return _threshold(R, fs, e)[1]


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


def _run_samples(plan: PerturbationPlan, bases: dict, measure) -> tuple:
    """Every sample in order: measure(i, eps), with eps the sample's
    perturbations, returns one (perturbed, delta, verdict) cell per level
    of `bases`, the runner's level -> base value table, plus an outcome.  A
    CharplabError becomes an error cell at every level, a failure line and
    the outcome None, and the run goes on; only a TimeLimitError ends the
    run.  Returns the rows, failures and outcomes."""
    rows, failures, outcomes = [], [], []
    for i in range(plan.samples):
        eps = tuple(_sample_draws(plan, i))
        text = "; ".join(e.text() for e in eps)
        try:
            cells, outcome = measure(i, eps)
        except TimeLimitError:
            raise
        except CharplabError as err:
            cells = [(None, None, f"error:{err.kind}")] * len(bases)
            failures.append(f"sample {i}: {err}")
            outcome = None
        rows.extend(PerturbationRow(i, text, e, base, *cell)
                    for (e, base), cell in zip(bases.items(), cells,
                                               strict=True))
        outcomes.append(outcome)
    return rows, failures, outcomes


def _hypothesis_notes(plan: PerturbationPlan) -> list:
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
    rows, verdicts, thresholds, notes, failures, observations = \
        _RUNNERS[_of_type(plan, "plan", PerturbationPlan).mode](plan)
    repro = {
        "seed": plan.seed,
        "prng": "splitmix64",
        "mode": plan.mode,
        "neighborhood": plan.N,
        "degree_cap": plan.degree_cap,
        "samples": plan.samples,
        "e_range": list(plan.e_range),
        "tolerance": plan.tolerance,
    }
    return PerturbationReport(plan.mode, tuple(rows), verdicts, thresholds,
                              tuple(notes), tuple(failures),
                              tuple(observations), repro)


def _presentation(plan: PerturbationPlan, eps=None) -> QuotientPresentation:
    """J plus the targets, each perturbed by its entry of eps if given."""
    gens = plan.targets if eps is None else \
        [f + ee for f, ee in zip(plan.targets, eps)]
    return QuotientPresentation(plan.presentation.ring,
                                plan.presentation.defining.with_polys(gens))


def _run_series_mode(plan: PerturbationPlan):
    """hk-continuity / fsig-continuity: compare normalized values at the
    deepest level against a tolerance tied to the estimator's spread."""
    hk = plan.mode == "hk-continuity"
    series_of = hk_series if hk else splitting_series
    e_max = plan.e_range[-1]
    base_series = series_of(_presentation(plan), e_max)
    base_est = (ehk_estimate if hk else fsig_estimate)(base_series)
    bases = {r.e: r.normalized for r in base_series.rows
             if r.e in plan.e_range}
    tol = plan.tolerance if plan.tolerance is not None \
        else 4 * base_est.spread

    def measure(i: int, eps: tuple):
        series = series_of(_presentation(plan, eps), e_max)
        pert_by_e = {r.e: r.normalized for r in series.rows}
        cells = []
        for e, base in bases.items():
            delta = pert_by_e[e] - base
            verdict = "observed" if e < e_max else \
                "pass" if abs(delta) <= tol else "fail"
            cells.append((pert_by_e[e], delta, verdict))
        return cells, verdict == "pass"

    rows, failures, outcomes = _run_samples(plan, bases, measure)
    verdict = "pass" if all(outcomes) else "fail"
    return (rows, {plan.mode: verdict}, {}, _hypothesis_notes(plan),
            failures, ())


def _run_splitting_mode(plan: PerturbationPlan):
    """splitting-constancy / splitting-monotonicity on the a_e series."""
    constancy = plan.mode == "splitting-constancy"
    ring = plan.presentation.ring
    e_max = plan.e_range[-1]
    base_series = splitting_series(_presentation(plan), e_max)
    bases = {r.e: r.a for r in base_series.rows if r.e in plan.e_range}
    thresholds: dict = {}
    certified: dict = {}    # level -> threshold ideal, where N reaches it
    if constancy:
        for e in plan.e_range:
            ideal, least = _threshold(plan.presentation, plan.targets, e)
            thresholds[e] = max(least, ring.n * (ring.field.p ** e - 1) + 1)
            if plan.N >= thresholds[e]:
                certified[e] = ideal

    def measure(i: int, eps: tuple):
        pres = _presentation(plan, eps)
        series = splitting_series(pres, e_max)
        pert_by_e = {r.e: r.a for r in series.rows}
        sample_ok = all_equal = True
        cells = []
        for e, b in bases.items():
            a = pert_by_e[e]
            if constancy and e not in certified:
                verdict = "unasserted"
            else:
                ok = a == b if constancy else a <= b
                verdict = "pass" if ok else "fail"
                sample_ok = sample_ok and ok
                if constancy:
                    pert_ideal = pres.defining.with_polys(
                        _bracket_gens(ring, e))
                    all_equal = ideal_equal(certified[e], pert_ideal) \
                        and all_equal
            cells.append((a, a - b, verdict))
        return cells, (sample_ok, all_equal)

    rows, failures, outcomes = _run_samples(plan, bases, measure)
    all_ok = all(o is not None and o[0] for o in outcomes)
    notes: list = []
    verdicts = {}
    if not constancy:
        verdicts["splitting-monotonicity"] = "pass" if all_ok else "fail"
    elif not certified:
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
        return [(ok, None, "pass" if ok else "fail")], ok

    rows, failures, outcomes = _run_samples(plan, {0: base_ok}, measure)
    verdict = "indeterminate" if not base_ok else (
        "pass" if all(outcomes) else "fail")
    return rows, {"parameter-stability": verdict}, {}, notes, failures, ()


def _run_probe_mode(plan: PerturbationPlan):
    """open-question-probe: record both conjectured inequalities between
    the base and perturbed limit estimates; never a failing verdict."""
    base_pres = _presentation(plan)
    e_max = plan.e_range[-1]
    base_hk = ehk_estimate(hk_series(base_pres, e_max))
    base_split_series = splitting_series(base_pres, e_max)
    base_fsig = fsig_estimate(base_split_series)
    bases = {r.e: r.normalized for r in base_split_series.rows
             if r.e in plan.e_range}

    def measure(i: int, eps: tuple):
        pres = _presentation(plan, eps)
        pert_hk = ehk_estimate(hk_series(pres, e_max))
        split = splitting_series(pres, e_max)
        pert_fsig = fsig_estimate(split)
        pert_by_e = {r.e: r.normalized for r in split.rows}
        cells = [(pert_by_e[e], pert_by_e[e] - base, "observed")
                 for e, base in bases.items()]
        return cells, {
            "sample": i,
            "ehk_base": base_hk.value,
            "ehk_perturbed": pert_hk.value,
            "ehk_not_increasing": base_hk.value >= pert_hk.value,
            "fsig_base": base_fsig.value,
            "fsig_perturbed": pert_fsig.value,
            "fsig_not_decreasing": base_fsig.value <= pert_fsig.value,
        }

    rows, failures, outcomes = _run_samples(plan, bases, measure)
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
        return [(order, delta, verdict)], rep.verdict

    rows, failures, outcomes = _run_samples(plan, {0: plan.n_target},
                                            measure)
    verdict = "pass" if all(outcomes) else "fail"
    return rows, {"discriminant-congruence": verdict}, {}, [], failures, ()


# the experiment modes, each with its runner
_RUNNERS = {
    "hk-continuity": _run_series_mode,
    "fsig-continuity": _run_series_mode,
    "splitting-constancy": _run_splitting_mode,
    "splitting-monotonicity": _run_splitting_mode,
    "sop-stability": _run_sop_mode,
    "open-question-probe": _run_probe_mode,
    "dis-congruence": _run_dis_mode,
}
MODES = tuple(_RUNNERS)
