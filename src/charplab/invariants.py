"""Frobenius-theoretic invariants of quotient rings at the origin.

Everything here is exact: lengths are staircase counts, normalized values
are Fractions, and limit estimates are one-step Richardson extrapolations
(matching the p^{-e} error decay of the underlying sequences) reported
together with a spread instead of a certified error bound.

Splitting numbers are computed by the colon-ideal formula.  For a principal
defining ideal (g) the whole series a_1, ..., a_emax comes out of one chain

    C_1 = (m^[p] : g^(p-1)),   C_i = (C_{i-1}^[p] : g^(p-1)),

which satisfies C_e = (m^[p^e] : g^(p^e - 1)) because bracket powers commute
with colon by a p-th power (flatness of Frobenius over the regular ambient),
and a_e = colength(C_e) by duality in the Gorenstein artinian quotient by
m^[p^e].  Each chain step colons by the fixed small polynomial g^(p-1),
which keeps the Groebner workload flat as e grows.  Level e colons
C_{e-1}^[p], which contains m^[p^e] as C_i contains C_{i-1}^[p] and C_0 = m;
(I : f) = (I : f - t) for t in I, so each level first reads g^(p-1) mod
m^[p^e], its terms with every exponent below p^e (none: the unit ideal).
The last level needs only a length: A/(0 : f) is isomorphic to fA in the
artinian A = S/I, so l(S/(I : f)) = l(S/I) - l(S/(I + (f))), and
l(S/C^[p]) = p^n l(S/C) by Kunz's flatness theorem (Amer. J. Math. 91,
1969).  So for I = C_{e-1}^[p] a_e = p^n a_{e-1} - l(S/(I + (r))),
r = g^(p-1) mod I: the leading exponents of one grevlex run, stopped at
the minimal basis.
When g has a term of degree 1, S/(g) is regular at the origin, so F_*^e is
free of rank q^(n-1) there (Kunz, loc. cit.): a_e = q^(n-1), no basis needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InternalError
from .field import _as_list, _at_least, _of_type
from .groebner import (GroebnerBasis, IdealHandle, Limits, Staircase,
                       _tangent_cone, colon, colon_by_basis, frobenius_power,
                       krull_dim, staircase_of)
from .orders import GREVLEX
from .poly import Polynomial, Ring


def _maximal_elements(ring: Ring, fs, what: str) -> tuple:
    """fs as a tuple, after checking that each is a polynomial of `ring`
    with constant code 0: the one rule for the elements of a presentation's
    maximal ideal at the origin that a caller hands in."""
    fs = _as_list(fs, what)
    if not all(isinstance(f, Polynomial) and f.ring == ring
               and not f.constant_code() for f in fs):
        raise InputError(f"{what} must be polynomials of {ring!r} in the "
                         "maximal ideal at the origin")
    return fs


class QuotientPresentation:
    """An ambient polynomial ring S together with a defining ideal J
    contained in the irrelevant maximal ideal; dim is cached once."""

    __slots__ = ("ring", "defining", "dim")

    def __init__(self, ring: Ring, defining):
        _of_type(ring, "ring", Ring)
        if isinstance(defining, IdealHandle):
            if defining.ring != ring:
                raise InputError("defining ideal lives in a different ring")
            _maximal_elements(ring, defining.generators, "defining generators")
            handle = defining
        else:
            handle = IdealHandle(ring, _maximal_elements(
                ring, defining, "defining generators"))
        self.ring = ring
        self.defining = handle
        self.dim = krull_dim(handle)

    @property
    def limits(self) -> Limits:
        return self.defining.limits


@dataclass(frozen=True)
class HKRow:
    e: int
    q: int
    length: int
    normalized: Fraction


@dataclass(frozen=True)
class HKSeries:
    p: int
    d: int
    rows: tuple


@dataclass(frozen=True)
class SplittingRow:
    e: int
    q: int
    a: int
    normalized: Fraction


@dataclass(frozen=True)
class SplittingSeries:
    p: int
    d: int
    rows: tuple


@dataclass(frozen=True)
class NuRow:
    e: int
    q: int
    nu: int
    lower: Fraction
    upper: Fraction


@dataclass(frozen=True)
class NuSeries:
    p: int
    rows: tuple


@dataclass(frozen=True)
class Estimate:
    value: Fraction
    spread: Fraction
    flagged: bool


@dataclass(frozen=True)
class ConvergenceDiagnostic:
    devs: tuple
    constant: Fraction


def _bracket_gens(ring: Ring, e: int) -> list[Polynomial]:
    """The generators x_i^(p^e) of the e-th bracket power of the maximal
    ideal."""
    q = ring.field.p ** e
    return [ring.monomial(tuple(q if j == i else 0 for j in range(ring.n)))
            for i in range(ring.n)]


def _mod_bracket(f: Polynomial, q: int) -> Polynomial:
    """f modulo the bracket power m^[q]: the terms of f with every exponent
    below q (membership in a monomial ideal is termwise)."""
    return Polynomial(f.ring, {k: v for k, v in f.terms.items()
                               if max(k) < q})


def hk_length(R: QuotientPresentation, e: int) -> int:
    """Colength of J + the e-th bracket power of the maximal ideal."""
    _at_least(e, 1, "Frobenius level e")
    _of_type(R, "presentation", QuotientPresentation)
    return R.defining.basis(GREVLEX).extend_staircase(
        _bracket_gens(R.ring, e), R.limits).count()


def hk_series(R: QuotientPresentation, e_max: int) -> HKSeries:
    _at_least(e_max, 2, "e_max")
    p = _of_type(R, "presentation", QuotientPresentation).ring.field.p
    d = R.dim
    rows = []
    prev = 0
    for e in range(1, e_max + 1):
        q = p ** e
        length = hk_length(R, e)
        if length <= 0 or length < prev:
            raise InternalError("lengths must be positive and nondecreasing")
        prev = length
        rows.append(HKRow(e, q, length, Fraction(length, q ** d)))
    return HKSeries(p, d, tuple(rows))


def _richardson(pairs: list, p: int) -> Estimate:
    """One extrapolation step est_e = (p f_{e+1} - f_e)/(p - 1) on a run of
    consecutive normalized values; returns the last estimate, the spread
    against the previous one, and a flag when only one estimate exists."""
    if len(pairs) < 2:
        raise InputError("estimate needs at least two rows (e_max >= 2)")
    for (e0, _), (e1, _) in zip(pairs, pairs[1:]):
        if e1 != e0 + 1:
            raise InputError("estimate needs consecutive levels")
    ests = [(pairs[i + 1][0] - 1,
             (p * pairs[i + 1][1] - pairs[i][1]) / (p - 1))
            for i in range(len(pairs) - 1)]
    value = ests[-1][1]
    if len(ests) >= 2:
        return Estimate(value, abs(value - ests[-2][1]), False)
    return Estimate(value, Fraction(0), True)


def ehk_estimate(series: HKSeries | SplittingSeries) -> Estimate:
    """The limit estimate of an HK or a splitting series."""
    _of_type(series, "series", HKSeries, SplittingSeries)
    return _richardson([(r.e, r.normalized) for r in series.rows], series.p)


fsig_estimate = ehk_estimate


def convergence_diagnostic(series, d: int) -> ConvergenceDiagnostic:
    """Per-step deviations |v_{e+1} - p^d v_e| / p^{e(d-1)} and their max."""
    _at_least(d, 0, "dimension d")
    rows = _of_type(series, "series", HKSeries, SplittingSeries).rows
    if len(rows) < 2:
        raise InputError("diagnostic needs at least two rows")
    p = series.p
    vals = [(r.e, r.length if isinstance(r, HKRow) else r.a) for r in rows]
    devs = []
    for (e0, v0), (e1, v1) in zip(vals, vals[1:]):
        if e1 != e0 + 1:
            raise InputError("diagnostic needs consecutive levels")
        dev = Fraction(abs(v1 - p ** d * v0)) / Fraction(p) ** (e0 * (d - 1))
        devs.append((e0, dev))
    constant = max(dev for _, dev in devs)
    return ConvergenceDiagnostic(tuple(devs), constant)


# -- splitting numbers ---------------------------------------------------------

def _count_or_zero(st: Staircase) -> int:
    """Count of a splitting step's staircase, 0 for the unit ideal."""
    if st.dimension() > 0:
        raise InternalError("splitting colon failed to be zero-dimensional")
    return st.count()


def _principal_splitting_chain(R: QuotientPresentation,
                               e_max: int) -> list:
    """a_1..a_emax for J = (g): a colon at every level but the last,
    which reads a_e = p^n a_{e-1} - l(S/(I + (r))) with a_0 = 1 (Kunz; see
    the module docstring).  A zero r leaves l(S/I), so a_e = 0."""
    ring = R.ring
    p = ring.field.p
    g = R.defining.generators[0]
    current = _bracket_gens(ring, 1)
    mult = g ** (p - 1)
    out = [1]
    for e in range(1, e_max):
        r = _mod_bracket(mult, p ** e)
        elems = [ring.one] if r.is_zero() else \
            colon_by_basis(current, ring, r, R.limits)
        out.append(_count_or_zero(staircase_of(
            GroebnerBasis(ring, GREVLEX, elems))))
        current = [h.frobenius_pow(1) for h in elems]
    base = GroebnerBasis(ring, GREVLEX, current)
    st = base.extend_staircase(
        [base.normal_form(_mod_bracket(mult, p ** e_max))], R.limits)
    out.append(p ** ring.n * out[-1] - _count_or_zero(st))
    return out[1:]


def _colon_splitting_count(R: QuotientPresentation, e: int) -> int:
    """a_e by the literal colon formula for arbitrary J."""
    ring = R.ring
    quotient = colon(frobenius_power(R.defining, e), R.defining)
    st = quotient.basis(GREVLEX).extend_staircase(_bracket_gens(ring, e),
                                                  R.limits)
    return ring.field.p ** (e * ring.n) - _count_or_zero(st)


def _splitting_values(R: QuotientPresentation, first: int,
                      last: int) -> list:
    """a_first, ..., a_last: q^(n - len(J)) when J = 0 or J = (g) with a
    degree-1 term (S/J regular), the chain for any other principal J (run
    from e = 1 whatever first is), and the colon formula otherwise."""
    ring = R.ring
    levels = range(first, last + 1)
    gens = R.defining.generators
    if len(gens) <= 1 and all(1 in map(sum, g.terms) for g in gens):
        return [ring.field.p ** (e * (ring.n - len(gens))) for e in levels]
    if len(gens) == 1:
        return _principal_splitting_chain(R, last)[first - 1:]
    return [_colon_splitting_count(R, e) for e in levels]


def splitting_number(R: QuotientPresentation, e: int) -> int:
    """Rank of the largest free summand of the e-th Frobenius pushforward."""
    _at_least(e, 1, "Frobenius level e")
    _of_type(R, "presentation", QuotientPresentation)
    return _splitting_values(R, e, e)[0]


def splitting_series(R: QuotientPresentation, e_max: int) -> SplittingSeries:
    _at_least(e_max, 1, "e_max")
    p = _of_type(R, "presentation", QuotientPresentation).ring.field.p
    d = R.dim
    rows = []
    for e, a in enumerate(_splitting_values(R, 1, e_max), start=1):
        q = p ** e
        if not 0 <= a <= q ** d:
            raise InternalError("splitting number out of range")
        rows.append(SplittingRow(e, q, a, Fraction(a, q ** d)))
    return SplittingSeries(p, d, tuple(rows))


# -- Hilbert-Samuel multiplicity -----------------------------------------------

def hs_multiplicity(R: QuotientPresentation) -> int:
    """The Hilbert-Samuel multiplicity of R at the origin, d! times the
    leading coefficient of s -> l(R/m^s) for d the local dimension: that of
    the tangent cone gr_m(R), a sum over its top-dimensional minimal primes
    by the associativity formula (Staircase.multiplicity)."""
    _of_type(R, "presentation", QuotientPresentation)
    return _tangent_cone(R.defining).multiplicity()


# -- nu invariants and the splitting-threshold interval ------------------------

def nu_series(f: Polynomial, e_max: int) -> NuSeries:
    """nu_e = max t with f^t outside m^[p^e], for e = 1..e_max, from one
    carried power h = f^nu mod m^[q] and no basis computation.  Frobenius
    sends m^[q/p] into m^[q], so F(h) = f^(p nu) mod m^[q]; h is then
    multiplied by f, and truncated, while nonzero: at most p - 1 times, as
    f^(nu+1) in m^[q/p] puts f^(p(nu+1)) in m^[q] (Mustata-Takagi-Watanabe).
    Level 1 starts from h = 1, since f in m puts f^p in m^[p]."""
    _at_least(e_max, 1, "e_max")
    if _of_type(f, "f", Polynomial).is_zero():
        raise InputError("nu is undefined for the zero polynomial")
    if f.constant_code() != 0:
        raise InputError("nu needs an element of the maximal ideal")
    p = f.ring.field.p
    h, nu = f.ring.one, 0
    rows = []
    for e in range(1, e_max + 1):
        q = p ** e
        h, nu = h.frobenius_pow(1), p * nu
        while not (nxt := _mod_bracket(h * f, q)).is_zero():
            h, nu = nxt, nu + 1
        rows.append(NuRow(e, q, nu, Fraction(nu, q), Fraction(nu + 1, q)))
    return NuSeries(p, tuple(rows))


def fpt_estimate(series: NuSeries) -> tuple:
    """The bracketing interval [nu_e/q, (nu_e+1)/q] at the deepest level."""
    last = _of_type(series, "series", NuSeries).rows[-1]
    return (last.lower, last.upper)


def parameter_check(R: QuotientPresentation, fs) -> bool:
    """True when each successive element drops the dimension strictly.
    The candidates must be elements of the presentation ring's maximal
    ideal at the origin, which rules out units."""
    _of_type(R, "presentation", QuotientPresentation)
    fs = _maximal_elements(R.ring, fs, "parameter candidates")
    handle = R.defining
    prev = R.dim
    for f in fs:
        handle = handle.with_polys([f])
        d = krull_dim(handle)
        if d >= prev:
            return False
        prev = d
    return True
