"""Ideal algebra on top of the Buchberger engine.

IdealHandle is the unit of sharing: generators plus a per-order cache of
reduced Groebner bases.  A known basis grows only through
GroebnerBasis.extend, one engine run that takes it as a known prefix.
All the classical constructions live here as module-level functions:
membership, equality, intersection (tag variable), colon, elimination,
bracket powers of Frobenius, combinatorial Krull dimension, staircase
counts, minimal m-power inclusion, subalgebra presentations, and the
squarefreeness test for hypersurfaces.

A staircase is counted by slicing along the last variable (Bruns-Herzog,
Sec. 4.6) in one sweep over its corners sorted by last exponent, which
carries the plain list of the corners below the cut: never a minimal set,
since a divisible corner removes no standard monomial.  Its Hilbert
function comes out of the same slicing as n-th differences, kept sparse:
a run lo <= x_n < hi of equal slices adds the slice's (n-1)-th
differences shifted to lo, and subtracts them shifted to hi.

Elimination is one engine run under a block order: its final pass keeps
the reduced basis elements free of the first block, which by the
Elimination Theorem form the reduced basis of the elimination ideal.

Colon ideals get special care because perturbation experiments and
splitting chains hammer them.  A colon step stays in the ring's own
variables (engine.colon_basis): one run on I's basis and f tracks each new
element's cofactor, the pairs that reduce to zero give (I : f) beyond I,
and a second run extends I's basis by them.  Both skip every pair inside
I's basis, a known-basis prefix.

One tangent cone gr_m(S/I) serves m_power_in and the multiplicity.  Its
staircase is I's under a local degree order, read off one ordinary engine
run by Lazard's homogenization: with a variable h in front, block_order(1)
compares two homogeneous polynomials' terms by the power of h first, that
is by the lowest x-degree, and then by grevlex on x, so the basis of the
homogenized generators dehomogenizes to a standard basis of I
(Greuel-Pfister, A Singular Introduction to Commutative Algebra, ch. 1, 5).
The cone's count is the length of S/I at the origin alone, and the Loewy
length of an I primary to the origin is one past its top degree (Nakayama:
gr_m(S/I) is generated in degree 1).

That run stops short of a full basis.  Let M be the monomial ideal of the
x-parts (h set to 1) of the leading terms found so far, and D the least
degree with m^D inside M, once every variable has a pure power in M.  The
run drops every pair whose lcm has x-degree (total degree less the power
of h) D or more, and M is exact all the same.  Every polynomial in the run
is homogeneous, and a leading term has the least x-degree of its terms.  A
reduced S(i, j) leads with a term below lcm(i, j), so with no more h and
no lower x-degree, and every pair formed later with it has an lcm that its
leading term divides.  Putting off the dropped pairs to the end would thus
add only leading terms whose x-parts lie in m^D, which is inside M.  The
criteria drop a pair only for pairs whose lcms divide its own, of no
higher x-degree, and D never rises, so an earlier D is a safe cut too.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import accumulate
from operator import itemgetter

from .engine import (DEFAULT_LIMITS, Limits, colon_basis, exact_quotient,
                     groebner, initial_exponents, normal_forms)
from .errors import InputError, InternalError
from .field import _as_list, _at_least, _is_int, _of_type
from .orders import GREVLEX, MonomialOrder, block_order
from .poly import Polynomial, Ring


def _polys_of(ring: Ring, polys, what: str) -> tuple:
    """The nonzero ones of polys as a tuple, each checked to be a
    polynomial of the Ring: the one place where zeros are dropped."""
    _of_type(ring, "ring", Ring)
    polys = _as_list(polys, f"{what}s")
    for f in polys:
        if _of_type(f, what, Polynomial).ring != ring:
            raise InputError(f"{what}s live in different rings")
    return tuple(f for f in polys if not f.is_zero())


class GroebnerBasis:
    """A reduced basis under one order, with its zero elements dropped;
    `extend` is the only way to grow it.  No reduction checks what it was
    given, and each one prepares the basis anew in the engine."""

    __slots__ = ("ring", "order", "elements", "_staircase")

    def __init__(self, ring: Ring, order: MonomialOrder,
                 elements: list[Polynomial]):
        self.elements = _polys_of(ring, elements, "basis element")
        self.ring = ring
        self.order = _of_type(order, "order", MonomialOrder)
        self._staircase: Staircase | None = None

    def normal_form(self, f: Polynomial) -> Polynomial:
        """Fully reduced remainder of f; zero iff f lies in the ideal."""
        if _of_type(f, "polynomial", Polynomial).ring != self.ring:
            raise InputError("polynomial lives in a different ring")
        return normal_forms(self.elements, [f], self.ring, self.order)[0]

    def extend(self, extra, limits: Limits = DEFAULT_LIMITS) -> GroebnerBasis:
        """Reduced basis of these elements plus `extra`: one engine run
        that skips every pair inside the known prefix."""
        gens = [*self.elements, *_polys_of(self.ring, extra, "basis element")]
        return GroebnerBasis(self.ring, self.order, groebner(
            gens, self.ring, self.order, _of_type(limits, "limits", Limits),
            gb_prefix=len(self.elements)))

    def extend_staircase(self, extra,
                         limits: Limits = DEFAULT_LIMITS) -> Staircase:
        """Staircase of `extend(extra)`, read off the minimal basis."""
        gens = [*self.elements, *_polys_of(self.ring, extra, "basis element")]
        return Staircase(initial_exponents(
            gens, self.ring, self.order, _of_type(limits, "limits", Limits),
            gb_prefix=len(self.elements)), self.ring.n)

    def leading_exponents(self) -> list[tuple[int, ...]]:
        return [max(g.terms, key=self.order.key) for g in self.elements]

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


class IdealHandle:
    """Generators plus a lazily filled per-order basis cache."""

    __slots__ = ("ring", "generators", "limits", "_cache")

    def __init__(self, ring: Ring, generators, limits: Limits = DEFAULT_LIMITS):
        self.generators = _polys_of(ring, generators, "ideal generator")
        self.ring = ring
        self.limits = _of_type(limits, "limits", Limits)
        self._cache: dict[MonomialOrder, GroebnerBasis] = {}

    def basis(self, order: MonomialOrder = GREVLEX) -> GroebnerBasis:
        got = self._cache.get(_of_type(order, "order", MonomialOrder))
        if got is not None:
            return got
        gb = GroebnerBasis(self.ring, order, []).extend(self.generators,
                                                        self.limits)
        if not all(r.is_zero() for r in normal_forms(
                gb.elements, self.generators, self.ring, order)):
            raise InternalError("a generator fails to reduce to zero "
                                "against its own basis")
        return self._cache.setdefault(order, gb)

    def seed_cache(self, gb: GroebnerBasis) -> None:
        self._cache.setdefault(gb.order, gb)

    def with_polys(self, polys) -> "IdealHandle":
        return IdealHandle(self.ring, self.generators + tuple(polys),
                           self.limits)

    def __repr__(self) -> str:
        inside = ", ".join(g.text() for g in self.generators) or "0"
        return f"ideal({inside})"


def groebner_basis(I: IdealHandle, order: MonomialOrder = GREVLEX) -> GroebnerBasis:
    return _of_type(I, "ideal", IdealHandle).basis(order)


def normal_form(f: Polynomial, G: GroebnerBasis) -> Polynomial:
    return _of_type(G, "basis", GroebnerBasis).normal_form(f)


def _common_ring(I: IdealHandle, J: IdealHandle) -> Ring:
    """The ring of two ideals a caller hands in, which must be one ring."""
    if _of_type(I, "ideal", IdealHandle).ring != _of_type(
            J, "ideal", IdealHandle).ring:
        raise InputError("ideals live in different rings")
    return I.ring


def ideal_equal(I: IdealHandle, J: IdealHandle,
                order: MonomialOrder = GREVLEX) -> bool:
    _common_ring(I, J)
    return I.basis(order).elements == J.basis(order).elements


# -- intersection, colon, elimination -----------------------------------------

def _fresh_name(name: str, taken) -> str:
    """`name` with underscores prefixed until it is not in `taken`: the
    one rule for the names of variables the library adds to a ring."""
    while name in taken:
        name = "_" + name
    return name


def _lift(f: Polynomial, target: Ring, front: bool = True) -> Polynomial:
    """f in a ring with more variables, its exponents padded with zeros in
    front or at the back."""
    pad = (0,) * (target.n - f.ring.n)
    return Polynomial(target, {pad + e if front else e + pad: c
                               for e, c in f.terms.items()})


def eliminate(I: IdealHandle, k: int) -> IdealHandle:
    """I intersected with the subring on the last n-k variables: one
    engine run under block_order(k), whose final pass keeps the part of
    the reduced basis free of the first k variables."""
    target = _of_type(I, "ideal", IdealHandle).ring.drop_front(k)
    kept = [Polynomial(target, {e[k:]: c for e, c in g.terms.items()})
            for g in groebner(list(I.generators), I.ring, block_order(k),
                              I.limits, elimination=True)]
    # that part is itself reduced, monic, and sorted for grevlex on the
    # remaining variables, so the cache can be seeded directly
    out = IdealHandle(target, kept, I.limits)
    out.seed_cache(GroebnerBasis(target, GREVLEX, kept))
    return out


def intersect(I: IdealHandle, J: IdealHandle) -> IdealHandle:
    """I and J meet, by eliminating a tag variable from w I + (1-w) J."""
    ring = _common_ring(I, J)
    if not I.generators:
        return I
    if not J.generators:
        return J
    ext = ring.extend_front([_fresh_name("_w", ring.variables)])
    w = ext.variable(0)
    gens = [w * _lift(f, ext) for f in I.generators]
    gens += [(ext.one - w) * _lift(g, ext) for g in J.generators]
    inner = IdealHandle(ext, gens, I.limits)
    return eliminate(inner, 1)


def divide_exact(h: Polynomial, f: Polynomial) -> Polynomial:
    """Quotient h/f when the division is exact, read in the engine off the
    steps that reduce h against the one-element basis (f)."""
    ring = _of_type(h, "polynomial", Polynomial).ring
    if _of_type(f, "divisor", Polynomial).ring != ring:
        raise InputError("divisor lives in a different ring")
    if f.is_zero():
        raise InputError("division by the zero polynomial")
    return exact_quotient(h, f, ring)


def colon_by_basis(gb_elements: list[Polynomial], ring: Ring, f: Polynomial,
                   limits: Limits = DEFAULT_LIMITS) -> list[Polynomial]:
    """Reduced grevlex basis of (I : f), where gb_elements is any grevlex
    Groebner basis of I (not necessarily reduced)."""
    _of_type(limits, "limits", Limits)
    if _of_type(f, "multiplier", Polynomial).is_zero():
        raise InputError("colon by the zero polynomial")
    gb = GroebnerBasis(ring, GREVLEX, gb_elements)
    if not gb.elements:
        return []
    # (I : f) = (I : f - r) for any r in I, so replace the multiplier by its
    # normal form first
    f = gb.normal_form(f)
    return [ring.one] if f.is_zero() else \
        colon_basis(list(gb.elements), f, ring, limits)


def _gorenstein_colon_length(gb: GroebnerBasis, r: Polynomial,
                             limits: Limits) -> int:
    """l(S/(I : r)) for gb a homogeneous grevlex basis of an I with S/I
    Gorenstein artinian and r homogeneous of degree delta outside I, from
    half the Hilbert function H of the Gorenstein S/(I : r), whose socle
    degree is s = top(S/I) - delta (see the invariants module docstring).
    H(d) = HF_S/I(d + delta) - HF_S/(I + (r))(d + delta) is read up to
    one degree past s/2, the second term off a run of I + (r) that drops
    every pair above that degree, and symmetry H(d) = H(s - d) gives the
    rest; the one degree past s/2 checks it."""
    st, delta = staircase_of(gb), r.total_degree()
    s = st.max_degree() - delta
    top = delta + s // 2 + 1
    cut = Staircase(initial_exponents(
        [*gb.elements, r], gb.ring, GREVLEX, limits, gb_prefix=len(gb),
        degree_cut=lambda exps: top + 1), gb.ring.n)
    h = [a - b for a, b in zip(st._hilbert(top)[delta:],
                               cut._hilbert(top)[delta:])]
    mirror = s - len(h) + 1     # s - (s // 2 + 1), -1 for s = 0
    if h[-1] != (h[mirror] if mirror >= 0 else 0):
        raise InternalError("the Hilbert function of a Gorenstein colon "
                            "is not symmetric")
    return sum(h[min(d, s - d)] for d in range(s + 1))


def colon(I: IdealHandle, J: IdealHandle) -> IdealHandle:
    """I : J = {g : gJ inside I}, via intersections of single colons."""
    ring = _common_ring(I, J)
    if not J.generators:
        raise InputError("colon by the zero ideal")
    if not I.generators:
        return I
    result: IdealHandle | None = None
    base = I.basis(GREVLEX)
    for f in J.generators:
        part_elems = colon_by_basis(list(base.elements), ring, f, I.limits)
        part = IdealHandle(ring, part_elems, I.limits)
        part.seed_cache(GroebnerBasis(ring, GREVLEX, part_elems))
        result = part if result is None else intersect(result, part)
    return result


def frobenius_power(I: IdealHandle, e: int) -> IdealHandle:
    """The ideal generated by the p^e-th powers of the generators."""
    _at_least(e, 0, "Frobenius power index")
    _of_type(I, "ideal", IdealHandle)
    return IdealHandle(I.ring, [f.frobenius_pow(e) for f in I.generators],
                       I.limits)


# -- dimension and staircases --------------------------------------------------

def _minimalize(corners) -> frozenset:
    """The corners no other corner divides: a divisor has a smaller degree,
    so each corner is checked against the ones kept before it."""
    kept: list[tuple[int, ...]] = []
    for c in sorted(set(corners), key=sum):
        if not any(all(a <= b for a, b in zip(k, c)) for k in kept):
            kept.append(c)
    return frozenset(kept)


_INFINITE = "staircase is infinite (dimension > 0)"


class Staircase:
    """The complement of a monomial ideal given by the exponents of its
    generators, kept sorted by last exponent for the sweeps; `corners`,
    their minimal set, is found when read.  `dimension` is the Krull
    dimension of the quotient.  `count` and `max_degree` share one cached
    sweep, which raises InputError on an infinite staircase and gives
    (0, -1) for the unit ideal.  `count_degree` and `_hilbert` read the
    Hilbert function off another, of any staircase."""

    __slots__ = ("n", "_given", "_sums", "_diffs")

    def __init__(self, corners, n: int):
        corners = _as_list(corners, "corners")
        _at_least(n, 1, "variable count")
        if not all(type(c) is tuple and len(c) == n and all(
                type(e) is int and e >= 0 for e in c) for c in corners):
            raise InputError(f"corners must be {n}-tuples of nonnegative ints")
        self.n, self._given = n, sorted(set(corners), key=itemgetter(-1))
        self._sums: tuple[int, int] | None = None   # (count, max_degree)
        self._diffs: dict[int, int] | None = None

    @property
    def corners(self) -> frozenset:
        return _minimalize(self._given)

    def _free_sets(self) -> list[int]:
        """The sets of variables, as bit masks, that contain no corner's
        support; none for the unit ideal (its zero corner has none)."""
        supports = {sum(1 << i for i, e in enumerate(c) if e)
                    for c in self._given}
        return [mask for mask in range(1 << self.n)
                if all(s & ~mask for s in supports)]

    def dimension(self) -> int:
        """Size of the largest free set; -1 for the unit ideal."""
        return max((mask.bit_count() for mask in self._free_sets()),
                   default=-1)

    def multiplicity(self) -> int:
        """e(S/L) by the associativity formula (Bruns-Herzog, Cor. 4.7.8):
        each free set of size d, a minimal prime of top dimension, adds the
        count of the staircase left in the other n - d variables after its
        own are set to 1, which is finite as no larger set is free (and 1
        with no corners); 0 for the unit ideal, which has no free set."""
        d = self.dimension()
        total = 0
        for mask in self._free_sets():
            if mask.bit_count() == d:
                rest = [tuple(e for i, e in enumerate(c) if not mask >> i & 1)
                        for c in self._given]
                rest.sort(key=itemgetter(-1))
                total += Staircase._fold(rest, self.n - d)[0] if rest else 1
        return total

    def count(self) -> int:
        return self._folded()[0]

    def max_degree(self) -> int:
        """Largest total degree of a standard monomial; -1 when empty."""
        return self._folded()[1]

    def _folded(self) -> tuple[int, int]:
        if self._sums is None:
            self._sums = Staircase._fold(self._given, self.n)
        return self._sums

    def count_degree(self, k: int) -> int:
        """Standard monomials of total degree exactly k (any dimension);
        0 for a negative k."""
        if not _is_int(k):
            raise InputError(f"degree must be an integer, got {k!r}")
        return self._hilbert(k)[-1] if k >= 0 else 0

    def _hilbert(self, top: int) -> list[int]:
        """The standard monomials of each total degree 0..top (any
        dimension): the n-th differences, swept once, summed up n times."""
        if self._diffs is None:
            self._diffs = Staircase._diff(self._given, self.n)
        h = [0] * (top + 1)
        for j, v in self._diffs.items():
            if j <= top:
                h[j] += v
        for _ in range(self.n):
            h = list(accumulate(h))
        return h

    @staticmethod
    def _runs(corners: list, n: int):
        """Runs lo <= x_n < hi of equal nonempty slices as (lo, hi, below):
        below is one list, re-sorted in place, of the corners with c[-1] <= lo
        in n - 1 variables; hi is None on an unbounded last run."""
        lo, below = 0, []
        for c in corners:
            if c[-1] > lo:
                below.sort(key=itemgetter(-1))
                yield lo, c[-1], below
                lo = c[-1]
            below.append(c[:-1])
            if not any(below[-1]):
                return
        below.sort(key=itemgetter(-1))
        yield lo, None, below

    @staticmethod
    def _fold(corners: list, n: int) -> tuple[int, int]:
        """(count, max_degree).  A run is unbounded exactly when the
        staircase is infinite, since a finite one has a pure power x_n^b
        and its slices from b up are empty."""
        if n == 1:      # x_1^a is standard for a below the least c[0]
            if not corners:
                raise InputError(_INFINITE)
            return corners[0][0], corners[0][0] - 1
        count, top = 0, -1
        if n == 2:      # row b holds x_1^a, a below the least c[0], c[1] <= b
            if not corners or corners[0][1]:
                raise InputError(_INFINITE)
            lo, least = 0, corners[0][0]
            for a, b in corners:
                if b > lo:
                    count += (b - lo) * least
                    top = max(top, b + least - 2)
                    lo = b
                if a < least:
                    least = a
                if not least:
                    return count, top
            raise InputError(_INFINITE)
        for lo, hi, below in Staircase._runs(corners, n):
            if hi is None:
                raise InputError(_INFINITE)
            c, t = Staircase._fold(below, n - 1)
            count += (hi - lo) * c
            top = max(top, hi - 1 + t)
        return count, top

    @staticmethod
    def _diff(corners: list, n: int) -> dict[int, int]:
        """The n-th differences of the Hilbert function, {degree: value}.
        Slices along x_n as in _fold; an unbounded run or row adds no term
        at its end."""
        out: dict[int, int] = defaultdict(int)
        if n == 1:      # x_1^a is standard for a below the least c[0]
            out[0] += 1
            if corners:
                out[corners[0][0]] -= 1
            return out
        if n == 2:      # rows lo <= b < hi hold x_1^a, a below `least`
            def rows(lo, hi, least):
                out[lo] += 1
                if hi is not None:
                    out[hi] -= 1
                if least is not None:
                    out[lo + least] -= 1
                    if hi is not None:
                        out[hi + least] += 1

            lo, least = 0, None
            for a, b in corners:
                if b > lo:
                    rows(lo, b, least)
                    lo = b
                if least is None or a < least:
                    least = a
                if not least:
                    return out
            rows(lo, None, least)
            return out
        for lo, hi, below in Staircase._runs(corners, n):
            for j, v in Staircase._diff(below, n - 1).items():
                out[lo + j] += v
                if hi is not None:
                    out[hi + j] -= v
        return out


def staircase_of(gb: GroebnerBasis) -> Staircase:
    """The staircase of gb's leading terms, built once per basis."""
    if _of_type(gb, "basis", GroebnerBasis)._staircase is None:
        gb._staircase = Staircase(gb.leading_exponents(), gb.ring.n)
    return gb._staircase


def krull_dim(I: IdealHandle) -> int:
    """Dimension of the quotient by I, combinatorially from leading terms."""
    d = staircase_of(_of_type(I, "ideal", IdealHandle).basis(
        GREVLEX)).dimension()
    if d < 0:
        raise InputError("the unit ideal presents the empty scheme")
    return d


def _zero_dim_staircase(I: IdealHandle) -> Staircase:
    """The staircase of I's grevlex basis, which must be finite and
    nonempty."""
    st = staircase_of(_of_type(I, "ideal", IdealHandle).basis(GREVLEX))
    d = st.dimension()
    if d < 0:
        raise InputError("ideal is not contained in the maximal ideal")
    if d > 0:
        raise InputError("ideal is not zero-dimensional")
    return st


def colength(I: IdealHandle) -> int:
    """Vector-space dimension of the quotient by I, by staircase count."""
    return _zero_dim_staircase(I).count()


def _tangent_cone(I: IdealHandle) -> Staircase:
    """The staircase of the tangent cone gr_m(S/I): the grevlex one when
    that basis is homogeneous, else one run on the homogenized generators
    (see the module docstring)."""
    gb = I.basis(GREVLEX)
    if all(len({sum(k) for k in g.terms}) == 1 for g in gb.elements):
        return staircase_of(gb)
    ring = I.ring
    ext = ring.extend_front([_fresh_name("_h", ring.variables)])
    homs = []
    for f in I.generators:
        d = f.total_degree()
        homs.append(Polynomial(ext, {(d - sum(e),) + e: c
                                     for e, c in f.terms.items()}))
    return Staircase([e[1:] for e in initial_exponents(
        homs, ext, block_order(1), I.limits, degree_cut=_loewy_bound)],
        ring.n)


def _loewy_bound(exps) -> int | None:
    """The cut of the homogenized run (see the module docstring): one past
    the top degree of the staircase of the x-parts of exps, or None while
    some variable has no pure power among them, when it is infinite."""
    xs = [e[1:] for e in exps]
    n = len(xs[0])
    if len({c.index(max(c)) for c in xs if c.count(0) == n - 1}) < n:
        return None
    xs.sort(key=itemgetter(-1))
    return Staircase._fold(xs, n)[1] + 1


def m_power_in(I: IdealHandle) -> int:
    """Minimal N with every monomial of total degree N inside I: the Loewy
    length of S/I, which for I primary to the origin is one past the top
    degree of the tangent cone gr_m(S/I), since that ring is generated in
    degree 1."""
    st = _zero_dim_staircase(I)
    cone = _tangent_cone(I)
    # the cone counts the length of S/I at the origin alone, and the
    # grevlex staircase the length summed over all points of I; for a
    # homogeneous I the two are one staircase
    if cone.count() != st.count():
        raise InputError(
            "no power of the maximal ideal lies in the ideal: it is "
            "zero-dimensional but not primary to the origin")
    top = cone.max_degree()
    if top < st.max_degree():
        raise InternalError("a standard monomial lies above the m-power "
                            "inclusion degree")
    return top + 1


def subalgebra_presentation(gens: list[Polynomial],
                            names: list[str] | None = None,
                            limits: Limits = DEFAULT_LIMITS) -> IdealHandle:
    """Relations among the given ring elements: the kernel of the map
    sending fresh variables onto them, by eliminating the ambient ring.
    Default names are a1, a2, ..., with underscores prefixed until free."""
    gens = [_of_type(f, "subalgebra generator", Polynomial)
            for f in _as_list(gens, "subalgebra generators")]
    if not gens:
        raise InputError("need at least one subalgebra generator")
    ring = gens[0].ring
    for f in gens:
        if f.ring != ring:
            raise InputError("generators live in different rings")
        if f.is_constant():
            raise InputError("subalgebra generators must be nonconstant")
    s = len(gens)
    if names is None:
        names = [_fresh_name(f"a{i}", ring.variables) for i in range(1, s + 1)]
    big = Ring(ring.field, names).extend_front(ring.variables)
    if big.n != ring.n + s:
        raise InputError("need exactly one name per generator")
    rel = [big.variable(ring.n + i) - _lift(f, big, front=False)
           for i, f in enumerate(gens)]
    inner = IdealHandle(big, rel, limits)
    return eliminate(inner, ring.n)


def is_squarefree_hypersurface(f: Polynomial) -> bool:
    """Reducedness of a hypersurface over a perfect coefficient field: no
    vanishing total differential, and a singular locus of codimension >= 2."""
    if _of_type(f, "f", Polynomial).is_constant():
        raise InputError("squarefreeness needs a nonconstant polynomial")
    ring = f.ring
    partials = [f.partial(i) for i in range(ring.n)]
    if all(g.is_zero() for g in partials):
        return False
    jac = IdealHandle(ring, [f] + partials)
    return staircase_of(jac.basis(GREVLEX)).dimension() <= ring.n - 2
