"""Ideal algebra on top of the Buchberger engine.

IdealHandle is the unit of sharing: generators plus a per-order cache of
reduced Groebner bases.  A known basis grows only through
GroebnerBasis.extend, one engine run that takes it as a known prefix.
All the classical constructions live here as module-level functions:
membership, equality, intersection (tag variable), colon, elimination,
bracket powers of Frobenius, combinatorial Krull dimension, staircase
colength counting, minimal m-power inclusion, subalgebra presentations,
and the squarefreeness test for hypersurfaces.

Elimination is one engine run under a block order: its final pass keeps
the reduced basis elements free of the first block, which by the
Elimination Theorem form the reduced basis of the elimination ideal.

Colon ideals get special care because perturbation experiments and
splitting chains hammer them.  A colon step is one engine run: the tag
construction marks the inner ideal's basis as a known-basis prefix so
Buchberger skips every pair inside it (their S-polynomials already have
standard representations after multiplication by the tag variable), and
the final pass divides the tag-free basis elements by the multiplier.
"""

from __future__ import annotations

from .engine import (DEFAULT_LIMITS, BasisContext, KeyOverflow, Limits,
                     _to_dict, groebner, initial_exponents, make_context,
                     power_scan)
from .errors import InputError, InternalError
from .field import _as_list, _at_least, _is_int
from .orders import GREVLEX, MonomialOrder, block_order
from .poly import Polynomial, Ring


class GroebnerBasis:
    """A reduced basis frozen together with a reduction context; `extend`
    is the only way to grow it."""

    __slots__ = ("ring", "order", "elements", "_ctx")

    def __init__(self, ring: Ring, order: MonomialOrder,
                 elements: list[Polynomial]):
        self.ring = ring
        self.order = order
        self.elements = tuple(elements)
        self._ctx: BasisContext | None = None

    def with_context(self, work, degree: int = 0):
        """work(ctx) on the reduction context, which is first built, or
        rebuilt, to hold `degree`; a KeyOverflow rebuilds it for the degree
        asked for and runs work again."""
        while True:
            if self._ctx is None or self._ctx.spec.C < degree:
                self._ctx = make_context(list(self.elements), self.ring,
                                         self.order, degree)
            try:
                return work(self._ctx)
            except KeyOverflow as o:
                degree = o.needed_degree

    def normal_form(self, f: Polynomial) -> Polynomial:
        """Fully reduced remainder of f; zero iff f lies in the ideal."""
        return self.with_context(lambda ctx: ctx.normal_form(f),
                                 f.total_degree())

    def extend(self, extra, limits: Limits = DEFAULT_LIMITS) -> GroebnerBasis:
        """Reduced basis of these elements plus `extra`: one engine run
        that skips every pair inside the known prefix."""
        elems = list(self.elements)
        return GroebnerBasis(self.ring, self.order, groebner(
            elems + list(extra), self.ring, self.order, limits,
            gb_prefix=len(elems)))

    def extend_staircase(self, extra,
                         limits: Limits = DEFAULT_LIMITS) -> Staircase:
        """Staircase of `extend(extra)`, read off the minimal basis."""
        elems = list(self.elements)
        return Staircase(initial_exponents(
            elems + list(extra), self.ring, self.order, limits,
            gb_prefix=len(elems)), self.ring.n)

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
        gens = []
        for f in _as_list(generators, "ideal generators"):
            if not isinstance(f, Polynomial):
                raise InputError("ideal generators must be polynomials")
            if f.ring != ring:
                raise InputError("generator lives in a different ring")
            if not f.is_zero():
                gens.append(f)
        self.ring = ring
        self.generators = tuple(gens)
        self.limits = limits
        self._cache: dict[MonomialOrder, GroebnerBasis] = {}

    def basis(self, order: MonomialOrder = GREVLEX) -> GroebnerBasis:
        got = self._cache.get(order)
        if got is not None:
            return got
        gb = GroebnerBasis(self.ring, order, []).extend(self.generators,
                                                        self.limits)
        for f in self.generators:
            if not gb.normal_form(f).is_zero():
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
    return I.basis(order)


def normal_form(f: Polynomial, G: GroebnerBasis) -> Polynomial:
    return G.normal_form(f)


def ideal_equal(I: IdealHandle, J: IdealHandle,
                order: MonomialOrder = GREVLEX) -> bool:
    if I.ring != J.ring:
        raise InputError("ideals live in different rings")
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


def _drop_front(f: Polynomial, target: Ring, k: int) -> Polynomial:
    return Polynomial(target, {e[k:]: c for e, c in f.terms.items()})


def eliminate(I: IdealHandle, k: int) -> IdealHandle:
    """I intersected with the subring on the last n-k variables: one
    engine run under block_order(k), whose final pass keeps the part of
    the reduced basis free of the first k variables."""
    target = I.ring.drop_front(k)
    kept = [_drop_front(g, target, k) for g in groebner(
        list(I.generators), I.ring, block_order(k), I.limits,
        divisor=I.ring.one)]
    # that part is itself reduced, monic, and sorted for grevlex on the
    # remaining variables, so the cache can be seeded directly
    out = IdealHandle(target, kept, I.limits)
    out.seed_cache(GroebnerBasis(target, GREVLEX, kept))
    return out


def intersect(I: IdealHandle, J: IdealHandle) -> IdealHandle:
    """I and J meet, by eliminating a tag variable from w I + (1-w) J."""
    if I.ring != J.ring:
        raise InputError("ideals live in different rings")
    ring = I.ring
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


def divide_exact(h: Polynomial, f: Polynomial | GroebnerBasis) -> Polynomial:
    """Quotient h/f when the division is exact: h reduced against the
    one-element basis (f), collecting the multipliers of its steps.  Given
    as GroebnerBasis(ring, GREVLEX, [f]), f keeps its context across calls."""
    if isinstance(f, Polynomial):
        if f.is_zero():
            raise InputError("division by the zero polynomial")
        f = GroebnerBasis(h.ring, GREVLEX, [f])
    ring = h.ring
    field = ring.field

    def divide(ctx: BasisContext) -> Polynomial:
        quot: dict[int, int] = {}
        if ctx.reduce_dict(_to_dict(h, ctx.spec), quot):
            raise InternalError("inexact polynomial division")
        # the frozen element is f / lc(f), so scale its quotient back
        inv = field.inv(f.elements[0].terms[ctx.elems[0].lt_exps])
        unpack = ctx.spec.unpack
        return Polynomial(ring, {unpack(k): field.mul(inv, c)
                                 for k, c in quot.items()})

    return f.with_context(divide, h.total_degree())


def colon_by_basis(gb_elements: list[Polynomial], ring: Ring, f: Polynomial,
                   limits: Limits = DEFAULT_LIMITS) -> list[Polynomial]:
    """Reduced grevlex basis of (I : f) = (I meet (f)) / f, where
    gb_elements is any grevlex Groebner basis of I (not necessarily
    reduced).  One engine run eliminates a tag variable w from wI + (1-w)f,
    skipping the pairs inside the lifted basis, and divides by f."""
    if f.is_zero():
        raise InputError("colon by the zero polynomial")
    if not gb_elements:
        return []
    # (I : f) = (I : f - r) for any r in I, so replace the multiplier by its
    # normal form first; tails supported inside I disappear before the tag
    # construction ever sees them
    f = GroebnerBasis(ring, GREVLEX, list(gb_elements)).normal_form(f)
    if f.is_zero():
        return [ring.one]
    ext = ring.extend_front([_fresh_name("_w", ring.variables)])
    w = ext.variable(0)
    lifted = _lift(f, ext)
    gens = [w * _lift(g, ext) for g in gb_elements]
    gens.append(lifted - w * lifted)
    return [_drop_front(g, ring, 1) for g in groebner(
        gens, ext, block_order(1), limits, gb_prefix=len(gb_elements),
        divisor=lifted)]


def colon(I: IdealHandle, J: IdealHandle) -> IdealHandle:
    """I : J = {g : gJ inside I}, via intersections of single colons."""
    if I.ring != J.ring:
        raise InputError("ideals live in different rings")
    if not J.generators:
        raise InputError("colon by the zero ideal")
    if not I.generators:
        return I
    ring = I.ring
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
    return IdealHandle(I.ring, [f.frobenius_pow(e) for f in I.generators],
                       I.limits)


# -- dimension and staircases --------------------------------------------------

def _minimalize(corners) -> frozenset:
    """The corners no other corner divides.  Packed into fields under guard
    bits, k | c when (c | guards) - k borrows from no guard (engine keys)."""
    items = sorted(set(corners), key=lambda c: (sum(c), c))
    step = max((e for c in items for e in c), default=0).bit_length() + 1
    guards = sum(1 << (i * step + step - 1)
                 for i in range(len(items[0]) if items else 0))
    kept: dict[int, tuple[int, ...]] = {}      # packed corner: corner
    for c in items:
        key = sum(e << (i * step) for i, e in enumerate(c))
        top = key | guards
        if all((top - k) & guards != guards for k in kept):
            kept[key] = c
    return frozenset(kept.values())


class Staircase:
    """The complement of a monomial ideal given by the exponents of its
    generators; `corners`, their minimal set, is found on first read, since
    a divisible corner changes no slice and no dimension.  `dimension` is
    the Krull dimension of the quotient, and one memoized fold over the
    slices gives both `count` and `max_degree`: the fold is where an
    infinite staircase raises InputError, and the unit ideal gives (0, -1)."""

    __slots__ = ("n", "_given", "_corners", "_memo")

    def __init__(self, corners, n: int):
        corners = _as_list(corners, "corners")
        if n < 1 or not all(type(c) is tuple and len(c) == n and all(
                type(e) is int and e >= 0 for e in c) for c in corners):
            raise InputError(f"corners must be {n}-tuples of nonnegative ints")
        self.n, self._given = n, frozenset(corners)
        self._corners: frozenset | None = None
        # slices and the folds over them, keyed (kind, n, corners) plus the
        # degree for "degree": the empty corner set recurs at every n with
        # a different count
        self._memo: dict = {}

    @property
    def corners(self) -> frozenset:
        if self._corners is None:
            self._corners = _minimalize(self._given)
        return self._corners

    def dimension(self) -> int:
        """Size of the largest set of variables that contains no corner's
        support; -1 for the unit ideal (its zero corner has none)."""
        supports = {sum(1 << i for i, e in enumerate(c) if e)
                    for c in self._given}
        return max((mask.bit_count() for mask in range(1 << self.n)
                    if all(s & ~mask for s in supports)), default=-1)

    def zero_dimensional(self) -> bool:
        """Each variable has a pure power among the corners."""
        return self.dimension() == 0

    def _slices(self, corners: frozenset, n: int) -> list:
        """The runs lo <= x_n < hi of one slice, as (lo, hi, rest): rest is
        the minimal staircase of the slice in the first n - 1 variables, and
        hi is None on the last, unbounded run.  Runs cut at the distinct last
        coordinates of the corners and stop at the first empty slice.  One
        sweep carries rest up and folds in the corners with c[-1] == lo, as
        min(A | B) = min(min(A) | B) and minimal sets are unique."""
        key = ("slices", n, corners)
        got = self._memo.get(key)
        if got is None:
            at: dict[int, list] = {0: []}
            for c in corners:
                at.setdefault(c[-1], []).append(c[:-1])
            got, rest, bounds = [], frozenset(), sorted(at)
            for lo, hi in zip(bounds, bounds[1:] + [None]):
                rest = _minimalize([*rest, *at[lo]])
                if any(sum(c) == 0 for c in rest):
                    break
                got.append((lo, hi, rest))
            self._memo[key] = got
        return got

    # counts are folds over the slices down to n = 0, where the staircase
    # is the single monomial 1

    def count(self) -> int:
        return self._fold(self._given, self.n)[0]

    def max_degree(self) -> int:
        """Largest total degree of a standard monomial; -1 when empty."""
        return self._fold(self._given, self.n)[1]

    def _fold(self, corners: frozenset, n: int) -> tuple[int, int]:
        """(count, max_degree).  A run is unbounded exactly when the
        staircase is infinite, since a finite one has a pure power x_n^b
        and every run from b up is cut off; the unit ideal has no slices
        and gives (0, -1)."""
        if n == 0:
            return 1, 0
        key = ("fold", n, corners)
        got = self._memo.get(key)
        if got is None:
            count, top = 0, -1
            for lo, hi, rest in self._slices(corners, n):
                if hi is None:
                    raise InputError("staircase is infinite (dimension > 0)")
                c, t = self._fold(rest, n - 1)
                count += (hi - lo) * c
                top = max(top, hi - 1 + t)
            got = self._memo[key] = (count, top)
        return got

    def count_degree(self, k: int) -> int:
        """Standard monomials of total degree exactly k (any dimension);
        0 for a negative k."""
        if not _is_int(k):
            raise InputError(f"degree must be an integer, got {k!r}")
        return self._count_degree(self._given, self.n, k)

    def _count_degree(self, corners: frozenset, n: int, k: int) -> int:
        if n == 0:
            return int(k == 0)
        key = ("degree", n, corners, k)
        got = self._memo.get(key)
        if got is None:
            got = 0
            for lo, hi, rest in self._slices(corners, n):
                end = k + 1 if hi is None else min(hi, k + 1)
                for e in range(lo, end):
                    got += self._count_degree(rest, n - 1, k - e)
            self._memo[key] = got
        return got


def staircase_of(gb: GroebnerBasis) -> Staircase:
    return Staircase(gb.leading_exponents(), gb.ring.n)


def krull_dim(I: IdealHandle) -> int:
    """Dimension of the quotient by I, combinatorially from leading terms."""
    d = _dim_or_unit(I)
    if d < 0:
        raise InputError("the unit ideal presents the empty scheme")
    return d


def _dim_or_unit(I: IdealHandle) -> int:
    """Like krull_dim but returns -1 for the unit ideal."""
    return staircase_of(I.basis(GREVLEX)).dimension()


def _zero_dim_staircase(I: IdealHandle) -> tuple[GroebnerBasis, Staircase]:
    """The grevlex basis of I and its staircase, which must be finite and
    nonempty."""
    gb = I.basis(GREVLEX)
    st = staircase_of(gb)
    d = st.dimension()
    if d < 0:
        raise InputError("ideal is not contained in the maximal ideal")
    if d > 0:
        raise InputError("ideal is not zero-dimensional")
    return gb, st


def colength(I: IdealHandle) -> int:
    """Vector-space dimension of the quotient by I, by staircase count."""
    return _zero_dim_staircase(I)[1].count()


def m_power_in(I: IdealHandle) -> int:
    """Minimal N with every monomial of total degree N inside I."""
    gb, st = _zero_dim_staircase(I)
    top = st.max_degree()
    # homogeneous shortcut: the degree-N graded piece of the quotient is
    # spanned by the degree-N standard monomials, so every degree-N
    # monomial is a member exactly when none of them is standard.  Skipping
    # the "primary to the origin" check of the scan below hides no error: a
    # homogeneous zero-dimensional ideal cuts out a finite cone, which is
    # the origin
    if all(len({sum(k) for k in g.terms}) == 1 for g in gb.elements):
        return top + 1
    # inhomogeneous ideals: one upward scan of the layers m^N mod I (see
    # engine.power_scan).  It needs no enumeration of all degree-N
    # monomials: a monomial whose normal form is zero has only zero
    # multiples, so each layer is built from the nonzero entries of the one
    # below, and it stops at the first empty layer, which exists because a
    # primary ideal of colength L contains m^L.  Its keys reach one degree
    # past the top of the staircase (the border monomials x_i s)
    length = st.count()
    deadline = I.limits.deadline()
    N = gb.with_context(lambda ctx: power_scan(ctx, length, deadline),
                        degree=top + 1)
    if N is None:
        raise InputError(
            "no bounded power of a variable lies in the ideal: the "
            "ideal is zero-dimensional but not primary to the origin")
    if N <= top:
        raise InternalError("a standard monomial lies above the m-power "
                            "inclusion degree")
    return N


def subalgebra_presentation(gens: list[Polynomial],
                            names: list[str] | None = None,
                            limits: Limits = DEFAULT_LIMITS) -> IdealHandle:
    """Relations among the given ring elements: the kernel of the map
    sending fresh variables onto them, by eliminating the ambient ring.
    Default names are a1, a2, ..., with underscores prefixed until free."""
    gens = _as_list(gens, "subalgebra generators")
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
    if f.is_constant():
        raise InputError("squarefreeness needs a nonconstant polynomial")
    ring = f.ring
    partials = [f.partial(i) for i in range(ring.n)]
    if all(g.is_zero() for g in partials):
        return False
    jac = IdealHandle(ring, [f] + partials)
    return _dim_or_unit(jac) <= ring.n - 2
