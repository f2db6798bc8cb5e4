"""Slow, simple reference implementations used to pin expected values.

Everything here is deliberately naive: dense linear algebra over fixed
monomial bases, literal definition-chasing comparisons, direct expansion.
None of it touches the packed-key engine or the Buchberger code, so
agreement between the two is meaningful evidence.  Oracles are written
against the public field/polynomial layer only.
"""

from __future__ import annotations

import itertools

import numpy as np

from charplab.field import Field
from charplab.poly import Polynomial, Ring


# -- monomial enumeration -----------------------------------------------------

def monomials_up_to(n: int, d: int) -> list[tuple[int, ...]]:
    """All exponent tuples in n variables of total degree <= d."""
    out = []
    def rec(prefix, left, k):
        if k == 1:
            for e in range(left + 1):
                out.append(prefix + (e,))
            return
        for e in range(left + 1):
            rec(prefix + (e,), left - e, k - 1)
    rec((), d, n)
    return out


def box_monomials(n: int, q: int) -> list[tuple[int, ...]]:
    """All exponent tuples with every exponent < q."""
    return list(itertools.product(range(q), repeat=n))


# -- dense linear algebra over F_p (prime fields, numpy) ----------------------

class ModpSpan:
    """Row space over F_p with incremental Gaussian elimination."""

    def __init__(self, p: int, width: int):
        self.p = p
        self.width = width
        self.rows: list[np.ndarray] = []
        self.pivots: list[int] = []

    def reduce(self, vec: np.ndarray) -> np.ndarray:
        v = vec.astype(np.int64) % self.p
        for piv, row in zip(self.pivots, self.rows):
            c = v[piv]
            if c:
                v = (v - c * row) % self.p
        return v

    def add(self, vec: np.ndarray) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        v = self.reduce(vec)
        nz = np.nonzero(v)[0]
        if len(nz) == 0:
            return False
        piv = int(nz[0])
        v = (v * pow(int(v[piv]), self.p - 2, self.p)) % self.p
        self.rows.append(v)
        self.pivots.append(piv)
        return True

    def contains(self, vec: np.ndarray) -> bool:
        return not np.any(self.reduce(vec))

    @property
    def rank(self) -> int:
        return len(self.rows)


class FieldSpan:
    """Same as ModpSpan but over any Field, in pure Python (small sizes)."""

    def __init__(self, field: Field, width: int):
        self.field = field
        self.width = width
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def reduce(self, vec: list[int]) -> list[int]:
        f = self.field
        v = list(vec)
        for piv, row in zip(self.pivots, self.rows):
            c = v[piv]
            if c:
                for j in range(self.width):
                    if row[j]:
                        v[j] = f.sub(v[j], f.mul(c, row[j]))
        return v

    def add(self, vec: list[int]) -> bool:
        f = self.field
        v = self.reduce(vec)
        piv = next((j for j, c in enumerate(v) if c), None)
        if piv is None:
            return False
        inv = f.inv(v[piv])
        v = [f.mul(inv, c) if c else 0 for c in v]
        self.rows.append(v)
        self.pivots.append(piv)
        return True

    def contains(self, vec: list[int]) -> bool:
        return not any(self.reduce(vec))

    @property
    def rank(self) -> int:
        return len(self.rows)


# -- ideal membership and colengths by dense truncation -----------------------

def _poly_vector_modp(f: Polynomial, index: dict[tuple, int], width: int) -> np.ndarray:
    v = np.zeros(width, dtype=np.int64)
    for exps, code in f.terms.items():
        if exps in index:
            v[index[exps]] = code
        else:
            raise ValueError(f"term {exps} outside the truncation basis")
    return v


def dense_membership(f: Polynomial, gens: list[Polynomial], degree: int) -> bool:
    """Certificate search: is f a combination sum h_i g_i with every product
    monomial of degree <= `degree`?  True is conclusive; False only means no
    certificate exists within the truncation."""
    ring = f.ring
    if ring.field.m != 1:
        return _dense_membership_ext(f, gens, degree)
    p = ring.field.p
    basis = monomials_up_to(ring.n, degree)
    index = {m: i for i, m in enumerate(basis)}
    span = ModpSpan(p, len(basis))
    for g in gens:
        if g.is_zero():
            continue
        gd = g.total_degree()
        for m in monomials_up_to(ring.n, degree - gd):
            prod = g * ring.monomial(m)
            if prod.total_degree() <= degree:
                span.add(_poly_vector_modp(prod, index, len(basis)))
    return span.contains(_poly_vector_modp(f, index, len(basis)))


def _dense_membership_ext(f: Polynomial, gens: list[Polynomial], degree: int) -> bool:
    ring = f.ring
    basis = monomials_up_to(ring.n, degree)
    index = {m: i for i, m in enumerate(basis)}

    def vec(g: Polynomial) -> list[int]:
        v = [0] * len(basis)
        for exps, code in g.terms.items():
            v[index[exps]] = code
        return v

    span = FieldSpan(ring.field, len(basis))
    # scalar multiples by a field basis are enough: the span is over F_q
    # already because coefficients live in F_q
    for g in gens:
        if g.is_zero():
            continue
        gd = g.total_degree()
        for m in monomials_up_to(ring.n, degree - gd):
            prod = g * ring.monomial(m)
            if prod.total_degree() <= degree:
                span.add(vec(prod))
    return span.contains(vec(f))


def _box_span(ring: Ring, gens: list[Polynomial], bounds: tuple[int, ...]):
    """Span, over the coefficient field, of the images of the ideal (gens)
    in S/(x_1^b_1, ..., x_n^b_n), whose basis is the box of exponent tuples
    e with e_i < b_i.  Multiplier monomials outside the box project to
    zero, so the box multiples of gens span the image.  Returns the span
    and a function that maps a {exponents: code} dict inside the box to a
    vector."""
    width = 1
    strides = []
    for b in bounds:
        strides.append(width)
        width *= b
    prime = ring.field.m == 1
    span = (ModpSpan(ring.field.p, width) if prime
            else FieldSpan(ring.field, width))

    def vector(terms: dict) -> object:
        v = np.zeros(width, dtype=np.int64) if prime else [0] * width
        for exps, code in terms.items():
            v[sum(e * s for e, s in zip(exps, strides))] = code
        return v

    for g in gens:
        if g.is_zero():
            continue
        for m in itertools.product(*(range(b) for b in bounds)):
            shifted = {}
            for exps, code in g.terms.items():
                e = tuple(a + b for a, b in zip(exps, m))
                if all(x < b for x, b in zip(e, bounds)):
                    shifted[e] = code
            if shifted:
                span.add(vector(shifted))
    return span, vector


def dense_colength_box(gens: list[Polynomial], q: int) -> int:
    """dim of S/(gens + (x_1^q, ..., x_n^q)) by projection onto the box of
    monomials with all exponents < q.  Multiplier monomials outside the box
    project to zero, so box multipliers span the image."""
    ring = gens[0].ring if gens else None
    if ring is None:
        raise ValueError("need at least one generator (possibly zero)")
    span, _ = _box_span(ring, gens, (q,) * ring.n)
    return q**ring.n - span.rank


def box_monomial_member(ring: Ring, gens: list[Polynomial],
                        bounds: tuple[int, ...]):
    """Exact monomial membership in (gens) + (x_1^b_1, ..., x_n^b_n), as a
    function of the exponent tuple.  Monomials outside the box are members;
    one inside is a member exactly when its basis vector lies in the span
    of the projected box multiples of gens.  Unlike dense_membership, a
    False answer is conclusive."""
    span, vector = _box_span(ring, gens, bounds)

    def member(exps: tuple[int, ...]) -> bool:
        if any(e >= b for e, b in zip(exps, bounds)):
            return True
        return span.contains(vector({exps: 1}))
    return member


def local_hilbert_function(ring: Ring, gens: list[Polynomial], s: int) -> int:
    """H(s) = dim_k S/(I + m^s) for I = (gens): the monomials of degree
    below s, less the rank of the products x^a g with |a| < s, each
    truncated below degree s, which span (I + m^s)/m^s.  H(s+1) - H(s) is
    the degree-s part of the tangent cone gr_m(S/I)."""
    basis = monomials_up_to(ring.n, s - 1)
    index = {m: i for i, m in enumerate(basis)}
    prime = ring.field.m == 1
    span = (ModpSpan(ring.field.p, len(basis)) if prime
            else FieldSpan(ring.field, len(basis)))
    for g in gens:
        for a in basis:
            v = np.zeros(len(basis), dtype=np.int64) if prime \
                else [0] * len(basis)
            for exps, code in (g * ring.monomial(a)).terms.items():
                if exps in index:
                    v[index[exps]] = code
            span.add(v)
    return len(basis) - span.rank


def splitting_number_dense(f: Polynomial, e: int) -> int:
    """a_e of S/(f) by the colon formula, evaluated densely: the rank of
    multiplication by f^(q-1) on the monomial box of S/m^[q]."""
    ring = f.ring
    q = ring.field.p**e
    power = f ** (q - 1)
    return q**ring.n - dense_colength_box([power], q)


# -- the hypersurface family xy + t^n: combinatorial count --------------------

def family_staircase_count(q: int, n: int) -> int:
    """Standard-monomial count of (xy + t^n) + m^[q] in three variables,
    taken from the displayed description of the quotient basis: pure t powers
    t^b (b < q) plus x^a t^b and y^a t^b with a >= 1, b < q, and
    a < q - floor(b/n).  Evaluated by brute-force loops."""
    count = q
    for b in range(q):
        top = q - 1 - b // n
        count += 2 * max(0, top)
    return count


def family_staircase_enumerate(q: int, n: int) -> int:
    """Same set, enumerated tuple by tuple (cross-check of the loop above)."""
    members = set()
    for b in range(q):
        members.add((0, 0, b))
        for a in range(1, q):
            if a + b // n < q:
                members.add((a, 0, b))
                members.add((0, a, b))
    return len(members)


# -- monomial orders, literally ------------------------------------------------

def grevlex_greater(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    da, db = sum(a), sum(b)
    if da != db:
        return da > db
    for i in range(len(a) - 1, -1, -1):
        if a[i] != b[i]:
            return a[i] < b[i]
    return False


def lex_greater(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    for x, y in zip(a, b):
        if x != y:
            return x > y
    return False


def block_greater(a: tuple[int, ...], b: tuple[int, ...], k: int) -> bool:
    ha, ta = a[:k], a[k:]
    hb, tb = b[:k], b[k:]
    if ha != hb:
        return grevlex_greater(ha, hb)
    return grevlex_greater(ta, tb)


def naive_remainder(f: Polynomial, basis: list[Polynomial], greater) -> Polynomial:
    """Remainder of f on full division by basis, with leading terms taken
    under the literal order greater(a, b): each step cancels the largest
    remaining term by the first basis element whose leading monomial
    divides it, or moves that term to the remainder."""
    field = f.ring.field

    def lead(terms: dict) -> tuple[int, ...]:
        top = None
        for exps in terms:
            if top is None or greater(exps, top):
                top = exps
        return top

    leads = [(lead(g.terms), g) for g in basis]
    work = dict(f.terms)
    rem = {}
    while work:
        m = lead(work)
        c = work[m]
        for lm, g in leads:
            if all(a >= b for a, b in zip(m, lm)):
                scale = field.div(c, g.terms[lm])
                shift = tuple(a - b for a, b in zip(m, lm))
                for exps, code in g.terms.items():
                    e = tuple(a + b for a, b in zip(exps, shift))
                    v = field.sub(work.get(e, 0), field.mul(scale, code))
                    if v:
                        work[e] = v
                    else:
                        work.pop(e, None)
                break
        else:
            rem[m] = c
            del work[m]
    return Polynomial(f.ring, rem)


# -- nu values by direct expansion ---------------------------------------------

def nu_direct(f: Polynomial, e: int) -> int:
    """Largest t with f^t not in m^[p^e], testing every t by expansion.
    Membership in the monomial ideal m^[q] is componentwise, so a power
    escapes iff it has a term with all exponents < q."""
    q = f.ring.field.p**e
    t = 0
    acc = f.ring.one
    while True:
        acc = acc * f
        if not any(all(x < q for x in exps) for exps in acc.terms):
            return t
        t += 1
        if t > q * f.ring.n:
            raise AssertionError("nu search runaway; check the input")


# -- determinants by permutation expansion -------------------------------------

def det_permanent_style(rows: list[list[Polynomial]]) -> Polynomial:
    """Exact determinant by signed permutation expansion (n <= 4)."""
    n = len(rows)
    ring = rows[0][0].ring
    total = ring.zero
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = ring.one
        for i in range(n):
            prod = prod * rows[i][perm[i]]
        total = total + (prod if sign > 0 else -prod)
    return total


# -- the Gebauer-Moller pair update, one candidate at a time ------------------

def gebauer_moller_update(lts: list[tuple[int, ...]], active: list[int],
                          h: int) -> tuple[list[tuple], list[int]]:
    """The pairs (i, h, lcm) that criteria M and F of Gebauer and Moller
    (J. Symb. Comput. 6, 1988) keep for a new element h among the active
    ones, and the active elements whose leading exponents lts[h] divides.
    Literally: lcms are fieldwise maxima; in order of degree every divisor
    of an lcm is met first, so an lcm is kept when no kept one divides it;
    among equal lcms a coprime pair comes first and queues nothing, else
    the lowest i is queued."""
    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    new = lts[h]
    cands = sorted((sum(lcm), lcm, any(map(min, lts[i], new)), i)
                   for i in active
                   for lcm in [tuple(map(max, lts[i], new))])
    kept: list[tuple[int, ...]] = []
    pairs = []
    for _, lcm, shared, i in cands:
        if not any(divides(k, lcm) for k in kept):
            kept.append(lcm)
            if shared:
                pairs.append((i, h, lcm))
    return pairs, [i for i in active if divides(new, lts[i])]

# -- SplitMix64, written independently against the published recipe ------------

def splitmix64_reference(seed: int, count: int) -> list[int]:
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out
