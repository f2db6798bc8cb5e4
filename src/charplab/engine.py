"""Buchberger engine on packed exponent keys.

A monomial is encoded as a single integer whose bit fields are arranged so
that plain integer comparison agrees with the active monomial order:

    grevlex   [total degree | C-e_n | ... | C-e_1]
    lex       [e_1 | e_2 | ... | e_n]
    block(k)  [fields of block 1 | fields of block 2]   (grevlex per block,
              a single-variable block collapses to a bare exponent field)

Every field is w bits wide with one guard bit above it.  Complement fields
(C - e, C = 2^w - 1) make the grevlex tie-break come out right; they also
make monomial multiplication affine:  key(ab) = key(a) + key(b) - key(1),
so a key is key(1) plus e_i times the step key(m x_i) - key(m) of each
variable.  Divisibility is one guarded subtraction on keys in direct form
(complement fields flipped back, key ^ zero_key):  a | t  iff  t - a
borrows from no field.

No field holds more than the total degree, so one rule keeps every field
in range: a monomial of total degree above C overflows, whatever the
layout.  Widths are chosen per computation.  When degrees outgrow the
current width the whole computation is restarted with wider fields
(KeyOverflow is the internal signal, asking for a degree above C); the
new fields hold twice the degree asked for, and only the configured
degree limit (Limits.max_degree) turns a restart into an error.
Keys are arbitrary-precision ints.  The divisor search over a large
basis's leading terms ANDs one bitmask per variable (see BasisContext), at
any width.

Polynomials here are bare dicts {key: coefficient code}; conversion from and
to the public Polynomial type happens at the boundary.  The one
term-by-term division loop is BasisContext.reduce_dict.  Exact division
reduces against a one-element basis through it and collects the quotient:
groebner.divide_exact does so on a context of its own, and the final pass
of a groebner() run given a divisor (a colon step, or 1 for an
elimination) on the run's own keys.  One Buchberger run ends at the
minimal basis: groebner() then divides and reduces tails, while
initial_exponents() stops there.
"""

from __future__ import annotations

import heapq
import sys
import time
from itertools import accumulate
from operator import or_

# unused here, but imported so that perfbench/run.py finds the numpy version
# for its machine record in sys.modules; dropping it needs a benchmark change
import numpy  # noqa: F401

from .errors import InputError, InternalError, LimitError, TimeLimitError
from .field import Field, _at_least
from .orders import MonomialOrder
from .poly import Polynomial, Ring

DEFAULT_MAX_BASIS = 5000
DEFAULT_MAX_DEGREE = 1 << 20


class Limits:
    """Resource caps for basis computations; shared across the package.
    `max_seconds` is a wall-clock budget for each basis computation and
    for each m-power scan (see power_scan)."""

    __slots__ = ("max_basis", "max_degree", "max_seconds")

    def __init__(self, max_basis: int = DEFAULT_MAX_BASIS,
                 max_degree: int = DEFAULT_MAX_DEGREE,
                 max_seconds: float | None = None):
        self.max_basis = _at_least(max_basis, 1, "max_basis")
        self.max_degree = _at_least(max_degree, 1, "max_degree")
        if max_seconds is not None and (
                isinstance(max_seconds, bool)
                or not isinstance(max_seconds, (int, float))
                or not 0 <= max_seconds <= sys.float_info.max):
            raise InputError("max_seconds must be an int or a float, "
                             "finite and >= 0")
        self.max_seconds = None if max_seconds is None else float(max_seconds)

    def deadline(self) -> float | None:
        if self.max_seconds is None:
            return None
        return time.monotonic() + self.max_seconds


DEFAULT_LIMITS = Limits()


class KeyOverflow(Exception):
    """Internal: a degree outgrew the current field width; retry wider."""

    def __init__(self, needed_degree: int):
        self.needed_degree = needed_degree


class PackSpec:
    """Key layout for one (variable count, order, width) combination."""

    __slots__ = ("n", "order", "w", "C", "deg_shifts", "var_shifts",
                 "var_steps", "zero_key", "g_all", "g_exp")

    def __init__(self, n: int, order: MonomialOrder, w: int):
        if order.kind == "block" and not 0 < order.block < n:
            raise InputError(
                f"block({order.block}) needs between 1 and {n - 1} variables")
        self.n = n
        self.order = order
        self.w = w
        self.C = (1 << w) - 1
        # field descriptors, most significant first:
        #   ('deg', (lo, hi))   total degree of variables lo..hi-1
        #   ('dir', i)          exponent of variable i, direct
        #   ('comp', i)         exponent of variable i, complemented
        fields: list[tuple[str, object]] = []
        # every order is a run of grevlex blocks lo..hi-1, and a block of
        # one variable is a bare exponent field: lex is n such blocks
        if order.kind == "grevlex":
            bounds = (0, n)
        elif order.kind == "lex":
            bounds = range(n + 1)
        else:
            bounds = (0, order.block, n)
        for lo, hi in zip(bounds, bounds[1:]):
            if hi - lo == 1:
                fields.append(("dir", lo))
            else:
                fields.append(("deg", (lo, hi)))
                fields.extend(("comp", i) for i in range(hi - 1, lo - 1, -1))
        zero = g_all = g_exp = 0
        # the non-complement fields sum to the total degree: one degree
        # field for grevlex, one field per block, one per variable for lex
        deg_shifts = []
        var_shifts = [0] * n    # the field of x_i's exponent, per variable
        var_steps = [0] * n     # key(m x_i) - key(m), per variable
        for j, (kind, spec) in enumerate(fields):
            sh = (len(fields) - 1 - j) * (w + 1)
            guard = 1 << (sh + w)
            g_all |= guard
            if kind == "comp":
                zero |= self.C << sh
            else:
                deg_shifts.append(sh)
            if kind == "deg":
                for i in range(*spec):
                    var_steps[i] += 1 << sh
            else:
                g_exp |= guard      # the exponent fields
                var_shifts[spec] = sh
                var_steps[spec] += -1 << sh if kind == "comp" else 1 << sh
        self.deg_shifts = tuple(deg_shifts)
        self.var_shifts = tuple(var_shifts)
        self.var_steps = tuple(var_steps)
        self.zero_key = zero
        self.g_all = g_all
        self.g_exp = g_exp

    # -- scalar key operations -------------------------------------------

    def pack(self, exps: tuple[int, ...]) -> int:
        """Every field holds at most the total degree, so one check on the
        total keeps each field within its width."""
        total = sum(exps)
        if total > self.C:
            raise KeyOverflow(total)
        key = self.zero_key
        for e, step in zip(exps, self.var_steps):
            key += e * step
        return key

    def unpack(self, key: int) -> tuple[int, ...]:
        direct, C = key ^ self.zero_key, self.C
        return tuple((direct >> sh) & C for sh in self.var_shifts)

    def key_degree(self, key: int) -> int:
        shifts = self.deg_shifts
        C = self.C
        if len(shifts) == 1:
            return (key >> shifts[0]) & C
        if len(shifts) == 2:
            return ((key >> shifts[0]) & C) + ((key >> shifts[1]) & C)
        total = 0
        for sh in shifts:
            total += (key >> sh) & C
        return total


# Bases up to this size are searched for divisors by a plain loop over the
# leading keys; larger ones by the per-variable bitmasks of BasisContext.
# On a 2-core x86-64 host with Python 3.11 a bitmask query costs 0.3-0.7
# microseconds at any size, and a scan that finds no divisor about 0.05 per
# key (2.3 at 48 keys).  Building the index costs about 0.6 microseconds per
# element against 0.25 for the key list, and a context is rebuilt whenever
# an element retires, so small bases, with few queries between rebuilds,
# keep the scan: with a cutoff of 16 the 22-mult-toric-surface suite job
# ran 1.10x slower, with none 30-perturb-constancy-node 1.13x.  On the
# 150-270 element block-order bases of a splitting chain, find_reducer
# takes 0.57 microseconds (2.8 with the int64 numpy pass used before).
SCAN_MAX_BASIS = 48


class GPoly:
    """A monic basis element frozen for fast reduction."""

    __slots__ = ("keys", "coeffs", "lt_key", "lt_exps", "maxdeg")

    def __init__(self, keys: list[int], coeffs: list[int],
                 lt_exps: tuple[int, ...], maxdeg: int):
        self.keys = keys          # descending; keys[0] is the leading term
        self.coeffs = coeffs      # coeffs[0] == 1
        self.lt_key = keys[0]
        self.lt_exps = lt_exps
        self.maxdeg = maxdeg


def _freeze(d: dict[int, int], spec: PackSpec, field: Field) -> GPoly:
    keys = sorted(d, reverse=True)
    lead = d[keys[0]]
    if lead != 1:
        inv = field.inv(lead)
        coeffs = [field.mul(inv, d[k]) for k in keys]
    else:
        coeffs = [d[k] for k in keys]
    if spec.order.kind == "grevlex":     # degree-compatible: lt is highest
        maxdeg = spec.key_degree(keys[0])
    else:
        maxdeg = max(spec.key_degree(k) for k in keys)
    return GPoly(keys, coeffs, spec.unpack(keys[0]), maxdeg)


def _to_dict(f: Polynomial, spec: PackSpec) -> dict[int, int]:
    return {spec.pack(e): c for e, c in f.terms.items()}


def _to_poly(d: dict[int, int], spec: PackSpec, ring: Ring) -> Polynomial:
    return Polynomial(ring, {spec.unpack(k): c for k, c in d.items()})


class BasisContext:
    """A fixed basis prepared for repeated normal-form reduction.

    Divisor searches over at most SCAN_MAX_BASIS elements scan the leading
    keys in direct form (complement fields flipped back to exponents,
    `key ^ spec.zero_key`), where a | t is a single guarded subtraction: no
    field of a exceeds that of t.  Larger bases keep one table per
    variable: bit j of table[e] is set when element j's leading exponent in
    that variable is at most e, and past the end of a table every element
    qualifies.  The divisors of t are then the AND of one entry per
    variable, and the lowest set bit is the lowest-index divisor.  Either
    search alone answers every key: one of lower degree than every leading
    term, or any key against an empty basis, finds no divisor.
    """

    __slots__ = ("ring", "field", "spec", "elems", "_lt_direct", "_index")

    def __init__(self, ring: Ring, spec: PackSpec, elems: list[GPoly]):
        self.ring = ring
        self.field = ring.field
        self.spec = spec
        self.elems = elems
        self._lt_direct = [g.lt_key ^ spec.zero_key for g in elems]
        self._index = (self._build_index() if len(elems) > SCAN_MAX_BASIS
                       else None)

    def _build_index(self) -> list[tuple[int, list[int]]]:
        """(shift, table) for each variable; see the class docstring."""
        index = []
        for i, sh in enumerate(self.spec.var_shifts):
            exps = [g.lt_exps[i] for g in self.elems]
            exact = [0] * (max(exps) + 1)
            for j, e in enumerate(exps):
                exact[e] |= 1 << j
            index.append((sh, list(accumulate(exact, or_))))
        return index

    def append(self, g: GPoly) -> None:
        """Add one element after the others."""
        j = len(self.elems)
        self.elems.append(g)
        self._lt_direct.append(g.lt_key ^ self.spec.zero_key)
        if self._index is not None:
            bit = 1 << j
            for (_, table), e in zip(self._index, g.lt_exps):
                if e >= len(table):     # past the end: all earlier elements
                    table.extend([bit - 1] * (e + 1 - len(table)))
                table[e:] = [t | bit for t in table[e:]]
        elif j == SCAN_MAX_BASIS:
            self._index = self._build_index()

    def _divisor_mask(self, key: int) -> int:
        """Bit j set when element j's leading term divides `key`; -1 when
        every element's does."""
        direct, C = key ^ self.spec.zero_key, self.spec.C
        mask = -1
        for sh, table in self._index:
            e = (direct >> sh) & C
            if e < len(table):
                mask &= table[e]
                if not mask:
                    return 0
        return mask

    def find_reducer(self, key: int) -> int | None:
        """Lowest basis index whose leading term divides `key`."""
        if self._index is not None:
            mask = self._divisor_mask(key)     # lowest set bit; 0 for -1
            return (mask & -mask).bit_length() - 1 if mask else None
        g = self.spec.g_all
        guarded = (key ^ self.spec.zero_key) | g
        for i, lt in enumerate(self._lt_direct):
            if (guarded - lt) & g == g:
                return i
        return None

    def divisor_indices(self, key: int) -> list[int]:
        """All basis indices whose leading term divides `key`."""
        if self._index is not None:
            mask = self._divisor_mask(key) & ((1 << len(self.elems)) - 1)
            out = []
            while mask:
                low = mask & -mask
                out.append(low.bit_length() - 1)
                mask ^= low
            return out
        g = self.spec.g_all
        guarded = (key ^ self.spec.zero_key) | g
        return [i for i, lt in enumerate(self._lt_direct)
                if (guarded - lt) & g == g]

    def reduce_dict(self, work: dict[int, int],
                    quotient: dict[int, int] | None = None) -> dict[int, int]:
        """Full normal form of a working dict; consumes its argument.

        `quotient`, valid only for a one-element context, receives the
        multiplier c*m of each step (keyed by m), so that work is the
        quotient times the element plus the remainder."""
        spec, field = self.spec, self.field
        C, one = spec.C, spec.zero_key
        key_degree, find_reducer = spec.key_degree, self.find_reducer
        mul, sub = field.mul, field.sub
        heappop, heappush = heapq.heappop, heapq.heappush
        elems = self.elems
        remainder: dict[int, int] = {}
        heap = [-k for k in work]
        heapq.heapify(heap)
        while heap:
            k = -heappop(heap)
            c = work.pop(k, 0)
            if not c:
                continue
            gi = find_reducer(k)
            if gi is None:
                remainder[k] = c
                continue
            g = elems[gi]
            mult_deg = key_degree(k) - key_degree(g.lt_key)
            if g.maxdeg + mult_deg > C:
                raise KeyOverflow(g.maxdeg + mult_deg)
            delta = k - g.lt_key
            if quotient is not None:
                quotient[delta + one] = c
            gkeys, gcoeffs = g.keys, g.coeffs
            for t in range(1, len(gkeys)):
                nk = gkeys[t] + delta
                nv = sub(work.get(nk, 0), mul(c, gcoeffs[t]))
                if nv:
                    if nk not in work:
                        heappush(heap, -nk)
                    work[nk] = nv
                else:
                    work.pop(nk, None)
        return remainder

    def normal_form(self, f: Polynomial) -> Polynomial:
        if f.ring != self.ring:
            raise InputError("polynomial lives in a different ring")
        work = _to_dict(f, self.spec)
        return _to_poly(self.reduce_dict(work), self.spec, self.ring)


def power_scan(ctx: BasisContext, length: int,
               deadline: float | None = None) -> int | None:
    """Smallest N with every monomial of total degree N in the ideal.

    The ideal has colength `length`, and `ctx` holds its grevlex basis;
    keys reach one degree past the top of the staircase, and KeyOverflow
    is raised when the fields are too narrow for that.

    Normal forms are dicts over standard keys.  NF(x_i h) is the sum of
    c * T_i[s] over the terms c*s of NF(h), where the multiplication table
    T_i is filled on first use: T_i[s] is x_i s (key s plus a fixed delta)
    when that monomial is standard, else one reduction of the border
    monomial x_i s.  Those border reductions are the only ones made.

    Returns None when some x_i^length has a nonzero normal form: a primary
    ideal of colength L contains m^L, so the ideal then has a component
    away from the origin.  Raises TimeLimitError when a step of the
    pure-power loop or a layer starts past `deadline` (a time.monotonic()
    value).
    """
    spec, field = ctx.spec, ctx.field
    mul, add = field.mul, field.add
    key_degree, find_reducer = spec.key_degree, ctx.find_reducer
    n, C = spec.n, spec.C
    one, deltas = spec.zero_key, spec.var_steps
    tables: list[dict[int, dict[int, int]]] = [{} for _ in range(n)]

    def check_deadline() -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise TimeLimitError("time limit exceeded in m-power scan")

    def times(v: dict[int, int], i: int) -> dict[int, int]:
        table, delta = tables[i], deltas[i]
        out: dict[int, int] = {}
        for s, c in v.items():
            row = table.get(s)
            if row is None:
                kdeg = key_degree(s) + 1
                if kdeg > C:
                    raise KeyOverflow(kdeg)
                k = s + delta
                if find_reducer(k) is None:
                    row = {k: 1}
                else:
                    row = ctx.reduce_dict({k: 1})
                table[s] = row
            for k, d in row.items():
                nv = add(out.get(k, 0), c if d == 1 else mul(c, d))
                if nv:
                    out[k] = nv
                else:
                    del out[k]
        return out

    # primary to the origin: NF(x_i^k) = NF(x_i NF(x_i^(k-1))) must reach
    # zero by k = length.  With x_i^(b_i) in the ideal, every monomial of
    # degree sum(b_i - 1) + 1 lies in it, which bounds the layer scan below
    bound = 1
    for i in range(n):
        v = {one: 1}
        for k in range(1, length + 1):
            check_deadline()
            v = times(v, i)
            if not v:
                bound += k - 1
                break
        else:
            return None
    # layer N: the degree-N monomials with nonzero normal form, each as
    # (top, NF) with top its first variable.  A monomial of degree N >= 1 is
    # reached once, as x_i h with i its first variable and h in layer N-1
    # with top >= i; when h is not in layer N-1, NF(h) = 0 and so
    # NF(x_i h) = 0.  Only two layers are alive at a time.
    layer = [(n - 1, {one: 1})]
    degree = 0
    while layer:
        check_deadline()
        if degree == bound:
            raise InternalError("a monomial past the pure-power bound has a "
                                "nonzero normal form")
        degree += 1
        layer = [(i, w) for top, v in layer for i in range(top + 1)
                 if (w := times(v, i))]
    return degree


def _initial_width(polys: list[Polynomial]) -> int:
    """The width _wider gives the largest total degree among the polys,
    and 6 bits (degree 14) at least.  Every term of them then packs:
    make_context freezes its basis without a KeyOverflow, and its degree
    only widens further."""
    return _wider(max([14] + [f.total_degree() for f in polys]))


def _wider(needed_degree: int) -> int:
    """The key width after a KeyOverflow, whose fields hold twice the
    degree asked for.  That degree is above the current C = 2^w - 1, so
    the width grows by 2 bits or more."""
    return (2 * needed_degree + 4).bit_length()


def make_context(gb: list[Polynomial], ring: Ring, order: MonomialOrder,
                 degree: int = 0) -> BasisContext:
    """Prepare a known Groebner basis for repeated reduction, on keys
    whose fields hold at least `degree`."""
    w = _initial_width(gb)
    if (1 << w) - 1 < degree:
        w = _wider(degree)
    spec = PackSpec(ring.n, order, w)
    elems = [_freeze(_to_dict(g, spec), spec, ring.field)
             for g in gb if not g.is_zero()]
    return BasisContext(ring, spec, elems)


class _Buchberger:
    """Buchberger's algorithm with the pair update of Gebauer and Moller
    (J. Symb. Comput. 6, 1988).  A new element h is paired with the active
    set.  Criterion M drops a candidate whose lcm a kept one's strictly
    divides, F keeps one per lcm (a coprime pair first), and then coprime
    pairs go.  B drops a queued (i, j) when lt(h) | lcm(i, j) differs from
    lcm(i, h) and lcm(j, h).  Elements whose leading term lt(h) divides
    leave the active set, which S-polynomials reduce against.  The first
    `gb_prefix` generators join it without pairs.  The criteria run on
    exponent keys (direct form, degree fields cleared): an lcm is a
    fieldwise maximum and a | t one guarded subtraction.  `run` ends at the
    minimal basis: the active elements that are their own only divisor (no
    two leading terms are equal), sorted; `_reduce_final` reduces it."""

    def __init__(self, ring: Ring, spec: PackSpec, limits: Limits,
                 deadline: float | None):
        self.ring = ring
        self.spec = spec
        self.field = ring.field
        self.limits = limits
        self.deadline = deadline
        self.basis: list[GPoly] = []
        self.exps: list[int] = []      # exponent keys of the leading terms
        self.active: list[int] = []    # basis indices, the elements of ctx
        self.ctx = BasisContext(ring, spec, [])
        # (lcm degree, lcm key, i, j, lcm exponent key), a heap
        self.pairs: list[tuple[int, int, int, int, int]] = []

    def _add(self, g: GPoly, with_pairs: bool) -> None:
        spec, ge, w = self.spec, self.spec.g_exp, self.spec.w
        h, exps = len(self.basis), self.exps
        eh = (g.lt_key ^ spec.zero_key) & (ge - (ge >> w))
        self.basis.append(g)
        exps.append(eh)

        def lcm(a: int) -> int:
            d = ((a | ge) - eh) & ge
            m = d - (d >> w)
            return (a & m) | (eh & ~m)

        if with_pairs:
            # criterion B on the queued pairs
            kept = [p for p in self.pairs
                    if ((p[4] | ge) - eh) & ge != ge
                    or lcm(exps[p[2]]) == p[4] or lcm(exps[p[3]]) == p[4]]
            if len(kept) < len(self.pairs):
                heapq.heapify(kept)
                self.pairs = kept
            # criteria M and F: in exponent-key order every divisor of an
            # lcm comes first, and a coprime pair first among equal lcms
            cands = sorted(((e := lcm(exps[i])), e != exps[i] + eh, i)
                           for i in self.active)
            seen: list[int] = []
            for e, useful, i in cands:
                guarded = e | ge
                for s in seen:
                    if (guarded - s) & ge == ge:
                        break
                else:
                    seen.append(e)
                    if useful:
                        lexps = tuple(map(max, self.basis[i].lt_exps,
                                          g.lt_exps))
                        heapq.heappush(self.pairs, (sum(lexps),
                                                    spec.pack(lexps), i, h, e))
        active = [i for i in self.active if ((exps[i] | ge) - eh) & ge != ge]
        if len(active) == len(self.active):
            self.ctx.append(g)
        else:
            self.ctx = BasisContext(self.ring, spec,
                                    [self.basis[i] for i in active] + [g])
        self.active = active + [h]

    def _spoly(self, i: int, j: int, lcm_k: int) -> dict[int, int]:
        spec, sub = self.spec, self.field.sub
        gi, gj = self.basis[i], self.basis[j]
        lcm_deg = spec.key_degree(lcm_k)
        if max(gi.maxdeg + lcm_deg - spec.key_degree(gi.lt_key),
               gj.maxdeg + lcm_deg - spec.key_degree(gj.lt_key)) > spec.C:
            raise KeyOverflow(lcm_deg + max(gi.maxdeg, gj.maxdeg))
        di = lcm_k - gi.lt_key
        dj = lcm_k - gj.lt_key
        work = {k + di: c for k, c in zip(gi.keys, gi.coeffs)}
        for k, c in zip(gj.keys, gj.coeffs):
            k += dj
            v = sub(work.get(k, 0), c)
            if v:
                work[k] = v
            else:
                del work[k]     # v == 0 only where work held c != 0
        return work

    def run(self, gens: list[dict[int, int]], gb_prefix: int) -> list[GPoly]:
        for j, d in enumerate(gens):
            self._add(_freeze(d, self.spec, self.field), j >= gb_prefix)
        while self.pairs:
            if self.deadline is not None and time.monotonic() > self.deadline:
                raise TimeLimitError(
                    "time limit exceeded in basis computation")
            _, lcm_k, i, j, _ = heapq.heappop(self.pairs)
            work = self._spoly(i, j, lcm_k)
            rem = self.ctx.reduce_dict(work)
            if not rem:
                continue
            g = _freeze(rem, self.spec, self.field)
            if g.maxdeg > self.limits.max_degree:
                raise LimitError(
                    f"degree {g.maxdeg} exceeds the limit {self.limits.max_degree}")
            if len(self.basis) >= self.limits.max_basis:
                raise LimitError(
                    f"basis size exceeds the limit {self.limits.max_basis}")
            self._add(g, True)
        return sorted((g for i, g in enumerate(self.ctx.elems)
                       if self.ctx.divisor_indices(g.lt_key) == [i]),
                      key=lambda g: g.lt_key)

    def _reduce_final(self, kept: list[GPoly],
                      divisor: Polynomial | None) -> list[Polynomial]:
        """The reduced basis from the minimal one: reduce each tail once
        against it, since a leading term divides no smaller monomial.
        Given a divisor (see groebner), only the elements free of the first
        block stay, and it divides them first: lt(g/f) = lt(g)/lt(f) keeps
        them minimal and sorted."""
        if divisor is not None:
            div = BasisContext(self.ring, self.spec,
                               [_freeze(_to_dict(divisor, self.spec),
                                        self.spec, self.field)])
            kept = [g for g in kept
                    if not any(g.lt_exps[:self.spec.order.block])]
            quots: list[dict[int, int]] = [{} for _ in kept]
            if any(div.reduce_dict(dict(zip(g.keys, g.coeffs)), q)
                   for g, q in zip(kept, quots)):
                raise InternalError("inexact polynomial division")
            kept = [_freeze(q, self.spec, self.field) for q in quots]
        ctx = BasisContext(self.ring, self.spec, kept)
        return [_to_poly({g.lt_key: 1, **ctx.reduce_dict(
            dict(zip(g.keys[1:], g.coeffs[1:])))}, self.spec, self.ring)
            for g in kept]


def _minimal_run(gens: list[Polynomial], ring: Ring, order: MonomialOrder,
                 limits: Limits, gb_prefix: int, finish):
    """finish(engine, minimal basis) of a run on (gens), [] for no nonzero
    generator; a KeyOverflow, in finish too, restarts on wider keys."""
    nz = [f for f in gens if not f.is_zero()]
    for f in nz:
        if f.ring != ring:
            raise InputError("generators live in different rings")
    if not nz:
        return []
    deadline = limits.deadline()
    w = _initial_width(nz)
    while True:
        spec = PackSpec(ring.n, order, w)
        try:
            eng = _Buchberger(ring, spec, limits, deadline)
            return finish(eng, eng.run([_to_dict(f, spec) for f in nz],
                                       gb_prefix))
        except KeyOverflow as o:
            if o.needed_degree > 2 * limits.max_degree:
                raise LimitError(
                    f"degree {o.needed_degree} exceeds the limit "
                    f"{limits.max_degree}") from None
            w = _wider(o.needed_degree)


def groebner(gens: list[Polynomial], ring: Ring, order: MonomialOrder,
             limits: Limits = DEFAULT_LIMITS, gb_prefix: int = 0,
             divisor: Polynomial | None = None) -> list[Polynomial]:
    """Reduced Groebner basis of (gens) under `order`.

    `gb_prefix` marks an initial segment already known to be a Groebner
    basis under this order: pairs inside the segment are skipped (their
    S-polynomials have standard representations by assumption); callers
    reach it through groebner.GroebnerBasis.extend.  `limits.max_seconds`
    bounds this one call, restarts on wider keys included.  A `divisor`
    f, under block_order(k), makes the answer J / f for J the part of
    (gens) free of the first k variables, which must lie in (f): the
    final pass divides (see groebner.colon_by_basis).  With f = 1 the
    answer is the elimination ideal J itself (groebner.eliminate).
    """
    if divisor is not None and order.kind != "block":
        raise InputError("a divisor needs a block order")
    return _minimal_run(gens, ring, order, limits, gb_prefix,
                        lambda eng, kept: eng._reduce_final(kept, divisor))


def initial_exponents(gens: list[Polynomial], ring: Ring,
                      order: MonomialOrder, limits: Limits = DEFAULT_LIMITS,
                      gb_prefix: int = 0) -> list[tuple[int, ...]]:
    """Sorted leading exponents of the minimal basis of (gens): the same
    corners as the reduced basis of groebner(), with no tail pass."""
    return _minimal_run(gens, ring, order, limits, gb_prefix,
                        lambda eng, kept: [g.lt_exps for g in kept])
