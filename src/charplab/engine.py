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
layout.  Widths are chosen per computation.  When a term the computation
builds, or a pair a Buchberger run pops for reduction, outgrows the
current width, the whole computation is restarted with wider fields
(KeyOverflow is the internal signal, asking for a degree above C); the
new fields hold twice the degree asked for, and only the degree limit
(Limits.max_degree, the default one for normal forms and quotients) turns
a restart into an error.  A queued pair that criterion B or a degree cut
drops unreduced never restarts a run, however high its lcm's degree (see
_Buchberger).
Keys are arbitrary-precision ints.  The divisor search over a large
basis's leading terms ANDs one bitmask per variable (see BasisContext), at
any width.  A Buchberger run keeps the exponent keys of its active
elements side by side in one int, so that one guarded subtraction over it
gives the lcms of a new leading term with all of them and the elements it
divides; the pair criteria then sort those lcms once and drop the
multiples of each kept one in one step (see _Buchberger).

Polynomials here are bare dicts {key: coefficient code}; conversion from and
to the public Polynomial type happens at the boundary.  The one
term-by-term division loop is BasisContext.reduce_dict: normal_forms()
reduces a list of polynomials against one basis on one context, and
exact_quotient() reads h/f off the steps that reduce h against (f).  One
Buchberger run ends at the minimal basis: groebner() then reduces tails,
while initial_exponents() stops there.  All of these run inside one
restart loop (_on_wide_keys), the only place that chooses a key width.

A colon step (I : f), colon_basis(), tracks cofactors in the ring's own
variables (Moller, J. Symb. Comput. 6, 1988): the run on I's basis and f
keeps, per element h, an a with h = a f modulo I.  A pair that reduces to
zero is a syzygy whose cofactor lies in (I : f); the kept pairs' syzygies
and the coprime pairs' Koszul ones, which map into I, generate all
syzygies, so I and those cofactors generate (I : f).
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
from .orders import GREVLEX, MonomialOrder
from .poly import Polynomial, Ring

DEFAULT_MAX_BASIS = 5000
DEFAULT_MAX_DEGREE = 1 << 20


class Limits:
    """Resource caps for basis computations; shared across the package.
    `max_seconds` is a wall-clock budget for each basis computation."""

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
# 84-141 element grevlex contexts of the `chain` benchmark's colon steps,
# find_reducer takes 0.65-0.69 microseconds.
SCAN_MAX_BASIS = 48


class GPoly:
    """A monic basis element frozen for fast reduction."""

    __slots__ = ("keys", "coeffs", "lt_key", "lt_exps", "maxdeg", "excess")

    def __init__(self, keys: list[int], coeffs: list[int],
                 lt_exps: tuple[int, ...], maxdeg: int):
        self.keys = keys          # descending; keys[0] is the leading term
        self.coeffs = coeffs      # coeffs[0] == 1
        self.lt_key = keys[0]
        self.lt_exps = lt_exps
        self.maxdeg = maxdeg
        # how far a term's degree exceeds the leading term's: a multiple
        # m*g reaches degree deg(m lt) + excess; 0 under grevlex
        self.excess = maxdeg - sum(lt_exps)


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
                    steps: list | None = None) -> dict[int, int]:
        """Full normal form of a working dict; consumes its argument.

        `steps` receives (element index, key(m) - key(1), c) for each step
        that subtracts c*m times an element, so that work is the sum of
        those multiples plus the remainder."""
        spec, field = self.spec, self.field
        C = spec.C
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
            if g.excess:    # else no term of the step outgrows k's degree
                top = g.excess + key_degree(k)
                if top > C:
                    raise KeyOverflow(top)
            delta = k - g.lt_key
            if steps is not None:
                steps.append((gi, delta, c))
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


def _initial_width(polys: list[Polynomial]) -> int:
    """The width _wider gives the largest total degree among the polys,
    and 6 bits (degree 14) at least, so that every term of them packs."""
    return _wider(max([14] + [f.total_degree() for f in polys]))


def _wider(needed_degree: int) -> int:
    """The key width after a KeyOverflow, whose fields hold twice the
    degree asked for.  That degree is above the current C = 2^w - 1, so
    the width grows by 2 bits or more."""
    return (2 * needed_degree + 4).bit_length()


def _on_wide_keys(polys: list[Polynomial], ring: Ring, order: MonomialOrder,
                  limits: Limits, attempt):
    """attempt(spec) on keys that pack every term of polys.  A KeyOverflow
    in attempt retries it from scratch on wider keys; one that asks for a
    degree above twice limits.max_degree raises LimitError."""
    w = _initial_width(polys)
    while True:
        try:
            return attempt(PackSpec(ring.n, order, w))
        except KeyOverflow as o:
            if o.needed_degree > 2 * limits.max_degree:
                raise LimitError(
                    f"degree {o.needed_degree} exceeds the limit "
                    f"{limits.max_degree}") from None
            w = _wider(o.needed_degree)


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
    two leading terms are equal), sorted; `_reduce_final` reduces it.

    M, F and the retirements run on all active elements at once.  Their
    exponent keys sit side by side in one int, `packed`, one slot per
    element in `active` order; a slot is a multiple of 64 bits with a flag
    bit above the key.  One guarded subtraction of lt(h), repeated in every
    slot, gives every lcm with lt(h) and every element that lt(h) divides:
    the slots where each field keeps its guard.  The lcms are unpacked in
    one call and sorted once by (lcm, slot).  A divisor of an lcm has a
    smaller key, so the first slot of each lcm that no kept lcm divides is
    minimal (M), and one more subtraction drops every slot whose lcm it
    divides, the equal ones too (F).  That first slot is the coprime pair
    if the lcm has one: if (c, h) is coprime and lcm(a, h) = lcm(c, h),
    then lt(c) divides lt(a), and no active leading term divides one in an
    earlier slot, since adding an element retires those its leading term
    divides.  So the queued pairs are those of the update that scans the
    candidates one at a time (kept as a test oracle).

    Pairs pop by lcm degree, then lcm key.  A pair whose lcm has degree
    above C is queued unpacked, with key None: its degree sorts it after
    every pair that fits (pairs of one degree are all packed or all
    unpacked, so None meets no int), and B reads only its exponent key,
    which always fits, each field being a leading term's.  Popping it
    raises KeyOverflow, before _spoly or _track reads its key.  Key
    comparisons are monomial-order comparisons at any width, so every
    attempt pops the same pairs in the same order until it overflows, and
    the reduced basis does not depend on the width; a pair B drops before
    it is popped costs no restart.

    A `degree_cut` maps the leading exponents of the active elements to a
    degree D, or to None, and the run drops every popped pair whose lcm
    has degree D or more past the first block: in the last n - k variables
    under block_order(k), in all of them under grevlex.  The minimal
    basis the run then ends at need not be one of the ideal.  Under
    block_order(1), with D read off the x-parts of the homogenized run,
    the tangent cone read off it is exact (the groebner module docstring
    says why).  Under grevlex, with a constant D and homogeneous
    generators, it is a (D - 1)-truncated basis, whose leading terms give
    the Hilbert function exactly up to degree D - 1: pairs pop by degree,
    so every pair below D is reduced, and criteria B, M and F drop a pair
    only for pairs whose lcms divide its own, of no higher degree.  D is
    read lazily, at a pop that the last D does not cut, and only once a
    quarter of the basis is new since the last read.  The cut comes
    before the restart an unpacked pair asks for, so a dropped pair costs
    none."""

    def __init__(self, ring: Ring, spec: PackSpec, limits: Limits,
                 deadline: float | None, degree_cut=None):
        self.ring = ring
        self.spec = spec
        self.field = ring.field
        self.limits = limits
        self.deadline = deadline
        self.bound = degree_cut
        # the last D the bound gave (None before one), and the basis size
        # when it was last read
        self.cut: int | None = None
        self.cut_read = 0
        self.basis: list[GPoly] = []
        self.exps: list[int] = []      # exponent keys of the leading terms
        self.active: list[int] = []    # basis indices, the elements of ctx
        self.ctx = BasisContext(ring, spec, [])
        # (lcm degree, lcm key or None above C, i, j, lcm exponent key)
        self.pairs: list[tuple[int, int | None, int, int, int]] = []
        # the exponent keys of `active`, slot s holding active[s]'s, in
        # slots of `slot` bits: room for the key and a flag bit above it
        self.packed = 0
        self.slot = 64 * (spec.g_all.bit_length() // 64 + 1)
        self.cap = 0        # slots that the constants below replicate
        self.ones = self.guards = self.full = self.flags = 0

    def _grow(self, n: int) -> None:
        """Replicate the per-slot constants over at least n slots, doubling
        so that a run builds O(log n) of them."""
        self.cap = max(n, 2 * self.cap)
        top = 1 << (self.slot - 1)
        self.ones = int.from_bytes(
            (1).to_bytes(self.slot // 8, "little") * self.cap, "little")
        ge = self.spec.g_exp
        self.guards = ge * self.ones
        # a slot of d (guard bits of ge only) plus top - ge sets the flag
        # bit exactly when d holds every guard of ge
        self.full = (top - ge) * self.ones
        self.flags = top * self.ones

    def _unpack(self, packed: int, n: int) -> list[int]:
        """The n slots of `packed`."""
        size = self.slot // 8
        raw = packed.to_bytes(n * size, "little")
        if size == 8 and sys.byteorder == "little":
            return memoryview(raw).cast("Q").tolist()
        return [int.from_bytes(raw[k:k + size], "little")
                for k in range(0, n * size, size)]

    def _flagged(self, bits: int, n: int) -> bytes:
        """Per slot of n, nonzero when its flag bit is set."""
        size = self.slot // 8
        return bits.to_bytes(n * size, "little")[size - 1::size]

    def _add(self, g: GPoly, with_pairs: bool) -> None:
        spec, ge, w = self.spec, self.spec.g_exp, self.spec.w
        h, exps, active = len(self.basis), self.exps, self.active
        n = len(active)
        eh = (g.lt_key ^ spec.zero_key) & (ge - (ge >> w))
        self.basis.append(g)
        exps.append(eh)

        if with_pairs and self.pairs:
            def lcm(a: int) -> int:
                d = ((a | ge) - eh) & ge
                m = d - (d >> w)
                return (a & m) | (eh & ~m)

            # criterion B on the queued pairs
            kept = [p for p in self.pairs
                    if ((p[4] | ge) - eh) & ge != ge
                    or lcm(exps[p[2]]) == p[4] or lcm(exps[p[3]]) == p[4]]
            if len(kept) < len(self.pairs):
                heapq.heapify(kept)
                self.pairs = kept
        packed, retired = self.packed, 0
        if n:
            if n > self.cap:
                self._grow(n)
            # the constants over n slots; every slot holds the same value
            cut = (self.cap - n) * self.slot
            ones, guards, full, flags = (self.ones >> cut, self.guards >> cut,
                                         self.full >> cut, self.flags >> cut)
            # every slot at once: a field of a keeps its guard bit through
            # the subtraction exactly when it is at least eh's, and eh
            # divides a when every field of a does
            ehs = eh * ones
            d = ((packed | guards) - ehs) & guards
            retired = (d + full) & flags
            if with_pairs:
                # criteria M and F on lcm(a, eh), sorted once by (lcm, slot):
                # the first slot of an lcm that no kept lcm divides is minimal,
                # and one step drops every slot whose lcm it divides.  Among
                # equal lcms a coprime pair is first (see the class docstring)
                # and queues nothing
                lcms = ehs ^ ((packed ^ ehs) & (d - (d >> w)))
                vals = self._unpack(lcms, n)
                lcms |= guards
                order = sorted(range(n), key=vals.__getitem__)
                last = order[-1]
                dead = bytes(n)
                killed = 0
                for s in order:
                    if dead[s]:
                        continue
                    e, i = vals[s], active[s]
                    if e != exps[i] + eh:
                        lexps = tuple(map(max, self.basis[i].lt_exps,
                                          g.lt_exps))
                        deg = sum(lexps)
                        key = spec.pack(lexps) if deg <= spec.C else None
                        heapq.heappush(self.pairs, (deg, key, i, h, e))
                    if s != last:
                        killed |= ((((lcms - e * ones) & guards) + full)
                                   & flags)
                        dead = self._flagged(killed, n)
        if retired:
            active = [i for i, r in zip(active, self._flagged(retired, n))
                      if not r]
            self.ctx = BasisContext(self.ring, spec,
                                    [self.basis[i] for i in active] + [g])
            size = self.slot // 8
            packed = int.from_bytes(b"".join(
                exps[i].to_bytes(size, "little") for i in active), "little")
        else:
            self.ctx.append(g)
        self.packed = packed | eh << (len(active) * self.slot)
        self.active = active + [h]

    def _spoly(self, i: int, j: int, lcm_k: int) -> dict[int, int]:
        spec, sub = self.spec, self.field.sub
        gi, gj = self.basis[i], self.basis[j]
        top = spec.key_degree(lcm_k) + max(gi.excess, gj.excess)
        if top > spec.C:
            raise KeyOverflow(top)
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

    def run(self, gens: list[dict[int, int]], gb_prefix: int,
            cofactors: bool = False) -> list[GPoly]:
        """The minimal basis of (gens), or with `cofactors` of (I : f) for
        gens I's basis and then f: `cofs` holds (cofactor, degree) per
        element, and a second run extends I's basis by what `colon` gathers."""
        for j, d in enumerate(gens):
            self._add(_freeze(d, self.spec, self.field), j >= gb_prefix)
        if cofactors:       # f / lc(f) is frozen, and lc leads under grevlex
            self.cofs = [({}, 0)] * gb_prefix + [({self.spec.zero_key: (
                self.field.inv(gens[-1][max(gens[-1])]))}, 0)]
            self.colon = BasisContext(self.ring, self.spec,
                                      self.basis[:gb_prefix])
        while self.pairs:
            if self.deadline is not None and time.monotonic() > self.deadline:
                raise TimeLimitError(
                    "time limit exceeded in basis computation")
            d, lcm_k, i, j, e = heapq.heappop(self.pairs)
            if self.bound is not None and self._past_bound(d, e):
                continue
            if lcm_k is None:
                raise KeyOverflow(d)
            work = self._spoly(i, j, lcm_k)
            steps = [] if cofactors else None
            rem = self.ctx.reduce_dict(work, steps)
            if cofactors:
                self._track(i, j, lcm_k, steps, rem)
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
        if cofactors:       # the second run, on I's basis and what colon kept
            gens = [dict(zip(g.keys, g.coeffs)) for g in self.colon.elems]
            return _Buchberger(self.ring, self.spec, self.limits,
                               self.deadline).run(gens, gb_prefix)
        return sorted((g for i, g in enumerate(self.ctx.elems)
                       if self.ctx.divisor_indices(g.lt_key) == [i]),
                      key=lambda g: g.lt_key)

    def _past_bound(self, d: int, e: int) -> bool:
        """Whether the lcm of degree d and exponent key e has degree at
        least D past the first block (see the class docstring)."""
        spec = self.spec
        for sh in spec.var_shifts[:spec.order.block or 0]:   # none: grevlex
            d -= (e >> sh) & spec.C
        if self.cut is None or d < self.cut:
            n = len(self.basis)
            if 4 * (n - self.cut_read) < n:
                return False
            self.cut_read = n
            got = self.bound([self.basis[a].lt_exps for a in self.active])
            if got is None:
                return False
            self.cut = got
        return d >= self.cut

    def _track(self, i: int, j: int, lcm_k: int, steps: list,
               rem: dict[int, int]) -> None:
        """The cofactor of S(i, j)'s remainder, x^d_i a_i - x^d_j a_j minus
        c x^delta a_k per step, scaled as _freeze scales the remainder and
        reduced against `colon`, which changes no a f modulo I.  For a zero
        remainder it lies in (I : f), kept unless `colon` (no basis, but a
        zero remainder proves membership) reduces it to zero."""
        spec, field, mul = self.spec, self.field, self.field.mul
        inv = field.inv(rem[max(rem)]) if rem else 1
        out: dict[int, int] = {}
        for b, delta, c in [(i, lcm_k - self.basis[i].lt_key, field.neg(inv)),
                            (j, lcm_k - self.basis[j].lt_key, inv)] + [
                (self.active[e], delta, mul(inv, c)) for e, delta, c in steps]:
            terms, deg = self.cofs[b]
            deg += spec.key_degree(delta + spec.zero_key)
            if deg > spec.C:
                raise KeyOverflow(deg)
            for k, v in terms.items():     # reduce_dict skips zero codes
                out[k + delta] = field.sub(out.get(k + delta, 0), mul(c, v))
        out = self.colon.reduce_dict(out)
        if rem:
            self.cofs.append((out, spec.key_degree(max(out, default=0))))
        elif out:
            self.colon.append(_freeze(out, spec, field))

    def _reduce_final(self, kept: list[GPoly],
                      elimination: bool = False) -> list[Polynomial]:
        """The reduced basis from the minimal one: reduce each tail once
        against it, since a leading term divides no smaller monomial.
        Under `elimination` only the elements free of the first block stay
        (see groebner); they stay minimal and sorted."""
        if elimination:
            kept = [g for g in kept
                    if not any(g.lt_exps[:self.spec.order.block])]
        ctx = BasisContext(self.ring, self.spec, kept)
        return [_to_poly({g.lt_key: 1, **ctx.reduce_dict(
            dict(zip(g.keys[1:], g.coeffs[1:])))}, self.spec, self.ring)
            for g in kept]


def _minimal_run(gens: list[Polynomial], ring: Ring, order: MonomialOrder,
                 limits: Limits, gb_prefix: int, finish, cofactors=False,
                 degree_cut=None):
    """finish(engine, minimal basis) of a run on (gens), which are all
    nonzero; a KeyOverflow, in finish too, restarts on wider keys."""
    deadline = limits.deadline()

    def attempt(spec: PackSpec):
        eng = _Buchberger(ring, spec, limits, deadline, degree_cut)
        return finish(eng, eng.run([_to_dict(f, spec) for f in gens],
                                   gb_prefix, cofactors))

    return _on_wide_keys(gens, ring, order, limits, attempt)


def groebner(gens: list[Polynomial], ring: Ring, order: MonomialOrder,
             limits: Limits = DEFAULT_LIMITS, gb_prefix: int = 0,
             elimination: bool = False) -> list[Polynomial]:
    """Reduced Groebner basis of (gens), none of them zero, under `order`.

    `gb_prefix` marks an initial segment already known to be a Groebner
    basis under this order: pairs inside the segment are skipped (their
    S-polynomials have standard representations by assumption); callers
    reach it through groebner.GroebnerBasis.extend.  `limits.max_seconds`
    bounds this one call, restarts on wider keys included.  Under
    block_order(k), `elimination` keeps the part free of the first k
    variables, the elimination ideal's reduced basis (groebner.eliminate).
    """
    if elimination and order.kind != "block":
        raise InputError("elimination needs a block order")
    return _minimal_run(gens, ring, order, limits, gb_prefix,
                        lambda eng, kept: eng._reduce_final(kept, elimination))


def colon_basis(gb: list[Polynomial], f: Polynomial, ring: Ring,
                limits: Limits = DEFAULT_LIMITS) -> list[Polynomial]:
    """Reduced grevlex basis of (I : f), gb a grevlex basis of I and f
    nonzero: two runs (see _Buchberger.run) under one restart loop and one
    deadline."""
    return _minimal_run(gb + [f], ring, GREVLEX, limits, len(gb),
                        lambda eng, kept: eng._reduce_final(kept), True)


def initial_exponents(gens: list[Polynomial], ring: Ring,
                      order: MonomialOrder, limits: Limits = DEFAULT_LIMITS,
                      gb_prefix: int = 0,
                      degree_cut=None) -> list[tuple[int, ...]]:
    """Sorted leading exponents of the minimal basis of (gens), none of
    them zero: the corners of groebner()'s basis, with no tail pass.  A
    `degree_cut`, under grevlex or a block order, drops the pairs past it
    (see _Buchberger), and the basis it ends at then need not be one of
    (gens); on homogeneous gens under grevlex, a cut at a constant D
    leaves one that is exact below degree D."""
    if degree_cut is not None and order.kind == "lex":
        raise InputError("a degree cut needs grevlex or a block order")
    return _minimal_run(gens, ring, order, limits, gb_prefix,
                        lambda eng, kept: [g.lt_exps for g in kept],
                        degree_cut=degree_cut)


def normal_forms(gb: list[Polynomial], fs: list[Polynomial], ring: Ring,
                 order: MonomialOrder) -> list[Polynomial]:
    """The fully reduced remainder of each of fs against gb, a Groebner
    basis under `order` with no zero element, on one context."""
    field = ring.field

    def attempt(spec: PackSpec) -> list[Polynomial]:
        ctx = BasisContext(ring, spec, [_freeze(_to_dict(g, spec), spec, field)
                                        for g in gb])
        return [_to_poly(ctx.reduce_dict(_to_dict(f, spec)), spec, ring)
                for f in fs]

    return _on_wide_keys([*gb, *fs], ring, order, DEFAULT_LIMITS, attempt)


def exact_quotient(h: Polynomial, f: Polynomial, ring: Ring) -> Polynomial:
    """h/f for a nonzero f that divides h: the multipliers of the steps
    that reduce h against the one-element basis (f), scaled back by lc(f),
    since the frozen element is f / lc(f)."""
    field = ring.field

    def attempt(spec: PackSpec) -> Polynomial:
        d = _to_dict(f, spec)
        ctx = BasisContext(ring, spec, [_freeze(d, spec, field)])
        steps: list = []
        if ctx.reduce_dict(_to_dict(h, spec), steps):
            raise InternalError("inexact polynomial division")
        inv = field.inv(d[max(d)])
        return _to_poly({delta + spec.zero_key: field.mul(inv, c)
                         for _, delta, c in steps}, spec, ring)

    return _on_wide_keys([h, f], ring, GREVLEX, DEFAULT_LIMITS, attempt)
