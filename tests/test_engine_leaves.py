"""The reduction leaves against brute-force definitions.

Key degrees against unpacked exponents, and the one overflow rule (a
total degree above the field capacity), for every order shape and for
layouts narrower and wider than 62 bits; the divisor searches against an
exponent-wise scan for bases on both sides of the cutoff between the
leading-key scan and the per-variable bitmask index, built at once or one
`append` at a time across the cutoff, with query keys and later leading
exponents past the ends of the index tables, and with keys of lower
degree than every leading term, which the searches alone turn away; the
list-table field operations against digit arithmetic for every pair of
codes.
"""

import itertools
import random

import pytest

from charplab import GREVLEX, LEX, Field, Ring, block_order
from charplab.engine import SCAN_MAX_BASIS, BasisContext, GPoly, \
    KeyOverflow, PackSpec, _freeze


def orders_for(n):
    out = [GREVLEX, LEX]
    out += [block_order(k) for k in range(1, n)]
    return out


def random_exps(rng, n, cap):
    """Exponents with total degree at most cap (so every layout packs)."""
    exps = [0] * n
    budget = rng.randrange(cap + 1)
    for i in rng.sample(range(n), n):
        exps[i] = rng.randrange(budget + 1)
        budget -= exps[i]
    return tuple(exps)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("w", [5, 8, 13, 21, 70])
def test_key_degree_is_the_sum_of_unpacked_exponents(n, w):
    rng = random.Random(n * 100 + w)
    for order in orders_for(n):
        spec = PackSpec(n, order, w)
        for _ in range(200):
            exps = random_exps(rng, n, spec.C)
            key = spec.pack(exps)
            assert spec.unpack(key) == exps
            assert spec.key_degree(key) == sum(exps)
        # one rule for every layout: a total degree above C overflows, also
        # where each field alone would hold its value
        over = tuple((spec.C + 1) // n + (i < (spec.C + 1) % n)
                     for i in range(n))
        with pytest.raises(KeyOverflow) as info:
            spec.pack(over)
        assert info.value.needed_degree == spec.C + 1


def test_widths_reach_past_62_bits():
    # the top guard bit is the highest bit of a layout
    assert PackSpec(4, GREVLEX, 21).g_all.bit_length() > 62
    assert PackSpec(1, LEX, 70).g_all.bit_length() > 62


def test_a_lex_key_is_one_bare_exponent_field_per_variable():
    # lex is n one-variable grevlex blocks; 4-bit fields with a guard bit
    spec = PackSpec(3, LEX, 4)
    assert spec.var_shifts == (10, 5, 0)
    assert spec.var_steps == (1024, 32, 1)
    assert spec.deg_shifts == (10, 5, 0)
    assert spec.zero_key == 0
    assert spec.g_all == spec.g_exp == 0x4210
    assert spec.pack((1, 2, 3)) == 1024 + 2 * 32 + 3


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_frozen_maxdeg_is_the_largest_term_degree(n):
    rng = random.Random(n)
    field = Field(5)
    for order in orders_for(n):
        spec = PackSpec(n, order, 8)
        for _ in range(200):
            terms = {random_exps(rng, n, 12): rng.randrange(1, 5)
                     for _ in range(rng.randrange(1, 8))}
            d = {spec.pack(e): c for e, c in terms.items()}
            assert _freeze(d, spec, field).maxdeg == max(map(sum, terms))


def context_of(n, order, w, lts):
    spec = PackSpec(n, order, w)
    elems = []
    for exps in lts:
        elems.append(GPoly([spec.pack(exps)], [1], exps, sum(exps)))
    ring = Ring(Field(5), tuple(f"x{i}" for i in range(n)))
    return BasisContext(ring, spec, elems)


def brute_divisors(elems, key, spec):
    exps = spec.unpack(key)
    return [i for i, g in enumerate(elems)
            if all(a <= b for a, b in zip(g.lt_exps, exps))]


def assert_searches_match(ctx, key, brute):
    got = ctx.divisor_indices(key)
    assert got == brute
    assert all(type(i) is int for i in got)
    assert ctx.find_reducer(key) == (brute[0] if brute else None)


@pytest.mark.parametrize("size", [1, SCAN_MAX_BASIS // 2, SCAN_MAX_BASIS,
                                  SCAN_MAX_BASIS + 1, 4 * SCAN_MAX_BASIS])
@pytest.mark.parametrize("w", [8, 21])
def test_divisor_searches_match_brute_force(size, w):
    rng = random.Random(size * 1000 + w)
    for n in (1, 2, 3, 4):
        for order in orders_for(n):
            # repeated and mutually dividing leading terms on purpose: the
            # lowest index must win among several divisors.  The degree cap
            # grows along the list, so elements appended after the index is
            # built reach past the ends of its tables
            lts = [random_exps(rng, n, 4 + 12 * j // size)
                   for j in range(size)]
            ctx = context_of(n, order, w, lts)
            spec = ctx.spec
            grown = BasisContext(ctx.ring, spec, [])
            for g in ctx.elems:
                grown.append(g)
                extra = spec.pack(random_exps(rng, n, 16))
                for key in (g.lt_key, extra):
                    assert_searches_match(
                        grown, key, brute_divisors(grown.elems, key, spec))
            if size > 2 * SCAN_MAX_BASIS:
                # some element after the cutoff has an exponent above every
                # earlier one in some variable
                assert any(g.lt_exps[i] > max(h.lt_exps[i]
                                              for h in ctx.elems[:j])
                           for j, g in enumerate(ctx.elems)
                           if j > SCAN_MAX_BASIS for i in range(n))
            keys = [g.lt_key for g in ctx.elems]
            keys += [spec.pack(random_exps(rng, n, 20)) for _ in range(150)]
            # past the end of every table: each exponent above every
            # leading exponent
            keys += [spec.pack(tuple(rng.randrange(16, 30)
                                     for _ in range(n))) for _ in range(5)]
            for key in keys:
                brute = brute_divisors(ctx.elems, key, spec)
                assert_searches_match(ctx, key, brute)
                assert_searches_match(grown, key, brute)


def test_empty_basis_has_no_divisors():
    ctx = context_of(3, GREVLEX, 8, [])
    key = ctx.spec.pack((1, 2, 3))
    assert ctx.divisor_indices(key) == []
    assert ctx.find_reducer(key) is None


@pytest.mark.parametrize("size", [SCAN_MAX_BASIS, 4 * SCAN_MAX_BASIS])
def test_a_key_below_every_leading_degree_finds_no_reducer(size):
    # every leading term has degree at least 3, so no key of degree 2 or
    # less has a divisor; the leading-key scan and the bitmask index each
    # answer on their own
    rng = random.Random(size)
    lts = [tuple(e + 1 for e in random_exps(rng, 3, 9)) for _ in range(size)]
    for order in orders_for(3):
        ctx = context_of(3, order, 8, lts)
        assert (ctx._index is None) == (size <= SCAN_MAX_BASIS)
        for low in itertools.product(range(3), repeat=3):
            if sum(low) <= 2:
                key = ctx.spec.pack(low)
                assert ctx.find_reducer(key) is None
                assert ctx.divisor_indices(key) == []


LEAF_FIELDS = [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (5, 2), (7, 2)]


def digits(F, a):
    return [(a // F.p**i) % F.p for i in range(F.m)]


def undigits(F, ds):
    return sum((d % F.p) * F.p**i for i, d in enumerate(ds))


@pytest.mark.parametrize("p,m", LEAF_FIELDS)
def test_list_table_field_ops_match_digit_arithmetic(p, m):
    F = Field(p, m)
    codes = range(F.q)
    inverse = {}
    for a, b in itertools.product(codes, repeat=2):
        raw = F._mul_codes_raw(a, b)
        assert F.mul(a, b) == raw
        if raw == 1:
            inverse[a] = b
        da, db = digits(F, a), digits(F, b)
        assert F.add(a, b) == undigits(F, [x + y for x, y in zip(da, db)])
        assert F.sub(a, b) == undigits(F, [x - y for x, y in zip(da, db)])
    for a in codes:
        assert F.neg(a) == undigits(F, [-x for x in digits(F, a)])
        assert type(F.mul(a, a)) is int and type(F.neg(a)) is int
        power = 1
        for k in range(F.q + 2):
            assert F.pow(a, k) == power
            power = F._mul_codes_raw(power, a)
    for b in range(1, F.q):
        assert F.inv(b) == inverse[b]
        assert F.pow(b, -1) == inverse[b]
        for a in codes:
            assert F.div(a, b) == F._mul_codes_raw(a, inverse[b])
