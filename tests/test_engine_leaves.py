"""The reduction leaves against brute-force definitions.

Key degrees against unpacked exponents for every order shape and for
layouts on both sides of the 62-bit numpy limit; the divisor searches
against an exponent-wise scan for bases on both sides of the scan/numpy
cutoff, built at once or one `append` at a time; the list-table field
operations against digit arithmetic for every pair of codes.
"""

import itertools
import random

import pytest

from charplab import GREVLEX, LEX, Field, Ring, block_order
from charplab.engine import SCAN_MAX_BASIS, BasisContext, GPoly, PackSpec


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


def test_widths_reach_past_the_numpy_layout():
    assert PackSpec(4, GREVLEX, 21).nbits > 62
    assert PackSpec(1, LEX, 70).nbits > 62


def context_of(n, order, w, lts):
    spec = PackSpec(n, order, w)
    elems = []
    for exps in lts:
        elems.append(GPoly([spec.pack(exps)], [1], exps, sum(exps)))
    ring = Ring(Field(5), tuple(f"x{i}" for i in range(n)))
    return BasisContext(ring, order, spec, elems)


@pytest.mark.parametrize("size", [1, SCAN_MAX_BASIS // 2, SCAN_MAX_BASIS,
                                  SCAN_MAX_BASIS + 1, 4 * SCAN_MAX_BASIS])
@pytest.mark.parametrize("w", [8, 21])
def test_divisor_searches_match_brute_force(size, w):
    rng = random.Random(size * 1000 + w)
    for n in (2, 3, 4):
        for order in orders_for(n):
            # repeated and mutually dividing leading terms on purpose: the
            # lowest index must win among several divisors
            lts = [random_exps(rng, n, 9) for _ in range(size)]
            ctx = context_of(n, order, w, lts)
            spec = ctx.spec
            grown = BasisContext(ctx.ring, order, spec, [])
            for g in ctx.elems:
                grown.append(g)
            vectorized = size > SCAN_MAX_BASIS and spec.nbits <= 62
            assert (ctx._lt_arr is not None) == vectorized
            assert (grown._lt_arr is not None) == vectorized
            assert grown.min_lt_deg == ctx.min_lt_deg
            keys = [g.lt_key for g in ctx.elems]
            keys += [spec.pack(random_exps(rng, n, 14)) for _ in range(150)]
            for key in keys:
                exps = spec.unpack(key)
                brute = [i for i, g in enumerate(ctx.elems)
                         if all(a <= b for a, b in zip(g.lt_exps, exps))]
                assert ctx.divisor_indices(key) == brute
                assert all(type(i) is int for i in ctx.divisor_indices(key))
                got = ctx.find_reducer(key, spec.key_degree(key))
                assert got == (brute[0] if brute else None)
                assert grown.divisor_indices(key) == brute
                assert grown.find_reducer(key, spec.key_degree(key)) == got


def test_empty_basis_has_no_divisors():
    ctx = context_of(3, GREVLEX, 8, [])
    key = ctx.spec.pack((1, 2, 3))
    assert ctx.divisor_indices(key) == []
    assert ctx.find_reducer(key, 6) is None


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
