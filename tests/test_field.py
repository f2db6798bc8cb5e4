"""Finite field arithmetic: fixed values, then exhaustive axioms.

The exhaustive block runs every pair and triple for a battery of fields
of size up to 64, covering both table construction paths (prime fields
and extensions with a default or explicit modulus).
"""

import itertools

import pytest

from charplab import Field, GF, InputError, Ring

# one field per construction shape we support; q <= 64 throughout
AXIOM_FIELDS = [
    Field(2), Field(3), Field(5), Field(7), Field(13),
    Field(2, 2), Field(2, 3), Field(2, 4), Field(2, 6),
    Field(3, 2), Field(3, 3), Field(5, 2), Field(7, 2),
]


def test_division_fixed_value_f5():
    F = Field(5)
    assert F.div(1, 2) == 3          # 2 * 3 = 6 = 1
    assert F.mul(2, 3) == 1


def test_extension_generator_relation_f4():
    F = Field(2, 2)                  # modulus g^2 + g + 1
    g = F.generator
    assert g * g == g + F.one


def test_addition_wraps_f7():
    F = Field(7)
    assert F.add(3, 5) == 1


def test_characteristic_must_be_a_prime():
    sieve = [True] * 500
    sieve[0] = sieve[1] = False
    for d in range(2, 23):
        sieve[d * d::d] = [False] * len(range(d * d, 500, d))
    for n in range(-2, 500):
        if n >= 2 and sieve[n]:
            assert Field(n).p == n
        else:
            with pytest.raises(InputError, match="must be a prime"):
                Field(n)
    for bad in (True, False, 2.0, "2"):
        with pytest.raises(InputError, match="must be a prime"):
            Field(bad)


def test_gf_alias():
    assert GF(3, 2) == Field(3, 2)
    # a list modulus is read as the tuple it lists
    assert GF(2, 2, [1, 1, 1]) is GF(2, 2, (1, 1, 1)) == Field(2, 2, [1, 1, 1])


def test_axioms_exhaustive():
    for F in AXIOM_FIELDS:
        codes = range(F.q)
        add, mul = F.add, F.mul
        for a, b in itertools.product(codes, repeat=2):
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
        for a, b, c in itertools.product(codes, repeat=3):
            assert add(add(a, b), c) == add(a, add(b, c))
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


def test_identities_and_inverses_exhaustive():
    for F in AXIOM_FIELDS:
        for a in range(F.q):
            assert F.add(a, 0) == a
            assert F.mul(a, 1) == a
            assert F.mul(a, 0) == 0
            assert F.add(a, F.neg(a)) == 0
            if a:
                assert F.mul(a, F.inv(a)) == 1
                assert F.div(1, a) == F.inv(a)
        with pytest.raises(InputError):
            F.inv(0)


def test_frobenius_fixed_values():
    F4 = Field(2, 2)
    g = F4.generator.code
    assert F4.frobenius(g, 1) == F4.add(g, 1)     # g^2 = g + 1
    for F in AXIOM_FIELDS:
        for a in range(F.q):
            assert F.frobenius(a, 0) == a
    for F in (Field(2), Field(5), Field(13)):
        for a in range(F.q):
            for e in range(4):
                assert F.frobenius(a, e) == a     # prime fields are fixed


def test_frobenius_is_an_automorphism():
    for F in AXIOM_FIELDS:
        frob = F.frobenius
        for a, b in itertools.product(range(F.q), repeat=2):
            assert frob(F.add(a, b)) == F.add(frob(a), frob(b))
            assert frob(F.mul(a, b)) == F.mul(frob(a), frob(b))


def test_frobenius_cycles_with_period_dividing_m():
    # a^q = a for every element: e = m closes the loop
    for F in AXIOM_FIELDS:
        for a in range(F.q):
            assert F.frobenius(a, F.m) == a
            assert F.pow(a, F.q) == (a if a else 0)


def test_pow_matches_repeated_multiplication():
    for F in AXIOM_FIELDS[:8]:
        for a in range(F.q):
            acc = 1
            for n in range(5):
                assert F.pow(a, n) == acc
                acc = F.mul(acc, a)


def test_coords_round_trip():
    for F in AXIOM_FIELDS:
        for a in range(F.q):
            assert F.from_coords(F.coords(a)) == a


def test_element_wrapper_arithmetic():
    F = Field(3, 2)
    xs = list(F.elements())
    assert len(xs) == 9
    for a in xs[:5]:
        for b in xs[:5]:
            assert (a + b).code == F.add(a.code, b.code)
            assert (a * b).code == F.mul(a.code, b.code)
            assert (a - b).code == F.sub(a.code, b.code)
        assert (-a).code == F.neg(a.code)
        assert (a ** 3).code == F.pow(a.code, 3)
        if a.code:
            assert (F.one / a).code == F.inv(a.code)


def test_bad_construction_rejected():
    with pytest.raises(InputError):
        Field(4)                     # not prime
    with pytest.raises(InputError):
        Field(2, 0)
    with pytest.raises(InputError):
        Field(2, 2, modulus=(0, 0, 1))   # g^2 is reducible
    with pytest.raises(InputError):
        Field(2, 2, modulus=(1, 1))      # wrong length
    with pytest.raises(InputError):
        Field(2, 2, modulus=(1, 1, 2))   # 2 = 0: not monic
    for modulus in ((2.9, 2, 1), (2, True, 1), ("2", 2, 1)):
        with pytest.raises(InputError, match="must be integers"):
            Field(3, 2, modulus=modulus)
    with pytest.raises(InputError, match="must be integers"):
        Field(3, 1, modulus=(0.0, 1.0))
    # both are rejected by the size bound before any costly work: trial
    # division up to sqrt(2^61 - 1), or forming 3^200000000
    with pytest.raises(InputError, match="exceeds the supported bound"):
        Field(2305843009213693951)
    with pytest.raises(InputError, match="exceeds the supported bound"):
        Field(3, 200000000)


def test_equal_fields_accept_each_others_elements():
    assert Field(3).one + Field(3).one == 2
    # equal rings on separate field objects: substitution reads each
    # coefficient into the target's field
    x, y = Ring(Field(3), ("x", "y")).gens()
    u, v = Ring(Field(3), ("u", "v")).gens()
    assert (x * x + 2 * y).substitute({0: u, 1: v}) == u * u + 2 * v
    assert x + Ring(Field(3), ("x", "y")).variable(0) == 2 * x
    # GF(9) under another modulus is another field
    other = Field(3, 2, (2, 2, 1))
    assert other != Field(3, 2)
    with pytest.raises(InputError, match="different field"):
        Field(3, 2).one + other.one
