"""Trace-form discriminants of A[z]/(f) and their T-adic congruences.

The determinant path is cross-checked against signed permutation
expansion, and specializations at field points are recomputed with a
numeric trace pairing written directly against the field API.
"""

import itertools
import random

import pytest

from charplab import (
    Field, FiniteExtensionPresentation, InputError, Polynomial, Ring,
    bareiss_determinant, disc_congruence_check, discriminant, mult_matrix,
    parse_poly, trace_matrix,
)
from charplab.discriminant import congruence_order
from oracles import det_permanent_style


def extension(p, relation_text, base_vars=("u",), zname="z", m=1):
    base = Ring(Field(p, m), base_vars)
    ring = Ring(base.field, base_vars + (zname,))
    return FiniteExtensionPresentation(base, zname,
                                       parse_poly(relation_text, ring))


# -- closed forms ------------------------------------------------------------------

def test_quadratic_discriminant():
    P = extension(5, "z^2 - u")
    assert discriminant(P).text() == "4*u"


def test_artin_schreier_discriminant_is_a_unit():
    P = extension(2, "z^2 + z + u")
    d = discriminant(P)
    assert d.is_constant() and d.constant_code() == 1


def test_inseparable_discriminant_vanishes():
    for p in (2, 3, 5):
        P = extension(p, f"z^{p} - u")
        assert discriminant(P).is_zero()


# -- multiplication and trace matrices ----------------------------------------------

def test_companion_matrix_of_z():
    P = extension(5, "z^2 - u")
    base = P.base
    z = P.ring.variable(1)
    M = mult_matrix(P, z)
    u = base.variable(0)
    assert M[0][0].is_zero() and M[0][1] == u
    assert M[1][0] == base.one and M[1][1].is_zero()


def test_mult_matrix_of_one_and_of_relation():
    P = extension(5, "z^2 - u")
    I = mult_matrix(P, P.ring.one)
    for i in range(2):
        for j in range(2):
            expect = P.base.one if i == j else P.base.zero
            assert I[i][j] == expect
    Z = mult_matrix(P, P.relation)
    assert all(entry.is_zero() for row in Z for entry in row)


def test_trace_matrix_quadratic():
    P = extension(5, "z^2 - u")
    T = trace_matrix(P)
    two = P.base.constant(2)
    u = P.base.variable(0)
    assert T[0][0] == two and T[0][1].is_zero()
    assert T[1][0].is_zero() and T[1][1] == two * u


# -- determinants --------------------------------------------------------------------

def random_matrix(rng, R, n):
    def rand_poly():
        terms = {}
        for _ in range(rng.randrange(3)):
            exps = tuple(rng.randrange(3) for _ in range(R.n))
            terms[exps] = rng.randrange(1, R.field.q)
        return Polynomial(R, terms)
    return [[rand_poly() for _ in range(n)] for _ in range(n)]


def test_bareiss_matches_permutation_expansion():
    rng = random.Random(53)
    for q in (5, 7):
        R = Ring(Field(q), ("u", "v"))
        for n in (1, 2, 3):
            for _ in range(8):
                M = random_matrix(rng, R, n)
                assert bareiss_determinant(M, R) == det_permanent_style(M)


def test_bareiss_detects_singularity():
    R = Ring(Field(5), ("u",))
    u = R.variable(0)
    M = [[u, u + R.one], [u, u + R.one]]
    assert bareiss_determinant(M, R).is_zero()


def test_basis_rescaling_changes_disc_by_square_unit():
    rng = random.Random(59)
    P = extension(5, "z^2 - u")
    T = trace_matrix(P)
    d = discriminant(P)
    F = P.base.field
    for _ in range(6):
        cs = [rng.randrange(1, 5) for _ in range(P.n)]
        scaled = [[T[i][j] * P.base.constant(F.mul(cs[i], cs[j]))
                   for j in range(P.n)] for i in range(P.n)]
        unit = 1
        for c in cs:
            unit = F.mul(unit, F.mul(c, c))
        assert bareiss_determinant(scaled, P.base) == \
            d * P.base.constant(unit)


# -- specialization -------------------------------------------------------------------

def numeric_discriminant(field, zcoeffs, n):
    """Trace pairing of F[z]/(f) at a point: companion action on the power
    basis, power traces by Newton-free direct computation, determinant by
    permutation expansion over field codes."""
    # companion matrix C[i][j] = coeff of z^i in z * z^j
    C = [[0] * n for _ in range(n)]
    for j in range(n - 1):
        C[j + 1][j] = 1
    for i in range(n):
        C[i][n - 1] = field.neg(zcoeffs.get(i, 0))

    def mat_mul(A, B):
        return [[_dot(field, A, B, i, j, n) for j in range(n)]
                for i in range(n)]

    powers = [[[1 if i == j else 0 for j in range(n)] for i in range(n)]]
    for _ in range(2 * n - 2):
        powers.append(mat_mul(powers[-1], C))
    traces = []
    for M in powers:
        t = 0
        for i in range(n):
            t = field.add(t, M[i][i])
        traces.append(t)
    T = [[traces[i + j] for j in range(n)] for i in range(n)]
    det = 0
    for perm in itertools.permutations(range(n)):
        sign = sum(1 for i in range(n) for j in range(i + 1, n)
                   if perm[i] > perm[j])
        prod = 1
        for i in range(n):
            prod = field.mul(prod, T[i][perm[i]])
        det = field.add(det, prod if sign % 2 == 0 else field.neg(prod))
    return det


def _dot(field, A, B, i, j, n):
    acc = 0
    for k in range(n):
        acc = field.add(acc, field.mul(A[i][k], B[k][j]))
    return acc


def test_specialization_matches_numeric_traces():
    cases = [
        extension(5, "z^2 - u"),
        extension(5, "z^3 + u*z + u^2"),
        extension(3, "z^2 + u^3*z + u"),
        extension(2, "z^2 + z + u"),
    ]
    for P in cases:
        F = P.base.field
        d = discriminant(P)
        for point in range(F.q):
            zc = {k: v.evaluate((point,)) for k, v in P.zcoeffs.items()
                  if k < P.n}
            assert d.evaluate((point,)) == numeric_discriminant(F, zc, P.n)


def test_separability_detection_both_directions():
    # nonzero discriminant: specialized polynomial has distinct roots
    F5 = Field(5)
    assert sorted(a for a in range(5)
                  if F5.sub(F5.mul(a, a), 1) == 0) == [1, 4]
    # zero discriminant: z^5 - 1 = (z - 1)^5 has a repeated root
    P = extension(5, "z^5 - u")
    assert discriminant(P).is_zero()
    # Artin-Schreier is separable despite having no roots in F_2: its
    # roots in F_4 are the two elements outside the prime field
    F4 = Field(2, 2)
    g = F4.generator
    one = F4.one
    roots = [a for a in F4.elements() if a * a + a + one == F4.zero]
    assert sorted(r.code for r in roots) == sorted((g.code, (g + one).code))


# -- congruences ----------------------------------------------------------------------

def test_congruence_quintic_perturbation():
    P = extension(5, "z^2 - u")
    eps = parse_poly("4*u^5", P.ring)
    rep = disc_congruence_check(P, eps, 5)
    assert rep.disc_base.text() == "4*u"
    assert rep.disc_perturbed.text() == "4*u^5 + 4*u"
    assert rep.order == 5
    assert rep.verdict


def test_congruence_zero_perturbation_is_infinite():
    P = extension(5, "z^2 - u")
    rep = disc_congruence_check(P, P.ring.zero, 3)
    assert rep.order is None
    assert rep.verdict


def test_congruence_artin_schreier_z_linear():
    P = extension(2, "z^2 + z + u")
    eps = parse_poly("u^3*z", P.ring)
    rep = disc_congruence_check(P, eps, 3)
    assert rep.order is None or rep.order >= 3
    # independent recomputation of both determinants
    base = det_permanent_style(trace_matrix(P))
    pert = det_permanent_style(
        trace_matrix(P.with_relation(P.relation + eps)))
    assert rep.disc_base == base and rep.disc_perturbed == pert


def test_congruence_order_examples():
    R = Ring(Field(5), ("u", "v"))
    a = parse_poly("u^2 + v^3", R)
    assert congruence_order(a, a) is None
    assert congruence_order(a, a + parse_poly("u*v^2", R)) == 3
    assert congruence_order(a, R.zero) == 2


def test_monotone_congruence_random():
    rng = random.Random(61)
    P = extension(3, "z^2 + u*z + u")
    for _ in range(10):
        M = rng.randrange(2, 5)
        terms = {}
        for _ in range(rng.randrange(1, 3)):
            du = M + rng.randrange(3)
            dz = rng.randrange(P.n)
            terms[(du, dz)] = rng.randrange(1, 3)
        eps = Polynomial(P.ring, terms)
        rep = disc_congruence_check(P, eps, M)
        assert rep.verdict, (eps.text(), rep.order, M)


# -- validation -----------------------------------------------------------------------

def test_extension_validation():
    base = Ring(Field(5), ("u",))
    ring = Ring(base.field, ("u", "z"))
    with pytest.raises(InputError):
        FiniteExtensionPresentation(base, "u", parse_poly("u^2", ring))
    with pytest.raises(InputError):   # not monic in z
        FiniteExtensionPresentation(base, "z",
                                    parse_poly("u*z^2 - 1", ring))
    with pytest.raises(InputError):   # no z at all
        FiniteExtensionPresentation(base, "z", parse_poly("u^2 - 1", ring))
    with pytest.raises(InputError):   # zero relation
        FiniteExtensionPresentation(base, "z", ring.zero)


@pytest.mark.parametrize("shape", [(2,), (1, 2), (2, 1)],
                         ids=["one-row", "short-first-row", "short-last-row"])
def test_bareiss_rejects_a_matrix_that_is_not_square(shape):
    R = Ring(Field(3), ("x", "y"))
    x = R.variable(0)
    with pytest.raises(InputError, match="square matrix"):
        bareiss_determinant([[x] * k for k in shape], R)


def test_congruence_validation():
    P = extension(5, "z^2 - u")
    with pytest.raises(InputError):
        disc_congruence_check(P, P.ring.zero, 0)
    with pytest.raises(InputError):   # z-degree 2 breaks monicity
        disc_congruence_check(P, parse_poly("u*z^2", P.ring), 2)
    other = Ring(Field(5), ("u", "w"))
    with pytest.raises(InputError):
        disc_congruence_check(P, parse_poly("u^3", other), 2)
