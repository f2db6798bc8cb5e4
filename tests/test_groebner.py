"""Ideal algebra: bases, normal forms, colon/intersection/elimination,
staircases, and the numerical readers built on them.

The randomized blocks compare against the dense linear-algebra oracles;
the fixed examples pin down hand-checkable values.
"""

import ast
import itertools
import os
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charplab import (
    GREVLEX, LEX, Field, GroebnerBasis, IdealHandle, InputError,
    InternalError, LimitError,
    Limits, Polynomial, Ring, block_order, colength, colon, eliminate,
    frobenius_power, groebner_basis, ideal_equal, intersect,
    is_squarefree_hypersurface, krull_dim, m_power_in, normal_form,
    parse_poly, staircase_of, subalgebra_presentation, TimeLimitError,
)
from charplab import engine
from charplab import groebner as charplab_groebner
from charplab.engine import KeyOverflow, groebner
from charplab.groebner import Staircase, colon_by_basis, divide_exact
from oracles import block_greater, box_monomial_member, box_monomials, \
    dense_colength_box, dense_membership, gebauer_moller_update, \
    grevlex_greater, lex_greater, local_hilbert_function, monomials_up_to, \
    naive_remainder


def ring(p, *names, m=1):
    return Ring(Field(p, m), names)


def ideal(R, *texts):
    return IdealHandle(R, [parse_poly(t, R) for t in texts])


def random_poly(rng, R, max_terms, max_deg):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        while True:
            exps = tuple(rng.randrange(max_deg + 1) for _ in range(R.n))
            if sum(exps) <= max_deg:
                break
        terms[exps] = rng.randrange(1, R.field.q)
    return Polynomial(R, terms)


# -- reduced bases ---------------------------------------------------------------

def test_coprime_leading_terms_already_reduced():
    R = ring(5, "z", "y", "x")
    I = ideal(R, "y - x^2", "z - x^3")
    gb = I.basis(LEX)
    assert sorted(g.text(LEX) for g in gb) == ["y + 4*x^2", "z + 4*x^3"]


def test_quadric_box_basis_leading_terms():
    R = ring(3, "x", "y", "t")
    I = ideal(R, "x*y + t^2", "x^3", "y^3", "t^3")
    gb = I.basis(GREVLEX)
    got = set(gb.leading_exponents())
    assert got == {(1, 1, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3),
                   (2, 0, 2), (0, 2, 2)}
    # frozen basis texts, pinned after the leading-term check above
    assert sorted(g.text() for g in gb) == sorted(
        ["x*y + t^2", "t^3", "y^3", "x^3", "y^2*t^2", "x^2*t^2"])


def test_zero_ideal_has_empty_basis():
    R = ring(3, "x", "y")
    assert len(ideal(R).basis()) == 0


def test_reduced_basis_unique_under_permutation_and_augmentation():
    rng = random.Random(23)
    R = ring(5, "x", "y", "t")
    for _ in range(15):
        gens = [random_poly(rng, R, 3, 3) for _ in range(3)]
        texts = sorted(g.text() for g in IdealHandle(R, gens).basis())
        shuffled = list(gens)
        rng.shuffle(shuffled)
        assert sorted(g.text()
                      for g in IdealHandle(R, shuffled).basis()) == texts
        # adjoin a random combination of the generators: same ideal
        comb = R.zero
        for g in gens:
            comb = comb + random_poly(rng, R, 2, 2) * g
        assert sorted(g.text()
                      for g in IdealHandle(R, gens + [comb]).basis()) == texts


# -- normal forms ----------------------------------------------------------------

def test_normal_form_fixed_values():
    R = ring(3, "x", "y", "t")
    gb = ideal(R, "x*y + t^2", "x^3", "y^3", "t^3").basis()
    assert gb.normal_form(parse_poly("x^2*t^2", R)).is_zero()
    assert gb.normal_form(parse_poly("x*y + t^2", R)).is_zero()
    one = parse_poly("1", R)
    assert gb.normal_form(one) == one


def test_normal_form_idempotent_and_linear():
    rng = random.Random(29)
    R = ring(5, "x", "y")
    gb = ideal(R, "x^2 + y", "y^3").basis()
    for _ in range(30):
        f, g = random_poly(rng, R, 4, 5), random_poly(rng, R, 4, 5)
        nf = gb.normal_form(f)
        assert gb.normal_form(nf) == nf
        c = rng.randrange(1, 5)
        lin = gb.normal_form(f * R.constant(c) + g)
        assert lin == nf * R.constant(c) + gb.normal_form(g)


def test_membership_matches_dense_oracle():
    rng = random.Random(31)
    checked = 0
    while checked < 200:
        p = rng.choice([2, 3, 5])
        n = rng.randrange(1, 4)
        R = ring(p, *"xyt"[:n])
        gens = [random_poly(rng, R, 3, 4)
                for _ in range(rng.randrange(1, 4))]
        gb = IdealHandle(R, gens).basis()
        for _ in range(4):
            f = random_poly(rng, R, 3, 4)
            member = gb.normal_form(f).is_zero()
            assert member == dense_membership(f, gens, 8)
            checked += 1


# -- ideal comparisons -----------------------------------------------------------

def test_ideal_equal_examples():
    R = ring(5, "x", "y")
    assert ideal_equal(ideal(R, "x^2", "x*y", "y + x^3"),
                       ideal(R, "x^2", "x*y", "y"))
    assert not ideal_equal(ideal(R, "x"), ideal(R, "x^2"))
    I = ideal(R, "x^2 + y")
    assert ideal_equal(I, I)


# -- intersection, colon, elimination ---------------------------------------------

def test_intersection_examples():
    R = ring(5, "x", "y")
    assert ideal_equal(intersect(ideal(R, "x"), ideal(R, "y")),
                       ideal(R, "x*y"))
    assert ideal_equal(intersect(ideal(R, "x^2", "y"), ideal(R, "x")),
                       ideal(R, "x^2", "x*y"))
    I = ideal(R, "x^2 + y", "y^2")
    assert ideal_equal(intersect(I, ideal(R, "1")), I)


def test_colon_examples():
    R = ring(5, "x", "y")
    assert ideal_equal(colon(ideal(R, "x^2", "x*y"), ideal(R, "x")),
                       ideal(R, "x", "y"))
    R2 = ring(2, "x", "y")
    assert ideal_equal(colon(ideal(R2, "x^4"), ideal(R2, "x^2")),
                       ideal(R2, "x^2"))
    I = ideal(R, "x^2", "y^3")
    assert ideal_equal(colon(I, ideal(R, "1")), I)


def test_colon_inverse_law_random():
    rng = random.Random(37)
    R = ring(3, "x", "y")
    for _ in range(12):
        I = IdealHandle(R, [random_poly(rng, R, 2, 3) for _ in range(2)])
        J = IdealHandle(R, [random_poly(rng, R, 2, 2)])
        Q = colon(I, J)
        gb = I.basis()
        for g in Q.generators:
            for h in J.generators:
                assert gb.normal_form(g * h).is_zero()


def test_colon_by_a_unit_is_the_ideal_itself():
    # (I : c) = I for a nonzero constant c, and so is (I : c + h) for h in I
    rng = random.Random(41)
    for p, m in DIVISION_FIELDS:
        R = ring(p, "x", "y", "t", m=m)
        for _ in range(4):
            I = IdealHandle(R, [random_poly(rng, R, 3, 3)
                                for _ in range(rng.randrange(1, 4))])
            c = Polynomial(R, {(0, 0, 0): rng.randrange(1, R.field.q)})
            h = random_poly(rng, R, 2, 2) * I.generators[0]
            for f in (c, c + h):
                assert ideal_equal(colon(I, IdealHandle(R, [f])), I)


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_extend_gives_the_basis_of_the_elements_plus_the_extra(order):
    rng = random.Random(43)
    for p, m in DIVISION_FIELDS:
        R = ring(p, "x", "y", "t", m=m)
        for _ in range(4):
            G = IdealHandle(R, [random_poly(rng, R, 3, 3)
                                for _ in range(rng.randrange(1, 4))]).basis(
                                    order)
            extra = [random_poly(rng, R, 3, 2)
                     for _ in range(rng.randrange(0, 3))]
            got = G.extend(extra, Limits())
            assert got.order == order
            assert got.elements == IdealHandle(
                R, list(G.elements) + extra).basis(order).elements


@st.composite
def staircase_extensions(draw):
    """(known basis, extra) over F2, F3, F5 or GF(4) in 2-3 variables,
    under grevlex or lex: the known basis is that of 0-2 polynomials with
    no constant term, extra holds 0-2 more, and the pure powers
    x_i^(b_i), which make the sum zero-dimensional, join one side."""
    p, m = draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2)]))
    order = draw(st.sampled_from([GREVLEX, LEX]))
    n = draw(st.integers(2, 3))
    R = ring(p, *("x", "y", "t")[:n], m=m)
    exps = st.tuples(*[st.integers(0, 3) for _ in range(n)]).filter(
        lambda e: 1 <= sum(e) <= 3)
    polys = st.lists(st.dictionaries(
        exps, st.integers(1, R.field.q - 1), min_size=1, max_size=3).map(
            lambda terms: Polynomial(R, terms)), max_size=2)
    known, extra = draw(polys), draw(polys)
    bounds = draw(st.lists(st.integers(2, 5), min_size=n, max_size=n))
    pure = [R.monomial(tuple(b if j == i else 0 for j in range(n)))
            for i, b in enumerate(bounds)]
    if draw(st.booleans()):
        known += pure
    else:
        extra += pure
    return IdealHandle(R, known).basis(order), extra


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(staircase_extensions())
def test_extend_staircase_reads_the_corners_of_extend(case):
    # the run stopped at the minimal basis gives the leading exponents of
    # the reduced basis, in the same order, so the same staircase
    G, extra = case
    full = G.extend(extra)
    elems = list(G.elements) + extra
    assert engine.initial_exponents(elems, G.ring, G.order,
                                    gb_prefix=len(G)) == \
        full.leading_exponents()
    new, old = G.extend_staircase(extra), staircase_of(full)
    assert new.corners == old.corners
    assert (new.count(), new.max_degree()) == (old.count(), old.max_degree())


@pytest.mark.parametrize("order", [GREVLEX, block_order(1)],
                         ids=["grevlex", "block1"])
def test_extend_staircase_restarts_on_wider_keys(order, monkeypatch):
    R = ring(5, "x", "y", "t")
    gens = [parse_poly(t, R)
            for t in ("x^3*y + t^4", "y^5 - x*t^2", "x^2*t^3 + y")]
    G = GroebnerBasis(R, order, groebner(gens[:1], R, order))
    expected = staircase_of(G.extend(gens[1:]))
    with pytest.raises(LimitError):
        G.extend_staircase(gens[1:], Limits(max_degree=3))
    # as in test_groebner_restarts_on_wider_keys: one restart, on 5 bits
    monkeypatch.setattr("charplab.engine._initial_width", lambda polys: 3)
    steps = []
    wider = engine._wider

    def spy(needed):
        steps.append(wider(needed))
        return steps[-1]
    monkeypatch.setattr("charplab.engine._wider", spy)
    assert G.extend_staircase(gens[1:]).corners == expected.corners
    assert steps == [5]


def test_only_the_ideal_layer_imports_the_engine():
    # every other module reaches engine.groebner through groebner.py
    src = os.path.dirname(charplab_groebner.__file__)
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py") or name == "groebner.py":
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                targets = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                parts = ["charplab"] * (node.level > 0) + [node.module]
                base = ".".join(part for part in parts if part)
                targets = [base] + [f"{base}.{a.name}" for a in node.names]
            else:
                continue
            assert not any(t == "charplab.engine" or
                           t.startswith("charplab.engine.")
                           for t in targets), (name, node.lineno)
    # and groebner.py takes only the engine's entries: no key width, no
    # reduction context, no frozen element and no private name
    with open(charplab_groebner.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = [a.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level == 1
             and node.module == "engine" for a in node.names]
    assert "groebner" in names
    assert not [n for n in names if n.startswith("_") or n in (
        "KeyOverflow", "BasisContext", "PackSpec", "GPoly")]


def test_every_import_in_the_package_is_read():
    # a name bound by an import is read as a name somewhere in its module,
    # or exported through __all__; `# noqa: F401` marks a deliberate one
    src = os.path.dirname(charplab_groebner.__file__)
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            text = fh.read()
        lines = text.splitlines()
        tree = ast.parse(text)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)):
                read |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    assert bound in read, (name, alias.lineno, bound)


def test_every_private_name_in_the_package_is_read():
    # a private module-level function, class or constant, or a private
    # method, is read as a name or an attribute outside its own definition
    src = os.path.dirname(charplab_groebner.__file__)
    trees = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                trees[name] = ast.parse(fh.read())

    def reads(tree):
        return Counter(
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute))

    everywhere = sum((reads(tree) for tree in trees.values()), Counter())

    def private(name):
        return name.startswith("_") and not name.endswith("__")
    for name, tree in trees.items():
        defined = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((node.name, node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                defined += [(t.id, node) for t in targets
                            if isinstance(t, ast.Name)]
            if isinstance(node, ast.ClassDef):
                defined += [(item.name, item) for item in node.body
                            if isinstance(item, ast.FunctionDef)]
        for bound, node in defined:
            if private(bound):
                elsewhere = everywhere[bound] - reads(node)[bound]
                assert elsewhere > 0, (name, node.lineno, bound)


def test_a_zero_basis_element_leaves_the_prefix_where_it_was():
    # a zero element of the known basis is dropped, and the known prefix
    # shrinks with it, so f still pairs with the basis of I
    R = ring(5, "x", "y")
    x, y = R.variable(0), R.variable(1)
    expected = [x * y, y**3]
    assert colon_by_basis([x**2 * y, y**3], R, x) == expected
    assert colon_by_basis([x**2 * y, R.zero, y**3], R, x) == expected
    G = GroebnerBasis(R, GREVLEX, [x**2 * y, R.zero])
    assert G.extend([y**3 + x * y]).elements == \
        GroebnerBasis(R, GREVLEX, [x**2 * y]).extend([y**3 + x * y]).elements


def test_colon_by_basis_rejects_zero_multiplier():
    R = ring(5, "x", "y")
    gb = ideal(R, "x^2").basis()
    with pytest.raises(InputError):
        colon_by_basis(list(gb.elements), R, R.zero)


DIVISION_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]


@st.composite
def colon_cases(draw):
    """(ring, basis, f): the reduced grevlex basis of 1-3 generators of
    degree 2-3 in 2-3 variables, with pure powers x_i^(b_i) added
    sometimes and a multiple of its first element appended sometimes (a
    basis that is not reduced), and a nonconstant multiplier f of degree
    at most 3 whose leading coefficient need not be 1."""
    p, m = draw(st.sampled_from(DIVISION_FIELDS))
    n = draw(st.integers(2, 3))
    R = ring(p, *("x", "y", "t")[:n], m=m)
    coeffs = st.integers(1, R.field.q - 1)
    exps = st.tuples(*[st.integers(0, 3) for _ in range(n)])
    gens = [Polynomial(R, draw(st.dictionaries(
        exps.filter(lambda e: 2 <= sum(e) <= 3), coeffs, min_size=1,
        max_size=3))) for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        gens += [R.monomial(tuple(b if j == i else 0 for j in range(n)))
                 for i, b in enumerate(draw(st.lists(
                     st.integers(2, 5), min_size=n, max_size=n)))]
    elems = list(IdealHandle(R, gens).basis().elements)
    if draw(st.booleans()):
        elems.append(elems[0] * R.variable(draw(st.integers(0, n - 1))))
    f = Polynomial(R, draw(st.dictionaries(
        exps.filter(lambda e: sum(e) <= 3), coeffs, min_size=1,
        max_size=3).filter(lambda t: any(map(any, t)))))
    return R, elems, f


def colon_through_the_intersection(elems, R, f):
    """Reduced grevlex basis of (I : f) from (I meet (f)) / f."""
    meet = intersect(IdealHandle(R, elems), IdealHandle(R, [f]))
    quotients = [divide_exact(g, f) for g in meet.generators]
    return groebner(quotients, R, GREVLEX, gb_prefix=len(quotients))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(colon_cases())
def test_colon_by_basis_divides_the_intersection_by_f(case):
    R, elems, f = case
    assert colon_by_basis(elems, R, f) == \
        colon_through_the_intersection(elems, R, f)


def grevlex_count(elems, R):
    """Staircase count of the ideal of a grevlex Groebner basis; 0 for
    the unit ideal."""
    return staircase_of(GroebnerBasis(R, GREVLEX, elems)).count()


@st.composite
def primary_ideals_and_multipliers(draw):
    """(ring, gens, f): pure powers x_i^(b_i) and 0-2 random polynomials
    of degree 1-4 with no constant term in 2-3 variables, which generate
    an m-primary ideal, and a nonzero f of degree at most 3 that may
    have a constant term."""
    p, m = draw(st.sampled_from(DIVISION_FIELDS))
    n = draw(st.integers(2, 3))
    R = ring(p, *("x", "y", "t")[:n], m=m)
    coeffs = st.integers(1, R.field.q - 1)
    exps = st.tuples(*[st.integers(0, 4) for _ in range(n)])
    gens = [R.monomial(tuple(b if j == i else 0 for j in range(n)))
            for i, b in enumerate(draw(st.lists(
                st.integers(1, 5 if n == 2 else 3), min_size=n,
                max_size=n)))]
    gens += [Polynomial(R, draw(st.dictionaries(
        exps.filter(lambda e: 1 <= sum(e) <= 4), coeffs, min_size=1,
        max_size=4))) for _ in range(draw(st.integers(0, 2)))]
    f = Polynomial(R, draw(st.dictionaries(
        exps.filter(lambda e: sum(e) <= 3), coeffs, min_size=1,
        max_size=3)))
    return R, gens, f


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(primary_ideals_and_multipliers())
def test_colon_colength_is_the_length_of_the_principal_quotient(case):
    # in the artinian A = S/I, A/(0 : f) is isomorphic to fA, so
    # l(S/(I : f)) = l(fA) = l(A) - l(A/fA) = l(S/I) - l(S/(I + f))
    R, gens, f = case
    elems = list(IdealHandle(R, gens).basis().elements)
    plus_f = IdealHandle(R, gens + [f]).basis().elements
    assert grevlex_count(colon_by_basis(elems, R, f), R) == \
        grevlex_count(elems, R) - grevlex_count(plus_f, R)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(primary_ideals_and_multipliers())
def test_bracket_power_multiplies_the_colength_by_p_to_the_n(case):
    # Kunz: Frobenius is flat over the regular S, so l(S/C^[p]) is
    # p^n l(S/C) for every m-primary C
    R, gens, _ = case
    C = IdealHandle(R, gens)
    assert colength(frobenius_power(C, 1)) == \
        R.field.p ** R.n * colength(C)


def colon_step_case():
    R = ring(5, "x", "y", "t")
    elems = list(ideal(R, "x^2 + y*t", "y^3 - t^2", "t^4").basis().elements)
    return R, elems, parse_poly("2*x*y + t", R)


def test_a_colon_step_builds_no_larger_ring(monkeypatch):
    R, elems, f = colon_step_case()
    built = []
    extend_front = Ring.extend_front

    def spy(self, names):
        built.append(names)
        return extend_front(self, names)
    monkeypatch.setattr(Ring, "extend_front", spy)
    got = colon_by_basis(elems, R, f)
    assert built == []
    monkeypatch.undo()
    assert got == colon_through_the_intersection(elems, R, f)


def test_a_colon_step_restarts_on_wider_keys(monkeypatch):
    R = ring(5, "x", "y", "t")
    elems = list(ideal(R, "y^2*t + 2*x*t", "x*y*t + 3*t^3", "t^6")
                 .basis().elements)
    f = parse_poly("3*x*y*t + 3*y", R)
    expected = colon_by_basis(elems, R, f)
    assert len(expected) == 7
    # the basis and f pack into 3-bit keys (degree 7); a cofactor of the
    # cofactor run overflows them, and the whole colon step restarts once,
    # on 5 bits, for both of its runs
    monkeypatch.setattr("charplab.engine._initial_width", lambda polys: 3)
    steps, overflows = [], []
    wider, track = engine._wider, engine._Buchberger._track

    def spy(needed):
        steps.append(wider(needed))
        return steps[-1]

    def tracked(self, *args):
        try:
            return track(self, *args)
        except KeyOverflow as o:
            overflows.append(o.needed_degree)
            raise
    monkeypatch.setattr("charplab.engine._wider", spy)
    monkeypatch.setattr(engine._Buchberger, "_track", tracked)
    assert colon_by_basis(elems, R, f) == expected
    assert steps == [5]
    assert overflows == [8]


def test_groebner_eliminates_only_under_a_block_order():
    R, elems, _ = colon_step_case()
    with pytest.raises(InputError, match="elimination needs a block order"):
        groebner(elems, R, GREVLEX, elimination=True)
    # under block_order(1) only the elements free of x stay
    x_free = groebner(elems, R, block_order(1), elimination=True)
    assert x_free and all(all(e[0] == 0 for e in g.terms) for g in x_free)
    assert x_free == [g for g in groebner(elems, R, block_order(1))
                      if all(e[0] == 0 for e in g.terms)]


def test_seconds_limit_bounds_a_colon_step(monkeypatch):
    R, elems, f = colon_step_case()
    spoly = engine._Buchberger._spoly
    pairs = []

    def counted(self, *args):
        pairs.append(args)
        return spoly(self, *args)
    monkeypatch.setattr(engine._Buchberger, "_spoly", counted)
    # the deadline binds the cofactor run from its first pair on
    with pytest.raises(TimeLimitError, match="time limit"):
        colon_by_basis(elems, R, f, Limits(max_seconds=0))
    assert pairs == []
    assert colon_by_basis(elems, R, f, Limits(max_seconds=60)) == \
        colon_by_basis(elems, R, f)
    assert pairs


@st.composite
def division_cases(draw):
    """(ring, q, f, t): q and f of degree at most 3 in 1-3 variables, f of
    at least two terms, and a monomial t."""
    p, m = draw(st.sampled_from(DIVISION_FIELDS))
    n = draw(st.integers(1, 3))
    R = ring(p, *("x", "y", "t")[:n], m=m)
    exps = st.tuples(*[st.integers(0, 3) for _ in range(n)]).filter(
        lambda e: sum(e) <= 3)
    coeffs = st.integers(1, R.field.q - 1)
    q = Polynomial(R, draw(st.dictionaries(exps, coeffs, max_size=4)))
    f = Polynomial(R, draw(st.dictionaries(exps, coeffs, min_size=2,
                                           max_size=4)))
    t = Polynomial(R, {draw(exps): draw(coeffs)})
    return R, q, f, t


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(division_cases())
def test_divide_exact_inverts_multiplication(case):
    R, q, f, t = case
    assert divide_exact(q * f, f) == q
    # a dividend of higher degree, on keys wide enough for it
    assert divide_exact(q * f * t, f) == q * t
    # f has two terms or more, so no multiple of f is a monomial
    with pytest.raises(InternalError, match="inexact"):
        divide_exact(q * f + t, f)


def test_divide_exact_fixed_cases():
    R = ring(5, "x", "y")
    f = parse_poly("x^2*y + 3*y^2 + 1", R)
    g = parse_poly("2*x*y - y + 4", R)
    assert divide_exact(g * R.constant(3), R.constant(3)) == g
    assert divide_exact(R.zero, f) == R.zero
    with pytest.raises(InputError):
        divide_exact(f, R.zero)


def test_divide_exact_takes_one_polynomial_divisor():
    # a basis was once taken as a prepared divisor: (x + y) / (x, y) gave
    # 1, and an empty or all-zero basis raised IndexError
    R = ring(3, "x", "y")
    x, y = R.gens()
    for h, elements in ((x + y, [x, y]), (R.zero, []), (R.zero, [R.zero])):
        with pytest.raises(InputError, match="^divisor must be of type "
                                             "Polynomial, got "):
            divide_exact(h, GroebnerBasis(R, GREVLEX, elements))


def test_zero_elements_are_dropped_on_the_way_in():
    # an all-zero basis once failed in staircase_of with a ValueError from
    # max(); it is the zero ideal's staircase
    R = ring(3, "x", "y")
    x = R.variable(0)
    assert GroebnerBasis(R, GREVLEX, [R.zero, x]).elements == (x,)
    assert IdealHandle(R, [R.zero, x]).generators == (x,)
    empty = GroebnerBasis(R, GREVLEX, [])
    assert empty.extend([R.zero, x]).elements == (x,)
    assert colon_by_basis([R.zero], R, x) == []
    for st in (staircase_of(GroebnerBasis(R, GREVLEX, [R.zero])),
               empty.extend_staircase([R.zero])):
        assert st.dimension() == 2
        with pytest.raises(InputError, match="infinite"):
            st.count()


def test_a_block_order_too_wide_for_the_ring_fails_on_any_ideal():
    # the zero ideal once skipped the engine, and so the key layout's check
    R = ring(3, "x", "y")
    for gens in ([], [R.variable(0)]):
        with pytest.raises(InputError, match=r"^block\(5\) needs between"):
            IdealHandle(R, gens).basis(block_order(5))


def test_eliminate_twisted_cubic():
    R = ring(5, "x", "y", "z")
    I = ideal(R, "y - x^2", "z - x^3")
    J = eliminate(I, 1)
    S = J.ring
    assert S.variables == ("y", "z")
    assert ideal_equal(J, IdealHandle(S, [parse_poly("z^2 - y^3", S)]))
    # substitution check: each relation vanishes at (y, z) = (x^2, x^3)
    x = R.variable(0)
    for g in J.generators:
        lifted = Polynomial(R, {(0,) + e: c for e, c in g.terms.items()})
        assert lifted.substitute({1: x**2, 2: x**3}).is_zero()


def test_eliminate_tag_identity():
    R = ring(5, "w", "x", "y")
    w, x, y = R.gens()
    I = IdealHandle(R, [w * x, (R.one - w) * y])
    J = eliminate(I, 1)
    assert ideal_equal(J, IdealHandle(J.ring, [parse_poly("x*y", J.ring)]))


def test_eliminate_zero_ideal():
    R = ring(5, "x", "y")
    J = eliminate(ideal(R), 1)
    assert J.generators == ()


@st.composite
def generator_lists(draw, count, max_vars):
    """(ring, lists): `count` lists of 1-3 generators of degree at most 3,
    constants allowed, in 2-max_vars variables over GF(2), GF(3), GF(4),
    GF(5) or GF(9)."""
    p, m = draw(st.sampled_from(DIVISION_FIELDS))
    n = draw(st.integers(2, max_vars))
    R = ring(p, *("x", "y", "z", "t")[:n], m=m)
    exps = st.tuples(*[st.integers(0, 3) for _ in range(n)]).filter(
        lambda e: sum(e) <= 3)
    polys = st.dictionaries(exps, st.integers(1, R.field.q - 1), min_size=1,
                            max_size=3).map(lambda t: Polynomial(R, t))
    return R, [draw(st.lists(polys, min_size=1, max_size=3))
               for _ in range(count)]


def eliminate_through_the_block_basis(gens, R, k):
    """The elements of the reduced block_order(k) basis with no term in the
    first k variables, on the last n - k, in basis order."""
    target = R.drop_front(k)
    return tuple(Polynomial(target, {e[k:]: c for e, c in g.terms.items()})
                 for g in IdealHandle(R, gens).basis(block_order(k))
                 if not any(any(e[:k]) for e in g.terms))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(generator_lists(1, 4))
def test_eliminate_keeps_the_block_basis_part_free_of_the_first_block(case):
    R, (gens,) = case
    for k in range(1, R.n):
        # the exact tuple, order included: it seeds the grevlex cache
        assert eliminate(IdealHandle(R, gens), k).generators == \
            eliminate_through_the_block_basis(gens, R, k)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(generator_lists(2, 3))
def test_intersect_lies_in_both_and_holds_their_products(case):
    R, (gens_i, gens_j) = case
    I, J = IdealHandle(R, gens_i), IdealHandle(R, gens_j)
    meet = intersect(I, J)
    for h in meet.generators:
        assert I.basis().normal_form(h).is_zero()
        assert J.basis().normal_form(h).is_zero()
    for f in I.generators:
        for g in J.generators:
            assert meet.basis().normal_form(f * g).is_zero()


# -- Frobenius powers of ideals ---------------------------------------------------

def test_frobenius_power_fixed_values():
    R = ring(2, "x", "y")
    assert ideal_equal(frobenius_power(ideal(R, "x", "y"), 1),
                       ideal(R, "x^2", "y^2"))
    R5 = ring(5, "x", "y", "t")
    assert ideal_equal(frobenius_power(ideal(R5, "x*y + t^3"), 1),
                       ideal(R5, "x^5*y^5 + t^15"))
    assert frobenius_power(ideal(R), 2).generators == ()


def test_frobenius_power_well_defined_on_regenerating_sets():
    rng = random.Random(41)
    R = ring(3, "x", "y")
    for _ in range(10):
        gens = [random_poly(rng, R, 2, 2) for _ in range(2)]
        I = IdealHandle(R, gens)
        # same ideal, different generators: add combinations, drop nothing
        extra = gens[0] * random_poly(rng, R, 2, 2) + gens[1]
        J = IdealHandle(R, gens + [extra])
        assert ideal_equal(frobenius_power(I, 1), frobenius_power(J, 1))


def test_frobenius_power_composition_and_containment():
    R = ring(2, "x", "y")
    I = ideal(R, "x + y^2", "x*y")
    assert ideal_equal(frobenius_power(frobenius_power(I, 1), 1),
                       frobenius_power(I, 2))
    # bracket power sits inside the ordinary power
    q = 4
    ordinary = []
    for a in range(q + 1):
        ordinary.append(I.generators[0] ** a * I.generators[1] ** (q - a))
    gb = IdealHandle(R, ordinary).basis()
    for g in frobenius_power(I, 2).generators:
        assert gb.normal_form(g).is_zero()


# -- dimension, length, staircase -------------------------------------------------

def test_krull_dim_examples():
    R = ring(3, "x", "y", "t")
    assert krull_dim(ideal(R)) == 3
    assert krull_dim(ideal(R, "x*y + t^3")) == 2
    R2 = ring(5, "x", "y")
    assert krull_dim(ideal(R2, "x^2", "y^3")) == 0
    with pytest.raises(InputError):
        krull_dim(ideal(R2, "1"))


def brute_force_dimension(corners, n):
    """Largest size of a set S of variables whose product of x_i^T, i in S,
    no corner divides, with T past every corner exponent; -1 when a corner
    divides 1."""
    T = 1 + max((e for c in corners for e in c), default=0)
    best = -1
    for chosen in itertools.product((0, 1), repeat=n):
        m = [T * s for s in chosen]
        if not any(all(a <= b for a, b in zip(c, m)) for c in corners):
            best = max(best, sum(chosen))
    return best


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(*[st.integers(0, 3) for _ in range(n)]), max_size=5))))
@example((1, [(0,)]))
@example((3, [(0, 0, 0), (2, 0, 0)]))
@example((2, []))
@example((3, [(2, 0, 0), (0, 1, 0), (0, 0, 3), (1, 1, 1)]))
def test_dimension_of_a_corner_set_matches_brute_force(case):
    n, corners = case
    expected = brute_force_dimension(corners, n)
    stair = Staircase(corners, n)
    assert stair.dimension() == expected
    R = ring(2, *("x", "y", "z", "t")[:n])
    I = IdealHandle(R, [R.monomial(c) for c in corners])
    if expected < 0:
        with pytest.raises(InputError):
            krull_dim(I)
    else:
        assert krull_dim(I) == expected


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(*[st.integers(0, 3) for _ in range(n)]), max_size=5))))
@example((1, [(0,)]))
@example((2, []))
@example((3, [(2, 0, 0), (0, 3, 0)]))
@example((4, [(0, 1, 0, 2), (1, 0, 1, 0)]))
def test_multiplicity_of_a_corner_set_matches_brute_force(case):
    # past degree D = sum_i max_c c_i the numerator of the Hilbert series
    # has ended, so s -> sum_{k<s} h(k) is a polynomial of degree d there
    # and its d-th difference is the multiplicity
    n, corners = case
    stair = Staircase(corners, n)
    d = stair.dimension()
    if d < 0:
        assert stair.multiplicity() == 0
        return
    top = sum(max((c[i] for c in corners), default=0) for i in range(n))
    h = [0] * (top + d + 2)
    for m in itertools.product(range(len(h)), repeat=n):
        if sum(m) < len(h) and not any(
                all(a <= b for a, b in zip(c, m)) for c in corners):
            h[sum(m)] += 1
    sums = list(itertools.accumulate(h))[top:]
    for _ in range(d):
        sums = [b - a for a, b in zip(sums, sums[1:])]
    assert stair.multiplicity() == sums[0] == sums[1]


def test_colength_examples():
    R2 = ring(2, "x", "y")
    assert colength(ideal(R2, "x^2", "y^2")) == 4
    for p in (2, 3, 5):
        for n in (1, 2, 3):
            R = ring(p, *"xyt"[:n])
            for e in (1, 2):
                q = p ** e
                gens = [f"{v}^{q}" for v in R.variables]
                assert colength(ideal(R, *gens)) == q ** n
    R3 = ring(3, "x", "y", "t")
    I = ideal(R3, "x*y + t^2", "x^3", "y^3", "t^3")
    assert colength(I) == 13
    assert dense_colength_box([parse_poly("x*y + t^2", R3)], 3) == 13


def test_colength_rejects_positive_dimension_and_units():
    R = ring(5, "x", "y")
    with pytest.raises(InputError):
        colength(ideal(R, "x"))
    with pytest.raises(InputError):
        colength(ideal(R, "x + 1"))


def test_staircase_against_enumeration():
    rng = random.Random(43)
    for _ in range(20):
        n = rng.randrange(1, 4)
        q = rng.randrange(2, 5)
        corners = {tuple(rng.randrange(1, q + 2) for _ in range(n))
                   for _ in range(rng.randrange(1, 5))}
        # force zero-dimensionality with pure power corners
        for i in range(n):
            corners.add(tuple(q + 1 if j == i else 0 for j in range(n)))
        st = Staircase(corners, n)
        standard = [m for m in box_monomials(n, q + 2)
                    if not any(all(a >= b for a, b in zip(m, c))
                               for c in corners)]
        assert st.count() == len(standard)
        assert st.max_degree() == max((sum(m) for m in standard), default=-1)
        for k in range(6):
            assert st.count_degree(k) == sum(1 for m in standard
                                             if sum(m) == k)


def test_count_and_max_degree_share_one_fold(monkeypatch):
    fold, tops = Staircase._fold, []

    def spy(corners, n):
        tops.append(n == 3)
        return fold(corners, n)

    monkeypatch.setattr(Staircase, "_fold", staticmethod(spy))
    # the box 2 x 3 x 2 less x*y*t and x*y^2*t
    stair = Staircase([(2, 0, 0), (0, 3, 0), (0, 0, 2), (1, 1, 1)], 3)
    assert (stair.count(), stair.max_degree(), stair.count()) == (10, 3, 10)
    assert tops.count(True) == 1


@st.composite
def staircase_calls(draw):
    """(n, top, corners, calls): up to four corners in 1-4 variables,
    closed off by pure powers or left unbounded, and a drawn sequence of
    calls on one instance: "count", "max_degree" or a degree k < top for
    count_degree(k).  Corner exponents are at most top / n - 1, so a finite
    staircase has no standard monomial of degree top, and an infinite one
    has x_i^top for a variable x_i without a pure-power corner."""
    n = draw(st.integers(1, 4))
    side = 4 if n < 4 else 3
    top = n * (side + 2)
    corners = set(draw(st.lists(
        st.tuples(*[st.integers(0, side) for _ in range(n)]), max_size=4)))
    if draw(st.booleans()):
        bounds = draw(st.lists(st.integers(1, side + 1), min_size=n,
                               max_size=n))
        corners |= {tuple(b if j == i else 0 for j in range(n))
                    for i, b in enumerate(bounds)}
    calls = draw(st.lists(st.one_of(st.sampled_from(["count", "max_degree"]),
                                    st.integers(-1, top - 1)),
                          min_size=1, max_size=8))
    return n, top, corners, calls


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(staircase_calls())
@example((2, 12, {(0, 0), (1, 2)}, ["count", "max_degree", 0, -1]))
@example((2, 20, {(0, 9), (9, 0), (3, 3), (4, 3), (3, 8)}, ["count", 7]))
@example((3, 18, {(2, 0, 0), (0, 3, 0), (1, 1, 1)},
          [4, 2, "count", "max_degree", 5]))
@example((2, 12, {(0, 0)}, [0, "max_degree", "count"]))
def test_staircase_calls_in_any_order_match_enumeration(case):
    n, top, corners, calls = case
    standard = [m for m in monomials_up_to(n, top)
                if not any(all(a >= b for a, b in zip(m, c))
                           for c in corners)]
    finite = not any(sum(m) == top for m in standard)
    stair = Staircase(corners, n)
    assert stair.corners == {c for c in corners if not any(
        k != c and all(a <= b for a, b in zip(k, c)) for k in corners)}
    for call in calls:
        if call == "count" and finite:
            assert stair.count() == len(standard)
        elif call == "max_degree" and finite:
            assert stair.max_degree() == max((sum(m) for m in standard),
                                             default=-1)
        elif call in ("count", "max_degree"):
            with pytest.raises(InputError):
                getattr(stair, call)()
        else:
            assert stair.count_degree(call) == sum(1 for m in standard
                                                   if sum(m) == call)
    assert stair.count_degree(-1) == 0


@st.composite
def many_corners(draw):
    """(n, side, corners): 20-40 drawn corners in 2-4 variables with
    exponents up to side (12 in two and three variables, 6 in four), plus
    the lcm of each of the first 20 with the next, which another corner
    divides; closed off by pure powers of at most side + 1, or not.  The
    slices then have many distinct last coordinates to carry across."""
    n = draw(st.integers(2, 4))
    side = 12 if n < 4 else 6
    drawn = draw(st.lists(st.tuples(*[st.integers(0, side)] * n),
                          min_size=20, max_size=40))
    corners = set(drawn) | {tuple(map(max, a, b))
                            for a, b in zip(drawn[:20], drawn[1:21])}
    if draw(st.booleans()):
        bounds = draw(st.lists(st.integers(1, side + 1), min_size=n,
                               max_size=n))
        corners |= {tuple(b if j == i else 0 for j in range(n))
                    for i, b in enumerate(bounds)}
    return n, side, corners


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(many_corners())
@example((2, 12, {(12 - i, i) for i in range(13)}
          | {(13 - i, i + 1) for i in range(12)}))
@example((3, 12, {(i, 12 - i, i) for i in range(13)}
          | {(13, 0, 0), (0, 13, 0), (0, 0, 13)}))
def test_staircase_with_many_corners_matches_box_enumeration(case):
    """A finite staircase lies in the box of exponents <= side; an
    infinite one misses the pure power of some variable, so it has a
    standard monomial with an exponent side + 1.  Every monomial of degree
    at most side + 1 lies in the box either way."""
    n, side, corners = case
    standard = [m for m in box_monomials(n, side + 2)
                if not any(all(a >= b for a, b in zip(m, c))
                           for c in corners)]
    finite = all(max(m) <= side for m in standard)
    stair = Staircase(corners, n)
    assert (stair.dimension() <= 0) == finite
    if finite:
        assert stair.count() == len(standard)
        assert stair.max_degree() == max((sum(m) for m in standard),
                                         default=-1)
    else:
        for call in (stair.count, stair.max_degree):
            with pytest.raises(InputError):
                call()
    for k in range(-1, (n * side if finite else side) + 2):
        assert stair.count_degree(k) == sum(1 for m in standard
                                            if sum(m) == k)


@pytest.mark.parametrize("corners, n", [
    ([(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0, 0)], 3),  # 4 exponents
    ([(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1)], 3),        # 2 exponents
    ([(2, 0, 0), (0, 2, 0), (0, 0, 2), (0, -1, 1)], 3),    # negative
    ([(2, 0, 0), [0, 2, 0], (0, 0, 2)], 3),                # a list
    ([(2, 0, 0), (0, 2.0, 0), (0, 0, 2)], 3),              # a float
    ([()], 0),                          # no variables, yet it would count 1
])
def test_staircase_rejects_malformed_corners(corners, n):
    with pytest.raises(InputError):
        Staircase(corners, n)


def test_m_power_in_examples():
    R = ring(5, "x", "y")
    assert m_power_in(ideal(R, "x^2", "y^3")) == 4
    R2 = ring(2, "x", "y")
    assert m_power_in(ideal(R2, "x^2", "y^2")) == 3
    assert m_power_in(ideal(R, "x", "y")) == 1
    # y = x^2: colength 3, and x^3 is the first power of x inside
    assert m_power_in(ideal(R, "y - x^2", "x^3")) == 3
    # y^41 = y * y^40 lies in the ideal, so it is (x^40, y^40); the answer
    # 79 is past 63, the largest degree the narrowest (6-bit) keys hold
    assert m_power_in(ideal(R, "x^40 + y^41", "y^40")) == 79
    # inhomogeneous: x^41 = x(x^40 + y^50) - y^49 (xy) is in, x^40 is not,
    # and y^50 = -x^40 is not, so the last power to land is y^51
    assert m_power_in(ideal(R, "x^40 + y^50", "x*y")) == 51
    # a stability threshold's ideal (f) + m^[81]: the initial forms x^2,
    # y^81 and t^81 span a tangent cone of length 2 * 81^2, the colength,
    # so they cut it out, and its top degree is 1 + 80 + 80
    R3 = ring(3, "x", "y", "t")
    assert m_power_in(ideal(R3, "x^2 + y^3 + t^3", "x^81", "y^81",
                            "t^81")) == 162


def test_m_power_in_boundary_property():
    # every monomial of degree N is a member, some monomial of degree N-1
    # is not; exercised on an inhomogeneous ideal to hit the homogenized run
    R = ring(5, "x", "y")
    I = ideal(R, "x^2 + y^3", "y^4")
    N = m_power_in(I)
    gb = I.basis()
    assert all(gb.normal_form(R.monomial(m)).is_zero()
               for m in monomials_up_to(2, N) if sum(m) == N)
    assert any(not gb.normal_form(R.monomial(m)).is_zero()
               for m in monomials_up_to(2, N - 1) if sum(m) == N - 1)


@pytest.mark.parametrize("q", [5, 25])
def test_m_power_in_reads_homogeneous_ideals_off_the_staircase(q,
                                                               monkeypatch):
    # a homogeneous zero-dimensional ideal is m-primary, so the answer is
    # one past the top staircase degree with no normal form computed
    R = ring(5, "x", "y", "t")
    I = ideal(R, "x^2 + y^2 + t^2", f"x^{q}", f"y^{q}", f"t^{q}")
    I.basis()
    calls = []
    original = GroebnerBasis.normal_form

    def counted(self, f):
        calls.append(f)
        return original(self, f)
    monkeypatch.setattr(GroebnerBasis, "normal_form", counted)
    assert m_power_in(I) == (3 * q + 1) // 2 - 1
    assert calls == []


def test_m_power_in_rejects_components_off_the_origin():
    R = ring(5, "x", "y")
    # two points (0,0) and (1,0): zero-dimensional but not primary
    I = ideal(R, "x^2 - x", "y")
    with pytest.raises(InputError):
        m_power_in(I)
    # t in {0, 1}, and y^2 = y*t: the points (0,0,0), (0,0,1) and (0,1,1)
    R3 = ring(3, "x", "y", "t")
    with pytest.raises(InputError, match="not primary to the origin"):
        m_power_in(ideal(R3, "x^3", "y^2 - y*t", "t^2 - t"))


def test_m_power_in_follows_cancelling_coefficients():
    # x^2 = 3xy + 2y^2 - y^3 and x^2 y = x y^2 give x^3 = 5 x y^2 + ... = 0
    # over F5 by a cancellation between two standard monomials' multiples;
    # y^3 stays outside, so the answer is 4, not 5
    R = ring(5, "x", "y")
    polys = [parse_poly("x^2 - 3*x*y - 2*y^2 + y^3", R),
             parse_poly("x^2*y - x*y^2", R)]
    pure = [parse_poly("x^6", R), parse_poly("y^6", R)]
    assert m_power_in(IdealHandle(R, polys + pure)) == 4
    member = box_monomial_member(R, polys, (6, 6))
    assert member((3, 0)) and not member((0, 3))


def test_tangent_cone_run_restarts_on_wider_keys(monkeypatch):
    R = ring(5, "x", "y")
    I = ideal(R, "x^5 + x*y^3", "y^6")
    assert m_power_in(I) == 11
    assert colength(I) == 30
    # 3-bit keys hold the grevlex basis, the generators of degree 6, but
    # not the homogenized run's pair x*y^3*h, y^6 of degree 8: that run
    # pops it and restarts once, on 5 bits
    monkeypatch.setattr("charplab.engine._initial_width", lambda polys: 3)
    steps = []
    wider = engine._wider

    def spy(needed):
        steps.append(wider(needed))
        return steps[-1]
    monkeypatch.setattr("charplab.engine._wider", spy)
    assert m_power_in(ideal(R, "x^5 + x*y^3", "y^6")) == 11
    assert steps == [5]


@pytest.mark.parametrize("order", [GREVLEX, block_order(1)],
                         ids=["grevlex", "block1"])
def test_groebner_restarts_on_wider_keys(order, monkeypatch):
    R = ring(5, "x", "y", "t")
    gens = [parse_poly(t, R)
            for t in ("x^3*y + t^4", "y^5 - x*t^2", "x^2*t^3 + y")]
    expected = groebner(gens, R, order)
    with pytest.raises(LimitError):
        groebner(gens, R, order, Limits(max_degree=3))
    # 3-bit keys hold degree 7 at most.  Under grevlex a pair of lcm
    # degree 8 is queued unpacked and overflows when the run pops it; under
    # block(1) a pair that fits overflows first, in _spoly, since its
    # shifted tail does not.  Either way the run restarts once, on 5 bits
    monkeypatch.setattr("charplab.engine._initial_width", lambda polys: 3)
    steps = []
    wider = engine._wider

    def spy(needed):
        steps.append(wider(needed))
        return steps[-1]
    monkeypatch.setattr("charplab.engine._wider", spy)
    assert groebner(gens, R, order) == expected
    assert steps == [5]
    with pytest.raises(LimitError):
        groebner(gens, R, order, Limits(max_degree=3))


def reduced_pairs(gens, R, order, width=None):
    """groebner(gens) and, per attempt, the pairs (i, j) that _spoly
    reduced; `width`, if given, is the first key width."""
    attempts = []
    run, spoly = engine._Buchberger.run, engine._Buchberger._spoly

    def run_spy(self, *args):
        attempts.append([])
        return run(self, *args)

    def spoly_spy(self, i, j, lcm_k):
        attempts[-1].append((i, j))
        return spoly(self, i, j, lcm_k)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine._Buchberger, "run", run_spy)
        mp.setattr(engine._Buchberger, "_spoly", spoly_spy)
        if width is not None:
            mp.setattr(engine, "_initial_width", lambda polys: width)
        return groebner(gens, R, order), attempts


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(
    generator_lists(1, 4).map(lambda case: (case[0], case[1][0])),
    colon_cases().map(lambda case: (case[0], case[1] + [case[2]])),
    staircase_extensions().map(
        lambda case: (case[0].ring, [*case[0].elements, *case[1]]))))
def test_every_attempt_reduces_the_pairs_of_the_full_width_run(case):
    # packed keys compare as monomials at any width, and a pair whose lcm
    # does not fit sorts after every pair that does: so each attempt on
    # narrow keys reduces a prefix of the default run's pairs, in its
    # order, and the last attempt all of them.  3-bit keys restart the
    # runs that reach degree 8, 2-bit keys many more
    R, gens = case
    for order in [GREVLEX, block_order(1), block_order(2)][:R.n]:
        expected, (*_, pairs) = reduced_pairs(gens, R, order)
        for width in (3, 2):
            got, attempts = reduced_pairs(gens, R, order, width)
            assert got == expected
            assert attempts[-1] == pairs
            for done in attempts[:-1]:
                assert done == pairs[:len(done)]


def checked_pair_updates(run, width, seen):
    """run() with each _Buchberger._add checked against the literal update
    of oracles.gebauer_moller_update: the pairs (i, h, lcm) queued for the
    new element h and the elements it retires.  `width`, if given, is the
    first key width; `seen` counts the cases the checks met."""
    add = engine._Buchberger._add

    def spy(self, g, with_pairs):
        spec, h, before = self.spec, len(self.basis), list(self.active)
        lts = [b.lt_exps for b in self.basis] + [g.lt_exps]
        pairs, retired = gebauer_moller_update(lts, before, h)
        add(self, g, with_pairs)
        queued = [p for p in self.pairs if p[3] == h]
        assert sorted((i, j, tuple((e >> sh) & spec.C
                                   for sh in spec.var_shifts))
                      for _, _, i, j, e in queued) == \
            (sorted(pairs) if with_pairs else [])
        assert [i for i in before if i not in self.active] == retired
        lcms = [tuple(map(max, lts[i], g.lt_exps)) for i in before]
        coprime = {m for i, m in zip(before, lcms)
                   if not any(map(min, lts[i], g.lt_exps))}
        seen["coprime ties"] += with_pairs and any(
            lcms.count(m) > 1 for m in coprime)
        seen["retirements"] += bool(retired)
        seen["unpacked lcms"] += any(p[1] is None for p in queued)
        seen["keys over 64 bits"] += spec.g_all.bit_length() > 64
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine._Buchberger, "_add", spy)
        if width is not None:
            mp.setattr(engine, "_initial_width", lambda polys: width)
        return run()


PAIR_ORDERS = [GREVLEX, LEX, block_order(1), block_order(2)]
# 3 bits queue pairs above C unpacked; 22 bits give keys of 4 x 23 bits
PAIR_WIDTHS = [None, 3, 22]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.one_of(
    generator_lists(1, 4).map(lambda case: (case[0], case[1][0], None)),
    colon_cases(),
    staircase_extensions().map(
        lambda case: (case[0].ring, [*case[0].elements, *case[1]], None))))
def test_the_packed_pair_update_queues_and_retires_as_the_literal_one(case):
    R, gens, f = case
    seen = Counter()
    for order in [o for o in PAIR_ORDERS if o.kind != "block" or o.block < R.n]:
        for width in PAIR_WIDTHS:
            checked_pair_updates(lambda: groebner(gens, R, order), width, seen)
    if f is not None:
        for width in PAIR_WIDTHS:
            checked_pair_updates(lambda: colon_by_basis(gens, R, f), width,
                                 seen)


def test_the_pair_update_checks_meet_every_case():
    # x after y and x*y: the lcm x*y of the coprime pair (y, x) ties with
    # that of (x*y, x), which is not queued, and x retires x*y
    R = ring(5, "x", "y", "t")
    seen = Counter()
    tie = [parse_poly(t, R) for t in ("y", "x*y", "x")]
    wide = [parse_poly(t, R)
            for t in ("x^3*y + t^4", "y^5 - x*t^2", "x^2*t^3 + y")]
    for gens in (tie, wide):
        for order in PAIR_ORDERS[:3]:
            for width in PAIR_WIDTHS:
                checked_pair_updates(lambda: groebner(gens, R, order), width,
                                     seen)
    assert set(seen) == {"coprime ties", "retirements", "unpacked lcms",
                         "keys over 64 bits"} and all(seen.values())


def test_an_s_polynomial_too_wide_for_its_keys_restarts_the_run(
        monkeypatch):
    R = ring(3, "x", "y", "z")
    gens = [parse_poly(t, R) for t in ("x + y^6", "x*z^2")]
    expected = groebner(gens, R, LEX)
    assert [g.text(LEX) for g in expected] == ["y^6*z^2", "x + y^6"]
    # on 3-bit keys (C = 7) the pair's lcm x*z^2 packs, but its shifted
    # tail y^6*z^2 has degree 8, and _spoly asks for that degree
    monkeypatch.setattr("charplab.engine._initial_width", lambda polys: 3)
    asked, steps = [], []
    spoly, wider = engine._Buchberger._spoly, engine._wider

    def spy_spoly(self, *args):
        try:
            return spoly(self, *args)
        except KeyOverflow as o:
            asked.append(o.needed_degree)
            raise

    def spy_wider(needed):
        steps.append(wider(needed))
        return steps[-1]
    monkeypatch.setattr(engine._Buchberger, "_spoly", spy_spoly)
    monkeypatch.setattr("charplab.engine._wider", spy_wider)
    assert groebner(gens, R, LEX) == expected
    assert asked == [8] and steps == [5]


def test_an_s_polynomial_asks_for_the_degree_its_terms_reach(monkeypatch):
    # on 3-bit keys under block(1) the first S-polynomial that does not fit
    # has a shifted term of degree 8: each element's largest degree plus
    # the lcm's degree minus that of its own leading term.  Adding the
    # larger maxdeg to the lcm's degree would ask for 11
    R = ring(5, "x", "y", "t")
    gens = [parse_poly(t, R)
            for t in ("x^3*y + t^4", "y^5 - x*t^2", "x^2*t^3 + y")]
    expected = groebner(gens, R, block_order(1))
    monkeypatch.setattr("charplab.engine._initial_width", lambda polys: 3)
    asked = []
    wider = engine._wider

    def spy(needed):
        asked.append(needed)
        return wider(needed)
    monkeypatch.setattr("charplab.engine._wider", spy)
    assert groebner(gens, R, block_order(1)) == expected
    assert asked == [8]


def test_a_block_order_reduction_restarts_from_reduce_dict(monkeypatch):
    # under block(1) x - y^5 leads with x, and each step of x^14 -> y^70
    # raises the degree by 4: 6-bit keys (C = 63) overflow in the step from
    # x^2*y^60, which reaches degree 66, and the retry fits
    R = ring(5, "x", "y")
    asked, raised = [], []
    wider, reduce_dict = engine._wider, engine.BasisContext.reduce_dict

    def spy_reduce(self, *args):
        try:
            return reduce_dict(self, *args)
        except KeyOverflow as o:
            raised.append(o.needed_degree)
            raise

    def spy_wider(needed):
        asked.append(needed)
        return wider(needed)
    monkeypatch.setattr(engine.BasisContext, "reduce_dict", spy_reduce)
    monkeypatch.setattr("charplab.engine._initial_width", lambda polys: 6)
    monkeypatch.setattr("charplab.engine._wider", spy_wider)
    assert engine.normal_forms([parse_poly("x - y^5", R)],
                               [parse_poly("x^14", R)], R,
                               block_order(1)) == [parse_poly("y^70", R)]
    assert raised == asked == [66]


def test_a_basis_takes_only_polynomials_of_its_ring():
    R, S = ring(5, "x", "y"), ring(5, "x", "t")
    G = ideal(R, "x^2", "y^3").basis()
    stranger = parse_poly("x*t", S)
    with pytest.raises(InputError, match="different ring"):
        G.normal_form(stranger)
    with pytest.raises(InputError, match="different rings"):
        G.extend([stranger])


def test_intersect_and_colon_edge_ideals():
    R, S = ring(5, "x", "y"), ring(5, "x", "t")
    I, zero = ideal(R, "x^2", "x*y"), IdealHandle(R, [])
    assert intersect(I, zero) is zero and intersect(zero, I) is zero
    assert colon(zero, I) is zero
    with pytest.raises(InputError, match="zero ideal"):
        colon(I, zero)
    other = ideal(S, "x")
    for construction in (intersect, colon):
        with pytest.raises(InputError, match="different rings"):
            construction(I, other)


@pytest.mark.parametrize("max_degree", [6, 10, 20, 40, 100])
@pytest.mark.parametrize("order", [GREVLEX, block_order(1), block_order(2)],
                         ids=["grevlex", "block1", "block2"])
def test_every_restart_fits_twice_the_degree_asked_for(order, max_degree,
                                                       monkeypatch):
    R = ring(5, "x", "y", "t")
    gens = [parse_poly(t, R)
            for t in ("x^3*y + t^4", "y^5 - x*t^2", "x^2*t^3 + y")]
    limits = Limits(max_degree=max_degree)
    try:
        expected = groebner(gens, R, order, limits)
    except LimitError:
        expected = None
    # from 3-bit keys, record the width of each attempt and the degree
    # each restart asks for
    monkeypatch.setattr("charplab.engine._initial_width", lambda polys: 3)
    widths, asked = [], []
    pack_spec, wider = engine.PackSpec, engine._wider

    def spec_spy(n, order, w):
        widths.append(w)
        return pack_spec(n, order, w)

    def wider_spy(needed):
        asked.append(needed)
        return wider(needed)
    monkeypatch.setattr("charplab.engine.PackSpec", spec_spy)
    monkeypatch.setattr("charplab.engine._wider", wider_spy)
    if expected is None:
        with pytest.raises(LimitError, match="exceeds the limit"):
            groebner(gens, R, order, limits)
    else:
        assert groebner(gens, R, order, limits) == expected
    assert len(widths) == len(asked) + 1 and widths[0] == 3
    for w, needed, new in zip(widths, asked, widths[1:]):
        assert needed > (1 << w) - 1
        assert new == (2 * needed + 4).bit_length()
        assert w + 2 <= new <= (4 * max_degree + 8).bit_length()
    if (order, max_degree) == (block_order(2), 100):
        assert widths == [3, 5, 7]


FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2)]


@st.composite
def primary_ideals(draw):
    """(ring, pure-power bounds, extra polynomials): the ideal generated by
    x_i^(b_i) and 1-2 random polynomials with no constant term."""
    p, m = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(2, 3))
    R = ring(p, *("x", "y", "t")[:n], m=m)
    bounds = tuple(draw(st.lists(st.integers(2, 6 if n == 2 else 4),
                                 min_size=n, max_size=n)))
    # terms of degree 2-4 inside the box, at least two degrees per
    # polynomial: lower degrees or terms on the pure powers mostly leave a
    # homogeneous basis, which never reaches the homogenized run
    exps = st.tuples(*[st.integers(0, b - 1) for b in bounds]).filter(
        lambda e: 2 <= sum(e) <= 4)
    terms = st.dictionaries(exps, st.integers(1, R.field.q - 1), min_size=2,
                            max_size=4).filter(
        lambda t: len({sum(e) for e in t}) > 1)
    polys = [Polynomial(R, draw(terms))
             for _ in range(draw(st.integers(1, 2)))]
    return R, bounds, polys


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(primary_ideals())
def test_m_power_in_matches_the_box_oracle(case):
    R, bounds, polys = case
    pure = [R.monomial(tuple(b if j == i else 0 for j in range(R.n)))
            for i, b in enumerate(bounds)]
    N = m_power_in(IdealHandle(R, pure + polys))
    member = box_monomial_member(R, polys, bounds)
    assert all(member(m) for m in monomials_up_to(R.n, N) if sum(m) == N)
    assert not all(member(m) for m in monomials_up_to(R.n, N - 1)
                   if sum(m) == N - 1)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(primary_ideals(), st.data())
def test_m_power_in_needs_the_origin_as_the_only_point(case, data):
    # the value does not depend on the generators that are homogenized,
    # and one more point P != 0 leaves the local length at the origin
    # short of the colength, which m_power_in reports as not primary
    R, bounds, polys = case
    pure = [R.monomial(tuple(b if j == i else 0 for j in range(R.n)))
            for i, b in enumerate(bounds)]
    I = IdealHandle(R, pure + polys)
    N = m_power_in(I)
    assert m_power_in(IdealHandle(R, I.basis().elements)) == N
    p = R.field.p
    point = data.draw(st.tuples(*[st.integers(0, p - 1)] * R.n).filter(any))
    at_point = IdealHandle(R, [R.variable(i) - a for i, a in enumerate(point)])
    J = intersect(I, at_point)
    assert colength(J) == colength(I) + 1
    with pytest.raises(InputError, match="not primary to the origin"):
        m_power_in(J)


def cone_degrees(R, gens):
    """count_degree(s) of the tangent cone for s <= 5, checked against
    H(s+1) - H(s) of the local Hilbert function oracle."""
    hs = [local_hilbert_function(R, gens, s) for s in range(7)]
    cone = charplab_groebner._tangent_cone(IdealHandle(R, gens))
    got = [cone.count_degree(s) for s in range(6)]
    assert got == [b - a for a, b in zip(hs, hs[1:])]
    return got


@pytest.mark.parametrize("texts, want", [
    (("x*z - x", "y*z - y"), [1, 1, 1, 1, 1, 1]),
    (("x*y", "x*z"), [1, 3, 4, 5, 6, 7]),
    (("x - y*z", "x^2 + y^2 + z^2"), [1, 2, 2, 2, 2, 2]),
], ids=["line-through-the-origin", "plane-and-line", "curve-on-a-quadric"])
def test_the_tangent_cone_matches_the_local_hilbert_function(texts, want):
    R = ring(5, "x", "y", "z")
    assert cone_degrees(R, [parse_poly(t, R) for t in texts]) == want


@st.composite
def local_ideals(draw):
    """(ring, generators): 1-3 polynomials of 1-3 terms of degree at most
    3, a constant term allowed, in 2-3 variables over F2, F3 or F5."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(2, 3))
    R = ring(p, *("x", "y", "z")[:n])
    exps = st.tuples(*[st.integers(0, 3)] * n).filter(lambda e: sum(e) <= 3)
    terms = st.dictionaries(exps, st.integers(1, p - 1), min_size=1,
                            max_size=3)
    return R, [Polynomial(R, draw(terms))
               for _ in range(draw(st.integers(1, 3)))]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(local_ideals())
def test_the_tangent_cone_of_a_random_ideal_matches_the_oracle(case):
    cone_degrees(*case)


PIN_FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2)]
PIN_ORDERS = [(GREVLEX, grevlex_greater), (LEX, lex_greater),
              (block_order(1), lambda a, b: block_greater(a, b, 1))]


@st.composite
def random_ideals(draw):
    """(ring, order, literal order, generators, prefix length, bounds):
    1-3 generators with no constant term and degree at most 3 in 1-3
    variables, and pure powers x_i^(b_i) appended when bounds is not
    None, which makes the ideal zero-dimensional.  A positive prefix
    length asks for a call that passes the reduced basis of the first
    generators as gb_prefix."""
    p, m = draw(st.sampled_from(PIN_FIELDS))
    order, greater = draw(st.sampled_from(PIN_ORDERS))
    n = draw(st.integers(2 if order.kind == "block" else 1, 3))
    R = ring(p, *("x", "y", "t")[:n], m=m)
    exps = st.tuples(*[st.integers(0, 3) for _ in range(n)]).filter(
        lambda e: 1 <= sum(e) <= 3)
    terms = st.dictionaries(exps, st.integers(1, R.field.q - 1), min_size=1,
                            max_size=3)
    gens = [Polynomial(R, draw(terms)) for _ in range(draw(st.integers(1, 3)))]
    bounds = draw(st.one_of(st.none(), st.lists(
        st.integers(2, 4), min_size=n, max_size=n).map(tuple)))
    if bounds is not None:
        gens += [R.monomial(tuple(b if j == i else 0 for j in range(n)))
                 for i, b in enumerate(bounds)]
    prefix = draw(st.integers(0, len(gens) - 1))
    return R, order, greater, gens, prefix, bounds


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(random_ideals())
def test_groebner_matches_the_oracles_on_random_ideals(case):
    R, order, greater, gens, prefix, bounds = case
    if prefix:
        head = groebner(gens[:prefix], R, order)
        elems = groebner(head + gens[prefix:], R, order,
                         gb_prefix=len(head))
        assert elems == groebner(gens, R, order)
    else:
        elems = groebner(gens, R, order)
    tops = []
    for g in elems:
        top = next(e for e in g.terms
                   if all(e == o or greater(e, o) for o in g.terms))
        assert g.terms[top] == 1
        tops.append(top)
    # reduced: no term of an element is divisible by another leading term
    for i, g in enumerate(elems):
        for j, lm in enumerate(tops):
            if i != j:
                assert not any(all(a >= b for a, b in zip(e, lm))
                               for e in g.terms)
    for f in gens:
        assert naive_remainder(f, elems, greater).is_zero()
    top_degree = max(f.total_degree() for f in gens)
    for g in elems:
        assert any(dense_membership(g, gens, D)
                   for D in range(max(top_degree, g.total_degree()), 13))
    if bounds is not None:
        count = staircase_of(GroebnerBasis(R, order, elems)).count()
        assert count == dense_colength_box(gens, max(bounds))


def test_equal_leading_terms_in_a_prefix_keep_one_element():
    R = ring(5, "x", "y")
    x, y = R.gens()
    assert groebner([x, y, x + y], R, GREVLEX, gb_prefix=3) == [y, x]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(random_ideals(), st.data())
def test_a_prefix_with_a_repeated_leading_term_gives_the_reduced_basis(
        case, data):
    R, order, _, gens, _, _ = case
    G = groebner(gens, R, order)
    if len(G) < 2:
        return
    # G is sorted by leading term, so lt(G[j]) < lt(G[i]) and G[i] + c*G[j]
    # has the leading term of G[i]
    i = data.draw(st.integers(1, len(G) - 1))
    j = data.draw(st.integers(0, i - 1))
    c = data.draw(st.integers(1, R.field.q - 1))
    prefix = list(G)
    prefix.insert(data.draw(st.integers(0, len(G))),
                  G[i] + G[j] * Polynomial(R, {(0,) * R.n: c}))
    assert groebner(prefix, R, order, gb_prefix=len(prefix)) == G


# -- subalgebra presentations ------------------------------------------------------

def test_subalgebra_presentation_examples():
    R = ring(5, "x")
    x = R.variable(0)
    P = subalgebra_presentation([x**2, x**3])
    assert sorted(g.text() for g in P.basis()) == ["a1^3 + 4*a2^2"]
    # substitution witness
    for g in P.generators:
        assert g.substitute({0: x**2, 1: x**3}).is_zero()

    R2 = ring(5, "x", "y")
    xx, yy = R2.gens()
    V = subalgebra_presentation([xx**2, xx * yy, yy**2])
    assert sorted(g.text() for g in V.basis()) == ["a2^2 + 4*a1*a3"]
    for g in V.generators:
        assert g.substitute({0: xx**2, 1: xx * yy, 2: yy**2}).is_zero()

    free = subalgebra_presentation(list(R2.gens()))
    assert free.generators == ()


def test_subalgebra_presentation_name_control():
    R = ring(5, "x")
    x = R.variable(0)
    P = subalgebra_presentation([x**2, x**3], names=["u", "v"])
    assert P.ring.variables == ("u", "v")
    with pytest.raises(InputError):
        subalgebra_presentation([x**2], names=["u", "v"])
    with pytest.raises(InputError):
        subalgebra_presentation([R.one])
    # names follow Ring's rule for a list of names
    for names, message in (("uv", "not the string 'uv'"),
                           (["u", 5], "bad variable name 5"),
                           (["u", "x"], "duplicate variable name 'x'")):
        with pytest.raises(InputError, match=message):
            subalgebra_presentation([x**2, x**3], names=names)


def test_added_variables_skip_names_already_in_the_ring():
    """The tag variable of intersect and the default subalgebra names step
    around ring variables called _w and a1, and a colon in such a ring
    equals the one in a ring with plain names."""
    plain, clash = ring(5, "u", "v", "y"), ring(5, "_w", "a1", "y")

    def moved(polys):
        return [Polynomial(clash, f.terms) for f in polys]

    def terms(polys):
        return [f.terms for f in polys]

    I = ideal(plain, "u^2 - v*y", "v^3")
    J = ideal(plain, "u*v - y^2", "y^3")
    I2, J2 = (IdealHandle(clash, moved(K.generators)) for K in (I, J))
    assert terms(intersect(I2, J2).basis()) == terms(intersect(I, J).basis())
    assert terms(eliminate(I2, 1).basis()) == terms(eliminate(I, 1).basis())
    gb = list(I.basis())
    f = parse_poly("u*y + v", plain)
    assert terms(colon_by_basis(moved(gb), clash, moved([f])[0])) == \
        terms(colon_by_basis(gb, plain, f))
    P = subalgebra_presentation([clash.variable(0) ** 2, clash.variable(1)])
    assert P.ring.variables == ("_a1", "a2")


# -- squarefreeness -----------------------------------------------------------------

def test_squarefree_hypersurface_examples():
    R = ring(5, "x", "y", "t")
    assert is_squarefree_hypersurface(parse_poly("x*y + t^3", R))
    assert not is_squarefree_hypersurface(parse_poly("x^2", R))
    R3 = ring(3, "x", "y")
    assert not is_squarefree_hypersurface(parse_poly("x^3 + y^3", R3))
    with pytest.raises(InputError):
        is_squarefree_hypersurface(parse_poly("3", R))


# -- resource limits ----------------------------------------------------------------

def test_basis_limit_aborts():
    R = ring(3, "x", "y", "t")
    tight = Limits(max_basis=2)
    I = IdealHandle(R, [parse_poly("x*y + t^2", R),
                        parse_poly("x^3 + y*t", R),
                        parse_poly("y^3 + x*t", R)], limits=tight)
    with pytest.raises(LimitError):
        I.basis()


def test_degree_limit_aborts():
    R = ring(2, "x", "y")
    tight = Limits(max_degree=3)
    I = IdealHandle(R, [parse_poly("x^2 + y^3", R),
                        parse_poly("y^4", R)], limits=tight)
    with pytest.raises(LimitError):
        I.basis()


def test_seconds_limit_bounds_each_basis_computation():
    R = ring(3, "x", "y", "t")
    gens = [parse_poly(t, R) for t in ("x*y + t^2", "x^3 + y*t", "y^3 + x*t")]
    with pytest.raises(TimeLimitError, match="time limit"):
        groebner(gens, R, GREVLEX, Limits(max_seconds=0))
    with pytest.raises(TimeLimitError, match="time limit"):
        IdealHandle(R, gens, limits=Limits(max_seconds=0)).basis()
    # the budget is per call, so a generous one finishes
    assert groebner(gens, R, GREVLEX, Limits(max_seconds=60)) == \
        groebner(gens, R, GREVLEX)
    for bad in (-1, float("nan"), float("inf")):
        with pytest.raises(InputError):
            Limits(max_seconds=bad)


def test_seconds_limit_bounds_the_tangent_cone_run():
    R = ring(5, "x", "y")
    gens = [parse_poly(t, R) for t in ("x^5 + x*y^3", "y^6")]
    gb = IdealHandle(R, gens).basis()
    # an inhomogeneous basis, so m_power_in runs the homogenized basis run
    assert any(len({sum(e) for e in g.terms}) > 1 for g in gb.elements)
    spent = IdealHandle(R, gens, limits=Limits(max_seconds=0))
    spent.seed_cache(gb)
    with pytest.raises(TimeLimitError, match="time limit"):
        m_power_in(spent)
    roomy = IdealHandle(R, gens, limits=Limits(max_seconds=60))
    roomy.seed_cache(gb)
    assert m_power_in(roomy) == 11
    # not primary to the origin: the local count falls short of the
    # colength.  The homogenized generators x^2 - x*h and y^2 have coprime
    # leading terms x*h and y^2, so that run has no pair to time out on
    R3 = ring(3, "x", "y")
    gens = [parse_poly(t, R3) for t in ("x^2 - x", "y^2")]
    with pytest.raises(InputError, match="not primary"):
        m_power_in(IdealHandle(R3, gens))
    # x*h and y*h share h, so this run has a pair for the budget to stop
    gens = [parse_poly(t, R3) for t in ("x^2 - x", "y^2 - y")]
    with pytest.raises(InputError, match="not primary"):
        m_power_in(IdealHandle(R3, gens, limits=Limits(max_seconds=60)))
    spent = IdealHandle(R3, gens, limits=Limits(max_seconds=0))
    spent.seed_cache(IdealHandle(R3, gens).basis())
    with pytest.raises(TimeLimitError, match="time limit"):
        m_power_in(spent)
