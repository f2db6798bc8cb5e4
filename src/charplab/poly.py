"""Sparse multivariate polynomials over GF(p^m), with the ASCII grammar.

A Ring fixes the coefficient field and an ordered tuple of variable names.
Polynomials store a map from exponent tuples to nonzero coefficient codes;
all arithmetic is exact.  The text grammar is

    poly := term (('+'|'-') term)*
    term := atom ('*' atom)*
    atom := integer | ('g' | var) ('^' nat)?

with insignificant whitespace.  Digits and names are ASCII; any other
character, and an integer longer than the interpreter converts, is a
ParseError at its 1-based position.  'g' denotes the extension generator
and is only legal when the field is a proper extension (m > 1); in that
case no ring variable may be called 'g'.  Printing emits terms in descending order
under the active monomial order, coefficients as canonical residues joined
by '+', extension coefficients expanded into separate generator-power terms
so that output always re-parses to the same polynomial.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from typing import Iterable

from .errors import InputError, LimitError, ParseError
from .field import Field, FieldElement, _as_list, _at_least, _is_int
from .orders import GREVLEX, MonomialOrder

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT63 = 1 << 63


def _exponents(exps: Iterable[int]) -> tuple[int, ...]:
    t = _as_list(exps, "exponents")
    if any(not _is_int(e) or e < 0 for e in t):
        raise InputError(f"exponents must be nonnegative integers, got {t}")
    return t


class Ring:
    """A polynomial ring F_q[x_1, ..., x_n] with named variables."""

    __slots__ = ("field", "variables", "n", "_index")

    def __init__(self, field: Field, variables: Iterable[str]):
        names = _as_list(variables, "variable names")
        if not names:
            raise InputError("a ring needs at least one variable")
        seen = set()
        for name in names:
            if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
                raise InputError(f"bad variable name {name!r}")
            if name in seen:
                raise InputError(f"duplicate variable name {name!r}")
            seen.add(name)
        if field.m > 1 and "g" in seen:
            raise InputError(
                "variable name 'g' collides with the extension generator")
        self.field = field
        self.variables = names
        self.n = len(names)
        self._index = {name: i for i, name in enumerate(names)}

    # -- element constructors --------------------------------------------

    @property
    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    @property
    def one(self) -> "Polynomial":
        return Polynomial(self, {(0,) * self.n: 1})

    def constant(self, value) -> "Polynomial":
        return Polynomial(self, {(0,) * self.n: self.field.element(value).code})

    def _position(self, var) -> int:
        """The index of a variable given by name or by index: the one rule
        for every method that takes a variable from a caller."""
        at = self._index.get(var) if isinstance(var, str) else var
        if not _is_int(at) or not 0 <= at < self.n:
            raise InputError(f"unknown variable {var!r}")
        return at

    def variable(self, i) -> "Polynomial":
        exps = [0] * self.n
        exps[self._position(i)] = 1
        return Polynomial(self, {tuple(exps): 1})

    def gens(self) -> list["Polynomial"]:
        return [self.variable(i) for i in range(self.n)]

    def monomial(self, exps: Iterable[int], coeff=1) -> "Polynomial":
        t = _exponents(exps)
        if len(t) != self.n:
            raise InputError(f"bad exponent tuple {t} for {self.n} variables")
        return Polynomial(self, {t: self.field.element(coeff).code})

    def extend_front(self, names: Iterable[str]) -> "Ring":
        """New ring with extra variables prepended (they become largest)."""
        return Ring(self.field, Ring(self.field, names).variables
                    + self.variables)

    def drop_front(self, k: int) -> "Ring":
        """Subring on the last n-k variables."""
        if _at_least(k, 1, "variable count") >= self.n:
            raise InputError(f"cannot drop {k} of {self.n} variables")
        return Ring(self.field, self.variables[k:])

    def __eq__(self, other) -> bool:
        return (isinstance(other, Ring)
                and self.field == other.field
                and self.variables == other.variables)

    def __hash__(self) -> int:
        return hash((self.field, self.variables))

    def __repr__(self) -> str:
        return f"{self.field!r}[{', '.join(self.variables)}]"


class Monomial:
    """Exponent tuple with its total degree cached."""

    __slots__ = ("exponents", "degree")

    def __init__(self, exponents: Iterable[int]):
        t = _exponents(exponents)
        object.__setattr__(self, "exponents", t)
        object.__setattr__(self, "degree", sum(t))

    def __setattr__(self, *args):
        raise AttributeError("monomials are immutable")

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(a + b for a, b in zip(self.exponents, other.exponents))

    def divides(self, other: "Monomial") -> bool:
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(max(a, b) for a, b in zip(self.exponents, other.exponents))

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.exponents == other.exponents

    def __hash__(self) -> int:
        return hash(self.exponents)

    def __repr__(self) -> str:
        return f"Monomial{self.exponents}"


class Polynomial:
    """Sparse polynomial: ring plus a map exponent-tuple -> nonzero code.
    The constructor is the one place that drops zero codes, so arithmetic
    stores sums and products as they come."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict):
        self.ring = ring
        self.terms = {k: v for k, v in terms.items() if v}

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {(0,) * self.ring.n}

    def constant_code(self) -> int:
        return self.terms.get((0,) * self.ring.n, 0)

    def total_degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def leading_term(self, order: MonomialOrder = GREVLEX) -> tuple[Monomial, FieldElement]:
        if not self.terms:
            raise InputError("the zero polynomial has no leading term")
        exps = max(self.terms, key=order.key)
        return Monomial(exps), self.ring.field.from_code(self.terms[exps])

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise InputError("polynomials live in different rings")
            return other
        if isinstance(other, (int, FieldElement)):
            return self.ring.constant(other)
        raise InputError(f"cannot coerce {other!r} into {self.ring!r}")

    def __add__(self, other):
        o = self._coerce(other)
        f = self.ring.field
        out = dict(self.terms)
        for k, v in o.terms.items():
            out[k] = f.add(out.get(k, 0), v)
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        f = self.ring.field
        return Polynomial(self.ring, {k: f.neg(v) for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)):
            f = self.ring.field
            c = f.element(other).code
            return Polynomial(self.ring, {k: f.mul(c, v) for k, v in self.terms.items()})
        o = self._coerce(other)
        f = self.ring.field
        out: dict = {}
        for ka, va in self.terms.items():
            for kb, vb in o.terms.items():
                k = tuple(a + b for a, b in zip(ka, kb))
                out[k] = f.add(out.get(k, 0), f.mul(va, vb))
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, t: int):
        _at_least(t, 0, "polynomial exponent")
        out = self.ring.one
        base = self
        while t:
            if t & 1:
                out = out * base
            if t > 1:
                base = base * base
            t >>= 1
        return out

    def frobenius_pow(self, e: int) -> "Polynomial":
        """f^(p^e) by coefficientwise Frobenius and exponent scaling."""
        _at_least(e, 0, "Frobenius iterate count")
        if e == 0 or not self.terms:
            return self
        f = self.ring.field
        scale = f.p**e
        if (self.total_degree() or 1) * scale >= _INT63:
            raise LimitError(
                f"Frobenius power would push degrees past 64-bit range "
                f"(degree {self.total_degree()} * {f.p}^{e})")
        return Polynomial(
            self.ring,
            {tuple(x * scale for x in k): f.frobenius(v, e)
             for k, v in self.terms.items()})

    def partial(self, i) -> "Polynomial":
        """Formal partial derivative with respect to a variable, given by
        name or by index; distinct terms have distinct derivative keys."""
        i = self.ring._position(i)
        f = self.ring.field
        return Polynomial(self.ring, {
            k[:i] + (k[i] - 1,) + k[i + 1:]: f.mul(f.from_int(k[i]), v)
            for k, v in self.terms.items() if k[i]})

    def evaluate(self, codes: Iterable[int]) -> int:
        """Value at a point given by coefficient codes; returns a code."""
        f = self.ring.field
        pt = [f.from_code(c).code for c in _as_list(codes, "point")]
        if len(pt) != self.ring.n:
            raise InputError(f"expected {self.ring.n} coordinates")
        total = 0
        for k, v in self.terms.items():
            acc = v
            for c, e in zip(pt, k):
                if e:
                    acc = f.mul(acc, f.pow(c, e))
                    if not acc:
                        break
            total = f.add(total, acc)
        return total

    def substitute(self, images: dict) -> "Polynomial":
        """Substitute polynomials for variables, each given by name or by
        index.  The images share one ring over this field; a variable with
        no image stays itself, which needs that ring to be this one."""
        ring = self.ring
        if not isinstance(images, Mapping):
            raise InputError(f"substitution images must be a mapping, "
                             f"got {images!r}")
        sub = {ring._position(key): val for key, val in images.items()}
        if not all(isinstance(val, Polynomial) for val in images.values()):
            raise InputError("substitution images must be polynomials")
        targets = {val.ring for val in images.values()} or {ring}
        if len(targets) > 1:
            raise InputError("substitution images live in different rings")
        target = targets.pop()
        if target.field != ring.field:
            raise InputError("substitution cannot change the coefficient field")
        if target == ring:
            sub = {i: sub.get(i, ring.variable(i)) for i in range(ring.n)}
        out = target.zero
        for k, v in self.terms.items():
            piece = target.constant(ring.field.from_code(v))
            for i, e in enumerate(k):
                if e:
                    if i not in sub:
                        raise InputError(
                            f"variable {ring.variables[i]!r} has no image")
                    piece = piece * sub[i] ** e
            out = out + piece
        return out

    # -- text ---------------------------------------------------------------

    def text(self, order: MonomialOrder = GREVLEX) -> str:
        if not self.terms:
            return "0"
        ring = self.ring
        f = ring.field
        pieces: list[str] = []
        for exps in sorted(self.terms, key=order.key, reverse=True):
            code = self.terms[exps]
            mono_atoms = []
            for i, e in enumerate(exps):
                if e == 1:
                    mono_atoms.append(ring.variables[i])
                elif e > 1:
                    mono_atoms.append(f"{ring.variables[i]}^{e}")
            digits = f.coords(code)
            for i in range(f.m - 1, -1, -1):
                c = digits[i]
                if not c:
                    continue
                atoms = []
                if c != 1 or (i == 0 and not mono_atoms):
                    atoms.append(str(c))
                if i == 1:
                    atoms.append("g")
                elif i > 1:
                    atoms.append(f"g^{i}")
                pieces.append("*".join(atoms + mono_atoms))
        return " + ".join(pieces)

    def __str__(self) -> str:
        return self.text()

    def __eq__(self, other) -> bool:
        if _is_int(other) or isinstance(other, FieldElement):
            other = self.ring.constant(other)
        return (isinstance(other, Polynomial)
                and self.ring == other.ring and self.terms == other.terms)

    __hash__ = None  # mutable-dict payload; identity hashing would mislead

    def __repr__(self) -> str:
        return f"<{self.text()}>"


# -- parsing ----------------------------------------------------------------


# one token per match: an ASCII digit run, a name, an operator, or any
# other non-space character, which is an error
_TOKEN_RE = re.compile(
    rf"(?P<int>[0-9]+)|(?P<name>{_NAME_RE.pattern})|(?P<op>[-+*^])|(?P<bad>\S)")


def _integer(digits: str, pos: int) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's integer-string digit limit
        raise ParseError(f"integer of {len(digits)} digits is too long",
                         pos) from None


def parse_poly(text: str, ring: Ring) -> Polynomial:
    """Parse the ASCII grammar; raises ParseError with a 1-based position."""
    if not isinstance(text, str):
        raise InputError(f"polynomial text must be a string, got {text!r}")
    toks = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m.group()!r}",
                             m.start() + 1)
        toks.append((m.lastgroup, m.group(), m.start() + 1))
    toks.append(("end", "", len(text) + 1))
    f = ring.field
    zero = (0,) * ring.n
    acc: dict = {}
    coeff, exps, k = 1, zero, 0
    while True:
        # one atom, multiplied into the term
        kind, val, pos = toks[k]
        k += 1
        if kind == "int":
            coeff = f.mul(coeff, f.from_int(_integer(val, pos)))
        elif kind == "end":
            raise ParseError("expected an atom", pos)
        elif kind != "name":
            raise ParseError(f"expected an atom, got {val!r}", pos)
        else:
            i = ring._index.get(val)
            if i is None and val != "g":
                raise ParseError(f"unknown identifier {val!r}", pos)
            if i is None and f.m == 1:
                raise ParseError(
                    "'g' denotes the extension generator but the field "
                    "is prime", pos)
            e = 1
            if toks[k][1] == "^":
                kind, digits, pos = toks[k + 1]
                if kind != "int":
                    raise ParseError(
                        f"expected integer exponent after {val!r}", pos)
                e = _integer(digits, pos)
                k += 2
            if i is None:
                coeff = f.mul(coeff, f.pow(f.p, e))
            else:
                exps = exps[:i] + (exps[i] + e,) + exps[i + 1:]
        kind, op, pos = toks[k]
        if op == "*":
            k += 1
            continue
        acc[exps] = f.add(acc.get(exps, 0), coeff)
        if kind == "end":
            return Polynomial(ring, acc)
        if op not in ("+", "-"):
            raise ParseError(f"expected '+' or '-', got {op!r}", pos)
        k += 1
        coeff, exps = (1 if op == "+" else f.neg(1)), zero
