"""Exact arithmetic in finite fields GF(p^m).

Elements are encoded as integers in [0, q), q = p^m: the base-p digits of the
code are the coordinates with respect to the power basis 1, g, ..., g^(m-1),
where g is the class of the generator modulo an explicit irreducible modulus.
For m = 1 the code is the residue itself.  Multiplication and inversion go
through discrete log/antilog tables built once per field (q is capped at
2^16, so the tables stay small); addition is digitwise mod p.  The tables
are plain lists: indexing one with a Python int is several times cheaper
than a numpy scalar lookup, and field operations are called one code at a
time.

The module deliberately has no notion of "symbolic" elements: every value is
a concrete code and every operation is a total function on codes, which keeps
the layer trivially thread-safe and bit-reproducible.
"""

from __future__ import annotations

import functools
from typing import Iterable

from .errors import InputError

MAX_Q = 1 << 16


def _is_int(value) -> bool:
    """The rule for an integer taken from a caller: an int, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _at_least(value, least: int, what: str) -> int:
    """The rule for an integer bound taken from a caller: `value` when it
    is an int, not a bool, and at least `least`; InputError otherwise."""
    if not _is_int(value) or value < least:
        raise InputError(f"{what} must be an integer >= {least}, got {value!r}")
    return value


def _of_type(value, what: str, *kinds: type):
    """The rule for an object taken from a caller: `value` when it is an
    instance of one of `kinds`; InputError otherwise."""
    if not isinstance(value, kinds):
        names = " or ".join(k.__name__ for k in kinds)
        raise InputError(f"{what} must be of type {names}, got {value!r}")
    return value


def _as_list(value, what: str) -> tuple:
    """The rule for a list taken from a caller: any iterable but a string,
    as a tuple; InputError otherwise."""
    if isinstance(value, str):
        raise InputError(f"{what} must be a list, not the string {value!r}")
    try:
        return tuple(value)
    except TypeError:
        raise InputError(f"{what} must be a list, got {value!r}") from None


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _poly_divmod(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
    """Division with remainder for dense coefficient lists over F_p."""
    num = list(num)
    dd = len(den) - 1
    inv_lead = pow(den[-1], p - 2, p)
    quot = [0] * max(0, len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] % p
        if c:
            f = (c * inv_lead) % p
            quot[i - dd] = f
            for j, dc in enumerate(den):
                num[i - dd + j] = (num[i - dd + j] - f * dc) % p
    while num and num[-1] % p == 0:
        num.pop()
    return quot, num


def _all_monic(degree: int, p: int) -> Iterable[list[int]]:
    """All monic polynomials of the given degree over F_p, low coeffs first."""
    total = p**degree
    for code in range(total):
        coeffs = []
        c = code
        for _ in range(degree):
            coeffs.append(c % p)
            c //= p
        coeffs.append(1)
        yield coeffs


def _is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    m = len(coeffs) - 1
    if m < 1 or coeffs[-1] % p != 1:
        return False
    for d in range(1, m // 2 + 1):
        for den in _all_monic(d, p):
            _, rem = _poly_divmod(list(coeffs), den, p)
            if not rem:
                return False
    return True


def _default_modulus(p: int, m: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree m, by low-coefficient code order."""
    for cand in _all_monic(m, p):
        if _is_irreducible(tuple(cand), p):
            return tuple(cand)
    raise InputError(f"no irreducible modulus of degree {m} over F_{p}")


class Field:
    """GF(p^m) with table-backed arithmetic on integer codes."""

    __slots__ = (
        "p", "m", "q", "modulus", "generator_code",
        "_exp", "_log", "_inv", "_neg",
    )

    def __init__(self, p: int, m: int = 1, modulus: tuple[int, ...] | None = None):
        # the bounds come first: trial division of a huge p, or p**m for a
        # huge m, would run for minutes before the size check
        if _is_int(p) and p > MAX_Q:
            raise InputError(f"characteristic {p} exceeds the supported bound {MAX_Q}")
        if not _is_int(p) or _prime_factors(p) != [p]:
            raise InputError(f"characteristic must be a prime, got {p!r}")
        _at_least(m, 1, "extension degree")
        if m > 16:  # p**m >= 2**17
            raise InputError(f"field size {p}^{m} exceeds the supported bound {MAX_Q}")
        q = p**m
        if q > MAX_Q:
            raise InputError(f"field size {q} exceeds the supported bound {MAX_Q}")
        if modulus is not None:
            modulus = _as_list(modulus, "modulus")
            if not all(map(_is_int, modulus)):
                raise InputError(f"modulus coefficients must be integers, got {modulus!r}")
            modulus = tuple(c % p for c in modulus)
        if m == 1:
            if modulus not in (None, (0, 1)):
                raise InputError("modulus is only meaningful for extension degree > 1")
            modulus = (0, 1)
        elif modulus is None:
            modulus = _default_modulus(p, m)
        else:
            if len(modulus) != m + 1:
                raise InputError(
                    f"modulus must list {m + 1} coefficients, got {len(modulus)}")
            if modulus[-1] != 1:
                raise InputError("modulus must be monic")
            if not _is_irreducible(modulus, p):
                raise InputError("modulus is reducible over the prime field")
        self.p = p
        self.m = m
        self.q = q
        self.modulus = modulus
        self._build_tables()

    # -- construction of log/antilog tables ------------------------------

    def _mul_codes_raw(self, a: int, b: int) -> int:
        """Product of codes by digit convolution and reduction mod modulus."""
        p, m = self.p, self.m
        if m == 1:
            return (a * b) % p
        da = [(a // p**i) % p for i in range(m)]
        db = [(b // p**i) % p for i in range(m)]
        prod = [0] * (2 * m - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db):
                    prod[i + j] = (prod[i + j] + ca * cb) % p
        # reduce degrees >= m using g^m = -(low part of modulus)
        for i in range(2 * m - 2, m - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(m):
                    prod[i - m + j] = (prod[i - m + j] - c * self.modulus[j]) % p
        return sum(prod[i] * p**i for i in range(m))

    def _build_tables(self) -> None:
        q, p = self.q, self.p
        if q == 2:
            gen = 1
        else:
            factors = _prime_factors(q - 1)
            gen = None
            for cand in range(2, q):
                ok = True
                for f in factors:
                    if self._pow_raw(cand, (q - 1) // f) == 1:
                        ok = False
                        break
                if ok:
                    gen = cand
                    break
            if gen is None:
                raise InputError("modulus is reducible: no multiplicative generator")
        exp = [0] * (2 * (q - 1))
        log = [0] * q
        acc = 1
        for k in range(q - 1):
            exp[k] = acc
            log[acc] = k
            acc = self._mul_codes_raw(acc, gen)
        if acc != 1:
            raise InputError("modulus is reducible: generator order mismatch")
        exp[q - 1:] = exp[:q - 1]
        self.generator_code = gen
        self._exp = exp
        self._log = log
        self._inv = [0] + [exp[(q - 1 - log[a]) % (q - 1)] for a in range(1, q)]
        self._neg = [self._scale_digits(c, p - 1) for c in range(q)]

    def _scale_digits(self, a: int, s: int) -> int:
        p, m = self.p, self.m
        return sum(((a // p**i) % p * s % p) * p**i for i in range(m))

    def _pow_raw(self, a: int, n: int) -> int:
        out = 1
        base = a
        while n:
            if n & 1:
                out = self._mul_codes_raw(out, base)
            base = self._mul_codes_raw(base, base)
            n >>= 1
        return out

    # -- scalar code arithmetic ------------------------------------------

    def add(self, a: int, b: int) -> int:
        p, m = self.p, self.m
        if m == 1:
            return (a + b) % p
        if p == 2:
            return a ^ b
        out = 0
        for i in range(m):
            pi = p**i
            out += (((a // pi) + (b // pi)) % p) * pi
        return out

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        """a - b; an extension of odd characteristic adds the negation."""
        p, m = self.p, self.m
        if m == 1:
            return (a - b) % p
        if p == 2:
            return a ^ b
        return self.add(a, self._neg[b])

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise InputError("division by zero in the coefficient field")
        return self._inv[a]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise InputError("division by zero in the coefficient field")
        if a == 0:
            return 0
        # log differences lie in (-(q-1), q-1); exp repeats over 2(q-1)
        return self._exp[self._log[a] - self._log[b] + self.q - 1]

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            if n < 0:
                raise InputError("division by zero in the coefficient field")
            return 0 if n else 1
        return self._exp[(self._log[a] * n) % (self.q - 1)]

    def frobenius(self, a: int, e: int = 1) -> int:
        """e-fold Frobenius a |-> a^(p^e) on codes."""
        _at_least(e, 0, "Frobenius iterate count")
        if a == 0:
            return 0
        return self.pow(a, pow(self.p, e, self.q - 1) if self.q > 2 else 1)

    def from_int(self, n: int) -> int:
        """Embed an integer as a constant: reduce mod p into digit 0."""
        return n % self.p

    def coords(self, a: int) -> tuple[int, ...]:
        p = self.p
        return tuple((a // p**i) % p for i in range(self.m))

    def from_coords(self, coords: Iterable[int]) -> int:
        cs = _as_list(coords, "coordinates")
        if len(cs) != self.m:
            raise InputError(f"expected {self.m} coordinates, got {len(cs)}")
        return sum((c % self.p) * self.p**i for i, c in enumerate(cs))

    # -- misc --------------------------------------------------------------

    def element(self, value) -> "FieldElement":
        if isinstance(value, FieldElement):
            if value.field is not self and value.field != self:
                raise InputError("element belongs to a different field")
            return value
        if _is_int(value):
            return FieldElement(self, self.from_int(value))
        raise InputError(f"cannot coerce {value!r} into GF({self.q})")

    def from_code(self, code: int) -> "FieldElement":
        if not _is_int(code) or not 0 <= code < self.q:
            raise InputError(f"code {code!r} out of range for GF({self.q})")
        return FieldElement(self, code)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    @property
    def generator(self) -> "FieldElement":
        """The class of the modulus variable (only meaningful for m > 1)."""
        if self.m == 1:
            raise InputError("prime field has no extension generator")
        return FieldElement(self, self.p)

    def elements(self) -> Iterable["FieldElement"]:
        for c in range(self.q):
            yield FieldElement(self, c)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Field)
                and self.p == other.p and self.m == other.m
                and self.modulus == other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __repr__(self) -> str:
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"


def GF(p: int, m: int = 1, modulus: Iterable[int] | None = None) -> Field:
    """Cached field constructor; equal parameters share one table set."""
    return _cached_field(p, m, None if modulus is None else tuple(modulus))


_cached_field = functools.cache(Field)


def _field_operand(method):
    """Coerce an int or FieldElement operand; decline any other, so that
    Python tries its reflected method (Polynomial's, say)."""
    @functools.wraps(method)
    def wrapped(self, other):
        if not isinstance(other, (int, FieldElement)):
            return NotImplemented
        return method(self, self.field.element(other))
    return wrapped


class FieldElement:
    """Immutable element of a Field, wrapping an integer code."""

    __slots__ = ("field", "code")

    def __init__(self, field: Field, code: int):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "code", code)

    def __setattr__(self, *args):
        raise AttributeError("field elements are immutable")

    @_field_operand
    def __add__(self, o):
        return FieldElement(self.field, self.field.add(self.code, o.code))

    __radd__ = __add__

    @_field_operand
    def __sub__(self, o):
        return FieldElement(self.field, self.field.sub(self.code, o.code))

    @_field_operand
    def __rsub__(self, o):
        return o - self

    @_field_operand
    def __mul__(self, o):
        return FieldElement(self.field, self.field.mul(self.code, o.code))

    __rmul__ = __mul__

    @_field_operand
    def __truediv__(self, o):
        return FieldElement(self.field, self.field.div(self.code, o.code))

    @_field_operand
    def __rtruediv__(self, o):
        return o / self

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.code))

    def __pow__(self, n: int):
        if not _is_int(n):
            raise InputError(f"field powers take integer exponents, got {n!r}")
        return FieldElement(self.field, self.field.pow(self.code, n))

    def frobenius(self, e: int = 1) -> "FieldElement":
        return FieldElement(self.field, self.field.frobenius(self.code, e))

    @property
    def coords(self) -> tuple[int, ...]:
        return self.field.coords(self.code)

    def __bool__(self) -> bool:
        return self.code != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.field == other.field and self.code == other.code
        if _is_int(other):
            return self.code == self.field.from_int(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field.p, self.field.m, self.code))

    def __repr__(self) -> str:
        coords = self.coords
        if self.field.m == 1:
            return str(coords[0])
        parts = []
        for i in range(self.field.m - 1, -1, -1):
            c = coords[i]
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                gpow = "g" if i == 1 else f"g^{i}"
                parts.append(gpow if c == 1 else f"{c}*{gpow}")
        return " + ".join(parts) if parts else "0"
