"""Global monomial orders: graded reverse lexicographic, lexicographic, and
two-block elimination orders.

An order is identified by its kind and, for block orders, the size k of the
leading block (the variables to be eliminated).  Comparison is done through
`key`: a tuple such that the natural tuple order on keys agrees with the
monomial order.  Keys are also what the packed-integer engine mirrors, so
this module is the semantic ground truth the fast path is tested against.
"""

from __future__ import annotations

from .errors import InputError
from .field import _at_least


def _grevlex_key(exps: tuple[int, ...]) -> tuple[int, ...]:
    # total degree first; ties broken so that the monomial whose last
    # differing exponent is smaller wins
    return (sum(exps),) + tuple(-e for e in reversed(exps))


class MonomialOrder:
    """One of grevlex, lex, or block(k); immutable and hashable."""

    __slots__ = ("kind", "block")

    def __init__(self, kind: str, block: int | None = None):
        if kind not in ("grevlex", "lex", "block"):
            raise InputError(f"unknown monomial order kind {kind!r}")
        if kind == "block":
            _at_least(block, 1, "block size")
        elif block is not None:
            raise InputError(f"{kind} order takes no block size")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "block", block)

    def __setattr__(self, *args):
        raise AttributeError("orders are immutable")

    def key(self, exps: tuple[int, ...]):
        """Comparison key: bigger key = bigger monomial."""
        if self.kind == "grevlex":
            return _grevlex_key(exps)
        if self.kind == "lex":
            return exps
        k = self.block
        if k >= len(exps):
            raise InputError(
                f"block({k}) needs more than {k} variables, got {len(exps)}")
        return _grevlex_key(exps[:k]) + _grevlex_key(exps[k:])

    def greater(self, a: tuple[int, ...], b: tuple[int, ...]) -> bool:
        return self.key(a) > self.key(b)

    def __eq__(self, other) -> bool:
        return (isinstance(other, MonomialOrder)
                and self.kind == other.kind and self.block == other.block)

    def __hash__(self) -> int:
        return hash((self.kind, self.block))

    def __repr__(self) -> str:
        if self.kind == "block":
            return f"block({self.block})"
        return self.kind


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


def block_order(k: int) -> MonomialOrder:
    return MonomialOrder("block", k)


def order_from_string(text: str) -> MonomialOrder:
    """Parse 'grevlex', 'lex', or 'block:<k>'; a library helper (the CLI
    and job files accept only 'grevlex' and 'lex')."""
    t = text.strip().lower()
    if t == "grevlex":
        return GREVLEX
    if t == "lex":
        return LEX
    if t.startswith("block:"):
        digits = t[6:]
        # ASCII digits only: int() also reads '1_0', '+3' and non-ASCII digits
        if digits.isascii() and digits.isdigit():
            try:
                return block_order(int(digits))
            except ValueError:  # past the interpreter's digit limit
                pass
        raise InputError(f"malformed block order {text!r}")
    raise InputError(f"unknown monomial order {text!r}")
