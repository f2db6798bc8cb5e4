"""Trace-form discriminants of monogenic finite free ring extensions.

The extension is presented as A[z]/(f) with A a polynomial ring over a
finite field and f monic in z of degree n, so 1, z, ..., z^{n-1} is an
A-module basis.  The discriminant is the determinant of the n x n matrix
of traces of the basis products, computed by fraction-free elimination so
every intermediate quantity stays a polynomial.

The congruence checker compares two discriminants T-adically: the reported
order is the largest k such that the difference lies in the k-th power of
the irrelevant maximal ideal of A, measured by total degree in the base
variables (infinite when the difference vanishes).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .field import _at_least, _of_type
from .groebner import divide_exact
from .poly import Polynomial, Ring


class FiniteExtensionPresentation:
    """A[z]/(f) with f monic of degree n >= 1 in the last variable z."""

    __slots__ = ("base", "zname", "ring", "relation", "n", "zcoeffs")

    def __init__(self, base: Ring, zname: str, relation: Polynomial):
        # Ring rejects a z that names a base variable
        ring = Ring(_of_type(base, "base ring", Ring).field,
                    base.variables + (zname,))
        if _of_type(relation, "relation", Polynomial).ring != ring:
            raise InputError("relation must live in the base ring extended "
                             "by the z variable (z last)")
        if relation.is_zero():
            raise InputError("relation must be nonzero")
        zcoeffs = _z_coefficients(relation, base)
        n = max(zcoeffs)
        if n < 1:
            raise InputError("relation must have positive degree in z")
        lead = zcoeffs[n]
        if not (lead.is_constant() and lead.constant_code() == 1):
            raise InputError("relation must be monic in z")
        self.base = base
        self.zname = zname
        self.ring = ring
        self.relation = relation
        self.n = n
        self.zcoeffs = zcoeffs

    def with_relation(self, relation: Polynomial) -> "FiniteExtensionPresentation":
        return FiniteExtensionPresentation(self.base, self.zname, relation)


def _z_coefficients(g: Polynomial, base: Ring) -> dict:
    """Split a polynomial of the extended ring into {z-degree: base poly}."""
    split: dict = {}
    for exps, code in g.terms.items():
        split.setdefault(exps[-1], {})[exps[:-1]] = code
    return {k: Polynomial(base, d) for k, d in split.items()}


def _reduce_z(coeffs: dict, P: FiniteExtensionPresentation) -> dict:
    """Reduce a {z-degree: base poly} dict modulo the monic relation."""
    n = P.n
    out = dict(coeffs)
    while out:
        m = max(out)
        if m < n:
            break
        c = out.pop(m)
        if c.is_zero():
            continue
        for k, fk in P.zcoeffs.items():
            if k == n:
                continue
            prev = out.get(m - n + k, P.base.zero)
            out[m - n + k] = prev - c * fk
    return {k: v for k, v in out.items() if not v.is_zero()}


def mult_matrix(P: FiniteExtensionPresentation, g: Polynomial) -> list:
    """Matrix of multiplication by g on the basis 1, z, ..., z^{n-1};
    entry [i][j] is the z^i coordinate of g * z^j reduced modulo f."""
    _of_type(P, "extension", FiniteExtensionPresentation)
    if g.ring != P.ring:
        raise InputError("multiplier must live in the extension ring")
    n = P.n
    gcoeffs = _reduce_z(_z_coefficients(g, P.base), P)
    rows = [[P.base.zero] * n for _ in range(n)]
    col = gcoeffs
    for j in range(n):
        for i, c in col.items():
            rows[i][j] = c
        col = _reduce_z({k + 1: v for k, v in col.items()}, P)
    return rows


def _power_traces(P: FiniteExtensionPresentation, kmax: int) -> list:
    """Trace(z^k) for k = 0..kmax via the running powers z^m mod f."""
    n = P.n
    powers = [{0: P.base.one}]
    for _ in range(kmax + n - 1):
        powers.append(_reduce_z({k + 1: v for k, v in powers[-1].items()}, P))
    traces = []
    for k in range(kmax + 1):
        t = P.base.zero
        for j in range(n):
            t = t + powers[j + k].get(j, P.base.zero)
        traces.append(t)
    return traces


def trace_matrix(P: FiniteExtensionPresentation) -> list:
    """Symmetric matrix with entry (i, j) = Trace(z^{i+j})."""
    n = _of_type(P, "extension", FiniteExtensionPresentation).n
    tr = _power_traces(P, 2 * n - 2)
    return [[tr[i + j] for j in range(n)] for i in range(n)]


def bareiss_determinant(rows: list, ring: Ring) -> Polynomial:
    """Fraction-free determinant over a polynomial ring: every division in
    the Bareiss recurrence is exact, so entries stay polynomial."""
    _of_type(ring, "ring", Ring)
    n = len(rows)
    if n == 0:
        return ring.one
    m = [[_of_type(entry, "matrix entry", Polynomial) for entry in row]
         for row in rows]
    if any(len(row) != n for row in m):
        raise InputError("a determinant needs a square matrix")
    sign = 1
    prev = ring.one     # the last pivot, which divides the next step
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot_row = None
            for r in range(k + 1, n):
                if not m[r][k].is_zero():
                    pivot_row = r
                    break
            if pivot_row is None:
                return ring.zero
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = divide_exact(num, prev) if not num.is_zero() \
                    else ring.zero
            m[i][k] = ring.zero
        prev = m[k][k]
    det = m[n - 1][n - 1]
    if sign < 0:
        det = -det
    return det


def discriminant(P: FiniteExtensionPresentation) -> Polynomial:
    """Determinant of the trace pairing on the power basis; an element of
    the base ring, zero exactly when the extension is generically
    inseparable."""
    return bareiss_determinant(trace_matrix(_of_type(
        P, "extension", FiniteExtensionPresentation)), P.base)


@dataclass(frozen=True)
class CongruenceReport:
    disc_base: Polynomial
    disc_perturbed: Polynomial
    order: int | None       # None encodes an infinite congruence order
    n_target: int
    verdict: bool


def congruence_order(a: Polynomial, b: Polynomial) -> int | None:
    """Largest k with a - b in the k-th power of the irrelevant ideal,
    by minimal total degree; None when a = b."""
    diff = _of_type(a, "polynomial", Polynomial) - \
        _of_type(b, "polynomial", Polynomial)
    if diff.is_zero():
        return None
    return min(sum(e) for e in diff.terms)


def disc_congruence_check(P: FiniteExtensionPresentation, eps: Polynomial,
                          n_target: int) -> CongruenceReport:
    """Compare the discriminants of f and f + eps T-adically; pass when the
    congruence order reaches n_target."""
    _at_least(n_target, 1, "n_target")
    _of_type(P, "extension", FiniteExtensionPresentation)
    if _of_type(eps, "perturbation", Polynomial).ring != P.ring:
        raise InputError("perturbation must live in the extension ring")
    if not eps.is_zero():
        zdeg = max(e[-1] for e in eps.terms)
        if zdeg >= P.n:
            raise InputError("perturbation must have z-degree below the "
                             "relation degree to keep it monic")
    base = discriminant(P)
    pert = discriminant(P.with_relation(P.relation + eps))
    order = congruence_order(base, pert)
    verdict = order is None or order >= n_target
    return CongruenceReport(base, pert, order, n_target, verdict)
