"""Regenerate perfbench/reference.json, the expected stability thresholds of
the inhomogeneous `normal-forms` targets.

Run from the repository root:

    python3 perfbench/make_reference.py

Each value comes from dense linear algebra (the `ModpSpan` oracle of
tests/oracles.py), never from the Buchberger engine.  Every target is
weighted-homogeneous, so I = (f) + m^[q] is graded by the weights and the
quotient S/m^[q] (the monomial box) splits into weight pieces.  Inside the
box the image of I is spanned by the projections of f * m over box
monomials m, one weight piece at a time; a box monomial lies in I exactly
when its vector lies in the span of its piece, and monomials outside the box
lie in m^[q].  The minimal N with m^N inside I is one more than the largest
degree of a box monomial outside I, and the stability threshold is N + 1.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import numpy as np  # noqa: E402

from oracles import ModpSpan, box_monomials  # noqa: E402

import inputs  # noqa: E402  (perfbench/inputs.py; sys.path[0] is HERE)


def dense_threshold(terms: dict, weights: tuple, p: int, e: int) -> int:
    """Stability threshold of the weighted-homogeneous f given as
    {exponents: coefficient} in three variables over F_p at level e."""
    q = p ** e
    wdeg = {sum(w * x for w, x in zip(weights, exps)) for exps in terms}
    if len(wdeg) != 1:
        raise ValueError("target is not weighted-homogeneous")
    d = wdeg.pop()
    by_weight: dict = {}
    for m in box_monomials(3, q):
        by_weight.setdefault(sum(w * x for w, x in zip(weights, m)),
                             []).append(m)
    worst = -1
    for w, targets in by_weight.items():
        index = {m: i for i, m in enumerate(targets)}
        span = ModpSpan(p, len(targets))
        for m in by_weight.get(w - d, ()):
            v = np.zeros(len(targets), dtype=np.int64)
            for exps, c in terms.items():
                t = tuple(a + b for a, b in zip(exps, m))
                if t in index:
                    v[index[t]] = c
            if v.any():
                span.add(v)
        for m in sorted(targets, key=sum, reverse=True):
            if sum(m) <= worst:
                break
            v = np.zeros(len(targets), dtype=np.int64)
            v[index[m]] = 1
            if not span.contains(v):
                worst = sum(m)
                break
    return worst + 2


def main() -> int:
    table = {}
    for shape in inputs.NORMAL_FORM_SHAPES:
        for p, e in inputs.NORMAL_FORM_LEVELS:
            for coeffs in inputs.reachable(shape["exps"], p):
                text = inputs.shape_text(shape["text"], coeffs)
                terms = {exps: c % p
                         for exps, c in zip(shape["exps"], coeffs)}
                value = dense_threshold(terms, shape["weights"], p, e)
                table[inputs.reference_key(text, p, e)] = value
                print(f"{text} over F{p}, e={e}: {value}", flush=True)
    path = os.path.join(HERE, "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
