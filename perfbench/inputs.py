"""Seeded input generators for the three workloads.

Pure Python with no charplab import: a workload seed becomes a list of
plain input specs (polynomial text, characteristic, level).  The
composition of every list is fixed, and the seed only draws the job order
or the coefficients of each polynomial.  The coefficients are those of a
fixed base form (every coefficient 1) after the substitution x -> a*x,
y -> b*y, t -> c*t and multiplication by a unit u, all drawn from the
seed: a diagonal change of variables and a unit keep the leading terms,
the Groebner basis computations step for step, and every invariant, so
any two seeds ask for exactly the same work.
"""

from __future__ import annotations

import itertools
import random

# -- chain: splitting_series on principal hypersurfaces ----------------------

# (template, exponents of its terms in template order, closed form name,
# characteristic, e_max); A1 forms to e=3 over F5 and e=4 over F3, A2 forms
# (x^2 + y^2 + t^3 shape) over F5 only, since the A2 closed form needs p != 3
SUM_A1 = ("{0}*x^2 + {1}*y^2 + {2}*t^2", ((2, 0, 0), (0, 2, 0), (0, 0, 2)))
XY_A1 = ("{0}*x*y + {1}*t^2", ((1, 1, 0), (0, 0, 2)))
SUM_A2 = ("{0}*x^2 + {1}*y^2 + {2}*t^3", ((2, 0, 0), (0, 2, 0), (0, 0, 3)))
CHAIN_ITEMS = (
    (SUM_A1, "A1", 5, 3),
    (XY_A1, "A1", 5, 3),
    (SUM_A1, "A1", 3, 4),
    (XY_A1, "A1", 3, 4),
    (SUM_A2, "A2", 5, 3),
)


def closed_form(kind: str, q: int) -> int:
    """Splitting numbers of the A1 and A2 surface singularities (p != 2,
    and p != 3 for A2)."""
    if kind == "A1":
        return (q * q + 1) // 2
    return (q * q + 2) // 3


# -- normal-forms: stability_threshold on targets in the free ring -----------

# weighted-homogeneous shapes: text template, exponents of its three terms in
# template order, and weights of (x, y, t) making every term one degree
NORMAL_FORM_SHAPES = (
    {"text": "{0}*x^2 + {1}*y^3 + {2}*t^3",
     "exps": ((2, 0, 0), (0, 3, 0), (0, 0, 3)), "weights": (3, 2, 2)},
    {"text": "{0}*x*y + {1}*x^3 + {2}*t^3",
     "exps": ((1, 1, 0), (3, 0, 0), (0, 0, 3)), "weights": (1, 2, 1)},
    {"text": "{0}*x^2 + {1}*y^3 + {2}*t^4",
     "exps": ((2, 0, 0), (0, 3, 0), (0, 0, 4)), "weights": (6, 4, 3)},
)
NORMAL_FORM_LEVELS = ((5, 2), (3, 3))
QUADRIC_LEVEL = (5, 2)


def quadric_threshold(q: int) -> int:
    """Stability threshold of a nondegenerate ternary quadric: (3q+1)/2."""
    return (3 * q + 1) // 2


def reference_key(text: str, p: int, e: int) -> str:
    return f"F{p} e={e} {text}"


def shape_text(template: str, coeffs) -> str:
    return template.format(*coeffs)


def scaled(exps, p: int, scales: tuple, unit: int) -> tuple:
    """Coefficients of the base form with exponents `exps` after x, y, t
    are scaled by `scales` and the whole form by `unit`, over F_p."""
    return tuple(unit * scales[0] ** i * scales[1] ** j * scales[2] ** k % p
                 for i, j, k in exps)


def reachable(exps, p: int) -> list:
    """Every coefficient tuple a seed can draw for these exponents."""
    units = range(1, p)
    return sorted({scaled(exps, p, sc, u)
                   for sc in itertools.product(units, repeat=3)
                   for u in units})


def _draw(rng: random.Random, exps, p: int) -> tuple:
    scales = tuple(1 + rng.randrange(p - 1) for _ in range(3))
    return scaled(exps, p, scales, 1 + rng.randrange(p - 1))


def chain_inputs(seed: int) -> list:
    rng = random.Random(seed)
    out = []
    for (template, exps), kind, p, e in CHAIN_ITEMS:
        text = shape_text(template, _draw(rng, exps, p))
        out.append({"text": text, "kind": kind, "p": p, "e": e})
    return out


def normal_form_inputs(seed: int) -> list:
    rng = random.Random(seed)
    out = []
    for shape in NORMAL_FORM_SHAPES:
        for p, e in NORMAL_FORM_LEVELS:
            coeffs = _draw(rng, shape["exps"], p)
            out.append({"text": shape_text(shape["text"], coeffs),
                        "p": p, "e": e, "homogeneous": False})
    p, e = QUADRIC_LEVEL
    template, exps = SUM_A1
    out.append({"text": shape_text(template, _draw(rng, exps, p)),
                "p": p, "e": e, "homogeneous": True})
    return out


def suite_order(names: list, seed: int) -> list:
    order = sorted(names)
    random.Random(seed).shuffle(order)
    return order
