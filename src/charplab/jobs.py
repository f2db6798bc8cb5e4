"""Job files: a strict JSON schema describing one computation.

A job names a coefficient field, a variable list, defining elements, a
task, and task parameters.  Validation is deliberately unforgiving:
unknown keys at any level are errors, as are missing required fields, so
a typo never silently changes what was computed.

Tasks and their parameters:
  gb       reduced basis of the defining ideal      {order}
  length   colength of the defining ideal           {}
  dim      Krull dimension of the quotient          {}
  hk       bracket-power colength series            {e_max}
  fsig     splitting-number series                  {e_max}
  fpt      splitting-threshold bounds               {target, e_max}
  mult     limit multiplicity from ordinary powers  {generator_names?}
  disc     trace-form discriminant                  {extension_variable?,
                                                     epsilon?, n_target?}
  present  subalgebra presentation                  {generator_names?}
  perturb  perturbation experiment                  {mode, targets?, N,
                                                     degree_cap?, samples?,
                                                     seed?, e_range?,
                                                     tolerance?, relation?,
                                                     extension_variable?,
                                                     n_target?}

`subalgebra` (top level) lists generators of a subring of the ambient
polynomial ring; `mult` and `present` accept it.  When present, the
presentation ring's relations are prepended and `defining` is read in the
presentation ring's variables instead of the ambient ones.

`expect` (top level) maps dotted paths into the JSON report to required
values; the suite runner checks them and it is ignored everywhere else.

For `disc`, `defining` holds exactly one element: a relation, monic in
the extension variable, read in the ambient variables plus that one.  The
same convention gives `perturb` its extension for mode dis-congruence,
through the `relation` parameter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .discriminant import (FiniteExtensionPresentation, disc_congruence_check,
                           discriminant)
from .errors import InputError, ParseError
from .field import Field
from .groebner import (IdealHandle, Limits, colength, krull_dim,
                       subalgebra_presentation)
from .invariants import (QuotientPresentation, ehk_estimate, fpt_estimate,
                         fsig_estimate, hk_series, hs_multiplicity, nu_series,
                         splitting_series)
from .orders import GREVLEX, LEX
from .perturb import PerturbationPlan, run_experiment
from .poly import Ring, parse_poly
from .report import ReportDocument

TASKS = ("gb", "length", "dim", "hk", "fsig", "fpt", "mult", "disc",
         "present", "perturb")

_TOP_KEYS = {"field", "variables", "defining", "task", "params", "limits",
             "subalgebra", "expect"}
_FIELD_KEYS = {"p", "m", "modulus"}
_LIMIT_KEYS = {"basis", "degree", "seconds"}
_PARAM_KEYS = {
    "gb": {"order"},
    "length": set(),
    "dim": set(),
    "hk": {"e_max"},
    "fsig": {"e_max"},
    "fpt": {"target", "e_max"},
    "mult": {"generator_names"},
    "disc": {"extension_variable", "epsilon", "n_target"},
    "present": {"generator_names"},
    "perturb": {"mode", "targets", "N", "degree_cap", "samples", "seed",
                "e_range", "tolerance", "relation", "extension_variable",
                "n_target"},
}

_ORDERS = {"grevlex": GREVLEX, "lex": LEX}


def _fail(msg: str):
    raise InputError(f"bad job: {msg}")


def _check_keys(obj: dict, allowed: set, where: str):
    if not isinstance(obj, dict):
        _fail(f"{where} must be a JSON object")
    extra = sorted(set(obj) - allowed)
    if extra:
        _fail(f"unknown {where} key(s): {', '.join(extra)}")


def _as_int(value, what: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(f"{what} must be an integer")
    if minimum is not None and value < minimum:
        _fail(f"{what} must be >= {minimum}")
    return value


def _str_list(obj, where: str) -> list:
    if not isinstance(obj, list) or any(not isinstance(s, str) for s in obj):
        _fail(f"{where} must be a list of strings")
    return list(obj)


@dataclass(frozen=True)
class Job:
    raw: dict
    ring: Ring
    defining_texts: tuple
    task: str
    params: dict
    limits: Limits
    subalgebra_texts: tuple
    expect: dict


def load_job_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise InputError(f"cannot read job file {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ParseError(f"job file {path} is not valid JSON: {err}",
                         position=err.pos) from err
    if not isinstance(raw, dict):
        _fail("top level must be a JSON object")
    return raw


def parse_job(raw: dict, overrides: dict | None = None) -> Job:
    _check_keys(raw, _TOP_KEYS, "top-level")
    for key in ("field", "variables", "task"):
        if key not in raw:
            _fail(f"missing required key '{key}'")

    fld = raw["field"]
    _check_keys(fld, _FIELD_KEYS, "field")
    if "p" not in fld:
        _fail("field.p is required")
    p = _as_int(fld["p"], "field.p", 2)
    m = _as_int(fld["m"], "field.m", 1) if "m" in fld else 1
    modulus = None
    if "modulus" in fld:
        mod = fld["modulus"]
        if (not isinstance(mod, list)
                or any(isinstance(c, bool) or not isinstance(c, int)
                       for c in mod)):
            _fail("field.modulus must be a list of integers")
        modulus = tuple(mod)
    field = Field(p, m, modulus=modulus)

    variables = _str_list(raw["variables"], "variables")
    ring = Ring(field, variables)

    task = raw["task"]
    if task not in TASKS:
        _fail(f"unknown task '{task}'; expected one of {', '.join(TASKS)}")

    params = dict(raw.get("params", {}))
    if not isinstance(params, dict):
        _fail("params must be a JSON object")
    if overrides:
        for key, value in overrides.items():
            # limit overrides feed the Limits block below, not the params
            if value is not None and key not in ("limit_basis",
                                                 "limit_degree"):
                params[key] = value
    _check_keys(params, _PARAM_KEYS[task], "params")

    limits_raw = raw.get("limits", {})
    _check_keys(limits_raw, _LIMIT_KEYS, "limits")
    limit_args = {}
    if "basis" in limits_raw:
        limit_args["max_basis"] = _as_int(limits_raw["basis"],
                                          "limits.basis", 1)
    if "degree" in limits_raw:
        limit_args["max_degree"] = _as_int(limits_raw["degree"],
                                           "limits.degree", 1)
    if "seconds" in limits_raw:
        sec = limits_raw["seconds"]
        if isinstance(sec, bool) or not isinstance(sec, (int, float)):
            _fail("limits.seconds must be a number")
        limit_args["max_seconds"] = sec
    if overrides:
        if overrides.get("limit_basis") is not None:
            limit_args["max_basis"] = overrides["limit_basis"]
        if overrides.get("limit_degree") is not None:
            limit_args["max_degree"] = overrides["limit_degree"]
    try:
        limits = Limits(**limit_args)
    except InputError as err:
        _fail(f"limits: {err}")

    defining = tuple(_str_list(raw.get("defining", []), "defining"))
    sub = tuple(_str_list(raw.get("subalgebra", []), "subalgebra"))
    if sub and task not in ("mult", "present"):
        _fail(f"task '{task}' does not accept a subalgebra block")

    expect = raw.get("expect", {})
    if not isinstance(expect, dict):
        _fail("expect must be a JSON object")

    return Job(raw, ring, defining, task, params, limits, sub, expect)


def _parse_all(texts, ring: Ring) -> list:
    return [parse_poly(t, ring) for t in texts]


def _order_from_params(params: dict):
    name = params.get("order", "grevlex")
    if name not in _ORDERS:
        _fail(f"unknown order '{name}'; expected grevlex or lex")
    return name, _ORDERS[name]


def _need(params: dict, key: str, task: str):
    if key not in params:
        _fail(f"task '{task}' requires params.{key}")
    return params[key]


def _inputs_echo(job: Job) -> dict:
    echo = {
        "field": {"p": job.ring.field.p, "m": job.ring.field.m},
        "variables": list(job.ring.variables),
        "defining": list(job.defining_texts),
        "task": job.task,
        "params": {k: v for k, v in sorted(job.params.items())},
    }
    if job.subalgebra_texts:
        echo["subalgebra"] = list(job.subalgebra_texts)
    return echo


def run_job(job: Job) -> ReportDocument:
    handler = _HANDLERS[job.task]
    payload = handler(job)
    return ReportDocument(job.task, payload, _inputs_echo(job))


def _defining_handle(job: Job, ring=None) -> IdealHandle:
    ring = ring or job.ring
    return IdealHandle(ring, _parse_all(job.defining_texts, ring),
                       limits=job.limits)


def _run_gb(job: Job):
    name, order = _order_from_params(job.params)
    basis = _defining_handle(job).basis(order)
    return {"order": name,
            "polynomials": [g.text(order) for g in basis.elements]}


def _run_length(job: Job):
    return {"value": colength(_defining_handle(job))}


def _run_dim(job: Job):
    return {"value": krull_dim(_defining_handle(job))}


def _run_hk(job: Job):
    e_max = _as_int(_need(job.params, "e_max", "hk"), "params.e_max", 2)
    R = QuotientPresentation(job.ring, _defining_handle(job))
    series = hk_series(R, e_max)
    return {"series": series, "estimate": ehk_estimate(series)}


def _run_fsig(job: Job):
    e_max = _as_int(_need(job.params, "e_max", "fsig"), "params.e_max", 2)
    R = QuotientPresentation(job.ring, _defining_handle(job))
    series = splitting_series(R, e_max)
    return {"series": series, "estimate": fsig_estimate(series)}


def _run_fpt(job: Job):
    e_max = _as_int(_need(job.params, "e_max", "fpt"), "params.e_max", 1)
    target = parse_poly(_need(job.params, "target", "fpt"), job.ring)
    series = nu_series(target, e_max)
    lower, upper = fpt_estimate(series)
    return {"series": series, "lower": lower, "upper": upper}


def _presented(job: Job):
    """Subalgebra route: return (presentation ring, relations handle)."""
    gens = _parse_all(job.subalgebra_texts, job.ring)
    names = job.params.get("generator_names")
    if names is not None:
        names = _str_list(names, "params.generator_names")
    relations = subalgebra_presentation(gens, names=names, limits=job.limits)
    return relations.ring, relations


def _run_mult(job: Job):
    if job.subalgebra_texts:
        pres_ring, relations = _presented(job)
        extra = _parse_all(job.defining_texts, pres_ring)
        handle = relations.with_polys(extra)
        R = QuotientPresentation(pres_ring, handle)
    else:
        R = QuotientPresentation(job.ring, _defining_handle(job))
    return {"value": hs_multiplicity(R)}


def _run_present(job: Job):
    if not job.subalgebra_texts:
        _fail("task 'present' requires a subalgebra block")
    pres_ring, relations = _presented(job)
    return {"variables": list(pres_ring.variables),
            "relations": [g.text() for g in relations.basis(GREVLEX).elements]}


def _extension_from(job: Job, relation_text: str) -> \
        FiniteExtensionPresentation:
    zname = job.params.get("extension_variable", "z")
    if not isinstance(zname, str):
        _fail("params.extension_variable must be a string")
    ext_ring = Ring(job.ring.field, job.ring.variables + (zname,))
    relation = parse_poly(relation_text, ext_ring)
    return FiniteExtensionPresentation(job.ring, zname, relation)


def _run_disc(job: Job):
    if len(job.defining_texts) != 1:
        _fail("task 'disc' needs exactly one defining relation")
    P = _extension_from(job, job.defining_texts[0])
    eps_text = job.params.get("epsilon")
    if eps_text is None:
        return {"value": discriminant(P)}
    if not isinstance(eps_text, str):
        _fail("params.epsilon must be a string")
    eps = parse_poly(eps_text, P.ring)
    n_target = _as_int(_need(job.params, "n_target", "disc"),
                       "params.n_target", 1)
    return disc_congruence_check(P, eps, n_target)


def _fraction_param(value, what: str) -> Fraction:
    if isinstance(value, bool):
        _fail(f"{what} must be a number or [num, den]")
    if isinstance(value, int):
        return Fraction(value)
    if (isinstance(value, list) and len(value) == 2
            and all(isinstance(v, int) and not isinstance(v, bool)
                    for v in value)):
        if value[1] == 0:
            _fail(f"{what} has a zero denominator")
        return Fraction(value[0], value[1])
    _fail(f"{what} must be an integer or a [num, den] pair")


def _run_perturb(job: Job):
    params = job.params
    mode = _need(params, "mode", "perturb")
    N = _as_int(_need(params, "N", "perturb"), "params.N", 1)
    degree_cap = _as_int(params.get("degree_cap", N), "params.degree_cap", N)
    samples = _as_int(params.get("samples", 4), "params.samples", 1)
    seed = _as_int(params.get("seed", 0), "params.seed", 0)
    e_range = params.get("e_range", [1, 2])
    if (not isinstance(e_range, list)
            or any(isinstance(e, bool) or not isinstance(e, int)
                   for e in e_range)):
        _fail("params.e_range must be a list of integers")
    tolerance = params.get("tolerance")
    if tolerance is not None:
        tolerance = _fraction_param(tolerance, "params.tolerance")
    presentation = QuotientPresentation(job.ring, _defining_handle(job))
    targets = tuple(_parse_all(
        _str_list(params.get("targets", []), "params.targets"), job.ring))
    extension = None
    n_target = None
    if mode == "dis-congruence":
        relation = _need(params, "relation", "perturb")
        if not isinstance(relation, str):
            _fail("params.relation must be a string")
        extension = _extension_from(job, relation)
        n_target = _as_int(_need(params, "n_target", "perturb"),
                           "params.n_target", 1)
    plan = PerturbationPlan(presentation, targets, N, degree_cap, samples,
                            seed, tuple(e_range), mode, tolerance=tolerance,
                            extension=extension, n_target=n_target)
    return run_experiment(plan)


_HANDLERS = {
    "gb": _run_gb,
    "length": _run_length,
    "dim": _run_dim,
    "hk": _run_hk,
    "fsig": _run_fsig,
    "fpt": _run_fpt,
    "mult": _run_mult,
    "disc": _run_disc,
    "present": _run_present,
    "perturb": _run_perturb,
}


def check_expectations(doc_json: str, expect: dict) -> list:
    """Compare dotted-path expectations against the rendered JSON report;
    returns a list of human-readable mismatch descriptions."""
    doc = json.loads(doc_json)
    problems = []
    for path, want in sorted(expect.items()):
        node = doc
        ok = True
        for part in path.split("."):
            if isinstance(node, list):
                try:
                    node = node[int(part)]
                except (ValueError, IndexError):
                    ok = False
                    break
            elif isinstance(node, dict) and part in node:
                node = node[part]
            else:
                ok = False
                break
        if not ok:
            problems.append(f"{path}: path not found")
        elif node != want:
            problems.append(f"{path}: expected {want!r}, got {node!r}")
    return problems
