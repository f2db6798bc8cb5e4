"""Job files: a strict JSON schema describing one computation.

A job names a coefficient field, a variable list, defining elements, a
task, and task parameters.  Validation is deliberately unforgiving:
unknown keys at any level are errors, as are missing required fields, so
a typo never silently changes what was computed.

Tasks and the parameters each accepts (`?` marks an optional one):
  gb       reduced basis of the defining ideal      {order}
  length   colength of the defining ideal           {}
  dim      Krull dimension of the quotient          {}
  hk       bracket-power colength series            {e_max}
  fsig     splitting-number series                  {e_max}
  fpt      splitting-threshold bounds               {target, e_max}
  mult     multiplicity at the origin               {generator_names?}
  disc     trace-form discriminant                  {extension_variable?,
                                                     epsilon?, n_target?}
  present  subalgebra presentation                  {generator_names?}
  perturb  perturbation experiment                  {mode, targets?, N,
                                                     degree_cap?, samples?,
                                                     seed?, e_range?,
                                                     tolerance?, relation?,
                                                     extension_variable?,
                                                     n_target?}

Each parameter goes, as the job gives it, to the library call that takes
it, whose message a rejected value reads (after `params.<key>: ` for a
text or a name).  `bad job: ` marks the document's structure: unknown or
missing keys, a JSON value of the wrong shape, and a parameter no call
reads (`n_target` of `disc` without `epsilon`, `extension_variable` of
`perturb` without `relation`, `generator_names` of `mult` without a
subalgebra block); `PerturbationPlan` rejects the fields its mode skips.

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
from functools import partial

from .discriminant import (FiniteExtensionPresentation, disc_congruence_check,
                           discriminant)
from .errors import InputError, ParseError
from .field import Field, _as_list, _is_int
from .groebner import (IdealHandle, Limits, colength, krull_dim,
                       subalgebra_presentation)
from .invariants import (QuotientPresentation, ehk_estimate, fpt_estimate,
                         fsig_estimate, hk_series, hs_multiplicity, nu_series,
                         splitting_series)
from .orders import GREVLEX, LEX
from .perturb import PerturbationPlan, run_experiment
from .poly import Ring, parse_poly
from .report import ReportDocument

_TOP_KEYS = {"field", "variables", "defining", "task", "params", "limits",
             "subalgebra", "expect"}
_FIELD_KEYS = {"p", "m", "modulus"}
_LIMIT_KEYS = {"basis", "degree", "seconds"}

_ORDERS = {"grevlex": GREVLEX, "lex": LEX}
_REQUIRED = object()


def _fail(msg: str):
    raise InputError(f"bad job: {msg}")


def _check_keys(obj: dict, allowed: set, where: str):
    if not isinstance(obj, dict):
        _fail(f"{where} must be a JSON object")
    extra = sorted(set(obj) - allowed)
    if extra:
        _fail(f"unknown {where} key(s): {', '.join(extra)}")


# -- the rules the library lacks: each takes (value, what), returns the value


def _str_list(value, what: str) -> list:
    # field._as_list would take a JSON object for the list of its keys
    if not isinstance(value, list) or not all(isinstance(s, str)
                                              for s in value):
        _fail(f"{what} must be a list of strings")
    return list(value)


def _fraction_param(value, what: str) -> Fraction:
    if _is_int(value):
        return Fraction(value)
    if (isinstance(value, list) and len(value) == 2
            and all(map(_is_int, value))):
        if value[1] == 0:
            _fail(f"{what} has a zero denominator")
        return Fraction(value[0], value[1])
    _fail(f"{what} must be an integer or a [num, den] pair")


def _order_name(value, what: str) -> str:
    # type first: an unhashable value cannot be looked up in _ORDERS
    if not isinstance(value, str) or value not in _ORDERS:
        _fail(f"unknown order '{value}'; expected grevlex or lex")
    return value


@dataclass(frozen=True)
class Job:
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
    except json.JSONDecodeError as err:
        raise ParseError(f"job file {path} is not valid JSON: {err}",
                         position=err.pos) from err
    except (OSError, ValueError, RecursionError) as err:
        # ValueError: not UTF-8, or an integer past the digit limit;
        # RecursionError: nested too deep for the decoder
        raise InputError(f"cannot read job file {path}: {err}") from err
    if not isinstance(raw, dict):
        _fail("top level must be a JSON object")
    return raw


def _section(raw: dict, key: str, overrides: dict, allowed: set) -> dict:
    """The job's `key` object with the overrides of that section laid over
    it, so both are checked by the same rules."""
    section = raw.get(key, {})
    if not isinstance(section, dict):
        _fail(f"{key} must be a JSON object")
    section = {**section, **overrides.get(key, {})}
    _check_keys(section, allowed, key)
    return section


def parse_job(raw: dict, overrides: dict | None = None) -> Job:
    """Validate a job document.  `overrides` holds values in job-file terms,
    `{"params": {...}, "limits": {...}}`, that replace the file's values."""
    overrides = overrides or {}
    _check_keys(overrides, {"params", "limits"}, "overrides")
    _check_keys(raw, _TOP_KEYS, "top-level")
    for key in ("field", "variables", "task"):
        if key not in raw:
            _fail(f"missing required key '{key}'")

    fld = raw["field"]
    _check_keys(fld, _FIELD_KEYS, "field")
    if "p" not in fld:
        _fail("field.p is required")
    try:
        # a present null modulus is not Field's default
        field = Field(fld["p"], fld.get("m", 1), None if "modulus" not in fld
                      else _as_list(fld["modulus"], "modulus"))
    except InputError as err:
        _fail(f"field: {err}")

    variables = _str_list(raw["variables"], "variables")
    ring = Ring(field, variables)

    task = raw["task"]
    if task not in TASKS:
        _fail(f"unknown task '{task}'; expected one of {', '.join(TASKS)}")
    params = _section(raw, "params", overrides, _TASKS[task][1])

    limits_raw = _section(raw, "limits", overrides, _LIMIT_KEYS)
    try:
        limits = Limits(**{f"max_{key}": value
                           for key, value in limits_raw.items()})
    except InputError as err:
        _fail(f"limits: {err}")

    defining = tuple(_str_list(raw.get("defining", []), "defining"))
    sub = tuple(_str_list(raw.get("subalgebra", []), "subalgebra"))
    if sub and task not in ("mult", "present"):
        _fail(f"task '{task}' does not accept a subalgebra block")

    expect = raw.get("expect", {})
    if not isinstance(expect, dict):
        _fail("expect must be a JSON object")

    return Job(ring, defining, task, params, limits, sub, expect)


def _param(job: Job, key: str, check=None, default=_REQUIRED):
    """params.<key>, or `default` when it is absent, through `check`; a
    default of None, which a JSON null also stands for, skips the check."""
    value = job.params.get(key, default)
    if value is _REQUIRED:
        _fail(f"task '{job.task}' requires params.{key}")
    if check is None or (value is None and default is None):
        return value
    return check(value, f"params.{key}")


def _named(call, **kwargs):
    """A check that hands the value to a library `call`, whose error
    then names the parameter."""
    def check(value, what: str):
        try:
            return call(value, **kwargs)
        except InputError as err:
            raise InputError(f"{what}: {err}") from None
    return check


def _unread(job: Job, keys: tuple, needs: str) -> None:
    """Reject params that the job's own settings leave unread."""
    for key in keys:
        if key in job.params:
            _fail(f"params.{key} needs {needs}")


def _parse_all(texts, ring: Ring) -> list:
    return [parse_poly(t, ring) for t in texts]


def _inputs_echo(job: Job) -> dict:
    echo = {
        "field": {"p": job.ring.field.p, "m": job.ring.field.m},
        "variables": list(job.ring.variables),
        "defining": list(job.defining_texts),
        "task": job.task,
        # the whole section, as given; the report sorts its keys
        "params": job.params,
    }
    if job.subalgebra_texts:
        echo["subalgebra"] = list(job.subalgebra_texts)
    return echo


def run_job(job: Job) -> ReportDocument:
    payload = _TASKS[job.task][0](job)
    return ReportDocument(job.task, payload, _inputs_echo(job))


def _defining_handle(job: Job) -> IdealHandle:
    return IdealHandle(job.ring, _parse_all(job.defining_texts, job.ring),
                       limits=job.limits)


def _run_gb(job: Job):
    name = _param(job, "order", _order_name, "grevlex")
    order = _ORDERS[name]
    basis = _defining_handle(job).basis(order)
    return {"order": name,
            "polynomials": [g.text(order) for g in basis.elements]}


def _run_length(job: Job):
    return {"value": colength(_defining_handle(job))}


def _run_dim(job: Job):
    return {"value": krull_dim(_defining_handle(job))}


def _run_series(series_of, estimate_of, job: Job):
    """hk and fsig: a series to e_max and its limit estimate."""
    R = QuotientPresentation(job.ring, _defining_handle(job))
    series = series_of(R, _param(job, "e_max"))
    return {"series": series, "estimate": estimate_of(series)}


def _run_fpt(job: Job):
    target = _param(job, "target", _named(parse_poly, ring=job.ring))
    series = nu_series(target, _param(job, "e_max"))
    lower, upper = fpt_estimate(series)
    return {"series": series, "lower": lower, "upper": upper}


def _presented(job: Job):
    """Subalgebra route: return (presentation ring, relations handle)."""
    gens = _parse_all(job.subalgebra_texts, job.ring)
    names = _param(job, "generator_names", _str_list, None)
    relations = subalgebra_presentation(gens, names=names, limits=job.limits)
    return relations.ring, relations


def _run_mult(job: Job):
    if job.subalgebra_texts:
        pres_ring, relations = _presented(job)
        extra = _parse_all(job.defining_texts, pres_ring)
        handle = relations.with_polys(extra)
        R = QuotientPresentation(pres_ring, handle)
    else:
        _unread(job, ("generator_names",), "a subalgebra block")
        R = QuotientPresentation(job.ring, _defining_handle(job))
    return {"value": hs_multiplicity(R)}


def _run_present(job: Job):
    if not job.subalgebra_texts:
        _fail("task 'present' requires a subalgebra block")
    pres_ring, relations = _presented(job)
    return {"variables": list(pres_ring.variables),
            "relations": [g.text() for g in relations.basis(GREVLEX).elements]}


def _extension_of(job: Job, relation_in) -> FiniteExtensionPresentation:
    """The extension of the job's ring by params.extension_variable (z by
    default) whose relation is relation_in(the extended ring)."""
    ring = _param(job, "extension_variable", _named(
        lambda z: Ring(job.ring.field, job.ring.variables + (z,))), "z")
    return FiniteExtensionPresentation(job.ring, ring.variables[-1],
                                      relation_in(ring))


def _run_disc(job: Job):
    if len(job.defining_texts) != 1:
        _fail("task 'disc' needs exactly one defining relation")
    P = _extension_of(job, partial(parse_poly, job.defining_texts[0]))
    eps = _param(job, "epsilon", _named(parse_poly, ring=P.ring), None)
    if eps is None:
        _unread(job, ("n_target",), "params.epsilon")
        return {"value": discriminant(P)}
    return disc_congruence_check(P, eps, _param(job, "n_target"))


def _run_perturb(job: Job):
    # PerturbationPlan checks the values and the fields its mode reads
    N = _param(job, "N")
    presentation = QuotientPresentation(job.ring, _defining_handle(job))
    targets = tuple(_parse_all(_param(job, "targets", _str_list, []),
                               job.ring))
    extension = None
    if "relation" in job.params:
        extension = _extension_of(job, lambda ring: _param(
            job, "relation", _named(parse_poly, ring=ring)))
    else:
        _unread(job, ("extension_variable",), "params.relation")
    plan = PerturbationPlan(
        presentation, targets, N, _param(job, "degree_cap", default=N),
        _param(job, "samples", default=4), _param(job, "seed", default=0),
        _param(job, "e_range", default=[1, 2]), _param(job, "mode"),
        tolerance=_param(job, "tolerance", _fraction_param, None),
        extension=extension, n_target=_param(job, "n_target", default=None))
    return run_experiment(plan)


# task -> (handler, accepted params); the order is the CLI's subcommand order
_TASKS = {
    "gb": (_run_gb, {"order"}),
    "length": (_run_length, set()),
    "dim": (_run_dim, set()),
    "hk": (partial(_run_series, hk_series, ehk_estimate), {"e_max"}),
    "fsig": (partial(_run_series, splitting_series, fsig_estimate),
             {"e_max"}),
    "fpt": (_run_fpt, {"target", "e_max"}),
    "mult": (_run_mult, {"generator_names"}),
    "disc": (_run_disc, {"extension_variable", "epsilon", "n_target"}),
    "present": (_run_present, {"generator_names"}),
    "perturb": (_run_perturb, {"mode", "targets", "N", "degree_cap",
                               "samples", "seed", "e_range", "tolerance",
                               "relation", "extension_variable",
                               "n_target"}),
}
TASKS = tuple(_TASKS)


def check_expectations(doc_json: str, expect: dict) -> list:
    """Compare dotted-path expectations against the rendered JSON report;
    returns a list of human-readable mismatch descriptions."""
    doc = json.loads(doc_json)
    problems = []
    for path, want in sorted(expect.items()):
        node = doc
        ok = True
        for part in path.split("."):
            # a list index is an ASCII digit run: int() alone would also
            # read '-1', ' 1', '+1' and '1_0'
            if isinstance(node, list) and part.isascii() and part.isdigit():
                try:
                    node = node[int(part)]
                except (ValueError, IndexError):
                    # ValueError: past int()'s digit limit
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
