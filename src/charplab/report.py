"""Result rendering: one structured document, two deterministic encodings.

A ReportDocument pairs a task name with its structured payload and an echo
of the inputs, plain JSON values as the job file gave them.  `to_json`
emits a stable JSON encoding (sorted keys, rationals as {"num", "den"}
pairs, no timestamps or machine data);
`to_csv` emits an RFC-4180 table with LF line endings and a fixed header
per task, so reruns of the same job are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .discriminant import CongruenceReport
from .errors import InternalError
from .invariants import HKSeries, NuSeries, SplittingSeries
from .perturb import PerturbationReport
from .poly import Polynomial

ARTIFACT_VERSION = "1.0.0"


def _jsonable(value):
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, Polynomial):
        return value.text()
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "__dataclass_fields__"):
        return {name: _jsonable(getattr(value, name))
                for name in value.__dataclass_fields__}
    raise InternalError(f"cannot encode {type(value).__name__} in a report")


def _csv_cell(value) -> str:
    if value is None:
        text = ""
    elif isinstance(value, bool):
        text = "true" if value else "false"
    else:
        text = str(value)
    if any(c in text for c in (",", '"', "\n", "\r")):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _csv_table(header: list, rows: list) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _num_den(value) -> tuple:
    if value is None:
        return ("", "")
    f = Fraction(value)
    return (f.numerator, f.denominator)


@dataclass(frozen=True)
class ReportDocument:
    task: str
    payload: object
    inputs: dict

    def to_json(self) -> str:
        doc = {
            "artifact_version": ARTIFACT_VERSION,
            "task": self.task,
            "inputs": self.inputs,
            "result": _jsonable(self.payload),
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        return _render_csv(self.task, self.payload)


def _render_csv(task: str, payload) -> str:
    if isinstance(payload, HKSeries):
        rows = [(r.e, r.q, r.length) + _num_den(r.normalized)
                for r in payload.rows]
        return _csv_table(["e", "q", "length", "normalized_num",
                           "normalized_den"], rows)
    if isinstance(payload, SplittingSeries):
        rows = [(r.e, r.q, r.a) + _num_den(r.normalized)
                for r in payload.rows]
        return _csv_table(["e", "q", "a_e", "normalized_num",
                           "normalized_den"], rows)
    if isinstance(payload, NuSeries):
        rows = [(r.e, r.q, r.nu) + _num_den(r.lower) + _num_den(r.upper)
                for r in payload.rows]
        return _csv_table(["e", "q", "nu", "lower_num", "lower_den",
                           "upper_num", "upper_den"], rows)
    if isinstance(payload, PerturbationReport):
        return _perturb_csv(payload)
    if isinstance(payload, CongruenceReport):
        order = "inf" if payload.order is None else payload.order
        return _csv_table(
            ["base", "perturbed", "order", "n_target", "verdict"],
            [(payload.disc_base, payload.disc_perturbed, order,
              payload.n_target, payload.verdict)])
    if isinstance(payload, dict) and "series" in payload:
        return _render_csv(task, payload["series"])
    if isinstance(payload, dict) and "value" in payload:
        return _csv_table(["value"], [(payload["value"],)])
    if isinstance(payload, dict) and "polynomials" in payload:
        return _csv_table(["index", "polynomial"],
                          list(enumerate(payload["polynomials"])))
    if isinstance(payload, dict) and "relations" in payload:
        rows = list(enumerate(payload["relations"]))
        return _csv_table(["index", "relation"], rows)
    raise InternalError(
        f"no CSV rendering for task {task!r} payload "
        f"{type(payload).__name__}")


def _perturb_value_cell(value, report: PerturbationReport, verdict: str):
    if (value is None and report.mode == "dis-congruence"
            and not verdict.startswith("error")):
        return "inf"
    return value


def _perturb_csv(report: PerturbationReport) -> str:
    rows = []
    for r in report.rows:
        rows.append((r.sample, r.epsilon, r.e,
                     _perturb_value_cell(r.base, report, r.verdict),
                     _perturb_value_cell(r.perturbed, report, r.verdict))
                    + _num_den(r.delta) + (r.verdict,))
    return _csv_table(["sample", "epsilon", "e", "base", "perturbed",
                       "delta_num", "delta_den", "verdict"], rows)
