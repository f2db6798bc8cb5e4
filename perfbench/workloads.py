"""The three workloads: set-up, one pass of operations, and output checks.

`setup(workload, seed, root)` imports charplab, builds the rings and fields
and parses the generated inputs (or loads the job files); everything it
does is `setup_s`.  It returns a `Pass`: the operation list that one pass
runs, in order.  An operation is a label and a thunk that returns None when
its output checks out and a description of the problem otherwise.  Objects
whose methods cache results (ideal handles, presentations) are built inside
the operation, so every pass does the same work.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import inputs

WORKLOADS = ("suite", "chain", "normal-forms")


@dataclass
class Pass:
    ops: list       # [(label, thunk)]
    unit: str       # what one operation is


def _ring(charplab, p: int):
    return charplab.Ring(charplab.Field(p), ("x", "y", "t"))


def _suite(charplab, seed: int, root: str) -> Pass:
    directory = os.path.join(root, "paper-suite")
    names = [n for n in os.listdir(directory) if n.endswith(".json")]
    ops = []
    for name in inputs.suite_order(names, seed):
        raw = charplab.load_job_file(os.path.join(directory, name))

        def op(raw=raw):
            job = charplab.parse_job(raw)
            if not job.expect:
                return "job has no expectations to check"
            doc = charplab.run_job(job)
            rendered = doc.to_json()
            doc.to_csv()
            problems = charplab.check_expectations(rendered, job.expect)
            return "; ".join(problems) or None

        ops.append((name, op))
    return Pass(ops, "job")


def _chain(charplab, seed: int, root: str) -> Pass:
    ops = []
    for spec in inputs.chain_inputs(seed):
        ring = _ring(charplab, spec["p"])
        f = charplab.parse_poly(spec["text"], ring)
        want = [inputs.closed_form(spec["kind"], spec["p"] ** e)
                for e in range(1, spec["e"] + 1)]

        def op(ring=ring, f=f, e_max=spec["e"], want=want):
            pres = charplab.QuotientPresentation(
                ring, charplab.IdealHandle(ring, [f]))
            got = [r.a for r in charplab.splitting_series(pres, e_max).rows]
            return None if got == want else f"a_e {got}, expected {want}"

        ops.append((f"F{spec['p']} e<={spec['e']} {spec['text']}", op))
    return Pass(ops, "series")


def _normal_forms(charplab, seed: int, root: str) -> Pass:
    with open(os.path.join(root, "perfbench", "reference.json"),
              encoding="utf-8") as fh:
        reference = json.load(fh)
    ops = []
    for spec in inputs.normal_form_inputs(seed):
        p, e = spec["p"], spec["e"]
        ring = _ring(charplab, p)
        f = charplab.parse_poly(spec["text"], ring)
        if spec["homogeneous"]:
            want = inputs.quadric_threshold(p ** e)
        else:
            want = reference[inputs.reference_key(spec["text"], p, e)]

        def op(ring=ring, f=f, e=e, want=want):
            free = charplab.QuotientPresentation(
                ring, charplab.IdealHandle(ring, []))
            got = charplab.stability_threshold(free, [f], e)
            return None if got == want else f"threshold {got}, expected {want}"

        ops.append((f"F{p} e={e} {spec['text']}", op))
    return Pass(ops, "threshold")


_SETUPS = {"suite": _suite, "chain": _chain, "normal-forms": _normal_forms}


def setup(workload: str, seed: int, root: str) -> Pass:
    import charplab
    return _SETUPS[workload](charplab, seed, root)
