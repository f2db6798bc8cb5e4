"""Layer tracing from outside the program.

The tracer wraps functions of the `charplab` modules in place and restores
them on `uninstall`; nothing inside `src/` is instrumented.  Because
from-imports bind names early (`invariants` holds its own `groebner`,
`perturb` its own `m_power_in`, the package its re-exports), a wrapper is
installed at every binding site: every module attribute and every class
attribute that is the original function.

Two kinds of wrapper:

* span: records (id, parent, operation, name, start, end) per call, keeps
  a per-thread stack of open spans for the parent links, and sums calls and
  time (outermost calls of the name only, so recursion is not counted
  twice); self time is the duration minus the part of the interval that
  the child spans cover, computed from the recorded spans;
* leaf: for the hot functions (field operations, key degrees, divisor
  scans, context builds) only a call count and, where asked for, summed
  time.

Spans stay in memory; `write` dumps them with the totals at the end of a
run.  State is per thread, so the perturbation thread pool traces cleanly.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

# (module, qualified name) -> layer metric name; methods are given as
# "Class.method".  Every public module-level function of every charplab
# module is a span as well, named "<module>.<function>".
SPANS = {
    ("groebner", "GroebnerBasis.normal_form"): "groebner.normal_form",
    ("groebner", "IdealHandle.basis"): "groebner.basis",
    ("groebner", "Staircase.count"): "groebner.staircase_count",
    ("groebner", "Staircase.count_degree"): "groebner.staircase_count",
    ("groebner", "Staircase.max_degree"): "groebner.staircase_count",
    ("engine", "BasisContext.reduce_dict"): "engine.reduce_dict",
    ("poly", "Polynomial.__mul__"): "poly.mul",
    ("poly", "Polynomial.__pow__"): "poly.mul",
    ("poly", "Polynomial.frobenius_pow"): "poly.mul",
    ("report", "ReportDocument.to_json"): "report.render",
    ("report", "ReportDocument.to_csv"): "report.render",
    # the epsilon draw behind both sample_epsilons and the sample loop
    ("perturb", "_draw_epsilon"): "perturb.sample_epsilons",
}
# leaves: (module, qualified name) -> (metric name, timed); field.other is
# every field operation but mul
LEAVES = {
    ("field", "Field.add"): ("field.other", False),
    ("field", "Field.sub"): ("field.other", False),
    ("field", "Field.neg"): ("field.other", False),
    ("field", "Field.inv"): ("field.other", False),
    ("field", "Field.div"): ("field.other", False),
    ("field", "Field.pow"): ("field.other", False),
    ("field", "Field.frobenius"): ("field.other", False),
    ("field", "Field.mul"): ("field.mul", False),
    ("field", "Field._build_tables"): ("field.tables", True),
    ("engine", "PackSpec.__init__"): ("engine.packspec", False),
    ("engine", "PackSpec.key_degree"): ("engine.key_degree", False),
    ("engine", "BasisContext.__init__"): ("engine.context", True),
    ("engine", "BasisContext.find_reducer"): ("engine.find_reducer", False),
    ("engine", "BasisContext.divisor_indices"):
        ("engine.divisor_indices", True),
}
# the modules whose public functions become spans (the layers)
MODULES = ("field", "orders", "poly", "engine", "groebner", "invariants",
           "discriminant", "perturb", "jobs", "report", "cli")


class _ThreadState:
    __slots__ = ("stack", "depth", "calls", "time", "spans", "extra")

    def __init__(self):
        self.stack: list = []                 # ids of the open spans
        self.depth: dict = defaultdict(int)   # open spans per name
        self.calls: dict = defaultdict(int)
        self.time: dict = defaultdict(float)
        self.spans: list = []
        self.extra: dict = defaultdict(float)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states: list = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._leaf_calls: dict = {}   # metric -> itertools.count
        self._leaf_reads: dict = defaultdict(int)
        self._leaf_time: dict = defaultdict(float)
        self._patches: list = []      # (owner, attribute, original)
        self._main = self._state()    # the thread that runs the workload
        self.op = None                # label of the running operation

    # -- state ----------------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    # -- wrappers -------------------------------------------------------------

    def _span(self, fn, name: str, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            sid = next(tracer._ids)
            if st.stack:
                parent = st.stack[-1]
            else:
                # a pool thread's outermost span belongs to the span the
                # installing thread is waiting in
                main = tracer._main.stack
                parent = main[-1] if main and st is not tracer._main else None
            st.stack.append(sid)
            st.depth[name] += 1
            before = hook.before(st, args) if hook else None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                st.stack.pop()
                st.depth[name] -= 1
                st.calls[name] += 1
                if not st.depth[name]:
                    st.time[name] += t1 - t0
                st.spans.append((sid, parent, tracer.op, name, t0, t1))
            if hook:
                hook.after(st, before, out)
            return out

        return wrapper

    def _leaf(self, fn, name: str, timed: bool):
        counter = self._leaf_calls.setdefault(name, itertools.count())
        if not timed:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                next(counter)
                return fn(*args, **kwargs)
            return wrapper
        totals = self._leaf_time

        @functools.wraps(fn)
        def timed_wrapper(*args, **kwargs):
            next(counter)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                # float += under the interpreter lock; a lost update would
                # only blur a time, never a count
                totals[name] += perf_counter() - t0
        return timed_wrapper

    # -- installation ---------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the layer functions of `package` (the imported charplab)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        # a layer module the program never imported (cli) has no callers
        mods = {name: sys.modules[f"{package.__name__}.{name}"]
                for name in MODULES
                if f"{package.__name__}.{name}" in sys.modules}
        replace: dict = {}   # id(original) -> (original, wrapper)
        for mname, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (callable(obj) and not isinstance(obj, type)
                        and not attr.startswith("_")
                        and getattr(obj, "__module__", None) == mod.__name__):
                    name = f"{mname}.{attr}"
                    replace[id(obj)] = (obj, self._span(
                        obj, name, _HOOKS.get(name)))
        for (mname, qual), name in SPANS.items():
            obj = _lookup(mods[mname], qual)
            replace[id(obj)] = (obj, self._span(obj, name, _HOOKS.get(name)))
        for (mname, qual), (name, timed) in LEAVES.items():
            obj = _lookup(mods[mname], qual)
            replace[id(obj)] = (obj, self._leaf(obj, name, timed))
        owners = [package] + list(mods.values())
        owners += [cls for mod in mods.values() for cls in vars(mod).values()
                   if isinstance(cls, type)
                   and cls.__module__ == mod.__name__]
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(owner, attr, hit[1])
                    self._patches.append((owner, attr, obj))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results --------------------------------------------------------------

    def totals(self) -> dict:
        """Merged metrics: "<name>.calls", ".s", ".self_s" for spans,
        ".calls" (and ".s" when timed) for leaves, plus hook counters."""
        out: dict = defaultdict(float)
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, n in st.calls.items():
                out[f"{name}.calls"] += n
            for name, t in st.time.items():
                out[f"{name}.s"] += t
            for key, v in st.extra.items():
                out[key] += v
        for name, counter in self._leaf_calls.items():
            # reading a count advances it: subtract the earlier reads
            out[f"{name}.calls"] += next(counter) - self._leaf_reads[name]
            self._leaf_reads[name] += 1
        for name, t in self._leaf_time.items():
            out[f"{name}.s"] += t
        for name, t in _self_times(self.spans()).items():
            out[f"{name}.self_s"] += t
        return dict(out)

    def spans(self) -> list:
        with self._lock:
            states = list(self._states)
        return sorted((s for st in states for s in st.spans),
                      key=lambda s: s[0])

    def write(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "totals": self.totals()}, fh,
                      sort_keys=True)
            fh.write("\n")
            for sid, parent, op, name, t0, t1 in self.spans():
                fh.write(json.dumps([sid, parent, op, name, t0, t1]) + "\n")


def _self_times(spans: list) -> dict:
    """Per name, the summed span durations minus the part of each span's
    interval that its child spans cover (children on pool threads can
    overlap, so covered time is a union, not a sum)."""
    children: dict = defaultdict(list)
    for _, parent, _, _, t0, t1 in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out: dict = defaultdict(float)
    for sid, _, _, name, t0, t1 in spans:
        covered = 0.0
        end = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[name] += (t1 - t0) - covered
    return out


def _lookup(module, qual: str):
    """The raw attribute `Class.method` (or `function`) of a module."""
    obj = module
    for part in qual.split("."):
        obj = vars(obj)[part]
    return obj


# -- hooks: counters measured where the work happens --------------------------

class _ReduceHook:
    """Useful S-polynomial reductions: calls made by the Buchberger pair
    loop whose remainder is nonzero, over all such calls."""

    def before(self, st, args):
        # frame 0 is this hook, frame 1 the wrapper, frame 2 the caller
        return sys._getframe(2).f_code.co_qualname == "_Buchberger.run"

    def after(self, st, from_pairs, out):
        if from_pairs:
            st.extra["engine.reduce_dict.spoly_attempts"] += 1
            if out:
                st.extra["engine.reduce_dict.spoly_nonzero"] += 1


class _BasisHook:
    """IdealHandle.basis calls answered without a nested engine.groebner."""

    def before(self, st, args):
        return st.calls["engine.groebner"]

    def after(self, st, before, out):
        if st.calls["engine.groebner"] == before:
            st.extra["groebner.basis_cache.hits"] += 1


class _SamplesHook:
    """Samples drawn by run_experiment, from the plan it is given."""

    def before(self, st, args):
        st.extra["perturb.samples"] += args[0].samples

    def after(self, st, before, out):
        pass


_HOOKS = {
    "engine.reduce_dict": _ReduceHook(),
    "groebner.basis": _BasisHook(),
    "perturb.run_experiment": _SamplesHook(),
}
