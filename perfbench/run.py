"""Benchmark runner: one workload, one seed, one closed loop with one caller.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Run from the repository root (any directory works; paths are resolved from
this file).  The untraced run (`--trace 0`) prints the end-to-end metrics,
its times scaled to a nominal host speed (see calibrate.py); the traced
run (`--trace 1`) alternates untraced and traced passes and prints the
per-layer metrics, per traced pass, plus the tracing overhead.
The last line of standard output is the result object; the line before it
records the machine.  `--workload all` runs every workload in its own
process and prints one table, failing on any wrong output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# the perturbation sample loop reads this per call; pin it so both sides of
# a comparison run the same pool size whatever the caller's environment.
# One thread: at two, interpreter-lock hand-offs made the sample loop a
# third slower and too unsteady to hold a bound, and the work itself
# varied (see README.md)
THREADS = "1"
SETUP_REPS = 5
SETUP_TIMEOUT_S = 60

import calibrate  # noqa: E402  (HERE is sys.path[0])
import workloads  # noqa: E402

END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_s", "s"),
    ("op_p90_s", "s"), ("cpu_s_per_op", "s"), ("peak_rss_mb", "MB"),
)


def _sum(*keys):
    return lambda t: sum(t.get(k, 0.0) for k in keys)


def _ratio(num, den):
    return lambda t: t.get(num, 0.0) / t[den] if t.get(den) else 0.0


# name -> (unit, value from per-pass tracer totals)
PER_LAYER = {
    "engine.divisor_indices.calls": ("count",
                                     _sum("engine.divisor_indices.calls")),
    "engine.divisor_indices.s": ("s", _sum("engine.divisor_indices.s")),
    "engine.context.builds": ("count", _sum("engine.context.calls")),
    "engine.context.s": ("s", _sum("engine.context.s")),
    "engine.groebner.calls": ("count", _sum("engine.groebner.calls")),
    "engine.groebner.s": ("s", _sum("engine.groebner.s")),
    "engine.groebner.self_s": ("s", _sum("engine.groebner.self_s")),
    "engine.packspec.builds": ("count", _sum("engine.packspec.calls")),
    "engine.reduce_dict.calls": ("count", _sum("engine.reduce_dict.calls")),
    "engine.reduce_dict.s": ("s", _sum("engine.reduce_dict.s")),
    "engine.reduce_dict.self_s": ("s", _sum("engine.reduce_dict.self_s")),
    "engine.reduce_dict.nonzero_ratio": ("ratio", _ratio(
        "engine.reduce_dict.spoly_nonzero",
        "engine.reduce_dict.spoly_attempts")),
    "engine.find_reducer.calls": ("count", _sum("engine.find_reducer.calls")),
    "engine.key_degree.calls": ("count", _sum("engine.key_degree.calls")),
    "field.ops.calls": ("count", _sum("field.other.calls",
                                      "field.mul.calls")),
    "field.mul.calls": ("count", _sum("field.mul.calls")),
    "field.tables.s": ("s", _sum("field.tables.s")),
    "poly.mul.calls": ("count", _sum("poly.mul.calls")),
    "poly.mul.s": ("s", _sum("poly.mul.s")),
    "groebner.colon_by_basis.s": ("s", _sum("groebner.colon_by_basis.s")),
    "groebner.colon_by_basis.self_s": ("s", _sum(
        "groebner.colon_by_basis.self_s")),
    "groebner.divide_exact.calls": ("count", _sum(
        "groebner.divide_exact.calls")),
    "groebner.divide_exact.s": ("s", _sum("groebner.divide_exact.s")),
    "groebner.normal_form.calls": ("count", _sum(
        "groebner.normal_form.calls")),
    "groebner.normal_form.s": ("s", _sum("groebner.normal_form.s")),
    "groebner.m_power_in.s": ("s", _sum("groebner.m_power_in.s")),
    "groebner.m_power_in.self_s": ("s", _sum("groebner.m_power_in.self_s")),
    "groebner.staircase_count.s": ("s", _sum("groebner.staircase_count.s")),
    "groebner.basis_cache.hit_ratio": ("ratio", _ratio(
        "groebner.basis_cache.hits", "groebner.basis.calls")),
    "invariants.splitting_series.self_s": ("s", _sum(
        "invariants.splitting_series.self_s")),
    "invariants.hk_series.self_s": ("s", _sum("invariants.hk_series.self_s")),
    "invariants.nu_series.self_s": ("s", _sum("invariants.nu_series.self_s")),
    "invariants.hs_multiplicity.self_s": ("s", _sum(
        "invariants.hs_multiplicity.self_s")),
    "discriminant.discriminant.s": ("s", _sum("discriminant.discriminant.s")),
    "discriminant.disc_congruence_check.s": ("s", _sum(
        "discriminant.disc_congruence_check.s")),
    "perturb.run_experiment.s": ("s", _sum("perturb.run_experiment.s")),
    "perturb.run_experiment.self_s": ("s", _sum(
        "perturb.run_experiment.self_s")),
    "perturb.samples": ("count", _sum("perturb.samples")),
    "perturb.sample_epsilons.s": ("s", _sum("perturb.sample_epsilons.s")),
    "jobs.parse_job.s": ("s", _sum("jobs.parse_job.s")),
    "jobs.run_job.self_s": ("s", _sum("jobs.run_job.self_s")),
    "jobs.check_expectations.s": ("s", _sum("jobs.check_expectations.s")),
    "report.render.s": ("s", _sum("report.render.s")),
}
# the one per-layer metric not read from the tracer totals
OVERHEAD = "trace.overhead_ratio"


def _import_charplab():
    """Import charplab from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "charplab", "__init__.py")):
        raise SystemExit(f"perfbench: no charplab sources under {SRC}")
    sys.path.insert(0, SRC)
    import charplab
    if not os.path.abspath(charplab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported charplab from "
                         f"{charplab.__file__}, not from {SRC}")
    return charplab


def _check_tree(workload: str) -> None:
    if workload == "suite" and not os.path.isdir(
            os.path.join(ROOT, "paper-suite")):
        raise SystemExit(f"perfbench: no paper-suite/ under {ROOT}")


def _setup_probe(workload: str, seed: int) -> float:
    """Set-up time of this fresh process, scaled to the nominal host speed
    by kernel samples taken just before and just after it."""
    calibrate.sample()      # warm the kernel up
    before = calibrate.sample()
    t0 = perf_counter()
    _import_charplab()
    workloads.setup(workload, seed, ROOT)
    wall = perf_counter() - t0
    return wall * calibrate.NOMINAL_S / ((before + calibrate.sample()) / 2)


def _setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over fresh processes (imports are per process)."""
    times = []
    for _ in range(SETUP_REPS):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            check=False)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: set-up failed:\n{done.stderr}")
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


class Loop:
    """Runs whole passes and keeps per-operation start times, latencies,
    CPU times and failures, by operation label.  With a probe, the host
    speed kernel is sampled between operations."""

    def __init__(self, ops, tracer=None, probe=None):
        self.ops = ops
        self.tracer = tracer
        self.probe = probe
        self.starts: dict = {label: [] for label, _ in ops}
        self.latencies: dict = {label: [] for label, _ in ops}
        self.cpu: dict = {label: [] for label, _ in ops}
        self.attempted = 0
        self.failures: list = []

    def run_pass(self) -> float:
        """One pass over the operations; returns their summed latency."""
        total = 0.0
        for label, op in self.ops:
            if self.tracer is not None:
                self.tracer.op = label
            if self.probe is not None:
                self.probe.tick()
            cpu0 = _cpu_seconds()
            t0 = perf_counter()
            try:
                problem = op()
            except Exception as err:  # noqa: BLE001 - a raise is a failure
                problem = f"{type(err).__name__}: {err}"
            dt = perf_counter() - t0
            self.cpu[label].append(_cpu_seconds() - cpu0)
            self.starts[label].append(t0)
            self.latencies[label].append(dt)
            self.attempted += 1
            total += dt
            if problem is not None:
                self.failures.append(f"{label}: {problem}")
        return total


def _cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    return sum(u.ru_utime + u.ru_stime
               for u in (resource.getrusage(resource.RUSAGE_SELF),
                         resource.getrusage(resource.RUSAGE_CHILDREN)))


def _measure(ops, seconds: float) -> tuple:
    """Whole passes until the next one would end farther past `seconds`
    than stopping now falls short of it.  Returns the end-to-end metrics,
    the same metrics in unscaled wall time, the loop and the pass count.

    Each operation's latency and CPU time is scaled to the nominal host
    speed by the kernel samples around it (see calibrate.py).  Every pass
    runs the same inputs, so each input's scaled latency and CPU time is
    taken as its median over the passes, and the metrics are read off
    those per-input medians: a stall of the host, or a change of its speed
    that the kernel misses, covering less than half the passes does not
    move the result."""
    probe = calibrate.Probe()
    loop = Loop(ops, probe=probe)
    t0 = perf_counter()
    passes = 0
    while True:
        loop.run_pass()
        passes += 1
        elapsed = perf_counter() - t0
        if elapsed + elapsed / passes / 2 >= seconds:
            break
    probe.close()
    scales = {label: [probe.scale(t) for t in loop.starts[label]]
              for label in loop.starts}
    scaled = _timing(
        {k: [v * f for v, f in zip(vs, scales[k])]
         for k, vs in loop.latencies.items()},
        {k: [v * f for v, f in zip(vs, scales[k])]
         for k, vs in loop.cpu.items()})
    scaled["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return scaled, _timing(loop.latencies, loop.cpu), loop, passes


def _timing(latencies: dict, cpu: dict) -> dict:
    """Timing metrics off the per-input medians over the passes."""
    lat = [statistics.median(v) for v in latencies.values()]
    per_op_cpu = [statistics.median(v) for v in cpu.values()]
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_p90_s": (statistics.quantiles(lat, n=10, method="inclusive")[8]
                     if len(lat) > 1 else lat[0]),
        "cpu_s_per_op": statistics.fmean(per_op_cpu),
    }


def _measure_traced(charplab, ops, seconds: float, trace_path: str) -> tuple:
    """Alternate untraced and traced passes (at least one of each)."""
    from tracer import Tracer
    tracer = Tracer()
    plain = Loop(ops)
    traced = Loop(ops, tracer)
    plain_times, traced_times = [], []
    t0 = perf_counter()
    while True:
        plain_times.append(plain.run_pass())
        tracer.install(charplab)
        try:
            traced_times.append(traced.run_pass())
        finally:
            tracer.uninstall()
        if perf_counter() - t0 >= seconds:
            break
    k = len(traced_times)
    totals = {key: v / k for key, v in tracer.totals().items()}
    metrics = {name: fn(totals) for name, (_, fn) in PER_LAYER.items()}
    metrics[OVERHEAD] = (statistics.median(traced_times)
                         / statistics.median(plain_times))
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    tracer.write(trace_path, {"traced_passes": k, "per_pass": totals})
    return metrics, plain, traced, k


def _units() -> dict:
    units = dict(END_TO_END)
    units.update({name: unit for name, (unit, _) in PER_LAYER.items()})
    units[OVERHEAD] = "ratio"
    return units


def run_one(args) -> int:
    _check_tree(args.workload)
    setup_s = None
    if not args.trace:
        setup_s = _setup_seconds(args.workload, args.seed)
    charplab = _import_charplab()
    bench = workloads.setup(args.workload, args.seed, ROOT)
    machine = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "charplab_threads": os.environ["CHARPLAB_THREADS"],
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "unit_of_operation": bench.unit, "ops_per_pass": len(bench.ops),
    }
    if args.trace:
        path = os.path.join(ROOT, ".perfbench",
                            f"trace-{args.workload}-{args.seed}.jsonl")
        metrics, plain, traced, k = _measure_traced(
            charplab, bench.ops, args.seconds, path)
        failures = plain.failures + traced.failures
        attempted = plain.attempted + traced.attempted
        machine.update(traced_passes=k, trace_file=os.path.relpath(path, ROOT))
    else:
        metrics, wall, loop, passes = _measure(bench.ops, args.seconds)
        metrics["setup_s"] = setup_s
        failures = loop.failures
        attempted = loop.attempted
        machine.update(passes=passes, latency_samples=attempted,
                       setup_reps=SETUP_REPS, unscaled_wall=wall,
                       nominal_kernel_s=calibrate.NOMINAL_S)
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    units = _units()
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in sorted(metrics.items())},
    }
    print(json.dumps({"machine": machine}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Every workload in its own process; one table; nonzero on failure."""
    bad = 0
    for workload in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{workload:13s} exit code {done.returncode}")
            bad += 1
            continue
        result = json.loads(lines[-1])
        ratio = result["failed"] / result["attempted"]
        print(f"{workload:13s} {'fail_ratio':36s} {ratio:<14.6g} ratio "
              f"({result['failed']}/{result['attempted']})")
        for name, m in result["metrics"].items():
            print(f"{workload:13s} {name:36s} {m['value']:<14.6g} "
                  f"{m['unit']}")
        bad += 0 if result["correct"] and not result["failed"] else 1
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ["CHARPLAB_THREADS"] = THREADS
    if args.setup_probe:
        print(_setup_probe(args.workload, args.seed))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
