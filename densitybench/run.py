"""density-lab benchmark.

    python3 densitybench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 densitybench/run.py --smoke
    python3 densitybench/run.py --crosscheck

Run from the repository root. One process, one closed-loop client: the next
op starts only after the previous one returned. A run

1. imports density_lab from src/ and builds the seeded inputs, several times
   over (fresh import each time), and as often again after the timed phase,
   so the set-ups sample two moments of a shared host; the median of all
   of them is setup_s;
2. computes every op's exact reference result (reference.py, untimed);
3. runs one whole pass over the ops, and then goes on in pass order until
   --seconds have elapsed, timing each op and checking each result against its reference; in the first pass
   each result's witness is also re-evaluated through a second public
   function, outside the op's timer.

A host that shares its CPUs can run identical work up to 1.5 times slower
for minutes at a time, and a whole run can fall in one slow phase. So every
time is taken at a reference host speed: a fixed pure-Python Fraction kernel
that does not touch the library (calibration_kernel) is timed right before
every op and every set-up, and each measured time is multiplied by
CALIBRATION_REF_S over the median kernel time around it. A slow phase slows
the kernel and the library alike, so the product is the op's time at the
speed at which the kernel takes CALIBRATION_REF_S; a change to the library
moves it, a change of host phase mostly does not. Each op's time is then
its median over its runs. op_p50_s and op_p90_s are Harrell-Davis
estimates over those per-op times; ops_per_s is the op count over their sum, scaled by the
share of ops that did not fail. Every workload has at least 100 distinct
ops, so at least ten lie beyond the 90th percentile. The printed summary
also gives the uncorrected figures.

With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics. With --trace 1 untraced passes alternate with passes run under span
wrappers installed around the library's public functions, and the JSON
object holds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
OP_TIMEOUT_S = 60
WORK_DIR = ".densitybench"
# the kernel's time at the reference speed, about its median on 2 shared
# Xeon vCPUs with Python 3.11; every reported time is taken at this speed
CALIBRATION_REF_S = 0.002
# an op's speed is the median of this many kernel times around it
CALIBRATION_WINDOW = 6


def calibration_kernel():
    """Fixed Fraction arithmetic, the library's own kind of work, that uses
    nothing of the library: its time tracks the host's speed only."""
    s = Fraction(0)
    for k in range(1, 301):
        s += Fraction(k % 97, k) * Fraction(3, k + 1)
    return s


def _kernel_time() -> float:
    t0 = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - t0


def _at_reference_speed(times, kernel_times):
    """Each time scaled to the reference speed. kernel_times[j] was taken
    right before times[j], and one more after the last of them."""
    half = CALIBRATION_WINDOW // 2
    out = []
    for j, t in enumerate(times):
        around = kernel_times[max(0, j - half + 1):j + half + 1]
        out.append(t * CALIBRATION_REF_S / statistics.median(around))
    return out


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_TIMEOUT_S} s")


def _import_library(with_cli: bool):
    """A fresh import of density_lab (and density_lab.cli) from src/."""
    for name in [n for n in sys.modules if n == "density_lab" or n.startswith("density_lab.")]:
        del sys.modules[name]
    dl = importlib.import_module("density_lab")
    if with_cli:
        importlib.import_module("density_lab.cli")
    return dl


def setup(workload: str, seed: int, smoke: bool, out_dir: str, times: list, raw: list):
    """Import the library and build the inputs SETUP_REPEATS times, appending
    each set-up's seconds at the reference speed to `times` (and as measured
    to `raw`); returns the cases of the last build."""
    with_cli = "cli-instances" in workloads.WORKLOADS[workload]
    for _ in range(1 if smoke else SETUP_REPEATS):
        before = [_kernel_time() for _ in range(CALIBRATION_WINDOW // 2)]
        t0 = time.perf_counter()
        dl = _import_library(with_cli)
        cases = workloads.build(dl, workload, seed, smoke, out_dir)
        dt = time.perf_counter() - t0
        after = [_kernel_time() for _ in range(CALIBRATION_WINDOW // 2)]
        raw.append(dt)
        times.append(dt * CALIBRATION_REF_S / statistics.median(before + after))
    return cases


class Runner:
    def __init__(self, cases, tracer=None):
        self.cases = cases
        self.references = [c.expect() for c in cases]
        self.tracer = tracer
        self.attempted = 0
        self.attempted_passes = 0
        self.failures: list[str] = []
        self.kernel_times: list[float] = []
        self.sink = io.StringIO()

    def run_op(self, i: int, with_witness: bool = False) -> float:
        """Run case i once; returns its wall time. Failures are recorded."""
        case = self.cases[i]
        self.attempted += 1
        reason = None
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(self.sink):
                result = tracing.root_span(self.tracer, case.call)
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            reason = f"{type(exc).__name__}: {exc}"
        finally:
            dt = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.sink.seek(0)
        self.sink.truncate()
        if reason is None:
            reason = case.check(result, self.references[i])
        if reason is None and with_witness and case.witness is not None:
            reason = case.witness(result)
        if reason is not None:
            self.failures.append(f"{case.label} #{i}: {reason}")
        return dt

    def timed(self, seconds: float, passes: int = 0, calibrate: bool = False):
        """Exactly `passes` whole passes, or else one whole pass and then ops
        in pass order until `seconds` have elapsed; returns (op wall times,
        whole passes run). times[j] is an op of case j % len(cases).
        Witnesses are re-evaluated in the first pass a Runner makes. With
        `calibrate`, the kernel is timed before every op and once after the
        last, into self.kernel_times."""
        times = []
        done = 0
        t0 = time.perf_counter()
        while True:
            for i in range(len(self.cases)):
                if not passes and done and time.perf_counter() - t0 >= seconds:
                    break
                if calibrate:
                    self.kernel_times.append(_kernel_time())
                times.append(self.run_op(i, with_witness=not self.attempted_passes))
            else:
                self.attempted_passes += 1
                done += 1
                if not passes or done < passes:
                    continue
            if calibrate:
                self.kernel_times.append(_kernel_time())
            return times, done


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for aa in (m * (b - m) * x / ((a - 1 + 2 * m) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1 + 2 * m))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-14:
            break
    return h


def _betainc(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _quantile(values, q: float) -> float:
    """The Harrell-Davis estimate of the q-quantile: every order statistic
    weighted by a Beta((n + 1) q, (n + 1)(1 - q)) distribution. It rests on
    the ops around the quantile rather than on one or two of them, so a
    seed that moves single op costs moves it less."""
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    out_dir = os.path.join(WORK_DIR, f"out-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        setup_times: list[float] = []
        setup_raw: list[float] = []
        cases = setup(workload, seed, smoke, out_dir, setup_times, setup_raw)
        runner = Runner(cases)
        gc.collect()
        if not trace:
            times, passes = runner.timed(seconds, calibrate=True)
            setup(workload, seed, smoke, out_dir, setup_times, setup_raw)
            completed = 1 - len(runner.failures) / len(times)

            def per_op(ts):  # each op's median time over its runs
                return [statistics.median(ts[i::len(cases)]) for i in range(len(cases))]

            op = per_op(_at_reference_speed(times, runner.kernel_times))
            raw = per_op(times)
            metrics = {
                "ops_per_s": (completed * len(op) / sum(op), "1/s"),
                "op_p50_s": (_quantile(op, 0.5), "s"),
                "op_p90_s": (_quantile(op, 0.9), "s"),
                "setup_s": (statistics.median(setup_times), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            speed = CALIBRATION_REF_S / statistics.median(runner.kernel_times)
            summary = (f"{len(times)} timed ops, {passes} whole passes over {len(cases)} ops; "
                       f"each op's time is its median over its {passes} or {passes + 1} runs at the reference "
                       f"speed; host speed {speed:.3f} of it; as measured: ops_per_s "
                       f"{completed * len(raw) / sum(raw):.6g}, op_p50_s "
                       f"{_quantile(raw, 0.5):.6g}, op_p90_s {_quantile(raw, 0.9):.6g}, "
                       f"setup_s {statistics.median(setup_raw):.6g}")
        else:
            # untraced and traced passes alternate, so both see the same host
            # phases; a pair starts only if it should end within `seconds`
            tracer = tracing.Tracer()
            untraced, traced = [], []
            t0 = time.perf_counter()
            pair_s = 0.0
            while not traced or time.perf_counter() - t0 + pair_s <= seconds:
                pair_t0 = time.perf_counter()
                untraced += runner.timed(0, passes=1)[0]
                tracer.install()
                runner.tracer = tracer
                try:
                    traced += runner.timed(0, passes=1)[0]
                finally:
                    tracer.uninstall()
                    runner.tracer = None
                pair_s = time.perf_counter() - pair_t0
            passes = len(traced) // len(cases)
            metrics = tracer.metrics()
            overhead = sum(traced) / sum(untraced) - 1
            metrics["trace.overhead_frac"] = (overhead, "ratio")
            metrics["trace.untraced_op_s"] = (sum(untraced), "s")
            root_total = metrics[f"{tracing.ROOT}.total_s"][0]
            print(tracer.table())
            print(f"op spans: total {root_total:.4f} s = self "
                  f"{metrics[tracing.ROOT + '.self_s'][0]:.4f} s + children; untraced ops "
                  f"{sum(untraced):.4f} s; overhead {overhead:+.3f}")
            trace_path = os.path.join(WORK_DIR, f"spans-{workload}-{seed}.jsonl")
            tracer.write(trace_path)
            summary = f"{passes} traced passes over {len(cases)} ops; spans in {trace_path}"
    finally:
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        shutil.rmtree(out_dir, ignore_errors=True)
    failed = len(runner.failures)
    for reason in runner.failures[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(f"{workload} seed {seed}: {summary}; {failed} of {runner.attempted} ops failed "
          f"(failed_frac {failed / runner.attempted:.4f})")
    for name, (value, unit) in metrics.items():
        if not trace or not name.endswith((".calls", ".total_s", ".self_s")):
            print(f"  {name:<48} {value:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def smoke() -> int:
    """Every workload at tiny size, untraced and traced; checks that every
    metric BENCHMARK.json names is emitted with a unit and that no op failed."""
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            result = run(w["name"], 1, 0, trace, smoke=True)
            for m in spec[group]:
                got = result["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(f"{w['name']}: metric {m['name']} missing or without unit {m['unit']}")
            if result["failed"]:
                problems.append(f"{w['name']}: {result['failed']} ops failed")
    for p in problems:
        print(p, file=sys.stderr)
    print("smoke:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


def crosscheck() -> dict:
    """Traced layer times for the ROADMAP baseline rows the workloads reproduce."""
    from fractions import Fraction as F
    import random

    dl = _import_library(with_cli=False)
    rng = random.Random("crosscheck")
    window = dl.IntervalUnion.closed(-10, 10)
    rows = {}
    cases = {}
    for n in (50, 200):
        s = dl.PeriodicPoints(F(1), tuple(F(k, 1000) for k in rng.sample(range(1000), n)))
        cases[f"real_shift_sup periodic points {n} residues r=10"] = (
            lambda s=s: dl.real_shift_sup(dl.Counting(s), window))
    for m in (200, 1000):
        a = dl.PeriodicDiscrete.line(m, sorted(rng.sample(range(12), 7)))
        cases[f"greedy_translates Z period {m}"] = lambda a=a: dl.greedy_translates(a, dl.ZLattice(1))
    z8 = dl.FiniteAbelian((8,))
    cases["kahane_oracle_finite Z_8"] = lambda: dl.kahane_oracle_finite(
        dl.Counting(dl.ExplicitFinite(((0,), (3,)))), z8)
    cases["oracle_counting_sweep Z_8"] = lambda: dl.oracle_counting_sweep(z8)
    for label, fn in cases.items():
        t0 = time.perf_counter()
        fn()
        untraced = time.perf_counter() - t0
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracing.root_span(tracer, fn)
        finally:
            tracer.uninstall()
        layers = {name: {"calls": s.calls, "total_s": s.total / 1e9, "self_s": s.self_time / 1e9}
                  for name, s in sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_time)}
        rows[label] = {"untraced_s": untraced, "layers": layers}
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    parser.add_argument("--crosscheck", action="store_true",
                        help="traced layer times of the ROADMAP baseline rows")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if not os.path.isdir(os.path.join("src", "density_lab")):
        print("src/density_lab not found: run from a density-lab checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.crosscheck:
        print(json.dumps(crosscheck(), indent=2))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
