#!/usr/bin/env python3
"""llct benchmark: closed-loop workloads timed from outside the program.

    python3 perfbench/run.py --workload oracle-q --seed 1 --seconds 20 --trace 0

One client runs one operation at a time.  A run sets up (imports llct,
generates the first round of inputs, warms up) SETUP_REPEATS times, then
runs whole rounds of operations until --seconds have passed and at
least MIN_OPS operations were made.  Round i of a workload is a fixed
list of operations drawn from (workload, seed, i), and no input repeats
within a run (gen.rounds); a reference kernel
(refkernel.py) runs between chunks of each round.  Every output is
checked outside the timed region.

--trace 0 prints the end-to-end metrics.  --trace 1 prints the per-layer
metrics instead: it runs a fixed number of rounds (TRACE_ROUNDS, not
--seconds, so that counts repeat exactly for a seed), each once with
spans around llct's public functions (spans.py) and once without.  The
last line of standard output is one JSON object: correct, attempted,
failed, metrics.  Results and spans are also written under .perfbench/
in the checkout.
"""

import argparse
import itertools
import json
import resource
import signal
import statistics
import subprocess
import sys
from time import perf_counter

import gen
import refkernel
import spans
import workloads

ROOT = workloads.ROOT
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 7
# Reference-kernel passes per round: after every call on cli-calls, whose
# rounds are short lists of slow calls, and after each quarter elsewhere.
CHUNKS = {"oracle-q": 4, "oracle-fe": 4, "zeta-cert": 4, "cli-calls": 11}
MIN_OPS = 100
TRACE_ROUNDS = {"oracle-q": 4, "oracle-fe": 4, "zeta-cert": 4, "cli-calls": 6}
START_SAMPLES = 5

END_TO_END = (("setup_s", "s"), ("solve_s", "s"), ("solve_ref", "ref"),
              ("op_ms_p50", "ms"), ("op_ms_p90", "ms"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    "oracle.realize.ms", "oracle.classify.ms", "oracle.classify.calls",
    "oracle.tensor_matrix.ms", "oracle.MatrixWD.make.ms",
    "linalg.charpoly.ms", "linalg.charpoly.calls",
    "linalg.rational_roots.ms", "linalg.rational_roots.calls",
    "linalg.kernel.ms", "linalg.kernel.calls", "linalg.subspace_dim.ms",
    "linalg.poly_gcd_f.ms", "linalg.poly_gcd_f.calls",
    "linalg.poly_quot_f.ms", "linalg.monomial_roots_fe.ms",
    "exact.Coef.mul.ms", "exact.Coef.mul.calls", "exact.Coef.add.calls",
    "exact.TruncSeriesT.mul_poly.ms", "exact.PolyT.from_roots.ms",
    "zeta.homogeneous_table.ms", "zeta.homogeneous_table.calls",
    "zeta.schur_from_table.ms", "zeta.schur_from_table.calls",
    "zeta.zeta_gl_n_gl1.ms", "zeta.zeta_gl_n_gl_n.ms",
    "factors.l_inverse.ms", "factors.l_inverse.calls", "factors.gamma.ms",
    "factors.epsilon.ms", "factors.sign_constancy_check.ms",
    "wd.tensor.ms", "wd.family_jordan_generic.ms", "wd.family_jordan_at.ms",
    "partitions.jordan_type_matrix.ms", "partitions.jordan_type_matrix.calls",
    "dsl.parse_wd.ms", "points.extended_point_of.ms", "segments.llc_gen.ms",
    "cli.interp_ms", "cli.import_ms", "cli.main.ms", "trace.overhead",
)


def unit_of(name):
    if name.endswith(".calls"):
        return "count"
    return "ratio" if name == "trace.overhead" else "ms"


class OpTimeout(Exception):
    pass


def _alarm(_signum, _frame):
    raise OpTimeout()


class Run:
    """Counts, timings and check failures of one benchmark run."""

    def __init__(self, name, seed):
        self.name, self.seed = name, seed
        self.attempted = self.failed = 0
        self.bad = []
        self.op_times = []
        self.next_op = 0

    def note_bad(self, what):
        self.bad.append(what)
        if len(self.bad) <= 5:
            print(f"{self.name} seed {self.seed}: {what}", file=sys.stderr)

    def op(self, call, op, args, tracer=None):
        """One timed operation under a timeout: (wall seconds, result or
        None when it failed)."""
        self.attempted += 1
        op_id, self.next_op = self.next_op, self.next_op + 1
        signal.setitimer(signal.ITIMER_REAL, workloads.OP_TIMEOUT_S)
        t0 = perf_counter()
        try:
            if tracer is None:
                result = call(args)
            else:
                result = tracer.op(op_id, lambda: call(args))
        except OpTimeout:
            result, error = None, f"timed out after {workloads.OP_TIMEOUT_S:.0f} s"
        except Exception as e:  # a failing call is counted, not fatal
            result, error = None, f"{type(e).__name__}: {e}"
        else:
            error = None
        finally:
            dt = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        if error is not None:
            self.failed += 1
            print(f"{self.name} seed {self.seed}: operation {op!r} failed: "
                  f"{error}", file=sys.stderr)
            return dt, None
        return dt, result

    def round(self, wl, call, ops, tracer=None):
        """Run one round in chunks with the reference kernel after
        each; returns the round's solve and kernel seconds.  Checks are
        not timed."""
        prepared = [wl.prepare(op) for op in ops]
        solve = ref = 0.0
        results = []
        step = -(-len(ops) // CHUNKS[self.name])
        for lo in range(0, len(ops), step):
            for op, args in zip(ops[lo:lo + step], prepared[lo:lo + step]):
                dt, result = self.op(call, op, args, tracer)
                solve += dt
                self.op_times.append(dt)
                results.append((op, result))
            t0 = perf_counter()
            refkernel.run()
            ref += perf_counter() - t0
        for op, result in results:
            if result is not None:
                problem = wl.check(op, result)
                if problem:
                    self.note_bad(f"{op!r}: {problem}")
        return solve, ref


def set_up(run, name, seed, in_process):
    """Import llct, generate the first round and warm up; returns the
    workload adapter, the run's rounds with the first one drawn, and the
    wall time this took."""
    t0 = perf_counter()
    llct = workloads.import_llct(SRC) if in_process else None
    wl = workloads.WORKLOADS[name](llct, name)
    rounds = gen.rounds(name, seed)
    first = next(rounds)
    warm = wl.warm_up_op()
    result = wl.call(wl.prepare(warm))
    problem = wl.check(warm, result)
    elapsed = perf_counter() - t0
    if problem:
        run.note_bad(f"warm-up {warm!r}: {problem}")
    return wl, itertools.chain([first], rounds), elapsed


def measure(run, name, seed, seconds):
    """Untraced run: the end-to-end metrics."""
    in_process = name != "cli-calls"
    setups = []
    for _ in range(SETUP_REPEATS):
        wl, rounds, elapsed = set_up(run, name, seed, in_process)
        setups.append(elapsed)
    solves, ratios = [], []
    deadline = perf_counter() + seconds
    while not solves or perf_counter() < deadline or run.attempted < MIN_OPS:
        solve, ref = run.round(wl, wl.call, next(rounds))
        solves.append(solve)
        ratios.append(solve / ref)
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    ms = [t * 1000.0 for t in run.op_times]
    return {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(solves),
        "solve_ref": statistics.median(ratios),
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": statistics.quantiles(ms, n=10)[-1],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def _fresh_interpreter(code, env=None):
    """Wall milliseconds and stdout of a fresh interpreter running code."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True,
                          timeout=workloads.OP_TIMEOUT_S)
    return (perf_counter() - t0) * 1000.0, proc.stdout


def start_up_ms(env):
    """Medians of bare interpreter start-up and of `import llct.cli`."""
    interp = [_fresh_interpreter("pass")[0] for _ in range(START_SAMPLES)]
    code = ("import time; t = time.perf_counter(); import llct.cli; "
            "print(time.perf_counter() - t)")
    imports = [float(_fresh_interpreter(code, env)[1]) * 1000.0
               for _ in range(START_SAMPLES)]
    return statistics.median(interp), statistics.median(imports)


def measure_traced(run, name, seed):
    """Traced run: per-layer self times and counts over a fixed number of
    rounds.  Each round also runs once untraced, before the traced pass on
    even rounds and after it on odd ones, so that their ratio gives the
    tracing overhead without favouring either side if a cache sees the
    repeated inputs."""
    wl, rounds, _elapsed = set_up(run, name, seed, in_process=True)
    call = wl.call_in_process if name == "cli-calls" else wl.call
    tracer = spans.Tracer()
    plain = traced = 0.0
    for index, ops in zip(range(TRACE_ROUNDS[name]), rounds):
        if index % 2:
            plain += run.round(wl, call, ops)[0]
        tracer.install()
        try:
            traced += run.round(wl, call, ops, tracer)[0]
        finally:
            tracer.uninstall()
        if not index % 2:
            plain += run.round(wl, call, ops)[0]
    metrics = tracer.layer_metrics()
    metrics["trace.overhead"] = traced / plain
    if name == "cli-calls":
        metrics["cli.interp_ms"], metrics["cli.import_ms"] = start_up_ms(wl.env)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{name}-seed{seed}.json")
    return {k: metrics.get(k, 0) for k in PER_LAYER}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "llct" / "__init__.py").is_file():
        print(f"llct sources not found under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)
    run = Run(args.workload, args.seed)
    if args.trace:
        values = measure_traced(run, args.workload, args.seed)
        units = {k: unit_of(k) for k in values}
    else:
        values = measure(run, args.workload, args.seed, args.seconds)
        units = dict(END_TO_END)
    result = {
        "correct": not run.bad,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
