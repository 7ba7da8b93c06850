"""morreykit benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload norm-cli --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the package is imported from
`src/` next to this directory, so nothing has to be installed.  Workloads are
described in README.md.  The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for `--trace 0` and the per-layer metrics for
`--trace 1`; the line before it records the environment and diagnostics.
"""

import time

T_START = time.perf_counter()

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

# The benchmark controls its own environment: MORREYKIT_SEED would override
# every --seed the CLI receives, and BLAS/OpenMP pools would add threads.
os.environ.pop("MORREYKIT_SEED", None)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # op_tail_ms: the highest latency with this many ops above
# Every cycle holds at least 4 ops of its slowest kind, so 3 cycles put at
# least 12 of them in a run and the tail rank always falls inside that kind,
# however many cycles a run manages.
MIN_CYCLES = 3


def git_state():
    """(sha, dirty) of the checkout, or (None, None) outside a git tree."""
    if not (ROOT / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain",
                                 "--untracked-files=no"], cwd=ROOT, text=True,
                                capture_output=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha or None, bool(status.strip())


def import_program():
    """Import numpy and morreykit from this checkout."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import numpy  # noqa: F401
    import morreykit
    where = Path(morreykit.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"morreykit imported from {where}, not {SRC}")


# ---------------------------------------------------------------------------
# running ops

class Runner:
    """Executes ops closed-loop (one client, next op after the previous one
    returns) and checks each output outside the op's timing."""

    def __init__(self, workload, refs):
        self.wl = workload
        self.refs = refs
        self.latencies = []
        self.slots = []  # slot name of each latency
        self.failures = []  # (slot, message)
        self.check_s = 0.0

    def run(self, ops, tracer=None):
        for op in ops:
            if tracer is not None:
                tracer.op = len(self.latencies)
            t0 = time.perf_counter()
            try:
                out, err = self.wl.execute(op), None
            except Exception as e:  # a raising op is a failed op
                out, err = None, e
            self.latencies.append(time.perf_counter() - t0)
            self.slots.append(op.slot.name)
            t1 = time.perf_counter()
            if err is None:
                try:
                    with tracer.paused() if tracer else contextlib.nullcontext():
                        self.wl.check(op, out, self.refs[op.slot.name])
                except Exception as e:  # a failed check is a failed op
                    err = e
            self.check_s += time.perf_counter() - t1
            if err is not None:
                self.failures.append((op.slot.name, f"{type(err).__name__}: {err}"))
        return sum(self.latencies[-len(ops):])


def cycle(wl, seed, k):
    """Ops of cycle k: every slot once, inputs drawn from rng([seed, k])."""
    import numpy as np
    rng = np.random.default_rng([seed, k])
    return [wl.prepare(slot, rng) for slot in wl.slots]


def tail(latencies):
    """(latency, percentile): the highest latency with TAIL_BEYOND ops above."""
    xs = sorted(latencies)
    idx = max(0, len(xs) - TAIL_BEYOND - 1)
    return xs[idx], 100.0 * (idx + 1) / len(xs)


def layer_metrics(tr, peak, wall_plain, wall_traced):
    """Per-layer metrics of one traced pass (see README.md)."""
    span_self, span_calls = tr.summary()

    def self_s(*names):
        return sum(span_self.get(n, 0.0) for n in names)

    def calls(*names):
        return sum(span_calls.get(n, 0) for n in names)

    def count(key, *names):
        return sum(tr.counts[n][key] for n in names if n in tr.counts)

    def frac(name):
        pts = count("grid_points", name)
        return count("rolls", name) / pts if pts else 0.0

    campaigns = [n for n in span_calls if n.startswith("verify.")
                 and n != "verify.peetre_maximal_of"]
    csv = ("norms.CoeffField.to_csv", "norms.CoeffField.from_csv")
    growth = ("growth.is_in_Gq", "growth.check_nakai", "growth.trace_transform")
    return {
        "gridfn.make_bank.self_s": (self_s("gridfn.make_bank"), "s"),
        "gridfn.make_bank.calls": (calls("gridfn.make_bank"), "count"),
        "gridfn.band.self_s": (self_s("gridfn.band"), "s"),
        "gridfn.band.calls": (calls("gridfn.band"), "count"),
        "gridfn.fft_points": (count("fft_points", *(
            n for n in tr.counts if n.startswith("gridfn."))), "points"),
        "gridfn.hl_maximal.self_s": (self_s("gridfn.hl_maximal"), "s"),
        "gridfn.peetre_maximal.self_s": (self_s("gridfn.peetre_maximal"), "s"),
        "gridfn.peetre_maximal.offsets_frac": (frac("gridfn.peetre_maximal"),
                                               "ratio"),
        "gridfn.rychkov_pair.self_s": (self_s("gridfn.rychkov_pair"), "s"),
        "gridfn.io.self_s": (self_s("gridfn.GridFunction.from_bytes"), "s"),
        "norms.space_norm.self_s": (self_s("norms.space_norm"), "s"),
        "norms.morrey_norm.self_s": (self_s("norms.morrey_norm"), "s"),
        "norms.seq_norm.self_s": (self_s("norms.seq_norm"), "s"),
        "norms.seq_norm.calls": (calls("norms.seq_norm"), "count"),
        "norms.csv.self_s": (self_s(*csv), "s"),
        "norms.csv.bytes": (count("bytes", *csv), "bytes"),
        "decomp.atomic_analyze.self_s": (self_s("decomp.atomic_analyze"), "s"),
        "decomp.atomic_analyze.fft_points": (
            count("fft_points", "decomp.atomic_analyze"), "points"),
        "decomp.atomic_analyze.peak_mb": (peak / 2 ** 20, "MB"),
        "decomp.synthesize.self_s": (self_s("decomp.synthesize"), "s"),
        "decomp.quark_analyze.self_s": (self_s("decomp.quark_analyze"), "s"),
        "decomp.quark_synthesize.self_s": (self_s("decomp.quark_synthesize"),
                                           "s"),
        "decomp.coefficients": (
            count("coefficients", "decomp.atomic_analyze"), "count"),
        "trace.trace_function.self_s": (self_s("trace.trace_function"), "s"),
        "trace.bounds.self_s": (self_s("trace.trace_bound_I",
                                       "trace.trace_bound_II",
                                       "trace.extension_bound"), "s"),
        "trace.coeff_maps.self_s": (self_s("trace.trace_coeff",
                                           "trace.extend_coeff"), "s"),
        "verify.campaign.self_s": (self_s(*campaigns), "s"),
        "verify.peetre_maximal_of.self_s": (self_s("verify.peetre_maximal_of"),
                                            "s"),
        "verify.peetre_maximal_of.offsets_frac": (
            frac("verify.peetre_maximal_of"), "ratio"),
        "growth.checks.self_s": (self_s(*growth), "s"),
        "growth.checks.calls": (calls(*growth), "count"),
        "cli.self_s": (self_s("cli.main"), "s"),
        "dyadic.calls": (calls(*(n for n in span_calls
                                 if n.startswith("dyadic."))), "count"),
        "trace_overhead_frac": (wall_traced / wall_plain - 1.0, "ratio"),
    }


def run_workload(name, seed, seconds, trace, startup_s, only=None):
    """Set up and run one workload; returns (result, info).  `startup_s` is
    the time from process start until the program was imported; `only` keeps
    a subset of the cycle's slots (the self-test runs a tiny cycle)."""
    import morreykit
    import numpy
    import tracer as tracing
    import workloads

    cls = workloads.WORKLOADS[name]
    with open(HERE / "reference.json") as fh:
        refs = json.load(fh)["workloads"][name]
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            t0 = time.perf_counter()
            wl = cls(str(work))
            if only is not None:
                wl.slots = [s for s in wl.slots if only(s)]
            wl.setup()
            ops = cycle(wl, seed, 0)
            setup_times.append(time.perf_counter() - t0)
        setup_s = startup_s + statistics.median(setup_times)

        runner = Runner(wl, refs)
        info = {}
        if not trace:
            t0 = time.perf_counter()
            k = 0
            cycle_s = []
            while True:
                cycle_s.append(runner.run(ops))
                k += 1
                if k >= MIN_CYCLES and time.perf_counter() - t0 >= seconds:
                    break
                ops = cycle(wl, seed, k)
            lat = runner.latencies
            by_slot = {}
            for slot, dt in zip(runner.slots, lat):
                by_slot.setdefault(slot, []).append(dt)
            slot_p50 = {s: statistics.median(v) for s, v in by_slot.items()}
            tail_s, tail_pct = tail(lat)
            metrics = {
                "ops_per_s": (len(lat) / sum(lat), "1/s"),
                "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
                "op_tail_ms": (1e3 * tail_s, "ms"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            info.update(cycles=k, cycle_s=cycle_s,
                        measured_s=time.perf_counter() - t0,
                        tail_percentile=tail_pct, tail_ops_beyond=TAIL_BEYOND,
                        slot_p50_ms={s: 1e3 * v for s, v in slot_p50.items()})
        else:
            wall_plain = runner.run(ops)
            tr = tracing.Tracer(morreykit)
            with tr.installed():
                wall_traced = runner.run(ops, tracer=tr)
            peak = 0
            if any(rec[0] == "decomp.atomic_analyze" for rec in tr.spans):
                mem = tracing.PeakMemory(morreykit, "decomp.atomic_analyze")
                with mem.installed():
                    runner.run(ops)
                peak = mem.peak_bytes
            metrics = layer_metrics(tr, peak, wall_plain, wall_traced)
            info.update(cycles=1, passes=3 if peak else 2, spans=len(tr.spans))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    attempted = len(runner.latencies)
    failed = len(runner.failures)
    sha, dirty = git_state()
    info.update(
        workload=name, seed=seed, seconds=seconds, trace=trace,
        git_sha=sha, git_dirty=dirty, python=sys.version.split()[0],
        numpy=numpy.__version__, cpu_count=os.cpu_count(),
        ops=attempted, fail_ratio=failed / attempted,
        failures=runner.failures[:5], check_s=runner.check_s,
        setup_repeats_s=setup_times, startup_s=startup_s, **wl.diag)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["norm-cli", "decompose-trace", "campaign"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    try:
        import_program()
    except ImportError as e:
        print(f"perfbench: cannot import the program: {e}", file=sys.stderr)
        return 2
    result, info = run_workload(args.workload, args.seed, args.seconds,
                                args.trace, time.perf_counter() - T_START)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
