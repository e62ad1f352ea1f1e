"""facto's benchmark: one closed-loop workload per run, outputs checked.

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0

Workloads: census, objects-f5, objects-q, cli.  BENCHMARK.json lists census
and cli (and why); the two object streams run the same way but are left out
of it, so that the listed workloads get runs long enough to be steady on a
small shared host within the total time allowed for all runs.  The
operations run in this process on one thread; the next starts only after
the previous one finished and was checked.

A run times a fixed amount of work: one pass over a seed-determined list of
operations, each on its own fresh input (census: whole passes over the
censuses).  The list's length is --seconds times a rate calibrated to the
code at the time the benchmark was defined, so the operations take about
--seconds there, and faster code shows as a shorter wall_s.  Each operation
is timed without its check.  The list is made of rounds, each every kind on
every input shape once; wall_s is the number of rounds times the median
round, so that an episode of a slower shared host moves it less than it
moves the sum.

--trace 0 reports the end-to-end metrics.  setup_s is the median time a
fresh interpreter takes to import facto plus the in-process set-up (inputs
from the seed, the CLI's input files, one warm-up call per operation kind on
inputs the timed pass does not use), made in SETUP_REPS timed parts and
taken as their median (see set_up).
--trace 1 runs a list TRACE_WORK times as long, three times: untraced,
with spans around facto's public functions (self time per layer), and with
call counters (exact counts, including the scalar `poly` and `fields`
methods).  It reports the per-layer metrics.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The lines before it list every metric with its unit,
then op_p50_ms and op_p90_ms (--trace 0, not on census) and fail_frac, which
BENCHMARK.json does not bound, and the run's metadata; the same record goes to
`.perfbench_out/` in the checkout, together with the raw spans.
"""

import argparse
import contextlib
import functools
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("census", "objects-f5", "objects-q", "cli")
SETUP_REPS = 3
# operations per second of --seconds: each workload's throughput on a
# 2-vCPU Xeon when the benchmark was defined
OPS_PER_S = {"objects-f5": 125, "objects-q": 38, "cli": 210}
# seconds of one census pass there at a quiet time (criterion 2 takes almost
# all of it; 15-23 s were measured)
CENSUS_PASS_S = 15
MIN_OPS = 100  # op_p90_ms needs at least 100 samples
# --trace 1 passes three times over a list this share of the untraced one
TRACE_WORK = 0.25


class RunStats:
    """Attempts, failures and operation times of one phase."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.op_times = []  # seconds in op.run(), one per attempted operation
        self.latencies = []  # seconds, one per passed operation
        self.wall = 0.0  # the whole pass, checks included

    def add_failures(self, n):
        self.attempted += n
        self.failed += n

    def add_counts(self, other):
        self.attempted += other.attempted
        self.failed += other.failed

    def work_s(self, block):
        """Seconds of operation time in the pass, robust to episodes of a
        slower host: the number of rounds times the median round, where a
        round is `block` consecutive operations (every kind on every input
        shape once), timed without their checks."""
        rounds = self.rounds(block)
        return len(rounds) * statistics.median(rounds) if rounds else 0.0

    def rounds(self, block):
        times = self.op_times
        return [sum(times[i:i + block]) for i in range(0, len(times), block)]


def run_op(op, stats: RunStats, check_guard=contextlib.nullcontext):
    """Time op.run(), then check it; a raise or a False check is a failure."""
    clock = time.perf_counter
    stats.attempted += 1
    elapsed = None
    t = clock()
    try:
        result = op.run()
        elapsed = clock() - t
        with check_guard():
            ok = op.check(result)
    except Exception:  # noqa: BLE001 - count it, keep the loop going
        if elapsed is None:
            elapsed = clock() - t
        ok = None
        print(f"failure: {op.kind} raised", file=sys.stderr)
        traceback.print_exc()
    stats.op_times.append(elapsed)
    if ok is not True:
        stats.failed += 1
        if ok is not None:
            print(f"failure: {op.kind}: check false", file=sys.stderr)
        return
    stats.latencies.append(elapsed)


def run_pass(ops, before_op=None, check_guard=contextlib.nullcontext):
    """Closed loop: each operation once, in order."""
    stats = RunStats()
    clock = time.perf_counter
    t0 = clock()
    for i, op in enumerate(ops):
        if before_op is not None:
            before_op(i)
        run_op(op, stats, check_guard)
    stats.wall = clock() - t0
    return stats


def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def set_up(workload, seed, seconds, workdir):
    """SETUP_REPS timed set-ups, each building inputs and running one warm-up
    operation per kind on inputs of its own.

    census: each set-up builds the whole (small) list; the last is kept and
    set-up time is the median set-up.  Other workloads: each set-up builds
    its share of the rounds on inputs no other share uses, the pass runs
    every share, and set-up time is SETUP_REPS times the median share.
    Returns (stream, the warm-ups' stats, set-up seconds).
    """
    import workloads

    if workload == "census":
        passes = max(1, round(seconds / CENSUS_PASS_S))
        builds = [lambda: workloads.build_census(seed, passes)] * SETUP_REPS
    else:
        kinds = (workloads.CLI_KINDS if workload == "cli"
                 else workloads.OBJECT_KINDS)
        block = len(kinds) * len(workloads.PAIRS)
        rounds = max(math.ceil(MIN_OPS / block / SETUP_REPS),
                     round(seconds * OPS_PER_S[workload] / block / SETUP_REPS))
        count = rounds * block
        if workload == "cli":
            def build(start):
                return workloads.build_cli(seed, count, workdir, start)
        else:
            def build(start, field_name=workload.split("-")[1]):
                return workloads.build_objects(field_name, seed, count, start)
        # a share's warm-up inputs follow its timed ones; the next share
        # starts at the next whole round
        builds = [functools.partial(build, k * (count + block))
                  for k in range(SETUP_REPS)]
    times, streams, warm = [], [], RunStats()
    for build in builds:
        t = time.perf_counter()
        stream = build()
        warm.add_counts(run_pass(stream.warm_up))
        times.append(time.perf_counter() - t)
        streams.append(stream)
    if workload == "census":
        return streams[-1], warm, statistics.median(times)
    stream = workloads.Stream(
        ops=[op for s in streams for op in s.ops], block=streams[0].block,
        gen_failed=sum(s.gen_failed for s in streams))
    return stream, warm, len(times) * statistics.median(times)


def import_seconds():
    """Median wall time of a fresh interpreter that imports facto: the
    process-start part of set-up, measured SETUP_REPS times."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import facto.cli, facto.randgen"],
                       env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(stats: RunStats, block, setup_s):
    """The bounded metrics.  wall_s is the pass's operation time (rounds
    times the median round); throughput is passed operations per second
    of it."""
    wall = stats.work_s(block)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (len(stats.latencies) / wall, "1/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def latency(stats: RunStats):
    """Median and p90 latency over every passed operation, printed but not
    bounded: their spread across seeds on a shared host exceeds the bounds.
    Empty with fewer than MIN_OPS operations (census), where p90 has under ten
    samples beyond it."""
    lat_ms = [t * 1000 for t in stats.latencies]
    if len(lat_ms) < MIN_OPS:
        return {}
    return {"op_p50_ms": (percentile(lat_ms, 0.5), "ms"),
            "op_p90_ms": (percentile(lat_ms, 0.9), "ms")}


def per_layer(stream, untraced, traced, recorder, counter):
    import spans

    layer_self = recorder.layer_self_times()
    _, incl = recorder.self_times()
    calls = counter.calls
    m = {}
    for layer in spans.TRACED:
        if layer != "cli":
            m[f"{layer}.self_s"] = (layer_self[layer], "s")
    tally = stream.tally
    m.update({
        "census.enumerate_factorizations_s": (incl["enumerate_factorizations"], "s"),
        "census.enumerate_chains_s": (incl["enumerate_chains"], "s"),
        "census.stable_graded_subspaces_calls": (calls["stable_graded_subspaces"], "count"),
        "census.fac_classes": (tally["fac_classes"], "count"),
        "census.chain_classes": (tally["chain_classes"], "count"),
        "census.matched": (tally["matched"], "count"),
        "factorizations.fac_validate_calls": (calls["fac_validate"], "count"),
        "factorizations.fac_hom_basis_calls": (calls["fac_hom_basis"], "count"),
        "factorizations.fac_hom_basis_s": (incl["fac_hom_basis"], "s"),
        "factorizations.fac_iso_test_calls": (calls["fac_iso_test"], "count"),
        "factorizations.fac_iso_test_s": (incl["fac_iso_test"], "s"),
        "factorizations.fac_iso_test_true_ratio": (counter.true_ratio("fac_iso_test"), "ratio"),
        "factorizations.direct_sum_calls": (calls["direct_sum"], "count"),
        "factorizations.fac_stable_hom_dim_s": (incl["fac_stable_hom_dim"], "s"),
        "factorizations.nu_resolution_s": (incl["nu_resolution"], "s"),
        "chains.chain_hom_basis_calls": (calls["chain_hom_basis"], "count"),
        "chains.chain_iso_test_calls": (calls["chain_iso_test"], "count"),
        "chains.chain_iso_test_s": (incl["chain_iso_test"], "s"),
        "chains.chain_iso_test_true_ratio": (counter.true_ratio("chain_iso_test"), "ratio"),
        "chains.chain_stable_hom_dim_s": (incl["chain_stable_hom_dim"], "s"),
        "functors.cok_calls": (calls["cok"], "count"),
        "functors.cok_s": (incl["cok"], "s"),
        "functors.reconstruct_calls": (calls["reconstruct"], "count"),
        "functors.reconstruct_s": (incl["reconstruct"], "s"),
        "functors.span_preimage_inclusion_calls": (calls["span_preimage_inclusion"], "count"),
        "modules.hom_basis_calls": (calls["hom_basis"], "count"),
        "modules.map_ker_cok_im_calls": (calls["map_ker_cok_im"], "count"),
        "modules.presentation_cokernel_calls": (calls["presentation_cokernel"], "count"),
        "modules.decompose_calls": (calls["decompose"], "count"),
        "polymat.matmul_calls": (calls["matmul"], "count"),
        "polymat.det_calls": (calls["det"], "count"),
        "polymat.det_s": (incl["det"], "s"),
        "polymat.solve_right_calls": (calls["solve_right"], "count"),
        "polymat.solve_right_s": (incl["solve_right"], "s"),
        "polymat.snf_calls": (calls["snf"], "count"),
        "linalg.rref_calls": (calls["rref"], "count"),
        "linalg.nullspace_calls": (calls["nullspace"], "count"),
        "linalg.echelon_add_calls": (calls["echelon_add"], "count"),
        "linalg.mat_mul_calls": (calls["mat_mul"], "count"),
        "poly.ops": (counter.scalar_ops["poly"], "count"),
        "fields.ops": (counter.scalar_ops["fields"], "count"),
        # the cli layer's own time: main's spans minus the library below
        "cli.self_s": (layer_self["cli"], "s"),
        "cli.calls": (calls["main"], "count"),
        "trace_overhead": (traced.work_s(stream.block)
                           / untraced.work_s(stream.block), "ratio"),
    })
    return m


def traced_runs(stream):
    """Untraced, span-traced and counted runs of the stream, once each."""
    import spans

    ops = stream.ops
    untraced = run_pass(ops)
    recorder = spans.SpanRecorder()
    inst = spans.Instrumentation()
    recorder.install(inst)
    try:
        traced = run_pass(
            ops, before_op=lambda i: setattr(recorder, "current_op", i),
            check_guard=inst.paused)
    finally:
        inst.restore()
    stream.tally.clear()  # census counts come from the counted run
    counter = spans.CallCounter()
    counter.install(inst)
    try:
        counted = run_pass(ops, check_guard=inst.paused)
    finally:
        inst.restore()
    return untraced, traced, recorder, counted, counter


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "facto", "census.py")):
        print(f"error: no facto sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import facto.cli  # noqa: F401 - every facto module, before any wrapping
    import facto.randgen  # noqa: F401
    import workloads  # noqa: F401

    import_s = import_seconds()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        work_s = args.seconds * (TRACE_WORK if args.trace else 1)
        stream, warm, build_s = set_up(args.workload, args.seed, work_s,
                                       workdir)
        setup_s = import_s + build_s
        # the inputs live through the run: keep them out of the collector's
        # scans, which a program without them would not make
        gc.collect()
        gc.freeze()
        meta = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "python": platform.python_version(),
            "cpu": cpu_model(),
            "nproc": os.cpu_count(),
            "commit": git_commit(),
            "setup_reps": SETUP_REPS,
            "import_s": import_s,
        }
        if args.trace == 0:
            stats = run_pass(stream.ops)
            meta.update(ops=len(stream.ops), untraced_wall_s=stats.wall,
                        untraced_op_s=sum(stats.op_times),
                        rounds_s=stats.rounds(stream.block))
            metrics = end_to_end(stats, stream.block, setup_s)
            info = latency(stats)
        else:
            untraced, traced, recorder, counted, counter = traced_runs(stream)
            meta.update(ops=len(stream.ops), spans=len(recorder),
                        untraced_wall_s=untraced.wall,
                        traced_wall_s=traced.wall,
                        counted_wall_s=counted.wall)
            recorder.write(os.path.join(OUT_DIR, f"spans-{args.workload}.bin"))
            metrics = per_layer(stream, untraced, traced, recorder, counter)
            info = {}
            stats = RunStats()
            for phase in (untraced, traced, counted):
                stats.add_counts(phase)
        # warm-up operations are checked too, on inputs of their own
        stats.add_counts(warm)
        stats.add_failures(stream.gen_failed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info["fail_frac"] = (
        stats.failed / stats.attempted if stats.attempted else 1.0, "ratio")
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"{name:44s} {value:>16.6f} {unit}")
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": stats.failed == 0 and stats.attempted > 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(
            OUT_DIR, f"result-{args.workload}-trace{args.trace}.json"),
            "w") as fh:
        json.dump({**result, "meta": meta,
                   "info": {name: value for name, (value, _) in info.items()}},
                  fh, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
