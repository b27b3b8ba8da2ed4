"""Run one workload of the nims benchmark and print its metrics.

    python3 bench/run.py --workload certify --seed 1 --seconds 15 --trace 0

Run it from anywhere inside a checkout that holds ``src/nims`` and
``data/``; nims is imported from that ``src``.  The workload's operation
list comes from the seed alone (``gen.py``).  Each operation is timed on
its own, in a closed loop with one caller, and its output is checked
right after, outside the timed region.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` replays a
sample of every workload's list with spans on and reports the per-layer
metrics (``spans.LAYER_METRICS``); its spans go to ``bench/out/``.
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
from pathlib import Path
from time import perf_counter

import gen
from clock import Clock, loop_time, reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# setup_s is the median of this many set-ups: this process's own, then
# fresh interpreters that stop after set-up.
SETUP_REPEATS = 7
# Child interpreters timed for cli.startup_ms and cli.import_ms.
PROBE_REPEATS = 7
CHILD_TIMEOUT_S = 120


def setup(workload: str, seed: int, seconds: int, t=None, trace: bool = False):
    """Import nims, load the device, generate the list, warm up once.

    Returns the workload, its operation list and the seconds this took,
    scaled to the host's undisturbed speed by loop timings on either side.
    """
    before = loop_time()
    start = perf_counter()
    import workloads  # imports nims, which set-up time includes

    if t is None:
        t = workloads.tracer()
        t.on = trace
    wl = workloads.WORKLOADS[workload](t)
    operations = gen.ops(workload, seed, seconds)
    wl.run(gen.warm_up(operations))
    elapsed = perf_counter() - start
    return wl, operations, elapsed * reference() / ((before + loop_time()) / 2)


def run_ops(wl, operations) -> tuple[list[float], list[str]]:
    """Time each operation, then check its output outside the timed region.

    Times are scaled to the host's undisturbed speed (see clock.py), by the
    mean of the scale factors just before and just after the operation.
    """
    t, clock = wl.t, Clock(wl.loop)
    times, failures = [], []
    for op in operations:
        before = clock.scale()
        span = t.begin(op.id)
        start = perf_counter()
        try:
            out = wl.run(op)
        except Exception as exc:  # judged by check(): some inputs must raise
            out = exc
        end = perf_counter()
        t.end(span, start, end)
        times.append((end - start) * (before + clock.scale()) / 2)
        try:
            problem = wl.check(op, out)
        except Exception as exc:  # an output of the wrong shape
            problem = f"check raised {exc!r}"
        if problem:
            failures.append(f"op {op.id} ({op.kind}): {problem}")
    return times, failures


def _child(argv: list[str], env: dict | None = None) -> tuple[float, float, subprocess.CompletedProcess]:
    start = perf_counter()
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S)
    return start, perf_counter(), done


def setup_probe(args) -> float:
    argv = [
        sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--setup-probe",
    ]
    _, _, done = _child(argv)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def git_commit() -> str:
    """HEAD of the checkout's git repository, read from .git; 'unknown' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        ref_file = git / ref_name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import nims

    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "oracle_cap": nims.DEFAULT_ORACLE_CAP,
    }


def _report(failures: list[str], errors: list[str]) -> None:
    for line in failures[:20] + errors:
        print(f"bench: {line}", file=sys.stderr)


def untraced(args) -> dict:
    wl, operations, first = setup(args.workload, args.seed, args.seconds)
    start = perf_counter()
    times, failures = run_ops(wl, operations)
    loop_s = perf_counter() - start
    # The process doing the work: this one, or for cli-session the largest child.
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-session" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    errors = wl.verify()
    setups = [first] + [setup_probe(args) for _ in range(SETUP_REPEATS - 1)]

    p90 = statistics.quantiles(times, n=10, method="inclusive")[-1]
    n = len(times)
    print(json.dumps({
        "environment": environment(args),
        "samples": n,
        "loop_s": loop_s,
        "beyond_p90": sum(1 for x in times if x > p90),
        "failed_ratio": len(failures) / n,
        "setup_samples_s": setups,
    }))
    _report(failures, errors)
    metrics = {
        "ops_per_s": (n / sum(times), "ops/s"),
        "latency_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "latency_p90_ms": (p90 * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return {
        "correct": not failures and not errors,
        "attempted": n,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced(args) -> dict:
    import spans
    import workloads

    wl, operations, _ = setup(args.workload, args.seed, args.seconds, trace=True)
    t = wl.t
    mine = gen.sample(args.workload, operations)
    t.on = False
    plain, failures = run_ops(wl, mine)
    t.on = True
    timed, more = run_ops(wl, mine)
    failures += more
    attempted = 2 * len(mine)
    errors = wl.verify()
    for other in gen.WORKLOADS:
        if other != args.workload:
            other_wl, other_ops, _ = setup(other, args.seed, args.seconds, t)
            sample = gen.sample(other, other_ops)
            failures += run_ops(other_wl, sample)[1]
            attempted += len(sample)
            errors += other_wl.verify()

    env = workloads.child_env()
    for _ in range(PROBE_REPEATS):
        t.record("cli.startup", *_child([sys.executable, "-c", "pass"], env)[:2])
        t.record("cli.import", *_child([sys.executable, "-c", "import nims"], env)[:2])

    import nims

    values = spans.layer_metrics(t.spans, nims.DEFAULT_ORACLE_CAP)
    values["bench.trace_overhead"] = sum(plain) / sum(timed)
    values["cli.malformed_handled_ratio"] = workloads.malformed_handled_ratio()
    OUT.mkdir(exist_ok=True)
    header = environment(args)
    t.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl", header)
    print(json.dumps({"environment": header, "spans": len(t.spans)}))
    _report(failures, errors)
    units = {name: unit for name, unit, _, _ in spans.LAYER_METRICS}
    return {
        "correct": not failures and not errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "nims" / "__init__.py").is_file() or not (ROOT / gen.DEVICE_CSV).is_file():
        print(f"bench: {ROOT} holds no src/nims or {gen.DEVICE_CSV}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        print(json.dumps({"setup_s": setup(args.workload, args.seed, args.seconds)[2]}))
        return 0
    result = traced(args) if args.trace else untraced(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
