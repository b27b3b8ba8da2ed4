"""Seeded operation lists for the four benchmark workloads.

Everything here is plain data and nothing here imports ``nims``, so the
program under test only ever sees what these functions produce.  The seed
is the only source of randomness: one seed gives the same lists on every
commit.  ``seconds`` sets how many operations a list holds (see ``RATE``),
so a run does the same work on every commit and is never cut off by a
clock.

Each list mixes its operation kinds in fixed proportions and only shuffles
their order and draws their parameters from the seed.  That keeps the
medians and tails of different seeds comparable.
"""

from __future__ import annotations

import random
from typing import NamedTuple

import ref

WORKLOADS = ("plan-stream", "certify", "design-sweep", "cli-session")

DEVICE_CSV = "data/nims23_device.csv"
DEVICE_FREQ_HZ = 18.01e9
DEVICE_BITS = (
    2, 6, 18, 54, 162, 480, 1434, 3574, 5759, 5760, 5760, 5760,
    5760, 5760, 5759, 5760, 5760, 5760, 5760, 5760, 5760, 5760, 5730,
)
# The two published example columns (NIMS1, NIMS2).
NIMS1_BITS = (1, 2, 6, 14, 39, 114, 336, 996, 2970, 8000, 8000, 8000, 8000, 8000)
NIMS2_BITS = (2, 6, 18, 48, 132, 378, 1116, 3312, 8800, 8800, 8800, 8800, 8800, 8800)
SEQUENCES = {"device": DEVICE_BITS, "nims1": NIMS1_BITS, "nims2": NIMS2_BITS}

# The paper's 92,098-junction design; every bit is even, so its reachable
# set is the most fragmented one the benchmark builds.
DESIGN_ARGS = {"a0": 2, "msb_size": 5760, "target_total": 92098, "min_tolerance": ((100, 2),)}
DESIGNED_BITS = (2, 6, 18, 54, 162, 480, 1434, 4296, 5006) + (5760,) * 14
SCAN_BUDGET = 100

# 2e/h, the exact SI value, used only to turn multiples into voltages.
KJ_HZ_PER_VOLT = 483597848416983.6

# A list holds seconds * RATE operations, never fewer than MIN_OPS.  RATE
# is roughly the operations per second of wall time, checks included, on
# the 2-core host the benchmark was defined on (Python 3.11), raised for
# certify and cli-session, whose medians and 90th percentiles needed more
# samples to be steady; their runs take two to three times ``seconds``.
RATE = {"plan-stream": 9000.0, "certify": 24.0, "design-sweep": 90.0, "cli-session": 15.0}
# latency_p90_ms needs at least ten samples beyond the 90th percentile.
MIN_OPS = 110

# enumerate_nims batches: (a0, depth, lowest max_bit, highest max_bit).
# Each holds a few hundred to two thousand strictly valid sequences.
ENUMERATE_BATCHES = (
    (1, 5, 40, 60),
    (1, 6, 33, 36),
    (2, 4, 40, 60),
    (2, 5, 29, 31),
    (2, 6, 40, 42),
    (3, 5, 36, 38),
)

CLI_COMMANDS = ("validate", "represent", "tolerance", "plan", "report", "design", "compare", "defects")
CLI_FORMATS = ("table", "csv", "json")

# Malformed argv the CLI documents: each must exit with this code and no
# traceback.  They run inside cli-session's operation list.
CLI_MALFORMED = (
    (("validate", "--seq", "1,x,3"), 3),
    (("represent", "--seq", "1,3,8", "--m", "13"), 2),
    (("represent", "--seq", "1,2,7", "--m", "3"), 1),
    (("plan", "--seq", "1,3,8", "--volts", "1"), 3),
    (("plan", "--device", DEVICE_CSV, "--volts", "100"), 2),
    (("design", "--a0", "7", "--msb-size", "100", "--target-total", "1000"), 3),
    (("defects", "--seq", "1,2,6", "--defects", "2:99"), 3),
    (("tolerance",), 3),
    (("frobnicate", "--seq", "1,3,8"), 3),
)
# Malformed argv that escape as a raw traceback at the commit that defined
# the benchmark.  They would fail every run, so they stay out of the
# operation list; the traced run reports how many the CLI handles
# (cli.malformed_handled_ratio) over these and CLI_MALFORMED together.
CLI_ESCAPES = (
    ("design", "--a0", "2", "--msb-size", "5760", "--target-total", "92098", "--min-tolerance", "x:2"),
    ("design", "--a0", "2", "--msb-size", "5760", "--target-total", "92098", "--max-ratio", "abc"),
    ("design", "--a0", "2", "--msb-size", "5760", "--target-total", "92098", "--max-ratio", "0/0"),
    ("plan", "--seq", "1,3,8", "--freq", "1e10", "--volts", "nan", "--format", "json"),
)


class Op(NamedTuple):
    """One operation: its position, its kind and its plain-data inputs."""

    id: int
    kind: str
    args: tuple


def size(workload: str, seconds: int) -> int:
    return max(MIN_OPS, round(seconds * RATE[workload]))


def ops(workload: str, seed: int, seconds: int) -> list[Op]:
    """The operation list of one workload."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, size(workload, seconds))


def generate(seed: int, seconds: int) -> dict[str, list[Op]]:
    """Operation lists of all four workloads for one seed."""
    return {w: ops(w, seed, seconds) for w in WORKLOADS}


# The traced run replays a sample of each list, starting with its first
# TRACE_SAMPLE operations.
TRACE_SAMPLE = {"plan-stream": 1000, "certify": 12, "design-sweep": 24, "cli-session": 24}


def sample(workload: str, operations: list[Op]) -> list[Op]:
    """A prefix of the list, plus the first operation of any kind it lacks."""
    head = operations[: TRACE_SAMPLE[workload]]
    kinds = {op.kind for op in head}
    for op in operations[len(head):]:
        if op.kind not in kinds:
            kinds.add(op.kind)
            head.append(op)
    return head


def warm_up(operations: list[Op]) -> Op:
    """The first operation of the list's most common kind."""
    counts: dict[str, int] = {}
    for op in operations:
        counts[op.kind] = counts.get(op.kind, 0) + 1
    kind = max(counts, key=counts.get)
    return next(op for op in operations if op.kind == kind)


def _mix(rng: random.Random, n: int, shares: dict[str, float]) -> list[str]:
    """n kinds in the given proportions (largest remainder), in seeded order."""
    exact = {kind: n * share for kind, share in shares.items()}
    counts = {kind: int(x) for kind, x in exact.items()}
    for kind in sorted(exact, key=lambda k: counts[k] - exact[k])[: n - sum(counts.values())]:
        counts[kind] += 1
    kinds = [kind for kind, c in counts.items() for _ in range(c)]
    rng.shuffle(kinds)
    return kinds


def _plan_stream(rng: random.Random, n: int) -> list[Op]:
    kinds = _mix(rng, n, {"plan": 0.94, "out-of-range": 0.03, "degenerate": 0.03})
    names = list(SEQUENCES) * (n // len(SEQUENCES) + 1)
    rng.shuffle(names)
    out = []
    for i, kind in enumerate(kinds):
        name = names[i]
        bits = SEQUENCES[name]
        freq = DEVICE_FREQ_HZ if name == "device" else rng.uniform(12e9, 20e9)
        sign = rng.choice((-1, 1))
        if kind == "plan":
            # at least a0 + 1 junction steps, so the multiple expressed is nonzero
            volts = sign * rng.uniform(bits[0] + 1, 0.98 * sum(bits)) * freq / KJ_HZ_PER_VOLT
        elif kind == "out-of-range":
            # beyond the headroom even at the top of the default +-0.5% band
            volts = sign * rng.uniform(1.02, 2.0) * (sum(bits) + bits[0]) * freq / KJ_HZ_PER_VOLT
        else:
            # nonzero but rounds to multiple 0
            volts = sign * rng.uniform(0.05, 0.45) * freq / KJ_HZ_PER_VOLT
        out.append(Op(i, kind, (name, volts, freq)))
    return out


def _within_map(rng: random.Random, bits, tol) -> dict[int, int]:
    """Defects on one to three bits, none past its tolerance."""
    last = len(bits) - 1
    candidates = [i for i, t in enumerate(tol) if t is None or t >= 1]
    defects = {}
    for i in rng.sample(candidates, min(len(candidates), rng.randint(1, 3))):
        cap = min(bits[i] - 1, 100) if i == last else tol[i]
        defects[i] = rng.randint(1, cap)
    return defects


def _past_map(rng: random.Random, bits, tol) -> dict[int, int]:
    """One bit loses more than its tolerance; its successor keeps every junction."""
    last = len(bits) - 1
    n = rng.randrange(last)
    defects = {n: tol[n] + 1 + rng.randint(0, min(50, bits[n] - tol[n] - 1))}
    others = [i for i, t in enumerate(tol[:last]) if t >= 1 and i not in (n, n + 1)]
    if others and rng.random() < 0.5:
        i = rng.choice(others)
        defects[i] = rng.randint(1, tol[i])
    return defects


def _certify(rng: random.Random, n: int) -> list[Op]:
    audits = ("scan", "range-check", "complete")
    tol = ref.tolerances(DEVICE_BITS)
    kinds = _mix(rng, n - len(audits), {"within": 0.5, "past": 0.5})
    for kind, pos in zip(audits, sorted(rng.sample(range(n), len(audits)))):
        kinds.insert(pos, kind)
    out = []
    for i, kind in enumerate(kinds):
        if kind == "within":
            args = tuple(sorted(_within_map(rng, DEVICE_BITS, tol).items()))
        elif kind == "past":
            args = tuple(sorted(_past_map(rng, DEVICE_BITS, tol).items()))
        else:
            args = ()
        out.append(Op(i, kind, args))
    return out


def _design_spec(rng: random.Random) -> tuple:
    a0 = rng.randint(1, 3)
    msb = rng.randint(300, 9000)
    total = msb * rng.randint(4, 16) + rng.randint(0, msb - 1)
    rules = tuple(
        sorted((rng.randint(10, msb), rng.randint(1, 4)) for _ in range(rng.randint(0, 2)))
    )
    ratio = rng.choice(("3", "5/2", "2"))
    return (a0, msb, total, rules, ratio)


def _design_sweep(rng: random.Random, n: int) -> list[Op]:
    kinds = _mix(rng, n, {"design": 0.75, "enumerate": 0.22, "infeasible": 0.03})
    batches = list(ENUMERATE_BATCHES) * (n // len(ENUMERATE_BATCHES) + 1)
    rng.shuffle(batches)
    out = []
    for i, kind in enumerate(kinds):
        if kind == "design":
            args = _design_spec(rng)
        elif kind == "infeasible":
            # reserving a0 junctions at the first bit stalls the chain
            a0, msb = rng.randint(1, 3), rng.randint(300, 9000)
            args = (a0, msb, msb * 8, ((1, a0 + rng.randint(0, 2)),), "3")
        else:
            a0, depth, lo, hi = batches.pop()
            args = (a0, depth, rng.randint(lo, hi), rng.random())
        out.append(Op(i, kind, args))
    return out


def _small_strict(rng: random.Random) -> tuple[int, ...]:
    """A strictly valid sequence of four to eight bits."""
    a0 = rng.randint(1, 3)
    bits = [a0, rng.randint(a0 + 1, 3 * a0)]
    for _ in range(rng.randint(2, 6)):
        bits.append(rng.randint(3 * bits[-2] + 1, 3 * bits[-1]))
    return tuple(bits)


def _cli_argv(rng: random.Random, command: str) -> tuple[tuple[str, ...], dict]:
    """argv for one subcommand, and the library inputs it stands for."""

    def seq_arg(bits) -> str:
        return ",".join(map(str, bits))

    def any_seq():
        return rng.choice([NIMS1_BITS, NIMS2_BITS, DEVICE_BITS, _small_strict(rng)])

    if command in ("validate", "tolerance"):
        bits = list(any_seq())
        if command == "validate" and rng.random() < 0.3:
            bits[-1] = bits[-2]  # breaks the lower chain: exit 1
        return (command, "--seq", seq_arg(bits)), {"bits": tuple(bits)}
    if command == "represent":
        bits = any_seq()
        bound = sum(bits) + bits[0] - 1
        m = rng.randint(-bound, bound)
        return ("represent", "--seq", seq_arg(bits), f"--m={m}"), {"bits": bits, "m": m}
    if command == "plan":
        steps = rng.choice((-1, 1)) * rng.uniform(DEVICE_BITS[0] + 1, 0.98 * sum(DEVICE_BITS))
        volts = steps * DEVICE_FREQ_HZ / KJ_HZ_PER_VOLT
        return ("plan", "--device", DEVICE_CSV, f"--volts={volts!r}"), {"volts": volts}
    if command == "report":
        margin = f"{rng.uniform(0.5, 2.5):.2f}"
        return ("report", "--device", DEVICE_CSV, "--min-margin", margin), {"min_margin": float(margin)}
    if command == "design":
        spec = _design_spec(rng)
        a0, msb, total, rules, ratio = spec
        argv = ("design", "--a0", str(a0), "--msb-size", str(msb), "--target-total", str(total))
        for at_least, t in rules:
            argv += ("--min-tolerance", f"{at_least}:{t}")
        return argv + ("--max-ratio", ratio), {"spec": spec}
    if command == "compare":
        msb, lsb = rng.randint(2000, 9000), rng.randint(8, 14)
        argv = ("compare", "--msb-size", str(msb), "--lsb-count", str(lsb), "--standards")
        candidates = {}
        if rng.random() < 0.5:
            candidates["nims1"] = NIMS1_BITS
            argv += ("--candidate", "nims1=" + seq_arg(NIMS1_BITS))
        return argv, {"msb": msb, "lsb": lsb, "candidates": candidates}
    bits = _small_strict(rng)
    tol = ref.tolerances(bits)
    defects = _within_map(rng, bits, tol) if rng.random() < 0.5 else _past_map(rng, bits, tol)
    inline = ",".join(f"{i}:{c}" for i, c in sorted(defects.items()))
    return ("defects", "--seq", seq_arg(bits), "--defects", inline), {"bits": bits, "defects": defects}


def _cli_session(rng: random.Random, n: int) -> list[Op]:
    shares = {f"{c}/{f}": 0.92 / 24 for c in CLI_COMMANDS for f in CLI_FORMATS}
    shares["malformed"] = 0.08
    out = []
    for i, kind in enumerate(_mix(rng, n, shares)):
        if kind == "malformed":
            argv, code = rng.choice(CLI_MALFORMED)
            fmt, params = rng.choice(CLI_FORMATS), None
        else:
            command, fmt = kind.split("/")
            (argv, params), code = _cli_argv(rng, command), None
        out.append(Op(i, kind, (argv + ("--format", fmt), code, params)))
    return out


_BUILDERS = {
    "plan-stream": _plan_stream,
    "certify": _certify,
    "design-sweep": _design_sweep,
    "cli-session": _cli_session,
}
