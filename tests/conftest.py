from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import strategies as st

from nims import Representation, Sequence, errors, load_device, prefix_sums, segmentation_efficiency
from nims.cli import CliUsageError
from nims.sequence import LOWER, POSITIVITY, UPPER, Violation

DATA = Path(__file__).resolve().parent.parent / "data"
DEVICE_CSV = DATA / "nims23_device.csv"

# Every concrete error type: the classes of nims.errors below NimsError, and the CLI's own.
ERROR_TYPES = [
    klass
    for klass in [*vars(errors).values(), CliUsageError]
    if isinstance(klass, type) and issubclass(klass, errors.NimsError) and klass is not errors.NimsError
]

# argv slots a test fills with a path that does not exist, or with a directory
MISSING, DIRECTORY = "<missing file>", "<directory>"

# Layouts used across the suite: two published example columns plus the
# standard binary and ternary columns they are compared against.
NIMS1_BITS = (1, 2, 6, 14, 39, 114, 336, 996, 2970, 8000, 8000, 8000, 8000, 8000)
NIMS2_BITS = (2, 6, 18, 48, 132, 378, 1116, 3312, 8800, 8800, 8800, 8800, 8800, 8800)
BINARY14_BITS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8000)
TERNARY14_BITS = (1, 3, 9, 27, 81, 243, 729, 2187, 6561, 8000, 8000, 8000, 8000, 8000)

# Sequences no capability gate lets through (an upper-chain jump, a dead bit),
# each with the violation list that every gate's error message carries.
INCAPABLE_MESSAGES = {
    (1, 2, 7): "bit 2 is 7, above three times bit 1 (2)",
    (1, 0, 3): (
        "bit 1 must hold at least one junction, got 0; bit 2 is 3, above three times bit 1 (0); "
        "bit 2 is 3, not above three times bit 0 (1)"
    ),
}


@pytest.fixture(scope="session")
def device_record():
    return load_device(DEVICE_CSV)


@pytest.fixture(scope="session")
def measured(device_record):
    return device_record.sequence()


@pytest.fixture(scope="session")
def nims1():
    return Sequence(NIMS1_BITS)


@pytest.fixture(scope="session")
def nims2():
    return Sequence(NIMS2_BITS)


def brute_sums(bits) -> set[int]:
    # exhaustive 3^N enumeration; keep N small
    return {sum(s * a for s, a in zip(signs, bits)) for signs in product((-1, 0, 1), repeat=len(bits))}


def _coalesce(pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    pairs.sort()
    out: list[tuple[int, int]] = []
    for lo, hi in pairs:
        if out and lo <= out[-1][1] + 1:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def interval_dp_sums(bits, radius: int = 0) -> tuple[tuple[int, int], ...]:
    """Reference oracle computed by a different method from the library's bitset.

    Keeps the reachable set as sorted disjoint closed intervals, merging the
    shifted copies -a, 0, +a for each bit, then widens every interval by
    radius.
    """
    intervals = [(0, 0)]
    for a in bits:
        if a == 0:
            continue
        intervals = _coalesce(
            [(lo - a, hi - a) for lo, hi in intervals]
            + intervals
            + [(lo + a, hi + a) for lo, hi in intervals]
        )
    if radius:
        intervals = _coalesce([(lo - radius, hi + radius) for lo, hi in intervals])
    return tuple(intervals)


def full_width_sums(bits, a0_offset: bool = False) -> tuple[int, int, int]:
    """Reference bitset oracle that keeps the full width from the start.

    The loop the library used before the bitset grew with the running
    total: one int of width 2*(total + radius) from the first bit, grown by
    S |= (S << a) | (S >> a), then widened and recentred by the residual
    radius. Returns (mask, span, beta_radius).
    """
    total = sum(bits)
    radius = max(bits[0] - 1, 0) if a0_offset else 0
    reach = 1 << (total + radius)
    for a in bits:
        reach |= (reach << a) | (reach >> a)
    if radius:
        width, need = 1, 2 * radius + 1
        while width < need:
            step = min(width, need - width)
            reach |= reach << step
            width += step
        reach >>= radius
    return reach, total, radius


def growing_width_sums(bits, a0_offset: bool = False) -> tuple[int, int, int]:
    """Reference bitset oracle that shifts every bit in and widens last.

    The loop the library used before it applied the residual first and
    tracked a single run by its width: S |= (S | S << a) << a for every bit
    on an int as wide as the running total, then the residual radius
    ORed in by doubling. Returns (mask, span, beta_radius).
    """
    total = sum(bits)
    reach = 1
    for a in bits:
        reach |= (reach | (reach << a)) << a
    radius = max(bits[0] - 1, 0) if a0_offset else 0
    if radius:
        width, need = 1, 2 * radius + 1
        while width < need:
            step = min(width, need - width)
            reach |= reach << step
            width += step
    return reach, total, radius


@dataclass(frozen=True)
class ValidationReport:
    """Reference report: the plain frozen dataclass validate returned while it built every violation.

    It shares the library class's name, so its generated repr is the one
    the library's report must keep.
    """

    strict_valid: bool
    complete_capable: bool
    violations: tuple[Violation, ...]

    def to_doc(self) -> dict:
        return {
            "strict_valid": self.strict_valid,
            "complete_capable": self.complete_capable,
            "violations": [
                {"constraint": v.constraint, "index": v.index, "message": v.message, "observed": list(v.observed)}
                for v in self.violations
            ],
        }


def eager_validate(seq: Sequence) -> ValidationReport:
    """Reference validate: words every violation up front and reads both verdicts off the list."""
    bits = seq.bits
    last = seq.last_index
    violations: list[Violation] = []
    for n, a in enumerate(bits):
        if a < 1:
            violations.append(Violation(POSITIVITY, n, f"bit {n} must hold at least one junction, got {a}", (a,)))
    for n in range(1, last + 1):
        if bits[n] > 3 * bits[n - 1]:
            violations.append(
                Violation(
                    UPPER,
                    n,
                    f"bit {n} is {bits[n]}, above three times bit {n - 1} ({bits[n - 1]})",
                    (bits[n], bits[n - 1]),
                )
            )
    for n in range(1, last):
        if bits[n + 1] <= 3 * bits[n - 1]:
            violations.append(
                Violation(
                    LOWER,
                    n + 1,
                    f"bit {n + 1} is {bits[n + 1]}, not above three times bit {n - 1} ({bits[n - 1]})",
                    (bits[n + 1], bits[n - 1]),
                )
            )
    if last >= 1 and bits[last] <= bits[last - 1]:
        violations.append(
            Violation(
                LOWER,
                last,
                f"bit {last} is {bits[last]}, not above bit {last - 1} ({bits[last - 1]})",
                (bits[last], bits[last - 1]),
            )
        )
    capable = not any(v.constraint in (UPPER, POSITIVITY) for v in violations)
    return ValidationReport(not violations, capable, tuple(violations))


def descent_rows(rep, seq) -> list[tuple[int, int]]:
    """(bit, remainder) after each step of the greedy, from the top bit down to bit 0.

    Rebuilt from the digits: the remainder after bit n is m minus the sum
    of s_k * a_k over the bits k >= n.
    """
    rows = []
    r = rep.target_m
    for n in range(len(seq.bits) - 1, -1, -1):
        r -= rep.signs[n] * seq.bits[n]
        rows.append((n, r))
    return rows


def percall_descend(m: int, seq: Sequence) -> Representation:
    """Reference represent of a target within range on a capable sequence: prefix sums rebuilt on every call.

    The loop the library ran before it kept one table per Sequence: the
    running totals and thresholds are computed afresh, then the bits are
    walked from the top down, each activated when the remainder's
    magnitude reaches its threshold, and bit 0 when it reaches a_0.
    """
    bits = seq.bits
    sums = prefix_sums(seq)
    a0 = bits[0]
    signs = [0] * len(bits)
    r = m
    for n in range(len(bits) - 1, 0, -1):
        if abs(r) >= sums.thresholds[n - 1]:
            s = 1 if r > 0 else -1
            signs[n] = s
            r -= s * bits[n]
    if abs(r) >= a0:
        s = 1 if r > 0 else -1
        signs[0] = s
        r -= s * a0
    return Representation(tuple(signs), r, m, m - r)


def recursive_enumerate(a0: int, depth: int, max_bit: int, max_results: int) -> list[tuple[int, ...]]:
    """Reference enumerator: a recursive search over every strict prefix under max_bit.

    Lists the strictly valid sequences of the given depth in lexicographic
    order, or raises RangeError past max_results, without pruning the
    prefixes that cannot be completed.
    """
    out: list[tuple[int, ...]] = []
    if a0 > max_bit:
        return out
    prefix = [a0]

    def grow() -> None:
        if len(prefix) == depth:
            if len(out) >= max_results:
                raise errors.RangeError(f"enumeration exceeds {max_results} sequences")
            out.append(tuple(prefix))
            return
        k = len(prefix)
        low = 3 * prefix[k - 2] + 1 if k >= 2 else prefix[-1] + 1
        for nxt in range(low, min(3 * prefix[-1], max_bit) + 1):
            prefix.append(nxt)
            grow()
            prefix.pop()

    grow()
    return out


def regex_runs(x: int) -> list[tuple[int, int]]:
    """Reference run extraction: a regex over the reversed binary digits."""
    return [(m.start(), m.end() - 1) for m in re.finditer("1+", format(x, "b")[::-1])]


def fraction_proportion(a: int, b: int) -> Fraction:
    """Reference fault proportion of a bit a followed by b, in four Fraction steps."""
    return max(Fraction(0), Fraction(1) - Fraction(b, 3 * a)) if a > 0 else Fraction(0)


def fraction_round_half_away(x: float) -> int:
    """Reference rounding of a float to the nearest integer, halves away from zero: floor(|x| + 1/2) in Fractions."""
    n = math.floor(abs(Fraction(x)) + Fraction(1, 2))
    return n if x >= 0 else -n


def fraction_column(seq: Sequence, msb_size: int) -> tuple[int, Fraction | None, Fraction | None]:
    """Reference (bits_to_msb, min_efficiency, mean_efficiency) of a compare_logics column, in Fractions.

    The loop compare_logics ran before it compared ratios in integers:
    segmentation_efficiency's ratios within the leading bits below the
    bank size, their min, and their sum from Fraction(0) over their count.
    """
    leading = 0
    for a in seq.bits:
        if a >= msb_size:
            break
        leading += 1
    ratios = segmentation_efficiency(seq)[: leading - 1] if leading > 1 else ()
    if not ratios:
        return leading, None, None
    return leading, min(ratios), sum(ratios, Fraction(0)) / len(ratios)


def fraction_chain(spec) -> tuple[int, ...] | None:
    """Reference LSB chain of design, its ratio cap taken as math.floor(cur * max_ratio) in Fractions.

    None where the chain stalls, which design refuses as Infeasible.
    """
    chain = [spec.a0]
    while True:
        cur = chain[-1]
        reserve = spec.required_tolerance(cur)
        if 3 * (cur - reserve) >= spec.msb_size:
            return tuple(chain)
        nxt = min(3 * (cur - reserve), math.floor(cur * spec.max_ratio))
        if nxt <= cur:
            return None
        chain.append(nxt)


def three_clause_leads(spec, full_banks: int, trim: int) -> bool:
    """Reference of design's old test for a trimmed bank leading the banks.

    Three clauses: a full bank follows it, it reaches a third of the bank
    size, and its tolerance before a full bank, ceil taken in Fractions,
    meets the tolerance the spec requires of its size.
    """
    tolerance = max(0, trim - math.ceil(Fraction(spec.msb_size, 3)))
    return full_banks > 0 and 3 * trim >= spec.msb_size and tolerance >= spec.required_tolerance(trim)


def lean_range_check(bits, thresholds) -> tuple[int, tuple[tuple[int, str], ...]]:
    """Reference range check that runs the greedy once per target.

    The per-target loop the library used before it swept remainder
    windows; returns (checked, failures) for the given thresholds.
    """
    a0 = bits[0]
    bound = sum(bits) + a0 - 1
    order = range(len(bits) - 1, 0, -1)
    failures: list[tuple[int, str]] = []
    checked = 0
    for m in range(-bound, bound + 1):
        checked += 1
        r = m
        expressed = 0
        for n in order:
            t = thresholds[n - 1]
            if r >= t:
                r -= bits[n]
                expressed += bits[n]
            elif -r >= t:
                r += bits[n]
                expressed -= bits[n]
        if r >= a0:
            r -= a0
            expressed += a0
        elif -r >= a0:
            r += a0
            expressed -= a0
        if expressed + r != m:
            failures.append((m, f"round trip gave {expressed + r}"))
        elif abs(r) >= max(a0, 1):
            failures.append((m, f"residual {r} not below {a0}"))
    return checked, tuple(failures)


@st.composite
def capable_bits(draw, max_total: int = 10_000, max_len: int = 9):
    """Completeness-capable sequences: every bit within triple the previous."""
    a0 = draw(st.integers(1, 3))
    bits = [a0]
    n = draw(st.integers(2, max_len))
    while len(bits) < n:
        nxt = draw(st.integers(1, 3 * bits[-1]))
        if sum(bits) + nxt > max_total:
            break
        bits.append(nxt)
    if len(bits) == 1:
        bits.append(draw(st.integers(1, 3 * a0)))
    return Sequence(tuple(bits))


@st.composite
def perturbed_capable_bits(draw):
    """A capable sequence, as drawn or with one bit moved to 0 or above three times its predecessor.

    Covers sets that stay one run, that break at bit 0 (a_0 >= 2 without
    the residual), that break mid-sequence, and dead bits.
    """
    bits = list(draw(capable_bits(max_total=3000)))
    n = draw(st.integers(0, len(bits) - 1))
    move = draw(st.sampled_from(["none", "dead", "jump"]))
    if move == "dead":
        bits[n] = 0
    elif move == "jump":
        below = bits[n - 1] if n else 1
        bits[n] = draw(st.integers(3 * below + 1, 3 * below + 50))
    return Sequence(tuple(bits))


def any_bits(max_len: int = 6, max_bit: int = 40):
    """Any sequence, capable or not: dead bits, a_0 >= 2, jumps above 3*a_{n-1}."""
    bit = st.one_of(st.just(0), st.integers(1, 5), st.integers(1, max_bit))
    return st.lists(bit, min_size=1, max_size=max_len).map(lambda bits: Sequence(tuple(bits)))


@st.composite
def strict_bits(draw, max_len: int = 8):
    """Strictly valid sequences: triple-bounded above, forced growth below."""
    a0 = draw(st.integers(1, 3))
    a1 = draw(st.integers(a0 + 1, 3 * a0))
    bits = [a0, a1]
    n = draw(st.integers(2, max_len))
    while len(bits) < n:
        lo = 3 * bits[-2] + 1
        hi = 3 * bits[-1]
        if lo > hi:
            break
        bits.append(draw(st.integers(lo, hi)))
    return Sequence(tuple(bits))
