"""Signed-digit representation of integer targets over a bit sequence.

The representation walks bits from most to least significant, activating a
bit whenever the remainder's magnitude reaches the activation threshold
(the running total below the bit, plus the first bit count). The chain
inequality 3*a_n - A_n <= A_n + a_0 guarantees the remainder never
overshoots, so the walk always lands with a residual smaller than a_0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInput, InvalidSequence, OutOfRange, RangeError
from .sequence import DEFAULT_ORACLE_CAP, Sequence, prefix_sums, validate


@dataclass(frozen=True)
class Representation:
    """Digits in {-1, 0, +1} per bit plus the residual beta."""

    signs: tuple[int, ...]
    beta: int
    target_m: int
    expressed_m: int

    def to_doc(self) -> dict:
        return {"m": self.target_m, "signs": list(self.signs), "beta": self.beta}


def represent(m: int, seq: Sequence, *, audit: list | None = None) -> Representation:
    """Greedy signed-digit decomposition of m over seq.

    Ties at the residual level prefer beta over activating the first bit,
    which keeps junction usage minimal. Pass an `audit` list to capture
    (bit, remainder) after every step; the remainder magnitude never
    exceeds the running total below the bit plus a_0 - 1.

    Raises InvalidSequence when seq is not completeness capable and
    OutOfRange when |m| exceeds A_N + a_0 - 1.
    """
    report = validate(seq)
    if not report.complete_capable:
        raise InvalidSequence(
            "sequence is not completeness capable: "
            + "; ".join(v.message for v in report.violations)
        )
    bits = seq.bits
    sums = prefix_sums(seq)
    a0 = bits[0]
    bound = sums.totals[-1] + a0 - 1
    if abs(m) > bound:
        raise OutOfRange(f"target {m} outside [-{bound}, {bound}]")

    signs = [0] * len(bits)
    r = m
    for n in range(seq.last_index, 0, -1):
        if abs(r) >= sums.thresholds[n - 1]:
            s = 1 if r > 0 else -1
            signs[n] = s
            r -= s * bits[n]
        slack = sums.totals[n - 1] + a0 - 1
        if abs(r) > slack:
            raise AssertionError(f"remainder {r} broke the descent bound at bit {n}")
        if audit is not None:
            audit.append((n, r))
    if abs(r) >= a0:
        s = 1 if r > 0 else -1
        signs[0] = s
        r -= s * a0
    if audit is not None:
        audit.append((0, r))

    beta = r
    expressed = sum(s * a for s, a in zip(signs, bits))
    if expressed + beta != m or abs(beta) >= max(a0, 1):
        raise AssertionError(f"digits sum to {expressed} with residual {beta}: not target {m} with |beta| < a_0")
    return Representation(tuple(signs), beta, m, expressed)


def evaluate(rep: Representation, seq: Sequence) -> int:
    """Recover the integer a representation denotes over seq."""
    if len(rep.signs) != len(seq.bits):
        raise InvalidInput(
            f"representation has {len(rep.signs)} digits, sequence has {len(seq.bits)} bits"
        )
    if any(s not in (-1, 0, 1) for s in rep.signs):
        raise InvalidInput("digits must be -1, 0, or +1")
    return sum(s * a for s, a in zip(rep.signs, seq.bits)) + rep.beta


@dataclass(frozen=True)
class RangeCheckReport:
    checked: int
    failures: tuple[tuple[int, str], ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def represent_range_check(seq: Sequence, *, cap: int = DEFAULT_ORACLE_CAP) -> RangeCheckReport:
    """Round-trip every representable target, from -A_N-a_0+1 to A_N+a_0-1.

    Validates once and runs a lean copy of the greedy loop; sweeping the
    Table-5-sized range through represent() itself would revalidate the
    sequence two hundred thousand times.
    """
    report = validate(seq)
    if not report.complete_capable:
        raise InvalidSequence(
            "sequence is not completeness capable: "
            + "; ".join(v.message for v in report.violations)
        )
    total = sum(seq.bits)
    if total > cap:
        raise RangeError(f"sequence total {total} exceeds cap {cap}")
    bits = seq.bits
    sums = prefix_sums(seq)
    thresholds = sums.thresholds
    a0 = bits[0]
    bound = total + a0 - 1
    order = range(seq.last_index, 0, -1)
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
    return RangeCheckReport(checked, tuple(failures))
