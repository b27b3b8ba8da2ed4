"""Signed-digit representation of integer targets over a bit sequence.

The representation walks bits from most to least significant, activating a
bit whenever the remainder's magnitude reaches the activation threshold
(the running total below the bit, plus the first bit count). The chain
inequality 3*a_n - A_n <= A_n + a_0 guarantees the remainder never
overshoots, so the walk always lands with a residual smaller than a_0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import InvalidInput, InvalidSequence, OutOfRange, RangeError
from .sequence import DEFAULT_ORACLE_CAP, Sequence, _chain_capable, prefix_sums, validate


@dataclass(frozen=True)
class Representation:
    """Digits in {-1, 0, +1} per bit plus the residual beta.

    Still a frozen dataclass: callers rebuild it with dataclasses.replace.
    """

    signs: tuple[int, ...]
    beta: int
    target_m: int
    expressed_m: int

    def to_doc(self) -> dict:
        return {"m": self.target_m, "signs": list(self.signs), "beta": self.beta}


def _require_capable(seq: Sequence) -> None:
    if not _chain_capable(seq.bits):
        raise InvalidSequence(
            "sequence is not completeness capable: "
            + "; ".join(v.message for v in validate(seq).violations)
        )


def represent(m: int, seq: Sequence) -> Representation:
    """Greedy signed-digit decomposition of m over seq.

    Ties at the residual level prefer beta over activating the first bit,
    which keeps junction usage minimal. After bit n the remainder,
    m minus the digits from bit n up, never exceeds the running total
    below the bit plus a_0 - 1.

    Raises InvalidSequence when seq is not completeness capable and
    OutOfRange when |m| exceeds A_N + a_0 - 1.
    """
    _require_capable(seq)
    return _descend(m, seq)


def _descend(m: int, seq: Sequence) -> Representation:
    """The greedy descent of `represent`, on a sequence already through `_require_capable`."""
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
    if abs(r) >= a0:
        s = 1 if r > 0 else -1
        signs[0] = s
        r -= s * a0

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


class RangeCheckReport(NamedTuple):
    """A full-range sweep: how many targets it round-tripped and each failure. A NamedTuple."""

    checked: int
    failures: tuple[tuple[int, str], ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def represent_range_check(seq: Sequence, *, cap: int = DEFAULT_ORACLE_CAP) -> RangeCheckReport:
    """Round-trip every representable target, from -A_N-a_0+1 to A_N+a_0-1.

    Sweeps windows of remainders instead of one target at a time. This is
    exact because the greedy's remaining steps depend only on the bit and
    the current remainder, not on the target that produced it, and every
    step moves a whole piece of a window by one shift. Starting from the
    single window [-bound, bound], each step (every bit from the top down,
    then a_0 with threshold a_0) splits each window at the threshold t:
    first r >= t (shift -a), then -r >= t (shift +a), and the rest keeps
    r, as in represent. Each piece, translated by its shift, is again a
    window; equal windows of one step are kept once. A backward pass
    carries the final remainders not below a_0 up to the targets m that
    reach them, so failures come out as (m, message) in ascending m. The
    device's 184,199 targets share 190 windows; the loop is iterative, so
    thousands of bits do not recurse.
    """
    _require_capable(seq)
    total = sum(seq.bits)
    if total > cap:
        raise RangeError(f"sequence total {total} exceeds cap {cap}")
    bits = seq.bits
    thresholds = prefix_sums(seq).thresholds
    a0 = bits[0]
    bound = total + a0 - 1
    steps = [(thresholds[n - 1], bits[n]) for n in range(seq.last_index, 0, -1)] + [(a0, a0)]

    # levels[k] maps each window after step k to the (parent window, shift) pieces landing on it
    levels: list[dict] = []
    landed: dict = {(-bound, bound): []}
    for t, a in steps:
        windows, landed = landed, {}
        for lo, hi in windows:
            for plo, phi, shift in (
                (max(lo, t), hi, -a),
                (lo, min(hi, t - 1, -t), a),
                (max(lo, 1 - t), min(hi, t - 1), 0),
            ):
                if plo <= phi:
                    landed.setdefault((plo + shift, phi + shift), []).append(((lo, hi), shift))
        levels.append(landed)

    # (window, lo, hi, offset): remainders lo..hi of window end with residual r + offset
    failing = [
        (window, flo, fhi, 0)
        for window in landed
        for flo, fhi in ((window[0], min(window[1], -a0)), (max(window[0], a0), window[1]))
        if flo <= fhi
    ]
    for pieces in reversed(levels):
        failing = [
            (parent, flo - shift, fhi - shift, offset + shift)
            for window, flo, fhi, offset in failing
            for parent, shift in pieces[window]
        ]
    failures = [
        (m, f"residual {m + offset} not below {a0}")
        for _, flo, fhi, offset in sorted(failing, key=lambda f: f[1])
        for m in range(flo, fhi + 1)
    ]
    return RangeCheckReport(2 * bound + 1, tuple(failures))
