"""Signed-digit representation of integer targets over a bit sequence.

The representation walks bits from most to least significant, activating a
bit whenever the remainder's magnitude reaches the activation threshold
(the running total below the bit, plus the first bit count). The chain
inequality 3*a_n - A_n <= A_n + a_0 guarantees the remainder never
overshoots, so the walk always lands with a residual smaller than a_0.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InvalidInput, InvalidSequence, OutOfRange, RangeError
from .sequence import DEFAULT_ORACLE_CAP, TOTAL_LIMIT, Sequence, _chain_capable, _integer, _refusal, prefix_sums


@dataclass(frozen=True, init=False)
class Representation:
    """Digits in {-1, 0, +1} per bit plus the residual beta.

    A frozen dataclass, so that callers can rebuild it with
    dataclasses.replace, built by a constructor that stores every field in
    one update of the instance dict instead of one object.__setattr__ each.
    """

    signs: tuple[int, ...]
    beta: int
    target_m: int
    expressed_m: int

    def __init__(self, signs: tuple[int, ...], beta: int, target_m: int, expressed_m: int) -> None:
        self.__dict__.update(signs=signs, beta=beta, target_m=target_m, expressed_m=expressed_m)

    def to_doc(self) -> dict:
        return {"m": self.target_m, "signs": list(self.signs), "beta": self.beta}


def _descent(seq: Sequence) -> tuple:
    """The greedy's table for seq, built and stored on seq the first time: (bound, a0, steps).

    The one place the table is built, read by represent,
    represent_range_check and, for its headroom, bias.plan. Building
    applies the chain gate: an incapable sequence is refused here, in
    sequence._refusal's wording, on every call, since a refusal stores
    nothing. bound is A_N + a_0 - 1. steps holds (n, a_n, threshold_{n-1},
    slack_{n-1}) for each bit from the top down to bit 1, the slack being
    the running total below bit n plus a_0 - 1. A capable sequence whose
    total passes TOTAL_LIMIT keeps steps None, so that plan can still
    refuse an out-of-range voltage and the sweep an exceeded cap first;
    represent then raises prefix_sums' RangeError on every call.
    """
    try:
        return seq._descent
    except AttributeError:  # an unset slot: not built yet
        pass
    bits = seq.bits
    if not _chain_capable(bits):
        raise InvalidSequence(_refusal("sequence", bits))
    a0 = bits[0]
    try:
        totals, thresholds = prefix_sums(seq)
    except RangeError:
        table = (sum(bits) + a0 - 1, a0, None)
    else:
        steps = tuple(
            (n, bits[n], thresholds[n - 1], totals[n - 1] + a0 - 1) for n in range(len(bits) - 1, 0, -1)
        )
        table = (totals[-1] + a0 - 1, a0, steps)
    object.__setattr__(seq, "_descent", table)
    return table


def represent(m: int, seq: Sequence) -> Representation:
    """Greedy signed-digit decomposition of m over seq: the greedy's one entry point.

    Ties at the residual level prefer beta over activating the first bit,
    which keeps junction usage minimal. The gate and the per-bit
    thresholds come from the table _descent keeps on seq, so only the
    first call on a sequence walks its chain. Two invariants are checked
    with explicit raises, so they hold under python -O: after bit n the
    remainder, m minus the digits from bit n up, never exceeds the running
    total below the bit plus a_0 - 1, and the digits plus the residual
    give back m.

    m is read by the one integer rule, sequence._integer: a bool, float or
    other non-integer raises InvalidInput. Raises InvalidSequence when seq
    is not completeness capable, RangeError when its total exceeds
    TOTAL_LIMIT and OutOfRange when |m| exceeds A_N + a_0 - 1.
    """
    if m.__class__ is not int:
        m = _integer("target", m)
    bound, a0, steps = _descent(seq)
    if steps is None:
        raise RangeError(f"sequence total exceeds {TOTAL_LIMIT}")
    if abs(m) > bound:
        raise OutOfRange(f"target {m} outside [-{bound}, {bound}]")

    bits = seq.bits
    signs = [0] * len(bits)
    r = m
    for n, a, threshold, slack in steps:
        # the gate keeps a_0 >= 1, so every threshold is at least 2: the two
        # tests are abs(r) >= threshold split by the sign of r
        if r >= threshold:
            signs[n] = 1
            r -= a
        elif r <= -threshold:
            signs[n] = -1
            r += a
        if r > slack or r < -slack:
            raise AssertionError(f"remainder {r} broke the descent bound at bit {n}")
    if r >= a0:
        signs[0] = 1
        r -= a0
    elif r <= -a0:
        signs[0] = -1
        r += a0

    beta = r
    expressed = sum(map(operator.mul, signs, bits))
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
    thousands of bits do not recurse. The gate, the bound and the
    thresholds come from the table _descent keeps on seq, as in represent.
    """
    bound, a0, steps = _descent(seq)
    total = bound - a0 + 1
    if total > cap:
        raise RangeError(f"sequence total {total} exceeds cap {cap}")
    if steps is None:
        raise RangeError(f"sequence total exceeds {TOTAL_LIMIT}")

    # levels[k] maps each window after step k to the (parent window, shift) pieces landing on it
    levels: list[dict] = []
    landed: dict = {(-bound, bound): []}
    for _, a, t, _ in (*steps, (0, a0, a0, a0 - 1)):  # the table's rows, then bit 0 at threshold a_0
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
