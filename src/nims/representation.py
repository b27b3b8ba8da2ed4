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

from .errors import InvalidInput, OutOfRange
from .sequence import Sequence, _descent, _integer, _require_type


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


def _greedy(m: int, bits: tuple[int, ...], steps: tuple) -> Representation:
    """The greedy kernel: one walk of m down the rows of sequence._descent's table, bit 0 the last.

    The caller has read m as an int within the bound, and steps off a
    capable sequence's table; represent and bias.plan are its two callers.
    Ties at the residual level prefer beta over activating the first bit,
    which keeps junction usage minimal. Two invariants are checked with
    explicit raises, so they hold under python -O: after each bit the
    remainder stays within the row's slack, after bit 0 the residual bound
    |beta| < a_0, and the digits plus the residual give back m.
    """
    signs = [0] * len(bits)
    r = m
    for n, a, threshold, neg_threshold, slack, neg_slack in steps:
        # the gate keeps a_0 >= 1, so every threshold is at least 1: the two
        # tests are abs(r) >= threshold split by the sign of r
        if r >= threshold:
            signs[n] = 1
            r -= a
        elif r <= neg_threshold:
            signs[n] = -1
            r += a
        if r > slack or r < neg_slack:
            raise AssertionError(f"remainder {r} broke the descent bound at bit {n}")

    expressed = sum(map(operator.mul, signs, bits))
    if expressed + r != m:
        raise AssertionError(f"digits sum to {expressed} with residual {r}: not target {m}")
    return Representation(tuple(signs), r, m, expressed)


def represent(m: int, seq: Sequence) -> Representation:
    """Greedy signed-digit decomposition of m over seq: the checks, then the kernel _greedy.

    The table sequence._descent keeps on seq is built by the first call on a
    sequence, so only that call walks its chain. m is read by the one
    integer rule, sequence._integer: a bool, float or other non-integer
    raises InvalidInput, as does a seq that is not a Sequence. Raises
    InvalidSequence when seq is not completeness capable and RangeError
    when its total exceeds TOTAL_LIMIT, both from building the table, and
    OutOfRange when |m| exceeds A_N + a_0 - 1.
    """
    m = _integer("target", m)
    bound, steps = _descent(seq)
    if abs(m) > bound:
        raise OutOfRange(f"target {m} outside [-{bound}, {bound}]")
    return _greedy(m, seq.bits, steps)


def evaluate(rep: Representation, seq: Sequence) -> int:
    """Recover the integer rep denotes over seq; either of another type is InvalidInput."""
    _require_type("rep", rep, Representation)
    _require_type("seq", seq, Sequence)
    if len(rep.signs) != len(seq.bits):
        raise InvalidInput(
            f"representation has {len(rep.signs)} digits, sequence has {len(seq.bits)} bits"
        )
    if any(s not in (-1, 0, 1) for s in rep.signs):
        raise InvalidInput("digits must be -1, 0, or +1")
    return sum(s * a for s, a in zip(rep.signs, seq.bits)) + rep.beta
