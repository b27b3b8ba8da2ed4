"""Every small sequence, checked against brute force: the oracle, and the greedy's table and sweep.

The scope is every sequence of one to four bits, each bit from 0 to
NIMS_SMALL_SCOPE (default 9: 11,110 sequences; 12 gives 30,940). The oracle
(oracle._reach, read by reachable_sums and is_complete;
oracle._window_gaps, read by oracle_gaps; and SumSet.gaps from every lo
to the top of the set, which skips the run its window opens with) is
checked against the digit sums listed one digit vector at a time, and the
chain rule (sequence._chain_capable) against its statement here, with the
coverage it implies; the chain gate (sequence._require_capable) must refuse exactly
where the rule fails, naming the POSITIVITY and UPPER violations. On
every chain-capable sequence, represent, which reads the table
sequence._descent builds, must round-trip every target in
[-(A_N + a_0 - 1), A_N + a_0 - 1] with a residual below a_0, and
sequence.represent_range_check, which sweeps the same table, must
pass; each tolerance must keep the chain and be sharp one junction past
it, and worst_case_scan must raise nothing at small budgets. The strict
enumeration (sequence.enumerate_nims) must list, for every first bit and
depth in the scope, exactly the scope sequences that meet the strict rules
stated here, also when max_results is their count, and refuse one fewer.
Each check is one test, named for its kernel, and lists the
sequences (or, for the enumeration, the first bit and depth) it fails on.
"""

from __future__ import annotations

import functools
import itertools
import os

import pytest

from nims import (
    InvalidSequence,
    RangeError,
    Sequence,
    enumerate_nims,
    is_complete,
    oracle_gaps,
    reachable_sums,
    represent,
    represent_range_check,
    validate,
    worst_case_scan,
)
from nims.sequence import POSITIVITY, UPPER, _chain_capable, _require_capable, _tolerance_table, _violations

SCOPE = int(os.environ.get("NIMS_SMALL_SCOPE", "9"))
SCOPE_BITS = [bits for n in range(1, 5) for bits in itertools.product(range(SCOPE + 1), repeat=n)]


@functools.cache
def digit_sums(bits: tuple[int, ...]) -> frozenset[int]:
    """Every sum of a digit in {-1, 0, +1} times each bit, listed one digit vector at a time."""
    vectors = itertools.product((-1, 0, 1), repeat=len(bits))
    return frozenset(sum(d * a for d, a in zip(digits, bits)) for digits in vectors)


@functools.cache
def widened_sums(bits: tuple[int, ...]) -> frozenset[int]:
    """The digit sums plus each residual beta with |beta| < a_0 (none when a_0 is 0)."""
    radius = bits[0] - 1 if bits[0] else 0
    return frozenset(s + beta for s in digit_sums(bits) for beta in range(-radius, radius + 1))


def missing_runs(sums: frozenset[int], lo: int, hi: int) -> tuple[tuple[int, int], ...]:
    """The integers of [lo, hi] outside sums, as closed intervals in ascending order."""
    missing = [v for v in range(lo, hi + 1) if v not in sums]
    runs = []
    for v in missing:
        if runs and runs[-1][1] == v - 1:
            runs[-1][1] = v
        else:
            runs.append([v, v])
    return tuple(map(tuple, runs))


def capable(bits: tuple[int, ...]) -> bool:
    """Positivity plus the upper chain a_n <= 3*a_{n-1}, stated here without the library's gate."""
    return all(a >= 1 for a in bits) and all(b <= 3 * a for a, b in zip(bits, bits[1:]))


def reachable_count(bits):
    return reachable_sums(Sequence(bits)).count == len(digit_sums(bits))


def widened_count(bits):
    return reachable_sums(Sequence(bits), a0_offset=True).count == len(widened_sums(bits))


def complete(bits):
    total = sum(bits)
    return is_complete(Sequence(bits)) == all(v in widened_sums(bits) for v in range(-total, total + 1))


def gaps(bits):
    total = sum(bits)
    return oracle_gaps(Sequence(bits))[1] == missing_runs(widened_sums(bits), -total, total)


def gaps_to_the_top(bits):
    """SumSet.gaps(lo, top) for every lo from below the set's lowest sum to its top, with and without the residual."""
    for a0_offset, sums in ((False, digit_sums(bits)), (True, widened_sums(bits))):
        reached = reachable_sums(Sequence(bits), a0_offset=a0_offset)
        top = reached.span + reached.beta_radius
        listed = missing_runs(sums, -top - 2, top)
        for lo in range(-top - 2, top + 1):
            expected = tuple((max(a, lo), b) for a, b in listed if b >= lo)
            if reached.gaps(lo, top) != expected:
                return False
    return True


def chain_verdict(bits):
    """The library's chain verdict is the rule above, and the chain implies coverage of [-A_N, A_N]."""
    total = sum(bits)
    verdict = validate(Sequence(bits)).complete_capable
    return verdict == capable(bits) and (not verdict or all(v in widened_sums(bits) for v in range(-total, total + 1)))


def gate(bits):
    """The chain gate refuses exactly where _chain_capable fails, naming the chain's violations in order."""
    try:
        _require_capable(Sequence(bits))
    except InvalidSequence as exc:
        named = "; ".join(v.message for v in _violations(bits) if v.constraint in (POSITIVITY, UPPER))
        return not _chain_capable(bits) and str(exc) == "sequence is not completeness capable: " + named
    return _chain_capable(bits)


def tolerances(bits):
    """Each bit below the last may lose its tolerance and keeps the chain, and breaks it one junction past;
    every bit losing its tolerance at once keeps the chain too."""
    table = _tolerance_table(Sequence(bits))
    for n, t in enumerate(table[:-1]):
        if not capable(bits[:n] + (bits[n] - t,) + bits[n + 1 :]):
            return False
        if t < bits[n] and capable(bits[:n] + (bits[n] - t - 1,) + bits[n + 1 :]):
            return False
    return capable(tuple(a - t for a, t in zip(bits, table[:-1])) + bits[-1:])


def scans(bits):
    """worst_case_scan, whose SAFE verdicts the oracle cross-checks, raises nothing at budgets 0 to 3."""
    seq = Sequence(bits)
    return all(len(worst_case_scan(seq, budget).entries) == len(bits) for budget in range(4))


def round_trips(bits):
    """represent on a fresh Sequence, so its first call builds the table and the rest read it."""
    seq, a0 = Sequence(bits), bits[0]
    bound = sum(bits) + a0 - 1
    for m in range(-bound, bound + 1):
        rep = represent(m, seq)
        if not (set(rep.signs) <= {-1, 0, 1} and abs(rep.beta) < a0):
            return False
        if sum(map(int.__mul__, rep.signs, bits)) + rep.beta != m or rep.expressed_m + rep.beta != m:
            return False
    return True


def sweep_passes(bits):
    check = represent_range_check(Sequence(bits))
    return check.passed and check.checked == 2 * (sum(bits) + bits[0] - 1) + 1


def strict(bits: tuple[int, ...]) -> bool:
    """The chain rule plus the lower chain a_{n+1} > 3*a_{n-1} and a last bit above the one below it, stated here."""
    lower = all(c > 3 * a for a, c in zip(bits, bits[2:]))
    return capable(bits) and lower and (len(bits) == 1 or bits[-1] > bits[-2])


STRICT_BITS = [bits for bits in SCOPE_BITS if strict(bits)]


def enumerates(case):
    """enumerate_nims(a0, depth, SCOPE) lists exactly the strict scope sequences of that first bit and depth,
    sorted, also with max_results at their count, and refuses one result fewer."""
    a0, depth = case
    expected = sorted(bits for bits in STRICT_BITS if bits[0] == a0 and len(bits) == depth)
    listed = [s.bits for s in enumerate_nims(a0, depth, SCOPE, max_results=len(expected))]
    if listed != expected or not expected:
        return listed == expected
    try:
        enumerate_nims(a0, depth, SCOPE, max_results=len(expected) - 1)
    except RangeError:
        return True
    return False


CAPABLE_BITS = [bits for bits in SCOPE_BITS if capable(bits)]

# Each check with its kernel and the sequences it runs on.
CHECKS = {
    "oracle._reach by reachable_sums count": (reachable_count, SCOPE_BITS),
    "oracle._reach by reachable_sums count, a0_offset": (widened_count, SCOPE_BITS),
    "oracle._reach by is_complete": (complete, SCOPE_BITS),
    "oracle._window_gaps by oracle_gaps": (gaps, SCOPE_BITS),
    "oracle.SumSet.gaps from every lo to the top": (gaps_to_the_top, SCOPE_BITS),
    "sequence._chain_capable by validate, and the chain implies coverage": (chain_verdict, SCOPE_BITS),
    "sequence._require_capable, refusing where the chain breaks": (gate, SCOPE_BITS),
    "sequence._tolerance_table, safe and sharp": (tolerances, CAPABLE_BITS),
    "fault_tolerance.worst_case_scan at budgets 0 to 3": (scans, CAPABLE_BITS),
    "sequence._descent by represent round trips": (round_trips, CAPABLE_BITS),
    "sequence.represent_range_check over sequence._descent": (sweep_passes, CAPABLE_BITS),
    "sequence.enumerate_nims at every first bit and depth": (
        enumerates,
        [(a0, depth) for a0 in range(1, SCOPE + 1) for depth in range(1, 5)],
    ),
}


@pytest.mark.parametrize("kernel", CHECKS)
def test_kernel_over_the_small_scope(kernel):
    check, scope = CHECKS[kernel]
    assert scope
    failing = [bits for bits in scope if not check(bits)]
    assert failing == [], f"{kernel} fails on {len(failing)} of {len(scope)} sequences, first {failing[:5]}"
