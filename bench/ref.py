"""Reference answers the benchmark checks the program's outputs against.

Each function recomputes a result from the definitions in README.md with
a different method from the one in ``src/nims`` (a Python-int bitset for
reachability, a 3^N enumeration for small sequences, closed-form
tolerances), so a wrong result in the program cannot hide behind the same
wrong result here.  Nothing here imports ``nims``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import product


def tolerances(bits) -> list[int | None]:
    """t_n = max(0, a_n - ceil(a_{n+1}/3)); the last bit has none."""
    out: list[int | None] = [max(0, a - -(-b // 3)) for a, b in zip(bits, bits[1:])]
    return out + [None]


def capable(bits) -> bool:
    """Positivity and the upper chain a_n <= 3*a_{n-1}."""
    return all(a >= 1 for a in bits) and all(b <= 3 * a for a, b in zip(bits, bits[1:]))


def strict(bits) -> bool:
    """Capable, plus a_{n+1} > 3*a_{n-1} and growth of the final pair."""
    lower = all(c > 3 * a for a, c in zip(bits, bits[2:]))
    return capable(bits) and lower and (len(bits) < 2 or bits[-1] > bits[-2])


def intervals(bits, radius: int = 0) -> tuple[tuple[int, int], ...]:
    """Reachable signed-digit sums as closed intervals, widened by radius.

    The set is one Python int: bit v + total stands for the sum v.
    """
    total = sum(bits)
    reach = 1 << total
    for a in bits:
        if a:
            reach |= (reach << a) | (reach >> a)
    out: list[tuple[int, int]] = []
    for run in re.finditer("1+", format(reach, "b")[::-1]):
        lo, hi = run.start() - total - radius, run.end() - 1 - total + radius
        if out and lo <= out[-1][1] + 1:
            out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return tuple(out)


def gaps(bits) -> tuple[tuple[int, int], ...]:
    """Targets in [-A_N, A_N] no digit vector reaches (residual < a_0 allowed)."""
    total = sum(bits)
    out = []
    cursor = -total
    for lo, hi in intervals(bits, max(bits[0] - 1, 0)):
        if lo > total:
            break
        if lo > cursor:
            out.append((cursor, lo - 1))
        cursor = max(cursor, hi + 1)
    if cursor <= total:
        out.append((cursor, total))
    return tuple(out)


def brute_complete(bits) -> bool:
    """Every m in [-A_N, A_N] within a_0 - 1 of some digit sum, by 3^N enumeration."""
    total = sum(bits)
    sums = {sum(s * a for s, a in zip(signs, bits)) for signs in product((-1, 0, 1), repeat=len(bits))}
    r = bits[0] - 1
    return all(any(m + d in sums for d in range(-r, r + 1)) for m in range(-total, total + 1))


def count_strict(a0: int, depth: int, max_bit: int) -> int:
    """Number of strictly valid sequences enumerate_nims should list."""

    def grow(prev2: int | None, prev: int, left: int) -> int:
        if left == 0:
            return 1
        low = 3 * prev2 + 1 if prev2 is not None else prev + 1
        return sum(grow(prev, nxt, left - 1) for nxt in range(low, min(3 * prev, max_bit) + 1))

    return grow(None, a0, depth - 1) if a0 <= max_bit else 0


def standard(kind: str, msb_size: int, length: int) -> tuple[int, ...]:
    """Doubling or tripling from 1 while below msb_size, then banks."""
    ratio = {"binary": 2, "ternary": 3}[kind]
    bits = [1]
    while len(bits) < length:
        bits.append(bits[-1] * ratio if bits[-1] * ratio < msb_size else msb_size)
    return tuple(bits)


def column(bits, msb_size: int) -> tuple[int, Fraction | None, Fraction | None]:
    """Bits below the bank size, and min/mean growth ratio among them."""
    leading = next((i for i, a in enumerate(bits) if a >= msb_size), len(bits))
    ratios = [Fraction(b, a) for a, b in zip(bits[:leading], bits[1:leading])]
    if not ratios:
        return leading, None, None
    return leading, min(ratios), sum(ratios, Fraction(0)) / len(ratios)


def digits_ok(signs, beta: int, m: int, bits) -> bool:
    """Digits in {-1, 0, +1} that, with the residual, sum to m."""
    return (
        len(signs) == len(bits)
        and all(s in (-1, 0, 1) for s in signs)
        and abs(beta) < max(bits[0], 1)
        and sum(s * a for s, a in zip(signs, bits)) + beta == m
    )
