"""The reachability oracle: the exact set of signed digit sums, and the gaps in it.

The chain a_n <= 3*a_{n-1} certifies completeness; it is sufficient, not
necessary, and only the sums themselves settle it. This module computes
them, reading a Sequence's bits and nothing the chain check stores: from
sequence it imports only the Sequence, the record base and the type
refusal, so it cannot read the chain verdict. The oracle-independence row
of tests/test_structure.py holds it to those imports, and to naming no
part of the chain certificate. The cap on a total the oracle builds a set
for, and the one rule that refuses a cap or a total past it, are here.
"""

from __future__ import annotations

import functools
from itertools import groupby

from .errors import InvalidInput, RangeError, int_text
from .sequence import Sequence, _Frozen, _require_type

# the largest sequence total the oracle builds a set for, unless a caller passes its own cap
DEFAULT_ORACLE_CAP = 10**7


def _check_cap(total: int, cap: int) -> None:
    """The one oracle-cap rule: InvalidInput for a bool, a non-int or a negative cap, RangeError for a total above it.

    The oracle kernel calls it only for a cap whose class is not int or
    that the total exceeds, so a plain int cap costs one class test and
    one comparison; worst_case_scan calls it once per scan, and the CLI
    once per --cap or NIMS_ORACLE_CAP value, with a total of 0. A float
    cap (NaN, inf, 1e300, 5.0) is refused, never compared, and so is a
    bool, as the integer rule refuses one. A negative cap is tested for
    only once the total exceeds it, which every total does, so the test
    costs an accepted cap nothing. An int too long for str is worded by
    its digit count. This is the only module that words these
    refusals: the cap-home row of tests/test_structure.py checks it.
    """
    if isinstance(cap, bool):
        raise InvalidInput(f"cap must be an int, got {cap}")
    _require_type("cap", cap, int)
    if total > cap:
        if cap < 0:
            raise InvalidInput(f"oracle cap must not be negative, got {int_text(cap)}")
        raise RangeError(f"sequence total {int_text(total)} exceeds oracle cap {int_text(cap)}")


class SumSet(_Frozen):
    """Exact reachable-sum set, stored as one Python int used as a bitset.

    Bit v + span + beta_radius of mask is set exactly when the sum v is
    reachable: the lowest set bit is the sum -(span + beta_radius), so the
    set takes about 2*(span + a_0) bits. Membership, counting and coverage
    are shift-and-mask tests on mask. Gaps, and the sorted disjoint closed
    intervals built only when first read, are listed by _runs, which reads
    the int as bytes and decodes only the bytes where a run starts or ends.
    Built with mask None, the set is the one run of every sum from
    -(span + beta_radius) to span + beta_radius, held by its width: mask
    is built the first time something reads it, so equality, hash, repr
    and pickling are those of the set built from the explicit mask. Only
    intervals and _window_gaps answer from the width without it. A class
    with an instance __dict__, which the cached properties need; the repr
    leaves out mask.
    """

    __module__ = "nims"

    _fields = ("mask", "span", "beta_radius")
    _shown = ("span", "beta_radius")
    span: int
    beta_radius: int

    def __init__(self, mask: int | None, span: int, beta_radius: int) -> None:
        if mask is not None:
            object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "span", span)
        object.__setattr__(self, "beta_radius", beta_radius)

    @functools.cached_property
    def mask(self) -> int:
        """The bitset; for a set held by its width, its one run of ones, built on first read."""
        return (1 << 2 * (self.span + self.beta_radius) + 1) - 1

    @property
    def _one_run(self) -> bool:
        """True while the set is held by its width: one run whose mask is not built yet."""
        return "mask" not in self.__dict__

    def __contains__(self, value: int) -> bool:
        i = value + self.span + self.beta_radius
        return i >= 0 and (self.mask >> i) & 1 == 1

    @property
    def count(self) -> int:
        return self.mask.bit_count()

    @functools.cached_property
    def intervals(self) -> tuple[tuple[int, int], ...]:
        """The set as sorted disjoint closed intervals."""
        offset = self.span + self.beta_radius
        if self._one_run:
            return ((-offset, offset),)
        return tuple(_runs(self.mask, -offset))

    def covers(self, lo: int, hi: int) -> bool:
        if lo > hi:
            return True
        i = lo + self.span + self.beta_radius
        if i < 0 or hi + self.span + self.beta_radius >= self.mask.bit_length():
            return False
        full = (1 << (hi - lo + 1)) - 1
        return (self.mask >> i) & full == full

    def gaps(self, lo: int, hi: int) -> tuple[tuple[int, int], ...]:
        """Missing integers inside [lo, hi], as intervals.

        Listed from above the run of set bits the window opens with.
        """
        if lo > hi:
            return ()
        offset = self.span + self.beta_radius
        # Clip the window to the bits the mask can hold; everything outside
        # is missing. Bit 0 and the top bit (sums -/+ (span + beta_radius))
        # are always set, so a clipped-off end never touches an inner gap.
        first = max(lo + offset, 0)
        last = min(hi + offset, self.mask.bit_length() - 1)
        if first > last:
            return ((lo, hi),)
        # one carry finds the window's first gap: start is first when the
        # window opens on one, past last when no gap is inside
        window = self.mask >> first
        start = first + (window ^ (window + 1)).bit_length() - 1
        out = []
        if start <= last:
            full = (1 << (last - start + 1)) - 1
            # the complement within the window: XOR with full costs less than
            # ~, which builds a negative int of the whole shifted mask first
            out = _runs((self.mask >> start) & full ^ full, start - offset)
        if lo + offset < first:
            out.insert(0, (lo, first - 1 - offset))
        if hi + offset > last:
            out.append((last + 1 - offset, hi))
        return tuple(out)


# bytes.translate images for _runs: 1 where a byte holds a set bit, and 1
# where it holds a clear bit; bytes.find on them skips empty and full bytes
_HOLDS_ONE = b"\0" + b"\1" * 255
_HOLDS_ZERO = b"\1" * 255 + b"\0"


@functools.cache
def _byte_tables() -> tuple[list[tuple[tuple[tuple[int, int], ...], int | None]], bytes]:
    """The two 256-entry tables _runs decodes bytes with, built on first use.

    inner[b] is (the runs of set bits of byte b that end below bit 7, as
    inclusive (lo, hi) pairs lowest first; the start of the run through bit
    7, or None). low[b] is the trailing ones of b: its set bits from bit 0
    up to its lowest clear bit.
    """
    inner = []
    for b in range(256):
        closed, start = [], None
        for bit in range(8):
            if b >> bit & 1:
                if start is None:
                    start = bit
            elif start is not None:
                closed.append((start, bit - 1))
                start = None
        inner.append((tuple(closed), start))
    return inner, bytes((b ^ (b + 1)).bit_length() - 1 for b in range(256))


def _runs(x: int, shift: int = 0) -> list[tuple[int, int]]:
    """Index ranges (inclusive) of the runs of set bits in x, lowest first, each end plus shift.

    Reads x as little-endian bytes. bytes.find on one translate image of
    them skips the empty bytes, and on a second image the full bytes inside
    a run, both at C speed; only the bytes where a run starts or ends are
    decoded, from the two tables of _byte_tables. The cost is one pass over
    the bytes plus one step per run, where the binary digit string of x
    would cost a character per bit before the first run is found. shift
    puts the runs in the caller's coordinates (a sum set's offset, a gap
    window's first bit) once per decoded byte, so no caller walks the list
    again to move it.
    """
    data = x.to_bytes((x.bit_length() + 7) // 8, "little")
    inner, low = _byte_tables()
    holds_one = data.translate(_HOLDS_ONE).find
    holds_zero = data.translate(_HOLDS_ZERO).find
    out = []
    append = out.append
    i = holds_one(1)
    while i >= 0:
        b = data[i]
        while b:
            closed, start = inner[b]
            base = (i << 3) + shift
            for lo, hi in closed:
                append((base + lo, base + hi))
            if start is None:
                break
            # the run through bit 7 goes on through the full bytes above it
            i = holds_zero(1, i + 1)
            if i < 0:
                append((base + start, (len(data) << 3) - 1 + shift))
                return out
            b = data[i]
            append((base + start, (i << 3) + low[b] - 1 + shift))
            b &= b + 1  # the rest of the byte, its trailing ones cleared
        i = holds_one(1, i + 1)
    return out


def _reach(bits: tuple[int, ...], a0_offset: bool, cap: int) -> tuple[int | None, int, int]:
    """The oracle kernel: (mask, total, radius) of the reachable sums, mask None while one run.

    The three are a SumSet's mask, span and beta_radius; None stands for
    the one run of all 2*(total + radius) + 1 sums from -(total + radius)
    up, which SumSet holds by its width. The walk over the one run is most
    of a small sequence's cost, so each bit costs one comparison and one
    integer add (CPython specialises int add, not int multiply): one
    iterator walks the bits, with no counter, and a set that stays one run
    reads its total off the width, (width - 1) / 2 - radius, with no sum()
    pass. From the bit that breaks the walk, the bits go into the bitset
    smallest first, which keeps the int narrow while the small bits go in
    and makes equal bits anywhere one run (the sums do not depend on the
    order). A run of k equal bits a adds the multiples -ka..ka at once, by
    doubling: S |= S << step*a, each step at most the multiples already
    held plus one, in about log2(2k + 1) shift-ors where one bit at a time
    takes 2k. On either path the total meets the cap before any bitset int
    is built: the one cap rule, _check_cap (RangeError past the cap,
    InvalidInput for a cap that is not an int, so NaN or inf is refused,
    never compared), runs only for a cap whose class is not int or that
    the total exceeds, so an int cap costs two tests.
    """
    a0 = bits[0]
    radius = a0 - 1 if a0_offset and a0 else 0
    width = radius + radius + 1
    rest = iter(bits)
    for a in rest:
        if a > width:
            break
        width += a + a
    else:
        total = (width - 1) // 2 - radius
        if cap.__class__ is not int or total > cap:
            _check_cap(total, cap)
        return None, total, radius

    total = sum(bits)
    if cap.__class__ is not int or total > cap:
        _check_cap(total, cap)
    reach = (1 << width) - 1
    for a, equal in groupby(sorted((a, *rest))):
        # k equal bits add the multiples 0, a, ..., 2ka: by doubling, each
        # step shifting by at most the multiples already held plus one
        most, held = 2 * len(tuple(equal)), 0
        while held < most:
            step = min(held + 1, most - held)
            reach |= reach << step * a
            held += step
    return reach, total, radius


def reachable_sums(seq: Sequence, a0_offset: bool = False, *, cap: int = DEFAULT_ORACLE_CAP) -> SumSet:
    """Bitset oracle over the digit set {-1, 0, +1}.

    Grows the exact set of expressible sums one bit at a time instead of
    enumerating all 3^(N+1) digit vectors. With a0_offset the sums are
    widened by the residual radius r = a_0 - 1, the fine adjustment
    available below the first bit; widening commutes with the digit sums,
    so it is applied first: the set starts as the run -r..r.

    While the set is one run of width ones, adding bit a keeps it one run
    exactly when a <= width, and then only the width grows, by 2a. This is
    a property of the set itself, not the chain rule (2, 7 with the
    residual is one run although 7 > 3*2). From the first bit that opens a
    gap, the set is one Python int: bit v + t stands for the sum v, where t
    is the radius plus the bits added so far, so adding bit a is
    S | S << a | S << 2a: the int is only as wide as the sums it holds and
    nothing shifts right. The bits from there on are added smallest first,
    and a run of k equal bits a adds the multiples 0, a, ..., 2ka at once,
    built by doubling: 5 shift-ors for the device's twelve 5,760-junction
    bits, and 10 for all 15 of its banks, against 14 in layout order. The
    final set takes about 2*(total + a_0) bits. The loop is _reach, the
    kernel is_complete shares. A set that stays one run is returned held
    by its width, with no int built until something reads its mask.

    Raises RangeError when the sequence total exceeds the cap, and
    InvalidInput when the cap is not an int, by the one cap rule.
    """
    try:
        bits = seq.bits
    except AttributeError:
        _require_type("seq", seq, Sequence)
        raise
    return SumSet(*_reach(bits, a0_offset, cap))


def is_complete(seq: Sequence, *, cap: int = DEFAULT_ORACLE_CAP) -> bool:
    """Oracle verdict: does the sequence cover every target in [-A_N, A_N]?

    Coverage is exact for a_0 = 1 and up to a residual below a_0 otherwise.
    The same as reachable_sums(seq, a0_offset=True, cap=cap).covers(-A_N,
    A_N), read off the oracle kernel _reach without building a SumSet:
    while the set is one run it is complete, and no int is built; otherwise
    one window test reads the 2*A_N + 1 bits above the radius (the mask's
    lowest bit is the sum -(A_N + radius)). Independent of the chain
    predicate.
    """
    try:
        bits = seq.bits
    except AttributeError:
        _require_type("seq", seq, Sequence)
        raise
    mask, total, radius = _reach(bits, True, cap)
    if mask is None:
        return True
    full = (1 << 2 * total + 1) - 1
    return (mask >> radius) & full == full


def _window_gaps(sums: SumSet) -> tuple[tuple[int, int], ...]:
    """The uncovered intervals inside [-span, span], listed from [1, span] and mirrored.

    Exact for any reachable set: it is symmetric about 0 (negating every
    digit negates the sum, and the residual widens both ways alike) and it
    holds 0 (all digits zero), so the gaps below 0 are the negated gaps
    above it and no gap crosses 0. A set held by its width is one run and
    has no gaps: it is answered without building its mask.
    """
    if sums._one_run:
        return ()
    upper = sums.gaps(1, sums.span)
    return (*[(-hi, -lo) for lo, hi in reversed(upper)], *upper)


def oracle_gaps(seq: Sequence, *, cap: int = DEFAULT_ORACLE_CAP) -> tuple[SumSet, tuple[tuple[int, int], ...]]:
    """Reachable sums plus the uncovered intervals inside [-A_N, A_N].

    The gaps are listed from half the window by _window_gaps, which reads
    only the set, never the chain.
    """
    sums = reachable_sums(seq, a0_offset=True, cap=cap)
    return sums, _window_gaps(sums)
