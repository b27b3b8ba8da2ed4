"""The Sequence, its chain verdict and gate, and its stored tables: the greedy's descent and the tolerances.

A bit sequence a_0..a_N is "complete capable" when every bit obeys the
upper chain a_n <= 3*a_{n-1}; any integer in [-A_N, A_N] is then a signed
digit sum over the bits (with a residual smaller than a_0 when a_0 >= 2).
Strict validity additionally requires the lower chain a_{n+1} > 3*a_{n-1},
which forces the fastest growth that still leaves every target reachable.
The chain is sufficient for completeness, not necessary: the reachability
oracle, which settles it, lives in oracle.py and reads nothing this
module stores on a Sequence. Beside the two tables stand their readers,
the tolerance report and the greedy's full-range sweep; then strict
enumeration, and the one bit-list parser, file reader, integer rule and
CSV writer. All arithmetic here is exact integer or rational;
comparisons against thirds are done by cross multiplication, never division.
"""

from __future__ import annotations

import csv
import functools
import json
from typing import TYPE_CHECKING, NamedTuple

from .errors import InvalidInput, InvalidSequence, ParseError, RangeError, fraction_text, int_text, repr_text

if TYPE_CHECKING:
    from fractions import Fraction
    from pathlib import Path

TOTAL_LIMIT = 2**62

UPPER = "UPPER"
LOWER = "LOWER"
POSITIVITY = "POSITIVITY"


class _Frozen:
    """The value semantics of a frozen dataclass, for a record that is not a tuple.

    A record is a small class of its own where a NamedTuple would do harm:
    it checks its input, caches a property, or leaves a field out of
    equality. _fields names the constructor's arguments in order. Equality
    (with a record of the same class only) and hash read _key, the fields
    unless a class leaves some out; the repr shows _shown, all fields
    unless a class names fewer. Every assignment and deletion is refused,
    so __init__ stores through object.__setattr__, and a pickled record is
    rebuilt by its constructor.
    """

    __slots__ = ()
    _fields: tuple[str, ...]
    _shown: tuple[str, ...] | None = None

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown or self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, tuple(getattr(self, name) for name in self._fields)


class Sequence(_Frozen):
    """Ordered junction counts, least significant bit first.

    Built from any iterable of non-bool integers, at least one, none
    negative; int subclasses are stored as plain ints. Not a tuple: len()
    and iteration give the bits. Three private slots, built and read in
    this module alone: _descent the greedy's per-bit table, once the
    function _descent has built it; _tolerances every bit's tolerance,
    once _tolerance_table has built it; and _report, the report validate
    returns, None until the first validate call stores it (enumerate_nims
    stores the strict report on each sequence it lists, and
    _capable_sequence a capable one on each it builds).
    Only bits is a field, so equality, hash, repr and pickling leave the
    three out: a copy starts without the tables and with _report None.
    _report is set by every constructor, never left unset, since validate
    reads it on every call and reading an unset slot raises, which costs
    about 0.4 us for the AttributeError it formats.
    """

    __module__ = "nims"

    __slots__ = ("bits", "_descent", "_tolerances", "_report")
    _fields = ("bits",)
    bits: tuple[int, ...]

    def __init__(self, bits: tuple[int, ...]) -> None:
        # one tuple first: the checks below must not use up a generator
        bits = tuple(bits or ())
        if not bits:
            raise InvalidInput("sequence must contain at least one bit")
        types = set(map(type, bits))
        if types != {int}:
            if any(not issubclass(t, int) or issubclass(t, bool) for t in types):
                raise InvalidInput("bits must be integers")
            bits = tuple(map(int, bits))  # int subclasses are stored as plain ints
        if min(bits) < 0:
            raise InvalidInput("bits must be nonnegative (zero models a dead bit)")
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "_report", None)

    @property
    def last_index(self) -> int:
        return len(self.bits) - 1

    @property
    def total(self) -> int:
        return sum(self.bits)

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self):
        return iter(self.bits)


def _require_type(name: str, value: object, kind: type) -> None:
    """Refuse a value that is not a kind: InvalidInput "<name> must be a(n) <kind>, got <value!r>".

    The one wording of a wrong-type refusal. validate, _descent, and the
    oracle's reachable_sums and is_complete, which run in timed loops,
    check seq only when their first read of it raises AttributeError; the
    oracle's cap rule, _check_cap, checks a cap.
    """
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOUaeiou" else "a"
        raise InvalidInput(f"{name} must be {article} {kind.__name__}, got {repr_text(value)}") from None


def _unchecked_sequence(bits: tuple[int, ...]) -> Sequence:
    """A Sequence of bits stored as given, without the constructor's checks.

    The caller's precondition: bits is a tuple of plain nonnegative ints,
    at least one, that it formed from values already checked, such as a
    Sequence's bits less counts none of which exceeds its bit, so the
    constructor's checks could never fire.
    """
    seq = object.__new__(Sequence)
    object.__setattr__(seq, "bits", bits)
    object.__setattr__(seq, "_report", None)
    return seq


def _capable_sequence(bits: tuple[int, ...]) -> Sequence:
    """_unchecked_sequence's Sequence, carrying the capable report from the start.

    The caller's precondition is _unchecked_sequence's, and more: its
    construction makes the bits positive and keeps each at most three
    times the one below, so validate would find them capable. The stored
    report says so at once, as enumerate_nims stores _STRICT_REPORT, and
    its strictness and violations are still worded from the bits when
    first read.
    """
    seq = _unchecked_sequence(bits)
    object.__setattr__(seq, "_report", ValidationReport(True, bits))
    return seq


class Violation(NamedTuple):
    """One broken constraint: which rule, which bit, and the values seen. A NamedTuple."""

    constraint: str
    index: int
    message: str
    observed: tuple[int, ...]


class ValidationReport(_Frozen):
    """The two verdicts of validate, and the violations behind them.

    complete_capable, the verdict every gate reads, is set when the report
    is made. The violation list is worded from the judged bits by
    _violations when first read, and strict_valid is read off it: true
    when it is empty. Equality, hash, repr and to_doc are those of a plain
    frozen dataclass of strict_valid, complete_capable and violations, so
    they read the list. A class with an instance __dict__, which the
    cached properties need.
    """

    __module__ = "nims"

    _fields = ("complete_capable", "_bits")
    _shown = ("strict_valid", "complete_capable", "violations")
    complete_capable: bool

    def __init__(self, complete_capable: bool, bits: tuple[int, ...]) -> None:
        object.__setattr__(self, "complete_capable", complete_capable)
        object.__setattr__(self, "_bits", bits)

    @functools.cached_property
    def strict_valid(self) -> bool:
        return not self.violations

    @functools.cached_property
    def violations(self) -> tuple[Violation, ...]:
        return _violations(self._bits)

    def _key(self) -> tuple:
        return (self.strict_valid, self.complete_capable, self.violations)

    def to_doc(self) -> dict:
        return {
            "strict_valid": self.strict_valid,
            "complete_capable": self.complete_capable,
            "violations": [{**v._asdict(), "observed": list(v.observed)} for v in self.violations],
        }


# The one report every sequence enumerate_nims lists carries in its _report
# slot. It judges no bits, which break no rule, so it equals, hashes, prints
# and pickles as the report of any strictly valid sequence.
_STRICT_REPORT = ValidationReport(True, ())


class PrefixSums(NamedTuple):
    """Running totals and the digit-selection thresholds derived from them. A NamedTuple.

    totals[n] is the largest magnitude expressible by bits 0..n.
    thresholds[n] adds the first bit on top: the magnitude at which the
    representation loop must activate bit n+1.
    """

    __module__ = "nims"

    totals: tuple[int, ...]
    thresholds: tuple[int, ...]


def _chain_capable(bits: tuple[int, ...]) -> bool:
    """Positivity plus the upper chain a_n <= 3*a_{n-1}: completeness capability.

    The one statement of the rule, read by validate (whose report the one
    gate, _require_capable, reads) and worst_case_scan's sharpness check.
    A plain loop: a generator under all() costs it about 1 us more on
    short strict sequences.
    """
    if min(bits) < 1:
        return False
    below = bits[0]
    for a in bits:
        if a > 3 * below:
            return False
        below = a
    return True


def validate(seq: Sequence) -> ValidationReport:
    """Check positivity plus both chain constraints; the report lists every violation.

    complete_capable needs positivity and the upper chain only, so a
    defective array that lost junctions can still be certified; it is
    _chain_capable's verdict, set at once. The lower chain (including
    growth of the final pair) is what strictness adds: strict_valid and
    the violation list are read off _violations when something first
    reads either. The first call stores the report in seq's _report slot
    and later calls return it, so each Sequence is walked once and worded
    at most once. A sequence enumerate_nims listed carries _STRICT_REPORT
    there from the start, as it is strictly valid by construction, and one
    _capable_sequence built carries a capable report.
    """
    try:
        report = seq._report
    except AttributeError:
        _require_type("seq", seq, Sequence)
        raise
    if report is None:
        report = ValidationReport(_chain_capable(seq.bits), seq.bits)
        object.__setattr__(seq, "_report", report)
    return report


def _violations(bits: tuple[int, ...]) -> tuple[Violation, ...]:
    """Every rule the bits break, worded: the one wording of a violation and of the lower chain."""
    last = len(bits) - 1
    violations: list[Violation] = []

    for n, a in enumerate(bits):
        if a < 1:
            violations.append(
                Violation(POSITIVITY, n, f"bit {n} must hold at least one junction, got {int_text(a)}", (a,))
            )

    for n in range(1, last + 1):
        if bits[n] > 3 * bits[n - 1]:
            violations.append(
                Violation(
                    UPPER,
                    n,
                    f"bit {n} is {int_text(bits[n])}, above three times bit {n - 1} ({int_text(bits[n - 1])})",
                    (bits[n], bits[n - 1]),
                )
            )

    for n in range(1, last):
        if bits[n + 1] <= 3 * bits[n - 1]:
            violations.append(
                Violation(
                    LOWER,
                    n + 1,
                    f"bit {n + 1} is {int_text(bits[n + 1])}, "
                    f"not above three times bit {n - 1} ({int_text(bits[n - 1])})",
                    (bits[n + 1], bits[n - 1]),
                )
            )
    # Interior lower-chain constraints force a_n < a_{n+1}; only the final
    # pair needs growth checked explicitly.
    if last >= 1 and bits[last] <= bits[last - 1]:
        violations.append(
            Violation(
                LOWER,
                last,
                f"bit {last} is {int_text(bits[last])}, not above bit {last - 1} ({int_text(bits[last - 1])})",
                (bits[last], bits[last - 1]),
            )
        )
    return tuple(violations)


def _require_capable(seq: Sequence, what: str = "sequence", error: type = InvalidSequence) -> None:
    """The one chain gate: error "<what> is not completeness capable: <reasons>" where validate says so.

    It reads the report validate stores on seq, so however often seq is
    refused, its chain is walked and worded once. The reasons are the
    POSITIVITY and UPPER violations, the rules the predicate tests; the
    lower chain is strictness, so it is left out.
    """
    report = validate(seq)
    if not report.complete_capable:
        reasons = "; ".join(v.message for v in report.violations if v.constraint != LOWER)
        raise error(f"{what} is not completeness capable: {reasons}")


def prefix_sums(seq: Sequence) -> PrefixSums:
    _require_type("seq", seq, Sequence)
    totals: list[int] = []
    run = 0
    for a in seq.bits:
        run += a
        if run > TOTAL_LIMIT:
            raise RangeError(f"sequence total exceeds {TOTAL_LIMIT}")
        totals.append(run)
    a0 = seq.bits[0]
    return PrefixSums(tuple(totals), tuple(t + a0 for t in totals))


def _descent(seq: Sequence) -> tuple:
    """The greedy's table for seq, built and stored on seq the first time: (bound, steps).

    The one place the table is built, read by representation.represent,
    represent_range_check and representation.plan. Building refuses a seq
    that is not a Sequence (_require_type), not capable (the chain gate,
    _require_capable, which reads seq's stored report) or whose total
    passes TOTAL_LIMIT (prefix_sums' RangeError) on every call, as a
    refusal stores no table; so each of the three readers refuses the
    limit before any test of its own on the bound.
    bound is A_N + a_0 - 1. steps holds one row (n, a_n, threshold,
    -threshold, slack, -slack) per bit from the top down to bit 0,
    threshold and slack being the running total below bit n plus a_0 and
    plus a_0 - 1: bit 0's row is (0, a_0, a_0, -a_0, a_0 - 1, 1 - a_0),
    its slack the residual bound. The negated columns are stored so that
    the kernel representation._greedy negates nothing.
    """
    try:
        return seq._descent
    except AttributeError:  # an unset slot: not built yet, or not a Sequence
        _require_type("seq", seq, Sequence)
    _require_capable(seq)
    totals, thresholds = prefix_sums(seq)
    bits = seq.bits
    a0 = bits[0]
    rows = []
    for n in range(len(bits) - 1, 0, -1):
        t, slack = thresholds[n - 1], totals[n - 1] + a0 - 1
        rows.append((n, bits[n], t, -t, slack, -slack))
    table = (totals[-1] + a0 - 1, (*rows, (0, a0, a0, -a0, a0 - 1, 1 - a0)))
    object.__setattr__(seq, "_descent", table)
    return table


class RangeCheckReport(NamedTuple):
    """A full-range sweep: how many targets it round-tripped and each failure. A NamedTuple."""

    __module__ = "nims"

    checked: int
    failures: tuple[tuple[int, str], ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def represent_range_check(seq: Sequence) -> RangeCheckReport:
    """Round-trip every representable target, from -bound to bound of the table _descent keeps on seq.

    Sweeps windows of remainders instead of one target at a time. This is
    exact because the greedy's remaining steps depend only on the bit and
    the current remainder, not on the target that produced it, and every
    step moves a whole piece of a window by one shift. Starting from the
    single window [-bound, bound], each row of the table, as
    representation's greedy reads them, splits each window at its
    threshold t and its stored lower threshold -t: first r >= t (shift
    -a), then r <= -t (shift +a), and the rest, from -t + 1 to t - 1,
    keeps r. Each piece, translated by its shift, is again a window;
    equal windows of one step are kept once. A backward pass carries the
    final remainders outside bit 0's slack and its negated slack up to
    the targets m that reach them, each worded with bit 0's a, so
    failures come out as (m, message) in ascending m. Every bound is read
    from the rows, none from seq.bits. The device's 184,199
    targets share 190 windows; the loop is iterative, so thousands of bits
    do not recurse. The cost follows the windows and the bits, not the
    total, so the sweep takes no oracle cap: (10**8, 3*10**8, 9*10**8)
    sweeps its 2,799,999,999 targets in a few windows. Building the table
    refuses a total past TOTAL_LIMIT.
    """
    bound, steps = _descent(seq)

    # levels[k] maps each window after step k to the (parent window, shift) pieces landing on it
    levels: list[dict] = []
    landed: dict = {(-bound, bound): []}
    for _, a, t, neg_t, _, _ in steps:
        windows, landed = landed, {}
        for lo, hi in windows:
            for plo, phi, shift in (
                (max(lo, t), hi, -a),
                (lo, min(hi, t - 1, neg_t), a),
                (max(lo, neg_t + 1), min(hi, t - 1), 0),
            ):
                if plo <= phi:
                    landed.setdefault((plo + shift, phi + shift), []).append(((lo, hi), shift))
        levels.append(landed)

    # (window, lo, hi, offset): remainders lo..hi of window end with residual r + offset
    _, a0, _, _, slack, neg_slack = steps[-1]
    failing = [
        (window, flo, fhi, 0)
        for window in landed
        for flo, fhi in ((window[0], min(window[1], neg_slack - 1)), (max(window[0], slack + 1), window[1]))
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


def _tolerance_table(seq: Sequence) -> tuple[int | None, ...]:
    """t_n = max(0, a_n - ceil(a_{n+1}/3)) for every bit of seq, None for the last.

    The one statement of the tolerance rule, in integers. The first reader
    of a Sequence object builds the table into its private _tolerances
    slot; every later reader of that object reuses it.
    """
    try:
        return seq._tolerances
    except AttributeError:  # an unset slot: not built yet
        bits = seq.bits
        table = (*[t if (t := a - (b + 2) // 3) > 0 else 0 for a, b in zip(bits, bits[1:])], None)
        object.__setattr__(seq, "_tolerances", table)
        return table


class BitTolerance(NamedTuple):
    """One bit's row of a tolerance report. A NamedTuple."""

    index: int
    nominal: int
    tolerance: int | None
    proportion: Fraction | None
    last_bit: bool

    @property
    def proportion_text(self) -> str | None:
        """The proportion as its str, None for none; RangeError where it is too long to write."""
        return None if self.proportion is None else fraction_text("proportion", self.proportion)


class ToleranceReport(NamedTuple):
    """Every bit's tolerance, least significant first. A NamedTuple."""

    __module__ = "nims"

    entries: tuple[BitTolerance, ...]

    # the one statement of an entry's output fields, in BitTolerance's field order
    COLUMNS = ("bit", "nominal", "tolerance", "proportion")

    def to_csv(self) -> str:
        return csv_rows([self.COLUMNS, *((*e[:3], e.proportion_text) for e in self.entries)])

    def to_doc(self) -> dict:
        """Each entry's COLUMNS, the proportion as its str, then last_bit, which the CSV leaves out."""
        return {
            "entries": [
                {**dict(zip(self.COLUMNS, (*e[:3], e.proportion_text))), "last_bit": e.last_bit}
                for e in self.entries
            ]
        }


# The most bit pairs whose proportions _proportion keeps. Designed layouts
# share their chains' and banks' pairs, so a few hundred recent pairs serve
# most lookups; a layout of many distinct pairs evicts the oldest.
PROPORTION_PAIRS = 256


@functools.lru_cache(maxsize=PROPORTION_PAIRS)
def _proportion(a: int, b: int) -> Fraction:
    """The fault proportion of bit a below bit b, built once per pair for the last PROPORTION_PAIRS pairs.

    (3a - b)/(3a) where 3a > b; every clamped pair (b >= 3a, a dead bit a
    included) gets the one Fraction(0) of _fraction_and_zero.
    """
    fraction, zero = _fraction_and_zero()
    return fraction(3 * a - b, 3 * a) if 3 * a > b else zero


@functools.cache
def _fraction_and_zero() -> tuple[type[Fraction], Fraction]:
    """The Fraction class and the one Fraction(0) every clamped pair's proportion is.

    fractions is imported here, once, on the first proportion built, so
    validate, represent and plan never load it.
    """
    from fractions import Fraction

    return Fraction, Fraction(0)


def tolerance_report(seq: Sequence) -> ToleranceReport:
    """Tolerance and fault proportion for every bit.

    The proportion is the exact fraction of bit n that may fail,
    1 - a_{n+1}/(3*a_n), clamped at 0 below (and 0 for a dead bit n);
    it is 1 only when bit n + 1 is dead. The last bit is reported with
    no tolerance bound: removing its junctions only reduces range, never
    completeness of what remains. seq must be a Sequence, else InvalidInput.

    Each proportion comes from _proportion, which builds a pair's Fraction
    once per process while the pair stays among its last PROPORTION_PAIRS,
    and gives every clamped pair one shared Fraction(0). So the equal banks
    of a designed layout, whose pairs (a, a) all give 2/3, hold one
    Fraction between them, and so do the pairs that designs share.
    Each entry is built by tuple.__new__ from its five fields, without the
    NamedTuple's own Python-level __new__.
    """
    _require_type("seq", seq, Sequence)
    bits = seq.bits
    new = tuple.__new__
    entries = [
        new(BitTolerance, (n, a, t, _proportion(a, b), False))
        for n, (a, b, t) in enumerate(zip(bits, bits[1:], _tolerance_table(seq)))
    ]
    entries.append(new(BitTolerance, (seq.last_index, bits[-1], None, None, True)))
    return ToleranceReport(tuple(entries))


def enumerate_nims(
    a0: int,
    depth: int,
    max_bit: int,
    *,
    max_results: int = 1_000_000,
) -> list[Sequence]:
    """All strictly valid sequences of the given depth, lexicographically.

    Bits are bounded by max_bit. Raises RangeError when the enumeration
    would exceed max_results sequences. The search goes by levels, as the
    paper's completeness proof does: level k holds every strict prefix of
    k + 1 bits, in order, and each is extended by the run of bits from
    3*a_{k-2} + 1 (a_0 + 1 at k = 1) up to 3*a_{k-1}, cut where the
    prefix could no longer be completed within max_bit. So every prefix
    past the first leads to a result, and no level holds more prefixes
    than the results: a run that would take a level past max_results is
    refused before it is built, and the search stops at the first empty
    level, however large depth is. The time is bounded by the prefixes
    times the depth, plus about 0.55 us per result over batches of a few
    thousand, and about 0.65 us at the 123,633 results of (1, 6, 500), a
    third of it the cyclic collector's passes over the growing lists
    (CPython 3.11.7, 2-core x86).

    Every argument must be a non-bool int (else InvalidInput), checked once
    here: the search then forms only plain positive ints, so each result is
    built by two slot stores, its bits and _STRICT_REPORT, without
    Sequence's per-bit checks. Its bounds are the lower and upper chain, so
    every result is strictly valid, and validate returns the stored report.
    """
    for name, value in (("a0", a0), ("depth", depth), ("max_bit", max_bit), ("max_results", max_results)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise InvalidInput(f"{name} must be an integer, got {repr_text(value)}")
    a0 = int(a0)  # an int subclass is stored as a plain int, as Sequence does
    if a0 < 1 or depth < 1 or max_bit < 1:
        raise InvalidInput("a0, depth, and max_bit must all be positive")
    if max_results < 0:
        raise InvalidInput(f"max_results must not be negative, got {int_text(max_results)}")
    if a0 > max_bit:
        return []
    # The smallest strict completion of a prefix takes 3 * (the bit two places
    # back) + 1 at each later bit. With r bits still to come after a new bit b
    # whose predecessor is p, its last bit is x -> 3x + 1 applied r/2 times to b
    # (r even) or (r + 1)/2 times to p (r odd). fits[h] is the largest bit that
    # h such steps keep within max_bit; below 1 no bit fits, nor with more steps.
    fits = [max_bit]
    while fits[-1] >= 1 and len(fits) <= depth // 2:
        fits.append((fits[-1] - 1) // 3)

    level = [(a0,)]
    for k in range(1, depth):
        # Bit k lies above 3*a_{k-2} (above a_0 at k = 1) and at most 3*a_{k-1};
        # it must fit when an even number of bits is still to come, else its
        # predecessor must, and it stays within max_bit.
        after = depth - 1 - k
        fit = fits[min((after + 1) // 2, len(fits) - 1)]
        top, most = (max_bit, fit) if after % 2 else (fit, max_bit)
        grown: list[tuple[int, ...]] = []
        for head in level:
            p = head[-1]
            if p > most:
                continue
            low = 3 * head[-2] + 1 if k > 1 else p + 1
            high = min(3 * p, top)
            # every prefix leads to a result, so a level past max_results is refused before it is built
            if len(grown) + high - low + 1 > max_results:
                raise RangeError(f"enumeration exceeds {max_results} sequences")
            grown += [head + (b,) for b in range(low, high + 1)]
        level = grown
        if not level:
            return []
    if len(level) > max_results:  # depth 1: the one sequence, which no slice counted
        raise RangeError(f"enumeration exceeds {max_results} sequences")
    out: list[Sequence] = []
    new, append = object.__new__, out.append
    set_bits, set_report = Sequence.bits.__set__, Sequence._report.__set__
    for bits in level:
        seq = new(Sequence)
        set_bits(seq, bits)
        set_report(seq, _STRICT_REPORT)
        append(seq)
    return out


def parse_bits(text: str) -> Sequence:
    """Parse a comma-separated bit list like '1,3,8'."""
    try:
        bits = tuple(int(part.strip()) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise InvalidInput(f"bad bit list {text!r}: {exc}") from exc
    if not bits:
        raise InvalidInput("empty bit list")
    return Sequence(bits)


def _read_text(path: str | Path) -> str:
    """The one file reader: UTF-8 text, or ParseError "cannot read <path>: ..." for any failure."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise ParseError(f"cannot read {path}: {exc}") from exc


def read_json(path: str | Path) -> object:
    """Parse a JSON file read by _read_text; text that is not JSON, or nests too deeply, raises InvalidInput.

    ValueError covers JSONDecodeError and the int-string ValueError of an
    integer with more digits than sys.get_int_max_str_digits() allows. An
    object that repeats a key is refused too, where json would keep the
    last value and drop the others unseen.
    """
    text = _read_text(path)

    def unique(pairs: list[tuple[str, object]]) -> dict:
        doc = dict(pairs)
        if len(doc) < len(pairs):  # some key repeats: name the first that does
            seen: set[str] = set()
            for key, _ in pairs:
                if key in seen:
                    raise InvalidInput(f"{path}: key {key!r} is repeated in one object")
                seen.add(key)
        return doc

    try:
        return json.loads(text, object_pairs_hook=unique)
    except ValueError as exc:
        raise InvalidInput(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InvalidInput(f"{path}: JSON nested too deeply to parse") from exc


def _integer(what: str, value: object) -> int:
    """The one rule for outside integers: a non-bool int or a string int() parses, else InvalidInput."""
    if isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool)):
        try:
            return int(value)
        except ValueError:
            pass
    raise InvalidInput(f"{what} must be an integer, got {repr_text(value)}")


class _CsvLines(list):
    r"""The lines the csv module's writer writes into it: one write per row, its \r\n ending cut to \n."""

    def write(self, line: str) -> None:
        self.append(line[:-2] + "\n")


def csv_rows(rows: list[list[object]]) -> str:
    r"""CSV text of the rows, each ended by \n; None is written as an empty field.

    The one CSV writer. Rows are written ending in \r\n, then cut to \n,
    since the csv module quotes a field for the characters of its line
    terminator (with \n alone, Pythons before 3.13 leave \r bare): a
    field holding \r or \n is quoted on every Python and reads back whole.
    """
    lines = _CsvLines()
    csv.writer(lines, lineterminator="\r\n").writerows(rows)
    return "".join(lines)


def sequence_from_file(path: str | Path) -> Sequence:
    """Load a sequence document: {"bits": [integers]}."""
    doc = read_json(path)
    if not isinstance(doc, dict) or "bits" not in doc:
        raise InvalidInput(f"{path}: expected an object with a 'bits' list")
    bits = doc["bits"]
    if not isinstance(bits, list) or not all(isinstance(b, int) and not isinstance(b, bool) for b in bits):
        raise InvalidInput(f"{path}: 'bits' must be a list of integers")
    return Sequence(tuple(bits))
