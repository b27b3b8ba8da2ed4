"""Core sequence types, chain validation, and the reachability oracle.

A bit sequence a_0..a_N is "complete capable" when every bit obeys the
upper chain a_n <= 3*a_{n-1}; any integer in [-A_N, A_N] is then a signed
digit sum over the bits (with a residual smaller than a_0 when a_0 >= 2).
Strict validity additionally requires the lower chain a_{n+1} > 3*a_{n-1},
which forces the fastest growth that still leaves every target reachable.
All arithmetic here is exact integer or rational; comparisons against
thirds are done by cross multiplication, never division.
"""

from __future__ import annotations

import csv
import functools
import json
from typing import TYPE_CHECKING, NamedTuple

from .errors import InvalidInput, ParseError, RangeError

if TYPE_CHECKING:
    from fractions import Fraction
    from pathlib import Path

DEFAULT_ORACLE_CAP = 10**7
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
    and iteration give the bits. Two private slots hold tables built on
    first use: _descent the greedy's per-bit table, once
    representation._descent has built it, and _tolerances the one table
    of every bit's tolerance, once fault_tolerance._tolerance_table has
    built it. Neither is a field, so equality, hash, repr and pickling
    leave them out and a copy starts without them.
    """

    __slots__ = ("bits", "_descent", "_tolerances")
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


def _unchecked_sequence(bits: tuple[int, ...]) -> Sequence:
    """A Sequence of bits stored as given, without the constructor's checks.

    Only for a tuple of plain nonnegative ints, at least one, that the
    caller formed itself: enumerate_nims, which makes thousands, and
    fault_tolerance.apply_defects, whose bits are a checked Sequence's
    minus the counts DefectMap converted, none above its bit.
    """
    seq = object.__new__(Sequence)
    object.__setattr__(seq, "bits", bits)
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


class PrefixSums(NamedTuple):
    """Running totals and the digit-selection thresholds derived from them. A NamedTuple.

    totals[n] is the largest magnitude expressible by bits 0..n.
    thresholds[n] adds the first bit on top: the magnitude at which the
    representation loop must activate bit n+1.
    """

    totals: tuple[int, ...]
    thresholds: tuple[int, ...]


def _chain_capable(bits: tuple[int, ...]) -> bool:
    """Positivity plus the upper chain a_n <= 3*a_{n-1}: completeness capability.

    The one statement of the rule. Gates that need only the verdict test
    it directly and call _refusal only to word a refusal. A plain loop:
    validate runs this on every sequence, and a generator under all()
    costs it about 1 us more on short strict sequences.
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
    reads either.
    """
    return ValidationReport(_chain_capable(seq.bits), seq.bits)


def _violations(bits: tuple[int, ...]) -> tuple[Violation, ...]:
    """Every rule the bits break, worded: the one wording of a violation and of the lower chain."""
    last = len(bits) - 1
    violations: list[Violation] = []

    for n, a in enumerate(bits):
        if a < 1:
            violations.append(
                Violation(POSITIVITY, n, f"bit {n} must hold at least one junction, got {a}", (a,))
            )

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
    # Interior lower-chain constraints force a_n < a_{n+1}; only the final
    # pair needs growth checked explicitly.
    if last >= 1 and bits[last] <= bits[last - 1]:
        violations.append(
            Violation(
                LOWER,
                last,
                f"bit {last} is {bits[last]}, not above bit {last - 1} ({bits[last - 1]})",
                (bits[last], bits[last - 1]),
            )
        )
    return tuple(violations)


def _refusal(what: str, bits: tuple[int, ...]) -> str:
    """The one wording of a capability refusal: what, then every violation of the bits."""
    return f"{what} is not completeness capable: " + "; ".join(v.message for v in _violations(bits))


def prefix_sums(seq: Sequence) -> PrefixSums:
    totals: list[int] = []
    run = 0
    for a in seq.bits:
        run += a
        if run > TOTAL_LIMIT:
            raise RangeError(f"sequence total exceeds {TOTAL_LIMIT}")
        totals.append(run)
    a0 = seq.bits[0]
    return PrefixSums(tuple(totals), tuple(t + a0 for t in totals))


def segmentation_efficiency(seq: Sequence) -> tuple[Fraction, ...]:
    """Exact consecutive-bit ratios a_{n+1}/a_n."""
    from fractions import Fraction

    if len(seq) < 2:
        raise InvalidInput("efficiency needs at least two bits")
    if any(a < 1 for a in seq.bits):
        raise InvalidInput("efficiency undefined for non-positive bits")
    return tuple(Fraction(seq.bits[n + 1], seq.bits[n]) for n in range(len(seq) - 1))


class SumSet(_Frozen):
    """Exact reachable-sum set, stored as one Python int used as a bitset.

    Bit v + span + beta_radius of mask is set exactly when the sum v is
    reachable: the lowest set bit is the sum -(span + beta_radius), so the
    set takes about 2*(span + a_0) bits. Membership, counting, coverage
    and gaps are shift-and-mask tests on mask; the sorted disjoint closed
    intervals are built only when first read. Built with mask None, the set
    is the one run of every sum from -(span + beta_radius) to span +
    beta_radius, held by its width: mask is built the first time something
    reads it, so equality, hash, repr and pickling are those of the set
    built from the explicit mask. Only intervals and
    fault_tolerance._window_gaps answer from the width without it. A class
    with an instance __dict__, which the cached properties need; the repr
    leaves out mask.
    """

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
        return tuple((lo - offset, hi - offset) for lo, hi in _runs(self.mask))

    def covers(self, lo: int, hi: int) -> bool:
        if lo > hi:
            return True
        i = lo + self.span + self.beta_radius
        if i < 0 or hi + self.span + self.beta_radius >= self.mask.bit_length():
            return False
        full = (1 << (hi - lo + 1)) - 1
        return (self.mask >> i) & full == full

    def gaps(self, lo: int, hi: int) -> tuple[tuple[int, int], ...]:
        """Missing integers inside [lo, hi], as intervals."""
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
        full = (1 << (last - first + 1)) - 1
        # the complement within the window: XOR with full costs less than
        # ~, which builds a negative int of the whole shifted mask first
        missing = (self.mask >> first) & full ^ full
        out = [(glo + first - offset, ghi + first - offset) for glo, ghi in _runs(missing)]
        if lo + offset < first:
            out.insert(0, (lo, first - 1 - offset))
        if hi + offset > last:
            out.append((last + 1 - offset, hi))
        return tuple(out)


def _runs(x: int) -> list[tuple[int, int]]:
    """Index ranges (inclusive) of the runs of set bits in x, lowest first.

    Walks the binary digits, least significant first, with str.find: the
    start of each run is the next "1", its end the next "0". find skips a
    long run or gap far faster than a regex steps through it; on thousands
    of short runs the two cost about the same.
    """
    digits = format(x, "b")[::-1]
    find = digits.find
    out = []
    start = find("1")
    while start >= 0:
        stop = find("0", start)
        if stop < 0:
            stop = len(digits)
        out.append((start, stop - 1))
        start = find("1", stop)
    return out


def _reach(bits: tuple[int, ...], a0_offset: bool, cap: int) -> tuple[int | None, int, int]:
    """The oracle kernel: (mask, total, radius) of the reachable sums, mask None while one run.

    Raises RangeError when the total exceeds the cap. The three are a
    SumSet's mask, span and beta_radius; None stands for the one run of all
    2*(total + radius) + 1 sums from -(total + radius) up, which SumSet
    holds by its width.
    """
    total = sum(bits)
    if total > cap:
        raise RangeError(f"sequence total {total} exceeds oracle cap {cap}")
    radius = max(bits[0] - 1, 0) if a0_offset else 0
    width = 2 * radius + 1
    for n, a in enumerate(bits):
        if a > width:
            break
        width += 2 * a
    else:
        return None, total, radius

    reach = (1 << width) - 1
    for a in bits[n:]:
        reach |= (reach | (reach << a)) << a
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
    nothing shifts right. The final set takes about 2*(total + a_0) bits.
    The loop is _reach, the kernel is_complete shares. A set that stays one
    run is returned held by its width, with no int built until something
    reads its mask.

    Raises RangeError when the sequence total exceeds the cap.
    """
    return SumSet(*_reach(seq.bits, a0_offset, cap))


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
    mask, total, radius = _reach(seq.bits, True, cap)
    if mask is None:
        return True
    full = (1 << 2 * total + 1) - 1
    return (mask >> radius) & full == full


def enumerate_nims(
    a0: int,
    depth: int,
    max_bit: int,
    *,
    max_results: int = 1_000_000,
) -> list[Sequence]:
    """All strictly valid sequences of the given depth, lexicographically.

    Bits are bounded by max_bit. Raises RangeError when the enumeration
    would exceed max_results sequences. A bit joins a prefix only when the
    prefix can still be completed within max_bit, so every prefix the
    search visits leads to a result and the time is bounded by the results
    (at most max_results + 1) times the depth. The search keeps its own
    stack, so a deep enumeration does not recurse.

    Every argument must be a non-bool int (else InvalidInput), checked once
    here: the search then forms only plain positive ints, so each result is
    built by _unchecked_sequence, without Sequence's per-bit checks.
    """
    for name, value in (("a0", a0), ("depth", depth), ("max_bit", max_bit), ("max_results", max_results)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise InvalidInput(f"{name} must be an integer, got {value!r}")
    a0 = int(a0)  # an int subclass is stored as a plain int, as Sequence does
    if a0 < 1 or depth < 1 or max_bit < 1:
        raise InvalidInput("a0, depth, and max_bit must all be positive")
    if max_results < 0:
        raise InvalidInput(f"max_results must not be negative, got {max_results}")
    out: list[Sequence] = []
    if a0 > max_bit:
        return out
    # The smallest strict completion of a prefix takes 3 * (the bit two places
    # back) + 1 at each later bit. With r bits still to come after a new bit b
    # whose predecessor is p, its last bit is x -> 3x + 1 applied r/2 times to b
    # (r even) or (r + 1)/2 times to p (r odd). fits[h] is the largest bit that
    # h such steps keep within max_bit; below 1 no bit fits, nor with more steps.
    fits = [max_bit]
    while fits[-1] >= 1 and len(fits) <= depth // 2:
        fits.append((fits[-1] - 1) // 3)

    prefix = [a0]
    choices: list = []  # choices[j]: the bits still to try at position j + 1
    while True:
        if len(prefix) == depth:
            if len(out) >= max_results:
                raise RangeError(f"enumeration exceeds {max_results} sequences")
            out.append(_unchecked_sequence(tuple(prefix)))
            prefix.pop()
        else:
            # Lower bound: above 3*a_{k-2} for interior bits, simple growth for
            # the second bit. Upper bound: the upper chain, max_bit and a
            # completion within max_bit.
            k, p = len(prefix), prefix[-1]
            low = 3 * prefix[k - 2] + 1 if k >= 2 else p + 1
            after = depth - 1 - k
            fit = fits[min((after + 1) // 2, len(fits) - 1)]
            if after % 2 == 0:
                high = min(3 * p, fit)
            else:
                high = min(3 * p, max_bit) if p <= fit else 0
            choices.append(iter(range(low, high + 1)))
        while choices:
            nxt = next(choices[-1], None)
            if nxt is not None:
                prefix.append(nxt)
                break
            choices.pop()
            prefix.pop()
        else:
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
    """Parse a JSON file read by _read_text; text that is not JSON, or nests too deeply, raises InvalidInput."""
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
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
    raise InvalidInput(f"{what} must be an integer, got {value!r}")


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
