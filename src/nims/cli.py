"""Command-line interface.

Exit codes: 0 success; 1 when a command's check fails (validate, defects,
report); on an error, the `exit_code` of its type, as the `nims.errors`
docstring states. Output defaults to a human table; --format json or
--format csv switch to machine forms, which stay well formed even when a
command fails (an error document is emitted instead of partial output).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, NamedTuple

from . import sequence
from .errors import InvalidInput, NimsError

if TYPE_CHECKING:
    from . import designer, fault_tolerance

ENV_CAP = "NIMS_ORACLE_CAP"

EXIT_OK = 0
EXIT_VALIDATION = 1


class CliUsageError(NimsError):
    """argparse rejected the command line."""
    exit_code = 3


class _Parser(argparse.ArgumentParser):
    commands: dict[str, argparse.ArgumentParser]  # the subcommand parsers, by name

    def error(self, message: str):  # noqa: A003 - argparse API
        raise CliUsageError(message)


class CommandResult(NamedTuple):
    """What run returns: the exit code, the rendered text and its format. A NamedTuple."""

    exit_code: int
    text: str
    format: str  # noqa: A003 - the --format the text is rendered in


class Output(NamedTuple):
    """One command's result in every format; `run` picks the one shown. A NamedTuple.

    `doc` is the JSON document, or its text where the command fixes the
    notation. A (key, value) pair in `table` is printed aligned, a string as is.

    A command whose output grows with its input (enumerate, up to a
    hundred thousand rows) builds only the format asked for and leaves the
    other fields empty.
    """

    doc: dict | str
    csv: str
    table: list[tuple[str, object] | str]
    exit_code: int = EXIT_OK

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return (self.doc if isinstance(self.doc, str) else json.dumps(self.doc)) + "\n"
        if fmt == "csv":
            return self.csv
        width = max((len(line[0]) for line in self.table if isinstance(line, tuple)), default=0)
        return "".join(
            (f"{line[0].ljust(width)}  {line[1]}" if isinstance(line, tuple) else line) + "\n"
            for line in self.table
        )


def _names_file(value: str) -> bool:
    """Whether a --seq or --defects value is read as a file rather than parsed inline.

    A value holding "/" or ending in ".json" names a file even when none
    exists, so a mistyped path fails as "cannot read <path>"; inline bit
    and BIT:COUNT lists hold neither. os.path.exists never raises, so any
    other value that is not an existing path is parsed inline, however long.
    """
    return "/" in value or value.endswith(".json") or os.path.exists(value)


def _load_seq(value: str) -> sequence.Sequence:
    return sequence.sequence_from_file(value) if _names_file(value) else sequence.parse_bits(value)


def _load_defects(value: str) -> fault_tolerance.DefectMap:
    from . import fault_tolerance

    if _names_file(value):
        return fault_tolerance.DefectMap.from_file(value)
    missing = {}
    for part in filter(None, map(str.strip, value.split(","))):
        bit, colon, count = part.partition(":")
        if not colon:
            raise InvalidInput(f"inline defect {part!r} must be BIT:COUNT")
        missing[bit] = count
    return fault_tolerance.DefectMap(missing)


def _resolve_cap(args: argparse.Namespace) -> int:
    cap = args.cap
    if cap is None:
        env = os.environ.get(ENV_CAP)
        cap = sequence._integer(ENV_CAP, env) if env else sequence.DEFAULT_ORACLE_CAP
    if cap < 0:
        raise InvalidInput(f"oracle cap must not be negative, got {cap}")
    return cap


def _entry_row(entry: fault_tolerance.BitTolerance | fault_tolerance.ScanEntry, rest: str) -> str:
    """Table line of a tolerance or scan entry, `rest` after the shared columns."""
    tol = "range only" if entry.tolerance is None else str(entry.tolerance)
    return f"{entry.index:<4d} {entry.nominal:<8d} {tol:<10s} {rest}"


def _cmd_validate(args) -> Output:
    seq = _load_seq(args.seq)
    report = sequence.validate(seq)
    sums = sequence.prefix_sums(seq)
    return Output(
        {"bits": list(seq.bits), **report.to_doc(), "totals": list(sums.totals)},
        sequence.csv_rows(
            [["constraint", "bit", "message"]]
            + [[v.constraint, v.index, v.message] for v in report.violations]
        ),
        [
            ("bits", ",".join(map(str, seq.bits))),
            ("strict_valid", report.strict_valid),
            ("complete_capable", report.complete_capable),
            ("total", sums.totals[-1]),
        ]
        + [f"{v.constraint} at bit {v.index}: {v.message}" for v in report.violations],
        EXIT_OK if report.strict_valid else EXIT_VALIDATION,
    )


def _cmd_represent(args) -> Output:
    from . import representation

    rep = representation.represent(args.m, _load_seq(args.seq))
    return Output(
        rep.to_doc(),
        sequence.csv_rows(
            [["m", "beta", "signs"], [rep.target_m, rep.beta, " ".join(map(str, rep.signs))]]
        ),
        [
            ("m", rep.target_m),
            ("signs", " ".join(f"{s:+d}" if s else "0" for s in rep.signs)),
            ("beta", rep.beta),
            ("expressed", rep.expressed_m),
        ],
    )


def _cmd_tolerance(args) -> Output:
    from . import fault_tolerance

    seq = _load_seq(args.seq)
    report = fault_tolerance.tolerance_report(seq)
    rows = [_entry_row(e, "" if e.proportion is None else str(e.proportion)) for e in report.entries]
    return Output(
        {"bits": list(seq.bits), **report.to_doc()},
        report.to_csv(),
        ["  ".join(report.COLUMNS)] + rows,
    )


def _cmd_defects(args) -> Output:
    from . import fault_tolerance

    seq = _load_seq(args.seq)
    cap = _resolve_cap(args)
    if args.scan_budget is not None:
        scan = fault_tolerance.worst_case_scan(seq, args.scan_budget, cap=cap)
        return Output(
            scan.to_doc(),
            scan.to_csv(),
            [f"budget {scan.budget}", "  ".join(scan.COLUMNS)]
            + [_entry_row(e, f"{e.safe_up_to:<11d} {e.status}") for e in scan.entries],
        )

    if args.defects is None:
        raise InvalidInput("pass --defects or --scan-budget")
    defects = _load_defects(args.defects)
    defective, report = fault_tolerance.apply_defects(seq, defects)
    tolerated = fault_tolerance.within_tolerance(seq, defects)
    oracle_ok = None
    gaps: list[list[int]] = []
    if defective.total <= cap:
        _, gap_list = fault_tolerance.oracle_gaps(defective, cap=cap)
        oracle_ok = not gap_list
        gaps = [list(g) for g in gap_list[:20]]
    return Output(
        {
            "bits": list(seq.bits),
            "defects": defects.to_doc()["defects"],
            "defective_bits": list(defective.bits),
            "strict_valid": report.strict_valid,
            "complete_capable": report.complete_capable,
            "within_tolerance": tolerated,
            "oracle_complete": oracle_ok,
            "gaps_sample": gaps,
        },
        sequence.csv_rows(
            [["bit", "nominal", "defective"]]
            + [[n, a, b] for n, (a, b) in enumerate(zip(seq.bits, defective.bits))]
        ),
        [
            ("defective_bits", ",".join(map(str, defective.bits))),
            ("within_tolerance", tolerated),
            ("complete_capable", report.complete_capable),
            ("oracle_complete", oracle_ok),
        ],
        EXIT_OK if report.complete_capable else EXIT_VALIDATION,
    )


def _design_spec_from_args(args) -> designer.DesignSpec:
    from . import designer

    if args.spec:
        return designer.DesignSpec.from_file(args.spec)
    if args.a0 is None or args.msb_size is None or args.target_total is None:
        raise InvalidInput("pass --spec or all of --a0/--msb-size/--target-total")
    return designer.DesignSpec(
        a0=args.a0,
        msb_size=args.msb_size,
        target_total=args.target_total,
        min_tolerance=tuple(designer.ToleranceRule.from_text(raw) for raw in args.min_tolerance or ()),
        max_ratio=args.max_ratio or 3,
    )


def _cmd_design(args) -> Output:
    from . import designer

    result = designer.design(_design_spec_from_args(args))
    bits = result.sequence.bits
    return Output(
        result.to_doc(),
        sequence.csv_rows([["bit", "junctions"]] + [[n, a] for n, a in enumerate(bits)]),
        [("bits", ",".join(map(str, bits)))] + list(result.metadata.items()),
    )


def _cmd_plan(args) -> Output:
    from . import bias

    if args.device:
        from . import device

        rec = device.load_device(args.device)
        seq = rec.sequence()
        freq = args.freq if args.freq is not None else rec.metadata.frequency_hz
    else:
        if not args.seq:
            raise InvalidInput("pass --device or --seq")
        seq = _load_seq(args.seq)
        if args.freq is None:
            raise InvalidInput("--freq is required with --seq")
        freq = args.freq
    band = None
    if args.band:
        lo, colon, hi = args.band.partition(":")
        if not (colon and lo.strip() and hi.strip()):
            raise InvalidInput(f"bad band {args.band!r}: expected LO:HI")
        try:
            band = (float(lo), float(hi))
        except ValueError as exc:
            raise InvalidInput(f"bad band {args.band!r}: {exc}") from exc
    result = bias.plan(args.volts, freq, seq, band)
    pairs = [
        (key, bias.fixed_decimal(value) if key in bias.FIXED_KEYS else value)
        for key, value in result.to_doc().items()
        if key != "signs"
    ]
    # the table alone also shows the relative frequency shift
    table = pairs[:5] + [("shift", f"{result.frequency_shift:.3e}")] + pairs[5:]
    return Output(result.to_json(), sequence.csv_rows(list(zip(*pairs))), table)


def _cmd_compare(args) -> Output:
    from . import designer

    designer._comparison_sizes(args.lsb_count, args.msb_size)  # before any column is built
    kinds = designer.STANDARD_RATIOS if args.standards else ()
    candidates = [(k, designer.standard_column(k, args.msb_size, args.lsb_count)) for k in kinds]
    for raw in args.candidate or []:
        if "=" not in raw:
            raise InvalidInput(f"candidate {raw!r} must be NAME=BITS")
        name, _, bits = raw.partition("=")
        candidates.append((name, _load_seq(bits)))
    table = designer.compare_logics(args.lsb_count, args.msb_size, candidates)
    csv_text = table.to_csv()
    return Output(
        table.to_doc(),
        csv_text,
        [
            f"{c.name}: {len(c.bits)} bits, {c.bits_to_msb} below bank size, "
            f"efficiency min {c.min_efficiency} mean {c.mean_efficiency}"
            for c in table.candidates
        ]
        + csv_text.splitlines(),
    )


def _cmd_report(args) -> Output:
    from . import bias, device

    doc = device.build_report(device.load_device(args.device), args.min_margin)
    margins, retuned = doc["margins"], doc["retuned_resolution_v"]
    violations = margins["violations"]
    rows = [["key", "value"]] + [
        [k, json.dumps(v)] for k, v in doc.items() if k not in ("margins", "tolerances", "lints", "notes")
    ]
    rows += [["margin_" + k, json.dumps(v)] for k, v in margins.items() if k != "violations"]
    rows += [["margin_violation", f"bit {v['bit']} {v['side']} {v['width_ma']}"] for v in violations]
    rows += [["lint", s] for s in doc["lints"]]
    rows += [["note", s] for s in doc["notes"]]
    return Output(
        doc,
        sequence.csv_rows(rows),
        [
            ("total_junctions", doc["total_junctions"]),
            ("bit_count", doc["bit_count"]),
            ("complete_capable", doc["complete_capable"]),
            ("frequency_hz", bias.fixed_decimal(doc["frequency_hz"])),
            ("max_voltage_v", f"{doc['max_voltage_v']:.4f}"),
            ("resolution_v", f"{doc['resolution_v']:.3e}"),
            ("retuned_resolution_v", retuned if retuned is None else f"{retuned:.3e}"),
            ("margin threshold", margins["threshold_ma"]),
            ("min positive step", margins["min_positive_ma"]),
            ("min negative step", margins["min_negative_ma"]),
            ("margin violations", len(violations)),
        ]
        + [f"violation: bit {v['bit']} {v['side']} step {v['width_ma']} mA" for v in violations]
        + [f"lint: {s}" for s in doc["lints"]]
        + [f"note: {s}" for s in doc["notes"]],
        EXIT_OK if not violations else EXIT_VALIDATION,
    )


def _cmd_enumerate(args) -> Output:
    seqs = sequence.enumerate_nims(args.a0, args.depth, args.max_bit, max_results=args.limit)
    if args.format == "json":
        doc = {
            "a0": args.a0,
            "depth": args.depth,
            "max_bit": args.max_bit,
            "count": len(seqs),
            "sequences": [list(s.bits) for s in seqs],
        }
        return Output(doc, "", [])
    lines = [",".join(map(str, s.bits)) for s in seqs]
    if args.format == "csv":
        return Output({}, sequence.csv_rows([["sequence"]] + [[line] for line in lines]), [])
    return Output({}, "", lines)


def _cmd_oracle(args) -> Output:
    from . import fault_tolerance

    seq = _load_seq(args.seq)
    cap = _resolve_cap(args)
    widened, gaps = fault_tolerance.oracle_gaps(seq, cap=cap)
    sums = widened
    if widened.beta_radius and not args.a0_offset:
        # widened only when a_0 >= 2; the intervals shown then come from the plain set
        sums = sequence.reachable_sums(seq, cap=cap)
    doc = {
        "bits": list(seq.bits),
        "total": sums.span,
        "a0_offset": args.a0_offset,
        "complete": not gaps,
        "interval_count": len(sums.intervals),
        "intervals": [list(iv) for iv in sums.intervals[:200]],
        "gap_count": sum(hi - lo + 1 for lo, hi in gaps),
        "gaps": [list(g) for g in gaps[:50]],
    }
    table = [
        ("total", sums.span),
        ("complete", not gaps),
        ("intervals", len(sums.intervals)),
        ("gap_count", doc["gap_count"]),
    ]
    if args.sweep:
        from . import representation

        check = representation.represent_range_check(seq, cap=cap)
        doc["sweep_checked"] = check.checked
        doc["sweep_failures"] = [list(f) for f in check.failures]
        table += [("sweep_checked", check.checked), ("sweep_failures", len(check.failures))]
    csv_text = sequence.csv_rows([["lo", "hi"]] + [[lo, hi] for lo, hi in sums.intervals[:200]])
    return Output(doc, csv_text, table)


def build_parser() -> _Parser:
    parser = _Parser(prog="nims", description="Junction array sequence toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def add(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("table", "csv", "json"), default="table")
        p.set_defaults(handler=handler)
        return p

    p = add("validate", _cmd_validate, "check chain constraints")
    p.add_argument("--seq", required=True)

    p = add("represent", _cmd_represent, "signed-digit decomposition of an integer")
    p.add_argument("--seq", required=True)
    p.add_argument("--m", type=int, required=True)

    p = add("tolerance", _cmd_tolerance, "per-bit fault tolerance")
    p.add_argument("--seq", required=True)

    p = add("defects", _cmd_defects, "apply a defect map or scan placements")
    p.add_argument("--seq", required=True)
    p.add_argument("--defects", default=None, help="JSON file or inline BIT:COUNT list")
    p.add_argument("--scan-budget", type=int, default=None)
    p.add_argument("--cap", type=int, default=None, help="oracle size cap")

    p = add("design", _cmd_design, "lay out an array for a junction budget")
    p.add_argument("--spec", default=None, help="design spec JSON file")
    p.add_argument("--a0", type=int, default=None)
    p.add_argument("--msb-size", type=int, default=None)
    p.add_argument("--target-total", type=int, default=None)
    p.add_argument("--min-tolerance", action="append", default=None, metavar="AT_LEAST:TOL")
    p.add_argument("--max-ratio", default=None, metavar="P/Q")

    p = add("plan", _cmd_plan, "voltage bias plan")
    p.add_argument("--device", default=None)
    p.add_argument("--seq", default=None)
    p.add_argument("--volts", type=float, required=True)
    p.add_argument("--freq", type=float, default=None)
    p.add_argument("--band", default=None, metavar="LO:HI")

    p = add("compare", _cmd_compare, "tabulate candidate sequences")
    p.add_argument("--msb-size", type=int, required=True)
    p.add_argument("--lsb-count", type=int, default=14)
    p.add_argument("--candidate", action="append", default=None, metavar="NAME=BITS")
    p.add_argument("--standards", action="store_true", help="include binary and ternary columns")

    p = add("report", _cmd_report, "summarize a measured device")
    p.add_argument("--device", required=True)
    p.add_argument("--min-margin", type=float, default=1.0)

    p = add("enumerate", _cmd_enumerate, "list strictly valid sequences")
    p.add_argument("--a0", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--max-bit", type=int, required=True)
    p.add_argument("--limit", type=int, default=1_000_000)

    p = add("oracle", _cmd_oracle, "exact reachable-sum intervals")
    p.add_argument("--seq", required=True)
    p.add_argument("--a0-offset", action="store_true")
    p.add_argument("--sweep", action="store_true", help="also round-trip every target")
    p.add_argument("--cap", type=int, default=None, help="oracle size cap")

    return parser


def _error_output(exc: NimsError) -> Output:
    name = type(exc).__name__
    return Output(
        {"error": {"type": name, "message": str(exc), "exit_code": exc.exit_code}},
        sequence.csv_rows([["error", "message"], [name, str(exc)]]),
        [f"error: {exc}"],
        exc.exit_code,
    )


def _requested_format(parser: _Parser, argv: list[str]) -> str:
    """The --format value argv asks for, read off argv as written.

    As in argparse, a token names --format when it is --format or a prefix
    of it that no other option of the subcommand shares, and no token after
    "--" is an option.
    """
    command = parser.commands.get(next((arg for arg in argv if not arg.startswith("-")), ""))
    options = command._option_string_actions if command else {}
    for i, arg in enumerate(argv):
        if arg == "--":
            break
        name, eq, value = arg.partition("=")
        named = [option for option in options if option.startswith(name)] if name.startswith("--") else []
        if name == "--format" or named == ["--format"]:
            if eq:
                return value
            if i + 1 < len(argv):
                return argv[i + 1]
    return "table"


def run(argv: list[str]) -> CommandResult:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except CliUsageError as exc:
        # argparse rejected argv, so the format is read off argv as written
        fmt, out = _requested_format(parser, argv), _error_output(exc)
    else:
        fmt = args.format
        try:
            out = args.handler(args)
        except NimsError as exc:
            out = _error_output(exc)
    return CommandResult(out.exit_code, out.render(fmt), fmt)


def main(argv: list[str] | None = None) -> int:
    result = run(sys.argv[1:] if argv is None else list(argv))
    # machine formats keep stdout parseable even on failure; table errors go to stderr
    machine = result.format in ("csv", "json")
    stream = sys.stdout if (result.exit_code == EXIT_OK or machine) else sys.stderr
    stream.write(result.text)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
