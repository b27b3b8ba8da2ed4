#!/usr/bin/env python3
"""Design a programmable-array bit layout and report its figures of merit.

Defaults reproduce a 92,098-junction array: graduated low bits from a
2-junction LSB up to 5760-junction banks, every bit of 100+ junctions
required to tolerate at least 2 dead junctions. Prints the layout, its
per-bit fault tolerances, and the voltage range/step at the drive
frequency, then certifies completeness against the exhaustive oracle
when the total fits under the cap.
"""

from __future__ import annotations

import argparse
import json

from nims import (
    DEFAULT_ORACLE_CAP,
    DesignSpec,
    NimsError,
    ToleranceRule,
    design,
    is_complete,
    max_voltage,
    resolution,
    tolerance_report,
    validate,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--a0", type=int, default=2, help="junctions in the least significant bit")
    ap.add_argument("--msb-size", type=int, default=5760, help="junctions per full bank")
    ap.add_argument("--total", type=int, default=92098, help="junction budget")
    ap.add_argument(
        "--min-tolerance",
        action="append",
        default=None,
        metavar="AT_LEAST:TOL",
        help="bits of at least AT_LEAST junctions must tolerate TOL losses (repeatable)",
    )
    ap.add_argument("--max-ratio", default="3", help="growth cap, e.g. 2 or 5/2")
    ap.add_argument("--freq", type=float, default=18.01e9, help="drive frequency in Hz")
    ap.add_argument("--json", action="store_true", help="emit the design document instead of tables")
    args = ap.parse_args()

    try:
        spec = DesignSpec(
            a0=args.a0,
            msb_size=args.msb_size,
            target_total=args.total,
            min_tolerance=tuple(ToleranceRule.from_text(rule) for rule in args.min_tolerance or ["100:2"]),
            max_ratio=args.max_ratio,
        )
        result = design(spec)
    except NimsError as exc:
        ap.error(str(exc))
    seq = result.sequence

    if args.json:
        doc = result.to_doc()
        doc["max_voltage_v"] = max_voltage(seq, args.freq)
        doc["resolution_v"] = resolution(seq, args.freq)
        print(json.dumps(doc, indent=2))
        return 0

    print(f"bits ({len(seq)}): {' '.join(str(b) for b in seq.bits)}")
    for key, value in result.metadata.items():
        print(f"  {key}: {value}")
    vr = validate(seq)
    print(f"  complete_capable: {vr.complete_capable}  strict_valid: {vr.strict_valid}")
    print(f"  max voltage at {args.freq / 1e9:.2f} GHz: {max_voltage(seq, args.freq):.4f} V")
    print(f"  voltage step before retuning: {resolution(seq, args.freq):.3e} V")
    print()
    print(tolerance_report(seq).to_csv(), end="")

    if seq.total <= DEFAULT_ORACLE_CAP:
        print()
        print(
            f"oracle: every integer in [-{seq.total}, {seq.total}] reachable "
            f"within the sub-LSB offset: {is_complete(seq)}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
