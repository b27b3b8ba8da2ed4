#!/usr/bin/env python3
"""Compare bit-weighting logics at a common bank size.

Puts the binary and ternary reference columns, a freshly designed
graduated column, and (optionally) a measured device side by side:
junctions spent below the bank size, growth ratios, smallest nonzero
fault tolerance, and the voltage ceiling at the drive frequency.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from nims import (
    DesignSpec,
    NimsError,
    Sequence,
    ToleranceRule,
    compare_logics,
    design,
    load_device,
    max_voltage,
    standard_column,
)
from nims.designer import CandidateColumn

REPO = Path(__file__).resolve().parent.parent
DEFAULT_DEVICE = REPO / "data" / "nims23_device.csv"


def summarize(col: CandidateColumn, seq: Sequence, freq_hz: float) -> dict:
    """One summary row from seq's column of the comparison table."""
    tols = [t for t in col.tolerances if t]
    return {
        "name": col.name,
        "bits": len(seq),
        "total": seq.total,
        "bits_to_msb": col.bits_to_msb,
        "min_ratio": col.min_efficiency,
        "mean_ratio": col.mean_efficiency,
        "min_tolerance": min(tols) if tols else 0,
        "vmax": max_voltage(seq, freq_hz),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--msb-size", type=int, default=5760, help="bank size shared by all columns")
    ap.add_argument("--length", type=int, default=23, help="bits per column")
    ap.add_argument("--total", type=int, default=92098, help="junction budget for the designed column")
    ap.add_argument("--freq", type=float, default=18.01e9, help="drive frequency in Hz")
    ap.add_argument("--device", type=Path, default=DEFAULT_DEVICE, help="measured device CSV, '' to skip")
    args = ap.parse_args()

    try:
        columns: list[tuple[str, Sequence]] = [
            ("binary", standard_column("binary", args.msb_size, args.length)),
            ("ternary", standard_column("ternary", args.msb_size, args.length)),
        ]
        designed = design(
            DesignSpec(
                a0=2,
                msb_size=args.msb_size,
                target_total=args.total,
                min_tolerance=(ToleranceRule(100, 2),),
            )
        )
        columns.append(("designed", designed.sequence))
        if args.device and str(args.device):
            columns.append(("measured", load_device(args.device).sequence()))
        table = compare_logics(max(len(s) for _, s in columns), args.msb_size, columns)
        rows = [summarize(col, seq, args.freq) for col, (_, seq) in zip(table.candidates, columns)]
    except NimsError as exc:
        ap.error(str(exc))

    header = f"{'column':<10}{'bits':>6}{'total':>9}{'to-msb':>8}{'min r':>8}{'mean r':>8}{'min tol':>9}{'Vmax':>9}"
    print(header)
    print("-" * len(header))
    for r in rows:
        min_r = "-" if r["min_ratio"] is None else f"{float(r['min_ratio']):.2f}"
        mean_r = "-" if r["mean_ratio"] is None else f"{float(r['mean_ratio']):.2f}"
        print(
            f"{r['name']:<10}{r['bits']:>6}{r['total']:>9}{r['bits_to_msb']:>8}"
            f"{min_r:>8}{mean_r:>8}{r['min_tolerance']:>9}{r['vmax']:>9.4f}"
        )

    print()
    print("bit-by-bit junction counts and tolerances:")
    print(table.to_csv())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
