#!/usr/bin/env python3
"""Monte Carlo defect survey of a measured array.

Draws random defect maps at or below each bit's published tolerance,
applies them, and certifies the damaged array against the exhaustive
reachability oracle. Then scans a fixed defect budget across every bit
to find which bits survive worst-case concentrated damage.
"""

from __future__ import annotations

import argparse
import random
from pathlib import Path

from nims import (
    DefectMap,
    NimsError,
    apply_defects,
    is_complete,
    load_device,
    tolerance_report,
    within_tolerance,
    worst_case_scan,
)

REPO = Path(__file__).resolve().parent.parent
DEFAULT_DEVICE = REPO / "data" / "nims23_device.csv"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--device", type=Path, default=DEFAULT_DEVICE, help="device CSV to survey")
    ap.add_argument("--trials", type=int, default=200, help="random defect maps to draw")
    ap.add_argument("--seed", type=int, default=0, help="RNG seed")
    ap.add_argument("--budget", type=int, default=100, help="defects per bit for the worst-case scan")
    args = ap.parse_args()

    try:
        seq = load_device(args.device).sequence()
        entries = tolerance_report(seq).entries
        rng = random.Random(args.seed)
        capable = 0
        complete = 0
        drawn = 0
        for _ in range(args.trials):
            missing = {}
            for e in entries[:-1]:
                if e.tolerance and rng.random() < 0.5:
                    d = rng.randint(1, e.tolerance)
                    missing[e.index] = d
                    drawn += d
            defects = DefectMap(missing)
            if not within_tolerance(seq, defects):
                raise AssertionError(f"drawn defect map {missing} exceeds the published tolerances")
            damaged, report = apply_defects(seq, defects)
            if report.complete_capable:
                capable += 1
                if is_complete(damaged):
                    complete += 1
        scan = worst_case_scan(seq, args.budget)
    except NimsError as exc:
        ap.error(str(exc))

    print(f"device: {len(seq)} bits, {seq.total} junctions")
    print(
        f"{args.trials} random within-tolerance maps ({drawn} defects drawn): "
        f"{capable} stay capable, {complete} certified complete"
    )

    print()
    print(f"worst-case scan, {args.budget} concentrated defects per bit:")
    print(scan.to_csv(), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
