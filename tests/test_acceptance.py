"""End-to-end acceptance gate.

Each criterion prints exactly one PASS/FAIL line. Frozen integers and
voltages below were recomputed from first principles (brute-force sign
enumeration, interval DP, exact SI constants) before being asserted.
"""

from __future__ import annotations

import random
import time
from functools import lru_cache

from nims import (
    DefectMap,
    Sequence,
    apply_defects,
    build_report,
    enumerate_nims,
    is_complete,
    load_device,
    margin_report,
    max_voltage,
    plan,
    prefix_sums,
    reachable_sums,
    represent,
    represent_range_check,
    resolution,
    tolerance_report,
    validate,
    within_tolerance,
)

from .conftest import DEVICE_CSV, NIMS1_BITS, NIMS2_BITS, descent_rows

REFERENCE = Sequence((1, 3, 8))

SIGN_ROWS = [
    (0, 0, 0),
    (1, 0, 0),
    (-1, 1, 0),
    (0, 1, 0),
    (1, 1, 0),
    (0, -1, 1),
    (1, -1, 1),
    (-1, 0, 1),
    (0, 0, 1),
    (1, 0, 1),
    (-1, 1, 1),
    (0, 1, 1),
    (1, 1, 1),
]


def report(n: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@lru_cache(maxsize=1)
def corpus() -> tuple[Sequence, ...]:
    """1000 deterministic completeness-capable sequences, totals <= 10^4."""
    rng = random.Random(20260819)
    out = []
    while len(out) < 1000:
        a0 = rng.randint(1, 3)
        bits = [a0]
        for _ in range(rng.randint(1, 8)):
            nxt = rng.randint(1, 3 * bits[-1])
            if sum(bits) + nxt > 10_000:
                break
            bits.append(nxt)
        if len(bits) < 2:
            continue
        seq = Sequence(tuple(bits))
        assert validate(seq).complete_capable
        out.append(seq)
    return tuple(out)


def test_criterion_1_sign_matrix():
    start = time.perf_counter()
    exact = 0
    for m, signs in enumerate(SIGN_ROWS):
        rep = represent(m, REFERENCE)
        neg = represent(-m, REFERENCE)
        if rep.signs == signs and rep.beta == 0:
            exact += 1
        assert neg.signs == tuple(-s for s in signs) and neg.beta == 0
    elapsed = time.perf_counter() - start
    ok = exact == 13 and elapsed < 1.0
    assert report(
        1, ok, f"sign matrix over (1,3,8): {exact}/13 rows exact, negations mirror, {elapsed:.3f}s"
    )


def test_criterion_2_tolerance_columns():
    t1 = [e.tolerance for e in tolerance_report(Sequence(NIMS1_BITS)).entries]
    t2 = [e.tolerance for e in tolerance_report(Sequence(NIMS2_BITS)).entries]
    first_ok = t1[:8] == [0, 0, 1, 1, 1, 2, 4, 6] and t1[8] > 100
    second_ok = t2[:7] == [0, 0, 2, 4, 6, 6, 12]
    # the published column lists 20 for the eighth entry; the removable
    # count that preserves the chain is 3312 - ceil(8800/3) = 378, and the
    # suite asserts the recomputed value, flagging the published one
    discrepancy_ok = t2[7] == 378 and t2[7] != 20
    ok = first_ok and second_ok and discrepancy_ok
    assert report(
        2,
        ok,
        "fault tolerance columns reproduce exactly; eighth entry of the second "
        f"column recomputes to {t2[7]} (published 20 unreproduced, documented)",
    )


def test_criterion_3_device_consistency():
    rec = load_device(DEVICE_CSV)
    seq = rec.sequence()
    margins = margin_report(rec, 1.0)
    t6 = tolerance_report(seq).entries[6].tolerance
    ok = rec.total_junctions == 92098 and margins.passed and t6 == 242
    assert report(
        3,
        ok,
        f"device fixture: total {rec.total_junctions}, 1 mA margins pass "
        f"({len(margins.violations)} violations), seventh-bit tolerance {t6}",
    )


def test_criterion_4_oracle_suite():
    start = time.perf_counter()
    threes = enumerate_nims(1, 3, 9)
    count_ok = len(threes) == 9
    covered = 0
    for seq in threes:
        sums = reachable_sums(seq)
        if sums.covers(-seq.total, seq.total):
            covered += 1
    nims1_head = Sequence(NIMS1_BITS[:9])
    head_total = nims1_head.total
    # recomputed running total of the first nine bits; 4478, not 4469
    head_ok = head_total == 4478 and reachable_sums(nims1_head).covers(-4478, 4478)
    device = load_device(DEVICE_CSV).sequence()
    device_ok = device.total == 92098 and is_complete(device)
    elapsed = time.perf_counter() - start
    ok = count_ok and covered == 9 and head_ok and device_ok and elapsed < 10.0
    assert report(
        4,
        ok,
        f"oracle covers all {covered}/9 three-bit chains, the 9-bit head "
        f"(running total {head_total}, recomputed), and the 23-bit device, {elapsed:.2f}s",
    )


def test_criterion_5_greedy_oracle_equivalence():
    start = time.perf_counter()
    seqs = corpus()
    checked = 0
    failures = 0
    for seq in seqs:
        chk = represent_range_check(seq)
        checked += chk.checked
        failures += len(chk.failures)
    elapsed = time.perf_counter() - start
    ok = len(seqs) >= 1000 and failures == 0 and elapsed < 60.0
    assert report(
        5,
        ok,
        f"{len(seqs)} random capable sequences, {checked} targets round-tripped "
        f"with residuals below the first bit, {failures} failures, {elapsed:.1f}s",
    )


def test_criterion_6_defect_soundness_and_sharpness():
    rng = random.Random(40)
    pairs = 0
    complete_after = 0
    sharp_checks = 0
    sharp_breaks = 0
    for seq in corpus():
        entries = tolerance_report(seq).entries
        missing = {}
        for e in entries[:-1]:
            if e.tolerance:
                d = rng.randint(0, e.tolerance)
                if d:
                    missing[e.index] = d
        defects = DefectMap(missing)
        assert within_tolerance(seq, defects)
        defective, rep = apply_defects(seq, defects)
        pairs += 1
        if rep.complete_capable and is_complete(defective):
            complete_after += 1
        for e in entries[:-1]:
            if e.tolerance is None:
                continue
            sharp_checks += 1
            _, broken = apply_defects(seq, DefectMap({e.index: e.tolerance + 1}))
            if not broken.complete_capable:
                sharp_breaks += 1
    ok = pairs >= 1000 and complete_after == pairs and sharp_breaks == sharp_checks
    assert report(
        6,
        ok,
        f"{pairs} within-tolerance defect maps stay oracle-complete; "
        f"{sharp_breaks}/{sharp_checks} one-past-tolerance defects break the chain",
    )


def test_criterion_7_bias_numerics():
    rec = load_device(DEVICE_CSV)
    seq = rec.sequence()
    vmax = max_voltage(seq, 18.01e9)
    vmax_ok = abs(vmax - 3.4299) <= 1e-4
    notes = " | ".join(build_report(rec)["notes"])
    flagged_ok = "unreconciled" in notes and "3.2" in notes
    step = 2 * vmax / 10_000
    skip_below = resolution(seq, 18.01e9)
    worst = 0.0
    points = 0
    for i in range(10_001):
        v = -vmax + i * step
        if abs(v) < skip_below:
            continue
        p = plan(v, 18.01e9, seq)
        points += 1
        worst = max(worst, abs(p.achieved_voltage - v) / abs(v))
    sweep_ok = points >= 10_000 - 2 and worst <= 1e-12
    ok = vmax_ok and flagged_ok and sweep_ok
    assert report(
        7,
        ok,
        f"max voltage {vmax:.5f} V, nameplate 3.2 V flagged unreconciled, "
        f"round-trip worst {worst:.2e} over {points} sweep points",
    )


def test_criterion_8_proof_inequalities():
    sequences = list(enumerate_nims(1, 3, 9))
    sequences.append(Sequence(NIMS1_BITS[:9]))
    sequences.append(load_device(DEVICE_CSV).sequence())
    sequences.extend(corpus())
    chain_violations = 0
    for seq in sequences:
        totals = prefix_sums(seq).totals
        a0 = seq.bits[0]
        for n, a in enumerate(seq.bits):
            if 3 * a - totals[n] > totals[n] + a0:
                chain_violations += 1
    rng = random.Random(8)
    audit_rows = 0
    audit_violations = 0
    for seq in rng.sample(corpus(), 60) + [REFERENCE]:
        totals = prefix_sums(seq).totals
        a0 = seq.bits[0]
        bound = seq.total + a0 - 1
        for m in {rng.randint(-bound, bound) for _ in range(40)}:
            for n, r in descent_rows(represent(m, seq), seq):
                audit_rows += 1
                limit = totals[n - 1] + a0 - 1 if n >= 1 else a0 - 1
                if abs(r) > limit:
                    audit_violations += 1
                # for a unit first bit the descent bound is the running
                # total itself
                if a0 == 1 and n >= 1 and abs(r) > totals[n - 1]:
                    audit_violations += 1
    ok = chain_violations == 0 and audit_violations == 0
    assert report(
        8,
        ok,
        f"chain inequality holds on {len(sequences)} sequences; greedy descent "
        f"bound holds on {audit_rows} instrumented steps",
    )
