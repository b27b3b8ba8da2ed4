"""The four workloads: set-up, one operation, and the check of its output.

Importing this module imports ``nims``; the set-up time the benchmark
reports starts before that import.  Every call into ``nims`` made while an
operation runs goes through ``Tracer.call`` so the traced run can time it;
checks call ``nims`` directly and run outside the timed region.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import nims

import gen
import ref
from spans import Tracer

CHILD_TIMEOUT_S = 60


def _plan_parts(args, result):
    volts, freq, seq = args
    yield "sequence.validate", nims.validate, (seq,)
    if result is not None:
        yield "representation.represent", nims.represent, (result.m_target, seq)


def _cli_parts(args, result):
    from nims import cli  # only cli-session makes cli.process calls

    return (("cli.run", cli.run, (list(args[0]),)),)


def _seq_parts(seq):
    return (
        ("sequence.validate", nims.validate, (seq,)),
        ("fault_tolerance.tolerance_report", nims.tolerance_report, (seq,)),
    )


# The public calls each composite is built from, timed beside it on the
# same inputs in the traced run.  The oracle siblings run the plain interval
# DP, so their interval count is the fragmentation the DP works through.
COMPONENTS = {
    "bias.plan": _plan_parts,
    "representation.represent": lambda a, r: (
        ("sequence.validate", nims.validate, (a[1],)),
        ("sequence.prefix_sums", nims.prefix_sums, (a[1],)),
    ),
    "representation.represent_range_check": lambda a, r: (
        ("sequence.validate", nims.validate, (a[0],)),
        ("sequence.prefix_sums", nims.prefix_sums, (a[0],)),
    ),
    "sequence.is_complete": lambda a, r: (("sequence.reachable_sums", nims.reachable_sums, (a[0],)),),
    "fault_tolerance.oracle_gaps": lambda a, r: (("sequence.reachable_sums", nims.reachable_sums, (a[0],)),),
    "fault_tolerance.apply_defects": lambda a, r: (("sequence.validate", nims.validate, (r[0],)),) if r else (),
    "fault_tolerance.within_tolerance": lambda a, r: (
        ("fault_tolerance.tolerance_report", nims.tolerance_report, (a[0],)),
    ),
    "fault_tolerance.worst_case_scan": lambda a, r: (
        ("fault_tolerance.tolerance_report", nims.tolerance_report, (a[0],)),
    ),
    "designer.design": lambda a, r: _seq_parts(r.sequence) if r else (),
    "designer.compare_logics": lambda a, r: tuple(p for _, seq in a[2] for p in _seq_parts(seq)),
    "cli.process": _cli_parts,
    "device.build_report": lambda a, r: _seq_parts(a[0].sequence()) + (
        ("device.margin_report", nims.margin_report, (a[0], a[1])),
        ("device.plausibility_lints", nims.plausibility_lints, (a[0],)),
    ),
}

# Counts kept on spans, from which the traced run derives its counters.
ATTRS = {
    "sequence.validate": lambda a, r: {"total": a[0].total},
    "sequence.reachable_sums": lambda a, r: {"intervals": len(r.intervals), "total": r.span},
    "sequence.is_complete": lambda a, r: {"total": a[0].total},
    "sequence.enumerate_nims": lambda a, r: {"results": len(r)},
    "representation.represent_range_check": lambda a, r: {"checked": r.checked},
    "fault_tolerance.worst_case_scan": lambda a, r: {"oracle_checked": r.oracle_checked},
    "fault_tolerance.oracle_gaps": lambda a, r: {"complete": not r[1]},
    "bias.plan": lambda a, r: {"in_band": r.in_band},
    "cli.process": lambda a, r: {"bytes": len(r.stdout) + len(r.stderr)},
}


def tracer() -> Tracer:
    return Tracer(COMPONENTS, ATTRS)


def _expect_error(out, kind: type) -> str | None:
    if isinstance(out, kind):
        return None
    return f"expected {kind.__name__}, got {out!r}"


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


class Workload:
    """Shared set-up: load the device table and build its report."""

    # the clock.py loop whose slow-downs track this workload's operations
    loop = "interpreter"

    def __init__(self, t: Tracer):
        self.t = t
        self.record = t.call("device.load_device", nims.load_device, gen.DEVICE_CSV)
        t.call("device.build_report", nims.build_report, self.record, 1.0)
        self.device = self.record.sequence()

    def run(self, op: gen.Op):
        raise NotImplementedError

    def check(self, op: gen.Op, out) -> str | None:
        raise NotImplementedError

    def verify(self) -> list[str]:
        """Checks that pin whole-run facts; they run after the timed loop."""
        if self.device.bits != gen.DEVICE_BITS:
            return [f"device table lists {self.device.bits}"]
        return []


class PlanStream(Workload):
    def __init__(self, t: Tracer):
        super().__init__(t)
        self.seqs = {name: nims.Sequence(bits) for name, bits in gen.SEQUENCES.items()}
        self.seqs["device"] = self.device

    def run(self, op):
        name, volts, freq = op.args
        return self.t.call("bias.plan", nims.plan, volts, freq, self.seqs[name])

    def check(self, op, out):
        if op.kind == "out-of-range":
            return _expect_error(out, nims.OutOfRange)
        if op.kind == "degenerate":
            return _expect_error(out, nims.DegenerateTarget)
        if isinstance(out, Exception):
            return f"raised {out!r}"
        name, volts, freq = op.args
        bits, rep = gen.SEQUENCES[name], out.representation
        exact = volts * gen.KJ_HZ_PER_VOLT / freq
        if abs(out.m_target - exact) > 0.5 + 1e-9 * abs(exact):
            return f"multiple {out.m_target} is not the nearest to {exact}"
        if not ref.digits_ok(rep.signs, rep.beta, out.m_target, bits):
            return f"digits {rep.signs} + {rep.beta} do not make {out.m_target}"
        if nims.evaluate(rep, self.seqs[name]) != out.m_target:
            return "evaluate disagrees with the digits"
        expressed = out.m_target - rep.beta
        if rep.expressed_m != expressed:
            return f"expressed multiple {rep.expressed_m}, digits give {expressed}"
        if not _close(out.adjusted_frequency_hz, volts * gen.KJ_HZ_PER_VOLT / expressed):
            return f"retuned frequency {out.adjusted_frequency_hz} does not land on {volts} V"
        if not _close(out.achieved_voltage, volts, 1e-9):
            return f"achieved {out.achieved_voltage} V for {volts} V"
        band = freq * (1 - nims.DEFAULT_BAND_HALF_WIDTH) <= out.adjusted_frequency_hz <= freq * (
            1 + nims.DEFAULT_BAND_HALF_WIDTH
        )
        if out.in_band != band:
            return f"in_band {out.in_band}, expected {band}"
        return None


class Certify(Workload):
    loop = "memory"

    def __init__(self, t: Tracer):
        super().__init__(t)
        rules = tuple(nims.ToleranceRule(*r) for r in gen.DESIGN_ARGS["min_tolerance"])
        spec = nims.DesignSpec(**{**gen.DESIGN_ARGS, "min_tolerance": rules})
        self.designed = nims.design(spec).sequence

    def run(self, op):
        t = self.t
        if op.kind == "scan":
            return t.call("fault_tolerance.worst_case_scan", nims.worst_case_scan, self.device, gen.SCAN_BUDGET)
        if op.kind == "range-check":
            return t.call("representation.represent_range_check", nims.represent_range_check, self.device)
        if op.kind == "complete":
            return t.call("sequence.is_complete", nims.is_complete, self.designed)
        defects = nims.DefectMap(dict(op.args))
        defective, report = t.call("fault_tolerance.apply_defects", nims.apply_defects, self.device, defects)
        sums, gap_list = t.call("fault_tolerance.oracle_gaps", nims.oracle_gaps, defective)
        within = t.call("fault_tolerance.within_tolerance", nims.within_tolerance, self.device, defects)
        return defective, report, sums, gap_list, within

    def check(self, op, out):
        if isinstance(out, Exception):
            return f"raised {out!r}"
        if op.kind == "scan":
            return self._check_scan(out)
        if op.kind == "range-check":
            if out.checked != 184_199 or not out.passed:
                return f"range check swept {out.checked} targets with {len(out.failures)} failures"
            return None
        if op.kind == "complete":
            return None if out is True else f"designed layout reported incomplete: {out!r}"
        defective, report, sums, gap_list, within = out
        bits = list(gen.DEVICE_BITS)
        for i, c in op.args:
            bits[i] -= c
        if defective.bits != tuple(bits):
            return f"defective bits {defective.bits}"
        if within != (op.kind == "within"):
            return f"within_tolerance {within} on a {op.kind} map"
        if report.complete_capable != (op.kind == "within") or report.complete_capable != ref.capable(bits):
            return f"complete_capable {report.complete_capable} on a {op.kind} map"
        if gap_list != ref.gaps(bits) or sums.intervals != ref.intervals(bits, max(bits[0] - 1, 0)):
            return "oracle disagrees with the bitset reference"
        if report.complete_capable and gap_list:
            return "chain certificate holds but the oracle found gaps"
        return None

    def _check_scan(self, scan):
        tol = ref.tolerances(gen.DEVICE_BITS)
        expected = []
        for i, (a, t) in enumerate(zip(gen.DEVICE_BITS, tol)):
            most = min(gen.SCAN_BUDGET, a)
            safe = min(most, a - 1) if t is None else min(most, t)
            expected.append((i, a, t, safe, "SAFE" if safe == most else "UNSAFE"))
        got = [(e.index, e.nominal, e.tolerance, e.safe_up_to, e.status) for e in scan.entries]
        if got != expected:
            return "scan entries disagree with the closed-form tolerances"
        if scan.oracle_checked != min(8, sum(1 for e in expected if e[3] >= 1)):
            return f"scan cross-checked {scan.oracle_checked} placements"
        return None

    def verify(self):
        errors = super().verify()
        if self.designed.bits != gen.DESIGNED_BITS:
            errors.append(f"designed layout is {self.designed.bits}")
        for bits, count in ((gen.DEVICE_BITS, 5_759), (gen.DESIGNED_BITS, 92_099)):
            sums = nims.reachable_sums(nims.Sequence(bits))
            if len(sums.intervals) != count or sums.intervals != ref.intervals(bits):
                errors.append(f"reachable_sums gave {len(sums.intervals)} intervals, expected {count}")
        return errors


class DesignSweep(Workload):
    def run(self, op):
        t = self.t
        if op.kind == "enumerate":
            a0, depth, max_bit, _ = op.args
            found = t.call("sequence.enumerate_nims", nims.enumerate_nims, a0, depth, max_bit)
            verdicts = [
                (t.call("sequence.validate", nims.validate, s), t.call("sequence.is_complete", nims.is_complete, s))
                for s in found
            ]
            return found, verdicts
        a0, msb, total, rules, ratio = op.args
        spec = nims.DesignSpec(a0, msb, total, tuple(nims.ToleranceRule(*r) for r in rules), Fraction(ratio))
        seq = t.call("designer.design", nims.design, spec).sequence
        report = t.call("fault_tolerance.tolerance_report", nims.tolerance_report, seq)
        columns = [("designed", seq)] + [
            (kind, t.call("designer.standard_column", nims.standard_column, kind, msb, len(seq)))
            for kind in ("binary", "ternary")
        ]
        table = t.call("designer.compare_logics", nims.compare_logics, len(seq), msb, columns)
        return seq, report, table

    def check(self, op, out):
        if op.kind == "infeasible":
            return _expect_error(out, nims.Infeasible)
        if isinstance(out, Exception):
            return f"raised {out!r}"
        if op.kind == "enumerate":
            return self._check_batch(op, *out)
        a0, msb, total, rules, ratio = op.args
        seq, report, table = out
        bits = seq.bits
        tol = ref.tolerances(bits)
        if bits[0] != a0 or sum(bits) != total or not ref.capable(bits):
            return f"design {bits} misses a0 {a0}, total {total} or the chain"
        for a, t in zip(bits, tol[:-1]):
            need = max((r[1] for r in rules if a >= r[0]), default=0)
            if t < need:
                return f"bit of {a} junctions tolerates {t}, needs {need}"
        if [e.tolerance for e in report.entries] != tol:
            return "tolerance_report disagrees with the closed form"
        expected = [("designed", bits)] + [(k, ref.standard(k, msb, len(bits))) for k in ("binary", "ternary")]
        for (name, col_bits), c in zip(expected, table.candidates):
            got = (c.name, c.bits, (c.bits_to_msb, c.min_efficiency, c.mean_efficiency), list(c.tolerances))
            if got != (name, col_bits, ref.column(col_bits, msb), ref.tolerances(col_bits)):
                return f"compare_logics column {name} is wrong"
        return None

    def _check_batch(self, op, found, verdicts):
        a0, depth, max_bit, pick = op.args
        bits = [s.bits for s in found]
        if len(bits) != ref.count_strict(a0, depth, max_bit):
            return f"enumerate_nims listed {len(bits)} sequences"
        if bits != sorted(set(bits)):
            return "enumerate_nims output is not sorted and distinct"
        if not all(b[0] == a0 and len(b) == depth and max(b) <= max_bit and ref.strict(b) for b in bits):
            return "enumerate_nims listed a sequence that is not strictly valid"
        if not all(v.strict_valid and complete for v, complete in verdicts):
            return "a strictly valid sequence was not validated as strict and complete"
        # 3^N brute force on three seeded candidates
        for k in range(3):
            b = bits[int((pick + k / 3) % 1 * len(bits))]
            if not ref.brute_complete(b):
                return f"brute force finds {b} incomplete"
        return None

    def verify(self):
        errors = super().verify()
        count = len(nims.enumerate_nims(1, 6, 500))
        if count != 123_633:
            errors.append(f"enumerate_nims(1, 6, 500) listed {count} sequences, expected 123633")
        return errors


class CliSession(Workload):
    loop = "process"

    def __init__(self, t: Tracer):
        super().__init__(t)
        # nims.cli is imported here, not at the top, so that the other
        # workloads' set-up time does not include argparse.
        from nims import cli

        self.cli = cli
        self.env = child_env()

    def run(self, op):
        return self.t.call("cli.process", self._spawn, op.args[0])

    def _spawn(self, argv):
        return subprocess.run(
            [sys.executable, "-m", "nims.cli", *argv],
            capture_output=True, text=True, env=self.env, timeout=CHILD_TIMEOUT_S,
        )

    def check(self, op, out):
        if isinstance(out, Exception):
            return f"raised {out!r}"
        argv, code, params = op.args
        expected = self.cli.run(list(argv))
        if out.returncode != expected.exit_code or (code is not None and out.returncode != code):
            return f"exit code {out.returncode}, expected {expected.exit_code}"
        if "Traceback" in out.stdout or "Traceback" in out.stderr:
            return "traceback in the output"
        fmt = argv[-1]
        on_stdout = out.returncode == 0 or fmt in ("csv", "json")
        shown, silent = (out.stdout, out.stderr) if on_stdout else (out.stderr, out.stdout)
        if shown != expected.text or silent:
            return "process output differs from the in-process command"
        if fmt != "json":
            return None
        try:
            doc = json.loads(out.stdout)
        except json.JSONDecodeError:
            return "--format json output does not parse"
        if params is None:
            err = doc.get("error", {})
            return None if err.get("exit_code") == out.returncode else "error document lacks the exit code"
        want = json.loads(json.dumps(self._library_doc(argv[0], params)))
        if doc != want:
            return f"{argv[0]} json differs from the library values"
        if argv[0] == "validate" and doc["strict_valid"] != ref.strict(params["bits"]):
            return "validate disagrees with the chain rules"
        return None

    def _library_doc(self, command, p):
        if command == "plan":
            return nims.plan(p["volts"], gen.DEVICE_FREQ_HZ, self.device).to_doc()
        if command == "report":
            return nims.build_report(self.record, p["min_margin"])
        if command == "design":
            a0, msb, total, rules, ratio = p["spec"]
            rules = tuple(nims.ToleranceRule(*r) for r in rules)
            return nims.design(nims.DesignSpec(a0, msb, total, rules, Fraction(ratio))).to_doc()
        if command == "compare":
            columns = [(k, nims.standard_column(k, p["msb"], p["lsb"])) for k in ("binary", "ternary")]
            columns += [(name, nims.Sequence(bits)) for name, bits in p["candidates"].items()]
            return nims.compare_logics(p["lsb"], p["msb"], columns).to_doc()
        seq = nims.Sequence(p["bits"])
        if command == "validate":
            report = nims.validate(seq)
            return {"bits": list(seq.bits), **report.to_doc(), "totals": list(nims.prefix_sums(seq).totals)}
        if command == "represent":
            return nims.represent(p["m"], seq).to_doc()
        if command == "tolerance":
            return {"bits": list(seq.bits), **nims.tolerance_report(seq).to_doc()}
        defects = nims.DefectMap(p["defects"])
        defective, report = nims.apply_defects(seq, defects)
        _, gap_list = nims.oracle_gaps(defective)
        return {
            "bits": list(seq.bits),
            "defects": defects.to_doc()["defects"],
            "defective_bits": list(defective.bits),
            "strict_valid": report.strict_valid,
            "complete_capable": report.complete_capable,
            "within_tolerance": nims.within_tolerance(seq, defects),
            "oracle_complete": not ref.gaps(defective.bits),
            "gaps_sample": [list(g) for g in gap_list[:20]],
        }


WORKLOADS = {
    "plan-stream": PlanStream,
    "certify": Certify,
    "design-sweep": DesignSweep,
    "cli-session": CliSession,
}


def child_env() -> dict:
    """Environment for a child interpreter that imports nims from src/."""
    src = str(Path("src").resolve())
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def malformed_handled_ratio() -> float:
    """Share of malformed argv the CLI turns into a documented error.

    Runs in-process: an exception escaping ``run`` is the traceback a
    ``nims`` process would print.
    """
    from nims import cli

    argvs = [argv for argv, _ in gen.CLI_MALFORMED] + list(gen.CLI_ESCAPES)
    handled = 0
    for argv in argvs:
        argv = list(argv) + ([] if "--format" in argv else ["--format", "json"])
        try:
            result = cli.run(argv)
        except Exception:  # the escape this ratio counts
            continue
        try:
            json.loads(result.text)
        except json.JSONDecodeError:
            continue
        handled += result.exit_code in (1, 2, 3)
    return handled / len(argvs)
