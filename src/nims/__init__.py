"""Toolkit for non-integer-multiple junction array logic.

Covers chain validation, exact reachable-sum oracles, signed-digit
representation, fault tolerance, array layout, voltage bias planning,
and measured-device ingestion.

Submodules load on first use: `import nims` imports none of them, and
the first read of an exported name imports the one submodule that
defines it and keeps the value in this module's globals, so every later
read is a plain attribute lookup.
"""

from __future__ import annotations

__version__ = "0.1.0"

# Each exported name with the submodule that defines it.
_SOURCES = {
    **dict.fromkeys(
        (
            "ComparisonTable",
            "DesignResult",
            "DesignSpec",
            "ToleranceRule",
            "compare_logics",
            "design",
            "standard_column",
        ),
        "designer",
    ),
    **dict.fromkeys(
        (
            "DeviceBit",
            "DeviceMetadata",
            "DeviceRecord",
            "MarginReport",
            "build_report",
            "infer_defects",
            "load_device",
            "margin_report",
            "parse_device",
            "plausibility_lints",
            "serialize_device",
        ),
        "device",
    ),
    **dict.fromkeys(
        (
            "DegenerateTarget",
            "Infeasible",
            "InvalidInput",
            "InvalidSequence",
            "NimsError",
            "OutOfRange",
            "ParseError",
            "RangeError",
        ),
        "errors",
    ),
    **dict.fromkeys(
        (
            "DefectMap",
            "ScanReport",
            "apply_defects",
            "within_tolerance",
            "worst_case_scan",
        ),
        "fault_tolerance",
    ),
    **dict.fromkeys(
        ("DEFAULT_ORACLE_CAP", "SumSet", "is_complete", "oracle_gaps", "reachable_sums"),
        "oracle",
    ),
    **dict.fromkeys(
        ("BiasPlan", "DEFAULT_BAND_HALF_WIDTH", "Representation", "evaluate", "plan", "represent"),
        "representation",
    ),
    **dict.fromkeys(
        (
            "PrefixSums",
            "RangeCheckReport",
            "Sequence",
            "ToleranceReport",
            "ValidationReport",
            "enumerate_nims",
            "parse_bits",
            "prefix_sums",
            "represent_range_check",
            "sequence_from_file",
            "tolerance_report",
            "validate",
        ),
        "sequence",
    ),
    **dict.fromkeys(("JOSEPHSON_HZ_PER_VOLT", "max_voltage", "resolution"), "units"),
}

__all__ = sorted(_SOURCES)


def __getattr__(name: str) -> object:
    """Import the submodule that defines an exported name, and keep the value (PEP 562)."""
    module = _SOURCES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
