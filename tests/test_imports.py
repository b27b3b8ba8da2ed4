"""`import nims` loads submodules on first use, each CLI subcommand loads only what it runs, and
no submodule loads anything outside the standard library."""

from __future__ import annotations

import importlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import nims

from .conftest import DEVICE_CSV

SRC = str(Path(nims.__file__).resolve().parent.parent)

# Runs argv through `python -m nims.cli` in this fresh interpreter, then prints
# the nims submodules and heavy standard modules that running it loaded.
PROBE = """
import json, runpy, sys
before = set(sys.modules)
sys.argv = ["nims", *json.loads(sys.argv[1])]
try:
    runpy.run_module("nims.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
loaded = set(sys.modules) - before
print(json.dumps({"exit": code, "loaded": sorted(loaded)}), file=sys.stderr)
"""

FIRST = ["errors", "sequence"]
MODULES = {
    "validate": (["validate", "--seq", "1,3,8"], FIRST),
    "tolerance": (["tolerance", "--seq", "1,3,8"], FIRST),
    "defects": (["defects", "--seq", "1,3,8", "--defects", "2:1"], FIRST + ["fault_tolerance", "oracle"]),
    "design": (["design", "--a0", "1", "--msb-size", "9", "--target-total", "13"], FIRST + ["designer"]),
    "compare": (["compare", "--msb-size", "9", "--lsb-count", "3", "--standards"], FIRST + ["designer"]),
    "represent": (["represent", "--seq", "1,3,8", "--m", "5"], FIRST + ["representation", "units"]),
    "plan": (
        ["plan", "--device", str(DEVICE_CSV), "--volts", "1.0"],
        FIRST + ["device", "representation", "units"],
    ),
    "report": (["report", "--device", str(DEVICE_CSV)], FIRST + ["device", "units"]),
    "enumerate": (["enumerate", "--a0", "1", "--depth", "3", "--max-bit", "9"], FIRST),
    "oracle": (["oracle", "--seq", "1,3,8"], FIRST + ["oracle"]),
    "oracle_sweep": (["oracle", "--seq", "1,3,8", "--sweep"], FIRST + ["oracle"]),
}
# the two dataclasses left, Representation and BiasPlan, load dataclasses where representation loads
WITHOUT_DATACLASSES = ("validate", "tolerance", "defects", "design", "compare", "enumerate", "oracle", "oracle_sweep", "report")
# fractions, with the decimal and numbers it loads, only where a Fraction is built
WITH_FRACTIONS = ("tolerance", "design", "compare")

# Imports every nims submodule in this fresh interpreter, then prints the
# submodules and the top-level names of the modules that loaded and are not
# in the standard library; what the interpreter loaded at start-up is left out.
STDLIB_ONLY = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import nims
for info in pkgutil.iter_modules(nims.__path__):
    importlib.import_module("nims." + info.name)
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps({
    "submodules": sorted(name for name in sys.modules if name.startswith("nims.")),
    "outside": sorted(loaded - set(sys.stdlib_module_names) - {"nims"}),
}))
"""


def _fresh(*args: str) -> subprocess.CompletedProcess:
    """Run python -S: without site, whose .pth files may load modules a probe then cannot see loading.

    nims needs only the standard library, which -S leaves importable.
    """
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("NIMS_ORACLE_CAP", None)
    return subprocess.run([sys.executable, "-S", *args], capture_output=True, text=True, env=env, timeout=120)


def test_every_export_is_its_submodules_object():
    for name in nims.__all__:
        module = importlib.import_module(f"nims.{nims._SOURCES[name]}")
        assert getattr(nims, name) is getattr(module, name)
        assert nims.__dict__[name] is getattr(module, name)  # kept: later reads are plain lookups


def test_dir_and_star_import_cover_all():
    assert set(nims.__all__) <= set(dir(nims))
    namespace: dict = {}
    exec("from nims import *", namespace)
    assert set(nims.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(nims, name) for name in nims.__all__)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'nims' has no attribute 'x'$"):
        nims.x  # noqa: B018
    assert not hasattr(nims, "_x")


def test_import_nims_loads_no_submodule():
    proc = _fresh("-c", "import sys, nims; print(sorted(m for m in sys.modules if m.startswith('nims')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['nims']"


def test_a_pickle_loads_through_the_lazy_public_name():
    # a fresh interpreter finds nims.SumSet by nims.__getattr__, which loads
    # the oracle and the sequence module it builds on, and nothing else
    data = pickle.dumps(nims.reachable_sums(nims.Sequence((1, 3, 10))))
    load = "import pickle, sys; print(pickle.loads(bytes.fromhex(sys.argv[1])), sorted(m for m in sys.modules if 'nims' in m))"
    proc = _fresh("-c", load, data.hex())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "SumSet(span=14, beta_radius=0) ['nims', 'nims.errors', 'nims.oracle', 'nims.sequence']"


@pytest.mark.parametrize("command", MODULES)
def test_subcommand_loads_only_its_modules(command):
    argv, modules = MODULES[command]
    proc = _fresh("-c", PROBE, json.dumps([*argv, "--format", "json"]))
    probe = json.loads(proc.stderr.splitlines()[-1])
    assert probe["exit"] == 0, proc.stdout
    json.loads(proc.stdout)
    loaded = set(probe["loaded"])
    assert sorted(m[len("nims.") :] for m in loaded if m.startswith("nims.")) == sorted(modules)
    if command in WITHOUT_DATACLASSES:
        assert not loaded & {"dataclasses", "inspect"}
    if command not in WITH_FRACTIONS:
        assert "fractions" not in loaded
    if command == "represent":  # it loads units, which loads decimal only when fixed_decimal writes a float
        assert "decimal" not in loaded


# Runs in this fresh interpreter the library calls that read a device, design a layout, report its tolerances
# or sweep its range, then prints the ones of the planner's modules (and the standard modules they load) and
# of the defect audits' modules that loaded; then whether those calls, or validating, representing and
# enumerating, loaded the oracle.
WITHOUT_THE_PLANNER = """
import json, sys
before = set(sys.modules)
import nims
record = nims.load_device(sys.argv[1])
nims.build_report(record)
nims.design(nims.DesignSpec(1, 9, 13))
nims.tolerance_report(record.sequence())
passed = nims.represent_range_check(record.sequence()).passed
loaded = set(sys.modules) - before
planner = sorted({"dataclasses", "inspect", "nims.representation"} & loaded)
audits = sorted({"nims.fault_tolerance", "nims.oracle"} & loaded)
nims.validate(record.sequence())
nims.represent(5, record.sequence())
nims.enumerate_nims(1, 3, 9)
print(json.dumps({"passed": passed, "planner": planner, "audits": audits, "oracle": "nims.oracle" in sys.modules}))
"""


def test_reports_designs_and_the_sweep_load_no_planner_module():
    proc = _fresh("-c", WITHOUT_THE_PLANNER, str(DEVICE_CSV))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"passed": True, "planner": [], "audits": [], "oracle": False}


def test_every_submodule_loads_only_the_standard_library():
    proc = _fresh("-c", STDLIB_ONLY)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    package = Path(nims.__file__).parent
    assert doc["submodules"] == sorted(f"nims.{path.stem}" for path in package.glob("*.py") if path.stem != "__init__")
    assert doc["outside"] == []


# Runs argv through cli.run in this fresh interpreter, then prints whether _runs's byte tables were built.
TABLES = """
import json, sys
from nims import cli, oracle
result = cli.run(json.loads(sys.argv[1]))
print(json.dumps({"exit": result.exit_code, "built": oracle._byte_tables.cache_info().currsize}))
"""


@pytest.mark.parametrize(
    "argv,built",
    [
        (["validate", "--seq", "1,3,8"], 0),
        (["defects", "--seq", "1,3,8", "--defects", "2:1"], 0),
        (["oracle", "--seq", "1,3,8"], 0),
        (["oracle", "--seq", "1,2,8"], 1),
    ],
    ids=["validate", "defects-one-run", "oracle-one-run", "oracle-gaps"],
)
def test_the_byte_tables_are_built_only_to_list_runs(argv, built):
    # the probe imports oracle itself, so the tables must be built on first use, not at import
    proc = _fresh("-c", TABLES, json.dumps(argv))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"exit": 0, "built": built}
