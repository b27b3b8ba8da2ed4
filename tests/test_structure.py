"""The source rules of src/nims and scripts, each one row of one table, checked on the parsed tree.

Every .py file under src/nims and scripts is parsed once with ast. A row
states one rule: the check, which yields the nodes that break it, the
paths it covers, and the one module exempt from it, the rule's home. A
row is checked on the tree, and on planted snippets it must flag and
snippets it must pass, so no row can pass by checking nothing. Comments
are not in the tree, so a comment never trips a rule.
"""

from __future__ import annotations

import ast
import functools
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ("src/nims", "scripts")
LIBRARY = ("src/nims",)


def _names(tree: ast.AST) -> Iterator[tuple[ast.AST, str]]:
    """Each Name, Attribute, imported alias and string constant of the tree, with the name it spells."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node, node.id
        elif isinstance(node, ast.Attribute):
            yield node, node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node, alias.name
                if alias.asname:
                    yield node, alias.asname
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node, node.value


def _naming(*banned: str) -> Callable[[ast.AST], Iterator[ast.AST]]:
    """A check that flags every node spelling one of the banned names."""
    def check(tree: ast.AST) -> Iterator[ast.AST]:
        return (node for node, name in _names(tree) if name in banned)

    return check


def _wording(*fragments: str) -> Callable[[ast.AST], Iterator[ast.AST]]:
    """A check that flags every string constant, an f-string's constant parts among them, holding a fragment."""
    def check(tree: ast.AST) -> Iterator[ast.AST]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if any(fragment in node.value for fragment in fragments):
                    yield node

    return check


def _both(*checks: Callable[[ast.AST], Iterator[ast.AST]]) -> Callable[[ast.AST], Iterator[ast.AST]]:
    def check(tree: ast.AST) -> Iterator[ast.AST]:
        for one in checks:
            yield from one(tree)

    return check


def _asserts(tree: ast.AST) -> Iterator[ast.AST]:
    # python -O strips assert statements, so an invariant must be an explicit raise
    return (node for node in ast.walk(tree) if isinstance(node, ast.Assert))


def _catch_alls(tree: ast.AST) -> Iterator[ast.AST]:
    # library failures stay typed NimsErrors: no bare except, and no Exception or BaseException, alone or in a tuple
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(
                kind is None or _spelled(kind) in ("Exception", "BaseException") for kind in caught
            ):
                yield node


def _spelled(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _prints(tree: ast.AST) -> Iterator[ast.AST]:
    # the library returns values and raises; only cli.main writes output, to the stream it picks
    return (
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"
    )


def _gc_imports(tree: ast.AST) -> Iterator[ast.AST]:
    # the cyclic collector's state is global to the process: a library must not switch it off
    # or retune it for its caller, however much a search would gain
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(alias.name == "gc" for alias in node.names):
            yield node
        elif isinstance(node, ast.ImportFrom) and node.module == "gc" and not node.level:
            yield node


def _total_limit_wordings(tree: ast.AST) -> Iterator[ast.AST]:
    # the f-string shape: the bare fragment also reads in prose ("the sequence total exceeds the cap")
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            for part, after in zip(node.values, node.values[1:]):
                if (
                    isinstance(part, ast.Constant)
                    and isinstance(part.value, str)
                    and part.value.endswith("sequence total exceeds ")
                    and isinstance(after, ast.FormattedValue)
                    and _spelled(after.value) == "TOTAL_LIMIT"
                ):
                    yield node


def _stored_tables(tree: ast.AST) -> Iterator[ast.AST]:
    # the _tables map by any spelling, and the retired per-table slots: _tolerances by any spelling,
    # _descent as an attribute or a string; the function _descent is called and imported by its name
    for node, name in _names(tree):
        if name in ("_tables", "_tolerances") or (
            name == "_descent" and isinstance(node, (ast.Attribute, ast.Constant))
        ):
            yield node


# the dict methods that change a map in place
MAP_WRITES = ("update", "setdefault", "pop", "popitem", "clear", "__setitem__", "__delitem__")


def _table_writes(tree: ast.AST) -> Iterator[ast.AST]:
    # a store into a _tables map in place, by subscript (assigned, augmented or deleted) or by a dict
    # method: _stored replaces a sequence's map, so the maps constructors share never change
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            target = node.value
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in MAP_WRITES:
            target = node.func.value
        else:
            continue
        if isinstance(target, ast.Attribute) and target.attr == "_tables":
            yield node


def _dict_updates(tree: ast.AST) -> Iterator[ast.AST]:
    # a record fills its instance dict with one item store a field: update(**fields) first builds a dict
    # of the keywords, which made each plan call measurably slower (representation.py's records)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "update"
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "__dict__"
        ):
            yield node


# what oracle.py may import from sequence: the Sequence, the record base and the type refusal
ORACLE_IMPORTS = {"Sequence", "_Frozen", "_require_type"}
# the chain verdict, its wording and the greedy's table, which the oracle never names
CHAIN_NAMES = (
    "_chain_capable", "_lower_chain", "_strict_valid", "validate", "_tolerances", "_tolerance_table",
    "_violations", "_refusal", "_require_capable", "_report", "_STRICT_REPORT", "_descent", "prefix_sums",
    "_tables", "_STRICT_TABLES", "_reported_sequence",
)


def _oracle_imports(tree: ast.AST) -> Iterator[ast.AST]:
    # the oracle stays independent of the chain certificate, though its one-run shortcut looks like
    # a chain test: it imports the errors and the names above of sequence, so neither nims,
    # "from . import", fault_tolerance, representation nor designer
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.partition(".")[0] == "nims" for alias in node.names):
                yield node
        elif isinstance(node, ast.ImportFrom):
            if (node.level, node.module) == (1, "sequence"):
                if not {alias.name for alias in node.names} <= ORACLE_IMPORTS:
                    yield node
            elif node.level:
                if (node.level, node.module) != (1, "errors"):
                    yield node
            elif (node.module or "").partition(".")[0] == "nims":
                yield node


class Rule(NamedTuple):
    """One source rule: its check, the paths it covers, its exempt module, and snippets it must flag and pass."""

    name: str
    check: Callable[[ast.AST], Iterator[ast.AST]]
    paths: tuple[str, ...]
    exempt: str | None
    flagged: tuple[str, ...]
    passed: tuple[str, ...] = ()


RULES = (
    Rule(
        "no-assert", _asserts, SRC, None,
        ("assert x > 0", "def f(x):\n    assert x, 'x'"),
        ("if not x:\n    raise ValueError(x)", "assertion = 1"),
    ),
    Rule(
        "no-catch-all-except", _catch_alls, SRC, None,
        (
            "try:\n    f()\nexcept:\n    pass",
            "try:\n    f()\nexcept Exception:\n    pass",
            "try:\n    f()\nexcept BaseException as exc:\n    g(exc)",
            "try:\n    f()\nexcept (ValueError, Exception):\n    pass",
            "try:\n    f()\nexcept builtins.BaseException:\n    pass",
        ),
        ("try:\n    f()\nexcept (ValueError, KeyError):\n    pass", "try:\n    f()\nexcept NimsError:\n    pass"),
    ),
    Rule(
        "no-print", _prints, LIBRARY, None,
        ("print('x')", "def f():\n    print(file=sys.stderr)"),
        ("stream.write('print(x)')", "pprint(x)", "# print(x)\nx = 1"),
    ),
    Rule(
        "no-gc-import", _gc_imports, LIBRARY, None,
        ("import gc", "import os, gc", "from gc import disable", "import gc as collector"),
        ("import gcd", "from math import gcd", "from .gc import x"),
    ),
    Rule(
        "no-dict-update", _dict_updates, LIBRARY, None,
        (
            "self.__dict__.update(signs=signs, beta=beta)",
            "def __init__(self, a):\n    self.__dict__.update({'a': a})",
            "record.__dict__.update(fields)",
        ),
        (
            'd = self.__dict__\nd["signs"] = signs\nd["beta"] = beta',
            "self.fields.update(signs=signs)",
            "cache.update(self.__dict__)",
        ),
    ),
    # sequence._require_capable words every capability refusal, and only sequence.py names the shared
    # strict map or words a violation, so each sequence is judged in one place; the retired report slot
    # and strict report, _report and _STRICT_REPORT, are flagged too, so a slot for the report does not come back
    Rule(
        "chain-gate-home",
        _both(
            _wording("completeness capable: "),
            _naming("_report", "_STRICT_REPORT", "_STRICT_TABLES", "_violations"),
        ),
        LIBRARY, "sequence.py",
        (
            "raise InvalidSequence(f'{what} is not completeness capable: {reasons}')",
            "report = seq._report",
            "from .sequence import _STRICT_REPORT",
            "from .sequence import _STRICT_TABLES",
            "from .sequence import _violations as words",
            "_report = None",
        ),
        ("ok = report.complete_capable", "text = 'completeness capable'", "seq._reports = ()"),
    ),
    # sequence.py declares, builds and reads a Sequence's stored tables, so each is kept in one place:
    # the report and the descent and tolerance tables in the _tables map here;
    # the retired per-table slots are flagged too, so a slot per table does not come back
    Rule(
        "stored-tables-home", _stored_tables, SRC, "sequence.py",
        (
            "tables = seq._tables",
            'object.__setattr__(seq, "_tables", {})',
            'rows = seq._tables["_descent"]',
            "tolerances = seq._tolerances",
            'object.__setattr__(seq, "_tolerances", t)',
            "rows = seq._descent",
            "table = getattr(seq, '_descent')",
            "from .sequence import _tolerances",
        ),
        (
            "bound, steps = _descent(seq)",
            "from .sequence import _descent",
            "table = _tolerance_table(seq)",
            "seq.tables = {}",
        ),
    ),
    # no module writes into a _tables map, sequence.py included: a store replaces the map, so the
    # shared maps every constructor sets never change
    Rule(
        "no-table-write", _table_writes, SRC, None,
        (
            "seq._tables[key] = table",
            "seq._tables[key] += 1",
            "del seq._tables[key]",
            "seq._tables.update({key: table})",
            "seq._tables.setdefault(key, table)",
            "seq._tables.pop(key)",
            "seq._tables.clear()",
            "seq._tables.__setitem__(key, table)",
            "a, seq._tables['validate'] = 1, report",
        ),
        (
            'object.__setattr__(seq, "_tables", {**seq._tables, key: table})',
            "table = seq._tables[key]",
            "tables = {}\ntables[key] = table",
            "seq.tables.update(other)",
            "table = seq._tables.get(key)",
        ),
    ),
    # only oracle.py reads a SumSet's private _one_run, so the oracle stays one piece beside its kernel
    Rule(
        "one-run-home", _naming("_one_run"), LIBRARY, "oracle.py",
        ("if sums._one_run:\n    pass", "from .oracle import _one_run"),
        ("one_run = sums.intervals == ((0, 0),)",),
    ),
    # only representation.py names the greedy kernel, so represent and plan share it beside it, across no import
    Rule(
        "greedy-home", _naming("_greedy"), SRC, "representation.py",
        ("from .representation import _greedy", "rep = representation._greedy(m, bits, steps)"),
        ("from .representation import represent",),
    ),
    # oracle._check_cap words every oracle-cap refusal, a negative cap's among them, beside the kernel it guards
    Rule(
        "cap-home", _wording("exceeds oracle cap", "oracle cap must not be negative"), LIBRARY, "oracle.py",
        (
            "raise RangeError(f'sequence total {total} exceeds oracle cap {cap}')",
            "raise InvalidInput(f'oracle cap must not be negative, got {cap}')",
        ),
        (
            '"""Raises RangeError when the sequence total exceeds the cap."""',
            "raise RangeError(f'sequence total exceeds {TOTAL_LIMIT}')",
        ),
    ),
    # sequence.prefix_sums words the total limit's refusal, which the descent table raises for every greedy path
    Rule(
        "size-limit-home", _total_limit_wordings, LIBRARY, "sequence.py",
        (
            "raise RangeError(f'the sequence total exceeds {TOTAL_LIMIT}')",
            "raise RangeError(f'sequence total exceeds {sequence.TOTAL_LIMIT}')",
            "if run > TOTAL_LIMIT:\n    raise RangeError(f'sequence total exceeds {TOTAL_LIMIT}')",
            "message = f'sequence total exceeds {nims.sequence.TOTAL_LIMIT}'",
        ),
        (
            '"""Raises RangeError when the sequence total exceeds the cap."""',
            "f'total exceeds {limit}'",
            "raise RangeError(f'sequence total {total} exceeds oracle cap {cap}')",
        ),
    ),
    Rule(
        "oracle-independence", _both(_oracle_imports, _naming(*CHAIN_NAMES)), ("src/nims/oracle.py",), None,
        (
            "from .sequence import validate",
            "from .sequence import Sequence, prefix_sums",
            "from . import fault_tolerance",
            "from .representation import represent",
            "import nims.designer",
            "from nims import sequence",
            "ok = seq._report.complete_capable",
            "table = _descent(seq)",
            "layers = seq._tables",
            "from .sequence import _reported_sequence",
            "strict = _STRICT_TABLES",
            "verdict = getattr(seq, '_report')",
            "from .sequence import Sequence, _check_cap",
        ),
        (
            "from .sequence import Sequence, _Frozen, _require_type",
            "from .errors import RangeError",
            "from itertools import groupby",
            "inner, low = _byte_tables()",
        ),
    ),
)

RULE_IDS = [rule.name for rule in RULES]


@functools.cache
def _trees() -> dict[Path, ast.AST]:
    """Every .py file under src/nims and scripts, parsed once, by its path from the repository root."""
    files = sorted(path for top in SRC for path in (ROOT / top).rglob("*.py"))
    return {path.relative_to(ROOT): ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in files}


def _covered(rule: Rule) -> list[Path]:
    return [
        path for path in _trees()
        if any(path.is_relative_to(top) for top in rule.paths) and path.name != rule.exempt
    ]


@pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
def test_rule_holds(rule):
    broken = [f"{path}:{node.lineno}" for path in _covered(rule) for node in rule.check(_trees()[path])]
    assert not broken, f"{rule.name} broken at {', '.join(broken)}"


@pytest.mark.parametrize(
    ("rule", "snippet"),
    [(rule, snippet) for rule in RULES for snippet in rule.flagged],
    ids=[f"{rule.name}-{n}" for rule in RULES for n in range(len(rule.flagged))],
)
def test_rule_flags_a_planted_violation(rule, snippet):
    assert list(rule.check(ast.parse(snippet)))


@pytest.mark.parametrize(
    ("rule", "snippet"),
    [(rule, snippet) for rule in RULES for snippet in rule.passed],
    ids=[f"{rule.name}-{n}" for rule in RULES for n in range(len(rule.passed))],
)
def test_rule_passes_a_clean_snippet(rule, snippet):
    assert not list(rule.check(ast.parse(snippet)))


@pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
def test_rule_covers_files_and_exempts_its_home(rule):
    # an exempt module that was renamed or moved would leave its rule exempting nothing
    covered = _covered(rule)
    assert covered
    if rule.exempt is not None:
        homes = [path for path in _trees() if path.name == rule.exempt]
        assert homes and all(any(path.is_relative_to(top) for top in rule.paths) for path in homes)


# each size limit's row, planted with its wording in the other limit's home, flags it there
PLANTED_IN_THE_OTHER_HOME = {
    "cap-home": ("sequence.py", "raise RangeError(f'sequence total {total} exceeds oracle cap {cap}')"),
    "size-limit-home": ("oracle.py", "raise RangeError(f'sequence total exceeds {TOTAL_LIMIT}')"),
}


@pytest.mark.parametrize("name", PLANTED_IN_THE_OTHER_HOME)
def test_a_size_limit_wording_in_the_other_home_is_flagged(name):
    rule = next(rule for rule in RULES if rule.name == name)
    home, snippet = PLANTED_IN_THE_OTHER_HOME[name]
    [path] = [path for path in _covered(rule) if path.name == home]
    planted = ast.parse((ROOT / path).read_text(encoding="utf-8") + "\n" + snippet)
    assert len(list(rule.check(planted))) == 1
