"""Knob-coverage audit: every ``REPRO_*`` knob is documented and read once.

``docs/CONFIGURATION.md`` claims to be the single source of truth for knob
names, defaults and semantics.  This audit makes that claim enforceable:
every ``REPRO_*`` environment variable read anywhere in ``src/repro/``
must have a summary-table row in CONFIGURATION.md, and every knob the
table documents must still exist in the code — doc rot is caught in both
directions.  And ``src/repro/config.py`` is the only module that reads a
``REPRO_*`` variable through ``os.environ``; writes (a benchmark pinning a
knob for a child process) are not reads.
"""

import ast
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
CONFIG_SOURCE = REPO_ROOT / "src" / "repro" / "config.py"
CONFIG_DOC = REPO_ROOT / "docs" / "CONFIGURATION.md"

_KNOB = re.compile(r"\bREPRO_[A-Z0-9_]+\b")


def _concrete(names):
    """Drop family prefixes like the ``REPRO_SERVICE_`` in ``REPRO_SERVICE_*``."""
    return {name for name in names if not name.endswith("_")}
#: A summary-table row: ``| `REPRO_FOO` | default | accessor | ... |``
_TABLE_ROW = re.compile(r"^\|\s*`(REPRO_[A-Z0-9_]+)`\s*\|", re.MULTILINE)


def knobs_in_source():
    """Every REPRO_* name read anywhere under ``src/repro/``."""
    found = set()
    for path in (REPO_ROOT / "src" / "repro").rglob("*.py"):
        found.update(_KNOB.findall(path.read_text()))
    return _concrete(found)


def knobs_in_config_module():
    return _concrete(_KNOB.findall(CONFIG_SOURCE.read_text()))


def _is_environ(node) -> bool:
    """``os.environ`` or a bare ``environ`` name."""
    if isinstance(node, ast.Attribute):
        return node.attr == "environ" and isinstance(node.value, ast.Name) \
            and node.value.id == "os"
    return isinstance(node, ast.Name) and node.id == "environ"


def _knob_literal(node) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, str) \
        and node.value.startswith("REPRO_")


def environ_reads(source: str):
    """``(line, knob)`` for every read of a literal ``REPRO_*`` name through
    ``os.environ`` / ``os.getenv`` in ``source``.

    Reads are ``environ.get(K)``, ``environ.setdefault(K, ...)``,
    ``os.getenv(K)``, ``environ[K]`` in load context and ``K in environ``;
    assignments, ``update`` and ``pop`` are writes.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and node.args \
                and _knob_literal(node.args[0]) \
                and isinstance(node.func, ast.Attribute):
            func = node.func
            if (func.attr in ("get", "setdefault") and _is_environ(func.value)) \
                    or (func.attr == "getenv"
                        and isinstance(func.value, ast.Name)
                        and func.value.id == "os"):
                found.append((node.lineno, node.args[0].value))
        elif isinstance(node, ast.Subscript) \
                and isinstance(node.ctx, ast.Load) \
                and _is_environ(node.value) and _knob_literal(node.slice):
            found.append((node.lineno, node.slice.value))
        elif isinstance(node, ast.Compare) and _knob_literal(node.left) \
                and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops) \
                and any(_is_environ(c) for c in node.comparators):
            found.append((node.lineno, node.left.value))
    return found


def test_config_module_is_the_single_reader():
    """Knobs are only read via repro.config — no stray os.environ lookups."""
    stray = knobs_in_source() - knobs_in_config_module()
    assert not stray, (
        f"REPRO_* knobs referenced outside src/repro/config.py's vocabulary: "
        f"{sorted(stray)} — add accessors to repro.config"
    )
    reads = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        if path == CONFIG_SOURCE:
            continue
        for line, knob in environ_reads(path.read_text()):
            reads.append(f"{path.relative_to(REPO_ROOT)}:{line} {knob}")
    assert not reads, (
        f"REPRO_* knobs read through os.environ outside src/repro/config.py: "
        f"{reads} — read them through a repro.config accessor"
    )


def test_environ_read_detector_tells_reads_from_writes():
    """Guard the guard: each read shape is caught, writes are not."""
    reads = environ_reads(
        'import os\n'
        'a = os.environ.get("REPRO_A")\n'
        'b = os.environ["REPRO_B"]\n'
        'c = "REPRO_C" in os.environ\n'
        'd = os.getenv("REPRO_D", "1")\n'
        'e = os.environ.setdefault("REPRO_E", "1")\n'
    )
    assert sorted(knob for _, knob in reads) == [
        "REPRO_A", "REPRO_B", "REPRO_C", "REPRO_D", "REPRO_E",
    ]
    assert environ_reads(
        'import os\n'
        'os.environ["REPRO_A"] = "1"\n'
        'os.environ.update({"REPRO_B": "2"})\n'
        'os.environ.pop("REPRO_C", None)\n'
        'x = os.environ.get("HOME")\n'
    ) == []


def test_every_knob_has_a_table_row():
    documented = set(_TABLE_ROW.findall(CONFIG_DOC.read_text()))
    missing = knobs_in_config_module() - documented
    assert not missing, (
        f"knobs missing from the CONFIGURATION.md summary table: "
        f"{sorted(missing)}"
    )


def test_every_documented_knob_exists():
    text = CONFIG_DOC.read_text()
    stale = _concrete(_KNOB.findall(text)) - knobs_in_source()
    assert not stale, (
        f"CONFIGURATION.md documents knobs no code reads: {sorted(stale)}"
    )


def test_knob_coverage_is_nontrivial():
    """Guard the guard: the regexes really extract the knob vocabulary."""
    knobs = knobs_in_config_module()
    assert {
        "REPRO_SCALE",
        "REPRO_WORKERS",
        "REPRO_BUILD_WORKERS",
        "REPRO_POOL_TTL",
    } <= knobs
    assert len(_TABLE_ROW.findall(CONFIG_DOC.read_text())) >= 12
