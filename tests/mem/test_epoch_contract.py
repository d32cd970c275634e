"""Lint: page-table state changes only through ``PageTable`` methods.

Every :class:`~repro.mem.page_table.PageTable` mutator bumps the
table's epoch, and two things trust that epoch: the fast path's cached
views and the background writer's proof that nothing but its own burst
touched the table (see :mod:`repro.mem.page_table`).  A write into one
of the epoch-covered arrays from anywhere else would go unseen.  This
test parses every module under ``src/repro`` and fails on a store into
a subscript of ``.present``, ``.dirty``, ``.swap_slot`` or ``.last_ref``
— directly, or through a local name bound to one of them — outside
``repro/mem/page_table.py``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
OWNER = SRC / "mem" / "page_table.py"
GUARDED = frozenset(("present", "dirty", "swap_slot", "last_ref"))


def _is_guarded(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr in GUARDED


def _flatten(target):
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _flatten(elt)
    else:
        yield target


def _targets(node):
    if isinstance(node, ast.Assign):
        return node.targets
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    return []


def _aliases(scope) -> set:
    """Names bound to a guarded array anywhere in ``scope``."""
    names = set()
    for node in ast.walk(scope):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if (isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                    and len(target.elts) == len(node.value.elts)):
                pairs = zip(target.elts, node.value.elts)
            else:
                pairs = [(target, node.value)]
            for name, value in pairs:
                if isinstance(name, ast.Name) and _is_guarded(value):
                    names.add(name.id)
    return names


def guarded_stores(source: str) -> list[int]:
    """Line numbers of stores into a guarded array's subscript."""
    tree = ast.parse(source)
    scopes = [tree] + [node for node in ast.walk(tree)
                       if isinstance(node, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))]
    lines = set()
    for scope in scopes:
        aliases = _aliases(scope) if scope is not tree else set()
        for node in ast.walk(scope):
            for target in _targets(node):
                for leaf in _flatten(target):
                    if not isinstance(leaf, ast.Subscript):
                        continue
                    base = leaf.value
                    if _is_guarded(base) or (isinstance(base, ast.Name)
                                             and base.id in aliases):
                        lines.add(leaf.lineno)
    return sorted(lines)


def test_page_table_state_is_written_only_by_page_table():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path == OWNER:
            continue
        for line in guarded_stores(path.read_text()):
            offenders.append(f"{path.relative_to(SRC.parent)}:{line}")
    assert not offenders, (
        "page-table state written outside PageTable (the epoch would not "
        "move): " + ", ".join(offenders)
    )


def test_the_owner_itself_is_flagged():
    # PageTable's own mutators are exactly such stores: the lint sees them
    assert guarded_stores(OWNER.read_text())


@pytest.mark.parametrize("source", [
    "def f(t, p):\n    t.dirty[p] = True\n",
    "def f(t, p):\n    t.present[p] |= True\n",
    "def f(vmm, p):\n    vmm.tables[1].swap_slot[p] = -1\n",
    "def f(t, p):\n    a, t.last_ref[p] = 1, 2.0\n",
    "def f(t, p):\n    dirty = t.dirty\n    dirty[p] = True\n",
    "def f(t, p):\n    pres, ref = t.present, t.last_ref\n    ref[p] = 0.0\n",
])
def test_lint_flags_direct_and_aliased_writes(source):
    assert guarded_stores(source)


@pytest.mark.parametrize("source", [
    "def f(t, p):\n    return t.present[p]\n",
    "def f(t, p):\n    t.referenced[p] = False\n",
    "def f(t, p):\n    mask = t.dirty[p]\n    mask[0] = False\n",
])
def test_lint_ignores_reads_and_copies(source):
    assert not guarded_stores(source)
