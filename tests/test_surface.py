"""Every public function and class of the package has a reader.

A reader is a command, a demo or the benchmark: the name is read somewhere
in ``src/qraclab`` outside its own definition and ``__init__.py``, in
``demos/`` or in ``perfbench/``.  A test alone does not count, except for
the reference implementations in ``ORACLES``, which tests compare the
program against.
"""

import ast
from pathlib import Path

import qraclab

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qraclab"
ORACLES = {"evaluate_worstcase", "max_relative_entropy"}


def _reads(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names read in ``tree`` as bare names or attributes, outside ``skip``."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def unread_definitions() -> tuple[set[str], list[str]]:
    """(every public top-level definition, those without a reader)."""
    modules = {p: _parse(p) for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    module_reads = {p: _reads(tree) for p, tree in modules.items()}
    outside = set()
    for folder in ("demos", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            outside |= _reads(_parse(path))
    defined, unread = set(), []
    for path, tree in modules.items():
        elsewhere = outside.union(*(r for p, r in module_reads.items() if p != path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            defined.add(node.name)
            if node.name not in elsewhere and node.name not in _reads(tree, skip=node):
                unread.append(f"{path.stem}.{node.name}")
    return defined, unread


def test_every_public_definition_has_a_reader():
    defined, unread = unread_definitions()
    assert ORACLES <= defined
    assert [name for name in unread if name.split(".")[1] not in ORACLES] == []


def test_every_exported_name_resolves():
    assert len(set(qraclab.__all__)) == len(qraclab.__all__)
    assert [name for name in qraclab.__all__ if not hasattr(qraclab, name)] == []
