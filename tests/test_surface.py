"""Every piece of the package's public surface has a reader.

A reader is a command, a demo or the benchmark: the name is read somewhere
in ``src/qraclab`` outside its own definition and ``__init__.py``, in
``demos/`` or in ``perfbench/``.  A test alone does not count, except for
the reference implementations in ``ORACLES`` and ``ORACLE_METHODS``, which
tests compare the program against.  The rule covers public top-level
functions and classes, the public methods and properties of public
classes, and the defaulted parameters of public functions, methods and
constructors: each must be passed, by keyword or by position, by some call
in those trees.  For a dataclass, or a named tuple, the constructor's
parameters are its fields, and each public field must be read as an
attribute, ``x.field``, in those trees or in the package: passing it by
keyword is not a read.  Only the fields in ``FIELDS_READ_BY_TESTS``, which
tests compare with their references, are exempt.  Every module of the
package also reads each name it imports.
"""

import ast
from collections import Counter
from pathlib import Path

import qraclab
from qraclab import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qraclab"
ORACLES = {"evaluate_worstcase", "max_relative_entropy"}
# the tests' references for ``perm_table`` and ``shift_average``
ORACLE_METHODS = {"SharedShift.apply", "SharedShift.invert"}
# ``main``'s argv is the tests' entry point; the ``SUITES`` handlers take
# the resolved config as keywords, so their parameters are ``FLAGS`` keys
UNPASSED_BY_DESIGN = {"main.argv"} | {
    f"{handler.__name__}.{key}" for handler, _ in cli.SUITES.values() for key in cli.FLAGS
}
FIELDS_READ_BY_TESTS = {
    "GameSolution.per_x": "compared with evaluate_worstcase's per-input values",
    "GameSolution.worst_x": "compared with evaluate_worstcase's argmax and pinned on a corpus",
    "GameSolution.avg_value_at_final_prior": "checked against the average-case bound 2p(1-p)n",
    "ExactOutput.dist": "compared with the law of the sampled protocol outputs",
}


def _read_counts(tree: ast.AST, skip: ast.AST | None = None) -> Counter:
    """How often each name is read in ``tree`` as a bare name or an
    attribute, outside ``skip``."""
    out = Counter()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        stack.extend(ast.iter_child_nodes(node))
    return out


def _reads(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names read in ``tree`` as bare names or attributes, outside ``skip``."""
    return set(_read_counts(tree, skip))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _modules() -> dict[Path, ast.Module]:
    return {p: _parse(p) for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}


def _outside_trees() -> list[ast.Module]:
    return [
        _parse(path)
        for folder in ("demos", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
    ]


def _public_classes(tree: ast.Module):
    return [n for n in tree.body if isinstance(n, ast.ClassDef) and not n.name.startswith("_")]


def _public_methods(cls: ast.ClassDef):
    return [
        n for n in cls.body
        if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")
    ]


def unread_definitions() -> tuple[set[str], list[str]]:
    """(every public top-level definition, those without a reader)."""
    modules = _modules()
    module_reads = {p: _reads(tree) for p, tree in modules.items()}
    outside = set().union(*(_reads(tree) for tree in _outside_trees()))
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


def unread_methods() -> tuple[set[str], list[str]]:
    """(every public method, property and classmethod of a public class, as
    Class.name; as module.Class.name, those whose name is read nowhere
    outside their own definition and the definitions already found unread).
    The search runs to a fixed point, so a method read only by an unread
    one is unread."""
    modules = _modules()
    outside = set().union(*(_reads(tree) for tree in _outside_trees()))
    inside = sum((_read_counts(tree) for tree in modules.values()), Counter())
    methods = {
        f"{path.stem}.{cls.name}.{method.name}": (method.name, _read_counts(method))
        for path, tree in modules.items()
        for cls in _public_classes(tree)
        for method in _public_methods(cls)
    }
    unread: list[str] = []
    while True:
        live = inside - sum((methods[label][1] for label in unread), Counter())
        found = [
            label
            for label, (name, own) in methods.items()
            if label not in unread and name not in outside and not (live - own)[name]
        ]
        if not found:
            break
        unread += found
    return {label.split(".", 1)[1] for label in methods}, unread


def _is_record(cls: ast.ClassDef) -> bool:
    """Whether the class is a dataclass or a named tuple, whose fields are
    its constructor's parameters unless it defines ``__init__``."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    names = {n.id for n in (*decorators, *cls.bases) if isinstance(n, ast.Name)}
    return bool(names & {"dataclass", "NamedTuple"})


def _fields(cls: ast.ClassDef) -> list[ast.AnnAssign]:
    return [n for n in cls.body if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]


def _attribute_reads(tree: ast.AST) -> set[str]:
    """Names read in ``tree`` as attributes, ``x.name`` in a load."""
    return {
        n.attr
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }


def unread_fields() -> tuple[set[str], list[str]]:
    """(every public field of a public dataclass or named tuple, as
    Class.field; as module.Class.field, those whose name is read as an
    attribute nowhere in the package, the demos or the benchmark)."""
    modules = _modules()
    trees = [*modules.values(), *_outside_trees()]
    reads = set().union(*(_attribute_reads(tree) for tree in trees))
    defined, unread = set(), []
    for path, tree in modules.items():
        for cls in filter(_is_record, _public_classes(tree)):
            for name in (f.target.id for f in _fields(cls) if not f.target.id.startswith("_")):
                defined.add(f"{cls.name}.{name}")
                if name not in reads:
                    unread.append(f"{path.stem}.{cls.name}.{name}")
    return defined, unread


def _has_default(field: ast.AnnAssign) -> bool:
    """Whether a record field has a default: a value other than a
    ``field(...)`` call without ``default`` or ``default_factory``."""
    value = field.value
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return any(kw.arg in ("default", "default_factory") for kw in value.keywords)
    return value is not None


def _defaulted(args: ast.arguments, skip_first: bool) -> list[tuple[str, int | None]]:
    """(name, position or None if keyword-only) of each defaulted parameter."""
    positional = [*args.posonlyargs, *args.args][1 if skip_first else 0 :]
    out = [(a.arg, k) for k, a in enumerate(positional)][len(positional) - len(args.defaults) :]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def defaulted_parameters(tree: ast.Module):
    """(callee name, Owner.param label, param, position) of every defaulted
    parameter of a public function, public method or public constructor."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            for param, pos in _defaulted(node.args, skip_first=False):
                yield node.name, f"{node.name}.{param}", param, pos
    for cls in _public_classes(tree):
        inits = [n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "__init__"]
        if inits:
            params = _defaulted(inits[0].args, skip_first=True)
        elif _is_record(cls):
            params = [(f.target.id, k) for k, f in enumerate(_fields(cls)) if _has_default(f)]
        else:
            params = []
        for param, pos in params:
            yield cls.name, f"{cls.name}.{param}", param, pos
        for method in _public_methods(cls):
            for param, pos in _defaulted(method.args, skip_first=True):
                yield method.name, f"{cls.name}.{method.name}.{param}", param, pos


def _calls(trees) -> dict[str, list[ast.Call]]:
    """Every call in ``trees``, by the name it calls: ``f(...)`` and
    ``x.f(...)`` both count as calls of ``f``."""
    out: dict[str, list[ast.Call]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name is not None:
                    out.setdefault(name, []).append(node)
    return out


def _passes(call: ast.Call, param: str, pos: int | None) -> bool:
    if any(kw.arg in (param, None) for kw in call.keywords):  # by name, or **mapping
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return pos is not None and len(call.args) > pos


def unpassed_parameters() -> tuple[set[str], list[str]]:
    """(every defaulted parameter, as Owner.param; those no call in the
    package, the demos or the benchmark passes)."""
    modules = _modules()
    calls = _calls([*modules.values(), *_outside_trees()])
    defined, unpassed = set(), []
    for path, tree in modules.items():
        for callee, label, param, pos in defaulted_parameters(tree):
            defined.add(label)
            if not any(_passes(call, param, pos) for call in calls.get(callee, ())):
                unpassed.append(f"{path.stem}.{label}")
    return defined, unpassed


def unread_imports() -> list[str]:
    """module.name of each name a package module imports and never reads;
    ``__init__.py`` re-exports, and ``from __future__`` reads nothing."""
    unread = []
    for path, tree in _modules().items():
        reads = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in reads:
                        unread.append(f"{path.stem}.{bound}")
    return unread


def test_every_public_definition_has_a_reader():
    defined, unread = unread_definitions()
    assert ORACLES <= defined
    assert [name for name in unread if name.split(".")[1] not in ORACLES] == []


def test_every_public_method_has_a_reader():
    defined, unread = unread_methods()
    assert ORACLE_METHODS <= defined
    assert [name for name in unread if name.split(".", 1)[1] not in ORACLE_METHODS] == []


def test_every_defaulted_parameter_is_passed():
    defined, unpassed = unpassed_parameters()
    assert "main.argv" in defined
    assert [name for name in unpassed if name.split(".", 1)[1] not in UNPASSED_BY_DESIGN] == []


def test_every_record_field_is_read():
    defined, unread = unread_fields()
    assert set(FIELDS_READ_BY_TESTS) <= defined
    assert [name for name in unread if name.split(".", 1)[1] not in FIELDS_READ_BY_TESTS] == []


def test_every_import_is_read():
    assert unread_imports() == []


def test_every_exported_name_resolves():
    assert len(set(qraclab.__all__)) == len(qraclab.__all__)
    assert [name for name in qraclab.__all__ if not hasattr(qraclab, name)] == []
