import ast
import pathlib
import types

import psolv

# imported by the acceptance gate, though no psolv module calls them
GATE_ONLY = {"centralizer", "intersect"}


def test_every_export_resolves():
    for name in psolv.__all__:
        assert hasattr(psolv, name), name


def test_exports_are_the_public_names():
    # every public name the package defines is exported, once, and nothing
    # else is; submodules are reached by their own import
    public = {name for name, value in vars(psolv).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert len(set(psolv.__all__)) == len(psolv.__all__)
    assert set(psolv.__all__) == public


def _modules():
    # (file name, syntax tree) of every psolv module other than __init__
    for path in sorted(pathlib.Path(psolv.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def _names_read():
    # every name read, called or looked up as an attribute in some module
    # other than __init__; a definition, an import or a docstring is no use
    used = set()
    for _, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_has_a_caller_in_psolv():
    assert set(psolv.__all__) - _names_read() == GATE_ONLY


def test_every_private_definition_is_read():
    # a module-level private function, class or constant that no psolv
    # module reads is left over from a deletion
    defined = []
    for name, tree in _modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            else:
                continue
            defined += [(name, t) for t in targets
                        if t.startswith("_") and not t.startswith("__")]
    used = _names_read()
    assert [f"{name}: {t}" for name, t in defined if t not in used] == []


def test_every_import_is_read():
    # each name a module imports is read somewhere in that module;
    # `from __future__ import annotations` is a compiler switch, not a name
    unused = []
    for name, tree in _modules():
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{name}: {x}" for x in imported if x not in read]
    assert unused == []
