"""Every name a module imports is used in it: a lint check by `ast`, for
want of a linter. Names listed in `__all__` count as used (they are the
module's exports), and `from __future__` imports bind no name.

Every module-private name a package module binds at its top level (one
leading underscore) is read in that module or imported by another
package module: a constant or helper nothing reads is dead code.

Every public def or class a package module binds at its top level is
read (a loaded name or an attribute) somewhere in the package, the tests
or `perfbench/`: importing it or listing it in `__all__` does not count.
The scan matches by name alone, so it finds only names that nothing
reads at all.

The compute modules `tsne` and `sensitivity` import nothing from
`chirpmap.artifacts`: the pipeline's stages read and write their tables.

No two `raise DataError(...)` sites under `chirpmap/models/` share the
source text of their message: each model input rule is stated once."""

import ast
from pathlib import Path

import pytest

import chirpmap

ROOTS = (Path(chirpmap.__file__).parent, Path(__file__).parent)
MODULES = sorted(path for root in ROOTS for path in root.rglob("*.py"))
PACKAGE_MODULES = sorted(ROOTS[0].rglob("*.py"))
PERFBENCH_MODULES = sorted((ROOTS[1].parent / "perfbench").glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name the module's imports bind, with the line that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def imported_modules(tree: ast.Module, package: str) -> dict[str, int]:
    """Each module the imports of a module in `package` name, by its
    dotted name, with the line that names it: `from .a import b` names
    both `package.a` and `package.a.b`, as b may be a submodule, and
    `from ..a import b` takes `a` from the package above."""
    modules = {}
    parts = package.split(".")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join((parts[:len(parts) + 1 - node.level] if node.level else [])
                            + ([node.module] if node.module else []))
            modules[base] = node.lineno
            modules.update((f"{base}.{alias.name}", node.lineno) for alias in node.names)
    return modules


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads or binds outside its imports, and the
    entries of its `__all__`."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return used


def private_names(tree: ast.Module) -> dict[str, int]:
    """Each name with one leading underscore that the module binds at its
    top level (a def, a class or an assignment), with the line that binds it."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.setdefault(node.name, node.lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update((n.id, node.lineno) for n in ast.walk(target)
                             if isinstance(n, ast.Name) and n.id not in names)
    return {name: line for name, line in names.items()
            if name.startswith("_") and not name.startswith("__")}


def public_definitions(tree: ast.Module) -> dict[str, int]:
    """Each def or class without a leading underscore that the module
    binds at its top level, with the line that binds it."""
    return {node.name: node.lineno for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module loads, and every attribute it names."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))}


def unread_private_names(tree: ast.Module, module: str, imported: set[str]) -> list[str]:
    """The private names of `module` that it never reads (an `ast.Load`)
    and that are not in `imported`, the dotted names other modules import."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in private_names(tree).items()
            if name not in read and f"{module}.{name}" not in imported]


def module_and_package(path: Path) -> tuple[str, str]:
    """The dotted name of a package module and of the package its relative imports start from."""
    parts = ["chirpmap", *path.relative_to(ROOTS[0]).with_suffix("").parts]
    if parts[-1] == "__init__":
        parts.pop()
        return ".".join(parts), ".".join(parts)
    return ".".join(parts), ".".join(parts[:-1])


def repeated_data_errors(trees: dict[str, ast.Module]) -> list[str]:
    """Each message source text that more than one `raise DataError(...)`
    of the modules `trees` (by file name) states, with the sites."""
    sites: dict[str, list[str]] = {}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args
                    and isinstance(node.exc.func, ast.Name) and node.exc.func.id == "DataError"):
                sites.setdefault(ast.unparse(node.exc.args[0]), []).append(f"{name}:{node.lineno}")
    return [f"{text} at {', '.join(at)}" for text, at in sites.items() if len(at) > 1]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = [f"{path.name}:{line} {name}" for name, line in imported_names(tree).items()
              if name not in used]
    assert unused == []


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("from __future__ import annotations\nimport os\nfrom a import b as c, d\n"
                     "__all__ = ['d']\n")
    assert set(imported_names(tree)) - used_names(tree) == {"os", "c"}


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_private_name_is_read(path):
    imported = set()
    for other in PACKAGE_MODULES:
        if other != path:
            tree = ast.parse(other.read_text(encoding="utf-8"))
            imported |= set(imported_modules(tree, module_and_package(other)[1]))
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert unread_private_names(tree, module_and_package(path)[0], imported) == []


def test_the_scan_sees_an_unread_private_name():
    tree = ast.parse("_READ = 1\n_PLANTED = 2\n_IMPORTED = 3\n__dunder__ = 4\n"
                     "def f():\n    return _READ\n")
    user = ast.parse("from ..pkg.planted import _IMPORTED\n")
    imported = set(imported_modules(user, "chirpmap.other"))
    assert unread_private_names(tree, "chirpmap.pkg.planted", imported) == ["_PLANTED (line 2)"]


def test_every_public_name_is_read():
    reads = set()
    for path in MODULES + PERFBENCH_MODULES:
        reads |= read_names(ast.parse(path.read_text(encoding="utf-8")))
    unread = [f"{path.name}:{line} {name}" for path in PACKAGE_MODULES
              for name, line in public_definitions(ast.parse(path.read_text(encoding="utf-8"))).items()
              if name not in reads]
    assert PERFBENCH_MODULES and unread == []


def test_the_scan_sees_an_unread_public_name():
    package = ast.parse("def used():\n    pass\n\n\ndef planted():\n    pass\n\n\n"
                        "class Kept:\n    pass\n\n\ndef _private():\n    pass\n\n\n"
                        "__all__ = ['used', 'planted', 'Kept']\n")
    user = ast.parse("from pkg import Kept, planted, used\nimport pkg\nused()\nx = pkg.Kept\n")
    reads = read_names(package) | read_names(user)
    assert [name for name in public_definitions(package) if name not in reads] == ["planted"]


@pytest.mark.parametrize("name", ["tsne.py", "sensitivity.py"])
def test_compute_modules_do_not_import_artifacts(name):
    tree = ast.parse((ROOTS[0] / name).read_text(encoding="utf-8"))
    imports = [f"{name}:{line} {module}" for module, line in imported_modules(tree, "chirpmap").items()
               if module.split(".")[:2] == ["chirpmap", "artifacts"]]
    assert imports == []


def test_the_scan_sees_every_spelling_of_an_artifacts_import():
    for source in ("from .artifacts import read_csv", "from . import artifacts",
                   "from chirpmap.artifacts import read_csv", "import chirpmap.artifacts"):
        assert "chirpmap.artifacts" in imported_modules(ast.parse(source), "chirpmap"), source


def test_each_model_input_rule_is_stated_once():
    models = sorted((ROOTS[0] / "models").glob("*.py"))
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in models}
    assert models and repeated_data_errors(trees) == []


def test_the_scan_sees_a_repeated_data_error():
    one = ast.parse('def f(n):\n    if n < 0:\n        raise DataError("n must be nonnegative")\n'
                    '    raise ValueError(f"{n} rows")\n')
    two = ast.parse('def g(n, d):\n    if n < 0:\n        raise DataError("n must be nonnegative")\n'
                    '    raise DataError(f"{n} rows")\n')
    assert repeated_data_errors({"one.py": one, "two.py": two}) == [
        "'n must be nonnegative' at one.py:3, two.py:3"]
