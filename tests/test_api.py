"""The public API has one entry per job, every public method has a
caller, and no module imports dead names.

The checks read the source with ``ast``, so a name in a comment or a
string is no use of it, unless the string is an annotation.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "alcsim"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def exports() -> set[str]:
    """The names that ``alcsim/__init__.py`` imports from the package or
    defines; dunder names such as ``__version__`` are metadata."""
    names = set()
    for node in parse(PACKAGE / "__init__.py").body:
        if isinstance(node, ast.ImportFrom) and node.level:
            names.update(a.asname or a.name for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {n for n in names if not n.startswith("__")}


def references(tree: ast.AST, attributes_only: bool = False) -> set[str]:
    """Each ``Name`` and ``Attribute`` read in ``tree``, or each
    ``Attribute`` read if ``attributes_only``, except inside the body of a
    ``def`` or ``class`` of that same name."""
    found = set()

    def walk(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            enclosing = enclosing | {node.name}
        name = (node.attr if isinstance(node, ast.Attribute) else
                node.id if isinstance(node, ast.Name) and not attributes_only
                else None)
        if name is not None and name not in enclosing:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            walk(child, enclosing)

    walk(tree, frozenset())
    return found


def readme_python() -> str:
    text = (ROOT / "README.md").read_text()
    return "\n".join(re.findall(r"```python\n(.*?)```", text, re.S))


def callers(attributes_only: bool = False) -> set[str]:
    """The names read in alcsim's modules, tools, benchmark and README's
    example; only attribute reads if ``attributes_only``, in ``__init__``
    too."""
    paths = [p for p in PACKAGE.glob("*.py")
             if attributes_only or p.name != "__init__.py"]
    paths += [*(ROOT / "tools").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = set()
    for path in paths:
        used |= references(parse(path), attributes_only)
    return used | references(ast.parse(readme_python()), attributes_only)


def test_every_export_has_a_caller():
    # a name alcsim exports is used by alcsim, its tools, its benchmark or
    # README's example; else it belongs in the tests or nowhere
    assert sorted(exports() - callers()) == []


def public_methods() -> set[str]:
    """The name of each public ``def`` in a class of alcsim."""
    return {node.name for path in PACKAGE.glob("*.py")
            for cls in ast.walk(parse(path)) if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")}


def test_every_public_method_has_a_caller():
    # a method is read as an attribute outside its own def by alcsim, its
    # tools, its benchmark or README's example; else nothing calls it
    assert sorted(public_methods() - callers(attributes_only=True)) == []


def unused_imports(tree: ast.Module) -> set[str]:
    """The names ``tree`` imports and never reads, a name in a string
    annotation counting as read."""
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        for annotation in (getattr(node, "annotation", None),
                           getattr(node, "returns", None)):
            for part in ast.walk(annotation) if annotation else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used |= references(ast.parse(part.value, mode="eval"))
    return imported - used


def test_no_module_imports_an_unused_name():
    unused = {path.name: sorted(unused_imports(parse(path)))
              for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}
