"""Every public definition in the package is used by the package.

A function, class or method that only the tests call belongs in the
tests, as the reference check it is.  The check is by name: a public
definition passes when its name is read somewhere in ``src/cdgacyc``
(a call, an attribute, an import, a decorator) other than at its own
definition.  Dunder methods are called by the interpreter and are
exempt.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cdgacyc"


def definitions_and_names(paths):
    """({public name: 'file:line' of its first definition}, {every name
    a module reads})."""
    defined, named = {}, set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined.setdefault(node.name,
                                       f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.rsplit(".", 1)[-1])
    return defined, named


def test_every_public_definition_is_named_in_src():
    defined, named = definitions_and_names(sorted(PACKAGE.glob("*.py")))
    unused = {name: where for name, where in defined.items()
              if name not in named}
    assert not unused, unused
