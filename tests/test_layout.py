"""The package holds only what a run executes.

Every function, class, method and property defined in src/vptwin must be
named again somewhere in src/vptwin: by a call, an attribute access, an
import or a docstring. A definition named nowhere else is code that only
the tests reach; it belongs in tests/oracles.py, or nowhere.
"""

import ast
import re
from pathlib import Path

import vptwin

PACKAGE = Path(vptwin.__file__).parent


def test_every_definition_is_named_elsewhere_in_the_package():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    defined = {}
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, []).append(f"{name}:{node.lineno}")
    package = "\n".join(sources.values())
    unused = [
        f"{name} ({', '.join(where)})"
        for name, where in sorted(defined.items())
        if len(re.findall(rf"\b{name}\b", package)) <= len(where)
    ]
    assert not unused, "defined in src/vptwin but named nowhere else there: " + "; ".join(unused)
