"""Every function, class and method of the package has a caller in the
package or is documented in README.md.

A definition is used when its name occurs as an identifier somewhere in
src/rsexact outside its own body; names in docstrings and comments do not
count.  Dunder methods are called by the language and are skipped.  A
helper kept only as an independent reference for the tests lives in
tests/reference.py, not in the package.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

import rsexact

SRC = Path(rsexact.__file__).resolve().parent
README = SRC.parents[1] / "README.md"

def _definitions():
    """(module, qualified name, name, first line, last line) of every
    module-level function and class and every method."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path.stem, node.name, node.name, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        yield (path.stem, f"{node.name}.{sub.name}", sub.name,
                               sub.lineno, sub.end_lineno)


def _identifiers():
    """module -> [(identifier, line)] over the code, not strings or comments."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        out[path.stem] = [(t.string, t.start[0]) for t in tokens if t.type == tokenize.NAME]
    return out


def test_no_definition_without_a_caller():
    identifiers = _identifiers()
    readme = README.read_text()
    unused = []
    for module, qualname, name, first, last in _definitions():
        if name.startswith("__") and name.endswith("__"):
            continue
        called = any(
            ident == name and not (other == module and first <= line <= last)
            for other, idents in identifiers.items()
            for ident, line in idents
        )
        if not called and not re.search(rf"\b{re.escape(name)}\b", readme):
            unused.append(f"{module}.{qualname}")
    assert not unused, f"defined in src/rsexact, never called or documented: {unused}"


def test_fields_are_built_only_by_gf():
    """Fields compare by identity, so a GF built outside the intern table
    would be a second, unequal copy of a field."""
    stray = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.stem == "finitefield":
            (gf_def,) = (n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "gf")
            allowed = {id(n) for n in ast.walk(gf_def)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and id(node) not in allowed
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == "GF"):
                stray.append(f"{path.stem}:{node.lineno}")
    assert not stray, f"GF(...) called outside finitefield.gf: {stray}"


def test_group_layer_is_int_only():
    """Prime-field values are ints in the group layer and a matrix is its int
    rows, with p passed as an int; FFElements there only come back as the
    elliptic eigenvalues, from the degree-n field itself.  PadicMatrix shares
    the names rows, entry and det, so the unused-definition test cannot see a
    returning FFElement boundary, nor a GF taken as an argument."""
    names = {ident for ident, _ in _identifiers()["matgroups"]}
    assert not names & {"FFElement", "GF"}


def test_char0_context_is_built_only_in_cyclo():
    """Every characteristic-0 `scal` default is the one cyclo.CYC."""
    stray = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "cyclo":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == "CycScalars"):
                stray.append(f"{path.stem}:{node.lineno}")
    assert not stray, f"CycScalars(...) called outside cyclo: {stray}"
