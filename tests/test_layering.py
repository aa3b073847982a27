"""The modules form a strict layer order, qcore -> {states, criteria,
channels} -> protocols -> harness -> cli: each imports only from the
layers below its own, so the shared building blocks (the Pauli basis,
the Kronecker kernel, the tolerances) live in qcore, and qcore holds no
private helper or constant that only one other layer reads.  The
protocols build their own Weyl unitaries and contract states; they
apply no channel, so they import nothing from channels either.  The
README documents the interface alone, naming no private identifier."""

import ast
import re
from pathlib import Path

import triact

LAYERS = (("qcore",), ("states", "criteria", "channels"), ("protocols",),
          ("harness",), ("cli",))
RANK = {name: rank for rank, layer in enumerate(LAYERS) for name in layer}
SRC = Path(triact.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"


def relative_imports(path: Path) -> set:
    """The package modules ``path`` imports, lazy imports included."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module
                         else [alias.name for alias in node.names])
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    assert modules == set(RANK)


def test_modules_import_only_lower_layers():
    imports = {name: relative_imports(SRC / f"{name}.py") for name in RANK}
    for name, found in imports.items():
        above = {m for m in found if RANK[m] >= RANK[name]}
        assert not above, f"{name} imports {sorted(above)}"
    assert "channels" not in imports["protocols"]


def module_names(tree: ast.Module) -> dict:
    """Each name a module-level assignment or definition binds, mapped to
    its node."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, ast.Assign):
            found.update({t.id: node for t in node.targets
                          if isinstance(t, ast.Name)})
    return found


def test_qcore_holds_only_shared_names():
    # Every private helper and upper-case constant of qcore is read inside
    # another qcore definition, or imported by two other modules.
    tree = ast.parse((SRC / "qcore.py").read_text())
    defined = module_names(tree)
    shared = {n for n in defined if n.startswith("_") or n.isupper()}
    read_in_qcore = set()
    for name, node in defined.items():
        read_in_qcore.update(n.id for n in ast.walk(node)
                             if isinstance(n, ast.Name) and n.id != name
                             and isinstance(n.ctx, ast.Load))
    importers = dict.fromkeys(shared, 0)
    for path in SRC.glob("*.py"):
        if path.stem in ("qcore", "__init__"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.level
                    and node.module == "qcore"):
                for alias in node.names:
                    if alias.name in importers:
                        importers[alias.name] += 1
    lonely = sorted(n for n in shared
                    if n not in read_in_qcore and importers[n] < 2)
    assert not lonely, f"qcore names read by one other module: {lonely}"


def test_readme_names_no_private_identifier():
    # How private code meets the interface is said in that code's
    # docstrings and comments. A private identifier is a `_`-prefixed
    # name component (dunders such as __init__ excepted) in a backticked
    # span or a fenced block.
    text = README.read_text(encoding="utf-8")
    spans = re.findall(r"^```.*?^```|`[^`]+`", text, re.M | re.S)
    bad = sorted({n for s in spans for n in re.findall(r"(?<![\w*])_\w+", s)
                  if not re.fullmatch(r"__\w+__", n)})
    assert not bad, f"README.md names private identifiers: {bad}"
