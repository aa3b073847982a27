"""The modules form a strict layer order, qcore -> {states, criteria,
channels} -> protocols -> harness -> cli: each imports only from the
layers below its own, so the shared building blocks (the Pauli and Weyl
bases, the Kronecker kernel, the tolerances) live in qcore.  The
protocols contract states and read their bases from qcore; they apply
no channel, so they import nothing from channels either."""

import ast
from pathlib import Path

import triact

LAYERS = (("qcore",), ("states", "criteria", "channels"), ("protocols",),
          ("harness",), ("cli",))
RANK = {name: rank for rank, layer in enumerate(LAYERS) for name in layer}
SRC = Path(triact.__file__).parent


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
