"""The oracles in ``oracles.py`` must not share code with the library they check."""

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")


def test_oracles_do_not_import_the_library():
    imported = set()
    for node in ast.walk(ast.parse(ORACLES.read_text(), filename=str(ORACLES))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    offending = sorted(name for name in imported
                       if name.split(".")[0] == "pitaron_lab" or name.startswith("."))
    assert not offending, f"oracles.py imports {offending}"
