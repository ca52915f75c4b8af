import ast
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "wdsparql"

# evaluation and everything it builds on; the width analysis and the
# hardness generator sit above them
LOWER = ("terms", "patterns", "graphs", "hom", "trees", "pebble", "evaluator")
UPPER = {"width", "hardness"}


def imported_modules(source: str) -> set[str]:
    """The package modules a module's source imports, anywhere in it."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level and node.module:  # from .width import ...
                out.add(node.module.split(".")[0])
            elif node.level:  # from . import width
                out.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("wdsparql."):
                out.add(node.module.split(".")[1])
            elif node.module == "wdsparql":
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("wdsparql."):
                    out.add(alias.name.split(".")[1])
    return out


def test_evaluation_imports_neither_width_nor_hardness():
    for name in LOWER:
        source = (PACKAGE / f"{name}.py").read_text(encoding="utf-8")
        assert not imported_modules(source) & UPPER, name


def test_the_import_scan_sees_every_form():
    examples = {
        "from .width import Analysis": {"width"},
        "from . import hardness, hom": {"hardness", "hom"},
        "def f():\n    from wdsparql.width import x": {"width"},
        "import wdsparql.hardness": {"hardness"},
        "from wdsparql import width": {"width"},
    }
    for source, expected in examples.items():
        assert imported_modules(source) == expected, source
