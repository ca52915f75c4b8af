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


# the one rule that turns a triple with some positions bound into an index
# lookup, and the modules that may read `TGraph.by_mask` with it
RULE_CALLERS = (("terms", "TGraph", "matching"), ("hom", "Plan", "__init__"))
INDEX_READERS = {"terms", "hom"}


def called_names(node: ast.AST) -> set[str]:
    """The names of the functions called anywhere under `node`: a bare
    name, or the attribute a call reads (`by_mask` of `g.by_mask(...)`)."""
    out = set()
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            if isinstance(call.func, ast.Name):
                out.add(call.func.id)
            elif isinstance(call.func, ast.Attribute):
                out.add(call.func.attr)
    return out


def method(source: str, cls: str, name: str) -> ast.FunctionDef:
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for f in node.body:
                if isinstance(f, ast.FunctionDef) and f.name == name:
                    return f
    raise AssertionError(f"no {cls}.{name}")


def access_path_breaches(sources: dict[str, str]) -> list[str]:
    """Where the package leaves the one access-path rule: a compiler of
    lookups that does not call `access_path`, or a module outside
    INDEX_READERS that reads `by_mask`."""
    out = [
        f"{cls}.{name} does not call access_path"
        for module, cls, name in RULE_CALLERS
        if "access_path" not in called_names(method(sources[module], cls, name))
    ]
    out += [
        f"{module} calls by_mask"
        for module, source in sorted(sources.items())
        if module not in INDEX_READERS and "by_mask" in called_names(ast.parse(source))
    ]
    return out


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}


def test_every_graph_read_follows_the_one_access_path_rule():
    assert access_path_breaches(package_sources()) == []


def test_the_access_path_check_sees_a_second_rule():
    sources = package_sources()
    call = "mask, ties, p = access_path(t, known)"
    assert call in sources["hom"]
    # a plan that works out its lookups' masks again by itself
    inline = (
        "bound = tuple(i for i, x in enumerate(t) if x.is_iri or x in known); "
        "p = t[1] if t[1].is_iri else None; "
        "mask = bound if p is None or len(bound) == 3 else tuple(i for i in bound if i != 1); "
        "ties = ()"
    )
    copy = dict(sources, hom=sources["hom"].replace(call, inline))
    assert access_path_breaches(copy) == ["Plan.__init__ does not call access_path"]
    copy = dict(sources, pebble=sources["pebble"] + "\n\ndef f(g):\n    return g.by_mask((0,))\n")
    assert access_path_breaches(copy) == ["pebble calls by_mask"]
