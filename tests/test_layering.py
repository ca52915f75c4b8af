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


# a target's reader table (`TGraph.readers`, over the `_readers` slot):
# the plans' lookups bound to the target's indexes, which only the search
# reads and fills; the t-graph that keeps it makes it
READER_TABLE = {"readers", "_readers"}
READER_TABLE_USERS = {("terms", "TGraph.readers"), ("hom", "_solve")}


def scopes(source: str):
    """Each top-level function and each method of a top-level class of a
    module's source, by its name (`Class.method` for a method), and each
    other top-level statement under the name `<module>`."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for f in node.body:
                name = f.name if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) else "<class>"
                yield f"{node.name}.{name}", f
        else:
            yield "<module>", node


def reader_table_breaches(sources: dict[str, str]) -> list[str]:
    """Where the package reads a target's reader table outside
    READER_TABLE_USERS: any read of an attribute named in READER_TABLE."""
    return [
        f"{module}.{name} reads the reader table"
        for module, source in sorted(sources.items())
        for name, node in scopes(source)
        if (module, name) not in READER_TABLE_USERS
        and any(isinstance(n, ast.Attribute) and n.attr in READER_TABLE for n in ast.walk(node))
    ]


def test_only_the_search_reads_a_targets_reader_table():
    assert reader_table_breaches(package_sources()) == []


def test_the_reader_table_check_sees_another_reader():
    sources = package_sources()
    assert "target.readers()" in sources["hom"]
    copy = dict(sources, pebble=sources["pebble"] + "\n\ndef f(plan, g):\n    return g.readers().get(plan)\n")
    assert reader_table_breaches(copy) == ["pebble.f reads the reader table"]
    copy = dict(sources, pebble=sources["pebble"] + "\n\ndef f(g):\n    return g._readers\n")
    assert reader_table_breaches(copy) == ["pebble.f reads the reader table"]


# the term table's release: only `terms` hooks the cyclic collector, and
# only `_interned`, which makes every term, holds a new term until the
# next release
RECENT_WRITERS = {("terms", "_interned")}
GROWING = {"append", "extend", "insert"}


def imports_gc(source: str) -> bool:
    return any(
        isinstance(node, ast.Import) and any(alias.name == "gc" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "gc"
        for node in ast.walk(ast.parse(source))
    )


def grows_recent(node: ast.AST) -> bool:
    """Whether `node` grows a list named `_recent`: a call of one of
    GROWING on it, or an augmented assignment to it."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in GROWING:
        target = node.func.value
    elif isinstance(node, ast.AugAssign):
        target = node.target
    else:
        return False
    return (isinstance(target, ast.Name) and target.id == "_recent") or (
        isinstance(target, ast.Attribute) and target.attr == "_recent"
    )


def release_breaches(sources: dict[str, str]) -> list[str]:
    """Where the package leaves the term table's release to others: a
    module other than `terms` that imports gc, or a scope outside
    RECENT_WRITERS that grows `_recent`."""
    out = [
        f"{module} imports gc"
        for module, source in sorted(sources.items())
        if module != "terms" and imports_gc(source)
    ]
    out += [
        f"{module}.{name} appends to _recent"
        for module, source in sorted(sources.items())
        for name, node in scopes(source)
        if (module, name) not in RECENT_WRITERS and any(map(grows_recent, ast.walk(node)))
    ]
    return out


def test_only_the_term_table_holds_terms_until_a_release():
    sources = package_sources()
    assert imports_gc(sources["terms"])
    assert "_recent.append(term)" in sources["terms"]
    assert release_breaches(sources) == []


def test_the_release_check_sees_another_holder():
    sources = package_sources()
    copy = dict(sources, hardness=sources["hardness"] + "\n\ndef f(t):\n    terms._recent.append(t)\n")
    assert release_breaches(copy) == ["hardness.f appends to _recent"]
    copy = dict(sources, hardness=sources["hardness"] + "\n\ndef f(t):\n    _recent += [t]\n")
    assert release_breaches(copy) == ["hardness.f appends to _recent"]
    copy = dict(sources, pebble="import gc\n" + sources["pebble"])
    assert release_breaches(copy) == ["pebble imports gc"]
    copy = dict(sources, pebble="from gc import collect\n" + sources["pebble"])
    assert release_breaches(copy) == ["pebble imports gc"]
    copy = dict(sources, terms=sources["terms"].replace("_recent.clear()", "_recent.extend(())"))
    assert release_breaches(copy) == ["terms._release appends to _recent"]
