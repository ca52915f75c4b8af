"""No function of the package calls itself, so no walk is bounded by the
interpreter's recursion limit.  Calls are resolved by Python's scoping
rules: a method calling a module-level function of its own name, or a
function calling a parameter of its own name, is not recursion."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "wdsparql"

# (module, function) pairs that recurse on a bound of their own
ALLOWED = {
    ("hardness", "find_grid_minor.place"),  # one level per grid cell, at most MAX_GRID_CELLS
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
SCOPES = (*FUNCTIONS, ast.ClassDef)


def own_nodes(scope):
    """The nodes of a scope's body, nested scopes yielded but not entered."""
    stack = [scope.body] if isinstance(scope, ast.Lambda) else list(scope.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def bindings(scope):
    """The names a scope binds, the defs among them, and its `global` names."""
    names, defs, declared = set(), {}, set()
    if isinstance(scope, FUNCTIONS):
        a = scope.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [x for x in (a.vararg, a.kwarg) if x]
        names.update(p.arg for p in params)
    for node in own_nodes(scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
            defs[node.name] = node
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, ast.Global):
            declared.update(node.names)
    return names, defs, declared


def lookup(name, chain, info):
    """The scope that binds `name` for code in the innermost scope of
    `chain` (class scopes are not visible to the functions in them), and
    the def it names there, if any."""
    for scope in reversed(chain):
        if isinstance(scope, ast.ClassDef):
            continue
        names, defs, declared = info[scope]
        if name in declared:
            return lookup(name, chain[:1], info)
        if name in names:
            return scope, defs.get(name)
    return None, None


def target(func, chain, info, parents):
    """The def a call's function expression names, or None."""
    if isinstance(func, ast.Name):
        return lookup(func.id, chain, info)[1]
    if not (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)):
        return None
    scope, found = lookup(func.value.id, chain, info)
    if found is None and isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = parents.get(scope)
        first = [p.arg for p in scope.args.posonlyargs + scope.args.args][:1]
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in scope.decorator_list)
        if isinstance(owner, ast.ClassDef) and not static and first == [func.value.id]:
            found = owner  # self.m() or cls.m() in a method of `owner`
    if isinstance(found, ast.ClassDef):
        return bindings(found)[1].get(func.attr)
    return None


def self_calls(source: str) -> set[str]:
    """The dotted names of the functions whose own body calls themselves, or
    a function enclosing them."""
    module = ast.parse(source)
    info, parents, found = {}, {}, set()
    todo = [(module, [module], [])]
    while todo:
        scope, chain, qual = todo.pop()
        info[scope] = bindings(scope)
        for node in own_nodes(scope):
            if isinstance(node, SCOPES):
                parents[node] = scope
                name = "<lambda>" if isinstance(node, ast.Lambda) else node.name
                todo.append((node, chain + [node], qual + [name]))
            elif isinstance(node, ast.Call) and isinstance(scope, FUNCTIONS):
                called = target(node.func, chain, info, parents)
                if any(called is s for s in chain if isinstance(s, FUNCTIONS)):
                    found.add(".".join(qual))
    return found


def test_the_recursion_scan_resolves_names_by_scope():
    examples = {
        "def f():\n    return f()": {"f"},
        "def f(f):\n    return f()": set(),
        "class A:\n    def m(self):\n        return self.m()": {"A.m"},
        "class A:\n    def m(self):\n        return A.m(self)": {"A.m"},
        "class A:\n    @staticmethod\n    def m(x):\n        return x.m()": set(),
        "from hom import ctw\nclass HomCache:\n    def ctw(self, g):\n        return ctw(g)": set(),
        "class Analysis:\n    def subtrees(self):\n        return subtrees(self.forest)\n"
        "def subtrees(forest):\n    return forest": set(),
        "def outer():\n    def grow(n):\n        return [grow(c) for c in n]\n    return grow(1)": {
            "outer.grow"
        },
        "def f():\n    def g():\n        return f()\n    return g()": {"f.g"},
        "def f(xs):\n    return sorted(xs, key=lambda x: f(x))": {"f.<lambda>"},
        "def f():\n    f = print\n    return f()": set(),
        "class G:\n    def sub(self):\n        return G()": set(),
    }
    for source, expected in examples.items():
        assert self_calls(source) == expected, source


def test_no_function_calls_itself():
    found = {
        (path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in self_calls(path.read_text(encoding="utf-8"))
    }
    assert not {module for module, _ in found} & {"trees", "width"}, found
    assert found == ALLOWED
