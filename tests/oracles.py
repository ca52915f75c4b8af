"""Independent brute-force oracles.

These deliberately share no code path with the implementations they check:
homomorphisms by enumerating every assignment, treewidth by trying every
elimination order, the pebble game by solving the actual two-player game,
the consistency family by naive deletion to a fixpoint, the root
subtrees of a tree by taking or leaving each node in turn, tree
evaluation by enumerating those subtrees instead of the greedy scan, pattern
evaluation by joining every pair of mappings in nested loops, the clique
gadget by filtering the full product of gadget variables per triple,
graph and `.ug` files by the plain line-by-line parsers the one-pass ones
replaced, a pattern's top-level UNION components by splitting it
recursively, and patterns by the recursive-descent parser, the recursive
well-designedness check and the merge-and-restart forest translation the
one-pass pattern layer replaced.
"""

from __future__ import annotations

import re
from itertools import combinations, permutations, product

from wdsparql.errors import NonGroundGraph, NotWellDesigned, ParseError
from wdsparql.graphs import UndirectedGraph
from wdsparql.hom import GeneralizedTGraph, core
from wdsparql.patterns import AND, OPT, UNION, GraphPattern, Leaf, Node, Violation, pattern_vars
from wdsparql.terms import (
    _IRI_NAME,
    _USER_VAR_NAME,
    Mapping,
    TGraph,
    Term,
    Triple,
    parse_term,
    substitute,
    var,
)
from wdsparql.trees import WdPF, WdPT


def all_assignment_homs(
    source: TGraph, target: TGraph, fixed: dict[Term, Term] | None = None
) -> list[dict[Term, Term]]:
    """Every h with dom(h) = vars(source) and h(source) inside target,
    found by trying each value of the target's terms for each variable
    that `fixed` does not pin."""
    pins = {v: c for v, c in (fixed or {}).items() if v in source.vars()}
    free = sorted(source.vars() - pins.keys(), key=str)
    terms = sorted({t for u in target for t in u}, key=str)
    out = []
    for combo in product(terms, repeat=len(free)):
        h = dict(zip(free, combo))
        h.update(pins)
        if all(substitute(t, h) in target for t in source):
            out.append(h)
    return out


def hom_exists(a: GeneralizedTGraph, b: GeneralizedTGraph) -> bool:
    fixed = {x: x for x in a.dist if x in a.tgraph.vars()}
    return bool(all_assignment_homs(a.tgraph, b.tgraph, fixed))


def hom_into_graph_exists(g: GeneralizedTGraph, graph: TGraph, mu: Mapping) -> bool:
    fixed = {x: v for x, v in mu.items() if x in g.tgraph.vars()}
    return bool(all_assignment_homs(g.tgraph, graph, fixed))


def is_core_by_enumeration(g: GeneralizedTGraph) -> bool:
    """No homomorphism (X fixed) onto any proper subgraph."""
    fixed = {x: x for x in g.dist if x in g.tgraph.vars()}
    full = set(g.tgraph)
    for h in all_assignment_homs(g.tgraph, g.tgraph, fixed):
        image = {substitute(t, h) for t in g.tgraph}
        if image != full:
            return False
    return True


def treewidth_by_elimination_orders(graph: UndirectedGraph) -> int:
    """Try every elimination order; the minimum of the maximum degree at
    elimination time is the treewidth.  Convention: edgeless graphs get 1."""
    if not graph.vertices or not graph.edges:
        return 1
    best = len(graph.vertices)
    for order in permutations(sorted(graph.vertices, key=str)):
        adj = graph.adjacency()
        worst = 0
        for v in order:
            nbrs = adj.pop(v)
            worst = max(worst, len(nbrs))
            if worst >= best:
                break
            for u in nbrs:
                adj[u].discard(v)
                adj[u] |= nbrs - {u}
        best = min(best, worst)
    return max(best, 1)


def ctw_by_enumeration(g: GeneralizedTGraph) -> int:
    """The treewidth, by every elimination order, of the Gaifman graph of
    the fewest-triple image among all endomorphisms of (S, X) fixing X."""
    fixed = {x: x for x in g.dist if x in g.tgraph.vars()}
    image = min(
        ({substitute(t, h) for t in g.tgraph} for h in all_assignment_homs(g.tgraph, g.tgraph, fixed)),
        key=len,
    )
    free = {v for t in image for v in t.vars()} - g.dist
    edges = [(a, b) for t in image for a, b in combinations(sorted(t.vars() & free, key=str), 2)]
    return treewidth_by_elimination_orders(UndirectedGraph.of(free, edges))


def duplicator_wins_game(
    g: GeneralizedTGraph, graph: TGraph, mu: Mapping, k: int
) -> bool:
    """Solve the existential k-pebble game itself (greatest fixpoint over
    k-pebble placements, pebbles may share a variable)."""
    free = sorted(g.free_vars(), key=str)
    domain = sorted(graph.iris(), key=str)
    mu_sub = dict(mu.items())
    target = set(graph)

    def partial_hom(pairs) -> bool:
        sub = dict(mu_sub)
        for x, a in pairs:
            if sub.setdefault(x, a) != a:
                return False  # two pebbles disagree on one variable
        return all(
            substitute(t, sub) in target
            for t in g.tgraph
            if all(v in sub for v in t.vars())
        )

    if not free:
        return partial_hom(())

    def norm(pairs):
        return tuple(sorted(pairs, key=lambda p: (p[0].name, p[1].name)))

    placements = [
        norm(zip(vs, cs))
        for vs in product(free, repeat=k)
        for cs in product(domain, repeat=k)
    ]
    alive = {s for s in placements if partial_hom(s)}
    changed = True
    while changed:
        changed = False
        for state in list(alive):
            # Spoiler removes one pebble and places it on any variable;
            # Duplicator must answer with some value staying in the set.
            for drop in range(k):
                rest = state[:drop] + state[drop + 1 :]
                for x in free:
                    if not any(norm(rest + ((x, a),)) in alive for a in domain):
                        alive.discard(state)
                        changed = True
                        break
                if state not in alive:
                    break
    if not alive:
        return False
    # first round: Spoiler picks the variables, Duplicator the values
    for vs in product(free, repeat=k):
        if not any(
            norm(zip(vs, cs)) in alive for cs in product(domain, repeat=k)
        ):
            return False
    return True


def consistency_family_by_iteration(
    g: GeneralizedTGraph, graph: TGraph, mu: Mapping, k: int
) -> frozenset[Mapping]:
    """The greatest family of partial homomorphisms of size <= k (free
    variables to IRIs of the graph) closed under restriction and with the
    forth property, by deleting violators from the full family until
    nothing changes."""
    free = sorted(g.free_vars(), key=str)
    domain = sorted(graph.iris(), key=str)
    mu_sub = dict(mu.items())
    target = set(graph)

    def partial_hom(pairs) -> bool:
        sub = dict(mu_sub)
        sub.update(pairs)
        return all(
            substitute(t, sub) in target
            for t in g.tgraph
            if all(v in sub for v in t.vars())
        )

    family = {
        frozenset(zip(xs, values))
        for size in range(min(k, len(free)) + 1)
        for xs in combinations(free, size)
        for values in product(domain, repeat=size)
        if partial_hom(zip(xs, values))
    }
    changed = True
    while changed:
        changed = False
        for f in list(family):
            held = {x for x, _ in f}
            closed = all(f - {pair} in family for pair in f)
            forth = len(f) >= k or all(
                any(f | {(x, a)} in family for a in domain)
                for x in free
                if x not in held
            )
            if not (closed and forth):
                family.discard(f)
                changed = True
    return frozenset(Mapping(tuple(f)) for f in family)


def eval_naive_by_nested_loops(p: GraphPattern, graph: TGraph) -> frozenset[Mapping]:
    """The compositional set semantics, recursively, with every join a
    nested loop over all pairs of mappings tested for compatibility."""
    if isinstance(p, Leaf):
        return frozenset(
            Mapping.of(h) for h in all_assignment_homs(TGraph((p.triple,)), graph)
        )
    left = eval_naive_by_nested_loops(p.left, graph)
    right = eval_naive_by_nested_loops(p.right, graph)
    if p.op == UNION:
        return left | right
    joined = {m1.merge(m2) for m1 in left for m2 in right if m1.compatible(m2)}
    if p.op == AND:
        return frozenset(joined)
    bare = {m1 for m1 in left if not any(m1.compatible(m2) for m2 in right)}
    return frozenset(joined | bare)  # OPT


def root_subtrees_by_enumeration(tree: WdPT) -> tuple[frozenset[int], ...]:
    """Every node subset that holds the root and the parent of each of its
    other nodes, in canonical order.  The subsets are built node by node,
    each node after its parent, by taking it or not; a subset that takes a
    node without its parent is dropped at once, which leaves the same
    family as filtering all 2^n subsets, at a cost that a 30-node path can
    pay."""

    def depth(n: int) -> int:
        d = 0
        while n != tree.root:
            n, d = tree.parents[n], d + 1
        return d

    found = [frozenset({tree.root})]
    for n in sorted(set(tree.labels) - {tree.root}, key=depth):
        found += [s | {n} for s in found if tree.parents[n] in s]
    return tuple(sorted(found, key=lambda s: tuple(sorted(s))))


def eval_tree_by_subtree_enumeration(tree: WdPT, graph: TGraph, mu: Mapping) -> bool:
    """The subtree characterization, quantifying over every subtree."""
    for nodes in root_subtrees_by_enumeration(tree):
        pat = tree.pat(nodes)
        if tree.vars(nodes) != mu.domain:
            continue
        sub = dict(mu.items())
        if not all(substitute(t, sub) in set(graph) for t in pat):
            continue
        ok = True
        for n in nodes:
            for child in tree.children(n):
                if child in nodes:
                    continue
                child_homs = all_assignment_homs(tree.label(child), graph)
                if any(
                    Mapping.of(h).compatible(mu) for h in child_homs
                ):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def eval_forest_by_enumeration(forest: WdPF, graph: TGraph, mu: Mapping) -> bool:
    return any(eval_tree_by_subtree_enumeration(t, graph, mu) for t in forest)


def matched_subtree_by_enumeration(tree: WdPT, graph: TGraph, mu: Mapping) -> frozenset | None:
    """The subtree with exactly mu's variables whose pattern mu maps into the
    graph, found among all subtrees; None when there is none."""
    sub = dict(mu.items())
    hits = [
        nodes
        for nodes in root_subtrees_by_enumeration(tree)
        if tree.vars(nodes) == mu.domain
        and all(substitute(t, sub) in set(graph) for t in tree.pat(nodes))
    ]
    assert len(hits) <= 1, "NR normal form allows one subtree per variable set"
    return hits[0] if hits else None


def support_by_enumeration(forest: WdPF, target_vars) -> dict[int, list[frozenset]]:
    """All witness subtrees with exactly the target variables, per tree."""
    target_vars = frozenset(target_vars)
    out: dict[int, list[frozenset]] = {}
    for i, tree in enumerate(forest.trees):
        hits = [
            ns for ns in root_subtrees_by_enumeration(tree) if tree.vars(ns) == target_vars
        ]
        if hits:
            out[i] = hits
    return out


def has_clique_by_edge_count(h: UndirectedGraph, k: int) -> bool:
    """Independent recomputation, iterating groups in reversed order."""
    if k <= 0:
        return True
    if k == 1:
        return bool(h.vertices)
    groups = list(combinations(sorted(h.vertices, key=str, reverse=True), k))
    return any(
        all(h.has_edge(a, b) for a, b in combinations(group, 2)) for group in groups
    )


def clique_gadget_by_product(g: GeneralizedTGraph, h: UndirectedGraph, k: int, cells) -> GeneralizedTGraph:
    """The clique gadget built the brute-force way: per core triple, every
    combination of the gadget variables of its anchors (itertools.product),
    kept when each pair of them agrees on the vertex where they share a grid
    row and on the edge where they share a column.  `cells` maps each grid
    cell (row, column) to its branch set; the caller checks the minor map."""
    pairs = [frozenset(p) for p in combinations(range(1, k + 1), 2)]
    cell_of = {a: cell for cell, vs in cells.items() for a in vs}
    vertices = sorted(h.vertices)
    edges = sorted(tuple(sorted(e)) for e in h.edges)
    info = {}

    def gadget_vars(anchor):
        i, p = cell_of[anchor]
        out = []
        for v in vertices:
            for e in edges:
                if (v in e) == (i in pairs[p - 1]):
                    term = var(f"g#{v}#{e[0]}#{e[1]}#{i}#{p}#{anchor.name}")
                    info[term] = (v, e, i, p)
                    out.append(term)
        return out

    cored = core(g)
    triples = []
    for t in cored.tgraph:
        if any(v not in cored.dist and v not in cell_of for v in t.vars()):
            triples.append(t)
            continue
        options = [gadget_vars(x) if x in cell_of else [x] for x in t]
        for combo in product(*options):
            chosen = [info[c] for c in combo if c in info]
            if all(
                (a[2] != b[2] or a[0] == b[0]) and (a[3] != b[3] or a[1] == b[1])
                for a, b in combinations(chosen, 2)
            ):
                triples.append(Triple(*combo))
    return GeneralizedTGraph(TGraph(tuple(triples)), cored.dist, declared=True)


def parse_graph_by_lines(text: str, *, ground: bool = False) -> TGraph:
    """A graph file read one stripped line at a time: blank and ``#`` lines
    skipped, one trailing ``.`` dropped, every token of a line parsed
    before the line is checked for variables."""
    triples = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.endswith("."):
            line = line[:-1].rstrip()
        tokens = line.split()
        if len(tokens) != 3:
            raise ParseError(f"expected three terms, got {len(tokens)}", line=no)
        found = [parse_term(tok, line=no) for tok in tokens]
        if ground and any(x.is_var for x in found):
            worst = min((x for x in found if x.is_var), key=str)
            raise NonGroundGraph(f"variable {worst} in an RDF graph", line=no)
        triples.append(Triple(*found))
    return TGraph(tuple(triples))


_UG_NAME = re.compile(r"[A-Za-z0-9_]+")


def parse_undirected_graph_by_lines(text: str) -> UndirectedGraph:
    """A `.ug` file read one stripped line at a time: blank and ``#`` lines
    skipped, every name of a line checked before its keyword and arity,
    then a self-loop refused; the graph is made by the checking
    constructor, an edge's endpoints added to the vertices."""
    vertices: set[str] = set()
    edges: set[frozenset] = set()
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        for tok in tokens[1:]:
            if not _UG_NAME.fullmatch(tok):
                raise ParseError(f"bad vertex name {tok!r}", line=no)
        if tokens[0] == "vertex" and len(tokens) == 2:
            vertices.add(tokens[1])
        elif tokens[0] == "edge" and len(tokens) == 3:
            if tokens[1] == tokens[2]:
                raise ParseError(f"self-loop at {tokens[1]!r}", line=no)
            vertices.update(tokens[1:])
            edges.add(frozenset(tokens[1:]))
        else:
            raise ParseError("expected 'vertex a' or 'edge a b'", line=no)
    return UndirectedGraph(frozenset(vertices), frozenset(edges))


# ---------------------------------------------------------------------------
# the pattern layer as it was before the one-pass rewrite: a recursive
# descent parser, a recursive well-designedness check, and a forest
# translation that builds a tree, NR-normalizes it by merge-and-restart
# and renumbers it, each step a new WdPT


_TOKEN = re.compile(r"\s*(?:(?P<punct>[(),])|(?P<word>[^\s(),]+))")
_OPS = (AND, OPT, UNION)


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            break
        tokens.append((m.group("punct") or m.group("word"), m.start("punct") if m.group("punct") else m.start("word")))
        pos = m.end()
    if text[pos:].strip():
        raise ParseError(f"unexpected character {text[pos]!r}", position=pos)
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.length = len(text)

    def _peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def _pos(self) -> int:
        return self.tokens[self.i][1] if self.i < len(self.tokens) else self.length

    def _take(self, expected: str) -> None:
        got = self._peek()
        if got != expected:
            raise ParseError(
                f"expected {expected!r}, got {got!r}" if got else f"expected {expected!r}, got end of input",
                position=self._pos(),
            )
        self.i += 1

    def _term(self) -> Term:
        tok = self._peek()
        if tok is None or tok in ("(", ")", ","):
            raise ParseError(f"expected a term, got {tok!r}", position=self._pos())
        pos = self._pos()
        self.i += 1
        if tok.startswith("?"):
            if not _USER_VAR_NAME.match(tok[1:]):
                raise ParseError(f"bad variable {tok!r}", position=pos)
            return Term("var", tok[1:])
        if not _IRI_NAME.match(tok) or tok in _OPS:
            raise ParseError(f"bad IRI {tok!r}", position=pos)
        return Term("iri", tok)

    def pattern(self) -> GraphPattern:
        self._take("(")
        if self._peek() == "(":
            left = self.pattern()
            op = self._peek()
            if op not in _OPS:
                raise ParseError(
                    f"expected AND, OPT or UNION, got {op!r}", position=self._pos()
                )
            self.i += 1
            right = self.pattern()
            self._take(")")
            return Node(op, left, right)
        s = self._term()
        self._take(",")
        p = self._term()
        self._take(",")
        o = self._term()
        self._take(")")
        return Leaf(Triple(s, p, o))

    def parse(self) -> GraphPattern:
        out = self.pattern()
        if self._peek() is not None:
            raise ParseError(f"trailing input {self._peek()!r}", position=self._pos())
        return out


def parse_pattern_by_recursion(text: str) -> GraphPattern:
    return _Parser(text).parse()


def union_components_by_recursion(p: GraphPattern) -> list[GraphPattern]:
    if isinstance(p, Node) and p.op == UNION:
        return union_components_by_recursion(p.left) + union_components_by_recursion(p.right)
    return [p]


def _find_union(p: GraphPattern) -> Node | None:
    if isinstance(p, Leaf):
        return None
    if p.op == UNION:
        return p
    return _find_union(p.left) or _find_union(p.right)


def _check_component(p: GraphPattern, outside: frozenset[Term]) -> Violation | None:
    """Check every OPT occurrence against the variables visible outside it."""
    if isinstance(p, Leaf):
        return None
    lv, rv = pattern_vars(p.left), pattern_vars(p.right)
    if p.op == OPT:
        escaped = (rv - lv) & outside
        if escaped:
            return Violation("escaped-variable", p, min(escaped, key=str))
    return _check_component(p.left, outside | rv) or _check_component(
        p.right, outside | lv
    )


def well_designed_violation_by_recursion(p: GraphPattern) -> Violation | None:
    for comp in union_components_by_recursion(p):
        nested = _find_union(comp)
        if nested is not None:
            return Violation("nested-union", nested)
        bad = _check_component(comp, frozenset())
        if bad is not None:
            return bad
    return None


def _component_structure(p: GraphPattern):
    """(t-graph, children) nesting: AND merges, OPT hangs the right side."""
    if isinstance(p, Leaf):
        return TGraph((p.triple,)), []
    if p.op == AND:
        lg, lc = _component_structure(p.left)
        rg, rc = _component_structure(p.right)
        return lg | rg, lc + rc
    if p.op == OPT:
        lg, lc = _component_structure(p.left)
        return lg, lc + [_component_structure(p.right)]
    raise ValueError("UNION below the top level")


def _materialize(structure) -> WdPT:
    labels: dict[int, TGraph] = {}
    parents: dict[int, int] = {}
    counter = 0

    def walk(node, parent: int | None) -> None:
        nonlocal counter
        me = counter
        counter += 1
        g, kids = node
        labels[me] = g
        if parent is not None:
            parents[me] = parent
        for kid in kids:
            walk(kid, me)

    walk(structure, None)
    return WdPT(0, parents, labels)


def _nr_normalize_by_restarts(tree: WdPT) -> WdPT:
    """Merge every node whose variables are covered by its parent into it,
    rescanning from the start after each merge."""
    labels = dict(tree.labels)
    parents = dict(tree.parents)
    while True:
        merged = False
        for n in sorted(parents):
            p = parents[n]
            if labels[n].vars() <= labels[p].vars():
                labels[p] = labels[p] | labels[n]
                del labels[n]
                del parents[n]
                for child, q in list(parents.items()):
                    if q == n:
                        parents[child] = p
                merged = True
                break
        if not merged:
            break
    return WdPT(tree.root, parents, labels)


def _renumbered(tree: WdPT) -> WdPT:
    order = []
    queue = [tree.root]
    while queue:
        n = queue.pop(0)
        order.append(n)
        queue.extend(tree.children(n))
    new_id = {n: i for i, n in enumerate(order)}
    return WdPT(
        0,
        {new_id[n]: new_id[p] for n, p in tree.parents.items()},
        {new_id[n]: g for n, g in tree.labels.items()},
    )


def to_forest_by_recursion(p: GraphPattern) -> WdPF:
    """One tree per top-level UNION component, built, NR-normalized and
    renumbered breadth first, each step a new tree."""
    bad = well_designed_violation_by_recursion(p)
    if bad is not None:
        raise NotWellDesigned(str(bad))
    trees = []
    for comp in union_components_by_recursion(p):
        tree = _materialize(_component_structure(comp))
        tree = _renumbered(_nr_normalize_by_restarts(tree))
        tree.ensure_nr()
        trees.append(tree)
    return WdPF(tuple(trees))
