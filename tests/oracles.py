"""Independent brute-force oracles.

These deliberately share no code path with the implementations they check:
homomorphisms by enumerating every assignment, treewidth by trying every
elimination order, the pebble game by solving the actual two-player game,
the consistency family by naive deletion to a fixpoint, tree evaluation
by enumerating every subtree instead of the greedy scan.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

from wdsparql.graphs import UndirectedGraph
from wdsparql.hom import GeneralizedTGraph
from wdsparql.terms import Mapping, TGraph, Term, substitute
from wdsparql.trees import WdPF, WdPT


def all_assignment_homs(
    source: TGraph, target: TGraph, fixed: dict[Term, Term] | None = None
) -> list[dict[Term, Term]]:
    """Every h with dom(h) = vars(source) and h(source) inside target,
    found by trying each total assignment over the target's terms."""
    fixed = fixed or {}
    variables = sorted(source.vars(), key=str)
    terms = sorted(
        {t for u in target for t in u.terms} | set(fixed.values()), key=str
    )
    out = []
    for combo in product(terms, repeat=len(variables)):
        h = dict(zip(variables, combo))
        if any(h[v] != c for v, c in fixed.items() if v in h):
            continue
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


def eval_tree_by_subtree_enumeration(tree: WdPT, graph: TGraph, mu: Mapping) -> bool:
    """The subtree characterization, quantifying over every subtree."""
    for nodes in tree.subtree_nodesets():
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


def support_by_enumeration(forest: WdPF, target_vars) -> dict[int, list[frozenset]]:
    """All witness subtrees with exactly the target variables, per tree."""
    target_vars = frozenset(target_vars)
    out: dict[int, list[frozenset]] = {}
    for i, tree in enumerate(forest.trees):
        hits = [
            ns for ns in tree.subtree_nodesets() if tree.vars(ns) == target_vars
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
