"""Seeded random instances for the oracle-equivalence property suites.

Pattern trees are generated constructively so they are well designed by
construction: every node may reuse its parent's variables and must
introduce at least one fresh one, which yields the variable-connectivity
condition and NR normal form for free.  Patterns come from converting such
trees back to AND/OPT/UNION syntax.
"""

from __future__ import annotations

import random

from .hom import GeneralizedTGraph
from .patterns import GraphPattern
from .terms import Mapping, TGraph, Term, Triple, iri, substitute, var
from .trees import WdPF, WdPT, forest_pattern

IRIS = tuple(iri(x) for x in "abcdef")
PREDICATES = tuple(iri(x) for x in "pqr")


def random_rdf_graph(
    rng: random.Random, *, max_iris: int = 6, max_triples: int = 8
) -> TGraph:
    pool = IRIS[: rng.randint(1, max_iris)]
    triples = []
    for _ in range(rng.randint(1, max_triples)):
        triples.append(
            Triple(rng.choice(pool), rng.choice(PREDICATES), rng.choice(pool))
        )
    return TGraph(tuple(triples))


def _random_root_subtree(rng: random.Random, forest: WdPF) -> tuple[WdPT, frozenset[int]]:
    """A random tree of `forest` and a random root subtree of it, by nodes."""
    tree = forest.trees[rng.randrange(len(forest.trees))]
    nodesets = tree.subtree_nodesets()
    return tree, nodesets[rng.randrange(len(nodesets))]


def planted_graph(
    rng: random.Random, forest: WdPF, *, max_iris: int = 6, max_triples: int = 8
) -> TGraph:
    """A `random_rdf_graph` plus the image of a random root subtree of one
    tree of `forest` under a random assignment of its variables to the
    graph's subjects and objects, so that tree has an answer, one that
    reaches past its root whenever the subtree does, and the image meets
    the graph's other triples."""
    graph = random_rdf_graph(rng, max_iris=max_iris, max_triples=max_triples)
    tree, nodes = _random_root_subtree(rng, forest)
    pool = sorted({x for t in graph for x in (t[0], t[2])}, key=str)
    image = {v: rng.choice(pool) for v in sorted(tree.vars(nodes), key=str)}
    return graph | TGraph(substitute(t, image) for t in tree.pat(nodes))


def _random_triple(rng: random.Random, vars_pool: list[Term]) -> Triple:
    def pick_term(allow_pred: bool = False) -> Term:
        if allow_pred and rng.random() < 0.85:
            return rng.choice(PREDICATES)
        if vars_pool and rng.random() < 0.75:
            return rng.choice(vars_pool)
        return rng.choice(IRIS[:4])

    return Triple(pick_term(), pick_term(allow_pred=True), pick_term())


def random_tree(
    rng: random.Random,
    *,
    max_nodes: int = 4,
    max_triples_per_node: int = 2,
    fresh: list[int] | None = None,
    root_pool: list[Term] | None = None,
) -> WdPT:
    """A random wdPT in NR normal form (labels never empty)."""
    counter = fresh if fresh is not None else [0]

    def new_var() -> Term:
        counter[0] += 1
        return var(f"v{counter[0]}")

    labels: dict[int, TGraph] = {}
    parents: dict[int, int] = {}
    budget = rng.randint(1, max_nodes)
    queue: list[tuple[int, list[Term]]] = []

    def make_node(node_id: int, inherited: list[Term]) -> None:
        own = [new_var() for _ in range(rng.randint(1, 2))]
        pool = inherited + own
        triples = [_random_triple(rng, pool) for _ in range(rng.randint(1, max_triples_per_node))]
        # guarantee NR: at least one fresh variable must actually occur
        used = TGraph(tuple(triples)).vars()
        if not any(v in used for v in own):
            t = triples[0]
            triples[0] = Triple(own[0], t.p, t.o)
        labels[node_id] = TGraph(tuple(triples))
        queue.append((node_id, [v for v in pool if v in labels[node_id].vars()]))

    make_node(0, list(root_pool or []))
    next_id = 1
    while queue and next_id < budget:
        parent_id, pool = queue.pop(0)
        for _ in range(rng.randint(0, 2)):
            if next_id >= budget:
                break
            parents[next_id] = parent_id
            make_node(next_id, list(pool))
            next_id += 1
    return WdPT(0, parents, labels)


def random_forest(rng: random.Random, *, max_trees: int = 2, max_nodes: int = 3) -> WdPF:
    fresh = [0]
    trees = [random_tree(rng, max_nodes=max_nodes, fresh=fresh)]
    for _ in range(rng.randint(1, max_trees) - 1):
        # sharing root variables across trees makes cross-tree support likely
        pool: list[Term] = []
        if rng.random() < 0.6:
            pool = [
                v
                for v in sorted(trees[0].node_vars(trees[0].root), key=str)
                if rng.random() < 0.7
            ]
        trees.append(random_tree(rng, max_nodes=max_nodes, fresh=fresh, root_pool=pool))
    return WdPF(tuple(trees))


def random_wd_pattern(rng: random.Random, *, max_trees: int = 2, max_nodes: int = 3) -> GraphPattern:
    return forest_pattern(random_forest(rng, max_trees=max_trees, max_nodes=max_nodes))


def random_generalized_tgraph(
    rng: random.Random, *, max_vars: int = 4, max_triples: int = 4
) -> GeneralizedTGraph:
    pool = [var(f"u{i}") for i in range(rng.randint(1, max_vars))]
    triples = [_random_triple(rng, pool) for _ in range(rng.randint(1, max_triples))]
    g = TGraph(tuple(triples))
    used = sorted(g.vars(), key=str)
    dist = frozenset(v for v in used if rng.random() < 0.4)
    return GeneralizedTGraph(g, dist)


def random_game_instance(
    rng: random.Random,
    *,
    max_vars: int = 4,
    max_triples: int = 4,
    max_iris: int = 4,
    ensure_hom: bool = False,
) -> tuple[GeneralizedTGraph, TGraph, Mapping]:
    """A (generalized t-graph, ground graph, mapping) triple; with
    ensure_hom the graph contains a homomorphic image of the t-graph, so
    positive cases are guaranteed rather than rare."""
    g = random_generalized_tgraph(rng, max_vars=max_vars, max_triples=max_triples)
    graph = random_rdf_graph(rng, max_iris=max_iris, max_triples=6)
    if ensure_hom:
        pool = IRIS[:max_iris]
        image = {v: rng.choice(pool) for v in sorted(g.tgraph.vars(), key=str)}
        graph = graph | TGraph(tuple(substitute(t, image) for t in g.tgraph))
        mu = Mapping.of({x: image[x] for x in sorted(g.dist, key=str)})
        return g, graph, mu
    pool = sorted(graph.iris(), key=str) or [iri("a")]
    mu = Mapping.of({x: rng.choice(pool) for x in sorted(g.dist, key=str)})
    return g, graph, mu


def random_candidate_mapping(
    rng: random.Random, forest: WdPF, graph: TGraph
) -> Mapping:
    """A mapping that has a chance of being a solution: assign the variables
    of a random subtree of a random tree to random IRIs of the graph."""
    tree, nodes = _random_root_subtree(rng, forest)
    pool = sorted(graph.iris(), key=str) or [iri("a")]
    return Mapping.of({v: rng.choice(pool) for v in sorted(tree.vars(nodes), key=str)})
