import random
import sys
import time

import pytest

from fixtures import (
    P1_TEXT,
    P_UNION_TEXT,
    TRIANGLE_TAIL_TEXT,
    XYZ,
    clique_pattern_tgraph,
    collapsing_tgraph,
    forest_family,
    opt_star,
    two_node_clique_tree,
)
from oracles import (
    all_assignment_homs,
    ctw_by_enumeration,
    hom_exists,
    is_core_by_enumeration,
    treewidth_by_elimination_orders,
)
from wdsparql.errors import GraphTooLarge, MismatchedDistinguishedSets, SearchTooLarge
from wdsparql.graphs import UndirectedGraph, grid_graph, tree_decomposition, treewidth
from wdsparql.hom import (
    GeneralizedTGraph,
    all_homomorphisms,
    core,
    ctw,
    find_homomorphism,
    gaifman,
    is_homomorphism,
    maps_into_graph,
)
from wdsparql.patterns import parse_pattern
from wdsparql.randgen import random_game_instance, random_generalized_tgraph, random_rdf_graph
from wdsparql.terms import Mapping, TGraph, Triple, iri, parse_graph, var
from wdsparql.trees import WdPF, to_forest
from wdsparql.width import domination_width


def gt(text, dist=()):
    return GeneralizedTGraph(parse_graph(text), frozenset(dist))


def test_identity_homomorphism():
    g = gt("?x p ?y\n?y q ?z", {var("x")})
    h = find_homomorphism(g, g)
    assert h is not None and is_homomorphism(g.tgraph, g.tgraph, h)


def test_mismatched_distinguished_sets():
    with pytest.raises(MismatchedDistinguishedSets):
        find_homomorphism(gt("?x p ?y"), gt("?x p ?y", {var("x")}))


def test_example_collapse_homomorphism():
    source = GeneralizedTGraph(collapsing_tgraph(3), XYZ)
    target = GeneralizedTGraph(parse_graph("?z q ?x\n?x p ?y\n?y r ?o\n?o r ?o"), XYZ)
    h = find_homomorphism(source, target)
    assert h is not None
    assert all(h[x] == x for x in XYZ)


def test_search_matches_brute_force():
    rng = random.Random(17)
    for _ in range(150):
        a = random_generalized_tgraph(rng, max_vars=3, max_triples=3)
        b = random_generalized_tgraph(rng, max_vars=3, max_triples=3)
        b = GeneralizedTGraph(b.tgraph, a.dist & b.tgraph.vars())
        a = GeneralizedTGraph(a.tgraph, b.dist & a.tgraph.vars())
        if a.dist != b.dist:
            continue
        assert (find_homomorphism(a, b) is not None) == hom_exists(a, b)


def test_maps_into_graph_basics():
    g = gt("?x p ?y")
    graph = parse_graph("a p b")
    h = maps_into_graph(g, graph, Mapping())
    assert h == {var("x"): iri("a"), var("y"): iri("b")}
    g2 = gt("?x p ?x", {var("x")})
    assert maps_into_graph(g2, graph, Mapping.of({var("x"): iri("a")})) is None


def test_composition_of_witnesses():
    # (S,X) -> (S',X) and (S',X) ->^mu G compose to (S,X) ->^mu G
    from wdsparql.terms import substitute

    rng = random.Random(23)
    for _ in range(100):
        g, graph, mu = random_game_instance(rng, ensure_hom=True)
        renaming = {v: var(v.name + "_c") for v in g.free_vars()}
        doubled = GeneralizedTGraph(
            g.tgraph | TGraph(tuple(substitute(t, renaming) for t in g.tgraph)),
            g.dist,
        )
        h1 = find_homomorphism(doubled, g)
        h2 = maps_into_graph(g, graph, mu)
        assert h1 is not None and h2 is not None
        composed = {
            v: (h2[h1[v]] if h1[v].is_var else h1[v]) for v in h1
        }
        assert is_homomorphism(doubled.tgraph, graph, composed)
        assert all(composed[x] == mu.get(x) for x in doubled.dist if x in composed)


def test_core_of_collapsing_example():
    for k in range(2, 6):
        cored = core(GeneralizedTGraph(collapsing_tgraph(k), XYZ))
        assert len(cored.tgraph) == 4
        assert cored.tgraph.vars() - XYZ == {var("o")}
        assert is_core_by_enumeration(cored)


def test_clique_pattern_is_its_own_core():
    for k in range(2, 5):
        g = GeneralizedTGraph(clique_pattern_tgraph(k), XYZ)
        assert core(g).tgraph == g.tgraph


def test_core_idempotent_and_sound():
    rng = random.Random(31)
    for _ in range(60):
        g = random_generalized_tgraph(rng, max_vars=3, max_triples=4)
        c = core(g)
        assert core(c).tgraph == c.tgraph
        assert is_core_by_enumeration(c)
        assert find_homomorphism(g, c) is not None
        assert find_homomorphism(c, g) is not None


def test_core_tries_to_drop_only_triples_off_the_distinguished_variables(monkeypatch):
    """A retraction fixing X maps a triple over X alone, or a ground one,
    to itself, so `core` never tries to drop one.  On a member with five
    such triples the search count falls from 7 (one search per triple
    tried, as when every triple was tried) to 2, and the core is the same."""
    import wdsparql.hom as hom

    searched = []
    solve = hom._solve

    def counted(plan, target, fixed, **kw):
        searched.append(target)
        return solve(plan, target, fixed, **kw)

    monkeypatch.setattr(hom, "_solve", counted)
    x, y = var("x"), var("y")
    text = "?x p ?y\n?y p ?x\n?x q a\n?y r ?y\n?x s ?y\n?x p ?u\n?u p ?v\n?y r ?w\n?w r ?w"
    g = gt(text, {x, y})
    cored = core(g)
    assert len(searched) == 2
    assert cored.tgraph == parse_graph("?x p ?y\n?x q a\n?x s ?y\n?y p ?x\n?y r ?y")
    assert is_core_by_enumeration(cored) and not is_core_by_enumeration(g)
    # the fixpoint round tries nothing: every triple left is over X alone
    del searched[:]
    assert core(cored).tgraph == cored.tgraph and not searched


def test_gaifman_graph():
    g = gt("?x p ?y\n?y q ?z\n?x r a", {var("x")})
    h = gaifman(g)
    assert h.vertices == {var("y"), var("z")}
    assert h.edges == {frozenset({var("y"), var("z")})}


def test_treewidth_standard_values():
    path = UndirectedGraph.of(range(6), [(i, i + 1) for i in range(5)])
    cycle = UndirectedGraph.of(range(6), [(i, (i + 1) % 6) for i in range(6)])
    assert treewidth(path) == 1
    assert treewidth(cycle) == 2
    for k in range(2, 7):
        kk = UndirectedGraph.of(range(k), [(i, j) for i in range(k) for j in range(i + 1, k)])
        assert treewidth(kk) == k - 1
    assert treewidth(UndirectedGraph.of(range(4), ())) == 1  # no edges
    assert treewidth(UndirectedGraph.of((), ())) == 1  # no vertices
    assert treewidth(grid_graph(3, 3)) == 3


def test_treewidth_matches_elimination_oracle():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(1, 6)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.45
        ]
        g = UndirectedGraph.of(range(n), edges)
        assert treewidth(g) == treewidth_by_elimination_orders(g)


def test_treewidth_monotone_under_subgraphs():
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randint(2, 7)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        g = UndirectedGraph.of(range(n), edges)
        keep = frozenset(v for v in g.vertices if rng.random() < 0.7)
        assert treewidth(g.subgraph(keep)) <= max(treewidth(g), 1)


def test_decomposition_is_validated():
    g = grid_graph(2, 3)
    td = tree_decomposition(g)
    td.validate(g)
    assert td.width() == 2


def test_core_of_a_long_path_with_a_loop():
    # the search order follows the path, so a wrong value fails at the next
    # step; with ties by name alone (?v10 before ?v2) this took seconds.
    # Each value is drawn from the previous one's neighbours, so 100 edges
    # take about 0.03 s; with every variable's domain intersected over all
    # its triples up front they took about 2 s.  A value that is a variable
    # of the target is a lookup in the (position, term) index: 200 edges
    # take about 0.1 s, and about 0.8 s when such a value filtered its
    # triple's whole list of matches term by term
    for edges, bound in ((50, 2), (100, 1), (200, 0.5)):
        text = "\n".join(f"?v{i} p ?v{i + 1}" for i in range(edges)) + "\n?w p ?w"
        start = time.perf_counter()
        cored = core(gt(text))
        assert time.perf_counter() - start < bound, edges
        assert cored == gt("?w p ?w")


def test_a_triple_left_without_a_match_fails_at_once():
    # ?l0 has neighbours under p but none under q; ?z comes last in the
    # order, so without the look-ahead each of the 5^9 ways to place the
    # leaves would be tried before ?z found no candidate
    leaves = "\n".join(f"?c p ?l{i}" for i in range(9))
    graph = parse_graph("\n".join(f"a p b{j}" for j in range(5)) + "\nx q y\na s y")
    for last in ("?l0 q ?z", "?l0 q ?z\n?c s ?z"):  # ?z's driver, or not
        start = time.perf_counter()
        assert all_homomorphisms(parse_graph(f"{leaves}\n{last}"), graph) == []
        assert time.perf_counter() - start < 1


def test_graph_too_large(monkeypatch):
    import wdsparql.graphs as graphs

    # a 25-vertex path whose far end closes a triangle: not a forest, and
    # simplicial peeling removes it, so under a raised cap the DP never runs
    big = UndirectedGraph.of(range(25), [(i, i + 1) for i in range(24)] + [(22, 24)])
    with pytest.raises(GraphTooLarge):
        treewidth(big)
    monkeypatch.setattr(graphs, "MAX_TW_VERTICES", 30)
    assert treewidth(big) == 2


def test_forests_past_the_cap_have_treewidth_one():
    import wdsparql.graphs as graphs

    rng = random.Random(53)
    for g in (
        UndirectedGraph.of(range(21), ()),
        UndirectedGraph.of(range(40), [(i, rng.randrange(i)) for i in range(1, 40)]),
        UndirectedGraph.of(range(100), [(i, i + 1) for i in range(99)]),
    ):
        assert len(g.vertices) > graphs.MAX_TW_VERTICES
        start = time.perf_counter()
        assert treewidth(g) == 1
        assert time.perf_counter() - start < 0.05


def test_treewidth_of_forests_and_unicyclic_graphs_matches_the_oracle():
    # a unicyclic graph has as many edges as vertices, so a forest test
    # that compared those two counts alone would answer 1 for it
    rng = random.Random(59)
    for n in [*range(1, 9), *range(1, 9), 9]:
        edges = [(i, rng.randrange(i)) for i in range(1, n) if rng.random() < 0.8]
        g = UndirectedGraph.of(range(n), edges)
        assert treewidth(g) == treewidth_by_elimination_orders(g) == 1
    for n in range(3, 8):
        cycle = rng.randint(3, n)
        edges = [(i, (i + 1) % cycle) for i in range(cycle)]
        g = UndirectedGraph.of(range(n), edges + [(i, rng.randrange(i)) for i in range(cycle, n)])
        assert treewidth(g) == treewidth_by_elimination_orders(g) == 2


def shape_tgraph(
    rng: random.Random, edges, n: int, isolated: bool = False, free_share: float = 0.6
) -> GeneralizedTGraph:
    """One triple per edge (a, b) over nodes 0..n-1, under p or q and in
    either direction.  Each node is a free variable (with probability
    `free_share`), a distinguished one or an IRI, with at most five free
    ones, `isolated` counted: with it, one more free variable meets only a
    distinguished variable or an IRI."""
    terms, dist, free = [], set(), 0
    for i in range(n):
        kind = rng.choices("fdi", (free_share, 0.6 * (1 - free_share), 0.4 * (1 - free_share)))[0]
        if kind == "f":
            kind, free = ("f", free + 1) if free + isolated < 5 else ("d", free)
        terms.append(iri(f"c{i}") if kind == "i" else var(f"n{i}"))
        if kind == "d":
            dist.add(terms[i])
    triples = []
    for a, b in edges:
        a, b = (a, b) if rng.random() < 0.5 else (b, a)
        triples.append(Triple(terms[a], iri(rng.choice("pq")), terms[b]))
    if isolated:
        triples.append(Triple(var("iso"), iri("p"), min(dist, key=str, default=iri("c"))))
    return GeneralizedTGraph(TGraph(tuple(triples)), frozenset(dist))


def test_ctw_matches_the_core_oracle():
    rng = random.Random(61)
    cases = [gt("?a p ?b\n?b p ?c\n?c p ?a")]  # a directed triangle, nothing distinguished: ctw 2
    cases += [random_generalized_tgraph(rng, max_vars=4, max_triples=8) for _ in range(60)]
    for n in range(2, 8):
        for _ in range(4):
            cases.append(shape_tgraph(rng, [(i, i - 1) for i in range(1, n)], n))  # path
            cases.append(shape_tgraph(rng, [(i, 0) for i in range(1, n)], n))  # star
            cases.append(shape_tgraph(rng, [(i, rng.randrange(i)) for i in range(1, n)], n))
    for n in range(3, 6):
        for isolated in (False, True):
            for _ in range(8):
                cases.append(shape_tgraph(rng, [(i, (i + 1) % n) for i in range(n)], n, isolated, 0.85))
    widths = [ctw(g) for g in cases]
    assert widths == [ctw_by_enumeration(g) for g in cases]
    assert widths[0] == 2 and widths.count(2) > 1


def test_the_width_layer_cores_only_cyclic_members(monkeypatch):
    import wdsparql.hom as hom

    def has_cycle(graph: UndirectedGraph) -> bool:
        root = {v: v for v in graph.vertices}

        def find(v):
            while root[v] != v:
                v = root[v]
            return v

        for a, b in map(tuple, graph.edges):
            if find(a) == find(b):
                return True
            root[find(a)] = find(b)
        return False

    cored = []
    real_core = hom.core
    monkeypatch.setattr(hom, "core", lambda g: cored.append(g) or real_core(g))
    forests = [forest_family(k, third) for k in range(2, 6) for third in (False, True)]
    forests += [WdPF((two_node_clique_tree(k),)) for k in range(2, 6)] + [WdPF((opt_star(3),))]
    forests += [to_forest(parse_pattern(text)) for text in (P1_TEXT, P_UNION_TEXT, TRIANGLE_TAIL_TEXT)]
    widths = [domination_width(f) for f in forests]
    assert cored and all(has_cycle(gaifman(g)) for g in cored)
    assert max(widths) == 4  # forest_family(5)'s K_5 member, cored, keeps its width


def test_ctw_examples():
    for k in range(2, 6):
        assert ctw(GeneralizedTGraph(clique_pattern_tgraph(k), XYZ)) == k - 1
        g = GeneralizedTGraph(collapsing_tgraph(k), XYZ)
        assert ctw(g) == 1
        assert treewidth(gaifman(g)) == k - 1


def test_all_homomorphisms_matches_oracle():
    rng = random.Random(47)
    for _ in range(60):
        src = random_generalized_tgraph(rng, max_vars=3, max_triples=2).tgraph
        graph = random_rdf_graph(rng, max_iris=3, max_triples=5)
        from wdsparql.hom import all_homomorphisms

        mine = {tuple(sorted((k.name, v.name) for k, v in h.items()))
                for h in all_homomorphisms(src, graph)}
        oracle = {tuple(sorted((k.name, v.name) for k, v in h.items()))
                  for h in all_assignment_homs(src, graph)}
        assert mine == oracle


def test_a_tgraph_keeps_one_plan_per_pinned_set(monkeypatch):
    import wdsparql.hom as hom

    built = []
    plan = hom.Plan

    def counted(source, pinned=()):
        built.append((id(source), frozenset(pinned)))  # no reference kept here
        return plan(source, pinned)

    monkeypatch.setattr(hom, "Plan", counted)
    x = var("x")
    g = gt("?x p ?y\n?y q ?z", {x})
    source = g.tgraph
    graph = parse_graph("a p b\nb q c\nb q d", ground=True)
    mu = Mapping.of({x: iri("a")})
    refs = sys.getrefcount(source)
    assert maps_into_graph(g, graph, mu) is not None
    assert built == [(id(source), g.dist)]
    # later searches pinning X, through each entry point, read that plan
    assert maps_into_graph(g, graph, mu) is not None
    assert find_homomorphism(g, g) is not None
    assert len(all_homomorphisms(source, graph, {x: iri("a")})) == 2
    assert len(built) == 1
    # another pinned set gets a plan of its own, kept in turn
    assert len(all_homomorphisms(source, graph)) == 2
    assert len(all_homomorphisms(source, graph)) == 2
    assert built == [(id(source), g.dist), (id(source), frozenset())]
    # a kept plan holds no reference back to its t-graph
    assert sys.getrefcount(source) == refs


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # a directed path over 3,001 variables, far deeper than Python's
    # default recursion limit of 1,000, onto a single loop
    n = 3000
    path = TGraph(tuple(Triple(var(f"v{i}"), iri("p"), var(f"v{i + 1}")) for i in range(n)))
    loop = parse_graph("a p a")
    everything_to_a = {var(f"v{i}"): iri("a") for i in range(n + 1)}
    start = time.perf_counter()
    assert maps_into_graph(GeneralizedTGraph(path, frozenset()), loop, Mapping()) == everything_to_a
    assert all_homomorphisms(path, loop) == [everything_to_a]
    h = find_homomorphism(GeneralizedTGraph(path, frozenset()), gt("?w p ?w"))
    assert h == {var(f"v{i}"): var("w") for i in range(n + 1)}
    # each lookup is built from its triple's own terms: the three searches
    # take about 0.3 s, and about 3 s when each lookup copies the assignment
    assert time.perf_counter() - start < 1.2


def test_search_cap(monkeypatch):
    # a directed triangle into a bipartite digraph (every IRI of one side
    # to every one of the other, both ways) has no homomorphism; the search
    # tries 10 values for ?x, 5 for ?y per ?x and 5 for ?z per ?y: 310
    import wdsparql.hom as hom

    sides = ([f"a{i}" for i in range(5)], [f"b{i}" for i in range(5)])
    graph = parse_graph("\n".join(f"{u} p {v}\n{v} p {u}" for u in sides[0] for v in sides[1]))
    triangle = gt("?x p ?y\n?y p ?z\n?z p ?x")
    assert maps_into_graph(triangle, graph, Mapping()) is None
    monkeypatch.setattr(hom, "MAX_SEARCH_NODES", 310)
    assert all_homomorphisms(triangle.tgraph, graph) == []
    monkeypatch.setattr(hom, "MAX_SEARCH_NODES", 309)
    with pytest.raises(SearchTooLarge):
        maps_into_graph(triangle, graph, Mapping())
    with pytest.raises(SearchTooLarge):
        all_homomorphisms(triangle.tgraph, graph)
