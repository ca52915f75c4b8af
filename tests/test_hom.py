import random
import time

import pytest

from fixtures import XYZ, clique_pattern_tgraph, collapsing_tgraph
from oracles import (
    all_assignment_homs,
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
from wdsparql.randgen import random_game_instance, random_generalized_tgraph, random_rdf_graph
from wdsparql.terms import Mapping, TGraph, Triple, iri, parse_graph, var


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

    big = UndirectedGraph.of(range(25), [(i, i + 1) for i in range(24)])
    with pytest.raises(GraphTooLarge):
        treewidth(big)
    monkeypatch.setattr(graphs, "MAX_TW_VERTICES", 30)
    assert treewidth(big) == 1


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
