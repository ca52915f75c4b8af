import random

import pytest

from fixtures import TRIANGLE_TAIL_MAPPING_TEXT, TRIANGLE_TAIL_TEXT, complete_graph_text
from oracles import (
    consistency_family_by_iteration,
    duplicator_wins_game,
    eval_forest_by_enumeration,
    hom_into_graph_exists,
)
from wdsparql.errors import DomainMismatch, InvalidK, SearchTooLarge
from wdsparql.evaluator import eval_forest, eval_pebble
from wdsparql.hom import GeneralizedTGraph, ctw, maps_into_graph
from wdsparql.patterns import parse_pattern
from wdsparql.pebble import consistency_family, pebble_wins
from wdsparql.randgen import random_game_instance
from wdsparql.terms import Mapping, TGraph, Triple, iri, parse_graph, parse_mapping, substitute, var
from wdsparql.trees import WdPF, WdPT, to_forest
from wdsparql.width import domination_width


def gt(text, dist=()):
    return GeneralizedTGraph(parse_graph(text), frozenset(dist))


def test_invalid_inputs():
    g = gt("?x p ?y")
    graph = parse_graph("a p b")
    with pytest.raises(InvalidK):
        pebble_wins(g, graph, Mapping(), 1)
    with pytest.raises(DomainMismatch):
        pebble_wins(g, graph, Mapping.of({var("x"): iri("a")}), 2)


def test_family_smallest_cases():
    g = gt("?x p a")
    graph = parse_graph("b p a")
    members = consistency_family(g, graph, Mapping(), 2)
    assert Mapping() in members
    assert frozenset(m.domain for m in members) == {
        frozenset(),
        frozenset({var("x")}),
    }
    assert {str(m) for m in members} == {"{}", "{?x=b}"}
    unsat = gt("?x p c")
    assert consistency_family(unsat, graph, Mapping(), 2) == frozenset()


def test_empty_domain_with_free_variables_loses():
    g = gt("?x p ?y")
    assert not pebble_wins(g, TGraph(), Mapping(), 2)


def test_no_free_variables_reduces_to_homomorphism():
    rng = random.Random(3)
    for _ in range(80):
        g, graph, mu = random_game_instance(rng)
        grounded = GeneralizedTGraph(g.tgraph, g.tgraph.vars())
        pool = sorted(graph.iris(), key=str) or [iri("a")]
        mu_full = Mapping.of({x: rng.choice(pool) for x in grounded.dist})
        hom = maps_into_graph(grounded, graph, mu_full) is not None
        for k in (2, 3):
            assert pebble_wins(grounded, graph, mu_full, k) == hom


def test_hom_implies_pebble_win():
    rng = random.Random(5)
    for _ in range(120):
        g, graph, mu = random_game_instance(rng, ensure_hom=rng.random() < 0.5)
        if maps_into_graph(g, graph, mu) is not None:
            for k in (2, 3):
                assert pebble_wins(g, graph, mu, k)


def test_monotone_in_k():
    rng = random.Random(7)
    for _ in range(100):
        g, graph, mu = random_game_instance(rng)
        if pebble_wins(g, graph, mu, 3):
            assert pebble_wins(g, graph, mu, 2)


def test_exact_when_ctw_small():
    rng = random.Random(11)
    for _ in range(150):
        g, graph, mu = random_game_instance(rng, ensure_hom=rng.random() < 0.4)
        k = ctw(g) + 1
        assert pebble_wins(g, graph, mu, k) == (
            maps_into_graph(g, graph, mu) is not None
        )


def test_hom_source_transfer():
    # if (S1,X) -> (S2,X) and the game is won on S2, it is won on S1
    from wdsparql.hom import find_homomorphism

    rng = random.Random(13)
    for _ in range(80):
        g, graph, mu = random_game_instance(rng, ensure_hom=rng.random() < 0.5)
        renaming = {v: var(v.name + "_c") for v in g.free_vars()}
        doubled = GeneralizedTGraph(
            g.tgraph | TGraph(tuple(substitute(t, renaming) for t in g.tgraph)),
            g.dist,
        )
        assert find_homomorphism(doubled, g) is not None
        if pebble_wins(g, graph, mu, 2):
            assert pebble_wins(doubled, graph, mu, 2)


def test_disjoint_union_of_wins():
    rng = random.Random(17)
    for _ in range(80):
        g, graph, mu = random_game_instance(rng, ensure_hom=rng.random() < 0.5)
        renaming = {v: var(v.name + "_d") for v in g.free_vars()}
        partner = GeneralizedTGraph(
            TGraph(tuple(substitute(t, renaming) for t in g.tgraph)), g.dist
        )
        if pebble_wins(g, graph, mu, 2) and pebble_wins(partner, graph, mu, 2):
            union = GeneralizedTGraph(g.tgraph | partner.tgraph, g.dist)
            assert pebble_wins(union, graph, mu, 2)


def test_family_invariants_hold_at_fixpoint():
    rng = random.Random(19)
    for _ in range(40):
        g, graph, mu = random_game_instance(rng, max_vars=3, max_iris=3)
        members = {frozenset(m.items()) for m in consistency_family(g, graph, mu, 2)}
        domain = sorted(graph.iris(), key=str)
        for f in members:
            for pair in f:  # closed under restriction
                assert f - {pair} in members
            if len(f) < 2:  # forth property
                held = {v for v, _ in f}
                for x in g.free_vars():
                    if x not in held:
                        assert any(f | {(x, a)} in members for a in domain)


def test_agrees_with_game_tree_oracle():
    rng = random.Random(23)
    for _ in range(40):
        g, graph, mu = random_game_instance(
            rng, max_vars=3, max_triples=3, max_iris=3
        )
        assert pebble_wins(g, graph, mu, 2) == duplicator_wins_game(g, graph, mu, 2)


def test_two_pebbles_win_without_homomorphism():
    # an odd directed cycle admits every locally consistent 2-assignment over
    # a directed 2-cycle, yet no homomorphism
    g = gt("?u1 p ?u2\n?u2 p ?u3\n?u3 p ?u1")
    graph = parse_graph("a p b\nb p a")
    assert maps_into_graph(g, graph, Mapping()) is None
    assert not hom_into_graph_exists(g, graph, Mapping())
    assert pebble_wins(g, graph, Mapping(), 2)
    assert duplicator_wins_game(g, graph, Mapping(), 2)


# ---------------------------------------------------------------------------
# both regimes against the oracles: |free| <= k decided by the homomorphism
# search, |free| > k by the arc-consistent k-consistency fixpoint

NODES = (iri("a"), iri("b"), iri("c"))
PREDS = (iri("p"), iri("q"))


def planted_instance(rng):
    """One to four free variables, maybe a distinguished one, a few triples,
    a graph over a, b, c, p and q, and in half the cases a planted image of
    the whole t-graph, so that wins are common.  One instance in six is a
    directed 3-cycle (maybe with a tail) over a graph holding a 2-cycle:
    two pebbles cannot tell the cycles apart, yet no homomorphism exists."""
    if rng.random() < 1 / 6:
        text = "?u0 p ?u1\n?u1 p ?u2\n?u2 p ?u0" + rng.choice(("", "\n?u3 p ?u0"))
        graph = parse_graph("a p b\nb p a" + rng.choice(("", "\nb q c", "\nc p c")))
        return gt(text), graph, Mapping()
    free = [var(f"u{i}") for i in range(rng.randint(1, 4))]
    dist = [var("x")] if rng.random() < 0.4 else []
    pool = free + dist

    def node():
        return rng.choice(pool) if rng.random() < 0.75 else rng.choice(NODES)

    triples = [Triple(node(), rng.choice(PREDS), node()) for _ in range(rng.randint(1, 3))]
    triples += [Triple(v, rng.choice(PREDS), rng.choice(pool)) for v in pool]  # every var occurs
    g = GeneralizedTGraph(TGraph(tuple(triples)), frozenset(dist))
    graph = TGraph(tuple(
        Triple(rng.choice(NODES), rng.choice(PREDS), rng.choice(NODES))
        for _ in range(rng.randint(1, 6))
    ))
    image = {v: rng.choice(NODES) for v in sorted(g.tgraph.vars(), key=str)}
    if rng.random() < 0.5:
        graph = graph | TGraph(tuple(substitute(t, image) for t in g.tgraph))
    mu = Mapping.of({x: image[x] for x in dist})
    return g, graph, mu


def planted_instances(seed, n):
    rng = random.Random(seed)
    return [planted_instance(rng) for _ in range(n)]


def test_both_regimes_agree_with_the_oracles():
    tally = {}
    for g, graph, mu in planted_instances(29, 120):
        hom = hom_into_graph_exists(g, graph, mu)
        for k in (2, 3):
            won = pebble_wins(g, graph, mu, k)
            assert won == duplicator_wins_game(g, graph, mu, k), (str(g), str(graph), k)
            family = consistency_family(g, graph, mu, k)
            assert family == consistency_family_by_iteration(g, graph, mu, k)
            assert (Mapping() in family) == won
            key = (k, len(g.free_vars()) <= k)
            runs, wins, gaps = tally.get(key, (0, 0, 0))
            tally[key] = (runs + 1, wins + won, gaps + (won and not hom))
    runs = {key: r for key, (r, _, _) in tally.items()}
    assert runs == {(2, True): 55, (2, False): 65, (3, True): 83, (3, False): 37}
    for r, wins, _ in tally.values():
        assert wins >= 0.2 * r
    # two pebbles miss some odd cycles: the fixpoint regime is a relaxation
    assert tally[(2, False)][2] > 0
    assert tally[(2, True)][2] == tally[(3, True)][2] == 0


def test_few_free_variables_never_build_the_family(monkeypatch):
    import wdsparql.pebble as pebble

    def refuse(*args):
        raise AssertionError("the fixpoint ran with every free variable under a pebble")

    monkeypatch.setattr(pebble, "_fixpoint", refuse)
    checked = 0
    for g, graph, mu in planted_instances(31, 60):
        for k in (2, 3):
            if len(g.free_vars()) <= k:
                hom = hom_into_graph_exists(g, graph, mu)
                assert pebble_wins(g, graph, mu, k) == hom
                checked += 1
    assert checked >= 50


def test_family_cap_raises_search_too_large(monkeypatch):
    import wdsparql.pebble as pebble

    # a directed triangle over a 2-cycle: 1 + 3 * 2 + 3 * 2 generated members
    g = gt("?u1 p ?u2\n?u2 p ?u3\n?u3 p ?u1")
    graph = parse_graph("a p b\nb p a")
    monkeypatch.setattr(pebble, "MAX_FAMILY_MEMBERS", 13)
    assert pebble_wins(g, graph, Mapping(), 2)
    assert Mapping() in consistency_family(g, graph, Mapping(), 2)
    monkeypatch.setattr(pebble, "MAX_FAMILY_MEMBERS", 12)
    with pytest.raises(SearchTooLarge):
        pebble_wins(g, graph, Mapping(), 2)
    with pytest.raises(SearchTooLarge):
        consistency_family(g, graph, Mapping(), 2)
    # with a pebble per free variable no family is built, so no cap applies
    assert pebble_wins(g, graph, Mapping(), 3) is False


# ---------------------------------------------------------------------------
# eval_pebble decides each child on its core


def test_triangle_with_a_loop_reaches_no_fixpoint(monkeypatch):
    import wdsparql.pebble as pebble

    # the child t-graph {?y p ?z, the triangle o1 o2 o3, ?y r ?o1, ?y r ?y}
    # with X = {?y, ?z} cores to {?y p ?z, ?y r ?y}: no free variable left
    tree = WdPT(0, {1: 0}, {
        0: parse_graph("?y p ?z"),
        1: parse_graph("?o1 r ?o2\n?o1 r ?o3\n?o2 r ?o3\n?y r ?o1\n?y r ?y"),
    })
    forest = WdPF((tree,))
    dw = domination_width(forest)

    def refuse(*args):
        raise AssertionError("the fixpoint ran on a child whose core has no free variable")

    monkeypatch.setattr(pebble, "_fixpoint", refuse)
    mu = Mapping.of({var("y"): iri("a"), var("z"): iri("b")})
    for text, expected in (("a p b\na r c\nc r d\nc r e\nd r e", True), ("a p b\na r a", False)):
        graph = parse_graph(text)
        assert eval_forest(forest, graph, mu) is expected
        assert eval_forest_by_enumeration(forest, graph, mu) is expected
        for k in sorted({1, dw}):
            assert eval_pebble(forest, graph, mu, k) is expected


def test_dense_triangle_with_a_tail_is_decided_on_its_core():
    forest = to_forest(parse_pattern(TRIANGLE_TAIL_TEXT))
    graph = parse_graph(complete_graph_text(40))
    mu = parse_mapping(TRIANGLE_TAIL_MAPPING_TEXT)
    assert domination_width(forest) == 2
    assert eval_forest(forest, graph, mu) is False
    assert eval_pebble(forest, graph, mu, 2) is False
