"""Differential tests for the indexed graph core.

`TGraph.matching` is checked against a full scan of the graph, and the
searches built on it (homomorphisms, the pebble fixpoint) against the
brute-force oracles, on seeded random instances.  The instances use five
predicates, IRIs in subject and object position, a predicate that also
occurs as a node, variables in predicate position and repeated variables
such as ``(?x, p, ?x)``.
"""

import random

from oracles import (
    consistency_family_by_iteration,
    duplicator_wins_game,
    hom_exists,
    hom_into_graph_exists,
)
from wdsparql.hom import GeneralizedTGraph, find_homomorphism, maps_into_graph
from wdsparql.pebble import consistency_family, pebble_wins
from wdsparql.terms import Mapping, TGraph, Triple, iri, substitute, var

PREDICATES = tuple(iri(p) for p in ("p", "q", "r", "s", "t"))
NODES = tuple(iri(n) for n in ("a", "b", "c", "d")) + PREDICATES[:1]
VARS = tuple(var(f"x{i}") for i in range(4))
TARGET_VARS = tuple(var(f"y{i}") for i in range(3))


def random_pattern_triple(rng, pool, nodes=NODES, predicates=PREDICATES):
    def node():
        return rng.choice(pool) if rng.random() < 0.6 else rng.choice(nodes)

    s, o = node(), node()
    p = rng.choice(pool) if rng.random() < 0.2 else rng.choice(predicates)
    if rng.random() < 0.3:  # a repeated variable
        v = rng.choice(pool)
        i, j = rng.choice(((0, 1), (0, 2), (1, 2)))
        terms = [s, p, o]
        terms[i] = terms[j] = v
        s, p, o = terms
    return Triple(s, p, o)


def random_target(rng, n_triples, pool=(), nodes=NODES, predicates=PREDICATES):
    """A t-graph over the given IRIs; ground when `pool` is empty."""
    triples = []
    for _ in range(n_triples):
        if pool and rng.random() < 0.5:
            triples.append(random_pattern_triple(rng, list(pool), nodes, predicates))
        else:
            triples.append(Triple(rng.choice(nodes), rng.choice(predicates), rng.choice(nodes)))
    return TGraph(tuple(triples))


def random_source(rng, max_vars=4, max_triples=4):
    pool = list(VARS[: rng.randint(1, max_vars)])
    g = TGraph(tuple(random_pattern_triple(rng, pool) for _ in range(rng.randint(1, max_triples))))
    dist = frozenset(v for v in sorted(g.vars(), key=str) if rng.random() < 0.4)
    return GeneralizedTGraph(g, dist)


def full_scan(graph, t):
    """Triples u of the graph with some substitution of t's variables
    turning t into u (the graph's own variables are constants)."""
    out = []
    for u in graph:
        h = {}
        if all(h.setdefault(a, b) == b if a.is_var else a == b for a, b in zip(t.terms, u.terms)):
            out.append(u)
    return out


def test_matching_equals_full_scan():
    rng = random.Random(101)
    repeated_hits = iri_subject_hits = 0
    for _ in range(300):
        pool = TARGET_VARS if rng.random() < 0.3 else ()
        graph = random_target(rng, rng.randint(0, 40), pool)
        for _ in range(10):
            t = random_pattern_triple(rng, list(VARS[:2]))
            got = graph.matching(t)
            expected = full_scan(graph, t)
            assert sorted(got, key=str) == sorted(expected, key=str), t
            if expected and len(t.vars()) < sum(x.is_var for x in t.terms):
                repeated_hits += 1
            if expected and t.s.is_iri:
                iri_subject_hits += 1
    # the instances exercise the filters, not just empty answers
    assert repeated_hits > 20 and iri_subject_hits > 100


def test_find_homomorphism_agrees_with_oracle():
    rng = random.Random(202)
    outcomes = set()
    for _ in range(200):
        a = random_source(rng)
        pool = TARGET_VARS + tuple(sorted(a.dist, key=str))
        target = random_target(rng, rng.randint(1, 8), pool)
        if rng.random() < 0.5:  # plant an image that fixes the distinguished set
            image = {v: v if v in a.dist else rng.choice(NODES + TARGET_VARS) for v in a.tgraph.vars()}
            target = target | TGraph(tuple(substitute(t, image) for t in a.tgraph))
        b = GeneralizedTGraph(target, a.dist, declared=True)
        h = find_homomorphism(a, b)
        assert (h is not None) == hom_exists(a, b)
        if h is not None:
            assert all(h[x] == x for x in a.dist if x in h)
            assert all(substitute(t, h) in target for t in a.tgraph)
        outcomes.add(h is not None)
    assert outcomes == {True, False}


def test_maps_into_graph_agrees_with_oracle():
    rng = random.Random(303)
    outcomes = set()
    for _ in range(200):
        g = random_source(rng)
        graph = random_target(rng, rng.randint(1, 12))
        image = {v: rng.choice(NODES + PREDICATES) for v in sorted(g.tgraph.vars(), key=str)}
        if rng.random() < 0.5:
            graph = graph | TGraph(tuple(substitute(t, image) for t in g.tgraph))
        mu = Mapping.of({x: image[x] for x in g.dist})
        h = maps_into_graph(g, graph, mu)
        assert (h is not None) == hom_into_graph_exists(g, graph, mu)
        if h is not None:
            assert all(h[x] == mu.get(x) for x in g.dist)
            assert all(substitute(t, h) in graph for t in g.tgraph)
        outcomes.add(h is not None)
    assert outcomes == {True, False}


def random_game(rng):
    """A t-graph with a template over its three free variables, an optional
    distinguished variable, and a small ground graph (at most five IRIs, so
    the two-player game oracle stays cheap)."""
    free = list(VARS[:3])
    dist = [VARS[3]] if rng.random() < 0.5 else []
    nodes, predicates = NODES[:3], PREDICATES[:2]
    triples = [Triple(*rng.sample(free, 3))]
    for _ in range(rng.randint(1, 3)):
        triples.append(random_pattern_triple(rng, free + dist, nodes, predicates))
    if dist:
        triples.append(Triple(dist[0], rng.choice(predicates), rng.choice(free)))
    g = GeneralizedTGraph(TGraph(tuple(triples)), frozenset(dist))
    graph = random_target(rng, rng.randint(2, 8), (), nodes, predicates)
    image = {v: rng.choice(nodes + predicates) for v in g.tgraph.vars()}
    if rng.random() < 0.4:
        graph = graph | TGraph(tuple(substitute(t, image) for t in g.tgraph))
    mu = Mapping.of({x: image[x] for x in dist})
    return g, graph, mu


def test_pebble_wins_agrees_with_game_oracle_three_free_variables():
    rng = random.Random(404)
    outcomes = set()
    for _ in range(80):
        g, graph, mu = random_game(rng)
        assert len(g.free_vars()) == 3
        won = pebble_wins(g, graph, mu, 2)
        assert won == duplicator_wins_game(g, graph, mu, 2)
        outcomes.add(won)
    assert outcomes == {True, False}


def test_consistency_family_equals_iterated_oracle():
    rng = random.Random(505)
    outcomes = set()
    for _ in range(80):
        g, graph, mu = random_game(rng)
        for k in (2, 3):
            members = consistency_family(g, graph, mu, k).members
            assert members == consistency_family_by_iteration(g, graph, mu, k)
            outcomes.add(bool(members))
    assert outcomes == {True, False}
