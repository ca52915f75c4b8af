"""Differential tests for the indexed graph core.

`TGraph.matching` is checked against a full scan of the graph, with
values given for some variables (IRIs, and variables of a non-ground
graph, which the (position, term) index keys like IRIs), and the
searches built on it (homomorphisms, the pebble fixpoint) against the
brute-force oracles, on seeded random instances.  The instances use five
predicates, IRIs in subject and object position, a predicate that also
occurs as a node, variables in predicate position and repeated variables
such as ``(?x, p, ?x)``.  The searches are also run with values pinned
for some variables (IRIs, and variables of a non-ground target), since
the search looks triples up with the pinned values in place.
The terms at one position of those matches, which the pebble fixpoint
reads, are checked against the same full scan, and the search on larger instances
against the assignment oracle, with the share of levels it decides from
a driver triple counted.  `TGraph.by_mask` is checked against the same
scan for every mask of bound positions, and a compiled `hom.Plan` against
the oracles, and against a fresh plan per call when one plan serves
several targets and pin values.  Each predicate's index (`by_mask` with a
predicate) and member set (`members`) are checked against the same scan
filtered by the predicate, on graphs built from triples and on the same
graphs parsed from their files, and so are `matching` and the searches
over parsed targets.  A plan's lookups bound to a parsed graph before its
triples are assembled (`TGraph.readers`) are checked, after the
assembly, against the plan on a fresh copy read line by line.
"""

import hashlib
import random
from itertools import combinations

from oracles import (
    all_assignment_homs,
    consistency_family_by_iteration,
    duplicator_wins_game,
    hom_exists,
    hom_into_graph_exists,
    parse_graph_by_lines,
)
from wdsparql import hom
from wdsparql.hom import GeneralizedTGraph, all_homomorphisms, find_homomorphism, maps_into_graph
from wdsparql.pebble import consistency_family, pebble_wins
from wdsparql.terms import Mapping, TGraph, Triple, iri, parse_graph, serialize_graph, substitute, var

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
        if all(h.setdefault(a, b) == b if a.is_var else a == b for a, b in zip(t, u)):
            out.append(u)
    return out


def test_matching_equals_full_scan():
    rng = random.Random(101)
    repeated_hits = iri_subject_hits = namesake_hits = two_bound_hits = 0
    for _ in range(300):
        pool = TARGET_VARS if rng.random() < 0.3 else ()
        graph = random_target(rng, rng.randint(0, 40), pool)
        for _ in range(10):
            # some pattern variables are named like the graph's own; without
            # a value they match anything, like any other variable of t
            t = random_pattern_triple(rng, [VARS[0], rng.choice(VARS[1:2] + TARGET_VARS)])
            values = {x: rng.choice(NODES + TARGET_VARS) for x in t.vars() if rng.random() < 0.4}
            got = graph.matching(t, values)
            expected = [
                u for u in full_scan(graph, t)
                if all(u[i] == values[x] for i, x in enumerate(t) if x in values)
            ]
            assert list(got) == expected, (t, values)
            if expected and len(t.vars()) < sum(x.is_var for x in t):
                repeated_hits += 1
            if expected and t.s.is_iri:
                iri_subject_hits += 1
            namesake_hits += any(
                u[i] != x
                for u in expected
                for i, x in enumerate(t)
                if x in graph.vars() and x not in values
            )
            bound = [i for i, x in enumerate(t) if x.is_iri or x in values]
            two_bound_hits += len(bound) > 1 and len(expected) < len(full_scan(graph, t))
    # the instances exercise the filters, not just empty answers
    assert repeated_hits > 20 and iri_subject_hits > 100
    assert namesake_hits > 20 and two_bound_hits > 20


def test_positions_of_matches_equal_full_scan():
    """The terms at one position over `TGraph.matching`, as the pebble
    fixpoint reads them: those of a full scan, and with no other variable
    free each once and in `str` order."""
    rng = random.Random(111)
    ordered = 0
    for _ in range(600):
        pool = TARGET_VARS if rng.random() < 0.5 else ()
        graph = random_target(rng, rng.randint(0, 40), pool)
        t = random_pattern_triple(rng, list(VARS[:2]))
        # values for some of t's variables: IRIs go into the lookup, and
        # variables of the graph must be met as they are
        values = {x: rng.choice(NODES + TARGET_VARS) for x in t.vars() if rng.random() < 0.6}
        matches = [
            u for u in full_scan(graph, t)
            if all(u[i] == values[x] for i, x in enumerate(t) if x in values)
        ]
        for pos, x in enumerate(t):
            got = [u[pos] for u in graph.matching(t, values)]
            assert got == [u[pos] for u in matches], (t, values, pos)
            if x.is_var and t.vars() - values.keys() == {x}:
                # nothing else free: each value once, in `str` order
                assert got == sorted(set(got), key=str)
                ordered += len(got) > 1
    assert ordered > 20


FIVE_VARS = tuple(var(f"x{i}") for i in range(5))


def larger_instance(rng):
    """A source of 4-5 variables and 4-6 triples, a target and pins, of
    one of three kinds: a ground target with IRI pins; the source less one
    triple with some variables pinned to themselves, as `core` searches; a
    non-ground target with pins to its variables and to IRIs."""
    nodes, predicates = NODES[:2], PREDICATES[:2]
    pool = list(FIVE_VARS[: rng.randint(4, 5)])
    size = rng.randint(4, 6)
    source = TGraph(tuple(random_pattern_triple(rng, pool, nodes, predicates) for _ in range(size)))
    every = sorted(source.vars(), key=str)
    kind = rng.randrange(3)
    if kind == 1:
        skip = rng.choice(source.triples)
        pins = {v: v for v in every if rng.random() < 0.3}
        return source, TGraph(tuple(t for t in source if t != skip)), pins
    targets = TARGET_VARS[:2] if kind == 2 else ()
    target = random_target(rng, rng.randint(3, 10), targets, nodes, predicates)
    values = nodes + predicates + targets
    image = {v: rng.choice(values) for v in every}
    if rng.random() < 0.7:  # plant an image
        target = target | TGraph(tuple(substitute(t, image) for t in source))
    pins = {v: image[v] if rng.random() < 0.7 else rng.choice(values) for v in every if rng.random() < 0.3}
    return source, target, pins


def test_search_agrees_with_oracle_on_larger_instances(monkeypatch):
    levels = rooted = 0
    connected_order, domain = hom._connected_order, hom._domain

    def counted_order(*args):
        nonlocal levels
        order = connected_order(*args)
        levels += len(order)
        return order

    def counted_domain(*args):
        nonlocal rooted
        rooted += 1
        return domain(*args)

    monkeypatch.setattr(hom, "_connected_order", counted_order)
    monkeypatch.setattr(hom, "_domain", counted_domain)
    rng = random.Random(606)
    outcomes = set()
    searched = from_domains = 0
    for _ in range(300):
        source, target, pins = larger_instance(rng)
        before = levels, rooted
        found = all_homomorphisms(source, target, pins)
        if found:  # a search that met a solution has set up every level
            searched += levels - before[0]
            from_domains += rooted - before[1]
        expected = all_assignment_homs(source, target, pins)
        assert sorted(map(sorted_items, found)) == sorted(map(sorted_items, expected))
        assert len({tuple(sorted_items(h)) for h in found}) == len(found)  # each once
        assert hom._solve(hom.Plan(source, pins), target, dict(pins)) == found[:1]
        outcomes.add((bool(found), target.is_ground(), bool(pins)))
    assert len(outcomes) == 8
    # most levels draw their candidates from a driver triple, not from the
    # domain intersected over every triple holding the variable
    assert from_domains < searched / 3


def test_find_homomorphism_agrees_with_oracle():
    rng = random.Random(202)
    outcomes, pinned_outcomes = set(), set()
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
        # pins to IRIs or to variables, not only to themselves; a variable
        # named like another source variable must not be read as that one
        terms = NODES + tuple(sorted(target.vars() | a.tgraph.vars(), key=str))
        pins = {v: rng.choice(terms) for v in sorted(a.tgraph.vars(), key=str) if rng.random() < 0.4}
        found = all_homomorphisms(a.tgraph, target, pins)
        expected = all_assignment_homs(a.tgraph, target, pins)
        assert sorted(map(sorted_items, found)) == sorted(map(sorted_items, expected))
        pinned_outcomes.add(bool(found) if pins else None)
    assert outcomes == {True, False}
    assert pinned_outcomes == {True, False, None}


def sorted_items(h):
    return sorted((str(k), str(v)) for k, v in h.items())


def test_pinned_variable_named_like_another_source_variable():
    x0, x1 = VARS[:2]
    source = TGraph((Triple(x1, PREDICATES[0], x0),))
    target = TGraph((Triple(x0, PREDICATES[0], NODES[0]),))
    assert all_homomorphisms(source, target, {x1: x0}) == [{x1: x0, x0: NODES[0]}]


def test_maps_into_graph_agrees_with_oracle():
    rng = random.Random(303)
    outcomes, pinned_outcomes = set(), set()
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
        # every variable pinned, each to its planted value or to a random IRI
        every = sorted(g.tgraph.vars(), key=str)
        mu = Mapping.of({v: image[v] if rng.random() < 0.7 else rng.choice(NODES) for v in every})
        pinned = GeneralizedTGraph(g.tgraph, frozenset(every))
        h = maps_into_graph(pinned, graph, mu)
        assert (h is not None) == hom_into_graph_exists(pinned, graph, mu)
        pinned_outcomes.add(h is not None)
    assert outcomes == pinned_outcomes == {True, False}


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
            members = consistency_family(g, graph, mu, k)
            assert members == consistency_family_by_iteration(g, graph, mu, k)
            outcomes.add(bool(members))
    assert outcomes == {True, False}


def test_by_mask_equals_full_scan_for_every_mask():
    rng = random.Random(121)
    masks = [m for n in range(4) for m in combinations(range(3), n)]
    tied = namesakes = 0
    for _ in range(150):
        pool = TARGET_VARS if rng.random() < 0.5 else ()
        graph = random_target(rng, rng.randint(0, 30), pool)
        for mask in masks:
            # each triple under the key of its own terms at the mask, in order
            index = graph.by_mask(mask)
            for key, us in index.items():
                terms = (key,) if len(mask) == 1 else key
                assert us == [u for u in graph if tuple(u[i] for i in mask) == terms]
            assert sum(map(len, index.values())) == len(graph)
            # a pattern triple with the mask's positions bound (an IRI, or a
            # variable with a value) and the others free: two or three of
            # them one repeated variable in half the cases, and named like
            # the graph's own variables in some
            free = [i for i in range(3) if i not in mask]
            tie = len(free) > 1 and rng.random() < 0.5
            names = TARGET_VARS if rng.random() < 0.3 else VARS
            terms = {i: names[0] if tie else names[n] for n, i in enumerate(free)}
            values = {}
            for i in mask:
                value = rng.choice(NODES + PREDICATES + TARGET_VARS)
                if value.is_iri and rng.random() < 0.5:
                    terms[i] = value
                else:
                    terms[i] = var(f"b{i}")
                    values[terms[i]] = value
            t = Triple(terms[0], terms[1], terms[2])
            expected = [
                u for u in full_scan(graph, t)
                if all(u[i] == values[x] for i, x in enumerate(t) if x in values)
            ]
            assert list(graph.matching(t, values)) == expected, (t, values)
            bound = [terms[i] if terms[i].is_iri else values[terms[i]] for i in mask]
            untied = index.get(bound[0] if len(bound) == 1 else tuple(bound), ())
            tied += tie and len(expected) < len(untied)
            namesakes += bool(expected) and any(x in graph.vars() for x in t.vars() - values.keys())
    # the ties filter some keyed lists, and free namesakes still match anything
    assert tied > 20 and namesakes > 20


def small_planned_instance(rng):
    """A source with IRIs in every position and repeated variables, a
    target that is ground or holds variables named like the source's own,
    and pins to IRIs and to variables of either."""
    source = random_source(rng).tgraph
    pool = TARGET_VARS + VARS[:2] if rng.random() < 0.5 else ()
    target = random_target(rng, rng.randint(1, 10), pool)
    if rng.random() < 0.5:  # plant an image
        values = NODES + PREDICATES + tuple(sorted(target.vars(), key=str))
        image = {v: rng.choice(values) for v in sorted(source.vars(), key=str)}
        target = target | TGraph(tuple(substitute(t, image) for t in source))
    terms = NODES + tuple(sorted(target.vars() | source.vars(), key=str))
    pins = {v: rng.choice(terms) for v in sorted(source.vars(), key=str) if rng.random() < 0.4}
    return source, target, pins


def test_planned_search_agrees_with_the_oracles():
    rng = random.Random(707)
    seen = set()
    for n in range(500):
        source, target, pins = (small_planned_instance if n % 2 else larger_instance)(rng)
        plan = hom.Plan(source, pins)
        found = hom._solve(plan, target, pins, find_all=True)
        expected = all_assignment_homs(source, target, pins)
        assert sorted(map(sorted_items, found)) == sorted(map(sorted_items, expected))
        assert hom._solve(plan, target, pins) == found[:1]
        seen.add("found" if found else "none")
        seen.update(f"iri at {i}" for t in source for i, x in enumerate(t) if x.is_iri)
        if any(len(t.vars()) < sum(x.is_var for x in t) for t in source):
            seen.add("repeated")
        seen.update(f"pin to {'variable' if x.is_var else 'IRI'}" for x in pins.values())
        if source.vars() & target.vars() - pins.keys():
            seen.add("free namesake")
    assert seen >= {
        "found", "none", "iri at 0", "iri at 1", "iri at 2", "repeated",
        "pin to variable", "pin to IRI", "free namesake",
    }
    # a ground target and mu on the distinguished variables, the second
    # search on the plan the first kept
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
        assert maps_into_graph(g, graph, mu) == h
        outcomes.add(h is not None)
    assert outcomes == {True, False}


def test_one_plan_serves_many_targets_and_pin_values():
    """A plan run on several targets and pin values in turn gives what a
    fresh plan per call gives, in the same order, so it keeps nothing of
    a target or of the values."""
    rng = random.Random(808)
    differ = 0
    for _ in range(150):
        source, target, pins = larger_instance(rng)
        if not pins:
            pins = {min(source.vars(), key=str): NODES[0]}
        others = []
        for _ in range(2):  # ground targets, each with an image of the source
            image = {v: rng.choice(NODES[:2] + PREDICATES[:2]) for v in sorted(source.vars(), key=str)}
            graph = random_target(rng, rng.randint(3, 10), (), NODES[:2], PREDICATES[:2])
            others.append(graph | TGraph(tuple(substitute(t, image) for t in source)))
        values = NODES[:2] + PREDICATES[:2] + TARGET_VARS[:2]
        pin_sets = [pins] + [{v: rng.choice(values) for v in pins} for _ in range(2)]
        plan = hom.Plan(source, pins)
        results = set()
        for _ in range(2):  # twice round, so a value kept from a run shows
            for graph in [target] + others:
                for fixed in pin_sets:
                    got = hom._solve(plan, graph, fixed, find_all=True)
                    fresh = hom.Plan(source, fixed)
                    assert got == hom._solve(fresh, graph, fixed, find_all=True)
                    assert hom._solve(plan, graph, fixed) == got[:1]
                    results.add(tuple(tuple(sorted_items(h)) for h in got))
        differ += len(results) > 1
    assert differ > 80


def test_readers_bound_before_assembly_decide_as_on_a_fresh_copy():
    """A plan's lookups bound on a parsed graph before its triples are
    assembled, to a predicate's own index and member set, stay in the
    graph's reader table once the first read of `triples` assembles it,
    and the plan then finds exactly what it finds on a fresh copy of the
    file read line by line, for every pin value tried."""
    rng = random.Random(919)
    outcomes = set()
    for _ in range(200):
        text = serialize_graph(random_target(rng, rng.randint(1, 30)))
        parsed = parse_graph(text, ground=True)
        fresh = parse_graph_by_lines(text, ground=True)
        # IRI predicates only, so binding the lookups assembles nothing
        pool = list(VARS[: rng.randint(1, 3)])
        triples = [random_pattern_triple(rng, pool) for _ in range(rng.randint(1, 4))]
        source = TGraph(tuple(t for t in triples if t.p.is_iri) or (Triple(VARS[0], PREDICATES[0], VARS[1]),))
        pins = {v: rng.choice(NODES) for v in sorted(source.vars(), key=str) if rng.random() < 0.5}
        plan = hom.Plan(source, pins)
        hom.exists(plan, parsed, pins)
        bound = parsed.readers()[plan]
        assert type(parsed) is not TGraph  # not yet assembled
        assert parsed.triples == fresh.triples and type(parsed) is TGraph
        for fixed in [pins] + [{v: rng.choice(NODES) for v in pins} for _ in range(3)]:
            found = hom._solve(plan, parsed, fixed, find_all=True)
            assert found == hom._solve(plan, fresh, fixed, find_all=True)
            assert hom.exists(plan, parsed, fixed) == hom.exists(plan, fresh, fixed) == bool(found)
            assert hom.search(plan, parsed, fixed) == (found[0] if found else None)
            outcomes.add(bool(found))
        assert parsed.readers()[plan] is bound
    assert outcomes == {True, False}


def predicate_scan(graph, mask, ties, p):
    """The (mask, ties, p) index by a full scan: the triples holding p at
    position 1 and equal terms at each pair of `ties`, under their terms
    at `mask`, in graph order."""
    out = {}
    for u in graph:
        if u[1] == p and all(u[i] == u[j] for i, j in ties):
            terms = tuple(u[i] for i in mask)
            out.setdefault(terms[0] if len(terms) == 1 else terms, []).append(u)
    return out


PREDICATE_MASKS = (((), ()), ((), ((0, 2),)), ((0,), ()), ((2,), ()), ((0, 2), ()), ((0, 1, 2), ()))


def test_predicate_index_equals_a_full_scan_of_the_predicate():
    """Every (mask, ties, p) index of a graph built from triples and of the
    same graph parsed from its file equals a full scan of the built graph
    filtered by p, for every predicate it holds (IRIs and variables) and
    one it does not, and `members(p)` holds exactly the graph's triples
    with p among those with p; the parsed graph is read before anything
    assembles its triples, so each comes from its predicate's own rows."""
    rng = random.Random(131)
    tied = var_predicates = 0
    for _ in range(150):
        pool = TARGET_VARS if rng.random() < 0.5 else ()
        built = random_target(rng, rng.randint(0, 30), pool)
        parsed = parse_graph(serialize_graph(built))
        predicates = sorted({u[1] for u in built}, key=str) + [iri("absent")]
        rng.shuffle(predicates)
        for graph in (parsed, built):
            for p in predicates:
                for mask, ties in PREDICATE_MASKS:
                    expected = predicate_scan(built, mask, ties, p)
                    assert graph.by_mask(mask, ties, p) == expected, (mask, ties, p)
                    tied += bool(ties) and expected != predicate_scan(built, mask, (), p)
                # the set a membership test of a triple with p reads
                members = graph.members(p)
                assert {u for u in members if u[1] == p} == {u for u in built if u[1] == p}
                assert members <= built.triple_set
                var_predicates += p.is_var
        assert parsed == built
    # the ties filter some predicates' rows, and variables are predicates too
    assert tied > 20 and var_predicates > 20


def test_matching_on_a_parsed_graph_equals_full_scan():
    rng = random.Random(141)
    hits = var_predicate_hits = 0
    for _ in range(200):
        pool = TARGET_VARS if rng.random() < 0.4 else ()
        built = random_target(rng, rng.randint(0, 30), pool)
        parsed = parse_graph(serialize_graph(built))
        for _ in range(8):
            t = random_pattern_triple(rng, [VARS[0], rng.choice(VARS[1:2] + TARGET_VARS)])
            values = {x: rng.choice(NODES + PREDICATES + TARGET_VARS) for x in t.vars() if rng.random() < 0.4}
            expected = [
                u for u in full_scan(built, t)
                if all(u[i] == values[x] for i, x in enumerate(t) if x in values)
            ]
            assert list(parsed.matching(t, values)) == expected, (t, values)
            hits += bool(expected)
            var_predicate_hits += bool(expected) and t.p.is_var
    assert hits > 300 and var_predicate_hits > 50


def mixed_predicate_instances(rng, n):
    """Seeded (source, target, pins) triples whose sources mix IRI and
    variable predicates, with targets built from triples or parsed from
    their files, ground or not: the larger-instance and small-source
    generators above, with a parsed copy of the target half the time."""
    for i in range(n):
        source, target, pins = (small_planned_instance if i % 2 else larger_instance)(rng)
        if rng.random() < 0.5:
            target = parse_graph(serialize_graph(target))
        yield source, target, pins


# sha256 of every search result below, in order, as the search before
# predicate-keyed indexes returned them
MIXED_SEARCH_DIGEST = "3be177f7b2ff576563f4f705c7ff99a8c791df2faec043daf3e9d64fb3fedfa3"


def test_searches_with_predicate_keys_agree_with_the_oracles():
    rng = random.Random(151)
    digest = hashlib.sha256()
    seen = set()
    for source, target, pins in mixed_predicate_instances(rng, 400):
        found = all_homomorphisms(source, target, pins)
        first = hom.search(hom.Plan(source, pins), target, pins)
        expected = all_assignment_homs(source, target, pins)
        assert sorted(map(sorted_items, found)) == sorted(map(sorted_items, expected))
        assert first == (found[0] if found else None)
        digest.update(repr([sorted_items(h) for h in found]).encode())
        kinds = {x.is_var for t in source for x in t[1:2]}
        seen.add((bool(found), frozenset(kinds), target.is_ground()))
    outcomes = set()
    for _ in range(200):
        g = random_source(rng)
        graph = random_target(rng, rng.randint(1, 12))
        image = {v: rng.choice(NODES + PREDICATES) for v in sorted(g.tgraph.vars(), key=str)}
        if rng.random() < 0.5:
            graph = graph | TGraph(tuple(substitute(t, image) for t in g.tgraph))
        graph = parse_graph(serialize_graph(graph), ground=True)
        mu = Mapping.of({x: image[x] for x in g.dist})
        h = maps_into_graph(g, graph, mu)
        assert (h is not None) == hom_into_graph_exists(g, graph, mu)
        digest.update(repr(h and sorted_items(h)).encode())
        outcomes.add((h is not None, any(t.p.is_var for t in g.tgraph)))
    assert digest.hexdigest() == MIXED_SEARCH_DIGEST
    assert {(True, frozenset({True, False})), (False, frozenset({True, False}))} <= {s[:2] for s in seen}
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}
