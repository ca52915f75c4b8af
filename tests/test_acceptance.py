"""Acceptance suite: one test per criterion, one printed line per criterion.

Sizes, tolerances and time budgets are pinned here; every expected value is
either a worked-example constant or recomputed by an independent oracle in
the same test.
"""

import random
import time
from itertools import combinations

from fixtures import (
    P1_TEXT,
    P2_TEXT,
    P_UNION_TEXT,
    XYZ,
    clique_pattern_tgraph,
    collapsing_tgraph,
    forest_family,
    two_node_clique_tree,
)
from oracles import eval_forest_by_enumeration
from wdsparql.evaluator import enumerate_solutions, eval_forest, eval_naive, eval_pebble
from wdsparql.graphs import UndirectedGraph
from wdsparql.hardness import CliqueInstance, generate_hard_instance, has_clique
from wdsparql.hom import (
    GeneralizedTGraph,
    core,
    ctw,
    find_homomorphism,
    gaifman,
    maps_into_graph,
)
from wdsparql.patterns import is_well_designed, parse_pattern, well_designed_violation
from wdsparql.pebble import pebble_wins
from wdsparql.randgen import (
    random_candidate_mapping,
    random_forest,
    random_game_instance,
    random_rdf_graph,
)
from wdsparql.terms import Mapping, TGraph, parse_graph, substitute, var
from wdsparql.trees import (
    ChildrenAssignment,
    Subtree,
    WdPF,
    assignment_tgraph,
    associated_tgraphs,
    forest_pattern,
    is_valid_assignment,
    subtrees,
    to_forest,
)
from wdsparql.width import (
    branch_treewidth,
    domination_width,
    find_hard_witness,
    is_k_dominated,
    local_tractability_width,
)
from wdsparql.graphs import treewidth


def _report(number: int, description: str, failures: list, started: float, budget: float):
    elapsed = time.time() - started
    ok = not failures and elapsed < budget
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {description} "
          f"({elapsed:.1f}s / budget {budget:.0f}s)")
    assert not failures, f"criterion {number}: {failures[:5]}"
    assert elapsed < budget, f"criterion {number} exceeded its {budget:.0f}s budget"


def test_criterion_01_example_pattern_fidelity():
    t0 = time.time()
    failures = []
    if not is_well_designed(parse_pattern(P1_TEXT)):
        failures.append("first example pattern should be well designed")
    bad = well_designed_violation(parse_pattern(P2_TEXT))
    if bad is None or bad.variable != var("z") or bad.kind != "escaped-variable":
        failures.append(f"second example pattern witness wrong: {bad}")
    _report(1, "well-designedness of the two worked patterns", failures, t0, 1.0)


def test_criterion_02_forest_translation_fidelity():
    t0 = time.time()
    failures = []
    forest = to_forest(parse_pattern(P_UNION_TEXT))
    if len(forest) != 2:
        failures.append(f"expected 2 trees, got {len(forest)}")
    else:
        t1, t2 = forest.trees
        want_root = parse_graph("?x p ?y")
        kids1 = sorted((t1.label(c) for c in t1.children(t1.root)), key=str)
        want1 = sorted([parse_graph("?z q ?x"), parse_graph("?y r ?o1\n?o1 r ?o2")], key=str)
        if t1.label(t1.root) != want_root or kids1 != want1:
            failures.append("first tree shape differs")
        kids2 = [t2.label(c) for c in t2.children(t2.root)]
        if t2.label(t2.root) != want_root or kids2 != [parse_graph("?z q ?x\n?w q ?z")]:
            failures.append("second tree shape differs")
    _report(2, "two-tree forest translation of the union example", failures, t0, 1.0)


def test_criterion_03_core_and_treewidth_examples():
    t0 = time.time()
    failures = []
    reference_core = parse_graph("?z q ?x\n?x p ?y\n?y r ?o\n?o r ?o")
    for k in range(2, 6):
        rigid = GeneralizedTGraph(clique_pattern_tgraph(k), XYZ)
        if ctw(rigid) != k - 1:
            failures.append(f"k={k}: anchored clique ctw != {k - 1}")
        soft = GeneralizedTGraph(collapsing_tgraph(k), XYZ)
        cored = core(soft)
        ref = GeneralizedTGraph(reference_core, XYZ)
        if not (find_homomorphism(cored, ref) and find_homomorphism(ref, cored)):
            failures.append(f"k={k}: core differs from the expected 4-triple graph")
        if len(cored.tgraph) != 4:
            failures.append(f"k={k}: core has {len(cored.tgraph)} triples")
        if ctw(soft) != 1:
            failures.append(f"k={k}: ctw of collapsing graph != 1")
        if treewidth(gaifman(soft)) != k - 1:
            failures.append(f"k={k}: raw treewidth != {k - 1}")
    _report(3, "core and (core) treewidth of the clique examples, k=2..5", failures, t0, 10.0)


def test_criterion_04_children_assignments_and_domination():
    t0 = time.time()
    failures = []
    for k in (2, 3, 4):
        family = forest_family(k)
        sub = Subtree(0, frozenset({0}))
        d1 = ChildrenAssignment(((0, 1), (1, 1)))
        d2 = ChildrenAssignment(((0, 2), (1, 1)))
        d3 = ChildrenAssignment(((0, 1),))
        if not is_valid_assignment(family, sub, d1):
            failures.append(f"k={k}: full assignment via first child not valid")
        if not is_valid_assignment(family, sub, d2):
            failures.append(f"k={k}: full assignment via clique child not valid")
        if is_valid_assignment(family, sub, d3):
            failures.append(f"k={k}: partial assignment should be invalid")
        s1 = assignment_tgraph(family, sub, d1)
        s2 = assignment_tgraph(family, sub, d2)
        if ctw(s1) != 1:
            failures.append(f"k={k}: ctw of plain member != 1")
        if ctw(s2) != max(k - 1, 1):
            failures.append(f"k={k}: ctw of clique member != {k - 1}")
        if find_homomorphism(s1, s2) is None:
            failures.append(f"k={k}: plain member should map into clique member")
        if not is_k_dominated(associated_tgraphs(family, sub), 1):
            failures.append(f"k={k}: root subtree set should be 1-dominated")
    _report(4, "children assignments and 1-domination of the forest family, k=2..4",
            failures, t0, 30.0)


def test_criterion_05_width_family():
    t0 = time.time()
    failures = []
    for k in (3, 4, 5):
        tree = two_node_clique_tree(k)
        if branch_treewidth(tree) != 1:
            failures.append(f"k={k}: branch treewidth != 1")
        if local_tractability_width(WdPF((tree,))) != k - 1:
            failures.append(f"k={k}: local width != {k - 1}")
        if domination_width(WdPF((tree,))) != 1:
            failures.append(f"k={k}: domination width != 1")
    _report(5, "branch/local/domination width of the two-node clique family, k=3..5",
            failures, t0, 30.0)


def test_criterion_06_oracle_triangle():
    t0 = time.time()
    failures = []
    rng = random.Random(20260810)
    done = 0
    while done < 500:
        forest = random_forest(rng, max_trees=2, max_nodes=3)
        if sum(len(t.pat()) for t in forest) > 8:
            continue
        done += 1
        graph = random_rdf_graph(rng, max_iris=6, max_triples=8)
        pattern = forest_pattern(forest)
        translated = to_forest(pattern)
        naive = set(eval_naive(pattern, graph))
        enumerated = set(enumerate_solutions(translated, graph))
        if naive != enumerated:
            failures.append(f"trial {done}: naive vs enumeration differ")
            continue
        for mu in list(naive)[:4]:
            if not eval_forest(translated, graph, mu):
                failures.append(f"trial {done}: solution rejected by forest eval")
        probe = random_candidate_mapping(rng, forest, graph)
        if eval_forest(translated, graph, probe) != (probe in naive):
            failures.append(f"trial {done}: probe disagreement")
    _report(6, "oracle triangle on 500 random patterns", failures, t0, 300.0)


def test_criterion_07_pebble_game_laws():
    t0 = time.time()
    failures = []
    rng = random.Random(777)
    for trial in range(500):
        g, graph, mu = random_game_instance(rng, ensure_hom=rng.random() < 0.4)
        hom = maps_into_graph(g, graph, mu) is not None
        wins2 = pebble_wins(g, graph, mu, 2)
        if hom and not wins2:
            failures.append(f"trial {trial}: homomorphism not relaxed")
        if not g.free_vars() and wins2 != hom:
            failures.append(f"trial {trial}: ground case diverges")
        if pebble_wins(g, graph, mu, ctw(g) + 1) != hom:
            failures.append(f"trial {trial}: not exact below the ctw bound")
        renaming = {v: var(v.name + "_t") for v in g.free_vars()}
        twin = GeneralizedTGraph(
            TGraph(tuple(substitute(t, renaming) for t in g.tgraph)), g.dist
        )
        doubled = GeneralizedTGraph(g.tgraph | twin.tgraph, g.dist)
        if wins2 and not pebble_wins(doubled, graph, mu, 2):
            # doubled maps into g, so a win must transfer; and the twin pair
            # has disjoint free variables, so this also exercises the union law
            failures.append(f"trial {trial}: transfer/union law broken")
    _report(7, "pebble game laws on 500 random instances", failures, t0, 300.0)


def test_criterion_08_relaxed_evaluation():
    t0 = time.time()
    failures = []
    rng = random.Random(4242)
    for trial in range(300):
        forest = random_forest(rng, max_trees=2, max_nodes=3)
        graph = random_rdf_graph(rng, max_iris=4, max_triples=6)
        mu = random_candidate_mapping(rng, forest, graph)
        exact = eval_forest(forest, graph, mu)
        for k in (1, 2, 3):
            if eval_pebble(forest, graph, mu, k) and not exact:
                failures.append(f"trial {trial}: accepted a non-solution at k={k}")
        width = domination_width(forest)
        if eval_pebble(forest, graph, mu, width) != exact:
            failures.append(f"trial {trial}: incomplete at k=dw={width}")
    _report(8, "relaxed evaluation sound (k=1..3) and complete at k=dw, 300 instances",
            failures, t0, 600.0)


def test_criterion_09_clique_reduction():
    t0 = time.time()
    failures = []
    family = forest_family(3)
    witness = find_hard_witness(family, 2)

    def thaw_triple(t, inst):
        from wdsparql.terms import Triple

        return Triple(*(inst.frozen.thaw(term) for term in t))

    def check(h, tag):
        inst = generate_hard_instance(family, CliqueInstance(h, 2))
        expected = has_clique(h, 2)
        # rebuild the unfrozen gadget through the thaw map for the hom tests
        thawed = TGraph(tuple(thaw_triple(t, inst) for t in inst.graph))
        b = GeneralizedTGraph(thawed, witness.tgraph.dist, declared=True)
        if (find_homomorphism(witness.tgraph, b) is not None) != expected:
            failures.append(f"{tag}: witness-to-gadget homomorphism mismatch")
        if find_homomorphism(b, witness.tgraph) is None:
            failures.append(f"{tag}: gadget does not map back")
        for t in witness.tgraph.tgraph:
            if t.vars() <= witness.tgraph.dist and t not in b.tgraph:
                failures.append(f"{tag}: distinguished triple missing")
        if expected != (not eval_forest(family, inst.graph, inst.mapping)):
            failures.append(f"{tag}: reduction equivalence broken")

    for n in range(1, 6):
        names = [f"h{i}" for i in range(n)]
        pairs = list(combinations(names, 2))
        for mask in range(2 ** len(pairs)):
            edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
            check(UndirectedGraph.of(names, edges), f"n={n} mask={mask}")
    rng = random.Random(99)
    names = [f"h{i}" for i in range(6)]
    for trial in range(50):
        edges = [e for e in combinations(names, 2) if rng.random() < 0.4]
        check(UndirectedGraph.of(names, edges), f"random6 {trial}")
    _report(9, "clique reduction equivalence, all graphs on <=5 vertices plus 50 on 6",
            failures, t0, 300.0)


def test_criterion_10_hard_witness_contract():
    t0 = time.time()
    failures = []
    for k in (3, 4):
        for clique_size in (3, 4):
            family = forest_family(clique_size)
            width = domination_width(family)
            witness = find_hard_witness(family, k)
            if (witness is not None) != (width >= k):
                failures.append(f"k={k}, clique={clique_size}: presence != (dw >= k)")
            if witness is None:
                continue
            if ctw(witness.tgraph) < k:
                failures.append(f"k={k}: witness ctw below k")
            for other in associated_tgraphs(family, witness.subtree):
                into = find_homomorphism(other, witness.tgraph) is not None
                back = find_homomorphism(witness.tgraph, other) is not None
                if into and not back:
                    failures.append(f"k={k}: witness not maximal")
    _report(10, "hard-witness contract on the clique families, k=3,4", failures, t0, 120.0)
