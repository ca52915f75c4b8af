import random

import pytest

from fixtures import forest_family, two_node_clique_tree
from oracles import duplicator_wins_game, eval_forest_by_enumeration, matched_subtree_by_enumeration
from wdsparql.errors import InstanceTooLarge, InvalidK, NotNRNormalForm
from wdsparql.evaluator import (
    SolutionSet,
    enumerate_solutions,
    eval_forest,
    eval_naive,
    eval_pebble,
    eval_tree,
    matched_subtree,
)
from wdsparql.hom import core, find_homomorphism
from wdsparql.patterns import parse_pattern
from wdsparql.pebble import pebble_wins
from wdsparql.randgen import (
    IRIS,
    random_candidate_mapping,
    random_forest,
    random_rdf_graph,
    random_tree,
)
from wdsparql.terms import Mapping, TGraph, Triple, iri, parse_graph, substitute, var
from wdsparql.trees import WdPF, WdPT, forest_pattern, to_forest
from wdsparql.width import MAX_TREES, Analysis, domination_width


def m(**kv):
    return Mapping.of({var(k): iri(v) for k, v in kv.items()})


def test_naive_triple_rule():
    got = eval_naive(parse_pattern("(?x,p,?y)"), parse_graph("a p b"))
    assert list(got) == [m(x="a", y="b")]


def test_naive_opt_unextendable():
    got = eval_naive(
        parse_pattern("((?x,p,?y) OPT (?y,q,?z))"), parse_graph("a p b")
    )
    assert list(got) == [m(x="a", y="b")]


def test_naive_opt_extendable():
    got = eval_naive(
        parse_pattern("((?x,p,?y) OPT (?y,q,?z))"), parse_graph("a p b\nb q c")
    )
    assert list(got) == [m(x="a", y="b", z="c")]


def test_naive_handles_non_wd_patterns():
    got = eval_naive(
        parse_pattern("(((?x,p,?y) OPT (?z,q,?x)) OPT ((?y,r,?z) AND (?z,r,?o2)))"),
        parse_graph("a p b"),
    )
    assert list(got) == [m(x="a", y="b")]


def test_eval_tree_requires_nr():
    sloppy = WdPT(0, {1: 0}, {0: parse_graph("?x p ?y"), 1: parse_graph("?y q ?x")})
    with pytest.raises(NotNRNormalForm):
        eval_tree(sloppy, parse_graph("a p b"), m(x="a", y="b"))


def test_clique_family_membership():
    tree = two_node_clique_tree(3)
    forest = WdPF((tree,))
    graph = parse_graph("a r a")
    short = m(y="a")
    full = m(y="a", o1="a", o2="a", o3="a")
    assert not eval_tree(tree, graph, short)  # the child still extends
    assert eval_tree(tree, graph, full)
    assert eval_forest(forest, graph, full)
    assert list(enumerate_solutions(forest, graph)) == [full]


def test_single_node_tree_without_children():
    tree = WdPT(0, {}, {0: parse_graph("?x p ?y")})
    assert eval_tree(tree, parse_graph("a p b"), m(x="a", y="b"))
    assert not eval_tree(tree, parse_graph("a p b"), m(x="a", y="c"))
    assert not eval_tree(tree, parse_graph("a p b"), m(x="a"))


def test_enumeration_cap(monkeypatch):
    import wdsparql.evaluator as evaluator

    rng = random.Random(1)
    forest = random_forest(rng)
    monkeypatch.setattr(evaluator, "MAX_ENUM_VARS", 0)
    with pytest.raises(InstanceTooLarge):
        enumerate_solutions(forest, parse_graph("a p b"))


def test_oracle_triangle():
    rng = random.Random(271)
    for _ in range(150):
        forest = random_forest(rng)
        pattern = forest_pattern(forest)
        graph = random_rdf_graph(rng)
        translated = to_forest(pattern)
        naive = eval_naive(pattern, graph)
        enumerated = enumerate_solutions(translated, graph)
        assert set(naive) == set(enumerated)
        for mu in list(naive)[:5]:
            assert eval_forest(translated, graph, mu)
            assert eval_forest_by_enumeration(translated, graph, mu)
        probe = random_candidate_mapping(rng, forest, graph)
        assert eval_forest(translated, graph, probe) == (probe in naive)


def test_eval_pebble_validates_k():
    forest = WdPF((WdPT(0, {}, {0: parse_graph("?x p ?y")}),))
    with pytest.raises(InvalidK):
        eval_pebble(forest, parse_graph("a p b"), m(x="a", y="b"), 0)


def test_eval_pebble_sound_and_complete_at_width():
    rng = random.Random(83)
    for _ in range(120):
        forest = random_forest(rng)
        graph = random_rdf_graph(rng, max_iris=4, max_triples=6)
        mu = random_candidate_mapping(rng, forest, graph)
        exact = eval_forest(forest, graph, mu)
        for k in (1, 2, 3):
            relaxed = eval_pebble(forest, graph, mu, k)
            if relaxed:
                assert exact  # never accepts a non-solution
            if exact and k >= 2:
                assert relaxed or not eval_pebble(forest, graph, mu, k - 1)
        assert eval_pebble(forest, graph, mu, domination_width(forest)) == exact


def test_eval_pebble_monotone_in_k():
    rng = random.Random(89)
    for _ in range(60):
        forest = random_forest(rng)
        graph = random_rdf_graph(rng, max_iris=4, max_triples=6)
        mu = random_candidate_mapping(rng, forest, graph)
        if eval_pebble(forest, graph, mu, 1):
            assert eval_pebble(forest, graph, mu, 2)


def test_eval_pebble_on_clique_family():
    for k in (2, 3, 4):
        forest = WdPF((two_node_clique_tree(k),))
        graph = parse_graph("a r a\na r b")
        sols = enumerate_solutions(forest, graph)
        for mu in sols:
            assert eval_pebble(forest, graph, mu, 1)
        assert not eval_pebble(forest, graph, m(y="b"), 1)  # (b,r,.) missing


def test_solution_set_membership_and_order():
    a, b = m(x="a"), m(x="b", y="c")
    ss = SolutionSet((b, a, a))
    assert list(ss) == [a, b]
    assert a in ss and b in ss and m(z="d") not in ss


def test_forest_family_has_expected_solutions():
    family = forest_family(2)
    graph = parse_graph("a p b\nc q a\nb r c\nc r c")
    sols = enumerate_solutions(family, graph)
    naive = eval_naive(forest_pattern(family), graph)
    assert set(sols) == set(naive)


def test_single_node_forest_solutions_are_triple_matches():
    tree = WdPT(0, {}, {0: parse_graph("?x p ?y")})
    graph = parse_graph("a p b\nb p c\na q b")
    sols = enumerate_solutions(WdPF((tree,)), graph)
    rule_one = eval_naive(parse_pattern("(?x, p, ?y)"), graph)
    assert set(sols) == set(rule_one)
    assert len(sols) == 2


def test_matched_subtree_matches_enumeration():
    """The greedy walk against every subtree, on mappings built from a
    random subtree's image, some with a variable dropped, one added, or the
    variables of a node outside the subtree added."""
    rng = random.Random(23)
    outcomes = {"none": 0, "found": 0, "dropped": 0, "added": 0, "node added": 0}
    trials = 300
    for _ in range(trials):
        tree = random_tree(rng, max_nodes=5)
        nodesets = tree.subtree_nodesets()
        nodes = nodesets[rng.randrange(len(nodesets))]
        image = {v: rng.choice(IRIS[:3]) for v in sorted(tree.vars(), key=str)}
        planted = tree.pat() if rng.random() < 0.4 else tree.pat(nodes)
        graph = random_rdf_graph(rng, max_iris=3, max_triples=4)
        if rng.random() < 0.8:
            graph = graph | TGraph(tuple(substitute(t, image) for t in planted))
        keep = sorted(tree.vars(nodes), key=str)
        roll = rng.random()
        if roll < 0.2:
            keep.remove(rng.choice(keep))
            outcomes["dropped"] += 1
        elif roll < 0.35:
            extra = sorted(tree.vars() - tree.vars(nodes), key=str) or [var("extra")]
            keep.append(rng.choice(extra))
            image.setdefault(var("extra"), IRIS[0])
            outcomes["added"] += 1
        elif roll < 0.7 and len(nodes) < len(tree):
            # a node whose parent may not fit: the walk must not take it
            n = rng.choice(sorted(set(tree.nodes) - nodes))
            keep = sorted(set(keep) | tree.node_vars(n), key=str)
            outcomes["node added"] += 1
        mu = Mapping.of({v: image[v] for v in keep})
        found = matched_subtree(tree, graph, mu)
        assert found == matched_subtree_by_enumeration(tree, graph, mu)
        outcomes["none" if found is None else "found"] += 1
    assert outcomes["none"] >= trials // 5 and outcomes["found"] >= trials // 5, outcomes
    assert min(outcomes["dropped"], outcomes["added"], outcomes["node added"]) >= 30, outcomes


# ---------------------------------------------------------------------------
# children decided on their cores

R = iri("r")


def with_planted_loops(rng, forest):
    """The forest with, in about half of its non-root nodes, a loop ?y r ?y
    on a variable y of the parent and a fresh ?w with ?y r ?w: ?w folds
    onto the loop, so every child t-graph of such a node has a proper core."""
    trees = []
    for i, tree in enumerate(forest):
        labels = dict(tree.labels)
        for n in tree.nodes:
            if n != tree.root and rng.random() < 0.5:
                y = rng.choice(sorted(tree.node_vars(tree.parent(n)), key=str))
                w = var(f"w{i}_{n}")
                labels[n] = labels[n] | TGraph((Triple(y, R, y), Triple(y, R, w)))
        trees.append(WdPT(tree.root, tree.parents, labels))
    return WdPF(tuple(trees))


def planted_call(rng, forest):
    """A graph over two IRIs holding the image of a random subtree of the
    forest, in half the cases with the loop a r a, and mu, that image on
    the subtree's variables."""
    tree = rng.choice(forest.trees)
    nodes = rng.choice(tree.subtree_nodesets())
    image = {v: rng.choice(IRIS[:2]) for v in sorted(forest.vars(), key=str)}
    graph = random_rdf_graph(rng, max_iris=2, max_triples=5)
    graph = graph | TGraph(tuple(substitute(t, image) for t in tree.pat(nodes)))
    if rng.random() < 0.5:
        graph = graph | TGraph((Triple(IRIS[0], R, IRIS[0]),))
    return graph, Mapping.of({v: image[v] for v in sorted(tree.vars(nodes), key=str)})


def test_cored_children_decide_as_the_children():
    rng = random.Random(97)
    reached = proper = 0
    for _ in range(200):
        forest = with_planted_loops(rng, random_forest(rng))
        dw = domination_width(forest)
        analysis = Analysis.of(forest)
        for _ in range(4):
            graph, mu = planted_call(rng, forest)
            exact = eval_forest(forest, graph, mu)
            assert exact == eval_forest_by_enumeration(forest, graph, mu)
            assert eval_pebble(forest, graph, mu, dw) == exact
            for i, tree in enumerate(forest):
                nodes = matched_subtree(tree, graph, mu)
                if nodes is None:
                    continue
                kids = tree.child_tgraphs(nodes)
                for child, cored in zip(kids, analysis.child_cores(i, nodes)):
                    reached += 1
                    proper += len(cored.tgraph) < len(child.tgraph)
                    # a retract with X fixed: equivalent to the child
                    assert cored.dist == child.dist and set(cored.tgraph) <= set(child.tgraph)
                    assert find_homomorphism(child, cored) is not None
                    won = pebble_wins(cored, graph, mu, dw + 1)
                    assert won == duplicator_wins_game(child, graph, mu, dw + 1)
    assert reached >= 100 and proper >= 0.2 * reached, (reached, proper)


def test_each_child_is_cored_once_per_forest(monkeypatch):
    import wdsparql.hom as hom

    rng = random.Random(101)
    forest = with_planted_loops(rng, forest_family(2))
    dw = domination_width(forest)
    cored = []

    def counted(g):
        cored.append(g)
        return core(g)

    monkeypatch.setattr(hom, "core", counted)
    calls = [planted_call(rng, forest) for _ in range(50)]
    for j, (graph, mu) in enumerate(calls):
        if j % 2:
            assert eval_forest(forest, graph, mu) == eval_forest_by_enumeration(forest, graph, mu)
        else:
            assert eval_pebble(forest, graph, mu, dw) == eval_forest(forest, graph, mu)
    children = {
        g
        for i, tree in enumerate(forest)
        for nodes in tree.subtree_nodesets()
        for g in tree.child_tgraphs(nodes)
    }
    assert len(cored) == len(set(cored)) >= 3
    assert set(cored) <= children
    before = len(cored)
    for graph, mu in calls:
        eval_forest(forest, graph, mu)
        eval_pebble(forest, graph, mu, dw)
    assert len(cored) == before


def test_forest_past_the_caps_is_decided_on_its_children(monkeypatch):
    import wdsparql.hom as hom

    tree = WdPT(0, {1: 0}, {0: parse_graph("?x p ?y"), 1: parse_graph("?y r ?y\n?y r ?z")})
    over_cap = WdPF((tree,) * (MAX_TREES + 1))
    cored = []

    def counted(g):
        cored.append(g)
        return core(g)

    monkeypatch.setattr(hom, "core", counted)
    graph = parse_graph("a p b\nb r c")
    for mu, expected in ((m(x="a", y="b"), True), (m(x="a", y="b", z="c"), False)):
        assert eval_forest(over_cap, graph, mu) is expected
        assert eval_pebble(over_cap, graph, mu, 1) is expected
    looped = graph | parse_graph("b r b")
    assert eval_forest(over_cap, looped, m(x="a", y="b")) is False
    assert eval_pebble(over_cap, looped, m(x="a", y="b"), 1) is False
    # the root's child is reached in every tree, and cored once per tree
    (child,) = tree.child_tgraphs(frozenset({0}))
    assert cored == [child] * len(over_cap)
    for _ in range(2):
        with pytest.raises(InstanceTooLarge):
            domination_width(over_cap)
