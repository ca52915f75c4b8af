import gc
import random
import statistics
from time import perf_counter

import pytest

from fixtures import XYZ, collapsing_tgraph, forest_family, opt_star, P_UNION_TEXT
from oracles import (
    eval_forest_by_enumeration,
    root_subtrees_by_enumeration,
    support_by_enumeration,
)
from wdsparql.errors import NotNRNormalForm, NotWellDesigned
from wdsparql.evaluator import enumerate_solutions, eval_naive, matched_subtree
from wdsparql.hom import GeneralizedTGraph, find_homomorphism
from wdsparql.patterns import parse_pattern
from wdsparql.randgen import random_forest, random_rdf_graph, random_tree
from wdsparql.terms import Mapping, TGraph, Triple, iri, parse_graph, var
from wdsparql.trees import (
    ChildrenAssignment,
    Subtree,
    WdPF,
    WdPT,
    assignment_tgraph,
    associated_tgraphs,
    children_assignments,
    forest_pattern,
    is_valid_assignment,
    render_forest,
    associated_with_provenance,
    subtree_vars,
    subtrees,
    support,
    to_forest,
    tree_pattern,
)


def tg(text):
    return parse_graph(text)


def test_wdpt_rejects_disconnected_variable():
    # ?u lives in two branches but not in the root
    with pytest.raises(ValueError):
        WdPT(0, {1: 0, 2: 0}, {0: tg("?x p ?y"), 1: tg("?x q ?u"), 2: tg("?y q ?u")})


def test_to_forest_example_shape():
    forest = to_forest(parse_pattern(P_UNION_TEXT))
    assert len(forest) == 2
    t1, t2 = forest.trees
    assert t1.label(t1.root) == tg("?x p ?y")
    children = sorted((t1.label(c) for c in t1.children(t1.root)), key=str)
    assert children == sorted([tg("?z q ?x"), tg("?y r ?o1\n?o1 r ?o2")], key=str)
    assert t2.label(t2.root) == tg("?x p ?y")
    (child,) = t2.children(t2.root)
    assert t2.label(child) == tg("?z q ?x\n?w q ?z")


def test_to_forest_single_triple():
    forest = to_forest(parse_pattern("(?x,p,?y)"))
    assert len(forest) == 1 and len(forest.trees[0]) == 1


def test_to_forest_rejects_non_wd():
    with pytest.raises(NotWellDesigned):
        to_forest(parse_pattern("((?x,p,?y) AND ((?x,q,?y) UNION (?x,r,?y)))"))


def test_a_tree_not_in_nr_form_cannot_be_built():
    """The constructor refuses a non-root node that adds no variable to its
    parent, naming both: a covered child at depth 1 and a covered
    grandchild, so no entry can answer on such a tree."""
    with pytest.raises(NotNRNormalForm, match="node n1 adds no variable to its parent n0"):
        WdPT(0, {1: 0}, {0: tg("?x p ?y"), 1: tg("?x q ?y")})
    with pytest.raises(NotNRNormalForm, match="node n2 adds no variable to its parent n1"):
        WdPT(0, {1: 0, 2: 1}, {0: tg("?x p ?y"), 1: tg("?y q ?z"), 2: tg("?z r ?y")})
    WdPT(0, {1: 0, 2: 1}, {0: tg("?x p ?y"), 1: tg("?y q ?z"), 2: tg("?z r ?w")})


def test_to_forest_drops_a_covered_optional_block():
    """P OPT Q with vars(Q) inside vars(P) has P's answers, so the covered
    block is dropped and the forest answers as the pattern does."""
    texts = (
        "((?x,p,?y) OPT (?y,q,?x))",
        "((?x,p,?y) OPT ((?y,q,?x) OPT (?y,r,?z)))",
        "((?x,p,?y) OPT (a,q,b))",
    )
    single, _, ground = (to_forest(parse_pattern(t)).trees for t in texts)
    assert single == ground == (WdPT(0, {}, {0: tg("?x p ?y")}),)
    for text in texts:
        p = parse_pattern(text)
        for graph in map(tg, ("a p b", "a p b\nb r c", "a p b\nb q a\nb r c\na q b")):
            assert enumerate_solutions(to_forest(p), graph) == eval_naive(p, graph)


def test_nr_normalize_merges_redundant_child():
    """The NR pass of `to_forest` merges a redundant (covered) block into
    each of its children: P OPT (D OPT C) = P OPT (D AND C), and a covered
    block with two children goes into both."""
    nested = to_forest(parse_pattern("((?x,p,?y) OPT ((?y,q,?x) OPT (?y,r,?z)))"))
    assert nested.trees == (WdPT(0, {1: 0}, {0: tg("?x p ?y"), 1: tg("?y q ?x\n?y r ?z")}),)
    forked = to_forest(
        parse_pattern("((?x,p,?y) OPT (((?y,q,?x) OPT (?y,r,?z)) OPT (?x,s,?w)))")
    )
    (tree,) = forked.trees
    assert len(tree) == 3 and tree.label(tree.root) == tg("?x p ?y")
    children = sorted((tree.label(c) for c in tree.children(tree.root)), key=str)
    assert children == sorted([tg("?y q ?x\n?y r ?z"), tg("?y q ?x\n?x s ?w")], key=str)


def test_nr_normalize_fixed_point():
    """A tree in NR normal form comes back from the NR pass of `to_forest`
    as it was."""
    tree = WdPT(0, {1: 0}, {0: tg("?x p ?y"), 1: tg("?y q ?z")})
    assert to_forest(tree_pattern(tree)).trees == (tree,)
    rng = random.Random(5)
    for _ in range(60):
        tree = random_tree(rng, max_nodes=5)
        assert to_forest(tree_pattern(tree)).trees == (tree,)


def test_subtree_counts():
    single = WdPF((WdPT(0, {}, {0: tg("?x p ?y")}),))
    assert len(subtrees(single)) == 1
    two_kids = WdPF(
        (WdPT(0, {1: 0, 2: 0}, {0: tg("?x p ?y"), 1: tg("?x q ?u"), 2: tg("?y q ?w")}),)
    )
    assert len(subtrees(two_kids)) == 4
    path = WdPF(
        (WdPT(0, {1: 0, 2: 1}, {0: tg("?x p ?y"), 1: tg("?x q ?u"), 2: tg("?u q ?w")}),)
    )
    assert len(subtrees(path)) == 3
    assert len(subtrees(forest_family(2))) == 4 + 2


def relabeled(rng, tree):
    """The tree with its node ids shuffled, so that ids need not follow the
    breadth-first order."""
    ids = list(tree.nodes)
    new = dict(zip(ids, rng.sample(ids, len(ids))))
    return WdPT(
        new[tree.root],
        {new[n]: new[p] for n, p in tree.parents.items()},
        {new[n]: label for n, label in tree.labels.items()},
    )


def test_subtree_nodesets_match_the_oracle():
    """The worklist finds every root subtree once, in canonical order, on
    random trees of up to 8 nodes (ids shuffled in half of them) and on the
    12-node OPT star."""
    rng = random.Random(139)
    sizes = set()
    for _ in range(200):
        tree = random_tree(rng, max_nodes=8)
        if rng.random() < 0.5:
            tree = relabeled(rng, tree)
        found, brute = tree.subtree_nodesets(), root_subtrees_by_enumeration(tree)
        assert set(found) == set(brute) and found == brute
        sizes.add(len(tree))
    assert sizes == set(range(1, 9))
    star = opt_star(11)
    assert star.subtree_nodesets() == root_subtrees_by_enumeration(star)
    assert len(star.subtree_nodesets()) == 2048


def test_support_of_example_family():
    family = forest_family(2)
    supp = support(family, Subtree(0, frozenset({0})))
    assert sorted(supp) == [0, 1]
    assert supp[0].nodes == frozenset({0})
    assert supp[1].nodes == frozenset({0})
    for sub in subtrees(family):  # a subtree always supports itself
        assert sub.tree_index in support(family, sub)


def test_support_matches_brute_force():
    rng = random.Random(9)
    for _ in range(80):
        forest = random_forest(rng, max_trees=2, max_nodes=3)
        for sub in subtrees(forest):
            greedy = support(forest, sub)
            brute = support_by_enumeration(forest, subtree_vars(forest, sub))
            assert sorted(greedy) == sorted(brute)
            for i, witness in greedy.items():
                assert brute[i] == [witness.nodes]  # unique witness, NR form


def test_children_assignments_of_example_family():
    family = forest_family(2)
    sub = Subtree(0, frozenset({0}))
    cas = children_assignments(family, sub)
    assert len(cas) == 5
    d1 = ChildrenAssignment(((0, 1), (1, 1)))
    d2 = ChildrenAssignment(((0, 2), (1, 1)))
    d3 = ChildrenAssignment(((0, 1),))
    assert is_valid_assignment(family, sub, d1)
    assert is_valid_assignment(family, sub, d2)
    assert not is_valid_assignment(family, sub, d3)
    assert set(associated_tgraphs(family, sub)) == {
        assignment_tgraph(family, sub, d1),
        assignment_tgraph(family, sub, d2),
    }


def test_associated_merges_each_assignment_once(monkeypatch):
    """Per subtree, the support is found once and each assignment tried
    gets one merged t-graph, which the validity test and the set share."""
    import wdsparql.trees as trees

    family = forest_family(2, with_third_tree=True)
    tried = {sub: len(children_assignments(family, sub)) for sub in subtrees(family)}
    merged, found = [], []

    def counted_merge(forest, sub, ca):
        merged.append(sub)
        return assignment_tgraph(forest, sub, ca)

    def counted_support(forest, sub):
        found.append(sub)
        return support(forest, sub)

    monkeypatch.setattr(trees, "assignment_tgraph", counted_merge)
    monkeypatch.setattr(trees, "support", counted_support)
    members = 0
    for sub in subtrees(family):
        members += len(associated_tgraphs(family, sub))
        assert merged.count(sub) == tried[sub] and found.count(sub) == 1
    assert members >= 2 and sum(tried.values()) > members


def test_assignments_outside_the_support_are_refused():
    family = forest_family(2)
    sub = Subtree(0, frozenset({0}))
    for choices in (((2, 1),), ((-1, 1),), ((0, 0),)):
        with pytest.raises(ValueError):
            assignment_tgraph(family, sub, ChildrenAssignment(choices))
    with pytest.raises(ValueError):
        is_valid_assignment(family, sub, ChildrenAssignment(((2, 1),)))


def test_invalid_subtree_handles_are_refused():
    """A node set that is not a root subtree, a node the tree lacks and an
    unknown tree index are refused with ValueError by every function that
    takes a handle, not answered as an empty support or set."""
    family = forest_family(2)
    d1 = ChildrenAssignment(((0, 1), (1, 1)))
    calls = (
        lambda sub: support(family, sub),
        lambda sub: subtree_vars(family, sub),
        lambda sub: children_assignments(family, sub),
        lambda sub: associated_tgraphs(family, sub),
        lambda sub: associated_with_provenance(family, sub),
        lambda sub: assignment_tgraph(family, sub, d1),
        lambda sub: is_valid_assignment(family, sub, d1),
    )
    for tree_index, nodes in ((0, {1}), (0, {0, 5}), (7, {0})):
        sub = Subtree(tree_index, frozenset(nodes))
        for call in calls:
            with pytest.raises(ValueError):
                call(sub)
    for nodes in ({1}, {99}):
        with pytest.raises(ValueError):
            family.trees[0].child_tgraphs(frozenset(nodes))
    assert sorted(support(family, Subtree(0, frozenset({0})))) == [0, 1]  # a valid handle


def test_child_tests_refuse_a_variable_set_naming_no_subtree():
    """`child_tests` takes a variable set, and one that names no root
    subtree of the tree is refused with ValueError, before anything is
    cored."""
    tree = forest_family(2).trees[0]
    x, y, z = var("x"), var("y"), var("z")
    for variables in (frozenset(), frozenset({x}), frozenset({x, y, var("w")})):
        with pytest.raises(ValueError):
            tree.child_tests(variables)
    assert tree.subtree_of(frozenset({x, y})).tests == []  # nothing compiled
    tests = list(tree.child_tests(frozenset({x, y, z})))
    assert [g for g, _ in tests] == [g for g, _ in tree.child_tests(frozenset({x, y, z}))]
    assert all(len(plan.order) == len(g.free_vars()) for g, plan in tests)


def test_a_variable_set_with_a_foreign_variable_misses_without_a_walk(monkeypatch):
    """`subtree_of` refuses a set holding a variable the tree lacks before
    it walks a node; a set of the tree's own variables is walked, and a
    miss of either kind is not kept."""
    tree = forest_family(2).trees[0]
    walked = []
    children = tree.children

    def counted(n):
        walked.append(n)
        return children(n)

    monkeypatch.setattr(tree, "children", counted)
    x, y, z = var("x"), var("y"), var("z")
    assert tree.subtree_of(frozenset({x, y, var("w")})) is None
    assert tree.subtree_of(frozenset({x, y, z, var("o1"), var("zz")})) is None
    assert walked == []
    assert tree.subtree_of(frozenset({x, y, var("o1")})) is None  # o1 needs o2
    assert walked
    assert tree.subtree_of(frozenset({x, y, z})).nodes == {0, 1}
    assert set(tree._subtrees) == {frozenset({x, y, z})}


def chain(n):
    """An n-node path: node i holds (?xi-1, p, ?xi) under node i-1."""
    labels = {i: TGraph((Triple(var(f"x{i}"), iri("p"), var(f"x{i + 1}")),)) for i in range(n)}
    return WdPT(0, {i: i - 1 for i in range(1, n)}, labels)


def test_doubling_the_nodes_at_most_doubles_the_pattern_time():
    """A tree's pattern is built in one pass: on a path of 8,000 nodes it
    costs at most 3 times that of 4,000 (a build that copies the tuple per
    node costs 4 times), in the median over seven pairs of runs, each pair
    back to back and with the cyclic garbage collector off (see the
    nesting-depth test of test_patterns.py).  The t-graph sorts its
    triples, so the one pass reads about 2.2 times."""
    small, large = chain(4000), chain(8000)

    def seconds(tree):
        gc.collect()
        gc.disable()
        try:
            t0 = perf_counter()
            for _ in range(5):
                tree.pat()
            return perf_counter() - t0
        finally:
            gc.enable()

    assert len(large.pat()) == 8000
    ratios = [seconds(large) / seconds(small) for _ in range(7)]
    assert statistics.median(ratios) <= 3, ratios


def test_assignment_fresh_variables_are_disjoint():
    family = forest_family(3)
    sub = Subtree(0, frozenset({0}))
    merged = assignment_tgraph(family, sub, ChildrenAssignment(((0, 2), (1, 1))))
    fresh = merged.tgraph.vars() - subtree_vars(family, sub)
    by_index = {}
    for v in fresh:
        _, idx, _ = v.name.rsplit("#", 2)
        by_index.setdefault(idx, set()).add(v)
    assert set(by_index) == {"0", "1"}


def test_subtree_pattern_is_contained_in_merged_graph():
    family = forest_family(3)
    for sub in subtrees(family):
        for ca in children_assignments(family, sub):
            merged = assignment_tgraph(family, sub, ca)
            for t in family.trees[sub.tree_index].pat(sub.nodes):
                assert t in merged.tgraph


def test_empty_gtg_when_no_children():
    family = forest_family(2)
    sub = Subtree(1, frozenset({0, 1}))  # the whole second tree
    assert children_assignments(family, sub) == ()
    assert associated_tgraphs(family, sub) == ()


def test_gtg_three_tree_family_matches_worked_example():
    family = forest_family(3, with_third_tree=True)
    sub = Subtree(0, frozenset({0, 1}))
    supp = support(family, sub)
    assert sorted(supp) == [0, 2]
    gset = associated_tgraphs(family, sub)
    assert len(gset) == 1
    # coincides, up to renaming, with the collapsing treewidth example
    reference = GeneralizedTGraph(collapsing_tgraph(3), XYZ)
    assert find_homomorphism(gset[0], reference) is not None
    assert find_homomorphism(reference, gset[0]) is not None
    assert associated_tgraphs(family, Subtree(2, frozenset({0}))) == gset


def test_forest_evaluation_equivalence_with_pattern():
    rng = random.Random(3)
    for _ in range(100):
        forest = random_forest(rng)
        graph = random_rdf_graph(rng)
        pattern = forest_pattern(forest)
        naive = eval_naive(pattern, graph)
        translated = to_forest(pattern)
        for mu in naive:
            assert eval_forest_by_enumeration(translated, graph, mu)


def test_render_forest_layout():
    text = render_forest(forest_family(2))
    assert "---" in text
    assert text.splitlines()[0].startswith("n0: {")
    assert any(line.startswith("  n1: {") for line in text.splitlines())
