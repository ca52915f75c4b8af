import gc
import random
import weakref

import pytest

from fixtures import forest_family, two_node_clique_tree
from oracles import (
    duplicator_wins_game,
    eval_forest_by_enumeration,
    eval_naive_by_nested_loops,
    eval_tree_by_subtree_enumeration,
    hom_into_graph_exists,
    matched_subtree_by_enumeration,
)
from wdsparql.errors import InstanceTooLarge, InvalidK, NonGroundGraph
from wdsparql.evaluator import (
    SolutionSet,
    enumerate_solutions,
    eval_forest,
    eval_naive,
    eval_pebble,
    matched_subtree,
)
from wdsparql.hom import GeneralizedTGraph, core, find_homomorphism
from wdsparql.patterns import (
    AND,
    OPT,
    UNION,
    Leaf,
    Node,
    is_well_designed,
    parse_pattern,
    serialize_pattern,
)
from wdsparql.pebble import pebble_wins
from wdsparql.randgen import (
    IRIS,
    PREDICATES,
    random_candidate_mapping,
    random_forest,
    random_rdf_graph,
    random_tree,
    random_wd_pattern,
)
from wdsparql.terms import Mapping, TGraph, Triple, iri, parse_graph, substitute, var
from wdsparql.trees import WdPF, WdPT, forest_pattern, to_forest
from wdsparql.width import MAX_TREES, domination_width


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


def test_forest_evaluators_check_their_inputs_in_one_order():
    """eval_pebble's k first, then the graph's groundness, in every
    evaluator: `eval_naive` and the three forest evaluators share the one
    groundness check."""
    forest = to_forest(parse_pattern("((?x,p,?y) OPT (?y,q,?z))"))
    graph, mu = parse_graph("a p ?v"), m(x="a", y="b")
    with pytest.raises(InvalidK):
        eval_pebble(forest, graph, mu, 0)
    for evaluate in (
        lambda: eval_naive(forest_pattern(forest), graph),
        lambda: eval_forest(forest, graph, mu),
        lambda: eval_pebble(forest, graph, mu, 1),
        lambda: enumerate_solutions(forest, graph),
    ):
        with pytest.raises(NonGroundGraph, match="evaluation target must be a ground RDF graph"):
            evaluate()


def test_clique_family_membership():
    tree = two_node_clique_tree(3)
    forest = WdPF((tree,))
    graph = parse_graph("a r a")
    short = m(y="a")
    full = m(y="a", o1="a", o2="a", o3="a")
    assert not eval_forest(forest, graph, short)  # the child still extends
    assert eval_forest(forest, graph, full)
    assert list(enumerate_solutions(forest, graph)) == [full]


def test_single_node_tree_without_children():
    forest = WdPF((WdPT(0, {}, {0: parse_graph("?x p ?y")}),))
    assert eval_forest(forest, parse_graph("a p b"), m(x="a", y="b"))
    assert not eval_forest(forest, parse_graph("a p b"), m(x="a", y="c"))
    assert not eval_forest(forest, parse_graph("a p b"), m(x="a"))


def test_enumeration_cap(monkeypatch):
    """Both modes share one cap on mappings: lemma1 counts its pending
    states plus its solutions, checked whenever either grows."""
    import wdsparql.evaluator as evaluator

    p = parse_pattern("((?x, p, ?y) OPT (?z, p, ?w))")
    graph = parse_graph("a p b\nb p c")
    monkeypatch.setattr(evaluator, "MAX_MAPPINGS", 4)
    assert len(enumerate_solutions(to_forest(p), graph)) == 4  # at the cap
    monkeypatch.setattr(evaluator, "MAX_MAPPINGS", 3)
    errors = []
    for run in (lambda: eval_naive(p, graph), lambda: enumerate_solutions(to_forest(p), graph)):
        with pytest.raises(InstanceTooLarge) as caught:
            run()
        errors.append(str(caught.value))
    assert errors[0] == errors[1]
    # it stops within the cap plus one node's extensions, as the join does,
    # also where extensions nest before the first solution is found
    deep = parse_pattern("((?x, p, ?y) OPT ((?z, p, ?w) OPT (?u, p, ?v)))")
    wide = parse_graph("".join(f"s{i} p o{i}\n" for i in range(60)))
    sizes = []
    check = evaluator._check_size
    monkeypatch.setattr(evaluator, "_check_size", lambda n: (sizes.append(n), check(n)))
    monkeypatch.setattr(evaluator, "MAX_MAPPINGS", 100)
    with pytest.raises(InstanceTooLarge):
        enumerate_solutions(to_forest(deep), wide)
    assert 100 < max(sizes) <= 100 + 60


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
    # the rows path (what both evaluators hand over) and the mappings path
    # agree; the rows repeat some answers and mix three domains
    answers = [m(x="b", y="c"), m(x="a"), m(y="a", z="b"), m(x="a", y="c"), m(x="b")]
    rows = [dict(mu.items()) for mu in answers + answers[::2]]
    from_rows = SolutionSet._of_rows(rows)
    from_mappings = SolutionSet(tuple(answers[::-1]))
    canonical = [m(x="a"), m(x="b"), m(x="a", y="c"), m(x="b", y="c"), m(y="a", z="b")]
    assert list(from_rows) == list(from_mappings) == canonical
    assert len(from_rows) == len(from_mappings) == 5
    assert from_rows == from_mappings and hash(from_rows) == hash(from_mappings)
    assert repr(from_rows) == repr(from_mappings) == f"SolutionSet(mappings={tuple(canonical)!r})"
    assert str(from_rows) == str(from_mappings) == "\n".join(map(str, canonical))
    assert from_rows != SolutionSet(canonical[:4]) and from_rows != canonical
    for ss in (from_rows, from_mappings):
        assert all(mu in ss for mu in answers)  # duplicates and mixed domains
        # the same values under another variable miss
        assert m(z="a") not in ss and m(x="a", z="c") not in ss and m(y="b", z="a") not in ss
        assert m(x="c") not in ss and m(x="a", y="b") not in ss and "x" not in ss
        # the mappings are made once and kept
        assert ss.mappings is ss.mappings
    assert SolutionSet() == SolutionSet._of_rows([]) and not SolutionSet()
    assert str(SolutionSet._of_rows([{}, {}])) == "{}" and Mapping() in SolutionSet._of_rows([{}])


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
    """The lookup by domain (`WdPT.subtree_of`) and its image check
    against every subtree, on mappings built from a random subtree's image,
    some with a variable dropped, one added, or the variables of a node
    outside the subtree added.  Each trial draws a fresh tree, so each
    lookup walks the tree; table hits are tested below."""
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


def test_matched_subtree_table_hits_match_enumeration():
    """One tree, hundreds of mappings over a few domains, several graphs:
    after the first lookup of a domain each call hits the tree's table of
    subtrees, and must still ask the graph for the image.  The table keeps
    only domains that name a subtree, at most one entry per subtree."""
    rng = random.Random(29)
    tree = random_tree(rng, max_nodes=6)
    while len(tree.subtree_nodesets()) < 5:
        tree = random_tree(rng, max_nodes=6)
    nodesets = tree.subtree_nodesets()
    named = {tree.vars(ns) for ns in nodesets}
    subtree_domains = [tree.vars(ns) for ns in rng.sample(nodesets, 4)]
    order = sorted(tree.vars(), key=str)
    # past the root, so the walk runs before it finds no subtree
    below = sorted(tree.vars() - tree.node_vars(tree.root), key=str)
    dropped = [d - {x} for d in subtree_domains for x in below if x in d and d - {x} not in named]
    other_domains = [dropped[0], subtree_domains[0] | {var("extra")}]
    outcomes = {d: set() for d in subtree_domains}
    graphs = []
    for _ in range(4):
        images = [{v: rng.choice(IRIS[:3]) for v in order} for _ in range(2)]
        planted = TGraph(tuple(substitute(t, image) for image in images for t in tree.pat()))
        graphs.append((random_rdf_graph(rng, max_iris=3, max_triples=3) | planted, images))
    for _ in range(600):
        graph, images = rng.choice(graphs)
        domain = rng.choice(subtree_domains + other_domains)
        image = rng.choice(images)
        mu = Mapping.of(
            {v: image.get(v, IRIS[0]) if rng.random() < 0.85 else rng.choice(IRIS[:3]) for v in domain}
        )
        found = matched_subtree(tree, graph, mu)
        assert found == matched_subtree_by_enumeration(tree, graph, mu)
        if domain in outcomes:
            outcomes[domain].add(found is None)
    assert all(seen == {True, False} for seen in outcomes.values()), outcomes
    assert set(tree._subtrees) == set(subtree_domains)
    assert len(tree._subtrees) <= len(nodesets)
    assert not any(d in tree._subtrees for d in other_domains)


# ---------------------------------------------------------------------------
# the hash join and the top-down enumeration against the oracles


def random_pattern(rng, depth):
    """An AND/OPT/UNION pattern over five variables, well designed or not,
    with UNION anywhere, so one operand of a join may hold mappings of
    several domains."""
    if depth == 0 or rng.random() < 0.2:
        pool = [var(x) for x in "abcde"] + list(IRIS[:2])
        return Leaf(Triple(rng.choice(pool), rng.choice(PREDICATES[:2]), rng.choice(pool)))
    op = rng.choice((AND, OPT, UNION))
    return Node(op, random_pattern(rng, depth - 1), random_pattern(rng, depth - 1))


def joins_over_a_union(p) -> bool:
    """Some AND or OPT has a UNION inside one of its operands."""
    if isinstance(p, Leaf):
        return False
    if p.op != UNION and any(isinstance(q, Node) and q.op == UNION for q in (p.left, p.right)):
        return True
    return joins_over_a_union(p.left) or joins_over_a_union(p.right)


def test_hash_join_matches_nested_loops():
    rng = random.Random(131)
    mixed = not_wd = answered = 0
    for _ in range(300):
        p = random_pattern(rng, rng.randint(1, 4))
        graph = random_rdf_graph(rng, max_iris=3, max_triples=8)
        graph = graph | TGraph(tuple(Triple(a, PREDICATES[0], b) for a in IRIS[:2] for b in IRIS[:2]))
        got = eval_naive(p, graph)
        assert set(got) == eval_naive_by_nested_loops(p, graph)
        answered += bool(got)
        not_wd += not is_well_designed(p)
        mixed += joins_over_a_union(p) and len({mu.domain for mu in got}) > 1
    assert answered >= 150 and not_wd >= 60 and mixed >= 30, (answered, not_wd, mixed)


def test_both_evaluators_print_the_canonical_bytes():
    """`str` of either evaluator's answers is the nested-loop oracle's
    answers, each printed as a `Mapping`, one per line, sorted by their
    domain's names, then their values' names: the eval-all output of both
    modes.  The patterns hold UNION and OPT, so domains mix, and on some
    of them the printed lines sorted as text come in another order."""
    rng = random.Random(181)
    mixed = differs = 0
    for _ in range(200):
        p = random_wd_pattern(rng, max_trees=3, max_nodes=4)
        graph = random_rdf_graph(rng, max_iris=4, max_triples=12)
        answers = eval_naive_by_nested_loops(p, graph)
        ordered = sorted(
            answers, key=lambda mu: ([k.name for k, _ in mu.items()], [v.name for _, v in mu.items()])
        )
        lines = [str(mu) for mu in ordered]
        assert str(eval_naive(p, graph)) == "\n".join(lines), serialize_pattern(p)
        assert str(enumerate_solutions(to_forest(p), graph)) == "\n".join(lines), serialize_pattern(p)
        mixed += len({mu.domain for mu in answers}) > 1
        differs += sorted(lines) != lines
    assert mixed >= 30 and differs >= 5, (mixed, differs)


def opt_count(p) -> int:
    return 0 if isinstance(p, Leaf) else (p.op == OPT) + opt_count(p.left) + opt_count(p.right)


def test_forest_answers_equal_the_naive_ones_on_covered_blocks():
    """On random well-designed patterns, many with an OPT block whose
    variables its parent block covers (which `to_forest` drops): the
    forest's solutions are the naive answers, and `eval_forest` accepts
    each answer and decides each of its restrictions by one binding less
    as the naive answers do."""
    rng = random.Random(149)
    dropped = checked = 0
    for _ in range(600):
        p = random_pattern(rng, rng.randint(1, 4))
        if not is_well_designed(p):
            continue
        forest = to_forest(p)
        dropped += opt_count(p) + len(forest) > sum(map(len, forest))
        graph = random_rdf_graph(rng, max_iris=3, max_triples=8)
        answers = eval_naive(p, graph)
        assert enumerate_solutions(forest, graph) == answers, serialize_pattern(p)
        for mu in answers:
            assert eval_forest(forest, graph, mu)
            bindings = mu.bindings
            for cut in range(len(bindings)):
                part = Mapping(bindings[:cut] + bindings[cut + 1 :])
                assert eval_forest(forest, graph, part) is (part in answers)
                checked += 1
    assert dropped >= 30 and checked >= 300, (dropped, checked)


def test_join_cap(monkeypatch):
    import wdsparql.evaluator as evaluator

    p = parse_pattern("((?x, p, ?y) OPT (?z, p, ?w))")
    graph = parse_graph("a p b\nb p c")
    monkeypatch.setattr(evaluator, "MAX_MAPPINGS", 4)
    assert len(eval_naive(p, graph)) == 4  # at the cap
    monkeypatch.setattr(evaluator, "MAX_MAPPINGS", 3)
    with pytest.raises(InstanceTooLarge):
        eval_naive(p, graph)
    monkeypatch.setattr(evaluator, "MAX_MAPPINGS", 1)
    with pytest.raises(InstanceTooLarge):  # a triple's matches count too
        eval_naive(parse_pattern("(?x, p, ?y)"), graph)
    # a join stops soon after it passes the cap, not once all 60 x 60 are built
    wide = parse_graph("".join(f"s{i} p o{i}\n" for i in range(60)))
    sizes = []
    check = evaluator._check_size
    monkeypatch.setattr(evaluator, "_check_size", lambda n: (sizes.append(n), check(n)))
    monkeypatch.setattr(evaluator, "MAX_MAPPINGS", 100)
    with pytest.raises(InstanceTooLarge):
        eval_naive(parse_pattern("((?x, p, ?y) AND (?z, p, ?w))"), wide)
    assert 100 < max(sizes) <= 100 + 60


def solution_subtrees(forest, graph, mu):
    """The subtrees, one per tree that accepts mu, that mu is a solution of."""
    for tree in forest:
        if eval_tree_by_subtree_enumeration(tree, graph, mu):
            yield tree, matched_subtree_by_enumeration(tree, graph, mu)


def test_enumeration_matches_the_oracles_on_deeper_forests():
    """Forests of up to six nodes a tree, over graphs holding the image of a
    random subtree: the solutions must be the nested-loop answers of the
    forest's pattern, each accepted by the subtree enumeration, and a
    random candidate is accepted iff it is a solution."""
    rng = random.Random(137)
    outcomes = {"grandchild": 0, "sibling dropped": 0}
    for _ in range(150):
        forest = random_forest(rng, max_nodes=6)
        tree = rng.choice(forest.trees)
        image = {v: rng.choice(IRIS[:3]) for v in sorted(forest.vars(), key=str)}
        planted = tree.pat(rng.choice(tree.subtree_nodesets()))
        graph = random_rdf_graph(rng, max_iris=3, max_triples=6)
        graph = graph | TGraph(tuple(substitute(t, image) for t in planted))
        sols = enumerate_solutions(forest, graph)
        assert set(sols) == eval_naive_by_nested_loops(forest_pattern(forest), graph)
        for mu in sols:
            assert eval_forest_by_enumeration(forest, graph, mu)
            for t, nodes in solution_subtrees(forest, graph, mu):
                if any(t.depth(n) >= 2 for n in nodes):
                    outcomes["grandchild"] += 1
                if any(
                    set(t.children(n)) & nodes and set(t.children(n)) - nodes for n in nodes
                ):
                    outcomes["sibling dropped"] += 1
        probe = random_candidate_mapping(rng, forest, graph)
        assert eval_forest_by_enumeration(forest, graph, probe) == (probe in sols)
    assert outcomes["grandchild"] >= 20 and outcomes["sibling dropped"] >= 20, outcomes


def test_enumeration_plans_each_node_once_and_searches_once_per_pinned_values(monkeypatch):
    """The first enumeration over a forest compiles at most one plan per
    tree node, and a second one compiles none.  Each node's plan pins the
    variables it shares with its parent, and one enumeration searches it
    once per distinct value of them, however many bindings of the other
    taken variables reach the node with that value."""
    import wdsparql.evaluator as evaluator
    import wdsparql.hom as hom

    planned, searched = [], []
    plan, find_all = hom.Plan, hom.search_all

    def counted_plan(source, pinned=()):
        planned.append(source)
        return plan(source, pinned)

    def spied_search_all(p, graph, fixed):
        searched.append((p, tuple(fixed[x] for x in p.pinned)))
        return find_all(p, graph, fixed)

    monkeypatch.setattr(hom, "Plan", counted_plan)
    monkeypatch.setattr(evaluator, "search_all", spied_search_all)

    def enumerate_twice(forest, graph):
        del planned[:], searched[:]
        first = enumerate_solutions(forest, graph)
        assert len(planned) <= sum(len(tree.nodes) for tree in forest)
        assert len(searched) == len(set(searched))
        runs = list(searched)
        del planned[:], searched[:]
        assert enumerate_solutions(forest, graph) == first
        assert not planned and searched == runs
        return runs

    # two bindings of ?y reach n1 with ?x = a, and each of them reaches n2
    # with ?z = d and with ?z = e
    forest = to_forest(parse_pattern("((?x, p, ?y) OPT ((?x, q, ?z) OPT (?z, r, ?w)))"))
    graph = parse_graph("a p b\na p c\na q d\na q e\nd r f\ne r f")
    runs = enumerate_twice(forest, graph)
    assert len(enumerate_solutions(forest, graph)) == 4
    assert len(runs) == 3 and {values for _, values in runs} == {(iri("a"),), (iri("d"),), (iri("e"),)}

    rng = random.Random(191)
    searching = 0
    for _ in range(100):
        forest = random_forest(rng, max_nodes=5)
        searching += bool(enumerate_twice(forest, random_rdf_graph(rng, max_iris=3, max_triples=20)))
    assert searching >= 25, searching


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
        for _ in range(4):
            graph, mu = planted_call(rng, forest)
            exact = eval_forest(forest, graph, mu)
            assert exact == eval_forest_by_enumeration(forest, graph, mu)
            assert eval_pebble(forest, graph, mu, dw) == exact
            for tree in forest:
                nodes = matched_subtree(tree, graph, mu)
                if nodes is None:
                    continue
                kids = tree.child_tgraphs(nodes)
                for child, (cored, _) in zip(kids, tree.child_tests(mu.domain)):
                    reached += 1
                    proper += len(cored.tgraph) < len(child.tgraph)
                    # a retract with X fixed: equivalent to the child
                    assert cored.dist == child.dist and set(cored.tgraph) <= set(child.tgraph)
                    assert find_homomorphism(child, cored) is not None
                    won = pebble_wins(cored, graph, mu, dw + 1)
                    assert won == duplicator_wins_game(child, graph, mu, dw + 1)
    assert reached >= 100 and proper >= 0.2 * reached, (reached, proper)


def wide_child_forest(rng):
    """One or two trees with root (?x, p, ?y) and up to three more nodes,
    each hanging a path of one to three fresh variables off a variable of
    its parent, plus up to two random triples: a child of three fresh
    variables that do not fold outgrows the two pebbles of k = 1."""
    count = 0
    trees = []
    for _ in range(rng.randint(1, 2)):
        labels = {0: parse_graph("?x p ?y")}
        parents = {}
        for n in range(1, rng.randint(2, 4)):
            parents[n] = rng.randrange(n)
            above = sorted(labels[parents[n]].vars(), key=str)
            fresh = [var(f"v{i}") for i in range(count, count + rng.randint(1, 3))]
            count += len(fresh)
            pool = above + fresh
            triples = [Triple(rng.choice(above), rng.choice(PREDICATES), fresh[0])]
            triples += [Triple(a, rng.choice(PREDICATES), b) for a, b in zip(fresh, fresh[1:])]
            triples += [
                Triple(rng.choice(pool), rng.choice(PREDICATES), rng.choice(pool))
                for _ in range(rng.randint(0, 2))
            ]
            labels[n] = TGraph(tuple(triples))
        trees.append(WdPT(0, parents, labels))
    return WdPF(tuple(trees))


def test_the_scan_decides_each_child_in_its_regime(monkeypatch):
    """Every child decision of eval_pebble's scan, for k = 1..3 (k + 1
    pebbles), equals the homomorphism oracle when the child's core has at
    most k + 1 free variables and the game oracle otherwise, each regime
    taken at least 20 times; and eval_pebble at k = dw agrees with exact
    evaluation and with the enumeration oracle."""
    import wdsparql.evaluator as evaluator

    decided = []
    wins = evaluator.duplicator_wins

    def spied(g, plan, graph, mu, pebbles):
        won = wins(g, plan, graph, mu, pebbles)
        decided.append((g, plan, graph, mu, pebbles, won))
        return won

    monkeypatch.setattr(evaluator, "duplicator_wins", spied)
    rng = random.Random(109)
    accepted = 0
    for _ in range(60):
        forest = wide_child_forest(rng)
        dw = domination_width(forest)
        for _ in range(3):
            graph, mu = planted_call(rng, forest)
            exact = eval_forest(forest, graph, mu)
            assert exact == eval_forest_by_enumeration(forest, graph, mu)
            assert eval_pebble(forest, graph, mu, dw) == exact
            accepted += exact
            for k in (1, 2, 3):
                eval_pebble(forest, graph, mu, k)
    searched = played = 0
    for g, plan, graph, mu, pebbles, won in decided:
        free = len(g.free_vars())
        assert len(plan.order) == free and g.dist == mu.domain
        if free <= pebbles:
            searched += 1
            assert won == hom_into_graph_exists(g, graph, mu)
        else:
            played += 1
            assert won == duplicator_wins_game(g, graph, mu, pebbles)
    assert searched >= 20 and played >= 20, (searched, played)
    assert 0 < accepted < 180


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


def test_each_child_core_is_planned_once_per_forest(monkeypatch):
    import wdsparql.evaluator as evaluator
    import wdsparql.hom as hom
    import wdsparql.pebble as pebble

    rng = random.Random(103)
    forest = with_planted_loops(rng, forest_family(2))
    dw = domination_width(forest)
    # what a child test plans: its core minus the subtree's pattern triples
    residuals = {
        TGraph(tuple(t for t in core(g).tgraph if t not in tree.record(nodes).triples))
        for tree in forest
        for nodes in tree.subtree_nodesets()
        for g in tree.child_tgraphs(nodes)
    }
    planned, searched, pebble_searched = [], [], []
    plan, find = hom.Plan, hom.search

    def counted_plan(source, pinned=()):
        built = plan(source, pinned)
        planned.append((source, frozenset(pinned), built))
        return built

    def spied_search(p, graph, fixed):
        searched.append((p, frozenset(fixed)))
        return find(p, graph, fixed)

    def pebble_spied_search(p, *args):
        pebble_searched.append(p)
        return spied_search(p, *args)

    monkeypatch.setattr(hom, "Plan", counted_plan)
    monkeypatch.setattr(evaluator, "search", spied_search)
    monkeypatch.setattr(pebble, "search", pebble_spied_search)
    calls = [planted_call(rng, forest) for _ in range(50)]
    for graph, mu in calls:
        assert eval_forest(forest, graph, mu) == eval_forest_by_enumeration(forest, graph, mu)
        assert eval_pebble(forest, graph, mu, dw) == eval_forest(forest, graph, mu)
    # one plan per kept core: each search ran a plan built here from a kept
    # core's residual, pinning its distinguished variables (mu's domain),
    # and one plan pinning them was built from that residual
    built_from = {id(b): (source, pins) for source, pins, b in planned}
    kept = {id(p): built_from[id(p)] for p, _ in searched}
    assert len(kept) >= 3
    assert {source for source, _ in kept.values()} <= residuals
    for p, domain in searched:
        assert kept[id(p)][1] == domain
    for source, pins in kept.values():
        assert sum(s is source and p == pins for s, p, _ in planned) == 1
    before = len(planned)
    for graph, mu in calls:
        eval_forest(forest, graph, mu)
        eval_pebble(forest, graph, mu, dw)
    assert len(planned) == before
    # the pebble game's homomorphism test ran on the kept cores and plans
    assert len(pebble_searched) >= 50
    assert {id(p) for p in pebble_searched} <= kept.keys()


S = iri("s")


def x_only_forest(rng):
    """One or two trees with root (?x, p, ?y) and up to three more nodes.
    Each child hangs a path of one to three fresh variables off its parent,
    and at random either adds a triple over its parent's variables alone
    (predicate s, so that a graph lacks it unless it is planted), or starts
    its path with a copy of a parent triple holding the first fresh variable
    in place of one of the parent's, so that the copy folds onto the
    original, or both.  A lone copy folds entirely into the subtree."""
    count = 0
    trees = []
    for _ in range(rng.randint(1, 2)):
        labels = {0: parse_graph("?x p ?y")}
        parents = {}
        for n in range(1, rng.randint(2, 4)):
            up = parents[n] = rng.randrange(n)
            above = sorted(labels[up].vars(), key=str)
            fresh = [var(f"v{i}") for i in range(count, count + rng.choice((1, 1, 2, 3)))]
            count += len(fresh)
            kind = rng.choice(("extra", "fold", "both"))
            if kind == "extra":
                triples = [Triple(rng.choice(above), rng.choice(PREDICATES), fresh[0])]
            else:
                t = rng.choice(labels[up].triples)
                i = rng.choice([i for i in (0, 2) if t[i].is_var])
                triples = [Triple(*(fresh[0] if j == i else u for j, u in enumerate(t)))]
            triples += [Triple(a, rng.choice(PREDICATES), b) for a, b in zip(fresh, fresh[1:])]
            if kind != "fold":
                triples.append(Triple(rng.choice(above), S, rng.choice(above)))
            labels[n] = TGraph(tuple(triples))
        trees.append(WdPT(0, parents, labels))
    return WdPF(tuple(trees))


def lacking_call(rng, forest):
    """A graph over two IRIs holding the images of a random subtree and of
    one of its children, and mu, that image on the subtree's variables; in
    half the cases the graph then lacks the image of one triple of that
    child over the subtree's variables alone, which the subtree's own
    pattern does not hold."""
    tree = rng.choice(forest.trees)
    nodes = rng.choice(tree.subtree_nodesets())
    image = {v: rng.choice(IRIS[:2]) for v in sorted(forest.vars(), key=str)}
    pattern = {substitute(t, image) for t in tree.pat(nodes)}
    graph = random_rdf_graph(rng, max_iris=2, max_triples=4) | TGraph(tuple(pattern))
    lacks = None
    kids = [c for n in sorted(nodes) for c in tree.children(n) if c not in nodes]
    if kids:
        label = tree.label(rng.choice(kids))
        graph = graph | TGraph(tuple(substitute(t, image) for t in label))
        own = [
            u
            for t in label
            if t.vars() <= tree.vars(nodes) and (u := substitute(t, image)) not in pattern
        ]
        if own and rng.random() < 0.5:
            lacks = rng.choice(own)
            graph = TGraph(tuple(u for u in graph if u != lacks))
    return graph, Mapping.of({v: image[v] for v in sorted(tree.vars(nodes), key=str)}), lacks


def eval_pebble_by_game(forest, graph, mu, k):
    """The relaxation from its definition: some tree's matched subtree (by
    enumeration) has no child t-graph on which the Duplicator wins the
    existential (k + 1)-pebble game: the literal game, or, on a child with
    at most k + 1 free variables, where the game is the homomorphism test
    (Kolaitis and Vardi 2000), the brute-force homomorphism oracle."""
    for tree in forest:
        nodes = matched_subtree_by_enumeration(tree, graph, mu)
        if nodes is None:
            continue
        pat, dist = tree.pat(nodes), tree.vars(nodes)
        kids = [c for n in sorted(nodes) for c in tree.children(n) if c not in nodes]
        children = [GeneralizedTGraph(pat | tree.label(c), dist) for c in kids]
        if not any(
            hom_into_graph_exists(g, graph, mu)
            if len(g.free_vars()) <= k + 1
            else duplicator_wins_game(g, graph, mu, k + 1)
            for g in children
        ):
            return True
    return False


def test_child_tests_check_the_childs_own_triples_over_the_subtree(monkeypatch):
    """A child test plans its core minus the subtree's pattern triples; a
    triple of the child's own label over the subtree's variables alone
    stays in its search.  On forests whose children hold such triples, or
    fold entirely into the subtree, and on graphs that lack one such
    triple, eval_forest equals the enumeration oracle, eval_pebble at
    k = 1..3 and at k = dw equals the literal game, and every child
    decision of the scan equals the homomorphism or the game oracle."""
    import wdsparql.evaluator as evaluator

    decided = []
    wins = evaluator.duplicator_wins

    def spied(g, plan, graph, mu, pebbles):
        won = wins(g, plan, graph, mu, pebbles)
        decided.append((g, graph, mu, pebbles, won))
        return won

    monkeypatch.setattr(evaluator, "duplicator_wins", spied)
    rng = random.Random(131)
    flipped = 0
    forests = [x_only_forest(rng) for _ in range(60)]
    for forest in forests:
        dw = domination_width(forest)
        for _ in range(4):
            graph, mu, lacks = lacking_call(rng, forest)
            exact = eval_forest(forest, graph, mu)
            assert exact == eval_forest_by_enumeration(forest, graph, mu)
            for k in sorted({1, 2, 3, dw}):
                assert eval_pebble(forest, graph, mu, k) == eval_pebble_by_game(forest, graph, mu, k)
            flipped += lacks is not None and exact
    searched = played = 0
    for g, graph, mu, pebbles, won in decided:
        if len(g.free_vars()) <= pebbles:
            searched += 1
            assert won == hom_into_graph_exists(g, graph, mu)
        else:
            played += 1
            assert won == duplicator_wins_game(g, graph, mu, pebbles)
    # what the scans compiled: children whose plan holds a triple over the
    # subtree's variables alone, and children that fold entirely into it
    own = folded = 0
    for tree in (tree for forest in forests for tree in forest):
        for record in tree._subtrees.values():
            for g, plan in record.tests or ():
                rest = [t for t in g.tgraph if t not in record.triples]
                own += any(t.vars() <= record.variables for t in rest)
                folded += not rest and not plan.order and not plan.first
    assert flipped >= 20 and played >= 20 and searched >= 200, (flipped, played, searched)
    assert own >= 20 and folded >= 10, (own, folded)


def test_no_child_test_plans_a_triple_of_its_record(monkeypatch):
    """Scans of the forest_family fixtures compile each child test from its
    core minus the record's pattern triples: `_decide` has found their
    images before any test runs, so no plan looks one up again."""
    import wdsparql.hom as hom

    built = {}
    plan = hom.Plan

    def counted(source, pinned=()):
        found = plan(source, pinned)
        built[id(found)] = source
        return found

    monkeypatch.setattr(hom, "Plan", counted)
    rng = random.Random(137)
    tests = 0
    for k in (2, 3):
        for third in (False, True):
            forest = forest_family(k, with_third_tree=third)
            for _ in range(40):
                graph, mu = planted_call(rng, forest)
                eval_forest(forest, graph, mu)
                eval_pebble(forest, graph, mu, 1)
            for tree in forest:
                for record in tree._subtrees.values():
                    for g, p in record.tests or ():
                        source = built[id(p)]
                        assert set(source) == set(g.tgraph) - set(record.triples)
                        tests += 1
    assert tests >= 12, tests


def test_the_cores_and_their_plans_go_with_the_tree():
    rng = random.Random(107)
    forest = with_planted_loops(rng, forest_family(2))
    for _ in range(20):
        graph, mu = planted_call(rng, forest)
        eval_forest(forest, graph, mu)
        eval_pebble(forest, graph, mu, 2)
    assert forest.analysis is None  # evaluation builds no width analysis
    records = [
        tree.subtree_of(tree.vars(nodes)) for tree in forest for nodes in tree.subtree_nodesets()
    ]
    cores = [g for record in records for g, _ in record.tests or ()]
    assert cores and any(g.tgraph.plans() for g in cores)  # cores and plans are kept
    refs = [weakref.ref(g) for g in cores] + [weakref.ref(tree) for tree in forest]
    del records, cores, forest
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_a_tree_builds_and_cores_its_children_once(monkeypatch):
    """Repeated scans of one tree, each through a new one-tree forest or
    through one forest holding it, build its child t-graphs once and core
    each child once."""
    import wdsparql.hom as hom

    tree = WdPT(
        0,
        {1: 0, 2: 0},
        {0: parse_graph("?x p ?y"), 1: parse_graph("?y q ?z"), 2: parse_graph("?y r ?w\n?w r ?w")},
    )
    cored, built = [], []
    child_tgraphs = WdPT.child_tgraphs

    def counted_core(g):
        cored.append(g)
        return core(g)

    def counted_children(self, nodes):
        built.append(nodes)
        return child_tgraphs(self, nodes)

    monkeypatch.setattr(hom, "core", counted_core)
    monkeypatch.setattr(WdPT, "child_tgraphs", counted_children)
    mu = m(x="a", y="b")
    accepts = parse_graph("a p b")  # every child is scanned and fails
    for _ in range(2):
        assert eval_forest(WdPF((tree,)), accepts, mu)
    assert len(cored) == 2 and built == [frozenset({0})]
    forest = WdPF((tree,))
    for graph, expected in ((accepts, True), (accepts | parse_graph("b r c\nc r c"), False)):
        for _ in range(2):
            assert eval_forest(forest, graph, mu) is expected
            assert eval_pebble(forest, graph, mu, 1) is expected
    assert len(cored) == 2 and len(built) == 1


def test_a_scan_that_stops_at_its_first_child_compiles_the_whole_record(monkeypatch):
    """The first child extends mu, so the scan stops there, yet the record
    then holds a test for every child; later scans, exact and relaxed,
    core nothing more."""
    import wdsparql.hom as hom

    tree = WdPT(
        0,
        {1: 0, 2: 0, 3: 0},
        {
            0: parse_graph("?x p ?y"),
            1: parse_graph("?y q ?z"),
            2: parse_graph("?y r ?w\n?w r ?w"),
            3: parse_graph("?y s ?v"),
        },
    )
    cored = []

    def counted_core(g):
        cored.append(g)
        return core(g)

    monkeypatch.setattr(hom, "core", counted_core)
    forest, graph, mu = WdPF((tree,)), parse_graph("a p b\nb q c"), m(x="a", y="b")
    assert eval_forest(forest, graph, mu) is False
    record = tree.subtree_of(mu.domain)
    children = tree.child_tgraphs(record.nodes)
    assert len(children) == 3
    assert [g for g, _ in record.tests] == [core(g) for g in children]
    assert len(cored) == 3
    for _ in range(5):
        assert eval_forest(forest, graph, mu) is False
        assert eval_pebble(forest, graph, mu, 1) is False
    assert len(cored) == 3


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
    # the root's child is reached in every tree, and cored once per forest
    (child,) = tree.child_tgraphs(frozenset({0}))
    assert cored == [child]
    for _ in range(2):
        with pytest.raises(InstanceTooLarge):
            domination_width(over_cap)
