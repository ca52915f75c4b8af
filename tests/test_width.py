import random

import pytest

from fixtures import clique_block, forest_family, opt_star, two_node_clique_tree
from oracles import hom_exists
from wdsparql.errors import InstanceTooLarge
from wdsparql.hom import GeneralizedTGraph, ctw, find_homomorphism
from wdsparql.randgen import random_forest, random_tree
from wdsparql.terms import TGraph, Triple, iri, parse_graph, substitute, var
from wdsparql.trees import (
    HomCache,
    Subtree,
    WdPF,
    WdPT,
    associated_tgraphs,
    subtrees,
)
from wdsparql.width import (
    branch_treewidth,
    domination_width,
    find_hard_witness,
    is_k_dominated,
    local_tractability_width,
    width_report,
)


def test_branch_treewidth_of_clique_family():
    for k in (2, 3, 4, 5):
        assert branch_treewidth(two_node_clique_tree(k)) == 1


def test_branch_treewidth_single_node():
    assert branch_treewidth(WdPT(0, {}, {0: parse_graph("?x p ?y")})) == 1


def test_branch_treewidth_of_rigid_clique_child():
    # a child clique with no collapse target keeps its full width
    for k in (3, 4, 5):
        block, vs = clique_block(k)
        tree = WdPT(
            0,
            {1: 0},
            {
                0: parse_graph("?y s ?y"),
                1: TGraph(tuple([Triple(var("y"), iri("r"), vs[0])] + block)),
            },
        )
        assert branch_treewidth(tree) == k - 1


def test_local_width_of_clique_family():
    for k in (3, 4, 5):
        assert local_tractability_width(WdPF((two_node_clique_tree(k),))) == k - 1
    single = WdPF((WdPT(0, {}, {0: parse_graph("?x p ?y")}),))
    assert local_tractability_width(single) == 1


def test_local_width_of_worked_forest():
    for k in (2, 3, 4):
        family = forest_family(k, with_third_tree=True)
        assert local_tractability_width(family) == max(k - 1, 1)
        assert domination_width(family) == 1  # local width spikes, dw stays low


def test_is_k_dominated():
    family = forest_family(3)
    gset = associated_tgraphs(family, Subtree(0, frozenset({0})))
    assert len(gset) == 2
    widths = sorted(ctw(g) for g in gset)
    assert widths == [1, 2]
    assert is_k_dominated(gset, 1)
    assert is_k_dominated((), 0)  # vacuous
    assert not is_k_dominated(gset, 0)


def clique_member(rng):
    """A generalized t-graph over the distinguished ?x: up to two cliques
    (`clique_block`) hanging off ?x under p and q, of four variables in
    all, each clique sometimes with a loop on its last variable, which
    folds it."""
    x = var("x")
    triples = []
    room = 4
    for pred, prefix in ((iri("p"), "o"), (iri("q"), "u")):
        m = rng.randint(0, room)
        if m:
            block, vs = clique_block(m, prefix)
            triples += [Triple(x, pred, vs[0])] + block
            if rng.random() < 0.3:
                triples.append(Triple(vs[-1], iri("r"), vs[-1]))
            room -= m
    if not triples:
        triples.append(Triple(x, iri("p"), var("o1")))
    return GeneralizedTGraph(TGraph(tuple(triples)), frozenset({x}))


def test_is_k_dominated_matches_the_definition():
    # the definition read literally: the members of ctw <= k, each tested
    # with the brute-force oracle against every member of larger ctw
    from oracles import hom_exists

    rng = random.Random(131)
    tops, outcomes = set(), set()
    for _ in range(40):
        gset = [clique_member(rng) for _ in range(rng.randint(2, 5))]
        widths = [ctw(g) for g in gset]
        for k in range(max(widths) + 1):
            low = [d for d, w in zip(gset, widths) if w <= k]
            expected = all(
                w <= k or any(hom_exists(d, g) for d in low) for g, w in zip(gset, widths)
            )
            assert is_k_dominated(gset, k) == expected, (k, [str(g) for g in gset])
            # dominated below the largest ctw, or not dominated past 1
            if 1 <= k < max(widths):
                outcomes.add(expected)
        tops.add(max(widths))
    assert tops == {1, 2, 3} and outcomes == {True, False}


def test_domination_width_of_two_tree_family():
    for k in (2, 3, 4):
        assert domination_width(forest_family(k)) == max(k - 1, 1)


def test_domination_equals_branch_width_on_single_trees():
    rng = random.Random(101)
    for _ in range(60):
        tree = random_tree(rng, max_nodes=4)
        forest = WdPF((tree,))
        assert domination_width(forest) == branch_treewidth(tree)


def test_union_free_members_bounded_by_branch_width():
    rng = random.Random(103)
    for _ in range(60):
        tree = random_tree(rng, max_nodes=4)
        forest = WdPF((tree,))
        bound = branch_treewidth(tree)
        for sub in subtrees(forest):
            for g in associated_tgraphs(forest, sub):
                assert ctw(g) <= bound


def test_widths_invariant_under_renaming_and_reordering():
    rng = random.Random(107)
    for _ in range(25):
        forest = random_forest(rng, max_trees=2, max_nodes=3)
        renaming = {v: var(v.name + "R") for v in forest.vars()}

        def rename_tree(tree):
            return WdPT(
                tree.root,
                dict(tree.parents),
                {
                    n: TGraph(tuple(substitute(t, renaming) for t in tree.label(n)))
                    for n in tree.nodes
                },
            )

        renamed = WdPF(tuple(rename_tree(t) for t in forest.trees))
        reordered = WdPF(tuple(reversed(forest.trees)))
        assert domination_width(renamed) == domination_width(forest)
        assert domination_width(reordered) == domination_width(forest)
        assert local_tractability_width(renamed) == local_tractability_width(forest)


def test_width_caps():
    rng = random.Random(109)
    big = WdPF(tuple(random_tree(rng, max_nodes=2) for _ in range(5)))
    with pytest.raises(InstanceTooLarge):
        domination_width(big)


def test_width_report_consistency():
    family = forest_family(3)
    for measure in ("bw", "local", "dw"):
        report = width_report(family, measure)
        assert report.value == max((v for _, v in report.breakdown), default=1)
    assert width_report(family, "dw").value == 2


def test_find_hard_witness_on_family():
    for k in (3, 4):
        family = forest_family(k)
        witness = find_hard_witness(family, k - 1)
        assert witness is not None
        assert witness.subtree == Subtree(0, frozenset({0, 1}))
        assert ctw(witness.tgraph) == k - 1
        # maximality against the full associated set, re-checked here
        for g in associated_tgraphs(family, witness.subtree):
            if find_homomorphism(g, witness.tgraph) is not None:
                assert find_homomorphism(witness.tgraph, g) is not None
        assert find_hard_witness(family, k) is None  # dw is exactly k-1


def test_the_analysis_plans_each_probe_once_and_tests_each_pair_once(monkeypatch):
    """On the four forest_family fixtures, the width and the witness plan
    each residual the forest's one HomCache interns at most once per pinned
    set, and never a record's pattern, the omitted-tree probe: it is over
    the distinguished variables alone, so its residual is empty.  Every
    homomorphism test of the width layer is a miss of that cache: one
    search (`HomCache._search`) runs per pair the cache keeps."""
    import wdsparql.hom as hom
    import wdsparql.trees as trees

    planned, searched = [], []
    plan, run = hom.Plan, trees.HomCache._search

    def counted_plan(source, pinned=()):
        planned.append((source, frozenset(pinned)))
        return plan(source, pinned)

    def counted_run(self, a, b):
        searched.append((a, b))
        return run(self, a, b)

    monkeypatch.setattr(hom, "Plan", counted_plan)
    monkeypatch.setattr(trees.HomCache, "_search", counted_run)
    probed = 0
    for k in (2, 3):
        for third in (False, True):
            forest = forest_family(k, with_third_tree=third)
            del planned[:], searched[:]
            assert find_hard_witness(forest, domination_width(forest)) is not None
            for tree in forest:
                for rec in tree._subtrees.values():
                    assert not any(source is rec.pat for source, _ in planned)
            residuals = forest.homs._residuals.values()
            assert TGraph(()) in residuals  # the probes'
            for residual in residuals:
                uses = [pins for source, pins in planned if source is residual]
                assert len(uses) == len(set(uses))
                probed += len(uses)
            assert searched and len(searched) == len(forest.homs._seen)
    assert probed >= 4, probed


def test_residual_search_matches_the_oracle(monkeypatch):
    """`HomCache.maps` looks up a source's triples over X alone in the
    target and searches its residual only.  On members that share a
    residual but differ in their part over X, into each other, into targets
    that lack one triple of that part and into random targets, it equals
    the brute-force oracle; the cache interns the shared residual once and
    compiles one plan for it."""
    import wdsparql.hom as hom

    planned = []
    plan = hom.Plan

    def counted(source, pinned=()):
        planned.append(source)
        return plan(source, pinned)

    monkeypatch.setattr(hom, "Plan", counted)
    rng = random.Random(139)
    xs = (var("x"), var("y"), var("z"))
    dist = frozenset(xs)
    preds = (iri("p"), iri("q"))
    base = [Triple(xs[0], preds[0], xs[1]), Triple(xs[1], preds[0], xs[2])]

    def x_part():
        # at least one triple over X besides `base`, which all members share
        return base + [
            Triple(rng.choice(xs + (iri("a"),)), preds[1], rng.choice(xs))
            for _ in range(rng.randint(1, 3))
        ]

    def triples_over(pool, n):
        return [Triple(rng.choice(pool), rng.choice(preds), rng.choice(pool)) for _ in range(n)]

    lacking = found = 0
    for _ in range(60):
        cache = HomCache()
        del planned[:]
        free = (var("u0"), var("u1"), var("u2"))
        residual = [
            Triple(rng.choice(xs + free), rng.choice(preds), rng.choice(free))
            for _ in range(rng.randint(1, 3))
        ]
        members = [GeneralizedTGraph(TGraph(tuple(x_part() + residual)), dist) for _ in range(3)]
        targets = list(members)
        for a in members:
            extra = [t for t in a.tgraph if t.vars() <= dist and t not in base]
            t = rng.choice(extra)
            targets.append(GeneralizedTGraph(TGraph(tuple(u for u in a.tgraph if u != t)), dist))
        pool = xs + (var("w0"), var("w1"))
        targets.append(GeneralizedTGraph(TGraph(tuple(x_part() + triples_over(pool, 4))), dist))
        for a in members:
            for b in targets:
                mapped = cache.maps(a, b)
                assert mapped == hom_exists(a, b)
                found += mapped
        lacking += sum(not cache.maps(a, b) for a, b in zip(members, targets[3:6]))
        assert len(cache._residuals) == 1 and len(planned) == 1
    assert lacking == 180 and found >= 150, (lacking, found)


def test_the_two_tree_star_shares_its_residual_plans(monkeypatch):
    """A star (root (?x, p, ?r), eleven children (?x, q, ?ai), (?ai, q, ?bi))
    beside a tree whose one child hangs a loop off ?x, with the variable
    cap lifted: 2,048 subtrees, whose merged t-graphs differ in their part
    over the subtree's variables and share a few residuals.  The analysis
    compiles at most 50 plans (one per merged t-graph searched, 11,255,
    when each was planned whole), reads dw 1, and finds the same witness."""
    import wdsparql.hom as hom
    import wdsparql.trees as trees

    planned = []
    plan = hom.Plan

    def counted(source, pinned=()):
        planned.append(source)
        return plan(source, pinned)

    monkeypatch.setattr(hom, "Plan", counted)
    monkeypatch.setattr(trees, "MAX_VARS_PER_MEMBER", 40)
    loop = WdPT(0, {1: 0}, {0: parse_graph("?x p ?r"), 1: parse_graph("?x q ?c\n?c q ?c")})
    forest = WdPF((opt_star(11), loop))
    assert domination_width(forest) == 1
    witness = find_hard_witness(forest, 1)
    assert witness.subtree == Subtree(0, frozenset({0}))
    assert witness.assignment.choices == ((0, 1), (1, 1))
    assert witness.tgraph.dist == {var("x"), var("r")}
    assert [str(t) for t in witness.tgraph.tgraph] == [
        "?a1#0#1 q ?b1#0#1",
        "?c#1#1 q ?c#1#1",
        "?x p ?r",
        "?x q ?a1#0#1",
        "?x q ?c#1#1",
    ]
    assert find_hard_witness(forest, 2) is None
    assert len(planned) <= 50, len(planned)


def test_find_hard_witness_iff_width_reaches_k():
    rng = random.Random(113)
    for _ in range(40):
        forest = random_forest(rng, max_trees=2, max_nodes=3)
        width = domination_width(forest)
        for k in range(2, width + 2):
            witness = find_hard_witness(forest, k)
            assert (witness is not None) == (width >= k)
        # k = 1 is special: dw >= 1 holds even for forests whose every
        # associated set is empty, where nothing can be returned; a witness
        # exists exactly when some set is non-empty
        some_members = any(
            associated_tgraphs(forest, sub) for sub in subtrees(forest)
        )
        assert (find_hard_witness(forest, 1) is not None) == some_members


def test_domination_width_matches_definition_level_oracle():
    # recompute dw straight from the definition: every children assignment,
    # validity and domination via brute-force homomorphism enumeration, and
    # no deduplication of the associated sets
    from oracles import hom_exists
    from wdsparql.hom import GeneralizedTGraph
    from wdsparql.trees import children_assignments, support

    def oracle_dw(forest):
        sets = []
        for sub in subtrees(forest):
            supp = support(forest, sub)
            members = []
            for ca in children_assignments(forest, sub):
                from wdsparql.trees import assignment_tgraph

                merged = assignment_tgraph(forest, sub, ca)
                valid = all(
                    not hom_exists(
                        GeneralizedTGraph(forest.trees[i].pat(supp[i].nodes), merged.dist),
                        merged,
                    )
                    for i in set(supp) - ca.domain
                )
                if valid:
                    members.append(merged)
            sets.append(members)
        k = 1
        while True:
            if all(
                all(
                    any(hom_exists(d, g) for d in ms if ctw(d) <= k)
                    for g in ms
                    if ctw(g) > k
                )
                for ms in sets
            ):
                return k
            k += 1

    rng = random.Random(127)
    for _ in range(30):
        forest = random_forest(rng, max_trees=2, max_nodes=3)
        assert domination_width(forest) == oracle_dw(forest)
    assert oracle_dw(forest_family(3)) == 2
