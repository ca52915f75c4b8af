import random
from itertools import combinations

import pytest

from fixtures import forest_family
from oracles import clique_gadget_by_product, has_clique_by_edge_count, hom_exists
from wdsparql import hardness, width
from wdsparql.errors import (
    ComponentMismatch,
    InstanceTooLarge,
    InvalidMinorMap,
    ParseError,
    ReservedPrefixCollision,
    SearchTooLarge,
)
from wdsparql.evaluator import eval_forest
from wdsparql.graphs import UndirectedGraph, grid_graph
from wdsparql.hardness import (
    CliqueInstance,
    MinorMap,
    build_clique_gadget,
    find_grid_minor,
    freeze,
    generate_hard_instance,
    has_clique,
    pair_bijection,
    parse_minor_map,
    parse_undirected_graph,
    verify_minor_map,
)
from wdsparql.hom import GeneralizedTGraph, core, ctw, find_homomorphism, gaifman, maps_into_graph
from wdsparql.terms import Mapping, TGraph, iri, parse_graph, var
from wdsparql.trees import WdPF, WdPT
from wdsparql.width import Analysis, find_hard_witness


def ug(n, edges):
    return UndirectedGraph.of([f"h{i}" for i in range(n)], [(f"h{a}", f"h{b}") for a, b in edges])


def test_pair_bijection_is_lexicographic():
    assert pair_bijection(3) == (
        frozenset({1, 2}),
        frozenset({1, 3}),
        frozenset({2, 3}),
    )
    assert len(pair_bijection(5)) == 10


def test_verify_identity_minor_map():
    grid = grid_graph(2, 2)
    mm = MinorMap.of(2, 2, {v: frozenset({v}) for v in grid.vertices})
    assert verify_minor_map(mm, grid)
    # dropping ontoness must fail
    bigger = UndirectedGraph.of(
        set(grid.vertices) | {(9, 9)}, [(e0, e1) for e0, e1 in map(tuple, grid.edges)] + [((1, 1), (9, 9))]
    )
    assert not verify_minor_map(mm, bigger)


def test_single_edge_grid_embeds_in_any_connected_target():
    for edges in ([(0, 1)], [(0, 1), (1, 2)], [(0, 1), (1, 2), (0, 2)]):
        target = ug(max(max(e) for e in edges) + 1, edges)
        mm = find_grid_minor(target, 2, 1)
        assert mm is not None
        assert verify_minor_map(mm, target)


def test_grid_minor_of_subdivided_grid():
    # the 3x3 grid with one edge subdivided still contains the 3x3 grid minor
    grid = grid_graph(3, 3)
    mid = "mid"
    vertices = set(grid.vertices) | {mid}
    edges = [tuple(e) for e in grid.edges if e != frozenset({(1, 1), (1, 2)})]
    edges += [((1, 1), mid), (mid, (1, 2))]
    target = UndirectedGraph.of(vertices, edges)
    mm = find_grid_minor(target, 3, 3)
    assert mm is not None
    assert verify_minor_map(mm, target)


def test_grid_minor_absent():
    path = ug(4, [(0, 1), (1, 2), (2, 3)])
    assert find_grid_minor(path, 2, 2) is None  # a path has no cycle minor


def test_grid_minor_caps():
    with pytest.raises(SearchTooLarge):
        find_grid_minor(ug(13, [(i, i + 1) for i in range(12)]), 2, 1)
    with pytest.raises(SearchTooLarge):
        find_grid_minor(ug(3, [(0, 1)]), 4, 3)


def smallest_gadget_inputs():
    g = GeneralizedTGraph(parse_graph("?u p ?w"), frozenset())
    mm = find_grid_minor(gaifman(core(g)), 2, 1)
    assert mm is not None
    return g, mm


def test_gadget_smallest_scale_equivalence():
    g, mm = smallest_gadget_inputs()
    single_edge = ug(2, [(0, 1)])
    isolated = ug(2, [])
    yes = build_clique_gadget(g, CliqueInstance(single_edge, 2), mm)
    no = build_clique_gadget(g, CliqueInstance(isolated, 2), mm)
    assert find_homomorphism(g, yes) is not None
    assert find_homomorphism(g, no) is None


def family_gadget_inputs(clique_size, k):
    """The hard witness of the two-tree family, its core and a
    (k x C(k,2))-grid minor map on the core's clique component."""
    witness = find_hard_witness(forest_family(clique_size), 2)
    cored = core(witness.tgraph)
    comp = gaifman(cored).components()[0]
    mm = find_grid_minor(gaifman(cored).subgraph(comp), k, k * (k - 1) // 2)
    assert mm is not None
    return witness.tgraph, cored, mm


def assert_gadget_is_reference(g, h, k, mm, cored=None):
    gadget = build_clique_gadget(g, CliqueInstance(h, k), mm, cored=cored)
    reference = clique_gadget_by_product(g, h, k, dict(mm.cells))
    assert gadget.tgraph == reference.tgraph and gadget.dist == reference.dist
    return gadget


def test_gadget_k2_full_sweep():
    g, mm = smallest_gadget_inputs()
    family_g, family_core, family_mm = family_gadget_inputs(3, 2)
    for n in range(1, 5):
        for mask in range(2 ** (n * (n - 1) // 2)):
            pairs = list(combinations(range(n), 2))
            edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
            h = ug(n, edges)
            gadget = assert_gadget_is_reference(g, h, 2, mm)
            expected = has_clique(h, 2)
            assert (find_homomorphism(g, gadget) is not None) == expected
            assert hom_exists(g, gadget) == expected  # brute-force double check
            assert_gadget_is_reference(family_g, h, 2, family_mm)
            assert_gadget_is_reference(family_g, h, 2, family_mm, cored=family_core)


def test_gadget_rejects_a_core_that_is_not_a_subgraph():
    g, _, mm = family_gadget_inputs(3, 2)
    other = GeneralizedTGraph(parse_graph("?y p ?x"), g.dist, declared=True)
    with pytest.raises(ValueError):
        build_clique_gadget(g, CliqueInstance(ug(2, [(0, 1)]), 2), mm, cored=other)


def test_gadget_keeps_distinguished_triples_and_projects_back():
    # a (k x C(k,2))-grid minor needs k*C(k,2) branch sets, so the witness
    # clique must have at least that many free variables
    rng = random.Random(13)
    for k, clique_size in ((2, 3), (3, 9)):
        g, cored, mm = family_gadget_inputs(clique_size, k)
        h = ug(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        gadget = assert_gadget_is_reference(g, h, k, mm, cored=cored)
        for t in g.tgraph:
            if t.vars() <= g.dist:
                assert t in gadget.tgraph
        assert find_homomorphism(gadget, g) is not None
        for _ in range(6):
            n = rng.randint(3, 5)
            h = ug(n, [e for e in combinations(range(n), 2) if rng.random() < 0.6])
            assert_gadget_is_reference(g, h, k, mm, cored=cored)


def test_gadget_rejects_bad_minor_maps():
    g, mm = smallest_gadget_inputs()
    h = ug(2, [(0, 1)])
    with pytest.raises(InvalidMinorMap):
        build_clique_gadget(g, CliqueInstance(h, 3), mm)  # wrong dims for k=3
    stray = MinorMap.of(2, 1, {(1, 1): frozenset({var("u")}), (2, 1): frozenset({var("nope")})})
    with pytest.raises(ComponentMismatch):
        build_clique_gadget(g, CliqueInstance(h, 2), stray)


def test_freeze_basics():
    b = GeneralizedTGraph(parse_graph("?x p ?y"), frozenset({var("x")}))
    inst = freeze(b)
    assert inst.graph == parse_graph("frz:x p frz:y")
    assert inst.mapping == Mapping.of({var("x"): iri("frz:x")})
    assert inst.thaw(iri("frz:x")) == var("x")
    assert inst.thaw(iri("p")) == iri("p")
    assert maps_into_graph(b, inst.graph, inst.mapping) is not None


def test_freeze_rejects_reserved_prefix():
    with pytest.raises(ReservedPrefixCollision):
        freeze(GeneralizedTGraph(parse_graph("?x frz:p ?y"), frozenset()))


def test_generate_hard_instance_equivalence():
    family = forest_family(3)
    rng = random.Random(5)
    for n in range(1, 5):
        pairs = list(combinations(range(n), 2))
        for mask in range(2 ** len(pairs)):
            edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
            h = ug(n, edges)
            inst = generate_hard_instance(family, CliqueInstance(h, 2))
            assert inst.mapping.domain == {var("x"), var("y"), var("z")}
            member = has_clique(h, 2)
            assert member == has_clique_by_edge_count(h, 2)
            assert member == (not eval_forest(family, inst.graph, inst.mapping))
            # mu maps the witness subtree's pattern into the frozen graph
            pat = family.trees[0].pat(inst.witness.subtree.nodes)
            assert all(inst.mapping.apply(t) in inst.graph for t in pat)


def test_identity_cells_accepted_when_gaifman_is_the_grid():
    # engineered pattern whose witness core Gaifman graph IS the (2x1)-grid
    tree_graph = parse_graph("?x p ?x")
    child = parse_graph("?x p ?o1\n?o1 q ?o2")
    from wdsparql.trees import WdPF, WdPT

    forest = WdPF((WdPT(0, {1: 0}, {0: tree_graph, 1: child}),))
    witness = find_hard_witness(forest, 1)
    assert witness is not None
    cored = core(witness.tgraph)
    gaif = gaifman(cored)
    cells = {
        (1, 1): frozenset({min(gaif.vertices, key=str)}),
        (2, 1): frozenset({max(gaif.vertices, key=str)}),
    }
    mm = MinorMap.of(2, 1, cells)
    assert verify_minor_map(mm, gaif)
    gadget = build_clique_gadget(witness.tgraph, CliqueInstance(ug(2, [(0, 1)]), 2), mm)
    assert find_homomorphism(gadget, witness.tgraph) is not None


def test_has_clique():
    triangle = ug(3, [(0, 1), (1, 2), (0, 2)])
    path3 = ug(3, [(0, 1), (1, 2)])
    assert has_clique(triangle, 3)
    assert not has_clique(path3, 3)
    assert has_clique(path3, 2) and has_clique(path3, 1) and has_clique(path3, 0)
    assert not has_clique(ug(0, []), 1)
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(1, 6)
        pairs = list(combinations(range(n), 2))
        edges = [e for e in pairs if rng.random() < 0.5]
        h = ug(n, edges)
        for k in range(1, 5):
            got = has_clique(h, k)
            assert got == has_clique_by_edge_count(h, k)
            if got and k >= 2:  # edge-count necessary condition
                assert len(h.edges) >= k * (k - 1) // 2
    with pytest.raises(SearchTooLarge):
        has_clique(ug(25, []), 2)


def test_ug_and_mm_files():
    h = parse_undirected_graph("# comment\nvertex a\nedge a b\nedge b c\n")
    assert h.vertices == {"a", "b", "c"}
    assert h.has_edge("a", "b") and not h.has_edge("a", "c")
    with pytest.raises(ParseError):
        parse_undirected_graph("edge a a")
    with pytest.raises(ParseError):
        parse_undirected_graph("edge a#b c")
    mm = parse_minor_map("cell 1 1 : ?u\ncell 2 1 : ?w ?v\n")
    assert mm.rows == 2 and mm.cols == 1
    assert mm.branch(2, 1) == {var("w"), var("v")}
    with pytest.raises(ParseError):
        parse_minor_map("cell 1 1 :\n")


def test_generate_errors():
    from wdsparql.errors import NoGridMinorFound, NoHardWitness
    from wdsparql.trees import WdPF, WdPT

    # every associated set empty: single childless node
    bare = WdPF((WdPT(0, {}, {0: parse_graph("?x p ?y")}),))
    with pytest.raises(NoHardWitness):
        generate_hard_instance(bare, CliqueInstance(ug(2, [(0, 1)]), 2))
    # the witness carries a triangle component: no 3x3 grid fits for k=3
    with pytest.raises(NoGridMinorFound):
        generate_hard_instance(forest_family(3), CliqueInstance(ug(3, [(0, 1)]), 3))


@pytest.fixture
def analysis_calls(monkeypatch):
    """Counts, by name, the calls of the analysis steps of a forest."""
    calls = {}

    def count(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("domination_width", "find_hard_witness", "core"):
        count(width, name)
    count(hardness, "find_grid_minor")
    return calls


def test_generate_hard_instance_analyses_the_forest_once(analysis_calls):
    family = forest_family(3)
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(2, 5)
        h = ug(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5])
        inst = generate_hard_instance(family, CliqueInstance(h, 2))
        assert has_clique(h, 2) == (not eval_forest(family, inst.graph, inst.mapping))
    assert analysis_calls == {"domination_width": 1, "find_hard_witness": 1, "core": 1, "find_grid_minor": 1}


def test_domination_width_builds_only_what_it_needs(analysis_calls):
    family = forest_family(3)
    assert width.domination_width(family) == 2
    assert width.domination_width(family) == 2
    assert analysis_calls == {"domination_width": 2}


def test_warm_forest_keeps_every_check():
    family = forest_family(3)
    h = ug(3, [(0, 1)])
    generate_hard_instance(family, CliqueInstance(h, 2))  # warms the analysis
    (component,) = Analysis.of(family).witness_core[1]
    o1, o2, o3 = sorted(component, key=str)
    overlapping = MinorMap.of(2, 1, {(1, 1): frozenset({o1, o2}), (2, 1): frozenset({o2, o3})})
    wrong_shape = MinorMap.of(1, 1, {(1, 1): component})
    for _ in range(2):
        for bad in (overlapping, wrong_shape):
            with pytest.raises(InvalidMinorMap):
                generate_hard_instance(family, CliqueInstance(h, 2), bad)
    # too many trees: a refusal is kept nowhere, so every call is refused again
    tree = WdPT(0, {}, {0: parse_graph("?x p ?y")})
    over_cap = WdPF((tree,) * (width.MAX_TREES + 1))
    for _ in range(3):
        with pytest.raises(InstanceTooLarge):
            generate_hard_instance(over_cap, CliqueInstance(h, 2))
        with pytest.raises(InstanceTooLarge):
            width.domination_width(over_cap)
