import hashlib
import random
from itertools import combinations

import pytest

from fixtures import forest_family
from oracles import (
    clique_gadget_by_product,
    has_clique_by_edge_count,
    hom_exists,
    parse_undirected_graph_by_lines,
)
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
    GadgetPlan,
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
from wdsparql.terms import Mapping, TGraph, Triple, iri, parse_graph, serialize_graph, var
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
    if cored is None:
        gadget = build_clique_gadget(g, CliqueInstance(h, k), mm)
    else:
        gadget = GadgetPlan(g, cored, mm, k).gadget(h)
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


def test_gadget_bytes_are_pinned():
    # the serialized gadgets of four seeded H per k; at k = 3 some anchors'
    # rows lie outside their column's pair, so they take the edges missing
    # their vertex, which k = 2 never does
    expected = {
        2: "61332bb6899694eee03d63afc20d0b11eace5eda84759474aaffa72c4adc501b",
        3: "4dbd69f13342c4ac15bbe2fac162f216b4c13397617caa4259efd029b9cbcde4",
    }
    for k, clique_size in ((2, 3), (3, 9)):
        g, cored, mm = family_gadget_inputs(clique_size, k)
        rng = random.Random(41)
        digest = hashlib.sha256()
        for _ in range(4):
            n = rng.randint(3, 5)
            h = ug(n, [e for e in combinations(range(n), 2) if rng.random() < 0.6])
            gadget = GadgetPlan(g, cored, mm, k).gadget(h)
            digest.update(serialize_graph(gadget.tgraph).encode())
        assert digest.hexdigest() == expected[k], k


def test_gadget_rejects_a_core_that_is_not_a_subgraph():
    g, _, mm = family_gadget_inputs(3, 2)
    other = GeneralizedTGraph(parse_graph("?y p ?x"), g.dist, declared=True)
    with pytest.raises(ValueError):
        GadgetPlan(g, other, mm, 2).gadget(ug(2, [(0, 1)]))


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


def test_gadget_check_catches_a_dropped_and_a_stray_triple(monkeypatch):
    g, cored, mm = family_gadget_inputs(3, 2)
    check = hardness._check_gadget
    calls = []
    monkeypatch.setattr(hardness, "_check_gadget", lambda *args: calls.append(args))
    GadgetPlan(g, cored, mm, 2).gadget(ug(2, [(0, 1)]))
    ((original, cored, gadget, projection),) = calls
    check(original, cored, gadget, projection)  # the built gadget passes
    kept = gadget.tgraph.triples

    def with_triples(triples):
        return GeneralizedTGraph(TGraph(triples), gadget.dist, declared=True)

    dropped = next(t for t in kept if t.vars() <= gadget.dist)
    with pytest.raises(AssertionError, match="an all-distinguished triple went missing"):
        check(original, cored, with_triples(tuple(t for t in kept if t != dropped)), projection)
    # a gadget triple reversed projects onto the reverse of a core triple
    t = next(t for t in kept if t.s in projection and t.o in projection)
    stray = Triple(t.o, t.p, t.s)
    assert stray not in gadget.tgraph
    with pytest.raises(AssertionError, match="gadget does not project into the core"):
        check(original, cored, with_triples(kept + (stray,)), projection)


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


def test_thaw_reads_only_the_frozen_iris_of_its_own_instance():
    inst = freeze(GeneralizedTGraph(parse_graph("?x p ?y\n?y p a"), frozenset({var("x")})))
    assert inst.thaw(iri("frz:y")) is var("y")
    assert inst.thaw(iri("frz:x")) is var("x")
    for other in (iri("frz:nowhere"), iri("a"), var("y")):
        assert inst.thaw(other) is other


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


def test_degree_counts_the_edges_holding_the_vertex():
    rng = random.Random(67)
    for _ in range(40):
        n = rng.randint(0, 8)
        h = ug(n, [e for e in combinations(range(n), 2) if rng.random() < 0.4])
        for v in list(h.vertices) + ["absent"]:
            assert h.degree(v) == sum(1 for e in h.edges if v in e)


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


def test_the_graph_constructor_keeps_its_checks():
    """`UndirectedGraph.of` and the `.ug` reader build each edge once and
    skip the constructor's checks; a direct construction still runs them."""
    for edge in ({"a"}, {"a", "b", "c"}):
        with pytest.raises(ValueError, match="bad edge"):
            UndirectedGraph(frozenset("abc"), frozenset({frozenset(edge)}))
    with pytest.raises(ValueError, match="outside the vertex set"):
        UndirectedGraph(frozenset("ab"), frozenset({frozenset("bc")}))
    with pytest.raises(ValueError, match="self-loop"):
        UndirectedGraph.of("ab", [("a", "b"), ("b", "b")])
    g = UndirectedGraph(["a", "b", "c"], [("a", "b"), ("c", "b")])
    assert g == UndirectedGraph.of("a", [("b", "a"), ("b", "c"), ("a", "b")])
    assert g.subgraph("ab") == UndirectedGraph.of("ab", [("a", "b")])


_UG_NAMES = ("a", "b", "h1", "h10", "X_2", "_")
# each makes one line bad: a bad name in a vertex line or an edge
# endpoint, `#` inside a name, a self-loop, the wrong arity, an unknown
# keyword
_UG_FAULTS = (
    lambda rng, a, b: f"vertex {rng.choice(('a-b', 'h.1', 'é', '?x'))}",
    lambda rng, a, b: f"edge {a} {rng.choice(('b-c', 'h:1', 'ü'))}",
    lambda rng, a, b: f"edge {rng.choice(('x!', 'a,b'))} {b}",
    lambda rng, a, b: rng.choice((f"edge {a}#b {b}", f"vertex {a}#", f"edge {a} #{b}")),
    lambda rng, a, b: f"edge {a} {a}",
    lambda rng, a, b: rng.choice(("vertex", f"vertex {a} {b}", f"edge {a}", f"edge {a} {b} {a}")),
    lambda rng, a, b: rng.choice((f"node {a}", f"Edge {a} {b}", f"vertices {a}", a)),
)


def random_ug_text(rng, faults):
    """A `.ug` file: vertex and edge lines (both orientations, repeats,
    isolated vertices) between blank and comment lines, tokens apart by
    spaces or tabs, lines ending in LF or CRLF, with `faults` bad lines
    injected."""
    lines = []
    for _ in range(rng.randint(0, 10)):
        a, b = rng.sample(_UG_NAMES, 2)
        kind = rng.random()
        if kind < 0.1:
            tokens = [""]
        elif kind < 0.2:
            tokens = [rng.choice(("#", "# edge a a", "#vertex a-b", "#x"))]
        elif kind < 0.45:
            tokens = ["vertex", a]
        else:
            tokens = ["edge", a, b]
        lines.append(tokens)
    for _ in range(faults):
        a, b = rng.sample(_UG_NAMES, 2)
        lines.insert(rng.randint(0, len(lines)), rng.choice(_UG_FAULTS)(rng, a, b).split(" "))
    pad = lambda: rng.choice(("", "", " ", "\t", " \t"))
    rows = [pad() + rng.choice((" ", "\t", "  ")).join(tokens) + pad() for tokens in lines]
    text = "".join(row + rng.choice(("\n", "\r\n")) for row in rows)
    return text if rng.random() < 0.8 else text.rstrip("\r\n")


def test_ug_reader_equals_the_line_by_line_reader():
    rng = random.Random(2828)

    def outcome(text):
        try:
            return parse_undirected_graph(text)
        except ParseError as exc:
            return type(exc), str(exc), exc.line

    seen = set()
    for _ in range(3000):
        faults = rng.choice((0, 0, 1, 2))
        text = random_ug_text(rng, faults)
        try:
            expected = parse_undirected_graph_by_lines(text)
            seen.add("graph")
        except ParseError as exc:
            expected = type(exc), str(exc), exc.line
            seen.add(str(exc).split(" ")[0])
        assert outcome(text) == expected, text
    assert seen == {"graph", "bad", "expected", "self-loop"}


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
    analysis = Analysis.of(family)
    plan = analysis.gadget_plan(2)  # kept since the call above
    (component,) = analysis.witness_core[1]
    o1, o2, o3 = sorted(component, key=str)
    overlapping = MinorMap.of(2, 1, {(1, 1): frozenset({o1, o2}), (2, 1): frozenset({o2, o3})})
    wrong_shape = MinorMap.of(1, 1, {(1, 1): component})
    for _ in range(2):
        for bad in (overlapping, wrong_shape):
            with pytest.raises(InvalidMinorMap):
                generate_hard_instance(family, CliqueInstance(h, 2), bad)
    # a good map of the caller's gets a plan of its own; the kept one stays
    good = MinorMap.of(2, 1, {(1, 1): frozenset({o1}), (2, 1): frozenset({o2, o3})})
    assert generate_hard_instance(family, CliqueInstance(h, 2), good).minor_map == good
    assert plan is not None and analysis.gadget_plan(2) is plan
    # too many trees: a refusal is kept nowhere, so every call is refused again
    tree = WdPT(0, {}, {0: parse_graph("?x p ?y")})
    over_cap = WdPF((tree,) * (width.MAX_TREES + 1))
    for _ in range(3):
        with pytest.raises(InstanceTooLarge):
            generate_hard_instance(over_cap, CliqueInstance(h, 2))
        with pytest.raises(InstanceTooLarge):
            width.domination_width(over_cap)


def test_hard_instance_is_the_frozen_reference_gadget():
    # the one-pass frozen path against freeze() of the brute-force gadget;
    # at k = 3 some anchors' rows lie outside their column's pair
    rng = random.Random(23)
    for k, clique_size, trials in ((2, 3, 12), (3, 9, 3)):
        family = forest_family(clique_size)
        for _ in range(trials):
            n = rng.randint(2, 5)
            h = ug(n, [e for e in combinations(range(n), 2) if rng.random() < 0.6])
            inst = generate_hard_instance(family, CliqueInstance(h, k))
            cells = dict(inst.minor_map.cells)
            reference = freeze(clique_gadget_by_product(inst.witness.tgraph, h, k, cells))
            assert inst.graph == reference.graph
            assert inst.mapping == reference.mapping
            assert inst.frozen == reference


def test_generate_hard_instance_plans_once_and_makes_no_gadget_variable(monkeypatch):
    from wdsparql import terms

    made = []
    interned = terms._interned

    def recording(kind, name):
        made.append((kind, name))
        return interned(kind, name)

    # every term the library makes goes through this routine
    for module in (terms, hardness):
        monkeypatch.setattr(module, "_interned", recording)
    verified = []
    verify = hardness.verify_minor_map
    monkeypatch.setattr(
        hardness, "verify_minor_map", lambda *args: verified.append(args) or verify(*args)
    )
    family = forest_family(3)
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(2, 5)
        h = ug(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5])
        inst = generate_hard_instance(family, CliqueInstance(h, 2))
        assert has_clique(h, 2) == (not eval_forest(family, inst.graph, inst.mapping))
    assert len(verified) == 1
    assert any(kind == "iri" and name.startswith("frz:g#") for kind, name in made)
    assert not [name for kind, name in made if kind == "var" and name.startswith("g#")]


def test_per_shape_expansion_is_the_frozen_reference_gadget():
    # H's with isolated vertices, with no edge (every anchored template
    # expands to nothing) and with names whose text order is not their
    # index order (h1, h2, h10), at k = 2 and at k = 3, where some anchors'
    # rows lie outside their column's pair
    rng = random.Random(71)
    names = ["h1", "h2", "h10", "h3", "h11", "h20"]
    fixed = [
        UndirectedGraph.of(["h1", "h2", "h10"], []),
        UndirectedGraph.of(["h1", "h2", "h10", "h3"], [("h1", "h10"), ("h10", "h2")]),
        UndirectedGraph.of(["h2", "h10"], [("h2", "h10")]),
        UndirectedGraph.of(names[:4], [("h1", "h2"), ("h2", "h10"), ("h1", "h10")]),
    ]
    for k, clique_size, trials in ((2, 3, 12), (3, 9, 3)):
        family = forest_family(clique_size)
        drawn = []
        for _ in range(trials):
            vs = rng.sample(names, rng.randint(2, 5))
            drawn.append(UndirectedGraph.of(vs, [e for e in combinations(vs, 2) if rng.random() < 0.5]))
        for h in fixed + drawn:
            inst = generate_hard_instance(family, CliqueInstance(h, k))
            cells = dict(inst.minor_map.cells)
            reference = clique_gadget_by_product(inst.witness.tgraph, h, k, cells)
            assert inst.frozen == freeze(reference)
            plan = GadgetPlan(inst.witness.tgraph, core(inst.witness.tgraph), inst.minor_map, k)
            assert plan.gadget(h).tgraph == reference.tgraph
            if not h.edges:
                assert not [t for t in inst.graph if any(x.name.startswith("frz:g#") for x in t)]
            assert inst.graph.is_ground() and not any(x.is_var for t in inst.graph for x in t)
