import copy
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from wdsparql.errors import (
    DuplicateBinding,
    IncompatibleMappings,
    NonGroundGraph,
    ParseError,
    UnboundVariable,
)
from wdsparql.terms import (
    Mapping,
    TGraph,
    Triple,
    iri,
    parse_graph,
    parse_mapping,
    serialize_graph,
    serialize_mapping,
    var,
)


def m(**kv):
    return Mapping.of({var(k): iri(v) for k, v in kv.items()})


def test_compatible():
    assert m(x="a").compatible(m(x="a", y="b"))
    assert not m(x="a").compatible(m(x="b"))
    assert Mapping().compatible(m(x="a"))
    assert m(x="a").compatible(Mapping())


def test_merge():
    assert m(x="a").merge(m(y="b")) == m(x="a", y="b")
    assert m(x="a").merge(m(x="a")) == m(x="a")
    assert Mapping().merge(m(z="c")) == m(z="c")
    with pytest.raises(IncompatibleMappings):
        m(x="a").merge(m(x="b"))


def test_apply():
    t = Triple(var("x"), iri("p"), var("x"))
    assert m(x="a").apply(t) == Triple(iri("a"), iri("p"), iri("a"))
    ground = Triple(iri("a"), iri("p"), iri("b"))
    assert Mapping().apply(ground) == ground
    with pytest.raises(UnboundVariable):
        m(x="a").apply(Triple(var("x"), iri("p"), var("y")))


def test_parse_graph_collapses_duplicates():
    g = parse_graph("a p b .\na p b")
    assert len(g) == 1
    assert Triple(iri("a"), iri("p"), iri("b")) in g


def test_parse_graph_comments_and_errors():
    g = parse_graph("# comment\n\na p b\n?x q c")
    assert len(g) == 2
    with pytest.raises(NonGroundGraph):
        parse_graph("a p ?z", ground=True)
    with pytest.raises(ParseError):
        parse_graph("a p")
    with pytest.raises(ParseError):
        parse_graph("a p b c")


def test_ground_parse_names_the_smallest_variable_of_the_line():
    with pytest.raises(NonGroundGraph) as caught:
        parse_graph("a p b\n# note\n?z q ?y .\nc p ?x\n", ground=True)
    assert caught.value.line == 3
    assert str(caught.value) == "variable ?y in an RDF graph (line 3)"
    # every token of the line is read first: a bad one is a plain parse error
    with pytest.raises(ParseError) as caught:
        parse_graph("a p b\n?z q b!d", ground=True)
    assert type(caught.value) is ParseError and caught.value.line == 2
    # a term known from an earlier line, and a variable repeated on its line
    with pytest.raises(NonGroundGraph) as caught:
        parse_graph("a p b\na q ?w\n", ground=True)
    assert str(caught.value) == "variable ?w in an RDF graph (line 2)"
    with pytest.raises(NonGroundGraph, match=r"\?v in an RDF graph \(line 1\)"):
        parse_graph("?v p ?v", ground=True)
    assert len(parse_graph("?z q ?y\n?z q a")) == 2


def test_parse_mapping():
    parsed = parse_mapping("?x = a\n?y = b")
    assert parsed == m(x="a", y="b")
    with pytest.raises(DuplicateBinding):
        parse_mapping("?x = a\n?x = a")
    with pytest.raises(ParseError):
        parse_mapping("x = a")


def test_roundtrips():
    g = parse_graph("b q ?u\na p b\n?u r ?w")
    assert parse_graph(serialize_graph(g)) == g
    mp = m(x="a", y="b")
    assert parse_mapping(serialize_mapping(mp)) == mp


def test_values_are_immutable_and_copy_by_value():
    g = parse_graph("a p ?x\n?x q ?x")
    t = Triple(iri("a"), iri("p"), var("x"))
    for value in (var("x"), t, g, m(x="a")):
        assert pickle.loads(pickle.dumps(value)) == value
        assert copy.deepcopy(value) == value
    assert hash(copy.deepcopy(t)) == hash(t)
    with pytest.raises(AttributeError):
        t.s = iri("b")
    with pytest.raises(AttributeError):
        g.triples = ()


def test_canonical_order_is_stable():
    t1 = Triple(iri("b"), iri("p"), iri("a"))
    t2 = Triple(iri("a"), iri("p"), iri("b"))
    assert TGraph((t1, t2)) == TGraph((t2, t1))
    assert [str(t) for t in TGraph((t1, t2))] == ["a p b", "b p a"]


names = st.text(alphabet="abcxyz", min_size=1, max_size=2)
mappings = st.dictionaries(names, st.sampled_from("abcd"), max_size=4).map(
    lambda d: Mapping.of({var(k): iri(v) for k, v in d.items()})
)


@given(mappings, mappings)
def test_compatible_symmetric(m1, m2):
    assert m1.compatible(m2) == m2.compatible(m1)


@given(mappings, mappings)
def test_merge_commutes_on_compatible(m1, m2):
    if m1.compatible(m2):
        assert m1.merge(m2) == m2.merge(m1)


@given(mappings, mappings, mappings)
def test_merge_associates(m1, m2, m3):
    if m1.compatible(m2) and m2.compatible(m3) and m1.compatible(m3):
        assert m1.merge(m2).merge(m3) == m1.merge(m2.merge(m3))


def test_the_unchecked_constructor_builds_the_same_mapping():
    # Mapping._valid skips the checks for bindings valid by construction:
    # a homomorphism's dict, or the pairs of two compatible mappings
    rng = random.Random(131)
    variables = [var(n) for n in ("x", "y", "z", "x1", "y10", "y2", "_a")]
    for _ in range(300):
        d = {v: iri(rng.choice("abcd")) for v in rng.sample(variables, rng.randint(0, 5))}
        pairs = tuple(d.items())[::-1]
        # a compatible mapping: it agrees with d on their shared variables
        right = Mapping.of({v: d.get(v, iri(rng.choice("abcd"))) for v in rng.sample(variables, 3)})
        both = Mapping.of(d).bindings + right.bindings
        for fast, checked in (
            (Mapping._valid(d), Mapping.of(d)),
            (Mapping._valid(pairs), Mapping(pairs)),
            (Mapping._valid(both), Mapping(both)),
        ):
            assert fast.bindings == checked.bindings
            assert fast.domain == checked.domain
            assert hash(fast) == hash(checked) and fast == checked
            assert str(fast) == str(checked)
            assert all(fast.get(k) == v for k, v in checked.items())
