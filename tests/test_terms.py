import copy
import pickle

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
