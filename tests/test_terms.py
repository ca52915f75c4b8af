import copy
import gc
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from oracles import parse_graph_by_lines
from wdsparql.errors import (
    DuplicateBinding,
    IncompatibleMappings,
    NonGroundGraph,
    ParseError,
    UnboundVariable,
)
from wdsparql import terms
from wdsparql.patterns import parse_pattern
from wdsparql.terms import (
    Mapping,
    Term,
    TGraph,
    Triple,
    iri,
    parse_graph,
    parse_mapping,
    parse_term,
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


# names that are prefixes of one another (a, a:b, ab; ?x, ?x#1, ?xy):
# the canonical order must not depend on where one term's text ends
prefixed_terms = st.sampled_from(
    [iri(n) for n in ("a", "a:b", "ab", "a.", "b", "x")]
    + [var(n) for n in ("x", "x#1", "xy", "x_", "a")]
)
triples = st.tuples(prefixed_terms, prefixed_terms, prefixed_terms).map(lambda t: Triple(*t))


@given(st.lists(triples, max_size=12))
def test_canonical_order_is_the_order_of_the_text(ts):
    assert TGraph(tuple(ts)).triples == tuple(sorted(set(ts), key=str))


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


def test_equal_text_is_one_object():
    x, a, p = var("x"), iri("a"), iri("p")
    graph = parse_graph("a p ?x\n?x p a")
    first, second = graph.triples  # "?x p a" sorts first
    assert first.s is x and first.p is p and first.o is a
    assert second.s is a and second.p is p and second.o is x
    ((k, v),) = parse_mapping("?x = a").items()
    assert k is x and v is a
    left = parse_pattern("((?x, p, a) AND (a, p, ?x))").left.triple
    assert left.s is x and left.p is p and left.o is a
    assert parse_term("?x") is x and parse_term("a") is a
    assert var("x") is x and iri("a") is a and Term("var", "x") is x
    for term in (x, a):
        assert pickle.loads(pickle.dumps(term)) is term
        assert copy.deepcopy(term) is term and copy.copy(term) is term
    assert pickle.loads(pickle.dumps(graph)).triples[0].s is x
    assert copy.deepcopy(graph).triples[1].o is x


def test_a_variable_and_an_iri_of_one_name_are_two_objects():
    assert var("a") is not iri("a")
    assert var("a").is_var and iri("a").is_iri
    assert str(var("a")) == "?a" and str(iri("a")) == "a"


def test_a_bad_name_raises_every_time_and_leaves_no_entry():
    bad = (
        (lambda: var("a b"), "?a b"),
        (lambda: iri("a b"), "a b"),
        (lambda: Term("blank", "blank_kind"), "blank_kind"),
    )
    for _ in range(2):
        for make, text in bad:
            with pytest.raises(ValueError):
                make()
            assert text not in terms._live
        with pytest.raises(ParseError):
            parse_term("?a b")
    # the text of a live variable names no IRI, nor another kind
    held = var("x")
    for _ in range(2):
        with pytest.raises(ValueError):
            iri("?x")
        with pytest.raises(ValueError):
            Term("blank", "?x")
    assert terms._live["?x"]() is held


def test_a_generated_name_and_its_parsed_text_are_one_object():
    # the unchecked constructor and the parser share one table, whichever
    # makes the term first
    for name in ("g#h0#h0#h1#1#1#o1", "frz:x#0#2"):
        kind, text = ("var", "?" + name) if name.startswith("g#") else ("iri", name)
        first = terms._interned(kind, name)
        assert parse_term(text) is first and Term(kind, name) is first
        del first
        gc.collect()
        assert text not in terms._live
        parsed = parse_term(text)
        assert terms._interned(kind, name) is parsed
        assert parsed.kind == kind and parsed.name == name and str(parsed) == text


def test_a_dropped_term_leaves_the_table():
    text = "dropped_by_this_test"
    assert text not in terms._live
    term = iri(text)
    assert terms._live[text]() is term
    del term
    gc.collect()
    assert text not in terms._live
    again = iri(text)
    assert terms._live[text]() is again and str(again) == text


def test_every_way_of_making_a_term_gives_the_one_term_of_its_text():
    rng = random.Random(53)
    for _ in range(30):
        name = "".join(rng.choice("abxyz019_") for _ in range(rng.randint(1, 6)))
        for kind in ("var", "iri"):
            text = "?" + name if kind == "var" else name
            first = var(name) if kind == "var" else iri(name)
            ((s, p, o),) = parse_graph(f"{text} {text} {text} .").triples
            made = [
                Term(kind, name),
                parse_term(text),
                s,
                p,
                o,
                parse_pattern(f"({text}, {text}, {text})").triple.o,
                terms._interned(kind, name),
                pickle.loads(pickle.dumps(first)),
                copy.copy(first),
                copy.deepcopy(first),
            ]
            assert all(t is first for t in made)
            assert isinstance(first, Term) and first.kind == kind and first.name == name
            assert first.is_var == (kind == "var") and first.is_iri == (kind == "iri")
            assert str(first) == text and terms._live[text]() is first
            for attr in ("kind", "name", "is_var", "is_iri", "_text", "other"):
                with pytest.raises(AttributeError):
                    setattr(first, attr, first)
                with pytest.raises(AttributeError):
                    delattr(first, attr)
            assert first.kind == kind and str(first) == text
    for kind in ("var", "iri"):
        name = f"dropped_{kind}_by_this_test"
        text = "?" + name if kind == "var" else name
        assert text not in terms._live
        term = Term(kind, name)
        assert terms._live[text]() is term
        del term
        gc.collect()
        assert text not in terms._live


def test_terms_compare_and_hash_by_identity():
    # no Python-level method may come back: each lookup keyed by a term
    # would run it
    assert Term.__eq__ is object.__eq__
    assert Term.__hash__ is object.__hash__
    assert Term.__ne__ is object.__ne__
    x = var("x")
    assert hash(x) == object.__hash__(x)
    assert Triple(x, iri("p"), x) == Triple(var("x"), iri("p"), var("x"))


def test_a_triple_is_the_tuple_of_its_terms():
    a, p, b = iri("a"), iri("p"), iri("b")
    t = Triple(a, p, b)
    assert t == (a, p, b) and (a, p, b) == t and hash(t) == hash((a, p, b))
    assert (a, p, b) in parse_graph("a p b")
    assert (b, p, a) not in parse_graph("a p b")
    # equality and hashing stay tuple's own, in C
    assert Triple.__eq__ is tuple.__eq__ and Triple.__hash__ is tuple.__hash__
    assert t.s is a and t.p is p and t.o is b and tuple(t) == (a, p, b)
    for copied in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t), copy.copy(t)):
        assert type(copied) is Triple and copied == t
        assert copied.s is a and copied.o is b
    with pytest.raises(AttributeError):
        t.s = b
    with pytest.raises(AttributeError):
        t.extra = b
    assert Triple(var("x"), p, var("x")).vars() == {var("x")}
    assert t.is_ground() and not Triple(var("x"), p, b).is_ground()
    assert str(t) == "a p b" and repr(t) == "Triple('a p b')"


def test_an_iri_may_not_start_with_a_comment_mark():
    # a graph line starting with "#" is a comment, so no IRI may start so
    with pytest.raises(ValueError):
        iri("#a")
    with pytest.raises(ParseError):
        parse_term("#a")
    with pytest.raises(ParseError, match="bad IRI '#a'"):
        parse_pattern("(#a, p, ?x)")
    assert iri("a#b").name == "a#b"


def test_graphs_round_trip_through_their_files():
    rng = random.Random(23)
    alphabet = "ab_:/#.-"
    made = refused = 0
    for _ in range(300):
        triples = []
        for _ in range(rng.randint(1, 4)):
            found = []
            for _ in range(3):
                name = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 3)))
                try:
                    found.append(var(name) if rng.random() < 0.2 else iri(name))
                except ValueError:
                    # only an IRI starting with "#" and a variable name
                    # outside [A-Za-z0-9_#] are refused
                    refused += 1
                    found.append(iri("c"))
            triples.append(Triple(*found))
        g = TGraph(tuple(triples))
        assert parse_graph(serialize_graph(g)) == g
        made += 1
    assert made == 300 and refused > 0


def random_graph_line(rng):
    """A line of a graph file, good or bad: blank, a comment, or two to four
    tokens (IRIs, variables, bad tokens) with or without a final `.`."""
    pad = rng.choice(("", " ", "  ", "\t"))
    kind = rng.random()
    if kind < 0.1:
        return pad
    if kind < 0.2:
        return pad + rng.choice(("#", "# a p b", "#a p b .", "#?x"))
    if kind < 0.25:
        return pad + rng.choice((".", " .", "..", ". ."))
    pool = ["a", "b", "p", "q", "a.b", "x#y", "c.", "?x", "?y", "?z", "?#"]
    if rng.random() < 0.1:
        pool += ["b!d", "?", "?a-b", "#c", "a,b"]
    n = rng.choice((2, 3, 3, 3, 3, 3, 4))
    sep = rng.choice((" ", "  ", "\t"))
    end = rng.choice(("", "", ".", " .", "..", " ..", " . .", " ", ". "))
    return pad + sep.join(rng.choice(pool) for _ in range(n)) + end


def test_parse_graph_equals_the_line_by_line_parser():
    rng = random.Random(2718)

    def outcome(parse, text, ground):
        try:
            return parse(text, ground=ground)
        except ParseError as exc:
            return type(exc), str(exc), exc.line

    seen = set()
    for _ in range(3000):
        lines = [random_graph_line(rng) for _ in range(rng.randint(0, 8))]
        text = rng.choice(("\n", "\r\n")).join(lines) + rng.choice(("", "\n"))
        ground = rng.random() < 0.5
        expected = outcome(parse_graph_by_lines, text, ground)
        assert outcome(parse_graph, text, ground) == expected, (text, ground)
        seen.add((ground, expected[0] if isinstance(expected, tuple) else TGraph))
    assert seen >= {
        (False, TGraph),
        (True, TGraph),
        (False, ParseError),
        (True, ParseError),
        (True, NonGroundGraph),
    }
