import gc
import random
import re
import statistics
from time import perf_counter

import pytest
from hypothesis import given, strategies as st

from fixtures import P1_TEXT, P2_TEXT, P_UNION_TEXT
from oracles import (
    parse_pattern_by_recursion,
    to_forest_by_recursion,
    union_components_by_recursion,
    well_designed_violation_by_recursion,
)
from wdsparql.errors import NotWellDesigned, ParseError
from wdsparql.evaluator import eval_naive
from wdsparql.patterns import (
    AND,
    OPT,
    UNION,
    Leaf,
    Node,
    is_well_designed,
    parse_pattern,
    pattern_vars,
    serialize_pattern,
    well_designed_violation,
)
from wdsparql.randgen import random_wd_pattern
from wdsparql.terms import Triple, iri, parse_graph, var
from wdsparql.trees import render_forest, to_forest


def test_parse_leaf():
    p = parse_pattern("(?x,p,?y)")
    assert p == Leaf(Triple(var("x"), iri("p"), var("y")))


def test_parse_example_pattern_shape():
    p = parse_pattern(P1_TEXT)
    assert isinstance(p, Node) and p.op == OPT
    assert isinstance(p.left, Node) and p.left.op == OPT
    assert isinstance(p.right, Node) and p.right.op == AND
    assert pattern_vars(p) == {var(n) for n in ("x", "y", "z", "o1", "o2")}


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse_pattern("((?x,p,?y) AND")
    with pytest.raises(ParseError):
        parse_pattern("(?x,p)")
    with pytest.raises(ParseError):
        parse_pattern("((?x,p,?y) XOR (?z,p,?y))")
    with pytest.raises(ParseError):
        parse_pattern("(?x,p,?y) junk")
    with pytest.raises(ParseError):
        parse_pattern("(?a#b,p,?y)")  # '#' is reserved for generated names


def test_serialize_parse_roundtrip_examples():
    for text in (P1_TEXT, P2_TEXT, P_UNION_TEXT):
        p = parse_pattern(text)
        assert parse_pattern(serialize_pattern(p)) == p


def test_well_designedness_of_examples():
    assert is_well_designed(parse_pattern(P1_TEXT))
    bad = well_designed_violation(parse_pattern(P2_TEXT))
    assert bad is not None and bad.kind == "escaped-variable"
    assert bad.variable == var("z")
    # the witness subpattern is the inner OPT whose right side introduced ?z
    assert serialize_pattern(bad.subpattern) == "((?x, p, ?y) OPT (?z, q, ?x))"


def test_single_triple_is_well_designed():
    assert is_well_designed(parse_pattern("(?x,p,?y)"))


def test_union_below_and_is_rejected():
    p = parse_pattern("((?x,p,?y) AND ((?x,q,?y) UNION (?x,r,?y)))")
    bad = well_designed_violation(p)
    assert bad is not None and bad.kind == "nested-union"
    with pytest.raises(NotWellDesigned):
        to_forest(p)


def test_to_forest_flattens_any_union_association():
    a, b, c = "(?x,p,?y)", "(?x,q,?y)", "(?x,r,?y)"
    left = to_forest(parse_pattern(f"(({a} UNION {b}) UNION {c})"))
    right = to_forest(parse_pattern(f"({a} UNION ({b} UNION {c}))"))
    assert len(left.trees) == 3
    assert left == right
    assert len(to_forest(parse_pattern(a)).trees) == 1


def test_union_components_stay_well_designed():
    p = parse_pattern(P_UNION_TEXT)
    comps = union_components_by_recursion(p)
    for comp in comps:
        assert is_well_designed(comp)
    # one tree per component, left to right
    assert [to_forest(comp).trees[0] for comp in comps] == list(to_forest(p).trees)


def test_random_constructed_patterns_are_well_designed():
    rng = random.Random(42)
    for _ in range(200):
        assert is_well_designed(random_wd_pattern(rng))


def test_escape_injection_is_caught():
    # reusing the OPT-only variable ?z outside its subpattern breaks wd-ness
    p = parse_pattern("(((?x,p,?y) OPT (?y,q,?z)) AND (?z,r,?x))")
    bad = well_designed_violation(p)
    assert bad is not None and bad.variable == var("z")


_leaves = st.tuples(
    st.sampled_from(["?x", "?y", "?z", "a"]),
    st.sampled_from(["p", "q"]),
    st.sampled_from(["?x", "?y", "?w", "b"]),
).map(lambda t: f"({t[0]},{t[1]},{t[2]})")


@st.composite
def _pattern_texts(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        return draw(_leaves)
    op = draw(st.sampled_from([AND, OPT, UNION]))
    left = draw(_pattern_texts(depth=depth - 1))
    right = draw(_pattern_texts(depth=depth - 1))
    return f"({left} {op} {right})"


@given(_pattern_texts())
def test_roundtrip_on_random_syntax(text):
    p = parse_pattern(text)
    assert parse_pattern(serialize_pattern(p)) == p


def _random_pattern_text(rng, depth=4):
    """A pattern over few variables, well designed or not: UNIONs below AND
    and OPT, and OPT variables used outside, are both common."""
    if depth == 0 or rng.random() < 0.3:
        s, o = rng.choice(("?x", "?y", "?z", "?w", "a")), rng.choice(("?x", "?y", "?z", "?w", "b"))
        return f"({s}, {rng.choice('pq')}, {o})"
    op = rng.choices((AND, OPT, UNION), (4, 5, 1))[0]
    return f"({_random_pattern_text(rng, depth - 1)} {op} {_random_pattern_text(rng, depth - 1)})"


def _mutated(rng, text):
    """The text with one token dropped or doubled."""
    tokens = re.findall(r"[(),]|[^\s(),]+", text)
    i = rng.randrange(len(tokens))
    tokens[i : i + 1] = [] if rng.random() < 0.5 else [tokens[i]] * 2
    return " ".join(tokens)


def _outcome(parse, violation, forest, text):
    """What the pattern layer makes of a text: the parse error, or the
    pattern (serialized, since dataclass equality recurses), its violation
    and its rendered forest (or the refusal)."""
    try:
        p = parse(text)
    except ParseError as exc:
        return "ParseError", str(exc), exc.position
    bad = violation(p)
    if bad is not None:
        bad = bad.kind, serialize_pattern(bad.subpattern), bad.variable
    try:
        rendered = render_forest(forest(p))
    except NotWellDesigned as exc:
        rendered = str(exc)
    return serialize_pattern(p), bad, rendered


def test_pattern_layer_equals_the_recursive_reference():
    """The one-pass parser, check and translation against the recursive
    ones they replaced, on random patterns (randgen's well-designed ones
    and arbitrary ones) and on texts with a token dropped or doubled."""
    rng = random.Random(1712)
    seen = set()
    for _ in range(600):
        if rng.random() < 0.5:
            text = serialize_pattern(random_wd_pattern(rng, max_trees=3, max_nodes=4))
        else:
            text = _random_pattern_text(rng)
        for probe in (text, _mutated(rng, text)):
            new = _outcome(parse_pattern, well_designed_violation, to_forest, probe)
            old = _outcome(
                parse_pattern_by_recursion,
                well_designed_violation_by_recursion,
                to_forest_by_recursion,
                probe,
            )
            assert new == old, probe
            seen.add(new[0] if new[0] == "ParseError" else new[1] and new[1][0])
    assert seen == {"ParseError", "nested-union", "escaped-variable", None}


def _chain(op, n):
    """A left-deep chain of n operators, every triple on ?x0."""
    return "(" * n + "(?x0, p, ?x1)" + "".join(f" {op} (?x0, p, ?x{i}))" for i in range(2, n + 2))


def test_doubling_the_nesting_depth_at_most_doubles_the_time():
    """Parsing, the well-designedness check, the forest translation with its
    rendering, and eval_naive grow linearly in the nesting depth: 4,000
    levels cost at most 2.5 times 2,000, in the median over seven pairs
    of runs, each pair run back to back so that the host's slow spells
    fall on both.  The cyclic garbage collector is off in a run: a full
    collection walks the whole process heap, the test runner's included,
    and fires once enough objects have been allocated since the last one,
    so it would charge one run for the heap."""
    graph = parse_graph("a p b", ground=True)

    def seconds(text):
        gc.collect()
        gc.disable()
        try:
            t0 = perf_counter()
            p = parse_pattern(text)
            assert well_designed_violation(p) is None
            render_forest(to_forest(p))
            assert len(eval_naive(p, graph)) == 1
            return perf_counter() - t0
        finally:
            gc.enable()

    for op in (AND, OPT):
        small, large = _chain(op, 2000), _chain(op, 4000)
        ratios = [seconds(large) / seconds(small) for _ in range(7)]
        assert statistics.median(ratios) <= 2.5, (op, ratios)
