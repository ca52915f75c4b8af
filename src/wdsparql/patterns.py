"""The AND/OPT/UNION graph-pattern language: AST, parser, well-designedness.

Grammar (whitespace-insensitive between tokens):

    pattern := triple | "(" pattern OPWORD pattern ")"
    OPWORD  := "AND" | "OPT" | "UNION"
    triple  := "(" term "," term "," term ")"
    term    := "?" name | iri

A UNION-free pattern is well designed if for every subpattern (A OPT B),
no variable occurring in B but not in A occurs outside that subpattern.
A general pattern is well designed if it is a top-level UNION of
well-designed UNION-free patterns; UNION below AND or OPT is rejected
rather than distributed, since distributing would change the class being
tested.

No walk here recurses, so nesting depth is bounded by memory alone, and
each is linear in the pattern (up to a log factor).  The parser reads one
regex tokenisation with an explicit stack of open nodes, and checks each
distinct term token once.  One pass (`_scan`) over each top-level UNION
component serves the well-designedness check and the forest translation:
a pre-order walk lists the component's nodes, finds a UNION below
AND/OPT, and counts per variable the leaves that mention it; a
post-order sweep (that list reversed) then gives each node its variable
counts, merging its operands' counts the smaller into the larger.  A
variable is outside an OPT exactly when its count in the component
exceeds its count under the OPT, so each OPT is checked against its
operands' counts alone.  The same sweep collects each AND-block's triples
and the blocks its OPTs hang below it (`Block`), from which `trees.to_forest`
builds each tree.  `pattern_vars` and `serialize_pattern` walk with an
explicit stack too.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from typing import Union

from .errors import NotWellDesigned, ParseError
from .terms import Term, Triple, _interned, _IRI_NAME, _triple, _USER_VAR_NAME

AND = "AND"
OPT = "OPT"
UNION = "UNION"
_OPS = (AND, OPT, UNION)


@dataclass(frozen=True)
class Leaf:
    triple: Triple


@dataclass(frozen=True)
class Node:
    op: str
    left: "GraphPattern"
    right: "GraphPattern"

    def __post_init__(self):
        if self.op not in _OPS:
            raise ValueError(f"bad operator {self.op!r}")


GraphPattern = Union[Leaf, Node]


def _preorder(p: GraphPattern) -> list[GraphPattern]:
    """Every node of `p`, each before its operands, left before right."""
    out = []
    todo = [p]
    while todo:
        q = todo.pop()
        out.append(q)
        if q.__class__ is Node:
            todo += (q.right, q.left)
    return out


def _postorder(p: GraphPattern) -> list[GraphPattern]:
    """Every node of `p` after its operands, the left one's nodes first."""
    out = []
    todo = [p]
    while todo:
        q = todo.pop()
        out.append(q)
        if q.__class__ is Node:
            todo += (q.left, q.right)
    out.reverse()
    return out


def pattern_vars(p: GraphPattern) -> frozenset[Term]:
    return frozenset(
        x for q in _preorder(p) if q.__class__ is Leaf for x in q.triple if x.is_var
    )


def serialize_pattern(p: GraphPattern) -> str:
    out = []
    todo: list = [p]
    while todo:
        q = todo.pop()
        if q.__class__ is str:
            out.append(q)
        elif q.__class__ is Leaf:
            s, pred, o = q.triple
            out.append(f"({s}, {pred}, {o})")
        else:
            out.append("(")
            todo += (")", q.right, f" {q.op} ", q.left)
    return "".join(out)


# ---------------------------------------------------------------------------
# parsing

_TOKEN = re.compile(r"[(),]|[^\s(),]+")
_PUNCT = ("(", ")", ",")


def _position(text: str, i: int) -> int:
    """Where the i-th token of `text` starts; the end of the text past the
    last one."""
    found = next(islice(_TOKEN.finditer(text), i, None), None)
    return len(text) if found is None else found.start()


def _term(token: str | None) -> Term | str:
    """The term a token names, or the message of its error."""
    if token is None or token in _PUNCT:
        return f"expected a term, got {token!r}"
    if token[0] == "?":
        if not _USER_VAR_NAME.match(token[1:]):
            return f"bad variable {token!r}"
        return _interned("var", token[1:])
    if not _IRI_NAME.match(token) or token in _OPS:
        return f"bad IRI {token!r}"
    return _interned("iri", token)


def parse_pattern(text: str) -> GraphPattern:
    """Parse one pattern, left to right over its tokens.  `open_nodes`
    holds the nodes whose operands are still being read: None before the
    left one is done, then (left, operator).  Errors name the first token
    that does not fit, at its position (the end of the text past the
    last)."""
    tokens = _TOKEN.findall(text)
    n = len(tokens)
    terms: dict[str, Term | str] = {}

    def fail(message: str, i: int):
        raise ParseError(message, position=_position(text, i))

    def take(expected: str, i: int) -> int:
        if i >= n:
            fail(f"expected {expected!r}, got end of input", i)
        if tokens[i] != expected:
            fail(f"expected {expected!r}, got {tokens[i]!r}", i)
        return i + 1

    def term(i: int) -> Term:
        token = tokens[i] if i < n else None
        found = terms.get(token)
        if found is None:
            found = terms[token] = _term(token)
        if found.__class__ is str:
            fail(found, i)
        return found

    open_nodes: list = []
    i = 0
    while True:
        i = take("(", i)
        if i < n and tokens[i] == "(":  # a node: its left operand comes next
            open_nodes.append(None)
            continue
        s = term(i)
        i = take(",", i + 1)
        p = term(i)
        i = take(",", i + 1)
        o = term(i)
        i = take(")", i + 1)
        done: GraphPattern = Leaf(_triple((s, p, o)))
        while open_nodes:
            if open_nodes[-1] is None:  # `done` is a left operand
                op = tokens[i] if i < n else None
                if op not in _OPS:
                    fail(f"expected AND, OPT or UNION, got {op!r}", i)
                open_nodes[-1] = (done, op)
                i += 1
                break
            i = take(")", i)
            left, op = open_nodes.pop()
            done = Node(op, left, done)
        else:
            if i < n:
                fail(f"trailing input {tokens[i]!r}", i)
            return done


# ---------------------------------------------------------------------------
# well-designedness, UNION components and AND-blocks, in one pass


@dataclass(frozen=True)
class Violation:
    """Why a pattern is not well designed.

    kind is "nested-union" (a UNION below AND/OPT) or "escaped-variable"
    (a right-side-only OPT variable occurring outside its OPT subpattern,
    reported in `variable`).
    """

    kind: str
    subpattern: GraphPattern
    variable: Term | None = None

    def __str__(self) -> str:
        if self.kind == "nested-union":
            return f"UNION below AND/OPT in {serialize_pattern(self.subpattern)}"
        return (
            f"variable {self.variable} escapes the optional part of "
            f"{serialize_pattern(self.subpattern)}"
        )


class Block:
    """An AND-block of a UNION-free pattern: the triples its ANDs join, and
    the blocks its OPTs hang below it, in the pattern's order."""

    __slots__ = ("triples", "children")

    def __init__(self, triples: list[Triple], children: list["Block"]):
        self.triples = triples
        self.children = children


def _union_components(p: GraphPattern) -> list[GraphPattern]:
    """The operands of the top-level UNIONs, left to right."""
    out = []
    todo = [p]
    while todo:
        q = todo.pop()
        if q.__class__ is Node and q.op == UNION:
            todo += (q.right, q.left)
        else:
            out.append(q)
    return out


def _escaped(q: Node, totals: dict[Term, int]) -> Violation:
    """The violation at OPT node q: its least right-only variable that
    occurs outside it."""
    left, right = pattern_vars(q.left), pattern_vars(q.right)
    under: dict[Term, int] = {}
    for leaf in _preorder(q):
        if leaf.__class__ is Leaf:
            for x in {x for x in leaf.triple if x.is_var}:
                under[x] = under.get(x, 0) + 1
    escaped = [x for x in right - left if totals[x] > under[x]]
    return Violation("escaped-variable", q, min(escaped, key=str))


def _scan_component(comp: GraphPattern) -> Violation | Block:
    """The component's first violation in pre-order, or its root block."""
    nodes = _preorder(comp)
    leaf_vars: list[set[Term] | None] = []  # per node, a leaf's variables
    totals: dict[Term, int] = {}  # per variable, the leaves mentioning it
    for q in nodes:
        if q.__class__ is Leaf:
            found = {x for x in q.triple if x.is_var}
            for x in found:
                totals[x] = totals.get(x, 0) + 1
            leaf_vars.append(found)
        elif q.op == UNION:
            return Violation("nested-union", q)
        else:
            leaf_vars.append(None)
    # post-order: one entry per done node, [counts, open, triples, blocks],
    # `open` the variables whose count is below their total (they occur
    # outside the node); a node's right operand lies below its left one
    done: list[list] = []
    bad = None
    for idx in range(len(nodes) - 1, -1, -1):
        q = nodes[idx]
        found = leaf_vars[idx]
        if found is not None:
            opened = len([x for x in found if totals[x] > 1])
            done.append([dict.fromkeys(found, 1), opened, [q.triple], []])
            continue
        left = done.pop()
        right = done.pop()
        lc, rc = left[0], right[0]
        if q.op == OPT:
            # a variable open below the right operand and absent from the
            # left one occurs outside q
            if len(lc) <= len(rc):
                shared_open = sum(1 for x in lc if x in rc and rc[x] < totals[x])
                escapes = shared_open < right[1]
            else:
                escapes = any(x not in lc and c < totals[x] for x, c in rc.items())
            if escapes:
                bad = idx  # the last one found is the first in pre-order
            left[3].append(Block(right[2], right[3]))
        else:  # AND: one block of both operands' triples
            big, small = (left[2], right[2]) if len(left[2]) >= len(right[2]) else (right[2], left[2])
            big += small
            left[2] = big
            left[3] += right[3]
        big, small = (left, right) if len(lc) >= len(rc) else (right, left)
        counts, still_open = big[0], big[1]
        for x, c in small[0].items():
            before = counts.get(x)
            if before is None:
                counts[x] = c
                still_open += c < totals[x]
            else:
                counts[x] = before + c
                still_open -= before + c == totals[x]
        left[0], left[1] = counts, still_open
        done.append(left)
    if bad is not None:
        return _escaped(nodes[bad], totals)
    _, _, triples, blocks = done[0]
    return Block(triples, blocks)


def _scan(p: GraphPattern) -> tuple[Violation | None, list[Block]]:
    """The first violation of `p` (in top-level UNION component order, then
    pre-order) and, when there is none, each component's root block."""
    blocks = []
    for comp in _union_components(p):
        found = _scan_component(comp)
        if found.__class__ is Violation:
            return found, []
        blocks.append(found)
    return None, blocks


def well_designed_violation(p: GraphPattern) -> Violation | None:
    return _scan(p)[0]


def is_well_designed(p: GraphPattern) -> bool:
    return well_designed_violation(p) is None


def and_blocks(p: GraphPattern) -> tuple[Block, ...]:
    """The root AND-block of each top-level UNION component of a
    well-designed pattern, left to right: AND joins its operands' blocks
    (triples and hung blocks alike), OPT hangs its right operand's block
    below its left one's."""
    bad, blocks = _scan(p)
    if bad is not None:
        raise NotWellDesigned(str(bad))
    return tuple(blocks)
