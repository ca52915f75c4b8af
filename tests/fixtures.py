"""Shared fixtures: the worked examples every module is checked against."""

from __future__ import annotations

from wdsparql.terms import TGraph, Triple, iri, var
from wdsparql.trees import WdPF, WdPT

P1_TEXT = "(((?x,p,?y) OPT (?z,q,?x)) OPT ((?y,r,?o1) AND (?o1,r,?o2)))"
P2_TEXT = "(((?x,p,?y) OPT (?z,q,?x)) OPT ((?y,r,?z) AND (?z,r,?o2)))"
P_UNION_TEXT = f"({P1_TEXT} UNION ((?x,p,?y) OPT ((?z,q,?x) AND (?w,q,?z))))"


def clique_block(k: int, prefix: str = "o") -> tuple[list[Triple], list]:
    """The t-graph K_k(?o1..?ok) = {(?oi, r, ?oj) | i < j} and its variables."""
    vs = [var(f"{prefix}{i}") for i in range(1, k + 1)]
    triples = [
        Triple(vs[i], iri("r"), vs[j]) for i in range(k) for j in range(i + 1, k)
    ]
    return triples, vs


def clique_pattern_tgraph(k: int) -> TGraph:
    """The generalized t-graph S of the treewidth example: an anchored clique."""
    block, vs = clique_block(k)
    return TGraph(
        tuple(
            [
                Triple(var("z"), iri("q"), var("x")),
                Triple(var("x"), iri("p"), var("y")),
                Triple(var("y"), iri("r"), vs[0]),
            ]
            + block
        )
    )


def collapsing_tgraph(k: int) -> TGraph:
    """S' of the same example: the clique plus a self-loop sink it folds onto."""
    return TGraph(
        clique_pattern_tgraph(k).triples
        + (
            Triple(var("y"), iri("r"), var("o")),
            Triple(var("o"), iri("r"), var("o")),
        )
    )


XYZ = frozenset({var("x"), var("y"), var("z")})


def two_node_clique_tree(k: int) -> WdPT:
    """Root {(?y,r,?y)} with one child {(?y,r,?o1)} + K_k: branch width 1,
    local width k-1."""
    block, vs = clique_block(k)
    return WdPT(
        0,
        {1: 0},
        {
            0: TGraph((Triple(var("y"), iri("r"), var("y")),)),
            1: TGraph(tuple([Triple(var("y"), iri("r"), vs[0])] + block)),
        },
    )


def forest_family(k: int, with_third_tree: bool = False) -> WdPF:
    """The running two/three-tree forest family.

    Tree 0: root {(?x,p,?y)} with children {(?z,q,?x)} and {(?y,r,?o1)}+K_k.
    Tree 1: root {(?x,p,?y)} with child {(?z,q,?x),(?w,q,?z)}.
    Tree 2 (optional): root {(?x,p,?y),(?z,q,?x)} with child
    {(?y,r,?o),(?o,r,?o)}; adding it collapses the clique member's core and
    drops the domination width to 1 for every k.
    """
    block, vs = clique_block(k)
    t1 = WdPT(
        0,
        {1: 0, 2: 0},
        {
            0: TGraph((Triple(var("x"), iri("p"), var("y")),)),
            1: TGraph((Triple(var("z"), iri("q"), var("x")),)),
            2: TGraph(tuple([Triple(var("y"), iri("r"), vs[0])] + block)),
        },
    )
    t2 = WdPT(
        0,
        {1: 0},
        {
            0: TGraph((Triple(var("x"), iri("p"), var("y")),)),
            1: TGraph(
                (
                    Triple(var("z"), iri("q"), var("x")),
                    Triple(var("w"), iri("q"), var("z")),
                )
            ),
        },
    )
    trees = [t1, t2]
    if with_third_tree:
        trees.append(
            WdPT(
                0,
                {1: 0},
                {
                    0: TGraph(
                        (
                            Triple(var("x"), iri("p"), var("y")),
                            Triple(var("z"), iri("q"), var("x")),
                        )
                    ),
                    1: TGraph(
                        (
                            Triple(var("y"), iri("r"), var("o")),
                            Triple(var("o"), iri("r"), var("o")),
                        )
                    ),
                },
            )
        )
    return WdPF(tuple(trees))


def opt_star(n: int) -> WdPT:
    """Root {(?x,p,?r)} with n OPT children {(?x,q,?ai),(?ai,q,?bi)}: 2^n
    root subtrees."""
    x = var("x")
    labels = {0: TGraph((Triple(x, iri("p"), var("r")),))}
    for i in range(1, n + 1):
        a, b = var(f"a{i}"), var(f"b{i}")
        labels[i] = TGraph((Triple(x, iri("q"), a), Triple(a, iri("q"), b)))
    return WdPT(0, {i: 0 for i in range(1, n + 1)}, labels)


# ?x p ?a with one child: a directed triangle b -> c -> d -> b hanging off
# ?x, and a tail b -> e (dw = 2).  The tail folds into the triangle, so the
# child's core has three free variables, one per pebble of eval_pebble(k=2).
TRIANGLE_TAIL_TEXT = (
    "((?x,p,?a) OPT (((((?x,p,?b) AND (?b,p,?c)) AND (?c,p,?d)) AND (?d,p,?b)) AND (?b,p,?e)))"
)
TRIANGLE_TAIL_MAPPING_TEXT = "?x = i0\n?a = i1"


def complete_graph_text(n: int, predicate: str = "p") -> str:
    """Every triple i<j> predicate i<k> over n IRIs, loops included."""
    return "\n".join(f"i{j} {predicate} i{k}" for j in range(n) for k in range(n))
