"""Evaluation of graph patterns and pattern forests over ground RDF graphs.

Three routes:

* `eval_naive` implements the compositional set semantics directly on the
  pattern AST (works for arbitrary patterns, not just well-designed ones).
* `eval_tree` / `eval_forest` decide membership of a single mapping via the
  subtree characterization for NR-normal-form trees: one per-tree scan
  (`_scan`) finds mu's matched subtree and accepts when no child of it
  "extends", a test it takes as an argument; here the test is exact, a
  homomorphism search.  `enumerate_solutions` turns the same
  characterization into a solution enumerator and is the exponential
  oracle of the package, capped rather than clever.
* `eval_pebble` is the polynomial-time relaxation: the same scan, with the
  existential (k+1)-pebble game as the "child extends" test.  Rejection is
  always correct; acceptance is guaranteed correct when the forest's
  domination width is at most k.

`eval_forest` and `eval_pebble` decide each child t-graph on its core,
which the forest's `width.Analysis` builds on first use and keeps (a
forest outside the analysis caps is decided on its children as they
are).  Both tests read the same on a child and on its core: the two are
homomorphically equivalent with the distinguished variables fixed, and
a homomorphism extending mu exists from one iff it exists from the other
(compose with the map between them), while the existential pebble game
is preserved in the same way, its Duplicator strategies carried across
by those maps (Kolaitis and Vardi 2000; Dalmau, Kolaitis and Vardi
2002).  A core has no more free variables than its child, so the
relaxation more often fits every free variable under a pebble and runs a
homomorphism search instead of the consistency fixpoint.  `eval_tree`
and the enumerator build the children per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator

from .errors import InstanceTooLarge, InvalidK, NonGroundGraph
from .hom import GeneralizedTGraph, all_homomorphisms, maps_into_graph
from .patterns import AND, OPT, UNION, GraphPattern, Leaf
from .pebble import pebble_wins
from .terms import Mapping, TGraph, Triple
from .trees import WdPF, WdPT
from .width import Analysis

DEFAULT_ENUM_VAR_CAP = 12


@dataclass(frozen=True)
class SolutionSet:
    """A set of mappings in canonical order (sorted domain, then values)."""

    mappings: tuple[Mapping, ...] = ()

    def __post_init__(self):
        members = frozenset(self.mappings)
        unique = sorted(
            members,
            key=lambda m: tuple((k.name, v.name) for k, v in m.items()),
        )
        unique.sort(key=lambda m: tuple(sorted(k.name for k, _ in m.items())))
        object.__setattr__(self, "mappings", tuple(unique))
        object.__setattr__(self, "_members", members)

    def __iter__(self):
        return iter(self.mappings)

    def __len__(self) -> int:
        return len(self.mappings)

    def __contains__(self, m: Mapping) -> bool:
        return m in self._members

    def __str__(self) -> str:
        return "\n".join(str(m) for m in self.mappings)


def _match_triple(t: Triple, graph: TGraph) -> list[Mapping]:
    slots = [(pos, x) for pos, x in enumerate(t.terms) if x.is_var]
    return [
        Mapping.of({x: u.terms[pos] for pos, x in slots}) for u in graph.matching(t)
    ]


def eval_naive(p: GraphPattern, graph: TGraph) -> SolutionSet:
    """The recursive set semantics; `p` need not be well designed."""
    if not graph.is_ground():
        raise NonGroundGraph("evaluation target must be a ground RDF graph")

    def rec(q: GraphPattern) -> list[Mapping]:
        if isinstance(q, Leaf):
            return _match_triple(q.triple, graph)
        left, right = rec(q.left), rec(q.right)
        if q.op == UNION:
            return left + right
        joined = [
            m1.merge(m2) for m1 in left for m2 in right if m1.compatible(m2)
        ]
        if q.op == AND:
            return joined
        bare = [
            m1 for m1 in left if not any(m1.compatible(m2) for m2 in right)
        ]
        return joined + bare  # OPT

    return SolutionSet(tuple(rec(p)))


# ---------------------------------------------------------------------------
# subtree-characterization evaluation


def matched_subtree(tree: WdPT, graph: TGraph, mu: Mapping) -> frozenset[int] | None:
    """The unique subtree whose pattern mu maps into the graph, if any.

    Greedy maximal inclusion of nodes n with vars(n) inside dom(mu) and
    mu(pat(n)) inside the graph; NR normal form makes the result unique.
    Returns None when even the maximal candidate misses part of dom(mu).
    """
    tree.ensure_nr()
    dom = mu.domain

    def fits(n: int) -> bool:
        label = tree.label(n)
        return label.vars() <= dom and all(mu.apply(t) in graph for t in label)

    nodes = tree.maximal_subtree(fits)
    if nodes is None or tree.vars(nodes) != dom:
        return None
    return nodes


_Children = Callable[[frozenset[int]], Iterable[GeneralizedTGraph]]


def _exact_extends(g: GeneralizedTGraph, graph: TGraph, mu: Mapping) -> bool:
    return maps_into_graph(g, graph, mu) is not None


def _scan(
    tree: WdPT, graph: TGraph, mu: Mapping, extends: Callable[..., bool], children: _Children
) -> bool:
    """mu's matched subtree exists and no child t-graph of it, as `children`
    supplies them for the subtree's nodes, passes `extends`."""
    nodes = matched_subtree(tree, graph, mu)
    return nodes is not None and not any(extends(g, graph, mu) for g in children(nodes))


def _forest_children(forest: WdPF) -> Iterator[tuple[WdPT, _Children]]:
    """Each tree with the supplier of its child t-graphs: the cores kept in
    the forest's analysis, or, for a forest outside the analysis caps, the
    children themselves, built per call."""
    a = Analysis.within_caps(forest)
    for i, tree in enumerate(forest):
        yield tree, tree.child_tgraphs if a is None else partial(a.child_cores, i)


def eval_tree(tree: WdPT, graph: TGraph, mu: Mapping) -> bool:
    """mu is a solution iff its matched subtree exists and no child of it
    admits a homomorphism into the graph compatible with mu."""
    if not graph.is_ground():
        raise NonGroundGraph("evaluation target must be a ground RDF graph")
    return _scan(tree, graph, mu, _exact_extends, tree.child_tgraphs)


def eval_forest(forest: WdPF, graph: TGraph, mu: Mapping) -> bool:
    """Whether some tree of the forest accepts mu, as `eval_tree` decides
    it, each child tested on its kept core."""
    if not graph.is_ground():
        raise NonGroundGraph("evaluation target must be a ground RDF graph")
    return any(
        _scan(tree, graph, mu, _exact_extends, children)
        for tree, children in _forest_children(forest)
    )


def enumerate_solutions(
    forest: WdPF, graph: TGraph, *, var_cap: int = DEFAULT_ENUM_VAR_CAP
) -> SolutionSet:
    """All solutions of the forest, by exhausting subtrees and homomorphisms.

    Exponential by design: this is the oracle, not the product.
    """
    forest.ensure_nr()
    if not graph.is_ground():
        raise NonGroundGraph("evaluation target must be a ground RDF graph")
    n_vars = len(forest.vars())
    if n_vars > var_cap:
        raise InstanceTooLarge(
            f"{n_vars} pattern variables exceed the enumeration cap of {var_cap}"
        )
    found: list[Mapping] = []
    for tree in forest:
        for nodeset in tree.subtree_nodesets():
            kids = list(tree.child_tgraphs(nodeset))
            for h in all_homomorphisms(tree.pat(nodeset), graph):
                mu = Mapping.of(h)  # dom(h) = vars(nodeset) by construction
                if not any(_exact_extends(g, graph, mu) for g in kids):
                    found.append(mu)
    return SolutionSet(tuple(found))


def eval_pebble(forest: WdPF, graph: TGraph, mu: Mapping, k: int) -> bool:
    """The width-k relaxation: sound always, complete when dw(forest) <= k."""
    if k < 1:
        raise InvalidK(f"the relaxation needs k >= 1, got {k}")
    forest.ensure_nr()
    if not graph.is_ground():
        raise NonGroundGraph("evaluation target must be a ground RDF graph")
    extends = partial(pebble_wins, k=k + 1)
    return any(
        _scan(tree, graph, mu, extends, children)
        for tree, children in _forest_children(forest)
    )
