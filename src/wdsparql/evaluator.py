"""Evaluation of graph patterns and pattern forests over ground RDF graphs.

Three routes:

* `eval_naive` implements the compositional set semantics directly on the
  pattern AST (works for arbitrary patterns, not just well-designed ones).
* `eval_forest` decides membership of a single mapping via the subtree
  characterization for NR-normal-form forests: one scan (`_decide`) finds
  mu's matched subtree in each tree and accepts when no child of it
  "extends", a test it takes as an argument; here the test is exact, a
  homomorphism search.  `eval_tree` is `eval_forest` on a one-tree
  forest.  `enumerate_solutions` turns the same characterization into a
  solution enumerator and is the exponential oracle of the package,
  capped rather than clever; it builds its children itself.
* `eval_pebble` is the polynomial-time relaxation: the same scan, with the
  existential (k+1)-pebble game as the "child extends" test.  Rejection is
  always correct; acceptance is guaranteed correct when the forest's
  domination width is at most k.

The scan decides each child t-graph on its core, which the forest's
`width.Analysis` builds on first use and keeps, for every NR forest (the
analysis caps guard only the width work).  Both tests read the same on a
child and on its core: the two are homomorphically equivalent with the
distinguished variables fixed, and a homomorphism extending mu exists
from one iff it exists from the other (compose with the map between
them), while the existential pebble game is preserved in the same way,
its Duplicator strategies carried across by those maps (Kolaitis and
Vardi 2000; Dalmau, Kolaitis and Vardi 2002).  A core has no more free
variables than its child, so the relaxation more often fits every free
variable under a pebble and runs a homomorphism search instead of the
consistency fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from .errors import InstanceTooLarge, InvalidK, NonGroundGraph
from .hom import GeneralizedTGraph, all_homomorphisms, maps_into_graph
from .patterns import AND, OPT, UNION, GraphPattern, Leaf
from .pebble import pebble_wins
from .terms import Mapping, TGraph, Triple
from .trees import WdPF, WdPT
from .width import Analysis

MAX_ENUM_VARS = 12


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


def _exact_extends(g: GeneralizedTGraph, graph: TGraph, mu: Mapping) -> bool:
    return maps_into_graph(g, graph, mu) is not None


def _decide(forest: WdPF, graph: TGraph, mu: Mapping, extends: Callable[..., bool]) -> bool:
    """Some tree holds mu's matched subtree, and no child t-graph of it, as
    the forest's analysis keeps it cored, passes `extends`."""
    if not graph.is_ground():
        raise NonGroundGraph("evaluation target must be a ground RDF graph")
    a = Analysis.of(forest)
    for i, tree in enumerate(forest):
        nodes = matched_subtree(tree, graph, mu)
        if nodes is not None and not any(extends(g, graph, mu) for g in a.child_cores(i, nodes)):
            return True
    return False


def eval_tree(tree: WdPT, graph: TGraph, mu: Mapping) -> bool:
    """mu is a solution iff its matched subtree exists and no child of it
    admits a homomorphism into the graph compatible with mu."""
    return eval_forest(WdPF((tree,)), graph, mu)


def eval_forest(forest: WdPF, graph: TGraph, mu: Mapping) -> bool:
    """Whether some tree of the forest accepts mu, as `eval_tree` decides
    it, each child tested on its kept core."""
    return _decide(forest, graph, mu, _exact_extends)


def enumerate_solutions(forest: WdPF, graph: TGraph) -> SolutionSet:
    """All solutions of the forest, by exhausting subtrees and homomorphisms.

    Exponential by design: this is the oracle, not the product.
    """
    forest.ensure_nr()
    if not graph.is_ground():
        raise NonGroundGraph("evaluation target must be a ground RDF graph")
    n_vars = len(forest.vars())
    if n_vars > MAX_ENUM_VARS:
        raise InstanceTooLarge(
            f"{n_vars} pattern variables exceed the enumeration cap of {MAX_ENUM_VARS}"
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
    return _decide(forest, graph, mu, partial(pebble_wins, k=k + 1))
