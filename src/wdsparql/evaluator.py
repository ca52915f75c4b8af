"""Evaluation of graph patterns and pattern forests over ground RDF graphs.

Three routes:

* `eval_naive` implements the compositional set semantics directly on the
  pattern AST (works for arbitrary patterns, not just well-designed ones).
* `eval_tree` / `eval_forest` decide membership of a single mapping via the
  subtree characterization for NR-normal-form trees; `enumerate_solutions`
  turns the same characterization into a solution enumerator and is the
  exponential oracle of the package, capped rather than clever.
* `eval_pebble` is the polynomial-time relaxation: the same per-tree scan,
  but children extensions are tested with the existential (k+1)-pebble game
  instead of a homomorphism search.  Rejection is always correct; acceptance
  is guaranteed correct when the forest's domination width is at most k.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InstanceTooLarge, InvalidK, NonGroundGraph
from .hom import GeneralizedTGraph, all_homomorphisms, maps_into_graph
from .patterns import AND, OPT, UNION, GraphPattern, Leaf
from .pebble import pebble_wins
from .terms import Mapping, TGraph, Triple
from .trees import Subtree, WdPF, WdPT, subtree_children, subtree_pat

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

    if not fits(tree.root):
        return None
    keep = {tree.root}
    queue = list(tree.children(tree.root))
    while queue:
        n = queue.pop(0)
        if fits(n):
            keep.add(n)
            queue.extend(tree.children(n))
    if tree.vars(keep) != dom:
        return None
    return frozenset(keep)


def _child_extends(
    tree: WdPT, nodes: frozenset[int], child: int, graph: TGraph, mu: Mapping
) -> bool:
    merged = GeneralizedTGraph(
        tree.pat(nodes) | tree.label(child), tree.vars(nodes)
    )
    return maps_into_graph(merged, graph, mu) is not None


def eval_tree(tree: WdPT, graph: TGraph, mu: Mapping) -> bool:
    """mu is a solution iff its matched subtree exists and no child of it
    admits a homomorphism into the graph compatible with mu."""
    if not graph.is_ground():
        raise NonGroundGraph("evaluation target must be a ground RDF graph")
    nodes = matched_subtree(tree, graph, mu)
    if nodes is None:
        return False
    outside = [
        c for n in nodes for c in tree.children(n) if c not in nodes
    ]
    return not any(_child_extends(tree, nodes, c, graph, mu) for c in outside)


def eval_forest(forest: WdPF, graph: TGraph, mu: Mapping) -> bool:
    return any(eval_tree(tree, graph, mu) for tree in forest)


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
    for i, tree in enumerate(forest):
        for nodeset in tree.subtree_nodesets():
            sub = Subtree(i, nodeset)
            pat = subtree_pat(forest, sub)
            kids = subtree_children(forest, sub)
            for h in all_homomorphisms(pat, graph):
                mu = Mapping.of(h)  # dom(h) = vars(sub) by construction
                if not any(
                    _child_extends(tree, nodeset, c, graph, mu) for c in kids
                ):
                    found.append(mu)
    return SolutionSet(tuple(found))


def eval_pebble(forest: WdPF, graph: TGraph, mu: Mapping, k: int) -> bool:
    """The width-k relaxation: sound always, complete when dw(forest) <= k."""
    if k < 1:
        raise InvalidK(f"the relaxation needs k >= 1, got {k}")
    forest.ensure_nr()
    if not graph.is_ground():
        raise NonGroundGraph("evaluation target must be a ground RDF graph")
    for tree in forest:
        nodes = matched_subtree(tree, graph, mu)
        if nodes is None:
            continue
        outside = [c for n in nodes for c in tree.children(n) if c not in nodes]
        extendable = False
        for c in outside:
            merged = GeneralizedTGraph(
                tree.pat(nodes) | tree.label(c), tree.vars(nodes)
            )
            if pebble_wins(merged, graph, mu, k + 1):
                extendable = True
                break
        if not extendable:
            return True
    return False
