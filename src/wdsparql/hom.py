"""Generalized t-graphs, homomorphism search, cores, Gaifman graphs, ctw.

A generalized t-graph is a pair (S, X) of a t-graph and a set of
distinguished variables; homomorphisms between two such pairs sharing X
must fix X pointwise, and IRIs always behave as rigid constants.

The search is a backtracking solver with a fixed variable order: each
next variable shares a source triple with one already ordered, the most
frequent first, ties by name (a disconnected rest restarts by the same
rule), so results are deterministic run to run, and the variables of a
triple are assigned close together, so a value that breaks it is undone
soon after it is tried.  A variable's candidate domain is the set of
terms it meets in the target's matches of every source triple holding
it; the matches of each source triple come once from the target's
(position, IRI) index (`TGraph.matching`), never from a scan of the
whole target, with the pinned values substituted first, so a variable
next to a pinned one is drawn from that value's neighbours only.

Nothing here is cached across calls; `width.Analysis` keeps the ctw
values of its forest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import combinations

from .errors import DomainMismatch, MismatchedDistinguishedSets, NonGroundGraph
from .graphs import UndirectedGraph, treewidth
from .terms import Mapping, TGraph, Term, Triple, substitute


@dataclass(frozen=True)
class GeneralizedTGraph:
    tgraph: TGraph
    dist: frozenset[Term]
    declared: bool = field(default=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dist", frozenset(self.dist))
        for x in self.dist:
            if not x.is_var:
                raise ValueError(f"distinguished term {x} is not a variable")
        if not self.declared and not self.dist <= self.tgraph.vars():
            extra = min(self.dist - self.tgraph.vars(), key=str)
            raise ValueError(f"distinguished variable {extra} does not occur in the t-graph")

    def free_vars(self) -> frozenset[Term]:
        return self.tgraph.vars() - self.dist

    def __str__(self) -> str:
        xs = ", ".join(str(x) for x in sorted(self.dist, key=str))
        return f"({self.tgraph}, {{{xs}}})"


# ---------------------------------------------------------------------------
# backtracking search


def _connected_order(source: TGraph, free: list[Term], occurrences: dict[Term, int]) -> list[Term]:
    """`free` in search order: each next variable shares a source triple with
    one already ordered where one can, the most frequent first, ties by
    name, and a rest that shares none restarts by the same rule.  On two
    variables that is the frequency-then-name order, so no walk is made."""
    by_key = {(-occurrences[v], v.name): v for v in free}
    if len(free) <= 2:
        return [by_key[k] for k in sorted(by_key)]
    nbrs: dict[Term, set[Term]] = {v: set() for v in free}
    for t in source:
        here = t.vars() & nbrs.keys()
        for v in here:
            nbrs[v] |= here
    order: list[Term] = []
    seen: set[Term] = set()
    for start in sorted(by_key):
        heap = [start]
        while heap:
            v = by_key[heappop(heap)]
            if v not in seen:
                seen.add(v)
                order.append(v)
                for u in nbrs[v] - seen:
                    heappush(heap, (-occurrences[u], u.name))
    return order


def _solve(
    source: TGraph,
    target: TGraph,
    fixed: dict[Term, Term],
    *,
    find_all: bool = False,
) -> list[dict[Term, Term]]:
    """All (or the first) substitutions h with dom(h) = vars(source) mapping
    every source triple into the target; `fixed` pins values for some vars."""
    src_vars = source.vars()
    if not src_vars:
        ok = all(t in target for t in source)
        return [{}] if ok else []

    # IRI values are substituted before the index lookup; a variable pinned
    # to a variable of the target is checked on the matches instead
    iri_fixed = {v: c for v, c in fixed.items() if c.is_iri}
    occurrences: dict[Term, int] = dict.fromkeys(src_vars, 0)
    cands: dict[Term, set[Term]] = {}
    for t in source:
        matches = target.matching(substitute(t, iri_fixed) if iri_fixed else t)
        for pos, term in enumerate(t.terms):
            if term in fixed and not fixed[term].is_iri:
                matches = [u for u in matches if u.terms[pos] == fixed[term]]
        if not matches:
            return []
        for pos, term in enumerate(t.terms):
            if term.is_var and term not in fixed:
                occurrences[term] += 1
                here = {u.terms[pos] for u in matches}
                cands[term] = cands[term] & here if term in cands else here
    domains: dict[Term, list[Term]] = {}
    for v, here in cands.items():
        if not here:
            return []
        domains[v] = sorted(here, key=str)

    order = _connected_order(source, [v for v in src_vars if v not in fixed], occurrences)
    assigned = {v: fixed[v] for v in src_vars if v in fixed}
    target_set = target.triple_set

    # triples become checkable once their last variable is assigned
    rank = {v: i for i, v in enumerate(order)}
    ready: list[list[Triple]] = [[] for _ in order]
    for t in source:
        steps = [rank[v] for v in t.vars() if v in rank]
        if not steps:
            if substitute(t, assigned) not in target_set:
                return []
        else:
            ready[max(steps)].append(t)

    if not order:
        return [dict(assigned)]

    # depth first over `order` with an explicit stack of candidate
    # iterators, one per assigned variable, so that the depth of the search
    # is not bounded by the interpreter's recursion limit
    solutions: list[dict[Term, Term]] = []
    stack = [iter(domains[order[0]])]
    while stack:
        i = len(stack) - 1
        v = order[i]
        for c in stack[i]:
            assigned[v] = c
            if all(substitute(t, assigned) in target_set for t in ready[i]):
                break
        else:  # level i is exhausted: backtrack
            del assigned[v]
            stack.pop()
            continue
        if i + 1 < len(order):
            stack.append(iter(domains[order[i + 1]]))
        else:
            solutions.append(dict(assigned))
            if not find_all:
                break
    return solutions


def find_homomorphism(
    source: GeneralizedTGraph, target: GeneralizedTGraph
) -> dict[Term, Term] | None:
    """A homomorphism (S,X) -> (S',X) fixing X pointwise, or None."""
    if source.dist != target.dist:
        raise MismatchedDistinguishedSets(
            f"{sorted(map(str, source.dist))} vs {sorted(map(str, target.dist))}"
        )
    fixed = {x: x for x in source.dist if x in source.tgraph.vars()}
    found = _solve(source.tgraph, target.tgraph, fixed)
    return found[0] if found else None


def maps_into_graph(
    g: GeneralizedTGraph, graph: TGraph, mu: Mapping
) -> dict[Term, Term] | None:
    """A homomorphism h from S to the ground graph with h(x) = mu(x) on X."""
    if not graph.is_ground():
        raise NonGroundGraph("target graph contains variables")
    if mu.domain != g.dist:
        raise DomainMismatch(
            f"mapping domain {sorted(map(str, mu.domain))} differs from "
            f"distinguished set {sorted(map(str, g.dist))}"
        )
    fixed = {x: v for x, v in mu.items() if x in g.tgraph.vars()}
    found = _solve(g.tgraph, graph, fixed)
    return found[0] if found else None


def all_homomorphisms(
    source: TGraph, target: TGraph, fixed: dict[Term, Term] | None = None
) -> list[dict[Term, Term]]:
    return _solve(source, target, dict(fixed or {}), find_all=True)


def is_homomorphism(
    source: TGraph, target: TGraph, h: dict[Term, Term]
) -> bool:
    if set(h) != set(source.vars()):
        return False
    return all(substitute(t, h) in target for t in source)


# ---------------------------------------------------------------------------
# cores


def core(g: GeneralizedTGraph) -> GeneralizedTGraph:
    """The core of (S, X): iterated proper retraction with X fixed.

    Repeatedly looks for an endomorphism avoiding one triple (its image is a
    proper subset) and replaces S by the image; the fixpoint admits no
    homomorphism to a proper subgraph.  Deterministic via canonical triple
    order, so the representative is stable (uniqueness is up to renaming).
    """
    current = g.tgraph
    # a retraction fixes X, so the variables of X in S stay in every image
    fixed = {x: x for x in g.dist if x in current.vars()}
    while True:
        for skip in current:
            found = _solve(current, TGraph(tuple(t for t in current if t != skip)), fixed)
            if found:
                current = TGraph(tuple(substitute(t, found[0]) for t in current))
                break
        else:  # no proper retraction is left
            return GeneralizedTGraph(current, g.dist, declared=g.declared)


# ---------------------------------------------------------------------------
# Gaifman graphs, treewidth of generalized t-graphs, ctw


def gaifman(g: GeneralizedTGraph) -> UndirectedGraph:
    """Co-occurrence graph of the non-distinguished variables."""
    vertices = g.free_vars()
    edges = {frozenset(e) for t in g.tgraph for e in combinations(t.vars() & vertices, 2)}
    return UndirectedGraph(vertices, edges)


def ctw(g: GeneralizedTGraph) -> int:
    """Treewidth of the core of (S, X)."""
    return treewidth(gaifman(core(g)))
