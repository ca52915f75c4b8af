"""Generalized t-graphs, homomorphism search, cores, Gaifman graphs, ctw.

A generalized t-graph is a pair (S, X) of a t-graph and a set of
distinguished variables; homomorphisms between two such pairs sharing X
must fix X pointwise, and IRIs always behave as rigid constants.

The search is a backtracking solver with a fixed variable order
(descending occurrence count, ties by name), so results are deterministic
run to run.  A variable's candidate domain is the set of terms it meets
in the target's matches of every source triple holding it; the matches of
each source triple come once from the target's (position, IRI) index
(`TGraph.matching`), never from a scan of the whole target, with the
pinned values substituted first, so a variable next to a pinned one is
drawn from that value's neighbours only.

Nothing here is cached across calls: `ctw` memoizes only into a dict its
caller passes, keyed by the generalized t-graph alone, which
`width.Analysis` keeps for as long as its forest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    order = sorted(
        (v for v in src_vars if v not in fixed),
        key=lambda v: (-occurrences[v], v.name),
    )
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
    fixed = {x: x for x in g.dist if x in current.vars()}
    changed = True
    while changed:
        changed = False
        for skip in current:
            rest = TGraph(tuple(t for t in current if t != skip))
            found = _solve(current, rest, fixed)
            if found:
                h = found[0]
                current = TGraph(tuple(substitute(t, h) for t in current))
                fixed = {x: x for x in g.dist if x in current.vars()}
                changed = True
                break
    return GeneralizedTGraph(current, g.dist, declared=g.declared)


# ---------------------------------------------------------------------------
# Gaifman graphs, treewidth of generalized t-graphs, ctw


def gaifman(g: GeneralizedTGraph) -> UndirectedGraph:
    """Co-occurrence graph of the non-distinguished variables."""
    vertices = g.free_vars()
    edges = set()
    for t in g.tgraph:
        here = sorted(t.vars() & vertices, key=str)
        for i, a in enumerate(here):
            for b in here[i + 1 :]:
                if a != b:
                    edges.add(frozenset((a, b)))
    return UndirectedGraph(frozenset(vertices), frozenset(edges))


def ctw(g: GeneralizedTGraph, memo: dict[GeneralizedTGraph, int] | None = None) -> int:
    """Treewidth of the core of (S, X).

    Kept in `memo`, keyed by the t-graph, when the caller passes one (a
    `width.Analysis` passes its own); nothing is kept otherwise.
    """
    if memo is None:
        memo = {}
    if g not in memo:
        memo[g] = treewidth(gaifman(core(g)))
    return memo[g]
