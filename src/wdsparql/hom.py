"""Generalized t-graphs, homomorphism search, cores, Gaifman graphs, ctw.

A generalized t-graph is a pair (S, X) of a t-graph and a set of
distinguished variables; homomorphisms between two such pairs sharing X
must fix X pointwise, and IRIs always behave as rigid constants.

The search is a backtracking solver with a fixed variable order: each
next variable shares a source triple with one already ordered, the most
frequent first, ties by name (a disconnected rest restarts by the same
rule), so results are deterministic run to run, and the variables of a
triple are assigned close together, so a value that breaks it is undone
soon after it is tried.

A triple is checked at the level of its last variable, and the first
triple checked there is the level's driver.  The level's candidates are
the terms at its variable's position over the target's matches of the
driver, with the values of the driver's other variables in place, read
from the target's (position, term) index (`TGraph.values_at`), never from
a scan of the whole target: a variable next to an assigned one is drawn
from that value's neighbours only.  With the driver's other positions
fixed, the candidates come each once and in `str` order, so the search
meets its solutions in the order of a search over sorted domains.  Only a
variable with no driver takes the terms it meets in the matches of every
triple holding it.  A triple left with one free variable must still have
a match, so a value that leaves one without is undone at once; a driver's
matches are read then, at the level of its last variable but one.

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


def _domain(v: Term, source: TGraph, target: TGraph, fixed: dict[Term, Term]) -> list[Term]:
    """The terms v meets in the target's matches of every source triple
    holding it, with the pins in place, in `str` order."""
    here: set[Term] | None = None
    for t in source:
        if v in t.vars():
            found = target.values_at(t, t.terms.index(v), fixed)
            here = set(found) if here is None else here.intersection(found)
    return sorted(here, key=str)


def _solve(
    source: TGraph,
    target: TGraph,
    fixed: dict[Term, Term],
    *,
    find_all: bool = False,
) -> list[dict[Term, Term]]:
    """All (or the first) substitutions h with dom(h) = vars(source) mapping
    every source triple into the target; `fixed` pins values for some vars.

    Depth first over `_connected_order`.  Each level's candidates are the
    values at its variable's position over the target's matches of the
    level's driver, a triple whose other variables are pinned or assigned
    before it, with their values in place, read from the target's
    (position, term) index (`TGraph.values_at`): each once
    and in `str` order.  A level with no driver, such as the first of a
    connected piece with no pinned neighbour, takes the `_domain` of its
    variable, built up front; an empty one returns [] at once.  Every
    triple is checked at the level of its last variable, the driver too,
    and must keep a match from the level of its last variable but one.
    """
    src_vars = source.vars()
    if not src_vars:
        ok = all(t in target for t in source)
        return [{}] if ok else []

    occurrences: dict[Term, int] = dict.fromkeys(src_vars, 0)
    for t in source:
        for x in t.terms:
            if x.is_var:
                occurrences[x] += 1
    order = _connected_order(source, [v for v in src_vars if v not in fixed], occurrences)
    assigned = {v: fixed[v] for v in src_vars if v in fixed}
    target_set = target.triple_set

    # a triple is checked at the level of its last variable, and the first
    # one there is the level's driver; a triple with one free variable left
    # must have a match, looked up now when it has no other and otherwise
    # at the level of its last variable but one (`ahead`), where a driver's
    # values become its level's candidates
    rank = {v: i for i, v in enumerate(order)}
    ready: list[list[Triple]] = [[] for _ in order]
    ahead: list[list[tuple[Triple, int, int | None]]] = [[] for _ in order]
    cands: list[list[Term] | None] = [None] * len(order)
    for t in source:
        steps = sorted(rank[x] for x in t.vars() if x in rank)
        if not steps:
            if substitute(t, assigned) not in target_set:
                return []
            continue
        last = steps[-1]
        driver = not ready[last]
        ready[last].append(t)
        pos = t.terms.index(order[last])
        if len(steps) > 1:
            ahead[steps[-2]].append((t, pos, last if driver else None))
            continue
        found = target.values_at(t, pos, fixed)
        if not found:
            return []
        if driver:
            cands[last] = found
    for i, v in enumerate(order):
        if not ready[i]:
            cands[i] = _domain(v, source, target, fixed)
            if not cands[i]:
                return []
    if not order:
        return [dict(assigned)]

    # depth first over `order` with an explicit stack of candidate
    # iterators, one per assigned variable, so that the depth of the search
    # is not bounded by the interpreter's recursion limit
    solutions: list[dict[Term, Term]] = []
    stack = [iter(cands[0])]
    while stack:
        i = len(stack) - 1
        v = order[i]
        for c in stack[i]:
            assigned[v] = c
            if not all(substitute(t, assigned) in target_set for t in ready[i]):
                continue
            for t, pos, j in ahead[i]:
                found = target.values_at(t, pos, assigned)
                if not found:
                    break
                if j is not None:
                    cands[j] = found
            else:  # c passes
                break
        else:  # level i is exhausted: backtrack
            assigned.pop(v, None)
            stack.pop()
            continue
        if i + 1 < len(order):
            stack.append(iter(cands[i + 1]))
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
