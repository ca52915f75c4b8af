"""Generalized t-graphs, homomorphism search, cores, Gaifman graphs, ctw.

A generalized t-graph is a pair (S, X) of a t-graph and a set of
distinguished variables; homomorphisms between two such pairs sharing X
must fix X pointwise, and IRIs always behave as rigid constants.

The search is a backtracking solver with a fixed variable order
(descending occurrence count, ties by name), so results are deterministic
run to run.  A variable's candidate domain is the set of terms it meets
in the target's matches of every source triple holding it; the matches of
each source triple come once from the target's (position, IRI) index
(`TGraph.matching`), never from a scan of the whole target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import DomainMismatch, MismatchedDistinguishedSets, NonGroundGraph
from .graphs import DEFAULT_TW_CAP, UndirectedGraph, treewidth
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

    @classmethod
    def of(cls, triples, dist) -> "GeneralizedTGraph":
        return cls(TGraph(tuple(triples)), frozenset(dist))

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

    occurrences: dict[Term, int] = dict.fromkeys(src_vars, 0)
    cands: dict[Term, set[Term]] = {}
    for t in source:
        matches = target.matching(t)
        if not matches:
            return []
        for pos, term in enumerate(t.terms):
            if term.is_var:
                occurrences[term] += 1
                here = {u.terms[pos] for u in matches}
                cands[term] = cands[term] & here if term in cands else here
    domains: dict[Term, list[Term]] = {}
    for v in src_vars:
        here = cands[v]
        if v in fixed:
            here = here & {fixed[v]}
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

    solutions: list[dict[Term, Term]] = []

    def dfs(i: int) -> bool:
        if i == len(order):
            solutions.append(dict(assigned))
            return not find_all
        v = order[i]
        for c in domains[v]:
            assigned[v] = c
            if all(substitute(t, assigned) in target_set for t in ready[i]):
                if dfs(i + 1):
                    return True
        del assigned[v]
        return False

    dfs(0)
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
    fixed_base = g.dist
    changed = True
    while changed:
        changed = False
        for skip in current:
            rest = TGraph(tuple(t for t in current if t != skip))
            fixed = {x: x for x in fixed_base if x in current.vars()}
            found = _solve(current, rest, fixed)
            if found:
                h = found[0]
                current = TGraph(tuple(substitute(t, h) for t in current))
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


def tgraph_treewidth(g: GeneralizedTGraph, cap: int = DEFAULT_TW_CAP) -> int:
    return treewidth(gaifman(g), cap=cap)


@lru_cache(maxsize=None)
def _ctw(g: GeneralizedTGraph, cap: int) -> int:
    return treewidth(gaifman(core(g)), cap=cap)


def ctw(g: GeneralizedTGraph, cap: int = DEFAULT_TW_CAP) -> int:
    """Treewidth of the core of (S, X)."""
    return _ctw(g, cap)
