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

It is planned once and run many times.  A `Plan` of a source t-graph and
the set of its variables that each run pins depends on nothing else, so
it holds the order and every lookup the search makes, compiled: a lookup
is an access path (a mask of bound positions and, when the triple's
predicate is an IRI, that predicate; a key read from a list of slot
values; the position it outputs), answered by one read of the target's
`TGraph.by_mask` index for that mask and predicate, which holds that
predicate's triples alone, or, with every position bound, a membership
test in its set of that predicate's triples (`TGraph.members`), and no
`Triple` is built while searching.
`_solve` runs a plan on a target with values for the pinned variables.
A triple is checked at the level of its last variable, and the first
triple checked there is the level's driver.  The level's
candidates are the terms at its variable's position over the target's
matches of the driver, with the values of the driver's other variables in
place, never a scan of the whole target: a variable next to an assigned
one is drawn from that value's neighbours only.  With the driver's other
positions fixed, the candidates come each once and in `str` order, so the
search meets its solutions in the order of a search over sorted domains.
Only a variable with no driver takes the terms it meets in the matches of
every triple holding it.  A triple left with one free variable must still
have a match, so a value that leaves one without is undone at once; a
driver's matches are read then, at the level of its last variable but
one.  A run that tries more than MAX_SEARCH_NODES values raises
`SearchTooLarge`.

A source t-graph keeps its plans, one per pinned set (`TGraph.plans`), as
a target keeps its indexes: `_plan` builds one on the first
search of its shape.  Only a tree's subtree record holds one beside it,
the plan of each child test (`trees.WdPT.child_tests`), which `search`
runs.  A plan holds no reference to its t-graph, which would put every
searched t-graph in a reference cycle.  `core` plans each intermediate t-graph once for all its tries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import combinations
from typing import Iterable

from .errors import DomainMismatch, MismatchedDistinguishedSets, NonGroundGraph, SearchTooLarge
from .graphs import UndirectedGraph, treewidth
from .terms import Mapping, TGraph, Term, Triple, key_getter, substitute, ties_of

# The most candidate values one search (one `_solve` call) tries before it
# raises SearchTooLarge; without it a search that finds nothing may try
# every assignment of its free variables.  The most any test tries is
# 151,232 (the k = 3 clique gadget mapped back onto its witness, about
# 0.9 s on a 2-vCPU VM); over the benchmark streams at seeds 5, 29 and 60,
# 61 in a membership op (seed 60), 31 in answers, 6 in hardness and 8 in a
# membership set-up.
MAX_SEARCH_NODES = 2_000_000


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


class Plan:
    """A homomorphism search from `source`, compiled once for the set of
    its variables in `pinned`, whose values each run gives; only the
    target and those values vary from run to run, and nothing of either is
    kept, so one plan serves any number of targets and pin values.

    It holds the variable order (`_connected_order` of the unpinned
    variables), and each source variable, pinned ones first, then in that
    order, and each IRI of the source a slot in the run's list of values:
    `names` are the variables by slot, and `tail` is that list past the
    pinned values (blanks to assign, then the IRIs), which a run copies.
    So `len(order)` is the number of free variables of a search.
    Every lookup is an access path: a mask of bound positions with the
    pairs of free positions that a repeated variable ties and, when the
    triple's predicate is an IRI, that predicate (the mask then leaves
    position 1 out, unless every position is bound and the key is the
    triple itself), a key getter over the slots, the position it outputs
    and the level whose candidates it gives, if any.  A triple with no
    unpinned variable is a lookup at the start with every position bound
    (a membership test); so is every other triple at the level of its
    last variable but the level's driver, whose look-ahead gave the
    level's candidates.  A triple's look-ahead, with
    one variable free, runs at the start when it has only one unpinned
    variable, and otherwise at the level of its last variable but one.  A
    level with no driver keeps the lookups of every triple holding its
    variable, read at the start by `_domain`.  No `Triple` is built: each
    key is read from the slots, and each lookup is one read of the target's
    `TGraph.by_mask` index for its mask and predicate, or, with every
    position bound, one membership test in `TGraph.members` of its
    predicate; each index and set is fetched once at the start of a run.
    """

    __slots__ = ("pinned", "order", "names", "tail", "masks", "first", "levels", "domains")

    def __init__(self, source: TGraph, pinned: Iterable[Term] = ()):
        src_vars = source.vars()
        self.pinned = tuple(sorted(src_vars.intersection(pinned), key=str))
        occurrences: dict[Term, int] = dict.fromkeys(src_vars, 0)
        for t in source:
            for x in t:
                if x.is_var:
                    occurrences[x] += 1
        pinned_set = frozenset(self.pinned)
        free = [v for v in src_vars if v not in pinned_set]
        self.order = order = _connected_order(source, free, occurrences)
        self.names = (*self.pinned, *order)
        consts = sorted(source.iris(), key=str)
        # the slots after the pinned values: blank ones to assign, then the IRIs
        self.tail = [None] * len(order) + consts
        slots = {x: i for i, x in enumerate((*self.names, *consts))}
        masks: dict[tuple, int] = {}

        def path(t: Triple, known, free: Term | None = None, j: int | None = None) -> tuple:
            # the access path of t with the variables of `known` bound,
            # into the index of t's predicate when that is an IRI
            bound = tuple(i for i, x in enumerate(t) if x.is_iri or x in known)
            p = t[1] if t[1].is_iri else None
            mask = bound if p is None or len(bound) == 3 else tuple(i for i in bound if i != 1)
            get = key_getter(tuple(slots[t[i]] for i in mask))
            pos = None if free is None else t.index(free)
            return masks.setdefault((mask, ties_of(t, bound), p), len(masks)), get, pos, j

        rank = {v: i for i, v in enumerate(order)}
        self.first: list[tuple] = []
        checks: list[list[tuple]] = [[] for _ in order]
        ahead: list[list[tuple]] = [[] for _ in order]
        driven = [False] * len(order)
        for t in source:
            steps = sorted(rank[x] for x in t.vars() if x in rank)
            if not steps:
                self.first.append(path(t, src_vars))
                continue
            last = steps[-1]
            v = order[last]
            if driven[last]:
                checks[last].append(path(t, src_vars))
                look = path(t, t.vars() - {v}, v)
            else:
                driven[last] = True
                look = path(t, t.vars() - {v}, v, last)
            (ahead[steps[-2]] if len(steps) > 1 else self.first).append(look)
        self.levels = [c + a for c, a in zip(checks, ahead)]
        self.domains = [
            None if driven[i] else [path(t, pinned_set, v) for t in source if v in t.vars()]
            for i, v in enumerate(order)
        ]
        self.masks = tuple(masks)


def _plan(source: TGraph, pinned: frozenset[Term]) -> Plan:
    """The plan of the searches from source that pin `pinned`, built on
    the first and kept on the t-graph for the rest."""
    plans = source.plans()
    plan = plans.get(pinned)
    if plan is None:
        plan = plans[pinned] = Plan(source, pinned)
    return plan


def _domain(paths: list[tuple], indexes: list, vals: list) -> list[Term]:
    """The terms a variable meets in the target's matches of every source
    triple holding it, with the pins in place, in `str` order."""
    here: set[Term] | None = None
    for m, get, pos, _ in paths:
        found = {u[pos] for u in indexes[m](get(vals), ())}
        here = found if here is None else here & found
    return sorted(here, key=str)


def _solve(
    plan: Plan,
    target: TGraph,
    fixed: dict[Term, Term],
    *,
    find_all: bool = False,
) -> list[dict[Term, Term]]:
    """All (or the first) substitutions h with dom(h) = vars(source) mapping
    every source triple into the target, where `fixed` gives the values of
    the plan's pinned variables (other keys are ignored).

    Depth first over the plan's order, with an explicit stack of candidate
    iterators, one per assigned variable, so that the depth of the search
    is not bounded by the interpreter's recursion limit.  A level's
    candidates are the values at its variable's position over the target's
    matches of its driver, each once and in `str` order, or its `_domain`;
    an empty one, or a failed lookup at the start, returns [] at once.  A
    value passes when every lookup of its level finds a match.  Past
    MAX_SEARCH_NODES values tried, `SearchTooLarge` is raised.
    """
    names = plan.names
    vals = [fixed[v] for v in plan.pinned]
    vals += plan.tail
    # a lookup with every position bound tests membership; the others
    # read their index
    indexes = [
        target.members(p).__contains__ if len(mask) == 3 else target.by_mask(mask, ties, p).get
        for mask, ties, p in plan.masks
    ]
    order = plan.order
    cands: list[list[Term] | None] = [None] * len(order)
    for m, get, pos, j in plan.first:
        hits = indexes[m](get(vals))
        if not hits:
            return []
        if j is not None:
            cands[j] = [u[pos] for u in hits]
    for i, paths in enumerate(plan.domains):
        if paths is not None:
            cands[i] = _domain(paths, indexes, vals)
            if not cands[i]:
                return []
    if not order:
        return [dict(zip(names, vals))]

    levels = plan.levels
    base = len(plan.pinned)
    cap = MAX_SEARCH_NODES
    tried = 0
    solutions: list[dict[Term, Term]] = []
    stack = [iter(cands[0])]
    while stack:
        i = len(stack) - 1
        slot = base + i
        for c in stack[i]:
            tried += 1
            if tried > cap:
                raise SearchTooLarge(f"the homomorphism search tried over {cap} values")
            vals[slot] = c
            for m, get, pos, j in levels[i]:
                hits = indexes[m](get(vals))
                if not hits:
                    break
                if j is not None:
                    cands[j] = [u[pos] for u in hits]
            else:  # c passes
                break
        else:  # level i is exhausted: backtrack
            stack.pop()
            continue
        if i + 1 < len(order):
            stack.append(iter(cands[i + 1]))
        else:
            solutions.append(dict(zip(names, vals)))
            if not find_all:
                break
    return solutions


def search(plan: Plan, target: TGraph, fixed: dict[Term, Term]) -> dict[Term, Term] | None:
    """The first homomorphism the plan finds into the target, with the
    values `fixed` gives its pinned variables, or None.  Nothing is
    checked and `fixed` is read as it is, not copied: `maps_into_graph`
    and `pebble.pebble_wins` check their inputs first, and `evaluator`'s
    scan (`_decide`), which runs every child test through here, checks its
    own once per call."""
    found = _solve(plan, target, fixed)
    return found[0] if found else None


def find_homomorphism(
    source: GeneralizedTGraph, target: GeneralizedTGraph
) -> dict[Term, Term] | None:
    """A homomorphism (S,X) -> (S',X) fixing X pointwise, or None."""
    if source.dist != target.dist:
        raise MismatchedDistinguishedSets(
            f"{sorted(map(str, source.dist))} vs {sorted(map(str, target.dist))}"
        )
    fixed = {x: x for x in source.dist}
    found = _solve(_plan(source.tgraph, source.dist), target.tgraph, fixed)
    return found[0] if found else None


def check_target(g: GeneralizedTGraph, graph: TGraph, mu: Mapping) -> None:
    """Raise unless the graph is ground and mu binds exactly X, as every
    test of (S, X) against a ground graph under mu requires."""
    if not graph.is_ground():
        raise NonGroundGraph("target graph contains variables")
    if mu.domain != g.dist:
        raise DomainMismatch(
            f"mapping domain {sorted(map(str, mu.domain))} differs from "
            f"distinguished set {sorted(map(str, g.dist))}"
        )


def maps_into_graph(g: GeneralizedTGraph, graph: TGraph, mu: Mapping) -> dict[Term, Term] | None:
    """A homomorphism h from S to the ground graph with h(x) = mu(x) on X."""
    check_target(g, graph, mu)
    return search(_plan(g.tgraph, g.dist), graph, mu._map)


def all_homomorphisms(
    source: TGraph, target: TGraph, fixed: dict[Term, Term] | None = None
) -> list[dict[Term, Term]]:
    """Every homomorphism from source to target extending `fixed`."""
    fixed = dict(fixed or {})
    return _solve(_plan(source, frozenset(fixed)), target, fixed, find_all=True)


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
        # the same plan as pinning `fixed`, kept under the core's dist
        plan = _plan(current, g.dist)
        for skip in current:
            found = _solve(plan, TGraph(tuple(t for t in current if t != skip)), fixed)
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
    """Treewidth of the core of (S, X).

    When the Gaifman graph of (S, X) itself is a forest the answer is 1 and
    no core is computed: the core keeps a subset of S's triples, so its
    Gaifman graph is a subgraph of a forest, and 1 is the treewidth floor.
    """
    if gaifman(g).is_forest():
        return 1
    return treewidth(gaifman(core(g)))
