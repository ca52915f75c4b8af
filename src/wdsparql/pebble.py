"""The existential k-pebble game, decided by the k-consistency fixpoint.

Instead of playing the two-player game we compute the largest family of
partial assignments (non-distinguished variables to IRIs of the graph, at
most k at a time) that are partial homomorphisms, closed under restriction
and satisfying the forth property: every member smaller than k extends to
every further variable within the family.  The Duplicator wins exactly
when the empty assignment survives.  Deletion order does not matter (the
rules are monotone), so a worklist suffices.

The family is generated level by level, as in arc consistency with support
sets (Dalmau, Kolaitis and Vardi 2002).  The values tried for a new
variable x come from the graph's (position, IRI) index: every triple
template whose only unbound variable, once the member is substituted, is
x admits exactly the values x meets in that template's matches.  Only
when no template constrains x is the whole IRI domain tried.  Each member
then keeps, per variable it lacks, the set of values whose one-point
extensions are alive; an empty set breaks the forth property, and a dead
member's one-point extensions are found in its own sets.

Special case worth stating: if the graph has an empty IRI domain and free
variables remain, the Duplicator has nowhere to put a pebble and loses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainMismatch, InvalidK, NonGroundGraph
from .hom import GeneralizedTGraph
from .terms import Mapping, TGraph, Term, substitute

_Member = frozenset  # of (variable, iri) pairs


@dataclass(frozen=True)
class ConsistencyFamily:
    """The fixpoint family; the game is won iff the empty map is a member."""

    k: int
    members: frozenset[Mapping]

    def wins(self) -> bool:
        return Mapping() in self.members


def _check_inputs(g: GeneralizedTGraph, graph: TGraph, mu: Mapping, k: int) -> None:
    if k < 2:
        raise InvalidK(f"the pebble game needs k >= 2, got {k}")
    if not graph.is_ground():
        raise NonGroundGraph("pebble game target must be a ground RDF graph")
    if mu.domain != g.dist:
        raise DomainMismatch(
            f"mapping domain {sorted(map(str, mu.domain))} differs from "
            f"distinguished set {sorted(map(str, g.dist))}"
        )


def _fixpoint(
    g: GeneralizedTGraph, graph: TGraph, mu: Mapping, k: int
) -> set[_Member]:
    free = sorted(g.free_vars(), key=lambda v: v.name)
    domain = graph.iris()
    target = graph.triple_set
    mu_sub = dict(mu.items())

    # per-triple templates with distinguished variables already substituted
    templates = []
    for t in g.tgraph:
        needs = frozenset(v for v in t.vars() if v not in g.dist)
        templates.append((needs, substitute(t, mu_sub)))
    by_var: dict[Term, list] = {v: [] for v in free}
    for needs, t in templates:
        for v in needs:
            by_var[v].append((needs, t, t.terms.index(v)))

    def candidates(member_sub: dict, x: Term):
        """The values a for which member_sub + {x: a} maps every template
        over dom(member_sub) + {x} into the graph."""
        bound = member_sub.keys() | {x}
        found = None
        for needs, t, pos in by_var[x]:
            if needs <= bound:
                here = {u.terms[pos] for u in graph.matching(substitute(t, member_sub))}
                found = here if found is None else found & here
                if not found:
                    break
        return domain if found is None else found

    # bottom-up generation of all partial homomorphisms of size <= k
    if any(t not in target for needs, t in templates if not needs):
        return set()
    rank = {v: i for i, v in enumerate(free)}
    levels: list[set[_Member]] = [{frozenset()}]
    for size in range(1, min(k, len(free)) + 1):
        level: set[_Member] = set()
        for f in levels[size - 1]:
            highest = max((rank[v] for v, _ in f), default=-1)
            base = dict(f)
            for x in free[highest + 1 :]:
                for a in candidates(base, x):
                    level.add(f | {(x, a)})
        levels.append(level)
    alive: set[_Member] = set().union(*levels)

    # support sets: per (member, variable), the values of its surviving
    # one-point extensions; every restriction of a member is generated too
    support: dict[tuple[_Member, Term], set[Term]] = {}
    for f in alive:
        for pair in f:
            support.setdefault((f - {pair}, pair[0]), set()).add(pair[1])

    dead: list[_Member] = []
    gone: set[_Member] = set()

    def kill(f: _Member) -> None:
        if f in alive and f not in gone:
            gone.add(f)
            dead.append(f)

    for f in alive:
        if len(f) < k:
            held = {v for v, _ in f}
            if any(x not in held and (f, x) not in support for x in free):
                kill(f)

    while dead:
        f = dead.pop()
        alive.discard(f)
        for pair in f:  # parents lose an extension
            parent = f - {pair}
            if parent in alive:
                values = support[(parent, pair[0])]
                values.discard(pair[1])
                if not values:
                    kill(parent)
        if len(f) < k:  # one-point extensions have a deleted restriction
            held = {v for v, _ in f}
            for x in free:
                if x not in held:
                    for a in support.get((f, x), ()):
                        kill(f | {(x, a)})
    return alive


def consistency_family(
    g: GeneralizedTGraph, graph: TGraph, mu: Mapping, k: int
) -> ConsistencyFamily:
    _check_inputs(g, graph, mu, k)
    alive = _fixpoint(g, graph, mu, k)
    return ConsistencyFamily(k, frozenset(Mapping(tuple(f)) for f in alive))


def pebble_wins(g: GeneralizedTGraph, graph: TGraph, mu: Mapping, k: int) -> bool:
    """Whether the Duplicator wins the existential k-pebble game."""
    _check_inputs(g, graph, mu, k)
    return frozenset() in _fixpoint(g, graph, mu, k)
