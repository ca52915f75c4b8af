"""The existential k-pebble game, decided in one of two regimes.

With at least as many pebbles as free variables (|free| <= k) the Spoiler
can pebble every free variable at once, so the Duplicator wins exactly when
a homomorphism extending mu exists (Kolaitis and Vardi 2000).
`duplicator_wins`, the one place that picks the regime, then runs the
homomorphism search, which covers at most k free variables and so stays
inside the game's own |dom|^k bound, and builds no family.  It takes the
search's `hom.Plan`, whose order counts the free variables: `pebble_wins`
checks its inputs and looks the plan up, and `evaluator.eval_pebble`
passes the plan each child test keeps.

Otherwise, instead of playing the two-player game we compute the largest
family of partial assignments (non-distinguished variables to IRIs of the
graph, at most k at a time) that are partial homomorphisms, closed under
restriction and satisfying the forth property: every member smaller than k
extends to every further variable within the family.  The Duplicator wins
exactly when the empty assignment survives.  Deletion order does not
matter (the rules are monotone), so a worklist suffices.
`consistency_family` always builds this family.

Before any member is generated, each free variable's domain is pruned to
arc consistency: the values that unary templates admit, shrunk until,
under every template over exactly two free variables (read once from the
graph by `TGraph.matching` as a relation of value pairs), each value has
a partner in the other variable's domain.  This keeps the fixpoint
the same, because k >= 2 consistency implies arc consistency (Dalmau,
Kolaitis and Vardi 2002): a one-point member of the fixpoint extends, by
the forth property, to every other variable, and that extension is a
partial homomorphism whose restrictions are members, so the one-point
members form an arc-consistent assignment inside the unary candidates;
every member's values are those of its one-point restrictions.  Only
members that would die anyway are no longer generated.  An empty domain
empties the family.

The family is generated level by level, as in arc consistency with support
sets.  The values tried for a new variable x are those of its pruned domain
that every template whose only unbound variable, once the member is
substituted, is x admits (read off `TGraph.matching`).  Each member
then keeps, per variable it lacks, the set of values whose one-point
extensions are alive; an empty set breaks the forth property, and a dead
member's one-point extensions are found in its own sets.  The generation
raises `SearchTooLarge` past MAX_FAMILY_MEMBERS members.

Special case worth stating: if the graph has an empty IRI domain and free
variables remain, the Duplicator has nowhere to put a pebble and loses.

The outcome depends on the generalized t-graph only up to homomorphic
equivalence with its distinguished variables fixed: a homomorphism
h: (S, X) -> (S', X) turns a Duplicator strategy on S' into one on S
(answer a pebble on x with the answer on h(x)), so two equivalent
t-graphs, a t-graph and its core among them, give the same result, and
so does the homomorphism test (Kolaitis and Vardi 2000; Dalmau, Kolaitis
and Vardi 2002).  `evaluator.eval_pebble` passes the cores of the child
t-graphs, whose free variables fit under the pebbles more often.
"""

from __future__ import annotations

from .errors import InvalidK, SearchTooLarge
from .hom import GeneralizedTGraph, Plan, _plan, check_target, search
from .terms import Mapping, TGraph, Term, substitute

_Member = frozenset  # of (variable, iri) pairs

# The most members (partial assignments, the empty one included) the
# fixpoint generates before it raises SearchTooLarge.  Without it the family
# grows as C(|free|, k) * |dom|^k; each member costs about 0.7 kB with its
# support sets, so the cap holds the family to about 70 MB and about a
# second.  The test suite generates families of at most a few hundred
# members, the benchmark none: over the membership and hardness streams at
# seeds 5, 29 and 60, every game `duplicator_wins` decided, whether for
# `pebble_wins` or for a child test of `evaluator.eval_pebble`, ran the
# homomorphism test.
MAX_FAMILY_MEMBERS = 100_000


def _check_k(k: int) -> None:
    if k < 2:
        raise InvalidK(f"the pebble game needs k >= 2, got {k}")


def _fixpoint(
    g: GeneralizedTGraph, graph: TGraph, mu: Mapping, k: int
) -> set[_Member]:
    """The surviving members; the inputs are checked by the caller."""
    free = sorted(g.free_vars(), key=lambda v: v.name)
    mu_sub = mu._map

    # per-triple templates with distinguished variables already substituted
    templates = [(t.vars() - g.dist, substitute(t, mu_sub)) for t in g.tgraph]
    if any(t not in graph.triple_set for needs, t in templates if not needs):
        return set()
    # unary templates give each variable's candidates, binary ones a
    # relation (each value of the first variable to its partners), both
    # read once from the index; templates of one shape share the read
    domains = {v: graph.iris() for v in free}
    relations: dict[tuple, dict[Term, set[Term]]] = {}
    arcs = []
    by_var: dict[Term, list] = {v: [] for v in free}
    for needs, t in templates:
        pos = {v: t.index(v) for v in needs}
        if len(needs) == 1:
            (x,) = needs
            domains[x] = domains[x].intersection(u[pos[x]] for u in graph.matching(t))
            continue
        if len(needs) == 2:
            x, y = sorted(needs, key=pos.get)
            shape = tuple(0 if u == x else 1 if u == y else u for u in t)
            if shape not in relations:
                partners: dict[Term, set[Term]] = {}
                for u in graph.matching(t):
                    partners.setdefault(u[pos[x]], set()).add(u[pos[y]])
                relations[shape] = partners
            arcs.append((x, y, relations[shape]))
        for v in needs:
            by_var[v].append((needs, t, pos[v]))

    # arc consistency: shrink the domains until, under every binary
    # template over {x, y}, each value of x has a partner in y's domain and
    # each value of y is a partner of one in x's; the set operations
    # between sets of terms reuse their stored hashes
    shrunk = True
    while shrunk:
        shrunk = False
        for x, y, partners in arcs:
            dx, dy = domains[x], domains[y]
            keep_x = {a for a in dx & partners.keys() if not partners[a].isdisjoint(dy)}
            keep_y = dy & set().union(*(partners[a] for a in keep_x))
            if len(keep_x) < len(dx) or len(keep_y) < len(dy):
                domains[x], domains[y] = keep_x, keep_y
                shrunk = True
    if not all(domains.values()):
        return set()

    def candidates(member_sub: dict, x: Term) -> set[Term]:
        """The values a in x's domain for which member_sub + {x: a} maps
        every template over dom(member_sub) + {x} into the graph."""
        bound = member_sub.keys() | {x}
        found = domains[x]
        for needs, t, pos in by_var[x]:
            if needs <= bound:
                found = found.intersection(u[pos] for u in graph.matching(t, member_sub))
                if not found:
                    break
        return found

    # bottom-up generation of all partial homomorphisms of size <= k whose
    # values lie in the pruned domains
    rank = {v: i for i, v in enumerate(free)}
    levels: list[set[_Member]] = [{frozenset()}]
    total = 1
    for size in range(1, min(k, len(free)) + 1):
        level: set[_Member] = set()
        for f in levels[size - 1]:
            highest = max((rank[v] for v, _ in f), default=-1)
            base = dict(f)
            for x in free[highest + 1 :]:
                for a in candidates(base, x):
                    level.add(f | {(x, a)})
            if total + len(level) > MAX_FAMILY_MEMBERS:
                raise SearchTooLarge(
                    f"the {k}-consistency family exceeds {MAX_FAMILY_MEMBERS} members"
                )
        total += len(level)
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
) -> frozenset[Mapping]:
    """The fixpoint family's members; the game is won iff the empty
    mapping is one."""
    _check_k(k)
    check_target(g, graph, mu)
    return frozenset(Mapping(tuple(f)) for f in _fixpoint(g, graph, mu, k))


def duplicator_wins(g: GeneralizedTGraph, plan: Plan, graph: TGraph, mu: Mapping, k: int) -> bool:
    """The game's outcome in its regime, on checked inputs: `plan` is the
    search from g's t-graph pinning g's distinguished variables, and
    len(plan.order) its number of free variables.  The plan may leave out
    triples over the distinguished variables alone whose images under mu
    the caller has found in the graph (a child test leaves out its
    subtree's pattern, `trees.WdPT.child_tests`); it keeps every free
    variable, and the fixpoint still reads all of g."""
    if len(plan.order) <= k:  # the Spoiler can pebble every free variable
        return search(plan, graph, mu._map) is not None
    return frozenset() in _fixpoint(g, graph, mu, k)


def pebble_wins(g: GeneralizedTGraph, graph: TGraph, mu: Mapping, k: int) -> bool:
    """Whether the Duplicator wins the existential k-pebble game."""
    _check_k(k)
    check_target(g, graph, mu)
    return duplicator_wins(g, _plan(g.tgraph, g.dist), graph, mu, k)
