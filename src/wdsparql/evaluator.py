"""Evaluation of graph patterns and pattern forests over ground RDF graphs.

Three routes:

* `eval_naive` implements the compositional set semantics directly on the
  pattern AST (works for arbitrary patterns, not just well-designed ones):
  AND and OPT are one hash join per pair of operand domains, on the
  shared variables, and every intermediate result is capped at
  MAX_MAPPINGS mappings.  Intermediate results are plain dict rows,
  grouped by domain, and the final rows go to a `SolutionSet` as they
  are.
* `eval_forest` decides membership of a single mapping via the subtree
  characterization for NR-normal-form forests: one scan (`_decide`) finds
  mu's matched subtree in each tree (as `matched_subtree` does: one
  lookup of the record the tree keeps for dom(mu), and the graph is
  asked only for its image) and accepts when no child of it "extends",
  each child decided by the compiled test its record keeps; here the
  test is exact, the test's homomorphism search.  `enumerate_solutions`
  turns the same characterization into a solution enumerator: it grows
  each tree's subtrees top down from the root's homomorphisms, deciding
  one frontier node at a time, so the search that tells whether a child
  extends a binding is also the one that extends it.  Its pending states
  and found solutions share the MAX_MAPPINGS cap, and its solutions go to
  a `SolutionSet` as binding rows too.
* `eval_pebble` is the polynomial-time relaxation: the same scan, with the
  existential (k+1)-pebble game as the "child extends" test, decided by
  `pebble.duplicator_wins`, the one rule of the game's regimes: the
  test's search when the core's free variables (its plan's order) fit
  under the pebbles, the consistency fixpoint otherwise.  Rejection is
  always correct; acceptance is guaranteed correct when the forest's
  domination width is at most k.

A `SolutionSet` keeps each row as a tuple of values per domain, orders
and prints the rows from the terms' names and texts, and makes a `Mapping`
per answer only for a caller that iterates it, so `eval-all` makes none.

The scan decides each child t-graph on its compiled test, which the tree
keeps in the record of the matched subtree (`WdPT.child_tests`): the
child's core and the plan of the search that pins the subtree's
variables, built for every child of the record when a scan first
reaches it, so evaluation reads no width analysis.  The record's
pattern triples are checked once per tree, by `Mapping.images_in`,
before any test runs, so the plan is compiled from the core minus them:
a search finds only the child's own triples.  Both tests read the same
on a child and on its core: the two are homomorphically equivalent with the distinguished
variables fixed, and a homomorphism extending mu exists
from one iff it exists from the other (compose with the map between
them), while the existential pebble game is preserved in the same way,
its Duplicator strategies carried across by those maps (Kolaitis and
Vardi 2000; Dalmau, Kolaitis and Vardi 2002).  A core has no more free
variables than its child, so the relaxation more often fits every free
variable under a pebble and runs a homomorphism search instead of the
consistency fixpoint.

The forest evaluators check their inputs once per call, in one order:
`eval_pebble` first its k, then each evaluator the graph's groundness
(`NonGroundGraph`, `_check`).  A forest needs no check: every tree is in
NR normal form from its construction (`trees.WdPT`).  A graph from
`terms.parse_graph` knows its variables, so the groundness check reads no
triple.  No child test checks anything again (see `_decide`).
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter, itemgetter
from typing import Iterable

from .errors import InstanceTooLarge, InvalidK, NonGroundGraph
from .hom import _plan, all_homomorphisms, search, search_all
from .patterns import OPT, UNION, GraphPattern, Leaf, _postorder
from .pebble import duplicator_wins
from .terms import Mapping, TGraph, Term, Triple, key_getter
from .trees import WdPF, WdPT

_name = attrgetter("name")
_first, _second = itemgetter(0), itemgetter(1)

MAX_MAPPINGS = 1_000_000


def _values_getter(domain: tuple[Term, ...]):
    """A function from a row over `domain` to the tuple of its values there."""
    if len(domain) > 1:
        return itemgetter(*domain)
    return lambda row: tuple(map(row.__getitem__, domain))


def _by_names(tuples) -> list[tuple[tuple[str, ...], tuple[Term, ...]]]:
    """Each tuple of terms with the tuple of its terms' names, in the order
    of the names; no two tuples may have the same names."""
    return sorted([(tuple(map(_name, t)), t) for t in tuples])


class SolutionSet:
    """A set of mappings in canonical order: by the names of the domain's
    variables, sorted, then by the names of their values in that order.

    Both evaluators build it from their plain binding rows (`_of_rows`),
    and `SolutionSet(mappings)` reads each mapping's dict the same way.  A
    row is kept as its domain, the tuple of its variables sorted by name,
    and the tuple of its values there: duplicates meet in a set, the order
    sorts tuples of names, and `str` (one mapping per line) fills each
    domain's line with the values' texts.  A `Mapping` per answer is made
    only when the set is iterated or `mappings` is read, and kept.
    Iteration, `len`, `in`, `==`, `hash` and `repr` are those of the set
    of those mappings in that order."""

    __slots__ = ("_parts", "_mappings")

    def __init__(self, mappings: Iterable[Mapping] = ()):
        self._fill([m._map for m in mappings])

    @classmethod
    def _of_rows(cls, rows: Iterable[dict[Term, Term]]) -> "SolutionSet":
        """The set of the rows, each a dict from variables to IRIs that
        nothing changes any more."""
        found = object.__new__(cls)
        found._fill(rows)
        return found

    def _fill(self, rows) -> None:
        members: dict[tuple[Term, ...], set[tuple[Term, ...]]] = {}
        # a row's keys, in the row's own order -> (its values' getter, add)
        seen: dict[tuple[Term, ...], tuple] = {}
        for row in rows:
            keys = tuple(row)
            hit = seen.get(keys)
            if hit is None:
                domain = tuple(sorted(keys, key=_name))
                hit = seen[keys] = (_values_getter(domain), members.setdefault(domain, set()).add)
            hit[1](hit[0](row))
        # domain -> (values -> their names), both in canonical order
        self._parts = {
            domain: {values: names for names, values in _by_names(members[domain])}
            for _, domain in _by_names(members)
        }
        self._mappings = None

    @property
    def mappings(self) -> tuple[Mapping, ...]:
        found = self._mappings
        if found is None:
            found = self._mappings = tuple(
                Mapping._valid(zip(domain, values))
                for domain, rows in self._parts.items()
                for values in rows
            )
        return found

    def __iter__(self):
        return iter(self.mappings)

    def __len__(self) -> int:
        return sum(map(len, self._parts.values()))

    def __contains__(self, m) -> bool:
        if not isinstance(m, Mapping):
            return False
        rows = self._parts.get(tuple(map(_first, m.bindings)))
        return rows is not None and tuple(map(_second, m.bindings)) in rows

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._parts == other._parts

    def __hash__(self) -> int:
        return hash(self.mappings)

    def __repr__(self) -> str:
        return f"SolutionSet(mappings={self.mappings!r})"

    def __str__(self) -> str:
        lines: list[str] = []
        for domain, rows in self._parts.items():
            # an IRI's name is its text
            line = "{" + ", ".join([f"{x._text}=%s" for x in domain]) + "}"
            lines += [line % names for names in rows.values()]
        return "\n".join(lines)


# An intermediate result of eval_naive: groups of plain dict rows, each
# group a non-empty list of rows over one domain (a row's keys); two
# groups may share a domain until a join merges them.
Rows = list[list[dict[Term, Term]]]


def _match_triple(t: Triple, graph: TGraph) -> Rows:
    """The rows of one triple pattern: one per graph triple it matches,
    binding each of its variables (a repeated one once)."""
    names: list[Term] = []
    slots: list[int] = []
    for pos, x in enumerate(t):
        if x.is_var and x not in names:
            names.append(x)
            slots.append(pos)
    matches = graph.matching(t)
    if not matches:
        return []
    if len(names) == 1:
        x, pos = names[0], slots[0]
        return [[{x: u[pos]} for u in matches]]
    get = key_getter(tuple(slots))
    return [[dict(zip(names, get(u))) for u in matches]]


def _check_size(n: int) -> None:
    if n > MAX_MAPPINGS:
        raise InstanceTooLarge(f"an intermediate result passed {MAX_MAPPINGS} mappings")


def _by_domain(groups: Rows) -> Rows:
    """The groups, those of one domain merged into one (a UNION leaves
    them apart), so that a join indexes each domain's rows once."""
    if len(groups) < 2:
        return groups
    merged: dict[frozenset[Term], list] = {}
    for rows in groups:
        found = merged.setdefault(frozenset(rows[0]), rows)
        if found is not rows:
            found += rows
    return list(merged.values())


def _join(left: Rows, right: Rows, keep_rest: bool) -> tuple[Rows, int]:
    """Every merge of a left and a compatible right row, and with
    `keep_rest` also every left row that has no compatible partner; and
    how many rows that is.

    Per pair of domains the right rows are indexed once on the values of
    the shared variables, and each left row probes that index: two rows
    are compatible iff they agree there.  A merge copies the larger row
    and adds the smaller; a left row with one partner and at least its
    size takes the partner's bindings in place, so a left-deep chain of
    joins grows one row rather than copying it at every level."""
    left, right = _by_domain(left), _by_domain(right)
    out: Rows = []
    count = 0
    for rows in left:
        domain = rows[0].keys()
        probes = []
        for candidates in right:
            get = key_getter(tuple(domain & candidates[0].keys()))
            index: dict = {}
            for m2 in candidates:
                key = get(m2)
                hit = index.get(key)
                if hit is None:
                    index[key] = [m2]
                else:
                    hit.append(m2)
            into: list = []
            out.append(into)
            probes.append((get, index, into))
        rest: list = []
        if keep_rest:
            out.append(rest)
        for m1 in rows:
            hits = [(into, partners) for get, index, into in probes if (partners := index.get(get(m1)))]
            if not hits:
                if keep_rest:
                    rest.append(m1)
                    count += 1
                continue
            into, partners = hits[0]
            if len(hits) == 1 and len(partners) == 1 and len(m1) >= len(partners[0]):
                m1.update(partners[0])  # m1's last use: it becomes the merge
                into.append(m1)
                count += 1
            else:
                for into, partners in hits:
                    into += [m1 | m2 if len(m1) >= len(m2) else m2 | m1 for m2 in partners]
                    count += len(partners)
            _check_size(count)
    return [rows for rows in out if rows], count


def eval_naive(p: GraphPattern, graph: TGraph) -> SolutionSet:
    """The compositional set semantics; `p` need not be well designed.

    Evaluated bottom up, in one sweep over the nodes in post-order (left
    operand first), over plain dict rows grouped by domain (`Rows`); the
    final rows make the `SolutionSet`.  An intermediate result of more than
    MAX_MAPPINGS rows raises `InstanceTooLarge`."""
    _check(graph)
    done: list[tuple[Rows, int]] = []  # each result with its number of rows
    for q in _postorder(p):
        if q.__class__ is Leaf:
            groups = _match_triple(q.triple, graph)
            size = sum(map(len, groups))
        else:
            right, right_size = done.pop()
            left, left_size = done.pop()
            if q.op != UNION:
                groups, size = _join(left, right, q.op == OPT)
            else:  # the smaller result's groups join the larger's list
                groups, more = (left, right) if len(left) >= len(right) else (right, left)
                groups += more
                size = left_size + right_size
        _check_size(size)
        done.append((groups, size))
    return SolutionSet._of_rows(chain.from_iterable(done[0][0]))


# ---------------------------------------------------------------------------
# subtree-characterization evaluation


def matched_subtree(tree: WdPT, graph: TGraph, mu: Mapping) -> frozenset[int] | None:
    """The unique subtree with exactly mu's variables whose pattern mu maps
    into the graph, if any: `WdPT.subtree_of(dom(mu))`, a function of the
    domain alone that the tree keeps, accepted when the graph holds the
    image under mu of each of its pattern triples.

    This is exactly the greedy walk that takes each node whose variables
    lie in dom(mu) and whose image lies in the graph: a node of the
    subtree that fails the graph introduces a variable its parent lacks
    (NR normal form), every node holding that variable lies below it
    (connectedness), so the walk misses that variable and finds none."""
    hit = tree.subtree_of(mu.domain)
    if hit is None or not mu.images_in(hit.triples, graph):
        return None
    return hit.nodes


def _check(graph: TGraph) -> None:
    """The one groundness check of every evaluator, once per call."""
    if not graph.is_ground():
        raise NonGroundGraph("evaluation target must be a ground RDF graph")


def _decide(forest: WdPF, graph: TGraph, mu: Mapping, k: int | None) -> bool:
    """Some tree holds mu's matched subtree (as `matched_subtree` finds it),
    and no child of it extends mu: by a homomorphism search when k is None,
    else in the existential k-pebble game (`pebble.duplicator_wins`).

    Each child is decided by the compiled test the tree keeps for it
    (`WdPT.child_tests`), a core and its search plan, run on mu's own
    binding dict.  The record's pattern triples, which every core keeps,
    are checked here once, by `images_in`, and no plan holds them.  The
    graph is checked once per call (`_check`).  The one check of a
    single test left out is `hom.check_target`'s domain
    check, which holds by construction: the matched subtree's record has
    exactly dom(mu) as its variables, and every child and its core take
    them as their distinguished variables."""
    _check(graph)
    variables, binding = mu.domain, mu._map
    for tree in forest.trees:
        record = tree.subtree_of(variables)
        if record is None or not mu.images_in(record.triples, graph):
            continue
        tests = record.tests
        for g, plan in tree.child_tests(variables) if tests is None else tests:
            if k is None:
                if search(plan, graph, binding) is not None:
                    break
            elif duplicator_wins(g, plan, graph, mu, k):
                break
        else:  # no child extends mu
            return True
    return False


def eval_forest(forest: WdPF, graph: TGraph, mu: Mapping) -> bool:
    """Whether some tree of the forest accepts mu: mu's matched subtree
    exists in it and no child of that subtree admits a homomorphism into
    the graph compatible with mu, each child tested on its kept core."""
    return _decide(forest, graph, mu, None)


def _tree_solutions(tree: WdPT, graph: TGraph, found: list[dict[Term, Term]]) -> None:
    """Append the solutions of one tree to `found` as binding rows, top
    down: each state is a binding of the nodes taken so far and the
    frontier still to decide.  A frontier node with no extension of the
    binding is dropped; otherwise each extension takes it, and its
    children join the frontier.  By well-designedness a node meets the
    taken nodes only in its parent's variables, so its extensions depend
    on those values alone and are searched once per (node, values): each
    node's plan pins those variables (the plan its label keeps for every
    later call), is read once per call, and runs on the state's own
    binding; siblings are decided independently, so each (subtree,
    homomorphism) pair comes out once.  The pending states plus `found`
    are held to MAX_MAPPINGS, checked whenever either grows."""
    plans = {
        c: _plan(tree.label(c), tree.node_vars(c) & tree.node_vars(p)) for c, p in tree.parents.items()
    }
    extensions: dict[tuple, list[dict[Term, Term]]] = {}
    kids = tree.children(tree.root)
    stack = [(h, kids) for h in all_homomorphisms(tree.label(tree.root), graph)]
    _check_size(len(stack) + len(found))
    while stack:
        binding, frontier = stack.pop()
        if not frontier:
            found.append(binding)
            _check_size(len(stack) + len(found))
            continue
        c, rest = frontier[0], frontier[1:]
        plan = plans[c]
        key = (c, *map(binding.__getitem__, plan.pinned))
        exts = extensions.get(key)
        if exts is None:
            exts = extensions[key] = search_all(plan, graph, binding)
        if not exts:
            stack.append((binding, rest))
        else:
            grown = rest + tree.children(c)
            stack.extend(({**binding, **h}, grown) for h in exts)
            _check_size(len(stack) + len(found))


def enumerate_solutions(forest: WdPF, graph: TGraph) -> SolutionSet:
    """All solutions of the forest, tree by tree, by `_tree_solutions`.

    Output-sensitive rather than bounded by the number of variables: each
    node's extensions are searched once per binding of the variables it
    shares with its parent, and every state grown leads to at least one
    solution, as in the enumeration of Kröll, Pichler and Skritek, "On
    the complexity of enumerating the answers to well-designed pattern
    trees" (ICDT 2016).  Exponential in the worst case, since the
    answers can be; more than MAX_MAPPINGS pending states and solutions
    raise `InstanceTooLarge`, as in `eval_naive`.
    """
    _check(graph)
    found: list[dict[Term, Term]] = []
    for tree in forest:
        _tree_solutions(tree, graph, found)
    return SolutionSet._of_rows(found)


def eval_pebble(forest: WdPF, graph: TGraph, mu: Mapping, k: int) -> bool:
    """The width-k relaxation: sound always, complete when dw(forest) <= k."""
    if k < 1:
        raise InvalidK(f"the relaxation needs k >= 1, got {k}")
    return _decide(forest, graph, mu, k + 1)
