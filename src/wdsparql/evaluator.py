"""Evaluation of graph patterns and pattern forests over ground RDF graphs.

Three routes:

* `eval_naive` implements the compositional set semantics directly on the
  pattern AST (works for arbitrary patterns, not just well-designed ones):
  AND and OPT are one hash join per pair of operand domains, on the
  shared variables, and every intermediate result is capped at
  MAX_MAPPINGS mappings.
* `eval_forest` decides membership of a single mapping via the subtree
  characterization for NR-normal-form forests: one scan (`_decide`) finds
  mu's matched subtree in each tree (`matched_subtree`: the tree keeps
  the subtree of each domain, and the graph is asked only for its image)
  and accepts when no child of it "extends", a test it takes as an
  argument; here the test is exact, a homomorphism search.  `eval_tree`
  is `eval_forest` on a one-tree forest.  `enumerate_solutions` turns the
  same characterization into a solution enumerator: it grows each tree's
  subtrees top down from the root's homomorphisms, deciding one frontier
  node at a time, so the search that tells whether a child extends a
  binding is also the one that extends it.  Its pending states and found
  solutions share the MAX_MAPPINGS cap.
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
from .hom import GeneralizedTGraph, Plan, all_homomorphisms, maps_into_graph
from .patterns import AND, OPT, UNION, GraphPattern, Leaf
from .pebble import pebble_wins
from .terms import Mapping, TGraph, Term, Triple
from .trees import WdPF, WdPT
from .width import Analysis

MAX_MAPPINGS = 1_000_000


@dataclass(frozen=True)
class SolutionSet:
    """A set of mappings in canonical order (sorted domain, then values)."""

    mappings: tuple[Mapping, ...] = ()

    def __post_init__(self):
        members = frozenset(self.mappings)
        # bindings are sorted by name, so their names are the sorted domain
        unique = sorted(
            members,
            key=lambda m: (
                tuple(k.name for k, _ in m.bindings),
                tuple((k.name, v.name) for k, v in m.bindings),
            ),
        )
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
    slots = [(pos, x) for pos, x in enumerate(t) if x.is_var]
    return [Mapping._valid({x: u[pos] for pos, x in slots}) for u in graph.matching(t)]


def _check_size(n: int) -> None:
    if n > MAX_MAPPINGS:
        raise InstanceTooLarge(f"an intermediate result passed {MAX_MAPPINGS} mappings")


def _by_domain(mappings: list[Mapping]) -> dict[frozenset[Term], list[Mapping]]:
    groups: dict[frozenset[Term], list[Mapping]] = {}
    for m in mappings:
        groups.setdefault(m.domain, []).append(m)
    return groups


def _join(left: list[Mapping], right: list[Mapping], keep_rest: bool) -> list[Mapping]:
    """Every merge of a left and a compatible right mapping, and with
    `keep_rest` also every left mapping that has no compatible partner.

    Per pair of domains the right mappings are indexed once on the values
    of the shared variables, and each left mapping probes that index: two
    mappings are compatible iff they agree there."""
    rights = _by_domain(right)
    out: list[Mapping] = []
    for dom, group in _by_domain(left).items():
        indexes = []
        for other, candidates in rights.items():
            shared = tuple(dom & other)
            index: dict[tuple[Term, ...], list[Mapping]] = {}
            for m2 in candidates:
                index.setdefault(tuple(map(m2.get, shared)), []).append(m2)
            indexes.append((shared, index))
        for m1 in group:
            before = len(out)
            for shared, index in indexes:
                for m2 in index.get(tuple(map(m1.get, shared)), ()):
                    out.append(Mapping._valid(m1.bindings + m2.bindings))
            if keep_rest and len(out) == before:
                out.append(m1)
            _check_size(len(out))
    return out


def eval_naive(p: GraphPattern, graph: TGraph) -> SolutionSet:
    """The compositional set semantics; `p` need not be well designed.

    Evaluated bottom up with an explicit stack; an intermediate result of
    more than MAX_MAPPINGS mappings raises `InstanceTooLarge`."""
    if not graph.is_ground():
        raise NonGroundGraph("evaluation target must be a ground RDF graph")
    done: list[list[Mapping]] = []
    todo: list[tuple[GraphPattern, bool]] = [(p, False)]
    while todo:
        q, ready = todo.pop()
        if isinstance(q, Leaf):
            rows = _match_triple(q.triple, graph)
        elif not ready:  # evaluate the operands first, left below right
            todo += ((q, True), (q.right, False), (q.left, False))
            continue
        else:
            right = done.pop()
            left = done.pop()
            rows = left + right if q.op == UNION else _join(left, right, q.op == OPT)
        _check_size(len(rows))
        done.append(rows)
    return SolutionSet(tuple(done[0]))


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
    tree.ensure_nr()
    hit = tree.subtree_of(mu.domain)
    if hit is None or not mu.images_in(hit[1], graph):
        return None
    return hit[0]


def _exact_extends(g: GeneralizedTGraph, graph: TGraph, mu: Mapping, *, plan: Plan) -> bool:
    return maps_into_graph(g, graph, mu, plan=plan) is not None


def _decide(forest: WdPF, graph: TGraph, mu: Mapping, extends: Callable[..., bool]) -> bool:
    """Some tree holds mu's matched subtree, and no child t-graph of it, as
    the forest's analysis keeps it cored with its search plan, passes
    `extends`."""
    if not graph.is_ground():
        raise NonGroundGraph("evaluation target must be a ground RDF graph")
    a = Analysis.of(forest)
    for i, tree in enumerate(forest):
        nodes = matched_subtree(tree, graph, mu)
        if nodes is not None and not any(
            extends(g, graph, mu, plan=plan) for g, plan in a.child_cores(i, nodes)
        ):
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


def _tree_solutions(tree: WdPT, graph: TGraph, found: list[Mapping]) -> None:
    """Append the solutions of one tree to `found`, top down: each state is
    a binding of the nodes taken so far and the frontier still to decide.
    A frontier node with no extension of the binding is dropped; otherwise
    each extension takes it, and its children join the frontier.  By
    well-designedness a node meets the taken nodes only in its parent's
    variables, so its extensions depend on those values alone and are
    searched once per (node, values), each node's search planned once per
    call; siblings are decided independently, so each (subtree,
    homomorphism) pair comes out once.  The pending states plus `found`
    are held to MAX_MAPPINGS, checked whenever either grows."""
    shared = {
        c: tuple(tree.node_vars(c) & tree.node_vars(p)) for c, p in tree.parents.items()
    }
    plans = {c: Plan(tree.label(c), pins) for c, pins in shared.items()}
    extensions: dict[tuple[int, tuple[Term, ...]], list[dict[Term, Term]]] = {}
    kids = tree.children(tree.root)
    stack = [(h, kids) for h in all_homomorphisms(tree.label(tree.root), graph)]
    _check_size(len(stack) + len(found))
    while stack:
        binding, frontier = stack.pop()
        if not frontier:
            found.append(Mapping._valid(binding))
            _check_size(len(stack) + len(found))
            continue
        c, rest = frontier[0], frontier[1:]
        pins = shared[c]
        values = tuple(binding[x] for x in pins)
        exts = extensions.get((c, values))
        if exts is None:
            exts = extensions[c, values] = all_homomorphisms(
                tree.label(c), graph, dict(zip(pins, values)), plan=plans[c]
            )
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
    forest.ensure_nr()
    if not graph.is_ground():
        raise NonGroundGraph("evaluation target must be a ground RDF graph")
    found: list[Mapping] = []
    for tree in forest:
        _tree_solutions(tree, graph, found)
    return SolutionSet(tuple(found))


def eval_pebble(forest: WdPF, graph: TGraph, mu: Mapping, k: int) -> bool:
    """The width-k relaxation: sound always, complete when dw(forest) <= k."""
    if k < 1:
        raise InvalidK(f"the relaxation needs k >= 1, got {k}")
    forest.ensure_nr()
    return _decide(forest, graph, mu, partial(pebble_wins, k=k + 1))
