"""Structural width measures: branch treewidth, domination width, local width.

Domination width of a forest is the least k such that for every subtree,
the associated generalized t-graphs are k-dominated: the members of core
treewidth at most k homomorphically cover the rest.  On UNION-free input
it coincides with branch treewidth, which only inspects root-to-node
branches.  `find_hard_witness` extracts, from a forest of width at least k,
a member that is maximal under the homomorphism preorder; the hardness
generator builds its reduction instances from that witness.

`width_report` is the one place that tabulates a measure row by row;
`local_tractability_width` reads its value, and `branch_treewidth` is the
per-tree primitive behind its bw rows.  The width work runs on the
trees' `SubtreeRecord`s, which evaluation reads too; a `Subtree` handle is
made only for a report row and the hard witness.  Nothing here recurses.

Everything here is exact and desk-scale: instance caps raise rather than
degrade to heuristics.  The evaluator reads nothing from this module.
There is no process-global cache: what these functions derive from a
forest (each record's associated set and levels, the width, the
witnesses, the witness core and the clique-gadget plans over it with
their grid minors) is kept in the forest's one `Analysis`, built on first
use, and its homomorphism tests and ctw values in the forest's one
`trees.HomCache`, so the memo lives exactly as long as the forest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import InstanceTooLarge, NoHardWitness
from .hom import GeneralizedTGraph, core, ctw, gaifman
from .trees import (
    ChildrenAssignment,
    HomCache,
    Subtree,
    SubtreeRecord,
    WdPF,
    WdPT,
    associated_with_provenance,
)

if TYPE_CHECKING:
    from .hardness import GadgetPlan

MAX_TREES = 4
MAX_NODES_PER_TREE = 12


@dataclass(frozen=True)
class WidthReport:
    measure: str
    value: int
    breakdown: tuple[tuple[str, int], ...]

    def __post_init__(self):
        worst = max((v for _, v in self.breakdown), default=1)
        if self.value != max(worst, 1):
            raise ValueError("report value inconsistent with its breakdown")

    def render(self) -> str:
        lines = [f"{self.measure} = {self.value}"]
        lines.extend(f"  {label}: {v}" for label, v in self.breakdown)
        return "\n".join(lines) + "\n"


def branch_treewidth(tree: WdPT) -> int:
    """Max over non-root nodes of the ctw of the branch t-graph above them:
    the child t-graph of the node under the root subtree of its proper
    ancestors (in NR normal form the branch is that subtree exactly)."""
    tree.ensure_nr()
    worst = 1
    branches = [(tree.root, tree.node_vars(tree.root))]
    for n, variables in branches:  # breadth first: `branches` grows as it is read
        kids = tree.children(n)
        if kids:
            nodes = tree.subtree_of(variables).nodes
            children = dict(zip(tree.frontier(nodes), tree.child_tgraphs(nodes)))
            worst = max(worst, *(ctw(children[c]) for c in kids))
            branches += ((c, variables | tree.node_vars(c)) for c in kids)
    return worst


def local_tractability_width(forest: WdPF) -> int:
    """Max over non-root nodes of ctw(pat(n), vars(n) intersect vars(parent))."""
    return width_report(forest, "local").value


def _levels(gset, cache: HomCache) -> list[int]:
    """Each member's level, in member order: the least ctw of a member that
    maps into it, itself counted.  The members are tried in ascending ctw,
    up to the first that maps."""
    members = list(gset)
    by_ctw = sorted(members, key=cache.ctw)
    levels = []
    for g in members:
        level = cache.ctw(g)
        for d in by_ctw:
            if cache.ctw(d) >= level:
                break
            if cache.maps(d, g):
                level = cache.ctw(d)
                break
        levels.append(level)
    return levels


def is_k_dominated(gset, k: int) -> bool:
    """Do the members of ctw <= k homomorphically cover everything else?
    That is, is every member's level at most k.

    Vacuously true for the empty set.
    """
    return all(level <= k for level in _levels(gset, HomCache()))


class Analysis:
    """What the width measures and the hardness generator derive from one
    forest, each part computed when first asked for and then kept.

    `Analysis.of` keeps it on the forest itself, so it lives exactly as
    long as the forest: the subtree records, each one's associated
    t-graphs with their members' levels (read by the width and the
    witness), the domination width, the hard witness per k, the core of
    the witness at the exact width with its Gaifman components, and the
    clique gadget's plan (with its grid minor) per clique size.  Its
    homomorphism tests and ctw values go through the forest's `HomCache`.
    Asking for the width builds no witness and searches no minor.
    """

    def __init__(self, forest: WdPF):
        forest.ensure_nr()
        self.forest = forest
        self._associated: dict[SubtreeRecord, tuple[tuple, list[int]]] = {}
        self._witnesses: dict[int, HardWitness | None] = {}
        self._plans: dict[int, GadgetPlan | None] = {}

    @classmethod
    def of(cls, forest: WdPF) -> "Analysis":
        """The forest's analysis; a forest not in NR normal form gets none,
        so every call raises again."""
        if forest.analysis is None:
            object.__setattr__(forest, "analysis", cls(forest))
        return forest.analysis

    @cached_property
    def subtrees(self) -> tuple[tuple[int, SubtreeRecord], ...]:
        """Each tree's index with the record of each of its root subtrees,
        in canonical order.  The one entry to the width work, so the one
        place the size caps are checked; a refusal is kept nowhere and
        raises again."""
        if len(self.forest) > MAX_TREES:
            raise InstanceTooLarge(f"{len(self.forest)} trees exceed the cap of {MAX_TREES}")
        for i, tree in enumerate(self.forest):
            if len(tree) > MAX_NODES_PER_TREE:
                raise InstanceTooLarge(
                    f"tree {i} has {len(tree)} nodes, cap is {MAX_NODES_PER_TREE}"
                )
        return tuple(
            (i, tree.record(nodes))
            for i, tree in enumerate(self.forest)
            for nodes in tree.subtree_nodesets()
        )

    def associated(self, rec: SubtreeRecord) -> tuple[tuple, list[int]]:
        """The record's associated t-graphs with their assignments
        (`associated_with_provenance`), and the `_levels` of those t-graphs."""
        if rec not in self._associated:
            pairs = associated_with_provenance(self.forest, rec)
            self._associated[rec] = pairs, _levels([g for _, g in pairs], self.forest.homs)
        return self._associated[rec]

    def demand(self, rec: SubtreeRecord) -> int:
        """Least k making the subtree's associated set k-dominated: its
        largest level, or 1 for an empty set."""
        return max(self.associated(rec)[1], default=1)

    @cached_property
    def width(self) -> int:
        return domination_width(self.forest)

    def witness(self, k: int) -> HardWitness | None:
        if k not in self._witnesses:
            self._witnesses[k] = find_hard_witness(self.forest, k)
        return self._witnesses[k]

    @cached_property
    def witness_core(self) -> tuple[GeneralizedTGraph, tuple[frozenset, ...]]:
        """The core of the hard witness at the exact width, and the vertex
        sets of its Gaifman graph's components.  Needs a witness."""
        witness = self.witness(self.width)
        if witness is None:
            raise NoHardWitness("the forest has no hard witness to take the core of")
        cored = core(witness.tgraph)
        return cored, gaifman(cored).components()

    def gadget_plan(self, k: int) -> GadgetPlan | None:
        """The clique gadget's plan over the witness at the exact width,
        its core and a (k x C(k,2))-grid minor map onto one Gaifman
        component of that core (the first that carries one), built and
        checked once per k; None when no component carries one."""
        from .hardness import GadgetPlan, find_grid_minor  # hardness builds on this module

        if k not in self._plans:
            cored, comps = self.witness_core
            gaif = gaifman(cored)
            plan = None
            for comp in comps:
                mm = find_grid_minor(gaif.subgraph(comp), k, k * (k - 1) // 2)
                if mm is not None:
                    plan = GadgetPlan(self.witness(self.width).tgraph, cored, mm, k)
                    break
            self._plans[k] = plan
        return self._plans[k]


def domination_width(forest: WdPF) -> int:
    a = Analysis.of(forest)
    return max((a.demand(rec) for _, rec in a.subtrees), default=1)


def width_report(forest: WdPF, measure: str) -> WidthReport:
    """The measure's value with one row per tree (bw), non-root node
    (local) or subtree (dw); the one place the measures are tabulated."""
    rows = []
    if measure == "bw":
        rows = [(f"tree {i}", branch_treewidth(tree)) for i, tree in enumerate(forest)]
    elif measure == "local":
        forest.ensure_nr()
        for i, tree in enumerate(forest):
            for n, up in sorted(tree.parents.items()):
                shared = tree.node_vars(n) & tree.node_vars(up)
                value = ctw(GeneralizedTGraph(tree.label(n), shared))
                rows.append((f"tree {i} node n{n}", value))
    elif measure == "dw":
        a = Analysis.of(forest)
        for i, rec in a.subtrees:
            pairs = a.associated(rec)[0]
            domains = ", ".join(str(set(ca.domain)) for ca, _ in pairs) or "none"
            label = f"{Subtree(i, rec.nodes)} ({len(pairs)} members; assignment domains: {domains})"
            rows.append((label, a.demand(rec)))
    else:
        raise ValueError(f"unknown measure {measure!r}")
    return WidthReport(measure, max((v for _, v in rows), default=1), tuple(rows))


@dataclass(frozen=True)
class HardWitness:
    subtree: Subtree
    assignment: ChildrenAssignment
    tgraph: GeneralizedTGraph


def find_hard_witness(forest: WdPF, k: int) -> HardWitness | None:
    """From a forest of domination width >= k, a subtree and an associated
    t-graph of ctw >= k that is maximal under the homomorphism preorder:
    whatever set member maps into it, it maps back.  None iff dw < k.

    Follows the width definition directly: pick a subtree whose set is not
    (k-1)-dominated, keep its members of level >= k (those no member of ctw
    below k maps into), and take any element of a source strongly connected
    component of their homomorphism digraph.  The returned pair is
    re-verified against the full member set before being handed out.
    """
    a = Analysis.of(forest)
    cache = forest.homs
    for i, rec in a.subtrees:
        pairs, levels = a.associated(rec)
        gset = [g for _, g in pairs]
        hard = [g for g, level in zip(gset, levels) if level >= k]
        if not hard:  # the set is (k-1)-dominated
            continue
        picked = _source_component_member(hard, cache)
        for ca, g in pairs:
            if g == picked:
                witness = HardWitness(Subtree(i, rec.nodes), ca, g)
                _verify_witness(witness, gset, k, cache)
                return witness
    return None


def _source_component_member(hard, cache: HomCache) -> GeneralizedTGraph:
    # Homomorphism existence is transitive, so the edge relation is already
    # its own reachability relation; no closure pass is needed.
    n = len(hard)
    reach = [[i == j or cache.maps(hard[i], hard[j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        scc = {j for j in range(n) if reach[i][j] and reach[j][i]}
        if all(not reach[j][i] for j in range(n) if j not in scc):
            return hard[min(scc)]
    raise AssertionError("a finite digraph always has a source component")


def _verify_witness(w: HardWitness, gset, k: int, cache: HomCache) -> None:
    if cache.ctw(w.tgraph) < k:
        raise AssertionError("hard witness lost its width")
    for other in gset:
        if cache.maps(other, w.tgraph) and not cache.maps(w.tgraph, other):
            raise AssertionError("hard witness is not maximal under homomorphism")
