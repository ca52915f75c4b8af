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
per-tree primitive behind its bw rows.

Everything here is exact and desk-scale: instance caps raise rather than
degrade to heuristics.  The caps on trees and nodes guard only the width
work; the evaluator reads the cored children of any NR forest.  There is
no process-global cache: what these functions derive from a forest
(associated sets, homomorphism tests, ctw values keyed by the t-graph
alone, the width, the witnesses, the witness core and its grid minors,
and the cored child t-graphs the evaluator decides, each with its compiled
homomorphism search) is kept in the forest's one `Analysis`, built on
first use, so the memo lives exactly as long as the forest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterator

from . import hom
from .errors import InstanceTooLarge, NoHardWitness
from .hom import GeneralizedTGraph, core, ctw, find_homomorphism, gaifman
from .trees import (
    ChildrenAssignment,
    Subtree,
    WdPF,
    WdPT,
    associated_with_provenance,
    subtrees,
)

if TYPE_CHECKING:
    from .hardness import MinorMap

MAX_TREES = 4
MAX_NODES_PER_TREE = 12
MAX_VARS_PER_MEMBER = 14


class HomCache:
    """Memo of directed homomorphism tests between generalized t-graphs, and
    of their ctw values, for one analysis."""

    def __init__(self):
        self._seen: dict[tuple[GeneralizedTGraph, GeneralizedTGraph], bool] = {}
        self._ctws: dict[GeneralizedTGraph, int] = {}

    def maps(self, a: GeneralizedTGraph, b: GeneralizedTGraph) -> bool:
        key = (a, b)
        if key not in self._seen:
            self._seen[key] = find_homomorphism(a, b) is not None
        return self._seen[key]

    def ctw(self, g: GeneralizedTGraph) -> int:
        """ctw of a member of an associated set, within the instance caps."""
        if len(g.tgraph.vars()) > MAX_VARS_PER_MEMBER:
            raise InstanceTooLarge(
                f"{len(g.tgraph.vars())} variables in a merged t-graph, "
                f"cap is {MAX_VARS_PER_MEMBER}"
            )
        if g not in self._ctws:
            self._ctws[g] = ctw(g)
        return self._ctws[g]


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
    """Max over non-root nodes of the ctw of the branch t-graph above them."""
    tree.ensure_nr()
    worst = 1
    for n in tree.nodes:
        if n == tree.root:
            continue
        branch = []
        up = tree.parent(n)
        while up is not None:
            branch.append(up)
            up = tree.parent(up)
        above = tree.pat(branch)
        g = GeneralizedTGraph(tree.label(n) | above, above.vars())
        worst = max(worst, ctw(g))
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


def is_k_dominated(gset, k: int, cache: HomCache | None = None) -> bool:
    """Do the members of ctw <= k homomorphically cover everything else?
    That is, is every member's level at most k.

    Vacuously true for the empty set.
    """
    return all(level <= k for level in _levels(gset, cache or HomCache()))


class Analysis:
    """What the width measures and the hardness generator derive from one
    forest, each part computed when first asked for and then kept.

    `Analysis.of` keeps it on the forest itself, so it lives exactly as
    long as the forest: the subtrees, their associated
    t-graphs, one `HomCache` (homomorphism tests and ctw values), the
    per-subtree demands, the domination width, the hard witness per k, the
    core of the witness at the exact width with its Gaifman components,
    the grid minor per grid shape, and the cored child t-graphs of each
    subtree the evaluator has matched, one core per distinct child, each
    with the `hom.Plan` of its search (the core pinning its distinguished
    variables), so a stream of mappings plans each child's search once.
    Asking for the width builds no witness and searches no minor;
    evaluating enumerates no subtree and cores only the children it
    reaches, so it runs past the size caps.  The plans are kept here and
    nowhere else, so they go with the forest.
    """

    def __init__(self, forest: WdPF):
        forest.ensure_nr()
        self.forest = forest
        self.cache = HomCache()
        self._children: dict[tuple[int, frozenset[int]], tuple[tuple, list]] = {}
        self._cores: dict[GeneralizedTGraph, tuple[GeneralizedTGraph, hom.Plan]] = {}
        self._associated: dict[Subtree, tuple] = {}
        self._demands: dict[Subtree, int] = {}
        self._witnesses: dict[int, HardWitness | None] = {}
        self._minors: dict[tuple[int, int], MinorMap | None] = {}

    @classmethod
    def of(cls, forest: WdPF) -> "Analysis":
        """The forest's analysis; a forest not in NR normal form gets none,
        so every call raises again."""
        if forest.analysis is None:
            object.__setattr__(forest, "analysis", cls(forest))
        return forest.analysis

    @cached_property
    def subtrees(self) -> tuple[Subtree, ...]:
        """The one entry to the width work, so the one place the size caps
        are checked; a refusal is kept nowhere and raises again."""
        if len(self.forest) > MAX_TREES:
            raise InstanceTooLarge(f"{len(self.forest)} trees exceed the cap of {MAX_TREES}")
        for i, tree in enumerate(self.forest):
            if len(tree) > MAX_NODES_PER_TREE:
                raise InstanceTooLarge(
                    f"tree {i} has {len(tree)} nodes, cap is {MAX_NODES_PER_TREE}"
                )
        return subtrees(self.forest)

    def child_cores(
        self, tree_index: int, nodes: frozenset[int]
    ) -> Iterator[tuple[GeneralizedTGraph, hom.Plan]]:
        """The child t-graphs of the subtree `nodes` of one tree, in the
        order `WdPT.child_tgraphs` builds them, each cored when first asked
        for and then kept, once per forest: equal children of different
        trees share one core.  Each core comes with its `hom.Plan`, pinning
        its distinguished variables, built with it and kept with it.  A
        child of more than MAX_VARS_PER_MEMBER variables is kept uncored.  A
        core is homomorphically equivalent to its child with the
        distinguished variables fixed, so the evaluator's tests read the
        same on either."""
        key = (tree_index, nodes)
        if key not in self._children:
            kids = tuple(self.forest.trees[tree_index].child_tgraphs(nodes))
            self._children[key] = (kids, [])
        kids, cores = self._children[key]
        for i, g in enumerate(kids):
            if i == len(cores):  # cores grow as a prefix of kids
                # an equal child under another tree shares its core; the
                # child is hashed here only, when its slot is first filled
                kept = self._cores.get(g)
                if kept is None:
                    small = len(g.tgraph.vars()) <= MAX_VARS_PER_MEMBER
                    # looked up on hom at each call, so rebinding hom.core
                    # or hom.Plan (to count or time it) reaches this step too
                    cored = hom.core(g) if small else g
                    kept = self._cores[g] = (cored, hom.Plan(cored.tgraph, cored.dist))
                cores.append(kept)
            yield cores[i]

    def associated(self, sub: Subtree) -> tuple[tuple[ChildrenAssignment, GeneralizedTGraph], ...]:
        if sub not in self._associated:
            self._associated[sub] = associated_with_provenance(self.forest, sub)
        return self._associated[sub]

    def demand(self, sub: Subtree) -> int:
        """Least k making the subtree's associated set k-dominated: its
        largest level, or 1 for an empty set."""
        if sub not in self._demands:
            gset = [g for _, g in self.associated(sub)]
            self._demands[sub] = max(_levels(gset, self.cache), default=1)
        return self._demands[sub]

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

    def grid_minor(self, rows: int, cols: int) -> MinorMap | None:
        """A minor map of the (rows x cols)-grid onto one Gaifman component
        of the witness core (the first that carries one), or None."""
        from .hardness import find_grid_minor  # hardness builds on this module

        shape = (rows, cols)
        if shape not in self._minors:
            cored, comps = self.witness_core
            gaif = gaifman(cored)
            found = None
            for comp in comps:
                found = find_grid_minor(gaif.subgraph(comp), rows, cols)
                if found is not None:
                    break
            self._minors[shape] = found
        return self._minors[shape]


def domination_width(forest: WdPF) -> int:
    a = Analysis.of(forest)
    return max((a.demand(sub) for sub in a.subtrees), default=1)


def width_report(forest: WdPF, measure: str) -> WidthReport:
    """The measure's value with one row per tree (bw), non-root node
    (local) or subtree (dw); the one place the measures are tabulated."""
    rows = []
    if measure == "bw":
        rows = [(f"tree {i}", branch_treewidth(tree)) for i, tree in enumerate(forest)]
    elif measure == "local":
        forest.ensure_nr()
        for i, tree in enumerate(forest):
            for n in tree.nodes:
                if n == tree.root:
                    continue
                shared = tree.node_vars(n) & tree.node_vars(tree.parent(n))
                value = ctw(GeneralizedTGraph(tree.label(n), shared))
                rows.append((f"tree {i} node n{n}", value))
    elif measure == "dw":
        a = Analysis.of(forest)
        for sub in a.subtrees:
            pairs = a.associated(sub)
            domains = ", ".join(str(set(ca.domain)) for ca, _ in pairs) or "none"
            label = f"{sub} ({len(pairs)} members; assignment domains: {domains})"
            rows.append((label, a.demand(sub)))
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
    cache = a.cache
    for sub in a.subtrees:
        pairs = a.associated(sub)
        gset = [g for _, g in pairs]
        hard = [g for g, level in zip(gset, _levels(gset, cache)) if level >= k]
        if not hard:  # the set is (k-1)-dominated
            continue
        picked = _source_component_member(hard, cache)
        for ca, g in pairs:
            if g == picked:
                witness = HardWitness(sub, ca, g)
                _verify_witness(witness, gset, k, cache)
                return witness
    return None


def _source_component_member(hard, cache: HomCache) -> GeneralizedTGraph:
    # Homomorphism existence is transitive, so the edge relation is already
    # its own reachability relation; no closure pass is needed.
    n = len(hard)
    reach = [
        [i == j or cache.maps(hard[i], hard[j]) for j in range(n)] for i in range(n)
    ]
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
