"""Well-designed pattern trees and forests.

A wdPT is a rooted tree whose nodes carry t-graphs; the tree structure
encodes OPT nesting, each node an AND-block.  Constructors validate the
tree shape, the variable-connectivity condition (the nodes mentioning
any one variable induce a connected subgraph) and NR normal form (every
non-root node introduces a variable its parent lacks, `NotNRNormalForm`
otherwise), in time linear in the tree: every node is reached from the
root, and each variable has one topmost holder.  So every tree is in NR
normal form, and no layer checks it again.  In it a variable set names
at most one root subtree, so a tree keeps, per variable set, the one
`SubtreeRecord` that evaluation and the width analysis both work on; a
`Subtree` is its printed handle, and a node set is resolved to its
record in one place (`WdPT.record`).

`to_forest` takes each component's AND-blocks with their triples from
the pattern layer's one pass (`patterns.and_blocks`), drops each block
whose variables its nearest kept ancestor covers in one pre-order pass,
passing its triples to its children (`_drop_covered`), numbers the kept
nodes breadth first and builds and validates each tree once.  No
function here recurses.

This module also hosts the combinatorics the width analysis is built on:
support, children assignments, the merged-and-renamed t-graphs they
induce, and the generalized t-graphs associated with a subtree, tested
for homomorphisms through the forest's one `HomCache`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, product

from . import hom
from .errors import InstanceTooLarge, NotNRNormalForm
from .hom import GeneralizedTGraph, ctw
from .patterns import AND, OPT, UNION, Block, GraphPattern, Leaf, Node, and_blocks
from .terms import TGraph, Term, Triple, _interned, substitute

# The most variables of a t-graph that is cored: a child t-graph past it is
# decided uncored, and the width analysis raises on a merged one past it.
MAX_VARS_PER_MEMBER = 14


class HomCache:
    """Memo of directed homomorphism tests between generalized t-graphs, and
    of their ctw values; each forest keeps one (`WdPF.homs`), and every
    homomorphism test of its width analysis goes through it.

    A test (S, X) -> (S', X) fixes X, so it maps each triple of S over X
    alone to itself: those are looked up in S' by membership, and only
    the rest of S, its residual, is searched.  Members of an associated
    set differ mostly in their part over X, so the cache interns each
    residual by its triples as a `TGraph`, whose plans (pinning the
    variables of X it holds) then serve every member that shares it for
    as long as the forest lives."""

    def __init__(self):
        self._seen: dict[tuple, bool] = {}
        self._ctws: dict[GeneralizedTGraph, int] = {}
        self._residuals: dict[tuple[Triple, ...], TGraph] = {}

    def maps(self, a: GeneralizedTGraph, b: GeneralizedTGraph) -> bool:
        # keyed by the triples, not the t-graphs: a merged t-graph tested
        # once then dies, with the indexes its searches built in it
        key = (a.tgraph.triples, a.dist, b.tgraph.triples, b.dist)
        if key not in self._seen:
            self._seen[key] = self._search(a, b)
        return self._seen[key]

    def _search(self, a: GeneralizedTGraph, b: GeneralizedTGraph) -> bool:
        """Whether a homomorphism a -> b fixing X, the distinguished set of
        both, exists: a's triples over X alone lie in b's t-graph, and the
        plan of a's residual finds a solution there."""
        dist, target = a.dist, b.tgraph
        rest = []
        for t in a.tgraph:
            if not t.vars() <= dist:
                rest.append(t)
            elif t not in target:
                return False
        rest = tuple(rest)
        residual = self._residuals.get(rest)
        if residual is None:
            residual = self._residuals[rest] = TGraph(rest)
        pins = dist & residual.vars()
        return hom.search(hom._plan(residual, pins), target, dict(zip(pins, pins))) is not None

    def ctw(self, g: GeneralizedTGraph) -> int:
        """ctw of a member of an associated set, within the instance caps."""
        if (n := len(g.tgraph.vars())) > MAX_VARS_PER_MEMBER:
            raise InstanceTooLarge(
                f"{n} variables in a merged t-graph, cap is {MAX_VARS_PER_MEMBER}"
            )
        if g not in self._ctws:
            self._ctws[g] = ctw(g)
        return self._ctws[g]


# a child's compiled test: its core (the child itself past the cap) and the
# plan of the search from that core minus the subtree's pattern triples,
# pinning the subtree's variables
ChildTest = tuple[GeneralizedTGraph, hom.Plan]


@dataclass(eq=False)
class SubtreeRecord:
    """What a tree keeps of one root subtree, under its variable set: its
    nodes, variables and pattern triples, and, each once first asked for,
    its pattern as a t-graph and the tests of all its children, compiled
    together (`WdPT.child_tests`); `tests` is None until then."""

    nodes: frozenset[int]
    variables: frozenset[Term]
    triples: tuple[Triple, ...]
    tests: tuple[ChildTest, ...] | None = None

    @cached_property
    def pat(self) -> TGraph:
        return TGraph(self.triples)


class WdPT:
    """Rooted labeled tree; immutable once constructed."""

    def __init__(self, root: int, parents: dict[int, int], labels: dict[int, TGraph]):
        self.root = root
        self.parents = dict(parents)
        self.labels = dict(labels)
        self._subtrees: dict[frozenset[Term], SubtreeRecord] = {}  # by variable set
        self._validate()
        self._vars = frozenset().union(*(g.vars() for g in self.labels.values()))

    def _validate(self) -> None:
        nodes = set(self.labels)
        if self.root not in nodes:
            raise ValueError("root is not a labeled node")
        if set(self.parents) != nodes - {self.root}:
            raise ValueError("every node but the root needs exactly one parent")
        kids: dict[int, list[int]] = {n: [] for n in nodes}
        for n, p in self.parents.items():
            if p not in nodes:
                raise ValueError(f"node {n} has unknown parent {p}")
            kids[p].append(n)
        self._children = {n: tuple(sorted(c)) for n, c in kids.items()}
        reached = [self.root]
        for n in reached:  # breadth first: `reached` grows as it is read
            reached.extend(self._children[n])
        if len(reached) != len(nodes):  # a node off the root's tree is on a cycle
            raise ValueError("parent links contain a cycle")
        # NR: every non-root node has a variable its parent lacks; connected:
        # per variable, one holder whose parent lacks it (or the root)
        tops: set[Term] = set()
        for n in reached:
            up = self.parents.get(n)
            fresh = self.node_vars(n) - self.node_vars(up) if up is not None else self.node_vars(n)
            if not fresh and up is not None:
                raise NotNRNormalForm(f"node n{n} adds no variable to its parent n{up}")
            for x in fresh:
                if x in tops:
                    raise ValueError(f"nodes mentioning {x} are not connected")
                tops.add(x)

    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(sorted(self.labels))

    def parent(self, n: int) -> int | None:
        return self.parents.get(n)

    def children(self, n: int) -> tuple[int, ...]:
        return self._children[n]

    def label(self, n: int) -> TGraph:
        return self.labels[n]

    def node_vars(self, n: int) -> frozenset[Term]:
        return self.labels[n].vars()

    def pat(self, nodes=None) -> TGraph:
        picked = self.nodes if nodes is None else sorted(nodes)
        return TGraph(tuple(t for n in picked for t in self.labels[n]))

    def vars(self, nodes=None) -> frozenset[Term]:
        if nodes is None:
            return self._vars
        return frozenset().union(*(self.labels[n].vars() for n in nodes))

    def depth(self, n: int) -> int:
        d = 0
        while n != self.root:
            n = self.parents[n]
            d += 1
        return d

    def subtree_nodesets(self) -> tuple[frozenset[int], ...]:
        """Every root-containing connected node set, sorted canonically.

        A worklist of (set, the frontier nodes it may still grow by): each
        set grows by one of them, and keeps those after it plus the new
        node's children.  So a set is found once, from the set without its
        last node in breadth-first order."""
        found = [(frozenset({self.root}), self.children(self.root))]
        for nodes, room in found:  # `found` grows as it is read
            found += ((nodes | {c}, room[j + 1 :] + self.children(c)) for j, c in enumerate(room))
        return tuple(sorted((nodes for nodes, _ in found), key=lambda s: tuple(sorted(s))))

    def subtree_of(self, variables: frozenset[Term]) -> SubtreeRecord | None:
        """The record of the root subtree whose variables are exactly
        `variables`, or None: the nodes whose variables lie inside
        `variables`, grown from the root, if they cover them all (in NR
        normal form it is the only such subtree).  A set holding a variable
        the tree lacks misses without a walk.  A find is kept under its
        variable set and a miss is not, so the table never holds more
        entries than the tree has root subtrees."""
        hit = self._subtrees.get(variables)
        if hit is None and self.node_vars(self.root) <= variables <= self._vars:
            keep = [self.root]
            for n in keep:  # breadth first: `keep` grows as it is read
                keep.extend(c for c in self.children(n) if self.node_vars(c) <= variables)
            if self.vars(keep) == variables:
                triples = tuple(t for n in sorted(keep) for t in self.labels[n])
                hit = self._subtrees[variables] = SubtreeRecord(frozenset(keep), variables, triples)
        return hit

    def record(self, nodes) -> SubtreeRecord:
        """The record of the root subtree `nodes`; a node set that is not a
        root subtree of the tree, a node it lacks included, is refused with
        ValueError."""
        found = self.subtree_of(self.vars(nodes)) if self.labels.keys() >= nodes else None
        if found is None or found.nodes != nodes:
            raise ValueError(f"nodes {sorted(nodes)} are not a root subtree")
        return found

    def child_tests(self, variables: frozenset[Term]) -> tuple[ChildTest, ...]:
        """The compiled tests of the children of the root subtree whose
        variables are `variables`, in frontier order: per child t-graph its
        core and the `hom.Plan` of searches pinning `variables`, the core's
        distinguished variables, from the core minus the subtree's pattern
        triples.  Those are over `variables` alone, and a scan tests their
        images before it runs a test (`evaluator._decide`), so the plan
        leaves them out; a triple over `variables` alone from the child's
        own label stays in it, as a lookup at the start.  Every free
        variable of the core lies in a triple the plan keeps, so
        `len(plan.order)` is the core's number of free variables.  The
        first call for a subtree compiles every child at once, and its
        record keeps the tests.  A child of more than MAX_VARS_PER_MEMBER
        variables is kept uncored.  A variable set that names no root
        subtree is refused with ValueError."""
        found = self.subtree_of(variables)
        if found is None:
            names = ", ".join(sorted(map(str, variables)))
            raise ValueError(f"no root subtree has the variables {{{names}}}")
        if found.tests is None:
            tests = []
            for g in self.child_tgraphs(found.nodes):
                small = len(g.tgraph.vars()) <= MAX_VARS_PER_MEMBER
                # hom.core is looked up per call, so rebinding it reaches here
                kept = hom.core(g) if small else g
                # the record's triples are mu's images, which the scan finds
                # in the graph before any child test runs
                own = TGraph(tuple(t for t in kept.tgraph if t not in found.pat))
                tests.append((kept, hom.Plan(own, variables)))
            found.tests = tuple(tests)
        return found.tests

    def frontier(self, nodes) -> tuple[int, ...]:
        """Nodes outside `nodes` whose parent lies inside it, sorted."""
        return tuple(sorted(c for n in nodes for c in self.children(n) if c not in nodes))

    def child_tgraphs(self, nodes) -> tuple[GeneralizedTGraph, ...]:
        """Per child of the root subtree `nodes`, in frontier order: the
        subtree's pattern (its record's) plus the child's label, with the
        subtree's variables distinguished; refused as `record` refuses."""
        found = self.record(nodes)
        pat, dist = found.pat, found.variables
        return tuple(GeneralizedTGraph(pat | self.label(c), dist) for c in self.frontier(nodes))

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WdPT)
            and self.root == other.root
            and self.parents == other.parents
            and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return hash((self.root, frozenset(self.parents.items()), frozenset(self.labels.items())))

    def __repr__(self) -> str:
        return f"WdPT(root={self.root}, nodes={len(self.labels)})"


@dataclass(frozen=True)
class WdPF:
    """An ordered forest of wdPTs; indices are stable and 0-based."""

    trees: tuple[WdPT, ...]
    # width.Analysis, built on first use by the width and hardness layers,
    # and the one memo of homomorphism tests it reads; not part of the
    # value, they live exactly as long as the forest
    analysis: object = field(default=None, init=False, repr=False, compare=False)
    homs: HomCache = field(default_factory=HomCache, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.trees:
            raise ValueError("a pattern forest holds at least one tree")

    def vars(self) -> frozenset[Term]:
        return frozenset().union(*(t.vars() for t in self.trees))

    def __len__(self) -> int:
        return len(self.trees)

    def __iter__(self):
        return iter(self.trees)


@dataclass(frozen=True)
class Subtree:
    """A root-containing subtree of one tree of a forest, by node ids: the
    public, printed handle of the tree's `SubtreeRecord`."""

    tree_index: int
    nodes: frozenset[int]

    def __str__(self) -> str:
        ids = ", ".join(f"n{n}" for n in sorted(self.nodes))
        return f"tree {self.tree_index} [{ids}]"


def _record(forest: WdPF, sub: Subtree | SubtreeRecord) -> SubtreeRecord:
    """The record a handle names (a record names itself).  An unknown tree
    index is refused with ValueError; its tree's `WdPT.record` refuses the
    node set."""
    if isinstance(sub, SubtreeRecord):
        return sub
    if not 0 <= sub.tree_index < len(forest):
        raise ValueError(f"no tree {sub.tree_index} in a forest of {len(forest)}")
    return forest.trees[sub.tree_index].record(sub.nodes)


def subtree_vars(forest: WdPF, sub: Subtree) -> frozenset[Term]:
    return _record(forest, sub).variables


def subtrees(forest: WdPF) -> tuple[Subtree, ...]:
    return tuple(Subtree(i, ns) for i, t in enumerate(forest.trees) for ns in t.subtree_nodesets())


# ---------------------------------------------------------------------------
# translation from graph patterns


def _drop_covered(root: Block) -> tuple[dict, dict]:
    """NR normal form in one pre-order pass over a component's blocks.  A
    block D whose variables its nearest kept ancestor P covers adds no
    binding, and P OPT (D OPT C) is P OPT (D AND C) (Letelier, Perez,
    Pichler and Skritek, PODS 2012): D is dropped, and its triples go to
    each of its children, which hang below P.  A drop leaves P's variables
    as they were, and a block's children share a variable with triples
    passed to it only if the block holds it too (the pattern is well
    designed), so its own variables cover what its label covers and one
    pass settles every block.  Returns, per kept block in pre-order, its
    triples with those its dropped ancestors passed to it, and its kept
    children in pre-order."""
    triples = {root: list(root.triples)}
    kids: dict = {root: []}
    covers = {root: {x for t in triples[root] for x in t if x.is_var}}
    todo = [(c, root, []) for c in reversed(root.children)]
    while todo:
        n, above, passed = todo.pop()
        own = n.triples
        variables = {x for t in own for x in t if x.is_var}
        if variables <= covers[above]:
            kept, passed = above, passed + own
        else:
            triples[n] = passed + own
            kids[n] = []
            covers[n] = variables
            kids[above].append(n)
            kept, passed = n, []
        todo += ((c, kept, passed) for c in reversed(n.children))
    return triples, kids


def _block_tree(root: Block) -> WdPT:
    """The NR-normal tree of one component's root block, its nodes
    numbered breadth first."""
    triples, kids = _drop_covered(root)
    order = [root]
    for b in order:  # breadth first: `order` grows as it is read
        order += kids[b]
    new_id = {b: i for i, b in enumerate(order)}
    return WdPT(
        0,
        {new_id[c]: new_id[b] for b in order for c in kids[b]},
        {new_id[b]: TGraph(tuple(triples[b])) for b in order},
    )


def to_forest(p: GraphPattern) -> WdPF:
    """Translate a well-designed pattern into an equivalent forest.

    One tree per top-level UNION component; a triple becomes a single root
    node, AND merges root t-graphs and concatenates child lists, OPT hangs
    the right side under the left root (`patterns.and_blocks`).  Trees are
    brought to NR normal form in one pass (`_drop_covered`) and numbered
    breadth-first, and each tree is built and validated once.
    """
    return WdPF(tuple(_block_tree(root) for root in and_blocks(p)))


def tree_pattern(tree: WdPT) -> GraphPattern:
    """The AND/OPT pattern a tree denotes (labels must be non-empty)."""
    order = [tree.root]
    for n in order:  # breadth first: each node's children come after it
        order.extend(tree.children(n))
    built: dict[int, GraphPattern] = {}
    for n in reversed(order):
        triples = list(tree.label(n))
        if not triples:
            raise ValueError("cannot express an empty AND-block as a pattern")
        out: GraphPattern = Leaf(triples[0])
        for t in triples[1:]:
            out = Node(AND, out, Leaf(t))
        for c in tree.children(n):
            out = Node(OPT, out, built.pop(c))
        built[n] = out
    return built[tree.root]


def forest_pattern(forest: WdPF) -> GraphPattern:
    out = tree_pattern(forest.trees[0])
    for tree in forest.trees[1:]:
        out = Node(UNION, out, tree_pattern(tree))
    return out


def render_forest(forest: WdPF) -> str:
    """Stable textual layout: one node per line, trees separated by ---."""
    blocks = []
    for tree in forest.trees:
        lines = []
        stack = [(tree.root, 0)]
        while stack:
            n, depth = stack.pop()
            inner = " ; ".join(str(t) for t in tree.label(n))
            lines.append("  " * depth + f"n{n}: {{ {inner} }}")
            stack += ((c, depth + 1) for c in reversed(tree.children(n)))
        blocks.append("\n".join(lines))
    return "\n---\n".join(blocks) + "\n"


# ---------------------------------------------------------------------------
# support, children assignments and associated generalized t-graphs


def support(forest: WdPF, sub: Subtree) -> dict[int, SubtreeRecord]:
    """Indices of trees owning a subtree with exactly the same variables,
    each with that subtree's record, unique in NR normal form
    (`WdPT.subtree_of`)."""
    target = _record(forest, sub).variables
    hits = {i: tree.subtree_of(target) for i, tree in enumerate(forest.trees)}
    return {i: hit for i, hit in hits.items() if hit is not None}


@dataclass(frozen=True)
class ChildrenAssignment:
    """One chosen child per supporting tree, for a non-empty index set."""

    choices: tuple[tuple[int, int], ...]  # (tree index, child node id), sorted

    def __post_init__(self):
        object.__setattr__(self, "choices", tuple(sorted(self.choices)))
        if not self.choices:
            raise ValueError("children assignments have non-empty domains")
        if len({i for i, _ in self.choices}) != len(self.choices):
            raise ValueError("one child per tree index")

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.choices)

    def __str__(self) -> str:
        inner = ", ".join(f"{i} -> n{c}" for i, c in self.choices)
        return "{" + inner + "}"


def children_assignments(forest: WdPF, sub: Subtree) -> tuple[ChildrenAssignment, ...]:
    return _assignments(forest, support(forest, sub))


def _assignments(forest: WdPF, supp: dict[int, SubtreeRecord]) -> tuple[ChildrenAssignment, ...]:
    frontiers = ((i, forest.trees[i].frontier(supp[i].nodes)) for i in sorted(supp))
    eligible = [(i, kids) for i, kids in frontiers if kids]
    out = []
    for r in range(1, len(eligible) + 1):
        for chosen in combinations(eligible, r):
            for picks in product(*(kids for _, kids in chosen)):
                out.append(ChildrenAssignment(tuple(zip((i for i, _ in chosen), picks))))
    return tuple(out)


def assignment_tgraph(forest: WdPF, sub: Subtree, ca: ChildrenAssignment) -> GeneralizedTGraph:
    """pat(sub) plus each assigned child's label with its new variables
    renamed to fresh ones (`name#index#node`), distinguished set vars(sub)."""
    found = _record(forest, sub)
    dist, triples = found.variables, list(found.triples)
    for i, c in ca.choices:
        witness = forest.trees[i].subtree_of(dist) if 0 <= i < len(forest) else None
        if witness is None:
            raise ValueError(f"index {i} is not in the support")
        tree = forest.trees[i]
        if c not in tree.frontier(witness.nodes):
            raise ValueError(f"node n{c} is not a child of the witness for index {i}")
        label = tree.label(c)
        # a checked name and two integers: valid by construction
        renaming = {
            v: _interned("var", f"{v.name}#{i}#{c}") for v in label.vars() if v not in dist
        }
        triples.extend(substitute(t, renaming) for t in label)
    return GeneralizedTGraph(TGraph(tuple(triples)), dist)


def _omits_unmapped(homs: HomCache, supp: dict, ca: ChildrenAssignment, merged) -> bool:
    """No omitted supporting tree's witness pattern maps into `merged`."""
    omitted = sorted(supp.keys() - ca.domain)
    return not any(homs.maps(GeneralizedTGraph(supp[i].pat, merged.dist), merged) for i in omitted)


def is_valid_assignment(forest: WdPF, sub: Subtree, ca: ChildrenAssignment) -> bool:
    """No omitted supporting tree's witness pattern maps into the merged graph."""
    supp = support(forest, sub)
    if not ca.domain <= set(supp):
        raise ValueError("assignment domain must lie inside the support")
    return _omits_unmapped(forest.homs, supp, ca, assignment_tgraph(forest, sub, ca))


def associated_with_provenance(
    forest: WdPF, sub: Subtree
) -> tuple[tuple[ChildrenAssignment, GeneralizedTGraph], ...]:
    """Valid assignments and their merged t-graphs, deduplicated up to
    renaming of the fresh variables (checked by mutual homomorphism with the
    distinguished set fixed); the first representative is kept.  The support
    is found once, and each assignment's merged t-graph built once; every
    homomorphism test goes through the forest's `HomCache`."""
    supp, homs = support(forest, sub), forest.homs
    out: list[tuple[ChildrenAssignment, GeneralizedTGraph]] = []
    for ca in _assignments(forest, supp):
        g = assignment_tgraph(forest, sub, ca)
        if _omits_unmapped(homs, supp, ca, g) and not any(
            homs.maps(g, kept) and homs.maps(kept, g) for _, kept in out
        ):
            out.append((ca, g))
    return tuple(out)


def associated_tgraphs(forest: WdPF, sub: Subtree) -> tuple[GeneralizedTGraph, ...]:
    return tuple(g for _, g in associated_with_provenance(forest, sub))
