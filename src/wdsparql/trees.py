"""Well-designed pattern trees and forests.

A wdPT is a rooted tree whose nodes carry t-graphs; the tree structure
encodes OPT nesting, each node an AND-block.  Constructors validate the
tree shape and the variable-connectivity condition (the nodes mentioning
any one variable induce a connected subgraph).  NR normal form (every
non-root node introduces a variable its parent lacks) is required by the
evaluation and width machinery and established by `nr_normalize`.

This module also hosts the combinatorics the width analysis is built on:
root-containing subtrees, their support across the forest, children
assignments, the merged-and-renamed t-graphs they induce, and the set of
generalized t-graphs associated with a subtree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Iterator

from .errors import NotNRNormalForm
from .hom import GeneralizedTGraph, find_homomorphism
from .patterns import AND, OPT, UNION, GraphPattern, Leaf, Node, union_normalize
from .terms import TGraph, Term, Triple, substitute, var


class WdPT:
    """Rooted labeled tree; immutable once constructed."""

    def __init__(self, root: int, parents: dict[int, int], labels: dict[int, TGraph]):
        self.root = root
        self.parents = dict(parents)
        self.labels = dict(labels)
        self._children: dict[int, tuple[int, ...]] = {n: () for n in self.labels}
        self._subtrees: dict = {}  # subtree_of's finds, by variable set
        self._validate()
        self._nr = all(
            self.node_vars(n) - self.node_vars(p) for n, p in self.parents.items()
        )

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
        for n in nodes:  # acyclicity: every node reaches the root
            seen = set()
            while n != self.root:
                if n in seen:
                    raise ValueError("parent links contain a cycle")
                seen.add(n)
                n = self.parents[n]
        for x in self.vars():
            holders = {n for n in nodes if x in self.labels[n].vars()}
            top = sum(
                1
                for n in holders
                if n == self.root or self.parents[n] not in holders
            )
            if top != 1:
                raise ValueError(f"nodes mentioning {x} are not connected")

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
        out: tuple[Triple, ...] = ()
        for n in picked:
            out += self.labels[n].triples
        return TGraph(out)

    def vars(self, nodes=None) -> frozenset[Term]:
        picked = self.labels if nodes is None else nodes
        return frozenset().union(*(self.labels[n].vars() for n in picked))

    def depth(self, n: int) -> int:
        d = 0
        while n != self.root:
            n = self.parents[n]
            d += 1
        return d

    def is_nr(self) -> bool:
        """Does every non-root node introduce a variable its parent lacks?"""
        return self._nr

    def ensure_nr(self) -> None:
        if not self.is_nr():
            raise NotNRNormalForm("tree is not in NR normal form")

    def subtree_nodesets(self) -> tuple[frozenset[int], ...]:
        """Every root-containing connected node set, sorted canonically."""

        def grow(n: int) -> list[frozenset[int]]:
            options = [[frozenset()] + grow(c) for c in self.children(n)]
            return [
                frozenset({n}).union(*combo) for combo in product(*options)
            ]

        return tuple(sorted(grow(self.root), key=lambda s: tuple(sorted(s))))

    def subtree_of(self, variables: frozenset[Term]) -> tuple[frozenset[int], tuple[Triple, ...]] | None:
        """The root subtree whose variables are exactly `variables`, with
        its pattern triples, or None: the nodes whose variables lie inside
        `variables`, grown from the root, if they cover them all (in NR
        normal form it is the only such subtree).  A find is kept under its
        variable set and a miss is not, so the table never holds more
        entries than the tree has root subtrees."""
        hit = self._subtrees.get(variables)
        if hit is None and self.node_vars(self.root) <= variables:
            keep = [self.root]
            for n in keep:  # breadth first: `keep` grows as it is read
                keep.extend(c for c in self.children(n) if self.node_vars(c) <= variables)
            if self.vars(keep) == variables:
                triples = tuple(t for n in sorted(keep) for t in self.labels[n])
                hit = self._subtrees[variables] = (frozenset(keep), triples)
        return hit

    def frontier(self, nodes) -> tuple[int, ...]:
        """Nodes outside `nodes` whose parent lies inside it, sorted."""
        return tuple(sorted(c for n in nodes for c in self.children(n) if c not in nodes))

    def child_tgraphs(self, nodes) -> Iterator[GeneralizedTGraph]:
        """Per child of the subtree `nodes`, in frontier order and built as
        it is asked for: the subtree's pattern plus the child's label, with
        the subtree's variables distinguished."""
        kids = self.frontier(nodes)
        if kids:
            pat, dist = self.pat(nodes), self.vars(nodes)
            yield from (GeneralizedTGraph(pat | self.label(c), dist) for c in kids)

    def renumbered(self) -> "WdPT":
        order = []
        queue = [self.root]
        while queue:
            n = queue.pop(0)
            order.append(n)
            queue.extend(self.children(n))
        new_id = {n: i for i, n in enumerate(order)}
        return WdPT(
            0,
            {new_id[n]: new_id[p] for n, p in self.parents.items()},
            {new_id[n]: g for n, g in self.labels.items()},
        )

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WdPT)
            and self.root == other.root
            and self.parents == other.parents
            and self.labels == other.labels
        )

    def __repr__(self) -> str:
        return f"WdPT(root={self.root}, nodes={len(self.labels)})"


@dataclass(frozen=True)
class WdPF:
    """An ordered forest of wdPTs; indices are stable and 0-based."""

    trees: tuple[WdPT, ...]
    # width.Analysis, built on first use; not part of the value, and it
    # lives exactly as long as the forest
    analysis: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.trees:
            raise ValueError("a pattern forest holds at least one tree")

    def ensure_nr(self) -> None:
        for t in self.trees:
            t.ensure_nr()

    def vars(self) -> frozenset[Term]:
        out: frozenset[Term] = frozenset()
        for t in self.trees:
            out |= t.vars()
        return out

    def __len__(self) -> int:
        return len(self.trees)

    def __iter__(self):
        return iter(self.trees)


@dataclass(frozen=True)
class Subtree:
    """A root-containing subtree of one tree of a forest, by node ids."""

    tree_index: int
    nodes: frozenset[int]

    def __str__(self) -> str:
        ids = ", ".join(f"n{n}" for n in sorted(self.nodes))
        return f"tree {self.tree_index} [{ids}]"


def subtree_pat(forest: WdPF, sub: Subtree) -> TGraph:
    return forest.trees[sub.tree_index].pat(sub.nodes)


def subtree_vars(forest: WdPF, sub: Subtree) -> frozenset[Term]:
    return forest.trees[sub.tree_index].vars(sub.nodes)


def subtree_children(forest: WdPF, sub: Subtree) -> tuple[int, ...]:
    """Nodes outside the subtree whose parent lies inside it."""
    return forest.trees[sub.tree_index].frontier(sub.nodes)


def subtrees(forest: WdPF) -> tuple[Subtree, ...]:
    out = []
    for i, tree in enumerate(forest.trees):
        out.extend(Subtree(i, ns) for ns in tree.subtree_nodesets())
    return tuple(out)


# ---------------------------------------------------------------------------
# translation from graph patterns


def _component_structure(p: GraphPattern):
    """(t-graph, children) nesting: AND merges, OPT hangs the right side."""
    if isinstance(p, Leaf):
        return TGraph((p.triple,)), []
    if p.op == AND:
        lg, lc = _component_structure(p.left)
        rg, rc = _component_structure(p.right)
        return lg | rg, lc + rc
    if p.op == OPT:
        lg, lc = _component_structure(p.left)
        return lg, lc + [_component_structure(p.right)]
    raise ValueError("UNION below the top level")  # unreachable on wd input


def _materialize(structure) -> WdPT:
    labels: dict[int, TGraph] = {}
    parents: dict[int, int] = {}
    counter = 0

    def walk(node, parent: int | None) -> None:
        nonlocal counter
        me = counter
        counter += 1
        g, kids = node
        labels[me] = g
        if parent is not None:
            parents[me] = parent
        for kid in kids:
            walk(kid, me)

    walk(structure, None)
    return WdPT(0, parents, labels)


def nr_normalize(tree: WdPT) -> WdPT:
    """Merge every node whose variables are covered by its parent into it."""
    labels = dict(tree.labels)
    parents = dict(tree.parents)
    while True:
        merged = False
        for n in sorted(parents):
            p = parents[n]
            if labels[n].vars() <= labels[p].vars():
                labels[p] = labels[p] | labels[n]
                del labels[n]
                del parents[n]
                for child, q in list(parents.items()):
                    if q == n:
                        parents[child] = p
                merged = True
                break
        if not merged:
            break
    return WdPT(tree.root, parents, labels)


def to_forest(p: GraphPattern) -> WdPF:
    """Translate a well-designed pattern into an equivalent forest.

    One tree per top-level UNION component; a triple becomes a single root
    node, AND merges root t-graphs and concatenates child lists, OPT hangs
    the right side under the left root.  Trees are NR-normalized and
    renumbered breadth-first.
    """
    comps = union_normalize(p)
    trees = []
    for comp in comps:
        tree = _materialize(_component_structure(comp))
        tree = nr_normalize(tree).renumbered()
        tree.ensure_nr()
        trees.append(tree)
    return WdPF(tuple(trees))


def tree_pattern(tree: WdPT) -> GraphPattern:
    """The AND/OPT pattern a tree denotes (labels must be non-empty)."""

    def conj(g: TGraph) -> GraphPattern:
        triples = list(g)
        if not triples:
            raise ValueError("cannot express an empty AND-block as a pattern")
        out: GraphPattern = Leaf(triples[0])
        for t in triples[1:]:
            out = Node(AND, out, Leaf(t))
        return out

    def walk(n: int) -> GraphPattern:
        out = conj(tree.label(n))
        for c in tree.children(n):
            out = Node(OPT, out, walk(c))
        return out

    return walk(tree.root)


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
        stack = [tree.root]
        while stack:
            n = stack.pop()
            inner = " ; ".join(str(t) for t in tree.label(n))
            lines.append("  " * tree.depth(n) + f"n{n}: {{ {inner} }}")
            stack.extend(reversed(tree.children(n)))
        blocks.append("\n".join(lines))
    return "\n---\n".join(blocks) + "\n"


# ---------------------------------------------------------------------------
# support, children assignments and associated generalized t-graphs


def support(forest: WdPF, sub: Subtree) -> dict[int, Subtree]:
    """Indices of trees owning a subtree with exactly the same variables,
    each with that subtree, unique in NR normal form (`WdPT.subtree_of`)."""
    target = subtree_vars(forest, sub)
    hits = {i: tree.subtree_of(target) for i, tree in enumerate(forest.trees)}
    return {i: Subtree(i, hit[0]) for i, hit in hits.items() if hit is not None}


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

    def child(self, i: int) -> int:
        for j, c in self.choices:
            if j == i:
                return c
        raise KeyError(i)

    def __str__(self) -> str:
        inner = ", ".join(f"{i} -> n{c}" for i, c in self.choices)
        return "{" + inner + "}"


def children_assignments(forest: WdPF, sub: Subtree) -> tuple[ChildrenAssignment, ...]:
    supp = support(forest, sub)
    eligible = [
        (i, subtree_children(forest, supp[i]))
        for i in sorted(supp)
        if subtree_children(forest, supp[i])
    ]
    out = []
    for r in range(1, len(eligible) + 1):
        for chosen in combinations(eligible, r):
            for picks in product(*(kids for _, kids in chosen)):
                out.append(
                    ChildrenAssignment(
                        tuple((i, c) for (i, _), c in zip(chosen, picks))
                    )
                )
    return tuple(out)


def assignment_tgraph(
    forest: WdPF, sub: Subtree, ca: ChildrenAssignment
) -> GeneralizedTGraph:
    """pat(sub) plus each assigned child's label with its new variables
    renamed to fresh ones (`name#index#node`), distinguished set vars(sub)."""
    dist = subtree_vars(forest, sub)
    supp = support(forest, sub)
    triples = list(subtree_pat(forest, sub))
    for i, c in ca.choices:
        if i not in supp:
            raise ValueError(f"index {i} is not in the support")
        if c not in subtree_children(forest, supp[i]):
            raise ValueError(f"node n{c} is not a child of the witness for index {i}")
        label = forest.trees[i].label(c)
        renaming = {
            v: var(f"{v.name}#{i}#{c}") for v in label.vars() if v not in dist
        }
        triples.extend(substitute(t, renaming) for t in label)
    return GeneralizedTGraph(TGraph(tuple(triples)), dist)


def is_valid_assignment(forest: WdPF, sub: Subtree, ca: ChildrenAssignment) -> bool:
    """No omitted supporting tree's witness pattern maps into the merged graph."""
    supp = support(forest, sub)
    if not ca.domain <= set(supp):
        raise ValueError("assignment domain must lie inside the support")
    merged = assignment_tgraph(forest, sub, ca)
    dist = merged.dist
    for i in sorted(set(supp) - ca.domain):
        probe = GeneralizedTGraph(subtree_pat(forest, supp[i]), dist)
        if find_homomorphism(probe, merged) is not None:
            return False
    return True


def valid_assignments(forest: WdPF, sub: Subtree) -> tuple[ChildrenAssignment, ...]:
    return tuple(
        ca for ca in children_assignments(forest, sub) if is_valid_assignment(forest, sub, ca)
    )


def _hom_equivalent(a: GeneralizedTGraph, b: GeneralizedTGraph) -> bool:
    return (
        find_homomorphism(a, b) is not None and find_homomorphism(b, a) is not None
    )


def associated_with_provenance(
    forest: WdPF, sub: Subtree
) -> tuple[tuple[ChildrenAssignment, GeneralizedTGraph], ...]:
    """Valid assignments and their merged t-graphs, deduplicated up to
    renaming of the fresh variables (checked by mutual homomorphism with the
    distinguished set fixed); the first representative is kept."""
    out: list[tuple[ChildrenAssignment, GeneralizedTGraph]] = []
    for ca in valid_assignments(forest, sub):
        g = assignment_tgraph(forest, sub, ca)
        if not any(_hom_equivalent(g, kept) for _, kept in out):
            out.append((ca, g))
    return tuple(out)


def associated_tgraphs(forest: WdPF, sub: Subtree) -> tuple[GeneralizedTGraph, ...]:
    return tuple(g for _, g in associated_with_provenance(forest, sub))
