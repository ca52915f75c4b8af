"""Hardness-instance generation: the clique gadget and variable freezing.

Given an undirected graph H, a clique size k and a generalized t-graph
(S, X) whose core's Gaifman graph contains (per an explicitly verified
minor map) the (k x C(k,2))-grid inside one connected component, the
gadget construction produces (B, X) with

  * every all-distinguished triple of S kept in B,
  * (B, X) -> (S, X), and
  * H has a k-clique  iff  (S, X) -> (B, X).

Freezing then turns B into a ground RDF graph plus a mapping, which gives
the reduction instance: H has a k-clique iff the mapping is NOT a solution
of the original forest over the frozen graph.  No asymptotic excluded-grid
bound is consulted anywhere; the generator demands the concrete, verified
witness instead.

What depends on (S, X), its core, the minor map and k alone is a
`GadgetPlan`: checked and compiled once, and kept per k in the forest's
`Analysis` for the forest's own witness core and grid minor.  The plan
sorts the core triples into kept ones and templates, and records each
template's shape: per anchor, its side (whether `vertex in edge`) and the
earlier anchor it shares a grid row or column with.  Each H then only
instantiates the plan, in one pass: the consistent (vertex, edge)
combinations are found once per shape, column by column, and each
template's triples are zipped from its columns of terms, with no tuple
built per partial combination.  `build_clique_gadget` makes the gadget's
variables, and `generate_hard_instance` makes their frozen IRIs
directly, into a t-graph made knowing it is ground, with no gadget
variable and no second substitution.  The per-H checks (vertex names,
the two gadget properties, the frozen mapping's domain) run on every
instance.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, repeat

from .errors import (
    ComponentMismatch,
    InvalidMinorMap,
    NoGridMinorFound,
    NoHardWitness,
    ParseError,
    ReservedPrefixCollision,
    SearchTooLarge,
)
from .graphs import UndirectedGraph, grid_graph
from .hom import GeneralizedTGraph, core, gaifman
from .terms import Mapping, TGraph, Term, Triple, _data_lines, _interned, _triple, parse_term, var
from .trees import WdPF, subtree_vars
from .width import Analysis, HardWitness

FROZEN_PREFIX = "frz:"
MAX_GRID_CELLS = 9
MAX_MINOR_TARGET = 12
MAX_CLIQUE_VERTICES = 20

# vertex names of clique-instance graphs get embedded in generated variables
_H_NAME = re.compile(r"[A-Za-z0-9_]+\Z")


@dataclass(frozen=True)
class CliqueInstance:
    graph: UndirectedGraph
    k: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"clique size must be at least 2, got {self.k}")


@dataclass(frozen=True)
class MinorMap:
    """Branch sets gamma(i, j) witnessing a grid minor in a target graph."""

    rows: int
    cols: int
    cells: tuple[tuple[tuple[int, int], frozenset], ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "cells",
            tuple(sorted((cell, frozenset(vs)) for cell, vs in self.cells)),
        )

    @classmethod
    def of(cls, rows: int, cols: int, assignment: dict) -> "MinorMap":
        return cls(rows, cols, tuple(assignment.items()))

    def branch(self, i: int, j: int) -> frozenset:
        for cell, vs in self.cells:
            if cell == (i, j):
                return vs
        raise KeyError((i, j))

    def covered(self) -> frozenset:
        out: set = set()
        for _, vs in self.cells:
            out |= vs
        return frozenset(out)


def verify_minor_map(mm: MinorMap, target: UndirectedGraph) -> bool:
    """All four conditions: connected branch sets, disjointness, grid-edge
    coverage, and onto (branch sets cover the whole target)."""
    cells = {cell for cell, _ in mm.cells}
    expected = {(i, j) for i in range(1, mm.rows + 1) for j in range(1, mm.cols + 1)}
    if cells != expected:
        return False
    seen: set = set()
    for _, vs in mm.cells:
        if not vs or not vs <= target.vertices:
            return False
        if vs & seen:
            return False
        seen |= vs
        if len(target.subgraph(vs).components()) != 1:
            return False
    if seen != target.vertices:
        return False
    for e in grid_graph(mm.rows, mm.cols).edges:
        (i1, j1), (i2, j2) = tuple(e)
        a, b = mm.branch(i1, j1), mm.branch(i2, j2)
        if not any(target.has_edge(u, v) for u in a for v in b):
            return False
    return True


def find_grid_minor(target: UndirectedGraph, rows: int, cols: int) -> MinorMap | None:
    """Exhaustive search for an onto minor map of the (rows x cols)-grid.

    Cells are filled in row-major order; each takes a connected set of the
    remaining vertices with an edge to every already-placed grid neighbour.
    """
    if rows * cols > MAX_GRID_CELLS:
        raise SearchTooLarge(f"{rows * cols} grid cells exceed the cap of {MAX_GRID_CELLS}")
    if len(target.vertices) > MAX_MINOR_TARGET:
        raise SearchTooLarge(
            f"{len(target.vertices)} target vertices exceed the cap of {MAX_MINOR_TARGET}"
        )
    vertices = sorted(target.vertices, key=str)
    adj = target.adjacency()
    cells = [(i, j) for i in range(1, rows + 1) for j in range(1, cols + 1)]
    if len(vertices) < len(cells):
        return None

    def connected_subsets(avail: frozenset, limit: int):
        subsets: set[frozenset] = {frozenset((v,)) for v in avail}
        frontier = list(subsets)
        while frontier:
            s = frontier.pop()
            yield s
            if len(s) >= limit:
                continue
            grow = {u for v in s for u in adj[v] if u in avail} - s
            for u in sorted(grow, key=str):
                bigger = s | {u}
                if bigger not in subsets:
                    subsets.add(bigger)
                    frontier.append(bigger)

    assignment: dict[tuple[int, int], frozenset] = {}

    def place(idx: int, avail: frozenset) -> bool:
        if idx == len(cells):
            return not avail  # onto
        cell = cells[idx]
        i, j = cell
        neighbours = [c for c in ((i - 1, j), (i, j - 1)) if c in assignment]
        room = len(avail) - (len(cells) - idx - 1)
        for s in sorted(connected_subsets(avail, room), key=lambda s: (len(s), str(sorted(s, key=str)))):
            ok = all(
                any(target.has_edge(u, v) for u in assignment[c] for v in s)
                for c in neighbours
            )
            if ok:
                assignment[cell] = s
                if place(idx + 1, avail - s):
                    return True
                del assignment[cell]
        return False

    if place(0, frozenset(vertices)):
        return MinorMap.of(rows, cols, assignment)
    return None


def pair_bijection(k: int) -> tuple[frozenset, ...]:
    """Index p (1-based) -> unordered pair of {1..k}, lexicographically."""
    return tuple(frozenset(pair) for pair in combinations(range(1, k + 1), 2))


class GadgetPlan:
    """The part of a clique gadget that depends on (g, cored, mm, k) alone,
    checked and compiled once, so that each clique instance H only
    instantiates it.

    Building it runs every check those inputs decide: `cored` is a
    subgraph of g with g's distinguished set, and the minor map covers one
    connected component of the core's Gaifman graph, has the
    (k x C(k,2)) shape and passes `verify_minor_map`.  It keeps each
    anchor (a variable of that component) with whether its grid row lies
    in its column's pair (its side) and the tail `#row#column#anchor` of
    its terms' names; the core triples that lean on another component or
    hold no anchor, kept verbatim; and the others as templates.  A
    template is its layout, per position a kept term or the index of an
    anchor slot, and its shape, per anchor slot its side and the earlier
    slots in its row and in its column, whose vertex and edge it must
    take.  Templates of one shape share their consistent combinations.
    Freezing adds, on first use, the reserved-prefix check on the core's
    IRIs and the frozen IRI of every core variable.
    """

    def __init__(self, g: GeneralizedTGraph, cored: GeneralizedTGraph, mm: MinorMap, k: int):
        if cored.dist != g.dist or not cored.tgraph.triple_set <= g.tgraph.triple_set:
            raise ValueError("the given core is not a subgraph of the t-graph")
        gaif = gaifman(cored)
        covered = mm.covered()
        if covered not in gaif.components():
            raise ComponentMismatch(
                "minor-map target is not a connected component of the core's Gaifman graph"
            )
        pairs = pair_bijection(k)
        if (mm.rows, mm.cols) != (k, len(pairs)):
            raise InvalidMinorMap(
                f"expected a ({k} x {len(pairs)})-grid map, got ({mm.rows} x {mm.cols})"
            )
        if not verify_minor_map(mm, gaif.subgraph(covered)):
            raise InvalidMinorMap("minor map fails verification against the component")
        self.original = g
        self.cored = cored
        self.minor_map = mm
        cell_of = {anchor: cell for cell, vs in mm.cells for anchor in vs}
        self.anchors: dict[Term, tuple[bool, str]] = {
            anchor: (i in pairs[p - 1], f"#{i}#{p}#{anchor.name}")
            for anchor, (i, p) in cell_of.items()
        }
        dist = cored.dist
        kept: list[Triple] = []
        templates: list[tuple[tuple, tuple]] = []
        for t in cored.tgraph:
            if not any(x in cell_of for x in t) or any(
                v not in dist and v not in covered for v in t.vars()
            ):
                kept.append(t)  # projects to itself
                continue
            layout: list[tuple[Term, int | None]] = []
            shape: list[tuple[bool, int | None, int | None]] = []
            cells: list[tuple[int, int]] = []  # the cell of each anchor slot so far
            for x in t:
                if x not in cell_of:
                    layout.append((x, None))
                    continue
                i, p = cell_of[x]
                row = next((n for n, (r, _) in enumerate(cells) if r == i), None)
                column = next((n for n, (_, c) in enumerate(cells) if c == p), None)
                layout.append((x, len(shape)))
                shape.append((self.anchors[x][0], row, column))
                cells.append((i, p))
            templates.append((tuple(layout), tuple(shape)))
        self.kept = tuple(kept)
        self.templates = tuple(templates)
        # the lookups the shapes read past their first slot: (side, keyed
        # by vertex, keyed by edge), the unconstrained ones excepted
        self.lookups = frozenset(
            (side, row is not None, column is not None)
            for _, shape in templates
            for side, row, column in shape[1:]
            if row is not None or column is not None
        )

    @cached_property
    def _frozen(self) -> tuple[tuple, tuple, dict[Term, Term], Mapping]:
        """The kept triples and templates with every core variable made its
        frozen IRI, the frozen IRI -> variable map, and the mapping of the
        distinguished variables to their frozen IRIs."""
        frozen, mapping = _freezing(self.cored)
        get = frozen.get
        kept = tuple(_triple(map(get, t, t)) for t in self.kept)
        templates = tuple(
            (tuple((x, n) if n is not None else (get(x, x), n) for x, n in layout), shape)
            for layout, shape in self.templates
        )
        return kept, templates, {a: v for v, a in frozen.items()}, mapping

    def gadget(self, h: UndirectedGraph) -> GeneralizedTGraph:
        """The gadget (B, X) for H, its variables named `?g#...`."""
        triples, projection = self._instantiate(h, "var", "", self.kept, self.templates)
        gadget = GeneralizedTGraph(TGraph(triples), self.cored.dist, declared=True)
        _check_gadget(self.original, self.cored, gadget, projection)
        return gadget

    def freeze(self, h: UndirectedGraph) -> FrozenInstance:
        """`freeze(self.gadget(h))`, built in one pass: each gadget term is
        made as its frozen IRI `frz:g#...`, and no gadget variable is made."""
        kept, templates, thawed, mapping = self._frozen
        triples, projection = self._instantiate(h, "iri", FROZEN_PREFIX, kept, templates)
        projection.update(thawed)
        graph = TGraph._ground(triples)
        _check_gadget(self.original, self.cored, graph, projection)
        return FrozenInstance(graph, mapping)

    def _instantiate(
        self, h: UndirectedGraph, kind: str, prefix: str, kept: tuple, templates: tuple
    ) -> tuple[list[Triple], dict[Term, Term]]:
        """The triples of the gadget for H (as `build_clique_gadget` states
        it) from `kept` and `templates`, and the projection from each gadget
        term to its anchor.  A gadget term is of `kind`, named `prefix` +
        `g#v#a#b#row#column#anchor` for vertex v and edge ab."""
        for v in h.vertices:
            if not isinstance(v, str) or not _H_NAME.match(v):
                raise ValueError(f"graph vertex names must be plain tokens, got {v!r}")
        h_vertices = sorted(h.vertices)
        h_edges = sorted(tuple(sorted(e)) for e in h.edges)

        # Per side (whether `vertex in edge`): the (vertex, edge) pairs on
        # it.  The names hold checked H names, integers and a variable
        # name: valid by construction.
        sides = {}
        stems = {}
        for side in {side for side, _ in self.anchors.values()}:
            pairs = sides[side] = [
                (v, e) for v in h_vertices for e in h_edges if (v in e) == side
            ]
            stems[side] = [f"{prefix}g#{v}#{e[0]}#{e[1]}" for v, e in pairs]
        projection: dict[Term, Term] = {}
        # per anchor, its terms in the order of its side's pairs
        terms_of: dict[Term, list[Term]] = {}
        for anchor, (side, tail) in self.anchors.items():
            made = terms_of[anchor] = [_interned(kind, stem + tail) for stem in stems[side]]
            projection.update(dict.fromkeys(made, anchor))
        # per lookup the plan reads, the positions of a side's pairs under
        # each key (vertex, edge, or both) they have
        keyed = {}
        for side, by_vertex, by_edge in self.lookups:
            pairs = sides[side]
            if by_vertex and by_edge:  # a side's pairs are distinct
                found = dict(zip(pairs, zip(range(len(pairs)))))
            else:
                found = {}
                for i, ve in enumerate(pairs):
                    found.setdefault(ve[0 if by_vertex else 1], []).append(i)
            keyed[side, by_vertex, by_edge] = found

        triples = list(kept)
        consistent: dict[tuple, list] = {}
        for layout, shape in templates:
            columns = consistent.get(shape)
            if columns is None:
                columns = consistent[shape] = _combinations(shape, sides, keyed)
            n = len(columns[0])
            triples.extend(map(_triple, zip(*[
                repeat(x, n) if slot is None else map(terms_of[x].__getitem__, columns[slot])
                for x, slot in layout
            ])))
        return triples, projection


def _combinations(shape: tuple, sides: dict, keyed: dict) -> list:
    """The consistent combinations of `shape`, column by column: per anchor
    slot, the position in its side's pairs of the (vertex, edge) pair it
    takes in each combination.  A slot takes the vertex of the earlier slot
    in its row and the edge of the one in its column, through the `keyed`
    lookup of its side."""
    (side, _, _), *rest = shape
    columns: list = [range(len(sides[side]))]
    pairs_of = [sides[side]]  # per slot so far, its side's pairs
    for side, row, column in rest:
        pairs = sides[side]
        if row is None and column is None:
            hits = [range(len(pairs))] * len(columns[0])
        else:
            if column is None:
                keys = [pairs_of[row][i][0] for i in columns[row]]
            elif row is None:
                keys = [pairs_of[column][i][1] for i in columns[column]]
            else:
                keys = zip(
                    [pairs_of[row][i][0] for i in columns[row]],
                    [pairs_of[column][i][1] for i in columns[column]],
                )
            lookup = keyed[side, row is not None, column is not None].get
            hits = list(map(lookup, keys, repeat(())))
        counts = list(map(len, hits))
        columns = [list(chain.from_iterable(map(repeat, c, counts))) for c in columns]
        columns.append(list(chain.from_iterable(hits)))
        pairs_of.append(pairs)
    return columns


def build_clique_gadget(
    g: GeneralizedTGraph,
    inst: CliqueInstance,
    mm: MinorMap,
) -> GeneralizedTGraph:
    """The t-graph (B, X) whose homomorphism test encodes k-clique search:
    a `GadgetPlan` of the inputs, instantiated for H.

    One fresh variable per (graph vertex, graph edge, grid row, grid column,
    anchor) combination with `vertex in edge  iff  row in pair(column)`; the
    triples of the core whose free variables lie in the chosen component are
    re-instantiated over every combination of those that keeps the two
    consistency rules (same row forces the same vertex, same column the
    same edge).  Triples leaning on other components are kept verbatim.
    """
    return GadgetPlan(g, core(g), mm, inst.k).gadget(inst.graph)


def _check_gadget(
    original: GeneralizedTGraph,
    cored: GeneralizedTGraph,
    gadget: GeneralizedTGraph | TGraph,
    projection: dict[Term, Term],
) -> None:
    """Each triple of the gadget (B, X), or of its frozen graph, under
    `projection` (each gadget term to its core term, other terms
    unchanged) is a core triple, and each all-distinguished triple of the
    original is such an image.  Through the projection the check reads
    alike on a gadget and on its frozen graph."""
    tgraph = gadget.tgraph if isinstance(gadget, GeneralizedTGraph) else gadget
    # each triple under the projection, column by column, as plain tuples
    # as in `Mapping.images_in`
    get = projection.get
    projected = set(zip(*(map(get, c, c) for c in zip(*tgraph.triples))))
    dist = original.dist
    for t in original.tgraph:
        if t not in projected and t.vars() <= dist:
            raise AssertionError("an all-distinguished triple went missing")
    if not projected <= cored.tgraph.triple_set:
        raise AssertionError("gadget does not project into the core")


def _freezing(b: GeneralizedTGraph) -> tuple[dict[Term, Term], Mapping]:
    """Each variable of B to the IRI `frz:` + its name, and the mapping of
    the distinguished variables to theirs.  An IRI of B already under the
    reserved prefix is refused with ReservedPrefixCollision."""
    for x in b.tgraph.iris():
        if x.name.startswith(FROZEN_PREFIX):
            raise ReservedPrefixCollision(
                f"IRI {x} already uses the reserved prefix {FROZEN_PREFIX!r}"
            )
    # `frz:` and a variable name: valid by construction
    frozen = {v: _interned("iri", FROZEN_PREFIX + v.name) for v in b.tgraph.vars() | b.dist}
    return frozen, Mapping._valid({x: frozen[x] for x in b.dist})


@dataclass(frozen=True)
class FrozenInstance:
    """A gadget turned into a ground graph: B with its variables made IRIs."""

    graph: TGraph
    mapping: Mapping

    def thaw(self, t: Term) -> Term:
        """The variable a frozen IRI of this instance's graph or mapping
        stands for, read from its name; any other term as it is."""
        if (
            t.is_iri
            and t.name.startswith(FROZEN_PREFIX)
            and (t in self.graph.iris() or any(a is t for _, a in self.mapping.items()))
        ):
            return var(t.name[len(FROZEN_PREFIX):])
        return t


def freeze(b: GeneralizedTGraph) -> FrozenInstance:
    """B with each variable made the IRI `frz:` + its name, and the mapping
    of the distinguished variables to theirs."""
    frozen, mapping = _freezing(b)
    get = frozen.get
    return FrozenInstance(TGraph._ground(_triple(map(get, t, t)) for t in b.tgraph), mapping)


@dataclass(frozen=True)
class HardInstance:
    frozen: FrozenInstance
    witness: HardWitness
    minor_map: MinorMap

    @property
    def graph(self) -> TGraph:
        return self.frozen.graph

    @property
    def mapping(self) -> Mapping:
        return self.frozen.mapping

    def report(self) -> str:
        lines = [
            f"witness subtree: {self.witness.subtree}",
            f"children assignment: {self.witness.assignment}",
            f"merged t-graph: {self.witness.tgraph.tgraph}",
            f"distinguished: {{{', '.join(str(x) for x in sorted(self.witness.tgraph.dist, key=str))}}}",
            f"grid: {self.minor_map.rows} x {self.minor_map.cols}",
        ]
        for cell, vs in self.minor_map.cells:
            names = " ".join(str(v) for v in sorted(vs, key=str))
            lines.append(f"cell {cell[0]} {cell[1]} : {names}")
        lines.append(f"graph triples: {len(self.graph)}")
        lines.append(f"mapping: {self.mapping}")
        return "\n".join(lines) + "\n"


def generate_hard_instance(
    forest: WdPF, inst: CliqueInstance, mm: MinorMap | None = None
) -> HardInstance:
    """Build (G, mu) such that H has a k-clique iff mu is not a solution.

    Takes the hard witness at the forest's exact domination width and the
    `GadgetPlan` over its core and a grid-minor map on one of the core's
    Gaifman components from the forest's `Analysis`, so they are found
    and checked once per forest; a minor map the caller gives gets a plan
    of its own, checked on each call.  The plan freezes the gadget for H
    in one pass.
    """
    analysis = Analysis.of(forest)
    witness = analysis.witness(analysis.width)
    if witness is None:
        raise NoHardWitness(
            "the forest has no subtree with associated t-graphs to build from"
        )
    k = inst.k
    if mm is None:
        plan = analysis.gadget_plan(k)
        if plan is None:
            raise NoGridMinorFound(
                f"no component of the witness core carries a ({k} x {k * (k - 1) // 2})-grid minor"
            )
    else:
        cored, _ = analysis.witness_core
        plan = GadgetPlan(witness.tgraph, cored, mm, k)
    frozen = plan.freeze(inst.graph)
    if frozen.mapping.domain != subtree_vars(forest, witness.subtree):
        raise AssertionError("frozen mapping domain must equal the subtree variables")
    return HardInstance(frozen, witness, plan.minor_map)


def has_clique(h: UndirectedGraph, k: int) -> bool:
    """Exhaustive k-clique test (exact, capped)."""
    if len(h.vertices) > MAX_CLIQUE_VERTICES:
        raise SearchTooLarge(
            f"{len(h.vertices)} vertices exceed the cap of {MAX_CLIQUE_VERTICES}"
        )
    if k <= 0:
        return True
    if k == 1:
        return bool(h.vertices)
    candidates = sorted((v for v in h.vertices if h.degree(v) >= k - 1), key=str)
    return any(
        all(h.has_edge(a, b) for a, b in combinations(group, 2))
        for group in combinations(candidates, k)
    )


# ---------------------------------------------------------------------------
# file formats for undirected graphs and minor maps


def parse_undirected_graph(text: str) -> UndirectedGraph:
    """Lines `vertex a` and `edge a b`; an edge's endpoints become vertices,
    and a self-loop is refused.  Blank lines and lines whose first non-blank
    character is `#` are skipped.

    Names are restricted to [A-Za-z0-9_] because they end up embedded in
    generated variable names.

    One pass splits every line into its tokens and reads each row's keyword
    and arity; each distinct name is then checked once, and the graph is
    built once, each edge made once.  Only when that pass finds a fault are
    the lines walked again, in order, to raise the first bad line's error.
    """
    vertices: set[str] = set()
    pairs: set[tuple[str, str]] = set()
    for t in map(str.split, text.splitlines()):
        if not t or t[0][0] == "#":
            continue
        n = len(t)
        if n == 3 and t[0] == "edge" and t[1] != t[2]:
            pairs.add((t[1], t[2]))
        elif n == 2 and t[0] == "vertex":
            vertices.add(t[1])
        else:
            _raise_first_bad_line(text)
    vertices.update(chain.from_iterable(pairs))
    if not all(map(_H_NAME.match, vertices)):
        _raise_first_bad_line(text)
    return UndirectedGraph._built(frozenset(vertices), frozenset(map(frozenset, pairs)))


def _raise_first_bad_line(text: str) -> None:
    """Raise the error of the first bad line of a `.ug` file: in each line,
    a bad name first (in token order), then the keyword and arity, then a
    self-loop."""
    for no, line in _data_lines(text):
        tokens = line.split()
        for tok in tokens[1:]:
            if not _H_NAME.match(tok):
                raise ParseError(f"bad vertex name {tok!r}", line=no)
        if tokens[0] == "vertex" and len(tokens) == 2:
            continue
        if tokens[0] != "edge" or len(tokens) != 3:
            raise ParseError("expected 'vertex a' or 'edge a b'", line=no)
        if tokens[1] == tokens[2]:
            raise ParseError(f"self-loop at {tokens[1]!r}", line=no)
    raise AssertionError("the one-pass .ug reader refused a good file")


def parse_minor_map(text: str) -> MinorMap:
    """Lines `cell i j : a b c` listing the branch set of grid cell (i, j)."""
    assignment: dict[tuple[int, int], frozenset] = {}
    rows = cols = 0
    for no, line in _data_lines(text):
        head, _, tail = line.partition(":")
        tokens = head.split()
        if len(tokens) != 3 or tokens[0] != "cell":
            raise ParseError("expected 'cell i j : members'", line=no)
        try:
            i, j = int(tokens[1]), int(tokens[2])
        except ValueError:
            raise ParseError("cell coordinates must be integers", line=no)
        members = tail.split()
        if not members:
            raise ParseError("a branch set cannot be empty", line=no)
        if (i, j) in assignment:
            raise ParseError(f"duplicate cell ({i}, {j})", line=no)
        assignment[(i, j)] = frozenset(parse_term(tok, line=no) for tok in members)
        rows, cols = max(rows, i), max(cols, j)
    return MinorMap.of(rows, cols, assignment)
