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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import combinations

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
from .terms import Mapping, TGraph, Term, Triple, _data_lines, _triple, iri, parse_term, substitute, var
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


def build_clique_gadget(
    g: GeneralizedTGraph,
    inst: CliqueInstance,
    mm: MinorMap,
    *,
    cored: GeneralizedTGraph | None = None,
) -> GeneralizedTGraph:
    """The t-graph (B, X) whose homomorphism test encodes k-clique search.

    One fresh variable per (graph vertex, graph edge, grid row, grid column,
    anchor) combination with `vertex in edge  iff  row in pair(column)`; the
    triples of the core whose free variables lie in the chosen component are
    re-instantiated over every combination of those that keeps the two
    consistency rules (same row forces the same vertex, same column the
    same edge).  Triples leaning on other components are kept verbatim.
    `cored` is the core of g when the caller has it already (an analysis
    does); it must be a subgraph of g with g's distinguished set.
    """
    k = inst.k
    pairs = pair_bijection(k)
    big_k = len(pairs)
    for v in inst.graph.vertices:
        if not isinstance(v, str) or not _H_NAME.match(v):
            raise ValueError(f"graph vertex names must be plain tokens, got {v!r}")
    if cored is None:
        cored = core(g)
    elif cored.dist != g.dist or not cored.tgraph.triple_set <= g.tgraph.triple_set:
        raise ValueError("the given core is not a subgraph of the t-graph")
    gaif = gaifman(cored)
    covered = mm.covered()
    if covered not in gaif.components():
        raise ComponentMismatch(
            "minor-map target is not a connected component of the core's Gaifman graph"
        )
    if (mm.rows, mm.cols) != (k, big_k):
        raise InvalidMinorMap(
            f"expected a ({k} x {big_k})-grid map, got ({mm.rows} x {mm.cols})"
        )
    if not verify_minor_map(mm, gaif.subgraph(covered)):
        raise InvalidMinorMap("minor map fails verification against the component")

    h_vertices = sorted(inst.graph.vertices)
    h_edges = sorted(tuple(sorted(e)) for e in inst.graph.edges)
    # per vertex: (the edges missing it, the edges holding it), by `v in e`
    sides = {v: ([e for e in h_edges if v not in e], [e for e in h_edges if v in e]) for v in h_vertices}

    # Per anchor: its cell and its gadget variables, listed under every key
    # (vertex or None, edge or None) they agree with, so that the variables
    # consistent with a partial combination are one lookup away.
    projection: dict[Term, Term] = {}
    anchors: dict[Term, tuple[int, int, dict]] = {}
    for cell, vs in mm.cells:
        i, p = cell
        in_pair = i in pairs[p - 1]
        for anchor in vs:
            options: dict[tuple, list[tuple[Term, str, tuple[str, str]]]] = {}
            for v in h_vertices:
                for e in sides[v][in_pair]:
                    term = var(f"g#{v}#{e[0]}#{e[1]}#{i}#{p}#{anchor.name}")
                    projection[term] = anchor
                    for key in ((v, e), (v, None), (None, e), (None, None)):
                        options.setdefault(key, []).append((term, v, e))
            anchors[anchor] = (i, p, options)

    dist = cored.dist
    triples: list[Triple] = []
    for t in cored.tgraph:
        if any(v not in dist and v not in covered for v in t.vars()):
            triples.append(t)  # leans on another component; projects to itself
            continue
        # partial combinations: (terms so far, (vertex, edge, row, column) per gadget variable)
        partial: list[tuple[tuple[Term, ...], tuple]] = [((), ())]
        for term in t:
            if term not in anchors:
                partial = [(terms + (term,), chosen) for terms, chosen in partial]
                continue
            i, p, options = anchors[term]
            grown = []
            for terms, chosen in partial:
                # the vertex of row i and the edge of column p, if chosen (one each)
                need_v = need_e = None
                for cv, ce, ci, cp in chosen:
                    if ci == i:
                        need_v = cv
                    if cp == p:
                        need_e = ce
                for gv, v, e in options.get((need_v, need_e), ()):
                    grown.append((terms + (gv,), chosen + ((v, e, i, p),)))
            partial = grown
        triples.extend(_triple(terms) for terms, _ in partial)
    gadget = GeneralizedTGraph(TGraph(tuple(triples)), dist, declared=True)
    _check_gadget(g, cored, gadget, projection)
    return gadget


def _check_gadget(
    original: GeneralizedTGraph,
    cored: GeneralizedTGraph,
    gadget: GeneralizedTGraph,
    projection: dict[Term, Term],
) -> None:
    dist = original.dist
    for t in original.tgraph:
        if t.vars() <= dist and t not in gadget.tgraph:
            raise AssertionError("an all-distinguished triple went missing")
    # each triple under the projection, a plain tuple as in `Mapping.images_in`
    get = projection.get
    core_triples = cored.tgraph.triple_set
    for t in gadget.tgraph:
        if tuple(map(get, t, t)) not in core_triples:
            raise AssertionError("gadget does not project into the core")


@dataclass(frozen=True)
class FrozenInstance:
    """A gadget turned into a ground graph: B with its variables made IRIs."""

    graph: TGraph
    mapping: Mapping
    # frozen IRI -> its variable; graph and mapping determine it
    thaw_map: dict[Term, Term] = field(compare=False)

    def thaw(self, t: Term) -> Term:
        return self.thaw_map.get(t, t)


def freeze(b: GeneralizedTGraph) -> FrozenInstance:
    for x in b.tgraph.iris():
        if x.name.startswith(FROZEN_PREFIX):
            raise ReservedPrefixCollision(
                f"IRI {x} already uses the reserved prefix {FROZEN_PREFIX!r}"
            )
    frozen = {v: iri(FROZEN_PREFIX + v.name) for v in b.tgraph.vars() | b.dist}
    graph = TGraph(tuple(substitute(t, frozen) for t in b.tgraph))
    mu = Mapping.of({x: frozen[x] for x in b.dist})
    return FrozenInstance(graph, mu, {a: v for v, a in frozen.items()})


@dataclass(frozen=True)
class HardInstance:
    graph: TGraph
    mapping: Mapping
    witness: HardWitness
    minor_map: MinorMap
    frozen: FrozenInstance

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

    Takes the hard witness at the forest's exact domination width, its core
    and (unless the caller gives one, which is checked) a grid-minor map on
    one of the core's Gaifman components from the forest's `Analysis`, so
    they are found once per forest; builds the gadget and freezes it.
    """
    analysis = Analysis.of(forest)
    witness = analysis.witness(analysis.width)
    if witness is None:
        raise NoHardWitness(
            "the forest has no subtree with associated t-graphs to build from"
        )
    k = inst.k
    big_k = k * (k - 1) // 2
    if mm is None:
        mm = analysis.grid_minor(k, big_k)
        if mm is None:
            raise NoGridMinorFound(
                f"no component of the witness core carries a ({k} x {big_k})-grid minor"
            )
    cored, _ = analysis.witness_core
    gadget = build_clique_gadget(witness.tgraph, inst, mm, cored=cored)
    frozen = freeze(gadget)
    if frozen.mapping.domain != subtree_vars(forest, witness.subtree):
        raise AssertionError("frozen mapping domain must equal the subtree variables")
    return HardInstance(frozen.graph, frozen.mapping, witness, mm, frozen)


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
    """Lines `vertex a` and `edge a b`; endpoints are added implicitly.

    Names are restricted to [A-Za-z0-9_] because they end up embedded in
    generated variable names.
    """
    vertices: set[str] = set()
    edges: list[tuple[str, str]] = []
    for no, line in _data_lines(text):
        tokens = line.split()
        for tok in tokens[1:]:
            if not _H_NAME.match(tok):
                raise ParseError(f"bad vertex name {tok!r}", line=no)
        if tokens[0] == "vertex" and len(tokens) == 2:
            vertices.add(tokens[1])
        elif tokens[0] == "edge" and len(tokens) == 3:
            if tokens[1] == tokens[2]:
                raise ParseError(f"self-loop at {tokens[1]!r}", line=no)
            vertices.update(tokens[1:])
            edges.append((tokens[1], tokens[2]))
        else:
            raise ParseError("expected 'vertex a' or 'edge a b'", line=no)
    return UndirectedGraph.of(vertices, edges)


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
