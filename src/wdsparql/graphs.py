"""Undirected graphs, tree decompositions and exact treewidth.

Treewidth is computed exactly: simplicial vertices are eliminated first
(each is optimal to eliminate and adds no fill), the remainder goes through
a dynamic program over vertex subsets in the elimination-order formulation
(the treewidth of a graph is the minimum over elimination orders of the
maximum degree at elimination time).  A decomposition is reconstructed from
the optimal order and validated before any width is reported.

By convention a graph with no vertices or no edges has treewidth 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import GraphTooLarge

MAX_TW_VERTICES = 20


@dataclass(frozen=True)
class UndirectedGraph:
    vertices: frozenset
    edges: frozenset  # of 2-element frozensets, no self-loops

    def __post_init__(self):
        object.__setattr__(self, "vertices", frozenset(self.vertices))
        edges = set()
        for e in self.edges:
            e = frozenset(e)
            if len(e) != 2:
                raise ValueError(f"bad edge {set(e)!r}")
            if not e <= self.vertices:
                raise ValueError(f"edge {set(e)!r} outside the vertex set")
            edges.add(e)
        object.__setattr__(self, "edges", frozenset(edges))

    @classmethod
    def of(cls, vertices, edge_pairs=()) -> "UndirectedGraph":
        vs = set(vertices)
        es = set()
        for a, b in edge_pairs:
            if a == b:
                raise ValueError(f"self-loop at {a!r}")
            vs.update((a, b))
            es.add(frozenset((a, b)))
        return cls(frozenset(vs), frozenset(es))

    def adjacency(self) -> dict:
        adj = {v: set() for v in self.vertices}
        for e in self.edges:
            a, b = tuple(e)
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def has_edge(self, a, b) -> bool:
        return frozenset((a, b)) in self.edges

    def degree(self, v) -> int:
        return sum(1 for e in self.edges if v in e)

    def subgraph(self, keep) -> "UndirectedGraph":
        keep = frozenset(keep)
        return UndirectedGraph(keep, frozenset(e for e in self.edges if e <= keep))

    def components(self) -> tuple[frozenset, ...]:
        adj = self.adjacency()
        seen: set = set()
        comps = []
        for v in sorted(self.vertices, key=str):
            if v in seen:
                continue
            stack, comp = [v], set()
            while stack:
                u = stack.pop()
                if u in comp:
                    continue
                comp.add(u)
                stack.extend(adj[u] - comp)
            seen |= comp
            comps.append(frozenset(comp))
        return tuple(comps)


def grid_graph(rows: int, cols: int) -> UndirectedGraph:
    """The (rows x cols)-grid on vertex set {1..rows} x {1..cols}."""
    vs = [(i, j) for i in range(1, rows + 1) for j in range(1, cols + 1)]
    es = []
    for i, j in vs:
        if i < rows:
            es.append(((i, j), (i + 1, j)))
        if j < cols:
            es.append(((i, j), (i, j + 1)))
    return UndirectedGraph.of(vs, es)


@dataclass(frozen=True)
class TreeDecomposition:
    bags: tuple[frozenset, ...]
    edges: tuple[tuple[int, int], ...]

    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1

    def validate(self, graph: UndirectedGraph) -> None:
        n = len(self.bags)
        adj = {i: set() for i in range(n)}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        if n and len(self.edges) != n - 1:
            raise ValueError("decomposition tree is not a tree")
        for v in graph.vertices:
            holding = [i for i, b in enumerate(self.bags) if v in b]
            if not holding:
                raise ValueError(f"vertex {v!r} is in no bag")
            seen = {holding[0]}
            stack = [holding[0]]
            members = set(holding)
            while stack:
                u = stack.pop()
                for w in adj[u] & members - seen:
                    seen.add(w)
                    stack.append(w)
            if seen != members:
                raise ValueError(f"bags holding {v!r} are disconnected")
        for e in graph.edges:
            if not any(e <= b for b in self.bags):
                raise ValueError(f"edge {set(e)!r} not covered by any bag")


def _is_clique(adj: dict, vs) -> bool:
    vs = list(vs)
    return all(b in adj[a] for a, b in combinations(vs, 2))


def _elim_degree(amask: list[int], inside: int, v: int) -> int:
    # Degree v would have after eliminating `inside`: neighbours reachable
    # through paths whose internal vertices all lie in `inside`.
    comp = 1 << v
    nb = amask[v]
    while True:
        grow = nb & inside & ~comp
        if not grow:
            break
        comp |= grow
        while grow:
            bit = grow & -grow
            nb |= amask[bit.bit_length() - 1]
            grow ^= bit
    return (nb & ~inside & ~(1 << v)).bit_count()


def _dp_order(adj: dict) -> list:
    vs = sorted(adj, key=str)
    index = {v: i for i, v in enumerate(vs)}
    m = len(vs)
    amask = [0] * m
    for v, nbrs in adj.items():
        for u in nbrs:
            amask[index[v]] |= 1 << index[u]
    full = (1 << m) - 1
    best = [0] * (full + 1)
    choice = [0] * (full + 1)
    best[0] = -1
    for mask in sorted(range(1, full + 1), key=int.bit_count):
        val, pick = m + 1, -1
        rest = mask
        while rest:
            bit = rest & -rest
            v = bit.bit_length() - 1
            rest ^= bit
            cand = max(best[mask ^ bit], _elim_degree(amask, mask ^ bit, v))
            if cand < val:
                val, pick = cand, v
        best[mask] = val
        choice[mask] = pick
    order_rev = []
    mask = full
    while mask:
        v = choice[mask]
        order_rev.append(v)
        mask ^= 1 << v
    return [vs[i] for i in reversed(order_rev)]


def _elimination_order(graph: UndirectedGraph, comp: frozenset) -> list:
    adj = {v: set(nbrs) for v, nbrs in graph.subgraph(comp).adjacency().items()}
    order = []
    while True:  # peel simplicial vertices; exact and removes most desk-scale graphs
        pick = None
        for v in sorted(adj, key=str):
            if _is_clique(adj, adj[v]):
                pick = v
                break
        if pick is None:
            break
        order.append(pick)
        for u in adj.pop(pick):
            adj[u].discard(pick)
    if adj:
        order.extend(_dp_order(adj))
    return order


def tree_decomposition(graph: UndirectedGraph) -> TreeDecomposition:
    """An optimal tree decomposition (exact, up to MAX_TW_VERTICES vertices)."""
    if len(graph.vertices) > MAX_TW_VERTICES:
        raise GraphTooLarge(
            f"{len(graph.vertices)} vertices exceed the exact-solver cap of {MAX_TW_VERTICES}"
        )
    if not graph.vertices:
        return TreeDecomposition((frozenset(),), ())
    bags: list[frozenset] = []
    edges: list[tuple[int, int]] = []
    comp_roots: list[int] = []
    for comp in graph.components():
        order = _elimination_order(graph, comp)
        position = {v: i for i, v in enumerate(order)}
        work = {v: set(nbrs) for v, nbrs in graph.subgraph(comp).adjacency().items()}
        base = len(bags)
        for v in order:
            nbrs = work.pop(v)
            bags.append(frozenset({v} | nbrs))
            for u in nbrs:
                work[u].discard(v)
                work[u] |= nbrs - {u}
        for i, v in enumerate(order):
            rest = bags[base + i] - {v}
            if rest:
                attach = min(position[u] for u in rest)
                edges.append((base + i, base + attach))
        comp_roots.append(base + len(order) - 1)
    for a, b in zip(comp_roots, comp_roots[1:]):
        edges.append((a, b))
    return TreeDecomposition(tuple(bags), tuple(edges))


def treewidth(graph: UndirectedGraph) -> int:
    """Exact treewidth; 1 for graphs with no vertices or no edges."""
    if not graph.edges and len(graph.vertices) <= MAX_TW_VERTICES:
        return 1
    td = tree_decomposition(graph)  # raises GraphTooLarge past the cap
    td.validate(graph)
    return td.width()
