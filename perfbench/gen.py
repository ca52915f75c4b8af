"""Seeded input generator for the benchmark.

Stdlib only, and independent of the library under test: it never imports
``wdsparql`` or the test suite, so a library change cannot change the
workload.  Everything it emits is text in the library's own file formats:
pattern syntax, N-Triples-style graph files, ``.map`` mappings and ``.ug``
undirected graphs.

``generate(workload, seed)`` returns ``{file name: text}``; the same
workload and seed always give the same bytes, and ``digest`` fingerprints
them so two runs can show they were fed the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import random

PREDICATES = ("p", "q", "r")
OTHER_PREDICATES = ("s", "t", "u", "v", "w", "label")

# The worked examples of the paper's running family, verbatim, each with its
# pattern tree written out as nodes (parent index, triples) so the generator
# can plant images of subtrees.  Node 0 of every tree is its root.
P1_TEXT = "(((?x,p,?y) OPT (?z,q,?x)) OPT ((?y,r,?o1) AND (?o1,r,?o2)))"
P_UNION_TEXT = f"({P1_TEXT} UNION ((?x,p,?y) OPT ((?z,q,?x) AND (?w,q,?z))))"
FAMILY3_TEXT = (
    "((((?x, p, ?y) OPT (?z, q, ?x)) OPT ((((?y, r, ?o1) AND (?o1, r, ?o2)) "
    "AND (?o1, r, ?o3)) AND (?o2, r, ?o3)))\n"
    " UNION ((?x, p, ?y) OPT ((?z, q, ?x) AND (?w, q, ?z))))\n"
)
CLIQUE3_TEXT = (
    "((?y, r, ?y) OPT ((((?y, r, ?o1) AND (?o1, r, ?o2)) AND (?o1, r, ?o3)) "
    "AND (?o2, r, ?o3)))\n"
)

_K3 = [("?y", "r", "?o1"), ("?o1", "r", "?o2"), ("?o1", "r", "?o3"), ("?o2", "r", "?o3")]
_P1_TREE = [
    (None, [("?x", "p", "?y")]),
    (0, [("?z", "q", "?x")]),
    (0, [("?y", "r", "?o1"), ("?o1", "r", "?o2")]),
]
_ZW_TREE = [
    (None, [("?x", "p", "?y")]),
    (0, [("?z", "q", "?x"), ("?w", "q", "?z")]),
]
EXAMPLES = [
    ("P1", P1_TEXT, [_P1_TREE]),
    ("P_UNION", P_UNION_TEXT, [_P1_TREE, _ZW_TREE]),
    (
        "family3",
        FAMILY3_TEXT,
        [[(None, [("?x", "p", "?y")]), (0, [("?z", "q", "?x")]), (0, _K3)], _ZW_TREE],
    ),
    ("clique3", CLIQUE3_TEXT, [[(None, [("?y", "r", "?y")]), (0, _K3)]]),
]

# Four more fixed shapes for the answers workload: an OPT chain, a star with
# two optional arms, a UNION of two chains and a cycle with an optional arm.
# Answer sets over the answers graphs then stay at tens of mappings, and
# pattern costs overlap around the median op instead of forming gaps.
ANSWER_SHAPES = [
    "((?a,p,?b) OPT ((?b,q,?c) OPT (?c,r,?d)))\n",
    "((((?a,p,?b) AND (?a,q,?c)) OPT (?a,r,?d)) OPT (?b,r,?e))\n",
    "(((?a,q,?b) OPT (?b,p,?c)) UNION ((?a,q,?b) OPT ((?b,r,?c) AND (?c,r,?d))))\n",
    "(((?x,r,?y) OPT ((?y,p,?z) AND (?z,q,?x))) OPT (?x,p,?w))\n",
]


# ---------------------------------------------------------------------------
# pattern trees: serialization, random generation, subtrees


def _triple_text(t) -> str:
    return f"({t[0]},{t[1]},{t[2]})"


def _conj(triples) -> str:
    out = _triple_text(triples[0])
    for t in triples[1:]:
        out = f"({out} AND {_triple_text(t)})"
    return out


def _tree_text(tree, n: int = 0) -> str:
    out = _conj(tree[n][1])
    for c, (parent, _) in enumerate(tree):
        if parent == n:
            out = f"({out} OPT {_tree_text(tree, c)})"
    return out


def forest_text(forest) -> str:
    out = _tree_text(forest[0])
    for tree in forest[1:]:
        out = f"({out} UNION {_tree_text(tree)})"
    return out + "\n"


def _node_vars(tree, n: int) -> set:
    return {x for t in tree[n][1] for x in t if x.startswith("?")}


def random_forest(rng: random.Random, *, iris, max_vars: int = 9):
    """A well-designed forest in NR normal form.

    Every node reuses only its parent's variables and introduces at least
    one fresh variable that occurs in its label, which gives both the
    well-designedness condition and NR normal form by construction.  Root
    variables are shared names across trees (``?x``, ``?y``) so the UNION
    branches can support each other's subtrees.
    """
    forest = []
    fresh = [0]
    for _ in range(rng.randint(1, 2)):
        tree = []
        root_pool = ["?x", "?y"]
        budget = rng.randint(2, 4)
        queue = [(None, root_pool)]
        while queue and len(tree) < budget and fresh[0] < max_vars:
            parent, inherited = queue.pop(0)
            own = []
            for _ in range(1 if parent is None else rng.randint(1, 2)):
                fresh[0] += 1
                own.append(f"?v{fresh[0]}")
            pool = inherited + own
            triples = []
            for _ in range(rng.randint(1, 3)):
                s = rng.choice(pool) if rng.random() < 0.9 else rng.choice(iris)
                o = rng.choice(pool) if rng.random() < 0.8 else rng.choice(iris)
                triples.append((s, rng.choice(PREDICATES), o))
            if not any(x in own for t in triples for x in t):
                s, p, o = triples[0]
                triples[0] = (own[0], p, o)
            tree.append((parent, triples))
            me = len(tree) - 1
            used = sorted(_node_vars(tree, me))
            for _ in range(rng.randint(1, 2)):
                queue.append((me, used))
        forest.append(tree)
    return forest


def _all_subtrees(forest) -> list:
    """Every (tree, root-containing connected node set) of the forest."""
    out = []
    for tree in forest:
        sets = [[0]]
        for n in range(1, len(tree)):
            parent = tree[n][0]
            sets += [s + [n] for s in sets if parent in s]
        out.extend((tree, s) for s in sets)
    return out


def _mapping_text(assignment: dict) -> str:
    return "".join(f"{v} = {a}\n" for v, a in sorted(assignment.items()))


def _graph_text(triples) -> str:
    return "".join(f"{s} {p} {o} .\n" for s, p, o in triples)


def _ground(t, assignment: dict):
    return tuple(assignment.get(x, x) for x in t)


def _random_triples(rng: random.Random, iris, n: int, predicates=PREDICATES) -> list:
    return [
        (rng.choice(iris), rng.choice(predicates), rng.choice(iris)) for _ in range(n)
    ]


def _patterns(iris) -> list:
    """The four worked examples plus four random forests.

    The forests are drawn from a fixed seed, not from the run's: which four
    forests a seed drew moved membership throughput by 15% and latency_p90
    by 25% (IQR over median across seeds, with the runs interleaved so that
    machine drift cancels), and with one fixed set the seeds' graphs and
    queries moved them by 1-2%.
    """
    rng = random.Random("membership/forests")
    out = [(name, text, forest) for name, text, forest in EXAMPLES]
    for i in range(4):
        forest = random_forest(rng, iris=iris[:4])
        out.append((f"random{i}", forest_text(forest), forest))
    return out


# ---------------------------------------------------------------------------
# workloads


def membership(seed: int, *, n_iris: int = 120, n_triples: int = 2000, n_queries: int = 192) -> dict:
    """One large ground graph, eight patterns and a stream of queries.

    Three queries in four are planted: the image of a subtree's pattern
    under a random assignment is added to the graph, so the mapping at
    least matches that subtree.  The rest bind a subtree's variables to
    random IRIs.  The stream is drawn stratified and then shuffled, so a
    whole pass keeps the exact mix and any prefix of it is an even sample:
    a run that ends part-way through a pass weighs no kind of query more.
    """
    rng = random.Random(f"membership/{seed}")
    iris = [f"i{n}" for n in range(n_iris)]
    patterns = _patterns(iris)
    files = {f"pattern{i}.sparql": text for i, (_, text, _) in enumerate(patterns)}
    planted = []
    queries = []  # (pattern index, mapping text)
    for q in range(n_queries):
        # stratified: patterns in turn, planted in three rounds of four, and
        # each pattern's subtrees in turn, so every run sees the same mix.
        # With a quarter unplanted (cheap) and the K3 children's pebble games
        # the costliest tenth, the median and the 90th percentile fall inside
        # dense parts of the cost distribution, not in the gaps between them.
        pi = q % len(patterns)
        rounds = q // len(patterns)
        choices = _all_subtrees(patterns[pi][2])
        tree, nodes = choices[(rounds // 4) % len(choices)]
        names = sorted({x for n in nodes for x in _node_vars(tree, n)})
        assignment = {v: rng.choice(iris) for v in names}
        if rounds % 4 != 3:
            planted.extend(_ground(t, assignment) for n in nodes for t in tree[n][1])
        queries.append((pi, _mapping_text(assignment)))
    triples = _random_triples(rng, iris, n_triples - len(planted)) + planted
    rng.shuffle(triples)
    files["graph.nt"] = _graph_text(triples)
    rng.shuffle(queries)
    for q, (_, text) in enumerate(queries):
        files[f"query{q}.map"] = text
    files["queries.json"] = json.dumps([pi for pi, _ in queries])
    return files


def answers(seed: int, *, n_iris: int = 30, n_triples: int = 150, n_graphs: int = 13) -> dict:
    """Eight fixed patterns and 13 seeded graphs; every pairing is one op.

    The patterns are the worked examples and ANSWER_SHAPES; random forests
    are left to the membership workload, because here one costly random
    forest would move every metric of its seed.

    Two thirds of each graph's triples use predicates no pattern mentions,
    as in a graph with many predicates where a query touches few: every
    scan still sees all triples, but answer sets stay at tens of mappings,
    so the exponential enumerator finishes an op in tens of milliseconds.
    """
    rng = random.Random(f"answers/{seed}")
    iris = [f"i{n}" for n in range(n_iris)]
    texts = [text for _, text, _ in EXAMPLES] + ANSWER_SHAPES
    files = {f"pattern{i}.sparql": text for i, text in enumerate(texts)}
    per_predicate = n_triples // (len(PREDICATES) + len(OTHER_PREDICATES))
    for g in range(n_graphs):
        # a fixed count per queried predicate keeps answer-set sizes, and so
        # op costs, alike from seed to seed
        triples = []
        for pred in PREDICATES:
            triples += _random_triples(rng, iris, per_predicate, (pred,))
        triples += _random_triples(rng, iris, n_triples - len(triples), OTHER_PREDICATES)
        rng.shuffle(triples)
        files[f"graph{g}.nt"] = _graph_text(triples)
    pairs = [(p, g) for p in range(len(texts)) for g in range(n_graphs)]
    rng.shuffle(pairs)
    files["pairs.json"] = json.dumps(pairs)
    return files


def hardness(seed: int, *, n_graphs: int = 300) -> dict:
    """The family3 pattern and a stream of clique instances H (k = 2).

    Op cost grows with |V(H)| and |E(H)|, so both are stratified: each
    size from 5 to 10 vertices gets the same number of instances, and
    their edge densities are spread evenly over 0.3-0.4, one draw per
    equal slice.  The seed picks the density within each slice and which
    vertex pairs are edges.  Drawn freely, the count of 10-vertex graphs
    and their edge counts moved latency_p90_ms by 12% from seed to seed.
    """
    rng = random.Random(f"hardness/{seed}")
    sizes = range(5, 11)
    per_size = n_graphs // len(sizes)
    graphs = []
    for g in range(per_size * len(sizes)):
        n = sizes[g % len(sizes)]
        density = 0.3 + 0.1 * (g // len(sizes) + rng.random()) / per_size
        names = [f"h{i}" for i in range(n)]
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
        # one graph of each size has no edge, so both answers of the
        # reduction are checked on every seed
        m = 0 if g < len(sizes) else round(density * len(pairs))
        edges = sorted(rng.sample(pairs, m))
        lines = [f"vertex {v}\n" for v in names] + [f"edge {a} {b}\n" for a, b in edges]
        graphs.append("".join(lines))
    # shuffled, so that any prefix of the stream is an even sample
    rng.shuffle(graphs)
    files = {f"h{g}.ug": text for g, text in enumerate(graphs)}
    files["family3.sparql"] = FAMILY3_TEXT
    return files


WORKLOADS = {"membership": membership, "answers": answers, "hardness": hardness}


def generate(workload: str, seed: int) -> dict:
    return WORKLOADS[workload](seed)


def digest(files: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name].encode() + b"\0")
    return h.hexdigest()
