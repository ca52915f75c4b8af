"""The three workloads, run one per child process.

Usage (normally started by run.py):

    python3 perfbench/workloads.py <workload> <inputs dir> <mode> <amount> <result.json>

mode ``timed``: set up, then run the closed loop (one client, one op in
flight), cycling through the stream, for <amount> seconds of op time and at least MIN_OPS ops; every timing is
scaled to the reference speed (see REF_S and timed).
mode ``setup``: set up once and stop.  Every set-up time is taken in a
fresh process, cold, as the program really sets up: a second set-up in
the same process would find the ctw cache already filled by the first.
mode ``plain`` / ``traced``: set up once and run exactly <amount> ops,
without or with the layer wrappers of layertrace.py; the pair gives the
per-layer numbers and the tracing overhead.

Each workload reads its generated text files before anything is timed;
set-up covers parsing them, ``to_forest`` and ``domination_width`` where
the workload needs it.  On answers the set-up results are not reused:
every op goes through the CLI, which parses its files again.  There are
no separate warm-up ops: the library has no lazy state worth warming
beyond the ctw cache, which the first ops fill.
Every op checks its own output; a failed check or any exception counts
the op as failed, tallied by kind, and the run goes on.

Which workload each planned change should move, and which it must not:

* indexing TGraph and the homomorphism search's candidate domains:
  membership and answers (lemma1) gain; hardness is the guard, since
  index builds on its small, often rebuilt targets (core's retracts)
  must not slow it.
* a hash join in eval_naive: answers gains; membership does not move.
* neighbour-driven pebble levels: membership latency_p90_ms gains;
  answers and hardness do not move.
* analysing a pattern once and reusing it: hardness throughput gains;
  membership setup_s and answers do not move.
* dropping the process-global cache on ctw: peak_rss_mb falls; hardness
  must not slow.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# a timed run lasts at least this many ops (p90 then has ten samples beyond
# it), and stops at HARD_CAP_S even short of them, to finish within its limit
MIN_OPS = 100
HARD_CAP_S = 140.0
# Timings are scaled to the speed at which one _reference() run takes this
# long on average: about its mean on a 2-vCPU x86-64 VM (Xeon, 2.1 GHz,
# Python 3.11) while co-tenant load did not slow it, so figures there read
# close to plain milliseconds.  Co-tenants slow such a VM by up to 1.6x,
# in swings of seconds and in spells of minutes; the kernel, timed beside
# the ops, slows with them and cancels it.
REF_S = 1.0e-3
# an op's latency is scaled by the reference runs of this many ops on
# either side of it
WINDOW = 20
# reference runs timed right after each set-up, to scale setup_s
SETUP_PROBES = 20


class CheckFailed(Exception):
    def __init__(self, kind: str):
        super().__init__(kind)
        self.kind = f"Check:{kind}"


def _import_library():
    sys.path.insert(0, SRC)
    import wdsparql

    if not os.path.abspath(wdsparql.__file__).startswith(SRC + os.sep):
        raise ImportError(f"wdsparql imported from {wdsparql.__file__}, not from {SRC}")


def _read_inputs(path: str) -> dict:
    out = {}
    for name in os.listdir(path):
        with open(os.path.join(path, name), encoding="utf-8") as fh:
            out[name] = fh.read()
    return out


class Membership:
    """One op: decide one mapping with eval_forest and eval_pebble(k = dw)."""

    def __init__(self, files: dict, path: str):
        self.graph_text = files["graph.nt"]
        queries = json.loads(files["queries.json"])
        n = sum(1 for name in files if name.endswith(".sparql"))
        self.pattern_texts = [files[f"pattern{i}.sparql"] for i in range(n)]
        self.query_texts = [files[f"query{q}.map"] for q in range(len(queries))]
        self.stream = list(enumerate(queries))

    def setup(self) -> None:
        from wdsparql import patterns, terms, trees, width

        self.graph = terms.parse_graph(self.graph_text, ground=True)
        self.forests = [trees.to_forest(patterns.parse_pattern(t)) for t in self.pattern_texts]
        self.widths = [width.domination_width(f) for f in self.forests]
        self.mappings = [terms.parse_mapping(t) for t in self.query_texts]

    def op(self, arg) -> int:
        from wdsparql import evaluator

        q, pi = arg
        forest, mu = self.forests[pi], self.mappings[q]
        exact = evaluator.eval_forest(forest, self.graph, mu)
        relaxed = evaluator.eval_pebble(forest, self.graph, mu, self.widths[pi])
        if exact != relaxed:  # the width theorem: pebble(dw) is exact
            raise CheckFailed("PebbleDisagrees")
        return int(exact)


class Answers:
    """One op: the CLI's eval-all with --mode naive, then --mode lemma1."""

    def __init__(self, files: dict, path: str):
        pairs = json.loads(files["pairs.json"])
        self.patterns = sorted(n for n in files if n.endswith(".sparql"))
        self.graphs = sorted(n for n in files if n.endswith(".nt"))
        self.texts = files
        self.stream = [
            (os.path.join(path, f"pattern{p}.sparql"), os.path.join(path, f"graph{g}.nt"))
            for p, g in pairs
        ]

    def setup(self) -> None:
        from wdsparql import patterns, terms, trees

        for name in self.patterns:
            p = patterns.parse_pattern(self.texts[name])
            if patterns.well_designed_violation(p) is not None:
                raise ValueError(f"generated pattern {name} is not well designed")
            trees.to_forest(p)
        for name in self.graphs:
            terms.parse_graph(self.texts[name], ground=True)

    @staticmethod
    def _eval_all(pattern: str, graph: str, mode: str) -> str:
        from wdsparql import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["eval-all", "--pattern", pattern, "--graph", graph, "--mode", mode])
        if code != 0:
            line = err.getvalue().strip().splitlines()
            head = line[0] if line else ""
            if head.startswith("ERROR ") and ":" in head:
                raise CheckFailed(head[len("ERROR ") : head.index(":")])
            raise CheckFailed(f"Exit{code}")
        return out.getvalue()

    def op(self, arg) -> int:
        pattern, graph = arg
        naive = self._eval_all(pattern, graph, "naive")
        lemma1 = self._eval_all(pattern, graph, "lemma1")
        if naive != lemma1:
            raise CheckFailed("AnswerSetsDiffer")
        return naive.count("\n")


class Hardness:
    """One op: generate_hard_instance for one H (k = 2), then check it."""

    K = 2

    def __init__(self, files: dict, path: str):
        self.pattern_text = files["family3.sparql"]
        n = sum(1 for name in files if name.endswith(".ug"))
        self.ug_texts = [files[f"h{i}.ug"] for i in range(n)]
        # the benchmark's own answer: for k = 2 a clique is just an edge
        self.expected = ["\nedge " in "\n" + t for t in self.ug_texts]
        self.stream = list(range(n))

    def setup(self) -> None:
        from wdsparql import hardness, patterns, trees

        self.forest = trees.to_forest(patterns.parse_pattern(self.pattern_text))
        self.hs = [hardness.parse_undirected_graph(t) for t in self.ug_texts]

    def op(self, i) -> int:
        from wdsparql import evaluator, hardness, trees

        h = self.hs[i]
        inst = hardness.generate_hard_instance(self.forest, hardness.CliqueInstance(h, self.K))
        clique = hardness.has_clique(h, self.K)
        if clique != self.expected[i]:
            raise CheckFailed("HasCliqueWrong")
        if clique == evaluator.eval_forest(self.forest, inst.graph, inst.mapping):
            raise CheckFailed("ReductionBroken")
        if inst.mapping.domain != trees.subtree_vars(self.forest, inst.witness.subtree):
            raise CheckFailed("FrozenDomain")
        return int(clique)


WORKLOADS = {"membership": Membership, "answers": Answers, "hardness": Hardness}


def _failure_kind(exc: Exception) -> str:
    from wdsparql.errors import WdError

    if isinstance(exc, (CheckFailed, WdError)):
        return exc.kind
    return type(exc).__name__


def _reference() -> float:
    """Time one run of a fixed pure-Python kernel (dicts, sets, tuples and a
    sort, like the library's inner loops but independent of it)."""
    t0 = perf_counter()
    groups: dict = {}
    for i in range(1500):
        groups.setdefault((i % 37, i % 11), set()).add(i)
    total = 0
    for key, members in sorted(groups.items()):
        total += len(members & {key[0], key[1], key[0] + key[1]}) + max(members)
    return perf_counter() - t0


def _speed(probes: list) -> float:
    """The factor that scales a time measured alongside `probes` to the
    reference speed: above 1 when the host ran slow."""
    return REF_S / statistics.fmean(probes)


def _setup(w) -> dict:
    t0 = perf_counter()
    w.setup()
    raw = perf_counter() - t0
    return {"setup_s": raw * _speed([_reference() for _ in range(SETUP_PROBES)]), "setup_raw_s": raw}


def _run_op(w, arg, failures: dict):
    """Run one op; return its latency (s) and outcome, tallying a failure."""
    t0 = perf_counter()
    try:
        outcome = w.op(arg)
    except Exception as exc:  # an op that fails is tallied, never fatal
        kind = _failure_kind(exc)
        failures[kind] = failures.get(kind, 0) + 1
        outcome = 0
    return perf_counter() - t0, outcome


def _run_ops(w, failures: dict, count: int, tracer=None):
    """The first `count` ops of the stream, in order."""
    for i in range(count):
        if tracer is not None:
            tracer.op = i
        _run_op(w, w.stream[i % len(w.stream)], failures)


def timed(w, seconds: float) -> dict:
    """The closed loop over the stream, cycled, for `seconds`.

    After every op the reference kernel is timed once, and each op's
    latency is scaled to the reference speed (see REF_S) by the mean
    reference time of the WINDOW ops before and after it: the host's speed
    swings within seconds, so the probes nearest an op tell best how fast
    it ran.  p50, p90 and throughput are taken over the scaled latencies.
    """
    out = _setup(w)
    failures: dict = {}
    lats, probes = [], []
    outcomes = [0] * len(w.stream)
    start = perf_counter()
    while True:
        i = len(lats) % len(w.stream)
        lat, outcomes[i] = _run_op(w, w.stream[i], failures)
        lats.append(lat)
        probes.append(_reference())
        busy = perf_counter() - start
        if len(lats) >= MIN_OPS and busy >= seconds or busy >= HARD_CAP_S:
            break
    scaled = [t * _speed(probes[max(0, k - WINDOW) : k + WINDOW + 1]) for k, t in enumerate(lats)]
    out.update(
        ops=len(lats),
        failures=failures,
        outcome=sum(outcomes),
        elapsed_s=busy,
        reference_ms=statistics.fmean(probes) * 1e3,
        raw_latency_p50_ms=statistics.median(lats) * 1e3,
        latency_p50_ms=statistics.median(scaled) * 1e3,
        latency_p90_ms=statistics.quantiles(scaled, n=10)[8] * 1e3,
        throughput_ops_s=len(scaled) / sum(scaled),
    )
    return out


def counted(w, ops: int, tracer=None) -> dict:
    """Set up once and run exactly `ops` ops, optionally traced."""
    if tracer is not None:
        tracer.install()
    failures: dict = {}
    t0 = perf_counter()
    w.setup()
    _run_ops(w, failures, ops, tracer)
    wall = perf_counter() - t0
    return {"ops": ops, "failures": failures, "wall_s": wall}


def main(argv) -> int:
    workload, inputs, mode, amount, result_path = argv
    _import_library()
    w = WORKLOADS[workload](_read_inputs(inputs), inputs)
    if mode == "timed":
        out = timed(w, float(amount))
    elif mode == "setup":
        out = _setup(w)
    elif mode == "plain":
        out = counted(w, int(amount))
    else:
        from layertrace import Tracer

        tracer = Tracer()
        out = counted(w, int(amount), tracer)
        out["layers"] = tracer.summary()
        out["counts"] = tracer.counts
        out["spans"] = len(tracer.span_name)
        tracer.write_spans(result_path + ".spans.tsv.gz")
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
