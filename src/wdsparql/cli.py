"""Command-line front end.

Exit codes: 0 = yes/success, 2 = no (decision negative or not well
designed), 1 = usage/parse/runtime error.  Decisions travel through the
exit code only; diagnostics go to stderr, results to stdout.  A library
or usage error prints one machine-parsable line ``ERROR <Kind>: <detail>``;
any other exception, a defect, as ``ERROR Internal: <Type>: <detail>``.
"""

from __future__ import annotations

import argparse
import random
import sys

from . import randgen
from .errors import InvalidK, UsageError, WdError
from .evaluator import enumerate_solutions, eval_forest, eval_naive, eval_pebble
from .hardness import (
    CliqueInstance,
    generate_hard_instance,
    parse_minor_map,
    parse_undirected_graph,
)
from .hom import GeneralizedTGraph, find_homomorphism, maps_into_graph
from .patterns import parse_pattern, serialize_pattern, well_designed_violation
from .pebble import pebble_wins
from .terms import (
    Mapping,
    parse_graph,
    parse_mapping,
    parse_var_list,
    serialize_graph,
    serialize_mapping,
)
from .trees import render_forest, to_forest
from .width import domination_width, width_report


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_pattern(path: str):
    return parse_pattern(_read(path))


def _parse_dist(args) -> frozenset:
    """The distinguished variables, from --dist (comma-separated) or
    --dist-file (one a line), read by one parser."""
    if args.dist_file is not None:
        return parse_var_list(_read(args.dist_file))
    return parse_var_list((args.dist or "").replace(",", "\n"))


def cmd_check_wd(args) -> int:
    bad = well_designed_violation(_load_pattern(args.pattern))
    if bad is None:
        return 0
    print(f"not well-designed: {bad}", file=sys.stderr)
    return 2


def cmd_to_forest(args) -> int:
    sys.stdout.write(render_forest(to_forest(_load_pattern(args.pattern))))
    return 0


def cmd_eval(args) -> int:
    pattern = _load_pattern(args.pattern)
    graph = parse_graph(_read(args.graph), ground=True)
    mu = parse_mapping(_read(args.mapping))
    mode = args.mode
    if mode == "naive":
        return 0 if mu in eval_naive(pattern, graph) else 2
    forest = to_forest(pattern)
    if mode == "lemma1":
        return 0 if eval_forest(forest, graph, mu) else 2
    if mode.startswith("pebble:"):
        try:
            k = int(mode.split(":", 1)[1])
        except ValueError:
            raise InvalidK(f"bad pebble width in --mode {mode!r}") from None
        if args.check_width:
            width = domination_width(forest)
            if k < width:
                print(
                    f"warning: k={k} is below the domination width {width}; "
                    "acceptance is not guaranteed complete",
                    file=sys.stderr,
                )
        return 0 if eval_pebble(forest, graph, mu, k) else 2
    raise ValueError(f"unknown --mode {mode!r}")


def cmd_eval_all(args) -> int:
    pattern = _load_pattern(args.pattern)
    graph = parse_graph(_read(args.graph), ground=True)
    if args.mode == "naive":
        solutions = eval_naive(pattern, graph)
    elif args.mode == "lemma1":
        solutions = enumerate_solutions(to_forest(pattern), graph)
    else:
        raise ValueError(f"unknown --mode {args.mode!r}")
    if solutions:
        sys.stdout.write(f"{solutions}\n")  # one line per mapping
    return 0


def cmd_width(args) -> int:
    report = width_report(to_forest(_load_pattern(args.pattern)), args.measure)
    if args.report:
        sys.stdout.write(report.render())
    else:
        print(report.value)
    return 0


def cmd_pebble(args) -> int:
    tgraph = parse_graph(_read(args.tgraph))
    dist = _parse_dist(args)
    graph = parse_graph(_read(args.graph), ground=True)
    mu = parse_mapping(_read(args.mapping)) if args.mapping else Mapping()
    g = GeneralizedTGraph(tgraph, dist)
    return 0 if pebble_wins(g, graph, mu, args.k) else 2


def cmd_gen_hard(args) -> int:
    forest = to_forest(_load_pattern(args.pattern))
    h = parse_undirected_graph(_read(args.graph))
    mm = parse_minor_map(_read(args.minor_map)) if args.minor_map else None
    inst = generate_hard_instance(forest, CliqueInstance(h, args.k), mm)
    with open(args.out_graph, "w", encoding="utf-8") as fh:
        fh.write(serialize_graph(inst.graph))
    with open(args.out_mapping, "w", encoding="utf-8") as fh:
        fh.write(serialize_mapping(inst.mapping))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(inst.report())
    return 0


# two trees over ?x p ?y: one with a triangle child, whose core carries
# the (2 x 1)-grid minor of a 2-clique gadget (domination width 2)
_CLIQUE_FAMILY = (
    "((((?x, p, ?y) OPT (?z, q, ?x)) OPT ((((?y, r, ?o1) AND (?o1, r, ?o2))"
    " AND (?o1, r, ?o3)) AND (?o2, r, ?o3))) UNION ((?x, p, ?y) OPT ((?z, q, ?x) AND (?w, q, ?z))))"
)


def _tap(results) -> int:
    print(f"1..{len(results)}")
    failures = 0
    for n, (name, ok) in enumerate(results, start=1):
        print(f"{'ok' if ok else 'not ok'} {n} - {name}")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 2


def cmd_selftest(args) -> int:
    rng = random.Random(args.seed)
    trials = args.trials
    if trials < 1:  # with no trial, every property would print ok unchecked
        raise UsageError(f"selftest: --trials must be at least 1, got {trials}")
    results = []

    def check(name, fn):
        try:
            results.append((name, bool(fn())))
        except Exception as exc:  # a property crashing is a failure, not an error
            print(f"# {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            results.append((name, False))

    def eval_all_answers(pattern, graph):
        # the naive answers when the eval-all contract holds, else None:
        # both modes give equal answers, printed as the same lines, in the
        # canonical order (domain names, then value names) rebuilt here
        naive = eval_naive(pattern, graph)
        enumerated = enumerate_solutions(to_forest(pattern), graph)
        ordered = sorted(
            naive, key=lambda m: ([k.name for k, _ in m.items()], [v.name for _, v in m.items()])
        )
        if set(naive) != set(enumerated) or naive != enumerated:
            return None
        return naive if str(naive) == str(enumerated) == "\n".join(map(str, ordered)) else None

    def oracle_triangle():
        from .trees import forest_pattern

        # its two trees share ?x and ?y, so on many graphs one answers a
        # mapping with ?z and the other the same ?x, ?y without it
        family = parse_pattern(_CLIQUE_FAMILY)
        for _ in range(trials):
            forest = randgen.random_forest(rng)
            pattern = forest_pattern(forest)
            graph = randgen.planted_graph(rng, forest)
            naive = eval_all_answers(pattern, graph)
            if naive is None or eval_all_answers(family, graph) is None:
                return False
            for mu in list(naive)[:6]:
                if not eval_forest(to_forest(pattern), graph, mu):
                    return False
            probe = randgen.random_candidate_mapping(rng, forest, graph)
            if eval_forest(to_forest(pattern), graph, probe) != (probe in naive):
                return False
        return True

    def pebble_relaxation():
        for _ in range(trials):
            g, graph, mu = randgen.random_game_instance(rng)
            hom = maps_into_graph(g, graph, mu) is not None
            if hom and not pebble_wins(g, graph, mu, 2):
                return False
            if not g.free_vars() and pebble_wins(g, graph, mu, 2) != hom:
                return False
            if pebble_wins(g, graph, mu, 3) and not pebble_wins(g, graph, mu, 2):
                return False
        return True

    def pebble_ctw_exactness():
        from .hom import ctw

        for _ in range(trials):
            g, graph, mu = randgen.random_game_instance(rng)
            k = ctw(g) + 1
            if pebble_wins(g, graph, mu, k) != (maps_into_graph(g, graph, mu) is not None):
                return False
        return True

    def relaxed_evaluation():
        for _ in range(max(1, trials // 2)):
            forest = randgen.random_forest(rng)
            graph = randgen.random_rdf_graph(rng, max_iris=4, max_triples=6)
            mu = randgen.random_candidate_mapping(rng, forest, graph)
            exact = eval_forest(forest, graph, mu)
            for k in (1, 2):
                if eval_pebble(forest, graph, mu, k) and not exact:
                    return False
            if exact and not eval_pebble(forest, graph, mu, domination_width(forest)):
                return False
        return True

    def random_h():
        from .graphs import UndirectedGraph

        n = rng.randint(2, 12)
        # from four vertices on, text order differs from index order
        # (h1, h10, h13, h4, ...), which the gadget's sorted pairs must not mind
        names = [f"h{3 * i + 1}" for i in range(n)]
        edges = [
            (a, b)
            for i, a in enumerate(names)
            for b in names[i + 1 :]
            if rng.random() < 0.4
        ]
        return UndirectedGraph.of(names, edges)

    def hardness_smallest_scale():
        from .hardness import build_clique_gadget, find_grid_minor, has_clique
        from .hom import core, gaifman
        from .terms import TGraph, Triple, var, iri

        g = GeneralizedTGraph(
            TGraph((Triple(var("u"), iri("p"), var("w")),)), frozenset()
        )
        mm = find_grid_minor(gaifman(core(g)), 2, 1)
        for _ in range(trials):
            h = random_h()
            gadget = build_clique_gadget(g, CliqueInstance(h, 2), mm)
            if (find_homomorphism(g, gadget) is not None) != has_clique(h, 2):
                return False
        return True

    def hard_instance_smallest_scale():
        from .hardness import has_clique

        # one forest, so its Analysis plans the gadget once and every H
        # takes the frozen path
        forest = to_forest(parse_pattern(_CLIQUE_FAMILY))
        for _ in range(trials):
            h = random_h()
            inst = generate_hard_instance(forest, CliqueInstance(h, 2))
            graph = inst.graph
            if has_clique(h, 2) == eval_forest(forest, graph, inst.mapping):
                return False
            # made knowing it is ground: it must be, and in canonical order
            if not graph.is_ground() or any(x.is_var for t in graph for x in t):
                return False
            if graph.triples != tuple(sorted(graph, key=str)):
                return False
        return True

    def planned_search():
        from itertools import product

        from .hom import all_homomorphisms, is_homomorphism

        def key(h):
            return sorted((str(k), str(v)) for k, v in h.items())

        for _ in range(trials):
            source = randgen.random_generalized_tgraph(rng, max_vars=3).tgraph
            target = randgen.random_rdf_graph(rng, max_iris=4)
            if rng.random() < 0.5:  # variables in the target, named like the source's
                target = target | randgen.random_generalized_tgraph(rng).tgraph
            terms = sorted({x for t in target for x in t}, key=str)
            every = sorted(source.vars(), key=str)
            pinned = [v for v in every if rng.random() < 0.4]
            free = [v for v in every if v not in pinned]
            for _ in range(2):  # the second run reads the plan the first kept
                fixed = {v: rng.choice(terms) for v in pinned}
                brute = []
                for values in product(terms, repeat=len(free)):
                    h = {**dict(zip(free, values)), **fixed}
                    if is_homomorphism(source, target, h):
                        brute.append(h)
                found = all_homomorphisms(source, target, fixed)
                if sorted(map(key, found)) != sorted(map(key, brute)):
                    return False
        return True

    def pattern_roundtrip():
        from .trees import forest_pattern

        for _ in range(trials):
            forest = randgen.random_forest(rng)
            pattern = forest_pattern(forest)
            if parse_pattern(serialize_pattern(pattern)) != pattern:
                return False
            if render_forest(to_forest(pattern)) != render_forest(forest):
                return False
        return True

    check("oracle triangle (naive vs forest vs enumeration)", oracle_triangle)
    check("pebble game relaxation laws", pebble_relaxation)
    check("pebble game exact below the ctw bound", pebble_ctw_exactness)
    check("relaxed evaluation sound and width-complete", relaxed_evaluation)
    check("clique gadget equivalence at the smallest scale", hardness_smallest_scale)
    check("planned search equals brute force", planned_search)
    check("hard instance at the smallest scale", hard_instance_smallest_scale)
    check("pattern roundtrip (serialize/parse, forest/pattern/forest)", pattern_roundtrip)
    return _tap(results)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a `UsageError`, one line like any other
    error; its subcommand parsers are of this class too."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="wdsparql",
        description="well-designed SPARQL evaluation, width analysis and hardness instances",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-wd", help="is the pattern well designed?")
    p.add_argument("--pattern", required=True)
    p.set_defaults(fn=cmd_check_wd)

    p = sub.add_parser("to-forest", help="print the pattern-forest translation")
    p.add_argument("--pattern", required=True)
    p.set_defaults(fn=cmd_to_forest)

    p = sub.add_parser("eval", help="does the mapping belong to the answer?")
    p.add_argument("--pattern", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--mapping", required=True)
    p.add_argument("--mode", default="lemma1", help="naive | lemma1 | pebble:<k>")
    p.add_argument("--check-width", action="store_true")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("eval-all", help="print every solution mapping")
    p.add_argument("--pattern", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--mode", default="naive", help="naive | lemma1")
    p.set_defaults(fn=cmd_eval_all)

    p = sub.add_parser("width", help="compute a structural width measure")
    p.add_argument("--pattern", required=True)
    p.add_argument("--measure", default="dw", choices=("dw", "bw", "local"))
    p.add_argument("--report", action="store_true")
    p.set_defaults(fn=cmd_width)

    p = sub.add_parser("pebble", help="existential k-pebble game decision")
    p.add_argument("--tgraph", required=True)
    dist = p.add_mutually_exclusive_group()
    dist.add_argument("--dist", default=None, help="comma-separated ?vars")
    dist.add_argument("--dist-file", default=None)
    p.add_argument("--graph", required=True)
    p.add_argument("--mapping", default=None)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=cmd_pebble)

    p = sub.add_parser("gen-hard", help="generate a clique-reduction instance")
    p.add_argument("--pattern", required=True)
    p.add_argument("--graph", required=True, help="undirected graph (.ug)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--minor-map", default=None)
    p.add_argument("--out-graph", required=True)
    p.add_argument("--out-mapping", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(fn=cmd_gen_hard)

    p = sub.add_parser("selftest", help="run the oracle-equivalence property suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=40)
    p.set_defaults(fn=cmd_selftest)
    return top


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:  # built once per process; each call parses afresh
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:  # --help, the one exit left inside argparse
        return 1 if exc.code not in (0, None) else 0
    except WdError as exc:
        error = f"{exc.kind}: {exc}"
    except ValueError as exc:
        error = f"InvalidInput: {exc}"
    except OSError as exc:
        error = f"IO: {exc}"
    except Exception as exc:  # a defect: still one line, never a traceback
        error = f"Internal: {type(exc).__name__}: {exc}"
    # a detail may quote input, line breaks included
    print("ERROR", " ".join(error.splitlines()), file=sys.stderr)
    return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
