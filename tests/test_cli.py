import hashlib
import io
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from hypothesis import given, seed, settings, strategies as st

from fixtures import P1_TEXT, P2_TEXT, TRIANGLE_TAIL_MAPPING_TEXT, TRIANGLE_TAIL_TEXT, complete_graph_text
from oracles import eval_forest_by_enumeration
from wdsparql import cli, randgen
from wdsparql.cli import main
from wdsparql.evaluator import eval_naive
from wdsparql.patterns import parse_pattern
from wdsparql.terms import parse_graph, parse_mapping
from wdsparql.trees import forest_pattern, to_forest

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parent.parent / "src"


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_check_wd(tmp_path):
    good = write(tmp_path, "p1.sparql", P1_TEXT)
    bad = write(tmp_path, "p2.sparql", P2_TEXT)
    assert run("check-wd", "--pattern", good)[0] == 0
    code, _, err = run("check-wd", "--pattern", bad)
    assert code == 2
    assert "?z" in err


def test_parse_error_is_exit_1(tmp_path):
    broken = write(tmp_path, "broken.sparql", "((?x,p,?y) AND")
    code, _, err = run("check-wd", "--pattern", broken)
    assert code == 1
    assert err.startswith("ERROR ParseError:")


def test_iri_starting_with_a_comment_mark_is_one_error_line(tmp_path):
    pattern = write(tmp_path, "hash.sparql", "(#a, p, ?x)")
    code, out, err = run("check-wd", "--pattern", pattern)
    assert (code, out) == (1, "")
    assert err.splitlines() == ["ERROR ParseError: bad IRI '#a' (at position 1)"]


def test_to_forest(tmp_path):
    pattern = write(tmp_path, "p.sparql", P1_TEXT)
    code, out, _ = run("to-forest", "--pattern", pattern)
    assert code == 0
    assert out.splitlines()[0] == "n0: { ?x p ?y }"
    assert "---" not in out  # single tree


def test_eval_modes_agree_on_fixture():
    pattern = str(DATA / "clique3.sparql")
    graph = str(DATA / "selfloop.nt")
    sol = str(DATA / "solution.map")
    short = str(DATA / "short.map")
    for mode in ("naive", "lemma1", "pebble:1", "pebble:2"):
        assert run("eval", "--pattern", pattern, "--graph", graph, "--mapping", sol, "--mode", mode)[0] == 0
        assert run("eval", "--pattern", pattern, "--graph", graph, "--mapping", short, "--mode", mode)[0] == 2


def test_eval_check_width_warns():
    pattern = str(DATA / "family3.sparql")
    graph = str(DATA / "selfloop.nt")
    short = str(DATA / "short.map")
    code, _, err = run(
        "eval", "--pattern", pattern, "--graph", graph, "--mapping", short,
        "--mode", "pebble:1", "--check-width",
    )
    assert code == 2
    assert "domination width" in err  # dw = 2 here, k = 1 below it


def test_eval_all(tmp_path):
    pattern = write(tmp_path, "p.sparql", "((?x, p, ?y) OPT (?y, q, ?z))")
    graph = write(tmp_path, "g.nt", "a p b\nb q c\nc p a\n")
    code, out, _ = run("eval-all", "--pattern", pattern, "--graph", graph, "--mode", "naive")
    assert code == 0
    lines = out.splitlines()
    # canonical order: shorter domain (x, y) sorts before (x, y, z)
    assert lines == ["{?x=c, ?y=a}", "{?x=a, ?y=b, ?z=c}"]
    code, out2, _ = run("eval-all", "--pattern", pattern, "--graph", graph, "--mode", "lemma1")
    assert out2 == out


def test_join_cap_is_one_error_line(monkeypatch, tmp_path):
    from wdsparql import evaluator

    pattern = write(tmp_path, "p.sparql", "((?x, p, ?y) AND (?z, p, ?w))")
    graph = write(tmp_path, "g.nt", "a p b\nb p c\n")
    monkeypatch.setattr(evaluator, "MAX_MAPPINGS", 3)
    for mode in ("naive", "lemma1"):
        code, out, err = run("eval-all", "--pattern", pattern, "--graph", graph, "--mode", mode)
        assert code == 1
        assert out == ""
        assert err.splitlines() == ["ERROR InstanceTooLarge: an intermediate result passed 3 mappings"]


def test_eval_all_past_twelve_variables(tmp_path):
    """A 30-variable OPT chain with a few hundred solutions: lemma1 is
    bounded by its answers, not by its variables."""
    n = 30
    text = f"(?x{n - 2}, p, ?x{n - 1})"
    for i in range(n - 3, -1, -1):
        text = f"((?x{i}, p, ?x{i + 1}) OPT {text})"
    rng = random.Random(1)
    triples = "".join(f"i{rng.randrange(30)} p i{rng.randrange(30)}\n" for _ in range(20))
    pattern, graph = write(tmp_path, "p.sparql", text), write(tmp_path, "g.nt", triples)
    code, out, err = run("eval-all", "--pattern", pattern, "--graph", graph, "--mode", "lemma1")
    assert (code, err) == (0, "")
    assert run("eval-all", "--pattern", pattern, "--graph", graph, "--mode", "naive") == (0, out, "")
    forest, g = to_forest(parse_pattern(text)), parse_graph(triples)
    solutions = [parse_mapping(line[1:-1].replace(", ", "\n")) for line in out.splitlines()]
    assert len(forest.vars()) == n and len(solutions) == 295
    assert all(eval_forest_by_enumeration(forest, g, mu) for mu in solutions)


def test_width_command():
    pattern = str(DATA / "clique3.sparql")
    for measure, expected in (("dw", "1"), ("bw", "1"), ("local", "2")):
        code, out, _ = run("width", "--pattern", pattern, "--measure", measure)
        assert code == 0
        assert out.strip() == expected
    code, out, _ = run("width", "--pattern", pattern, "--measure", "dw", "--report")
    assert code == 0
    assert out.splitlines()[0] == "dw = 1"
    assert any(line.startswith("  tree 0") for line in out.splitlines()[1:])


def test_width_of_a_long_child_path(tmp_path):
    # the child is a 25-triple q-path below ?x: its 25 free variables form
    # a path, past the treewidth solver's cap of 20 vertices, whose width
    # is 1 without it; dw merges 27 variables, past the member cap of 14
    path = "(?x, q, ?a0)"
    for i in range(24):
        path = f"({path} AND (?a{i}, q, ?a{i + 1}))"
    pattern = write(tmp_path, "qpath.sparql", f"((?x, p, ?r) OPT {path})")
    for measure in ("local", "bw"):
        assert run("width", "--pattern", pattern, "--measure", measure) == (0, "1\n", "")
    code, out, err = run("width", "--pattern", pattern, "--measure", "dw")
    assert (code, out) == (1, "")
    assert err.startswith("ERROR InstanceTooLarge: 27 variables")


def test_parser_built_once_and_each_call_parses_afresh(monkeypatch):
    built = []
    build = cli.build_parser

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setattr(cli, "_parser", None)
    pattern = str(DATA / "clique3.sparql")
    code, out, _ = run("--help")
    assert code == 0 and out.startswith("usage:")
    assert run("width")[0] == 1  # --pattern missing
    assert run("no-such-command")[0] == 1
    assert run("width", "--pattern", pattern, "--report")[1].startswith("dw = 1")
    assert run("width", "--pattern", pattern)[1] == "1\n"  # no --report left over
    assert len(built) == 1


def test_width_of_union_family():
    code, out, _ = run("width", "--pattern", str(DATA / "family3.sparql"), "--measure", "dw")
    assert code == 0
    assert out.strip() == "2"


def test_pebble_command():
    args = [
        "pebble", "--tgraph", str(DATA / "probe.tg"),
        "--graph", str(DATA / "twocycle.nt"), "--k",
    ]
    assert run(*args, "2")[0] == 0  # 2 pebbles cannot spot the odd cycle
    code, _, err = run(*args, "1")
    assert code == 1
    assert err.startswith("ERROR InvalidK:")


def test_pebble_with_dist_and_mapping(tmp_path):
    tg = write(tmp_path, "s.tg", "?x p ?y")
    graph = write(tmp_path, "g.nt", "a p b")
    mapping = write(tmp_path, "m.map", "?x = a")
    assert run("pebble", "--tgraph", tg, "--dist", "?x", "--graph", graph,
               "--mapping", mapping, "--k", "2")[0] == 0
    bad = write(tmp_path, "m2.map", "?x = b")
    assert run("pebble", "--tgraph", tg, "--dist", "?x", "--graph", graph,
               "--mapping", bad, "--k", "2")[0] == 2


def test_gen_hard_roundtrip(tmp_path):
    out_graph = str(tmp_path / "out.nt")
    out_map = str(tmp_path / "out.map")
    report = str(tmp_path / "report.txt")
    base = [
        "gen-hard", "--pattern", str(DATA / "family3.sparql"), "--k", "2",
        "--out-graph", out_graph, "--out-mapping", out_map, "--report", report,
    ]
    assert run(*base, "--graph", str(DATA / "h_edge.ug"))[0] == 0
    # H has an edge = a 2-clique, so the mapping must NOT be a solution
    assert run("eval", "--pattern", str(DATA / "family3.sparql"),
               "--graph", out_graph, "--mapping", out_map, "--mode", "lemma1")[0] == 2
    text = Path(report).read_text()
    assert "witness subtree" in text and "cell 1 1" in text

    assert run(*base, "--graph", str(DATA / "h_isolated.ug"))[0] == 0
    assert run("eval", "--pattern", str(DATA / "family3.sparql"),
               "--graph", out_graph, "--mapping", out_map, "--mode", "lemma1")[0] == 0


def test_gen_hard_output_bytes_are_pinned(tmp_path):
    # the instance is built from cores and first homomorphisms, so these
    # bytes change whenever the search returns another first solution
    out = [tmp_path / name for name in ("g.nt", "m.map", "r.txt")]
    code, _, _ = run(
        "gen-hard", "--pattern", str(DATA / "family3.sparql"), "--k", "2",
        "--graph", str(DATA / "h_edge.ug"),
        "--out-graph", str(out[0]), "--out-mapping", str(out[1]), "--report", str(out[2]),
    )
    assert code == 0
    digest = hashlib.sha256(b"".join(path.read_bytes() for path in out)).hexdigest()
    assert digest == "09d35b86aacd5d3e03bcc13e7ffbffddaba558d18479d377d23aaead7be2bcba"


def test_a_bad_ug_file_is_reported_at_its_first_bad_line(tmp_path):
    graph = write(tmp_path, "bad.ug", "vertex a\n# two faults\nedge a a\nedge a b\nvertex b-c\n")
    code, out, err = run(
        "gen-hard", "--pattern", str(DATA / "family3.sparql"), "--k", "2", "--graph", graph,
        "--out-graph", str(tmp_path / "g.nt"), "--out-mapping", str(tmp_path / "m.map"),
    )
    assert (code, out) == (1, "")
    assert err.splitlines() == ["ERROR ParseError: self-loop at 'a' (line 3)"]


def test_a_duplicate_binding_is_reported_at_its_line(tmp_path):
    mapping = write(tmp_path, "dup.map", "?x = a\n?x = b\n?x = c\n")
    code, out, err = run(
        "eval", "--pattern", str(DATA / "clique3.sparql"), "--graph", str(DATA / "selfloop.nt"),
        "--mapping", mapping,
    )
    assert (code, out) == (1, "")
    assert err.splitlines() == ["ERROR DuplicateBinding: duplicate binding for ?x (line 2)"]


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    family3 = str(DATA / "family3.sparql")
    # both trees of family3 answer, with and without their optional parts
    small = write(tmp_path, "small.nt", "a p b\nc q a\nb r c\nc r c\nb p d\nd q b\ne q d\n")
    commands = (
        ["gen-hard", "--pattern", family3, "--k", "2", "--graph", str(DATA / "h_edge.ug"),
         "--out-graph", "g.nt", "--out-mapping", "m.map", "--report", "r.txt"],
        ["width", "--pattern", family3, "--measure", "dw", "--report"],
        ["eval-all", "--pattern", family3, "--graph", small, "--mode", "naive"],
        ["eval-all", "--pattern", family3, "--graph", small, "--mode", "lemma1"],
    )
    outputs = []
    for seed in ("1", "2"):
        work = tmp_path / seed
        work.mkdir()
        path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        got = []
        for argv in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "wdsparql.cli", *argv],
                cwd=work, env=env, capture_output=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            got.append(proc.stdout)
        got.extend((work / name).read_bytes() for name in ("g.nt", "m.map", "r.txt"))
        outputs.append(got)
    assert outputs[0] == outputs[1]
    assert all(outputs[0][1:])
    assert outputs[0][2] == outputs[0][3] and outputs[0][2].count(b"\n") >= 4


# Builds, before cli.main runs, a term for each token of the input files,
# in an order shuffled by argv[1] and with allocations of random sizes in
# between, so the terms sit at other addresses, in another order, than in
# a plain run.
SHUFFLED_TERMS = """
import random, re, sys
from wdsparql import cli, terms
rng = random.Random(int(sys.argv[1]))
argv = sys.argv[2:]
tokens = set()
for path in argv:
    try:
        with open(path) as fh:
            tokens.update(re.findall(r"[?]?[A-Za-z0-9_:/#.-]+", fh.read()))
    except OSError:
        pass
order = sorted(tokens)
rng.shuffle(order)
held = []
for token in order:
    held.append([None] * rng.randrange(64))
    held.append(terms.parse_term(token))
sys.exit(cli.main(argv))
"""


def test_output_does_not_depend_on_the_allocation_order(tmp_path):
    # terms hash by identity, so sets of terms iterate in address order
    family3 = str(DATA / "family3.sparql")
    small = write(tmp_path, "small.nt", "a p b\nc q a\nb r c\nc r c\nb p d\nd q b\ne q d\n")
    commands = (
        ["gen-hard", "--pattern", family3, "--k", "2", "--graph", str(DATA / "h_edge.ug"),
         "--out-graph", "g.nt", "--out-mapping", "m.map", "--report", "r.txt"],
        ["width", "--pattern", family3, "--measure", "dw", "--report"],
        ["eval-all", "--pattern", family3, "--graph", small, "--mode", "naive"],
        ["eval-all", "--pattern", family3, "--graph", small, "--mode", "lemma1"],
    )
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    outputs = []
    for name, prefix in (
        ("plain", ["-m", "wdsparql.cli"]),
        ("shuffled1", ["-c", SHUFFLED_TERMS, "1"]),
        ("shuffled2", ["-c", SHUFFLED_TERMS, "2"]),
    ):
        work = tmp_path / name
        work.mkdir()
        got = []
        for argv in commands:
            proc = subprocess.run(
                [sys.executable, *prefix, *argv],
                cwd=work, env=env, capture_output=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            got.append(proc.stdout)
        got.extend((work / out).read_bytes() for out in ("g.nt", "m.map", "r.txt"))
        outputs.append(got)
    assert outputs[0] == outputs[1] == outputs[2]
    assert all(outputs[0][1:])


def test_missing_file_is_exit_1(tmp_path):
    code, _, err = run("check-wd", "--pattern", str(tmp_path / "nope.sparql"))
    assert code == 1
    assert err.startswith("ERROR IO:")


def test_selftest_smoke():
    code, out, err = run("selftest", "--seed", "3", "--trials", "6")
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0] == "1..8"
    assert all(line.startswith("ok") for line in lines[1:])


def test_python_dash_m_runs_the_cli(tmp_path):
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "wdsparql", "selftest", "--trials", "1"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path), capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.decode().splitlines()
    assert lines[0].startswith("1..") and all(line.startswith("ok") for line in lines[1:])


def test_selftest_is_seed_reproducible():
    a = run("selftest", "--seed", "11", "--trials", "4")
    b = run("selftest", "--seed", "11", "--trials", "4")
    assert a == b


def test_selftest_trial_graphs_have_answers():
    # the oracle triangle plants the image of a root subtree in each
    # trial's graph, so few trials check an empty answer set
    for s in range(5):
        rng = random.Random(s)
        answered = 0
        for _ in range(40):
            forest = randgen.random_forest(rng)
            answered += bool(eval_naive(forest_pattern(forest), randgen.planted_graph(rng, forest)))
        assert answered >= 30, (s, answered)


def test_pebble_dist_file(tmp_path):
    tg = write(tmp_path, "s.tg", "?x p ?y")
    graph = write(tmp_path, "g.nt", "a p b")
    mapping = write(tmp_path, "m.map", "?x = a")
    dist = write(tmp_path, "x.dist", "?x\n")
    assert run("pebble", "--tgraph", tg, "--dist-file", dist, "--graph", graph,
               "--mapping", mapping, "--k", "2")[0] == 0


def test_eval_rejects_non_ground_graph(tmp_path):
    pattern = write(tmp_path, "p.sparql", "(?x, p, ?y)")
    graph = write(tmp_path, "g.nt", "a p ?z")
    mapping = write(tmp_path, "m.map", "?x = a\n?y = b")
    code, _, err = run("eval", "--pattern", pattern, "--graph", graph, "--mapping", mapping)
    assert code == 1
    assert err.startswith("ERROR NonGroundGraph:")


def test_ten_thousand_levels_through_the_cli(tmp_path):
    """check-wd, to-forest and eval --mode naive each take a 10,000-deep
    left-deep AND, OPT and UNION chain in under 2 s."""
    depth = 10_000
    graph = write(tmp_path, "g.nt", "a p b .\n")
    bindings = "".join(f"?x{i} = b\n" for i in range(1, depth + 2))
    every = write(tmp_path, "every.map", "?x0 = a\n" + bindings)
    first = write(tmp_path, "first.map", "?x0 = a\n?x1 = b\n")
    # the lines to-forest prints: one tree, a root with a child per level,
    # or a tree per level with "---" between
    for op, lines, mapping in (("AND", 1, every), ("OPT", depth + 1, every), ("UNION", 2 * depth + 1, first)):
        tail = "".join(f" {op} (?x0, p, ?x{i}))" for i in range(2, depth + 2))
        pattern = write(tmp_path, f"{op}.sparql", "(" * depth + "(?x0, p, ?x1)" + tail)
        naive = ("eval", "--graph", graph, "--mapping", mapping, "--mode", "naive")
        for command, *rest in (("check-wd",), ("to-forest",), naive):
            t0 = perf_counter()
            code, out, err = run(command, "--pattern", pattern, *rest)
            assert perf_counter() - t0 < 2.0, (op, command)
            assert (code, err) == (0, ""), (op, command)
            if command == "to-forest":
                assert len(out.splitlines()) == lines


def test_unexpected_exception_is_one_internal_error_line(monkeypatch, tmp_path):
    def boom(args):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "cmd_check_wd", boom)
    monkeypatch.setattr(cli, "_parser", None)  # rebuilt around the patched command
    pattern = write(tmp_path, "p.sparql", P1_TEXT)
    code, out, err = run("check-wd", "--pattern", pattern)
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["ERROR Internal: KeyError: 'boom'"]
    assert "Traceback" not in err


def test_pebble_family_cap_is_one_error_line(monkeypatch):
    from wdsparql import pebble

    monkeypatch.setattr(pebble, "MAX_FAMILY_MEMBERS", 5)
    code, out, err = run(
        "pebble", "--tgraph", str(DATA / "probe.tg"),
        "--graph", str(DATA / "twocycle.nt"), "--k", "2",
    )
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("ERROR SearchTooLarge:")


def test_pebble_on_a_path_deeper_than_the_recursion_limit(tmp_path):
    lines = "".join(f"?v{i} p ?v{i + 1}\n" for i in range(3000))
    tg = write(tmp_path, "path.tg", lines)
    graph = write(tmp_path, "g.nt", "a p a")
    code, out, err = run("pebble", "--tgraph", tg, "--graph", graph, "--k", "4000")
    assert (code, out, err) == (0, "", "")


def test_bad_eval_modes_are_one_typed_error_line():
    pattern = str(DATA / "clique3.sparql")
    graph = str(DATA / "selfloop.nt")
    sol = str(DATA / "solution.map")
    tg = str(DATA / "probe.tg")
    inputs = ("--pattern", pattern, "--graph", graph)
    cases = (
        (("eval", *inputs, "--mapping", sol, "--mode", "pebble:x"), "ERROR InvalidK:"),
        (("eval", *inputs, "--mapping", sol, "--mode", "nope"), "ERROR InvalidInput:"),
        (("eval-all", *inputs, "--mode", "nope"), "ERROR InvalidInput:"),
        # usage errors: the same one line, never argparse's usage block
        (("eval", "--pattern", pattern), "ERROR UsageError:"),
        (("pebble", "--tgraph", tg, "--graph", graph, "--k", "two"), "ERROR UsageError:"),
        (("width", "--pattern", pattern, "--measure", "zz"), "ERROR UsageError:"),
        (("no-such-command",), "ERROR UsageError:"),
        ((), "ERROR UsageError:"),
        (("pebble", "--tgraph", tg, "--graph", graph, "--k", "2", "--dist", "?x",
          "--dist-file", sol), "ERROR UsageError:"),
        (("check-wd", "--pattern", pattern, "a\nb"), "ERROR UsageError:"),
        (("selftest", "--trials", "0"), "ERROR UsageError:"),
        (("selftest", "--trials", "-3"), "ERROR UsageError:"),
    )
    for argv, kind in cases:
        code, out, err = run(*argv)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(kind), err


def test_dense_triangle_with_a_tail_is_an_answer_not_an_error(tmp_path):
    pattern = write(tmp_path, "p.sparql", TRIANGLE_TAIL_TEXT)
    graph = write(tmp_path, "g.nt", complete_graph_text(40))
    mapping = write(tmp_path, "m.map", TRIANGLE_TAIL_MAPPING_TEXT)
    code, out, err = run(
        "eval", "--pattern", pattern, "--graph", graph, "--mapping", mapping, "--mode", "pebble:2",
    )
    assert (code, err) == (2, "")


_FILES = {  # name: a valid content, the fuzz's starting point
    "p.sparql": "((?x, p, ?y) OPT ((?y, p, ?z) AND (?z, p, ?x)))",
    "g.nt": "a p b\nb p a\na p a",
    "m.map": "?x = a\n?y = b",
    "s.tg": "?x p ?y\n?y p ?z\n?z p ?x",
    "x.dist": "?x",
    "h.ug": "vertex u\nedge u v\nedge v w",
    "mm.mm": "cell 1 1 : ?x\ncell 1 2 : ?y",
}
_VALID_ARGV = {
    "check-wd": ("--pattern", "p.sparql"),
    "to-forest": ("--pattern", "p.sparql"),
    "eval": ("--pattern", "p.sparql", "--graph", "g.nt", "--mapping", "m.map", "--mode", "pebble:2"),
    "eval-all": ("--pattern", "p.sparql", "--graph", "g.nt", "--mode", "lemma1"),
    "width": ("--pattern", "p.sparql", "--measure", "dw", "--report"),
    "pebble": ("--tgraph", "s.tg", "--graph", "g.nt", "--mapping", "m.map", "--dist-file", "x.dist", "--k", "2"),
    "gen-hard": ("--pattern", "p.sparql", "--graph", "h.ug", "--k", "2", "--minor-map", "mm.mm",
                 "--out-graph", "out.nt", "--out-mapping", "out.map", "--report", "out.txt"),
    "selftest": ("--seed", "1", "--trials", "1"),
}
_ARGS = sorted({a for argv in _VALID_ARGV.values() for a in argv} | set(_VALID_ARGV)) + [
    "naive", "pebble:1", "pebble:x", "bw", "local", "--check-width", "--dist", "?x,?y", "-1", "0", "3", "-h",
]
_VOCAB = ("(", ")", ",", "?x", "?y", "?z", "p", "a", "b", "AND", "OPT", "UNION", "=", "#",
          "vertex", "edge", "cell", "1", "2", ":", "-")
# no digits, so no edit asks selftest for a million trials
_NO_DIGITS = st.text(st.characters(blacklist_categories=("Nd",)), max_size=8)


def _contents(valid):
    soup = st.lists(st.lists(st.sampled_from(_VOCAB), max_size=6).map(" ".join), max_size=5)
    return st.one_of(st.just(valid), st.text(max_size=30), soup.map("\n".join),
                     soup.map(lambda lines: valid + "\n" + "\n".join(lines)))


@seed(14)
@settings(max_examples=80, deadline=None, database=None)
@given(
    st.one_of(st.just([]), st.lists(st.tuples(  # half the runs keep the argv valid
        st.integers(0, 20), st.one_of(st.sampled_from(_ARGS), _NO_DIGITS), st.booleans(),
    ), min_size=1, max_size=3)),
    st.fixed_dictionaries({name: _contents(valid) for name, valid in _FILES.items()}),
)
def test_every_error_exit_is_one_typed_line(edits, files):
    """Every subcommand, any argv edits, any file contents: exit 0, 1 or 2,
    and exit 1 with one `ERROR <Kind>:` line on stderr, never an internal
    error."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as d:
        os.chdir(d)  # relative paths, the output files among them, stay in here
        try:
            for name, text in files.items():
                Path(name).write_text(text, encoding="utf-8")
            for command, valid in _VALID_ARGV.items():
                argv = [command, *valid]
                for at, token, insert in edits:  # each inserts or overwrites a token
                    at = min(at, len(argv))
                    argv[at : at + (not insert)] = [token]
                code, _, err = run(*argv)
                assert code in (0, 1, 2), (argv, code)
                if code == 1:
                    lines = err.splitlines()
                    assert len(lines) == 1 and lines[0].startswith("ERROR "), (argv, err)
                    assert not lines[0].startswith("ERROR Internal"), (argv, err)
        finally:
            os.chdir(cwd)
