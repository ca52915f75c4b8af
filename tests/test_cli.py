import hashlib
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from fixtures import P1_TEXT, P2_TEXT, TRIANGLE_TAIL_MAPPING_TEXT, TRIANGLE_TAIL_TEXT, complete_graph_text
from wdsparql import cli
from wdsparql.cli import main

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
    monkeypatch.setattr(evaluator, "MAX_JOIN_MAPPINGS", 3)
    code, out, err = run("eval-all", "--pattern", pattern, "--graph", graph, "--mode", "naive")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("ERROR InstanceTooLarge:"), err


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


def test_missing_file_is_exit_1(tmp_path):
    code, _, err = run("check-wd", "--pattern", str(tmp_path / "nope.sparql"))
    assert code == 1
    assert err.startswith("ERROR IO:")


def test_selftest_smoke():
    code, out, err = run("selftest", "--seed", "3", "--trials", "6")
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0] == "1..6"
    assert all(line.startswith("ok") for line in lines[1:])


def test_selftest_is_seed_reproducible():
    a = run("selftest", "--seed", "11", "--trials", "4")
    b = run("selftest", "--seed", "11", "--trials", "4")
    assert a == b


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


def test_deep_nesting_is_one_error_line(tmp_path):
    depth = 1500
    text = "(" * depth + "(?x,p,?y)" + " AND (?x,p,?y))" * depth
    pattern = write(tmp_path, "deep.sparql", text)
    code, out, err = run("check-wd", "--pattern", pattern)
    assert code == 1
    assert out == ""
    assert err.startswith("ERROR InstanceTooLarge:")
    assert len(err.splitlines()) == 1


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
    cases = (
        (("eval", "--mapping", sol, "--mode", "pebble:x"), "ERROR InvalidK:"),
        (("eval", "--mapping", sol, "--mode", "nope"), "ERROR InvalidInput:"),
        (("eval-all", "--mode", "nope"), "ERROR InvalidInput:"),
    )
    for (command, *rest), kind in cases:
        code, out, err = run(command, "--pattern", pattern, "--graph", graph, *rest)
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
