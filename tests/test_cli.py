import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from fixtures import P1_TEXT, P2_TEXT
from wdsparql.cli import main

DATA = Path(__file__).parent / "data"


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


def test_missing_file_is_exit_1(tmp_path):
    code, _, err = run("check-wd", "--pattern", str(tmp_path / "nope.sparql"))
    assert code == 1
    assert err.startswith("ERROR IO:")


def test_selftest_smoke():
    code, out, err = run("selftest", "--seed", "3", "--trials", "6")
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0] == "1..5"
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
