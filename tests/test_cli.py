"""CLI behavior: subcommands, exit codes, JSON output."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gassoc.cli import main
from gassoc.reductions import read_bundle

K3 = "3 3\n1\n2\n3\n1 2\n2 3\n1 3\n"
P3 = "3 2\n1\n2\n3\n1 2\n2 3\n"
CHAIN_123 = "1 -\n2 1\n3 2\n"
CHAIN_321 = "3 -\n2 3\n1 2\n"
CHAIN_213 = "2 -\n1 2\n3 1\n"  # spans P3, but is no elimination tree of it


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_dist_identity(files, capsys):
    g = files("g.txt", K3)
    t = files("t.tree", CHAIN_123)
    code, out = run(capsys, "dist", g, t, t)
    assert code == 0
    assert out.strip() == "distance 0"


def test_dist_k3_reversal(files, capsys):
    g = files("g.txt", K3)
    t1 = files("t1.tree", CHAIN_123)
    t2 = files("t2.tree", CHAIN_321)
    code, out = run(capsys, "dist", g, t1, t2)
    assert code == 0 and out.strip() == "distance 3"


def test_dist_json_path_replays(files, capsys):
    g = files("g.txt", K3)
    t1 = files("t1.tree", CHAIN_123)
    t2 = files("t2.tree", CHAIN_321)
    code, out = run(capsys, "dist", g, t1, t2, "--path", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["distance"] == "3"
    assert len(payload["path"]) == 3


def test_dist_path_readme_example(files, capsys):
    g = files("g.txt", P3)
    t1 = files("t1.tree", CHAIN_123)
    t2 = files("t2.tree", CHAIN_321)
    code, out = run(capsys, "dist", g, t1, t2, "--path")
    assert code == 0
    assert out.splitlines() == ["distance 2", "swap 1 2", "swap 2 3"]


def test_dist_weighted_unit_equals_unweighted(files, capsys):
    g = files("g.txt", P3)
    t1 = files("t1.tree", CHAIN_123)
    t2 = files("t2.tree", CHAIN_321)
    w = files("w.txt", "1 1\n2 1\n3 1\n")
    _, plain = run(capsys, "dist", g, t1, t2)
    code, weighted = run(capsys, "dist", g, t1, t2, "--weights", w)
    assert code == 0
    assert plain == weighted


def test_json_output_matches_schema(files, capsys, tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources as res

    schema = json.loads(
        res.files("gassoc").joinpath("schemas/result.schema.json").read_text()
    )
    g = files("g.txt", K3)
    t1 = files("t1.tree", CHAIN_123)
    t2 = files("t2.tree", CHAIN_321)
    p4 = files("p4.txt", "4 3\ns\nv1\nv2\nt\ns v1\nv1 v2\nv2 t\n")
    p3, w = files("p3.txt", P3), files("w.txt", "1 2\n2 1\n3 2\n")
    for argv in (
        ["dist", g, t1, t2, "--json", "--path"],
        ["diameter", g, "--json"],
        ["enumerate", g, "--json"],
        ["rank", g, "1", "--json"],
        ["reduce", "cut", p4, "s", "t", str(tmp_path / "cut"), "--N", "2",
         "--sufficiency", "s,v1", "--json"],
        ["reduce", "blowup", p3, w, t1, t2, str(tmp_path / "bp"), "--json"],
        ["verify", "realization", "--json"],
    ):
        code, out = run(capsys, *argv)
        assert code == 0
        jsonschema.validate(json.loads(out), schema)


def test_diameter_text(files, capsys):
    g = files("g.txt", K3)
    code, out = run(capsys, "diameter", g)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "diameter 3"
    assert lines[1] == "vertices 6"


@pytest.mark.parametrize("mode", [[], ["--exact-allpairs"]])
def test_diameter_json_is_an_integer(files, capsys, mode):
    g = files("g.txt", K3)
    code, out = run(capsys, "diameter", g, "--json", *mode)
    assert code == 0
    payload = json.loads(out)
    assert (payload["diameter"], payload["vertices"]) == (3, 6)
    assert type(payload["diameter"]) is int


def test_enumerate_and_dot(files, capsys):
    g = files("g.txt", P3)
    code, out = run(capsys, "enumerate", g)
    assert code == 0 and out.strip() == "count 5"
    code, dot = run(capsys, "enumerate", g, "--dot")
    assert code == 0
    assert dot.startswith("graph flipgraph {")


def test_rank(files, capsys):
    g = files("g.txt", P3)
    code, out = run(capsys, "rank", g, "1")
    assert code == 0 and out.strip() == "2"
    code, out = run(capsys, "rank", g, "1", "2", "3")
    assert out.strip() == "3"


def test_reduce_cut_bundle(files, capsys, tmp_path):
    g = files("g.txt", "4 3\ns\nv1\nv2\nt\ns v1\nv1 v2\nv2 t\n")
    outdir = str(tmp_path / "bundle")
    code, out = run(capsys, "reduce", "cut", g, "s", "t", outdir,
                    "--N", "2", "--sufficiency", "s,v1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda"] == 1
    assert payload["threshold"] == "516"
    assert (tmp_path / "bundle" / "graph.txt").exists()
    assert (tmp_path / "bundle" / "sufficiency.moves").exists()
    assert (tmp_path / "bundle" / "meta.json").exists()


def test_reduce_blowup(files, capsys, tmp_path):
    g = files("g.txt", P3)
    w = files("w.txt", "1 2\n2 1\n3 2\n")
    t1 = files("t1.tree", CHAIN_123)
    t2 = files("t2.tree", CHAIN_321)
    outdir = str(tmp_path / "bp")
    code, out = run(capsys, "reduce", "blowup", g, w, t1, t2, outdir)
    assert code == 0
    assert "vertices 5" in out


def _unwritable_outdir(tmp_path, case):
    """An OUTDIR that a bundle cannot be written to, by ``case``."""
    blocker = tmp_path / "blocker"
    blocker.write_text("a file\n")
    if case == "outdir is a file":
        return blocker
    if case == "outdir under a file":
        return blocker / "out"
    out = tmp_path / "out"
    (out / case.split()[0]).mkdir(parents=True)  # "<file> is a directory"
    return out


@pytest.mark.parametrize(
    "case",
    ["outdir is a file", "outdir under a file", "graph.txt is a directory",
     "sufficiency.moves is a directory"],
)
def test_reduce_cut_reports_unwritable_outdir(files, capsys, tmp_path, case):
    g = files("g.txt", "4 3\ns\nv1\nv2\nt\ns v1\nv1 v2\nv2 t\n")
    outdir = str(_unwritable_outdir(tmp_path, case))
    code = main(["reduce", "cut", g, "s", "t", outdir, "--N", "2", "--sufficiency", "s,v1"])
    err = capsys.readouterr().err
    assert code == 3 and err.startswith("error: cannot write ")


@pytest.mark.parametrize(
    "case", ["outdir is a file", "outdir under a file", "graph.txt is a directory"]
)
def test_reduce_blowup_reports_unwritable_outdir(files, capsys, tmp_path, case):
    g, w = files("g.txt", P3), files("w.txt", "1 2\n2 1\n3 2\n")
    t = files("t.tree", CHAIN_123)
    outdir = str(_unwritable_outdir(tmp_path, case))
    code = main(["reduce", "blowup", g, w, t, t, outdir])
    captured = capsys.readouterr()
    assert code == 3 and captured.err.startswith("error: cannot write ")
    assert captured.out == ""


@pytest.mark.parametrize("extra", [[], ["--path"], ["--weights", "w"]])
def test_dist_stops_at_the_node_budget(files, capsys, extra):
    g = files("g.txt", K3)
    t1, t2 = files("t1.tree", CHAIN_123), files("t2.tree", CHAIN_321)
    w = files("w.txt", "1 1\n2 2\n3 1\n")
    argv = ["--node-budget", "1", "dist", g, t1, t2, *(w if a == "w" else a for a in extra)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err.startswith("resource limit: node budget 1 exceeded")


@pytest.mark.parametrize("command", ["rank", "project"])
def test_a_repeated_label_is_refused(files, capsys, command):
    # rank 1 1 is not the rank of {1}, and project needs a vertex set
    g = files("g.txt", P3)
    tree = [files("t.tree", CHAIN_123)] if command == "project" else []
    code = main([command, g, *tree, "1", "2", "1"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "error: duplicate vertex label: '1'\n"


def test_project_subcommand(files, capsys):
    g = files("g.txt", P3)
    t = files("t.tree", CHAIN_123)
    code, out = run(capsys, "project", g, t, "2", "3")
    assert code == 0
    assert out == "2 -\n3 2\n"


def test_verify_realization_exit_zero(files, capsys):
    code, out = run(capsys, "verify", "realization", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["checked"] == 30


def test_exit_code_parse_error(files, capsys):
    bad = files("bad.txt", "not a graph\n")
    assert main(["dist", bad, bad, bad]) == 2
    assert main(["enumerate", str(files("missing_dir", "x")) + ".nope"]) == 2


def test_exit_code_semantic_error(files, capsys):
    g = files("g.txt", P3)
    assert main(["rank", g, "zz"]) == 3
    cyc = files("c4.txt", "4 4\ns\nv1\nt\nv2\ns v1\nv1 t\nt v2\nv2 s\n")
    # X = {s} is not balanced; it is rejected before any bundle file is written
    out = Path(files("d", "") + "_out")
    assert main([
        "reduce", "cut", cyc, "s", "t", str(out), "--N", "2", "--sufficiency", "s",
    ]) == 3
    assert list(out.glob("*")) == []


STAR = "4 3\ns\nt\na\nb\ns t\ns a\ns b\n"
P4 = "4 3\ns\na\nb\nt\ns a\na b\nb t\n"


def test_reduce_cut_rejects_a_side_that_is_not_a_minimum_cut(files, capsys, tmp_path):
    # lambda = 1 only at X = {s, a, b}; the balanced X = {s, a} cuts s-t and s-b
    out = tmp_path / "out"
    code = main(["reduce", "cut", files("star.txt", STAR), "s", "t", str(out),
                 "--N", "2", "--sufficiency", "s,a"])
    assert code == 3
    assert capsys.readouterr().err == "error: X is not a minimum cut: |cut| = 2 != 1\n"
    assert not out.exists()


def test_reduce_cut_rejects_a_repeated_label_in_x(files, capsys, tmp_path):
    # X = s,a,a would otherwise be read as the balanced minimum cut {s, a}
    out = tmp_path / "out"
    code = main(["reduce", "cut", files("p4.txt", P4), "s", "t", str(out),
                 "--N", "2", "--sufficiency", "s,a,a"])
    assert code == 3
    assert capsys.readouterr().err == "error: duplicate label in X: 'a'\n"
    assert not out.exists()


def test_an_empty_option_value_is_read_not_ignored(files, capsys, tmp_path):
    g, t1, t2 = files("g.txt", P3), files("t1.tree", CHAIN_123), files("t2.tree", CHAIN_321)
    assert main(["dist", g, t1, t2, "--weights", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("parse error: cannot read ")
    out = tmp_path / "out"
    code = main(["reduce", "cut", files("p4.txt", P4), "s", "t", str(out),
                 "--N", "2", "--sufficiency", ""])
    assert code == 3
    assert capsys.readouterr().err == "error: unknown vertex label: ''\n"
    assert not out.exists()


def test_rewritten_bundle_keeps_no_earlier_file(files, capsys, tmp_path):
    p4, out = files("p4.txt", P4), tmp_path / "B"
    cut = ["reduce", "cut", p4, "s", "t", str(out), "--N", "2"]
    assert main([*cut, "--sufficiency", "s,a"]) == 0
    assert (out / "sufficiency.moves").exists()
    assert main(cut) == 0
    assert sorted(f.name for f in out.iterdir()) == [
        "graph.txt", "meta.json", "t_ini.tree", "t_tar.tree", "weights.txt"]
    assert main([*cut, "--sufficiency", "s,a"]) == 0
    w = files("w.txt", "s 1\na 2\nb 1\nt 2\n")
    t1 = files("t1.tree", "s -\na s\nb a\nt b\n")
    t2 = files("t2.tree", "t -\nb t\na b\ns a\n")
    assert main(["reduce", "blowup", p4, w, t1, t2, str(out)]) == 0
    assert sorted(f.name for f in out.iterdir()) == ["graph.txt", "t_ini.tree", "t_tar.tree"]
    bundle = read_bundle(out)
    assert bundle["graph"].n == 6
    assert bundle["weights"] is None and bundle["meta"] is None


def test_exit_code_resource_limit(files, capsys, tmp_path):
    g = files("g.txt", K3)
    assert main(["--node-budget", "2", "enumerate", g]) == 4
    # a negative budget fails even on identical trees, on the BFS and weighted routes
    p3, t = files("p3.txt", P3), files("t.tree", CHAIN_123)
    assert main(["--node-budget", "-1", "dist", p3, t, t]) == 4
    assert main(["--node-budget", "-1", "dist", p3, t, t, "--weights",
                 files("w1.txt", "1 1\n2 1\n3 1\n")]) == 4
    # the P4 instance at N = 2 has 25 vertices and 82 edges
    p4 = files("p4.txt", "4 3\ns\nv1\nv2\nt\ns v1\nv1 v2\nv2 t\n")
    cut = ["reduce", "cut", p4, "s", "t", str(tmp_path / "cut"), "--N", "2"]
    assert main(["--node-budget", "106", *cut]) == 4
    assert main(["--node-budget", "107", *cut]) == 0
    # weights 2, 1, 2 on P3: 5 vertices, 1 + 1 + 2 + 2 edges
    w = files("w.txt", "1 2\n2 1\n3 2\n")
    t = files("t.tree", CHAIN_123)
    blowup = ["reduce", "blowup", files("p3.txt", P3), w, t, t, str(tmp_path / "bp")]
    assert main(["--node-budget", "10", *blowup]) == 4
    assert main(["--node-budget", "11", *blowup]) == 0


def test_node_budget_counts_the_first_tree(files, capsys):
    one = files("k1.txt", "1 0\nx\n")
    for command in ("enumerate", "diameter"):
        for budget in ("0", "-1"):
            assert main(["--node-budget", budget, command, one]) == 4
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"resource limit: enumeration cap {budget} ")
        assert main(["--node-budget", "1", command, one]) == 0
        capsys.readouterr()
    # P3 has 5 trees
    p3 = files("p3.txt", P3)
    assert main(["--node-budget", "4", "diameter", p3]) == 4
    assert main(["--node-budget", "5", "diameter", p3]) == 0
    assert capsys.readouterr().out.startswith("diameter 2\nvertices 5\n")


def test_diameter_command_builds_no_trees(files, capsys, monkeypatch):
    from gassoc.elimtree import ElimTree

    calls = []
    trusted = ElimTree._trusted.__func__

    def counted(cls, *args, **kwargs):
        if "key" in kwargs:  # a tree per flip-graph vertex, not a start tree
            calls.append(1)
        return trusted(cls, *args, **kwargs)

    monkeypatch.setattr(ElimTree, "_trusted", classmethod(counted))
    labels = [str(i) for i in range(1, 9)]
    edges = [f"{a} {b}" for a, b in zip(labels, labels[1:])]
    p8 = files("p8.txt", "\n".join(["8 7", *labels, *edges]) + "\n")
    code, out = run(capsys, "diameter", p8)
    assert code == 0 and out.startswith("diameter 11\nvertices 1430\n")
    assert calls == []
    assert main(["enumerate", "--dot", p8]) == 0
    assert len(calls) == 1430  # the counter sees the trees the DOT export builds


def test_enumerate_command_builds_no_trees(files, capsys, monkeypatch):
    # the count is the number of keys the flip-graph BFS stored
    from gassoc import flipgraph

    def refuse(*args):
        raise AssertionError("a tree was built per flip-graph vertex")

    monkeypatch.setattr(flipgraph, "_trees", refuse)
    p3 = files("p3.txt", P3)
    assert run(capsys, "enumerate", p3) == (0, "count 5\n")
    assert run(capsys, "--node-budget", "5", "enumerate", p3) == (0, "count 5\n")
    assert main(["--node-budget", "4", "enumerate", p3]) == 4


@pytest.mark.parametrize(
    "argv, texts",
    [
        # no --N: N = 30 on P4, two cliques of 27,000 vertices
        (
            ["reduce", "cut", "g", "s", "t", "out"],
            {"g": "4 3\ns\nv1\nv2\nt\ns v1\nv1 v2\nv2 t\n"},
        ),
        (
            ["reduce", "blowup", "g", "w", "a", "b", "out"],
            {"g": P3, "w": "1 100000\n2 1\n3 2\n", "a": CHAIN_123, "b": CHAIN_321},
        ),
    ],
)
def test_oversized_reduction_is_refused_before_building(tmp_path, argv, texts):
    import resource

    def cap_memory():  # a regression must fail here, not exhaust the host
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    cmd = [str(tmp_path / a) if a in texts or a == "out" else a for a in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "gassoc.cli", *cmd],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=cap_memory,
    )
    assert time.monotonic() - start < 1.0
    assert proc.returncode == 4
    assert proc.stderr.startswith("resource limit: ") and "Traceback" not in proc.stderr
    assert proc.stdout == "" and not (tmp_path / "out").exists()


def test_threads_flag_is_accepted(files, capsys):
    g = files("g.txt", P3)
    code, out = run(capsys, "--threads", "4", "enumerate", g)
    assert code == 0 and out.strip() == "count 5"


@pytest.mark.parametrize(
    "argv, texts, code",
    [
        # a spanning tree of P3 that is not an elimination tree (1-3 is no edge)
        (["dist", "g", "a", "b", "--path"], {"g": P3, "a": CHAIN_123, "b": CHAIN_213}, 2),
        # a second line for label 3
        (["dist", "g", "a", "b"], {"g": P3, "a": CHAIN_123 + "3 1\n", "b": CHAIN_123}, 2),
        (["diameter", "g"], {"g": "2 0\n1\n2\n"}, 3),
        # not UTF-8
        (["diameter", "g"], {"g": b"\xff\xfe2 1\n1\n2\n1 2\n"}, 2),
        # a second weight line for label 1
        (["dist", "g", "a", "a", "--weights", "w"],
         {"g": P3, "a": CHAIN_123, "w": "1 1\n2 2\n1 5\n3 1\n"}, 2),
        # negative counts whose line count adds up
        (["diameter", "g"], {"g": "3 -1\na\nb\n"}, 2),
        (["enumerate", "g"], {"g": "1 -1\n"}, 2),
        # weights that int() reads as 10 and 1, but are not ASCII decimal
        (["dist", "g", "a", "a", "--weights", "w"],
         {"g": P3, "a": CHAIN_123, "w": "1 1_0\n2 1\n3 +1\n"}, 2),
    ],
)
def test_rejected_input_exits_without_traceback(tmp_path, argv, texts, code):
    for name, text in texts.items():
        if isinstance(text, bytes):
            (tmp_path / name).write_bytes(text)
        else:
            (tmp_path / name).write_text(text)
    cmd = [str(tmp_path / a) if a in texts else a for a in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "gassoc.cli", *cmd], capture_output=True, text=True, env=env
    )
    assert proc.returncode == code
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("command", ["enumerate", "diameter"])
def test_closed_stdout_exits_141_without_traceback(tmp_path, command, unbuffered):
    # buffered, the short output first reaches the pipe in main's own flush
    (tmp_path / "g.txt").write_text(P3)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gassoc.cli", command, str(tmp_path / "g.txt")],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


def test_dist_names_a_tree_that_is_not_an_elimination_tree(files, capsys):
    # the first case above: the ElimTree constructor rejects the chain
    g, a, b = files("g.txt", P3), files("a.tree", CHAIN_123), files("b.tree", CHAIN_213)
    assert main(["dist", g, a, b, "--path"]) == 2
    assert capsys.readouterr() == ("", "parse error: not an elimination tree of the graph\n")


NO_NUMPY_SCRIPT = """
import contextlib, io, json, sys
from gassoc.cli import main
report = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    report.append([code, "numpy" in sys.modules])
print(json.dumps(report))
"""


def test_numpy_is_imported_only_by_diameter(tmp_path):
    # The peak RSS of the dist, reduce and verify workloads depends on this:
    # only the eccentricity kernel imports numpy, lazily.
    paths = {}
    for name, text in [("g", P3), ("p4", "4 3\ns\nv1\nv2\nt\ns v1\nv1 v2\nv2 t\n"),
                       ("w", "1 2\n2 1\n3 2\n"), ("a", CHAIN_123), ("b", CHAIN_321)]:
        paths[name] = str(tmp_path / name)
        (tmp_path / name).write_text(text)
    g, a, b = paths["g"], paths["a"], paths["b"]
    commands = [
        ["dist", g, a, b],
        ["dist", g, a, b, "--weights", paths["w"], "--path"],
        ["reduce", "cut", paths["p4"], "s", "t", str(tmp_path / "cut"),
         "--N", "2", "--sufficiency", "s,v1"],
        ["reduce", "blowup", g, paths["w"], a, b, str(tmp_path / "bp")],
        ["enumerate", g],
        ["rank", g, "1", "2"],
        *(["verify", suite] for suite in ("axioms", "realization", "projection",
                                          "blowup-equiv")),
        ["diameter", g],  # the control: this one must load numpy
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_SCRIPT, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert [code for code, _ in report] == [0] * len(commands)
    # once imported, numpy stays loaded: the first command listed imported it
    loaded = [argv[:2] for argv, (_, numpy) in zip(commands, report) if numpy]
    assert loaded == [["diameter", g]]
