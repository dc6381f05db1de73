"""CLI behavior: subcommands, exit codes, JSON output."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gassoc.cli import main

K3 = "3 3\n1\n2\n3\n1 2\n2 3\n1 3\n"
P3 = "3 2\n1\n2\n3\n1 2\n2 3\n"
CHAIN_123 = "1 -\n2 1\n3 2\n"
CHAIN_321 = "3 -\n2 3\n1 2\n"


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


def test_json_output_matches_schema(files, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources as res

    schema = json.loads(
        res.files("gassoc").joinpath("schemas/result.schema.json").read_text()
    )
    g = files("g.txt", K3)
    t1 = files("t1.tree", CHAIN_123)
    t2 = files("t2.tree", CHAIN_321)
    for argv in (
        ["dist", g, t1, t2, "--json", "--path"],
        ["diameter", g, "--json"],
        ["enumerate", g, "--json"],
        ["rank", g, "1", "--json"],
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
    # X = {s} is not balanced
    assert main([
        "reduce", "cut", cyc, "s", "t", str(files("d", "")) + "_out",
        "--N", "2", "--sufficiency", "s",
    ]) == 3


def test_exit_code_resource_limit(files, capsys, tmp_path):
    g = files("g.txt", K3)
    assert main(["--node-budget", "2", "enumerate", g]) == 4
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
        (["dist", "g", "a", "b", "--path"], {"g": P3, "a": CHAIN_123, "b": "2 -\n1 2\n3 1\n"}, 2),
        # a second line for label 3
        (["dist", "g", "a", "b"], {"g": P3, "a": CHAIN_123 + "3 1\n", "b": CHAIN_123}, 2),
        (["diameter", "g"], {"g": "2 0\n1\n2\n"}, 3),
    ],
)
def test_rejected_input_exits_without_traceback(tmp_path, argv, texts, code):
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    cmd = [str(tmp_path / a) if a in texts else a for a in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "gassoc.cli", *cmd], capture_output=True, text=True, env=env
    )
    assert proc.returncode == code
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


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
