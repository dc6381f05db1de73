"""Random command lines: every subcommand that reads input files ends with
exit code 0, 2, 3 or 4 and lets no other exception out, whatever files,
labels, budgets and output directories it is given.

``verify`` is left out: it reads no input and runs for seconds.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gassoc.cli import main

# Inputs, by name; an argument "@name" stands for the path of that file.
FILES = {
    "p3": "3 2\n1\n2\n3\n1 2\n2 3\n",
    "p4": "4 3\n1\n2\n3\n4\n1 2\n2 3\n3 4\n",
    "p3.a": "1 -\n2 1\n3 2\n",
    "p3.b": "3 -\n2 3\n1 2\n",
    "p4.a": "1 -\n2 1\n3 2\n4 3\n",
    "p4.b": "2 -\n1 2\n3 2\n4 3\n",
    # K4 is one twin class of four, so unweighted `dist` takes the A* route
    "k4": "4 6\n1\n2\n3\n4\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n",
    "k4.a": "1 -\n2 1\n3 2\n4 3\n",
    "k4.b": "4 -\n3 4\n2 3\n1 2\n",
    "k4.w": "1 2\n2 1\n3 1\n4 3\n",
    "p3.w": "1 2\n2 1\n3 3\n",
    "p4.w": "1 1\n2 2\n3 1\n4 2\n",
    "zero.w": "1 0\n2 1\n3 1\n4 1\n",
    "negative": "3 -1\na\nb\n",
    "latin1": b"\xff\xfe3 2\n1\n2\n3\n1 2\n2 3\n",
    "blocker": "a file\n",
}

ANY_FILE = [f"@{name}" for name in [*FILES, "dir", "missing"]]
LABELS = ["1", "2", "3", "4", "zz", ""]
# A writable directory, an existing file, a path below a file, and a
# directory whose graph.txt is a directory.
OUTDIR = st.sampled_from(["@out", "@blocker", "@blocker/out", "@clash"])
FLAG = st.booleans()


def _mostly(draw, usual, *others):
    """``usual`` three times in four, else one of ``others``: most runs get
    past the first check and reach the later ones."""
    return usual if draw(st.integers(0, 3)) else draw(st.sampled_from(others))


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(
        ["dist", "diameter", "enumerate", "rank", "project", "cut", "blowup"]))
    size = "p4" if command == "cut" else draw(st.sampled_from(["p3", "p4", "k4"]))
    graph = _mostly(draw, f"@{size}", *ANY_FILE)

    def tree():
        return _mostly(draw, draw(st.sampled_from([f"@{size}.a", f"@{size}.b"])), *ANY_FILE)

    def weights():
        return _mostly(draw, f"@{size}.w", "@zero.w", *ANY_FILE)

    argv = ["--node-budget", _mostly(draw, "2000", "-3", "0", "1", "50")]
    if command == "dist":
        argv += ["dist", graph, tree(), tree()]
        if draw(FLAG):
            argv += ["--weights", weights()]
        if draw(FLAG):
            argv.append("--path")
    elif command in ("diameter", "enumerate"):
        argv += [command, graph]
        if command == "enumerate" and draw(FLAG):
            argv.append("--dot")
    elif command in ("rank", "project"):
        argv += [command, graph]
        if command == "project":
            argv.append(tree())
        argv += draw(st.lists(st.sampled_from(LABELS), max_size=4))
    elif command == "cut":
        s, t = _mostly(draw, "1", *LABELS), _mostly(draw, "4", *LABELS)
        argv += ["reduce", "cut", graph, s, t, draw(OUTDIR)]
        n = _mostly(draw, "2", None, "-1", "0", "1", "3")
        if n is not None:
            argv += ["--N", n]
        if draw(FLAG):
            x = draw(st.lists(st.sampled_from(LABELS), max_size=3))
            argv += ["--sufficiency", _mostly(draw, "1,2", ",".join(x))]
    else:
        argv += ["reduce", "blowup", graph, weights(), tree(), tree(), draw(OUTDIR)]
    if command != "project" and draw(FLAG):
        argv.append("--json")
    return argv


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """The input files and output directories of every draw (Hypothesis
    refuses function-scoped fixtures such as ``tmp_path``)."""
    work = tmp_path_factory.mktemp("cli-fuzz")
    for name, data in FILES.items():
        if isinstance(data, bytes):
            (work / name).write_bytes(data)
        else:
            (work / name).write_text(data)
    (work / "dir").mkdir()
    (work / "clash" / "graph.txt").mkdir(parents=True)
    return work


def _run(work, argv):
    """The exit code and stderr of ``main`` on argv, "@name" read as a path."""
    argv = [str(work / a[1:]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(argv=argvs())
def test_cli_exits_with_a_documented_code(work, argv):
    code, err = _run(work, argv)
    assert code in (0, 2, 3, 4), (argv, err)


@pytest.mark.parametrize("budget", ["-3", "0", "1", "50", "2000"])
def test_dist_on_the_astar_route_at_every_budget(work, budget):
    # The draws above reach K4's `dist` almost only at budget 2000. A
    # negative budget fails every query; identical trees need no search;
    # the two chains need the bound's one table and then the search.
    for tree in ("@k4.a", "@k4.b"):
        for flags in ([], ["--path"]):
            code, err = _run(work, ["--node-budget", budget, "dist", "@k4", "@k4.a", tree, *flags])
            fails = budget == "-3" or (tree == "@k4.b" and budget in ("0", "1"))
            assert code == (4 if fails else 0), (budget, tree, flags, err)
