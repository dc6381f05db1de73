import pytest

from gassoc.errors import InvalidArgument, ParseError
from gassoc.graph import (
    Graph,
    balanced_min_cut_exists,
    connected_components,
    cut_edges,
    format_graph,
    induced_subgraph,
    min_st_cut_value,
    nontrivial_components,
    parse_graph,
    parse_weights,
)
from gassoc.smallgraphs import complete_graph, cycle_graph, path_graph


def test_basic_queries():
    g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert g.n == 3 and g.m == 2
    assert g.has_edge("a", "b")
    assert not g.has_edge("a", "c")
    assert g.is_connected()


def test_rejects_bad_labels_and_edges():
    with pytest.raises(InvalidArgument):
        Graph(["a", "a"], [])
    with pytest.raises(InvalidArgument):
        Graph(["a b"], [])
    with pytest.raises(InvalidArgument):
        Graph(["#x"], [])
    # the text formats cannot carry these: '#' starts a comment, '-' marks a root
    for label in ("a#b", "-"):
        with pytest.raises(InvalidArgument):
            Graph([label], [])
    with pytest.raises(InvalidArgument):
        Graph(["a"], [("a", "a")])
    with pytest.raises(InvalidArgument):
        Graph(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(InvalidArgument):
        Graph(["a"], [("a", "z")])


def test_components_after_removal():
    g = path_graph(5)
    comps = connected_components(g, removed=["3"])
    assert sorted(sorted(c) for c in comps) == [["1", "2"], ["4", "5"]]
    assert nontrivial_components(g, removed=["2", "4"]) == []
    # removing nothing keeps one component
    assert len(connected_components(g)) == 1


def test_induced_subgraph_keeps_order():
    g = cycle_graph(5)
    sub = induced_subgraph(g, ["1", "3", "2"])
    assert sub.labels == ("1", "2", "3")
    assert sub.edges == (("1", "2"), ("2", "3"))


def test_cut_edges_and_min_cut():
    g = cycle_graph(4)
    assert len(cut_edges(g, ["1", "2"])) == 2
    assert min_st_cut_value(g, "1", "3") == 2
    assert min_st_cut_value(path_graph(6), "1", "6") == 1
    assert min_st_cut_value(complete_graph(5), "1", "2") == 4


def test_balanced_min_cut_witness():
    # 4-cycle s-v1-t-v2: X = {s, v1} or {s, v2} is a balanced min cut
    g = Graph(["s", "v1", "t", "v2"],
              [("s", "v1"), ("v1", "t"), ("t", "v2"), ("v2", "s")])
    found, x = balanced_min_cut_exists(g, "s", "t")
    assert found
    assert "s" in x and "t" not in x and len(x) == 2


def test_balanced_min_cut_absent():
    # path s-a-b-t with an extra pendant on a: min cut 1 but the only
    # size-3 side containing s that realizes it is {s} side of edge s-a
    g = Graph(["s", "a", "b", "t", "p", "q"],
              [("s", "a"), ("a", "b"), ("b", "t"), ("t", "p"), ("p", "q")])
    found, x = balanced_min_cut_exists(g, "s", "q")
    assert found  # cut after b: {s,a,b} vs {t,p,q}, size 1
    g2 = Graph(["s", "t"], [("s", "t")])
    found2, _ = balanced_min_cut_exists(g2, "s", "t")
    assert found2
    # star s-t, s-a, s-b: lambda = 1 only at X = {s, a, b}; a balanced side cuts 2
    star = Graph(["s", "t", "a", "b"], [("s", "t"), ("s", "a"), ("s", "b")])
    assert balanced_min_cut_exists(star, "s", "t") == (False, None)


def test_parse_format_round_trip():
    text = "4 3\ns\nv1\nv2\nt\ns v1\nv1 v2\nv2 t\n"
    g = parse_graph(text)
    assert format_graph(g) == text
    # comments and blank lines are dropped on parse
    g2 = parse_graph("# hello\n\n" + text)
    assert format_graph(g2) == text


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_graph("")
    with pytest.raises(ParseError):
        parse_graph("2\na\nb")
    with pytest.raises(ParseError):
        parse_graph("2 1\na\nb\na b c")
    with pytest.raises(ParseError):
        parse_graph("2 2\na\nb\na b")
    with pytest.raises(ParseError):
        parse_graph("2 1\na\nb\na z")


@pytest.mark.parametrize("text", ["3 -1\na\nb\n", "1 -1\n"])
def test_parse_rejects_negative_counts(text):
    # The line count adds up, but a count below zero is malformed.
    with pytest.raises(ParseError, match="negative count"):
        parse_graph(text)


@pytest.mark.parametrize("head", ["\u0663 2", "3 +2", "3 0_2", "\uff13 2"])
def test_parse_rejects_a_header_that_is_not_ascii_decimal(head):
    # int() would read each of these as 3 vertices and 2 edges
    with pytest.raises(ParseError, match="bad header"):
        parse_graph(head + "\na\nb\nc\na b\nb c\n")


P3 = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])


def test_parse_weights_skips_comments_blank_lines_and_other_labels():
    w = parse_weights(P3, "# weights\n\na 1  # light\n  b 22\nz 9\nc 3\n")
    assert {lab: w[lab] for lab in P3.labels} == {"a": 1, "b": 22, "c": 3}


@pytest.mark.parametrize(
    "text, message",
    [
        ("a 1\nb 2 7\nc 3\n", "bad weight line 'b 2 7'"),
        ("a 1\nb\nc 3\n", "bad weight line 'b'"),
        ("a 1\nb two\nc 3\n", "bad weight value 'two'"),
        # integer fields are ASCII decimal: no underscores, signs or other digits
        ("a 1_0\nb 2\nc 3\n", "bad weight value '1_0'"),
        ("a +1\nb 2\nc 3\n", "bad weight value '\\+1'"),
        ("a 1\nb \u0663\nc 3\n", "bad weight value '\u0663'"),
        ("a 1\nb 2\nc \uff13\n", "bad weight value '\uff13'"),
        ("a 1\nc 3\n", "missing weight for 'b'"),
        ("a 1\nb 2\na 5\nc 3\n", "duplicate weight line for 'a'"),
    ],
)
def test_parse_weights_rejects(text, message):
    with pytest.raises(ParseError, match=message):
        parse_weights(P3, text)
