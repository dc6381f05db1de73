"""Malformed input: the text parsers and read_bundle raise ParseError and
nothing else, whatever text or bytes they are given."""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from gassoc.elimtree import ElimTree, parse_tree
from gassoc.errors import ParseError
from gassoc.graph import Graph, parse_graph, parse_weights
from gassoc.reductions import read_bundle, write_bundle

P3 = Graph(["1", "2", "3"], [("1", "2"), ("2", "3")])
T = ElimTree.from_ordering(P3, ["2", "1", "3"])

# Lines built from the tokens the formats use, so that examples get past the
# first check as often as arbitrary text fails it.
TOKENS = st.sampled_from(["1", "2", "3", "4", "-", "-1", "0", "x", "#", "3 2", "1 2"])
LINES = st.lists(TOKENS, max_size=4).map(" ".join)
TEXT = st.one_of(st.text(max_size=60), st.lists(LINES, max_size=8).map("\n".join))


def _parse_error_or_nothing(parse, *args):
    try:
        parse(*args)
    except ParseError:
        pass


@settings(max_examples=300, deadline=None)
@given(text=TEXT)
def test_text_parsers_raise_only_parse_error(text):
    _parse_error_or_nothing(parse_graph, text)
    _parse_error_or_nothing(parse_tree, P3, text)
    _parse_error_or_nothing(parse_weights, P3, text)


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(["graph.txt", "t_ini.tree", "t_tar.tree", "weights.txt", "meta.json"]),
    data=st.one_of(st.binary(max_size=60), TEXT.map(str.encode)),
)
def test_read_bundle_raises_only_parse_error(name, data):
    with tempfile.TemporaryDirectory() as d:
        write_bundle(d, P3, T, T, weights={"1": 1, "2": 2, "3": 3}, meta={"N": "2"})
        # A new file: truncating one still being written back waits for the disk.
        (Path(d) / name).unlink()
        (Path(d) / name).write_bytes(data)
        _parse_error_or_nothing(read_bundle, d)
