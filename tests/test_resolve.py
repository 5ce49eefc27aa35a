import pytest
from hypothesis import given, strategies as st

from susplink.cli import main
from susplink.errors import (FibrednessError, InputError, MonodromyError, NotATreeError,
                             PlumbingError)
from susplink.graphs import ResolutionGraph, ResVertex
from susplink.resolve import (
    SIDE_COEFFS,
    multiplicity_trees,
    normalize_signed,
    parse_resolution,
    product_multiplicity_tree,
    solve_monodromical,
    subtract_and_normalize,
)
from conftest import read_input
from graph_helpers import signed_mults, verify_multiplicity_system
import parser_reference


def test_parse_ex1_weights(ex1_graph):
    assert [v.weight for v in ex1_graph.vertices] == [-2, -1, -3, -2, -3, -3, -1, -2]
    assert [a.side for a in ex1_graph.arrows] == ["f", "g"]
    assert [a.mult for a in ex1_graph.arrows] == [1, -1]


def test_parse_errors():
    with pytest.raises(InputError):
        parse_resolution("")  # empty vertex set
    with pytest.raises(NotATreeError):
        parse_resolution(
            "vertex 1 weight=-2\nvertex 2 weight=-2\nvertex 3 weight=-2\n"
            "edge 1 2\nedge 2 3\nedge 3 1\n")
    with pytest.raises(InputError, match="line 2"):
        parse_resolution("vertex 1 weight=-2\nvortex 2 weight=-2\n")
    with pytest.raises(InputError):
        parse_resolution("vertex 1 weight=-2\narrow 5 side=f\n")
    with pytest.raises(InputError, match="unknown vertex"):
        parse_resolution("vertex 1 weight=-2\nvertex 2 weight=-2\nedge 1 9\n")
    with pytest.raises(InputError):
        parse_resolution("vertex 1 weight=-2\nvertex 1 weight=-3\n")
    with pytest.raises(InputError, match="mult"):
        parse_resolution("vertex 1 weight=-1\narrow 1 side=f mult=-1\n")


@pytest.mark.parametrize("text,start", [
    ("vertex 1 weight=-2\n" + "d" * 10**6, "line 2: unknown directive 'ddd"),
    ("vertex 1 weight=-2 " + "k" * 10**6, "line 1: expected key=value, got 'kkk"),
    ("vertex 1 weight=-2 " + "k" * 10**6 + "=1", "line 1: unknown vertex field 'kkk"),
    ("vertex 1 weight=-2\narrow 1 " + "k" * 10**6 + "=f", "line 2: unknown arrow field 'kkk"),
    ("vertex 1 weight=" + "x" * 10**6, "line 1: field 'weight' must be an integer, got 'xxx"),
    ("vertex 1 weight=-2\narrow 1 side=f mult=" + "x" * 10**6,
     "line 2: field 'mult' must be an integer, got 'xxx"),
    ("vertex " + "x" * 10**6 + " weight=-2", "line 1: vertex id must be an integer, got 'xxx"),
    ("vertex 1 weight=-2\nedge 1 " + "x" * 10**6, "line 2: edge end must be an integer, got 'xxx"),
], ids=["directive", "item", "vertex_field", "arrow_field", "vertex_value", "arrow_value",
        "vertex_id", "edge_end"])
def test_parse_errors_quote_a_short_prefix(text, start):
    """An error names the line and quotes only the start of a long token."""
    with pytest.raises(InputError) as info:
        parse_resolution(text)
    message = str(info.value)
    assert message.startswith(start) and len(message) < 200


def test_parse_rejects_a_negative_genus():
    """A negative genus fails while the text is read, not in a later stage."""
    with pytest.raises(InputError) as info:
        parse_resolution("vertex 1 weight=-1 genus=-1\n")
    assert str(info.value) == "genus must be >= 0 (elements: 1)"


@pytest.mark.parametrize("text,message", [
    ("vertex\n", "line 1: vertex needs an id"),
    ("vertex 1 weight=-1\n\narrow  # no id\n", "line 3: arrow needs a vertex id"),
    ("vertex 1 weight=-1\narrow x side=f\n", "line 2: arrow id must be an integer, got 'x'"),
    ("vertex 1 weight=-1\nvertex 2 weight=-2\nedge 1 2 1\n",
     "line 3: edge needs exactly two vertex ids"),
    ("vertex 1 weight=-1\nvertex 3 genus=0 mf=1\n", "line 2: vertex 3 is missing weight="),
    ("vertex 1 weight=-1\narrow 1 mult=1\n", "line 2: arrow needs side=f or side=g"),
    ("vertex 1 weight=-1\narrow 1 side=g mult=1\n",
     "line 2: arrow mult on side g must be -1 (orientation convention)"),
], ids=["vertex_id", "arrow_id", "arrow_id_int", "edge_ends", "weight", "side", "orientation"])
def test_parse_directive_errors(text, message):
    """Each directive error names its line and reads in full."""
    with pytest.raises(InputError) as info:
        parse_resolution(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text,message", [
    ("vertex 1 weight=-2 weight=-1\n", "line 1: duplicate field 'weight'"),
    ("vertex 1 weight=-2 genus=0 mf=1 genus=1\n", "line 1: duplicate field 'genus'"),
    ("vertex 1 weight=-1\narrow 1 side=g side=f\n", "line 2: duplicate field 'side'"),
    ("vertex 1 weight=-1\narrow 1 side=f mult=1 mult=1\n", "line 2: duplicate field 'mult'"),
], ids=["weight", "genus", "side", "mult"])
def test_parse_rejects_a_repeated_field(text, message):
    """A key given twice on one line is an error, not overwritten by the last
    value, even when both values agree."""
    with pytest.raises(InputError) as info:
        parse_resolution(text)
    assert str(info.value) == message


@pytest.mark.parametrize("name", ["ex1.txt", "ex2.txt", "ex3.txt", "cusp.txt"])
def test_parse_any_whitespace_and_trailing_comments(name):
    """Tabs, runs of spaces and trailing comments give the same graph."""
    text = read_input(name)
    spaced = "\n".join("\t " + line.replace(" ", " \t  ") + "\t# trailing note 'x\\"
                       for line in text.splitlines())
    assert (parse_resolution(spaced) == parse_resolution(text)
            == parser_reference.parse_resolution(spaced))


@pytest.mark.parametrize("line", [
    'vertex 1 weight="-2"',
    "edge 1 '2",
    "vertex 1 weight=\\-2",
    'arrow 1 side="f"',
    "vertex 1 weight=-2 genus='0'",
])
def test_parse_quotes_and_backslashes_are_not_syntax(line):
    """The grammar has no quoting: a quote or a backslash is part of its
    token, which then fails to parse on the line it is on."""
    with pytest.raises(InputError, match="^line 2: "):
        parse_resolution("vertex 9 weight=-1\n" + line + "\n")


_TOKENS = st.sampled_from([
    "vertex", "edge", "arrow", "vortex", "1", "2", "3", "-1", "0", "x", "=",
    "weight=-2", "weight=-1", "weight=", "genus=0", "genus=1", "mf=1", "mg=0",
    "side=f", "side=g", "side=h", "mult=1", "mult=-1", "mult=+1", "color=2",
    '"', "'", "\\", '"-2"', "'1'", "weight=\"-2\"", "#", "==", ";", ",",
    "(", ")", "1.5", "1_0", "--", "\u00a0", "\x0c",
])


@given(st.lists(st.lists(_TOKENS, max_size=6), max_size=8),
       st.sampled_from([" ", "\t", "  ", " \t "]))
def test_parse_fuzz_ends_in_graph_or_plumbing_error(lines, sep):
    """Every text built of directive tokens, key=value items, quotes and
    stray punctuation parses to a graph or raises a PlumbingError, the same
    graph or the same error type, text and elements as the reader that the
    table-driven one replaced (``parser_reference.py``)."""
    text = "\n".join(sep.join(tokens) for tokens in lines)
    assert _outcome(parse_resolution, text) == _outcome(parser_reference.parse_resolution, text)


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type, text and elements of the
    PlumbingError it raises."""
    try:
        return fn(*args)
    except PlumbingError as exc:
        return type(exc), str(exc), exc.elements


def test_all_or_none_multiplicities():
    with pytest.raises(InputError, match="every vertex"):
        parse_resolution(
            "vertex 1 weight=-2 mf=1 mg=0\nvertex 2 weight=-2\nedge 1 2\n")


def test_solve_single_vertex():
    graph = parse_resolution("vertex 1 weight=-1\narrow 1 side=f\n")
    assert solve_monodromical(graph, "f") == [1]
    assert solve_monodromical(graph, "g") == [0]


def test_solve_ex1_both_sides(ex1_graph):
    assert solve_monodromical(ex1_graph, "f") == [7, 14, 6, 4, 2, 2, 4, 2]
    assert solve_monodromical(ex1_graph, "g") == [2, 4, 2, 2, 2, 4, 10, 5]


def test_solve_ex2_derives_decorations(ex2_graph):
    # ex2.txt carries no decorations; the solver must reproduce the
    # differences (1, 2, 0, -2, -1)
    assert solve_monodromical(ex2_graph, "f") == [3, 6, 2, 4, 2]
    assert solve_monodromical(ex2_graph, "g") == [2, 4, 2, 6, 3]
    signed = signed_mults(subtract_and_normalize(ex2_graph))
    assert [signed[i] for i in ex2_graph.ids] == [1, 2, 0, -2, -1]


# Step 1's two MonodromyErrors: supplied multiplicities that break the
# balance (ex1 with vertex 2's mf = 14 changed to 13 unbalances vertices 1-3),
# and a side whose solution is not integral (-2 * m + 1 = 0).
STEP1_ERRORS = [
    (read_input("ex1.txt").replace("mf=14", "mf=13"),
     "inconsistent arrow data: supplied side-f multiplicities do not solve the "
     "monodromical system", (1, 2, 3)),
    ("vertex 1 weight=-2\narrow 1 side=f\n",
     "inconsistent arrow data: side-f system has a non-integer solution", ()),
]


def _step1_error(text):
    with pytest.raises(MonodromyError) as info:
        solve_monodromical(parse_resolution(text), "f")
    return info.value.args[0], info.value.elements


def test_supplied_multiplicities_are_verified():
    text, message, elements = STEP1_ERRORS[0]
    assert _step1_error(text) == (message, elements)


def test_non_integer_side_solution_is_an_error():
    text, message, elements = STEP1_ERRORS[1]
    assert _step1_error(text) == (message, elements)


@pytest.mark.parametrize("text, message, elements", STEP1_ERRORS,
                         ids=["supplied", "non_integer"])
def test_step1_monodromy_errors_through_the_cli(tmp_path, capsys, text, message, elements):
    path = tmp_path / "graph.txt"
    path.write_text(text, encoding="utf-8")
    code = main(["step1", str(path)])
    captured = capsys.readouterr()
    named = f" (elements: {', '.join(map(str, elements))})" if elements else ""
    assert (code, captured.out, captured.err) == (1, "", f"error [step1] {message}{named}\n")


def test_degenerate_system():
    graph = parse_resolution("vertex 1 weight=0\narrow 1 side=f\n")
    with pytest.raises(MonodromyError, match="singular"):
        solve_monodromical(graph, "f")


# Same branch on both sides: the node difference m^f - m^g vanishes.
SQUARE = "vertex 1 weight=-1\nvertex 2 weight=-2\nedge 1 2\narrow 1 side=f\narrow 1 side=g\n"
# The (2, 3, 7) star with one f arrow at the node: m^g vanishes everywhere.
STAR = ("vertex 1 weight=-1\nvertex 2 weight=-2\nvertex 3 weight=-3\nvertex 4 weight=-7\n"
        "edge 1 2\nedge 1 3\nedge 1 4\narrow 1 side=f\n")


def test_check_fibred(ex1_graph, ex2_graph):
    subtract_and_normalize(ex1_graph)
    subtract_and_normalize(ex2_graph)
    square = parse_resolution(SQUARE)
    with pytest.raises(FibrednessError) as info:
        subtract_and_normalize(square)
    assert str(info.value) == "link is not fibred: node multiplicities m^f = m^g (elements: 1)"
    assert info.value.elements == (1,)
    # one side alone is fibred: m^f = (2, 1)
    assert [v.m for v in subtract_and_normalize(square, "f").vertices] == [2, 1]


def test_one_sided_fibredness_names_the_side():
    """On the (2, 3, 7) star with one f arrow at the node, m^g vanishes
    everywhere: the g side is not fibred, and its message names m^g alone."""
    star = parse_resolution(STAR)
    with pytest.raises(FibrednessError) as info:
        subtract_and_normalize(star, "g")
    assert str(info.value) == "link is not fibred: node multiplicities m^g = 0 (elements: 1)"
    assert info.value.elements == (1,)
    for side in ("fg", "f"):
        assert [v.m for v in subtract_and_normalize(star, side).vertices] == [42, 21, 14, 6]


def test_unknown_side_names_the_sides(ex1_graph):
    with pytest.raises(InputError, match=r"side must be one of \('fg', 'f', 'g'\), got 'x'"):
        subtract_and_normalize(ex1_graph, "x")


@pytest.mark.parametrize("text, side", [
    *[pytest.param(read_input(f"{name}.txt"), side, id=f"{name}-{side}")
      for name in ("ex1", "ex2", "ex3", "cusp") for side in ("fg", "f", "g")
      if (name, side) != ("cusp", "g")],
    pytest.param(read_input("ex1.txt"), "x", id="unknown_side"),
    pytest.param(SQUARE, "fg", id="square_not_fibred"),
    pytest.param(STAR, "g", id="star_not_fibred"),
    *[pytest.param(text, "fg", id=f"inconsistent_{i}") for i, (text, _, _) in
      enumerate(STEP1_ERRORS)],
])
def test_step1_entry_points_agree(text, side):
    """``subtract_and_normalize`` is the tree of ``multiplicity_trees``, or
    the same error; the product multiplicities of a mixed run are those of
    ``product_multiplicity_tree``."""
    graph = parse_resolution(text)
    trees = _outcome(multiplicity_trees, graph, side)
    failed = isinstance(trees[0], type)
    assert _outcome(subtract_and_normalize, graph, side) == (trees if failed else trees[0])
    if not failed and trees[1] is not None:
        assert trees[1] == [v.m for v in product_multiplicity_tree(graph).vertices]


def test_subtract_and_normalize_ex1(ex1_graph):
    mp = subtract_and_normalize(ex1_graph)
    assert [v.m for v in mp.vertices] == [5, 10, 4, 2, 0, 2, 6, 3]
    assert [v.flipped for v in mp.vertices] == [False] * 5 + [True] * 3
    negative = [(e.u, e.v) for e in mp.edges if e.sign == -1]
    assert negative == [(5, 6)]
    assert all(a.mult == 1 for a in mp.arrows)
    verify_multiplicity_system(mp)


def test_subtract_and_normalize_ex3(ex3_graph):
    mp = subtract_and_normalize(ex3_graph)
    assert [v.m for v in mp.vertices] == [3, 9, 5, 1, 1, 3, 8, 4]
    negative = [(e.u, e.v) for e in mp.edges if e.sign == -1]
    assert negative == [(4, 5)]


def test_holomorphic_case_no_flips(cusp_graph):
    mp = subtract_and_normalize(cusp_graph)
    assert [v.m for v in mp.vertices] == [3, 6, 2]
    assert not any(v.flipped for v in mp.vertices)
    assert all(e.sign == 1 for e in mp.edges)


def test_side_selection(ex1_graph):
    mp_f = subtract_and_normalize(ex1_graph, side="f")
    assert [v.m for v in mp_f.vertices] == [7, 14, 6, 4, 2, 2, 4, 2]
    assert not any(v.flipped for v in mp_f.vertices)
    mp_g = subtract_and_normalize(ex1_graph, side="g")
    assert [v.m for v in mp_g.vertices] == [2, 4, 2, 2, 2, 4, 10, 5]


def test_normalize_idempotent(ex1_graph, ex3_graph):
    for graph in (ex1_graph, ex3_graph):
        mp = subtract_and_normalize(graph)
        again = normalize_signed(graph, signed_mults(mp), SIDE_COEFFS["fg"])
        assert again == mp


def test_flip_parity_property(ex1_graph, ex3_graph, ex2_graph):
    for graph in (ex1_graph, ex2_graph, ex3_graph):
        mp = subtract_and_normalize(graph)
        flipped = {v.id: v.flipped for v in mp.vertices}
        for e in mp.edges:
            assert (e.sign == -1) == (flipped[e.u] != flipped[e.v])


@given(st.lists(st.integers(-9, -1), min_size=2, max_size=7),
       st.integers(0, 6))
def test_flip_parity_on_random_paths(weights, flip_start):
    # normalize_signed on a path with an arbitrary sign pattern: the -1
    # edges are exactly the flip boundaries
    n = len(weights)
    vertices = tuple(ResVertex(i + 1, w) for i, w in enumerate(weights))
    edges = tuple((i + 1, i + 2) for i in range(n - 1))
    graph = ResolutionGraph(vertices, edges, ())
    signed = {i + 1: (i + 1) * (-1 if i >= flip_start % n else 1)
              for i in range(n)}
    mp = normalize_signed(graph, signed, SIDE_COEFFS["fg"])
    flipped = {v.id: v.flipped for v in mp.vertices}
    crossings = sum(1 for e in mp.edges if flipped[e.u] != flipped[e.v])
    assert sum(1 for e in mp.edges if e.sign == -1) == crossings


def test_product_multiplicity_tree(ex2_graph):
    mp = product_multiplicity_tree(ex2_graph)
    assert [v.m for v in mp.vertices] == [5, 10, 4, 10, 5]
    assert not any(v.flipped for v in mp.vertices)
    assert [a.mult for a in mp.arrows] == [1, 1]
