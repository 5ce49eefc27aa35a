"""Step 1: ingest the decorated resolution tree and normalize orientations.

The input is the dual tree of a resolution of the product of the two plane
curve germs, with one boundary arrow per branch of each side.  Both
multiplicity systems

    M * (m_1, ..., m_s)^t + b(L)^t = 0

are solved (or verified, when the file already carries the decorations), the
signed sum m = c_f m^f + c_g m^g is formed (m^f - m^g for the mixed germ),
fibredness is tested at the nodes, and negative multiplicities are turned
positive while recording a -1 edge sign wherever a flipped region meets an
unflipped one, all in ``multiplicity_trees``, which on a mixed run also
keeps |m^f + m^g|, the multiplicities of the holomorphic product germ.
"""

from __future__ import annotations

from collections import Counter
from types import SimpleNamespace

from .errors import FibrednessError, InputError, MonodromyError, excerpt
from .exactlinalg import eliminate
from .graphs import (
    Arrow,
    Edge,
    MultPlumbing,
    MultVertex,
    ResArrow,
    ResolutionGraph,
    ResVertex,
    unbalanced,
)

# m = c_f m^f + c_g m^g: the coefficients of each side's link.  A side with
# c = 0 is not solved and its arrows are dropped; the others keep their
# arrows at mult c.
SIDE_COEFFS = {"fg": {"f": 1, "g": -1}, "f": {"f": 1, "g": 0}, "g": {"f": 0, "g": 1}}
# m = m^f + m^g: the holomorphic product germ, the mixed germ's comparison.
PRODUCT_COEFFS = {"f": 1, "g": 1}
# The key=value fields that each directive with an id and fields may carry.
DIRECTIVE_FIELDS = {"vertex": ("weight", "genus", "mf", "mg"), "arrow": ("side", "mult")}


def parse_resolution(text: str) -> ResolutionGraph:
    """Parse the line-oriented input format.

    Directives ('#' starts a comment):

        vertex <id> weight=<int> [genus=<int>] [mf=<int>] [mg=<int>]
        edge <id> <id>
        arrow <id> side=<f|g> [mult=<+-1>]
    """
    vertices: list[ResVertex] = []
    edges: list[tuple[int, int]] = []
    arrows: list[ResArrow] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.partition("#")[0].split()
        if not tokens:
            continue
        kind = tokens[0]
        try:
            if kind == "vertex":
                vid, fields = _read_fields(kind, tokens)
                if "weight" not in fields:
                    raise InputError(f"vertex {vid} is missing weight=")
                vertices.append(ResVertex(vid, **fields))
            elif kind == "arrow":
                vid, fields = _read_fields(kind, tokens)
                side = fields.get("side")
                if side not in ("f", "g"):
                    raise InputError("arrow needs side=f or side=g")
                want = 1 if side == "f" else -1
                if fields.get("mult", want) != want:
                    raise InputError(
                        f"arrow mult on side {side} must be {want:+d} (orientation convention)")
                arrows.append(ResArrow(vid, side, want))
            elif kind == "edge":
                if len(tokens) != 3:
                    raise InputError("edge needs exactly two vertex ids")
                edges.append((_int(tokens[1], "edge end"), _int(tokens[2], "edge end")))
            else:
                raise InputError(f"unknown directive {excerpt(kind)}")
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from exc
    return ResolutionGraph(tuple(vertices), tuple(edges), tuple(arrows))


def _int(token: str, name: str) -> int:
    """``int(token)``, or an InputError naming ``name`` if it is not an integer."""
    try:
        return int(token)
    except ValueError:  # not an integer, or more digits than int() converts
        raise InputError(f"{name} must be an integer, got {excerpt(token)}") from None


def _read_fields(kind: str, tokens) -> tuple[int, dict]:
    """The id and the key=value fields of a vertex or arrow directive, given
    as its whole line of tokens: every key one of ``DIRECTIVE_FIELDS[kind]``
    and given at most once, every value but side's an int."""
    if len(tokens) < 2:
        raise InputError("vertex needs an id" if kind == "vertex" else "arrow needs a vertex id")
    vid = _int(tokens[1], f"{kind} id")
    names = DIRECTIVE_FIELDS[kind]
    fields: dict = {}
    for item in tokens[2:]:
        key, eq, value = item.partition("=")
        if not eq:
            raise InputError(f"expected key=value, got {excerpt(item)}")
        if key not in names:
            raise InputError(f"unknown {kind} field {excerpt(key)}")
        if key in fields:
            raise InputError(f"duplicate field {key!r}")
        fields[key] = value if key == "side" else _int(value, f"field {key!r}")
    return vid, fields


def solve_monodromical(graph: ResolutionGraph, side: str) -> list[int]:
    """Unique integer solution of M * m + b(L_side) = 0, in vertex order.

    When the input already carries multiplicities for that side they are
    verified by exact substitution and returned unchanged.
    """
    if side not in ("f", "g"):
        raise InputError(f"side must be f or g, got {side!r}")
    system = SimpleNamespace(vertices=graph.vertices,
                             edges=[Edge(u, v) for u, v in graph.edges],
                             arrows=[Arrow(a.vertex) for a in graph.arrows if a.side == side])
    if graph.has_multiplicities():
        given = [v.mf if side == "f" else v.mg for v in graph.vertices]
        bad = unbalanced(system, dict(zip(graph.ids, given)))
        if bad:
            raise MonodromyError(
                f"inconsistent arrow data: supplied side-{side} multiplicities "
                f"do not solve the monodromical system", elements=bad)
        return given
    b = Counter(a.vertex for a in system.arrows)
    solution = eliminate(system, [-b[i] for i in graph.ids]).solution
    if any(x.denominator != 1 for x in solution):
        raise MonodromyError(
            f"inconsistent arrow data: side-{side} system has a non-integer solution")
    return [int(x) for x in solution]


def multiplicity_trees(graph: ResolutionGraph, side: str
                       ) -> tuple[MultPlumbing, list[int] | None]:
    """The tree of |m| for m = sum of c_s m^s over the sides
    (``SIDE_COEFFS``), with flip flags and -1 boundary edge signs, and, for
    a mixed run on a graph with arrows, the multiplicities |m^f + m^g| of
    the holomorphic product germ in vertex order (else None), from one
    solve of each side with c_s != 0.

    Vertices with m = 0 are assigned to the unflipped side, so the -1 signs
    land on the edges where a zero chain meets the flipped region; any single
    placement along such a chain gives a homeomorphic result, this one is the
    deterministic choice.

    A single side ("f" or "g") keeps only that side's branches, positively
    oriented: the classical holomorphic suspension used as an oracle.

    The product germ needs no tree of its own: its tree is the graph's with
    the same arrows, each at |mult| = 1, so ``invariants.fibre_euler(mp, m)``
    reads its fibre off ``mp`` (``product_multiplicity_tree`` builds it).
    """
    if side not in SIDE_COEFFS:
        raise InputError(f"side must be one of {tuple(SIDE_COEFFS)}, got {side!r}")
    coeffs = SIDE_COEFFS[side]
    solutions = {s: solve_monodromical(graph, s) for s, c in coeffs.items() if c}
    mp = _combined_tree(graph, coeffs, solutions)
    nodes = set(mp.node_ids)
    violators = tuple(v.id for v in mp.vertices if v.id in nodes and v.m == 0)
    if violators:
        vanishing = "m^f = m^g" if side == "fg" else f"m^{side} = 0"
        raise FibrednessError(
            f"link is not fibred: node multiplicities {vanishing}",
            elements=violators)
    if side != "fg" or not graph.arrows:
        return mp, None
    return mp, [abs(f + g) for f, g in zip(solutions["f"], solutions["g"])]


def subtract_and_normalize(graph: ResolutionGraph, side: str = "fg") -> MultPlumbing:
    """The tree of ``multiplicity_trees(graph, side)``."""
    return multiplicity_trees(graph, side)[0]


def product_multiplicity_tree(graph: ResolutionGraph) -> MultPlumbing:
    """Multiplicity tree of the holomorphic product germ (m = m^f + m^g).

    Its fibre is compared with the fibre of the mixed germ, as in the
    genus-1 versus genus-5 contrast; a run reads that fibre from
    ``multiplicity_trees``'s multiplicities without building this tree.
    """
    solutions = {s: solve_monodromical(graph, s) for s in PRODUCT_COEFFS}
    return _combined_tree(graph, PRODUCT_COEFFS, solutions)


def _combined_tree(graph: ResolutionGraph, coeffs: dict[str, int],
                   solutions: dict[str, list[int]]) -> MultPlumbing:
    """Normalize the sum of c_s m^s over the sides solved in ``solutions``."""
    signed = dict.fromkeys(graph.ids, 0)
    for side, solution in solutions.items():
        for i, m in zip(graph.ids, solution):
            signed[i] += coeffs[side] * m
    return normalize_signed(graph, signed, coeffs)


def normalize_signed(graph: ResolutionGraph, signed: dict[int, int],
                     coeffs: dict[str, int]) -> MultPlumbing:
    """Orientation normalization of a signed multiplicity assignment.

    An arrow of a side with coefficient c != 0 keeps mult c, negated on a
    flipped vertex.  Idempotent: feeding the signed multiplicities read off
    the result (negated on flipped vertices) reproduces the same tree.
    """
    flipped = {i: signed[i] < 0 for i in graph.ids}
    vertices = tuple(
        MultVertex(v.id, v.weight, v.genus, abs(signed[v.id]), flipped[v.id])
        for v in graph.vertices
    )
    edges = tuple(
        Edge(u, v, -1 if flipped[u] != flipped[v] else 1) for u, v in graph.edges
    )
    arrows = tuple(
        Arrow(a.vertex, coeffs[a.side] * (-1 if flipped[a.vertex] else 1))
        for a in graph.arrows if coeffs[a.side]
    )
    return MultPlumbing(vertices, edges, arrows)
