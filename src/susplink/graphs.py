"""Shared graph data model for every pipeline pass.

Five graph flavours move through the pipeline:

* ``ResolutionGraph``   -- decorated input tree with two-sided multiplicities,
* ``MultPlumbing``      -- orientation-normalized single-multiplicity tree,
* ``NielsenGraph``      -- combinatorial record of a quasi-periodic surface map,
* ``WaldhausenGraph``   -- Seifert pieces with gluing triplets,
* ``PlumbingTree``      -- weighted plumbing graph with intersection matrix.

All types are immutable value objects; passes are pure functions.  Graph
elements are ``NamedTuple`` records; the five graphs are frozen dataclasses
on one base, ``_Graph``, which holds the rules all five share: distinct
vertex ids, genus >= 0, and every edge end, arrow, stalk and boundary stalk
on a known vertex.  Each constructor checks these first, then its own, and
sets what the fields fix as attributes outside the fields, which equality,
hashing and repr do not read: ``ids`` on every graph, and on a
``MultPlumbing`` ``valence`` (edges plus arrows per id) and ``node_ids``
(valence >= 3 or genus >= 1).  Vertex ids are the small integers assigned
at parse time and are preserved through the passes wherever a vertex
survives, so reports can be matched against input figures vertex by vertex.

``unbalanced`` is the one statement of the monodromical balance

    weight_v * m_v + sum(sign_e * m_neighbour) + sum(arrow mults) = 0 ,

which every pass that checks or solves multiplicities reads from.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .errors import BalanceError, InputError, NotATreeError, UnsupportedError, excerpt

__all__ = [
    "Vertex",
    "Edge",
    "Arrow",
    "PlumbingTree",
    "ResVertex",
    "ResArrow",
    "ResolutionGraph",
    "MultVertex",
    "MultPlumbing",
    "NielsenVertex",
    "Stalk",
    "BoundaryStalk",
    "NielsenEdge",
    "NielsenGraph",
    "WaldVertex",
    "WaldStalk",
    "WaldArrow",
    "WaldEdge",
    "WaldhausenGraph",
    "intersection_matrix",
    "unbalanced",
    "adjacency",
    "check_tree",
]


# ---------------------------------------------------------------------------
# Plumbing trees
# ---------------------------------------------------------------------------

class Vertex(NamedTuple):
    id: int
    weight: int
    genus: int = 0
    mult: int | None = None
    flipped: bool = False
    origin: str = ""


class Edge(NamedTuple):
    u: int
    v: int
    sign: int = 1


class Arrow(NamedTuple):
    vertex: int
    mult: int = 1
    label: str = ""


@dataclass(frozen=True)
class _Graph:
    """Base of the five graph containers: the shared checks, which also set
    ``ids``, the vertex ids in vertex order."""

    def _check_shared(self, edges, *hung) -> None:
        """Distinct ids, genus >= 0, and the ends of ``edges`` ((u, v, ...)
        tuples) and the ``vertex`` of every element in ``hung`` known."""
        self.__dict__["ids"] = ids = tuple(v.id for v in self.vertices)  # frozen: no setattr
        known = set(ids)
        if len(known) != len(ids):
            dupes = sorted(i for i, n in Counter(ids).items() if n > 1)
            raise InputError("duplicate vertex ids", elements=tuple(dupes))
        for v in self.vertices:
            if v.genus < 0:
                raise InputError("genus must be >= 0", elements=(v.id,))
        for e in edges:
            if e[0] not in known or e[1] not in known:
                raise InputError("edge end on unknown vertex", elements=(e[0], e[1]))
        for elements in hung:
            for x in elements:
                if x.vertex not in known:
                    raise InputError("arrow or stalk on unknown vertex", elements=(x.vertex,))


@dataclass(frozen=True)
class PlumbingTree(_Graph):
    """Weighted plumbing graph.

    Parsed inputs must be trees; synthesized outputs may carry parallel
    edges (multigraph) when two Seifert pieces are glued along several tori,
    as in links with two parallel connecting chains.
    """

    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...] = ()
    arrows: tuple[Arrow, ...] = ()

    def __post_init__(self):
        self._check_shared(self.edges, self.arrows)
        for e in self.edges:
            if e.u == e.v:
                raise InputError("self-loop edges are not supported", elements=(e.u,))
            if e.sign not in (1, -1):
                raise InputError(f"edge sign must be +-1, got {e.sign}", elements=(e.u, e.v))

    def is_tree(self) -> bool:
        return _is_tree(self.ids, self.edges)


def adjacency(ids, edges) -> dict[int, list[tuple[int, int]]]:
    """id -> list of (neighbor, sign), one entry per parallel edge."""
    adj: dict[int, list[tuple[int, int]]] = {i: [] for i in ids}
    for e in edges:
        adj[e.u].append((e.v, e.sign))
        adj[e.v].append((e.u, e.sign))
    return adj


def _two_colouring(ids, signed_edges) -> tuple[dict[int, int], int]:
    """+-1 per vertex with colour(v) = colour(u) * sign across every
    (u, v, sign) in ``signed_edges``, breadth first from the least id of
    each component, and the component count; an odd -1 cycle has none."""
    adj: dict[int, list[tuple[int, int]]] = {i: [] for i in ids}
    for u, v, sign in signed_edges:
        adj[u].append((v, sign))
        adj[v].append((u, sign))
    colors: dict[int, int] = {}
    roots = 0
    for root in sorted(adj):
        if root in colors:
            continue
        roots += 1
        colors[root], queue = 1, [root]
        for u in queue:  # read while it grows: first in, first out
            for v, sign in adj[u]:
                want = colors[u] * sign
                if v not in colors:
                    colors[v] = want
                    queue.append(v)
                elif colors[v] != want:
                    raise BalanceError(
                        "eps-parity 2-coloring impossible (odd gluing cycle)",
                        elements=(u, v))
    return colors, roots


def _is_tree(ids, edges) -> bool:
    """Nonempty, |V| - 1 edges and one component: one breadth-first walk
    over the (u, v, ...) tuples ``edges`` on the vertex ids ``ids``."""
    if not ids or len(edges) != len(ids) - 1:
        return False
    adj: dict[int, list[int]] = {i: [] for i in ids}
    try:
        for e in edges:
            adj[e[0]].append(e[1])
            adj[e[1]].append(e[0])
    except KeyError:  # an edge ends on an id not in ``ids``
        return False
    root = next(iter(adj))
    seen, queue = {root}, [root]
    for u in queue:  # read while it grows: first in, first out
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == len(adj)


def check_tree(ids, edges, what: str = "graph"):
    if not ids:
        raise InputError(f"empty vertex set in {what}")
    if not _is_tree(ids, edges):
        raise NotATreeError(f"not a tree: {what} must be connected and acyclic")


def intersection_matrix(tree: PlumbingTree) -> list[list[int]]:
    """Symmetric matrix with the weights on the diagonal and the signed
    edge counts off it; rows follow the order of ``tree.vertices``."""
    index = {v.id: i for i, v in enumerate(tree.vertices)}
    n = len(tree.vertices)
    m = [[0] * n for _ in range(n)]
    for i, v in enumerate(tree.vertices):
        m[i][i] = v.weight
    for e in tree.edges:
        i, j = index[e.u], index[e.v]
        m[i][j] += e.sign
        m[j][i] += e.sign
    return m


def unbalanced(graph, mults) -> tuple[int, ...]:
    """Ids, in vertex order, of the vertices of ``graph`` (vertices with
    ``weight``, signed edges, arrows with ``mult``) where the multiplicities
    ``mults`` (id -> m) break the monodromical balance."""
    residual = {v.id: v.weight * mults[v.id] for v in graph.vertices}
    for e in graph.edges:
        residual[e.u] += e.sign * mults[e.v]
        residual[e.v] += e.sign * mults[e.u]
    for a in graph.arrows:
        residual[a.vertex] += a.mult
    return tuple(i for i, r in residual.items() if r)


# ---------------------------------------------------------------------------
# Resolution input
# ---------------------------------------------------------------------------

class ResVertex(NamedTuple):
    id: int
    weight: int
    genus: int = 0
    mf: int | None = None
    mg: int | None = None


class ResArrow(NamedTuple):
    vertex: int
    side: str  # "f" or "g"
    mult: int  # +1 for side f, -1 for side g after ingestion


@dataclass(frozen=True)
class ResolutionGraph(_Graph):
    """Decorated resolution tree of the product germ, with a boundary arrow
    per branch of each side."""

    vertices: tuple[ResVertex, ...]
    edges: tuple[tuple[int, int], ...]
    arrows: tuple[ResArrow, ...] = ()

    def __post_init__(self):
        self._check_shared(self.edges, self.arrows)
        check_tree(self.ids, self.edges, "resolution graph")
        for a in self.arrows:
            if a.side not in ("f", "g"):
                raise InputError(f"arrow side must be f or g, got {excerpt(a.side)}")
            if (a.side == "f" and a.mult != 1) or (a.side == "g" and a.mult != -1):
                raise InputError(
                    "arrow mult must be +1 on side f and -1 on side g",
                    elements=(a.vertex,),
                )
        carries = [v.mf is not None or v.mg is not None for v in self.vertices]
        full = [v.mf is not None and v.mg is not None for v in self.vertices]
        if any(carries) and not all(full):
            raise InputError(
                "either every vertex carries both mf and mg or none does"
            )

    def has_multiplicities(self) -> bool:
        return bool(self.vertices) and self.vertices[0].mf is not None


# ---------------------------------------------------------------------------
# Orientation-normalized multiplicity tree
# ---------------------------------------------------------------------------

class MultVertex(NamedTuple):
    id: int
    weight: int
    genus: int
    m: int        # |m^f - m^g| >= 0
    flipped: bool  # True where m^f - m^g < 0


@dataclass(frozen=True)
class MultPlumbing(_Graph):
    vertices: tuple[MultVertex, ...]
    edges: tuple[Edge, ...]
    arrows: tuple[Arrow, ...] = ()

    def __post_init__(self):
        self._check_shared(self.edges, self.arrows)
        check_tree(self.ids, self.edges, "multiplicity tree")
        for v in self.vertices:
            if v.m < 0:
                raise InputError("multiplicities must be >= 0 after normalization",
                                 elements=(v.id,))
        flipped = {v.id: v.flipped for v in self.vertices}
        valence = dict.fromkeys(self.ids, 0)
        for e in self.edges:
            want = -1 if flipped[e.u] != flipped[e.v] else 1
            if e.sign != want:
                raise InputError(
                    "edge sign must be -1 exactly when one endpoint is flipped",
                    elements=(e.u, e.v),
                )
            valence[e.u] += 1
            valence[e.v] += 1
        for a in self.arrows:
            valence[a.vertex] += 1
        self.__dict__.update(valence=valence, node_ids=tuple(
            v.id for v in self.vertices if valence[v.id] >= 3 or v.genus >= 1))


# ---------------------------------------------------------------------------
# Nielsen graphs
# ---------------------------------------------------------------------------

def _check_pieces(vertices) -> None:
    """Vertices of Nielsen and Waldhausen graphs are pieces with an order
    and a q of at least 1; of these only pieces fixed by the monodromy
    (q = 1) are supported."""
    for v in vertices:
        if v.order < 1 or v.q < 1:
            raise InputError("order and q must be >= 1", elements=(v.id,))
        if v.q != 1:
            raise UnsupportedError(
                "pieces permuted in orbits of size q > 1 are not supported",
                elements=(v.id,))


def symmetric_rep(sigma: int, lam: int) -> int:
    """Representative of sigma mod lam with the smallest absolute value
    (ties resolved to the positive one); used for figure-style display."""
    s = sigma % lam
    return s - lam if s > lam - s else s


class NielsenVertex(NamedTuple):
    id: int
    order: int
    genus: int
    q: int = 1


class Stalk(NamedTuple):
    vertex: int
    lam: int
    sigma: int


class BoundaryStalk(NamedTuple):
    vertex: int
    lam: int
    sigma: int
    twist: Fraction


class NielsenEdge(NamedTuple):
    u: int
    v: int
    twist: Fraction
    lam_u: int
    sigma_u: int
    lam_v: int
    sigma_v: int


@dataclass(frozen=True)
class NielsenGraph(_Graph):
    """Nielsen graph of a quasi-periodic diffeomorphism.

    Valencies are stored with the canonical class representative
    0 <= sigma < lam.  Parallel edges are allowed (they appear when a power
    of the monodromy lifts a reduction curve to several orbits).
    """

    vertices: tuple[NielsenVertex, ...]
    stalks: tuple[Stalk, ...] = ()
    boundary_stalks: tuple[BoundaryStalk, ...] = ()
    edges: tuple[NielsenEdge, ...] = ()

    def __post_init__(self):
        self._check_shared(self.edges, self.stalks, self.boundary_stalks)
        _check_pieces(self.vertices)
        order = {v.id: v.order for v in self.vertices}
        # m * (sum of sigma/lam) per vertex, in ints as lam divides m; its
        # divisibility by m does not depend on the representative choice
        euler = dict.fromkeys(self.ids, 0)
        for vid, lam, sigma in self.incidences():
            if lam < 1:
                raise InputError("valency lam must be >= 1", elements=(vid,))
            if not 0 <= sigma < lam:
                raise InputError(
                    f"sigma must be the canonical representative in [0, lam), "
                    f"got ({lam}, {sigma})", elements=(vid,))
            if order[vid] % lam != 0:
                raise InputError(
                    f"lam = {lam} does not divide the order {order[vid]}",
                    elements=(vid,))
            if gcd(sigma, lam) != 1:
                raise InputError(
                    f"sigma = {sigma} is not invertible mod lam = {lam}",
                    elements=(vid,))
            euler[vid] += sigma * (order[vid] // lam)
        for b in self.boundary_stalks:
            if b.twist == 0:
                raise InputError("boundary-stalk twist must be nonzero",
                                 elements=(b.vertex,))
        for e in self.edges:
            if e.twist == 0:
                raise InputError("edge twist must be nonzero", elements=(e.u, e.v))
            if order[e.u] // e.lam_u != order[e.v] // e.lam_v:
                raise InputError(
                    "edge orbit counts disagree: m_u/lam_u != m_v/lam_v",
                    elements=(e.u, e.v))
        for vid, total in euler.items():
            if total % order[vid]:
                raise InputError(f"sum of sigma/lam at vertex {vid} is "
                                 f"{Fraction(total, order[vid])}, not an integer",
                                 elements=(vid,))

    def incidences(self):
        """Every valency as (vertex, lam, sigma): stalks, boundary stalks,
        then the u ends and the v ends of the edges."""
        for s in self.stalks:
            yield s.vertex, s.lam, s.sigma
        for b in self.boundary_stalks:
            yield b.vertex, b.lam, b.sigma
        for e in self.edges:
            yield e.u, e.lam_u, e.sigma_u
        for e in self.edges:
            yield e.v, e.lam_v, e.sigma_v


# ---------------------------------------------------------------------------
# Waldhausen graphs
# ---------------------------------------------------------------------------

class WaldVertex(NamedTuple):
    id: int
    e: int
    genus: int
    q: int = 1
    order: int = 1  # multiplicity of the open book on this Seifert piece


class WaldStalk(NamedTuple):
    vertex: int
    alpha: int
    beta: int  # 1 <= beta < alpha


class WaldArrow(NamedTuple):
    vertex: int
    alpha: int
    beta: int  # 0 <= beta < alpha
    reversed: bool = False  # binding oriented against the fibres of its piece


class WaldEdge(NamedTuple):
    u: int
    v: int
    eps: int
    alpha: int
    beta_u: int  # triplet read from u is (eps, alpha, beta_u)
    beta_v: int  # triplet read from v is (eps, alpha, beta_v)


@dataclass(frozen=True)
class WaldhausenGraph(_Graph):
    vertices: tuple[WaldVertex, ...]
    stalks: tuple[WaldStalk, ...] = ()
    arrows: tuple[WaldArrow, ...] = ()
    edges: tuple[WaldEdge, ...] = ()

    def __post_init__(self):
        self._check_shared(self.edges, self.stalks, self.arrows)
        _check_pieces(self.vertices)
        for kind, pairs, low in (("stalk", self.stalks, 1), ("arrow", self.arrows, 0)):
            for s in pairs:
                if not low <= s.beta < s.alpha:
                    raise InputError(
                        f"{kind} pair ({s.alpha}, {s.beta}) is not normalized",
                        elements=(s.vertex,))
                if gcd(s.alpha, s.beta) != 1:
                    raise InputError(
                        f"{kind} pair ({s.alpha}, {s.beta}) at vertex {s.vertex} is not "
                        f"reduced: gcd {gcd(s.alpha, s.beta)}", elements=(s.vertex,))
        for e in self.edges:
            if e.eps not in (1, -1):
                raise InputError("edge eps must be +-1", elements=(e.u, e.v))
            if not (0 <= e.beta_u < e.alpha and 0 <= e.beta_v < e.alpha):
                raise InputError("edge pair is not normalized", elements=(e.u, e.v))
            if (e.beta_u * e.beta_v) % e.alpha != 1 % e.alpha:
                raise InputError(
                    f"beta * beta' = {e.beta_u} * {e.beta_v} is not 1 mod {e.alpha}",
                    elements=(e.u, e.v))
