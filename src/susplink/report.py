"""Human-readable and JSON rendering of a pipeline result."""

from __future__ import annotations

from .graphs import (
    MultPlumbing,
    NielsenGraph,
    PlumbingTree,
    WaldhausenGraph,
    symmetric_rep,
)
from .invariants import ObstructionReport
from .pipeline import PipelineResult
from .serialize import dumps, element_dicts, to_dict

REPORT_SCHEMA = "susplink/report:1"
# the stage graphs of a report, in pipeline order; blowdown only when run
_STAGES = ("multiplicity", "nielsen", "nielsen_power", "waldhausen", "plumbing", "blowdown")


def _val(lam: int, sigma: int) -> str:
    sym = symmetric_rep(sigma, lam)
    if sym != sigma:
        return f"({lam},{sigma} = {sym})"
    return f"({lam},{sigma})"


def describe_multiplicity(mp: MultPlumbing) -> list[str]:
    lines = []
    for v in mp.vertices:
        lines.append(f"  vertex {v.id}: weight {v.weight}, m = {v.m}"
                     + (f" (flipped from {-v.m})" if v.flipped else "")
                     + (f", genus {v.genus}" if v.genus else ""))
    negatives = [e for e in mp.edges if e.sign == -1]
    for e in negatives:
        lines.append(f"  edge {e.u} -- {e.v}: sign -1")
    for a in mp.arrows:
        lines.append(f"  arrow at {a.vertex}: mult {a.mult:+d}")
    return lines


def describe_nielsen(n: NielsenGraph) -> list[str]:
    lines = []
    for v in n.vertices:
        lines.append(f"  vertex {v.id}: [{v.order},{v.genus}] q={v.q}")
    for s in n.stalks:
        lines.append(f"  stalk at {s.vertex}: {_val(s.lam, s.sigma)}")
    for b in n.boundary_stalks:
        lines.append(f"  boundary-stalk at {b.vertex}: {_val(b.lam, b.sigma)}"
                     f" twist {b.twist!s}")
    for e in n.edges:
        lines.append(f"  edge {e.u} -- {e.v}: twist {e.twist!s}, "
                     f"{_val(e.lam_u, e.sigma_u)} | {_val(e.lam_v, e.sigma_v)}")
    return lines


def describe_waldhausen(w: WaldhausenGraph) -> list[str]:
    lines = []
    for v in w.vertices:
        lines.append(f"  vertex {v.id}: e={v.e} genus={v.genus} q={v.q}"
                     f" fibre-mult={v.order}")
    for s in w.stalks:
        lines.append(f"  stalk at {s.vertex}: ({s.alpha},{s.beta})")
    for a in w.arrows:
        lines.append(f"  arrow at {a.vertex}: ({a.alpha},{a.beta})"
                     + (" reversed" if a.reversed else ""))
    for e in w.edges:
        lines.append(f"  edge {e.u} -> {e.v}: ({e.eps:+d},{e.alpha},{e.beta_u})"
                     f" [beta' = {e.beta_v}]")
    return lines


def describe_plumbing(tree: PlumbingTree) -> list[str]:
    lines = []
    for vid, weight, genus, mult, _, origin in tree.vertices:
        extra = [f"genus {genus}"] if genus else []
        if mult is not None:
            extra.append(f"m = {mult}")
        if origin:
            extra.append(origin)
        lines.append(f"  vertex {vid}: weight {weight} ({', '.join(extra)})" if extra
                     else f"  vertex {vid}: weight {weight}")
    for u, v, sign in tree.edges:
        lines.append(f"  edge {u} -- {v}" + (" sign -1" if sign == -1 else ""))
    for vertex, mult, label in tree.arrows:
        lines.append(f"  arrow at {vertex}: mult {mult:+d} {label}")
    return lines


def describe_obstructions(o: ObstructionReport) -> list[str]:
    lines = ["  K = (" + ", ".join(map(str, o.K)) + ")"]
    lines.append(f"  K^2 = {o.K_squared!s}")
    lines.append("  numerically Gorenstein: "
                 + ("yes" if o.numerically_gorenstein else "no (K has non-integer entries)"))
    lines.append(f"  determinant = {o.determinant}, negative definite: "
                 + ("yes" if o.negative_definite else "no"))
    lines.append(f"  chi(resolution) = {o.chi_resolution}")
    lines.append(f"  base fibre: chi = {o.chi_fibre_fg}, genus {o.fibre_genus}, "
                 f"{o.fibre_boundary} boundary components")
    if o.product_chi is not None:
        lines.append(f"  product-germ fibre: chi = {o.product_chi}, genus "
                     f"{o.product_genus}, {o.product_boundary} boundary components")
        if o.product_genus != o.fibre_genus:
            lines.append(f"  fibre genus differs from the holomorphic product fibre "
                         f"({o.fibre_genus} vs {o.product_genus}): the open books "
                         "cannot be equivalent even when the links agree")
    lines.append(f"  suspension fibre: chi = {o.chi_fibre_F} "
                 f"(wedge of {o.wedge_spheres} 2-spheres)")
    if not o.ls_applicable:
        lines.append("  mod-12 congruence: not applicable, not numerically Gorenstein")
    else:
        raw_right = o.chi_resolution + o.K_squared
        verdict = "holds" if o.ls_congruent else "FAILS"
        lines.append(
            f"  mod-12 congruence: chi(fibre) = {o.chi_fibre_F} = {o.ls_left} mod 12 vs "
            f"chi + K^2 = {raw_right!s} = {o.ls_right} mod 12 -> {verdict}")
        if not o.ls_congruent:
            lines.append("  -> the open book cannot come from a smoothable "
                         "Gorenstein complex singularity")
    return lines


def render_graph_text(graph) -> str:
    """One-graph text rendering used by the stage subcommands."""
    if isinstance(graph, MultPlumbing):
        lines = ["multiplicity tree"] + describe_multiplicity(graph)
    elif isinstance(graph, NielsenGraph):
        lines = ["Nielsen graph"] + describe_nielsen(graph)
    elif isinstance(graph, WaldhausenGraph):
        lines = ["Waldhausen graph"] + describe_waldhausen(graph)
    elif isinstance(graph, PlumbingTree):
        lines = ["plumbing tree"] + describe_plumbing(graph)
    else:
        raise TypeError(f"cannot describe {type(graph).__name__}")
    return "\n".join(lines) + "\n"


def render_text(result: PipelineResult) -> str:
    parts = [f"pipeline r = {result.r}, side = {result.side}"]
    parts.append("step 1: multiplicity tree")
    parts += describe_multiplicity(result.multiplicity)
    parts.append("step 2: Nielsen graph of the monodromy")
    parts += describe_nielsen(result.nielsen)
    parts.append(f"step 3: Nielsen graph of the power (r = {result.r})")
    parts += describe_nielsen(result.nielsen_power)
    parts.append("step 4: Waldhausen graph of the open book")
    parts += describe_waldhausen(result.waldhausen)
    parts.append("step 5: plumbing tree")
    parts += describe_plumbing(result.plumbing)
    if result.blowdown is not None:
        parts.append("blow-down reduced tree")
        parts += describe_plumbing(result.blowdown)
    parts.append("obstructions")
    parts += describe_obstructions(result.obstructions)
    for note in result.notes:
        parts.append(f"note: {note}")
    return "\n".join(parts) + "\n"


def obstructions_to_dict(o: ObstructionReport) -> dict:
    return element_dicts(ObstructionReport, (o,))[0]


def _report(result: PipelineResult, document) -> dict:
    """The report of ``result`` with each graph as ``document(graph)``."""
    stages = {name: document(getattr(result, name)) for name in _STAGES
              if getattr(result, name) is not None}
    return {
        "schema": REPORT_SCHEMA,
        "r": result.r,
        "side": result.side,
        "input": document(result.resolution),
        "stages": stages,
        "obstructions": obstructions_to_dict(result.obstructions),
        "notes": list(result.notes),
    }


def render_json_dict(result: PipelineResult) -> dict:
    return _report(result, to_dict)


def render_json(result: PipelineResult) -> str:
    """``dumps(render_json_dict(result))``, each graph written by ``to_json``
    without its dict."""
    return dumps(_report(result, lambda graph: graph))
