"""Orchestration of the five graph passes plus the obstruction arithmetic.

``run_pipeline`` takes the decorated resolution tree and the suspension
exponent r and produces every intermediate graph together with the
obstruction report.  Each stage is the same pure function the CLI
subcommands expose, so piping stage outputs through files reproduces the
pipeline result exactly.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import PlumbingError
from .graphs import (
    MultPlumbing,
    NielsenGraph,
    PlumbingTree,
    ResolutionGraph,
    WaldhausenGraph,
)
from .invariants import ObstructionReport, obstruction_report
from .nielsen import build_nielsen
from .power import power_nielsen, valency_formula_notes
from .resolve import multiplicity_trees, parse_resolution
from .synthesis import reduce_tree, strip_decorations, synth_plumbing
from .waldhausen import nielsen_to_waldhausen

__all__ = ["PipelineResult", "run_pipeline", "StageError"]


class StageError(PlumbingError):
    """Wraps a stage failure with the stage name for reporting."""

    def __init__(self, stage: str, cause: PlumbingError):
        # the cause's bare message: its elements are appended once, here
        super().__init__(f"[{stage}] {cause.args[0]}", elements=cause.elements)
        self.stage = stage
        self.cause = cause


class PipelineResult(NamedTuple):
    resolution: ResolutionGraph
    r: int
    side: str
    multiplicity: MultPlumbing
    nielsen: NielsenGraph
    nielsen_power: NielsenGraph
    waldhausen: WaldhausenGraph
    plumbing_full: PlumbingTree       # with binding arrows and multiplicities
    plumbing: PlumbingTree            # arrows kept only when requested
    blowdown: PlumbingTree | None
    obstructions: ObstructionReport
    notes: tuple[str, ...]


def _stage(name: str):
    def wrap(fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except PlumbingError as exc:
            raise StageError(name, exc) from exc
    return wrap


def run_pipeline(source: str | ResolutionGraph, r: int, side: str = "fg",
                 keep_arrows: bool = False, reduce: bool = False) -> PipelineResult:
    """Run steps 1-5 and the invariants on one input.

    ``source`` is either the input text or an already-parsed graph; ``r`` is
    the suspension exponent (r = 1 reproduces the base manifold, the
    standard sanity check).  ``plumbing`` keeps the binding arrows of
    ``plumbing_full`` only with ``keep_arrows``; ``reduce`` additionally
    blows it down.  Output is deterministic for fixed input.
    """
    if r < 1:
        raise StageError("input", PlumbingError(f"r must be >= 1, got {r}"))
    if isinstance(source, str):
        graph = _stage("parse")(parse_resolution, source)
    else:
        graph = source
    mp, product_m = _stage("step1")(multiplicity_trees, graph, side)
    nielsen = _stage("nielsen")(build_nielsen, mp)
    powered = _stage("power")(power_nielsen, nielsen, r)
    notes = _empty_chain_notes(mp) + valency_formula_notes(nielsen, r)
    wald = _stage("waldhausen")(nielsen_to_waldhausen, powered)
    tree_full = _stage("plumbing")(synth_plumbing, wald)
    tree = tree_full if keep_arrows else strip_decorations(tree_full)
    reduced = None
    if reduce:
        reduced = _stage("blowdown")(reduce_tree, tree)
    obstructions = _stage("invariants")(
        obstruction_report, mp, wald, r, product_m)
    return PipelineResult(
        resolution=graph,
        r=r,
        side=side,
        multiplicity=mp,
        nielsen=nielsen,
        nielsen_power=powered,
        waldhausen=wald,
        plumbing_full=tree_full,
        plumbing=tree,
        blowdown=reduced,
        obstructions=obstructions,
        notes=notes,
    )


def _empty_chain_notes(mp: MultPlumbing) -> tuple[str, ...]:
    """Adjacent nodes carry a trivial gluing (alpha = 1); outside the
    worked-example family, so worth flagging for auditing."""
    nodes = set(mp.node_ids)
    return tuple(
        f"adjacent pieces {u} and {v}: empty connecting chain, "
        "gluing data alpha = 1"
        for u, v in sorted((min(e.u, e.v), max(e.u, e.v)) for e in mp.edges
                           if e.u in nodes and e.v in nodes)
    )
