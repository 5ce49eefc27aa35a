"""Exact-arithmetic plumbing calculus for links of real suspension
singularities built from a pair of plane curve germs and an exponent r.

The public surface mirrors the pipeline: parse the decorated resolution
tree, normalize multiplicities (step 1), build the Nielsen graph of the
monodromy (step 2), take its r-th power (step 3), convert to the Waldhausen
graph of the open book (step 4), synthesize the plumbing tree (step 5) and
evaluate the obstruction invariants.
"""

from .contfrac import cf_dual, neg_cf_eval, neg_cf_expand
from .errors import (
    BalanceError,
    ChainDataError,
    FibrednessError,
    InputError,
    MonodromyError,
    NormalizationError,
    NotATreeError,
    PlumbingError,
    UnsupportedError,
)
from .graphs import (
    Arrow,
    BoundaryStalk,
    Edge,
    MultPlumbing,
    MultVertex,
    NielsenEdge,
    NielsenGraph,
    NielsenVertex,
    PlumbingTree,
    ResArrow,
    ResolutionGraph,
    ResVertex,
    Stalk,
    Vertex,
    WaldArrow,
    WaldEdge,
    WaldhausenGraph,
    WaldStalk,
    WaldVertex,
    intersection_matrix,
    symmetric_rep,
)
from .invariants import (
    FibreData,
    LauferSteenbrink,
    ObstructionReport,
    adjunction_system,
    canonical_class,
    chi_resolution,
    determinant,
    fibre_euler,
    is_num_gorenstein,
    join_euler,
    k_squared,
    laufer_steenbrink,
    negative_definite,
    obstruction_report,
    waldhausen_form,
    wedge_count,
)
from .nielsen import build_nielsen
from .pipeline import PipelineResult, StageError, run_pipeline
from .power import power_nielsen, valency_formula_notes
from .resolve import (
    multiplicity_trees,
    parse_resolution,
    product_multiplicity_tree,
    solve_monodromical,
    subtract_and_normalize,
)
from .serialize import from_dict, from_json, to_dict, to_dot, to_json
from .synthesis import (
    blow_down,
    normalize_edge_signs,
    reduce_tree,
    strip_decorations,
    synth_plumbing,
)
from .waldhausen import nielsen_to_waldhausen

__version__ = "0.1.0"
