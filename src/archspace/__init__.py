"""archspace: a universal graph-based neural architecture space.

Blocks are DAGs of 27 elementary tensor ops between one input and one
output, with exact analytic Params/FLOPs accounting, feasibility-
preserving mutations under budget constraints, training-free proxy
scoring, and a reference interpreter that executes any network at desk
scale.
"""

from .builders import VARIANTS, build
from .cost import (
    Budget,
    BlockCostReport,
    NetworkCostReport,
    block_cost,
    network_cost,
)
from .dot import to_dot
from .graph import (
    INPUT,
    OUTPUT,
    BlockGraph,
    Edge,
    ValidationReport,
    infer_shapes,
    same_graph,
    topo_order,
    validate,
)
from .interpreter import (
    NetworkParams,
    ParamStore,
    forward,
    forward_network,
    init_network_params,
    init_params,
)
from .mutation import (
    CostState,
    Edit,
    SearchStepConfig,
    apply,
    minimal_coupled_subgraph,
    propose_step,
    rule_violations,
)
from .network import (
    ExecutablePlan,
    NetworkSpec,
    StageSpec,
    assemble_network,
    make_network,
    validate_network,
)
from .ops import Cost, OpKind, Shape
from .protocol import emit_protocol
from .proxy import (
    FisherSpectrum,
    ProxyId,
    ProxyScore,
    block_gradients,
    score_network,
    spectrum_of,
    vkdnw_score,
)
from .rng import Rng
from .search import (
    EvoConfig,
    SearchLog,
    WalkConfig,
    evolve,
    random_walk,
    replay_edits,
    size_orthogonality_report,
)
from .serialize import parse_document, serialize, to_document

__version__ = "0.1.0"
