"""Symmetric-difference degeneracy, signed tree models, and compact adjacency labels."""

from .graph import (
    Graph,
    DegeneracyCertificate,
    gen_rook,
    gen_shift,
    gen_gnp,
    degeneracy,
    induced_subgraph,
    load_edge_list,
    save_edge_list,
)
from .twins import (
    SddWitness,
    DiverseSet,
    sd_pair,
    d_twin_pairs,
    is_diverse,
    find_diverse_subgraph,
    sd_exact,
    sdd_exact,
    sdd_greedy,
    sdd_greedy_escalate,
    check_witness,
    embed_sdd1,
    save_witness,
    load_witness,
)
from .model import (
    SignedTreeModel,
    ResolvedEdge,
    validate,
    width,
    sparsity,
    resolve,
    realize,
    make_clean,
    stm_from_witness,
    stm_from_welzl,
    save_stm,
    load_stm,
)
from .balance import (
    interval_cover,
    shallowise,
    width_bound,
    orient_low_outdegree,
)
from .labeling import (
    AdjacencyLabel,
    encode,
    decode,
    decode_matrix,
    label_graph,
    label_stats,
    save_labels,
    load_labels,
)
from .hardness import (
    CnfFormula,
    ReductionMap,
    load_cnf,
    save_cnf,
    sat_oracle,
    build_bubble,
    build_sd_reduction,
    validate_sd_reduction,
    sd_witness_from_assignment,
    build_sdd_reduction,
    sdd_witness_from_assignment,
    extract_assignment,
)

__version__ = "0.1.0"
