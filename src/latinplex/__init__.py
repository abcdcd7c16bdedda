"""latinplex: transversals, k-plexes, quasi-transversals and the domination
structure of Latin square graphs, with exhaustive certified search engines
and executable constructions."""

import logging

from .core import (
    Isotopy,
    LatinSquare,
    StepTypeSpec,
    apply_isotopy,
    format_ls,
    gen_cyclic,
    gen_qstep,
    gen_two_step_pow2,
    is_qstep_type,
    parse_ls,
    validate,
)
from .plexes import (
    CellSet,
    PlexCensus,
    check_kplex,
    check_near_transversal,
    check_quasi_transversal,
    check_transversal,
    complement_plex,
    conjecture_sweep,
    enumerate_transversals,
    extendibility_report,
    find_kplex,
    find_near_transversal,
    find_orthogonal_mate,
    find_quasi_transversal,
    max_disjoint_quasi_transversals,
    max_disjoint_transversals,
)
from .lsgraph import (
    DominationCertificate,
    LatinSquareGraph,
    build_graph,
    gamma_k_exact,
    has_mate_coloring,
    is_k_dominating,
    is_lk_independent_dominating,
    quasi_3ds_correspondence,
    transversal_equivalence_check,
    verify_domatic_partition,
)
from .constructions import (
    WitnessCertificate,
    build_2plex_general,
    build_2plex_m2,
    build_2plex_q1,
    build_3ds_q1,
    build_3ds_qgen,
    build_domatic_partition_cyclic,
    decompose_two_step,
    near_from_quasi,
    quasi_from_near,
    quasi_from_transversal,
    transversal_in_quasi,
    verify_certificate,
)

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())
