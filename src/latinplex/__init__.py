"""latinplex: transversals, k-plexes, quasi-transversals and the domination
structure of Latin square graphs, with exhaustive certified search engines
and executable constructions.

Submodules load on first use (PEP 562): ``import latinplex`` compiles
nothing else, and ``latinplex.find_kplex`` imports ``plexes`` only then.
"""

import importlib

__version__ = "0.1.0"

_PUBLIC = {
    "core": (
        "Isotopy", "LatinSquare", "StepTypeSpec", "apply_isotopy", "format_ls", "gen_cyclic",
        "gen_qstep", "gen_two_step_pow2", "is_qstep_type", "parse_ls", "validate",
    ),
    "cellsets": (
        "CellSet", "check_kplex", "check_near_transversal", "check_quasi_transversal",
        "check_transversal",
    ),
    "plexes": (
        "PlexCensus", "complement_plex", "conjecture_sweep", "enumerate_transversals",
        "extendibility_report", "find_kplex", "find_near_transversal", "find_orthogonal_mate",
        "find_quasi_transversal", "max_disjoint_quasi_transversals", "max_disjoint_transversals",
    ),
    "lsgraph": (
        "DominationCertificate", "LatinSquareGraph", "build_graph", "gamma_k_exact",
        "has_mate_coloring", "is_k_dominating", "is_lk_independent_dominating",
        "quasi_3ds_correspondence", "transversal_equivalence_check", "verify_domatic_partition",
    ),
    "constructions": (
        "WitnessCertificate", "build_2plex_general", "build_2plex_m2", "build_2plex_q1",
        "build_3ds_q1", "build_3ds_qgen", "build_domatic_partition_cyclic", "decompose_two_step",
        "near_from_quasi", "quasi_from_near", "quasi_from_transversal", "transversal_in_quasi",
        "verify_certificate",
    ),
}
#: public name -> the submodule that defines it
_SOURCE = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = list(_SOURCE)


def __getattr__(name):
    if name in _PUBLIC or name == "errors":
        return importlib.import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
