"""Exact-arithmetic toolkit for weighted majority games.

Coalition and game structure, a union operation with a four-condition
mergeability check, six power indices (Shapley-Shubik, Banzhaf,
Deegan-Packel, Public Good, Colomer-Martinez, HCM), machine-checkable
axioms with independence witnesses, and a small document/CLI layer with
bundled parliamentary datasets.
"""

from importlib import import_module

from . import errors

# The home module of each public name. A name is imported on first access
# (PEP 562), so importing the package, or running one CLI command, loads
# only the modules that are used.
_HOMES = {
    name: module
    for module, names in {
        "axioms": "AxiomVerdict IndexFunction check_dpm check_dpmw check_eff check_hcmw"
        " check_np check_pgm check_sym check_symw check_tra witness_index",
        "coalitions": "MAX_PLAYERS Coalition as_coalition",
        "datasets": "ECUADOR_PERIODS ECUADOR_QUOTA ecuador_document ecuador_documents",
        "decompositions": "mwc_group_decomposition single_mwc_decomposition",
        "documents": "GameDocument format_rational load_game parse_game parse_rational",
        "games": "Game SimpleGame WeightedMajorityGame minimal_winning_coalitions",
        "indices": "INDEX_FUNCTIONS PowerIndexVector banzhaf colomer_martinez deegan_packel"
        " hcm public_good shapley_shubik",
        "merging": "MergeabilityReport check_wm_mergeability merged_game wm_union",
        "sampling": "random_mergeable_family random_weighted_game",
        "simple": "SwingSet are_symmetric is_null_player minimal_antichain"
        " simple_intersection simple_mergeable simple_union swings unanimity_game",
        "tables": "decimal_string render_table",
    }.items()
    for name in names.split()
}


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})


__version__ = "0.1.0"

__all__ = sorted([*_HOMES, "errors"])
