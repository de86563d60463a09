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
        "coalitions": "MAX_PLAYERS Coalition all_coalitions as_coalition minimal_antichain",
        "datasets": "ECUADOR_PERIODS ECUADOR_QUOTA ecuador_document ecuador_documents",
        "documents": "GameDocument format_rational load_game parse_game parse_rational",
        "games": "Game SimpleGame SwingSet WeightedMajorityGame are_symmetric is_null_player"
        " minimal_winning_coalitions simple_intersection simple_mergeable simple_union"
        " swings unanimity_game",
        "indices": "INDEX_FUNCTIONS INDEX_LABELS PowerIndexVector banzhaf colomer_martinez"
        " deegan_packel hcm public_good shapley_shubik",
        "merging": "MergeabilityReport check_wm_mergeability merged_game"
        " mwc_group_decomposition single_mwc_decomposition wm_union",
        "sampling": "random_mergeable_family random_weighted_game",
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

__all__ = [
    "AxiomVerdict",
    "Coalition",
    "ECUADOR_PERIODS",
    "ECUADOR_QUOTA",
    "Game",
    "GameDocument",
    "INDEX_FUNCTIONS",
    "INDEX_LABELS",
    "IndexFunction",
    "MAX_PLAYERS",
    "MergeabilityReport",
    "PowerIndexVector",
    "SimpleGame",
    "SwingSet",
    "WeightedMajorityGame",
    "all_coalitions",
    "are_symmetric",
    "as_coalition",
    "banzhaf",
    "check_dpm",
    "check_dpmw",
    "check_eff",
    "check_hcmw",
    "check_np",
    "check_pgm",
    "check_sym",
    "check_symw",
    "check_tra",
    "check_wm_mergeability",
    "colomer_martinez",
    "decimal_string",
    "deegan_packel",
    "ecuador_document",
    "ecuador_documents",
    "errors",
    "format_rational",
    "hcm",
    "is_null_player",
    "load_game",
    "merged_game",
    "minimal_antichain",
    "minimal_winning_coalitions",
    "mwc_group_decomposition",
    "parse_game",
    "parse_rational",
    "public_good",
    "random_mergeable_family",
    "random_weighted_game",
    "render_table",
    "shapley_shubik",
    "simple_intersection",
    "simple_mergeable",
    "simple_union",
    "single_mwc_decomposition",
    "swings",
    "unanimity_game",
    "wm_union",
    "witness_index",
]
