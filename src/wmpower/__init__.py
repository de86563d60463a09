"""Exact-arithmetic toolkit for weighted majority games.

Coalition and game structure, a union operation with a four-condition
mergeability check, six power indices (Shapley-Shubik, Banzhaf,
Deegan-Packel, Public Good, Colomer-Martinez, HCM), machine-checkable
axioms with independence witnesses, and a small document/CLI layer with
bundled parliamentary datasets.
"""

from . import errors
from .axioms import (
    AxiomVerdict,
    IndexFunction,
    check_dpm,
    check_dpmw,
    check_eff,
    check_hcmw,
    check_np,
    check_pgm,
    check_sym,
    check_symw,
    check_tra,
    witness_index,
)
from .coalitions import MAX_PLAYERS, Coalition, all_coalitions, as_coalition, minimal_antichain
from .datasets import ECUADOR_PERIODS, ECUADOR_QUOTA, ecuador_document, ecuador_documents
from .documents import GameDocument, format_rational, load_game, parse_game, parse_rational
from .games import (
    Game,
    SimpleGame,
    SwingSet,
    WeightedMajorityGame,
    are_symmetric,
    is_null_player,
    minimal_winning_coalitions,
    simple_intersection,
    simple_mergeable,
    simple_union,
    swings,
    unanimity_game,
)
from .indices import (
    INDEX_FUNCTIONS,
    INDEX_LABELS,
    PowerIndexVector,
    banzhaf,
    colomer_martinez,
    deegan_packel,
    hcm,
    public_good,
    shapley_shubik,
)
from .merging import (
    MergeabilityReport,
    check_wm_mergeability,
    merged_game,
    mwc_group_decomposition,
    single_mwc_decomposition,
    wm_union,
)
from .sampling import random_mergeable_family, random_weighted_game
from .tables import decimal_string, render_table

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
