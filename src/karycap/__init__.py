"""Importance and interaction indices for multilevel games (k-ary capacities).

The package root holds the paper's objects; table helpers, game
transforms and axiom partners are imported from their own modules.
"""

from .game import (
    MultichoiceGame,
    SizeLimitError,
    extend_heterogeneous,
    is_kary_capacity,
    min_game,
    random_game,
)
from .indices import (
    classical_shapley,
    importance,
    interaction,
    interaction_all_upto,
    interaction_recursive,
    interaction_via_derivatives,
    lattice_point_interaction,
)
from .choquet import (
    IntegralEstimate,
    choquet_capacity,
    choquet_kary,
    classical_interaction,
    integral_check,
    interaction_cellsum,
    section_capacity,
)
from .verify import AXIOMS, VerificationReport, check_lemma4, verify_axiom
from .io import GameFormatError, load_game, save_game

__version__ = "0.1.0"

__all__ = [
    "AXIOMS",
    "GameFormatError",
    "IntegralEstimate",
    "MultichoiceGame",
    "SizeLimitError",
    "VerificationReport",
    "check_lemma4",
    "choquet_capacity",
    "choquet_kary",
    "classical_interaction",
    "classical_shapley",
    "extend_heterogeneous",
    "importance",
    "integral_check",
    "interaction",
    "interaction_all_upto",
    "interaction_cellsum",
    "interaction_recursive",
    "interaction_via_derivatives",
    "is_kary_capacity",
    "lattice_point_interaction",
    "load_game",
    "min_game",
    "random_game",
    "save_game",
    "section_capacity",
    "verify_axiom",
]
