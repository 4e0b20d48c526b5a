"""Modeling and analysis workbench for multi-topology concurrent parity games."""

from .arena import SEEKER, SPOILER, Arena, ArenaLasso
from .core import (ActionProfile, InputError, Lasso, Mtg, compile_tables,
                   parity_satisfied, step, symmetrize, validate)
from .equilibria import (DeviationOracle, DeviationWitness, EquilibriumReport,
                         KnowledgeNode, build_knowledge_arena, can_deviator_win_set,
                         check_cne, check_gne, check_ne)
from .reductions import (DeviationChoice, HLasso, HState, PartialInfoGame,
                         build_cne_game, build_gne_game, gamma_roundtrip,
                         semantic_objective)
from .search import SearchResult, find_cne, find_gne, find_profile_with_wintop
from .solvers import solve_conjunction, solve_one_player, solve_parity
from .strategy import (MooreStrategy, Profile, enumerate_strategies, outcome,
                       winners, wintop, wintop_map)

__version__ = "0.1.0"

__all__ = [
    "ActionProfile", "Arena", "ArenaLasso", "DeviationChoice", "DeviationOracle",
    "DeviationWitness", "EquilibriumReport", "HLasso", "HState", "InputError",
    "KnowledgeNode", "Lasso", "MooreStrategy", "Mtg", "PartialInfoGame", "Profile",
    "SEEKER", "SPOILER", "SearchResult", "build_cne_game", "build_gne_game",
    "build_knowledge_arena", "can_deviator_win_set", "check_cne", "check_gne",
    "check_ne", "compile_tables", "enumerate_strategies", "find_cne", "find_gne",
    "find_profile_with_wintop", "gamma_roundtrip", "outcome", "parity_satisfied",
    "semantic_objective", "solve_conjunction", "solve_one_player", "solve_parity",
    "step", "symmetrize", "validate", "winners", "wintop", "wintop_map",
]
