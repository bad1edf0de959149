"""Minimax aggregation of classifier ensembles with PAC-Bayes guarantees.

Turn an ensemble's votes on an unlabeled test set into confidence-rated
(optionally abstaining) predictions that are minimax optimal against any
labeling consistent with a certified average correlation, and certify every
closed-form solution against independent brute-force oracles.

The package exports the documented entry points; everything else is
imported from its module (``model``, ``game``, ``abstain``, ``pacbayes``,
``oracle``, ``errors``).
"""

from .abstain import solve_abstain
from .errors import VoteboundError
from .game import solve_game
from .model import payoff, sort_profile

__version__ = "0.1.0"

__all__ = ["VoteboundError", "payoff", "solve_abstain", "solve_game", "sort_profile"]
