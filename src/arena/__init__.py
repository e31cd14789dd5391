"""Distinguishability tournaments and skill ratings for generative models.

Generators and discriminators play per-sample judging games; match outcomes
feed a Glicko2 rating engine, and an analytic Gaussian toy domain provides
players with known ground truth.
"""

__version__ = "0.1.0"

__all__ = [
    "GameResult",
    "Rating",
    "RatingConfig",
    "RatingOutcome",
    "rate_tournament",
    "update_player",
    "__version__",
]


def __getattr__(name):
    # The rating engine loads on first use, so a process that needs only
    # part of the package (an external reference player) never imports it.
    if name in __all__:
        from . import glicko
        return getattr(glicko, name)
    raise AttributeError(f"module 'arena' has no attribute {name!r}")
