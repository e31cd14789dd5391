"""Glicko2 skill ratings for bipartite tournaments.

Implements the update procedure from http://www.glicko.net/glicko/glicko2.pdf
with two extensions used by the tournament engine:

* game results carry a weight, so a match's per-sample wins and losses
  against one opponent collapse exactly into one fractional game, and
* a whole match set is treated as one rating period and updates are iterated
  to a fixed point, since tournament matches have no temporal order.

The tournament fixed point keeps every player's rating, deviation and
volatility in float64 arrays across its passes and reads the judged rows
of the match set's ``MatchTable`` directly, one row per record. Each pass
is one vectorized sweep over the rows per side (expected scores for every
generator side at once and then every discriminator side, each side's
per-player sums with ``np.bincount``, the two sides added), then one array
step that closes every player's period at once. That step is all ``+ - *
/``, ``sqrt``, ``min`` and ``max``, which round the same in numpy as on
Python floats, except the volatility solve: it calls ``exp`` and ``log``,
and numpy's differ from ``math``'s in the last bit (``exp`` on about 5% of
random arguments), so the solve runs once per informed player on floats.
``update_player`` is the scalar reference: it sums a list of ``GameResult``
objects with ``math.fsum`` and closes the period through the same array
step on one-element arrays, so the update rule is written once.

Idle players are returned unchanged: there is no deviation inflation
between rating periods because a static tournament has no notion of
elapsed time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

from .tournament import MatchTable

# Fixed conversion between the public scale (1500-anchored) and the internal
# mu/phi scale. The anchor stays at 1500 even when players start elsewhere.
GLICKO2_SCALE = 173.7178

_DEFAULT_RATING = 1500.0
_DEFAULT_DEVIATION = 350.0
_DEFAULT_VOLATILITY = 0.06


class ConvergenceError(RuntimeError):
    """The volatility root-finder did not terminate within its iteration cap."""


# Below this much accumulated Fisher information (sum of w * g^2 * E(1-E))
# every expected score is saturated to float precision and the games cannot
# move the player; the update degenerates, so it is skipped instead.
_MIN_INFORMATION = 1e-9


@dataclass(frozen=True)
class Rating:
    """Public-scale player state: rating, rating deviation, volatility."""

    rating: float = _DEFAULT_RATING
    deviation: float = _DEFAULT_DEVIATION
    volatility: float = _DEFAULT_VOLATILITY


@dataclass(frozen=True)
class GameResult:
    """One game against ``opponent`` with score in [0, 1] for this player.

    ``weight`` counts identical outcomes; the Glicko2 accumulators are linear
    over games, so a weight of n is exactly n repetitions of the same game.
    """

    opponent: Rating
    score: float
    weight: float = 1.0


@dataclass(frozen=True)
class RatingConfig:
    """Knobs for the rating engine.

    tau bounds how fast volatility can move, convergence_eps terminates the
    volatility root-finder, and pass_tolerance/max_passes control the outer
    fixed-point iteration over the whole match set. damping scales how far a
    player's rating moves toward its fresh estimate each pass; 0.5 suppresses
    the two-cycle oscillation the undamped iteration develops on strongly
    bipartite match graphs. outcome_mode selects how a match record expands
    into games: one game per side scored at its win fraction, weighted by
    the judged samples ("per-sample", exactly the sum of the per-sample wins
    and losses) or by 1 ("per-match").
    """

    tau: float = 0.5
    default_rating: float = _DEFAULT_RATING
    default_deviation: float = _DEFAULT_DEVIATION
    default_volatility: float = _DEFAULT_VOLATILITY
    convergence_eps: float = 1e-6
    max_passes: int = 64
    pass_tolerance: float = 0.01
    damping: float = 0.5
    outcome_mode: str = "per-sample"

    def default(self) -> Rating:
        return Rating(self.default_rating, self.default_deviation,
                      self.default_volatility)


@dataclass(frozen=True)
class RatingOutcome:
    """Result of rating a match set: converged ratings plus diagnostics.

    ``shifts`` holds the largest public-rating change of each pass, so
    ``len(shifts) == passes`` and a converged outcome ends below the pass
    tolerance.
    """

    ratings: dict[str, Rating]
    passes: int
    converged: bool
    warnings: tuple[str, ...] = ()
    shifts: tuple[float, ...] = ()


def to_internal(rating, deviation):
    """Convert public (rating, deviation) to internal (mu, phi), for floats
    or element by element for arrays."""
    return ((rating - _DEFAULT_RATING) / GLICKO2_SCALE,
            deviation / GLICKO2_SCALE)


def from_internal(mu, phi):
    """Convert internal (mu, phi) back to public (rating, deviation)."""
    return mu * GLICKO2_SCALE + _DEFAULT_RATING, phi * GLICKO2_SCALE


def g(phi: float) -> float:
    """Impact damping for an opponent with internal deviation phi."""
    return 1.0 / math.sqrt(1.0 + 3.0 * phi * phi / (math.pi * math.pi))


def expected_score(mu: float, mu_j: float, phi_j: float) -> float:
    """Expected score of mu against an opponent at (mu_j, phi_j)."""
    x = g(phi_j) * (mu - mu_j)
    # Saturating logistic: exp() only ever sees non-positive arguments.
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    ex = math.exp(x)
    return ex / (1.0 + ex)


def update_volatility(sigma: float, delta: float, phi: float, v: float,
                      tau: float, eps: float = 1e-6,
                      max_iterations: int = 1000) -> float:
    """Solve for the new volatility.

    Finds the root of the volatility objective with the Illinois-modified
    regula falsi, expanding the lower bracket when the improvement delta is
    small. Raises ConvergenceError if the iteration cap is exceeded.
    """
    a = math.log(sigma * sigma)
    phi2 = phi * phi
    delta2 = delta * delta
    # The parts of f that do not depend on x, each rounded as f would.
    gap = delta2 - phi2 - v
    spread = phi2 + v
    tau2 = tau * tau

    def f(x: float) -> float:
        ex = math.exp(x)
        if ex > 1e150:
            # Same expression with numerator and denominator divided by
            # ex^2, which avoids overflow when the bracket is enormous.
            ratio = (gap / ex - 1.0) / (2.0 * (1.0 + spread / ex) ** 2)
        else:
            ratio = ex * (gap - ex) / (2.0 * (spread + ex) ** 2)
        return ratio - (x - a) / tau2

    if delta2 > spread:
        lo, hi = a, math.log(gap)
    else:
        k = 1
        while f(a - k * tau) < 0.0:
            k += 1
            if k > max_iterations:
                raise ConvergenceError("volatility bracket expansion exceeded "
                                       f"{max_iterations} steps")
        lo, hi = a, a - k * tau

    f_lo, f_hi = f(lo), f(hi)
    iterations = 0
    while abs(hi - lo) > eps:
        iterations += 1
        if iterations > max_iterations:
            raise ConvergenceError(f"volatility solve exceeded {max_iterations} "
                                   "iterations")
        mid = lo + (lo - hi) * f_lo / (f_hi - f_lo)
        f_mid = f(mid)
        if f_mid == 0.0:
            # Exact root; the sign test below could never move the bracket.
            lo = mid
            break
        if f_mid * f_hi < 0.0:
            lo, f_lo = hi, f_hi
        else:
            f_lo /= 2.0
        hi, f_hi = mid, f_mid
    return math.exp(lo / 2.0)


def _close_period(prior: np.ndarray, v_inv: np.ndarray,
                  delta_sum: np.ndarray, cfg: RatingConfig
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The Glicko2 step from one period's sums, for every player at once.

    ``prior`` holds the rows rating, deviation and volatility, one column a
    player; ``v_inv`` is each player's summed information (w * g^2 *
    E(1-E)) and ``delta_sum`` the summed improvement (w * g * (s - E)).
    Returns which players the games inform, and those players' new
    (rating, deviation, volatility) columns. Only the volatility solve runs
    player by player, on floats (see the module docstring for why).
    """
    # A row where every expected score is saturated carries no usable
    # information about its player. Written as a negation, a NaN row is
    # informed, as ``v_inv <= _MIN_INFORMATION`` is false for it.
    informed = ~(v_inv <= _MIN_INFORMATION)
    rating, deviation, volatility = prior[:, informed]
    v_inv, delta_sum = v_inv[informed], delta_sum[informed]
    mu, phi = to_internal(rating, deviation)
    v = 1.0 / v_inv
    delta = v * delta_sum
    sigma_new = np.array(list(map(
        update_volatility, volatility.tolist(), delta.tolist(), phi.tolist(),
        v.tolist(), repeat(cfg.tau), repeat(cfg.convergence_eps))))
    phi_star = np.sqrt(phi * phi + sigma_new * sigma_new)
    # Uncertainty never grows past the uninformed prior (or the player's own
    # starting deviation if that was larger); this keeps degenerate one-sided
    # match sets from blowing up the deviation through volatility feedback.
    phi_cap = np.maximum(phi, cfg.default_deviation / GLICKO2_SCALE)
    phi_star = np.minimum(phi_star, phi_cap)
    phi_new = 1.0 / np.sqrt(1.0 / (phi_star * phi_star) + v_inv)
    mu_new = mu + phi_new * phi_new * delta_sum
    return informed, np.array([*from_internal(mu_new, phi_new), sigma_new])


def _apply_period(rating: Rating, mu_eval: float,
                  games: Sequence[GameResult], cfg: RatingConfig) -> Rating:
    """One rating period anchored at ``rating`` with E evaluated at mu_eval.

    The classic update evaluates expected scores at the player's own prior
    (mu_eval == prior mu). The tournament fixed point instead evaluates them
    at the player's current estimate, which makes the converged ratings solve
    the penalized-likelihood equation the one-step update linearizes.
    Returns ``rating`` itself when the games carry no usable information.
    """
    # Each term is weight * (unit-game term) and the sums are correctly
    # rounded, so a game of integer weight n adds exactly what n repeated
    # unit games add; a plain running sum drifts in the last bits, and the
    # volatility solve can amplify that drift.
    info_terms = []
    delta_terms = []
    for game in games:
        mu_j, phi_j = to_internal(game.opponent.rating,
                                  game.opponent.deviation)
        g_j = g(phi_j)
        e_j = expected_score(mu_eval, mu_j, phi_j)
        info_terms.append(game.weight * (g_j * g_j * e_j * (1.0 - e_j)))
        delta_terms.append(game.weight * (g_j * (game.score - e_j)))
    # The same step as the tournament's, on a population of one.
    (informed,), fresh = _close_period(
        np.array([[rating.rating], [rating.deviation], [rating.volatility]],
                 dtype=float),
        np.array([math.fsum(info_terms)]), np.array([math.fsum(delta_terms)]),
        cfg)
    return Rating(*fresh[:, 0].tolist()) if informed else rating


def update_player(rating: Rating, games: Sequence[GameResult],
                  config: RatingConfig | None = None) -> Rating:
    """Apply one rating period to a player; with no games the player is
    returned unchanged."""
    if not games:
        return rating
    mu, _ = to_internal(rating.rating, rating.deviation)
    return _apply_period(rating, mu, games, config or RatingConfig())


def _period_sums(ratings: np.ndarray, gen: np.ndarray, disc: np.ndarray,
                 score: np.ndarray, weight: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Every player's (v_inv, delta_sum) against a snapshot of ratings.

    ``ratings`` holds the rows rating and deviation (and any after them),
    one column a player. One row per judged record: the generator ``gen``
    scored ``score`` against the discriminator ``disc``, the discriminator
    ``1 - score``, both at ``weight``. These are the terms of
    ``_apply_period`` with E evaluated at each player's snapshot estimate,
    computed for one side of every row at once and summed per player; the
    sums of the two sides are then added, so each player's terms from one
    role add in record order.
    """
    mu, phi = to_internal(ratings[0], ratings[1])
    g_player = 1.0 / np.sqrt(1.0 + 3.0 * phi * phi / (math.pi * math.pi))
    n = len(mu)
    v_inv, delta_sum = np.zeros(n), np.zeros(n)
    # Four row-length buffers and a mask, reused by both sides. Each
    # operation below is one step of
    #   x = g_opp * (mu[player] - mu[opponent])
    #   e = x >= 0 ? 1 / (1 + ex) : ex / (1 + ex),  ex = exp(-|x|)
    #   v_inv term = weight * (g_opp * g_opp * e * (1 - e))
    #   delta term = weight * (g_opp * (s - e))
    # in that order, so every term keeps its bits.
    g_opp, x, t, e = np.empty((4, len(score)))
    ahead = np.empty(len(score), dtype=bool)
    # Every index is a player's code, so take() may write straight into
    # its buffer ("clip" never clips here; "raise" would copy first).
    for side, (player, opponent) in enumerate(((gen, disc), (disc, gen))):
        np.take(g_player, opponent, out=g_opp, mode="clip")
        np.take(mu, player, out=x, mode="clip")
        x -= np.take(mu, opponent, out=t, mode="clip")
        x *= g_opp
        np.greater_equal(x, 0.0, out=ahead)
        # Saturating logistic: exp() only ever sees non-positive arguments.
        np.exp(np.negative(np.abs(x, out=t), out=t), out=t)
        np.add(t, 1.0, out=x)
        # The numerator: 1 where x >= 0, else ex (ex <= 1, NaN stays NaN).
        np.divide(np.maximum(t, ahead, out=t), x, out=e)
        np.multiply(g_opp, g_opp, out=x)
        x *= e
        x *= np.subtract(1.0, e, out=t)
        x *= weight
        v_inv += np.bincount(player, x, minlength=n)
        # The generator scored s = score, the discriminator 1 - score.
        s = np.subtract(1.0, score, out=t) if side else score
        np.subtract(s, e, out=x)
        x *= g_opp
        x *= weight
        delta_sum += np.bincount(player, x, minlength=n)
    return v_inv, delta_sum


def rate_tournament(table: MatchTable, config: RatingConfig | None = None
                    ) -> RatingOutcome:
    """Rate a full match set by fixed-point iteration.

    The whole match set forms a single rating period. Each pass re-rates
    every player from their prior against a snapshot of the opponents'
    ratings from the start of the pass, so the result is independent of
    player order and each game is counted exactly once no matter how many
    passes run. Convergence means the largest public-rating change in a
    pass fell below pass_tolerance.
    """
    cfg = config or RatingConfig()
    if cfg.outcome_mode not in ("per-sample", "per-match"):
        raise ValueError(f"unknown outcome mode: {cfg.outcome_mode!r}")
    # In per-sample mode a weight of the judged-sample count is exactly the
    # sum of the per-sample wins and losses, since the Glicko2 accumulators
    # are linear in the games; per-match mode plays the same game at weight
    # 1. Records with no judged samples add no games.
    played, total, score = table.judged()
    weight = total if cfg.outcome_mode == "per-sample" else np.ones_like(total)
    games = (table.gen[played], table.disc[played], score, weight)

    warnings: list[str] = []
    if not len(table):
        warnings.append("empty record set; all players rated at defaults")

    # Every player's rating, deviation and volatility, one column a player.
    start = cfg.default()
    prior = np.array([[start.rating], [start.deviation], [start.volatility]],
                     dtype=float).repeat(len(table.ids), axis=1)
    ratings = prior
    shifts: list[float] = []
    converged = not len(table)
    while len(shifts) < cfg.max_passes and not converged:
        v_inv, delta_sum = _period_sums(ratings, *games)
        informed, fresh = _close_period(prior, v_inv, delta_sum, cfg)
        # A player the games do not inform (no games, or every expected
        # score saturated) holds its current estimate instead of snapping
        # back to the prior; the others move a damped step toward theirs.
        current = ratings[0, informed]
        fresh[0] = current + cfg.damping * (fresh[0] - current)
        updated = ratings.copy()
        updated[:, informed] = fresh
        # Python's max(): a NaN shift counts only when it comes first.
        shifts.append(max(np.abs(updated[0] - ratings[0]).tolist(),
                          default=0.0))
        ratings = updated
        converged = shifts[-1] < cfg.pass_tolerance
    if not converged:
        warnings.append(f"ratings did not converge within {cfg.max_passes} "
                        "passes")
    return RatingOutcome(ratings={pid: Rating(*player) for pid, player
                                  in zip(table.ids, zip(*ratings.tolist()))},
                         passes=len(shifts),
                         converged=converged, warnings=tuple(warnings),
                         shifts=tuple(shifts))
