"""Analytic Gaussian toy domain with known ground truth.

A task is a target Gaussian built from a random full-rank factor. Generator
players are linear maps of standard normal noise, so their implied mean and
covariance are exact, and a synthetic training trajectory interpolates the
map toward the target factor. Discriminators score samples with the optimal
likelihood ratio data/(data + fake) against an explicit fake-density model:
the generator's own Gaussian (oracle), a uniform mixture over past
generators kept by reservoir sampling (chekhov), or uniform noise once the
trajectory has mastered the task (forgetting). Every model caches its
whitening matrix and log-determinant when it is built, so a panel judges a
batch, or a stack of batches, with one matmul per model and no solve or
factorization. Everything is closed form; no player is trained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

# Relative jitter added to covariances before factorization so that early
# checkpoints with nearly singular implied covariance stay positive definite.
JITTER = 1e-6


class GaussianModel:
    """A multivariate normal with a cached upper-triangular factor.

    ``cov = factor.T @ factor``. The model also caches ``whitening``, the
    inverse of the factor, and ``log_det``, the log-determinant of ``cov``:
    a row x has squared Mahalanobis distance ``|(x - mean) @ whitening|^2``.
    """

    def __init__(self, mean: np.ndarray, cov: np.ndarray | None = None,
                 factor: np.ndarray | None = None):
        self.mean = np.asarray(mean, dtype=float)
        if (cov is None) == (factor is None):
            raise ValueError("provide exactly one of cov or factor")
        if factor is not None:
            self.factor = np.asarray(factor, dtype=float)
            self.cov = self.factor.T @ self.factor
        else:
            self.cov = np.asarray(cov, dtype=float)
            try:
                lower = np.linalg.cholesky(self.cov)
            except np.linalg.LinAlgError as exc:
                raise ValueError("covariance is not positive definite after "
                                 "jitter") from exc
            self.factor = lower.T
        self.whitening = np.linalg.inv(self.factor)
        self.log_det = 2.0 * float(np.log(np.diagonal(self.factor)).sum())

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        z = rng.standard_normal((count, self.dim))
        return z @ self.factor + self.mean

    def sample_many(self, count: int,
                    rngs: Sequence[np.random.Generator]) -> np.ndarray:
        """``sample(count, rng)`` for each generator in turn, as one
        (m, count, dim) array whose rows are bit for bit those batches: the
        draws fill one buffer, and the stacked matmul makes the same
        per-batch product."""
        z = np.empty((len(rngs), count, self.dim))
        for rng, out in zip(rngs, z):
            rng.standard_normal(out=out)
        x = z @ self.factor
        x += self.mean
        return x


@dataclass(frozen=True, eq=False)
class GaussianTask:
    """Target distribution N(mean, cov) with cov = factor.T @ factor."""

    dim: int
    seed: int
    mean: np.ndarray
    cov: np.ndarray
    factor: np.ndarray

    @cached_property
    def model(self) -> GaussianModel:
        return GaussianModel(self.mean, factor=self.factor)

    @cached_property
    def scale(self) -> float:
        """Root mean squared per-coordinate standard deviation."""
        return math.sqrt(np.trace(self.cov) / self.dim)


def make_task(dim: int, seed: int) -> GaussianTask:
    """Draw a random task: cov = A.T @ A plus relative jitter."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    mean = rng.standard_normal(dim)
    a = rng.standard_normal((dim, dim))
    raw = a.T @ a
    raw += JITTER * np.trace(raw) / dim * np.eye(dim)
    factor = np.linalg.cholesky(raw).T
    # The canonical covariance is defined through its factor so that a
    # generator reproducing the factor matches the target bit for bit.
    cov = factor.T @ factor
    return GaussianTask(dim=dim, seed=seed, mean=mean, cov=cov, factor=factor)


class LinearGenerator:
    """Generator player x = z @ weights + offset with z standard normal."""

    def __init__(self, weights: np.ndarray, offset: np.ndarray,
                 checkpoint: int):
        self.weights = np.asarray(weights, dtype=float)
        self.offset = np.asarray(offset, dtype=float)
        self.checkpoint = checkpoint
        self._model: GaussianModel | None = None

    @property
    def dim(self) -> int:
        return self.offset.shape[0]

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        z = rng.standard_normal((count, self.dim))
        return z @ self.weights + self.offset

    def moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Implied (mean, covariance) of the sampled distribution."""
        return self.offset.copy(), self.weights.T @ self.weights

    def density_model(self, task: GaussianTask) -> GaussianModel:
        """Jittered Gaussian model of this generator's output density.

        A generator that reproduces the task factor exactly shares the task's
        own model, so its log densities are bit-identical to the data model's.
        """
        if self._model is None:
            if (np.array_equal(self.weights, task.factor)
                    and np.array_equal(self.offset, task.mean)):
                self._model = task.model
            else:
                cov = self.weights.T @ self.weights
                cov = cov + JITTER * np.trace(cov) / self.dim * np.eye(self.dim)
                self._model = GaussianModel(self.offset, cov=cov)
        return self._model


def mastery_index(n_checkpoints: int, mastery_fraction: float) -> int:
    """First checkpoint index at which the trajectory reaches the target."""
    return math.ceil(mastery_fraction * (n_checkpoints - 1))


def trajectory(task: GaussianTask, n_checkpoints: int,
               mastery_fraction: float = 1.0,
               seed: int = 0) -> list[LinearGenerator]:
    """Synthetic training run: linear interpolation toward the task factor.

    Checkpoint k sits at progress t = min(1, k / (mastery_fraction * (n-1))),
    starting from a small random map (scaled 0.05) and reaching the target
    factor and mean exactly at t = 1.
    """
    if n_checkpoints < 2:
        raise ValueError("trajectory needs at least 2 checkpoints")
    if not 0.0 < mastery_fraction <= 1.0:
        raise ValueError(f"mastery_fraction must be in (0, 1], got "
                         f"{mastery_fraction}")
    rng = np.random.default_rng([seed, task.seed])
    w0 = 0.05 * rng.standard_normal((task.dim, task.dim))
    denom = mastery_fraction * (n_checkpoints - 1)
    players = []
    for k in range(n_checkpoints):
        t = min(1.0, k / denom)
        weights = (1.0 - t) * w0 + t * task.factor
        offset = t * task.mean
        players.append(LinearGenerator(weights, offset, checkpoint=k))
    return players


def cov_error(generator: LinearGenerator, task: GaussianTask) -> float:
    """Mean absolute entrywise gap between implied and target covariance."""
    _, cov = generator.moments()
    return float(np.abs(cov - task.cov).mean())


class OracleDiscriminator:
    """Optimal score data / (data + fake) for an explicit fake density.

    The fake density is a uniform mixture over reference models; a single
    reference is the plain per-checkpoint oracle. The data model and the
    references are stacked once, at construction: scoring centres the
    samples on each model's mean and whitens them with one matmul per
    model, one (n, d) @ (d, d) product per batch, so a row of a stacked
    call is bit for bit the row of a single-batch call.
    """

    def __init__(self, data_model: GaussianModel,
                 fake_models: Sequence[GaussianModel],
                 checkpoint: int | None = None):
        if not fake_models:
            raise ValueError("need at least one fake-density reference")
        self.data_model = data_model
        self.fake_models = list(fake_models)
        self.checkpoint = checkpoint
        models = [data_model, *self.fake_models]
        self._means = np.stack([m.mean for m in models])
        self._whitening = np.stack([m.whitening for m in models])
        # -0.5 * (log det + d log 2 pi) of each model.
        self._offsets = -0.5 * (np.array([m.log_det for m in models])
                                + data_model.dim * math.log(2.0 * math.pi))

    def log_densities(self, batch: np.ndarray) -> np.ndarray:
        """Log densities of (..., n, d) samples under the data model and
        each reference, as (1 + K, ..., n).

        One model at a time, through two buffers the size of ``batch``:
        a (1 + K, ..., n, d) temporary of a chekhov panel's stack would
        pass the allocator's mmap threshold and be mapped and zero-filled
        afresh on every call.
        """
        x = np.asarray(batch, dtype=float)
        if not np.isfinite(x).all():
            raise ValueError("non-finite samples to score")
        models = len(self._means)
        centered, z = np.empty(x.shape), np.empty(x.shape)
        squares = np.empty((models,) + x.shape[:-1])
        for k in range(models):
            np.subtract(x, self._means[k], out=centered)
            np.matmul(centered, self._whitening[k], out=z)
            np.einsum("...i,...i->...", z, z, out=squares[k])
        return (self._offsets.reshape((models,) + (1,) * (x.ndim - 1))
                - 0.5 * squares)

    def score(self, batch: np.ndarray) -> np.ndarray:
        densities = self.log_densities(np.atleast_2d(batch))
        ld_data, stacked = densities[0], densities[1:]
        # Max-shifted log-mean-exp; with one reference it is that
        # reference's density exactly (top + log 1 - log 1).
        top = stacked.max(axis=0)
        terms = np.exp(stacked - top)
        if terms.shape[-1] == 1:
            # One sample per batch: numpy sums a (K, 1) stack pairwise as one
            # run, but a (K, m, 1) stack row by row. Summing each batch's K
            # terms as a contiguous last axis keeps every row of a stacked
            # call bit-identical to the single-batch result.
            total = np.ascontiguousarray(np.moveaxis(terms, 0, -1)).sum(-1)
        else:
            total = terms.sum(axis=0)
        ld_fake = top + np.log(total) - math.log(len(stacked))
        # Saturating logistic: exp() only ever sees non-positive arguments,
        # and equal densities give exactly 0.5.
        x = ld_data - ld_fake
        ex = np.exp(-np.abs(x))
        return np.where(x >= 0.0, 1.0, ex) / (1.0 + ex)

    def judge(self, batch: np.ndarray,
              rng: np.random.Generator | None = None) -> np.ndarray:
        return self.score(batch)

    def judge_many(self, batches: np.ndarray,
                   rngs: Sequence[np.random.Generator]) -> np.ndarray:
        """Scores of stacked (m, n, d) batches as (m, n), each row bit for
        bit what ``judge`` gives that batch."""
        return self.score(batches)


class ForgettingDiscriminator(OracleDiscriminator):
    """Oracle before mastery; uniform(0, 1) noise judgments afterwards.

    Past mastery every sample looks like data, so the judgments carry no
    signal; noise (rather than a constant 0.5) keeps them uninformative
    instead of deterministically conceding the boundary.
    """

    def __init__(self, data_model: GaussianModel,
                 fake_models: Sequence[GaussianModel], mastered: bool,
                 checkpoint: int | None = None):
        super().__init__(data_model, fake_models, checkpoint=checkpoint)
        self.mastered = mastered

    def judge(self, batch: np.ndarray,
              rng: np.random.Generator) -> np.ndarray:
        if not self.mastered:
            return self.score(batch)
        return rng.random(len(np.atleast_2d(batch)))

    def judge_many(self, batches: np.ndarray,
                   rngs: Sequence[np.random.Generator]) -> np.ndarray:
        """Like ``judge`` on each batch in turn with its own generator, so
        each generator is consumed as that many ``judge`` calls would."""
        if not self.mastered:
            return self.score(batches)
        return np.stack([r.random(batches.shape[1]) for r in rngs])


def reservoir_sample(items: Sequence, capacity: int,
                     rng: np.random.Generator) -> list:
    """Uniform sample without replacement from a stream (Algorithm R)."""
    kept = list(items[:capacity])
    for i in range(capacity, len(items)):
        j = int(rng.integers(0, i + 1))
        if j < capacity:
            kept[j] = items[i]
    return kept


def chekhov_discriminator(task: GaussianTask,
                          generators: Sequence[LinearGenerator], index: int,
                          capacity: int = 10,
                          seed: int = 0) -> OracleDiscriminator:
    """Discriminator that remembers past opponents.

    Its fake model is a uniform mixture over a reservoir sample (capacity 10
    by default) of the generators before ``index``, plus the current one.
    """
    rng = np.random.default_rng([seed, index])
    refs = reservoir_sample(generators[:index], capacity, rng)
    refs = refs + [generators[index]]
    models = [gen.density_model(task) for gen in refs]
    return OracleDiscriminator(task.model, models,
                               checkpoint=generators[index].checkpoint)


class TransformPlayer:
    """Generator that adds isotropic Gaussian noise to another generator's
    samples: ``additive_noise``, the one distortion, whose standard
    deviation is 0.25 * severity * scale."""

    def __init__(self, base, severity: int, scale: float):
        if not 1 <= severity <= 9:
            raise ValueError(f"severity must be in 1..9, got {severity}")
        self.base = base
        self.severity = severity
        self.scale = scale

    @property
    def dim(self) -> int:
        return self.base.dim

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        batch = self.base.sample(count, rng)
        sigma = 0.25 * self.severity * self.scale
        return batch + sigma * rng.standard_normal(batch.shape)


def noise_oracle(task: GaussianTask, severity: int) -> OracleDiscriminator:
    """Oracle against the analytically noised data distribution.

    additive_noise at a given severity turns N(mean, cov) into
    N(mean, cov + sigma^2 I); this builds the exact discriminator for it.
    """
    sigma = 0.25 * severity * task.scale
    ref = GaussianModel(task.mean, cov=task.cov + sigma * sigma
                        * np.eye(task.dim))
    return OracleDiscriminator(task.model, [ref], checkpoint=severity)


class ConstantDiscriminator:
    """Scores every sample with the same value; value 0.0 means 'all fake'."""

    def __init__(self, value: float):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"score value must be in [0, 1], got {value}")
        self.value = value

    def judge(self, batch: np.ndarray,
              rng: np.random.Generator | None = None) -> np.ndarray:
        return np.full(len(np.atleast_2d(batch)), self.value)
