"""Gaussian toy domain tests.

Density values are checked against scipy.stats.multivariate_normal, so the
analytic code never validates itself.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats
from scipy.special import expit, logsumexp

from arena import toy
from arena.config import (build_players, build_schedule, parse_config,
                          run_settings)
from arena.tournament import run_tournament

from conftest import (DENSITY_RTOL, SCORE_ATOL, gaussian_log_density,
                      reference_score, tiny_config_payload)


@pytest.fixture
def task():
    return toy.make_task(dim=4, seed=13)


class TestGaussianLogDensity:
    """The solve-based density of engine 1, kept in conftest as the
    reference that the whitened densities are held to."""

    @pytest.mark.parametrize("dim, seed", [(1, 0), (2, 5), (6, 42)])
    def test_matches_scipy(self, dim, seed):
        rng = np.random.default_rng(seed)
        mean = rng.standard_normal(dim)
        a = rng.standard_normal((dim, dim))
        cov = a.T @ a + 0.1 * np.eye(dim)
        factor = np.linalg.cholesky(cov).T
        x = rng.standard_normal((16, dim))
        ours = gaussian_log_density(x, mean, factor)
        reference = stats.multivariate_normal(mean, cov).logpdf(x)
        assert np.allclose(ours, reference, rtol=1e-10, atol=1e-10)

    def test_single_row_input(self):
        mean = np.zeros(2)
        factor = np.eye(2)
        value = gaussian_log_density(np.zeros(2), mean, factor)
        assert value.shape == (1,)
        assert math.isclose(value[0], -math.log(2.0 * math.pi), rel_tol=1e-12)

    def test_rejects_non_finite_input(self):
        with pytest.raises(ValueError, match="non-finite"):
            gaussian_log_density(np.array([[np.nan, 0.0]]), np.zeros(2),
                                 np.eye(2))

    @given(st.integers(1, 16), st.integers(1, 130), st.integers(1, 12),
           st.integers(0, 2**32 - 1), st.integers(0, 5))
    def test_stacked_models_equal_single_model_calls(self, dim, n, k, seed,
                                                     stack):
        # stack == 0 is one (n, dim) batch, otherwise (stack, n, dim).
        rng = np.random.default_rng(seed)
        models = []
        for _ in range(k):
            a = rng.standard_normal((dim, dim))
            cov = a.T @ a + 0.1 * np.eye(dim)
            models.append(toy.GaussianModel(rng.standard_normal(dim),
                                            cov=cov))
        batches = 3.0 * rng.standard_normal((max(stack, 1), n, dim))
        x = batches if stack else batches[0]
        stacked = gaussian_log_density(
            x, np.stack([m.mean for m in models]),
            np.stack([m.factor for m in models]))
        assert stacked.shape == (k, *x.shape[:-1])
        for row, model in zip(stacked, models):
            single = gaussian_log_density(x, model.mean, model.factor)
            assert np.array_equal(row, single)
            for values, batch in zip(row.reshape(-1, n), batches):
                assert np.array_equal(values, gaussian_log_density(
                    batch, model.mean, model.factor))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_stacked_path_rejects_non_finite_input(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            gaussian_log_density(np.array([[0.0, 1.0], [bad, 0.0]]),
                                 np.zeros((3, 2)),
                                 np.stack([np.eye(2)] * 3))


class TestGaussianModel:
    def test_factor_and_cov_are_consistent(self):
        factor = np.array([[2.0, 1.0], [0.0, 3.0]])
        model = toy.GaussianModel(np.zeros(2), factor=factor)
        assert np.array_equal(model.cov, factor.T @ factor)

    def test_exactly_one_parameterization(self):
        with pytest.raises(ValueError, match="exactly one"):
            toy.GaussianModel(np.zeros(2), cov=np.eye(2), factor=np.eye(2))
        with pytest.raises(ValueError, match="exactly one"):
            toy.GaussianModel(np.zeros(2))

    def test_non_positive_definite_cov_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            toy.GaussianModel(np.zeros(2), cov=np.array([[1.0, 2.0],
                                                         [2.0, 1.0]]))

    def test_sampling_is_deterministic_per_rng(self):
        model = toy.GaussianModel(np.array([1.0, -1.0]), cov=np.eye(2))
        a = model.sample(5, np.random.default_rng(3))
        b = model.sample(5, np.random.default_rng(3))
        assert np.array_equal(a, b)
        assert a.shape == (5, 2)

    def test_sample_moments_approach_the_model(self):
        factor = np.array([[2.0, 0.5], [0.0, 1.0]])
        model = toy.GaussianModel(np.array([3.0, -2.0]), factor=factor)
        batch = model.sample(60_000, np.random.default_rng(11))
        assert np.allclose(batch.mean(axis=0), model.mean, atol=0.03)
        assert np.allclose(np.cov(batch.T), model.cov, atol=0.08)


class TestMakeTask:
    def test_canonical_cov_comes_from_its_factor(self, task):
        assert np.array_equal(task.cov, task.factor.T @ task.factor)

    def test_deterministic_per_seed(self):
        again = toy.make_task(dim=4, seed=13)
        other = toy.make_task(dim=4, seed=14)
        assert np.array_equal(again.cov, toy.make_task(4, 13).cov)
        assert not np.array_equal(again.cov, other.cov)

    def test_scale_definition(self, task):
        assert math.isclose(task.scale,
                            math.sqrt(np.trace(task.cov) / task.dim),
                            rel_tol=1e-12)

    def test_dim_must_be_positive(self):
        with pytest.raises(ValueError, match="dim must be >= 1"):
            toy.make_task(0, seed=1)


class TestTrajectory:
    @pytest.mark.parametrize("n, fraction, expected", [
        (20, 1.0, 19),   # mastery only at the very end
        (20, 0.5, 10),   # halfway
        (8, 0.5, 4),     # ceil(3.5)
        (2, 1.0, 1),     # shortest run
    ])
    def test_mastery_index(self, n, fraction, expected):
        assert toy.mastery_index(n, fraction) == expected

    def test_final_checkpoint_reproduces_the_task_exactly(self, task):
        gens = toy.trajectory(task, 6, seed=3)
        final = gens[-1]
        assert np.array_equal(final.weights, task.factor)
        assert np.array_equal(final.offset, task.mean)
        assert toy.cov_error(final, task) == 0.0

    def test_every_checkpoint_past_mastery_is_exact(self, task):
        gens = toy.trajectory(task, 8, mastery_fraction=0.5, seed=3)
        for k in range(toy.mastery_index(8, 0.5), 8):
            assert np.array_equal(gens[k].weights, task.factor), f"k={k}"

    def test_quality_improves_monotonically(self, task):
        gens = toy.trajectory(task, 10, seed=3)
        errors = [toy.cov_error(g, task) for g in gens]
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] == 0.0

    def test_deterministic_per_seed(self, task):
        a = toy.trajectory(task, 5, seed=7)[1]
        b = toy.trajectory(task, 5, seed=7)[1]
        c = toy.trajectory(task, 5, seed=8)[1]
        assert np.array_equal(a.weights, b.weights)
        assert not np.array_equal(a.weights, c.weights)

    def test_checkpoint_indices_are_recorded(self, task):
        gens = toy.trajectory(task, 4, seed=0)
        assert [g.checkpoint for g in gens] == [0, 1, 2, 3]

    @pytest.mark.parametrize("n, fraction", [
        (1, 1.0),    # too short
        (5, 0.0),    # never reaches the target
        (5, 1.5),    # cannot overshoot
    ])
    def test_invalid_parameters_rejected(self, task, n, fraction):
        with pytest.raises(ValueError):
            toy.trajectory(task, n, mastery_fraction=fraction)


class TestLinearGenerator:
    def test_moments_are_analytic(self):
        weights = np.array([[1.0, 2.0], [0.0, 1.0]])
        offset = np.array([5.0, -1.0])
        gen = toy.LinearGenerator(weights, offset, checkpoint=0)
        mean, cov = gen.moments()
        assert np.array_equal(mean, offset)
        assert np.array_equal(cov, weights.T @ weights)

    def test_sampled_moments_match_the_analytic_ones(self):
        weights = np.array([[1.5, 0.2], [0.0, 0.8]])
        gen = toy.LinearGenerator(weights, np.array([1.0, 2.0]), 0)
        batch = gen.sample(60_000, np.random.default_rng(4))
        _, cov = gen.moments()
        assert np.allclose(batch.mean(axis=0), gen.offset, atol=0.03)
        assert np.allclose(np.cov(batch.T), cov, atol=0.05)

    def test_exact_generator_shares_the_task_model(self, task):
        exact = toy.LinearGenerator(task.factor, task.mean, 9)
        assert exact.density_model(task) is task.model

    def test_inexact_generator_gets_a_jittered_model(self, task):
        gen = toy.trajectory(task, 5, seed=3)[1]
        model = gen.density_model(task)
        assert model is not task.model
        assert model is gen.density_model(task)  # cached
        _, cov = gen.moments()
        assert np.allclose(model.cov, cov, rtol=1e-4)


class TestOracleDiscriminator:
    def test_perfect_generator_scores_exactly_half(self, task):
        exact = toy.LinearGenerator(task.factor, task.mean, 0)
        oracle = toy.OracleDiscriminator(task.model,
                                         [exact.density_model(task)])
        batch = task.model.sample(32, np.random.default_rng(0))
        assert np.all(oracle.score(batch) == 0.5)

    def test_data_scores_above_half_against_a_weak_fake(self, task):
        weak = toy.trajectory(task, 5, seed=3)[0]
        oracle = toy.OracleDiscriminator(task.model,
                                         [weak.density_model(task)])
        data = task.model.sample(256, np.random.default_rng(1))
        fakes = weak.sample(256, np.random.default_rng(2))
        assert oracle.score(data).mean() > 0.5 > oracle.score(fakes).mean()

    def test_scores_live_in_the_unit_interval(self, task):
        weak = toy.trajectory(task, 5, seed=3)[0]
        oracle = toy.OracleDiscriminator(task.model,
                                         [weak.density_model(task)])
        scores = oracle.judge(task.model.sample(64, np.random.default_rng(0)))
        assert np.all((scores >= 0.0) & (scores <= 1.0))

    def test_mixture_differs_from_single_reference(self, task):
        gens = toy.trajectory(task, 5, seed=3)
        single = toy.OracleDiscriminator(task.model,
                                         [gens[0].density_model(task)])
        mixed = toy.OracleDiscriminator(task.model,
                                        [gens[0].density_model(task),
                                         gens[3].density_model(task)])
        batch = task.model.sample(64, np.random.default_rng(5))
        assert not np.allclose(single.score(batch), mixed.score(batch))

    def test_needs_at_least_one_reference(self, task):
        with pytest.raises(ValueError, match="at least one"):
            toy.OracleDiscriminator(task.model, [])

    @pytest.mark.parametrize("panel", ["oracle", "chekhov"])
    def test_matches_the_scipy_reference(self, task, panel):
        gens = toy.trajectory(task, 20, seed=3)
        if panel == "oracle":
            disc = toy.OracleDiscriminator(task.model,
                                           [gens[4].density_model(task)])
        else:
            disc = toy.chekhov_discriminator(task, gens, 15, seed=7)
        assert len(disc.fake_models) == (1 if panel == "oracle" else 11)
        batch = np.concatenate([
            task.model.sample(64, np.random.default_rng(1)),
            gens[4].sample(64, np.random.default_rng(2)),
            gens[15].sample(64, np.random.default_rng(3))])
        densities = [gaussian_log_density(batch, m.mean, m.factor)
                     for m in [disc.data_model, *disc.fake_models]]
        ld_data, stacked = densities[0], np.stack(densities[1:])
        ld_fake = logsumexp(stacked, axis=0) - math.log(len(stacked))
        expected = expit(ld_data - ld_fake)
        assert np.abs(disc.score(batch) - expected).max() <= 1e-12

    @pytest.mark.parametrize("panel", ["oracle", "chekhov", "mastered"])
    def test_score_matches_the_engine_1_formula(self, task, panel):
        gens = toy.trajectory(task, 20, seed=3)
        if panel == "oracle":
            disc = toy.OracleDiscriminator(task.model,
                                           [gens[4].density_model(task)])
        elif panel == "chekhov":
            disc = toy.chekhov_discriminator(task, gens, 15, seed=7)
        else:
            disc = toy.OracleDiscriminator(task.model,
                                           [gens[19].density_model(task)])
        assert len(disc.fake_models) == (11 if panel == "chekhov" else 1)
        batch = np.concatenate([
            task.model.sample(64, np.random.default_rng(1)),
            gens[4].sample(64, np.random.default_rng(2)),
            gens[15].sample(64, np.random.default_rng(3))])
        scores = disc.score(batch)
        reference = reference_score(disc.data_model, disc.fake_models, batch)
        assert np.abs(scores - reference).max() <= SCORE_ATOL
        if panel == "mastered":
            assert np.all(scores == 0.5)

    @pytest.mark.parametrize("index", [0, 1, 5, 15])
    def test_one_solve_per_score_whatever_the_panel_size(self, task, index,
                                                         monkeypatch):
        # Engine 2 whitens where engine 1 solved: one pass over the data
        # model and every reference, one einsum each, whatever the panel
        # size.
        disc = toy.chekhov_discriminator(task, toy.trajectory(task, 20,
                                                              seed=3),
                                         index, seed=7)
        assert len(disc.fake_models) == min(index, 10) + 1
        calls = []
        einsum = np.einsum

        def counting_einsum(*args, **kwargs):
            calls.append(args)
            return einsum(*args, **kwargs)

        monkeypatch.setattr(np, "einsum", counting_einsum)
        disc.score(task.model.sample(8, np.random.default_rng(0)))
        assert len(calls) == len(disc.fake_models) + 1
        assert all(args[1].shape == (8, task.dim) for args in calls)

    def test_rejects_non_finite_samples(self, task):
        oracle = toy.noise_oracle(task, severity=3)
        batch = task.model.sample(4, np.random.default_rng(0))
        batch[2, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            oracle.score(batch)

    def test_far_samples_saturate_without_warnings(self, task):
        weak = toy.trajectory(task, 5, seed=3)[0]
        oracle = toy.OracleDiscriminator(task.model,
                                         [weak.density_model(task)])
        noised = toy.noise_oracle(task, severity=9)
        far = (task.mean + 1e3 * task.scale * np.ones(task.dim))[None, :]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert oracle.score(far)[0] == 1.0
            assert noised.score(far)[0] == 0.0


class TestForgettingDiscriminator:
    def make(self, task, mastered):
        gen = toy.trajectory(task, 5, seed=3)[1]
        return toy.ForgettingDiscriminator(task.model,
                                           [gen.density_model(task)],
                                           mastered=mastered)

    def test_before_mastery_judges_like_the_oracle(self, task):
        disc = self.make(task, mastered=False)
        batch = task.model.sample(16, np.random.default_rng(0))
        assert np.array_equal(disc.judge(batch, np.random.default_rng(8)),
                              disc.score(batch))

    def test_after_mastery_judgments_are_noise(self, task):
        disc = self.make(task, mastered=True)
        batch = task.model.sample(16, np.random.default_rng(0))
        scores = disc.judge(batch, np.random.default_rng(8))
        assert np.array_equal(scores, np.random.default_rng(8).random(16))
        assert not np.array_equal(scores, disc.score(batch))


def every_panel(task, index: int) -> tuple[dict, list]:
    """Every toy panel kind, built around checkpoint ``index`` of a
    20-checkpoint trajectory, and the trajectory."""
    gens = toy.trajectory(task, 20, seed=3)
    model = gens[index].density_model(task)
    return {
        "oracle": toy.OracleDiscriminator(task.model, [model]),
        "chekhov": toy.chekhov_discriminator(task, gens, index, seed=7),
        "noise_oracle": toy.noise_oracle(task, severity=index % 9 + 1),
        "forgetting": toy.ForgettingDiscriminator(task.model, [model],
                                                  mastered=False),
        "mastered": toy.ForgettingDiscriminator(task.model, [model],
                                                mastered=True),
    }, gens


class TestWhitenedDensities:
    @given(st.sampled_from(["oracle", "chekhov", "noise_oracle",
                            "forgetting", "mastered"]),
           st.sampled_from([1, 3, 8]), st.integers(0, 19), st.integers(1, 4),
           st.integers(1, 40), st.integers(0, 2**32 - 1))
    # Checkpoint 0 is a 0.05-scaled map: its jittered covariance is nearly
    # singular. One sample per batch is the other edge.
    @example(panel="oracle", dim=8, index=0, m=3, n=1, seed=0)
    @example(panel="chekhov", dim=8, index=19, m=2, n=1, seed=1)
    @settings(max_examples=60, deadline=None)
    def test_within_the_fixed_tolerances_of_the_solve_reference(
            self, panel, dim, index, m, n, seed):
        task = toy.make_task(dim, seed=13)
        panels, gens = every_panel(task, index)
        disc = panels[panel]
        models = [disc.data_model, *disc.fake_models]
        rng = np.random.default_rng(seed)
        sources = [task.model, *gens]
        batches = np.stack([
            sources[rng.integers(len(sources))].sample(n, rng)
            for _ in range(m)])
        reference = gaussian_log_density(
            batches, np.stack([mo.mean for mo in models]),
            np.stack([mo.factor for mo in models]))
        densities = disc.log_densities(batches)
        assert densities.shape == (len(models), m, n)
        assert np.all(np.abs(densities - reference)
                      <= DENSITY_RTOL * np.maximum(1.0, np.abs(reference)))
        for batch in batches:
            assert np.abs(disc.score(batch) - reference_score(
                disc.data_model, disc.fake_models, batch)).max() <= SCORE_ATOL

    @given(st.sampled_from(["oracle", "chekhov", "noise_oracle"]),
           st.sampled_from([1, 3, 8]), st.integers(0, 19),
           st.sampled_from([None, 1, 2, 14]), st.sampled_from([1, 2, 64]),
           st.integers(0, 2**32 - 1))
    @example(panel="chekhov", dim=1, index=19, m=None, n=1, seed=0)
    @example(panel="chekhov", dim=1, index=19, m=14, n=1, seed=0)
    @settings(max_examples=60, deadline=None)
    def test_bit_for_bit_the_per_model_broadcast(self, panel, dim, index, m,
                                                 n, seed):
        # log_densities goes through reused buffers; its bits must be those
        # of the per-model broadcast.
        task = toy.make_task(dim, seed=13)
        disc = every_panel(task, index)[0][panel]
        shape = (n, dim) if m is None else (m, n, dim)
        batch = 3.0 * np.random.default_rng(seed).standard_normal(shape)
        reference = []
        for model in (disc.data_model, *disc.fake_models):
            z = (batch - model.mean) @ model.whitening
            offset = -0.5 * (model.log_det + dim * math.log(2.0 * math.pi))
            reference.append(offset - 0.5 * np.einsum("...i,...i->...", z, z))
        densities = disc.log_densities(batch)
        assert densities.shape == (len(reference),) + shape[:-1]
        assert densities.tobytes() == np.stack(reference).tobytes()

    def test_models_cache_their_whitening_and_log_determinant(self, task):
        for gen in toy.trajectory(task, 5, seed=3):
            model = gen.density_model(task)
            assert np.allclose(model.whitening @ model.factor,
                               np.eye(task.dim), atol=1e-9)
            assert math.isclose(model.log_det,
                                np.linalg.slogdet(model.cov)[1],
                                rel_tol=1e-9, abs_tol=1e-9)


class TestJudgeMany:
    @given(st.sampled_from(["oracle", "chekhov", "noise_oracle",
                            "forgetting", "mastered"]),
           st.integers(1, 12), st.integers(1, 70), st.integers(0, 2**32 - 1))
    # One sample per batch with eleven chekhov references: numpy sums the
    # stacked and the single-batch mixture terms in different orders.
    @example(panel="chekhov", m=4, n=1, seed=70154)
    def test_equals_per_batch_judge_bit_for_bit(self, panel, m, n, seed):
        task = toy.make_task(dim=4, seed=13)
        panels, gens = every_panel(task, 15)
        disc = panels[panel]
        rng = np.random.default_rng(seed)
        sources = [task.model, *gens]
        batches = np.stack([
            sources[rng.integers(len(sources))].sample(n, rng)
            for _ in range(m)])

        # As the engine passes them: each match's stream twice in a row.
        def streams():
            own = [np.random.default_rng([seed, k]) for k in range(m)]
            return [own[k // 2] for k in range(m)]

        scores = disc.judge_many(batches, streams())
        assert scores.shape == (m, n)
        per_batch = [disc.judge(b, r) for b, r in zip(batches, streams())]
        assert np.array_equal(scores, np.stack(per_batch))
        if panel == "mastered":
            assert np.array_equal(scores[0], np.random.default_rng(
                [seed, 0]).random(n))
        else:
            for row, batch in zip(scores, batches):
                assert np.abs(row - reference_score(
                    disc.data_model, disc.fake_models,
                    batch)).max() <= SCORE_ATOL


class TestSampleMany:
    @given(st.integers(0, 19), st.sampled_from([1, 3, 8]), st.integers(1, 32),
           st.sampled_from([1, 2, 7, 64]), st.integers(0, 2**32 - 1))
    @example(source=0, dim=8, m=32, n=1, seed=0)
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_sample_per_stream(self, source, dim, m, n, seed):
        # The task's own model (the data source of a run) or a jittered
        # checkpoint model, which has no factor of the task.
        task = toy.make_task(dim, seed=13)
        model = (task.model if source == 0 else toy.trajectory(
            task, 20, seed=3)[source].density_model(task))
        many = model.sample_many(n, [np.random.default_rng([seed, k])
                                     for k in range(m)])
        assert many.shape == (m, n, dim)
        for k, row in enumerate(many):
            assert row.tobytes() == model.sample(
                n, np.random.default_rng([seed, k])).tobytes()


class TestChekhovSizedStacks:
    @given(st.integers(0, 19), st.integers(1, 16),
           st.sampled_from([1, 2, 64]), st.integers(0, 2**32 - 1))
    # Twelve models, sixteen batches of 64: the (12, 16, 64, 8) stack of the
    # densities' old temporaries was 768 KiB.
    @example(index=19, m=16, n=64, seed=0)
    @settings(max_examples=40, deadline=None)
    def test_judge_many_equals_per_batch_judge(self, index, m, n, seed):
        task = toy.make_task(dim=8, seed=13)
        gens = toy.trajectory(task, 20, seed=3)
        disc = toy.chekhov_discriminator(task, gens, index, seed=7)
        assert len(disc.fake_models) + 1 == min(index, 10) + 2
        rng = np.random.default_rng(seed)
        sources = [task.model, *gens]
        batches = np.stack([sources[rng.integers(len(sources))].sample(n, rng)
                            for _ in range(m)])
        scores = disc.judge_many(batches, [None] * m)
        assert scores.tobytes() == np.stack(
            [disc.judge(batch) for batch in batches]).tobytes()


class TestReservoirSample:
    def test_short_streams_pass_through(self):
        rng = np.random.default_rng(0)
        assert toy.reservoir_sample([1, 2], 5, rng) == [1, 2]

    def test_sample_is_a_subset_without_replacement(self):
        items = list(range(50))
        kept = toy.reservoir_sample(items, 10, np.random.default_rng(2))
        assert len(kept) == 10
        assert len(set(kept)) == 10
        assert set(kept) <= set(items)

    def test_deterministic_per_rng(self):
        items = list(range(30))
        a = toy.reservoir_sample(items, 5, np.random.default_rng(9))
        b = toy.reservoir_sample(items, 5, np.random.default_rng(9))
        assert a == b

    def test_inclusion_is_roughly_uniform(self):
        items = list(range(10))
        rng = np.random.default_rng(123)
        counts = np.zeros(10)
        draws = 2000
        for _ in range(draws):
            for item in toy.reservoir_sample(items, 3, rng):
                counts[item] += 1
        freqs = counts / draws
        assert np.all(np.abs(freqs - 0.3) < 0.05), f"frequencies {freqs}"


class TestChekhovDiscriminator:
    def test_reference_count_grows_with_history_up_to_capacity(self, task):
        gens = toy.trajectory(task, 12, seed=3)
        early = toy.chekhov_discriminator(task, gens, 2, capacity=4)
        late = toy.chekhov_discriminator(task, gens, 11, capacity=4)
        assert len(early.fake_models) == 3   # both predecessors + itself
        assert len(late.fake_models) == 5    # reservoir of 4 + itself
        assert late.checkpoint == 11

    def test_current_generator_always_included(self, task):
        gens = toy.trajectory(task, 6, seed=3)
        disc = toy.chekhov_discriminator(task, gens, 4, capacity=2)
        assert disc.fake_models[-1] is gens[4].density_model(task)

    def test_deterministic_per_seed(self, task):
        gens = toy.trajectory(task, 12, seed=3)
        a = toy.chekhov_discriminator(task, gens, 9, capacity=3, seed=5)
        b = toy.chekhov_discriminator(task, gens, 9, capacity=3, seed=5)
        batch = task.model.sample(8, np.random.default_rng(0))
        assert np.array_equal(a.score(batch), b.score(batch))


class TestTransformPlayer:
    def test_sample_is_base_plus_distortion(self, task):
        player = toy.TransformPlayer(task.model, 2, task.scale)
        got = player.sample(16, np.random.default_rng(3))
        mirror_rng = np.random.default_rng(3)
        base = task.model.sample(16, mirror_rng)
        sigma = 0.25 * 2 * task.scale
        expected = base + sigma * mirror_rng.standard_normal(base.shape)
        assert np.array_equal(got, expected)

    def test_severity_bounds(self, task):
        for severity in (0, 10):
            with pytest.raises(ValueError, match="severity"):
                toy.TransformPlayer(task.model, severity, 1.0)

    def test_dim_follows_the_base(self, task):
        player = toy.TransformPlayer(task.model, 1, 1.0)
        assert player.dim == task.dim


class TestNoiseOracle:
    def test_reference_covariance_is_inflated_isotropically(self, task):
        oracle = toy.noise_oracle(task, severity=3)
        sigma = 0.25 * 3 * task.scale
        expected = task.cov + sigma * sigma * np.eye(task.dim)
        assert np.array_equal(oracle.fake_models[0].cov, expected)
        assert np.array_equal(oracle.fake_models[0].mean, task.mean)

    def test_separates_data_from_its_noised_copy(self, task):
        oracle = toy.noise_oracle(task, severity=3)
        noisy = toy.TransformPlayer(task.model, 3, task.scale)
        data = task.model.sample(512, np.random.default_rng(1))
        fakes = noisy.sample(512, np.random.default_rng(2))
        assert oracle.score(data).mean() > 0.6
        assert oracle.score(fakes).mean() < 0.4


class TestConstantDiscriminator:
    def test_emits_the_constant(self):
        disc = toy.ConstantDiscriminator(0.25)
        assert np.array_equal(disc.judge(np.zeros((5, 2))), np.full(5, 0.25))

    @pytest.mark.parametrize("value", [-0.1, 1.1])
    def test_value_range_enforced(self, value):
        with pytest.raises(ValueError, match="score value"):
            toy.ConstantDiscriminator(value)


class ReferenceDiscriminator:
    """Judges like a toy oracle, chekhov or forgetting discriminator, but
    scores through reference_score."""

    def __init__(self, disc: toy.OracleDiscriminator):
        self.disc = disc

    def judge(self, batch, rng=None) -> np.ndarray:
        if getattr(self.disc, "mastered", False):
            return rng.random(len(np.atleast_2d(batch)))
        return reference_score(self.disc.data_model, self.disc.fake_models,
                               batch)


class TestStackedJudgingInTournaments:
    def test_records_equal_those_of_per_model_reference_judges(self):
        entries = [{"kind": "toy_trajectory", "experiment": kind,
                    "n_checkpoints": 6, "mastery_fraction": 0.5,
                    "discriminators": kind, "trajectory_seed": 21 + i,
                    "panel_seed": 5, "chekhov_capacity": 3}
                   for i, kind in enumerate(["chekhov", "oracle",
                                             "forgetting"])]
        config = parse_config(tiny_config_payload(players=entries))
        built = build_players(config)
        schedule = build_schedule(config, built.specs)
        records = list(run_tournament(schedule, built.players, built.data,
                                      run_settings(config)))
        reference = {
            pid: ReferenceDiscriminator(player)
            if isinstance(player, toy.OracleDiscriminator) else player
            for pid, player in built.players.items()}
        assert len(records) == 18 * 18
        assert len({r.fake_wins + r.real_wins for r in records}) > 5
        assert list(run_tournament(schedule, reference, built.data,
                                   run_settings(config))) == records
