"""Summary artifact tests.

Correlation values are frozen from scipy.stats (spearmanr / pearsonr) so the
rank handling here is checked against an external implementation.
"""

from __future__ import annotations

import csv
import math
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from arena.glicko import Rating
from arena.summarize import (WIN_RATE_WARNING, CurvePoint, Heatmap,
                             _layout, _means, _pair_rates,
                             format_summary_table,
                             pair_win_rates, pearson, skill_curve, spearman,
                             summarize, write_curve_svg, write_heatmap_csv,
                             write_heatmap_svg, write_summary_csv)
from arena.tournament import MatchRecord, MatchTable, PlayerSpec

from conftest import (column_means, reference_heatmap_values,
                      reference_pair_win_rates, reference_tournament_win_rate,
                      round_robin_table, tournament_win_rate)


def record(gen: str, disc: str, wins: int, n: int = 8,
           repeat_seed: int = 0) -> MatchRecord:
    # wins counts total generator wins across both judged batches.
    return MatchRecord(generator_id=gen, discriminator_id=disc, n_fake=n,
                       fake_wins=min(wins, n), n_real=n,
                       real_wins=max(0, wins - n), seed=repeat_seed)


def per_cell_heatmap_csv(path, hm: Heatmap) -> None:
    """The heatmap CSV formatted one cell at a time: each value with
    ``:.6f``, a NaN as a blank cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["discriminator\\generator", *hm.generator_ids])
        for disc_id, row in zip(hm.discriminator_ids, hm.values):
            cells = [f"{v:.6f}" for v in row.tolist()]
            for j in np.flatnonzero(np.isnan(row)).tolist():
                cells[j] = ""
            writer.writerow([disc_id, *cells])


def per_cell_heatmap_svg(path, hm: Heatmap, cell: int) -> None:
    """The heatmap SVG drawn one cell at a time: a win rate clamped to
    [0, 1] maps to grey level round(255 * rate), a NaN to a red cell."""
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{cell * len(hm.generator_ids)}" '
             f'height="{cell * len(hm.discriminator_ids)}">']
    for i, row in enumerate(hm.values.tolist()):
        for j, value in enumerate(row):
            if value != value:
                fill = "#d04040"
            else:
                level = round(max(0.0, min(1.0, value)) * 255.0)
                fill = f"#{level:02x}{level:02x}{level:02x}"
            lines.append(f'<rect x="{j * cell}" y="{i * cell}" '
                         f'width="{cell}" height="{cell}" fill="{fill}"/>')
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# Cell values with repeats, both zeros, NaN, subnormals, values that round
# to -0.000000, and the win rates of small matches.
cell_values = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, 5e-324, -5e-324, 2.2e-308, -1e-9,
                     0.5, 1.0, 0.0000005, 0.0000015]),
    st.integers(0, 16).map(lambda k: k / 16),
    st.floats(allow_nan=True, allow_infinity=True))
# Win rates for the SVG: both zeros, NaN, both infinities, values off
# [0, 1], every k/255 and every tie half-way between two grey levels.
svg_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, math.nan, math.inf, -math.inf, 5e-324,
                     -1e-9, 1 + 1e-9]),
    st.integers(0, 255).map(lambda k: k / 255),
    st.integers(0, 254).map(lambda k: (k + 0.5) / 255),
    st.floats(-2.0, 2.0))
# Ids that csv.writer must quote.
csv_ids = st.text(alphabet='ab,"\n\r ', min_size=1, max_size=4)


def layout(records, generator_ids, discriminator_ids) -> Heatmap:
    """The records' pair win rates laid out on the given axes."""
    return _layout(_pair_rates(MatchTable.from_records(records)),
                   generator_ids, discriminator_ids)


def same_cells(values, expected) -> bool:
    """Equal shape and cells, a NaN (never played) equal to a NaN."""
    return np.array_equal(values, np.array(expected, dtype=float),
                          equal_nan=True)


class TestWinRates:
    def test_pair_rates_average_repeats(self):
        records = [record("g", "d", 4, n=8), record("g", "d", 12, n=8,
                                                    repeat_seed=1)]
        rates = pair_win_rates(MatchTable.from_records(records))
        assert rates == {("g", "d"): (0.25 + 0.75) / 2.0}

    def test_tournament_rate_weights_each_opponent_once(self):
        records = [record("g", "d1", 16, n=8),   # 1.0 against d1
                   record("g", "d2", 4, n=8),    # 0.25 once ...
                   record("g", "d2", 4, n=8, repeat_seed=1)]  # ... twice
        rates = tournament_win_rate(MatchTable.from_records(records))
        assert math.isclose(rates["g"], (1.0 + 0.25) / 2.0)

    def test_absent_generators_are_absent(self):
        rates = tournament_win_rate(
            MatchTable.from_records([record("g1", "d", 8)]))
        assert "g2" not in rates


    def test_records_without_judged_samples_are_left_out(self):
        table = MatchTable.from_records([
            record("g1", "d1", 0, n=0), record("g1", "d1", 6, n=8),
            record("g1", "d2", 0, n=0), record("g2", "d1", 0, n=0)])
        rates = pair_win_rates(table)
        assert rates == {("g1", "d1"): 6 / 16}
        assert tournament_win_rate(table) == {"g1": 6 / 16}


trials = st.integers(0, 40).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n)))
# Few ids, so pairs repeat; no judged samples now and then.
repeated_records = st.lists(st.builds(
    lambda gen, disc, fake, real: MatchRecord(
        f"g{gen}", f"d{disc}", fake[0], fake[1], real[0], real[1], seed=0),
    st.integers(0, 3), st.integers(0, 3), trials, trials), max_size=40)


class TestReferenceIdentity:
    """Column sums equal the dict-of-lists loops bit for bit."""

    @given(repeated_records)
    @settings(max_examples=80)
    def test_pairs_generators_and_heatmap(self, records):
        expected = reference_pair_win_rates(records)
        expected_rates = reference_tournament_win_rate(expected)
        table = MatchTable.from_records(records)
        pairs = pair_win_rates(table)
        assert pairs == expected
        assert list(pairs) == list(expected)
        rates = tournament_win_rate(table)
        assert rates == expected_rates
        assert list(rates) == list(expected_rates)
        # Axes with ids that never played, and one id twice.
        gens = ["g3", "g0", "g9", "g1", "g2", "g0"]
        discs = ["d2", "d9", "d0", "d1", "d3", "d2"]
        assert same_cells(layout(records, gens, discs).values,
                          reference_heatmap_values(expected, gens, discs))

        specs = ([PlayerSpec(f"g{i}", "generator", iteration=3 - i)
                  for i in range(4)]
                 + [PlayerSpec(f"d{i}", "discriminator", iteration=i)
                    for i in range(4)])
        summary = summarize(table, {}, specs)
        assert summary.win_rates == expected_rates
        assert list(summary.win_rates) == list(expected_rates)
        assert summary.heatmap.generator_ids == ("g3", "g2", "g1", "g0")
        assert same_cells(summary.heatmap.values, reference_heatmap_values(
            expected, summary.heatmap.generator_ids,
            summary.heatmap.discriminator_ids))


def unique_means(keys: np.ndarray, values: np.ndarray):
    """_means through np.unique's first indices and inverse, renumbered by
    first appearance: the reference for the sort-and-scan _means."""
    _, first, inverse = np.unique(keys, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    group = rank[inverse]
    return first[order], (np.bincount(group, values, minlength=len(order))
                          / np.bincount(group, minlength=len(order)))


# Keys from a small range, so they repeat and first appear out of order;
# values whose sums depend on the order they are added in.
mean_inputs = st.integers(0, 60).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-3, 6), min_size=n, max_size=n),
    st.lists(st.one_of(st.floats(-1e6, 1e6), st.sampled_from(
        [0.1, 0.2, 0.3, 1e-300, -0.0])), min_size=n, max_size=n)))


class TestMeans:
    @given(mean_inputs)
    @example(([5], [0.25]))
    @example(([4, 4, 4], [0.1, 0.2, 0.3]))
    @example(([3, 1, 3, 2, 1], [0.1, 0.7, 0.2, 1e-300, 0.3]))
    @settings(max_examples=200)
    def test_equals_the_unique_reference_bit_for_bit(self, drawn):
        keys = np.array(drawn[0], dtype=np.intp)
        values = np.array(drawn[1], dtype=float)
        first, means = _means(keys, values)
        expected_first, expected_means = unique_means(keys, values)
        assert first.dtype == expected_first.dtype
        assert first.tolist() == expected_first.tolist()
        assert means.dtype == expected_means.dtype
        assert means.tobytes() == expected_means.tobytes()

    def test_summarize_peaks_below_72_bytes_a_record(self):
        # A 316x316 round robin: every record its own pair. np.unique's
        # inverse and the sorted gather of the heatmap lifted the traced
        # peak to 121 bytes a record; the sort-and-scan means and the
        # scattered heatmap peak at 56.
        table = round_robin_table(316)
        specs = [PlayerSpec(pid, "generator" if pid.startswith("g")
                            else "discriminator") for pid in table.ids]
        ratings = {pid: Rating() for pid in table.ids}
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            summarize(table, ratings, specs)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak / len(table) < 72.0


class TestHeatmap:
    def test_layout_and_missing_cells(self):
        records = [record("g1", "d1", 8), record("g2", "d2", 4)]
        hm = layout(records, ["g1", "g2"], ["d1", "d2"])
        assert same_cells(hm.values, [[0.5, math.nan], [math.nan, 0.25]])

    def test_generator_means_ignore_missing_cells(self):
        records = [record("g1", "d1", 8), record("g1", "d2", 4),
                   record("g2", "d1", 16)]
        hm = layout(records, ["g1", "g2"], ["d1", "d2"])
        assert same_cells(hm.values, [[0.5, 1.0], [0.25, math.nan]])
        rates = tournament_win_rate(MatchTable.from_records(records))
        for gen_id, mean in column_means(hm).items():
            assert abs(mean - rates[gen_id]) < 1e-12
        assert math.isclose(rates["g1"], (0.5 + 0.25) / 2.0)
        assert math.isclose(rates["g2"], 1.0)

    def test_means_equal_tournament_win_rate_on_full_grids(self):
        records = [record(g, d, wins)
                   for g, wins in (("g1", 3), ("g2", 11))
                   for d in ("d1", "d2")]
        hm = layout(records, ["g1", "g2"], ["d1", "d2"])
        rates = tournament_win_rate(MatchTable.from_records(records))
        for gen_id, mean in column_means(hm).items():
            assert abs(mean - rates[gen_id]) < 1e-12


class TestCorrelations:
    def test_spearman_frozen_example(self):
        # scipy.stats.spearmanr([1,2,3,4], [1,3,2,4]) == 0.8
        assert math.isclose(spearman([1, 2, 3, 4], [1, 3, 2, 4]), 0.8,
                            rel_tol=1e-12)

    @pytest.mark.parametrize("ys, expected", [
        ([10.0, 20.0, 30.0], 1.0),    # monotone increasing
        ([30.0, 20.0, 10.0], -1.0),   # monotone decreasing
    ])
    def test_spearman_extremes(self, ys, expected):
        assert math.isclose(spearman([1.0, 2.0, 3.0], ys), expected,
                            rel_tol=1e-12)

    def test_spearman_average_ranks_for_ties(self):
        # scipy.stats.spearmanr([1,1,2], [1,2,3]) == 0.8660254037844387
        assert math.isclose(spearman([1.0, 1.0, 2.0], [1.0, 2.0, 3.0]),
                            0.8660254037844387, rel_tol=1e-12)

    def test_pearson_frozen_example(self):
        # scipy.stats.pearsonr([1,2,4,5], [1,3,3,6]) == 0.8856148855400954
        assert math.isclose(pearson([1.0, 2.0, 4.0, 5.0],
                                    [1.0, 3.0, 3.0, 6.0]),
                            0.8856148855400954, rel_tol=1e-12)

    def test_constant_series_raise(self):
        with pytest.raises(ValueError, match="constant"):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="length mismatch"):
            pearson([1.0], [1.0, 2.0])

    def test_too_short_raises(self):
        with pytest.raises(ValueError, match="two points"):
            spearman([1.0], [2.0])


class TestSkillCurve:
    def specs(self):
        return [PlayerSpec("a-g0", "generator", 0, "a"),
                PlayerSpec("a-g1", "generator", 1, "a"),
                PlayerSpec("b-g0", "generator", 0, "b"),
                PlayerSpec("a-d0", "discriminator", 0,
                           "a"),
                PlayerSpec("free", "generator", None, None)]

    def test_groups_by_experiment_and_sorts_by_iteration(self):
        ratings = {"a-g1": Rating(1600.0, 50.0), "a-g0": Rating(1400.0,
                                                                60.0),
                   "b-g0": Rating(1500.0, 70.0), "a-d0": Rating(),
                   "free": Rating()}
        curves = skill_curve(ratings, self.specs())
        assert set(curves) == {"a", "b"}
        assert [p.iteration for p in curves["a"]] == [0, 1]
        assert curves["a"][1].rating == 1600.0

    def test_players_without_iteration_or_rating_are_skipped(self):
        curves = skill_curve({"a-g0": Rating()}, self.specs())
        assert [p.iteration for p in curves["a"]] == [0]
        assert "free" not in {pid for pid in curves}

    def test_band_is_two_deviations(self):
        point = CurvePoint(3, 1500.0, 40.0)
        assert point.band == (1420.0, 1580.0)


class TestSummarize:
    def build(self):
        specs = [PlayerSpec("g1", "generator", 0, "run"),
                 PlayerSpec("g2", "generator", 1, "run"),
                 PlayerSpec("d1", "discriminator", 0,
                            "run")]
        records = MatchTable.from_records([record("g1", "d1", 4),
                                           record("g2", "d1", 12)])
        ratings = {"g1": Rating(1450.0, 80.0), "g2": Rating(1550.0, 80.0),
                   "d1": Rating(1500.0, 75.0)}
        return specs, records, ratings

    def test_rows_cover_every_rated_player(self):
        specs, records, ratings = self.build()
        summary = summarize(records, ratings, specs)
        assert [row.id for row in summary.rows] == ["d1", "g1", "g2"]
        by_id = {row.id: row for row in summary.rows}
        assert by_id["g1"].win_rate == 0.25
        assert by_id["d1"].win_rate is None  # never judged as a generator
        assert by_id["g2"].role == "generator"
        assert by_id["g2"].iteration == 1

    def test_an_id_without_a_spec_takes_its_role_from_the_table(self):
        specs = [PlayerSpec("g0", "generator", 0, "run"),
                 PlayerSpec("d0", "discriminator", 0,
                            "run")]
        records = MatchTable.from_records([record("g0", "d0", 4),
                                           record("g0", "d1", 12),
                                           record("g1", "d0", 8)])
        ratings = {pid: Rating() for pid in ("d0", "d1", "g0", "g1")}
        rows = {row.id: row for row in summarize(records, ratings,
                                                  specs).rows}
        assert rows["d1"].role == "discriminator"
        assert rows["d1"].win_rate is None
        assert rows["g1"].role == "generator"
        assert rows["g1"].win_rate == tournament_win_rate(records)["g1"]

    def test_non_round_robin_schedules_warn(self):
        # Every pair of g1, g2 and d1 has played. A discriminator that
        # judged nothing, or a pair whose one record has no judged sample,
        # leaves heatmap cells undefined, and each such pair counts.
        specs, records, ratings = self.build()
        assert summarize(records, ratings, specs).warnings == ()
        idle = [*specs, PlayerSpec("d2", "discriminator", 1, "run")]
        assert summarize(records, ratings, idle).warnings == (
            WIN_RATE_WARNING.format(missing=2, pairs=4),)
        unjudged = records.concat(MatchTable.from_records(
            [MatchRecord("g1", "d2", 0, 0, 0, 0, 7)]))
        assert summarize(unjudged, ratings, idle).warnings == (
            WIN_RATE_WARNING.format(missing=2, pairs=4),)

    def test_summary_retains_an_array_heatmap(self):
        # The heatmap is one float array, 8 bytes a cell; as nested tuples
        # of Python floats it kept about 33 bytes a record alive.
        table = round_robin_table(316)
        specs = [PlayerSpec(pid, "generator" if pid.startswith("g")
                            else "discriminator") for pid in table.ids]
        ratings = {pid: Rating() for pid in table.ids}
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            summary = summarize(table, ratings, specs)
            retained = tracemalloc.get_traced_memory()[0] - start
        finally:
            if not tracing:
                tracemalloc.stop()
        assert retained / len(table) < 16.0
        assert summary.heatmap.values.shape == (316, 316)

    def test_table_is_printable_and_complete(self):
        specs, records, ratings = self.build()
        specs.append(PlayerSpec("d2", "discriminator", 1, "run"))
        summary = summarize(records, ratings, specs)
        assert summary.warnings == (
            WIN_RATE_WARNING.format(missing=2, pairs=4),)
        table = format_summary_table(summary)
        assert "id" in table and "win_rate" in table
        assert "g2" in table and "1550.00" in table
        # The CLI prints the summary's warnings on stderr, so the table,
        # which goes to stdout, holds none.
        assert "warning" not in table


class TestArtifactFiles:
    def summary(self):
        specs, records, ratings = TestSummarize().build()
        return summarize(records, ratings, specs)

    def test_summary_csv_columns_and_formatting(self, tmp_path):
        path = tmp_path / "summary.csv"
        write_summary_csv(path, self.summary())
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["id", "experiment", "iteration", "role", "rating",
                           "deviation", "volatility", "win_rate"]
        body = {row[0]: row for row in rows[1:]}
        assert body["g1"][4] == "1450.000000"
        assert body["g1"][7] == "0.250000"
        assert body["d1"][7] == ""  # no win rate for discriminators

    def test_heatmap_csv_layout(self, tmp_path):
        records = [record("g1", "d1", 8), record("g2", "d2", 4)]
        hm = layout(records, ["g1", "g2"], ["d1", "d2"])
        path = tmp_path / "heatmap.csv"
        write_heatmap_csv(path, hm)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["discriminator\\generator", "g1", "g2"]
        assert rows[1] == ["d1", "0.500000", ""]
        assert rows[2] == ["d2", "", "0.250000"]

    @given(st.integers(0, 6).flatmap(lambda cols: st.tuples(
               st.lists(csv_ids, min_size=cols, max_size=cols),
               st.lists(st.tuples(csv_ids, st.lists(
                   cell_values, min_size=cols, max_size=cols)),
                   max_size=6))))
    @example((["g,1", 'g"2'], [("d\n1", [math.nan, -0.0]),
                               ("d 2", [0.0, 5e-324])]))
    @settings(max_examples=200, deadline=None)
    def test_heatmap_csv_equals_the_per_cell_writer(self, tmp_path_factory,
                                                    drawn):
        generator_ids, rows = drawn
        values = np.array([row for _, row in rows], dtype=float).reshape(
            len(rows), len(generator_ids))
        hm = Heatmap(tuple(generator_ids), tuple(d for d, _ in rows), values)
        directory = tmp_path_factory.mktemp("heatmap")
        write_heatmap_csv(directory / "got.csv", hm)
        per_cell_heatmap_csv(directory / "want.csv", hm)
        assert ((directory / "got.csv").read_bytes()
                == (directory / "want.csv").read_bytes())

    @given(st.integers(0, 6).flatmap(lambda cols: st.tuples(
               st.lists(csv_ids, min_size=cols, max_size=cols),
               st.lists(st.tuples(csv_ids, st.lists(
                   svg_values, min_size=cols, max_size=cols)),
                   max_size=6))),
           st.integers(1, 20))
    @example((["g,1", 'g"2'], [("d\n1", [math.nan, -0.0]),
                               ("d 2", [math.inf, 0.5 / 255])]), 14)
    @example(([], [("d<1", []), ("", [])]), 14)
    @example((["g&1"], []), 3)
    @settings(max_examples=200, deadline=None)
    def test_heatmap_svg_equals_the_per_cell_writer(self, tmp_path_factory,
                                                    drawn, cell):
        generator_ids, rows = drawn
        values = np.array([row for _, row in rows], dtype=float).reshape(
            len(rows), len(generator_ids))
        hm = Heatmap(tuple(generator_ids), tuple(d for d, _ in rows), values)
        directory = tmp_path_factory.mktemp("heatmap")
        write_heatmap_svg(directory / "got.svg", hm, cell=cell)
        per_cell_heatmap_svg(directory / "want.svg", hm, cell)
        assert ((directory / "got.svg").read_bytes()
                == (directory / "want.svg").read_bytes())

    def test_heatmap_svg_is_well_formed(self, tmp_path):
        records = [record("g1", "d1", 8), record("g2", "d2", 4)]
        hm = layout(records, ["g1", "g2"], ["d1", "d2"])
        path = tmp_path / "heatmap.svg"
        write_heatmap_svg(path, hm)
        root = ET.parse(path).getroot()
        rects = [el for el in root if el.tag.endswith("rect")]
        assert len(rects) == 4
        fills = {el.get("fill") for el in rects}
        assert "#d04040" in fills  # missing-pair marker

    def test_heatmap_svg_grey_levels_track_win_rate(self, tmp_path):
        records = [record("g1", "d1", 0), record("g2", "d1", 16)]
        hm = layout(records, ["g1", "g2"], ["d1"])
        path = tmp_path / "heatmap.svg"
        write_heatmap_svg(path, hm)
        root = ET.parse(path).getroot()
        fills = [el.get("fill") for el in root if el.tag.endswith("rect")]
        assert fills == ["#000000", "#ffffff"]

    def test_heatmap_svg_equals_the_per_cell_formula(self, tmp_path):
        def grey(value):
            level = max(0, min(255, round(value * 255.0)))
            return f"#{level:02x}{level:02x}{level:02x}"

        # Every level, the k/255 values and the ties half-way between them
        # (round() takes those to even), None, and clamped values.
        cells = ([0.0, 1.0, None, -0.25, 1.5]
                 + [k / 255 for k in range(256)]
                 + [(k + 0.5) / 255 for k in range(255)])
        cells += [None] * (-len(cells) % 16)
        values = tuple(tuple(cells[i:i + 16])
                       for i in range(0, len(cells), 16))
        hm = Heatmap(tuple(f"g{j}" for j in range(16)),
                     tuple(f"d{i}" for i in range(len(values))),
                     np.array(values, dtype=float))
        lines = [f'<svg xmlns="http://www.w3.org/2000/svg" '
                 f'width="{5 * 16}" height="{5 * len(values)}">']
        for i, row in enumerate(values):
            for j, value in enumerate(row):
                fill = "#d04040" if value is None else grey(value)
                lines.append(f'<rect x="{j * 5}" y="{i * 5}" width="5" '
                             f'height="5" fill="{fill}"/>')
        lines.append("</svg>")
        path = tmp_path / "heatmap.svg"
        write_heatmap_svg(path, hm, cell=5)
        assert path.read_text() == "\n".join(lines) + "\n"

    def test_curve_svg_draws_one_polyline_per_experiment(self, tmp_path):
        curves = {"a": [CurvePoint(0, 1400.0, 50.0),
                        CurvePoint(1, 1500.0, 40.0)],
                  "b": [CurvePoint(0, 1450.0, 30.0),
                        CurvePoint(1, 1460.0, 30.0)]}
        path = tmp_path / "curves.svg"
        write_curve_svg(path, curves)
        root = ET.parse(path).getroot()
        polylines = [el for el in root if el.tag.endswith("polyline")]
        polygons = [el for el in root if el.tag.endswith("polygon")]
        assert len(polylines) == 2  # one rating line per experiment
        assert len(polygons) == 2   # one uncertainty band per experiment

    def test_curve_svg_handles_empty_input(self, tmp_path):
        path = tmp_path / "curves.svg"
        write_curve_svg(path, {})
        assert ET.parse(path).getroot() is not None

    def test_artifact_writes_are_deterministic(self, tmp_path):
        summary = self.summary()
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_summary_csv(first, summary)
        write_summary_csv(second, summary)
        assert first.read_bytes() == second.read_bytes()
