"""Summary artifacts for finished tournaments.

Turns a match table plus ratings into per-generator tournament win rates,
win-rate heatmaps over checkpoint axes, per-experiment skill curves, and the
rank-correlation diagnostics used to compare schedules.

Every win rate comes from one place, ``_pair_rates``, which reads the
columns of a ``MatchTable``, the one type the public functions take.
Only records with judged samples count, the rule the rating pass follows
too. Pairs, and then generators, are laid out in first-appearance order,
and each mean is the left-to-right sum of its terms, taken with
``np.bincount``, divided by their number. The heatmap is a float array with
NaN for pairs that never played.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .glicko import Rating
from .tournament import MatchTable, PlayerSpec

# Win rates compare across generators only if each faced the same
# discriminators, so a population pair without a judged match warns.
WIN_RATE_WARNING = ("win rates are not comparable between players: "
                    "{missing} of {pairs} generator-discriminator pairs "
                    "have no judged match")


class _PairRates(NamedTuple):
    """Mean win rate of each pair, pairs in first-appearance order, with
    ``gen``/``disc`` indexing into ``ids``."""

    ids: Sequence[str]
    gen: np.ndarray
    disc: np.ndarray
    rate: np.ndarray


def _means(keys: np.ndarray, values: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray]:
    """Mean of ``values`` per distinct key, each sum taken in input order.

    Returns the position of each key's first value and the means, keys in
    first-appearance order.
    """
    # A stable sort keeps each key's values in input order, so summing them
    # in sorted order adds every key's terms in the order they came, and
    # puts each key's first position first. Row-length arrays are let go
    # as soon as they are used up.
    order = np.argsort(keys, kind="mergesort")
    # One buffer holds the sorted keys, then each row's group, in key order.
    group = np.take(keys, order)
    starts = np.empty(len(keys), dtype=bool)
    starts[:1] = True
    np.not_equal(group[1:], group[:-1], out=starts[1:])
    first = order[starts]
    weights = np.take(values, order)
    del order
    np.cumsum(starts, out=group)
    del starts
    group -= 1
    # (bincount gives an empty result its int dtype, weights or not.)
    means = np.bincount(group, weights, minlength=len(first)).astype(
        float, copy=False)
    del weights
    means /= np.bincount(group, minlength=len(first))
    del group
    by_first = np.argsort(first)
    return first[by_first], means[by_first]


def _pair_rates(table: MatchTable) -> _PairRates:
    played, _, rate = table.judged()
    del _  # the judged-sample counts, which no win rate needs
    gen, disc = table.gen[played], table.disc[played]
    keys = gen * len(table.ids)
    keys += disc
    first, means = _means(keys, rate)
    return _PairRates(table.ids, gen[first], disc[first], means)


def pair_win_rates(table: MatchTable) -> dict[tuple[str, str], float]:
    """Mean match win rate per (generator, discriminator) pair.

    A match's win rate is the fraction of its judged samples the generator
    won. Records without judged samples are left out, so a pair that has
    only such records is absent. Pairs come in first-appearance order.
    """
    pairs = _pair_rates(table)
    ids = pairs.ids
    return {(ids[g], ids[d]): rate for g, d, rate in zip(
        pairs.gen.tolist(), pairs.disc.tolist(), pairs.rate.tolist())}


def _generator_rates(pairs: _PairRates) -> dict[str, float]:
    first, means = _means(pairs.gen, pairs.rate)
    return {pairs.ids[g]: mean
            for g, mean in zip(pairs.gen[first].tolist(), means.tolist())}


@dataclass(frozen=True, eq=False)
class Heatmap:
    """Win-rate matrix: one row per discriminator, one column per generator.

    ``values`` is a float array of shape (discriminators, generators) with
    NaN where the pair never played; the CSV leaves those cells blank and
    the SVG draws them as red cells, which no win rate maps to.
    """

    generator_ids: tuple[str, ...]
    discriminator_ids: tuple[str, ...]
    values: np.ndarray


def _layout(pairs: _PairRates, generator_ids: Sequence[str],
            discriminator_ids: Sequence[str]) -> Heatmap:
    rows, cols = len(discriminator_ids), len(generator_ids)

    def slots(axis: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """For each of ``pairs.ids``, the first position of that id on the
        axis (one past the end if it is not on it); for each position on
        the axis, the first position of its id."""
        first: dict[str, int] = {}
        at = [first.setdefault(pid, k) for k, pid in enumerate(axis)]
        return (np.array([first.get(pid, len(axis)) for pid in pairs.ids],
                         dtype=np.intp), np.array(at, dtype=np.intp))

    row_of, row_at = slots(discriminator_ids)
    col_of, col_at = slots(generator_ids)
    # Every pair's rate goes to the cell of its ids' first positions; a
    # pair with an id off the axes goes to the extra last row or column.
    grid = np.full((rows + 1, cols + 1), np.nan)
    cells = row_of[pairs.disc]
    cells *= cols + 1
    cells += col_of[pairs.gen]
    grid.ravel()[cells] = pairs.rate
    del cells
    # An id that is on an axis twice gets its first position's cells.
    return Heatmap(tuple(generator_ids), tuple(discriminator_ids),
                   grid[np.ix_(row_at, col_at)])


@dataclass(frozen=True)
class CurvePoint:
    iteration: int
    rating: float
    deviation: float

    @property
    def band(self) -> tuple[float, float]:
        """Conventional ~95% interval: rating +/- 2 deviations."""
        return (self.rating - 2.0 * self.deviation,
                self.rating + 2.0 * self.deviation)


def skill_curve(ratings: Mapping[str, Rating],
                players: Iterable[PlayerSpec]
                ) -> dict[str, list[CurvePoint]]:
    """Per-experiment series of generator ratings ordered by iteration."""
    curves: dict[str, list[CurvePoint]] = {}
    for spec in players:
        if spec.role != "generator" or spec.iteration is None:
            continue
        if spec.id not in ratings:
            continue
        r = ratings[spec.id]
        label = spec.experiment or ""
        curves.setdefault(label, []).append(
            CurvePoint(spec.iteration, r.rating, r.deviation))
    for series in curves.values():
        series.sort(key=lambda p: p.iteration)
    return curves


def _ranks(values: Sequence[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        shared = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = shared
        i = j + 1
    return ranks


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Plain linear correlation; raises on constant input."""
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise ValueError("need at least two points")
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    dx = [x - mx for x in xs]
    dy = [y - my for y in ys]
    den = math.sqrt(sum(d * d for d in dx) * sum(d * d for d in dy))
    if den == 0.0:
        raise ValueError("correlation undefined for a constant series")
    return sum(a * b for a, b in zip(dx, dy)) / den


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Rank correlation with average ranks for ties."""
    return pearson(_ranks(xs), _ranks(ys))


@dataclass(frozen=True)
class SummaryRow:
    id: str
    experiment: str | None
    iteration: int | None
    role: str
    rating: float
    deviation: float
    volatility: float
    win_rate: float | None


@dataclass(frozen=True)
class TournamentSummary:
    rows: tuple[SummaryRow, ...]
    win_rates: dict[str, float]
    heatmap: Heatmap
    curves: dict[str, list[CurvePoint]]
    warnings: tuple[str, ...] = ()


def _axis(specs: Sequence[PlayerSpec], role: str) -> list[str]:
    chosen = [s for s in specs if s.role == role]
    chosen.sort(key=lambda s: (s.iteration if s.iteration is not None else -1,
                               s.id))
    return [s.id for s in chosen]


def summarize(table: MatchTable, ratings: Mapping[str, Rating],
              players: Sequence[PlayerSpec]) -> TournamentSummary:
    """Assemble every summary artifact for one tournament. A rated id
    without a ``PlayerSpec`` is a discriminator if it judged a match. The
    summary warns if a heatmap cell is undefined: some generator and
    discriminator of ``players`` have no judged match."""
    pairs = _pair_rates(table)
    rates = _generator_rates(pairs)
    by_id = {spec.id: spec for spec in players}
    judges = {table.ids[i] for i in np.flatnonzero(np.bincount(table.disc))}
    rows = []
    for pid in sorted(ratings):
        spec = by_id.get(pid)
        r = ratings[pid]
        rows.append(SummaryRow(
            id=pid,
            experiment=spec.experiment if spec else None,
            iteration=spec.iteration if spec else None,
            role=spec.role if spec else (
                "discriminator" if pid in judges else "generator"),
            rating=r.rating,
            deviation=r.deviation,
            volatility=r.volatility,
            win_rate=rates.get(pid),
        ))
    hm = _layout(pairs, _axis(players, "generator"),
                 _axis(players, "discriminator"))
    curves = skill_curve(ratings, players)
    missing = np.count_nonzero(np.isnan(hm.values))
    warnings = ()
    if missing:
        warnings = (WIN_RATE_WARNING.format(missing=missing,
                                            pairs=hm.values.size),)
    return TournamentSummary(tuple(rows), rates, hm, curves, warnings)


def format_summary_table(summary: TournamentSummary) -> str:
    """Human-readable fixed-width table of the summary rows."""
    header = (f"{'id':<20} {'role':<14} {'iter':>5} {'rating':>9} "
              f"{'dev':>7} {'vol':>8} {'win_rate':>8}")
    lines = [header, "-" * len(header)]
    for row in summary.rows:
        it = "" if row.iteration is None else str(row.iteration)
        wr = "" if row.win_rate is None else f"{row.win_rate:.4f}"
        lines.append(f"{row.id:<20} {row.role:<14} {it:>5} "
                     f"{row.rating:>9.2f} {row.deviation:>7.2f} "
                     f"{row.volatility:>8.5f} {wr:>8}")
    return "\n".join(lines)


def write_summary_csv(path, summary: TournamentSummary) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "experiment", "iteration", "role", "rating",
                         "deviation", "volatility", "win_rate"])
        for row in summary.rows:
            writer.writerow([
                row.id,
                row.experiment or "",
                "" if row.iteration is None else row.iteration,
                row.role,
                f"{row.rating:.6f}",
                f"{row.deviation:.6f}",
                f"{row.volatility:.8f}",
                "" if row.win_rate is None else f"{row.win_rate:.6f}",
            ])


def write_heatmap_csv(path, hm: Heatmap) -> None:
    """Matrix CSV with a header row/column of player ids, written one row
    at a time."""
    import csv

    # Each distinct value is formatted once. Keying on the bit pattern
    # keeps -0.0 apart from 0.0; every NaN is a blank cell. return_index
    # makes np.unique run the stable int64 sort that _means already ran,
    # so no further numpy sort code is paged in to raise the peak RSS.
    values = np.ascontiguousarray(hm.values, dtype=float)
    keys, _, inverse = np.unique(values.view(np.int64), return_index=True,
                                 return_inverse=True)
    texts = np.array(["" if v != v else f"{v:.6f}"
                      for v in keys.view(float).tolist()], dtype=object)
    cells = texts[inverse.reshape(values.shape)].tolist()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["discriminator\\generator", *hm.generator_ids])
        if not hm.generator_ids:  # a lone empty id is written ""
            writer.writerows([disc_id] for disc_id in hm.discriminator_ids)
            return
        # The csv module writes each id and the comma after it, quoted as
        # in a whole row (each row is one write, kept without its line
        # end); a cell's text never needs quoting, so the cells are joined.
        leads: list[str] = []
        csv.writer(SimpleNamespace(write=leads.append)).writerows(
            (disc_id, "") for disc_id in hm.discriminator_ids)
        for lead, row in zip(leads, cells):
            fh.write(lead[:-2] + ",".join(row) + "\r\n")


# Fill of each grey level, and of a pair that never played, each with the
# end of its cell's element.
_MISSING = "#d04040"
_FILLS = np.array([f'{fill}"/>\n' for fill in (
    *(f"#{level:02x}{level:02x}{level:02x}" for level in range(256)),
    _MISSING)], dtype=object)


def write_heatmap_svg(path, hm: Heatmap, cell: int = 14) -> None:
    """Grayscale heatmap: [0,1] win rate maps linearly to black..white.

    The file is written one row of cells at a time.
    """
    # Clamped before the scaling, so no value overflows; np.rint rounds
    # half to even, as round() does.
    levels = np.rint(np.minimum(np.maximum(hm.values, 0.0), 1.0) * 255.0)
    levels[np.isnan(hm.values)] = len(_FILLS) - 1
    fills = _FILLS[levels.astype(np.intp)]
    # A row is three parts a cell: its x, the row's y and size, its fill.
    parts = [""] * (3 * len(hm.generator_ids))
    parts[0::3] = [f'<rect x="{j * cell}'
                   for j in range(len(hm.generator_ids))]
    with open(path, "w") as fh:
        fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" '
                 f'width="{cell * len(hm.generator_ids)}" '
                 f'height="{cell * len(hm.discriminator_ids)}">\n')
        for i, row in enumerate(fills):
            parts[1::3] = [f'" y="{i * cell}" width="{cell}" '
                           f'height="{cell}" fill="'] * len(row)
            parts[2::3] = row.tolist()
            fh.write("".join(parts))
        fh.write("</svg>\n")


def write_curve_svg(path, curves: Mapping[str, Sequence[CurvePoint]],
                    width: int = 640, height: int = 400) -> None:
    """Skill curves with a +/-2 deviation band per experiment."""
    points = [p for series in curves.values() for p in series]
    if not points:
        with open(path, "w") as fh:
            fh.write('<svg xmlns="http://www.w3.org/2000/svg"/>\n')
        return
    x_lo = min(p.iteration for p in points)
    x_hi = max(p.iteration for p in points)
    y_lo = min(p.band[0] for p in points)
    y_hi = max(p.band[1] for p in points)
    x_span = (x_hi - x_lo) or 1
    y_span = (y_hi - y_lo) or 1
    margin = 30

    def sx(x: float) -> float:
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

    palette = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{width}" height="{height}">']
    for idx, label in enumerate(sorted(curves)):
        series = curves[label]
        colour = palette[idx % len(palette)]
        upper = [f"{sx(p.iteration):.1f},{sy(p.band[1]):.1f}" for p in series]
        lower = [f"{sx(p.iteration):.1f},{sy(p.band[0]):.1f}"
                 for p in reversed(series)]
        parts.append(f'<polygon points="{" ".join(upper + lower)}" '
                     f'fill="{colour}" opacity="0.15"/>')
        line = " ".join(f"{sx(p.iteration):.1f},{sy(p.rating):.1f}"
                        for p in series)
        parts.append(f'<polyline points="{line}" fill="none" '
                     f'stroke="{colour}" stroke-width="1.5"/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


# Artifact key -> default file name. Config ``outputs:`` keys use the same
# names.
ARTIFACT_NAMES = {
    "summary_csv": "summary.csv",
    "heatmap_csv": "heatmap.csv",
    "heatmap_svg": "heatmap.svg",
    "curve_svg": "curves.svg",
}


def write_artifacts(directory, summary: TournamentSummary,
                    names: Mapping[str, str]) -> list[str]:
    """Write every summary artifact into ``directory``; returns the paths.

    ``names`` maps artifact keys to file names; missing keys take their
    name from ARTIFACT_NAMES and other keys are ignored.
    """
    os.makedirs(directory, exist_ok=True)
    paths = {key: os.path.join(directory, names.get(key, default))
             for key, default in ARTIFACT_NAMES.items()}
    write_summary_csv(paths["summary_csv"], summary)
    write_heatmap_csv(paths["heatmap_csv"], summary.heatmap)
    write_heatmap_svg(paths["heatmap_svg"], summary.heatmap)
    write_curve_svg(paths["curve_svg"], summary.curves)
    return list(paths.values())
