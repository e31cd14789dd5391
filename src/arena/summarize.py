"""Summary artifacts for finished tournaments.

Turns match records plus ratings into per-generator tournament win rates,
win-rate heatmaps over checkpoint axes, per-experiment skill curves, and the
rank-correlation diagnostics used to compare schedules.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .glicko import Rating
from .tournament import MatchRecord, PlayerSpec, Schedule

WIN_RATE_WARNING = ("win rates from a non-round-robin schedule are not "
                    "comparable between players")


def pair_win_rates(records: Iterable[MatchRecord]
                   ) -> dict[tuple[str, str], float]:
    """Mean match win rate per (generator, discriminator) pair."""
    totals: dict[tuple[str, str], list[float]] = {}
    for record in records:
        key = (record.generator_id, record.discriminator_id)
        totals.setdefault(key, []).append(record.win_rate)
    return {key: sum(rates) / len(rates) for key, rates in totals.items()}


def tournament_win_rate(pairs: Mapping[tuple[str, str], float]
                        ) -> dict[str, float]:
    """Average win rate of each generator over the discriminators it played.

    Takes the ``pair_win_rates`` table, so repeats of the same pairing are
    averaged first and every opponent counts once. Generators with no
    matches are absent rather than rated zero.
    """
    by_gen: dict[str, list[float]] = {}
    for (gen_id, _), rate in pairs.items():
        by_gen.setdefault(gen_id, []).append(rate)
    return {gen_id: sum(rates) / len(rates)
            for gen_id, rates in by_gen.items()}


@dataclass(frozen=True)
class Heatmap:
    """Win-rate matrix: one row per discriminator, one column per generator.

    Missing entries (pairs that never played) are None; the SVG draws them
    as red cells, which no win rate maps to.
    """

    generator_ids: tuple[str, ...]
    discriminator_ids: tuple[str, ...]
    values: tuple[tuple[float | None, ...], ...]


def heatmap(pairs: Mapping[tuple[str, str], float],
            generator_ids: Sequence[str],
            discriminator_ids: Sequence[str]) -> Heatmap:
    """Lay the ``pair_win_rates`` table out on the given (ordered) axes."""
    rows = tuple(
        tuple(pairs.get((gen_id, disc_id)) for gen_id in generator_ids)
        for disc_id in discriminator_ids)
    return Heatmap(tuple(generator_ids), tuple(discriminator_ids), rows)


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


def summarize(records: Sequence[MatchRecord], ratings: Mapping[str, Rating],
              players: Sequence[PlayerSpec],
              schedule: Schedule | None = None) -> TournamentSummary:
    """Assemble every summary artifact for one tournament."""
    pairs = pair_win_rates(records)
    rates = tournament_win_rate(pairs)
    by_id = {spec.id: spec for spec in players}
    rows = []
    for pid in sorted(ratings):
        spec = by_id.get(pid)
        r = ratings[pid]
        rows.append(SummaryRow(
            id=pid,
            experiment=spec.experiment if spec else None,
            iteration=spec.iteration if spec else None,
            role=spec.role if spec else "generator",
            rating=r.rating,
            deviation=r.deviation,
            volatility=r.volatility,
            win_rate=rates.get(pid),
        ))
    hm = heatmap(pairs, _axis(players, "generator"),
                 _axis(players, "discriminator"))
    curves = skill_curve(ratings, players)
    warnings = ()
    if schedule is not None and schedule.kind != "round_robin":
        warnings = (WIN_RATE_WARNING,)
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
    for warning in summary.warnings:
        lines.append(f"warning: {warning}")
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
    """Matrix CSV with a header row/column of player ids."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["discriminator\\generator", *hm.generator_ids])
        for disc_id, row in zip(hm.discriminator_ids, hm.values):
            writer.writerow([disc_id] + ["" if v is None else f"{v:.6f}"
                                         for v in row])


def _grey(value: float) -> str:
    level = max(0, min(255, round(value * 255.0)))
    return f"#{level:02x}{level:02x}{level:02x}"


def write_heatmap_svg(path, hm: Heatmap, cell: int = 14) -> None:
    """Grayscale heatmap: [0,1] win rate maps linearly to black..white."""
    width = cell * len(hm.generator_ids)
    height = cell * len(hm.discriminator_ids)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{width}" height="{height}">']
    for i, row in enumerate(hm.values):
        for j, value in enumerate(row):
            colour = "#d04040" if value is None else _grey(value)
            parts.append(f'<rect x="{j * cell}" y="{i * cell}" '
                         f'width="{cell}" height="{cell}" fill="{colour}"/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


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
