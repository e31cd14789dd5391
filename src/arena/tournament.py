"""Match scheduling and execution.

A match pits one generator against one discriminator: the discriminator
judges a fake batch and a fresh real batch, and each judged sample is a
binary game. Boundary scores go to the generator, so a discriminator that
answers exactly at the threshold concedes everything.

All randomness is derived from (tournament seed, generator id,
discriminator id, repeat index) through a stable 64-bit hash, so any match
can be replayed in isolation and schedule order never affects outcomes.
A match seeded ``seed`` draws its fake batch, its real batch and its
judging noise from ``np.random.default_rng([seed, lane])`` for the lanes
FAKE, REAL and JUDGE. Play builds those very streams without calling
``default_rng``: ``seeding.pcg64_states`` hashes every seed of a window in
one array pass, and ``seeding.stream`` makes each Generator from its
state; a judging stream is built only if the discriminator reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

# Version of the match engine, written into every log header. It changes
# whenever a seeded match may be counted differently. Engine 2 scores the toy
# panels with whitened densities; engine 1 solved against each factor, and
# the two can differ in the last bits of a score.
ENGINE = 2

# Matches played per window of ``run_tournament``. A window's batches are
# drawn and judged one discriminator group at a time; the window bounds the
# seeds, stream states and records held at once, and each window is one
# log write. A wider window gives each group more matches to share its
# fixed costs; 2048 was barely faster and held 0.7 MiB more at peak.
WINDOW = 1024

ROLE_GENERATOR = "generator"
ROLE_DISCRIMINATOR = "discriminator"
ROLES = (ROLE_GENERATOR, ROLE_DISCRIMINATOR)


# Why a match can fail; a MatchError's message is "<code>: <detail>". Play
# reads each code off the shapes and masks it checks, but for player-start
# (why a player did not start) and player-error (what a player raised).
FAULTS = ("fake-shape", "fake-nonfinite", "real-shape", "real-nonfinite",
          "dim-mismatch", "scores-shape", "scores-range", "player-start",
          "player-error")


class MatchError(RuntimeError):
    """A failed match; ``code`` is one of ``FAULTS``."""

    def __init__(self, code: str, detail: str):
        super().__init__(f"{code}: {detail}")
        self.code = code


@dataclass(frozen=True)
class PlayerSpec:
    """Identity and metadata of a tournament player."""

    id: str
    role: str
    iteration: int | None = None
    experiment: str | None = None

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}")


@dataclass(frozen=True)
class MatchRecord:
    """Outcome of one match, counted from the generator's side."""

    generator_id: str
    discriminator_id: str
    n_fake: int
    fake_wins: int
    n_real: int
    real_wins: int
    seed: int
    threshold: float = 0.5


@dataclass(frozen=True, eq=False)
class MatchTable:
    """A match set as columns, one row per record in record order.

    ``ids`` holds every player id once, sorted, and ``gen``/``disc`` index
    into it. The counts are int64, ``seed`` is uint64 (blake2b-64 seeds
    reach 2**64 - 1) and ``threshold`` is float. ``len()`` counts the
    records and iterating yields them as ``MatchRecord``s, in order. This
    is the one type for a set of matches, from play to report.
    """

    ids: tuple[str, ...]
    gen: np.ndarray
    disc: np.ndarray
    n_fake: np.ndarray
    fake_wins: np.ndarray
    n_real: np.ndarray
    real_wins: np.ndarray
    seed: np.ndarray
    threshold: np.ndarray

    @classmethod
    def from_columns(cls, names: Sequence[str], gen, disc, n_fake, fake_wins,
                     n_real, real_wins, seed, threshold) -> MatchTable:
        """Table whose ``gen``/``disc`` index into ``names``, which may be
        in any order and may repeat an id.

        The table takes the columns it is given: an array that already has
        its column's dtype is kept, not copied, and ``gen``/``disc`` arrays
        of dtype intp are recoded to index the sorted ids in place.
        """
        ids = sorted(set(names))
        position = {pid: i for i, pid in enumerate(ids)}
        remap = np.array([position[pid] for pid in names], dtype=np.intp)

        def column(values, dtype):
            return np.asarray(values, dtype=dtype)

        def recoded(values) -> np.ndarray:
            codes = column(values, np.intp)
            if len(codes) and not 0 <= codes.min() <= codes.max() < len(
                    remap):
                raise IndexError(f"player codes outside [0, {len(remap)})")
            # "clip" never clips here; "raise" would copy the codes first.
            return np.take(remap, codes, out=codes, mode="clip")

        return cls(tuple(ids), recoded(gen), recoded(disc),
                   column(n_fake, np.int64), column(fake_wins, np.int64),
                   column(n_real, np.int64), column(real_wins, np.int64),
                   column(seed, np.uint64), column(threshold, float))

    @classmethod
    def from_records(cls, records: Iterable[MatchRecord]) -> MatchTable:
        """The one converter from records to a table."""
        records = list(records)
        index: dict[str, int] = {}
        gen = [index.setdefault(r.generator_id, len(index)) for r in records]
        disc = [index.setdefault(r.discriminator_id, len(index))
                for r in records]
        return cls.from_columns(
            list(index), gen, disc, [r.n_fake for r in records],
            [r.fake_wins for r in records], [r.n_real for r in records],
            [r.real_wins for r in records], [r.seed for r in records],
            [r.threshold for r in records])

    def concat(self, other: MatchTable) -> MatchTable:
        """This table's rows and then ``other``'s, each in its own order."""
        def join(name: str) -> np.ndarray:
            return np.concatenate([getattr(self, name), getattr(other, name)])

        return MatchTable.from_columns(
            self.ids + other.ids,
            np.concatenate([self.gen, other.gen + len(self.ids)]),
            np.concatenate([self.disc, other.disc + len(self.ids)]),
            *map(join, ("n_fake", "fake_wins", "n_real", "real_wins", "seed",
                        "threshold")))

    def take(self, rows) -> MatchTable:
        """The chosen rows, by index or boolean mask, over the same ids."""
        return MatchTable(self.ids, *(getattr(self, column.name)[rows]
                                      for column in fields(self)[1:]))

    def judged(self) -> tuple[np.ndarray | slice, np.ndarray, np.ndarray]:
        """The rows with judged samples, their judged-sample counts and the
        fraction of those the generator won.

        The rows are an index array, or ``slice(None)`` when every row has
        judged samples (as in every log play writes), so that selecting
        them from a column copies nothing.
        """
        total = self.n_fake.astype(float)
        total += self.n_real
        played = total > 0.0
        if played.all():
            rows = slice(None)
        else:
            rows = np.flatnonzero(played)
            total = total[rows]
        score = self.fake_wins[rows].astype(float)
        score += self.real_wins[rows]
        score /= total
        return rows, total, score

    def __len__(self) -> int:
        return len(self.gen)

    def __iter__(self) -> Iterator[MatchRecord]:
        ids = self.ids
        for g, d, *rest in zip(self.gen.tolist(), self.disc.tolist(),
                               self.n_fake.tolist(), self.fake_wins.tolist(),
                               self.n_real.tolist(), self.real_wins.tolist(),
                               self.seed.tolist(), self.threshold.tolist()):
            yield MatchRecord(ids[g], ids[d], *rest)


@dataclass(frozen=True)
class Schedule:
    """An ordered list of (generator_id, discriminator_id, repeat) matches."""

    matches: tuple[tuple[str, str, int], ...]
    kind: str = "explicit"
    band_width: int | None = None

    def __len__(self) -> int:
        return len(self.matches)


@dataclass(frozen=True)
class ScheduleDiagnostics:
    """Validation outcome: hard errors plus comparability warnings."""

    errors: tuple[str, ...]
    warnings: tuple[str, ...]
    components: int

    @property
    def ok(self) -> bool:
        return not self.errors


@dataclass(frozen=True)
class RunSettings:
    """Execution settings for a tournament run."""

    seed: int
    batch_size: int = 64
    threshold: float = 0.5

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must be inside (0, 1)")


def _ids(players: Sequence) -> list[str]:
    return [p.id if isinstance(p, PlayerSpec) else str(p) for p in players]


def round_robin(generators: Sequence, discriminators: Sequence,
                repeats: int = 1) -> Schedule:
    """Every generator against every discriminator, ``repeats`` times each.

    Matches are ordered lexicographically by (generator, discriminator) and
    then by repeat index, so the schedule is deterministic.
    """
    gen_ids, disc_ids = _ids(generators), _ids(discriminators)
    if not gen_ids or not disc_ids:
        raise ValueError("round_robin needs at least one player per role")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    matches = tuple((g, d, r)
                    for g in sorted(gen_ids)
                    for d in sorted(disc_ids)
                    for r in range(repeats))
    return Schedule(matches=matches, kind="round_robin")


def band(generators: Sequence[PlayerSpec],
         discriminators: Sequence[PlayerSpec], width: int,
         repeats: int = 1) -> Schedule:
    """Round robin restricted to |iteration(G) - iteration(D)| <= width."""
    if width < 0:
        raise ValueError("band width must be >= 0")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    for spec in list(generators) + list(discriminators):
        if spec.iteration is None:
            raise ValueError(f"player {spec.id!r} has no iteration; banded "
                             "schedules need one for every player")
    pairs = []
    for gen in sorted(generators, key=lambda s: s.id):
        for disc in sorted(discriminators, key=lambda s: s.id):
            if abs(gen.iteration - disc.iteration) <= width:
                pairs.extend((gen.id, disc.id, r) for r in range(repeats))
    if not pairs:
        raise ValueError("band schedule is empty; widen the band")
    return Schedule(matches=tuple(pairs), kind="band", band_width=width)


def explicit_schedule(matches: Iterable[Sequence]) -> Schedule:
    """Schedule from explicit (generator_id, discriminator_id[, repeat])."""
    return Schedule(matches=tuple((str(g), str(d), int(r[0]) if r else 0)
                                  for g, d, *r in matches), kind="explicit")


def validate_schedule(schedule: Schedule,
                      specs: Mapping[str, PlayerSpec]) -> ScheduleDiagnostics:
    """Check a schedule against the player population.

    Unknown ids, role violations and a (generator, discriminator, repeat)
    triple scheduled twice are errors. A match graph that splits
    into several connected components only warns: ratings across components
    are mutually incomparable but still well defined.
    """
    errors: dict[str, None] = {}  # each message once, in first-seen order
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    seen: set[tuple[str, str, int]] = set()
    for match in schedule.matches:
        gen_id, disc_id, repeat = match
        if match in seen:
            errors[f"match {gen_id!r} vs {disc_id!r} repeat {repeat} is "
                   "scheduled twice"] = None
        seen.add(match)
        for pid, role in ((gen_id, ROLE_GENERATOR),
                          (disc_id, ROLE_DISCRIMINATOR)):
            spec = specs.get(pid)
            if spec is None:
                errors[f"unknown player id {pid!r}"] = None
            elif spec.role != role:
                errors[f"player {pid!r} has role {spec.role!r} but is "
                       f"scheduled as {role}"] = None
        for pid in (gen_id, disc_id):
            if pid in specs:
                parent.setdefault(pid, pid)
        if gen_id in parent and disc_id in parent:
            root_g, root_d = find(gen_id), find(disc_id)
            if root_g != root_d:
                parent[root_g] = root_d

    components = len({find(pid) for pid in parent}) if parent else 0
    warnings: list[str] = []
    if components > 1:
        warnings.append(f"match graph has {components} disconnected "
                        "components; ratings across components are not "
                        "comparable")
    return ScheduleDiagnostics(errors=tuple(errors), warnings=tuple(warnings),
                               components=components)


def stable_seed(*parts) -> int:
    """Deterministic 64-bit integer from the string forms of the parts."""
    return _stable_seeds([parts])[0]


def _stable_seeds(parts_list: Iterable[Sequence]) -> list[int]:
    """``stable_seed`` of each tuple of parts."""
    import hashlib  # loads OpenSSL, which re-rating a log never needs

    seeds = []
    for parts in parts_list:
        digest = hashlib.blake2b(digest_size=8)
        for part in parts:
            digest.update(str(part).encode("utf-8"))
            digest.update(b"\x1f")
        seeds.append(int.from_bytes(digest.digest(), "big"))
    return seeds


def match_seed(tournament_seed: int, generator_id: str, discriminator_id: str,
               repeat: int) -> int:
    """Seed of one match's random substreams."""
    return stable_seed(tournament_seed, generator_id, discriminator_id,
                       repeat)


# Lanes of a match's independent random substreams: the fake batch, the real
# batch and the discriminator's judging. The stream of a lane is
# ``np.random.default_rng([match seed, lane])``, built by ``seeding``.
FAKE, REAL, JUDGE = 0, 1, 2


def _shaped(batch, count: int, code: str) -> np.ndarray:
    """The batch as floats, if it holds ``count`` samples; else MatchError
    ``code``."""
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 2 or batch.shape[0] != count:
        raise MatchError(code, f"batch shape {batch.shape}, expected "
                               f"({count}, dim)")
    return batch


def _scored(scores, shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The scores as floats, if they have ``shape``, and whether each row
    lies in [0, 1], which no NaN does; else MatchError ``scores-shape``."""
    scores = np.asarray(scores, dtype=float)
    if scores.shape != shape:
        raise MatchError("scores-shape", f"scores of shape {scores.shape}, "
                                         f"expected {shape}")
    return scores, ((scores >= 0.0) & (scores <= 1.0)).all(axis=-1)


def play_match(generator, discriminator, data, *, generator_id: str,
               discriminator_id: str, tournament_seed: int, repeat: int = 0,
               batch_size: int = 64, threshold: float = 0.5) -> MatchRecord:
    """Play one match and count per-sample wins for the generator.

    A schedule of one for ``run_tournament``, so the record is the one it
    logs for this match, and a failure raises its MatchError. The
    discriminator judges ``batch_size`` fake samples and a fresh real
    batch of the same size. A fake sample scoring at or above the
    threshold and a real sample scoring at or below it are generator wins;
    ties on the boundary always favor the generator.
    """
    if generator_id == discriminator_id:
        raise ValueError(f"player {generator_id!r} cannot play itself")
    (record,) = run_tournament(
        Schedule(((generator_id, discriminator_id, repeat),)),
        {generator_id: generator, discriminator_id: discriminator}, data,
        RunSettings(tournament_seed, batch_size, threshold))
    return record


def _draw_group(indices: Sequence[int],
                window: Sequence[tuple[str, str, int]],
                players: Mapping[str, object], data, size: int, stream,
                lost: dict[int, Exception]
                ) -> tuple[list[int], np.ndarray | None]:
    """Draw the fake and the real batch of each match of one discriminator
    group; return the matches whose batches pass their checks, and those
    batches stacked, each match's fake batch and then its real batch.

    Real batches come from one ``data.sample_many`` call, and only for
    fake batches of the right shape. A failed match goes into ``lost``
    under its first fault of: fake shape, real shape, dims, then the
    finiteness of the fake and of the real batch, which is one mask over
    the stack.
    """
    fakes: dict[int, np.ndarray] = {}
    for i in indices:
        try:
            fakes[i] = _shaped(players[window[i][0]].sample(
                size, stream(i, FAKE)), size, "fake-shape")
        except Exception as exc:
            lost[i] = exc
    if not fakes:
        return [], None
    try:
        reals = list(data.sample_many(size, [stream(i, REAL) for i in fakes]))
        if len(reals) != len(fakes):
            raise MatchError("real-shape", f"{len(reals)} batches for "
                                           f"{len(fakes)} matches")
    except Exception as exc:
        lost.update(dict.fromkeys(fakes, exc))
        return [], None
    drawn, batches = [], []
    for (i, fake), real in zip(fakes.items(), reals):
        try:
            real = _shaped(real, size, "real-shape")
            if fake.shape[1] != real.shape[1]:
                raise MatchError("dim-mismatch", f"fake dim {fake.shape[1]}, "
                                                 f"real dim {real.shape[1]}")
        except Exception as exc:
            lost[i] = exc
            continue
        drawn.append(i)
        batches += (fake, real)
    try:
        stacked = np.stack(batches)
    except ValueError:  # no batches, or a data source whose dim changes
        lost.update(dict.fromkeys(drawn, MatchError(
            "dim-mismatch", "the group's batches differ in dim")))
        return [], None
    finite = np.isfinite(stacked).all(axis=(1, 2))
    ok = finite[0::2] & finite[1::2]
    for k in np.flatnonzero(~ok):
        side = "real" if finite[2 * k] else "fake"
        lost[drawn[k]] = MatchError(f"{side}-nonfinite", f"the {side} batch "
                                    "holds non-finite samples")
    if ok.all():
        return drawn, stacked
    return ([i for i, good in zip(drawn, ok) if good],
            stacked[np.repeat(ok, 2)])


def _play_window(window: Sequence[tuple[str, str, int]],
                 players: Mapping[str, object], data, settings: RunSettings
                 ) -> tuple[list[MatchRecord | None], dict[int, Exception]]:
    """Play consecutive matches grouped by discriminator; return the
    records in window order, None where a match failed, and what each
    failed match raised, keyed by its index in the window.

    The seeds of the whole window are hashed into stream states in one
    array pass. A group first draws every match's fake and real batch
    (``_draw_group``). A discriminator with ``judge_many`` then scores all
    of them in one call; any other gets one ``judge`` call per batch,
    match by match, the fake batch first, and no real batch of a match
    whose fake scores failed. One mask over the group's scores finds those
    out of range. Both read one list that holds each match's judging
    stream twice, one per batch, as a ``seeding.LazyStream``: it is only
    built if it is read. Each side's wins are counted over the whole group
    at once.
    """
    from . import seeding  # loads numpy.random, which only play needs

    seeds = _stable_seeds((settings.seed, *match) for match in window)
    states = seeding.pcg64_states(seeds, JUDGE + 1)

    def stream(i: int, lane: int):
        return seeding.stream(states[i, lane], seeds[i], lane)

    records: list[MatchRecord | None] = [None] * len(window)
    lost: dict[int, Exception] = {}
    groups: dict[str, list[int]] = {}
    for i, (_, disc_id, _) in enumerate(window):
        groups.setdefault(disc_id, []).append(i)
    size, threshold = settings.batch_size, settings.threshold
    for disc_id, indices in groups.items():
        try:
            discriminator = players[disc_id]
        except KeyError as exc:
            lost.update(dict.fromkeys(indices, exc))
            continue
        drawn, batches = _draw_group(indices, window, players, data, size,
                                     stream, lost)
        if not drawn:
            continue
        streams = [seeding.LazyStream(states[i, JUDGE], seeds[i], JUDGE)
                   for i in drawn]
        rngs = [rng for rng in streams for _ in range(2)]
        judge_many = getattr(discriminator, "judge_many", None)
        if judge_many is None:
            scores = np.empty((len(batches), size))
            ok = np.ones(len(drawn), dtype=bool)
            for j, batch in enumerate(batches):
                if ok[j // 2]:  # no real request after failed fake scores
                    try:
                        scores[j], ok[j // 2] = _scored(discriminator.judge(
                            batch, rngs[j]), (size,))
                    except Exception as exc:
                        lost[drawn[j // 2]] = exc
                        ok[j // 2] = False
        else:
            try:
                scores, valid = _scored(judge_many(batches, rngs),
                                        (len(batches), size))
            except Exception as exc:
                lost.update(dict.fromkeys(drawn, exc))
                continue
            ok = valid[0::2] & valid[1::2]
        for k in np.flatnonzero(~ok):
            lost.setdefault(drawn[k], MatchError(
                "scores-range", "scores outside [0, 1] or non-finite"))
        if not ok.all():
            drawn = [i for i, good in zip(drawn, ok) if good]
            scores = scores[np.repeat(ok, 2)]
        fake_wins = np.count_nonzero(scores[0::2] >= threshold, axis=1)
        real_wins = np.count_nonzero(scores[1::2] <= threshold, axis=1)
        for i, fake, real in zip(drawn, fake_wins.tolist(),
                                 real_wins.tolist()):
            records[i] = MatchRecord(window[i][0], disc_id, size, fake, size,
                                     real, seeds[i], threshold)
    return records, lost


def run_tournament(schedule: Schedule, players: Mapping[str, object], data,
                   settings: RunSettings,
                   sink: Callable[[list, list], None] | None = None
                   ) -> MatchTable:
    """Play every scheduled match, ``WINDOW`` consecutive matches at a time.

    ``players`` maps ids to objects with sample()/judge() methods and, for
    discriminators, an optional judge_many(batches, rngs) that scores a
    stack of batches at once; ``data`` draws real batches with
    sample_many(count, rngs), one batch per generator. Each window
    is played by ``_play_window``, grouped by discriminator, and once it
    is done ``sink`` gets its records and its failures in one call, each
    in schedule order; the records the sink took come back as a
    ``MatchTable`` in that order. A record depends only on its own match,
    never on the window it was played in. A failure is a (match,
    MatchError) pair, and any other exception a player or the data source
    raises is reported as a ``player-error``. A sink that raises stops
    the run, so the windows it took make a schedule-order prefix. With no
    sink, a window's first failure is raised.
    """
    records: list[MatchRecord] = []
    matches = schedule.matches
    for start in range(0, len(matches), WINDOW):
        window = matches[start:start + WINDOW]
        played, lost = _play_window(window, players, data, settings)
        failures = []
        for i in sorted(lost):
            error = lost[i]
            if not isinstance(error, MatchError):
                error = MatchError("player-error",
                                   f"{type(error).__name__}: {error}")
                error.__cause__ = lost[i]
            failures.append((window[i], error))
        played = [record for record in played if record is not None]
        if sink is not None:
            sink(played, failures)
        elif failures:
            raise failures[0][1]
        records += played
    return MatchTable.from_records(records)
