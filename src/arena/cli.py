"""Command-line surface: run, rate, extend, simulate, schedule.

Exit codes: 0 success, 1 runtime failure (including failed experiment
checks), 2 configuration or usage errors.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import os
import sys
from itertools import chain

import numpy as np

from . import config as cfgmod
from . import glicko, store
from . import summarize as sm
from . import tournament as tn
from .tournament import PlayerSpec

# The bundled experiments ``simulate`` runs (experiments.py plays them).
# Named here so that no other command loads that module.
EXPERIMENTS = ("within", "banded", "chekhov", "distortion", "multi")


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _say(text: str) -> None:
    """Print one line of output. A reader that has gone, as in ``arena rate
    LOG | head -1``, ends the output but not the command: this line and
    every later one are dropped."""
    try:
        print(text)
    except BrokenPipeError:
        _end_output()


def _end_output() -> None:
    """Point stdout at the null device once its reader has gone, so that
    later lines, and the flush at exit, write nowhere instead of failing."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # not a file: each later line fails and is dropped alike
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _with_overrides(base: cfgmod.TournamentConfig, args,
                    where: str) -> cfgmod.TournamentConfig:
    raw = copy.deepcopy(base.raw)
    for key in ("seed", "batch_size", "threshold"):
        if getattr(args, key, None) is not None:
            raw[key] = getattr(args, key)
    if getattr(args, "schedule", None) is not None:
        schedule = dict(raw.get("schedule") or {})
        schedule["kind"] = args.schedule
        # Drop what only the kind being left accepts; a --band-width flag
        # is put back below, and refused there if the new kind is no band.
        for key, owner in (("matches", "explicit"), ("band_width", "band")):
            if args.schedule != owner:
                schedule.pop(key, None)
        raw["schedule"] = schedule
    if getattr(args, "band_width", None) is not None:
        schedule = dict(raw.get("schedule") or {"kind": "band"})
        schedule["band_width"] = args.band_width
        raw["schedule"] = schedule
    updates = _rating_updates(args)
    if updates:
        rating = dict(raw.get("rating") or {})
        rating.update(updates)
        raw["rating"] = rating
    if raw == base.raw:
        return base
    return cfgmod.parse_config(raw, where=where)


def _rating_updates(args) -> dict:
    return {key: getattr(args, key) for key in ("max_passes", "tau",
                                                "outcome_mode")
            if getattr(args, key, None) is not None}


def _new_log(config: cfgmod.TournamentConfig, path: str) -> store.LogWriter:
    """A writer that starts a log at ``path`` under the config's header."""
    return store.LogWriter(path, store.LogHeader(
        cfgmod.config_hash(config), config.seed, config=config.raw))


def _logged(args, header: store.LogHeader) -> cfgmod.TournamentConfig:
    """A v2 log's config, flags applied, with the header's players and then
    each players line's. One that fails its checks makes the log corrupt."""
    try:
        players = cfgmod.parse_config(header.config, f"{args.log}:1").players
        config = cfgmod.parse_config({**header.config, "players": [
            *players, *chain(*header.players)]}, f"{args.log}")
        cfgmod.player_specs(config.players)
    except cfgmod.ConfigError as exc:
        raise store.LogError(str(exc)) from exc
    return _with_overrides(config, args, "command line")


def ExternalPlayer(command, *, role: str):
    """A session with an external player: ``extern`` loads at the first
    one, so only a schedule that names an external player loads it."""
    from .extern import ExternalPlayer as session

    return session(command, role=role)


def _play(config: cfgmod.TournamentConfig, built: cfgmod.BuiltPlayers,
          schedule: tn.Schedule, strict: bool,
          writer: store.LogWriter | None = None) -> tn.MatchTable:
    """Spawn the external players the schedule names, play the schedule,
    and close the sessions and the ``writer`` again whatever happens.

    Each window's played rows go to the ``writer``, if one is given, as a
    ``MatchTable`` as soon as the window is played.
    This is where a failure is either raised or skipped. With ``strict``
    it is raised, and none of its window's records is written. Without,
    it is reported on stderr and costs only its own match; a player that
    cannot be started is reported once, with the number of its matches,
    and they are dropped from the schedule.
    """
    def fail(error: tn.MatchError, context: str) -> None:
        if strict:
            raise error
        _warn(f"{context}: {error}")

    def sink(records: tn.MatchTable, failures: list) -> None:
        for (gen_id, disc_id, repeat), error in failures:
            fail(error, f"skipping match {gen_id} vs {disc_id} "
                        f"(repeat {repeat})")
        if writer is not None and records:
            writer(records)

    named = {pid for match in schedule for pid in match[:2]}
    sessions = []
    try:
        for entry in built.external:
            if entry["id"] not in named:
                continue
            from .extern import ExternError

            try:
                session = ExternalPlayer(entry["command"], role=entry["role"])
            except ExternError as exc:
                kept = tuple(m for m in schedule
                             if entry["id"] not in m[:2])
                fail(tn.MatchError("player-start", str(exc)),
                     f"external player {entry['id']!r} could not be "
                     f"started, its {len(schedule) - len(kept)} matches "
                     "are skipped")
                schedule = kept
                continue
            built.players[entry["id"]] = session
            sessions.append(session)
        return tn.run_tournament(schedule, built.players, built.data,
                                 cfgmod.run_settings(config), sink)
    finally:
        # Every child is told to stop before any is waited for, so they
        # wind down together.
        for session in sessions:
            session.shutdown()
        for session in sessions:
            session.close()
        if writer is not None:
            writer.close()


def _report(table: tn.MatchTable, rating: glicko.RatingConfig,
            specs: list[PlayerSpec], directory: str | None, names: dict
            ) -> tuple[glicko.RatingOutcome, sm.TournamentSummary]:
    """Rate the match set and summarize it, and write the artifacts into
    ``directory`` if one is given."""
    outcome = glicko.rate_tournament(table, rating)
    summary = sm.summarize(table, outcome.ratings, specs)
    if directory:
        sm.write_artifacts(directory, summary, names)
    return outcome, summary


def _print_report(outcome: glicko.RatingOutcome,
                  summary: sm.TournamentSummary) -> None:
    """Print the summary table, then every warning."""
    _say(sm.format_summary_table(summary))
    for message in (*summary.warnings, *outcome.warnings):
        _warn(message)


def _plan(args) -> tuple[cfgmod.TournamentConfig, cfgmod.BuiltPlayers,
                         tn.Schedule, int]:
    """Load the config with its flag overrides, build the players and the
    schedule, and count its match graph's components, warning if there are
    several."""
    config = _with_overrides(cfgmod.load_config(args.config), args,
                             str(args.config))
    built = cfgmod.build_players(config)
    schedule = cfgmod.build_schedule(config, built.specs)
    parts = tn.components(schedule)
    if parts > 1:
        _warn(f"match graph has {parts} disconnected components; ratings "
              "across components are not comparable")
    return config, built, schedule, parts


def cmd_run(args) -> int:
    config, built, schedule, _ = _plan(args)
    directory = args.out_dir or config.outputs.get("directory") or "arena-out"
    os.makedirs(directory, exist_ok=True)
    log_path = os.path.join(directory,
                            config.outputs.get("log", "log.jsonl"))
    records = _play(config, built, schedule, args.strict,
                    _new_log(config, log_path))
    _print_report(*_report(records, config.rating, built.specs, directory,
                           config.outputs))
    _say(f"log: {log_path} ({len(records)} records)")
    return 0


def cmd_rate(args) -> int:
    header, records, problems = store.read_log(args.log, strict=args.strict)
    # An arena-log/1 header holds no rating settings and names no players.
    config = None if header.config is None else _logged(args, header)
    rating = config.rating if config else cfgmod.parse_rating(
        _rating_updates(args), "command line")
    for problem in problems:
        _warn(problem)
    if not records:
        _warn(f"{args.log}: no match records; every player would keep its "
              "default rating")
        return 0
    specs = (store.record_specs(records, args.log) if config is None
             else cfgmod.player_specs(config.players))
    _print_report(*_report(records, rating, specs, args.out_dir, {}))
    return 0


def cmd_extend(args) -> int:
    header, records, _ = store.read_log(args.log, strict=True)
    if header.engine != tn.ENGINE:
        raise ValueError(f"{args.log} was produced under engine "
                         f"{header.engine}, but this arena plays engine "
                         f"{tn.ENGINE}")
    if header.config is None:
        raise ValueError(f"{args.log} is an {store.V1_FORMAT} log, which "
                         f"names no players; extend needs {store.LOG_FORMAT}")
    config = _logged(args, header)
    fragment = cfgmod.load_players_fragment(args.add)
    added = cfgmod.player_specs(fragment)
    if not added:
        raise cfgmod.ConfigError("--add fragment introduces no new players")
    # The players line this extend writes holds the fragment's entries that
    # no players line holds yet.
    entries = [e for e in fragment if e not in chain(*header.players)]
    population = dataclasses.replace(config,
                                     players=(*config.players, *entries))
    built = cfgmod.build_players(population)
    matches = cfgmod.extend_matches(header.config["players"],
                                    [*header.players, entries],
                                    config.schedule["repeats"],
                                    config.schedule.get("band_width"))
    # Only the matches the log lacks are played, so reruns append nothing.
    stored = np.isin(np.array([tn.match_seed(config.seed, *match)
                               for match in matches], np.uint64),
                     records.seed)
    schedule = tn.explicit_schedule(
        match for match, done in zip(matches, stored) if not done)

    new_records = _play(population, built, schedule, args.strict,
                        store.LogWriter(args.log, players=entries))
    _print_report(*_report(records.concat(new_records), config.rating,
                           built.specs, args.out_dir, config.outputs))
    names = sorted(added, key=lambda s: (s.role != "generator", s.id))
    _say(f"appended {len(new_records)} records to {args.log} "
         f"(new players: {', '.join(s.id for s in names)})")
    return 0


def cmd_simulate(args) -> int:
    from . import experiments

    verdict = experiments.simulate(args.experiment, args.seed, args.out_dir)
    _say(json.dumps(verdict, indent=2, sort_keys=True))
    return 0 if all(verdict["checks"].values()) else 1


def cmd_schedule(args) -> int:
    config, built, schedule, parts = _plan(args)
    gens = {s.id for s in built.specs if s.role == "generator"}
    discs = {s.id for s in built.specs if s.role == "discriminator"}
    full = len(gens) * len(discs)
    _say(f"kind: {config.schedule['kind']}")
    if "band_width" in config.schedule:
        _say(f"band_width: {config.schedule['band_width']}")
    _say(f"players: {len(gens)} generators, {len(discs)} discriminators")
    # The share counts each generator-discriminator pair once, at any
    # number of repeats.
    pairs = len({match[:2] for match in schedule})
    _say(f"matches: {len(schedule)}"
         + (f" ({pairs / full:.0%} of full round robin)" if full else ""))
    _say(f"components: {parts}")
    if args.list:
        for gen_id, disc_id, repeat in schedule:
            _say(f"  {gen_id} vs {disc_id} repeat {repeat}")
    return 0


def _add_rating_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--passes", type=int, metavar="N", dest="max_passes",
                        help="cap on rating passes over the match set")
    parser.add_argument("--tau", type=float,
                        help="volatility responsiveness")
    parser.add_argument("--outcome-mode",
                        choices=("per-sample", "per-match"),
                        help="expand matches into per-sample games or one "
                             "fractional game per match")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arena",
        description="Generator-vs-discriminator tournaments with "
                    "Glicko2 skill ratings.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="play a configured tournament")
    run.add_argument("--config", required=True)
    run.add_argument("--seed", type=int)
    run.add_argument("--batch-size", type=int)
    run.add_argument("--threshold", type=float)
    run.add_argument("--schedule", choices=("round_robin", "band"))
    run.add_argument("--band-width", type=int)
    _add_rating_flags(run)
    run.add_argument("--out-dir")
    run.add_argument("--strict", action="store_true",
                     help="abort on the first failed match instead of "
                          "skipping it")
    run.set_defaults(func=cmd_run)

    rate = sub.add_parser("rate", help="re-rate a stored match log")
    rate.add_argument("log")
    _add_rating_flags(rate)
    rate.add_argument("--out-dir")
    rate.add_argument("--strict", action="store_true",
                      help="abort on the first corrupt log line")
    rate.set_defaults(func=cmd_rate)

    extend = sub.add_parser(
        "extend", help="play new players against a stored population")
    extend.add_argument("log")
    extend.add_argument("--add", required=True, metavar="FRAGMENT",
                        help="file with a players list to add")
    _add_rating_flags(extend)
    extend.add_argument("--out-dir")
    extend.add_argument("--strict", action="store_true")
    extend.set_defaults(func=cmd_extend)

    simulate = sub.add_parser(
        "simulate", help="run a bundled experiment and print its verdict")
    simulate.add_argument("experiment",
                          help=f"one of: {', '.join(EXPERIMENTS)}")
    simulate.add_argument("--seed", type=int)
    simulate.add_argument("--out-dir", default="arena-out")
    simulate.set_defaults(func=cmd_simulate)

    schedule = sub.add_parser(
        "schedule", help="show a config's schedule without playing it")
    schedule.add_argument("--config", required=True)
    schedule.add_argument("--schedule", choices=("round_robin", "band"))
    schedule.add_argument("--band-width", type=int)
    schedule.add_argument("--list", action="store_true",
                          help="print every scheduled match")
    schedule.set_defaults(func=cmd_schedule)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (store.LogError, RuntimeError) as exc:
        # Runtime failures. LogError subclasses ValueError, so it must be
        # caught before the usage errors, ConfigError among them.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc.filename or exc}: not found", file=sys.stderr)
        return 2
    except OSError as exc:
        # A path the user gave that cannot be opened, such as a directory.
        if exc.filename is None:
            raise
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


def entry_point() -> None:
    """The ``arena`` console script and ``python -m arena.cli``: run
    ``main``, flush stdout and stderr, and leave with ``os._exit``,
    skipping the interpreter's teardown. By then ``_play`` has closed the
    log and reaped every external player, and every other file is written
    in a ``with`` block. An exception out of ``main`` exits as usual."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except BrokenPipeError:
            pass  # the reader has gone, as in ``_say``: the rest is dropped
    os._exit(code)


if __name__ == "__main__":
    # Run as ``python -m arena.cli``: register this module under its package
    # name, so that ``experiments`` imports it instead of running cli.py a
    # second time.
    sys.modules.setdefault("arena.cli", sys.modules[__name__])
    entry_point()
