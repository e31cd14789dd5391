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

from . import config as cfgmod
from . import experiments, glicko, store
from . import summarize as sm
from . import tournament as tn
from .extern import ExternalPlayer, ExternError
from .tournament import PlayerSpec


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _load_with_overrides(args) -> cfgmod.TournamentConfig:
    base = cfgmod.load_config(args.config)
    raw = copy.deepcopy(base.raw)
    if getattr(args, "seed", None) is not None:
        raw["seed"] = args.seed
    if getattr(args, "batch_size", None) is not None:
        raw["batch_size"] = args.batch_size
    if getattr(args, "threshold", None) is not None:
        raw["threshold"] = args.threshold
    if getattr(args, "schedule", None) is not None:
        schedule = dict(raw.get("schedule") or {})
        schedule["kind"] = args.schedule
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
    return cfgmod.parse_config(raw, where=str(args.config))


def _rating_updates(args) -> dict:
    updates = {}
    if getattr(args, "passes", None) is not None:
        updates["max_passes"] = args.passes
    if getattr(args, "tau", None) is not None:
        updates["tau"] = args.tau
    if getattr(args, "outcome_mode", None) is not None:
        updates["outcome_mode"] = args.outcome_mode
    return updates


def _out_dir(args, config: cfgmod.TournamentConfig | None = None) -> str:
    if getattr(args, "out_dir", None):
        return args.out_dir
    if config is not None and config.outputs.get("directory"):
        return config.outputs["directory"]
    return "arena-out"


def _play(config: cfgmod.TournamentConfig, built: cfgmod.BuiltPlayers,
          schedule: tn.Schedule, strict: bool, sink=None
          ) -> list[tn.MatchRecord]:
    """Spawn the external players, play the schedule, and close the
    sessions again whatever happens.

    Without ``strict`` a player that cannot be started costs only its own
    matches: it is reported once, with the number of its matches, and
    they are dropped from the schedule.
    """
    sessions = []
    try:
        for entry in built.external:
            try:
                session = ExternalPlayer(entry["command"], role=entry["role"])
            except ExternError as exc:
                if strict:
                    raise
                kept = tuple(m for m in schedule.matches
                             if entry["id"] not in m[:2])
                _warn(f"external player {entry['id']!r} could not be "
                      f"started, its {len(schedule) - len(kept)} matches "
                      f"are skipped: {exc}")
                schedule = dataclasses.replace(schedule, matches=kept)
                continue
            built.players[entry["id"]] = session
            sessions.append(session)
        return tn.run_tournament(
            schedule, built.players, built.data,
            cfgmod.run_settings(config, "fatal" if strict else "skip"),
            sink=sink)
    finally:
        for session in sessions:
            session.close()


def _report(records: list[tn.MatchRecord], rating: glicko.RatingConfig,
            specs: list[PlayerSpec], directory: str | None, names: dict,
            schedule: tn.Schedule | None = None) -> None:
    """Rate the records, write the artifacts into ``directory`` if one is
    given, and print the table and every warning."""
    outcome = glicko.rate_tournament(records, rating)
    summary = sm.summarize(records, outcome.ratings, specs, schedule)
    if directory:
        sm.write_artifacts(directory, summary, names)
    print(sm.format_summary_table(summary))
    for message in (*summary.warnings, *outcome.warnings):
        _warn(message)


def _plan(args) -> tuple[cfgmod.TournamentConfig, cfgmod.BuiltPlayers,
                         tn.Schedule, tn.ScheduleDiagnostics]:
    """Load the config with its flag overrides, build the players and the
    schedule, and print the schedule's warnings and errors."""
    config = _load_with_overrides(args)
    built = cfgmod.build_players(config)
    schedule = cfgmod.build_schedule(config, built.specs)
    diagnostics = tn.validate_schedule(schedule,
                                       {s.id: s for s in built.specs})
    for message in diagnostics.warnings:
        _warn(message)
    for problem in diagnostics.errors:
        print(f"error: {problem}", file=sys.stderr)
    return config, built, schedule, diagnostics


def cmd_run(args) -> int:
    config, built, schedule, diagnostics = _plan(args)
    if not diagnostics.ok:
        return 2

    directory = _out_dir(args, config)
    os.makedirs(directory, exist_ok=True)
    log_path = os.path.join(directory,
                            config.outputs.get("log", "log.jsonl"))
    header = store.LogHeader(cfgmod.config_hash(config), config.seed)

    sink = store.LogWriter(log_path, header)
    try:
        records = _play(config, built, schedule, args.strict, sink)
    finally:
        sink.close()
    _report(records, config.rating, built.specs, directory, config.outputs,
            schedule)
    print(f"log: {log_path} ({len(records)} records)")
    return 0


def _specs_from_records(records) -> list[PlayerSpec]:
    gens = sorted({r.generator_id for r in records})
    discs = sorted({r.discriminator_id for r in records})
    return ([PlayerSpec(g, "generator", "custom", None, None) for g in gens]
            + [PlayerSpec(d, "discriminator", "custom", None, None)
               for d in discs])


def cmd_rate(args) -> int:
    rating = cfgmod.parse_rating(_rating_updates(args), "command line")
    header, records, problems = store.read_log(args.log, strict=args.strict)
    for problem in problems:
        _warn(problem)
    if not records:
        _warn(f"{args.log}: no match records; every player would keep its "
              "default rating")
        return 0
    _report(records, rating, _specs_from_records(records), args.out_dir, {})
    return 0


def cmd_extend(args) -> int:
    config = _load_with_overrides(args)
    header, records, _ = store.read_log(args.log, strict=True)
    expected = cfgmod.config_hash(config)
    if header.config_hash != expected:
        if not args.force:
            print(f"error: {args.log} was produced under config hash "
                  f"{header.config_hash}, but {args.config} hashes to "
                  f"{expected}; pass --force to extend anyway",
                  file=sys.stderr)
            return 2
        _warn("config hash mismatch; extending anyway (--force)")

    fragment = cfgmod.load_players_fragment(args.add)
    baseline_ids = {s.id for s in cfgmod.build_players(config).specs}
    built = cfgmod.build_players(config, extra=fragment)
    new_gens = sorted(s.id for s in built.specs
                      if s.role == "generator" and s.id not in baseline_ids)
    new_discs = sorted(s.id for s in built.specs
                       if s.role == "discriminator"
                       and s.id not in baseline_ids)
    old_gens = sorted(s.id for s in built.specs
                      if s.role == "generator" and s.id in baseline_ids)
    old_discs = sorted(s.id for s in built.specs
                       if s.role == "discriminator"
                       and s.id in baseline_ids)
    if not new_gens and not new_discs:
        print("error: --add fragment introduces no new players",
              file=sys.stderr)
        return 2
    matches = [(g, d, 0) for g in new_gens for d in old_discs]
    matches += [(g, d, 0) for g in old_gens for d in new_discs]
    schedule = tn.explicit_schedule(matches)

    new_records = _play(config, built, schedule, args.strict)
    # Appended only once every new match has been played, so a --strict
    # failure leaves the log untouched.
    with store.LogWriter(args.log) as sink:
        for record in new_records:
            sink(record)
    _report(records + new_records, config.rating, built.specs, args.out_dir,
            config.outputs)
    print(f"appended {len(new_records)} records to {args.log} "
          f"(new players: {', '.join(new_gens + new_discs)})")
    return 0


def cmd_simulate(args) -> int:
    verdict = experiments.simulate(args.experiment, args.seed, args.out_dir)
    print(json.dumps(verdict, indent=2, sort_keys=True))
    return 0 if all(verdict["checks"].values()) else 1


def cmd_schedule(args) -> int:
    _, built, schedule, diagnostics = _plan(args)
    gens = {s.id for s in built.specs if s.role == "generator"}
    discs = {s.id for s in built.specs if s.role == "discriminator"}
    full = len(gens) * len(discs)
    print(f"kind: {schedule.kind}")
    if schedule.band_width is not None:
        print(f"band_width: {schedule.band_width}")
    print(f"players: {len(gens)} generators, {len(discs)} discriminators")
    print(f"matches: {len(schedule.matches)}"
          + (f" ({len(schedule.matches) / full:.0%} of full round robin)"
             if full else ""))
    print(f"components: {diagnostics.components}")
    if args.list:
        for gen_id, disc_id, repeat in schedule.matches:
            print(f"  {gen_id} vs {disc_id} repeat {repeat}")
    return 0 if diagnostics.ok else 2


def _add_rating_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--passes", type=int, metavar="N",
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
    extend.add_argument("--config", required=True)
    extend.add_argument("--add", required=True, metavar="FRAGMENT",
                        help="file with a players list to add")
    extend.add_argument("--force", action="store_true",
                        help="extend even if the config hash differs from "
                             "the log header")
    _add_rating_flags(extend)
    extend.add_argument("--out-dir")
    extend.add_argument("--strict", action="store_true")
    extend.set_defaults(func=cmd_extend)

    simulate = sub.add_parser(
        "simulate", help="run a bundled experiment and print its verdict")
    simulate.add_argument("experiment",
                          help=f"one of: {', '.join(experiments.EXPERIMENTS)}")
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
    except cfgmod.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except store.LogError as exc:
        # LogError subclasses ValueError but is a runtime failure, not a
        # usage error, so it must be caught first.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc.filename or exc}: not found", file=sys.stderr)
        return 2
    except (tn.MatchError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
