"""Run one arena CLI command in this process with spans around each layer.

    python perfbench/trace_cli.py OUT.json PANELS.json -- <arena arguments>

Nothing inside ``src/`` is instrumented. Public module functions are replaced
by timing wrappers before the command runs (the CLI looks them up on their
modules at call time), and every player, the data source, the log sink and
each external session is wrapped in a proxy that times ``sample``/``judge``/
``__call__`` and forwards every other attribute unchanged. Spans (name,
start, end, parent) stay in memory and are written to OUT.json at exit,
together with exact work counts.

PANELS.json maps discriminator ids to ``[panel kind, log-densities per
judged sample]`` as named in the workload config; judge spans are labelled
``toy.judge.<kind>``.
"""

from __future__ import annotations

import json
import os
import sys
import time

clock = time.perf_counter


class Tracer:
    """In-memory spans ``[name, start, end, parent index]`` and counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, clock(), 0.0, parent])
        self.stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            self.spans[index][2] = clock()

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(amount)


class PlayerProxy:
    """Times sample/judge of one wrapped player, and close, which only
    external sessions receive; forwards every other attribute."""

    def __init__(self, tracer: Tracer, player, sample_span: str,
                 judge_span: str, evals_per_sample: int = 0):
        self._tracer = tracer
        self._player = player
        self._sample_span = sample_span
        self._judge_span = judge_span
        self._evals = evals_per_sample

    def sample(self, *args, **kwargs):
        return self._tracer.call(self._sample_span, self._player.sample,
                                 *args, **kwargs)

    def judge(self, batch, *args, **kwargs):
        if self._judge_span.startswith("toy."):
            self._tracer.add("toy.judged_samples", len(batch))
            self._tracer.add("toy.density_evals", len(batch) * self._evals)
        return self._tracer.call(self._judge_span, self._player.judge, batch,
                                 *args, **kwargs)

    def close(self, *args, **kwargs):
        return self._tracer.call("extern.close", self._player.close,
                                 *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._player, name)


class SinkProxy:
    """Times the log sink's writes; records its path for the byte count."""

    def __init__(self, tracer: Tracer, factory, path, *args, **kwargs):
        self._tracer = tracer
        self.path = path
        self._sink = tracer.call("store.write", factory, path, *args,
                                 **kwargs)

    def __call__(self, record):
        self._tracer.add("store.records_written")
        return self._tracer.call("store.write", self._sink, record)

    def close(self):
        return self._tracer.call("store.write", self._sink.close)

    def __getattr__(self, name):
        return getattr(self._sink, name)


def _wrap(tracer: Tracer, module, attr: str, span: str, after=None):
    original = getattr(module, attr)

    def wrapper(*args, **kwargs):
        result = tracer.call(span, original, *args, **kwargs)
        if after is not None:
            after(result, *args, **kwargs)
        return result

    setattr(module, attr, wrapper)


def install(tracer: Tracer, panels: dict, cli) -> list:
    """Patch the arena modules; returns the log sinks created later, whose
    files are sized when the command ends."""
    from arena import config, glicko, store, summarize, tournament

    sinks: list[SinkProxy] = []

    def wrap_players(built, *args, **kwargs):
        tracer.add("config.players", len(built.specs))
        roles = {s.id: s.role for s in built.specs}
        for pid, player in built.players.items():
            if player is None:
                continue  # external: wrapped when spawned
            if roles[pid] == "generator":
                built.players[pid] = PlayerProxy(tracer, player, "toy.sample",
                                                 "toy.judge.other")
            else:
                kind, evals = panels.get(pid, ("other", 0))
                built.players[pid] = PlayerProxy(
                    tracer, player, "toy.sample", f"toy.judge.{kind}", evals)
        built.data = PlayerProxy(tracer, built.data, "toy.sample",
                                 "toy.judge.other")

    def count_play(records, schedule, *args, **kwargs):
        tracer.add("tournament.scheduled", len(schedule))
        tracer.add("tournament.matches", len(records))

    def count_read(result, path, *args, **kwargs):
        _, records, problems = result
        tracer.add("store.records_read", len(records))
        tracer.add("store.bytes_read", os.path.getsize(path))

    def count_rate(outcome, records, *args, **kwargs):
        tracer.add("glicko.passes", outcome.passes)
        tracer.add("glicko.games",
                   sum(r.n_fake + r.n_real for r in records))
        tracer.add("glicko.player_updates",
                   outcome.passes * len(outcome.ratings))
        tracer.add("glicko.converged", int(outcome.converged))

    def count_written(result, path, *args, **kwargs):
        tracer.add("summarize.bytes_written", os.path.getsize(path))

    _wrap(tracer, config, "load_config", "config.load")
    _wrap(tracer, config, "parse_config", "config.load")
    _wrap(tracer, config, "build_players", "config.build",
          after=wrap_players)
    _wrap(tracer, config, "build_schedule", "config.schedule")
    _wrap(tracer, tournament, "run_tournament", "tournament.play",
          after=count_play)
    _wrap(tracer, tournament, "play_match", "tournament.match")
    _wrap(tracer, store, "read_log", "store.read", after=count_read)
    _wrap(tracer, glicko, "rate_tournament", "glicko.rate", after=count_rate)
    _wrap(tracer, summarize, "summarize", "summarize.summarize")
    for writer in ("write_summary_csv", "write_heatmap_csv",
                   "write_heatmap_svg", "write_curve_svg"):
        _wrap(tracer, summarize, writer, "summarize.write",
              after=count_written)

    log_writer = store.LogWriter

    def make_sink(path, *args, **kwargs):
        sink = SinkProxy(tracer, log_writer, path, *args, **kwargs)
        sinks.append(sink)
        return sink

    store.LogWriter = make_sink

    external = cli.ExternalPlayer

    def spawn(*args, **kwargs):
        session = tracer.call("extern.spawn", external, *args, **kwargs)
        return PlayerProxy(tracer, session, "extern.request",
                           "extern.request")

    cli.ExternalPlayer = spawn
    return sinks


def main(argv: list[str]) -> int:
    out_path, panels_path, sep, *arena_args = argv
    if sep != "--":
        raise SystemExit("usage: trace_cli.py OUT.json PANELS.json -- ARGS")
    start = clock()
    import arena.cli as cli
    import_s = clock() - start

    with open(panels_path) as fh:
        panels = json.load(fh)
    tracer = Tracer()
    sinks = install(tracer, panels, cli)
    code = cli.main(arena_args)
    for sink in sinks:
        tracer.add("store.bytes_written", os.path.getsize(sink.path))
    with open(out_path, "w") as fh:
        json.dump({"import_s": import_s, "arena_file": cli.__file__,
                   "spans": tracer.spans, "counts": tracer.counts}, fh,
                  separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
