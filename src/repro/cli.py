"""Command-line interface: ``repro-timber <command>``.

Gives quick terminal access to the headline experiments:

* ``fig1``       — critical-path distribution (motivation).
* ``fig8``       — case-study overhead sweep.
* ``waveforms``  — Figs. 5/7 two-stage error waveforms (ASCII or VCD).
* ``table1``     — technique comparison table.
* ``deploy``     — deploy TIMBER on a synthetic processor and summarise.
* ``energy``     — margin-to-energy conversion per scheme.
* ``sweep``      — run an experiment grid through the parallel sweep
  runner (``--workers``, on-disk result cache, run telemetry).
* ``campaign``   — randomized fault-injection campaign with per-scheme
  coverage reports (``--resume`` continues a killed run from its
  checkpoint).
* ``soak``       — continuous streaming fault injection with adaptive
  stratified sampling, an append-only replay journal, and crash-safe
  checkpoints (``--resume`` continues a killed soak byte-identically).
* ``obs``        — render or merge observability trace files (JSONL
  spans in, Chrome trace-event JSON and/or a terminal flame summary
  out).  ``sweep``, ``campaign``, and ``soak`` take ``--obs-out DIR``
  to collect metrics and spans while they run.
* ``monitor``    — watch a live (or finished) run through its durable
  obs event stream: ``--follow`` tails the spool as a terminal status
  feed, ``--once --json`` emits the machine-readable run health, and
  ``--html OUT`` writes a static report.  The long-running commands
  spool ``events.jsonl`` into their ``--obs-out`` directory (or
  wherever ``--events`` points), and their own live status lines are
  folded from the *same* event stream, so CLI progress and ``monitor``
  can never disagree.

The long-running commands (``sweep``, ``campaign``, ``soak``) install a
graceful-shutdown handler: the first SIGTERM/SIGINT requests a drain —
queued work is dropped, in-flight batches finish and are checkpointed,
observability output is still written — and the process exits with the
conventional ``128 + signum``.  A second signal interrupts immediately.

A process that imports this module freezes its heap at exit
(:func:`gc.freeze`, as an :mod:`atexit` hook): the interpreter's final
collection then skips the objects that are still alive — for a CLI
run, mostly the import-time heap of numpy and the package, which that
sweep would walk and free nothing of.  Every file a command opens is
closed by the command itself, never left to that sweep.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import gc
import signal
import sys

from repro import __version__

# Registered at import, before any hook a command registers, so it runs
# after those (exit hooks run last-in, first-out).
atexit.register(gc.freeze)


def _cmd_fig1(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import fig1_experiment
    from repro.analysis.tables import format_table

    results = fig1_experiment()
    rows = []
    for name in ("low", "medium", "high"):
        for dist in results[name]:
            rows.append([
                name, f"top {dist.percent_threshold:.0f}%",
                f"{dist.pct_ffs_ending:.1f}",
                f"{dist.pct_ffs_through:.1f}",
            ])
    print(format_table(
        ["point", "threshold", "% FFs ending", "% FFs start+end"], rows))
    return 0


def _cmd_fig8(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import fig8_experiment
    from repro.analysis.tables import format_table

    rows = fig8_experiment()
    table_rows = [
        [r.point, f"{r.checking_percent:.0f}%", r.style,
         "TB" if r.with_tb_interval else "no-TB",
         f"{r.margin_percent:.1f}", f"{r.power_overhead_percent:.2f}",
         f"{r.relay_area_overhead_percent:.2f}",
         f"{r.relay_slack_percent:.0f}"]
        for r in rows
    ]
    print(format_table(
        ["point", "checking", "style", "variant", "margin %",
         "power ovh %", "relay area %", "relay slack %"], table_rows))
    return 0


def _cmd_waveforms(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import two_stage_waveform_experiment

    result = two_stage_waveform_experiment(args.style)
    if args.vcd:
        from repro.sim.vcd import write_vcd

        write_vcd(args.vcd, result.recorder,
                  end_ps=3 * result.period_ps + result.period_ps // 2)
        print(f"wrote {args.vcd}")
    else:
        print(result.recorder.render_ascii(
            end_ps=3 * result.period_ps + result.period_ps // 2,
            step_ps=50,
            order=["clk", "d1", "q1", "err1", "d2", "q2", "err2"]))
        print(f"stage1 flagged: {result.stage1_flagged}; "
              f"stage2 flagged: {result.stage2_flagged}")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.baselines.registry import TABLE1_CATEGORIES, table1_rows

    headers = ["Feature"] + [c.category.value for c in TABLE1_CATEGORIES]
    print(format_table(headers, table1_rows(), max_col_width=30))
    return 0


def _cmd_deploy(args: argparse.Namespace) -> int:
    from repro.core import TimberDesign, TimberStyle
    from repro.processor import PERFORMANCE_POINTS, generate_processor

    point = next((p for p in PERFORMANCE_POINTS if p.name == args.point),
                 None)
    if point is None:
        print(f"unknown performance point {args.point!r}",
              file=sys.stderr)
        return 2
    graph = generate_processor(point)
    design = TimberDesign(
        graph=graph,
        style=(TimberStyle.FLIP_FLOP if args.style == "ff"
               else TimberStyle.LATCH),
        percent_checking=args.checking,
        with_tb_interval=not args.no_tb,
    )
    for key, value in design.summary().items():
        print(f"{key:32s} {value:.2f}")
    return 0


def _cmd_energy(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.baselines.architectures import ARCHITECTURES
    from repro.power.voltage import margin_to_energy_savings

    rows = []
    for arch in ARCHITECTURES:
        margin = arch.margin_recovered_percent(args.checking)
        savings = margin_to_energy_savings(margin)
        rows.append([
            arch.display_name, f"{margin:.1f}",
            f"{savings.scaled_vdd:.3f}",
            f"{savings.gross_savings_percent:.1f}",
        ])
    print(format_table(
        ["scheme", "margin (% of T)", "scaled Vdd",
         "gross energy savings %"], rows))
    return 0


def _sweep_rows(experiment: str, values) -> tuple[list[str], list[list]]:
    """Render one sweep's results as (headers, rows)."""
    if experiment == "resilience":
        return (
            ["scheme", "droop", "masked", "detected", "predicted",
             "failed", "throughput"],
            [[p.technique, f"{p.droop_amplitude * 100:.0f}%",
              p.result.masked, p.result.detected, p.result.predicted,
              p.result.failed, f"{p.result.throughput_factor:.4f}"]
             for p in values],
        )
    if experiment == "throughput":
        return (
            ["scheme", "overclock", "effective speedup",
             "silent failures"],
            [[p.technique, f"+{p.overclock_percent:.0f}%",
              f"{p.effective_speedup:.4f}", p.result.failed]
             for p in values],
        )
    if experiment == "shootout":
        return (
            ["scheme", "masked", "detected", "predicted",
             "failed (silent)", "recovery cycles", "throughput"],
            [[key, r.masked, r.detected, r.predicted, r.failed,
              r.replay_cycles, f"{r.throughput_factor:.4f}"]
             for key, r in values.items()],
        )
    if experiment == "fig1":
        return (
            ["point", "threshold", "% FFs ending", "% FFs start+end"],
            [[name, f"top {d.percent_threshold:.0f}%",
              f"{d.pct_ffs_ending:.1f}", f"{d.pct_ffs_through:.1f}"]
             for name, dists in values.items() for d in dists],
        )
    # fig8
    return (
        ["point", "checking", "style", "variant", "margin %",
         "power ovh %", "relay area %", "relay slack %"],
        [[r.point, f"{r.checking_percent:.0f}%", r.style,
          "TB" if r.with_tb_interval else "no-TB",
          f"{r.margin_percent:.1f}", f"{r.power_overhead_percent:.2f}",
          f"{r.relay_area_overhead_percent:.2f}",
          f"{r.relay_slack_percent:.0f}"]
         for r in values],
    )


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _make_runner(args: argparse.Namespace, *,
                 checkpoint_path: str | None = None, cached: bool = True):
    """Build a :class:`SweepRunner` from the shared execution flags.

    Callers that run multiple phases (the campaign command) reassign
    ``runner.checkpoint`` per phase instead of building a runner — and
    hence a worker pool — per phase.  ``cached=False`` builds it with
    no result cache, whatever the cache flags say.
    """
    from repro.exec import ResultCache, SweepCheckpoint, SweepRunner

    cache = (ResultCache(args.cache_dir)
             if cached and not args.no_cache else None)
    checkpoint = None
    path = (checkpoint_path if checkpoint_path is not None
            else args.checkpoint)
    if path:
        checkpoint = SweepCheckpoint(path, resume=args.resume)
    return SweepRunner(
        workers=args.workers, cache=cache,
        task_timeout_s=args.timeout,
        retries=args.retries,
        backoff_base_s=args.backoff,
        checkpoint=checkpoint,
        batch_target_s=max(0.0, args.batch_target_ms / 1000.0),
    )


class _DrainState:
    """Which signal (if any) requested a graceful drain."""

    def __init__(self) -> None:
        self.signum: int | None = None

    @property
    def exit_code(self) -> int:
        return 128 + (self.signum or signal.SIGTERM)


@contextlib.contextmanager
def _graceful_drain(runner, publisher=None):
    """Route SIGTERM/SIGINT into a graceful runner drain.

    The first signal only sets the runner's drain flag (handler-safe):
    queued tasks are dropped, in-flight batches finish and land in the
    checkpoint, and the command's normal teardown (obs flush, summary)
    still runs.  A second signal falls back to ``KeyboardInterrupt``
    for users who really mean *now*.  Previous handlers are restored on
    exit, so nested uses (tests calling :func:`main` in-process) are
    safe.  ``publisher`` gets the drain noted the same handler-safe way
    (the actual ``drain`` event is written off the heartbeat thread).
    """
    state = _DrainState()

    def handler(signum: int, frame) -> None:
        if state.signum is not None:
            raise KeyboardInterrupt
        state.signum = signum
        runner.request_drain()
        if publisher is not None:
            publisher.note_drain(signum)

    previous = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[sig] = signal.signal(sig, handler)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    try:
        yield state
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)


def _obs_begin(args: argparse.Namespace) -> bool:
    """Enable observability when ``--obs-out`` was given.

    Sets ``REPRO_OBS`` in the environment too, so process-pool workers
    inherit the setting and their metrics/spans ship back to us.
    """
    if not getattr(args, "obs_out", None):
        return False
    import os

    from repro import obs

    os.environ[obs.OBS_ENV] = "1"
    obs.enable()
    return True


def _obs_finish(args: argparse.Namespace) -> None:
    from repro import obs
    from repro.obs.exporters import write_obs_dir

    for path in write_obs_dir(args.obs_out, obs.REGISTRY, obs.TRACER):
        print(f"wrote {path}")


class _LiveStatus:
    """Folds published events into the shared CLI status line.

    The fold (:class:`repro.obs.health.HealthFold`) and the renderer
    (:func:`repro.obs.render.format_status_line`) are exactly what
    ``repro-timber monitor`` applies to the on-disk spool, so the live
    line a command prints and the line the monitor shows are the same
    function of the same events — they cannot disagree.
    """

    #: Event types that always produce a printed line.
    _PRINT_ON = frozenset({"round", "phase_end", "quarantine", "crash",
                           "drain", "run_end"})

    def __init__(self, *, quiet: bool = False,
                 progress: bool = True) -> None:
        from repro.obs.health import HealthFold

        self.fold = HealthFold()
        self._quiet = quiet
        self._progress = progress
        self._after_progress_line = False

    def __call__(self, event: dict) -> None:
        self.fold.apply(event)
        if self._quiet:
            return
        etype = event.get("type")
        shown = (etype in self._PRINT_ON
                 or (self._progress and etype == "progress"))
        # A run's finish forces a ``progress`` and then emits its
        # ``phase_end``: both fold to the phase's last line, printed
        # once (for the progress).  Unprinted events between them, such
        # as a registry's ``metrics``, do not break the pair.
        if not shown:
            return
        if not (etype == "phase_end" and self._after_progress_line):
            print(self.line(), file=sys.stderr, flush=True)
        self._after_progress_line = etype == "progress"

    def line(self) -> str:
        import time

        from repro.obs.render import format_status_line

        return format_status_line(
            self.fold.health(now_wall=time.time()))


def _publisher_begin(args: argparse.Namespace, kind: str,
                     observing: bool, *, meta: dict | None = None,
                     progress_lines: bool = True):
    """Open the run's event publisher plus its live status printer.

    The spool lands at ``--events`` when given, else
    ``<obs-out>/events.jsonl``; with neither, the publisher still runs
    listener-only so the status line works without any file output.
    """
    from repro import obs
    from repro.obs.stream import EVENTS_FILENAME, EventPublisher

    path = getattr(args, "events", None)
    if not path and getattr(args, "obs_out", None):
        import os

        path = os.path.join(args.obs_out, EVENTS_FILENAME)
    publisher = EventPublisher(
        path, kind=kind,
        heartbeat_s=getattr(args, "heartbeat", 5.0),
        registry=obs.REGISTRY if observing else None,
        meta=meta or {},
    )
    live = _LiveStatus(quiet=getattr(args, "quiet", False),
                       progress=progress_lines)
    publisher.add_listener(live)
    publisher.open()
    return publisher, live


def _checkpoint_events(runner, publisher) -> None:
    """Emit a ``checkpoint`` event on every durable checkpoint flush."""
    if runner.checkpoint is not None:
        checkpoint = runner.checkpoint
        checkpoint.on_flush = lambda records: publisher.checkpoint(
            records=records, path=str(checkpoint.path))


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.exec import SweepDrained

    observing = _obs_begin(args)
    runner = _make_runner(args)
    publisher, live = _publisher_begin(
        args, "sweep", observing,
        meta={"experiment": args.experiment})
    publisher.attach(runner.telemetry)
    _checkpoint_events(runner, publisher)
    try:
        with _graceful_drain(runner, publisher) as drain:
            try:
                return _run_sweep(args, runner, observing, publisher)
            except SweepDrained as drained:
                completed = len(drained.result.outcomes)
                publisher.run_end("drained", completed=completed)
                print(f"\ndrained: {completed} task(s) completed and "
                      f"checkpointed before shutdown", file=sys.stderr)
                if observing:
                    _obs_finish(args)
                return drain.exit_code
    finally:
        # No-op when run_end already went out; otherwise the run died
        # on an exception and the stream should say so.
        publisher.close(status="error")
        runner.close()


def _run_sweep(args: argparse.Namespace, runner, observing: bool,
               publisher) -> int:
    from repro.analysis import experiments
    from repro.analysis.tables import format_table
    from repro.exec.telemetry import format_summary

    extra: dict = {}
    if args.experiment in ("resilience", "throughput", "shootout"):
        if args.cycles is not None:
            extra["num_cycles"] = args.cycles
        if args.experiment != "shootout" and args.seed is not None:
            extra["seed"] = args.seed
    elif args.seed is not None:
        extra["seed"] = args.seed

    sweep = {
        "resilience": experiments.resilience_sweep,
        "throughput": experiments.throughput_sweep,
        "shootout": experiments.shootout_sweep,
        "fig1": experiments.fig1_experiment,
        "fig8": experiments.fig8_experiment,
    }[args.experiment]
    publisher.run_start(unit="tasks", experiment=args.experiment)
    values = sweep(runner=runner, **extra)
    publisher.run_end("ok")

    headers, rows = _sweep_rows(args.experiment, values)
    print(format_table(headers, rows))
    assert runner.last_run is not None
    print()
    print(format_summary(runner.last_run.summary))
    if args.summary:
        runner.telemetry.write_summary(args.summary)
        print(f"wrote {args.summary}")
    if observing:
        _obs_finish(args)
    return 0


def _campaign_checkpoint_path(base: str, scheme: str) -> str:
    """Per-scheme checkpoint file for a multi-scheme campaign run."""
    import pathlib

    path = pathlib.Path(base)
    suffix = path.suffix or ".json"
    return str(path.with_name(f"{path.stem}-{scheme}{suffix}"))


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign import (
        CampaignConfig,
        render_reports,
        run_campaign,
        warm_backgrounds,
        write_campaign_bench,
    )
    from repro.errors import ConfigurationError
    from repro.exec.worker import WARM

    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    if not schemes:
        print("error: no schemes given", file=sys.stderr)
        return 2
    # Every scheme's config is validated before anything starts, so a
    # bad argument is one error line, not a failed worker task.
    try:
        configs = [CampaignConfig(
            target=args.target, scheme=scheme,
            num_faults=args.faults, num_cycles=args.cycles,
            checking_percent=args.checking,
            num_stages=args.stages, seed=args.seed,
            faults_per_task=args.chunk,
            snapshot_stride=args.snapshot_stride,
        ) for scheme in schemes]
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    observing = _obs_begin(args)
    reports = []
    config = None
    summary: dict | None = None
    # One runner — hence one warm worker pool and one adaptive sizer —
    # shared across every scheme phase; only the checkpoint is
    # per-scheme, so each phase stays independently resumable.
    from repro.exec import SweepDrained

    runner = _make_runner(args)
    publisher, live = _publisher_begin(
        args, "campaign", observing,
        meta={"target": args.target, "schemes": schemes,
              "faults": args.faults})
    publisher.attach(runner.telemetry)
    publisher.run_start(unit="tasks", schemes=schemes)
    drained_exit: int | None = None
    try:
        with _graceful_drain(runner, publisher) as drain:
            # Built when the first phase with work starts the pool, so
            # forked workers inherit every background they will need.
            runner.before_fork = lambda: warm_backgrounds(configs)
            for config in configs:
                scheme = config.scheme
                runner.checkpoint = None
                if args.checkpoint:
                    from repro.exec import SweepCheckpoint

                    runner.checkpoint = SweepCheckpoint(
                        _campaign_checkpoint_path(args.checkpoint,
                                                  scheme),
                        resume=args.resume)
                _checkpoint_events(runner, publisher)
                try:
                    result = run_campaign(config, runner=runner,
                                          publisher=publisher)
                except SweepDrained as drained:
                    completed = len(drained.result.outcomes)
                    publisher.run_end("drained", scheme=scheme,
                                      completed=completed)
                    print(f"{scheme}: drained after {completed} "
                          f"chunk(s); re-run with --resume to continue",
                          file=sys.stderr)
                    drained_exit = drain.exit_code
                    break
                reports.append(result.report)
                summary = result.summary
                # No later phase reads this scheme's background, and a
                # forked pool's workers hold their own copies of every
                # scheme's: this process's copies only raise its peak
                # memory.
                WARM.discard("trajectory")
                # Scheme-boundary result line: campaign domain facts up
                # front, then the shared RunHealth status (the same fold
                # ``monitor`` renders — see _LiveStatus).
                line = (f"{scheme}: "
                        f"{len(result.outcomes)}/{config.num_faults} "
                        f"faults classified")
                if summary.get("resumed_tasks"):
                    line += (f" ({summary['resumed_tasks']} task(s) "
                             f"resumed)")
                print(f"{line} — {live.line()}")
            if drained_exit is None:
                publisher.run_end("ok")
    finally:
        publisher.close(status="error")
        runner.close()
    if reports:
        print()
        print(render_reports(reports))
    if args.out and drained_exit is None:
        write_campaign_bench(args.out, reports, config=config,
                             telemetry=summary)
        print(f"wrote {args.out}")
    if observing:
        _obs_finish(args)
    return drained_exit if drained_exit is not None else 0


def _cmd_soak(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.campaign import CampaignConfig
    from repro.errors import ConfigurationError, ExecutionError
    from repro.soak import SoakConfig, run_soak

    observing = _obs_begin(args)
    try:
        campaign = CampaignConfig(
            target=args.target, scheme=args.scheme,
            num_faults=1,  # soak draws are stratified, not population
            num_cycles=args.cycles, checking_percent=args.checking,
            num_stages=args.stages, seed=args.seed,
            faults_per_task=args.chunk,
            snapshot_stride=args.snapshot_stride,
        )
        soak = SoakConfig(
            campaign=campaign,
            faults_per_round=args.faults_per_round,
            magnitude_bins=args.magnitude_bins,
            min_weight=args.min_weight,
            adaptive=not args.uniform,
        )
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    # The soak checkpoint is the soak loop's own (``--checkpoint``
    # names it); the sweep-level checkpoint machinery stays off, and so
    # does the result cache — soak draws never repeat, so caching them
    # would only burn disk.
    runner = _make_runner(args, checkpoint_path="", cached=False)
    # The per-round status line is the RunHealth fold over the soak's
    # own ``round`` events (not runner-task progress — a soak's unit
    # is faults), printed by the publisher's listener.
    publisher, live = _publisher_begin(
        args, "soak", observing,
        meta={"target": args.target, "scheme": args.scheme},
        progress_lines=False)
    publisher.attach(runner.telemetry)
    publisher.run_start(unit="faults", total=args.max_faults,
                        scheme=args.scheme, target=args.target)

    try:
        with _graceful_drain(runner, publisher) as drain:
            try:
                result = run_soak(
                    soak,
                    journal_path=args.journal,
                    checkpoint_path=args.checkpoint or None,
                    runner=runner,
                    resume=args.resume,
                    max_faults=args.max_faults,
                    max_runtime_s=args.max_runtime,
                    target_ci_width=args.target_ci_width,
                    max_rounds=args.rounds,
                    publisher=publisher,
                )
            except ConfigurationError as error:
                publisher.run_end("error", detail=str(error))
                print(f"error: {error}", file=sys.stderr)
                return 2
            except ExecutionError as error:
                publisher.run_end("error", detail=str(error))
                print(f"error: {error}", file=sys.stderr)
                return 1
        publisher.run_end(
            "drained" if result.drained else "ok",
            stop_reason=result.stop_reason,
            rounds=result.rounds, faults=result.total_faults)
    finally:
        publisher.close(status="error")
        runner.close()

    rows = [
        [s["stratum"], s["n"], s["escaped"],
         f"{s['escape_rate']:.4f}",
         f"[{s['ci_low']:.4f}, {s['ci_high']:.4f}]",
         f"{s['ci_width']:.4f}"]
        for s in result.per_stratum
    ]
    print(format_table(
        ["stratum", "n", "escaped", "escape rate", "95% CI", "width"],
        rows))
    overall = result.overall
    print()
    print(f"overall escape rate {overall['escape_rate']:.4f} "
          f"[{overall['ci_low']:.4f}, {overall['ci_high']:.4f}] "
          f"over {result.total_faults} fault(s), "
          f"{result.rounds} round(s)")
    print(f"stopped: {result.stop_reason}; "
          f"{result.faults_evaluated:.0f} fault(s) evaluated this "
          f"process in {result.wall_time_s:.2f}s "
          f"({result.faults_per_second:.1f} faults/s)")
    if args.out:
        import json

        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({
                "schema_version": 1,
                "soak": soak.to_params(),
                "run_key": soak.run_key(),
                "rounds": result.rounds,
                "total_faults": result.total_faults,
                "stop_reason": result.stop_reason,
                "drained": result.drained,
                "overall": result.overall,
                "widest": result.widest,
                "per_stratum": result.per_stratum,
                "wall_time_s": result.wall_time_s,
                "faults_evaluated": result.faults_evaluated,
                "faults_per_second": result.faults_per_second,
            }, handle, indent=2)
        print(f"wrote {args.out}")
    if observing:
        _obs_finish(args)
    if result.drained:
        print("drained: journal and checkpoint are consistent; "
              "re-run with --resume to continue", file=sys.stderr)
        return drain.exit_code
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.obs.health import HealthFold
    from repro.obs.render import (
        format_status_line,
        render_dashboard,
        write_html,
    )
    from repro.obs.stream import (
        EventStreamReader,
        StreamCorrupt,
        events_path,
    )

    try:
        path = events_path(args.run_dir)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    fold = HealthFold(stale_after_s=args.stale_after)
    events: list[dict] = []
    header_seen = False

    def drain_reader() -> None:
        nonlocal header_seen
        batch = reader.poll()
        # poll() keeps the header on the reader rather than yielding
        # it; the fold wants it first, as written to the spool.
        if not header_seen and reader.header is not None:
            fold.apply(reader.header)
            header_seen = True
        for event in batch:
            fold.apply(event)
            events.append(event)

    try:
        reader = EventStreamReader(path)
        drain_reader()
    except StreamCorrupt as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: cannot read {path}: {error}", file=sys.stderr)
        return 2

    if not args.follow:
        health = fold.health(now_wall=time.time())
        if args.html:
            write_html(args.html, health, events=events)
            print(f"wrote {args.html}")
        if args.json:
            print(json.dumps(health.to_json(), indent=2))
        elif not args.html:
            print(render_dashboard(health))
        return 0

    # --follow: poll the spool, reprint the status line whenever the
    # fold's view changes, and leave once the run reaches a terminal
    # lifecycle (a stale run never terminates on its own — ^C exits).
    last_line = ""
    try:
        while True:
            try:
                drain_reader()
            except StreamCorrupt as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
            health = fold.health(now_wall=time.time())
            line = format_status_line(health)
            if line != last_line:
                print(line, flush=True)
                last_line = line
            if health.lifecycle in ("done", "drained", "error"):
                break
            time.sleep(max(0.05, args.interval))
    except KeyboardInterrupt:
        print("", file=sys.stderr)
    health = fold.health(now_wall=time.time())
    if args.html:
        write_html(args.html, health, events=events)
        print(f"wrote {args.html}")
    if args.json:
        print(json.dumps(health.to_json(), indent=2))
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs.exporters import (
        load_spans_jsonl,
        render_flame,
        write_chrome_trace,
    )

    try:
        spans = load_spans_jsonl(args.traces)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not spans:
        print("no spans found", file=sys.stderr)
        return 1
    if args.chrome:
        write_chrome_trace(spans, args.chrome)
        print(f"wrote {args.chrome} ({len(spans)} span(s))")
    if args.flame or not args.chrome:
        print(render_flame(spans))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import generate_report

    try:
        text = generate_report(args.out_dir)
    except Exception as error:  # surfaced as exit status for scripts
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro-timber`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-timber",
        description="TIMBER (DATE 2010) reproduction experiments",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("fig1", help="critical-path distribution") \
        .set_defaults(func=_cmd_fig1)
    sub.add_parser("fig8", help="case-study overhead sweep") \
        .set_defaults(func=_cmd_fig8)

    wave = sub.add_parser("waveforms",
                          help="two-stage error waveforms (Figs. 5/7)")
    wave.add_argument("--style", choices=("ff", "latch"), default="ff")
    wave.add_argument("--vcd", metavar="PATH",
                      help="write a VCD file instead of ASCII art")
    wave.set_defaults(func=_cmd_waveforms)

    sub.add_parser("table1", help="technique comparison table") \
        .set_defaults(func=_cmd_table1)

    deploy = sub.add_parser("deploy",
                            help="deploy TIMBER on a synthetic processor")
    deploy.add_argument("--point", default="medium",
                        choices=("low", "medium", "high"))
    deploy.add_argument("--style", choices=("ff", "latch"), default="ff")
    deploy.add_argument("--checking", type=float, default=30.0,
                        help="checking period, %% of the clock period")
    deploy.add_argument("--no-tb", action="store_true",
                        help="use the 2-ED (no TB interval) layout")
    deploy.set_defaults(func=_cmd_deploy)

    energy = sub.add_parser("energy",
                            help="margin-to-energy conversion per scheme")
    energy.add_argument("--checking", type=float, default=30.0)
    energy.set_defaults(func=_cmd_energy)

    def add_exec_flags(
        cmd: argparse.ArgumentParser, *,
        checkpoint_help: str = ("append completed tasks to this "
                                "file (fsync'd JSONL log)"),
        resume_help: str = ("replay completed tasks from the "
                            "checkpoint file instead of re-running"),
        cache_dir_help: str = ("result-cache directory (default: "
                               "$REPRO_CACHE_DIR or .repro-cache)"),
        no_cache_help: str = "bypass the on-disk result cache",
    ) -> None:
        cmd.add_argument("--workers", type=_positive_int, default=1,
                         help="process-pool size (1 = serial, default)")
        cmd.add_argument("--timeout", type=float, default=None,
                         help="per-task timeout in seconds, counted "
                              "from dispatch to a worker (queue wait "
                              "is never charged)")
        cmd.add_argument("--batch-target-ms", type=float, default=250.0,
                         metavar="MS",
                         help="target wall time per dispatched task "
                              "batch, sized adaptively from observed "
                              "task durations (0 = one task per "
                              "dispatch; default 250)")
        cmd.add_argument("--cache-dir", default=None, metavar="PATH",
                         help=cache_dir_help)
        cmd.add_argument("--no-cache", action="store_true",
                         help=no_cache_help)
        cmd.add_argument("--retries", type=int, default=1,
                         help="extra attempts per failing task "
                              "(default 1)")
        cmd.add_argument("--backoff", type=float, default=0.0,
                         metavar="SECONDS",
                         help="base retry backoff; grows exponentially "
                              "with seeded jitter (default 0 = none)")
        cmd.add_argument("--checkpoint", metavar="PATH",
                         help=checkpoint_help)
        cmd.add_argument("--resume", action="store_true",
                         help=resume_help)
        cmd.add_argument("--obs-out", metavar="DIR",
                         help="enable observability and write metrics "
                              "(Prometheus text + JSON snapshot) and "
                              "spans (JSONL + Chrome trace) to DIR")
        cmd.add_argument("--events", metavar="PATH",
                         help="append the live run-event stream "
                              "(JSONL) here for `repro-timber "
                              "monitor` (default: "
                              "<obs-out>/events.jsonl when --obs-out "
                              "is given, else disabled)")
        cmd.add_argument("--heartbeat", type=float, default=5.0,
                         metavar="SECONDS",
                         help="event-stream heartbeat interval; a "
                              "reader treats a silence longer than "
                              "this as a stale run (default 5)")

    sweep = sub.add_parser(
        "sweep",
        help="run an experiment grid through the parallel sweep runner")
    sweep.add_argument("experiment",
                       choices=("resilience", "throughput", "shootout",
                                "fig1", "fig8"))
    sweep.add_argument("--cycles", type=int, default=None,
                       help="simulated cycles per grid point")
    sweep.add_argument("--seed", type=int, default=None,
                       help="root seed for deterministic per-task seeds")
    add_exec_flags(sweep)
    sweep.add_argument("--summary", metavar="PATH",
                       help="write the machine-readable run summary JSON")
    sweep.set_defaults(func=_cmd_sweep)

    camp = sub.add_parser(
        "campaign",
        help="randomized fault-injection campaign with coverage report")
    camp.add_argument("--target", default="pipeline",
                      choices=("pipeline", "graph", "netlist"))
    camp.add_argument("--schemes", default="plain,timber-ff",
                      help="comma-separated scheme list "
                           "(default: plain,timber-ff)")
    camp.add_argument("--faults", type=_positive_int, default=1000,
                      help="population size per scheme (default 1000)")
    camp.add_argument("--cycles", type=_positive_int, default=2000,
                      help="cycle range faults land in (default 2000)")
    camp.add_argument("--checking", type=float, default=30.0,
                      help="checking period, %% of the clock period")
    camp.add_argument("--stages", type=_positive_int, default=5,
                      help="pipeline depth / chain length (default 5)")
    camp.add_argument("--seed", type=int, default=2010,
                      help="campaign root seed (default 2010)")
    camp.add_argument("--chunk", type=_positive_int, default=25,
                      help="faults per sweep task (default 25)")
    camp.add_argument("--snapshot-stride", type=_positive_int,
                      default=256,
                      help="cycles between background-trajectory "
                           "snapshots for fork-per-fault evaluation "
                           "(default 256)")
    add_exec_flags(camp)
    camp.add_argument("--out", metavar="PATH",
                      help="write the BENCH_campaign.json artefact")
    camp.set_defaults(func=_cmd_campaign)

    soak = sub.add_parser(
        "soak",
        help="continuous streaming fault injection with adaptive "
             "sampling and crash-safe replay")
    soak.add_argument("--target", default="pipeline",
                      choices=("pipeline", "graph", "netlist"))
    soak.add_argument("--scheme", default="timber-ff",
                      help="one scheme per soak stream "
                           "(default: timber-ff)")
    soak.add_argument("--cycles", type=_positive_int, default=2000,
                      help="cycle range faults land in (default 2000)")
    soak.add_argument("--checking", type=float, default=30.0,
                      help="checking period, %% of the clock period")
    soak.add_argument("--stages", type=_positive_int, default=5,
                      help="pipeline depth / chain length (default 5)")
    soak.add_argument("--seed", type=int, default=2010,
                      help="soak root seed (default 2010)")
    soak.add_argument("--chunk", type=_positive_int, default=25,
                      help="faults per sweep task (default 25)")
    soak.add_argument("--snapshot-stride", type=_positive_int,
                      default=256,
                      help="cycles between background-trajectory "
                           "snapshots (default 256)")
    soak.add_argument("--faults-per-round", type=_positive_int,
                      default=200, metavar="N",
                      help="draws per adaptive round (default 200)")
    soak.add_argument("--magnitude-bins", type=_positive_int,
                      default=3, metavar="N",
                      help="magnitude bins per fault kind; strata = "
                           "kinds x bins (default 3)")
    soak.add_argument("--min-weight", type=float, default=None,
                      metavar="W",
                      help="per-stratum sampling weight floor "
                           "(default: half the uniform share)")
    soak.add_argument("--uniform", action="store_true",
                      help="disable adaptive reweighting (uniform "
                           "allocation; the control arm for benches)")
    soak.add_argument("--journal", required=True, metavar="PATH",
                      help="append-only replay journal (each round "
                           "flushed, fsync'd at commit points: at "
                           "least once a second and on exit, so a "
                           "power loss costs at most the last "
                           "second of rounds; --resume continues it)")
    soak.add_argument("--max-faults", type=_positive_int, default=None,
                      help="stop after this many total faults")
    soak.add_argument("--max-runtime", type=float, default=None,
                      metavar="SECONDS",
                      help="stop after this much wall time")
    soak.add_argument("--target-ci-width", type=float, default=None,
                      metavar="W",
                      help="stop when every stratum's escape-rate CI "
                           "is at most this wide")
    soak.add_argument("--rounds", type=_positive_int, default=None,
                      help="stop after this many rounds (mostly for "
                           "tests and benches)")
    soak.add_argument("--quiet", action="store_true",
                      help="suppress the per-round status line")
    add_exec_flags(
        soak,
        checkpoint_help=("soak-state checkpoint file, written "
                         "atomically at each commit point (at least "
                         "once a second and on exit); speeds up "
                         "--resume"),
        resume_help=("continue a previous soak from its journal "
                     "(and checkpoint, if given) byte-identically"),
        cache_dir_help=("accepted and ignored: a soak keeps no result "
                        "cache"),
        no_cache_help="accepted and ignored, as --cache-dir")
    soak.add_argument("--out", metavar="PATH",
                      help="write the machine-readable soak result "
                           "JSON")
    soak.set_defaults(func=_cmd_soak)

    mon = sub.add_parser(
        "monitor",
        help="inspect or follow a run's live event stream")
    mon.add_argument("run_dir", metavar="RUN",
                     help="events.jsonl path, or a directory holding "
                          "events.jsonl or obs/events.jsonl")
    mon.add_argument("--follow", action="store_true",
                     help="keep polling and reprint the status line "
                          "until the run ends (^C to stop)")
    mon.add_argument("--once", action="store_true",
                     help="read the stream once and exit (the default; "
                          "kept explicit for scripts)")
    mon.add_argument("--json", action="store_true",
                     help="print the RunHealth JSON instead of the "
                          "dashboard")
    mon.add_argument("--html", metavar="PATH",
                     help="write a static HTML report")
    mon.add_argument("--interval", type=float, default=1.0,
                     metavar="SECONDS",
                     help="--follow poll interval (default 1)")
    mon.add_argument("--stale-after", type=float, default=None,
                     metavar="SECONDS",
                     help="override the staleness threshold (default: "
                          "the stream's own heartbeat interval)")
    mon.set_defaults(func=_cmd_monitor)

    obs_cmd = sub.add_parser(
        "obs", help="render or merge observability trace files")
    obs_cmd.add_argument("traces", nargs="+", metavar="TRACE",
                         help="span JSONL file(s), e.g. obs/trace.jsonl")
    obs_cmd.add_argument("--chrome", metavar="PATH",
                         help="write the merged spans as a Chrome "
                              "trace-event JSON (Perfetto-loadable)")
    obs_cmd.add_argument("--flame", action="store_true",
                         help="print the terminal flame summary (the "
                              "default when --chrome is not given)")
    obs_cmd.set_defaults(func=_cmd_obs)

    rep = sub.add_parser("report",
                         help="assemble benchmark artefacts into markdown")
    rep.add_argument("--out-dir", default="benchmarks/out")
    rep.add_argument("--output", metavar="PATH",
                     help="write the report to a file instead of stdout")
    rep.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
