"""Command-line interface: run paper experiments from a shell.

``python -m repro list`` enumerates the reproduced tables/figures;
``python -m repro run fig7 --groups 2000 --seed 0`` regenerates one and
prints its rows (optionally as CSV);
``python -m repro simulate --until-precision 0.1 --checkpoint run.ckpt``
streams one fleet until its DDF-rate CI converges, checkpointing as it
goes (``--resume run.ckpt`` continues an interrupted run bit-identically);
``python -m repro fuzz --budget 60 --seed 0 --bundle-dir bundles``
differential-fuzzes random configurations through both engines, the
Fig. 4/5 invariant oracle, and the closed-form Markov anchors, writing
any failure as a shrunk JSON repro bundle (``--replay bundle.json``
re-runs one).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .experiments.registry import EXPERIMENTS, get_experiment
from .reporting import format_table, write_csv
from .simulation.config import RaidGroupConfig
from .simulation.monte_carlo import ENGINES, MonteCarloRunner
from .simulation.streaming import Precision, StderrProgressReporter

#: Column headers per experiment, matching each result's ``rows()``.
_HEADERS = {
    "fig1": ["product", "beta", "eta", "R^2", "early slope", "late slope", "straight"],
    "fig2": ["vintage", "beta (pub)", "beta (fit)", "eta (pub)", "eta (fit)", "F (pub)", "F (obs)"],
    "tab1": ["RER", "err/Byte", "err/h @ low workload", "err/h @ high workload"],
    "fig6": ["variant", "DDFs/1000 @ 10y", "ratio to MTTDL"],
    "fig7": ["scenario", "DDFs/1000 @ 10y", "latent-pathway share"],
    "fig8": ["scenario", "first-bin rate", "last-bin rate", "last/first", "nonzero bins"],
    "fig9": ["scrub hours", "DDFs/1000 @ 10y", "DDFs/1000 @ 1y"],
    "fig10": ["TTOp shape", "DDFs/1000 @ 10y", "ratio to beta=1"],
    "tab3": ["assumptions", "DDFs in 1st year /1000", "ratio to MTTDL"],
    "kofn": ["scenario", "P(survive 1y)", "P(survive 10y)", "losses/1000 @ 10y"],
}

#: Keyword arguments each stochastic runner accepts.
_TAKES_GROUPS = {"fig6", "fig7", "fig8", "fig9", "fig10", "tab3", "kofn"}
_TAKES_SEED = _TAKES_GROUPS | {"fig1", "fig2"}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce tables and figures from Elerath & Pecht, 'Enhanced "
            "Reliability Modeling of RAID Storage Systems' (DSN 2007)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible experiments")

    run = sub.add_parser("run", help="run one experiment and print its rows")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS), help="experiment id")
    run.add_argument(
        "--groups",
        type=int,
        default=None,
        help="fleet size for simulation experiments (default: runner default)",
    )
    run.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    run.add_argument("--jobs", type=int, default=1, help="worker processes")
    run.add_argument(
        "--engine",
        choices=[*ENGINES, "solver"],
        default="event",
        help=(
            "simulation engine for stochastic experiments: the reference "
            "per-group event loop, the vectorized batch engine, auto "
            "(batch when the config supports it), or solver (the hybrid "
            "analytical front-end, for experiments built on sweep/fig6)"
        ),
    )
    run.add_argument("--csv", type=str, default=None, help="also write rows to a CSV file")
    run.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the top-25 cumulative entries to stderr",
    )
    run.add_argument(
        "--until-precision",
        type=float,
        default=None,
        metavar="REL_WIDTH",
        help=(
            "grow each fleet until the DDF-rate CI is narrower than this "
            "fraction of the estimate (--groups becomes the cap)"
        ),
    )
    run.add_argument(
        "--confidence",
        type=float,
        default=0.95,
        help="confidence level for --until-precision (default 0.95)",
    )

    report = sub.add_parser(
        "report", help="run every experiment and write EXPERIMENTS.md"
    )
    report.add_argument("--out", type=str, default="EXPERIMENTS.md", help="output path")
    report.add_argument(
        "--quick", action="store_true", help="reduced fleet sizes (noisier, faster)"
    )
    report.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    report.add_argument("--jobs", type=int, default=1, help="worker processes")
    report.add_argument(
        "--engine",
        choices=ENGINES,
        default="event",
        help="simulation engine for the fleet-driven sections",
    )

    simulate = sub.add_parser(
        "simulate",
        help=(
            "stream one fleet with incremental statistics, convergence-based "
            "stopping, and checkpoint/resume"
        ),
    )
    simulate.add_argument(
        "--scrub",
        type=str,
        default="168",
        help=(
            "scrub characteristic life in hours, or 'none' to disable "
            "scrubbing (default 168, the paper's base case)"
        ),
    )
    simulate.add_argument(
        "--mission-hours",
        type=float,
        default=87_600.0,
        help="mission length per group (default 87,600 h = 10 years)",
    )
    simulate.add_argument(
        "--groups",
        type=int,
        default=1000,
        help="fleet size; with --until-precision, the fleet-size cap",
    )
    simulate.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    simulate.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes for the pipelined shard executor (results are "
            "bit-identical to --jobs 1; only wall-clock changes)"
        ),
    )
    simulate.add_argument(
        "--engine",
        choices=ENGINES,
        default="auto",
        help="simulation engine (default auto)",
    )
    simulate.add_argument(
        "--until-precision",
        type=float,
        default=None,
        metavar="REL_WIDTH",
        help="stop once the DDF-rate CI is narrower than this fraction of the estimate",
    )
    simulate.add_argument(
        "--confidence",
        type=float,
        default=0.95,
        help="confidence level for --until-precision (default 0.95)",
    )
    simulate.add_argument(
        "--min-groups",
        type=int,
        default=256,
        help="groups to simulate before consulting the stopping rule",
    )
    simulate.add_argument(
        "--checkpoint",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "write a resumable JSON checkpoint once per committed run of "
            "shards and at every stop"
        ),
    )
    simulate.add_argument(
        "--resume",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "resume bit-identically from a checkpoint written by --checkpoint; "
            "further checkpoints keep going to the same file unless "
            "--checkpoint redirects them"
        ),
    )
    simulate.add_argument(
        "--manifest",
        type=str,
        default=None,
        metavar="PATH",
        help="write a machine-readable run manifest (JSON) when done",
    )
    simulate.add_argument(
        "--progress",
        action="store_true",
        help="live progress line on stderr (groups/s, estimate ± CI)",
    )
    simulate.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the top-25 cumulative entries to stderr",
    )
    simulate.add_argument(
        "--workers",
        type=str,
        default=None,
        metavar="HOST:PORT",
        help=(
            "listen here for `repro worker --connect` processes and "
            "distribute shards across them alongside the local pool "
            "(bit-identical to a serial run)"
        ),
    )

    worker_cmd = sub.add_parser(
        "worker",
        help=(
            "join a distributed run: connect to a coordinator started "
            "with `repro simulate --workers` or `repro serve "
            "--remote-workers` and simulate shards for it"
        ),
    )
    worker_cmd.add_argument(
        "--connect",
        type=str,
        required=True,
        metavar="HOST:PORT",
        help="coordinator address to dial",
    )
    worker_cmd.add_argument(
        "--heartbeat-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="seconds between heartbeats (default 1.0)",
    )
    worker_cmd.add_argument(
        "--max-reconnects",
        type=int,
        default=None,
        metavar="N",
        help=(
            "give up after this many consecutive failed dials "
            "(default: keep retrying forever with capped backoff)"
        ),
    )

    solve_cmd = sub.add_parser(
        "solve",
        help=(
            "answer one configuration through the hybrid analytical/"
            "simulation front-end, with method selection and an explicit "
            "error bound"
        ),
    )
    solve_cmd.add_argument(
        "--config",
        type=str,
        default=None,
        metavar="JSON",
        help=(
            "path to a configuration JSON (the repro-bundle 'config' "
            "payload); default: the paper base case shaped by the flags below"
        ),
    )
    solve_cmd.add_argument(
        "--scrub",
        type=str,
        default="168",
        help="base-case scrub characteristic life in hours, or 'none' (default 168)",
    )
    solve_cmd.add_argument(
        "--mission-hours",
        type=float,
        default=87_600.0,
        help="base-case mission length (default 87,600 h = 10 years)",
    )
    solve_cmd.add_argument(
        "--raid6",
        action="store_true",
        help="base case as double parity without latent defects",
    )
    solve_cmd.add_argument(
        "--no-latent",
        action="store_true",
        help="base case without the latent-defect process",
    )
    solve_cmd.add_argument(
        "--horizon",
        type=float,
        default=None,
        metavar="HOURS",
        help="evaluation horizon (default: the mission)",
    )
    solve_cmd.add_argument(
        "--steps",
        type=int,
        default=None,
        help="transition-matrix discretization steps (default 1024)",
    )
    solve_cmd.add_argument(
        "--groups",
        type=int,
        default=None,
        help="Monte Carlo fallback fleet size (default 2000)",
    )
    solve_cmd.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")
    solve_cmd.add_argument("--jobs", type=int, default=1, help="worker processes")
    solve_cmd.add_argument(
        "--method",
        choices=["markov", "transition-matrix", "monte-carlo"],
        default=None,
        help="skip classification and force a solver tier",
    )
    solve_cmd.add_argument(
        "--json",
        type=str,
        default=None,
        metavar="PATH",
        help="also write the full answer (config, curve, error parts) as JSON",
    )

    fuzz = sub.add_parser(
        "fuzz",
        help=(
            "differential config-fuzzing: random configurations through "
            "both engines, the Fig. 4/5 invariant oracle, and the "
            "closed-form Markov anchors"
        ),
    )
    fuzz.add_argument(
        "--budget",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="wall-clock budget; fuzzing continues until it is spent (default 60)",
    )
    fuzz.add_argument("--seed", type=int, default=0, help="campaign seed (default 0)")
    fuzz.add_argument(
        "--min-cases",
        type=int,
        default=50,
        help="run at least this many cases even past the budget (default 50)",
    )
    fuzz.add_argument(
        "--cases",
        type=int,
        default=None,
        metavar="N",
        help="hard cap on fuzz cases (default: budget-bound only)",
    )
    fuzz.add_argument(
        "--groups",
        type=int,
        default=128,
        help="fleet size per engine per case (default 128)",
    )
    fuzz.add_argument(
        "--bundle-dir",
        type=str,
        default=None,
        metavar="DIR",
        help="write failing cases as JSON repro bundles into this directory",
    )
    fuzz.add_argument(
        "--replay",
        type=str,
        default=None,
        metavar="BUNDLE",
        help=(
            "replay a repro bundle (preferring its shrunk config) instead "
            "of fuzzing; exits non-zero if the failure reproduces"
        ),
    )
    fuzz.add_argument(
        "--analytical-bias",
        type=float,
        default=0.0,
        metavar="P",
        help=(
            "probability of drawing a solver-eligible configuration per "
            "case (default 0; 1.0 restricts the campaign to the "
            "solver-vs-batch engine pair)"
        ),
    )
    fuzz.add_argument(
        "--kn-bias",
        type=float,
        default=0.0,
        metavar="P",
        help=(
            "probability of drawing a wide k-of-n erasure-coded "
            "configuration per case, half with a checker/repairer "
            "policy (default 0)"
        ),
    )
    fuzz.add_argument(
        "--progress",
        action="store_true",
        help="one status line per case on stderr",
    )

    serve_cmd = sub.add_parser(
        "serve",
        help=(
            "serve reliability queries over HTTP with tiered answering: "
            "analytical solver, mergeable Monte Carlo result cache, "
            "coalesced background refinement"
        ),
    )
    serve_cmd.add_argument(
        "--host", type=str, default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve_cmd.add_argument(
        "--port", type=int, default=8790, help="bind port (default 8790; 0 = ephemeral)"
    )
    serve_cmd.add_argument(
        "--workers",
        type=int,
        default=2,
        help="concurrent background simulations (default 2)",
    )
    serve_cmd.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="shard worker processes per simulation (default 1)",
    )
    serve_cmd.add_argument(
        "--engine",
        choices=ENGINES,
        default="auto",
        help="simulation engine (default auto)",
    )
    serve_cmd.add_argument(
        "--seed",
        type=int,
        default=0,
        help="service seed; per-config fleet seeds derive from it (default 0)",
    )
    serve_cmd.add_argument(
        "--shard-size",
        type=int,
        default=256,
        help="groups per simulation shard (default 256)",
    )
    serve_cmd.add_argument(
        "--max-groups",
        type=int,
        default=100_000,
        help="hard per-query fleet-size cap (default 100,000)",
    )
    serve_cmd.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        metavar="DIR",
        help=(
            "persist cached results as checkpoints in this directory "
            "(default: in-memory only)"
        ),
    )
    serve_cmd.add_argument(
        "--cache-entries",
        type=int,
        default=None,
        help="in-memory cache entry bound (default 1024)",
    )
    serve_cmd.add_argument(
        "--remote-workers",
        type=str,
        default=None,
        metavar="HOST:PORT",
        help=(
            "listen here for `repro worker --connect` processes and fan "
            "cold simulation jobs across them (--workers already names "
            "the background simulation threads)"
        ),
    )
    return parser


def _run_experiment(args: argparse.Namespace) -> str:
    info = get_experiment(args.experiment)
    kwargs = {}
    if args.experiment in _TAKES_SEED:
        kwargs["seed"] = args.seed
    if args.experiment in _TAKES_GROUPS:
        if args.groups is not None:
            kwargs["n_groups"] = args.groups
        if args.jobs != 1:
            kwargs["n_jobs"] = args.jobs
        if args.engine != "event":
            kwargs["engine"] = args.engine
        if args.until_precision is not None:
            kwargs["until"] = Precision(
                rel_ci_width=args.until_precision, confidence=args.confidence
            )
    result = info.runner(**kwargs)
    headers = _HEADERS[args.experiment]
    rows = result.rows()
    if args.csv:
        write_csv(args.csv, headers, rows)
    title = f"{info.paper_reference}: {info.title}"
    return format_table(headers, rows, title=title)


def _run_simulate(args: argparse.Namespace) -> str:
    scrub_hours: Optional[float]
    if args.scrub.lower() in ("none", "off", "0"):
        scrub_hours = None
    else:
        scrub_hours = float(args.scrub)
    config = RaidGroupConfig.paper_base_case(
        scrub_characteristic_hours=scrub_hours,
        mission_hours=args.mission_hours,
    )
    runner = MonteCarloRunner(
        config,
        n_groups=args.groups,
        seed=args.seed,
        n_jobs=args.jobs,
        engine=args.engine,
    )
    until = None
    if args.until_precision is not None:
        until = Precision(
            rel_ci_width=args.until_precision,
            confidence=args.confidence,
            max_groups=args.groups,
            min_groups=args.min_groups,
        )
    observers = (StderrProgressReporter(),) if args.progress else ()
    # A resumed run keeps checkpointing to the file it resumed from unless
    # the user redirects it — otherwise a second interruption would lose
    # everything simulated since the first.
    checkpoint_path = args.checkpoint if args.checkpoint is not None else args.resume
    streaming = runner.run_streaming(
        until=until,
        checkpoint_path=checkpoint_path,
        resume_from=args.resume,
        observers=observers,
        workers=args.workers,
    )
    if args.manifest:
        from .reporting import write_run_manifest

        write_run_manifest(args.manifest, streaming)
    summary = streaming.summary()
    _, lo, hi = streaming.ddfs_per_thousand_ci()
    scrub_label = "none" if scrub_hours is None else f"{scrub_hours:g} h"
    rows: List[List[object]] = [
        ["scrub", scrub_label],
        ["mission (h)", args.mission_hours],
        ["groups simulated", streaming.groups],
        ["stop reason", streaming.stop_reason],
        ["DDFs / 1000 groups", summary["ddfs_per_1000_mission"]],
        [
            f"{100 * (until.confidence if until else 0.95):g}% CI",
            f"[{lo:.4g}, {hi:.4g}]",
        ],
        ["first-year DDFs / 1000", summary["ddfs_per_1000_first_year"]],
        ["elapsed (s)", round(streaming.elapsed_seconds, 2)],
    ]
    return format_table(["quantity", "value"], rows, title="Streaming fleet simulation")


def _run_solve(args: argparse.Namespace) -> str:
    from .solver import solve
    from .solver.solve import DEFAULT_MC_GROUPS
    from .analytical.transition_matrix import DEFAULT_N_STEPS

    if args.config is not None:
        import json

        from .validation import config_from_dict

        with open(args.config, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        # Accept either a bare config payload or a whole repro bundle.
        config = config_from_dict(data.get("config", data))
    else:
        scrub: Optional[float]
        if args.scrub.lower() in ("none", "off", "0"):
            scrub = None
        else:
            scrub = float(args.scrub)
        config = RaidGroupConfig.paper_base_case(
            scrub_characteristic_hours=scrub,
            mission_hours=args.mission_hours,
        )
        if args.no_latent or args.raid6:
            config = config.without_latent_defects()
        if args.raid6:
            config = config.as_raid6()
    answer = solve(
        config,
        horizon_hours=args.horizon,
        n_steps=args.steps if args.steps is not None else DEFAULT_N_STEPS,
        mc_groups=args.groups if args.groups is not None else DEFAULT_MC_GROUPS,
        mc_seed=args.seed,
        n_jobs=args.jobs,
        method=args.method,
    )
    if args.json:
        import json

        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(answer.to_dict(), handle, indent=2)
    error = answer.error
    rows: List[List[object]] = [
        ["method", answer.method],
        ["reason", answer.reason],
        ["horizon (h)", answer.horizon_hours],
        ["expected DDFs / group", answer.expected_ddfs],
        ["DDFs / 1000 groups", 1000.0 * answer.expected_ddfs],
        ["P(≥1 DDF)", answer.ddf_probability],
        ["error bound", error.bound],
        ["  structural", error.structural],
        ["  discretization", error.step_error],
        ["  statistical", error.statistical],
        ["elapsed (s)", round(answer.elapsed_seconds, 4)],
    ]
    if answer.n_groups is not None:
        rows.append(["MC groups", answer.n_groups])
    return format_table(["quantity", "value"], rows, title="Hybrid solver answer")


def _run_fuzz(args: argparse.Namespace) -> int:
    from .validation import (
        DifferentialFuzzer,
        load_bundle,
        run_fuzz_campaign,
    )

    sampler = None
    if args.analytical_bias or args.kn_bias:
        from .validation import ConfigSampler

        sampler = ConfigSampler(
            analytical_bias=args.analytical_bias, kn_bias=args.kn_bias
        )
    fuzzer = DifferentialFuzzer(sampler=sampler, n_groups=args.groups)
    if args.replay is not None:
        config, seed, n_groups, data = load_bundle(args.replay)
        fuzzer.n_groups = n_groups
        result = fuzzer.run_case(config, seed, index=int(data.get("case_index", 0)))
        rows: List[List[object]] = [
            ["bundle", args.replay],
            ["original status", data.get("status")],
            ["replayed status", result.status],
            ["detail", result.detail or "-"],
        ]
        print(format_table(["quantity", "value"], rows, title="Repro bundle replay"))
        return 1 if result.failed else 0

    progress = None
    if args.progress:

        def progress(case):  # noqa: ANN001 - CaseResult
            print(
                f"case {case.index:4d}: {case.mode:12s} {case.status}"
                + (f" — {case.detail}" if case.failed else ""),
                file=sys.stderr,
            )

    report = run_fuzz_campaign(
        seed=args.seed,
        budget_seconds=args.budget,
        max_cases=args.cases,
        min_cases=args.min_cases,
        bundle_dir=args.bundle_dir,
        fuzzer=fuzzer,
        progress=progress,
    )
    n_differential = sum(1 for c in report.cases if c.mode == "differential")
    n_anchored = sum(1 for c in report.cases if c.anchor is not None)
    rows = [
        ["campaign seed", report.seed],
        ["cases", report.n_cases],
        ["differential (both engines)", n_differential],
        ["oracle-only (event engine)", report.n_cases - n_differential],
        ["closed-form anchored", n_anchored],
        ["groups per engine per case", args.groups],
        ["failures", len(report.failures)],
        ["elapsed (s)", round(report.elapsed_seconds, 1)],
    ]
    print(format_table(["quantity", "value"], rows, title="Differential fuzz campaign"))
    if report.failures:
        print(report.summary(), file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        rows: List[List[object]] = [
            [info.experiment_id, info.paper_reference, info.title, info.stochastic]
            for info in sorted(EXPERIMENTS.values(), key=lambda i: i.experiment_id)
        ]
        print(format_table(["id", "artifact", "title", "stochastic"], rows))
        return 0
    if args.command == "report":
        from .experiments import report as report_module

        report_module.generate(
            args.out,
            quick=args.quick,
            seed=args.seed,
            engine=args.engine,
            n_jobs=args.jobs,
        )
        print(f"wrote {args.out}")
        return 0
    if args.command == "fuzz":
        return _run_fuzz(args)
    if args.command == "solve":
        print(_run_solve(args))
        return 0
    if args.command == "serve":
        from .service import serve

        serve(
            host=args.host,
            port=args.port,
            cache_dir=args.cache_dir,
            max_entries=args.cache_entries,
            remote_workers=args.remote_workers,
            max_workers=args.workers,
            engine=args.engine,
            n_jobs=args.jobs,
            seed=args.seed,
            shard_size=args.shard_size,
            max_groups=args.max_groups,
        )
        return 0
    if args.command == "worker":
        from .simulation.remote import DEFAULT_HEARTBEAT_INTERVAL, run_worker

        print(f"repro worker: connecting to {args.connect}", flush=True)
        shards = run_worker(
            args.connect,
            heartbeat_interval=(
                args.heartbeat_interval
                if args.heartbeat_interval is not None
                else DEFAULT_HEARTBEAT_INTERVAL
            ),
            max_reconnects=args.max_reconnects,
        )
        print(f"repro worker: done ({shards} shards simulated)", flush=True)
        return 0
    runner = _run_simulate if args.command == "simulate" else _run_experiment
    if getattr(args, "profile", False):
        from .reporting.profiling import profiled

        with profiled():
            table = runner(args)
    else:
        table = runner(args)
    print(table)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
