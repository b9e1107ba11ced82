"""Command-line interface.

    python -m repro.cli run --benchmark 30 --flow team01
    python -m repro.cli run --benchmark adder:width=48 --flow team10
    python -m repro.cli contest --benchmarks 0 30 74 --flows team01 team10 \
        --jobs 4 --out-dir runs/mini --trials 3
    python -m repro.cli contest --benchmarks "adder*,ex8?" --flows team10
    python -m repro.cli contest --benchmarks @suite.txt --shard 0/4 \
        --out-dir runs/shard0
    python -m repro.cli merge --from runs/shard0 runs/shard1 \
        --out-dir runs/merged
    python -m repro.cli report --out-dir runs/shard0 runs/shard1
    python -m repro.cli serve --store runs/mini --port 8080
    python -m repro.cli predict --store runs/mini --model ex74 \
        --input rows.txt --output preds.txt
    python -m repro.cli flows
    python -m repro.cli list "adder*" --families

Mirrors how a contest participant would drive the library: pick
benchmarks, run flows, read the leaderboard.  Flows are resolved
through the registry (:mod:`repro.flows.registry`), so ``--flow`` /
``--flows`` accept any registered name — including the ``portfolio``
composite — or spec strings with overrides (``team01:effort=full``).
Benchmarks resolve through the *problem* registry
(:mod:`repro.contest.registry`): suite indices, registered names
(``ex74``), family spec strings (``adder:width=48``), globs over
names / families / categories (``"adder*,ex8?"``) and ``@file`` suite
manifests (one selector per line) are all valid wherever a benchmark
is named.  ``flows`` prints the flow registry; ``list`` prints the
matching problems (``--families`` for the generator families).
``contest`` fans the task grid out over ``--jobs`` worker processes
and (with ``--out-dir``) persists every completed task, skipping
already-stored ones on re-invocation; ``--shard k/N`` runs only a
deterministic key-hashed subset so N machines can split one grid into
independent store directories, reassembled by ``merge`` (byte-identical
to an unsharded run) or reported directly by passing several
directories to ``report``.  ``serve`` loads the best stored solution
per benchmark (a contest run with ``--keep-solutions``, or any
directory of ``.aag`` files) and answers batched ``/predict/{model}``
HTTP requests; ``predict`` runs the same models offline on a rows
file (see :mod:`repro.serve`).
"""

from __future__ import annotations

import argparse
from collections.abc import Sequence

from repro.analysis import format_table3
from repro.contest import DEFAULT_REGISTRY, evaluate_solution


def _selected_specs(parser, patterns) -> list[object]:
    """Resolve benchmark selectors through the problem registry.

    Unknown names carry the registry's near-match suggestions into the
    argparse error (e.g. ``unknown benchmark 'ex9a' ... did you mean
    'ex90', 'ex91'?``).
    """
    try:
        specs = DEFAULT_REGISTRY.select(patterns)
    except (KeyError, IndexError, ValueError) as exc:
        parser.error(str(exc.args[0]) if exc.args else str(exc))
    if not specs:
        parser.error(
            f"benchmark selector {list(patterns)!r} matched nothing"
        )
    return specs


def _resolved_flow(parser, spec: str):
    """Resolve a flow name/spec through the registry, CLI-style."""
    from repro.runner import resolve_flow

    try:
        return resolve_flow(spec)
    except (KeyError, ValueError) as exc:
        parser.error(str(exc))


def _cmd_list(parser, args) -> None:
    if args.families:
        for name in DEFAULT_REGISTRY.family_names():
            family = DEFAULT_REGISTRY.families[name]
            params = ", ".join(
                f"{p}=<required>" if d is None else f"{p}={d!r}"
                for p, d in family.param_summary()
            )
            print(f"{name:<12} [{family.category:13s}] "
                  f"{family.description}")
            print(f"{'':<12} params: {params or '-'}")
        return
    specs = _selected_specs(parser, args.patterns or ["*"])
    for spec in specs:
        print(f"{spec.name}  [{spec.category:13s}] "
              f"{spec.n_inputs:4d} inputs  {spec.description}")


def _cmd_flows(parser, args) -> None:
    """Print the flow registry (or check/resolve one spec string)."""
    from repro.flows import REGISTRY

    if args.check is not None:
        resolved = _resolved_flow(parser, args.check)
        flow = getattr(resolved, "flow", resolved)
        overrides = getattr(resolved, "overrides", {})
        print(f"{args.check} -> flow {flow.name!r}"
              + (f" with overrides {overrides}" if overrides else ""))
        return
    for name in REGISTRY.names():
        flow = REGISTRY.get(name)
        print(f"{name:<10} [{flow.team}]  {flow.description}")
        print(f"{'':<10} stages: {', '.join(flow.stage_names)}")
        print(f"{'':<10} efforts: {', '.join(sorted(flow.efforts))}  "
              f"techniques: {', '.join(sorted(flow.techniques)) or '-'}")


def _cmd_run(parser, args) -> None:
    specs = _selected_specs(parser, [args.benchmark])
    if len(specs) != 1:
        parser.error(
            f"--benchmark {args.benchmark!r} selects {len(specs)} "
            f"problems; 'run' takes exactly one (use 'contest' for sets)"
        )
    flow = _resolved_flow(parser, args.flow)
    problem = DEFAULT_REGISTRY.problem(
        specs[0], n_train=args.samples,
        n_valid=args.samples, n_test=args.samples,
        master_seed=args.seed,
    )
    solution = flow(problem, effort=args.effort, master_seed=args.seed)
    score = evaluate_solution(problem, solution)
    print(f"benchmark: {problem.name} ({problem.category})")
    print(f"method:    {solution.method}")
    print(f"test acc:  {score.test_accuracy:.4f}")
    print(f"ANDs:      {score.num_ands} (legal={score.legal})")
    print(f"levels:    {score.levels}")
    print(f"overfit:   {100 * score.overfit:.2f}%")
    if args.out:
        from repro.aig import write_aag

        write_aag(solution.aig, args.out)
        print(f"wrote {args.out}")


def _cmd_contest(parser, args) -> None:
    from repro.runner import (
        contest_tasks,
        parse_shard,
        run_contest_tasks,
        shard_tasks,
    )

    benchmarks = _selected_specs(parser, args.benchmarks)
    try:
        specs = contest_tasks(
            benchmarks, args.flows, n_train=args.samples,
            n_valid=args.samples, n_test=args.samples,
            effort=args.effort, master_seed=args.seed, trials=args.trials,
        )
        if args.shard is not None:
            specs = shard_tasks(specs, *parse_shard(args.shard))
    except (KeyError, ValueError) as exc:
        parser.error(str(exc))
    run = run_contest_tasks(
        specs, jobs=args.jobs, out_dir=args.out_dir, resume=args.resume,
        keep_solutions=args.keep_solutions, verbose=True,
    )
    print()
    print(format_table3(run.table3()))
    if args.out_dir:
        print(f"\nrun directory: {args.out_dir} "
              f"(re-report with: repro report --out-dir {args.out_dir})")


def _format_win_rates(wins) -> str:
    lines = [f"{'team':>8} {'best':>5} {'top1pct':>8}"]
    for team in sorted(wins, key=lambda t: (-wins[t]["best"], t)):
        w = wins[team]
        lines.append(f"{team:>8} {w['best']:5d} {w['top1pct']:8d}")
    return "\n".join(lines)


def _cmd_report(parser, args) -> None:
    from repro.runner import load_contest_runs

    try:
        run = load_contest_runs(args.out_dir)
    except (FileNotFoundError, ValueError) as exc:
        parser.error(str(exc))
    n_scores = sum(len(v) for v in run.scores_by_team.values())
    shown = ", ".join(args.out_dir)
    label = "run directory" if len(args.out_dir) == 1 \
        else f"merged from {len(args.out_dir)} run directories"
    print(f"{label}: {shown}")
    print(f"{len(run.scores_by_team)} teams, {n_scores} stored scores\n")
    print(format_table3(run.table3()))
    print()
    print(_format_win_rates(run.win_rates()))


def _cmd_merge(parser, args) -> None:
    from repro.runner import RunStore, merge_stores

    for src in args.sources:
        if not RunStore(src).records_path.exists():
            parser.error(f"no records found under {src}")
    try:
        store = merge_stores(args.sources, args.out_dir)
    except ValueError as exc:
        parser.error(str(exc))
    n = len(store.load_records())
    print(f"merged {len(args.sources)} run directories -> {store.root} "
          f"({n} records)")
    print(f"report with: repro report --out-dir {store.root}")


def _cmd_serve(parser, args) -> None:
    import asyncio

    from repro.serve import ServeApp, serve_forever

    try:
        app = ServeApp(
            args.store,
            max_batch=args.max_batch, cache_size=args.cache_size,
            max_queued_rows=args.max_queued_rows,
        )
    except (FileNotFoundError, ValueError) as exc:
        parser.error(str(exc))
    try:
        asyncio.run(serve_forever(app, args.host, args.port))
    except KeyboardInterrupt:
        print("\nrepro serve: stopped")


def _cmd_predict(parser, args) -> None:
    from repro.serve import predict_file

    try:
        n_rows = predict_file(
            args.store, args.model, args.input, args.output,
            cache_size=args.cache_size,
        )
    except (FileNotFoundError, KeyError, ValueError) as exc:
        parser.error(str(exc.args[0]) if exc.args else str(exc))
    print(f"wrote {n_rows} prediction(s) to {args.output}")


def _cmd_lint(parser, args) -> None:
    """Run the repo-specific determinism/safety lints."""
    from repro.devtools.lint import main as lint_main

    argv = list(args.paths)
    if args.list_rules:
        argv.append("--list-rules")
    argv.extend(["--format", args.format])
    code = lint_main(argv)
    if code:
        raise SystemExit(code)


def _default_contest_flows() -> list:
    from repro.flows import TEAM_FLOW_NAMES

    return sorted(TEAM_FLOW_NAMES)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    list_p = sub.add_parser(
        "list", help="list benchmarks from the problem registry")
    list_p.add_argument(
        "patterns", nargs="*", metavar="PATTERN",
        help="selectors: names, indices, globs (adder*, 'ex8?'), "
             "family specs (adder:width=48), @manifest files "
             "(default: every registered benchmark)")
    list_p.add_argument(
        "--families", action="store_true",
        help="list the generator families and their parameters instead")

    flows_p = sub.add_parser(
        "flows", help="list the registered flows (teams, stages, "
                      "techniques, efforts)")
    flows_p.add_argument(
        "--check", default=None, metavar="SPEC",
        help="resolve a flow spec (e.g. 'team01:effort=full') and "
             "print the result instead of listing")

    run_p = sub.add_parser("run", help="run one flow on one benchmark")
    run_p.add_argument(
        "--benchmark", required=True,
        help="suite index, registered name (ex74) or family spec "
             "string (adder:width=48)")
    run_p.add_argument(
        "--flow", required=True,
        help="registry name or spec string (see 'repro flows'); e.g. "
             "team01, portfolio, team01:effort=full, "
             "portfolio:flows=team01+team10")
    run_p.add_argument("--samples", type=int, default=1000)
    run_p.add_argument("--effort", choices=("small", "full"),
                       default="small")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--out", default=None,
                       help="write the solution AIG (.aag) here")

    contest_p = sub.add_parser("contest", help="run a mini contest")
    contest_p.add_argument(
        "--benchmarks", nargs="+", required=True, metavar="SELECTOR",
        help="indices, names, family specs (adder:width=48), globs "
             "('adder*,ex8?' — quote them) or @manifest files")
    contest_p.add_argument(
        "--flows", nargs="+", default=_default_contest_flows(),
        metavar="FLOW",
        help="registry names or spec strings (default: the ten team "
             "flows); 'portfolio' and overrides like team01:effort=full "
             "are valid")
    contest_p.add_argument("--samples", type=int, default=400)
    contest_p.add_argument("--effort", choices=("small", "full"),
                           default="small")
    contest_p.add_argument("--seed", type=int, default=0)
    contest_p.add_argument("--jobs", type=int, default=1,
                           help="worker processes (1 = in-process)")
    contest_p.add_argument("--trials", type=int, default=1,
                           help="seeds per task: seed, seed+1, ...")
    contest_p.add_argument("--out-dir", default=None,
                           help="persist records here (and resume)")
    contest_p.add_argument("--no-resume", dest="resume",
                           action="store_false",
                           help="recompute even already-stored tasks")
    contest_p.add_argument("--keep-solutions", action="store_true",
                           help="also store each solution as .aag")
    contest_p.add_argument(
        "--shard", default=None, metavar="K/N",
        help="run only shard K of an N-way deterministic split of the "
             "grid (run each shard into its own --out-dir, then "
             "'repro merge')")

    report_p = sub.add_parser(
        "report", help="rebuild tables from stored runs (no execution)")
    report_p.add_argument(
        "--out-dir", required=True, nargs="+", metavar="DIR",
        help="run director(ies) written by 'contest'; several "
             "directories (e.g. shard stores) are merged in memory")

    merge_p = sub.add_parser(
        "merge", help="combine sharded run directories into one store")
    merge_p.add_argument(
        "--from", dest="sources", required=True, nargs="+", metavar="DIR",
        help="source run directories (the shards)")
    merge_p.add_argument(
        "--out-dir", required=True,
        help="destination run directory (byte-identical records to an "
             "unsharded run)")

    serve_p = sub.add_parser(
        "serve", help="serve stored solutions over HTTP "
                      "(microbatched /predict/{model})")
    serve_p.add_argument("--store", required=True,
                         help="contest run directory (--keep-solutions) "
                              "or any directory of .aag files")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8080)
    serve_p.add_argument("--max-batch", type=int, default=4096,
                         help="flush a model's queue at this many rows")
    serve_p.add_argument("--cache-size", type=int, default=32,
                         help="compiled circuits kept in the LRU")
    serve_p.add_argument("--max-queued-rows", type=int, default=None,
                         help="per-model cap on queued rows; past "
                              "it /predict answers 503 (default: "
                              "unbounded)")

    predict_p = sub.add_parser(
        "predict", help="offline batch scoring: rows file in, "
                        "predictions file out")
    predict_p.add_argument("--store", required=True,
                           help="run directory or .aag bundle directory")
    predict_p.add_argument("--model", required=True,
                           help="benchmark name (ex74) or suite index")
    predict_p.add_argument("--input", required=True,
                           help="rows file: one 0/1 sample per line")
    predict_p.add_argument("--output", required=True,
                           help="where to write one 0/1 line per row")
    predict_p.add_argument("--cache-size", type=int, default=32)

    lint_p = sub.add_parser(
        "lint", help="repo-specific determinism/safety static "
                     "analysis (see repro lint --list-rules)")
    lint_p.add_argument(
        "paths", nargs="*", default=["src/repro", "benchmarks"],
        help="files or directories (default: src/repro benchmarks)")
    lint_p.add_argument("--format", choices=("text", "json"),
                        default="text",
                        help="report format (json for machines)")
    lint_p.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    return parser


def main(argv: Sequence[str] | None = None) -> None:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        _cmd_list(parser, args)
    elif args.command == "flows":
        _cmd_flows(parser, args)
    elif args.command == "run":
        _cmd_run(parser, args)
    elif args.command == "contest":
        _cmd_contest(parser, args)
    elif args.command == "report":
        _cmd_report(parser, args)
    elif args.command == "merge":
        _cmd_merge(parser, args)
    elif args.command == "serve":
        _cmd_serve(parser, args)
    elif args.command == "predict":
        _cmd_predict(parser, args)
    elif args.command == "lint":
        _cmd_lint(parser, args)


if __name__ == "__main__":
    main()
