"""The repository's benchmark: contest grids and open-loop ``/predict``.

Usage, from the repository root::

    python3 perfbench/run.py --workload contest-grid --seed 0 \\
        --seconds 15 --trace 0

Workloads (``BENCHMARK.json`` says why each exists):

``contest-grid``    a third of 10 problems x 9 team flows: 30 tasks at
                    jobs=1.
``contest-approx``  team08 on ex20: finalize approximates a 12.6k-AND
                    candidate down to the 5000-AND cap.
``serve-mixed``     open loop at 200 req/s against ``repro serve``.

A contest workload runs its grid once, however long that takes; only
the serve workload runs for ``--seconds``.  Contest times (grid, tasks,
set-up) are scaled to a reference CPU speed sampled while they run
(``speed.py``), so they follow the program rather than the host's
load.  ``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs
the same workload once more with per-layer wrappers installed and
prints the per-layer table instead.  Every output is checked by an
oracle; the last stdout line is the JSON result, and the exit code is
1 when any operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7  # fresh-interpreter contest set-ups per run
Metrics = dict[str, float]


def pinned_digests(workload: str) -> dict[str, str]:
    return json.loads((HERE / "digests.json").read_text()).get(workload, {})


def run_contest(name: str, seed: int, trace: bool, work: Path,
                tally: Any) -> tuple[Metrics, Metrics]:
    import contest

    workload = contest.WORKLOADS[name]
    samples = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", name],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(probe.stdout.splitlines()[-1]))
    specs = contest.resolve(workload)
    result = contest.run_pass(specs, work / "grid")
    contest.check_pass(result, specs, seed, tally)
    pins = pinned_digests(name)
    if "records" in pins:
        tally.check(result.digest == pins["records"],
                    f"records digest {result.digest} is not the pinned one")
    print(f"records sha256 {result.digest}; grid wall time "
          f"{result.wall_s:.3f} s, {result.grid_s:.3f} s at reference speed")
    metrics = contest.summarize(result, specs)
    metrics["setup_s"] = statistics.median(s["setup_s"] for s in samples)
    metrics["peak_rss_mb"] = contest.peak_rss_mb()
    layers = {"import_s": statistics.median(s["import_s"] for s in samples)}
    if trace:
        layers.update(trace_contest(name, seed, specs, result, pins, work,
                                    tally))
    return metrics, layers


def trace_contest(name: str, seed: int, specs: list, untraced: Any,
                  pins: dict[str, str], work: Path, tally: Any) -> Metrics:
    import contest
    import spans

    rec = spans.Recorder()
    spans.install_contest_wrappers(rec)
    traced = contest.run_pass(specs, work / "traced")
    finalize = rec.finalize_digest()
    tally.check(traced.digest == untraced.digest,
                "tracing changed the stored records")
    if "finalize" in pins:
        tally.check(finalize == pins["finalize"],
                    f"finalize digest {finalize} is not the pinned one")
    print(f"finalize_aig outputs sha256 {finalize}")
    rec.write(ROOT / ".perfbench_work" / f"spans-{name}-s{seed}.jsonl")
    print(f"{'layer':<24}{'calls':>8}{'total_s':>10}{'self_s':>10}"
          f"{'ands_in':>10}{'ands_out':>10}")
    for layer, st in sorted(rec.layers.items(), key=lambda kv: -kv[1].self_s):
        print(f"{layer:<24}{st.calls:>8}{st.total_s:>10.3f}{st.self_s:>10.3f}"
              f"{st.ands_in:>10}{st.ands_out:>10}")
    worst, whole = rec.reconcile()
    print(f"layer self times vs runner.task wall: worst task gap "
          f"{worst:.2%}, whole grid {whole:.2%}")
    tally.check(worst <= 0.05, f"task layer sums miss wall time by {worst:.2%}")
    out: Metrics = {
        "trace.overhead_s": traced.grid_s - untraced.grid_s,
        "trace.reconcile_gap": worst,
    }
    for layer, st in rec.layers.items():
        out[f"{layer}.self_s"] = st.self_s
        out[f"{layer}.calls"] = st.calls
        out[f"{layer}.ands_in"] = st.ands_in
        out[f"{layer}.ands_out"] = st.ands_out
    substitute = rec.layers.get("aig.approx.substitute")
    out["aig.approx.rounds"] = substitute.calls if substitute else 0
    return out


def run_serve(seed: int, seconds: float, trace: bool, work: Path,
              tally: Any) -> tuple[Metrics, Metrics]:
    import signal

    import contest
    import numpy as np
    import serving
    from stats import percentile, samples_beyond

    # Outside every metric: build and verify the store, derive the
    # requests and their correct answers.
    specs = serving.store_specs()
    built = contest.run_pass(specs, work / "store")
    contest.check_pass(built, specs, seed, tally)
    aigs = serving.load_models(built.store)
    models = sorted((name, aig.n_inputs) for name, aig in aigs.items())
    models_file = work / "models.json"
    models_file.write_text(json.dumps(models))
    stream = list(serving.requests(seed, models, int(serving.RATE * seconds)))
    expected = serving.expected_bodies(aigs, stream)
    zero_rows = [(n, np.zeros((1, w), dtype=np.uint8)) for n, w in models]
    warm = dict(zip([n for n, _ in models],
                    serving.expected_bodies(aigs, zero_rows), strict=True))

    setup_s, import_s = [], []
    with serving.IdleGuard(serving.cpu_plan()[0]):
        for k in range(serving.SETUP_LAUNCHES):
            last = k == serving.SETUP_LAUNCHES - 1
            server, took, wrong = serving.launch(built.store, work, str(k),
                                                 trace and last, models, warm)
            tally.ok(len(models) - wrong)
            if wrong:
                tally.fail("wrong warm-up answer", wrong)
            setup_s.append(took)
            if not last:
                import_s.append(server.stop()["import_s"])
        try:
            before = serving.healthz_counts(server.port)
            if trace:
                server.proc.send_signal(signal.SIGUSR1)
            results = work / "results.jsonl"
            serving.run_loadgen(server.port, seed, seconds, models_file,
                                results)
            after = serving.healthz_counts(server.port)
        finally:
            stats = server.stop()
    import_s.append(stats["import_s"])

    lines = results.read_text().splitlines()
    counts, rows = json.loads(lines[0]), [json.loads(x) for x in lines[1:]]
    latency, late, finish = [], [], []
    for (i, status, late_ms, latency_ms, body), want in zip(rows, expected,
                                                            strict=True):
        try:
            ok = status == 200 and serving.canonical(json.loads(body)) == want
        except ValueError:  # a 200 whose body is not JSON
            ok = False
        tally.check(ok, f"request {i}: status {status}")
        latency.append(latency_ms if ok else float("inf"))
        late.append(late_ms)
        finish.append(i / serving.RATE + latency_ms / 1e3)
    late_p99 = percentile(late, 99)
    # p99 is the median of the p99s of consecutive windows of at least
    # MIN_TAIL_REQUESTS requests each (ten beyond each p99), so one
    # stall of the shared host moves one window, not the metric.
    windows = max(1, len(latency) // serving.MIN_TAIL_REQUESTS)
    bounds = [len(latency) * w // windows for w in range(windows + 1)]
    window_p99 = [percentile(latency[a:b], 99)
                  for a, b in zip(bounds, bounds[1:])]
    print(f"load generator: {counts['sent']} sent, {counts['answered_200']} "
          f"answered 200, {counts['failed']} failed; lateness p99 "
          f"{late_p99:.3f} ms; latency p99 in {windows} windows of "
          f"{bounds[1]} requests ({samples_beyond(bounds[1], 99)} beyond "
          f"each): " + ", ".join(f"{v:.3f}" for v in window_p99) + " ms")
    metrics = contest.summarize(built, specs)
    metrics.update({
        "grid_s": max(finish),
        "p50_ms": percentile(latency, 50),
        "p99_ms": statistics.median(window_p99),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": stats["peak_rss_mb"],
    })
    batches = after["batches"] - before["batches"]
    layers: Metrics = {
        **stats["trace"],
        "serve.batches": batches,
        "serve.requests_per_batch":
            (after["requests"] - before["requests"]) / max(batches, 1),
        "serve.store.misses": after["misses"] - before["misses"],
        "loadgen.late_p99_ms": late_p99,
        "import_s": statistics.median(import_s),
    }
    if late_p99 > serving.MAX_LATE_P99_MS:
        tally.invalid = (f"the load generator ran {late_p99:.1f} ms late at "
                         f"p99 (limit {serving.MAX_LATE_P99_MS} ms)")
    return metrics, layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: {ROOT / 'src' / 'repro'} is missing; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # One process per core: math libraries must not spread over the
    # other core, where the server or load generator runs.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    import contest
    from stats import Tally, result_line

    if args.setup_probe:
        print(json.dumps(contest.setup(contest.WORKLOADS[args.workload])))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {names}")
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    tally = Tally()
    metrics: Metrics = {}
    layers: Metrics = {}
    try:
        if args.workload in contest.WORKLOADS:
            metrics, layers = run_contest(args.workload, args.seed,
                                          bool(args.trace), work, tally)
        else:
            metrics, layers = run_serve(args.seed, args.seconds,
                                        bool(args.trace), work, tally)
    except Exception as exc:  # the run still reports, as a failure
        traceback.print_exc()
        tally.fail(f"run aborted: {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for reason, n in sorted(tally.reasons.items()):
        print(f"FAILED x{n}: {reason}")
    if tally.invalid is not None:
        print(f"INVALID RUN: {tally.invalid}")
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else metrics
    print(f"{'error_rate':<28}{tally.error_rate:>14.6f} frac "
          f"({tally.failed} of {tally.attempted} operations failed)")
    for m in listed:
        print(f"{m['name']:<28}{values.get(m['name'], 0.0):>14.6f} {m['unit']}")
    print(result_line(
        tally,
        {m["name"]: (values.get(m["name"], 0.0), m["unit"]) for m in listed},
    ))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
