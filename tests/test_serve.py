"""The serving layer: ModelStore, microbatching, HTTP, offline predict.

The acceptance property pinned here: everything `repro serve` answers
on ``/predict/{model}`` is *bit-identical* to ``AIG.simulate`` run
directly on the stored solution — loading, compiling, coalescing and
HTTP transport must never change a single output bit.
"""

import asyncio
import http.client
import json
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.aig.aig import AIG
from repro.aig.aiger import dumps_aag, loads_aag, read_aag
from repro.runner import contest_tasks, run_contest_tasks
from repro.runner.store import RunStore, _solution_filename
from repro.serve import (
    CircuitBundle,
    DeadlineExceeded,
    ExecutionError,
    MicroBatcher,
    ModelStore,
    QueueSaturated,
    ServeApp,
    ServerHandle,
    parse_metrics_text,
)
from repro.serve.bundle import validate_rows
from repro.serve.metrics import MetricsRegistry
from repro.serve.predict import format_outputs, predict_file, read_rows_file
from repro.sim.batch import simulate_rows_grouped

BENCHMARKS = [30, 74]
FLOWS = ["team01", "team10"]
SAMPLES = 48


@pytest.fixture(scope="session")
def run_store_dir(tmp_path_factory):
    """A real contest run with stored solutions (built once)."""
    out_dir = tmp_path_factory.mktemp("serve") / "run"
    specs = contest_tasks(BENCHMARKS, FLOWS, SAMPLES, SAMPLES, SAMPLES)
    run_contest_tasks(specs, jobs=1, out_dir=out_dir, keep_solutions=True)
    return out_dir


@pytest.fixture()
def model_store(run_store_dir):
    return ModelStore(run_store_dir, cache_size=8)


def _random_rows(n_rows, n_inputs, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(n_rows, n_inputs)).astype(np.uint8)


def _stored_winner_aig(run_store_dir, model_store, name) -> AIG:
    """The winning stored .aag, read back through the run store."""
    key = model_store.info(name).key
    return read_aag(RunStore(run_store_dir).solution_path(key))


# ---------------------------------------------------------------------------
# ModelStore
# ---------------------------------------------------------------------------


def test_model_store_catalogue(model_store):
    assert model_store.names() == ["ex30", "ex74"]
    assert model_store.resolve("74") == "ex74"
    assert "ex30" in model_store and "30" in model_store
    assert "ex99" not in model_store
    info = model_store.info("ex74")
    assert info.benchmark == 74
    assert info.flow in FLOWS
    assert info.n_inputs == 16
    with pytest.raises(KeyError):
        model_store.resolve("ex99")


def test_model_store_glob_resolution(model_store):
    # A glob matching exactly one stored name resolves to it; an
    # ambiguous glob names the candidates instead of guessing.
    assert model_store.resolve("*74") == "ex74"
    assert "ex7?" in model_store
    with pytest.raises(KeyError, match="ambiguous"):
        model_store.resolve("ex*")
    with pytest.raises(KeyError, match="unknown model"):
        model_store.resolve("zz*")


def test_model_store_serves_generated_spec(tmp_path):
    """Registry spec-string benchmarks are servable end to end: the
    record's string ``benchmark`` field must survive catalogue
    building (it used to be force-cast to int) and the canonical name
    must work as the serving route."""
    name = "parity:inputs=8"
    specs = contest_tasks([name], ["team10"], SAMPLES, SAMPLES, SAMPLES)
    run_contest_tasks(specs, jobs=1, out_dir=tmp_path, keep_solutions=True)
    store = ModelStore(tmp_path, cache_size=2)
    assert store.names() == [name]
    assert store.resolve("parity:*") == name
    info = store.info(name)
    assert info.benchmark == name
    assert info.n_inputs == 8
    compiled = store.load(name)
    rows = _random_rows(16, 8)
    assert compiled.run(rows).shape == (16, 1)


def test_model_store_picks_best_record(tmp_path):
    """Selection: legal first, then accuracy, then size, then levels."""
    store = RunStore(tmp_path)
    aig = AIG(2)
    aig.set_output(aig.add_and(2, 4))
    aag = dumps_aag(aig)
    rows = [
        # (key, legal, acc, ands): the acc=0.9 legal record must win
        ("b000:flowA:s0", True, 0.8, 5),
        ("b000:flowB:s0", True, 0.9, 9),
        ("b000:flowC:s0", False, 0.99, 9000),  # illegal never beats legal
        ("b000:flowD:s0", True, 0.9, 12),  # same acc, larger -> loses
    ]
    for key, legal, acc, ands in rows:
        store.append(
            {
                "schema": 1,
                "key": key,
                "benchmark": 0,
                "benchmark_name": "ex00",
                "flow": key.split(":")[1],
                "seed": 0,
                "legal": legal,
                "test_accuracy": acc,
                "num_ands": ands,
                "levels": 3,
            },
            aag=aag,
        )
    ms = ModelStore(tmp_path)
    assert ms.names() == ["ex00"]
    assert ms.info("ex00").flow == "flowB"


def test_model_store_requires_solutions(tmp_path):
    store = RunStore(tmp_path)
    store.append({"schema": 1, "key": "b000:f:s0", "benchmark_name": "ex00"})
    with pytest.raises(FileNotFoundError):
        ModelStore(tmp_path)  # records but no kept circuits
    with pytest.raises(FileNotFoundError):
        ModelStore(tmp_path / "missing")


def test_model_store_bundle_directory(tmp_path, model_store, run_store_dir):
    """Any directory of .aag files (+ JSON sidecars) is servable."""
    aig = _stored_winner_aig(run_store_dir, model_store, "ex74")
    (tmp_path / "parity16.aag").write_text(dumps_aag(aig), encoding="ascii")
    (tmp_path / "parity16.json").write_text(
        json.dumps({"flow": "handmade", "test_accuracy": 0.75})
    )
    aig2 = AIG(3)
    aig2.set_output(aig2.add_and(2, 4))
    (tmp_path / "bare.aag").write_text(dumps_aag(aig2), encoding="ascii")

    ms = ModelStore(tmp_path)
    assert ms.names() == ["bare", "parity16"]
    assert ms.info("parity16").flow == "handmade"
    assert ms.info("bare").n_inputs == 3  # no sidecar needed
    rows = _random_rows(9, 16)
    assert np.array_equal(ms.load("parity16").run(rows), aig.simulate(rows))


def test_model_store_lru(run_store_dir):
    """The LRU is the one holder of compiled circuits: one compile
    (miss) per residency, and an evicted model compiles afresh."""
    ms = ModelStore(run_store_dir, cache_size=1)
    first = ms.load("ex30")
    assert ms.stats()["misses"] == 1
    assert ms.load("ex30") is first
    assert ms.stats()["hits"] == 1
    ms.load("ex74")  # evicts ex30
    stats = ms.stats()
    assert stats["evictions"] == 1 and stats["compiled"] == 1
    assert ms.cached_names() == ["ex74"]
    assert ms.load("ex30") is not first  # recompiles
    assert ms.stats()["misses"] == 3
    with pytest.raises(ValueError):
        ModelStore(run_store_dir, cache_size=0)


# ---------------------------------------------------------------------------
# Bit-identity (the golden serving property)
# ---------------------------------------------------------------------------


def test_compiled_circuit_bit_identical_to_simulate(
    model_store, run_store_dir
):
    for name in model_store.names():
        circuit = model_store.load(name)
        aig = _stored_winner_aig(run_store_dir, model_store, name)
        rows = _random_rows(133, circuit.n_inputs, seed=7)
        assert np.array_equal(circuit.run(rows), aig.simulate(rows))
        single = circuit.run(rows[3])  # 1-d row convenience
        assert np.array_equal(single, aig.simulate(rows[3 : 4]))


def test_predict_validates_width():
    with pytest.raises(ValueError):
        validate_rows(np.zeros((4, 3), dtype=np.uint8), 16, "ex74")


def test_predict_rejects_non_binary_values():
    """A 2 in one request's row must never leak into a neighbour's
    packed bits — non-0/1 input is rejected, not silently packed."""
    bad = np.zeros((1, 16), dtype=np.uint8)
    bad[0, 0] = 2
    with pytest.raises(ValueError):
        validate_rows(bad, 16, "ex74")
    # Fractional values must be rejected, not truncated to 0.
    frac = np.zeros((1, 16))
    frac[0, 0] = 0.9
    with pytest.raises(ValueError):
        validate_rows(frac, 16, "ex74")
    # ...but integral floats pass as the same bits, and negative ints
    # fail cleanly too.
    assert np.array_equal(
        validate_rows(np.ones((1, 16)), 16, "ex74"),
        np.ones((1, 16), dtype=np.uint8),
    )
    with pytest.raises(ValueError):
        validate_rows([[-1] * 16], 16, "ex74")
    # Out-of-range integers must not wrap into valid bits on the uint8
    # cast (256 -> 0, 257 -> 1), and strings are not numbers.
    for rows in ([[256] + [1] * 15], [[257] + [0] * 15],
                 [["1", "0"] * 8], np.full((1, 16), 256, dtype=np.int64)):
        with pytest.raises(ValueError, match="0/1"):
            validate_rows(rows, 16, "ex74")


def test_model_store_info_does_not_compile(run_store_dir):
    """The catalogue path must not thrash the compiled-plan LRU."""
    ms = ModelStore(run_store_dir, cache_size=1)
    infos = ms.infos()
    assert [i.name for i in infos] == ["ex30", "ex74"]
    assert all(i.num_ands > 0 for i in infos)
    stats = ms.stats()
    assert stats["misses"] == 0 and stats["compiled"] == 0


def test_simulate_rows_grouped_matches_per_block(model_store):
    circuit = model_store.load("ex74")
    blocks = [
        _random_rows(k, circuit.n_inputs, seed=k) for k in (1, 1, 5, 2)
    ]
    grouped = simulate_rows_grouped(circuit, blocks)
    assert len(grouped) == len(blocks)
    for block, out in zip(blocks, grouped, strict=True):
        assert np.array_equal(out, circuit.run(block))
    assert simulate_rows_grouped(circuit, []) == []
    one = simulate_rows_grouped(circuit, [blocks[2][0]])  # 1-d
    assert np.array_equal(one[0], circuit.run(blocks[2][:1]))


def test_loads_aag_round_trip(model_store, run_store_dir):
    aig = _stored_winner_aig(run_store_dir, model_store, "ex30")
    again = loads_aag(dumps_aag(aig))
    assert dumps_aag(again) == dumps_aag(aig)


# ---------------------------------------------------------------------------
# Microbatching
# ---------------------------------------------------------------------------


def test_microbatcher_coalesces_concurrent_singles(model_store):
    circuit = model_store.load("ex74")
    rows = _random_rows(8, circuit.n_inputs, seed=3)
    expected = circuit.run(rows)

    async def drive():
        batcher = MicroBatcher(model_store, tick_s=0.05)
        outs = await asyncio.gather(
            *(batcher.predict("ex74", rows[i]) for i in range(len(rows)))
        )
        return batcher, outs

    batcher, outs = asyncio.run(drive())
    for i, out in enumerate(outs):
        assert np.array_equal(out[0], expected[i])
    # All 8 requests arrived within one tick: exactly one engine pass.
    stats = batcher.stats()
    assert stats["batches"] == 1
    assert stats["max_coalesced"] == 8
    assert stats["rows_served"] == 8


def test_microbatcher_max_batch_flushes_early(model_store):
    circuit = model_store.load("ex74")
    rows = _random_rows(8, circuit.n_inputs, seed=4)
    expected = circuit.run(rows)

    async def drive():
        batcher = MicroBatcher(model_store, tick_s=5.0, max_batch=4)
        outs = await asyncio.gather(
            *(batcher.predict("ex74", rows[i]) for i in range(len(rows)))
        )
        return batcher, outs

    batcher, outs = asyncio.run(drive())
    for i, out in enumerate(outs):
        assert np.array_equal(out[0], expected[i])
    # tick_s is far beyond the test budget, so only the max_batch
    # trigger can have flushed -- twice, at 4 rows each.
    assert batcher.stats()["batches"] == 2
    assert batcher.stats()["max_coalesced"] == 4


def test_microbatcher_rejects_bad_rows_before_enqueue(model_store):
    async def drive():
        batcher = MicroBatcher(model_store, tick_s=0.01)
        with pytest.raises(ValueError):
            await batcher.predict("ex74", np.zeros((1, 2), dtype=np.uint8))
        with pytest.raises(KeyError):
            await batcher.predict("nope", np.zeros((1, 16), dtype=np.uint8))
        assert batcher.requests == 0  # nothing was queued

    asyncio.run(drive())


# ---------------------------------------------------------------------------
# HTTP front end
# ---------------------------------------------------------------------------


@pytest.fixture()
def served(model_store):
    app = ServeApp(model_store, tick_s=0.002)
    with ServerHandle(app) as handle:
        yield handle


def _request(handle, method, path, body=None):
    conn = http.client.HTTPConnection(handle.host, handle.port, timeout=30)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def test_http_predict_golden(served, model_store, run_store_dir):
    """ /predict output == AIG.simulate, bit for bit, via real HTTP."""
    for name in model_store.names():
        aig = _stored_winner_aig(run_store_dir, model_store, name)
        rows = _random_rows(57, aig.n_inputs, seed=11)
        status, body = _request(
            served, "POST", f"/predict/{name}",
            json.dumps({"rows": rows.tolist()}),
        )
        assert status == 200
        assert body["model"] == name and body["rows"] == 57
        got = np.asarray(body["outputs"], dtype=np.uint8)
        assert np.array_equal(got, aig.simulate(rows))


def test_http_single_row_and_index_route(served, model_store, run_store_dir):
    aig = _stored_winner_aig(run_store_dir, model_store, "ex74")
    row = _random_rows(1, 16, seed=2)[0]
    status, body = _request(
        served, "POST", "/predict/74", json.dumps({"row": row.tolist()})
    )
    assert status == 200 and body["model"] == "ex74"
    assert np.array_equal(
        np.asarray(body["outputs"], dtype=np.uint8), aig.simulate(row)
    )


def test_http_concurrent_singles_are_coalesced_and_exact(
    served, model_store, run_store_dir
):
    aig = _stored_winner_aig(run_store_dir, model_store, "ex74")
    rows = _random_rows(24, 16, seed=9)
    expected = aig.simulate(rows)

    def one(i):
        return i, _request(
            served, "POST", "/predict/ex74",
            json.dumps({"row": rows[i].tolist()}),
        )

    with ThreadPoolExecutor(max_workers=12) as pool:
        for i, (status, body) in pool.map(one, range(len(rows))):
            assert status == 200
            assert np.array_equal(
                np.asarray(body["outputs"], dtype=np.uint8)[0], expected[i]
            )

    status, health = _request(served, "GET", "/healthz")
    assert status == 200 and health["status"] == "ok"
    assert health["batching"]["rows_served"] >= len(rows)
    assert health["batching"]["batches"] <= health["batching"]["requests"]


def test_http_models_and_health(served, model_store):
    status, body = _request(served, "GET", "/models")
    assert status == 200
    names = [m["name"] for m in body["models"]]
    assert names == model_store.names()
    for model in body["models"]:
        assert {"n_inputs", "n_outputs", "num_ands", "compiled"} <= set(model)
    status, health = _request(served, "GET", "/healthz")
    assert status == 200
    assert health["store"]["models"] == len(names)


def test_http_error_paths(served):
    assert _request(served, "POST", "/predict/nope", "{}")[0] == 404
    assert _request(served, "GET", "/nothing")[0] == 404
    assert _request(served, "GET", "/predict/ex74")[0] == 405
    assert _request(served, "POST", "/predict/ex74", "not json")[0] == 400
    assert _request(served, "POST", "/predict/ex74", "[1,2]")[0] == 400
    assert _request(served, "POST", "/predict/ex74", "{}")[0] == 400
    status, body = _request(
        served, "POST", "/predict/ex74", json.dumps({"rows": [[0, 1]]})
    )
    assert status == 400 and "16 bits" in body["error"]


def test_http_rejects_non_binary_rows(served):
    status, body = _request(
        served, "POST", "/predict/ex74", json.dumps({"rows": [[2] * 16]})
    )
    assert status == 400 and "0/1" in body["error"]
    # Negative values are a 400 too (numpy raises OverflowError on
    # uint8 conversion; that must not surface as a 500).
    status, body = _request(
        served, "POST", "/predict/ex74", json.dumps({"row": [-1] * 16})
    )
    assert status == 400
    # Fractional JSON floats are rejected, never truncated to 0.
    status, body = _request(
        served, "POST", "/predict/ex74", json.dumps({"row": [0.9] * 16})
    )
    assert status == 400 and "fractional" in body["error"]
    # 256 must not wrap to 0 on the uint8 cast and be answered.
    status, body = _request(
        served, "POST", "/predict/ex74", json.dumps({"row": [256] + [0] * 15})
    )
    assert status == 400 and "0/1" in body["error"]


def test_http_malformed_content_length_gets_400(served):
    import socket

    # Only plain ASCII digits: int() alone would take "+2" and "1_0".
    for value in (b"abc", b"-1", b"+2", b"1_0"):
        with socket.create_connection(
            (served.host, served.port), timeout=30
        ) as s:
            s.sendall(
                b"POST /predict/ex74 HTTP/1.1\r\n"
                b"Content-Length: " + value + b"\r\n\r\n{}"
            )
            response = s.recv(65536).decode("latin-1")
        assert response.startswith("HTTP/1.1 400"), value
        assert "Content-Length" in response


def test_http_keep_alive_reuses_connection(served):
    conn = http.client.HTTPConnection(served.host, served.port, timeout=30)
    try:
        for _ in range(3):
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200
            response.read()
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# Offline predict + CLI
# ---------------------------------------------------------------------------


def test_read_rows_file_formats(tmp_path):
    path = tmp_path / "rows.txt"
    path.write_text("# comment\n0101\n1 1 0 0\n0,0,1,1\n\n")
    rows = read_rows_file(path)
    assert rows.tolist() == [[0, 1, 0, 1], [1, 1, 0, 0], [0, 0, 1, 1]]
    path.write_text("01\n011\n")
    with pytest.raises(ValueError):
        read_rows_file(path)
    path.write_text("01x1\n")
    with pytest.raises(ValueError):
        read_rows_file(path)
    path.write_text("# only comments\n")
    with pytest.raises(ValueError):
        read_rows_file(path)


def test_predict_file_golden(tmp_path, run_store_dir, model_store):
    aig = _stored_winner_aig(run_store_dir, model_store, "ex74")
    rows = _random_rows(21, 16, seed=5)
    in_path = tmp_path / "rows.txt"
    out_path = tmp_path / "preds.txt"
    in_path.write_text(
        "\n".join("".join(str(b) for b in r) for r in rows) + "\n"
    )
    n_rows = predict_file(run_store_dir, "ex74", in_path, out_path)
    assert n_rows == 21
    got = np.asarray(
        [[int(b) for b in line] for line in out_path.read_text().split()],
        dtype=np.uint8,
    )
    assert np.array_equal(got, aig.simulate(rows))
    assert format_outputs(got) == out_path.read_text()


def test_predict_file_rejects_wrong_width(tmp_path, run_store_dir):
    """Rows read from a file are outside input: a well-formed file of
    the wrong width is rejected before it reaches the engine."""
    in_path = tmp_path / "rows.txt"
    in_path.write_text("010\n110\n")
    out_path = tmp_path / "preds.txt"
    with pytest.raises(ValueError, match="16 bits"):
        predict_file(run_store_dir, "ex74", in_path, out_path)
    assert not out_path.exists()


def test_predict_cli(tmp_path, run_store_dir):
    from repro.cli import main

    in_path = tmp_path / "rows.txt"
    out_path = tmp_path / "preds.txt"
    in_path.write_text("0" * 16 + "\n" + "1" * 16 + "\n")
    main([
        "predict", "--store", str(run_store_dir), "--model", "ex74",
        "--input", str(in_path), "--output", str(out_path),
    ])
    assert len(out_path.read_text().split()) == 2
    with pytest.raises(SystemExit):
        main([
            "predict", "--store", str(run_store_dir), "--model", "ex99",
            "--input", str(in_path), "--output", str(out_path),
        ])


def test_serve_cli_parser():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["serve", "--store", "runs/x", "--port", "9000", "--tick-ms", "1"]
    )
    assert args.command == "serve"
    assert args.port == 9000 and args.tick_ms == 1.0


def test_serve_cli_parser_pool_flags():
    from repro.cli import build_parser

    args = build_parser().parse_args(["serve", "--store", "runs/x"])
    assert args.max_queued_rows is None and args.deadline_ms is None
    args = build_parser().parse_args([
        "serve", "--store", "runs/x",
        "--max-queued-rows", "4096", "--deadline-ms", "50",
    ])
    assert args.max_queued_rows == 4096 and args.deadline_ms == 50.0
    # The process pool is gone: --workers is no longer an option.
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["serve", "--store", "runs/x", "--workers", "4"]
        )


# ---------------------------------------------------------------------------
# Run-store solution filenames (serving depends on exact key -> file)
# ---------------------------------------------------------------------------


def test_solution_filename_distinct_for_colliding_keys():
    a = _solution_filename("b000:team_a:s0")
    b = _solution_filename("b000:team:a:s0")
    c = _solution_filename("b000_team_a_s0")
    assert len({a, b, c}) == 3  # sanitization alone would collide
    assert c == "b000_team_a_s0.aag"  # already-safe keys stay readable
    for name in (a, b, c):
        assert name.endswith(".aag")
        assert not set(name) - set(
            "abcdefghijklmnopqrstuvwxyz"
            "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-"
        )


def test_solution_text_round_trip(tmp_path):
    store = RunStore(tmp_path)
    aig = AIG(2)
    aig.set_output(aig.add_and(2, 5))
    aag = dumps_aag(aig)
    store.append(
        {"schema": 1, "key": "b001:f:s0", "benchmark_name": "ex01"}, aag=aag
    )
    assert store.solution_text("b001:f:s0") == aag
    assert store.solution_text("b001:missing:s0") is None


def test_solution_text_reads_legacy_pre_digest_files(tmp_path):
    """Stores written before the digest suffix must keep serving."""
    store = RunStore(tmp_path)
    aig = AIG(2)
    aig.set_output(aig.add_and(2, 4))
    aag = dumps_aag(aig)
    store.append(
        {
            "schema": 1,
            "key": "b002:team01:s0",
            "benchmark_name": "ex02",
            "num_ands": 1,
            "levels": 1,
            "test_accuracy": 1.0,
            "legal": True,
        }
    )
    legacy = store.solutions_dir / "b002_team01_s0.aag"  # old naming
    legacy.parent.mkdir(parents=True, exist_ok=True)
    legacy.write_text(aag, encoding="ascii")
    assert store.solution_path("b002:team01:s0") != legacy
    assert store.solution_text("b002:team01:s0") == aag
    ms = ModelStore(tmp_path)  # and the serving layer sees it too
    assert ms.names() == ["ex02"]


def test_bundle_from_files_explicit_meta(tmp_path):
    aig = AIG(2)
    aig.set_output(aig.add_and(2, 4))
    aag_path = tmp_path / "c.aag"
    aag_path.write_text(dumps_aag(aig), encoding="ascii")
    meta_path = tmp_path / "other_name.json"
    meta_path.write_text(json.dumps({"benchmark_name": "mine", "seed": 3}))
    bundle = CircuitBundle.from_files(aag_path, meta_path)
    assert bundle.info().name == "mine" and bundle.info().seed == 3
    rows = _random_rows(4, 2)
    assert np.array_equal(bundle.compile().run(rows), aig.simulate(rows))


# ---------------------------------------------------------------------------
# Error classification (flush failures are 500s, never a caller's 400)
# ---------------------------------------------------------------------------


def test_flush_failure_is_execution_error_for_all_callers(
    model_store, monkeypatch
):
    """An engine fault mid-flush hits every coalesced caller as
    ExecutionError — historically it leaked out as the next await's
    bare exception and the HTTP layer blamed the caller with a 400."""
    import repro.serve.batching as batching_mod

    def boom(compiled, blocks):
        raise RuntimeError("engine exploded")

    monkeypatch.setattr(batching_mod, "simulate_rows_grouped", boom)
    rows = _random_rows(4, 16, seed=1)

    async def drive():
        batcher = MicroBatcher(model_store, tick_s=0.01)
        results = await asyncio.gather(
            *(batcher.predict("ex74", rows[i]) for i in range(4)),
            return_exceptions=True,
        )
        return batcher, results

    batcher, results = asyncio.run(drive())
    assert len(results) == 4
    for result in results:
        assert isinstance(result, ExecutionError)
        assert "engine exploded" in str(result)
    assert batcher.stats()["execution_errors"] == 1  # one batch, one fault
    assert batcher.stats()["rows_served"] == 0


def test_http_flush_failure_is_500_not_400(model_store, monkeypatch):
    import repro.serve.batching as batching_mod

    def boom(compiled, blocks):
        raise RuntimeError("engine exploded")

    monkeypatch.setattr(batching_mod, "simulate_rows_grouped", boom)
    app = ServeApp(model_store, tick_s=0.002)
    with ServerHandle(app) as handle:
        status, body = _request(
            handle, "POST", "/predict/ex74",
            json.dumps({"row": [0] * 16}),
        )
    assert status == 500
    assert "failed" in body["error"]
    assert "0/1" not in body["error"]  # the old misclassification
    # ...while a genuinely malformed request stays a 400: the bad rows
    # never reach the (broken) engine because validation happens at
    # enqueue time, not at flush time.
    app2 = ServeApp(model_store, tick_s=0.002)
    with ServerHandle(app2) as handle:
        status, body = _request(
            handle, "POST", "/predict/ex74",
            json.dumps({"row": [2] * 16}),
        )
    assert status == 400 and "0/1" in body["error"]


# ---------------------------------------------------------------------------
# Backpressure: saturation + deadlines (bounded queues, classified 503s)
# ---------------------------------------------------------------------------


def test_microbatcher_saturation_rejects_at_admission(model_store):
    rows = _random_rows(8, 16, seed=6)

    async def drive():
        batcher = MicroBatcher(
            model_store, tick_s=5.0, max_queued_rows=8
        )
        task = asyncio.ensure_future(batcher.predict("ex74", rows))
        await asyncio.sleep(0)  # let the first request enqueue
        assert batcher.pending_rows("ex74") == 8
        # The queue is exactly at capacity: one more row must bounce.
        with pytest.raises(QueueSaturated) as excinfo:
            await batcher.predict("ex74", rows[:1])
        assert excinfo.value.retry_after_s > 0
        assert batcher.stats()["rejected_saturated"] == 1
        # The admission bound held: never more than max_queued_rows.
        assert batcher.pending_rows("ex74") == 8
        batcher.flush_all()
        out = await task  # the queued request was not stranded
        return batcher, out

    batcher, out = asyncio.run(drive())
    expected = model_store.load("ex74").run(rows)
    assert np.array_equal(out, expected)
    assert batcher.stats()["rows_served"] == 8


def test_microbatcher_deadline_fires_before_flush(model_store):
    async def drive():
        # Deadline far shorter than the tick: the request must be
        # answered by the deadline timer, not the (distant) flush.
        batcher = MicroBatcher(model_store, tick_s=5.0, deadline_s=0.02)
        with pytest.raises(DeadlineExceeded):
            await batcher.predict("ex74", np.zeros((1, 16), dtype=np.uint8))
        assert batcher.stats()["batches"] == 0  # answered before any flush
        assert batcher.stats()["rejected_deadline"] == 1
        assert batcher.pending_rows("ex74") == 0  # budget released
        # The queue stays usable afterwards: flush skips settled
        # futures and a fresh request still gets served.
        batcher.deadline_s = None
        task = asyncio.ensure_future(
            batcher.predict("ex74", np.ones((1, 16), dtype=np.uint8))
        )
        await asyncio.sleep(0)
        batcher.flush_all()
        out = await task
        return batcher, out

    batcher, out = asyncio.run(drive())
    assert out.shape[0] == 1 and batcher.stats()["rows_served"] == 1


def test_http_saturation_returns_503_with_retry_after(model_store):
    app = ServeApp(model_store, tick_s=1.0, max_queued_rows=4)
    rows = _random_rows(4, 16, seed=8)
    with ServerHandle(app) as handle:
        with ThreadPoolExecutor(max_workers=1) as pool:
            # Fill the queue; the long tick parks it server-side.
            first = pool.submit(
                _request, handle, "POST", "/predict/ex74",
                json.dumps({"rows": rows.tolist()}),
            )
            deadline = 1.0
            while app.batcher.pending_rows("ex74") < 4 and deadline > 0:
                import time as _time
                _time.sleep(0.01)
                deadline -= 0.01
            conn = http.client.HTTPConnection(
                handle.host, handle.port, timeout=30
            )
            try:
                conn.request(
                    "POST", "/predict/ex74",
                    body=json.dumps({"row": [0] * 16}),
                )
                response = conn.getresponse()
                body = json.loads(response.read())
                assert response.status == 503
                assert "saturated" in body["error"]
                retry_after = response.getheader("Retry-After")
                assert retry_after is not None and int(retry_after) >= 1
            finally:
                conn.close()
            # The parked request rides out the tick and completes:
            # saturation must shed new load, never strand queued work.
            status, body = first.result(timeout=30)
    assert status == 200
    expected = model_store.load("ex74").run(rows)
    assert np.array_equal(
        np.asarray(body["outputs"], dtype=np.uint8), expected
    )


def test_http_deadline_returns_503_before_flush(model_store):
    app = ServeApp(model_store, tick_s=5.0, deadline_ms=30)
    with ServerHandle(app) as handle:
        status, body = _request(
            handle, "POST", "/predict/ex74", json.dumps({"row": [1] * 16})
        )
    assert status == 503
    assert "deadline" in body["error"]
    assert app.batcher.stats()["batches"] == 0  # the 503 preceded any flush


def test_metrics_reconcile_with_requests_handled(model_store):
    app = ServeApp(model_store, tick_s=0.002)
    with ServerHandle(app) as handle:
        for _ in range(3):
            assert _request(handle, "GET", "/healthz")[0] == 200
        status, _ = _request(
            handle, "POST", "/predict/ex74", json.dumps({"row": [0] * 16})
        )
        assert status == 200
        status, _ = _request(
            handle, "POST", "/predict/ex74",
            json.dumps({"rows": [[2] * 16]}),  # 400 via enqueue validation
        )
        assert status == 400
        conn = http.client.HTTPConnection(handle.host, handle.port, timeout=30)
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type").startswith("text/plain")
            text = response.read().decode("utf-8")
        finally:
            conn.close()
    metrics = parse_metrics_text(text)
    # Every response sent so far is accounted for, by status...
    by_status = {
        key: value for key, value in metrics.items()
        if key.startswith("repro_serve_http_responses_total{")
    }
    assert sum(by_status.values()) == metrics["repro_serve_requests_handled"]
    assert by_status['repro_serve_http_responses_total{status="200"}'] == 4
    assert by_status['repro_serve_http_responses_total{status="400"}'] == 1
    # ...and the serving counters line up with the batcher's view.
    assert metrics["repro_serve_rows_served_total"] == 1
    assert metrics["repro_serve_batches_total"] == \
        app.batcher.stats()["batches"]
    assert metrics["repro_serve_predict_latency_seconds_count"] == 2
    assert metrics['repro_serve_http_requests_total{endpoint="/predict"}'] == 2


def test_metrics_instruments_unit():
    reg = MetricsRegistry(prefix="t")
    counter = reg.counter("hits", "Hits.", label="kind")
    counter.inc(2, label_value="a")
    counter.inc(label_value="b")
    assert counter.total == 3 and counter.value("a") == 2
    with pytest.raises(ValueError):
        counter.inc(-1)
    with pytest.raises(ValueError):
        reg.counter("hits", "duplicate name")
    gauge = reg.gauge("depth", "Depths.", label="q", callback=lambda: {"x": 2})
    hist = reg.histogram("lat", "Latency.", buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 0.5, 2.0):
        hist.observe(value)
    assert hist.count == 4 and hist.bucket_counts == [1, 2, 1]
    assert hist.quantile(0.5) == 1.0  # bucket upper-bound estimate
    assert hist.quantile(0.99) == 1.0  # +Inf collapses to last bound
    text = reg.render()
    parsed = parse_metrics_text(text)
    assert parsed['t_hits{kind="a"}'] == 2
    assert parsed['t_depth{q="x"}'] == 2
    assert parsed['t_lat_bucket{le="1.0"}'] == 3  # cumulative
    assert parsed['t_lat_bucket{le="+Inf"}'] == 4
    assert parsed["t_lat_count"] == 4
    assert gauge.samples() == [({"q": "x"}, 2)]


# ---------------------------------------------------------------------------
# Connection header casing (RFC 9110: "Close" must close)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("token", ["close", "Close", "CLOSE"])
def test_http_connection_close_any_casing(served, token):
    import socket

    with socket.create_connection((served.host, served.port), timeout=30) as s:
        s.sendall(
            f"GET /healthz HTTP/1.1\r\nConnection: {token}\r\n\r\n"
            .encode("latin-1")
        )
        chunks = []
        while True:  # server must close — recv drains to EOF
            chunk = s.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    response = b"".join(chunks).decode("latin-1")
    assert response.startswith("HTTP/1.1 200")
    # The server echoed the close decision; "Connection: Close" being
    # treated as keep-alive would hang this test at recv instead.
    assert "connection: close" in response.lower()


# ---------------------------------------------------------------------------
# Store refresh invalidation (a better record must evict the stale plan)
# ---------------------------------------------------------------------------


def _append_record(store, key, name, accuracy, aag):
    store.append(
        {
            "schema": 1,
            "key": key,
            "benchmark": 0,
            "benchmark_name": name,
            "flow": key.split(":")[1],
            "seed": 0,
            "legal": True,
            "test_accuracy": accuracy,
            "num_ands": 1,
            "levels": 1,
        },
        aag=aag,
    )


def test_refresh_evicts_stale_compiled_entry(tmp_path):
    """A refresh that changes a model's winning record must recompile:
    keeping the old plan by name match alone serves a dead circuit."""
    run_store = RunStore(tmp_path)
    and_gate = AIG(2)
    and_gate.set_output(and_gate.add_and(2, 4))
    or_gate = AIG(2)
    or_gate.set_output(or_gate.add_and(3, 5) ^ 1)  # OR via De Morgan
    _append_record(run_store, "b000:flowA:s0", "ex00", 0.6, dumps_aag(and_gate))

    ms = ModelStore(tmp_path)
    rows = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
    assert np.array_equal(ms.load("ex00").run(rows).ravel(), [0, 0, 0, 1])

    # A better solution lands for the same benchmark...
    _append_record(run_store, "b000:flowB:s0", "ex00", 0.9, dumps_aag(or_gate))
    ms.refresh()
    # ...and the stale AND plan is evicted, not served by name match.
    assert ms.stats()["stale_evictions"] == 1
    assert ms.cached_names() == []
    assert np.array_equal(ms.load("ex00").run(rows).ravel(), [0, 1, 1, 1])

    # A refresh that changes nothing keeps the warm plan.
    ms.refresh()
    assert ms.stats()["stale_evictions"] == 1
    assert ms.cached_names() == ["ex00"]
