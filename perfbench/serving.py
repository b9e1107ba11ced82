"""The serve workload: open-loop ``/predict`` traffic against a server.

The store is a team10 contest run over all 20 ``default_small_indices()``
problems at master seed 0, built before anything is timed.  The server
is ``launcher.py`` (``repro serve``'s defaults: in-process execution,
2 ms tick); the client is ``loadgen.py``, a separate process with two
keep-alive connections.  Both derive the requests from the workload
seed with :func:`requests`; the server only ever sees the rows.  With
two CPUs or more, the server and the load generator each get one.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from collections.abc import Iterator
from pathlib import Path
from typing import Any

import numpy as np

HERE = Path(__file__).resolve().parent
RATE = 200.0  # requests per second, open loop; the knee is about 540
BATCH_ROWS = 256
SETUP_LAUNCHES = 5
# A p99 needs ten samples beyond it.
MIN_TAIL_REQUESTS = 1000
# The generator fell behind (not the server) when its own p99 lateness
# in sending passes this; the run is then invalid.
MAX_LATE_P99_MS = 25.0
STORE_FLOW = "team10"


def requests(seed: int, models: list[tuple[str, int]], n: int
             ) -> Iterator[tuple[str, np.ndarray]]:
    """The request stream: models round-robin, rows from ``seed``.

    In every 10 consecutive requests to one model, one carries a
    ``BATCH_ROWS``-row batch and nine carry a single row; the batch
    slot rotates so every model receives batches.
    """
    rng = np.random.default_rng(seed)
    for i in range(n):
        slot, cycle = i % len(models), i // len(models)
        name, width = models[slot]
        k = BATCH_ROWS if (slot + cycle) % 10 == 9 else 1
        yield name, rng.integers(0, 2, size=(k, width), dtype=np.uint8)


def store_specs() -> list:
    from repro.contest.suite import default_small_indices
    from repro.runner import contest_tasks

    return contest_tasks(default_small_indices(), [STORE_FLOW],
                         n_train=400, n_valid=400, n_test=400,
                         master_seed=0)


def load_models(store_dir: Path) -> dict[str, Any]:
    """``{model name: AIG}`` for every served circuit (one per
    benchmark: the store holds one flow)."""
    from repro.aig.aiger import loads_aag
    from repro.runner import RunStore

    store = RunStore(store_dir)
    return {
        str(record["benchmark_name"]): loads_aag(store.solution_text(key) or "")
        for key, record in store.load_records().items()
    }


def expected_bodies(
    aigs: dict[str, Any], stream: list[tuple[str, np.ndarray]]
) -> list[str]:
    """Canonical JSON of the correct answer to every request, computed
    with the reference simulator (one pass per model)."""
    from repro.sim.engine import reference_simulate_packed_all
    from repro.utils.bitops import pack_bits, unpack_bits

    by_model: dict[str, list[int]] = {}
    for i, (name, _) in enumerate(stream):
        by_model.setdefault(name, []).append(i)
    bodies = [""] * len(stream)
    for name, indices in by_model.items():
        aig = aigs[name]
        rows = np.vstack([stream[i][1] for i in indices])
        values = reference_simulate_packed_all(aig, pack_bits(rows))
        words = np.stack([
            ~values[lit >> 1] if lit & 1 else values[lit >> 1]
            for lit in aig.outputs
        ])
        outputs = unpack_bits(words, rows.shape[0])
        offset = 0
        for i in indices:
            k = stream[i][1].shape[0]
            bodies[i] = canonical({
                "model": name, "rows": k,
                "outputs": outputs[offset:offset + k].tolist(),
            })
            offset += k
    return bodies


def cpu_plan() -> tuple[int | None, int | None]:
    """``(server CPU, load generator CPU)``; no pinning on one CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[0], cpus[1]) if len(cpus) >= 2 else (None, None)


def pin(pid: int, cpu: int | None) -> None:
    if cpu is not None:
        os.sched_setaffinity(pid, {cpu})


class IdleGuard:
    """A lowest-priority busy loop on the server's CPU.

    The server idles between requests; a virtual CPU that halts takes
    milliseconds to wake on the next packet or tick, and that wake-up
    time swings with the host's load.  The loop keeps the CPU awake and
    yields to the server at once (nice 19), so latency measures the
    program, not the hypervisor.  It ends by itself if the benchmark
    dies without stopping it.
    """

    LOOP = (
        "import os, time\n"
        "os.nice(19)\n"
        "parent, end = os.getppid(), time.monotonic() + 600\n"
        "while os.getppid() == parent and time.monotonic() < end:\n"
        "    pass\n"
    )

    def __init__(self, cpu: int | None):
        self.cpu = cpu
        self.proc: subprocess.Popen | None = None

    def __enter__(self) -> IdleGuard:
        if self.cpu is not None:
            self.proc = subprocess.Popen([sys.executable, "-c", self.LOOP])
            pin(self.proc.pid, self.cpu)
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()


def canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True)


def get_json(port: int, path: str, body: Any = None, timeout: float = 10.0
             ) -> tuple[int, Any]:
    """One request to the local server (``http.client``: no proxies)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        if body is None:
            conn.request("GET", path)
        else:
            conn.request("POST", path, json.dumps(body),
                         {"Content-Type": "application/json"})
        resp = conn.getresponse()
        data = resp.read()
        return resp.status, json.loads(data) if resp.status == 200 else None
    finally:
        conn.close()


class Server:
    """One ``launcher.py`` process; ``stop()`` ends it and waits."""

    def __init__(self, store_dir: Path, work: Path, tag: str, trace: bool):
        self.port_file = work / f"port-{tag}"
        self.port_file.unlink(missing_ok=True)
        self.stats_file = work / f"server-{tag}.json"
        self.log = (work / f"server-{tag}.log").open("w")
        cmd = [sys.executable, str(HERE / "launcher.py"),
               "--store", str(store_dir), "--port-file", str(self.port_file),
               "--stats-out", str(self.stats_file)]
        if trace:
            cmd.append("--trace")
        self.proc = subprocess.Popen(cmd, stdout=self.log, stderr=self.log)
        pin(self.proc.pid, cpu_plan()[0])
        self.port = 0

    def wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            if not self.port and self.port_file.exists():
                self.port = int(self.port_file.read_text())
            if self.port:
                try:
                    if get_json(self.port, "/healthz", timeout=1.0)[0] == 200:
                        return
                except OSError:
                    pass
            time.sleep(0.005)
        raise RuntimeError("server did not become healthy")

    def stop(self) -> dict[str, Any]:
        """SIGTERM, wait, and return what the launcher wrote at exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        if self.stats_file.exists():
            return json.loads(self.stats_file.read_text())
        return {}


def launch(store_dir: Path, work: Path, tag: str, trace: bool,
           models: list[tuple[str, int]], warm: dict[str, str]
           ) -> tuple[Server, float, int]:
    """Start a server, wait for ``/healthz``, and send one warm-up row
    per model so every circuit is compiled.  Returns the server, the
    set-up time and the number of wrong warm-up answers."""
    start = time.perf_counter()
    server = Server(store_dir, work, tag, trace)
    wrong = 0
    try:
        server.wait_healthy()
        for name, width in models:
            status, body = get_json(server.port, f"/predict/{name}",
                                    {"rows": [[0] * width]})
            wrong += status != 200 or canonical(body) != warm[name]
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - start, wrong


def run_loadgen(port: int, seed: int, seconds: float, models_file: Path,
                out: Path) -> None:
    cmd = [sys.executable, str(HERE / "loadgen.py"), "--port", str(port),
           "--seed", str(seed), "--seconds", str(seconds),
           "--rate", str(RATE), "--models", str(models_file),
           "--out", str(out)]
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    try:
        pin(proc.pid, cpu_plan()[1])
        code = proc.wait(timeout=seconds + 120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"load generator exited with {code}")


def healthz_counts(port: int) -> dict[str, int]:
    _, health = get_json(port, "/healthz")
    return {
        "requests": int(health["batching"]["requests"]),
        "batches": int(health["batching"]["batches"]),
        "misses": int(health["store"]["misses"]),
    }

