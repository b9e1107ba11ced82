"""Serve learned circuits over HTTP and query them.

End-to-end tour of the serving layer (`repro.serve`):

1. run a mini contest with ``--keep-solutions`` so the store holds
   the winning circuits,
2. start the microbatching HTTP server on a background thread,
3. fire concurrent single-row requests at ``/predict/{model}`` and
   watch the ones that arrive together share an engine pass,
4. score a rows file offline with the same models (`repro predict`).

Run:  python examples/serve_demo.py            (seconds)
"""

import http.client
import json
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.runner import contest_tasks, run_contest_tasks
from repro.serve import ModelStore, ServeApp, ServerHandle, predict_file

BENCHMARKS = [30, 74]  # 10-bit comparator, 16-input parity
FLOWS = ["team01", "team10"]
SAMPLES = 64
N_REQUESTS = 32


def post_row(host, port, model, row):
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("POST", f"/predict/{model}",
                     body=json.dumps({"row": row}))
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-serve-demo-") as tmp:
        demo(Path(tmp))


def demo(tmp: Path) -> None:
    """The walkthrough, with its store and files under ``tmp``."""
    store_dir = tmp / "run"
    print(f"1) contest into {store_dir} (--keep-solutions) ...")
    specs = contest_tasks(BENCHMARKS, FLOWS, SAMPLES, SAMPLES, SAMPLES)
    run_contest_tasks(specs, jobs=1, out_dir=store_dir, keep_solutions=True)

    store = ModelStore(store_dir)
    print(f"   serving catalogue: {store.names()}")
    for info in store.infos():
        print(f"   {info.name}: {info.n_inputs} inputs, "
              f"{info.num_ands} ANDs, flow {info.flow}, "
              f"test acc {info.test_accuracy}")

    app = ServeApp(store)
    with ServerHandle(app) as handle:
        print(f"\n2) serving on http://{handle.host}:{handle.port}")
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 2, size=(N_REQUESTS, 16)).tolist()

        print(f"3) {N_REQUESTS} concurrent single-row requests ...")
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(
                lambda row: post_row(handle.host, handle.port, "ex74", row),
                rows,
            ))
        bits = "".join(str(body["outputs"][0][0]) for _, body in results)
        print(f"   predictions: {bits}")

        conn = http.client.HTTPConnection(handle.host, handle.port, timeout=30)
        conn.request("GET", "/healthz")
        health = json.loads(conn.getresponse().read())
        conn.close()
        batching = health["batching"]
        print(f"   microbatching: {batching['requests']} requests -> "
              f"{batching['batches']} engine passes "
              f"(largest batch {batching['max_coalesced']})")

    print("\n4) offline scoring of a rows file (repro predict) ...")
    rows_file = tmp / "rows.txt"
    preds_file = tmp / "preds.txt"
    rows_file.write_text(
        "\n".join("".join(str(b) for b in row) for row in rows) + "\n"
    )
    n = predict_file(store_dir, "ex74", rows_file, preds_file)
    offline = "".join(preds_file.read_text().split())
    print(f"   {n} rows -> {preds_file}")
    assert offline == bits, "offline and HTTP predictions must agree"
    print("   offline == HTTP, bit for bit")


if __name__ == "__main__":
    main()
