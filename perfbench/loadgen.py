"""Open-loop load generator for the serve workload.

Usage::

    python3 perfbench/loadgen.py --port P --seed S --seconds T \\
        --rate R --models models.json --out results.jsonl

Request ``i`` is due at ``start + i / rate`` whether or not earlier
requests have been answered; two keep-alive connections take due
requests in order.  Latency is timed from the due time, so a stall
also charges the requests queued behind it.  The generator's own
lateness (enqueue time minus due time) is recorded separately: when
it is high, the generator, not the server, fell behind.

The first output line counts requests sent, answered 200 and failed;
then one line per request: ``[i, status, late_ms, latency_ms, body]``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import time
from pathlib import Path

from serving import requests

CONNECTIONS = 2


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, str]:
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    body = await reader.readexactly(length)
    return status, body.decode("utf-8")


async def generate(port: int, seed: int, seconds: float, rate: float,
                   models: list[tuple[str, int]]) -> list[list]:
    n = int(rate * seconds)
    stream = [
        (name, json.dumps({"rows": rows.tolist()}).encode())
        for name, rows in requests(seed, models, n)
    ]
    results: list[list] = [[i, 0, 0.0, 0.0, "not sent"] for i in range(n)]
    queue: asyncio.Queue = asyncio.Queue()
    conns = [await asyncio.open_connection("127.0.0.1", port)
             for _ in range(CONNECTIONS)]
    start = time.perf_counter() + 0.05

    async def schedule() -> None:
        for i in range(n):
            due = start + i / rate
            # Spin, never sleep: waking a halted virtual CPU costs
            # milliseconds that would be charged to the server.
            while time.perf_counter() < due:
                await asyncio.sleep(0)
            queue.put_nowait((i, due, time.perf_counter()))
        for _ in conns:
            queue.put_nowait(None)

    async def worker(reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        while (item := await queue.get()) is not None:
            i, due, sent = item
            results[i] = [i, 0, (sent - due) * 1e3, 0.0, "no answer"]
            name, body = stream[i]
            head = (f"POST /predict/{name} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n").encode()
            try:
                writer.write(head + body)
                await writer.drain()
                status, text = await _read_response(reader)
            except (ConnectionError, asyncio.IncompleteReadError,
                    ValueError, IndexError) as exc:
                status, text = 0, f"{type(exc).__name__}: {exc}"
                writer.close()
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
            done = time.perf_counter()
            results[i] = [i, status, (sent - due) * 1e3,
                          (done - due) * 1e3, text]
        writer.close()
        await writer.wait_closed()

    tasks = [asyncio.create_task(schedule())]
    tasks += [asyncio.create_task(worker(r, w)) for r, w in conns]
    _, pending = await asyncio.wait(tasks, timeout=seconds + 60)
    for task in pending:
        task.cancel()
    await asyncio.gather(*pending, return_exceptions=True)
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--rate", type=float, required=True)
    parser.add_argument("--models", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    models = [(str(n), int(w)) for n, w in json.loads(args.models.read_text())]
    # A collection pause here would be charged to the server's latency;
    # the generator's memory is bounded by the run, so none is needed.
    gc.disable()
    results = asyncio.run(generate(args.port, args.seed, args.seconds,
                                   args.rate, models))
    sent = sum(r[4] != "not sent" for r in results)
    answered = sum(r[1] == 200 for r in results)
    with args.out.open("w") as out:
        out.write(json.dumps({"sent": sent, "answered_200": answered,
                              "failed": len(results) - answered}) + "\n")
        for row in results:
            out.write(json.dumps(row) + "\n")


if __name__ == "__main__":
    main()
