"""Open-loop load generator for ``serve-hot``, run in a process of its own.

The benchmark process hosts the ``ReproServer``; this process only sends.
Keeping the sender out of the server's process keeps the server's worker
threads from delaying the schedule through the interpreter lock, so each
request leaves on time and its latency, timed from its due time, is the
server's.

Reads one JSON object from stdin::

    {"host": "127.0.0.1", "port": 4242, "connections": {"excel": 0, ...},
     "rungs": [seconds, ...], "arrivals": [[rung, due, tenant, entry], ...]}

and writes one JSON object to stdout: per arrival ``[latency_ms, lag_ms,
frame]`` in arrival order, and per rung the drain time — from the last due
time to the last answer.
"""

from __future__ import annotations

import asyncio
import functools
import json
import sys


def _stamp(done_at: dict, position: int, loop, _future) -> None:
    done_at[position] = loop.time()


async def _rung(loop, clients, connections, arrivals) -> tuple[list, float]:
    """Send one rung's arrivals on schedule, then wait for every answer."""
    done_at: dict[int, float] = {}
    pending = []
    begin = loop.time() + 0.02
    for position, (_, due_offset, tenant, entry) in enumerate(arrivals):
        due = begin + due_offset
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        lag = max(0.0, loop.time() - due)
        client = clients[connections[tenant]]
        future = await client.send("query", tenant=tenant, query=entry)
        if future.done():
            done_at[position] = loop.time()
        else:
            future.add_done_callback(functools.partial(_stamp, done_at, position, loop))
        pending.append((due, lag, future, client))
    samples = []
    for position, (due, lag, future, client) in enumerate(pending):
        response = await future
        while position not in done_at:
            await asyncio.sleep(0)  # let the completion stamp run
        frame = client.frames[response["id"]].decode("utf-8")
        samples.append([(done_at[position] - due) * 1000.0, lag * 1000.0, frame])
    last_due = begin + arrivals[-1][1]
    return samples, (max(done_at.values()) - last_due) * 1000.0


async def drive(plan: dict) -> dict:
    from repro.serving import ServingClient

    loop = asyncio.get_running_loop()
    connections = plan["connections"]
    clients = [
        await ServingClient.connect(plan["host"], plan["port"])
        for _ in range(max(connections.values()) + 1)
    ]
    samples, drains = [], []
    try:
        for index in range(len(plan["rungs"])):
            arrivals = [a for a in plan["arrivals"] if a[0] == index]
            rung_samples, drain_ms = await _rung(loop, clients, connections, arrivals)
            samples.extend(rung_samples)
            drains.append(drain_ms)
    finally:
        for client in clients:
            await client.close()
    return {"samples": samples, "drain_ms": drains}


def main() -> int:
    plan = json.loads(sys.stdin.read())
    print(json.dumps(asyncio.run(drive(plan))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
