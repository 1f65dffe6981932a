"""Open-loop HTTP load generator: one process, one event loop.

Usage: ``python3 perfbench/generator.py SPEC.json``.  The spec names the
server and, per keep-alive connection, a schedule of ``[due offset,
path, JSON body, keep reply]`` requests.  The generator opens every
connection, prints ``ready``, reads the schedule origin (a
``time.monotonic()`` value, shared by every process on the host) from
standard input, and then sends each request when it falls due, or as
soon as its connection is free when the connection is still busy with
an earlier one.  Latency is timed from the due time, so a stall is
charged to every request queued behind it.

Requests still unanswered ``grace`` seconds after the schedule ends
count as failed.  The last line of standard output is one JSON object
with one record per request: ``[sent, received, status, version,
lag]``, where lag is how late the generator itself sent the request
after its connection was free, plus the replies that were asked for.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time


async def _round_trip(reader, writer, host: str, path: str, body: bytes):
    head = (
        f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\nConnection: keep-alive\r\n\r\n"
    ).encode("latin-1")
    writer.write(head + body)
    await writer.drain()
    status_line = await reader.readuntil(b"\r\n")
    status = int(status_line.split(b" ", 2)[1])
    length = 0
    closing = False
    while True:
        line = (await reader.readuntil(b"\r\n")).strip()
        if not line:
            break
        name, _, value = line.partition(b":")
        name = name.strip().lower()
        if name == b"content-length":
            length = int(value)
        elif name == b"connection" and b"close" in value.lower():
            closing = True
    payload = await reader.readexactly(length) if length else b""
    return status, payload, closing


async def _connection(spec: dict, schedule: list, origin: float, records, kept):
    host, port = spec["host"], spec["port"]
    reader, writer = await asyncio.open_connection(host, port)
    free_at = origin
    try:
        for index, (offset, path, body, keep) in enumerate(schedule):
            due = origin + offset
            now = time.monotonic()
            if now < due:
                await asyncio.sleep(due - now)
            sent = time.monotonic()
            if writer is None:
                reader, writer = await asyncio.open_connection(host, port)
            status, payload, closing = await _round_trip(
                reader, writer, host, path, json.dumps(body).encode()
            )
            received = time.monotonic()
            reply = json.loads(payload) if payload else None
            version = reply.get("version") if isinstance(reply, dict) else None
            records[index] = [
                sent,
                received,
                status,
                version,
                sent - max(due, free_at),
            ]
            if keep:
                kept[str(index)] = reply
            free_at = received
            if closing:
                writer.close()
                writer = None
    finally:
        if writer is not None:
            writer.close()


async def _main(spec: dict) -> dict:
    loop = asyncio.get_running_loop()
    schedules = spec["connections"]
    # Open and immediately close one probe connection so a dead server
    # fails before "ready" rather than inside the timed window.
    _, probe = await asyncio.open_connection(spec["host"], spec["port"])
    probe.close()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    line = await loop.run_in_executor(None, sys.stdin.readline)
    origin = float(line)
    records = [[None] * len(schedule) for schedule in schedules]
    kept = [{} for _ in schedules]
    tasks = [
        asyncio.ensure_future(
            _connection(spec, schedule, origin, records[index], kept[index])
        )
        for index, schedule in enumerate(schedules)
    ]
    deadline = origin + spec["duration"] + spec["grace"]
    done, pending = await asyncio.wait(
        tasks, timeout=max(0.0, deadline - time.monotonic())
    )
    for task in pending:
        task.cancel()
    errors = []
    for task in tasks:
        try:
            await task
        except asyncio.CancelledError:
            pass
        except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
            errors.append(f"{type(exc).__name__}: {exc}")
    return {"records": records, "kept": kept, "errors": errors}


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    result = asyncio.run(_main(spec))
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
