"""The TCP serving transport: one asyncio event loop, a coroutine per connection.

:class:`AsyncTcpServerTransport` hosts a :class:`TuningServer` (or any
object with the same ``handle``/``commit_wal`` surface, such as the fleet
coordinator) on a TCP port.  It speaks the JSON-lines wire protocol of
:mod:`repro.harmony.protocol` (batch frames, ``seq`` echo, frame cap) and
sniffs binary frames per frame on the same port, answering every recv
chunk through the staged pipeline of :mod:`repro.harmony.transport`:

* **no per-connection thread** — each connection is a coroutine on one
  event loop, so 32 clients cost 32 small tasks, not 32 OS threads
  contending for the GIL between syscalls;
* **bounded backpressure** — the stream reader's buffer is capped at the
  protocol frame limit, and every response write awaits ``drain()``, so a
  slow or malicious peer can neither balloon input memory nor let the
  output buffer grow without bound;
* **admission at arrival** — with an admission controller attached,
  each chunk's frames are priced and admitted (or shed with ``busy``)
  when the chunk arrives, and the connection then yields to the loop
  once before answering, so every chunk that arrived in the same loop
  iteration is charged against the budget before any of them is served
  and a burst past the budget sheds at once instead of queueing;
* **graceful drain** — :meth:`stop` closes the listener, gives live
  connections ``drain_timeout`` seconds to finish in-flight requests and
  disconnect, and only then cancels the stragglers.

Handlers run on the loop thread, with admission on or off: the server's
handlers hold the GIL, so a worker pool would add two thread hand-offs per
chunk and no capacity.  The trade-off is that a slow handler (or a WAL
fsync under ``sync='batch'``) stalls every connection for its duration;
the admission budget still bounds how much work is waiting behind it.

The event loop runs on a dedicated daemon thread so the transport exposes
a synchronous ``start()``/``stop()``/context-manager surface, and so one
process can host it next to ordinary blocking code (the CLI, tests,
benchmarks).
"""

from __future__ import annotations

import asyncio
import threading

from repro.harmony import binproto, protocol
from repro.harmony.server import TuningServer
from repro.harmony.transport import (
    _set_nodelay,
    finish_admission,
    plan_admission,
    prepare_items,
    respond_frames,
    respond_prepared,
)

__all__ = ["AsyncTcpServerTransport"]


class AsyncTcpServerTransport:
    """Hosts a :class:`TuningServer` on an asyncio TCP server.

    Pass ``port=0`` to bind a free port (available as :attr:`port` after
    :meth:`start`).  ``max_line_bytes`` caps one wire frame;
    ``drain_timeout`` bounds how long :meth:`stop` waits for live
    connections to finish before cancelling them; ``wire="binary"``
    (default) sniffs JSON lines and binary frames per frame on one port,
    ``wire="json"`` answers binary frames with an error.
    """

    def __init__(
        self,
        server: TuningServer,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_line_bytes: int = protocol.MAX_LINE_BYTES,
        drain_timeout: float = 2.0,
        wire: str = "binary",
    ) -> None:
        if wire not in ("binary", "json"):
            raise ValueError(f"wire must be 'binary' or 'json', got {wire!r}")
        self.server = server
        self.host = host
        self._requested_port = port
        self.port: int | None = None
        self.max_line_bytes = max_line_bytes
        self.drain_timeout = drain_timeout
        self.wire = wire
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._aserver: asyncio.AbstractServer | None = None
        self._conn_tasks: set[asyncio.Task] = set()

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> None:
        """Bind the socket and start serving on a background event loop."""
        if self._loop is not None:
            raise RuntimeError("transport already started")
        loop = asyncio.new_event_loop()
        self._loop = loop
        started = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(loop)
            loop.call_soon(started.set)
            loop.run_forever()

        self._thread = threading.Thread(target=run, daemon=True)
        self._thread.start()
        started.wait(timeout=5.0)
        future = asyncio.run_coroutine_threadsafe(self._open(), loop)
        try:
            future.result(timeout=10.0)
        except Exception:
            self._teardown_loop()
            raise

    async def _open(self) -> None:
        self._aserver = await asyncio.start_server(
            self._handle_conn,
            self.host,
            self._requested_port,
            limit=self.max_line_bytes,
        )
        self.port = self._aserver.sockets[0].getsockname()[1]

    def stop(self) -> None:
        """Stop accepting, drain live connections, then shut the loop down."""
        loop = self._loop
        if loop is None:
            return
        future = asyncio.run_coroutine_threadsafe(self._shutdown(), loop)
        try:
            future.result(timeout=self.drain_timeout + 10.0)
        finally:
            self._teardown_loop()
            # Durability epilogue: appends whose connection died before its
            # group commit must hit disk before stop() returns.
            flush = getattr(self.server, "flush_wal", None)
            if flush is not None:
                flush()

    def _teardown_loop(self) -> None:
        loop, self._loop = self._loop, None
        thread, self._thread = self._thread, None
        if loop is not None:
            loop.call_soon_threadsafe(loop.stop)
        if thread is not None:
            thread.join(timeout=5.0)
        if loop is not None and not loop.is_running():
            loop.close()
        self._aserver = None

    async def _shutdown(self) -> None:
        if self._aserver is not None:
            self._aserver.close()
            await self._aserver.wait_closed()
        tasks = {t for t in self._conn_tasks if not t.done()}
        if tasks:
            # Grace period: clients finishing their in-flight request and
            # closing exit their coroutine on their own.
            _done, pending = await asyncio.wait(tasks, timeout=self.drain_timeout)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        self._conn_tasks.clear()

    def __enter__(self) -> "AsyncTcpServerTransport":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- the per-connection coroutine ----------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        sock = writer.get_extra_info("socket")
        if sock is not None:
            _set_nodelay(sock)
        splitter = binproto.FrameSplitter(self.max_line_bytes)
        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    break
                items = splitter.feed(chunk)
                if not items:
                    continue
                if getattr(self.server, "admission", None) is None:
                    payload, closing = respond_frames(
                        self.server, items, self.wire, self.max_line_bytes
                    )
                else:
                    # Admission control: price and admit (or shed) at
                    # *arrival*, then yield once, so every chunk that
                    # arrived in this loop iteration is charged before any
                    # is answered.  The granted units stay charged until
                    # the responses are built: waiting for the loop,
                    # dispatch, modeled service time, WAL commit.  They
                    # are returned before the write, so a client holding
                    # its reply never sees its own request still pending.
                    prepared = prepare_items(items, self.max_line_bytes)
                    flags, grants = plan_admission(self.server, prepared)
                    try:
                        await asyncio.sleep(0)
                        payload, closing = respond_prepared(
                            self.server, prepared, flags, self.wire,
                            self.max_line_bytes,
                        )
                    finally:
                        finish_admission(self.server, grants)
                # One write + drain per recv chunk: a pipelined burst of
                # frames costs one syscall's worth of response flushing.
                if payload:
                    writer.write(payload)
                    await writer.drain()  # backpressure: never outrun the peer
                if closing:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - racy teardown
                pass
