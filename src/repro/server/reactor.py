"""Event-driven connection reactor: idle sockets wait in a selector.

The staged design's whole point (paper §3.2) is that scarce threads
never block on work another stage should absorb — yet a blocking
``read_request_line`` parks a header-parsing thread on every silent
keep-alive client for up to the socket timeout.  With a header pool of
two threads, two idle browsers starve header parsing entirely and the
queue dynamics of Figures 7–8 collapse into head-of-line blocking that
has nothing to do with the scheduling policy under test.

The reactor applies the SEDA-style remedy (Welsh & Culler, cited by
the paper; see also Voras & Žagar on multithreading models for
IO-driven servers): sockets with nothing to read wait in an OS
``selectors`` event loop owned by one thread, and worker pools only
ever receive connections that have bytes ready.  Both servers use it:

- On accept, the listener *parks* the connection instead of submitting
  it to a pool; the reactor dispatches it the moment bytes arrive.
- After a keep-alive response, the serving thread parks the connection
  again rather than re-entering the header (or worker) pool to block.
- Pipelined leftovers short-circuit: a connection whose next request
  is already buffered in userspace is dispatched immediately, because
  the kernel-level selector would never fire for it.

The reactor also centralises two resource-management duties that were
previously scattered across blocking reads:

- **Idle timeout** — parked connections idle past ``idle_timeout`` are
  reaped (closed) without ever occupying a thread.
- **Connection cap** — ``max_connections`` bounds the parked set; a
  park beyond the cap is shed (closed) instead of accumulating.

Dispatch failure is backpressure, not an exception leak: if the
downstream pool's bounded queue rejects the connection, the reactor
transmits a 503 before closing, so overloaded clients always see a
response instead of a hang or a reset.
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, Optional

from repro.http.response import HTTPResponse
from repro.server.netbase import DEFAULT_SOCKET_TIMEOUT, ClientConnection
from repro.server.pools import PoolOverloadedError


class _Parked:
    """A registered connection and its idle deadline."""

    __slots__ = ("connection", "deadline")

    def __init__(self, connection: ClientConnection, deadline: float):
        self.connection = connection
        self.deadline = deadline


class ConnectionReactor:
    """One selector thread watching every parked client socket.

    Parameters
    ----------
    on_ready:
        Called with a :class:`ClientConnection` that has readable bytes
        (or buffered pipelined data).  Expected to submit the
        connection to a worker pool; a raised
        :class:`PoolOverloadedError` makes the reactor shed the
        connection with a 503, and a ``RuntimeError`` (pool shut down)
        closes it quietly.
    idle_timeout:
        Seconds a parked connection may sit without readable bytes
        before it is reaped.
    max_connections:
        Cap on concurrently parked connections; ``None`` = unbounded.
    on_idle_reap / on_shed:
        Optional metric callbacks (e.g. ``ServerStats.record_idle_reap``);
        the reactor keeps no count of its own.
    """

    def __init__(self, on_ready: Callable[[ClientConnection], None], *,
                 idle_timeout: float = DEFAULT_SOCKET_TIMEOUT,
                 max_connections: Optional[int] = None,
                 on_idle_reap: Optional[Callable[[], None]] = None,
                 on_shed: Optional[Callable[[], None]] = None,
                 name: str = "reactor"):
        if idle_timeout <= 0:
            raise ValueError(f"idle_timeout must be positive, got {idle_timeout}")
        if max_connections is not None and max_connections < 1:
            raise ValueError(
                f"max_connections must be >= 1 or None, got {max_connections}"
            )
        self._on_ready = on_ready
        self._idle_timeout = idle_timeout
        self._max_connections = max_connections
        self._on_idle_reap = on_idle_reap
        self._on_shed = on_shed
        self._selector = selectors.DefaultSelector()
        self._lock = threading.Lock()
        self._pending: Deque[ClientConnection] = deque()
        self._parked: Dict[int, _Parked] = {}
        # Self-pipe: park() and stop() run on other threads, and the
        # selector must wake to notice new registrations or shutdown.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector.register(self._wake_r, selectors.EVENT_READ)
        self._stopping = threading.Event()
        self._started = False
        self._closed = False
        self.dispatched = 0
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)

    # ------------------------------------------------------------------
    @property
    def parked_count(self) -> int:
        """Connections currently waiting in the reactor."""
        with self._lock:
            return len(self._parked) + len(self._pending)

    # ------------------------------------------------------------------
    def start(self) -> "ConnectionReactor":
        self._started = True
        self._thread.start()
        return self

    def park(self, connection: ClientConnection) -> None:
        """Watch ``connection`` until it has something to read.

        Callable from any thread.  Connections with buffered pipelined
        data dispatch immediately on the calling thread; everything
        else is handed to the reactor thread for registration.
        """
        if connection.closed:
            return
        if self._stopping.is_set():
            connection.close()
            return
        if connection.has_buffered_data():
            self._dispatch(connection)
            return
        with self._lock:
            if (self._max_connections is not None
                    and len(self._parked) + len(self._pending)
                    >= self._max_connections):
                over_cap = True
            else:
                over_cap = False
                self._pending.append(connection)
        if over_cap:
            # No request is in flight on a parked connection, so there
            # is nothing meaningful to respond to — just shed it.
            self._shed(connection, respond=False)
            return
        self._wake()

    def stop(self) -> None:
        """Stop the loop and close every parked connection."""
        self._stopping.set()
        self._wake()
        if self._started:
            self._thread.join(timeout=2.0)
        self._cleanup()

    # ------------------------------------------------------------------
    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\x00")
        except OSError:  # pipe full or closed: a wakeup is already queued
            pass

    def _dispatch(self, connection: ClientConnection) -> None:
        self.dispatched += 1
        try:
            self._on_ready(connection)
        except PoolOverloadedError:
            self._shed(connection, respond=True)
        except RuntimeError:
            # Downstream pool shut down mid-flight.
            connection.close()

    def _shed(self, connection: ClientConnection, respond: bool) -> None:
        if self._on_shed is not None:
            try:
                self._on_shed()
            except Exception:  # metrics must never break shedding
                pass
        if respond:
            connection.send_response(
                HTTPResponse.error(503, "server overloaded"),
                keep_alive=False,
            )
            connection.close_after_error()
        else:
            connection.close()

    # ------------------------------------------------------------------
    # Reactor thread
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while not self._stopping.is_set():
            self._register_pending()
            try:
                events = self._selector.select(self._poll_timeout())
            except OSError:  # selector closed under us during shutdown
                return
            now = time.monotonic()
            for key, _mask in events:
                if key.fileobj is self._wake_r:
                    self._drain_wakeups()
                    continue
                parked = self._unpark(key.data)
                if parked is not None:
                    self._dispatch(parked.connection)
            self._reap_idle(now)

    def _register_pending(self) -> None:
        while True:
            with self._lock:
                if not self._pending:
                    return
                connection = self._pending.popleft()
            deadline = time.monotonic() + self._idle_timeout
            fd = connection.fileno()
            try:
                self._selector.register(connection.raw_socket,
                                        selectors.EVENT_READ, fd)
            except (ValueError, KeyError, OSError):
                # Closed (fd -1) or already registered: drop it.
                connection.close()
                continue
            with self._lock:
                self._parked[fd] = _Parked(connection, deadline)

    def _poll_timeout(self) -> Optional[float]:
        with self._lock:
            if not self._parked:
                return None  # the self-pipe wakes us for new work
            earliest = min(p.deadline for p in self._parked.values())
        return max(0.0, earliest - time.monotonic())

    def _drain_wakeups(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except OSError:
            pass

    def _unpark(self, fd: int) -> Optional[_Parked]:
        with self._lock:
            parked = self._parked.pop(fd, None)
        if parked is None:
            return None
        try:
            self._selector.unregister(parked.connection.raw_socket)
        except (KeyError, ValueError, OSError):
            pass
        return parked

    def _reap_idle(self, now: float) -> None:
        with self._lock:
            expired = [fd for fd, parked in self._parked.items()
                       if parked.deadline <= now]
        for fd in expired:
            parked = self._unpark(fd)
            if parked is None:
                continue
            if self._on_idle_reap is not None:
                try:
                    self._on_idle_reap()
                except Exception:  # metrics must never break reaping
                    pass
            parked.connection.close()

    def _cleanup(self) -> None:
        if self._closed:
            return
        self._closed = True
        with self._lock:
            leftovers = list(self._pending) + [
                p.connection for p in self._parked.values()
            ]
            self._pending.clear()
            self._parked.clear()
        for connection in leftovers:
            connection.close()
        try:
            self._selector.close()
        except OSError:  # pragma: no cover - double close
            pass
        for sock in (self._wake_r, self._wake_w):
            try:
                sock.close()
            except OSError:  # pragma: no cover - double close
                pass
