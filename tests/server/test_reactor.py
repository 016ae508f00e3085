"""ConnectionReactor unit tests over real socketpairs."""

import socket
import threading
import time

import pytest

from repro.server.netbase import ClientConnection
from repro.server.pools import PoolOverloadedError
from repro.server.reactor import ConnectionReactor


def _pair():
    """A connected (client socket, server ClientConnection) pair."""
    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    client = socket.create_connection(server.getsockname(), timeout=5)
    accepted, _ = server.accept()
    server.close()
    return client, ClientConnection(accepted, timeout=5)


def _wait_until(predicate, timeout=5.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestDispatch:
    def test_parked_connection_dispatches_when_readable(self):
        ready = []
        event = threading.Event()

        def on_ready(connection):
            ready.append(connection)
            event.set()

        reactor = ConnectionReactor(on_ready).start()
        client, connection = _pair()
        try:
            reactor.park(connection)
            assert _wait_until(lambda: reactor.parked_count == 1)
            assert not event.is_set()  # nothing readable yet
            client.sendall(b"GET / HTTP/1.1\r\n\r\n")
            assert event.wait(timeout=5)
            assert ready == [connection]
            assert reactor.parked_count == 0
            assert reactor.dispatched == 1
        finally:
            reactor.stop()
            client.close()
            connection.close()

    def test_peer_close_dispatches_for_eof_handling(self):
        # EOF is readable too: the worker must get a chance to observe
        # the disconnect and clean up.
        event = threading.Event()
        reactor = ConnectionReactor(lambda c: event.set()).start()
        client, connection = _pair()
        try:
            reactor.park(connection)
            _wait_until(lambda: reactor.parked_count == 1)
            client.close()
            assert event.wait(timeout=5)
        finally:
            reactor.stop()
            connection.close()

    def test_buffered_pipelined_data_dispatches_immediately(self):
        ready = []
        reactor = ConnectionReactor(ready.append).start()
        client, connection = _pair()
        try:
            client.sendall(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n")
            first = connection.read_request()
            assert first.path == "/a"
            assert connection.has_buffered_data()
            reactor.park(connection)
            # Dispatched synchronously on the caller thread — the
            # selector can never fire for userspace-buffered bytes.
            assert ready == [connection]
            assert reactor.parked_count == 0
        finally:
            reactor.stop()
            client.close()
            connection.close()

    def test_closed_connection_is_not_parked(self):
        reactor = ConnectionReactor(lambda c: None).start()
        client, connection = _pair()
        try:
            connection.close()
            reactor.park(connection)
            assert reactor.parked_count == 0
        finally:
            reactor.stop()
            client.close()


class TestIdleTimeout:
    def test_idle_connection_reaped(self):
        reaps = []
        reactor = ConnectionReactor(
            lambda c: None, idle_timeout=0.2,
            on_idle_reap=lambda: reaps.append(1),
        ).start()
        client, connection = _pair()
        try:
            reactor.park(connection)
            assert _wait_until(lambda: reaps == [1], timeout=5)
            assert reactor.parked_count == 0
            # The peer observes the close.
            client.settimeout(5)
            assert client.recv(1) == b""
        finally:
            reactor.stop()
            client.close()

    def test_active_connection_not_reaped(self):
        event = threading.Event()
        reaps = []
        reactor = ConnectionReactor(
            lambda c: event.set(), idle_timeout=5.0,
            on_idle_reap=lambda: reaps.append(1),
        ).start()
        client, connection = _pair()
        try:
            reactor.park(connection)
            _wait_until(lambda: reactor.parked_count == 1)
            client.sendall(b"x")
            assert event.wait(timeout=5)
            assert reaps == []
        finally:
            reactor.stop()
            client.close()
            connection.close()


class TestBackpressure:
    def test_max_connections_cap_sheds(self):
        sheds = []
        reactor = ConnectionReactor(
            lambda c: None, max_connections=2,
            on_shed=lambda: sheds.append(1),
        ).start()
        pairs = [_pair() for _ in range(3)]
        try:
            for _client, connection in pairs:
                reactor.park(connection)
            assert _wait_until(lambda: sheds == [1])
            assert reactor.parked_count == 2
            # The shed connection was closed outright.
            assert pairs[2][1].closed
        finally:
            reactor.stop()
            for client, connection in pairs:
                client.close()
                connection.close()

    def test_overloaded_pool_shed_sends_503(self):
        def overloaded(_connection):
            raise PoolOverloadedError("full")

        sheds = []
        reactor = ConnectionReactor(
            overloaded, on_shed=lambda: sheds.append(1),
        ).start()
        client, connection = _pair()
        try:
            reactor.park(connection)
            _wait_until(lambda: reactor.parked_count == 1)
            client.sendall(b"GET / HTTP/1.1\r\n\r\n")
            client.settimeout(5)
            data = b""
            while True:
                chunk = client.recv(65536)
                if not chunk:
                    break
                data += chunk
            assert data.startswith(b"HTTP/1.1 503")
            assert sheds == [1]
            assert _wait_until(lambda: connection.closed)
        finally:
            reactor.stop()
            client.close()

    def test_shutdown_pool_closes_quietly(self):
        def shut_down(_connection):
            raise RuntimeError("pool 'x' is shut down")

        reactor = ConnectionReactor(shut_down).start()
        client, connection = _pair()
        try:
            reactor.park(connection)
            _wait_until(lambda: reactor.parked_count == 1)
            client.sendall(b"GET / HTTP/1.1\r\n\r\n")
            assert _wait_until(lambda: connection.closed)
            client.settimeout(5)
            try:
                data = client.recv(65536)
            except ConnectionResetError:
                data = b""  # unread request bytes make close() send RST
            assert data == b""  # either way: no response bytes
        finally:
            reactor.stop()
            client.close()


class TestLifecycle:
    def test_stop_closes_parked_connections(self):
        reactor = ConnectionReactor(lambda c: None).start()
        pairs = [_pair() for _ in range(2)]
        try:
            for _client, connection in pairs:
                reactor.park(connection)
            _wait_until(lambda: reactor.parked_count == 2)
            reactor.stop()
            for _client, connection in pairs:
                assert connection.closed
        finally:
            for client, connection in pairs:
                client.close()
                connection.close()

    def test_park_after_stop_closes(self):
        reactor = ConnectionReactor(lambda c: None).start()
        reactor.stop()
        client, connection = _pair()
        try:
            reactor.park(connection)
            assert connection.closed
        finally:
            client.close()

    def test_stop_without_start(self):
        reactor = ConnectionReactor(lambda c: None)
        reactor.stop()  # must not raise

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ConnectionReactor(lambda c: None, idle_timeout=0)
        with pytest.raises(ValueError):
            ConnectionReactor(lambda c: None, max_connections=0)
