"""Counting and timing wrappers around each layer's public entry points.

Used only by the traced run.  :func:`installed` patches the classes
for the duration of a ``with`` block and restores them after; every
wrapper adds one call and its wall time to a shared :class:`Tally`.

========================  ==========================================
tally key                 wrapped entry point
========================  ==========================================
``http.parse``            ``RequestParser.feed`` (count = requests
                          whose parse completed)
``server.send``           ``ClientConnection.send_response``
``db.read``               ``Database.execute_statement`` on SELECT
``db.write``              ``Database.execute_statement`` otherwise
``db.lock_wait``          ``LockManager.acquire``
``templates.render``      ``TemplateEngine.render``
``tpcw.handler_self``     ``Application.invoke`` minus the
                          ``execute_statement`` time nested inside it
========================  ==========================================
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Callable, Dict, Iterator, Tuple

from repro.db.engine import Database
from repro.db.locks import LockManager
from repro.db.sql.ast import Select
from repro.http.parser import ParserState, RequestParser
from repro.server.app import Application
from repro.server.netbase import ClientConnection
from repro.templates.engine import TemplateEngine

_clock = time.perf_counter


class Tally:
    """Thread-safe per-key call counts and summed seconds."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {}
        self._seconds: Dict[str, float] = {}
        #: Per-thread seconds spent in ``execute_statement``, so the
        #: handler wrapper can subtract the DB time nested inside it.
        self.nested = threading.local()

    def add(self, key: str, seconds: float, count: int = 1) -> None:
        with self._lock:
            self._counts[key] = self._counts.get(key, 0) + count
            self._seconds[key] = self._seconds.get(key, 0.0) + seconds

    def reset(self) -> None:
        with self._lock:
            self._counts.clear()
            self._seconds.clear()

    def snapshot(self) -> Dict[str, Tuple[int, float]]:
        """``{key: (count, seconds)}``."""
        with self._lock:
            return {key: (self._counts[key], self._seconds[key])
                    for key in self._counts}


def _timed(tally: Tally, key: str, original: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        started = _clock()
        try:
            return original(*args, **kwargs)
        finally:
            tally.add(key, _clock() - started)
    return wrapper


def _parse(tally: Tally, original: Callable) -> Callable:
    def feed(self, data):
        started = _clock()
        state = original(self, data)
        tally.add("http.parse", _clock() - started,
                  1 if state is ParserState.COMPLETE else 0)
        return state
    return feed


def _statement(tally: Tally, original: Callable) -> Callable:
    nested = tally.nested

    def execute_statement(self, statement, *args, **kwargs):
        started = _clock()
        try:
            return original(self, statement, *args, **kwargs)
        finally:
            elapsed = _clock() - started
            tally.add("db.read" if isinstance(statement, Select)
                      else "db.write", elapsed)
            nested.seconds = getattr(nested, "seconds", 0.0) + elapsed
    return execute_statement


def _handler(tally: Tally, original: Callable) -> Callable:
    nested = tally.nested

    def invoke(self, request):
        db_before = getattr(nested, "seconds", 0.0)
        started = _clock()
        try:
            return original(self, request)
        finally:
            elapsed = _clock() - started
            db_inside = getattr(nested, "seconds", 0.0) - db_before
            tally.add("tpcw.handler_self", elapsed - db_inside)
    return invoke


@contextlib.contextmanager
def installed(tally: Tally) -> Iterator[Tally]:
    """Wrap every layer's entry point for the duration of the block."""
    patches = [
        (RequestParser, "feed", lambda f: _parse(tally, f)),
        (ClientConnection, "send_response",
         lambda f: _timed(tally, "server.send", f)),
        (Database, "execute_statement", lambda f: _statement(tally, f)),
        (LockManager, "acquire", lambda f: _timed(tally, "db.lock_wait", f)),
        (TemplateEngine, "render",
         lambda f: _timed(tally, "templates.render", f)),
        (Application, "invoke", lambda f: _handler(tally, f)),
    ]
    originals = []
    try:
        for cls, name, wrap in patches:
            original = cls.__dict__[name]
            originals.append((cls, name, original))
            setattr(cls, name, wrap(original))
        yield tally
    finally:
        for cls, name, original in reversed(originals):
            setattr(cls, name, original)
