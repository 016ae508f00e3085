"""Closed-loop TPC-W load generator: one thread per session.

Each session loops with zero think time.  One interaction opens a
connection, GETs the page, then GETs up to four of its embedded
images on the same keep-alive connection (conditional GETs once an
ETag is known), and closes.  Its response time runs from the connect
to the last byte of the last image.  Every response is checked (see
:mod:`checks`); a failed check, a connection error or a timeout fails
the interaction.

Sessions also keep the ledger of writes their verified responses
imply: orders placed, order lines, carts created and cart lines left
behind.  The benchmark compares it with the database's row counts.

Run as a process by ``run.py``::

    python3 perfbench/loadgen.py --port P --workload ordering \\
        --seed 1 --seconds 15 --sessions 2

It prints ``READY``, waits for ``GO`` on standard input, runs for
``--seconds`` and prints one JSON summary line.
"""

from __future__ import annotations

import argparse
import json
import re
import socket
import sys
import threading
import time
import traceback
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlencode

from checks import (
    ResponseError,
    check_image,
    check_page,
    expect_end_of_stream,
    read_response,
)
from repro.tpcw.mix import BrowsingMix
from workloads import WORKLOADS, new_session

MAX_IMAGES = 4
TIMEOUT = 30.0

_IMG_RE = re.compile(r'<img src="(/img/[^"]+)"')
_SC_ID_RE = re.compile(r'name="sc_id" value="(\d+)"')
_CART_ROW = 'href="/product_detail?i_id='
_ORDER_LINE_RE = re.compile(r"<td>x\d+</td>")


class Session:
    """One emulated browser: its mix, image cache and write ledger."""

    def __init__(self, host: str, port: int, mix: BrowsingMix):
        self.address = (host, port)
        self.mix = mix
        self._host_header = f"Host: {host}:{port}"
        self.etags: Dict[str, str] = {}
        #: (page, started, ended, ok) per interaction, perf_counter times.
        self.records: List[Tuple[str, float, float, bool]] = []
        self.failures: List[str] = []
        self.requests = 0
        self.request_seconds = 0.0
        # Write ledger, from verified responses only.
        self.buy_confirms = 0
        self.order_lines = 0
        self.carts_created = 0
        self.cart_lines = 0
        self.write_errors: List[str] = []

    # ------------------------------------------------------------------
    def run_until(self, deadline: float) -> None:
        try:
            while time.perf_counter() < deadline:
                self.step()
        except Exception:
            self.failures.append(traceback.format_exc(limit=3))

    def step(self, page: Optional[str] = None) -> bool:
        """One interaction (the mix's next page unless ``page`` is
        given); returns whether it passed every check."""
        if page is None:
            page, params = self.mix.next_interaction()
        else:
            params = self.mix.params_for(page)
        started = time.perf_counter()
        try:
            reason, ended = self._interact(page, params)
        except (OSError, ResponseError) as exc:
            reason, ended = f"{page}: {type(exc).__name__}: {exc}", None
        if ended is None:
            ended = time.perf_counter()
        ok = reason is None
        self.records.append((page, started, ended, ok))
        if not ok:
            self.failures.append(reason)
        return ok

    # ------------------------------------------------------------------
    def _get(self, sock: socket.socket, stream, target: str,
             etag: Optional[str], close: bool):
        lines = [f"GET {target} HTTP/1.1", self._host_header]
        if etag is not None:
            lines.append(f"If-None-Match: {etag}")
        if close:
            lines.append("Connection: close")
        payload = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        started = time.perf_counter()
        sock.sendall(payload)
        response = read_response(stream)
        self.request_seconds += time.perf_counter() - started
        self.requests += 1
        return response

    def _interact(self, page: str, params: Dict[str, str]):
        target = page + ("?" + urlencode(params) if params else "")
        with socket.create_connection(self.address, timeout=TIMEOUT) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with sock.makefile("rb") as stream:
                response = self._get(sock, stream, target, None, close=False)
                reason = check_page(page, response)
                if reason is not None:
                    return reason, None
                text = response.text
                images = _IMG_RE.findall(text)[:MAX_IMAGES]
                for position, url in enumerate(images):
                    etag = self.etags.get(url)
                    image = self._get(sock, stream, url, etag,
                                      close=position == len(images) - 1)
                    reason = check_image(url, image, etag)
                    if reason is not None:
                        return reason, None
                    if image.status == 200 and "etag" in image.headers:
                        self.etags[url] = image.headers["etag"]
                ended = time.perf_counter()
                if images:
                    expect_end_of_stream(stream)
        self._note_writes(page, params, text)
        return None, ended

    def _note_writes(self, page: str, params: Dict[str, str],
                     text: str) -> None:
        if page == "/shopping_cart":
            match = _SC_ID_RE.search(text)
            if match is None:
                self.write_errors.append("shopping_cart page without sc_id")
                return
            cart = int(match.group(1))
            if cart != int(params["sc_id"]):
                self.carts_created += 1
            self.mix.note_cart(cart)
            self.cart_lines = text.count(_CART_ROW)
        elif page == "/buy_confirm":
            lines = len(_ORDER_LINE_RE.findall(text))
            if lines != self.cart_lines:
                self.write_errors.append(
                    f"buy_confirm ordered {lines} lines, the cart held "
                    f"{self.cart_lines}"
                )
            self.buy_confirms += 1
            self.order_lines += lines
            if int(params["sc_id"]):
                self.cart_lines = 0

    def ledger(self) -> Dict[str, int]:
        """Row-count changes this session's verified responses imply."""
        return {
            "orders": self.buy_confirms,
            "cc_xacts": self.buy_confirms,
            "order_line": self.order_lines,
            "shopping_cart": self.carts_created,
            "shopping_cart_line": self.cart_lines,
        }


def run(host: str, port: int, workload: str, seed: int, seconds: float,
        count: int) -> Dict:
    """Drive ``count`` sessions for ``seconds``; the JSON summary."""
    sessions = [Session(host, port, new_session(workload, seed, index))
                for index in range(count)]
    cpu_started = time.process_time()
    started = time.perf_counter()
    threads = [threading.Thread(target=session.run_until,
                                args=(started + seconds,),
                                name=f"session-{index}")
               for index, session in enumerate(sessions)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    cpu = time.process_time() - cpu_started
    records = [
        [page, begin - started, end - begin, ok]
        for session in sessions
        for page, begin, end, ok in session.records
    ]
    records.sort(key=lambda record: record[1])
    ledger: Dict[str, int] = {}
    for session in sessions:
        for table, rows in session.ledger().items():
            ledger[table] = ledger.get(table, 0) + rows
    return {
        "records": records,
        "wall_seconds": wall,
        "cpu_seconds": cpu,
        "requests": sum(session.requests for session in sessions),
        "request_seconds": sum(s.request_seconds for s in sessions),
        "failures": [f for session in sessions for f in session.failures],
        "ledger": ledger,
        "write_errors": [e for s in sessions for e in s.write_errors],
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--sessions", type=int, required=True)
    args = parser.parse_args(argv)
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "GO":
        return 2
    summary = run(args.host, args.port, args.workload, args.seed,
                  args.seconds, args.sessions)
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
