"""Blocking Python client for the simulation job server.

A :class:`ServiceClient` speaks the JSON-lines protocol over one TCP
connection.  It is deliberately synchronous (plain sockets, no asyncio):
examples, tests, the ``repro submit`` CLI verb and throughput benches all
drive it from ordinary threads, and N client instances across N threads is
exactly the concurrency shape the server's coalescing is built for.

Structured server errors surface as typed exceptions:

* :class:`ServiceOverloaded` — admission rejected (backpressure); back off
  and retry;
* :class:`ServiceTimeout` — the request's deadline elapsed server-side;
* :class:`ServiceError` — everything else, with ``.code`` preserved.

Streaming progress events are delivered to an optional ``on_event``
callback while the terminal frame is awaited.
"""

from __future__ import annotations

import socket
from typing import Any, Callable

from .protocol import (
    E_OVERLOADED,
    E_TIMEOUT,
    MAX_FRAME_BYTES,
    decode_frame,
    encode_frame,
)

__all__ = [
    "ServiceClient",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceTimeout",
]


class ServiceError(RuntimeError):
    """A structured error frame from the server."""

    def __init__(self, code: str, message: str):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message

    @staticmethod
    def from_frame(frame: dict[str, Any]) -> "ServiceError":
        err = frame.get("error") or {}
        code = err.get("code", "internal")
        message = err.get("message", "unknown error")
        if code == E_OVERLOADED:
            return ServiceOverloaded(code, message)
        if code == E_TIMEOUT:
            return ServiceTimeout(code, message)
        return ServiceError(code, message)


class ServiceOverloaded(ServiceError):
    """The server's admission queue is full; retry after a backoff."""


class ServiceTimeout(ServiceError):
    """The request exceeded its deadline server-side."""


class ServiceClient:
    """One blocking connection to a :class:`~repro.service.server.ReproServer`."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 7411, timeout: float | None = 120.0
    ):
        self.host = host
        self.port = port
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self._next_id = 0

    # -- plumbing -------------------------------------------------------------------

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def request(
        self,
        payload: dict[str, Any],
        on_event: Callable[[dict[str, Any]], None] | None = None,
    ) -> dict[str, Any]:
        """Send one request and block until its terminal frame.

        Event frames for this request id are handed to ``on_event`` as they
        arrive; the terminal result payload is returned, and error frames
        raise the matching :class:`ServiceError` subclass.
        """
        self._next_id += 1
        rid = f"r{self._next_id}"
        payload = {**payload, "id": rid}
        self._file.write(encode_frame(payload))
        self._file.flush()
        while True:
            line = self._file.readline(MAX_FRAME_BYTES + 2)
            if not line:
                raise ConnectionError("server closed the connection mid-request")
            frame = decode_frame(line)
            if frame.get("id") != rid:
                # A frame for a request this (sequential) client is not
                # waiting on — e.g. a late event from a prior request.
                continue
            if frame.get("type") == "event":
                if on_event is not None:
                    on_event(frame)
                continue
            if frame.get("ok"):
                return frame
            raise ServiceError.from_frame(frame)

    # -- verbs ----------------------------------------------------------------------

    def health(self) -> dict[str, Any]:
        return self.request({"type": "health"})["health"]

    def stats(self) -> dict[str, Any]:
        return self.request({"type": "stats"})["stats"]

    def shutdown(self) -> bool:
        return bool(self.request({"type": "shutdown"}).get("shutting_down"))

    def submit_cell(
        self,
        kind: str,
        workload: str,
        label: str,
        *,
        config: dict[str, Any] | None = None,
        deadline: float | None = None,
        arrays: bool = False,
    ) -> dict[str, Any]:
        """Submit one engine cell; returns ``{"result": ..., "meta": ...}``."""
        payload: dict[str, Any] = {
            "type": "cell",
            "kind": kind,
            "workload": workload,
            "label": label,
            "arrays": arrays,
        }
        if config:
            payload["config"] = config
        if deadline is not None:
            payload["deadline"] = deadline
        return self.request(payload)

    def sweep(
        self,
        workload: str,
        schemes: list[str],
        *,
        config: dict[str, Any] | None = None,
        deadline: float | None = None,
        arrays: bool = False,
        on_event: Callable[[dict[str, Any]], None] | None = None,
    ) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "type": "sweep",
            "workload": workload,
            "schemes": list(schemes),
            "arrays": arrays,
        }
        if config:
            payload["config"] = config
        if deadline is not None:
            payload["deadline"] = deadline
        return self.request(payload, on_event=on_event)

    def run_experiment(
        self,
        experiment_id: str,
        *,
        config: dict[str, Any] | None = None,
        deadline: float | None = None,
        on_event: Callable[[dict[str, Any]], None] | None = None,
    ) -> dict[str, Any]:
        """Run a registered figure; returns ``{"experiment": ..., "meta": ...}``."""
        payload: dict[str, Any] = {"type": "experiment", "experiment": experiment_id}
        if config:
            payload["config"] = config
        if deadline is not None:
            payload["deadline"] = deadline
        return self.request(payload, on_event=on_event)
