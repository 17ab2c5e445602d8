"""Stdlib HTTP client for the serve daemon.

Backs ``repro query`` and the load generator.  One
:class:`ServeClient` is cheap and single-use-friendly: every call
opens its own connection (the daemon is connection-per-request), so
one client object can be shared across sequential calls but threads
should each build their own.

``http.client`` decodes chunked transfer-encoding transparently, so
:meth:`ServeClient.stream` is a plain ``readline`` loop over the
daemon's NDJSON chunks.
"""

from __future__ import annotations

import http.client
import json
from typing import Dict, Iterator, Optional

from repro.serve.protocol import PROTOCOL_VERSION

DEFAULT_TIMEOUT_S = 600.0


class ServeError(RuntimeError):
    """A non-2xx daemon response."""

    def __init__(
        self,
        status: int,
        message: str,
        retry_after: Optional[int] = None,
        payload: Optional[Dict] = None,
    ) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.retry_after = retry_after
        self.payload = payload or {}


class ServeClient:
    """JSON-over-HTTP client for one daemon address."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        timeout: float = DEFAULT_TIMEOUT_S,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )

    @staticmethod
    def _raise_for_status(status: int, headers, body: bytes) -> None:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            payload = {}
        retry_after_raw = headers.get("Retry-After")
        retry_after = int(retry_after_raw) if retry_after_raw else None
        raise ServeError(
            status,
            str(payload.get("error", body[:200].decode("utf-8", "replace"))),
            retry_after=retry_after,
            payload=payload,
        )

    def _request_body(
        self,
        workload: str,
        tenant: str,
        seed: int,
        scale: str,
        stream: bool,
        params: Optional[Dict],
    ) -> bytes:
        body: Dict[str, object] = {
            "workload": workload,
            "tenant": tenant,
            "seed": seed,
            "scale": scale,
        }
        if stream:
            body["stream"] = True
        if params:
            body.update(params)
        return json.dumps(body, sort_keys=True).encode("utf-8")

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def submit(
        self,
        workload: str,
        tenant: str = "anonymous",
        seed: int = 0,
        scale: str = "small",
        params: Optional[Dict] = None,
    ) -> Dict:
        """One blocking request; returns the parsed response payload."""
        body = self._request_body(workload, tenant, seed, scale, False, params)
        conn = self._connection()
        try:
            conn.request(
                "POST",
                "/v1/submit",
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            data = response.read()
            if response.status != 200:
                self._raise_for_status(response.status, response.headers, data)
            return json.loads(data.decode("utf-8"))
        finally:
            conn.close()

    def stream(
        self,
        workload: str,
        tenant: str = "anonymous",
        seed: int = 0,
        scale: str = "small",
        params: Optional[Dict] = None,
    ) -> Iterator[Dict]:
        """Yield NDJSON documents: progress events, then the result.

        The final yielded document has ``kind == "result"``; a non-200
        admission response raises :class:`ServeError` before the first
        yield.
        """
        body = self._request_body(workload, tenant, seed, scale, True, params)
        conn = self._connection()
        try:
            conn.request(
                "POST",
                "/v1/submit",
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            if response.status != 200:
                self._raise_for_status(
                    response.status, response.headers, response.read()
                )
            while True:
                line = response.readline()
                if not line:
                    break
                line = line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))
        finally:
            conn.close()

    def healthz(self) -> Dict:
        conn = self._connection()
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            data = response.read()
            if response.status != 200:
                self._raise_for_status(response.status, response.headers, data)
            return json.loads(data.decode("utf-8"))
        finally:
            conn.close()

    def metrics(self) -> Dict[str, str]:
        """The Prometheus exposition text plus its content type."""
        conn = self._connection()
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            data = response.read()
            if response.status != 200:
                self._raise_for_status(response.status, response.headers, data)
            return {
                "content_type": response.headers.get("Content-Type", ""),
                "text": data.decode("utf-8"),
            }
        finally:
            conn.close()

    def expect_protocol(self, payload: Dict) -> None:
        """Assert the response speaks this client's protocol version."""
        version = payload.get("protocol")
        if version != PROTOCOL_VERSION:
            raise ServeError(
                200, f"protocol mismatch: daemon={version}, client={PROTOCOL_VERSION}"
            )
