"""Transport adapter: stdlib sockets over the app.

The service core is transport-free (:class:`~repro.service.app.ServiceApp`
is a function from ``(method, path, body)`` to ``(status, payload)``),
so this module only has to move bytes: a ``ThreadingHTTPServer``
handler for ``repro.cli serve`` — zero dependencies beyond the standard
library, per the project rule that tier-1 functionality never grows
hard third-party requirements.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Optional, Tuple

from repro.service.app import ServiceApp
from repro.service.schemas import error_body

__all__ = ["make_server", "serve"]

_MAX_BODY_BYTES = 1 << 20  # a request envelope is small; refuse abuse early


def _dispatch_raw(app: ServiceApp, method: str, path: str, raw: bytes) -> Tuple[int, bytes]:
    """Decode → handle → encode; byte-level mirror of ``handle_json``."""
    if raw:
        try:
            body: Any = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            status, payload = 400, error_body("A005", f"request body is not JSON: {exc}")
            return status, json.dumps(payload).encode("utf-8")
    else:
        body = None
    status, payload = app.handle_json(method, path, body)
    return status, json.dumps(payload).encode("utf-8")


def make_server(app: ServiceApp, host: str = "127.0.0.1", port: int = 8626) -> ThreadingHTTPServer:
    """A bound (not yet serving) threaded HTTP server over ``app``.

    The caller owns the lifecycle: ``serve_forever()`` to run,
    ``shutdown()`` + ``server_close()`` to stop, then ``app.close()``
    to drain the executor.  Returned unstarted so tests can bind port 0
    and read the real port back before serving.
    """

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # The service speaks JSON only; default request logging to the
        # server's stderr stream is noise under load, so keep it quiet.

        def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
            pass

        def _respond(self) -> None:
            length = int(self.headers.get("Content-Length") or 0)
            if length > _MAX_BODY_BYTES:
                status, body = 400, json.dumps(
                    error_body("A005", f"request body exceeds {_MAX_BODY_BYTES} bytes")
                ).encode("utf-8")
            else:
                raw = self.rfile.read(length) if length else b""
                status, body = _dispatch_raw(app, self.command, self.path, raw)
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        do_GET = _respond
        do_POST = _respond
        do_DELETE = _respond

    return ThreadingHTTPServer((host, port), Handler)


def serve(
    app: ServiceApp,
    host: str = "127.0.0.1",
    port: int = 8626,
    ready: Optional[Callable[[ThreadingHTTPServer], None]] = None,
) -> None:
    """Run the blocking serve loop (the ``repro.cli serve`` body).

    ``ready`` is called with the bound server before serving starts —
    the hook tests and the CLI use to report the listening address.
    Ctrl-C shuts down gracefully: stop accepting, drain, exit.
    """
    server = make_server(app, host=host, port=port)
    if ready is not None:
        ready(server)
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        app.close(drain=True)
