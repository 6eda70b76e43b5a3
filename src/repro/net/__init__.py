"""repro.net — the real TCP transport for the API wire codec.

Everything in :mod:`repro.api` was built transport-agnostic: typed
envelopes, a versioned JSON codec, a dispatcher that doesn't care who
calls it.  ``repro.net`` is the layer that finally puts those wire
documents on a socket:

* :mod:`repro.net.frame` — length-prefixed framing (u32 BE prefix +
  UTF-8 JSON payload) with an incremental, split-agnostic decoder and
  a hard frame-size ceiling shared with the codec's
  :data:`~repro.api.codec.MAX_WIRE_BYTES`;
* :mod:`repro.net.server` — the :class:`RwsTcpServer` on one
  :mod:`selectors` loop: hello-based version negotiation, then every
  request decoded, dispatched, encoded and written inline on the
  loop, one socket read at a time, in arrival order — so pipelined
  responses come back in request order and a publish never overlaps a
  read, by construction — with a per-read window and ``RATE_LIMITED``
  pushback, idle timeouts, and a connection cap; plus
  :class:`ServerThread` for synchronous callers;
* :mod:`repro.net.client` — :class:`TcpApiClient` (sync, pooled,
  dispatcher-compatible ``dispatch()``, retry-with-backoff on
  idempotent reads, and ``pipeline()`` bursts for tests and
  benchmarks).

**Decision record — repro.netsim stays.**  When this package landed,
the question was whether :mod:`repro.netsim` (the deterministic
synthetic-web substrate) should be retired in its favour.  It was
kept: the two are different layers.  ``repro.netsim`` fabricates the
*studied object* — a reproducible synthetic web with ``/.well-known``
endpoints for the crawler, validator, and governance simulations to
exercise — while ``repro.net`` carries the *serving traffic* of the
reproduction's own API.  Retiring netsim would have re-entangled
crawl-side determinism with real sockets, exactly what its in-memory
design avoids.  So: ``repro.netsim`` is the synthetic-web test double,
``repro.net`` is the one real transport, and neither imports the
other.
"""

from repro import lazy_exports

_EXPORTS = {
    "repro.net.client": ("IDEMPOTENT_OPS", "NetClientError", "TcpApiClient"),
    "repro.net.frame": ("PREFIX_BYTES", "FrameDecoder", "FrameError",
                        "encode_frame"),
    "repro.net.server": ("DEFAULT_IDLE_TIMEOUT", "DEFAULT_MAX_CONNECTIONS",
                         "DEFAULT_WINDOW", "SERVER_NAME", "RwsTcpServer",
                         "ServerThread", "hello_message"),
}
__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
