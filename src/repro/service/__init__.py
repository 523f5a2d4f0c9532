"""repro.service — the long-lived simulation job server.

Every consumer of the reproduction used to spawn its own engine and
re-contend for the result/trace caches; this subsystem is the serving
layer that amortizes a warm worker pool and deduplicates concurrent
identical work across clients:

* :mod:`~repro.service.protocol` — JSON-lines wire format; request
  normalization reuses the engine's own cell construction and key
  derivation (:func:`~repro.experiments.engine.parallel.plan_cells`);
* :mod:`~repro.service.scheduler` — single-flight coalescing, bounded
  admission with ``overloaded`` backpressure, deadlines and cooperative
  cancellation over one persistent worker pool;
* :mod:`~repro.service.server` — the asyncio TCP daemon (``repro serve``),
  streaming per-cell progress events for long experiments;
* :mod:`~repro.service.client` — blocking Python client
  (``repro submit``, examples, benches);
* :mod:`~repro.service.stats` — health/stats observability surface.

See DESIGN.md §5.4 for the full protocol and semantics.
"""

from .client import ServiceClient, ServiceError, ServiceOverloaded, ServiceTimeout
from .protocol import PROTOCOL_VERSION, ProtocolError
from .scheduler import CellScheduler, DeadlineExceeded, Overloaded
from .server import ReproServer
from .stats import LatencyHistogram, ServiceStats

__all__ = [
    "PROTOCOL_VERSION",
    "CellScheduler",
    "DeadlineExceeded",
    "LatencyHistogram",
    "Overloaded",
    "ProtocolError",
    "ReproServer",
    "ServiceClient",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceStats",
    "ServiceTimeout",
]
