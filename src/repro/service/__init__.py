"""Simulation-as-a-service: the async scenario server stack.

* :mod:`repro.service.server` — asyncio NDJSON server over a warm
  :class:`~repro.experiments.parallel.ProcessPoolBackend`
  (:class:`~repro.service.server.ScenarioServer`).
* :mod:`repro.service.client` — blocking client
  (:class:`~repro.service.client.ServiceClient`).
* :mod:`repro.service.cache` — the fingerprint-keyed result cache,
  an LRU memory tier over an optional disk tier
  (:class:`~repro.service.cache.ResultCache`), shared with the
  experiment backends.
* :mod:`repro.service.protocol` — the wire protocol and validation.

See DESIGN.md §12 for the protocol schema, the cache-identity
argument and the backpressure state machine.
"""

from repro.service.cache import (
    ResultCache,
    canonical_result_json,
    result_from_payload,
    result_to_payload,
)
from repro.service.client import ServiceClient, ServiceError, SweepResponse
from repro.service.protocol import ProtocolError, ScenarioRequest
from repro.service.server import ScenarioServer

__all__ = [
    "ProtocolError",
    "ResultCache",
    "ScenarioRequest",
    "ScenarioServer",
    "ServiceClient",
    "ServiceError",
    "SweepResponse",
    "canonical_result_json",
    "result_from_payload",
    "result_to_payload",
]
