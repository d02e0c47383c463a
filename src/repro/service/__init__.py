"""Build-once / serve-many query service over composable core-set indexes.

The ingest path (:func:`build_coreset_index`) runs the heavy MapReduce
core-set construction once per ladder rung; the query path
(:class:`DiversityService`) answers ``(objective, k, eps)`` requests from
that cached read-only state — routed to the cheapest covering rung, solved
on a shared blocked distance matrix, memoized in a lock-striped LRU.
Queries may run concurrently (:meth:`DiversityService.query_concurrent`),
rung matrices live under a memory budget (``REPRO_MATRIX_BUDGET_MB``),
and dataset growth is absorbed incrementally
(:meth:`DiversityService.refresh` / :meth:`CoresetIndex.extend`).  See
``docs/service.md`` for the operations guide and ``docs/architecture.md``
for the layer diagram.
"""

from repro.service.cache import CacheStats, LRUCache, StripedLRUCache
from repro.service.index import (
    FAMILIES,
    CoresetIndex,
    LadderRung,
    build_coreset_index,
    family_of,
)
from repro.service.matrices import (
    MatrixCache,
    MatrixStats,
    matrix_budget_from_env,
)
from repro.service.persist import INDEX_FORMAT_VERSION, load_index, save_index
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    decode_request,
    decode_response,
    encode_request,
)
from repro.service.qos import (
    QosRejection,
    TenantQuota,
    TokenBucket,
    WeightedDeficitRoundRobin,
)
from repro.service.registry import (
    MANIFEST_FORMAT_VERSION,
    MANIFEST_NAME,
    IndexRegistry,
    UnknownDatasetError,
)
from repro.service.server import DiversityServer, ServerConfig, ServerStats
from repro.service.service import (
    EXECUTOR_NAMES,
    SCHEMA_VERSION,
    DiversityService,
    Query,
    QueryResult,
)
from repro.service.workload import latency_summary, make_workload

__all__ = [
    "CacheStats",
    "LRUCache",
    "StripedLRUCache",
    "EXECUTOR_NAMES",
    "FAMILIES",
    "CoresetIndex",
    "LadderRung",
    "build_coreset_index",
    "family_of",
    "MatrixCache",
    "MatrixStats",
    "matrix_budget_from_env",
    "INDEX_FORMAT_VERSION",
    "load_index",
    "save_index",
    "QosRejection",
    "TenantQuota",
    "TokenBucket",
    "WeightedDeficitRoundRobin",
    "MANIFEST_FORMAT_VERSION",
    "MANIFEST_NAME",
    "IndexRegistry",
    "UnknownDatasetError",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "Request",
    "decode_request",
    "decode_response",
    "encode_request",
    "DiversityServer",
    "ServerConfig",
    "ServerStats",
    "SCHEMA_VERSION",
    "DiversityService",
    "Query",
    "QueryResult",
    "latency_summary",
    "make_workload",
]
