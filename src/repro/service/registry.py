"""Multi-tenant index registry: many datasets, one budget, tiered tenants.

The paper's composability theorem (Definition 2) lets core-sets built
independently be merged at query time; applied one level up, it means
many *datasets* can be sharded across builders and served from one
process.  :class:`IndexRegistry` is that layer above
:class:`~repro.service.service.DiversityService`:

* **Named tenants** — each ``dataset_id`` owns a persisted
  :class:`~repro.service.index.CoresetIndex` plus (while resident) a
  :class:`~repro.service.service.DiversityService` serving it.
  :meth:`IndexRegistry.register` / :meth:`~IndexRegistry.detach` manage
  the set; :meth:`~IndexRegistry.attach` pins a tenant's service for a
  scoped block of queries.
* **One shared matrix cache** — every tenant's service is wired to a
  single registry-scope :class:`~repro.service.matrices.MatrixCache`, so
  all tenants' rung matrices compete under one global
  ``REPRO_MATRIX_BUDGET_MB``.
  Cache keys open with ``(dataset_id, epoch, ...)`` — two tenants with
  identically-shaped rungs can never alias.
* **Hot/cold tiering** — an LRU over tenants caps how many are resident
  at once (*max_resident*).  A cold tenant's rung matrices and core-set
  arrays are dropped down to the ``.npz``
  persistence layer (:mod:`repro.service.persist`) and faulted back on
  demand at the next query; persistence round-trips are exact, so
  post-fault answers are bit-identical to an always-hot replica.
  Faults, evictions and residency are counted per tenant in
  :meth:`IndexRegistry.stats`.

A registry directory is self-describing: :meth:`IndexRegistry.save_manifest`
writes ``registry.json`` (:data:`MANIFEST_NAME`, format
:data:`MANIFEST_FORMAT_VERSION`) next to the persisted indexes and
:meth:`IndexRegistry.from_directory` reloads the whole tenant set —
the unit ``repro serve --registry DIR`` deploys.

Thread safety: fully safe.  A registry lock guards the tenant table,
recency order, pins and counters; per-tenant locks serialize the
fault-in / evict / save transitions, so cross-tenant traffic never
blocks on one tenant's disk I/O.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.exceptions import ValidationError
from repro.metricspace.points import PointSet
from repro.service.index import CoresetIndex, build_coreset_index
from repro.service.matrices import MatrixCache
from repro.service.persist import load_index, save_index
from repro.service.qos import TenantQuota
from repro.service.service import (
    SCHEMA_VERSION,
    DiversityService,
    Query,
    QueryResult,
    check_executor,
)
from repro.utils.validation import check_positive_int

#: File name of the tenant manifest inside a registry directory.
MANIFEST_NAME = "registry.json"

#: Version stamp of the manifest schema written by :meth:`save_manifest`.
#: v2 added the optional per-tenant ``"qos"`` block (weight, max_queue,
#: rate_limit_qps); v1 manifests still load, with default quotas.
MANIFEST_FORMAT_VERSION = 2

#: Manifest versions :meth:`IndexRegistry.from_directory` accepts.
SUPPORTED_MANIFEST_VERSIONS = (1, 2)

#: Environment fallback for ``IndexRegistry(max_resident=...)``.
MAX_RESIDENT_ENV_VAR = "REPRO_MAX_RESIDENT"


class UnknownDatasetError(ValidationError):
    """A request named a ``dataset_id`` this registry does not serve.

    The daemon maps this onto the ``unknown_dataset`` protocol error
    (HTTP 404) instead of the generic ``bad_request``.
    """

    def __init__(self, dataset_id: str, known: Iterable[str] = ()):
        known = sorted(known)
        suffix = f"; serving: {', '.join(known)}" if known else ""
        super().__init__(f"unknown dataset {dataset_id!r}{suffix}")
        self.dataset_id = dataset_id


def _max_resident_from_env() -> int | None:
    """``REPRO_MAX_RESIDENT`` as a positive int, or ``None`` when unset.

    Malformed or non-positive values degrade to ``None`` (no tiering) —
    like the matrix budget, residency is an operational knob, never a
    correctness requirement.
    """
    raw = os.environ.get(MAX_RESIDENT_ENV_VAR)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value > 0 else None


@dataclass
class _Tenant:
    """Registry-side bookkeeping for one dataset.

    ``service`` is ``None`` while the tenant is cold (evicted); ``path``
    is the persistence base every eviction spills to and every fault
    loads from.  ``hits``/``epoch``/``dtype`` fold in the live service's
    counters at eviction time so ``stats()`` stays truthful across
    residency transitions.  ``lock`` serializes this tenant's fault-in /
    evict / save transitions; ``pins`` (guarded by the registry lock)
    counts attached users and blocks eviction.  ``quota`` carries the
    tenant's admission-control knobs (manifest-v2 ``"qos"`` block),
    consumed by the daemon's WDRR scheduler under ``repro serve
    --qos``.
    """

    dataset_id: str
    path: Path
    dtype: str | None = None
    quota: TenantQuota = field(default_factory=TenantQuota)
    service: DiversityService | None = None
    pins: int = 0
    hits: int = 0
    faults: int = 0
    evictions: int = 0
    epoch: int = 0
    dirty: bool = False
    lock: threading.Lock = field(default_factory=threading.Lock)


class IndexRegistry:
    """Serve many named datasets under one shared matrix budget.

    Parameters
    ----------
    max_resident:
        Hot-tier capacity: how many tenants may hold a resident
        :class:`~repro.service.service.DiversityService` at once.
        ``None`` (the default) reads ``REPRO_MAX_RESIDENT`` from the
        environment and falls back to no limit.  Beyond the limit the
        least-recently-used unpinned tenant is evicted down to its
        ``.npz`` files and faulted back on demand.
    matrix_budget_mb:
        The **global** matrix budget all tenants compete under,
        following the :class:`~repro.service.matrices.MatrixCache`
        convention (``None`` reads ``REPRO_MATRIX_BUDGET_MB``, ``0``
        forces unbudgeted), applied to the one matrix cache every
        tenant's service shares.
    cache_size, cache_stripes:
        Per-tenant result-LRU shape (each tenant keeps its own result
        cache; matrices are the shared resource).
    executor, executor_workers:
        Default execution backend (``"serial"`` or ``"thread"``) and
        thread fan-out for every tenant's service.
    spill_dir:
        Directory where tenants registered from in-memory indexes are
        persisted on first eviction (and by :meth:`save_manifest`).
        ``None`` creates a private temporary directory, removed by
        :meth:`close`.

    Example
    -------
    >>> from repro.datasets.synthetic import sphere_shell
    >>> from repro.service import build_coreset_index
    >>> registry = IndexRegistry(max_resident=1)
    >>> for name, seed in [("eu", 0), ("us", 1)]:
    ...     index = build_coreset_index(sphere_shell(300, 6, seed=seed),
    ...                                 k_max=6, k_min=6, seed=0)
    ...     registry.register(name, index)
    >>> result = registry.query("eu", "remote-edge", 4)  # faults "eu" in
    >>> sorted(registry.list())
    ['eu', 'us']
    >>> registry.close()
    """

    def __init__(self, *, max_resident: int | None = None,
                 matrix_budget_mb: int | None = None,
                 cache_size: int = 128, cache_stripes: int = 8,
                 executor: str = "serial", executor_workers: int = 4,
                 spill_dir: str | Path | None = None):
        check_executor(executor)
        if max_resident is None:
            max_resident = _max_resident_from_env()
        self.max_resident = (None if max_resident is None
                             else check_positive_int(max_resident,
                                                     "max_resident"))
        if matrix_budget_mb is None:
            budget_bytes: int | None = None  # defer to the environment
        elif matrix_budget_mb == 0:
            budget_bytes = 0  # explicit: unbudgeted
        else:
            budget_bytes = check_positive_int(
                matrix_budget_mb, "matrix_budget_mb") * 2**20
        self._cache_size = check_positive_int(cache_size, "cache_size")
        self._cache_stripes = check_positive_int(cache_stripes,
                                                 "cache_stripes")
        self.default_executor = executor
        self.executor_workers = check_positive_int(executor_workers,
                                                   "executor_workers")
        #: The one in-process matrix cache every tenant's service shares.
        self._matrices = MatrixCache(budget_bytes)
        self._tenants: dict[str, _Tenant] = {}
        #: LRU recency: dataset_ids, least recently used first.
        self._recency: list[str] = []
        self._lock = threading.RLock()
        self._spill_dir = None if spill_dir is None else Path(spill_dir)
        self._owns_spill_dir = False
        self._closed = False

    # -- tenant membership -------------------------------------------------------
    @classmethod
    def from_directory(cls, directory: str | Path,
                       **options) -> "IndexRegistry":
        """Load every tenant listed in a directory's ``registry.json``.

        The manifest (:data:`MANIFEST_NAME`) maps ``dataset_id`` to the
        relative base name of its ``.npz``/``.json`` index files;
        tenants are registered cold and fault in on first query.
        *options* are forwarded to the constructor.
        """
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        try:
            manifest = json.loads(manifest_path.read_text())
        except FileNotFoundError:
            raise ValidationError(
                f"no {MANIFEST_NAME} in {directory} — not a registry "
                "directory (create one with `repro registry add`)") from None
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"malformed {manifest_path}: {exc}") from exc
        version = manifest.get("format_version")
        if version not in SUPPORTED_MANIFEST_VERSIONS:
            raise ValidationError(
                f"unsupported registry manifest format_version {version!r};"
                " this build speaks versions "
                f"{', '.join(map(str, SUPPORTED_MANIFEST_VERSIONS))}")
        registry = cls(spill_dir=options.pop("spill_dir", directory),
                       **options)
        for entry in manifest.get("tenants", []):
            try:
                dataset_id = str(entry["dataset_id"])
                base = str(entry["index"])
            except (KeyError, TypeError) as exc:
                raise ValidationError(
                    f"malformed tenant entry {entry!r} in "
                    f"{manifest_path}: {exc}") from exc
            try:
                quota = TenantQuota.from_manifest(entry.get("qos"))
            except ValidationError as exc:
                raise ValidationError(
                    f"malformed 'qos' block for tenant {dataset_id!r} in "
                    f"{manifest_path}: {exc}") from exc
            registry.register(dataset_id, path=directory / base,
                              dtype=entry.get("dtype"), quota=quota)
        return registry

    def register(self, dataset_id: str,
                 index: CoresetIndex | None = None, *,
                 path: str | Path | None = None,
                 points: PointSet | None = None, k_max: int | None = None,
                 dtype: str | None = None,
                 quota: TenantQuota | None = None,
                 **build_options) -> None:
        """Add a tenant, from an index object, persisted files, or data.

        Exactly one source: *index* (served resident immediately),
        *path* (the base of ``.npz``/``.json`` files from a previous
        :func:`~repro.service.persist.save_index` — registered cold,
        faulted in on first query), or *points* + *k_max* (built now via
        :func:`~repro.service.index.build_coreset_index` with
        *build_options*).  *dtype* casts a path-loaded index on every
        fault (e.g. ``"float32"`` to serve a float64 index on the fast
        path); in-memory sources are served in their own dtype.
        *quota* sets the tenant's admission-control knobs
        (:class:`~repro.service.qos.TenantQuota`; default: weight 1,
        no rate limit), persisted in the manifest and honoured by
        ``repro serve --qos``.
        """
        dataset_id = str(dataset_id)
        if not dataset_id:
            raise ValidationError("dataset_id must be a non-empty string")
        sources = sum(source is not None for source in (index, path, points))
        if sources != 1:
            raise ValidationError(
                "register() needs exactly one of index=, path= or "
                "points= (+ k_max=)")
        if points is not None:
            if k_max is None:
                raise ValidationError("register(points=...) needs k_max=")
            index = build_coreset_index(points, k_max, **build_options)
        with self._lock:
            if self._closed:
                raise ValidationError("registry is closed")
            if dataset_id in self._tenants:
                raise ValidationError(
                    f"dataset {dataset_id!r} is already registered")
            base = (Path(path) if path is not None
                    else self._spill_path(dataset_id))
            tenant = _Tenant(dataset_id=dataset_id, path=base, dtype=dtype,
                             quota=quota or TenantQuota())
            if index is not None:
                tenant.service = self._make_service(dataset_id, index)
                tenant.dirty = True  # not on disk yet; evictions spill it
            self._tenants[dataset_id] = tenant
            self._recency.append(dataset_id)
        self._maybe_evict()

    def detach(self, dataset_id: str) -> None:
        """Remove a tenant: close its service, drop its matrix namespace.

        Persisted index files are left on disk — a detach is a serving
        decision, not a delete.  In-memory state that was never spilled
        is discarded.
        """
        with self._lock:
            tenant = self._tenant(dataset_id)
            if tenant.pins:
                raise ValidationError(
                    f"dataset {dataset_id!r} is attached; detach after "
                    "the last attach() block exits")
            del self._tenants[dataset_id]
            self._recency.remove(dataset_id)
        with tenant.lock:
            if tenant.service is not None:
                tenant.service.close()
                tenant.service = None

    def list(self) -> list[str]:
        """Registered ``dataset_id``\\ s, sorted."""
        with self._lock:
            return sorted(self._tenants)

    def quotas(self) -> dict[str, TenantQuota]:
        """Every tenant's admission quota, keyed by ``dataset_id``.

        The view ``repro serve --qos`` seeds its WDRR scheduler with;
        tenants registered later fall back to the scheduler's default
        quota.
        """
        with self._lock:
            return {dataset_id: tenant.quota
                    for dataset_id, tenant in sorted(self._tenants.items())}

    @contextmanager
    def attach(self, dataset_id: str) -> Iterator[DiversityService]:
        """Pin a tenant and yield its (resident) service.

        Faults the tenant in from its ``.npz`` files if it is cold; the
        pin blocks eviction for the duration of the ``with`` block, so
        the yielded service stays valid.  Recency is touched, making
        this tenant the hottest.
        """
        with self._lock:
            tenant = self._tenant(dataset_id)
            tenant.pins += 1
            self._touch(dataset_id)
        try:
            with tenant.lock:
                if tenant.service is None:
                    self._fault_in(tenant)
                service = tenant.service
            yield service
        finally:
            with self._lock:
                tenant.pins -= 1
        self._maybe_evict()

    # -- queries -----------------------------------------------------------------
    def query(self, dataset_id: str | None, objective: str, k: int,
              epsilon: float = 1.0) -> QueryResult:
        """Answer one query against one tenant (``None``: sole tenant)."""
        with self.attach(self._resolve(dataset_id)) as service:
            return service.query(objective, k, epsilon)

    def query_batch(self, queries: Iterable[Query],
                    dataset_id: str | None = None, *,
                    executor: str | None = None) -> list[QueryResult]:
        """Answer a batch against one tenant (``None``: sole tenant).

        The batch runs on the tenant's service exactly as a standalone
        :meth:`DiversityService.query_batch
        <repro.service.service.DiversityService.query_batch>` would —
        same grouping, caching and bit-identical answers — just with the
        matrix cache shared across tenants.
        """
        with self.attach(self._resolve(dataset_id)) as service:
            return service.query_batch(queries, executor=executor)

    def refresh(self, dataset_id: str | None, new_points: PointSet,
                *, batch_size: int | None = None) -> tuple[str, int]:
        """Absorb new points into one tenant's index (epoch-safe).

        Delegates to :meth:`DiversityService.refresh
        <repro.service.service.DiversityService.refresh>` under an
        attach pin: the tenant's epoch bumps, its superseded matrices
        purge from the shared cache, and other tenants' resident state is
        untouched.  The tenant becomes dirty — its
        next eviction (or :meth:`save_manifest`) spills the extended
        index.  Returns ``(dataset_id, new_epoch)``.
        """
        dataset_id = self._resolve(dataset_id)
        with self.attach(dataset_id) as service:
            service.refresh(new_points, batch_size=batch_size)
            epoch = service._epoch
            with self._lock:
                tenant = self._tenant(dataset_id)
                tenant.dirty = True
        return dataset_id, epoch

    def resolve(self, dataset_id: str | None) -> str:
        """Resolve ``None`` to the sole tenant and validate existence.

        Raises
        ------
        UnknownDatasetError
            If *dataset_id* names a tenant this registry does not serve.
        ValidationError
            If *dataset_id* is ``None`` and the registry serves more
            than one tenant (requests must name one).
        """
        dataset_id = self._resolve(dataset_id)
        with self._lock:
            self._tenant(dataset_id)
        return dataset_id

    def set_quota(self, dataset_id: str | None, quota: TenantQuota) -> None:
        """Replace one tenant's admission-control quota.

        Takes effect in the manifest on the next :meth:`save_manifest`;
        a running daemon picks new quotas up on restart (``repro
        registry tune`` is the offline half of the adaptive-QoS loop).
        """
        dataset_id = self._resolve(dataset_id)
        with self._lock:
            self._tenant(dataset_id).quota = quota

    def _resolve(self, dataset_id: str | None) -> str:
        """Default a missing dataset to the sole tenant, else demand one."""
        if dataset_id is not None:
            return str(dataset_id)
        with self._lock:
            if len(self._tenants) == 1:
                return next(iter(self._tenants))
            raise ValidationError(
                f"registry serves {len(self._tenants)} tenants; requests "
                "must name a dataset")

    # -- tiering -----------------------------------------------------------------
    def _tenant(self, dataset_id: str) -> _Tenant:
        # Caller holds self._lock.
        tenant = self._tenants.get(str(dataset_id))
        if tenant is None:
            raise UnknownDatasetError(str(dataset_id), self._tenants)
        return tenant

    def _touch(self, dataset_id: str) -> None:
        # Caller holds self._lock.
        self._recency.remove(dataset_id)
        self._recency.append(dataset_id)

    def _make_service(self, dataset_id: str,
                      index: CoresetIndex) -> DiversityService:
        """A tenant service wired into the shared matrix cache."""
        return DiversityService(
            index, dataset_id=dataset_id, cache_size=self._cache_size,
            cache_stripes=self._cache_stripes,
            executor=self.default_executor,
            executor_workers=self.executor_workers,
            matrices=self._matrices)

    def _fault_in(self, tenant: _Tenant) -> None:
        # Caller holds tenant.lock; the tenant is pinned.
        try:
            index = load_index(tenant.path, dtype=tenant.dtype)
        except ValidationError as exc:
            raise ValidationError(
                f"dataset {tenant.dataset_id!r}: {exc}") from exc
        service = tenant.service = self._make_service(tenant.dataset_id,
                                                      index)
        # Replay the epoch the tenant had reached before eviction so a
        # faulted-in tenant's results carry monotonic epochs (refreshes
        # since the spill are already baked into the saved index).
        service._epoch = tenant.epoch
        with self._lock:
            tenant.faults += 1

    def _maybe_evict(self) -> None:
        """Evict LRU unpinned tenants until the hot tier fits."""
        if self.max_resident is None:
            return
        while True:
            with self._lock:
                resident = [dataset_id for dataset_id in self._recency
                            if self._tenants[dataset_id].service is not None]
                if len(resident) <= self.max_resident:
                    return
                victim = next(
                    (self._tenants[dataset_id] for dataset_id in resident
                     if self._tenants[dataset_id].pins == 0), None)
                if victim is None:
                    return  # everything over the limit is pinned
                victim.pins += 1  # guard pin: no concurrent evict/detach
            try:
                with victim.lock:
                    with self._lock:
                        busy = victim.pins > 1 or victim.service is None
                    if not busy:
                        self._evict(victim)
            finally:
                with self._lock:
                    victim.pins -= 1

    def _evict(self, tenant: _Tenant) -> None:
        # Caller holds tenant.lock (and the guard pin).  Spill if the
        # on-disk copy is stale, fold the live counters into the tenant,
        # then drop the service — close() purges this dataset's matrices
        # from the registry-wide cache.
        service = tenant.service
        if tenant.dirty:
            tenant.path.parent.mkdir(parents=True, exist_ok=True)
            service.save(tenant.path)
            tenant.dirty = False
        tenant.hits += service.cache.stats.hits
        tenant.epoch = service._epoch
        tenant.dtype = service.index.dtype
        tenant.service = None
        service.close()
        with self._lock:
            tenant.evictions += 1

    def _spill_path(self, dataset_id: str) -> Path:
        # Caller holds self._lock.  Lazily create the spill directory.
        if self._spill_dir is None:
            self._spill_dir = Path(tempfile.mkdtemp(prefix="repro-registry-"))
            self._owns_spill_dir = True
        return self._spill_dir / dataset_id

    # -- persistence -------------------------------------------------------------
    def save_manifest(self, directory: str | Path | None = None) -> Path:
        """Write every tenant's index + ``registry.json`` to *directory*.

        Dirty (or never-spilled) resident tenants are persisted first;
        tenants whose files live elsewhere are copied in, so the
        directory is a complete, relocatable registry that
        :meth:`from_directory` (or ``repro serve --registry``) can load.
        Returns the manifest path.
        """
        with self._lock:
            if directory is None and self._spill_dir is None:
                raise ValidationError(
                    "save_manifest() needs a directory (the registry has "
                    "no spill_dir)")
            directory = Path(directory if directory is not None
                             else self._spill_dir)
            tenants = list(self._tenants.values())
        directory.mkdir(parents=True, exist_ok=True)
        entries = []
        for tenant in sorted(tenants, key=lambda t: t.dataset_id):
            with tenant.lock:
                target = directory / tenant.dataset_id
                if tenant.service is not None and (
                        tenant.dirty or not _index_files_exist(tenant.path)):
                    tenant.service.save(target)
                    tenant.dirty = False
                elif tenant.path != target:
                    _copy_index_files(tenant.path, target)
                tenant.path = target
            entry = {"dataset_id": tenant.dataset_id,
                     "index": tenant.dataset_id}
            if tenant.dtype is not None:
                entry["dtype"] = tenant.dtype
            qos = tenant.quota.to_manifest()
            if qos:
                entry["qos"] = qos
            entries.append(entry)
        manifest_path = directory / MANIFEST_NAME
        payload = {"format_version": MANIFEST_FORMAT_VERSION,
                   "tenants": entries}
        tmp = manifest_path.with_name(manifest_path.name + ".tmp")
        tmp.write_text(json.dumps(payload, indent=2) + "\n")
        os.replace(tmp, manifest_path)
        return manifest_path

    # -- observability / shutdown ------------------------------------------------
    def stats(self) -> dict:
        """The registry's observability snapshot (stats schema v1).

        Shares the service stats vocabulary — ``schema_version``,
        ``matrices`` (the shared in-process cache), ``executors`` — and
        adds the
        ``tenants`` section: ``registered`` / ``resident`` /
        ``max_resident`` totals, lifetime ``faults`` / ``evictions``,
        and a ``per_tenant`` map of ``resident`` / ``hits`` / ``faults``
        / ``evictions`` / ``resident_bytes`` / ``epoch`` / ``dtype``,
        plus the tenant's admission ``quota`` knobs (weight, max_queue,
        rate_limit_qps — the manifest-v2 ``"qos"`` block).
        ``resident_bytes`` counts the tenant's in-memory core-set rows
        (zero while cold); the shared matrix bytes are global by design
        and reported once under ``matrices``.  Served verbatim by the
        daemon's ``GET /stats`` and, tenants section only, by
        ``GET /tenants``.
        """
        with self._lock:
            tenants = {dataset_id: tenant for dataset_id, tenant
                       in sorted(self._tenants.items())}
            per_tenant = {}
            resident = 0
            faults = 0
            evictions = 0
            for dataset_id, tenant in tenants.items():
                service = tenant.service
                is_resident = service is not None
                resident += is_resident
                faults += tenant.faults
                evictions += tenant.evictions
                hits = tenant.hits
                epoch = tenant.epoch
                dtype = tenant.dtype
                resident_bytes = 0
                if is_resident:
                    hits += service.cache.stats.hits
                    epoch = service._epoch
                    index = service.index
                    if index is not None:
                        dtype = index.dtype
                        resident_bytes = sum(
                            rung.coreset.points.nbytes
                            for rung in index.all_rungs())
                per_tenant[dataset_id] = {
                    "resident": bool(is_resident),
                    "hits": hits,
                    "faults": tenant.faults,
                    "evictions": tenant.evictions,
                    "resident_bytes": resident_bytes,
                    "epoch": epoch,
                    "dtype": dtype,
                    "quota": {
                        "weight": tenant.quota.weight,
                        "max_queue": tenant.quota.max_queue,
                        "rate_limit_qps": tenant.quota.rate_limit_qps,
                    },
                }
            registered = len(tenants)
        return {
            "schema_version": SCHEMA_VERSION,
            "tenants": {
                "registered": registered,
                "resident": resident,
                "max_resident": self.max_resident,
                "faults": faults,
                "evictions": evictions,
                "per_tenant": per_tenant,
            },
            "matrices": {"local": self._matrices.describe()},
            "executors": {
                "default": self.default_executor,
                "workers": self.executor_workers,
            },
        }

    def close(self) -> None:
        """Shut down every tenant (idempotent).

        Resident services close, purging their matrix namespaces, and a
        registry-owned temporary spill directory is removed.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            tenants = list(self._tenants.values())
            self._tenants.clear()
            self._recency.clear()
        for tenant in tenants:
            with tenant.lock:
                if tenant.service is not None:
                    tenant.service.close()
                    tenant.service = None
        if self._owns_spill_dir and self._spill_dir is not None:
            shutil.rmtree(self._spill_dir, ignore_errors=True)

    def __enter__(self) -> "IndexRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _index_files_exist(base: Path) -> bool:
    """True when both persisted index files of *base* are on disk."""
    return (base.with_name(base.name + ".npz").exists()
            and base.with_name(base.name + ".json").exists())


def _copy_index_files(source: Path, target: Path) -> None:
    """Copy a persisted index's ``.npz`` + ``.json`` pair to a new base."""
    for suffix in (".npz", ".json"):
        shutil.copy2(source.with_name(source.name + suffix),
                     target.with_name(target.name + suffix))
