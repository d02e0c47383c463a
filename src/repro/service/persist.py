"""Index persistence: ``<path>.npz`` (rung point arrays) + ``<path>.json``.

A warm service loads the index from disk and skips the MapReduce build
entirely — the round-trip is exact (``np.savez`` stores float64 rows
byte-for-byte), so a reloaded index answers every query with the same bits
as the index that built it.  The JSON sidecar carries everything routing
needs (metric, dimension estimate, ladder geometry, per-rung parameters)
plus a fingerprint of the source dataset for provenance.

Format history:

* **version 1** (PR 3) — metric / ladder / source / rung records;
* **version 2** (this layer) — adds the ``extra`` block, which records
  the incremental-refresh history written by
  :meth:`repro.service.index.CoresetIndex.extend`.  Version-1 files load
  unchanged (their ``extra`` is empty); writes always produce version 2.
  Later version-2 writes additionally record the storage ``dtype``; the
  field is informational (the ``.npz`` arrays are authoritative — float32
  rungs round-trip bit-exactly through ``np.savez``), and files written
  before it exist load as the float64 their arrays contain.
"""

from __future__ import annotations

import json
import os
import zipfile
from pathlib import Path

import numpy as np

from repro.exceptions import ValidationError
from repro.metricspace.points import PointSet
from repro.service.index import FAMILIES, CoresetIndex, LadderRung

#: Format version written into the sidecar; bump on incompatible layout.
INDEX_FORMAT_VERSION = 2

#: Sidecar versions this build can read (v1 = PR 3-era, no ``extra``).
READABLE_FORMAT_VERSIONS = (1, 2)


def _paths(path: str | Path) -> tuple[Path, Path]:
    # Append rather than Path.with_suffix: the latter would strip a dotted
    # final segment, making distinct user paths ("model.a", "model.b")
    # silently collide on the same files.
    path = Path(path)
    return (path.parent / f"{path.name}.npz",
            path.parent / f"{path.name}.json")


def save_index(index: CoresetIndex, path: str | Path) -> None:
    """Persist *index* as ``<path>.npz`` + ``<path>.json``.

    Writes are atomic per file (temp name + ``os.replace``): an
    in-place re-save — the default of ``repro refresh`` — can crash
    mid-write without destroying the existing index, the reader at worst
    sees the old pair or a new-``npz``/old-``json`` mix from the same
    index lineage, never a truncated file.
    """
    npz_path, json_path = _paths(path)
    npz_path.parent.mkdir(parents=True, exist_ok=True)
    arrays: dict[str, np.ndarray] = {}
    rung_records = []
    for i, rung in enumerate(index.all_rungs()):
        array_key = f"rung_{i}"
        arrays[array_key] = rung.coreset.points
        record = rung.describe()
        record["array"] = array_key
        rung_records.append(record)
    metadata = {
        "format_version": INDEX_FORMAT_VERSION,
        "metric": index.metric_name,
        "dtype": index.dtype,
        "dimension_estimate": index.dimension_estimate,
        "seed": index.seed,
        "ladder": index.ladder,
        "source": index.source,
        "build_calls": index.build_calls,
        "build_seconds": index.build_seconds,
        "extra": index.extra,
        "rungs": rung_records,
    }
    # np.savez appends ".npz" unless the name already ends with it, so
    # the temp names keep the final suffix.
    npz_tmp = npz_path.parent / f"{npz_path.stem}.tmp{os.getpid()}.npz"
    json_tmp = json_path.parent / f"{json_path.name}.tmp{os.getpid()}"
    np.savez(npz_tmp, **arrays)
    json_tmp.write_text(json.dumps(metadata, indent=2, sort_keys=True) + "\n")
    os.replace(npz_tmp, npz_path)
    os.replace(json_tmp, json_path)


def load_index(path: str | Path,
               dtype: "str | np.dtype | None" = None) -> CoresetIndex:
    """Load an index saved by :func:`save_index` (exact round-trip).

    Reads the current format and every older version listed in
    :data:`READABLE_FORMAT_VERSIONS`; anything else raises
    :class:`~repro.exceptions.ValidationError`.

    Rung arrays load in their stored dtype (float32 indexes stay
    float32; files written before the dtype field load as float64).
    Pass *dtype* to cast on load — e.g. ``dtype="float32"`` serves a
    float64 index on the fast path without re-building it.

    A file that cannot be read back — a truncated ``.npz``, a ``.json``
    that is not an index sidecar — raises
    :class:`~repro.exceptions.ValidationError` naming that file.
    """
    npz_path, json_path = _paths(path)
    if not npz_path.exists() or not json_path.exists():
        raise ValidationError(
            f"no saved index at {Path(path)} "
            f"(need both {npz_path.name} and {json_path.name})")
    try:
        metadata = json.loads(json_path.read_text())
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ValidationError(
            f"corrupt index file {json_path}: {exc}") from exc
    if not isinstance(metadata, dict):
        raise ValidationError(
            f"corrupt index file {json_path}: not a JSON object")
    version = metadata.get("format_version")
    if version not in READABLE_FORMAT_VERSIONS:
        raise ValidationError(
            f"unsupported index format version {version!r} "
            f"(this build reads versions {READABLE_FORMAT_VERSIONS})")
    try:
        with np.load(npz_path) as archive:
            arrays = {name: archive[name] for name in archive.files}
    except (EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise ValidationError(
            f"corrupt index file {npz_path}: {exc}") from exc
    metric = metadata["metric"]
    rungs: dict[str, list[LadderRung]] = {}
    for record in metadata["rungs"]:
        family = record["family"]
        if family not in FAMILIES:
            raise ValidationError(f"unknown family {family!r} in {json_path}")
        rungs.setdefault(family, []).append(LadderRung(
            family=family,
            k_cap=int(record["k_cap"]),
            k_prime=int(record["k_prime"]),
            coreset=PointSet(arrays[record["array"]], metric=metric),
            build_seconds=float(record.get("build_seconds", 0.0)),
        ))
    for family_rungs in rungs.values():
        family_rungs.sort(key=lambda rung: (rung.k_cap, rung.k_prime))
    extra = metadata.get("extra")
    index = CoresetIndex(
        metric_name=metric,
        dimension_estimate=float(metadata["dimension_estimate"]),
        rungs=rungs,
        ladder=metadata.get("ladder", {}),
        source=metadata.get("source", {}),
        seed=metadata.get("seed"),
        build_calls=int(metadata.get("build_calls", 0)),
        build_seconds=float(metadata.get("build_seconds", 0.0)),
        extra=extra if isinstance(extra, dict) else {},
    )
    return index if dtype is None else index.astype(dtype)
