"""Command-line interface: ``python -m repro ...``.

Eight subcommands cover the common workflows without writing any code:

* ``generate`` — synthesize a dataset (sphere-shell, cube, clusters,
  bag-of-words) and save it via :mod:`repro.datasets.loaders`;
* ``run`` — run one algorithm (streaming / streaming-2pass / mapreduce /
  mapreduce-3round / afz / immm) on a saved or freshly generated dataset
  and print value, ratio and resource usage;
* ``estimate`` — estimate the doubling dimension of a dataset and the
  theoretical ``k'`` for given ``(k, eps)``;
* ``index`` — ingest a dataset once into a build-once/serve-many core-set
  index (a ladder of resolutions per objective family) and persist it;
* ``query`` — answer ``(objective, k, eps)`` requests from a saved index,
  never touching the original dataset;
* ``refresh`` — absorb new data into a saved index incrementally (batched
  SMM per rung + composable re-merge), no MapReduce rebuild;
* ``registry`` — manage a multi-tenant registry directory
  (``add`` / ``remove`` / ``list`` / ``tune``): a ``registry.json``
  manifest naming the persisted indexes that ``serve --registry`` loads
  as tenants; ``tune`` rewrites the manifest QoS weights from a live
  daemon's observed per-tenant traffic;
* ``serve`` — run the long-lived serving daemon over a saved index
  (``--index``) or a whole registry of them (``--registry``, with
  ``--max-resident`` hot/cold tiering): newline-delimited JSON over TCP
  plus an HTTP/1.1 adapter on one port, with micro-batching, bounded
  admission queues and graceful SIGTERM drain (see ``docs/serving.md``).

The generated reference in ``docs/cli.md`` (see ``docs/generate_cli.py``)
is kept in sync with these parsers by ``tests/test_docs.py`` and the CI
docs job.

Examples
--------
::

    python -m repro generate sphere-shell --n 100000 --k 16 --out /tmp/data
    python -m repro run mapreduce --data /tmp/data --k 16 --k-prime 64 \
        --objective remote-edge --parallelism 8
    python -m repro estimate --data /tmp/data --k 16 --epsilon 0.5
    python -m repro index --data /tmp/data --k-max 32 --out /tmp/idx
    python -m repro query --index /tmp/idx --objective remote-clique --k 8
    python -m repro refresh --index /tmp/idx --data /tmp/more_data
    python -m repro registry add --dir /tmp/fleet --id eu --index /tmp/idx
    python -m repro serve --index /tmp/idx --port 7077
    python -m repro serve --registry /tmp/fleet --max-resident 2
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.baselines.afz import AFZDiversityMaximizer
from repro.baselines.immm import IMMMStreamingMaximizer
from repro.coresets.composable import coreset_size_for
from repro.datasets.loaders import load_points, save_points
from repro.datasets.synthetic import gaussian_clusters, sphere_shell, uniform_cube
from repro.datasets.text import zipf_bag_of_words
from repro.diversity.objectives import list_objectives
from repro.experiments.harness import approximation_ratio
from repro.experiments.reference import reference_value
from repro.mapreduce.algorithm import MRDiversityMaximizer
from repro.metricspace.blocked import set_default_memory_budget
from repro.metricspace.doubling import estimate_doubling_dimension
from repro.streaming.algorithm import (
    DEFAULT_BATCH_SIZE,
    StreamingDiversityMaximizer,
    TwoPassStreamingDiversityMaximizer,
)
from repro.service import (
    DiversityService,
    build_coreset_index,
    load_index,
    save_index,
)
from repro.service.index import FAMILIES
from repro.streaming.stream import ArrayStream
from repro.tuning import recommend_matrix_budget_mb

GENERATORS = ("sphere-shell", "cube", "clusters", "bag-of-words")
ALGORITHMS = ("streaming", "streaming-2pass", "mapreduce", "mapreduce-3round",
              "afz", "immm")


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (exposed for testing)."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Diversity maximization with core-sets "
                    "(Ceccarello et al., VLDB 2017 reproduction)",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize and save a dataset")
    gen.add_argument("generator", choices=GENERATORS)
    gen.add_argument("--n", type=int, default=10_000)
    gen.add_argument("--k", type=int, default=8,
                     help="planted far points (sphere-shell only)")
    gen.add_argument("--dim", type=int, default=3)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output path (no extension)")

    run = sub.add_parser("run", help="run one algorithm on a dataset")
    run.add_argument("algorithm", choices=ALGORITHMS)
    run.add_argument("--data", required=True,
                     help="dataset path saved by 'generate'")
    run.add_argument("--k", type=int, required=True)
    run.add_argument("--k-prime", type=int, default=None,
                     help="core-set parameter (default 4k)")
    run.add_argument("--objective", choices=list_objectives(),
                     default="remote-edge")
    run.add_argument("--parallelism", type=int, default=4)
    run.add_argument("--executor", choices=("serial", "process"),
                     default="serial",
                     help="reducer executor for the MapReduce algorithms: "
                          "'process' uses the persistent worker pool with "
                          "zero-copy shared-memory partitions (identical "
                          "results, real parallelism)")
    run.add_argument("--batch-size", type=int, default=DEFAULT_BATCH_SIZE,
                     help="ingest the stream in blocks of this many points "
                          "through the vectorized sketch kernel "
                          "(streaming algorithms only; same results, "
                          "higher throughput; default %(default)s)")
    run.add_argument("--kernel-budget-mb", type=int, default=None,
                     help="memory budget (MiB) for blocked distance-kernel "
                          "intermediates; default 64")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--with-ratio", action="store_true",
                     help="also compute the reference value and ratio")

    est = sub.add_parser("estimate",
                         help="estimate doubling dimension and k' sizing")
    est.add_argument("--data", required=True)
    est.add_argument("--k", type=int, default=8)
    est.add_argument("--epsilon", type=float, default=1.0)
    est.add_argument("--objective", choices=list_objectives(),
                     default="remote-edge")
    est.add_argument("--seed", type=int, default=0)

    idx = sub.add_parser(
        "index", help="ingest a dataset once into a persisted core-set index")
    idx.add_argument("--data", required=True,
                     help="dataset path saved by 'generate'")
    idx.add_argument("--k-max", type=int, required=True,
                     help="largest query k the index must serve")
    idx.add_argument("--out", required=True,
                     help="index output path (writes <out>.npz + <out>.json)")
    idx.add_argument("--families", default=",".join(FAMILIES),
                     help="comma-separated construction families to build "
                          f"(default: {','.join(FAMILIES)})")
    idx.add_argument("--multiplier", type=int, default=4,
                     help="kernel size per rung is multiplier * k_cap")
    idx.add_argument("--growth", type=int, default=2,
                     help="geometric growth of rung capacities")
    idx.add_argument("--k-min", type=int, default=4,
                     help="smallest rung capacity")
    idx.add_argument("--parallelism", type=int, default=4)
    idx.add_argument("--executor", choices=("serial", "process"),
                     default="serial")
    idx.add_argument("--dtype", choices=("float64", "float32"),
                     default="float64",
                     help="storage dtype for the built index; float32 "
                          "halves matrix memory and speeds bandwidth-bound "
                          "queries (see docs/performance.md)")
    idx.add_argument("--seed", type=int, default=0)

    qry = sub.add_parser(
        "query", help="answer a diversity query from a saved index")
    qry.add_argument("--index", required=True,
                     help="index path written by 'index'")
    qry.add_argument("--objective", choices=list_objectives(),
                     default="remote-edge")
    qry.add_argument("--k", type=int, required=True)
    qry.add_argument("--epsilon", type=float, default=1.0,
                     help="approximation slack; smaller routes to a larger "
                          "ladder rung")
    qry.add_argument("--repeat", type=int, default=1,
                     help="repeat the query to exercise the result cache")
    qry.add_argument("--matrix-budget-mb", type=int, default=None,
                     help="memory budget (MiB) for cached rung distance "
                          "matrices, with LRU eviction and on-demand "
                          "recompute; default: $REPRO_MATRIX_BUDGET_MB, "
                          "else unbudgeted")
    qry.add_argument("--dtype", choices=("float64", "float32"), default=None,
                     help="cast the loaded index to this dtype before "
                          "serving (default: keep its stored dtype)")
    rfr = sub.add_parser(
        "refresh",
        help="absorb new data into a saved index without a rebuild")
    rfr.add_argument("--index", required=True,
                     help="index path written by 'index' (or a prior "
                          "'refresh')")
    rfr.add_argument("--data", required=True,
                     help="new points to ingest (path saved by 'generate')")
    rfr.add_argument("--out", default=None,
                     help="output index path (default: update --index "
                          "in place)")
    rfr.add_argument("--batch-size", type=int, default=DEFAULT_BATCH_SIZE,
                     help="SMM ingestion block size for the per-rung "
                          "sketches (default %(default)s)")

    reg = sub.add_parser(
        "registry",
        help="manage a multi-tenant registry directory for 'serve'")
    regsub = reg.add_subparsers(dest="registry_command", required=True)
    radd = regsub.add_parser(
        "add", help="register one dataset (tenant) into a registry")
    radd.add_argument("--dir", required=True,
                      help="registry directory (created with its "
                           "registry.json manifest if missing)")
    radd.add_argument("--id", required=True, dest="dataset_id",
                      help="dataset_id clients route queries with")
    radd.add_argument("--index", default=None,
                      help="existing index path written by 'index' "
                           "(copied into the registry directory)")
    radd.add_argument("--data", default=None,
                      help="dataset path saved by 'generate' — builds "
                           "the tenant's index now (needs --k-max)")
    radd.add_argument("--k-max", type=int, default=None,
                      help="largest query k (required with --data)")
    radd.add_argument("--dtype", choices=("float64", "float32"),
                      default=None,
                      help="serving dtype for this tenant (default: "
                           "the index's stored dtype)")
    radd.add_argument("--weight", type=float, default=None,
                      help="relative dispatch share under 'serve --qos' "
                           "weighted fair queueing (default 1.0; a "
                           "weight-2 tenant drains twice as fast as a "
                           "weight-1 tenant when both are backlogged)")
    radd.add_argument("--max-queue", type=int, default=None,
                      help="per-tenant admission bound under 'serve "
                           "--qos' (default: the daemon's global "
                           "--max-queue)")
    radd.add_argument("--rate-limit", type=float, default=None,
                      help="token-bucket admission rate limit in "
                           "requests/second under 'serve --qos' "
                           "(0 rejects everything — a kill switch; "
                           "default: unlimited)")
    radd.add_argument("--parallelism", type=int, default=4)
    radd.add_argument("--seed", type=int, default=0)
    rrm = regsub.add_parser(
        "remove", help="deregister a tenant (index files are kept)")
    rrm.add_argument("--dir", required=True, help="registry directory")
    rrm.add_argument("--id", required=True, dest="dataset_id")
    rls = regsub.add_parser(
        "list", help="list the tenants a registry directory serves")
    rls.add_argument("--dir", required=True, help="registry directory")
    rtn = regsub.add_parser(
        "tune",
        help="rewrite manifest QoS weights from a daemon's observed "
             "per-tenant traffic")
    rtn.add_argument("--dir", required=True, help="registry directory")
    rtn.add_argument("--host", default="127.0.0.1",
                     help="daemon host to fetch GET /stats from")
    rtn.add_argument("--port", type=int, default=None,
                     help="daemon port to fetch GET /stats from (the "
                          "daemon must serve --registry --qos)")
    rtn.add_argument("--stats-json", default=None,
                     help="tune from a saved stats payload instead of a "
                          "live daemon (a GET /stats response body)")
    rtn.add_argument("--max-weight", type=int, default=4,
                     help="weight granted to the busiest tenant; others "
                          "scale down proportionally (min 1)")

    dmn = sub.add_parser(
        "serve",
        help="serve diversity queries from a saved index over TCP/HTTP")
    dmn_source = dmn.add_mutually_exclusive_group(required=True)
    dmn_source.add_argument("--index",
                            help="index path written by 'index'")
    dmn_source.add_argument("--registry", metavar="DIR",
                            help="serve every tenant of a registry "
                                 "directory (see 'repro registry'); "
                                 "queries route by their 'dataset' field")
    dmn.add_argument("--max-resident", type=int, default=None,
                     help="registry mode: how many tenants may stay hot "
                          "at once; the LRU rest are evicted to disk "
                          "and faulted back on demand (default: "
                          "$REPRO_MAX_RESIDENT, else unlimited)")
    dmn.add_argument("--host", default="127.0.0.1")
    dmn.add_argument("--port", type=int, default=0,
                     help="TCP port (0: pick an ephemeral port and "
                          "print it)")
    dmn.add_argument("--max-queue", type=int, default=64,
                     help="bounded admission queue; beyond it requests "
                          "are rejected with 'overloaded' + retry-after "
                          "(with --qos: the default per-tenant bound)")
    dmn.add_argument("--qos", action="store_true",
                     help="registry mode: tenant-aware admission "
                          "control — per-tenant queues drained in "
                          "weighted deficit-round-robin order under "
                          "each tenant's manifest quota (weight, "
                          "max_queue, rate limit; see 'registry add')")
    dmn.add_argument("--max-batch", type=int, default=16,
                     help="most requests one dispatch may coalesce; a "
                          "batch is whatever queued while the previous "
                          "one ran, so no timer holds requests back")
    dmn.add_argument("--drain-timeout-s", type=float, default=30.0,
                     help="longest a SIGTERM drain waits for in-flight "
                          "work before giving up on dead peers")
    dmn.add_argument("--executor", choices=("serial", "thread", "process"),
                     default="serial",
                     help="service execution backend for dispatched "
                          "batches (answers are bit-identical across "
                          "backends)")
    dmn.add_argument("--matrix-budget-mb", type=int, default=None,
                     help="matrix-cache budget (MiB) for the served "
                          "index; default: $REPRO_MATRIX_BUDGET_MB, "
                          "else unbudgeted")
    dmn.add_argument("--dtype", choices=("float64", "float32"), default=None,
                     help="cast the loaded index to this dtype before "
                          "serving (default: keep its stored dtype)")

    return parser


def _generate(args: argparse.Namespace) -> int:
    if args.generator == "sphere-shell":
        points = sphere_shell(args.n, args.k, dim=args.dim, seed=args.seed)
    elif args.generator == "cube":
        points = uniform_cube(args.n, dim=args.dim, seed=args.seed)
    elif args.generator == "clusters":
        points = gaussian_clusters(args.n, dim=args.dim, seed=args.seed)
    else:
        points = zipf_bag_of_words(args.n, seed=args.seed)
    save_points(points, args.out)
    print(f"wrote {len(points)} points (dim {points.dim}, "
          f"metric {points.metric.name}) to {args.out}.npy")
    return 0


def _run(args: argparse.Namespace) -> int:
    points = load_points(args.data)
    k_prime = args.k_prime if args.k_prime is not None else 4 * args.k
    metric = points.metric
    if args.kernel_budget_mb is not None:
        set_default_memory_budget(args.kernel_budget_mb * 2**20)

    if args.algorithm == "streaming":
        algo = StreamingDiversityMaximizer(k=args.k, k_prime=k_prime,
                                           objective=args.objective,
                                           metric=metric,
                                           batch_size=args.batch_size)
        result = algo.run(ArrayStream(points.points))
        resources = (f"memory {result.peak_memory_points} pts, "
                     f"{result.kernel_throughput:,.0f} pts/s")
    elif args.algorithm == "streaming-2pass":
        algo = TwoPassStreamingDiversityMaximizer(k=args.k, k_prime=k_prime,
                                                  objective=args.objective,
                                                  metric=metric,
                                                  batch_size=args.batch_size)
        result = algo.run(ArrayStream(points.points))
        resources = f"memory {result.peak_memory_points} pts, 2 passes"
    elif args.algorithm == "mapreduce":
        with MRDiversityMaximizer(k=args.k, k_prime=k_prime,
                                  objective=args.objective,
                                  parallelism=args.parallelism,
                                  metric=metric, seed=args.seed,
                                  executor=args.executor) as algo:
            result = algo.run(points)
        resources = (f"M_L {result.stats.max_local_memory_points} pts, "
                     f"{result.rounds} rounds, {args.executor}")
    elif args.algorithm == "mapreduce-3round":
        with MRDiversityMaximizer(k=args.k, k_prime=k_prime,
                                  objective=args.objective,
                                  parallelism=args.parallelism,
                                  metric=metric, seed=args.seed,
                                  executor=args.executor) as algo:
            result = algo.run_three_round(points)
        resources = (f"M_L {result.stats.max_local_memory_points} pts, "
                     f"{result.rounds} rounds, {args.executor}")
    elif args.algorithm == "afz":
        with AFZDiversityMaximizer(k=args.k, objective=args.objective,
                                   parallelism=args.parallelism,
                                   metric=metric, seed=args.seed,
                                   executor=args.executor) as algo:
            result = algo.run(points)
        resources = f"core-set {result.coreset_size} pts, {args.executor}"
    else:  # immm
        algo = IMMMStreamingMaximizer(k=args.k, expected_n=len(points),
                                      objective=args.objective, metric=metric)
        result = algo.run(ArrayStream(points.points))
        resources = (f"memory {result.peak_memory_points} pts, "
                     f"{result.blocks} blocks")

    print(f"{args.algorithm}  {args.objective}  k={args.k} k'={k_prime}")
    print(f"  value = {result.value:.6f}   [{resources}]")
    if args.with_ratio:
        reference = reference_value(points, args.k, args.objective)
        print(f"  ratio vs best-found reference = "
              f"{approximation_ratio(reference, result.value):.4f}")
    return 0


def _estimate(args: argparse.Namespace) -> int:
    points = load_points(args.data)
    dimension = estimate_doubling_dimension(points, seed=args.seed,
                                            quantile=0.9)
    print(f"estimated doubling dimension: {dimension:.2f}")
    for model in ("mapreduce", "streaming"):
        size = coreset_size_for(args.k, args.epsilon, dimension,
                                args.objective, model=model)
        print(f"theoretical k' ({model:9s}, eps={args.epsilon}): {size}")
    print(f"practical suggestion: k' in [{2 * args.k}, {8 * args.k}] "
          "(Section 7 of the paper)")
    return 0


def _index(args: argparse.Namespace) -> int:
    points = load_points(args.data)
    families = tuple(name.strip() for name in args.families.split(",")
                     if name.strip())
    index = build_coreset_index(
        points, args.k_max, families=families, multiplier=args.multiplier,
        growth=args.growth, k_min=args.k_min, parallelism=args.parallelism,
        executor=args.executor, seed=args.seed, dtype=args.dtype,
    )
    save_index(index, args.out)
    print(f"indexed {len(points)} points (metric {index.metric_name}, "
          f"dtype {index.dtype}, "
          f"estimated dimension {index.dimension_estimate:.2f}) "
          f"in {index.build_seconds:.2f}s [{args.executor}]")
    for rung in index.all_rungs():
        print(f"  rung {rung.family:8s} k<={rung.k_cap:<4d} k'={rung.k_prime:<5d} "
              f"{len(rung.coreset):6d} pts  ({rung.build_seconds:.3f}s)")
    print(f"wrote {args.out}.npz + {args.out}.json "
          f"({index.build_calls} core-set builds, amortized over all queries)")
    budget = recommend_matrix_budget_mb(
        [len(rung.coreset) for rung in index.all_rungs()],
        dtype=index.dtype)
    print(f"suggested REPRO_MATRIX_BUDGET_MB={budget} "
          "(keeps the two largest rung matrices resident)")
    return 0


def _query(args: argparse.Namespace) -> int:
    service = DiversityService.from_file(
        args.index, matrix_budget_mb=args.matrix_budget_mb,
        dtype=args.dtype)
    for _ in range(max(args.repeat, 1)):
        result = service.query(args.objective, args.k, epsilon=args.epsilon)
        family, k_cap, k_prime = result.rung
        source = ("cache hit" if result.cached
                  else f"solved in {result.solve_seconds * 1e3:.2f} ms")
        print(f"{result.objective}  k={result.k} eps={result.epsilon}  "
              f"value = {result.value:.6f}   "
              f"[rung {family} k'={k_prime} (k<={k_cap}), {source}]")
    stats = service.stats()
    results_cache = stats["caches"]["results"]
    print(f"  cache: {results_cache['hits']} hits / "
          f"{results_cache['misses']} misses, "
          f"builds during queries: {stats['counters']['build_calls']}")
    matrices = stats["matrices"]["local"]
    if matrices["budget_bytes"] is not None:
        print(f"  matrices: {matrices['cached']} resident "
              f"({matrices['resident_bytes'] / 2**20:.1f} MiB of "
              f"{matrices['budget_bytes'] / 2**20:.0f} MiB budget), "
              f"{matrices['evictions']} evictions, "
              f"{matrices['recomputes']} recomputes")
    return 0


def _refresh(args: argparse.Namespace) -> int:
    points = load_points(args.data)
    index = load_index(args.index)
    n_before = index.source.get("n", "?")
    extended = index.extend(points, batch_size=args.batch_size)
    out = args.out if args.out is not None else args.index
    save_index(extended, out)
    refresh = extended.extra["refreshes"][-1]
    print(f"refreshed index: {n_before} -> {extended.source.get('n')} points "
          f"({refresh['sketch_builds']} streaming sketch builds, "
          f"{refresh['seconds']:.2f}s, no MapReduce rebuild)")
    reestimates = extended.extra.get("dimension_reestimates", [])
    if reestimates and reestimates[-1]["n"] == extended.source.get("n"):
        latest = reestimates[-1]
        print(f"  routing dimension re-estimated: "
              f"{latest['previous']:.2f} -> {latest['estimate']:.2f} "
              f"(data grew >=2x since the last estimate)")
    for rung in extended.all_rungs():
        print(f"  rung {rung.family:8s} k<={rung.k_cap:<4d} "
              f"k'={rung.k_prime:<5d} {len(rung.coreset):6d} pts")
    print(f"wrote {out}.npz + {out}.json "
          f"(refresh #{len(extended.extra['refreshes'])})")
    return 0


def _registry(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.service.qos import TenantQuota
    from repro.service.registry import MANIFEST_NAME, IndexRegistry

    directory = Path(args.dir)
    has_manifest = (directory / MANIFEST_NAME).exists()
    if args.registry_command == "add":
        if (args.index is None) == (args.data is None):
            print("registry add needs exactly one of --index or --data",
                  file=sys.stderr)
            return 2
        quota = None
        if (args.weight is not None or args.max_queue is not None
                or args.rate_limit is not None):
            quota = TenantQuota(
                weight=args.weight if args.weight is not None else 1.0,
                max_queue=args.max_queue,
                rate_limit_qps=args.rate_limit)
        registry = (IndexRegistry.from_directory(directory) if has_manifest
                    else IndexRegistry(spill_dir=directory))
        with registry:
            if args.index is not None:
                registry.register(args.dataset_id, path=args.index,
                                  dtype=args.dtype, quota=quota)
            else:
                if args.k_max is None:
                    print("registry add --data needs --k-max",
                          file=sys.stderr)
                    return 2
                index = build_coreset_index(
                    load_points(args.data), args.k_max,
                    parallelism=args.parallelism, seed=args.seed,
                    dtype=args.dtype or "float64")
                registry.register(args.dataset_id, index, quota=quota)
            manifest = registry.save_manifest(directory)
            count = len(registry.list())
        print(f"registered {args.dataset_id!r}; {manifest} now lists "
              f"{count} tenant{'s' if count != 1 else ''}")
        return 0
    if args.registry_command == "tune":
        return _registry_tune(args, directory)
    registry = IndexRegistry.from_directory(directory)
    with registry:
        if args.registry_command == "remove":
            registry.detach(args.dataset_id)
            registry.save_manifest(directory)
            count = len(registry.list())
            print(f"removed {args.dataset_id!r} (index files kept); "
                  f"{count} tenant{'s remain' if count != 1 else ' remains'}")
            return 0
        per_tenant = registry.stats()["tenants"]["per_tenant"]
    for dataset_id, block in per_tenant.items():
        dtype = block["dtype"] or "stored"
        quota = block["quota"]
        knobs = f"weight {quota['weight']:g}"
        if quota["max_queue"] is not None:
            knobs += f"  queue {quota['max_queue']}"
        if quota["rate_limit_qps"] is not None:
            knobs += f"  rate {quota['rate_limit_qps']:g}/s"
        print(f"{dataset_id:24s} epoch {block['epoch']}  dtype {dtype}  "
              f"{knobs}")
    print(f"{len(per_tenant)} tenant{'s' if len(per_tenant) != 1 else ''} "
          f"in {directory}")
    return 0


def _registry_tune(args: argparse.Namespace, directory) -> int:
    """``repro registry tune``: close the adaptive-QoS loop offline.

    Reads a daemon stats snapshot (live ``GET /stats`` or a saved
    payload), derives weights from the observed per-tenant dispatch
    counts via :func:`repro.tuning.recommend_tenant_weights`, and
    rewrites the manifest's ``qos`` blocks — per-tenant ``max_queue``
    and ``rate_limit_qps`` are preserved, only weights move.
    """
    import json

    from repro.service.qos import TenantQuota
    from repro.service.registry import IndexRegistry
    from repro.tuning import recommend_tenant_weights

    if (args.stats_json is None) == (args.port is None):
        print("registry tune needs exactly one of --port (live daemon) "
              "or --stats-json (saved snapshot)", file=sys.stderr)
        return 2
    if args.stats_json is not None:
        from pathlib import Path

        payload = json.loads(Path(args.stats_json).read_text())
    else:
        from urllib.request import urlopen

        url = f"http://{args.host}:{args.port}/stats"
        with urlopen(url, timeout=10) as response:  # noqa: S310
            payload = json.loads(response.read().decode())
    per_tenant = (payload.get("server", {}).get("qos") or {}) \
        .get("per_tenant") or {}
    counts = {dataset_id: int(block.get("dispatched", 0))
              for dataset_id, block in per_tenant.items()}
    if not counts:
        print("snapshot has no per-tenant QoS stats — the daemon must "
              "run with --registry --qos", file=sys.stderr)
        return 2
    weights = recommend_tenant_weights(counts, max_weight=args.max_weight)
    changed = 0
    with IndexRegistry.from_directory(directory) as registry:
        quotas = {dataset_id: block["quota"] for dataset_id, block
                  in registry.stats()["tenants"]["per_tenant"].items()}
        for dataset_id in sorted(registry.list()):
            if dataset_id not in weights:
                print(f"{dataset_id:24s} weight "
                      f"{quotas[dataset_id]['weight']:g} (no traffic "
                      "observed; unchanged)")
                continue
            quota = quotas[dataset_id]
            new_weight = float(weights[dataset_id])
            registry.set_quota(dataset_id, TenantQuota(
                weight=new_weight, max_queue=quota["max_queue"],
                rate_limit_qps=quota["rate_limit_qps"]))
            marker = "->" if new_weight != quota["weight"] else "=="
            changed += new_weight != quota["weight"]
            print(f"{dataset_id:24s} weight {quota['weight']:g} {marker} "
                  f"{new_weight:g}  (dispatched {counts[dataset_id]})")
        manifest = registry.save_manifest(directory)
    print(f"rewrote {manifest}: {changed} weight(s) changed "
          "(restart the daemon to apply)")
    return 0


def _serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.registry import IndexRegistry
    from repro.service.server import DiversityServer, ServerConfig

    if args.qos and args.registry is None:
        print("serve --qos is per-tenant scheduling; it needs --registry",
              file=sys.stderr)
        return 2
    if args.registry is not None:
        service: "DiversityService | IndexRegistry" = \
            IndexRegistry.from_directory(
                args.registry, max_resident=args.max_resident,
                matrix_budget_mb=args.matrix_budget_mb,
                executor=args.executor)
        source = f"{args.registry} ({len(service.list())} tenants"
        source += ", qos)" if args.qos else ")"
    else:
        service = DiversityService(
            load_index(args.index, dtype=args.dtype),
            matrix_budget_mb=args.matrix_budget_mb,
            executor=args.executor)
        source = args.index
    server = DiversityServer(service, ServerConfig(
        host=args.host, port=args.port,
        max_queue=args.max_queue, max_batch=args.max_batch,
        drain_timeout_s=args.drain_timeout_s, qos=args.qos))

    async def main() -> None:
        ready = asyncio.Event()
        daemon = asyncio.ensure_future(server.run_until_shutdown(ready=ready))
        await ready.wait()
        host, port = server.address
        print(f"serving {source} on {host}:{port} "
              f"(NDJSON + HTTP; max batch {args.max_batch}, "
              f"queue {args.max_queue}; SIGTERM drains)", flush=True)
        await daemon
        stats = server.stats()["server"]
        print(f"drained: {stats['accepted']} accepted, "
              f"{stats['queries_served']} queries served, "
              f"{stats['rejected_overload']} rejected overloaded, "
              f"{stats['batches_dispatched']} batches "
              f"({stats['batched_requests']} requests coalesced)")

    asyncio.run(main())
    return 0


_COMMANDS = {
    "generate": _generate,
    "run": _run,
    "estimate": _estimate,
    "index": _index,
    "query": _query,
    "refresh": _refresh,
    "registry": _registry,
    "serve": _serve,
}


def render_cli_reference() -> str:
    """Render the Markdown CLI reference generated from the live parsers.

    ``docs/generate_cli.py`` writes this into ``docs/cli.md``;
    ``tests/test_docs.py`` and the CI docs job fail when the committed
    file drifts from the ``argparse`` definitions, so the documented
    ``--help`` text can never go stale.  Output width is pinned so the
    rendering does not depend on the invoking terminal.
    """
    import os

    columns_before = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "79"
    try:
        parser = build_parser()
        sections = [
            "# CLI reference",
            "",
            "<!-- Generated from the argparse definitions by "
            "docs/generate_cli.py; do not edit by hand. "
            "tests/test_docs.py and the CI docs job fail on drift. -->",
            "",
            "Every workflow is reachable as `python -m repro <command>` "
            "(or the installed `repro` entry point). See "
            "[the service guide](service.md) for how the commands fit "
            "together.",
            "",
            "## repro",
            "",
            "```text",
            parser.format_help().rstrip(),
            "```",
        ]
        subparsers = parser._subparsers._group_actions[0].choices  # noqa: SLF001
        for name, subparser in subparsers.items():
            sections += [
                "",
                f"## repro {name}",
                "",
                "```text",
                subparser.format_help().rstrip(),
                "```",
            ]
            if subparser._subparsers is None:  # noqa: SLF001
                continue
            nested = subparser._subparsers._group_actions[0].choices  # noqa: SLF001
            for verb, nested_parser in nested.items():
                sections += [
                    "",
                    f"## repro {name} {verb}",
                    "",
                    "```text",
                    nested_parser.format_help().rstrip(),
                    "```",
                ]
        return "\n".join(sections) + "\n"
    finally:
        if columns_before is None:
            os.environ.pop("COLUMNS", None)
        else:
            os.environ["COLUMNS"] = columns_before


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
