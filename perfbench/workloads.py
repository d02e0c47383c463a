"""The three benchmark workloads: miss-mix, serve-hot and ingest-mix.

Every workload builds the same index — ``sphere_shell(n, 8, dim=3,
seed)``, ``k_max=16``, ``parallelism=4``, static planning — and repeats
one unit of work (a miss-mix pass, an ingest episode) until ``--seconds``
have elapsed, at least ``Scale.repeats`` times; every repeat does the
same operations in the same order.  ``--seconds 0`` runs exactly one
repeat, the fixed amount of work of a traced run.  CPU-bound times are
divided by how much slower than the reference the host ran in the same
window (:mod:`speed`): each set-up, each repeat, the closed loop.
Answers are collected during the timed loop and checked after it.

* **miss-mix** — the solver-bound miss path: an in-process service on
  the serial executor, cold caches, one query per call, every
  ``(objective, k)`` once per pass.
* **serve-hot** — the daemon hot path: ``repro serve`` with CLI
  defaults, one client process on one NDJSON connection, an open loop
  then a closed loop over a hot set that set-up has already answered.
* **ingest-mix** — writes beside reads: a float32 index absorbs a
  drifting stream through ``refresh`` and answers one query per
  objective on every new epoch.
"""

from __future__ import annotations

import json
import math
import os
import re
import resource
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.datasets.synthetic import sphere_shell
from repro.diversity.objectives import list_objectives
from repro.metricspace.points import PointSet
from repro.service.index import build_coreset_index
from repro.service.persist import load_index, save_index
from repro.service.service import DiversityService, Query

from checks import answer_errors
from spans import Span, Tracer
from speed import BURST, Speedometer

HERE = Path(__file__).resolve().parent

PARALLELISM = 4
#: Slack values a miss-mix query draws from; each objective gives every
#: third k the same one, so a pass mixes them in equal parts.
EPSILONS = (1.0, 0.5, 0.2)
#: Hot-set slacks, tighter first: set-up answers eps=0.5 before eps=1,
#: so eps=1 requests routed to a smaller rung are eps-reuse hits.
HOT_EPSILONS = (0.5, 1.0)
ZIPF_EXPONENT = 1.1
#: Share of ``--seconds`` given to serve-hot's open loop; the closed
#: loop gets the rest.  Open-loop latency is set by the batching window
#: and needs few seconds to settle; closed-loop capacity is CPU-bound and
#: gains most from a longer measurement.
OPEN_SHARE = 0.3
#: The closed-loop client probes the host's speed every this many answers.
PROBE_EVERY = 64
#: Serve-hot flags the client as the bottleneck past these.
CLIENT_CPU_LIMIT = 0.8
LATENESS_LIMIT_MS = 5.0


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark configuration."""

    n: int = 200_000
    k_max: int = 16
    miss_k: tuple = tuple(range(2, 17))
    hot_k: tuple = tuple(range(2, 9))
    #: Open-loop rate, well under the ~5k req/s the daemon sustains.
    open_rate: float = 1000.0
    #: Fewest open-loop requests, so at least twenty lie beyond p99.
    open_requests: int = 2000
    #: Closed-loop requests in flight: at least 3 x max_batch (16) and
    #: below max_queue (64), so admission never rejects.
    in_flight: int = 48
    #: Closed-loop requests of a fixed-work (``--seconds 0``) run.
    closed_requests: int = 20_000
    ingest_batch: int = 5000
    #: Rounds per ingest episode: the dataset grows 3.5x, past one
    #: routing-dimension re-estimate (at 2x).
    ingest_rounds: int = 100
    #: Set-ups per run (``setup_s`` is their median); the daemon's
    #: set-up costs several seconds, the others about one.
    setups: int = 5
    serve_setups: int = 3
    #: Fewest repeats of a miss-mix pass or an ingest episode in a timed
    #: run.
    repeats: int = 3


FULL = Scale()
TINY = Scale(n=4000, k_max=8, miss_k=tuple(range(2, 9)),
             hot_k=tuple(range(2, 5)), open_rate=200.0, open_requests=200,
             closed_requests=500, ingest_batch=500, ingest_rounds=10,
             setups=1, serve_setups=1, repeats=2)


@dataclass
class Run:
    """What a workload reports back to the worker process."""

    #: Samples the host's speed for the whole run.
    speed: Speedometer
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    #: Timed wall seconds per unit of work, for the tracing overhead.
    per_op_s: float = 0.0
    setup_windows: list = field(default_factory=list)
    timed_windows: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    #: Spans recorded by other processes (the traced daemon).
    spans: list = field(default_factory=list)
    #: How much slower than the reference the host ran, per window that
    #: :meth:`at_reference` converted.
    slowdowns: list = field(default_factory=list)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)

    def at_reference(self, spans: list[tuple[float, float]]) -> list[float]:
        """The length of each ``(start, end)`` span (``time.monotonic()``)
        at the reference speed: over the host's slowdown around it."""
        slowdowns = [self.speed.factor(lo, hi) for lo, hi in spans]
        if slowdowns:
            self.slowdowns.append(statistics.median(slowdowns))
        return [(hi - lo) / slowdown
                for (lo, hi), slowdown in zip(spans, slowdowns)]

    def setup(self, build, repeats: int, teardown=None):
        """Run *build* *repeats* times; ``setup_s`` is the median, each
        set-up at the reference speed.

        *teardown* releases one set-up's result before the next starts,
        outside the timed set-up.
        """
        durations, raw = [], []
        built = None
        for _ in range(repeats):
            if built is not None and teardown is not None:
                teardown(built)
            self.speed.sample(BURST)
            started = time.monotonic()
            built = build()
            ended = time.monotonic()
            self.speed.sample(BURST)
            self.setup_windows.append((started, ended))
            raw.append(ended - started)
            durations += self.at_reference([(started, ended)])
        self.metrics["setup_s"] = statistics.median(durations)
        self.detail["setup_s_wall"] = statistics.median(raw)
        return built


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _request(tracer: Tracer | None, request_id):
    return tracer.request(request_id) if tracer is not None else nullcontext()


def percentile_ms(samples, q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q) * 1e3)


def repeats(scale: Scale, seconds: float):
    """Yield repeat numbers until *seconds* have passed, at least
    ``scale.repeats`` of them; ``seconds == 0`` yields exactly one."""
    fewest = scale.repeats if seconds > 0 else 1
    started = time.monotonic()
    count = 0
    while count < fewest or time.monotonic() - started < seconds:
        yield count
        count += 1


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def dataset(scale: Scale, seed: int) -> PointSet:
    return sphere_shell(scale.n, 8, dim=3, seed=seed)


def build_index(scale: Scale, seed: int, tracer: Tracer | None,
                dtype: str | None = None):
    points = dataset(scale, seed)
    with _span(tracer, "service.index.build"):
        return build_coreset_index(points, scale.k_max,
                                   parallelism=PARALLELISM, seed=seed,
                                   dtype=dtype)


def new_service(index) -> DiversityService:
    return DiversityService(index, executor="serial", plan="static")


def top_rung_points(index) -> int:
    return max(len(rung.coreset) for rung in index.all_rungs())


#: Where each counter the per-layer metrics read lives in ``stats()``.
STATS_COUNTERS = {
    "matrices.computes": ("matrices", "local", "computes"),
    "matrices.hits": ("matrices", "local", "hits"),
    "matrices.recomputes": ("matrices", "local", "recomputes"),
    "cache.hits": ("caches", "results", "hits"),
    "cache.misses": ("caches", "results", "misses"),
    "cache.eps_hits": ("counters", "eps_hits"),
    "server.rejected_overload": ("server", "rejected_overload"),
    "server.rejected_draining": ("server", "rejected_draining"),
}


def _read(stats: dict, path: tuple):
    for key in path:
        if key not in stats:  # an in-process service has no server block
            return 0
        stats = stats[key]
    return stats


def stats_moved(after: dict, before: dict | None = None) -> Counter:
    """How far each counter of :data:`STATS_COUNTERS` moved between two
    ``stats()`` reads; a fresh in-process service starts from zero."""
    return Counter({name: _read(after, path) - (_read(before, path)
                                                if before else 0)
                    for name, path in STATS_COUNTERS.items()})


def service_counters(moved: Counter, resident_bytes: int) -> dict:
    """The per-layer counters, from the sum of :func:`stats_moved`."""
    lookups = moved["cache.hits"] + moved["cache.misses"]
    return {
        "matrices.computes": moved["matrices.computes"],
        "matrices.hits": moved["matrices.hits"],
        "matrices.recomputes": moved["matrices.recomputes"],
        "matrices.resident_mb": resident_bytes / 2**20,
        "cache.hit_rate": moved["cache.hits"] / lookups if lookups else 0.0,
        "cache.eps_hits": moved["cache.eps_hits"],
        "server.rejected": (moved["server.rejected_overload"]
                            + moved["server.rejected_draining"]),
    }


def resident_bytes(stats: dict) -> int:
    return stats["matrices"]["local"]["resident_bytes"]


# -- miss-mix ------------------------------------------------------------------

def miss_queries(scale: Scale, seed: int) -> list[Query]:
    """One miss-mix pass: every ``(objective, k)`` once, in seeded order.

    Each objective gives eps 1, 0.5 and 0.2 to every third k, from a
    seeded offset, so every pass mixes the three slacks in equal parts.
    """
    rng = np.random.default_rng(seed)
    queries = []
    for objective in list_objectives():
        offset = int(rng.integers(len(EPSILONS)))
        queries += [Query(objective, k,
                          EPSILONS[(k + offset) % len(EPSILONS)])
                    for k in scale.miss_k]
    return [queries[i] for i in rng.permutation(len(queries))]


def miss_mix(scale: Scale, seed: int, seconds: float, speed: Speedometer,
             tracer: Tracer | None, workdir: Path) -> Run:
    """Closed loop of cache-missing queries on fresh in-process services."""
    run = Run(speed)
    index = run.setup(lambda: build_index(scale, seed, tracer), scale.setups)
    queries = miss_queries(scale, seed)
    latencies: list[float] = []
    wall_latencies: list[float] = []
    answered: list[tuple[Query, object]] = []
    moved = Counter()
    resident = 0
    started = time.monotonic()
    for repeat in repeats(scale, seconds):
        # A fresh service per pass: its result and matrix caches start
        # cold, so every query misses, and every pass does the same work.
        service = new_service(index)
        spans = []
        for i, query in enumerate(queries):
            run.attempted += 1
            speed.sample()
            began = time.monotonic()
            try:
                with _request(tracer, (repeat, i)):
                    result = service.query_batch([query])[0]
            except Exception as exc:  # counted, the loop goes on
                run.fail(f"{query}: {exc!r}")
                continue
            spans.append((began, time.monotonic()))
            answered.append((query, result))
        wall_latencies += [end - start for start, end in spans]
        latencies += run.at_reference(spans)
        stats = service.stats()
        moved.update(stats_moved(stats))
        resident = max(resident, resident_bytes(stats))
        if stats["counters"]["build_calls"] != 0:
            run.fail("a query rebuilt the index (build_calls != 0)")
    ended = time.monotonic()
    run.timed_windows.append((started, ended))
    wall = ended - started
    for query, result in answered:
        for error in answer_errors(result, query.k):
            run.fail(error)
        if result.cached or result.eps_hit:
            run.fail(f"{query}: answered from cache on the miss path")
    # One query per call and no think time: qps is one over the mean.
    qps = len(latencies) / sum(latencies)
    run.per_op_s = wall / max(len(answered), 1)
    run.metrics.update({
        "peak_rss_mb": own_peak_rss_mb(),
        "throughput": qps,
        "p50_ms": percentile_ms(latencies, 50),
        "tail_ms": percentile_ms(latencies, 90),
    })
    run.detail.update({
        "qps": qps, "p50_ms": run.metrics["p50_ms"],
        "p90_ms": run.metrics["tail_ms"],
        "queries_per_pass": len(queries), "passes": repeat + 1,
        "timed_s": wall,
        "wall": {"qps": len(answered) / wall,
                 "p50_ms": percentile_ms(wall_latencies, 50),
                 "p90_ms": percentile_ms(wall_latencies, 90)},
        "slowdown": run.slowdowns,
        "top_rung_points": top_rung_points(index)})
    run.counters = {**service_counters(moved, resident),
                    "index.top_rung_points": top_rung_points(index)}
    return run


# -- serve-hot -----------------------------------------------------------------

_READY = re.compile(r" on ([^ ]+):(\d+) \(")


class Daemon:
    """One ``repro serve`` process and the client's connection to it."""

    def __init__(self, index_path: Path, workdir: Path, number: int,
                 trace_out: Path | None):
        serve = ["serve", "--index", str(index_path), "--port", "0"]
        if trace_out is None:
            command = [sys.executable, "-m", "repro", *serve]
        else:
            command = [sys.executable, str(HERE / "daemon.py"),
                       str(trace_out), *serve]
        self.trace_out = trace_out
        self.number = number
        self.stderr_path = workdir / f"daemon-{number}.err"
        with open(self.stderr_path, "w") as stderr:
            self.proc = subprocess.Popen(command, cwd=workdir,
                                         stdout=subprocess.PIPE,
                                         stderr=stderr, text=True)
        self.sock = None
        line = self.proc.stdout.readline()
        match = _READY.search(line)
        if match is None:
            self.kill()
            raise RuntimeError(f"daemon did not start: {line!r} "
                               f"{self.stderr_path.read_text()[-2000:]}")
        self.sock = socket.create_connection((match.group(1),
                                              int(match.group(2))),
                                             timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def receive(self) -> dict:
        line = self.reader.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return json.loads(line)

    def call(self, data: bytes) -> dict:
        self.send(data)
        return self.receive()

    def stats(self) -> dict:
        return self.call(b'{"v": 1, "id": "stats", "kind": "stats"}\n')["stats"]

    def cpu_seconds(self) -> float:
        """User + system CPU the daemon has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self, run: Run) -> list[Span]:
        """SIGTERM drain; a non-zero exit is a failed operation."""
        if self.sock is not None:
            self.reader.close()
            self.sock.close()
        self.proc.send_signal(signal.SIGTERM)
        run.attempted += 1
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            run.fail("daemon did not drain within 60 s of SIGTERM")
            return []
        if self.proc.returncode != 0:
            run.fail(f"daemon exited {self.proc.returncode}: "
                     f"{self.stderr_path.read_text()[-2000:]}")
        if self.trace_out is None or not self.trace_out.exists():
            return []
        # Each process numbers its spans from 0: shift the daemon's ids
        # clear of the client's and of the other daemons'.
        offset = (self.number + 1) * 10**9
        spans = [Span.from_row(row)
                 for row in json.loads(self.trace_out.read_text())]
        for span in spans:
            span.id += offset
            if span.parent is not None:
                span.parent += offset
        return spans

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _request_lines(queries: list[Query]) -> list[str]:
    """Per query, an NDJSON request line with a ``%d`` slot for its id."""
    return [json.dumps({"v": 1, "kind": "query",
                        "queries": [query.to_dict()]})[:-1] + ', "id": %d}\n'
            for query in queries]


class _Tally:
    """Successful responses per hot query, reduced to what the checks need."""

    def __init__(self, size: int):
        self.seen = [Counter() for _ in range(size)]

    def add(self, run: Run, hot_index: int, response: dict) -> None:
        if not response.get("ok"):
            run.fail(f"request {response.get('id')}: {response.get('error')}")
        elif len(response["results"]) != 1:
            run.fail(f"request {response['id']}: "
                     f"{len(response['results'])} results")
        else:
            result = response["results"][0]
            self.seen[hot_index][(result["cached"], result["value"],
                                  tuple(result["indices"]))] += 1


def _zipf_picks(rng: np.random.Generator, size: int, count: int) -> np.ndarray:
    """*count* hot-set indices drawn by *rng*, Zipf-skewed by popularity.

    The popularity order is the same on every run: a seeded order would
    change the request mix (how many eps-reuse hits, how large the
    answers) and with it the cost per request, from seed to seed.
    """
    popularity = np.random.default_rng(0).permutation(size)
    weights = 1.0 / np.arange(1, size + 1) ** ZIPF_EXPONENT
    return popularity[rng.choice(size, size=count, p=weights / weights.sum())]


def _open_loop(daemon: Daemon, lines: list[str], picks: np.ndarray,
               rate: float, first_id: int, tally: _Tally, run: Run) -> dict:
    """Send on a fixed schedule; latency runs from each due time."""
    count = len(picks)
    due = np.zeros(count)
    sent = np.zeros(count)
    received = np.full(count, np.nan)

    def receive_all() -> None:
        try:
            for _ in range(count):
                response = daemon.receive()
                now = time.perf_counter()
                slot = response["id"] - first_id
                received[slot] = now
                tally.add(run, int(picks[slot]), response)
        except Exception as exc:  # unanswered requests are counted below
            run.fail(f"open loop receive: {exc!r}")

    receiver = threading.Thread(target=receive_all, name="open-loop-recv")
    receiver.start()
    cpu0, daemon_cpu0 = time.process_time(), daemon.cpu_seconds()
    started = time.perf_counter() + 0.01
    for i in range(count):
        due[i] = started + i / rate
        delay = due[i] - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent[i] = time.perf_counter()
        daemon.send((lines[picks[i]] % (first_id + i)).encode())
    receiver.join(timeout=120)
    wall = time.perf_counter() - started
    answered = ~np.isnan(received)
    missing = count - int(answered.sum())
    if missing:
        run.fail(f"open loop: {missing} requests never answered", missing)
    latency = (received - due)[answered]
    lateness = sent - due
    return {
        "requests": count, "rate": rate, "samples": int(answered.sum()),
        "p50_ms": percentile_ms(latency, 50),
        "p90_ms": percentile_ms(latency, 90),
        "p99_ms": percentile_ms(latency, 99),
        "client_cpu_share": (time.process_time() - cpu0) / wall,
        "daemon_cpu_share": (daemon.cpu_seconds() - daemon_cpu0) / wall,
        "late_p99_ms": percentile_ms(lateness, 99),
        "late_max_ms": float(lateness.max() * 1e3),
    }


def _closed_loop(daemon: Daemon, lines: list[str], picks: np.ndarray,
                 in_flight: int, duration: float, limit: int, first_id: int,
                 tally: _Tally, run: Run) -> dict:
    """Hold *in_flight* requests outstanding until *duration* seconds
    have passed or *limit* requests have been sent.

    ``rps`` counts the answers while the loop was full, over that time
    at the reference speed; ``rps_wall`` over the wall-clock time.
    """
    cpu0, daemon_cpu0 = time.process_time(), daemon.cpu_seconds()
    started = time.monotonic()
    deadline = started + duration
    sent = answered = 0
    gaps = []
    for _ in range(in_flight):
        daemon.send((lines[picks[sent % len(picks)]] % (first_id + sent))
                    .encode())
        sent += 1
    full_until = None
    while answered < sent:
        try:
            response = daemon.receive()
        except (ConnectionError, OSError, ValueError) as exc:
            run.fail(f"closed loop receive: {exc!r}", sent - answered)
            break
        now = time.monotonic()
        answered += 1
        tally.add(run, int(picks[(response["id"] - first_id) % len(picks)]),
                  response)
        if full_until is None and (now >= deadline or sent >= limit):
            full_until, full_answers = now, answered
        if full_until is None and answered % PROBE_EVERY == 0:
            # The other requests in flight keep the daemon busy meanwhile.
            run.speed.sample()
        if full_until is None:
            daemon.send((lines[picks[sent % len(picks)]] % (first_id + sent))
                        .encode())
            sent += 1
            gaps.append(time.monotonic() - now)
    wall = time.monotonic() - started
    if full_until is None:  # the connection failed first
        full_until, full_answers = started + wall, answered
    full_until = max(full_until, started + 1e-9)
    return {
        "requests": sent,
        "rps": full_answers / run.at_reference([(started, full_until)])[0],
        "rps_wall": full_answers / (full_until - started),
        "in_flight": in_flight,
        "client_cpu_share": (time.process_time() - cpu0) / wall,
        "daemon_cpu_share": (daemon.cpu_seconds() - daemon_cpu0) / wall,
        "late_p99_ms": percentile_ms(gaps, 99) if gaps else 0.0,
        "late_max_ms": float(max(gaps) * 1e3) if gaps else 0.0,
    }


def _client_bound(phase: dict, *, closed: bool) -> bool:
    """Whether the load generator, not the daemon, set this phase's pace.

    It did when it ran late against its schedule or kept its own CPU
    busy; in the closed loop also when it used more CPU than the daemon,
    which a daemon-bound loop never lets happen.
    """
    return (phase["client_cpu_share"] > CLIENT_CPU_LIMIT
            or phase["late_p99_ms"] > LATENESS_LIMIT_MS
            or (closed and phase["client_cpu_share"]
                >= phase["daemon_cpu_share"]))


def serve_hot(scale: Scale, seed: int, seconds: float, speed: Speedometer,
              tracer: Tracer | None, workdir: Path) -> Run:
    """Open then closed loop against a warmed ``repro serve`` daemon."""
    run = Run(speed)
    hot = [Query(objective, k, eps) for eps in HOT_EPSILONS
           for objective in list_objectives() for k in scale.hot_k]
    lines = _request_lines(hot)
    tally = _Tally(len(hot))
    warm = _Tally(len(hot))
    daemons: list[Daemon] = []
    index_path = workdir / "index"

    def set_up() -> Daemon:
        index = build_index(scale, seed, tracer)
        with _span(tracer, "service.persist.save"):
            save_index(index, index_path)
        number = len(daemons)
        trace_out = (workdir / f"daemon-{number}.spans.json"
                     if tracer is not None else None)
        daemon = Daemon(index_path, workdir, number, trace_out)
        daemons.append(daemon)
        for i in range(len(hot)):
            run.attempted += 1
            warm.add(run, i, daemon.call((lines[i] % i).encode()))
        run.counters["index.top_rung_points"] = top_rung_points(index)
        return daemon

    spans: list[Span] = []
    try:
        daemon = run.setup(set_up, scale.serve_setups,
                           teardown=lambda old: spans.extend(old.stop(run)))
        rng = np.random.default_rng(seed)
        # A timed run splits --seconds between the loops; a fixed-work
        # run (seconds == 0) sends set numbers of requests instead.
        open_s = seconds * OPEN_SHARE
        open_picks = _zipf_picks(rng, len(hot),
                                 max(int(scale.open_rate * open_s),
                                     scale.open_requests))
        closed_picks = _zipf_picks(rng, len(hot), 1 << 16)
        before = daemon.stats()
        started = time.monotonic()
        opened = _open_loop(daemon, lines, open_picks, scale.open_rate,
                            1_000_000, tally, run)
        middle = time.monotonic()
        closed = _closed_loop(
            daemon, lines, closed_picks, scale.in_flight,
            seconds - open_s if seconds else math.inf,
            scale.closed_requests if not seconds else math.inf,
            10_000_000, tally, run)
        ended = time.monotonic()
        run.timed_windows += [(started, middle), (middle, ended)]
        run.attempted += opened["requests"] + closed["requests"]
        after = daemon.stats()
        peak_rss = daemon.peak_rss_mb()
    finally:
        if daemons:
            spans.extend(daemons[-1].stop(run))
    run.spans = spans
    run.counters.update(service_counters(stats_moved(after, before),
                                         resident_bytes(after)))
    if run.counters["server.rejected"]:
        run.fail(f"{run.counters['server.rejected']} requests rejected "
                 f"by admission")
    _check_against_oracle(run, index_path, hot, warm, tally)
    run.per_op_s = 1.0 / closed["rps_wall"]
    # The open-loop latencies are set by the 20 ms batch window, not by
    # the host's speed, and are reported as measured.
    run.metrics.update({
        "peak_rss_mb": peak_rss,
        "throughput": closed["rps"],
        "p50_ms": opened["p50_ms"],
        "tail_ms": opened["p99_ms"],
    })
    run.detail.update({
        "rps": closed["rps"], "p50_ms": opened["p50_ms"],
        "p90_ms": opened["p90_ms"], "p99_ms": opened["p99_ms"],
        "open_loop": opened, "closed_loop": closed,
        "client_bound": {"open_loop": _client_bound(opened, closed=False),
                         "closed_loop": _client_bound(closed, closed=True)},
        "slowdown": run.slowdowns,
    })
    return run


def _check_against_oracle(run: Run, index_path: Path, hot: list[Query],
                          warm: _Tally, tally: _Tally) -> None:
    """Every response must match an in-process ``query_batch`` oracle.

    The oracle loads the same persisted index and answers the hot set in
    set-up's order, so its eps=1 answers are the same eps-reuse hits the
    daemon served.  Timed responses must also be cache hits.
    """
    service = new_service(load_index(index_path))
    oracle = [service.query_batch([query])[0] for query in hot]
    for query, answer in zip(hot, oracle):
        for error in answer_errors(answer, query.k):
            run.fail(error)
    for seen, timed in ((warm.seen, False), (tally.seen, True)):
        for query, answer, responses in zip(hot, oracle, seen):
            expected = (answer.value, tuple(answer.indices.tolist()))
            for (cached, value, indices), count in responses.items():
                if (value, indices) != expected:
                    run.fail(f"{query}: daemon answered {value!r} "
                             f"{list(indices)}, in-process {expected}", count)
                elif timed and not cached:
                    run.fail(f"{query}: timed request missed the cache",
                             count)


# -- ingest-mix ----------------------------------------------------------------

def drifting_stream(seed: int, rounds: int, size: int) -> list[PointSet]:
    """Fresh sphere-shell batches whose centre drifts a little each round."""
    rng = np.random.default_rng([seed, 1])
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    return [PointSet((sphere_shell(size, 8, dim=3,
                                   seed=np.random.default_rng([seed, 2, r]))
                      .points + 0.01 * r * direction).astype(np.float32))
            for r in range(1, rounds + 1)]


def ingest_mix(scale: Scale, seed: int, seconds: float, speed: Speedometer,
               tracer: Tracer | None, workdir: Path) -> Run:
    """Refresh rounds on a float32 index, each followed by fresh reads."""
    run = Run(speed)
    queries = [Query(objective, 4, 1.0) for objective in list_objectives()]

    def set_up():
        index = build_index(scale, seed, tracer, dtype="float32")
        service = new_service(index)
        for query in queries:
            service.query_batch([query])
        return index

    index = run.setup(set_up, scale.setups)
    stream = drifting_stream(seed, scale.ingest_rounds, scale.ingest_batch)
    refresh_s: list[float] = []
    round_s: list[float] = []
    wall_round_s: list[float] = []
    wall_refresh_s = 0.0
    absorbed = 0
    answers: list[tuple[int, Query, object]] = []
    moved = Counter()
    resident = reestimates = 0
    started = time.monotonic()
    # Every episode starts from the built index and replays the stream.
    for episode in repeats(scale, seconds):
        service = new_service(index)
        refreshes, rounds = [], []
        for epoch, batch in enumerate(stream, start=1):
            run.attempted += 1
            speed.sample()
            began = time.monotonic()
            try:
                with _request(tracer, (episode, epoch)):
                    service.refresh(batch)
            except Exception as exc:  # counted, the episode goes on
                run.fail(f"refresh {epoch}: {exc!r}")
                continue
            refreshed = time.monotonic()
            for query in queries:
                run.attempted += 1
                try:
                    with _request(tracer, (episode, epoch)):
                        answers.append((epoch, query,
                                        service.query_batch([query])[0]))
                except Exception as exc:  # counted, the round goes on
                    run.fail(f"{query} at epoch {epoch}: {exc!r}")
            rounds.append((began, time.monotonic()))
            refreshes.append((began, refreshed))
            absorbed += len(batch)
        wall_round_s += [end - start for start, end in rounds]
        wall_refresh_s += sum(end - start for start, end in refreshes)
        round_s += run.at_reference(rounds)
        refresh_s += run.at_reference(refreshes)
        stats = service.stats()
        moved.update(stats_moved(stats))
        resident = max(resident, resident_bytes(stats))
        reestimates += len(service.index.extra.get("dimension_reestimates",
                                                   []))
    ended = time.monotonic()
    run.timed_windows.append((started, ended))
    for epoch, query, result in answers:
        if result.epoch != epoch:
            run.fail(f"{query}: answered on epoch {result.epoch}, "
                     f"refresh made epoch {epoch}")
        for error in answer_errors(result, query.k):
            run.fail(error)
    points_per_s = absorbed / sum(refresh_s)
    run.per_op_s = (ended - started) / max(len(round_s), 1)
    run.metrics.update({
        "peak_rss_mb": own_peak_rss_mb(),
        "throughput": points_per_s,
        "p50_ms": percentile_ms(round_s, 50),
        "tail_ms": percentile_ms(round_s, 90),
    })
    run.detail.update({
        "ingest_pts_s": points_per_s, "p50_ms": run.metrics["p50_ms"],
        "p90_ms": run.metrics["tail_ms"],
        "rounds_per_episode": len(stream), "episodes": episode + 1,
        "batch": scale.ingest_batch, "timed_s": ended - started,
        "wall": {"ingest_pts_s": absorbed / wall_refresh_s,
                 "p50_ms": percentile_ms(wall_round_s, 50),
                 "p90_ms": percentile_ms(wall_round_s, 90)},
        "refresh_share": sum(refresh_s) / sum(round_s),
        "slowdown": run.slowdowns,
        "dimension_reestimates": reestimates})
    run.counters = {**service_counters(moved, resident),
                    "index.top_rung_points": top_rung_points(index),
                    "index.dimension_reestimates": reestimates}
    return run


WORKLOADS = {"miss-mix": miss_mix, "serve-hot": serve_hot,
             "ingest-mix": ingest_mix}
