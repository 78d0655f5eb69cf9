"""The benchmark's three workloads, driven through the public ``repro`` API.

Each workload makes its inputs from the seed and its operation count
alone (the constructor) and builds the grep oracle (:meth:`prepare`),
both before set-up so that what the benchmark holds is resident before
the program's memory is measured. It then sets up a fresh store
(:meth:`setup`, timed as ``setup_s``), runs ``ops`` operations of a
deterministic sequence (:meth:`run`), sampling the host's speed before
each operation, and checks every answer against the oracle. The oracle mines its own copy of the query pool with the
same seed, and each run checks that the set-up mined the same one. ``ops_per_s`` is about how many operations
the host the benchmark was defined on runs per second, so ``--seconds``
of work is ``seconds * ops_per_s`` operations. See ``DESIGN.md`` for
why each workload exists.
"""

from __future__ import annotations

import dataclasses
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from typing import Optional

from repro.baselines.grep import grep_lines
from repro.datasets.synthetic import generator_for
from repro.obs.journal import QueryJournal
from repro.obs.slo import SLOMonitor, default_slos
from repro.service import (
    QueryService,
    estimate_capacity,
    make_tenants,
    open_loop_requests,
    query_pool,
)
from repro.service.request import Outcome
from repro.stream import StandingQuery, StandingQueryRegistry, Threshold, WindowSpec
from repro.system.mithrilog import MithriLogSystem
from repro.system.streaming import StreamingIngestor

from perfbench.stats import HostSpeed, latency_summary

DATASET = "Liberty2"
#: Seed of the store and query pool that ``explore`` and ``service``
#: serve: the generator's default corpus. Their ``--seed`` drives what
#: users send (query order and top-k picks; arrivals, tenants and
#: queries), because per-seed stores differ in cost by 10-20% (bursty
#: templates), more than a regression bound can absorb.
DEPLOYMENT_SEED = 2021


@dataclass
class Run:
    """What one timed (or traced) phase did."""

    attempted: int = 0  #: flushes, queries or requests
    failures: list = field(default_factory=list)
    wall_s: float = 0.0  #: host time of the operations, without speed samples
    speed: HostSpeed = field(default_factory=HostSpeed)
    op_s: list = field(default_factory=list)  #: host seconds per operation
    #: the host speed factor sampled just before each ``op_s`` entry
    op_factor: list = field(default_factory=list)
    work: int = 0  #: lines appended, queries answered or requests answered
    extra: dict = field(default_factory=dict)


def _pool_check(pool, texts: list[str]) -> list[str]:
    if [str(query) for query in pool] != texts:
        return ["the set-up mined another query pool than the oracle's"]
    return []


def _cache_counters(system: MithriLogSystem) -> tuple[int, int, int]:
    cache = system.page_cache
    return cache.hits, cache.misses, cache.evictions


def _cache_delta(before, after) -> dict:
    return {
        "cache_hits": after[0] - before[0],
        "cache_misses": after[1] - before[1],
        "cache_evictions": after[2] - before[2],
    }


# ---------------------------------------------------------------------------
# stream: ingest line by line with standing queries attached
# ---------------------------------------------------------------------------


class StreamWorkload:
    """One producer appending Liberty2 lines as fast as ``append`` returns."""

    name = "stream"
    ops_per_s = 12.0  #: flushes
    batch_lines = 512  #: the StreamingIngestor default
    pool_lines = 20_000  #: prefix the standing queries are mined from
    standing = 4
    params = {
        "dataset": DATASET, "batch_lines": batch_lines,
        "pool_lines": pool_lines, "standing_queries": standing,
        "standing_picks": "pool ranks 0, n/4, n/2, 3n/4",
        "threshold": "count >= 64 over a 5 ms sliding window",
    }

    def __init__(self, seed: int, ops: int) -> None:
        self.seed = seed
        self.ops = ops
        self.lines: list[bytes] = list(
            generator_for(DATASET, seed=seed).iter_lines(
                max(self.pool_lines, ops * self.batch_lines)
            )
        )
        self.oracle: dict[str, int] = {}  #: standing query -> count

    def _standing_queries(self) -> list:
        pool = query_pool(self.lines[: self.pool_lines], seed=self.seed)
        # evenly spaced ranks of the frequency-ordered pool, so every
        # seed watches a similar spread of broad and narrow templates
        step = len(pool) // self.standing
        return pool[: step * self.standing : step]

    def prepare(self) -> None:
        """Each standing query's oracle count over the lines appended."""
        appended = self.lines[: self.ops * self.batch_lines]
        self.oracle = {
            str(query): sum(map(query.matches_line, appended))
            for query in self._standing_queries()
        }

    def setup(self):
        system = MithriLogSystem(seed=self.seed)
        ingestor = StreamingIngestor(system, batch_lines=self.batch_lines)
        registry = StandingQueryRegistry(system)
        for i, query in enumerate(self._standing_queries()):
            registry.register(
                StandingQuery(
                    name=f"standing{i}",
                    query=query,
                    window=WindowSpec(kind="sliding", width_s=0.005),
                    threshold=Threshold(value=64) if i == 0 else None,
                )
            )
        registry.attach(ingestor)
        return system, ingestor, registry

    def run(self, state, tracer=None) -> Run:
        """Append ``ops`` batches; the append that fills one flushes it."""
        system, ingestor, registry = state
        clock = time.perf_counter
        batch = self.batch_lines
        ops = self.ops
        run = Run()
        before = _cache_counters(system)
        start = clock()
        for b in range(0, ops * batch, batch):
            for line in self.lines[b:b + batch - 1]:
                ingestor.append(line)
            if tracer is not None:
                tracer.op = len(run.op_s)
            factor = run.speed.sample()
            t0 = clock()
            ingestor.append(self.lines[b + batch - 1])
            run.op_s.append(clock() - t0)
            run.op_factor.append(factor)
        run.wall_s = clock() - start - run.speed.spent_s
        run.attempted = ops
        run.work = ops * batch
        run.extra = _cache_delta(before, _cache_counters(system))
        if ingestor.pending_lines:
            run.failures.append(
                f"{ingestor.pending_lines} lines left unflushed"
            )
        run.failures += _pool_check(
            [standing.query for standing in registry.standing],
            list(self.oracle),
        )
        for standing in registry.standing:
            got = registry.aggregator(standing.name).matches_total
            want = self.oracle.get(str(standing.query))
            if got != want:
                run.failures.append(
                    f"{standing.name}: {got} cumulative matches, "
                    f"oracle {want}"
                )
        return run

    def report(self, state, run: Run) -> dict:
        system = state[0]
        fed_bytes = sum(len(line) + 1 for line in self.lines[: run.work])
        pages, _ = system.device.fetch_pages(system.index.data_pages)
        out = latency_summary("flush", run.op_s)
        out.update(
            ingest_mb_per_s=fed_bytes / run.wall_s / 1e6,
            stored_bytes_per_input_byte=sum(len(p) for p in pages) / fed_bytes,
            lines=run.work,
            pages=len(pages),
            latency_p95_ms=out["flush_p95_ms"],
        )
        return out


# ---------------------------------------------------------------------------
# explore: one analyst running template queries against a static store
# ---------------------------------------------------------------------------


class ExploreWorkload:
    """Closed-loop template queries, three quarters exact, a quarter top-k."""

    name = "explore"
    ops_per_s = 19.0  #: queries
    store_lines = 20_000
    pool_size = 32  #: the query_pool default
    topk = 50
    params = {
        "dataset": DATASET, "store_lines": store_lines, "pool": pool_size,
        "store_and_pool_seed": DEPLOYMENT_SEED,
        "topk_limit": topk, "topk_share": "11 of 43 per cycle",
    }

    def __init__(self, seed: int, ops: int) -> None:
        self.seed = seed
        self.ops = ops
        self.lines = generator_for(DATASET, seed=DEPLOYMENT_SEED).generate(
            self.store_lines
        )
        self.pool_texts: list[str] = []
        self.oracle: list[list[bytes]] = []
        self._oracle_counts: list[Counter] = []

    def setup(self):
        system = MithriLogSystem(seed=DEPLOYMENT_SEED)
        system.ingest(self.lines)
        pool = query_pool(
            self.lines, max_queries=self.pool_size, seed=DEPLOYMENT_SEED
        )
        for query in pool:  # warm-up: one pass over the pool
            system.query(query, workers=1)
        return system, pool

    def prepare(self) -> None:
        pool = query_pool(
            self.lines, max_queries=self.pool_size, seed=DEPLOYMENT_SEED
        )
        self.pool_texts = [str(q) for q in pool]
        self.oracle = [grep_lines(q, self.lines) for q in pool]
        self._oracle_counts = [Counter(lines) for lines in self.oracle]

    def sequence(self, pool_size: int):
        """Endless seeded cycles: every pool query exact once, plus a
        seeded third of them as top-k, shuffled together."""
        rng = random.Random(self.seed)
        topk_per_cycle = round(pool_size / 3)
        while True:
            ops = [(i, False) for i in range(pool_size)]
            ops += [(i, True) for i in rng.sample(range(pool_size), topk_per_cycle)]
            rng.shuffle(ops)
            yield from ops

    def run(self, state, tracer=None) -> Run:
        system, pool = state
        clock = time.perf_counter
        run = Run(failures=_pool_check(pool, self.pool_texts))
        topk_s = []
        before = _cache_counters(system)
        sequence = islice(self.sequence(len(pool)), self.ops)
        for n, (i, topk) in enumerate(sequence):
            if tracer is not None:
                tracer.op = n
            factor = run.speed.sample()
            t0 = clock()
            if topk:
                outcome = system.query(
                    pool[i], limit=self.topk, newest_first=True, workers=1
                )
            else:
                outcome = system.query(pool[i], workers=1)
            dt = clock() - t0
            run.wall_s += dt
            if topk:
                topk_s.append(dt)
            else:
                run.op_s.append(dt)
                run.op_factor.append(factor)
            error = self._check(i, topk, outcome.matched_lines)
            if error:
                run.failures.append(f"op {n} ({pool[i]}): {error}")
        run.attempted = run.work = self.ops
        run.extra = _cache_delta(before, _cache_counters(system))
        run.extra["topk_s"] = topk_s
        return run

    def _check(self, i: int, topk: bool, got: list[bytes]) -> str:
        want = self.oracle[i]
        if not topk:
            return "" if got == want else f"{len(got)} lines, oracle {len(want)}"
        if len(got) != min(self.topk, len(want)):
            return f"top-k returned {len(got)} lines, oracle has {len(want)}"
        if Counter(got) - self._oracle_counts[i]:
            return "top-k returned lines the oracle does not match"
        return ""

    def report(self, state, run: Run) -> dict:
        out = latency_summary("query", run.op_s)
        out.update(latency_summary("topk", run.extra["topk_s"]))
        out["latency_p95_ms"] = out["query_p95_ms"]
        return out


# ---------------------------------------------------------------------------
# service: fixed-rate open-loop traffic through the multi-tenant service
# ---------------------------------------------------------------------------


class _TimedBackend:
    """The service's backend, timing the ``query`` of each pass.

    ``QueryService`` runs every pass as one ``backend.query`` call; this
    stand-in forwards everything to the system, samples the host's speed
    before each pass and records each pass's host time. When tracing, it
    starts a new operation id per pass.
    """

    def __init__(self, system: MithriLogSystem, speed: HostSpeed,
                 tracer=None) -> None:
        self._system = system
        self.speed = speed
        self.tracer = tracer
        self.pass_s: list[float] = []
        self.pass_factor: list[float] = []

    def __getattr__(self, name: str):
        return getattr(self._system, name)

    def query(self, *queries, **kwargs):
        if self.tracer is not None:
            self.tracer.op = len(self.pass_s)
        factor = self.speed.sample()
        t0 = time.perf_counter()
        result = self._system.query(*queries, **kwargs)
        self.pass_s.append(time.perf_counter() - t0)
        self.pass_factor.append(factor)
        return result


class ServiceWorkload:
    """Poisson arrivals at a constant 55k simulated q/s, one open loop."""

    name = "service"
    ops_per_s = 65.0  #: requests
    store_lines = 4_000
    pool_size = 16
    offered_qps = 55_000.0  #: ~1.5x the measured capacity; a constant
    sampled_share = 0.25  #: requests that opt into sampled degrade
    sample_fraction = 0.25
    params = {
        "dataset": DATASET, "store_lines": store_lines, "pool": pool_size,
        "store_and_pool_seed": DEPLOYMENT_SEED, "tenants": 3,
        "offered_qps": offered_qps, "max_batch": 8, "max_backlog": 32,
        "use_index": False,
        "sampled_share": sampled_share, "sample_fraction": sample_fraction,
    }

    def __init__(self, seed: int, ops: int) -> None:
        self.seed = seed
        self.ops = ops
        self.lines = generator_for(DATASET, seed=DEPLOYMENT_SEED).generate(
            self.store_lines
        )
        self.tenants = make_tenants(3)
        self.oracle: dict[str, int] = {}
        self.signature: Optional[tuple] = None  #: outcomes of the first run

    def _service(self, system, journal=None, monitor=None) -> QueryService:
        return QueryService(
            system, self.tenants, max_batch=8, max_backlog=32,
            use_index=False, journal=journal, monitor=monitor,
        )

    def setup(self):
        system = MithriLogSystem(seed=DEPLOYMENT_SEED)
        system.ingest(self.lines)
        pool = query_pool(
            self.lines, max_queries=self.pool_size, seed=DEPLOYMENT_SEED
        )
        journal = QueryJournal()
        service = self._service(
            system, journal=journal, monitor=SLOMonitor(default_slos())
        )
        for start in range(0, len(pool), 8):  # warm-up: one pass per batch
            system.query(*pool[start:start + 8], use_index=False, workers=1)
        return system, pool, service, journal

    def prepare(self) -> None:
        pool = query_pool(
            self.lines, max_queries=self.pool_size, seed=DEPLOYMENT_SEED
        )
        self.oracle = {str(q): len(grep_lines(q, self.lines)) for q in pool}

    def _requests(self, pool) -> list:
        """The first ``ops`` arrivals of the traffic."""
        # arrivals are drawn in order, so a longer draw extends a shorter one
        duration_s = 1.2 * self.ops / self.offered_qps
        while True:
            requests = open_loop_requests(
                pool, self.tenants, offered_qps=self.offered_qps,
                duration_s=duration_s, seed=self.seed,
            )
            if len(requests) >= self.ops:
                break
            duration_s *= 2
        requests = requests[: self.ops]
        rng = random.Random(self.seed)
        return [
            dataclasses.replace(r, sample_fraction=self.sample_fraction)
            if rng.random() < self.sampled_share else r
            for r in requests
        ]

    def run(self, state, tracer=None) -> Run:
        system, pool, service, journal = state
        run = Run(failures=_pool_check(pool, list(self.oracle)))
        requests = self._requests(pool)
        clock = time.perf_counter
        service.backend = backend = _TimedBackend(system, run.speed, tracer)
        before = _cache_counters(system)
        start = clock()
        report = service.run(requests, workers=1)
        run.wall_s = clock() - start - run.speed.spent_s
        run.op_s = backend.pass_s
        run.op_factor = backend.pass_factor
        run.attempted = report.submitted
        # answered, not submitted: shed requests cost almost nothing, so
        # counting them would reward a slower service that sheds more
        run.work = sum(1 for r in report.responses if r.answered)
        outcomes = report.outcome_counts()
        run.extra = _cache_delta(before, _cache_counters(system))
        run.extra.update(
            report=report,
            outcomes=outcomes,
            passes=report.passes,
            shed=outcomes[Outcome.SHED.value],
            approximated=outcomes[Outcome.APPROXIMATED.value],
            queue_waits_s=[
                r.queue_time_s for r in report.responses if r.answered
            ],
        )
        run.failures += self._check(report)
        if not journal.conserved():
            run.failures.append("journal violates outcome conservation")
        return run

    def _check(self, report) -> list[str]:
        failures = []
        if report.submitted != self.ops or not report.conserved():
            failures.append("outcome conservation violated")
        if sum(report.outcome_counts().values()) != report.submitted:
            failures.append("outcome tallies do not add up")
        for resp in report.responses:
            want = self.oracle.get(str(resp.request.query), -1)
            if resp.outcome is Outcome.OK and resp.matches != want:
                failures.append(
                    f"{resp.request.query} matched {resp.matches}, "
                    f"oracle {want}"
                )
            elif resp.outcome is Outcome.APPROXIMATED and resp.matches > want:
                failures.append(
                    f"sampled scan saw {resp.matches} matches, more than "
                    f"the oracle's {want}"
                )
        signature = tuple(
            (resp.request.arrival_s, resp.outcome.value, resp.matches)
            for resp in report.responses
        )
        if self.signature is None:
            self.signature = signature
        elif signature != self.signature:
            failures.append("outcomes differ from the first run")
        return failures

    def report(self, state, run: Run) -> dict:
        pool = state[1]
        report = run.extra["report"]
        lines = self.lines

        def fresh_service():
            fresh = MithriLogSystem(seed=DEPLOYMENT_SEED)
            fresh.ingest(lines)
            return self._service(fresh)

        out = latency_summary("pass", run.op_s)
        out.update(
            service_host_qps=run.attempted / run.wall_s,
            host_goodput_qps=run.work / run.wall_s,
            sim_goodput_qps=report.goodput_qps,
            sim_p99_ms=report.latency_percentile_s(99) * 1e3,
            sim_capacity_qps=estimate_capacity(
                fresh_service, pool, self.tenants, seed=DEPLOYMENT_SEED
            ),
            lost=sum(
                n for outcome, n in run.extra["outcomes"].items()
                if outcome in ("shed", "rejected", "timed_out")
            ),
            passes=run.extra["passes"],
            outcomes=run.extra["outcomes"],
            latency_p95_ms=out["pass_p95_ms"],
        )
        return out


WORKLOADS = {
    cls.name: cls for cls in (StreamWorkload, ExploreWorkload, ServiceWorkload)
}
