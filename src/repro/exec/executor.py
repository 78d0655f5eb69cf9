"""Parallel scan executor: one storage pass, many queries, many cores.

The paper's batched-query experiment (Table 6) keeps effective
throughput flat as the query count grows because the accelerator
evaluates every registered query in the same pass over the decompressed
stream. This module is the host-simulation counterpart: a
:class:`ScanExecutor` takes the candidate pages of a scan, partitions
them, and fans the CPU-heavy work — LZAH decode, tokenization, filter
evaluation for *all* queries at once — out over a process pool, while
flash reads, fault injection, retry accounting and simulated timing stay
in the calling process, in page order, exactly as the serial path does.

The partition kernel itself comes in two equivalence-tested variants,
selected by :class:`ScanProgramSpec.kernel`:

- ``vectorized`` — the zero-copy hot path: pages decompress into a
  reusable :class:`~repro.compression.arena.DecodeArena`, tokenization
  emits offset arrays (``repro.core.vectokenizer``), and one fact-matrix
  kernel (:class:`~repro.core.softmatch.SoftwareBatchMatcher`) gives the
  host verdicts of every program, offloaded or run in software: a keep
  mask and per-query counts per page. The compiled cuckoo program only
  decides provisioning, counters and cycle counts, so this kernel never
  compiles one.
- ``reference`` — PR 3's per-page token-list path, retained verbatim as
  the oracle the differential suite compares against.

Determinism is by construction: ``workers=1`` runs the very same
partition kernel inline (no pool, no processes), partitions are
contiguous slices of the candidate list, and results are concatenated in
partition order. A seeded fault schedule therefore sees the identical
read sequence at any worker count, and the scan output is byte-identical
to the serial device FILTER path (the equivalence suite pins this down).

Only host wall-clock changes. Simulated stage times and ``hw/perf``
cycle accounting are functions of byte counts that this module
reproduces exactly.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.hashfilter import compile_queries
from repro.core.query import Query
from repro.core.tokenizer import tokenize_page
from repro.errors import QueryError
from repro.obs.metrics import get_registry
from repro.obs.profile import (
    PartitionProfile,
    ProfileBuilder,
    StageProfile,
    merge_into_registry,
    merge_profiles,
)
from repro.params import CuckooParams, LZAHParams


@dataclass(frozen=True)
class ScanProgramSpec:
    """Everything a worker needs to rebuild the scan program.

    Workers rebuild their filter state from first principles — the
    vectorized kernel's memoised fact kernel from ``queries``, the
    reference kernel's compiled program from ``(queries, params,
    seed)`` (:func:`repro.core.hashfilter.compile_queries` is
    deterministic) — so nothing stateful crosses the process boundary:
    only frozen parameter dataclasses, query algebra, and the resolved
    kernel/backend names. The parent resolves ``kernel`` and
    ``backend`` (env vars, numpy availability) *before* building the
    spec so every pool worker runs the same code path even if its own
    environment would resolve differently.
    """

    queries: tuple[Query, ...]
    cuckoo_params: CuckooParams
    seed: int
    offloaded: bool
    lzah_params: LZAHParams
    kernel: str = "reference"
    backend: str = "fallback"


@dataclass(frozen=True)
class ScanAggregate:
    """What one scan produced, in the units the system's stats need.

    ``partitions`` carries one :class:`~repro.obs.profile
    .PartitionProfile` per executed partition (a single record on the
    inline path), in page order — the per-partition view the parent
    turns into trace spans. ``profile`` is their stage-wise merge.
    ``per_query_counts`` is the number of kept lines per concurrent
    query (partition sums — worker-count invariant) and ``page_counts``
    the same counts per scanned page, in page order (what a sampled
    scan's estimator needs); ``decoded`` is only
    populated on the inline path when the caller asked for the decoded
    pages back (one immutable ``bytes`` per item, ``None`` for pages
    that arrived already decoded), so the parent can feed its PageCache
    without a second decompression pass.
    """

    data: bytes  #: concatenated per-page FILTER output (kept lines)
    bytes_decompressed: int
    lines_seen: int
    lines_kept: int
    partitions: tuple[PartitionProfile, ...] = ()
    profile: tuple[tuple[str, StageProfile], ...] = ()
    per_query_counts: tuple[int, ...] = ()
    page_counts: tuple[tuple[int, ...], ...] = ()
    decoded: tuple = ()

    def profile_dict(self) -> dict[str, StageProfile]:
        return dict(self.profile)


@dataclass(frozen=True)
class KernelResult:
    """One partition's output (picklable — crosses the pool boundary)."""

    data: bytes
    bytes_decompressed: int
    lines_seen: int
    lines_kept: int
    per_query_counts: tuple[int, ...]
    stages: tuple[tuple[str, StageProfile], ...]
    decoded: tuple = ()
    page_counts: tuple[tuple[int, ...], ...] = ()  #: per page, per query


#: Per-process memo of compiled filter programs, keyed by the hashable
#: ``(queries, cuckoo_params, seed)`` triple: a pool worker serving many
#: partitions of many scans compiles each program once.
_PROGRAM_MEMO: dict = {}

#: Per-process memo of LZAH codecs by parameter bundle.
_CODEC_MEMO: dict = {}

#: Per-process decode arena, grown to the largest page seen and recycled
#: across partitions and scans (the zero-copy path's whole point).
_ARENA = None


def _partition_kernel(
    spec: ScanProgramSpec,
    items: Sequence[tuple[bool, bytes]],
    want_decoded: bool = False,
) -> KernelResult:
    """Scan one contiguous partition of pages.

    ``items`` holds ``(is_decoded, payload)`` pairs in page order: cache
    hits arrive already decoded, misses arrive compressed and are decoded
    here (this is the work the fan-out parallelises). The returned
    :class:`KernelResult` carries ``data`` byte-identical to the device
    FILTER path's per-page output and per-stage host accounting — the
    record that makes subprocess work visible to the parent's registry
    and tracer (pool workers' own metrics die with the pool).

    Module-level and argument-picklable so it runs identically inline
    (``workers=1``) and in a pool worker.
    """
    from repro.core.hashfilter import HashFilter

    if spec.kernel == "vectorized":
        return _vectorized_kernel(spec, items, want_decoded)

    from repro.compression.lzah import LZAHCompressor

    codec = _CODEC_MEMO.get(spec.lzah_params)
    if codec is None:
        codec = LZAHCompressor(spec.lzah_params)
        _CODEC_MEMO[spec.lzah_params] = codec
    decode = codec.decompress

    verdict_fn = None
    if spec.offloaded:
        program = _compiled_program(spec)
        verdict_fn = HashFilter(program).evaluate_token_lists
    queries = spec.queries
    num_queries = len(queries)

    profile = ProfileBuilder()
    clock = time.perf_counter
    out_chunks: list[bytes] = []
    decoded_pages: list = []
    page_counts: list[tuple[int, ...]] = []
    bytes_decompressed = 0
    lines_seen = 0
    lines_kept = 0
    for is_decoded, payload in items:
        if is_decoded:
            text = payload  # cache hit: the decode was skipped upstream
            if want_decoded:
                decoded_pages.append(None)
        else:
            t0 = clock()
            text = decode(payload)
            profile.add("decompress", units=len(text), wall_s=clock() - t0)
            if want_decoded:
                decoded_pages.append(text)
        bytes_decompressed += len(text)
        t0 = clock()
        raw_lines, token_lists = tokenize_page(text)
        profile.add("tokenize", units=len(raw_lines), wall_s=clock() - t0)
        lines_seen += len(raw_lines)
        t0 = clock()
        if verdict_fn is not None:
            verdicts = verdict_fn(token_lists)
        else:
            verdicts = [
                tuple(q.matches_tokens(tokens) for q in queries)
                for tokens in token_lists
            ]
        kept = []
        counts = [0] * num_queries
        for line, verdict in zip(raw_lines, verdicts):
            if True in verdict:
                kept.append(line)
                for q in range(num_queries):
                    if verdict[q]:
                        counts[q] += 1
        profile.add("filter", units=len(raw_lines), wall_s=clock() - t0)
        page_counts.append(tuple(counts))
        lines_kept += len(kept)
        out_chunks.append(b"\n".join(kept) + (b"\n" if kept else b""))
    return KernelResult(
        data=b"".join(out_chunks),
        bytes_decompressed=bytes_decompressed,
        lines_seen=lines_seen,
        lines_kept=lines_kept,
        per_query_counts=_totals(page_counts, num_queries),
        stages=profile.build_items(),
        decoded=tuple(decoded_pages) if want_decoded else (),
        page_counts=tuple(page_counts),
    )


def _vectorized_kernel(
    spec: ScanProgramSpec,
    items: Sequence[tuple[bool, bytes]],
    want_decoded: bool,
) -> KernelResult:
    """Zero-copy partition scan: arena decode → offset arrays → batch filter.

    Produces a :class:`KernelResult` byte-identical to the reference
    kernel's (the differential suite and the workers×kernel invariance
    tests pin this down), including identical stage calls/units — only
    wall-clock differs.
    """
    from repro.compression.arena import DecodeArena
    from repro.compression.lzah import LZAHCompressor
    from repro.core.softmatch import batch_matcher
    from repro.core.vectokenizer import tokenize_page_offsets

    global _ARENA
    codec = _CODEC_MEMO.get(spec.lzah_params)
    if codec is None:
        codec = LZAHCompressor(spec.lzah_params)
        _CODEC_MEMO[spec.lzah_params] = codec
    if _ARENA is None:
        _ARENA = DecodeArena()
    arena = _ARENA
    evaluate = batch_matcher(spec.queries).evaluate
    backend = spec.backend
    num_queries = len(spec.queries)

    profile = ProfileBuilder()
    clock = time.perf_counter
    out_chunks: list[bytes] = []
    decoded_pages: list = []
    page_counts: list[tuple[int, ...]] = []
    bytes_decompressed = 0
    lines_seen = 0
    lines_kept = 0
    for is_decoded, payload in items:
        if is_decoded:
            text = payload
            if want_decoded:
                decoded_pages.append(None)
        else:
            t0 = clock()
            text = codec.decompress_into(payload, arena)
            profile.add("decompress", units=len(text), wall_s=clock() - t0)
            if want_decoded:
                decoded_pages.append(bytes(text))
        bytes_decompressed += len(text)
        t0 = clock()
        page = tokenize_page_offsets(text, backend)
        profile.add("tokenize", units=page.num_lines, wall_s=clock() - t0)
        lines_seen += page.num_lines
        t0 = clock()
        keep, counts = evaluate(page)
        kept = page.kept_lines(keep)
        profile.add("filter", units=page.num_lines, wall_s=clock() - t0)
        page_counts.append(counts)
        lines_kept += len(kept)
        # kept lines are immutable copies, so recycling the arena for the
        # next page (the decompress_into above) cannot corrupt them
        out_chunks.append(b"\n".join(kept) + (b"\n" if kept else b""))
    return KernelResult(
        data=b"".join(out_chunks),
        bytes_decompressed=bytes_decompressed,
        lines_seen=lines_seen,
        lines_kept=lines_kept,
        per_query_counts=_totals(page_counts, num_queries),
        stages=profile.build_items(),
        decoded=tuple(decoded_pages) if want_decoded else (),
        page_counts=tuple(page_counts),
    )


def _totals(page_counts: list[tuple[int, ...]], num_queries: int) -> tuple:
    """Per-query sums of per-page counts (zeros for an empty partition)."""
    return tuple(sum(c[q] for c in page_counts) for q in range(num_queries))


def _compiled_program(spec: ScanProgramSpec):
    memo_key = (spec.queries, spec.cuckoo_params, spec.seed)
    program = _PROGRAM_MEMO.get(memo_key)
    if program is None:
        program = compile_queries(
            spec.queries, params=spec.cuckoo_params, seed=spec.seed
        )
        _PROGRAM_MEMO[memo_key] = program
    return program


class ScanExecutor:
    """Partitions a scan's pages and runs the partition kernel on them.

    ``workers == 1`` is the deterministic in-process fallback: the kernel
    runs inline in the calling process and no pool is ever created, so
    anything the caller keeps deterministic (seeded fault schedules,
    sim-clock traces) stays bit-identical. ``workers > 1`` lazily spins
    up a :class:`~concurrent.futures.ProcessPoolExecutor` that is reused
    across scans until :meth:`close`.
    """

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise QueryError("scan executor needs at least one worker")
        self.workers = workers
        self._pool: Optional[ProcessPoolExecutor] = None
        registry = get_registry()
        self._m_partitions = (
            registry.counter(
                "mithrilog_scan_partitions_total",
                "Scan partitions executed, by execution mode",
                labelnames=("mode",),
            )
            if registry is not None
            else None
        )

    # -- lifecycle -------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ScanExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- scanning --------------------------------------------------------

    def scan(
        self,
        spec: ScanProgramSpec,
        items: Sequence[tuple[bool, bytes]],
        want_decoded: bool = False,
    ) -> ScanAggregate:
        """Run the filter scan over ``items`` (page order preserved).

        Partitions are contiguous slices, results are gathered in
        partition order, and a worker failure (e.g. a corrupt page's
        :class:`repro.errors.CompressedFormatError`) propagates to the
        caller exactly as the inline path would raise it.
        ``want_decoded`` is honoured on the inline path only — on the
        pool path the decoded pages stay in the workers (shipping them
        back would dwarf the scan itself).
        """
        if self.workers == 1 or len(items) <= 1:
            if self._m_partitions is not None:
                self._m_partitions.inc(mode="inline")
            result = _partition_kernel(spec, items, want_decoded)
            record = PartitionProfile(
                index=0,
                pages=len(items),
                bytes_decompressed=result.bytes_decompressed,
                lines_seen=result.lines_seen,
                lines_kept=result.lines_kept,
                stages=result.stages,
            )
            merge_into_registry(dict(result.stages))
            return ScanAggregate(
                data=result.data,
                bytes_decompressed=result.bytes_decompressed,
                lines_seen=result.lines_seen,
                lines_kept=result.lines_kept,
                partitions=(record,),
                profile=result.stages,
                per_query_counts=result.per_query_counts,
                page_counts=result.page_counts,
                decoded=result.decoded,
            )
        pool = self._ensure_pool()
        partitions = _partition_slices(len(items), self.workers)
        futures = [
            pool.submit(_partition_kernel, spec, items[start:stop])
            for start, stop in partitions
        ]
        if self._m_partitions is not None:
            self._m_partitions.inc(len(futures), mode="pool")
        chunks: list[bytes] = []
        records: list[PartitionProfile] = []
        counts = [0] * len(spec.queries)
        page_counts: list[tuple[int, ...]] = []
        bytes_decompressed = 0
        lines_seen = 0
        lines_kept = 0
        for index, future in enumerate(futures):  # partition order
            result = future.result()
            chunks.append(result.data)
            start, stop = partitions[index]
            records.append(
                PartitionProfile(
                    index=index,
                    pages=stop - start,
                    bytes_decompressed=result.bytes_decompressed,
                    lines_seen=result.lines_seen,
                    lines_kept=result.lines_kept,
                    stages=result.stages,
                )
            )
            bytes_decompressed += result.bytes_decompressed
            lines_seen += result.lines_seen
            lines_kept += result.lines_kept
            for q, count in enumerate(result.per_query_counts):
                counts[q] += count
            page_counts.extend(result.page_counts)
        merged = merge_profiles(r.stage_dict() for r in records)
        # the workers' registries died with their processes; fold their
        # accounting into the parent's here, where it is actually scraped
        merge_into_registry(merged)
        return ScanAggregate(
            data=b"".join(chunks),
            bytes_decompressed=bytes_decompressed,
            lines_seen=lines_seen,
            lines_kept=lines_kept,
            partitions=tuple(records),
            profile=tuple(sorted(merged.items())),
            per_query_counts=tuple(counts),
            page_counts=tuple(page_counts),
        )


def _partition_slices(n: int, workers: int) -> list[tuple[int, int]]:
    """Split ``n`` items into at most ``workers`` contiguous balanced slices."""
    if n <= 0:
        return []
    parts = min(workers, n)
    base, extra = divmod(n, parts)
    slices = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        slices.append((start, start + size))
        start += size
    return slices
