"""Which public calls the traced run times, and the per-layer metrics.

Layers are named after ``repro`` modules. ``DESIGN.md`` next to this
file says which end-to-end metric each layer metric should move, on
which workload, and where it should stay flat.

All ``*_ms`` metrics are self time (a span minus its traced children)
except ``service.fit_ms`` and ``service.pass_*_ms``, which are
inclusive: a compile probe's compile also shows in ``core.compile_ms``.
Host times are divided by the traced run's host speed factor.
"""

from __future__ import annotations

from perfbench.stats import percentile, tail_q
from perfbench.trace import LayerTracer, Probe

LAYERS = (
    "compression", "storage", "index", "hw", "core", "exec", "system",
    "service", "stream", "obs",
)


def _add(key, value_of):
    def count(counts, args, kwargs, result):
        counts[key] += value_of(args, kwargs, result)

    return count


def _count_query(counts, args, kwargs, result):
    """Per backend query (a pass): batch width and its QueryStats."""
    stats = result.stats
    counts["queries"] += len(args) - 1
    counts["offloaded_passes"] += bool(stats.offloaded)
    counts["read_retries"] += stats.read_retries
    if kwargs.get("use_index", True):
        counts["indexed_lines_seen"] += stats.lines_seen
        counts["indexed_lines_kept"] += stats.lines_kept


_PAGE_LINES = _add("filter_lines", lambda a, k, r: a[1].num_lines)

PROBES = (
    Probe("compression", "repro.compression.lzah:LZAHCompressor.compress"),
    Probe("compression", "repro.compression.lzah:LZAHCompressor.decompress"),
    Probe("compression",
          "repro.compression.lzah:LZAHCompressor.decompress_into"),
    Probe("storage", "repro.storage.device:MithriLogDevice.append_pages",
          _add("pages_appended", lambda a, k, r: len(r))),
    Probe("storage", "repro.storage.device:MithriLogDevice.fetch_pages",
          _add("pages_fetched", lambda a, k, r: len(r[0]))),
    Probe("storage", "repro.storage.device:MithriLogDevice.read"),
    Probe("index", "repro.index.inverted:InvertedIndex.index_page",
          _add("postings", lambda a, k, r: len(a[2]))),
    Probe("index", "repro.index.inverted:InvertedIndex.candidate_pages",
          _add("candidate_pages", lambda a, k, r: len(r.pages))),
    Probe("index",
          "repro.index.inverted:InvertedIndex.memory_footprint_bytes"),
    Probe("hw", "repro.hw.perf:PipelineCycleModel.count_cycles"),
    Probe("hw", "repro.hw.perf:measure_tokenized_stats"),
    Probe("core", "repro.core.engine:TokenFilterEngine.compile"),
    Probe("core", "repro.core.hashfilter:compile_queries"),
    Probe("core", "repro.core.vectokenizer:tokenize_page_offsets"),
    Probe("core", "repro.core.hashfilter:HashFilter.evaluate_token_arrays",
          _PAGE_LINES),
    Probe("core", "repro.core.softmatch:SoftwareBatchMatcher.evaluate",
          _PAGE_LINES),
    Probe("exec", "repro.exec.executor:ScanExecutor.scan",
          _add("pages_scanned", lambda a, k, r: len(a[2]))),
    Probe("exec", "repro.exec.cache:PageCache.get"),
    Probe("exec", "repro.exec.cache:PageCache.put"),
    Probe("system", "repro.system.mithrilog:MithriLogSystem.query",
          _count_query),
    Probe("system", "repro.system.mithrilog:MithriLogSystem.ingest"),
    Probe("service", "repro.service.admission:AdmissionController.offer"),
    Probe("service", "repro.service.qos:QoSScheduler.next_batch"),
    Probe("service", "repro.service.qos:QoSScheduler.fits"),
    Probe("stream",
          "repro.stream.standing:StandingQueryRegistry.evaluate_new_pages",
          _add("pages_evaluated", lambda a, k, r: r)),
    Probe("stream", "repro.stream.windows:WindowAggregator.observe"),
    Probe("obs", "repro.obs.journal:QueryJournal.observe"),
    Probe("obs", "repro.obs.journal:QueryJournal.observe_direct"),
    Probe("obs", "repro.obs.slo:SLOMonitor.observe"),
    Probe("obs", "repro.obs.slo:SLOMonitor.observe_response"),
    Probe("obs", "repro.obs.slo:SLOMonitor.evaluate"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: LayerTracer, traced, baseline) -> dict:
    """Every per-layer metric of the ``traced`` run, by name.

    Times are divided by the traced run's host speed factor, like the
    end-to-end times. ``traced.extra`` carries what the workload read
    from counters before and after: page-cache ``cache_hits``/
    ``cache_misses``/``cache_evictions`` and, for the service,
    ``passes``, ``shed``, ``approximated`` and the answered requests'
    simulated ``queue_waits_s``.
    """
    self_s, layer_s, call_counts = tracer.summary()
    counts = tracer.counts
    extra = traced.extra
    factor = traced.speed.factor
    scale = 1e3 / factor  # host seconds -> ms at the reference speed

    def ms(*names: str) -> float:
        return scale * sum(self_s.get(name, 0.0) for name in names)

    def calls(*names: str) -> float:
        return sum(call_counts.get(name, 0) for name in names)

    compress_calls = calls("LZAHCompressor.compress")
    compile_calls = calls("compile_queries")
    query_calls = calls("MithriLogSystem.query")
    passes = tracer.durations("MithriLogSystem.query", top_level_only=True)
    pass_ms = [s * scale for s in passes] if extra.get("passes") else []
    waits_ms = [s * 1e3 for s in extra.get("queue_waits_s", ())]
    hits, misses = extra.get("cache_hits", 0), extra.get("cache_misses", 0)
    wall_ms = traced.wall_s * scale
    obs_ms = scale * layer_s.get("obs", 0.0)
    attributed_ms = scale * sum(layer_s.values())
    baseline_ms = baseline.wall_s * 1e3 / baseline.speed.factor

    metrics = {
        "compression.compress_calls": compress_calls,
        "compression.compress_ms": ms("LZAHCompressor.compress"),
        "compression.compress_useful_ratio": _ratio(
            counts["pages_appended"], compress_calls
        ),
        "compression.decompress_calls": calls(
            "LZAHCompressor.decompress", "LZAHCompressor.decompress_into"
        ),
        "compression.decompress_ms": ms(
            "LZAHCompressor.decompress", "LZAHCompressor.decompress_into"
        ),
        "storage.pages_appended": counts["pages_appended"],
        "storage.append_ms": ms("MithriLogDevice.append_pages"),
        "storage.pages_fetched": counts["pages_fetched"],
        "storage.fetch_ms": ms("MithriLogDevice.fetch_pages"),
        "storage.filter_read_ms": ms("MithriLogDevice.read"),
        "storage.read_retries": counts["read_retries"],
        "index.insert_calls": calls("InvertedIndex.index_page"),
        "index.insert_ms": ms("InvertedIndex.index_page"),
        "index.postings": counts["postings"],
        "index.lookup_calls": calls("InvertedIndex.candidate_pages"),
        "index.lookup_ms": ms("InvertedIndex.candidate_pages"),
        "index.candidate_pages": counts["candidate_pages"],
        "index.useful_line_ratio": _ratio(
            counts["indexed_lines_kept"], counts["indexed_lines_seen"]
        ),
        "index.footprint_calls": calls("InvertedIndex.memory_footprint_bytes"),
        "index.footprint_ms": ms("InvertedIndex.memory_footprint_bytes"),
        "hw.cycle_model_ms": ms(
            "PipelineCycleModel.count_cycles", "measure_tokenized_stats"
        ),
        "core.compile_calls": compile_calls,
        "core.compile_ms": ms("TokenFilterEngine.compile", "compile_queries"),
        "core.compiles_per_pass": _ratio(compile_calls, query_calls),
        "core.offloaded_ratio": _ratio(
            counts["offloaded_passes"], query_calls
        ),
        "core.tokenize_ms": ms("tokenize_page_offsets"),
        "core.filter_calls": calls(
            "HashFilter.evaluate_token_arrays", "SoftwareBatchMatcher.evaluate"
        ),
        "core.filter_ms": ms(
            "HashFilter.evaluate_token_arrays", "SoftwareBatchMatcher.evaluate"
        ),
        "core.filter_lines": counts["filter_lines"],
        "exec.scan_calls": calls("ScanExecutor.scan"),
        "exec.scan_ms": ms("ScanExecutor.scan"),
        "exec.pages_scanned": counts["pages_scanned"],
        "exec.cache_hit_ratio": _ratio(hits, hits + misses),
        "exec.cache_evictions": extra.get("cache_evictions", 0),
        "system.query_calls": query_calls,
        "system.query_ms": ms("MithriLogSystem.query"),
        "system.ingest_ms": ms("MithriLogSystem.ingest"),
        "service.admit_ms": ms("AdmissionController.offer"),
        "service.schedule_ms": ms("QoSScheduler.next_batch"),
        "service.fit_probes": calls("QoSScheduler.fits"),
        "service.fit_ms": scale * sum(tracer.durations("QoSScheduler.fits")),
        "service.passes": extra.get("passes", 0),
        "service.batch_size_mean": _ratio(counts["queries"], query_calls),
        "service.pass_p50_ms": percentile(pass_ms, 50.0),
        "service.pass_p95_ms": percentile(pass_ms, tail_q(len(pass_ms))),
        "service.queue_wait_sim_p50_ms": percentile(waits_ms, 50.0),
        "service.queue_wait_sim_p99_ms": percentile(
            waits_ms, tail_q(len(waits_ms), 99.0)
        ),
        "service.shed": extra.get("shed", 0),
        "service.approximated": extra.get("approximated", 0),
        "stream.evaluate_calls": calls(
            "StandingQueryRegistry.evaluate_new_pages"
        ),
        "stream.evaluate_ms": ms("StandingQueryRegistry.evaluate_new_pages"),
        "stream.pages_evaluated": counts["pages_evaluated"],
        "stream.window_ms": ms("WindowAggregator.observe"),
        "obs.journal_ms": ms(
            "QueryJournal.observe", "QueryJournal.observe_direct"
        ),
        "obs.slo_ms": ms(
            "SLOMonitor.observe", "SLOMonitor.observe_response",
            "SLOMonitor.evaluate",
        ),
        "obs.share": _ratio(obs_ms, wall_ms),
        "trace.wall_ms": wall_ms,
        "trace.unattributed_ms": wall_ms - attributed_ms,
        "trace.spans": len(tracer.spans),
        "trace.overhead_ratio": _ratio(wall_ms, baseline_ms),
        "trace.host_speed_factor": factor,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = scale * layer_s.get(layer, 0.0)
    return metrics
