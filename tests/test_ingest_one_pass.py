"""Ingest tokenizes every line once.

That one pass yields each page's index tokens and, for the sampled
lines, the per-line datapath words and useful bytes from which the
ingest-time cycle count, accelerator rate and Figure 13 gauges come.
They must equal what the standalone ``PipelineCycleModel.count_cycles``
and ``measure_tokenized_stats`` compute from the raw lines.
"""

from collections import Counter

import pytest

from repro.core import tokenizer
from repro.datasets.schema import DATASET_SPECS
from repro.datasets.synthetic import generator_for
from repro.hw.perf import PipelineCycleModel, measure_tokenized_stats
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.system import mithrilog
from repro.system.mithrilog import _PERF_SAMPLE_LINES, MithriLogSystem

#: blank, tab-only and longer-than-a-datapath-word (>16 B) token lines
EDGE_LINES = [
    b"",
    b"\t",
    b"\t\t \t",
    b"x" * 17 + b" short",
    b"y" * 40,
    b"a\tb  c",
    b"  lead and trail  ",
    b"z" * 16,
]

CORPORA = {
    name: generator_for(name, seed=11).generate(_PERF_SAMPLE_LINES + 300)
    for name in sorted(DATASET_SPECS)
}
CORPORA["edge"] = EDGE_LINES * 60


def _gauge(registry: MetricsRegistry, name: str) -> float:
    return registry.get(name).value()


def test_split_tokens_runs_once_per_line(monkeypatch):
    lines = CORPORA["Liberty2"][:1500] + EDGE_LINES
    seen = []
    real = tokenizer.split_tokens

    def counting(line):
        seen.append(line)
        return real(line)

    # the system's own binding and the module attribute the cycle model
    # and Figure 13 code import lazily
    monkeypatch.setattr(mithrilog, "split_tokens", counting)
    monkeypatch.setattr(tokenizer, "split_tokens", counting)
    with use_registry(MetricsRegistry()):
        MithriLogSystem().ingest(lines)
    assert Counter(seen) == Counter(lines)


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_ingest_counts_equal_standalone_models(name):
    lines = CORPORA[name]
    sample = lines[:_PERF_SAMPLE_LINES]
    with use_registry(MetricsRegistry()) as ingested:
        system = MithriLogSystem()
        system.ingest(lines)
    with use_registry(MetricsRegistry()) as standalone:
        params = system.params
        count = PipelineCycleModel(params.pipeline).count_cycles(sample)
        stats = measure_tokenized_stats(
            sample, datapath_bytes=params.pipeline.datapath_bytes
        )

    assert _gauge(ingested, "mithrilog_pipeline_cycles_total") == count.cycles
    pipelines = count.throughput_bytes_per_sec * params.num_pipelines
    assert system._pipeline_rate == pipelines
    assert system.accelerator_rate == min(pipelines, system._decompressor_rate)
    for gauge, value in (
        ("mithrilog_pipeline_useful_bits_ratio", stats.useful_fraction),
        ("mithrilog_pipeline_padding_amplification", stats.amplification),
    ):
        assert _gauge(ingested, gauge) == value
        assert _gauge(standalone, gauge) == value


def test_misaligned_line_words_rejected():
    with pytest.raises(ValueError):
        PipelineCycleModel().count_cycles([b"a b", b"c"], line_words=[1])
