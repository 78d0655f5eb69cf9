"""Cycle-approximate performance model of the filter engine.

Reproduces the arithmetic behind Figures 13 and 14:

- :func:`measure_tokenized_stats` measures the padding amplification of the
  tokenized datapath on real lines (Figure 13's useful-bit percentages).
- :class:`PipelineCycleModel` counts the cycles a filter pipeline spends on
  a corpus, modelling the three in-order stages the RTL has: a decompressor
  emitting one datapath word per cycle, eight 2 B/cycle tokenizers fed
  line-by-line round-robin, and two hash filters each consuming one
  tokenized word per cycle. The max over stages per round-robin group is
  what creates the paper's "imbalance between lengths of consecutive log
  lines" penalty.
- :class:`EngineThroughputModel` combines pipeline capability with the
  decompressor ceiling and the storage supply (internal bandwidth x
  compression ratio), yielding Figure 14's per-dataset effective
  throughputs including the BGL2 storage-bound case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.obs.metrics import get_registry
from repro.params import (
    DECOMPRESSOR_BYTES_PER_SEC,
    INTERNAL_BANDWIDTH,
    NUM_PIPELINES,
    PipelineParams,
)


@dataclass(frozen=True)
class TokenizedStats:
    """Measured shape of a corpus's tokenized datapath stream."""

    raw_bytes: int
    lines: int
    token_words: int
    useful_bytes: int
    datapath_bytes: int

    @property
    def tokenized_bytes(self) -> int:
        """Bytes on the tokenized datapath including zero padding."""
        return self.token_words * self.datapath_bytes

    @property
    def useful_fraction(self) -> float:
        """Figure 13's metric: non-padding share of the tokenized stream."""
        if self.token_words == 0:
            return 1.0
        return self.useful_bytes / self.tokenized_bytes

    @property
    def amplification(self) -> float:
        """Tokenized bytes per raw input byte (paper: typically ~2x)."""
        if self.raw_bytes == 0:
            return 1.0
        return self.tokenized_bytes / self.raw_bytes


def line_shape(tokens: Sequence[bytes], datapath_bytes: int) -> tuple[int, int]:
    """``(datapath words, useful bytes)`` of one tokenized line.

    A token of ``n`` bytes occupies ``ceil(n / datapath_bytes)`` words; a
    token-less line still emits one flagged word. ``tokens`` are
    non-empty, as :func:`repro.core.tokenizer.split_tokens` yields them.
    These two ints per line are all the cycle model and Figure 13 need,
    so ingest keeps them instead of the token lists.
    """
    sizes = list(map(len, tokens))
    pad = datapath_bytes - 1
    words = sum([(size + pad) // datapath_bytes for size in sizes])
    return max(1, words), sum(sizes)


def tokenized_stats(
    lines: Sequence[bytes],
    line_words: Sequence[int],
    line_useful: Sequence[int],
    datapath_bytes: int,
) -> TokenizedStats:
    """:class:`TokenizedStats` from per-line :func:`line_shape` counts,
    publishing the Figure 13 gauges."""
    stats = TokenizedStats(
        raw_bytes=sum(len(line) + 1 for line in lines),  # + stored newline
        lines=len(lines),
        token_words=sum(line_words),
        useful_bytes=sum(line_useful),
        datapath_bytes=datapath_bytes,
    )
    registry = get_registry()
    if registry is not None and stats.token_words:
        registry.gauge(
            "mithrilog_pipeline_useful_bits_ratio",
            "Non-padding share of the tokenized datapath stream (Figure 13)",
        ).set(stats.useful_fraction)
        registry.gauge(
            "mithrilog_pipeline_padding_amplification",
            "Tokenized bytes per raw input byte",
        ).set(stats.amplification)
    return stats


def measure_tokenized_stats(
    lines: Iterable[bytes], datapath_bytes: int = 16
) -> TokenizedStats:
    """Tokenize ``lines`` and measure padding amplification.

    Uses the same token-splitting rules as the functional tokenizer
    (:func:`repro.core.tokenizer.split_tokens`) so the model and the
    functional engine cannot drift apart.
    """
    from repro.core.tokenizer import split_tokens

    lines = list(lines)
    shapes = [line_shape(split_tokens(line), datapath_bytes) for line in lines]
    return tokenized_stats(
        lines,
        [words for words, _ in shapes],
        [useful for _, useful in shapes],
        datapath_bytes,
    )


@dataclass(frozen=True)
class PipelineCycleCount:
    """Cycle accounting for one pipeline over a corpus."""

    cycles: int
    raw_bytes: int
    params: PipelineParams

    @property
    def bytes_per_cycle(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.raw_bytes / self.cycles

    @property
    def throughput_bytes_per_sec(self) -> float:
        """Decompressed-text throughput this pipeline sustains."""
        return self.bytes_per_cycle * self.params.clock_hz


class PipelineCycleModel:
    """Counts the cycles one filter pipeline needs for a list of lines."""

    def __init__(self, params: Optional[PipelineParams] = None) -> None:
        self.params = params if params is not None else PipelineParams()

    def count_cycles(
        self,
        lines: Sequence[bytes],
        line_words: Optional[Sequence[int]] = None,
    ) -> PipelineCycleCount:
        """Simulate round-robin scatter/gather over the tokenizer array.

        Lines are processed in groups of ``tokenizers``; within a group all
        stages run concurrently, and the group completes when its slowest
        stage does:

        - decompressor: one datapath word per cycle over the group's raw
          bytes (it feeds all tokenizers),
        - each tokenizer: ``bytes_per_cycle`` over its assigned line,
        - each hash filter: one tokenized word per cycle over the lines of
          the tokenizer sub-group it gathers from.

        ``line_words`` (one :func:`line_shape` word count per line) skips
        the tokenization when the caller has already split the lines.
        """
        if line_words is None:
            from repro.core.tokenizer import split_tokens

            w = self.params.datapath_bytes
            line_words = [line_shape(split_tokens(ln), w)[0] for ln in lines]
        elif len(line_words) != len(lines):
            raise ValueError("line_words must align one-to-one with lines")
        p = self.params
        per_filter = p.tokenizers // p.hash_filters
        total_cycles = 0
        raw_total = 0
        for base in range(0, len(lines), p.tokenizers):
            sizes = [len(line) + 1 for line in lines[base : base + p.tokenizers]]
            group_raw = sum(sizes)
            raw_total += group_raw
            decomp_cycles = math.ceil(group_raw / p.datapath_bytes)
            tok_cycles = math.ceil(max(sizes) / p.tokenizer_bytes_per_cycle)
            end = base + len(sizes)
            filter_cycles = max(
                sum(line_words[start : min(start + per_filter, end)])
                for start in range(
                    base, base + p.hash_filters * per_filter, per_filter
                )
            )
            total_cycles += max(decomp_cycles, tok_cycles, filter_cycles)
        registry = get_registry()
        if registry is not None and total_cycles:
            registry.counter(
                "mithrilog_pipeline_cycles_total",
                "Filter pipeline cycles modelled",
            ).inc(total_cycles)
        return PipelineCycleCount(
            cycles=total_cycles, raw_bytes=raw_total, params=p
        )


@dataclass(frozen=True)
class EngineThroughput:
    """Figure 14 datapoint: what bounds the engine and what it achieves."""

    dataset: str
    pipeline_capability: float
    decompressor_ceiling: float
    storage_supply: float

    @property
    def effective_bytes_per_sec(self) -> float:
        """Achieved decompressed-text throughput: min of the three bounds."""
        return min(
            self.pipeline_capability, self.decompressor_ceiling, self.storage_supply
        )

    @property
    def bound_by(self) -> str:
        """Which stage limits this dataset ('filter', 'decompressor', 'storage')."""
        bounds = {
            "filter": self.pipeline_capability,
            "decompressor": self.decompressor_ceiling,
            "storage": self.storage_supply,
        }
        return min(bounds, key=bounds.get)


class EngineThroughputModel:
    """Combines pipeline, decompressor and storage bounds (Figure 14)."""

    def __init__(
        self,
        num_pipelines: int = NUM_PIPELINES,
        internal_bandwidth: int = INTERNAL_BANDWIDTH,
        decompressor_bytes_per_sec: int = DECOMPRESSOR_BYTES_PER_SEC,
        params: Optional[PipelineParams] = None,
    ) -> None:
        self.num_pipelines = num_pipelines
        self.internal_bandwidth = internal_bandwidth
        self.decompressor_bytes_per_sec = decompressor_bytes_per_sec
        self.cycle_model = PipelineCycleModel(params)

    def evaluate(
        self, dataset: str, lines: Sequence[bytes], compression_ratio: float
    ) -> EngineThroughput:
        """Model the engine's effective throughput on a corpus.

        ``compression_ratio`` is the dataset's LZAH ratio: the storage's
        internal bandwidth delivers compressed pages, so the decompressed
        supply is ``internal_bandwidth * ratio``.
        """
        if compression_ratio <= 0:
            raise ValueError("compression_ratio must be positive")
        count = self.cycle_model.count_cycles(lines)
        return EngineThroughput(
            dataset=dataset,
            pipeline_capability=self.num_pipelines
            * count.throughput_bytes_per_sec,
            decompressor_ceiling=self.num_pipelines
            * self.decompressor_bytes_per_sec,
            storage_supply=self.internal_bandwidth * compression_ratio,
        )
