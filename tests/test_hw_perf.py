"""Tests for the cycle-approximate performance model (Figures 13/14)."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.tokenizer import split_tokens
from repro.hw.perf import (
    EngineThroughputModel,
    PipelineCycleModel,
    line_shape,
    measure_tokenized_stats,
)
from repro.params import PipelineParams

SHORT_TOKEN_LINES = [b"a b c d", b"e f g h"] * 50
LONG_TOKEN_LINES = [b"x" * 16 + b" " + b"y" * 16] * 100
TYPICAL_LINES = [
    b"- 1131566461 2005.11.09 tbird-admin1 Nov 9 12:01:01 local@tbird-admin1 crond"
] * 100


class TestTokenizedStats:
    def test_empty_corpus(self):
        stats = measure_tokenized_stats([])
        assert stats.useful_fraction == 1.0
        assert stats.amplification == 1.0

    def test_full_words_have_no_padding(self):
        stats = measure_tokenized_stats(LONG_TOKEN_LINES)
        assert stats.useful_fraction == 1.0

    def test_short_tokens_are_mostly_padding(self):
        stats = measure_tokenized_stats(SHORT_TOKEN_LINES)
        assert stats.useful_fraction == pytest.approx(1 / 16)

    def test_typical_logs_near_half_useful(self):
        # the paper's Figure 13: about half the tokenized datapath is useful
        stats = measure_tokenized_stats(TYPICAL_LINES)
        assert 0.3 < stats.useful_fraction < 0.8

    def test_amplification_inverse_of_density(self):
        stats = measure_tokenized_stats(SHORT_TOKEN_LINES)
        # 4 tokens of 1 byte -> 4 words of 16B from 8 raw bytes
        assert stats.amplification == pytest.approx(64 / 8)

    def test_counts(self):
        stats = measure_tokenized_stats([b"ab cd"])
        assert stats.lines == 1
        assert stats.raw_bytes == 6
        assert stats.token_words == 2
        assert stats.useful_bytes == 4


class TestPipelineCycleModel:
    def test_empty_input(self):
        count = PipelineCycleModel().count_cycles([])
        assert count.cycles == 0
        assert count.throughput_bytes_per_sec == 0.0

    def test_balanced_lines_near_wire_speed(self):
        # uniform 63-byte lines + newline = 32 ingest cycles per lane
        lines = [b"z" * 15 + b" " + b"w" * 47] * 800
        count = PipelineCycleModel().count_cycles(lines)
        params = PipelineParams()
        assert count.throughput_bytes_per_sec > 0.8 * params.wire_speed_bytes_per_sec

    def test_imbalanced_lines_lose_throughput(self):
        balanced = [b"m" * 64] * 160
        imbalanced = ([b"m" * 120] + [b"m" * 8] * 7) * 20  # same total bytes
        model = PipelineCycleModel()
        t_bal = model.count_cycles(balanced).throughput_bytes_per_sec
        t_imb = model.count_cycles(imbalanced).throughput_bytes_per_sec
        assert t_imb < t_bal

    def test_amplification_bound_by_hash_filters(self):
        # 1-byte tokens amplify 16x; two hash filters absorb only 2x
        count = PipelineCycleModel().count_cycles(SHORT_TOKEN_LINES)
        params = PipelineParams()
        assert count.throughput_bytes_per_sec < 0.5 * params.wire_speed_bytes_per_sec

    def test_raw_bytes_include_newlines(self):
        count = PipelineCycleModel().count_cycles([b"ab", b"cd"])
        assert count.raw_bytes == 6


def reference_line_words(line: bytes, w: int) -> int:
    """Datapath words of one line, token by token (the model's spec)."""
    words = sum(max(1, math.ceil(len(t) / w)) for t in split_tokens(line))
    return max(1, words)


def reference_cycles(params: PipelineParams, lines) -> int:
    """Per-group cycle count written out stage by stage: the oracle for
    :meth:`PipelineCycleModel.count_cycles` and its ``line_words`` path."""
    per_filter = params.tokenizers // params.hash_filters
    total = 0
    for base in range(0, len(lines), params.tokenizers):
        group = lines[base : base + params.tokenizers]
        decomp = math.ceil(sum(len(ln) + 1 for ln in group) / params.datapath_bytes)
        tok = max(
            math.ceil((len(ln) + 1) / params.tokenizer_bytes_per_cycle)
            for ln in group
        )
        filt = 0
        for f in range(params.hash_filters):
            assigned = group[f * per_filter : (f + 1) * per_filter]
            filt = max(
                filt,
                sum(reference_line_words(ln, params.datapath_bytes) for ln in assigned),
            )
        total += max(decomp, tok, filt)
    return total


_LINE = st.lists(
    st.sampled_from([b"a", b"bb", b"x" * 16, b"y" * 17, b"z" * 40, b" ", b"\t"]),
    max_size=8,
).map(b"".join)
_PARAMS = st.sampled_from([
    PipelineParams(),
    PipelineParams(tokenizers=9, hash_filters=2),  # a line no filter gathers
    PipelineParams(tokenizers=8, hash_filters=3),
    PipelineParams(datapath_bytes=8, tokenizers=4, hash_filters=1),
])


class TestCycleModelOracle:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(lines=st.lists(_LINE, max_size=40), params=_PARAMS)
    @example(  # the two lines no filter gathers carry most of the words
        lines=[b"x"] * 6 + [b"a " * 8] * 2,
        params=PipelineParams(tokenizers=8, hash_filters=3),
    )
    def test_count_cycles_matches_reference(self, lines, params):
        model = PipelineCycleModel(params)
        expected = reference_cycles(params, lines)
        assert model.count_cycles(lines).cycles == expected
        words = [line_shape(split_tokens(ln), params.datapath_bytes)[0] for ln in lines]
        assert model.count_cycles(lines, words).cycles == expected
        assert words == [
            reference_line_words(ln, params.datapath_bytes) for ln in lines
        ]

    def test_line_shape_useful_bytes(self):
        assert line_shape(split_tokens(b"ab " + b"c" * 17), 16) == (3, 19)
        assert line_shape([], 16) == (1, 0)


class TestEngineThroughputModel:
    def test_storage_bound_dataset(self):
        # low compression ratio: storage supply caps the engine (paper: BGL2)
        model = EngineThroughputModel()
        result = model.evaluate("BGL2-like", TYPICAL_LINES, compression_ratio=2.0)
        assert result.bound_by == "storage"
        assert result.effective_bytes_per_sec == pytest.approx(4.8e9 * 2.0)

    def test_decompressor_or_filter_bound_with_high_ratio(self):
        model = EngineThroughputModel()
        result = model.evaluate("Liberty2-like", TYPICAL_LINES, compression_ratio=6.0)
        assert result.bound_by in ("decompressor", "filter")
        assert result.effective_bytes_per_sec <= 12.8e9

    def test_effective_throughput_in_paper_band(self):
        # realistic logs: 11-12.8 GB/s effective across 4 pipelines
        model = EngineThroughputModel()
        result = model.evaluate("typical", TYPICAL_LINES, compression_ratio=6.0)
        assert 9e9 < result.effective_bytes_per_sec <= 12.8e9

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValueError):
            EngineThroughputModel().evaluate("x", TYPICAL_LINES, compression_ratio=0)
