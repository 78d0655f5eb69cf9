"""The fact-matrix verdict kernel: memo, memory bound, both backends.

Equivalence with ``Query.matches_tokens`` on randomized inputs lives in
``tests/differential``; this suite pins the kernel's contract around
that: one memoised build per query tuple whose numpy tables stay small,
a vectorized scan that never fills the cuckoo program's per-token caches,
and the set-based path when numpy is absent.
"""

import pytest

from repro.compression.lzah import LZAHCompressor
from repro.core import backend as backend_mod
from repro.core.hashfilter import HashFilter, compile_queries
from repro.core.query import IntersectionSet, Query, Term, parse_query
from repro.core.softmatch import SoftwareBatchMatcher, batch_matcher
from repro.core.tokenizer import tokenize_page
from repro.core.vectokenizer import tokenize_page_offsets
from repro.datasets.synthetic import generator_for
from repro.exec.executor import (
    _PROGRAM_MEMO,
    ScanProgramSpec,
    _compiled_program,
    _partition_kernel,
)
from repro.params import CuckooParams, LZAHParams
from repro.service.workload import query_pool

PAGE = (
    b"svc opened session for root\n"
    b"\n"
    b"  \t \n"
    b"svc ERR disk ERR\n"
    b"kernel panic svc\n"
)

QUERIES = (
    parse_query('"session" AND NOT "admin"'),
    Query(
        intersections=(
            IntersectionSet(
                terms=(Term(token=b"svc"), Term(token=b"ERR", column=1))
            ),
        )
    ),
    Query(intersections=(IntersectionSet(terms=(Term(b"svc", True),)),)),
)


def _oracle(queries, payload):
    _, token_lists = tokenize_page(payload)
    verdicts = [
        tuple(q.matches_tokens(tokens) for q in queries)
        for tokens in token_lists
    ]
    keep = [True in v for v in verdicts]
    counts = tuple(sum(v[q] for v in verdicts) for q in range(len(queries)))
    return keep, counts


def _template_batch(size):
    lines = list(generator_for("Liberty2", seed=5).iter_lines(3000))
    pool = query_pool(lines, max_queries=size, seed=5)
    assert len(pool) == size
    return tuple(pool)


class TestKernel:
    @pytest.mark.parametrize("backend", backend_mod.available_backends())
    def test_keep_mask_and_counts(self, backend):
        page = tokenize_page_offsets(PAGE, backend)
        keep, counts = SoftwareBatchMatcher(QUERIES).evaluate(page)
        assert ([bool(k) for k in keep], counts) == _oracle(QUERIES, PAGE)
        assert counts == (1, 1, 2)
        assert page.kept_lines(keep) == [
            b"svc opened session for root", b"", b"  \t ", b"svc ERR disk ERR"
        ]

    def test_facts_are_deduplicated_across_the_batch(self):
        shared = (
            parse_query('"svc" AND "ERR"'),
            parse_query('"svc" OR "kernel"'),
            parse_query('NOT "svc"'),
        )
        matcher = SoftwareBatchMatcher(shared)
        assert matcher.num_facts == 3  # svc, ERR, kernel
        assert len(matcher.sets) == 4

    def test_query_without_sets_matches_nothing(self):
        queries = (Query(intersections=()), parse_query('"svc"'))
        page = tokenize_page_offsets(PAGE)
        keep, counts = SoftwareBatchMatcher(queries).evaluate(page)
        assert counts == (0, 3)

    def test_empty_page(self):
        for backend in backend_mod.available_backends():
            page = tokenize_page_offsets(b"", backend)
            keep, counts = SoftwareBatchMatcher(QUERIES).evaluate(page)
            assert len(keep) == 0 and counts == (0, 0, 0)

    def test_hash_filter_delegates_and_counts(self):
        program = compile_queries(QUERIES[:2], seed=0)
        assert program.queries == QUERIES[:2]
        hash_filter = HashFilter(program)
        page = tokenize_page_offsets(PAGE)
        keep, counts = hash_filter.evaluate_token_arrays(page)
        assert ([bool(k) for k in keep], counts) == _oracle(QUERIES[:2], PAGE)
        assert hash_filter.lines_processed == 5
        assert hash_filter.tokens_processed == 12

    def test_without_numpy_the_set_path_answers(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "_NUMPY", False)
        matcher = SoftwareBatchMatcher(QUERIES)
        assert matcher.nbytes == 0
        page = tokenize_page_offsets(PAGE)
        assert page.backend == "fallback"
        keep, counts = matcher.evaluate(page)
        assert isinstance(keep, list)
        assert (keep, counts) == _oracle(QUERIES, PAGE)


class TestMemo:
    def test_one_build_per_query_tuple(self):
        assert batch_matcher(QUERIES) is batch_matcher(tuple(QUERIES))

    def test_eight_query_kernel_stays_under_16_kib(self):
        """The signature table is sized to the longest fact token, not a
        fixed 256×256, so a memoised 8-query batch stays small."""
        if backend_mod.numpy_or_none() is None:
            pytest.skip("array state exists on the numpy backend only")
        matcher = SoftwareBatchMatcher(_template_batch(8))
        assert 0 < matcher.nbytes < 16 * 1024

    def test_vectorized_scan_leaves_the_effect_cache_empty(self):
        queries = _template_batch(4)
        codec = LZAHCompressor()
        payload = b"".join(
            line + b"\n"
            for line in generator_for("Liberty2", seed=5).iter_lines(400)
        )
        items = [(False, codec.compress(payload))]
        spec = ScanProgramSpec(
            queries=queries,
            cuckoo_params=CuckooParams(),
            seed=0,
            offloaded=True,
            lzah_params=LZAHParams(),
            kernel="vectorized",
            backend=backend_mod.resolve_backend(None),
        )
        memo_key = (spec.queries, spec.cuckoo_params, spec.seed)
        _PROGRAM_MEMO.pop(memo_key, None)
        result = _partition_kernel(spec, items)
        assert result.lines_kept > 0
        # the vectorized path compiles nothing: provisioning was decided
        # by the caller, verdicts come from the fact kernel
        assert memo_key not in _PROGRAM_MEMO
        program = _compiled_program(spec)
        HashFilter(program).evaluate_token_arrays(tokenize_page_offsets(payload))
        assert program._effect_cache == {}
        assert program._lookup_cache == {}
