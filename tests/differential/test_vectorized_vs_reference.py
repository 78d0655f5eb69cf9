"""Differential harness: vectorized scan path vs the reference kernels.

PR 3's kernels are the oracle; the vectorized zero-copy path (offset
-array tokenizer, arena decoder, signature-prefiltered filter kernel)
must be byte-for-byte equivalent to them on *arbitrary* inputs, on both
array backends. Three layers of evidence:

1. **Hypothesis** — randomized pages (structured log lines, multibyte
   UTF-8, raw binary including ``\\r``/NUL/empty-token shapes), codecs
   with randomized parameters, and randomized query programs.
2. **Replayable corpus** — ``corpus_cases.json`` pins every edge case
   worth keeping forever; new divergences found by randomization get
   appended there so they replay on every run without hypothesis.
3. **End-to-end invariance** — full scans must produce identical
   matches, per-query counts, and *simulated* stats (breakdown,
   bottleneck, profile) across kernel × backend × workers.

Backend force-selection lives here too: the suite proves the fallback
leg really runs without numpy and that explicit selection fails loudly
when the requested backend is absent.
"""

import base64
import json
from pathlib import Path

import pytest

try:
    from hypothesis import assume, given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on minimal installs
    HAVE_HYPOTHESIS = False

from repro.compression.arena import DecodeArena
from repro.compression.lzah import LZAHCompressor
from repro.core import backend as backend_mod
from repro.core.backend import (
    BackendUnavailableError,
    available_backends,
    resolve_backend,
    resolve_kernel,
)
from repro.core.hashfilter import HashFilter, compile_queries
from repro.core.query import IntersectionSet, Query, Term
from repro.core.softmatch import SoftwareBatchMatcher
from repro.core.tokenizer import split_tokens, tokenize_page
from repro.core.vectokenizer import tokenize_page_offsets
from repro.errors import CompressedFormatError
from repro.exec.executor import ScanProgramSpec, _partition_kernel
from repro.params import CuckooParams, LZAHParams

BACKENDS = available_backends()

CORPUS_PATH = Path(__file__).with_name("corpus_cases.json")
CORPUS = [
    (entry["name"], base64.b64decode(entry["b64"]))
    for entry in json.loads(CORPUS_PATH.read_text())["pages"]
]
CORPUS_IDS = [name for name, _ in CORPUS]
CORPUS_PAGES = [data for _, data in CORPUS]


def _kernel_shape(verdicts, num_queries):
    """Per-line verdict tuples folded into the verdict kernel's
    ``(keep, counts)`` shape: any-query keep flags and per-query counts."""
    keep = [True in verdict for verdict in verdicts]
    counts = tuple(
        sum(verdict[q] for verdict in verdicts) for q in range(num_queries)
    )
    return keep, counts


def _as_lists(result):
    """A kernel ``(keep, counts)`` with the keep mask as a plain list."""
    keep, counts = result
    return [bool(k) for k in keep], counts


def _assert_tokenization_matches(payload: bytes, backend: str) -> None:
    """One page: offset arrays must re-materialise the reference output."""
    page = tokenize_page_offsets(payload, backend)
    raw_lines, token_lists = page.to_token_lists()
    want_lines, want_tokens = tokenize_page(payload)
    assert raw_lines == want_lines
    assert token_lists == want_tokens
    # the offsets themselves must be consistent, not just the bytes
    assert page.num_lines == len(want_lines)
    assert page.num_tokens == sum(len(t) for t in want_tokens)
    for j in range(page.num_tokens):
        start, end = int(page.token_starts[j]), int(page.token_ends[j])
        line = int(page.token_lines[j])
        assert int(page.line_starts[line]) <= start < end <= int(page.line_ends[line]) or (
            # tokens never cross their line's span except via the tab
            # translation, which cannot move bytes — so this must hold
            False
        )


# ---------------------------------------------------------------------------
# replayable corpus: every pinned page through every variant
# ---------------------------------------------------------------------------


class TestCorpusReplay:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("payload", CORPUS_PAGES, ids=CORPUS_IDS)
    def test_tokenizer_matches_reference(self, payload, backend):
        _assert_tokenization_matches(payload, backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("payload", CORPUS_PAGES, ids=CORPUS_IDS)
    def test_filter_matches_reference(self, payload, backend):
        queries = (
            Query(intersections=(IntersectionSet(terms=(Term(token=b"session"),)),)),
            Query(
                intersections=(
                    IntersectionSet(
                        terms=(Term(token=b"svc"), Term(token=b"ERR", column=2))
                    ),
                )
            ),
            Query(
                intersections=(
                    IntersectionSet(
                        terms=(
                            Term(token=b"opened"),
                            Term(token=b"admin", negative=True),
                        )
                    ),
                )
            ),
        )
        program = compile_queries(queries, seed=0)
        page = tokenize_page_offsets(payload, backend)
        fast = HashFilter(program).evaluate_token_arrays(page)
        _, token_lists = tokenize_page(payload)
        slow = HashFilter(program).evaluate_token_lists(token_lists)
        assert _as_lists(fast) == _kernel_shape(slow, len(queries))

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("payload", CORPUS_PAGES, ids=CORPUS_IDS)
    def test_softmatch_matches_query_oracle(self, payload, backend):
        """The software-fallback batch matcher (no compiled table) agrees
        with per-line ``Query.matches_tokens`` on every pinned page."""
        queries = (
            Query(intersections=(IntersectionSet(terms=(Term(token=b"session"),)),)),
            Query(
                intersections=(
                    IntersectionSet(
                        terms=(Term(token=b"svc"), Term(token=b"ERR", column=2))
                    ),
                )
            ),
            Query(
                intersections=(
                    IntersectionSet(
                        terms=(
                            Term(token=b"opened"),
                            Term(token=b"admin", negative=True),
                        )
                    ),
                    IntersectionSet(terms=(Term(token=b"x" * 64, negative=True),)),
                )
            ),
        )
        page = tokenize_page_offsets(payload, backend)
        fast = SoftwareBatchMatcher(queries).evaluate(page)
        _, token_lists = tokenize_page(payload)
        slow = [
            tuple(q.matches_tokens(tokens) for q in queries)
            for tokens in token_lists
        ]
        assert _as_lists(fast) == _kernel_shape(slow, len(queries))

    @pytest.mark.parametrize("payload", CORPUS_PAGES, ids=CORPUS_IDS)
    def test_decoder_matches_reference(self, payload):
        codec = LZAHCompressor()
        blob = codec.compress(payload)
        arena = DecodeArena(initial_bytes=1)
        assert bytes(codec.decompress_into(blob, arena)) == codec.decompress(blob)
        assert codec.decompress(blob) == payload


# ---------------------------------------------------------------------------
# hypothesis: randomized pages, codecs, query programs
# ---------------------------------------------------------------------------

if HAVE_HYPOTHESIS:
    VOCAB = [
        b"session", b"opened", b"closed", b"root", b"admin", b"svc", b"ERR",
        b"kernel", b"x" * 64, "日誌".encode(), "café".encode(), b"0", b"a b".replace(b" ", b""),
    ]

    log_line = st.lists(
        st.sampled_from(VOCAB + [b"", b" ", b"\t"]), min_size=0, max_size=8
    ).map(lambda parts: b" ".join(parts))

    structured_page = st.lists(log_line, min_size=0, max_size=20).map(
        lambda lines: b"".join(ln + b"\n" for ln in lines)
    )

    # raw binary exercises \r, NUL, multibyte fragments, unterminated tails
    binary_page = st.binary(min_size=0, max_size=512)

    any_page = st.one_of(structured_page, binary_page)

    query_strategy = st.lists(
        st.lists(
            st.tuples(
                st.sampled_from(VOCAB),
                st.booleans(),  # negative
                st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
            ),
            min_size=1,
            max_size=3,
            unique_by=lambda t: t[0],
        ).map(
            lambda terms: IntersectionSet(
                terms=tuple(
                    Term(token=token, negative=neg, column=col)
                    for token, neg, col in terms
                )
            )
        ),
        min_size=1,
        max_size=2,
    ).map(lambda isets: Query(intersections=tuple(isets)))

    class TestHypothesisDifferential:
        @settings(max_examples=150, deadline=None)
        @given(payload=any_page, backend=st.sampled_from(BACKENDS))
        def test_tokenizer_differential(self, payload, backend):
            _assert_tokenization_matches(payload, backend)

        @settings(max_examples=100, deadline=None)
        @given(
            payload=any_page,
            backend=st.sampled_from(BACKENDS),
            queries=st.lists(query_strategy, min_size=1, max_size=3),
            seed=st.integers(min_value=0, max_value=3),
        )
        def test_filter_differential(self, payload, backend, queries, seed):
            from repro.errors import CapacityError, PlacementError

            try:
                program = compile_queries(tuple(queries), seed=seed)
            except (PlacementError, CapacityError):
                # some random programs legitimately exceed the hardware
                # provisioning; the system runs those in software, where
                # test_softmatch_differential covers the vectorized path
                assume(False)
            page = tokenize_page_offsets(payload, backend)
            fast_filter = HashFilter(program)
            fast = fast_filter.evaluate_token_arrays(page)
            raw_lines, token_lists = tokenize_page(payload)
            slow_filter = HashFilter(program)
            slow = slow_filter.evaluate_token_lists(token_lists)
            assert _as_lists(fast) == _kernel_shape(slow, len(queries))
            assert fast_filter.lines_processed == slow_filter.lines_processed
            assert fast_filter.tokens_processed == slow_filter.tokens_processed
            # and both agree with the per-line query oracles
            for tokens, verdict in zip(token_lists, slow):
                assert verdict == tuple(q.matches_tokens(tokens) for q in queries)

        @settings(max_examples=100, deadline=None)
        @given(
            payload=any_page,
            backend=st.sampled_from(BACKENDS),
            queries=st.lists(query_strategy, min_size=1, max_size=4),
        )
        def test_softmatch_differential(self, payload, backend, queries):
            """Software-fallback batch matcher vs per-line query oracle.

            No compilation involved, so *every* random program is in
            scope — including ones that exceed hardware provisioning,
            which is precisely when the system routes through softmatch.
            """
            page = tokenize_page_offsets(payload, backend)
            fast = SoftwareBatchMatcher(tuple(queries)).evaluate(page)
            _, token_lists = tokenize_page(payload)
            slow = [
                tuple(q.matches_tokens(tokens) for q in queries)
                for tokens in token_lists
            ]
            assert _as_lists(fast) == _kernel_shape(slow, len(queries))

        @settings(max_examples=75, deadline=None)
        @given(
            payload=any_page,
            word_bytes=st.sampled_from([8, 16, 32]),
            realign=st.booleans(),
        )
        def test_decoder_differential(self, payload, word_bytes, realign):
            codec = LZAHCompressor(
                LZAHParams(word_bytes=word_bytes, newline_realign=realign)
            )
            blob = codec.compress(payload)
            arena = DecodeArena(initial_bytes=1)
            via_arena = bytes(codec.decompress_into(blob, arena))
            via_fast = codec.decompress(blob)
            via_words = b"".join(c for c, _p in codec.decompress_words(blob))
            assert via_arena == via_fast == via_words == payload

        @settings(max_examples=60, deadline=None)
        @given(
            payload=structured_page.filter(bool),
            flip_at=st.integers(min_value=0, max_value=10_000),
            flip_bits=st.integers(min_value=1, max_value=255),
        )
        def test_decoder_corruption_differential(self, payload, flip_at, flip_bits):
            """All three decoders agree on corrupted streams too: either
            all raise CompressedFormatError or all return the same bytes
            (a flip in chunk padding can be semantically invisible)."""
            codec = LZAHCompressor()
            blob = bytearray(codec.compress(payload))
            blob[flip_at % len(blob)] ^= flip_bits
            blob = bytes(blob)
            outcomes = []
            for decode in (
                codec.decompress,
                lambda b: bytes(codec.decompress_into(b, DecodeArena())),
                lambda b: b"".join(c for c, _p in codec.decompress_words(b)),
            ):
                try:
                    outcomes.append(("ok", decode(blob)))
                except CompressedFormatError:
                    outcomes.append(("error", None))
            assert outcomes[0] == outcomes[1] == outcomes[2]

        @settings(max_examples=30, deadline=None)
        @given(
            pages=st.lists(structured_page, min_size=1, max_size=4),
            backend=st.sampled_from(BACKENDS),
        )
        def test_partition_kernel_software_differential(self, pages, backend):
            """Same whole-partition equivalence for a *software-fallback*
            program (``offloaded=False``): the vectorized kernel routes
            through SoftwareBatchMatcher instead of the cuckoo table."""
            queries = (
                Query(
                    intersections=(
                        IntersectionSet(terms=(Term(token=b"session"),)),
                        IntersectionSet(
                            terms=(Term(token=b"ERR", column=2),)
                        ),
                    )
                ),
                Query(
                    intersections=(
                        IntersectionSet(
                            terms=(
                                Term(token=b"opened"),
                                Term(token=b"root", negative=True),
                            )
                        ),
                    )
                ),
            )
            codec = LZAHCompressor()
            items = [(False, codec.compress(p)) for p in pages]
            results = {}
            for kernel in ("reference", "vectorized"):
                spec = ScanProgramSpec(
                    queries=queries,
                    cuckoo_params=CuckooParams(),
                    seed=0,
                    offloaded=False,
                    lzah_params=LZAHParams(),
                    kernel=kernel,
                    backend=backend,
                )
                results[kernel] = _partition_kernel(spec, items, want_decoded=True)
            ref, vec = results["reference"], results["vectorized"]
            assert vec.data == ref.data
            assert vec.per_query_counts == ref.per_query_counts
            assert vec.lines_seen == ref.lines_seen
            assert vec.lines_kept == ref.lines_kept
            assert vec.bytes_decompressed == ref.bytes_decompressed
            assert vec.decoded == ref.decoded
            def counts(stages):
                return {name: (s.calls, s.units) for name, s in stages}

            assert counts(vec.stages) == counts(ref.stages)

        @settings(max_examples=40, deadline=None)
        @given(
            pages=st.lists(structured_page, min_size=1, max_size=4),
            backend=st.sampled_from(BACKENDS),
        )
        def test_partition_kernel_differential(self, pages, backend):
            """Whole-partition equivalence: output bytes, per-query
            counts, and deterministic stage units match across kernels."""
            queries = (
                Query(
                    intersections=(
                        IntersectionSet(terms=(Term(token=b"session"),)),
                    )
                ),
                Query(
                    intersections=(
                        IntersectionSet(
                            terms=(
                                Term(token=b"opened"),
                                Term(token=b"admin", negative=True),
                            )
                        ),
                    )
                ),
            )
            codec = LZAHCompressor()
            items = [(False, codec.compress(p)) for p in pages]
            results = {}
            for kernel in ("reference", "vectorized"):
                spec = ScanProgramSpec(
                    queries=queries,
                    cuckoo_params=CuckooParams(),
                    seed=0,
                    offloaded=True,
                    lzah_params=LZAHParams(),
                    kernel=kernel,
                    backend=backend,
                )
                results[kernel] = _partition_kernel(spec, items, want_decoded=True)
            ref, vec = results["reference"], results["vectorized"]
            assert vec.data == ref.data
            assert vec.per_query_counts == ref.per_query_counts
            assert vec.lines_seen == ref.lines_seen
            assert vec.lines_kept == ref.lines_kept
            assert vec.bytes_decompressed == ref.bytes_decompressed
            assert vec.decoded == ref.decoded
            def counts(stages):
                return {name: (s.calls, s.units) for name, s in stages}

            assert counts(vec.stages) == counts(ref.stages)

    # fact-kernel shapes: a small shared vocabulary so one token serves
    # several queries and sets (fact dedup), fact tokens of 256+ bytes,
    # page tokens longer than every fact token, blank and delimiter-only
    # lines, and \r terminators (tokenized as plain lists even on numpy)
    FACT_VOCAB = [b"svc", b"ERR", b"open", b"L" * 256, b"L" * 300]
    PAGE_WORDS = FACT_VOCAB + [b"svcd", b"sv", b"E", b"L" * 301, b"L" * 4096]

    fact_term = st.tuples(
        st.sampled_from(FACT_VOCAB),
        st.booleans(),  # negative
        st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
    ).map(lambda t: Term(token=t[0], negative=t[1], column=t[2]))
    fact_set = st.lists(fact_term, min_size=1, max_size=3).map(
        lambda terms: IntersectionSet(terms=tuple(terms))
    )
    negative_only_set = st.lists(
        st.sampled_from(FACT_VOCAB), min_size=1, max_size=2
    ).map(
        lambda tokens: IntersectionSet(
            terms=tuple(Term(token=t, negative=True) for t in tokens)
        )
    )
    fact_query = st.lists(
        st.one_of(fact_set, negative_only_set), min_size=0, max_size=3
    ).map(lambda isets: Query(intersections=tuple(isets)))
    fact_line = st.lists(
        st.sampled_from(PAGE_WORDS + [b"", b"\t"]), max_size=6
    ).map(b" ".join)
    fact_page = st.tuples(
        st.lists(fact_line, max_size=12),
        st.sampled_from([b"\n", b"\r\n", b"\r"]),
        st.booleans(),  # terminated last line
    ).map(lambda t: t[1].join(t[0]) + (t[1] if t[2] else b""))

    class TestFactKernelProperty:
        @settings(max_examples=200, deadline=None)
        @given(
            payload=fact_page,
            backend=st.sampled_from(BACKENDS),
            queries=st.lists(fact_query, min_size=1, max_size=8),
        )
        def test_keep_and_counts_match_query_oracle(
            self, payload, backend, queries
        ):
            """The keep mask and per-query counts equal per-line
            ``Query.matches_tokens`` through both kernel entry points."""
            from repro.errors import CapacityError, PlacementError

            queries = tuple(queries)
            _, token_lists = tokenize_page(payload)
            want = _kernel_shape(
                [
                    tuple(q.matches_tokens(tokens) for q in queries)
                    for tokens in token_lists
                ],
                len(queries),
            )
            page = tokenize_page_offsets(payload, backend)
            if b"\r" in payload:
                assert page.backend == "fallback"
            assert _as_lists(SoftwareBatchMatcher(queries).evaluate(page)) == want
            try:
                program = compile_queries(queries, seed=0)
            except (PlacementError, CapacityError):
                return  # beyond provisioning: never offloaded
            hash_filter = HashFilter(program)
            assert _as_lists(hash_filter.evaluate_token_arrays(page)) == want
            assert hash_filter.lines_processed == len(token_lists)
            assert hash_filter.tokens_processed == sum(map(len, token_lists))


# ---------------------------------------------------------------------------
# backend force-selection
# ---------------------------------------------------------------------------


class TestBackendSelection:
    def test_fallback_always_available(self):
        assert "fallback" in available_backends()
        assert resolve_backend("fallback") == "fallback"

    def test_auto_prefers_numpy_when_available(self, monkeypatch):
        # the documented way to force the fallback must not leak in here
        monkeypatch.delenv(backend_mod.BACKEND_ENV, raising=False)
        if backend_mod.numpy_or_none() is not None:
            assert resolve_backend(None) == "numpy"
            assert resolve_backend("auto") == "numpy"
        else:
            assert resolve_backend(None) == "fallback"

    def test_explicit_numpy_without_numpy_raises(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "_NUMPY", False)
        assert available_backends() == ("fallback",)
        assert resolve_backend("auto") == "fallback"
        with pytest.raises(BackendUnavailableError):
            resolve_backend("numpy")

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(backend_mod.BACKEND_ENV, "fallback")
        assert resolve_backend(None) == "fallback"
        monkeypatch.setenv(backend_mod.BACKEND_ENV, "bogus")
        with pytest.raises(ValueError):
            resolve_backend(None)

    def test_env_var_selects_kernel(self, monkeypatch):
        monkeypatch.setenv(backend_mod.KERNEL_ENV, "reference")
        assert resolve_kernel(None) == "reference"
        monkeypatch.setenv(backend_mod.KERNEL_ENV, "auto")
        assert resolve_kernel(None) == "vectorized"
        monkeypatch.setenv(backend_mod.KERNEL_ENV, "bogus")
        with pytest.raises(ValueError):
            resolve_kernel(None)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_force_each_backend_end_to_end(self, backend):
        """Each importable backend, force-selected, produces identical
        scan results on a small end-to-end system."""
        from repro.core.query import parse_query
        from repro.datasets.synthetic import generator_for
        from repro.system.mithrilog import MithriLogSystem

        corpus = list(generator_for("Liberty2", seed=3).iter_lines(600))
        query = parse_query("session AND opened")
        system = MithriLogSystem(seed=3, cache_pages=0, scan_backend=backend)
        system.ingest(corpus)
        outcome = system.scan_all(query)
        system.close()
        oracle = MithriLogSystem(seed=3, cache_pages=0, scan_kernel="reference")
        oracle.ingest(corpus)
        expected = oracle.scan_all(query)
        oracle.close()
        assert outcome.matched_lines == expected.matched_lines
        assert outcome.per_query_counts == expected.per_query_counts
        assert outcome.stats.profile == expected.stats.profile

    def test_tokenizer_backends_agree_without_numpy(self, monkeypatch):
        """Force the numpy probe to 'absent': auto-resolution must pick
        the fallback and still match the reference tokenizer."""
        monkeypatch.setattr(backend_mod, "_NUMPY", False)
        for _name, payload in CORPUS:
            page = tokenize_page_offsets(payload)
            assert page.backend == "fallback"
            raw_lines, token_lists = page.to_token_lists()
            assert raw_lines == payload.splitlines()
            assert token_lists == [split_tokens(ln) for ln in raw_lines]
