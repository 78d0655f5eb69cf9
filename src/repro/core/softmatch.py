"""Host verdict kernel: one fact matrix per page, every query at once.

The paper's hash filter (Section 4.2.3) evaluates every intersection set
of every batched query in one pass, each set held as a bitmap. The host
evaluates the same algebra over *facts*, one per distinct ``(token,
column)`` term of the batch: ``(t, None)`` holds on a line containing
token ``t``, ``(t, c)`` on a line whose token at position ``c`` is ``t``.

Built once per query tuple (:func:`batch_matcher` memoises it): a
``(length, first_byte)`` signature table sized to the longest fact
token, a sorted table of ``(length, bytes)`` fact keys, and the sparse
0/1 matrices from sets to their positive and negative facts and from
queries to their sets, each held as row lists. Per page, one signature
gather picks candidate tokens, one ``searchsorted`` resolves each to an
exact key (no hashing, hence no collisions), the hits scatter into a
``facts × lines`` bool matrix, one segmented reduction over it gives set
verdicts (all positives fired, no negative fired) and a second ORs sets
into query verdicts. The result is a keep mask plus per-query match
counts. No BLAS routine runs, so a scan maps little of numpy into memory.

Every vectorized scan runs through this kernel, offloaded or not: the
compiled cuckoo program (:mod:`repro.core.hashfilter`) decides only
provisioning, counters and cycle counts. Without numpy — and for pages
holding ``\\r``, which the tokenizer hands over as plain lists even when
numpy is present — a set-based path returns the same ``(keep, counts)``.
The differential suite pins both paths to
:meth:`repro.core.query.Query.matches_tokens`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.backend import numpy_or_none
from repro.core.query import Query

__all__ = ["SoftwareBatchMatcher", "batch_matcher"]


class _Tables(NamedTuple):
    """The numpy side of a matcher; every field is an array."""

    signatures: object  #: bool ``(max_len + 1, 256)``; row 0 all false
    keys: object  #: sorted ``S{width}`` ``(length, bytes)`` keys
    length_bytes: object  #: uint8 ``(max_len + 1, prefix)`` key prefixes
    key_pairs: object  #: ``(n_keys + 1,)`` CSR offsets into the pair arrays
    pair_fact: object  #: fact id of each ``(key, fact)`` pair
    pair_column: object  #: column constraint of each pair, ``-1`` for none
    positives: object  #: fact rows ANDed per set, from ``positive_starts``
    positive_starts: object
    negatives: object  #: fact rows ORed per set, from ``negative_starts``
    negative_starts: object
    query_sets: object  #: set rows ORed per query, from ``query_starts``
    query_starts: object


def _segments(np, groups, pad: int):
    """``(rows, starts)`` of ``groups`` laid end to end, each closed by
    ``pad`` so that no segment of a ``reduceat`` is empty."""
    rows: List[int] = []
    starts: List[int] = []
    for group in groups:
        starts.append(len(rows))
        rows.extend(group)
        rows.append(pad)
    return np.array(rows, dtype=np.intp), np.array(starts, dtype=np.intp)


class SoftwareBatchMatcher:
    """Evaluates a tuple of queries over one page's ``PageTokens`` arrays."""

    def __init__(self, queries: Sequence[Query]) -> None:
        self.queries = tuple(queries)
        fact_index: Dict[Tuple[bytes, Optional[int]], int] = {}
        sets: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []
        set_query: List[int] = []
        for q, query in enumerate(self.queries):
            for iset in query.intersections:
                positives, negatives = set(), set()
                for term in iset.terms:
                    index = fact_index.setdefault(
                        (term.token, term.column), len(fact_index)
                    )
                    (negatives if term.negative else positives).add(index)
                sets.append((tuple(sorted(positives)), tuple(sorted(negatives))))
                set_query.append(q)
        #: Per intersection set: ``(positive facts, negative facts)``.
        self.sets = tuple(sets)
        #: Owning query of each intersection set.
        self.set_query = tuple(set_query)
        self.num_facts = len(fact_index)
        #: Verdict of a line where no fact fires: a query keeps it iff it
        #: owns a set without positive terms.
        unconditional = {q for (p, _), q in zip(sets, set_query) if not p}
        self.default_verdict = tuple(
            q in unconditional for q in range(len(self.queries))
        )
        #: token -> [(fact, column)] for every distinct term token.
        self.token_facts: Dict[bytes, List[Tuple[int, Optional[int]]]] = {}
        for (token, column), index in fact_index.items():
            self.token_facts.setdefault(token, []).append((index, column))
        np = numpy_or_none()
        self._tables = (
            self._build_tables(np) if np is not None and fact_index else None
        )

    def _build_tables(self, np) -> _Tables:
        tokens = list(self.token_facts)
        max_len = max(len(token) for token in tokens)
        self._max_len = max_len
        self._prefix = (max_len.bit_length() + 7) // 8
        self._width = self._prefix + max_len
        signatures = np.zeros((max_len + 1, 256), dtype=bool)
        for token in tokens:
            signatures[len(token), token[0]] = True
        prefixes = [n.to_bytes(self._prefix, "big") for n in range(max_len + 1)]
        # equal-width bytes sort the same in Python and as numpy ``S``
        encoded = [prefixes[len(t)] + t.ljust(max_len, b"\0") for t in tokens]
        order = sorted(range(len(tokens)), key=encoded.__getitem__)
        key_pairs = [0]
        pair_fact: List[int] = []
        pair_column: List[int] = []
        for t in order:
            for index, column in self.token_facts[tokens[t]]:
                pair_fact.append(index)
                pair_column.append(-1 if column is None else column)
            key_pairs.append(len(pair_fact))
        # past the facts, the per-page fact matrix has an all-true row
        # (closes positive segments) and an all-false row (closes negative
        # ones, and is the one positive of an extra set that never holds
        # and closes query segments)
        false_row = self.num_facts + 1
        positives, positive_starts = _segments(
            np, [p for p, _ in self.sets] + [(false_row,)], self.num_facts
        )
        negatives, negative_starts = _segments(
            np, [n for _, n in self.sets] + [()], false_row
        )
        owned: List[List[int]] = [[] for _ in self.queries]
        for s, q in enumerate(self.set_query):
            owned[q].append(s)
        query_sets, query_starts = _segments(np, owned, len(self.sets))
        return _Tables(
            signatures=signatures,
            keys=np.array([encoded[t] for t in order], dtype=f"S{self._width}"),
            length_bytes=np.array([list(p) for p in prefixes], dtype=np.uint8),
            key_pairs=np.array(key_pairs, dtype=np.intp),
            pair_fact=np.array(pair_fact, dtype=np.intp),
            pair_column=np.array(pair_column, dtype=np.intp),
            positives=positives,
            positive_starts=positive_starts,
            negatives=negatives,
            negative_starts=negative_starts,
            query_sets=query_sets,
            query_starts=query_starts,
        )

    @property
    def nbytes(self) -> int:
        """Bytes held by the memoised numpy tables (0 without numpy)."""
        if self._tables is None:
            return 0
        return sum(array.nbytes for array in self._tables)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, page):
        """``(keep, counts)`` for one page, identical to ``matches_tokens``.

        ``keep`` has one entry per line — a numpy bool array for a numpy
        page, a list of bools otherwise — true when any query matches the
        line; ``counts`` is the number of matching lines per query.
        """
        if self.num_facts == 0 or page.num_tokens == 0:
            return self._default(page)
        if page.backend == "numpy":
            return self._evaluate_numpy(page)
        return self._evaluate_fallback(page)

    def _default(self, page):
        """Every line takes the verdict of a line where no fact fires."""
        keep = any(self.default_verdict)
        counts = tuple(page.num_lines if d else 0 for d in self.default_verdict)
        if page.backend == "numpy":
            return numpy_or_none().full(page.num_lines, keep), counts
        return [keep] * page.num_lines, counts

    def _evaluate_numpy(self, page):
        np = numpy_or_none()
        tables = self._tables
        arr = np.frombuffer(page.buffer, dtype=np.uint8)
        starts = page.token_starts
        lengths = page.token_ends - starts
        max_len = self._max_len
        # tokens longer than every fact token look up row 0 (no fact is
        # empty, so it is all false)
        candidates = np.flatnonzero(
            tables.signatures[np.where(lengths > max_len, 0, lengths), arr[starts]]
        )
        if candidates.size == 0:
            return self._default(page)
        # exact (length, bytes) keys of the candidates, laid out like the
        # fact keys: big-endian length, then the token zero-padded to
        # max_len (windows over a zero-extended copy of the page)
        c_lengths = lengths[candidates]
        prefix = self._prefix
        windows = np.lib.stride_tricks.sliding_window_view(
            np.concatenate((arr, np.zeros(max_len, dtype=np.uint8))), max_len
        )
        raw = np.empty((candidates.size, self._width), dtype=np.uint8)
        raw[:, :prefix] = tables.length_bytes[c_lengths]
        raw[:, prefix:] = windows[starts[candidates]]
        raw[:, prefix:][np.arange(max_len) >= c_lengths[:, None]] = 0
        keys = raw.view(f"S{self._width}").ravel()
        slot = np.minimum(
            np.searchsorted(tables.keys, keys), tables.keys.size - 1
        )
        found = tables.keys[slot] == keys
        hits = candidates[found]
        slot = slot[found]
        # expand each hit into the (fact, column) pairs of its token
        first = tables.key_pairs[slot]
        fanout = tables.key_pairs[slot + 1] - first
        owner = np.repeat(np.arange(hits.size), fanout)
        pair = np.repeat(first - (np.cumsum(fanout) - fanout), fanout) + (
            np.arange(owner.size)
        )
        hits = hits[owner]
        column = tables.pair_column[pair]
        fires = (column < 0) | (column == page.token_positions[hits])
        facts = np.zeros((self.num_facts + 2, page.num_lines), dtype=bool)
        facts[self.num_facts] = True
        facts[tables.pair_fact[pair[fires]], page.token_lines[hits[fires]]] = True
        # a set holds where all its positives and none of its negatives
        # fired; a query matches where any of its sets holds
        holds = np.logical_and.reduceat(
            facts[tables.positives], tables.positive_starts
        ) & ~np.logical_or.reduceat(facts[tables.negatives], tables.negative_starts)
        verdicts = np.logical_or.reduceat(
            holds[tables.query_sets], tables.query_starts
        )
        counts = np.count_nonzero(verdicts, axis=1).tolist()
        return verdicts.any(axis=0), tuple(counts)

    def _evaluate_fallback(self, page):
        buffer = page.buffer
        token_starts = page.token_starts
        token_ends = page.token_ends
        token_lines = page.token_lines
        token_positions = page.token_positions
        token_facts = self.token_facts
        signatures = {(len(token), token[0]) for token in token_facts}
        fact_lines: list[set] = [set() for _ in range(self.num_facts)]
        hit_lines: set = set()
        for j in range(page.num_tokens):
            start = token_starts[j]
            if (token_ends[j] - start, buffer[start]) not in signatures:
                continue
            facts = token_facts.get(bytes(buffer[start : token_ends[j]]))
            if not facts:
                continue
            line = int(token_lines[j])
            position = int(token_positions[j])
            for index, column in facts:
                if column is None or column == position:
                    fact_lines[index].add(line)
                    hit_lines.add(line)
        misses = page.num_lines - len(hit_lines)
        keep = [any(self.default_verdict)] * page.num_lines
        counts = [misses if d else 0 for d in self.default_verdict]
        set_query = self.set_query
        for line in hit_lines:
            verdict = [False] * len(self.queries)
            for (positives, negatives), q in zip(self.sets, set_query):
                if not verdict[q] and all(
                    line in fact_lines[f] for f in positives
                ) and not any(line in fact_lines[f] for f in negatives):
                    verdict[q] = True
            keep[line] = True in verdict
            for q, matched in enumerate(verdict):
                counts[q] += matched
        return keep, tuple(counts)


@lru_cache(maxsize=64)
def batch_matcher(queries: Tuple[Query, ...]) -> SoftwareBatchMatcher:
    """The memoised kernel of a query tuple (one build per process)."""
    return SoftwareBatchMatcher(queries)
