"""The in-memory side of the inverted index (Sections 6.1-6.2).

A fixed-size hash table indexed by *two* hash functions. The table is
probabilistic: it never stores tokens, so distinct tokens can share a
row; that only costs extra candidate pages, which the filter engine
discards (Section 6.2). During ingest a token's page address goes to
whichever of its two rows has accumulated fewer pages so far (each row
keeps a counter); during query both rows are read and unioned.

Each row holds the paper's small ingest state: a 16-address buffer, the
partially-built root node, the list head, and the counter.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from repro.index.storetree import NIL, NODE_FANOUT, TreeListStore
from repro.params import IndexParams


@dataclass
class RowState:
    """Mutable per-row ingest state (a few dozen bytes each)."""

    buffer: list[int] = field(default_factory=list)  # pending data-page addrs
    partial_root: list[int] = field(default_factory=list)  # pending leaf ids
    head_root: int = NIL  # newest persisted root node id
    total_pages: int = 0  # counter used for two-choice balancing

    @property
    def held(self) -> int:
        """Buffered addresses plus partial-root leaf ids (u32 each)."""
        return len(self.buffer) + len(self.partial_root)


class HashIndexTable:
    """Two-hash-function row map in front of the store trees.

    The table keeps a running count of the u32 entries its rows hold in
    memory (buffered addresses plus partial-root leaf ids), so the
    footprint costs O(1) however many rows are populated. Every change
    to a row's buffer or partial root goes through this class.
    """

    def __init__(self, params: Optional[IndexParams] = None, seed: int = 0) -> None:
        self.params = params if params is not None else IndexParams()
        self.seed = seed
        self._rows: dict[int, RowState] = {}
        self._held = 0  # sum of RowState.held over every row

    def _hash(self, token: bytes, which: int) -> int:
        digest = hashlib.blake2b(
            token,
            digest_size=8,
            salt=(0x10 + which).to_bytes(8, "little"),
            key=self.seed.to_bytes(8, "little"),
        ).digest()
        return int.from_bytes(digest, "little") & (self.params.hash_rows - 1)

    def candidate_rows(self, token: bytes) -> tuple[int, ...]:
        """The rows a token may occupy (one or two per configuration)."""
        first = self._hash(token, 0)
        if self.params.num_hash_functions == 1:
            return (first,)
        return (first, self._hash(token, 1))

    def row(self, row_id: int) -> RowState:
        state = self._rows.get(row_id)
        if state is None:
            state = RowState()
            self._rows[row_id] = state
        return state

    def peek_row(self, row_id: int) -> Optional[RowState]:
        return self._rows.get(row_id)

    def choose_insert_row(self, token: bytes) -> int:
        """Two-choice balancing: insert into the lighter row (Section 6.2)."""
        candidates = self.candidate_rows(token)
        return min(candidates, key=lambda r: self.row(r).total_pages)

    def insert(self, token: bytes, page_addr: int, store: TreeListStore) -> None:
        """Record that ``token`` occurs in data page ``page_addr``.

        Spills the 16-address buffer into a leaf node when full, and the
        16-leaf partial root into a persisted root (prepended to the
        linked list) when that fills.
        """
        row = self.row(self.choose_insert_row(token))
        if row.buffer and row.buffer[-1] == page_addr:
            return  # this page is already recorded for this row
        row.buffer.append(page_addr)
        self._held += 1
        row.total_pages += 1
        if len(row.buffer) == self.params.memory_buffer_addrs:
            self._spill_buffer(row, store)

    def _spill_buffer(self, row: RowState, store: TreeListStore) -> None:
        # buffers larger than a leaf (naive-list ablation configs) chunk
        # into several leaves; the prototype's 16-entry buffer fills one
        held = row.held
        for base in range(0, len(row.buffer), NODE_FANOUT):
            leaf_id = store.write_leaf(row.buffer[base : base + NODE_FANOUT])
            row.partial_root.append(leaf_id)
            if len(row.partial_root) == NODE_FANOUT:
                row.head_root = store.write_root(
                    row.partial_root, next_root=row.head_root
                )
                row.partial_root = []
        row.buffer = []
        self._held += row.held - held

    def flush_all(self, store: TreeListStore) -> None:
        """Persist every partial buffer/root (snapshot or shutdown path)."""
        for row in self._rows.values():
            if row.buffer:
                self._spill_buffer(row, store)
            if row.partial_root:
                row.head_root = store.write_root(
                    row.partial_root, next_root=row.head_root
                )
                row.partial_root = []
        self._held = 0
        store.flush()

    def rewrite_row(
        self,
        row_id: int,
        buffer: list[int],
        partial_root: list[int],
        head_root: int,
    ) -> None:
        """Replace a row's in-memory state (index compaction).

        ``total_pages`` is a balancing counter, not a postings count, so
        it is kept.
        """
        row = self.row(row_id)
        self._held += len(buffer) + len(partial_root) - row.held
        row.buffer = buffer
        row.partial_root = partial_root
        row.head_root = head_root

    def to_state(self) -> dict:
        """JSON-serialisable snapshot of every row's ingest state."""
        return {
            str(row_id): {
                "buffer": row.buffer,
                "partial_root": row.partial_root,
                "head_root": row.head_root,
                "total_pages": row.total_pages,
            }
            for row_id, row in self._rows.items()
        }

    def restore_state(self, state: dict) -> None:
        self._rows = {
            int(row_id): RowState(
                buffer=[int(a) for a in row["buffer"]],
                partial_root=[int(n) for n in row["partial_root"]],
                head_root=int(row["head_root"]),
                total_pages=int(row["total_pages"]),
            )
            for row_id, row in state.items()
        }
        self._held = sum(row.held for row in self._rows.values())

    @property
    def rows_in_use(self) -> int:
        return len(self._rows)

    def memory_footprint_bytes(self) -> int:
        """Total in-memory state — the paper's ~small-footprint claim.

        Each row holds its buffered addresses and partial-root leaf ids
        plus a head pointer and a counter, all u32.
        """
        return 4 * (self._held + 2 * len(self._rows))
