"""Index compaction.

The in-storage index is append-only: every snapshot flush persists
partially-filled leaves and roots (padded with NIL), so a long-lived,
frequently-flushed store accumulates fragmented lists — more root hops
per query than the postings justify, each hop a latency-bound storage
access (Section 6.1's arithmetic). Compaction rebuilds a row's list into
dense 16/16 nodes: identical query answers, minimal root visits.

Old nodes are not reclaimed by the plain pools (append-only flash
semantics); on an FTL-backed array the superseded index pages become
garbage for the translation layer to collect, which is exactly how a
real SSD-resident index ages.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.index.hashindex import RowState
from repro.index.inverted import InvertedIndex
from repro.index.storetree import NIL, NODE_FANOUT


@dataclass(frozen=True)
class RowCompaction:
    """Outcome of compacting one row."""

    row_id: int
    addresses: int
    root_visits_before: int
    root_visits_after: int


@dataclass(frozen=True)
class CompactionReport:
    """Aggregate outcome over all rows."""

    rows: tuple[RowCompaction, ...]

    @property
    def total_visits_before(self) -> int:
        return sum(r.root_visits_before for r in self.rows)

    @property
    def total_visits_after(self) -> int:
        return sum(r.root_visits_after for r in self.rows)

    @property
    def visits_saved(self) -> int:
        return self.total_visits_before - self.total_visits_after


def _collect_row_addresses(index: InvertedIndex, row: RowState) -> tuple[list[int], int]:
    """Everything a row currently references, plus its walk cost."""
    from repro.index.storetree import LeafNode

    addresses: set[int] = set(row.buffer)
    visits = 0
    if row.partial_root:
        for blob in index.store.leaves.read_many(list(row.partial_root)):
            addresses.update(LeafNode.unpack(blob).addresses)
    if row.head_root != NIL:
        walk = index.store.walk(row.head_root)
        addresses.update(walk.addresses)
        visits = walk.root_visits
    return sorted(addresses), visits


def compact_row(index: InvertedIndex, row_id: int) -> RowCompaction:
    """Rebuild one row's in-storage list into dense nodes."""
    row = index.table.row(row_id)
    addresses, visits_before = _collect_row_addresses(index, row)

    # rebuild: oldest addresses persist first so traversal (newest root
    # first) keeps its reverse-chronological meaning
    full_leaf_addrs = len(addresses) - len(addresses) % NODE_FANOUT
    leaf_ids = [
        index.store.write_leaf(addresses[base : base + NODE_FANOUT])
        for base in range(0, full_leaf_addrs, NODE_FANOUT)
    ]
    head = NIL
    full_root_leaves = len(leaf_ids) - len(leaf_ids) % NODE_FANOUT
    for base in range(0, full_root_leaves, NODE_FANOUT):
        head = index.store.write_root(
            leaf_ids[base : base + NODE_FANOUT], next_root=head
        )
    index.table.rewrite_row(
        row_id,
        buffer=addresses[full_leaf_addrs:],
        partial_root=leaf_ids[full_root_leaves:],
        head_root=head,
    )
    index.publish_memory()

    visits_after = len(leaf_ids[:full_root_leaves]) // NODE_FANOUT
    return RowCompaction(
        row_id=row_id,
        addresses=len(addresses),
        root_visits_before=visits_before,
        root_visits_after=visits_after,
    )


def compact_index(index: InvertedIndex) -> CompactionReport:
    """Compact every populated row of the index."""
    rows = []
    for row_id in sorted(index.table._rows):
        rows.append(compact_row(index, row_id))
    index.store.flush()
    index.publish_memory()
    return CompactionReport(rows=tuple(rows))
