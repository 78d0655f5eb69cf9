"""The index footprint is a running total; a per-row sum is its oracle.

``HashIndexTable`` counts buffered addresses and partial-root leaf ids
as they change, so ``memory_footprint_bytes()`` is O(1). The functions
below recompute the same figure the slow way, row by row, and the tests
check the two agree after every ingest, streaming flush, snapshot flush,
compaction and save/load round trip.
"""

import dataclasses
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import generator_for
from repro.index.compaction import compact_index, compact_row
from repro.index.hashindex import HashIndexTable
from repro.index.storetree import TreeListStore
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.params import PAGE_BYTES, PROTOTYPE, IndexParams, StorageParams
from repro.storage.flash import FlashArray
from repro.system.mithrilog import MithriLogSystem
from repro.system.persistence import load_store, save_store
from repro.system.streaming import StreamingIngestor

#: small table and snapshot threshold: rows spill leaves and roots and
#: ingest triggers snapshot flushes within a few hundred lines
SMALL_INDEX = IndexParams(hash_rows=64, snapshot_leaf_threshold=2)
PARAMS = dataclasses.replace(PROTOTYPE, index=SMALL_INDEX)
CORPUS = generator_for("Liberty2", seed=5).generate(2400)


def row_sum_footprint(table: HashIndexTable) -> int:
    """Reference table footprint: every row's buffer and partial root
    entries plus its head pointer and counter, u32 each."""
    return sum(
        4 * (len(row.buffer) + len(row.partial_root) + 2)
        for row in table._rows.values()
    )


def index_footprint_oracle(index) -> int:
    """Reference ``InvertedIndex.memory_footprint_bytes``."""
    return (
        row_sum_footprint(index.table)
        + index.store.memory_footprint_bytes
        + 4 * index.total_data_pages
    )


def new_store() -> TreeListStore:
    return TreeListStore(FlashArray(StorageParams(capacity_pages=8192)), PAGE_BYTES)


def gauge_value(registry: MetricsRegistry) -> float:
    return registry.get("mithrilog_index_memory_bytes").value()


class TestTableFootprint:
    def test_empty(self):
        assert HashIndexTable().memory_footprint_bytes() == 0

    def test_insert_spill_and_flush(self):
        store = new_store()
        table = HashIndexTable(IndexParams(hash_rows=8))
        for page in range(300):
            for token in (b"a", b"b", b"c%d" % (page % 7)):
                table.insert(token, page, store)
            assert table.memory_footprint_bytes() == row_sum_footprint(table)
        table.flush_all(store)
        assert table.memory_footprint_bytes() == row_sum_footprint(table)

    def test_multi_leaf_buffer(self):
        # naive-list configs spill a buffer larger than one leaf
        store = new_store()
        table = HashIndexTable(IndexParams(hash_rows=4, memory_buffer_addrs=40))
        for page in range(500):
            table.insert(b"tok", page, store)
            assert table.memory_footprint_bytes() == row_sum_footprint(table)

    def test_restore_state(self):
        store = new_store()
        table = HashIndexTable(IndexParams(hash_rows=16))
        for page in range(100):
            table.insert(b"x%d" % (page % 5), page, store)
        restored = HashIndexTable(IndexParams(hash_rows=16))
        restored.restore_state(table.to_state())
        assert restored.memory_footprint_bytes() == row_sum_footprint(table)
        assert restored.memory_footprint_bytes() == table.memory_footprint_bytes()

    def test_rewrite_row_keeps_total_pages(self):
        table = HashIndexTable(IndexParams(hash_rows=16))
        table.insert(b"x", 3, new_store())
        row_id = table.choose_insert_row(b"x")
        pages = table.row(row_id).total_pages
        table.rewrite_row(row_id, buffer=[1, 2, 3], partial_root=[9], head_root=4)
        assert table.row(row_id).total_pages == pages
        assert table.memory_footprint_bytes() == row_sum_footprint(table)


_STEP = st.one_of(
    st.tuples(st.just("ingest"), st.integers(1, 240), st.booleans()),
    st.tuples(st.just("stream"), st.integers(1, 240), st.integers(16, 128)),
    st.tuples(st.just("flush")),
    st.tuples(st.just("compact_row"), st.integers(0, 1 << 16)),
    st.tuples(st.just("compact_index")),
    st.tuples(st.just("save_load")),
)


class TestIndexFootprintProperty:
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(steps=st.lists(_STEP, min_size=1, max_size=8))
    def test_running_total_equals_row_sum(self, steps):
        registry = MetricsRegistry()
        with use_registry(registry), tempfile.TemporaryDirectory() as tmp:
            system = MithriLogSystem(PARAMS)
            pos = 0
            clock = 0.0
            for n, step in enumerate(steps):
                kind = step[0]
                if kind in ("ingest", "stream"):
                    lines = CORPUS[pos : pos + step[1]]  # 8 x 240 < 2400
                    pos += len(lines)
                    stamps = [clock + i for i in range(len(lines))]
                    clock += len(lines)
                    if kind == "ingest":
                        system.ingest(lines, timestamps=stamps if step[2] else None)
                    else:
                        ingestor = StreamingIngestor(
                            system, batch_lines=step[2], snapshot_every_s=50.0
                        )
                        ingestor.extend(lines, stamps)
                        ingestor.flush()
                elif kind == "flush":
                    system.index.flush(timestamp=clock)
                elif kind == "compact_row":
                    rows = sorted(system.index.table._rows)
                    if rows:
                        compact_row(system.index, rows[step[1] % len(rows)])
                elif kind == "compact_index":
                    compact_index(system.index)
                else:
                    store = Path(tmp) / f"store{n}"
                    save_store(system, store)
                    system = load_store(store)
                footprint = system.index.memory_footprint_bytes()
                assert footprint == index_footprint_oracle(system.index), step
                assert gauge_value(registry) == footprint, step


class TestGaugeWhereStateChanges:
    def test_gauge_set_by_ingest_without_query(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            system = MithriLogSystem()
            report = system.ingest(CORPUS[:600])
        assert gauge_value(registry) == system.index.memory_footprint_bytes()
        assert gauge_value(registry) == report.index_memory_bytes

    def test_gauge_follows_flush_and_compaction(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            system = MithriLogSystem(PARAMS)
            system.ingest(CORPUS[:600])
            system.index.flush(timestamp=1.0)
            assert gauge_value(registry) == system.index.memory_footprint_bytes()
            system.ingest(CORPUS[600:900])
            compact_index(system.index)
            assert gauge_value(registry) == system.index.memory_footprint_bytes()
