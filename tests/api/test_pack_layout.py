"""``pack_layout``'s columnar pages against the tuple-list packing they replace."""

from typing import List, Tuple

from hypothesis import given
from hypothesis import strategies as st

from repro.api import pack_layout
from repro.engine import PageLayout, Record
from repro.storage import SimulatedDisk


def tuple_pack_layout(disk, page_capacity, records):
    """The previous packing: each page a list of ``(key, record)`` tuples."""
    layout = PageLayout()
    page: List[Tuple[int, Record]] = []
    for key, record in records:
        if not page:
            layout.first_keys.append(key)
        page.append((key, record))
        if len(page) == page_capacity:
            layout.last_keys.append(key)
            layout.page_ids.append(disk.allocate(page))
            page = []
    if page:
        layout.last_keys.append(page[-1][0])
        layout.page_ids.append(disk.allocate(page))
    return layout


def keyed(keys):
    return [(key, Record((i, key % 7), i)) for i, key in enumerate(keys)]


def pack_both(entries, capacity):
    new_disk, old_disk = SimulatedDisk(), SimulatedDisk()
    new = pack_layout(new_disk, capacity, iter(entries))
    old = tuple_pack_layout(old_disk, capacity, iter(entries))
    return (new, new_disk), (old, old_disk)


def assert_same_packing(entries, capacity):
    (new, new_disk), (old, old_disk) = pack_both(entries, capacity)
    assert new.first_keys == old.first_keys
    assert new.last_keys == old.last_keys
    assert new.page_ids == old.page_ids
    for page_id in new.page_ids:
        page, reference = new_disk.read(page_id), old_disk.read(page_id)
        assert len(page) == len(reference)
        assert list(page) == reference
        assert [page[i] for i in range(-len(page), len(page))] == reference + reference
    assert new_disk.stats.pages_written == old_disk.stats.pages_written


class TestPackLayout:
    @given(
        st.lists(st.integers(0, 60), max_size=120).map(sorted),
        st.integers(1, 9),
    )
    def test_matches_tuple_packing(self, keys, capacity):
        assert_same_packing(keyed(keys), capacity)

    def test_duplicate_keys_spill_across_a_page_boundary(self):
        # Five records share key 3 and straddle the boundary of
        # capacity-4 pages: the key ends page 0 and starts page 1.
        entries = keyed([1, 2, 3, 3, 3, 3, 3, 9, 9, 12])
        assert_same_packing(entries, 4)
        (layout, disk), _ = pack_both(entries, 4)
        assert layout.last_keys[0] == layout.first_keys[1] == 3
        assert [len(disk.read(p)) for p in layout.page_ids] == [4, 4, 2]

    def test_pages_share_the_caller_records(self):
        entries = keyed([4, 5, 6])
        (layout, disk), _ = pack_both(entries, 2)
        pages = [disk.read(p) for p in layout.page_ids]
        packed = [record for page in pages for record in page.records]
        assert len(packed) == len(entries)
        assert all(a is b for a, (_, b) in zip(packed, entries))

    def test_empty_input_packs_no_pages(self):
        assert_same_packing([], 4)
