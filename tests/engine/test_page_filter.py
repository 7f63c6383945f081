"""The columnar page filter against the per-record reference loop.

``scan_page`` takes one of three paths per page — a per-record loop for
short key slices, a whole-slice append when the page's bounding box
lies inside the region, a numpy mask otherwise.  Every path must return
what the original loop over ``(key, record)`` pairs returned: the same
records, in the same order, with the same over-read.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, note
from hypothesis import strategies as st

from repro.api import Query, RectUnion, merge_plans
from repro.curves import make_curve
from repro.engine.executor import SCAN_MASK_CUTOFF, Page, Record, scan_page
from repro.geometry import Rect
from repro.index import SFCIndex

SIDE = 16


def reference_scan(page, start, end, rect):
    """The pre-columnar filter: one ``contains`` per record in the page."""
    records = []
    over_read = 0
    for key, record in page:
        if start <= key <= end:
            if rect.contains(record.point):
                records.append(record)
            else:
                over_read += 1
    return records, over_read


def columnar_scan(page, start, end, rect):
    records = []
    over_read = scan_page(page, start, end, rect, records)
    return records, over_read


def assert_same_scan(page, start, end, rect):
    got, got_over = columnar_scan(page, start, end, rect)
    want, want_over = reference_scan(page, start, end, rect)
    assert [id(r) for r in got] == [id(r) for r in want]
    assert got_over == want_over


class PathSpy:
    """Wraps a region and records which of its filter methods ran."""

    def __init__(self, region):
        self.region = region
        self.calls = set()

    def contains(self, cell):
        self.calls.add("contains")
        return self.region.contains(cell)

    def contains_box(self, lo, hi):
        self.calls.add("contains_box")
        return self.region.contains_box(lo, hi)

    def contains_many(self, coords):
        self.calls.add("contains_many")
        return self.region.contains_many(coords)


def paths_taken(page, start, end, region):
    """The region methods one ``scan_page`` call used."""
    spy = PathSpy(region)
    columnar_scan(page, start, end, spy)
    return spy.calls


def make_page(points, keys=None):
    keys = list(range(len(points))) if keys is None else keys
    return Page(keys, [Record(tuple(p), i) for i, p in enumerate(points)])


@st.composite
def rects(draw, dim, side=SIDE):
    lo = [draw(st.integers(0, side - 1)) for _ in range(dim)]
    hi = [draw(st.integers(l, side - 1)) for l in lo]
    return Rect(tuple(lo), tuple(hi))


@st.composite
def regions(draw, dim):
    members = draw(st.lists(rects(dim), min_size=1, max_size=3))
    if len(members) == 1 and draw(st.booleans()):
        return members[0]
    return RectUnion(tuple(members))


@st.composite
def pages(draw):
    """A page of 1..40 records with ascending (possibly repeated) keys."""
    dim = draw(st.sampled_from([2, 3]))
    size = draw(st.integers(1, 4 * SCAN_MASK_CUTOFF))
    # Points sometimes cluster in one corner so a region can hold the
    # whole page box, or miss it entirely.
    span = draw(st.sampled_from([SIDE // 4, SIDE]))
    points = draw(
        st.lists(
            st.tuples(*[st.integers(0, span - 1)] * dim),
            min_size=size,
            max_size=size,
        )
    )
    keys = sorted(draw(st.lists(st.integers(0, 200), min_size=size, max_size=size)))
    return dim, make_page(points, keys)


@st.composite
def page_scans(draw):
    dim, page = draw(pages())
    shape = draw(st.sampled_from(["random", "inside", "outside"]))
    if shape == "inside":
        points = np.array([record.point for record in page.records])
        region = Rect(tuple(points.min(axis=0)), tuple(points.max(axis=0)))
    elif shape == "outside":
        region = Rect((SIDE - 1,) * dim, (SIDE - 1,) * dim)
    else:
        region = draw(regions(dim))
    keys = page.keys
    bounds = st.integers(keys[0] - 5, keys[-1] + 5)
    start = draw(bounds)
    end = draw(st.one_of(bounds, st.just(start))) if draw(st.booleans()) else keys[-1]
    start, end = min(start, end), max(start, end)
    return page, start, end, region


class TestScanPage:
    @given(page_scans())
    def test_matches_reference_loop(self, scan):
        page, start, end, region = scan
        note(f"slice length {sum(start <= k <= end for k in page.keys)}")
        assert_same_scan(page, start, end, region)

    @given(pages(), st.integers(-5, 205))
    def test_empty_key_slice_reads_nothing(self, drawn, start):
        _, page = drawn
        if any(k >= start for k in page.keys):
            start = page.keys[-1] + 1
        records = []
        assert scan_page(page, start, start + 3, Rect((0, 0), (1, 1)), records) == 0
        assert records == []

    def test_short_slice_loops_without_building_columns(self):
        page = make_page([(i, i) for i in range(SCAN_MASK_CUTOFF)])
        rect = Rect((0, 0), (3, 3))
        assert paths_taken(page, 0, SCAN_MASK_CUTOFF - 1, rect) == {"contains"}
        assert page._columns is None
        assert_same_scan(page, 0, SCAN_MASK_CUTOFF - 1, rect)

    def test_page_inside_region_appends_the_slice(self):
        page = make_page([(i % 4, i // 4) for i in range(3 * SCAN_MASK_CUTOFF)])
        rect = Rect((0, 0), (SIDE - 1, SIDE - 1))
        assert paths_taken(page, 2, 2 * SCAN_MASK_CUTOFF, rect) == {"contains_box"}
        assert_same_scan(page, 2, 2 * SCAN_MASK_CUTOFF, rect)

    def test_page_partly_inside_region_is_masked(self):
        page = make_page([(i, i) for i in range(SIDE)])
        rect = Rect((3, 0), (9, 9))
        assert paths_taken(page, 0, SIDE - 1, rect) == {"contains_box", "contains_many"}
        assert_same_scan(page, 0, SIDE - 1, rect)
        records, over_read = columnar_scan(page, 0, SIDE - 1, rect)
        assert [r.point for r in records] == [(i, i) for i in range(3, 10)]
        assert over_read == SIDE - 7

    def test_union_covering_the_box_jointly_still_masks_exactly(self):
        page = make_page([(i, 0) for i in range(SIDE)])
        union = RectUnion((Rect((0, 0), (7, 0)), Rect((8, 0), (SIDE - 1, 0))))
        assert "contains_many" in paths_taken(page, 0, SIDE - 1, union)
        assert_same_scan(page, 0, SIDE - 1, union)


class TestConcurrentColumnsBuild:
    def test_racing_first_scans_agree(self):
        """Scatter's filter threads may build a page's columns at once;
        every racer must still filter exactly like the reference."""
        rng = np.random.default_rng(7)
        pages = [
            make_page([tuple(p) for p in rng.integers(0, SIDE, size=(32, 2))])
            for _ in range(40)
        ]
        rect = Rect((2, 2), (11, 13))
        want = [reference_scan(page, 0, 31, rect) for page in pages]
        workers = 8
        results = [[] for _ in range(workers)]
        barrier = threading.Barrier(workers)

        def scan_all(slot):
            barrier.wait(timeout=10)
            results[slot] = [columnar_scan(page, 0, 31, rect) for page in pages]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=scan_all, args=(slot,)) for slot in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(result == want for result in results)


class TestRegionVectorMethods:
    @given(st.data())
    def test_contains_many_matches_contains(self, data):
        dim = data.draw(st.sampled_from([2, 3]))
        region = data.draw(regions(dim))
        cells = data.draw(
            st.lists(st.tuples(*[st.integers(-2, SIDE + 1)] * dim), max_size=30)
        )
        coords = np.array(cells, dtype=np.int64).reshape(len(cells), dim)
        mask = region.contains_many(coords)
        assert mask.dtype == bool
        assert mask.tolist() == [region.contains(c) for c in cells]

    @given(st.data())
    def test_contains_box_implies_every_cell_inside(self, data):
        dim = data.draw(st.sampled_from([2, 3]))
        region = data.draw(regions(dim))
        box = data.draw(rects(dim))
        inside = all(region.contains(c) for c in box.cells())
        verdict = region.contains_box(box.lo, box.hi)
        if isinstance(region, Rect):
            assert verdict == inside
        else:
            assert not verdict or inside

    def test_other_dimension_never_matches(self):
        rect = Rect((0, 0), (5, 5))
        assert rect.contains_many(np.zeros((3, 3), dtype=np.int64)).tolist() == [False] * 3
        assert not rect.contains_box((0, 0, 0), (1, 1, 1))


class TestThroughTheStore:
    """Every page a store's plan reads, filtered both ways, with
    ``gap_tolerance`` merging runs across cells outside the region so
    the over-read is non-zero."""

    @pytest.mark.parametrize("dim", [2, 3])
    @given(data=st.data())
    def test_plan_pages_match_reference(self, dim, data):
        side = 8
        count = data.draw(st.integers(1, 300))
        capacity = data.draw(st.sampled_from([4, 16, 32]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        index = SFCIndex(make_curve("onion", side, dim), page_capacity=capacity)
        index.bulk_load(rng.integers(0, side, size=(count, dim)), payloads=range(count))
        index.flush()
        members = data.draw(
            st.lists(rects(dim, side), min_size=1, max_size=3)
        )
        gap = data.draw(st.sampled_from([0, 3, 40]))
        plan = merge_plans(
            [index.plan(rect, gap_tolerance=gap) for rect in members], index.page_layout
        )
        layout = index.page_layout
        want, want_over = [], 0
        for (start, end), (first, last) in zip(plan.scan_runs, plan.page_spans):
            for position in range(first, last + 1):
                page = index.disk.read(layout.page_ids[position])
                records, over_read = reference_scan(page, start, end, plan.rect)
                assert columnar_scan(page, start, end, plan.rect) == (records, over_read)
                want.extend(records)
                want_over += over_read
        result = index.execute(Query.union_of(members).hint(gap_tolerance=gap))
        assert result.records == want
        assert result.over_read == want_over
