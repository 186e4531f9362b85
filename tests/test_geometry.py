"""Unit and property tests for the pixel-space geometry primitives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.android.geometry import Rect, TileCoverage, covered_area


def rects(max_coord=400, max_size=200):
    return st.builds(
        Rect.from_size,
        st.integers(0, max_coord),
        st.integers(0, max_coord),
        st.integers(0, max_size),
        st.integers(0, max_size),
    )


class TestRectBasics:
    def test_width_height_area(self):
        r = Rect(10, 20, 30, 50)
        assert r.width == 20
        assert r.height == 30
        assert r.area == 600

    def test_empty_rect_has_zero_area(self):
        assert Rect(10, 10, 10, 40).area == 0
        assert Rect(10, 10, 5, 40).is_empty

    def test_negative_extent_clamps_to_zero(self):
        r = Rect(10, 10, 0, 0)
        assert r.width == 0 and r.height == 0

    def test_from_size(self):
        r = Rect.from_size(5, 6, 10, 20)
        assert r == Rect(5, 6, 15, 26)

    def test_translate(self):
        assert Rect(0, 0, 5, 5).translate(3, 4) == Rect(3, 4, 8, 9)

    def test_inset_shrinks(self):
        assert Rect(0, 0, 10, 10).inset(2, 3) == Rect(2, 3, 8, 7)

    def test_inset_negative_grows(self):
        assert Rect(5, 5, 10, 10).inset(-5, -5) == Rect(0, 0, 15, 15)


class TestIntersectUnion:
    def test_intersect_overlapping(self):
        a = Rect(0, 0, 10, 10)
        b = Rect(5, 5, 15, 15)
        assert a.intersect(b) == Rect(5, 5, 10, 10)

    def test_intersect_disjoint_is_empty(self):
        a = Rect(0, 0, 5, 5)
        b = Rect(6, 6, 10, 10)
        assert a.intersect(b).is_empty
        assert not a.intersects(b)

    def test_touching_edges_do_not_intersect(self):
        a = Rect(0, 0, 5, 5)
        b = Rect(5, 0, 10, 5)
        assert not a.intersects(b)

    def test_contains(self):
        outer = Rect(0, 0, 100, 100)
        assert outer.contains(Rect(10, 10, 20, 20))
        assert not outer.contains(Rect(90, 90, 110, 110))

    def test_contains_empty_always_true(self):
        assert Rect(5, 5, 6, 6).contains(Rect(0, 0, 0, 0))

    def test_union_bounding_box(self):
        a = Rect(0, 0, 5, 5)
        b = Rect(10, 10, 20, 20)
        assert a.union(b) == Rect(0, 0, 20, 20)

    def test_union_with_empty_is_identity(self):
        a = Rect(3, 4, 9, 10)
        assert a.union(Rect(0, 0, 0, 0)) == a
        assert Rect(0, 0, 0, 0).union(a) == a

    @given(rects(), rects())
    def test_intersection_is_contained_in_both(self, a, b):
        inter = a.intersect(b)
        if not inter.is_empty:
            assert a.contains(inter)
            assert b.contains(inter)

    @given(rects(), rects())
    def test_union_contains_both(self, a, b):
        u = a.union(b)
        assert u.contains(a)
        assert u.contains(b)

    @given(rects(), rects())
    def test_intersect_commutes(self, a, b):
        assert a.intersect(b) == b.intersect(a)


class TestTiles:
    def test_aligned_rect_only_full_tiles(self):
        cov = Rect(0, 0, 32, 32).tile_counts(8, 8)
        assert cov == TileCoverage(full=16, partial=0)

    def test_unaligned_rect_has_partial_edges(self):
        cov = Rect(1, 1, 31, 31).tile_counts(8, 8)
        # still spans 4x4 tile grid, but the border ring is partial
        assert cov.total == 16
        assert cov.full == 4  # only the interior 2x2 block is full

    def test_tiles_are_origin_aligned(self):
        tiles = list(Rect(10, 10, 20, 20).tiles(8, 8))
        assert tiles[0] == Rect(8, 8, 16, 16)

    def test_empty_rect_has_no_tiles(self):
        assert list(Rect(5, 5, 5, 5).tiles(8, 8)) == []
        assert Rect(5, 5, 5, 5).tile_counts(8, 8) == TileCoverage(0, 0)

    def test_tile_coverage_addition(self):
        assert TileCoverage(1, 2) + TileCoverage(3, 4) == TileCoverage(4, 6)

    def test_rect_smaller_than_tile(self):
        cov = Rect(2, 2, 5, 5).tile_counts(8, 8)
        assert cov == TileCoverage(full=0, partial=1)

    @given(rects(max_coord=100, max_size=64), st.sampled_from([4, 8, 16, 32]), st.sampled_from([4, 8, 32]))
    @settings(max_examples=60)
    def test_tile_counts_match_explicit_enumeration(self, rect, tw, th):
        full = sum(1 for tile in rect.tiles(tw, th) if rect.contains(tile))
        total = sum(1 for _ in rect.tiles(tw, th))
        cov = rect.tile_counts(tw, th)
        assert cov.full == full
        assert cov.total == total

    @given(rects(max_coord=200, max_size=150))
    @settings(max_examples=60)
    def test_full_tiles_area_bounded_by_rect_area(self, rect):
        cov = rect.tile_counts(8, 8)
        assert cov.full * 64 <= rect.area


class TestCoveredArea:
    def test_single_rect(self):
        assert covered_area([Rect(0, 0, 10, 10)]) == 100

    def test_disjoint_rects_sum(self):
        assert covered_area([Rect(0, 0, 10, 10), Rect(20, 20, 30, 30)]) == 200

    def test_overlapping_rects_counted_once(self):
        a = Rect(0, 0, 10, 10)
        b = Rect(5, 0, 15, 10)
        assert covered_area([a, b]) == 150

    def test_nested_rects(self):
        assert covered_area([Rect(0, 0, 10, 10), Rect(2, 2, 5, 5)]) == 100

    def test_empty_input(self):
        assert covered_area([]) == 0

    def test_empty_rects_ignored(self):
        assert covered_area([Rect(0, 0, 0, 0), Rect(0, 0, 4, 4)]) == 16

    @given(st.lists(rects(max_coord=60, max_size=40), max_size=6))
    @settings(max_examples=50)
    def test_matches_brute_force_pixel_count(self, boxes):
        pixels = set()
        for r in boxes:
            for x in range(r.left, r.right):
                for y in range(r.top, r.bottom):
                    pixels.add((x, y))
        assert covered_area(boxes) == len(pixels)

    @given(st.lists(rects(max_coord=100, max_size=80), max_size=8))
    @settings(max_examples=50)
    def test_bounded_by_sum_of_areas(self, boxes):
        total = covered_area(boxes)
        assert total <= sum(r.area for r in boxes)
        if boxes:
            assert total >= max(r.area for r in boxes)
