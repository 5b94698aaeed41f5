"""Property-based tests for the hash-grid role index (hypothesis).

The :class:`~repro.detect.index.RoleIndex` soundness contract is that
every spatial query returns a *superset guard*: an entry is excluded
only when the clause provably cannot hold for it, and entries without a
point location are always included.  These properties drive randomized
point clouds (plus interleaved FIFO evictions and field-located
entities) through ``near`` / ``covered_by`` and compare against brute
force over the same live population.
"""

import math

from hypothesis import example, given, settings, strategies as st

from repro.core.instance import PhysicalObservation
from repro.core.space_model import BoundingBox, Circle, PointLocation, Polygon
from repro.core.time_model import TimePoint
from repro.detect.index import RoleIndex, tick_bounds

coords = st.floats(
    min_value=-200.0, max_value=200.0, allow_nan=False, allow_infinity=False
)
cell_sizes = st.floats(min_value=0.5, max_value=64.0)
radii = st.floats(min_value=0.0, max_value=150.0)


def _observation(i: int, x: float, y: float, tick: int = 0):
    return PhysicalObservation(
        mote_id=f"MT{i}",
        sensor_id="SR0",
        seq=i,
        time=TimePoint(tick),
        location=PointLocation(x, y),
        attributes={"value": float(i)},
    )


@st.composite
def clouds(draw):
    """A random point cloud as entities, plus index geometry."""
    n = draw(st.integers(min_value=0, max_value=60))
    pts = [
        (draw(coords), draw(coords))
        for _ in range(n)
    ]
    entities = [_observation(i, x, y) for i, (x, y) in enumerate(pts)]
    return entities, draw(cell_sizes)


def _brute_near(index, point, radius):
    return {
        e.seq
        for e in index.entries()
        if e.point is None or e.point.distance_to(point) <= radius
    }


def _brute_covered(index, region):
    return {
        e.seq
        for e in index.entries()
        if e.point is None or region.contains_point(e.point)
    }


class TestNearMatchesBruteForce:
    @given(clouds(), coords, coords, radii)
    @settings(max_examples=120, deadline=None)
    # Exactly ``radius`` away, but a rounding hair into the next cell.
    @example(([_observation(0, 1.0, -1.07e-73)], 1.0), 1.0, 1.0, 1.0)
    def test_near_equals_brute_force(self, cloud, qx, qy, radius):
        entities, cell = cloud
        index = RoleIndex(cell)
        for entity in entities:
            index.add(entity)
        query = PointLocation(qx, qy)
        assert index.near(query, radius) == _brute_near(index, query, radius)

    @given(clouds(), coords, coords, radii, st.integers(0, 80))
    @settings(max_examples=120, deadline=None)
    def test_near_equals_brute_force_after_evictions(
        self, cloud, qx, qy, radius, evict
    ):
        entities, cell = cloud
        index = RoleIndex(cell)
        for entity in entities:
            index.add(entity)
        index.evict(evict)
        assert len(index) == max(0, len(entities) - evict)
        query = PointLocation(qx, qy)
        assert index.near(query, radius) == _brute_near(index, query, radius)

    @given(clouds(), st.integers(0, 40), st.integers(0, 40))
    @settings(max_examples=80, deadline=None)
    def test_interleaved_add_evict_stays_fifo(self, cloud, evict_a, evict_b):
        entities, cell = cloud
        index = RoleIndex(cell)
        half = len(entities) // 2
        for entity in entities[:half]:
            index.add(entity)
        index.evict(evict_a)
        for entity in entities[half:]:
            index.add(entity)
        index.evict(evict_b)
        survivors = [e.seq for e in index.entries()]
        # FIFO: survivors are exactly the tail of the add order.
        expected = list(range(len(entities)))[: half][evict_a:] + list(
            range(half, len(entities))
        )
        expected = expected[evict_b:]
        assert survivors == expected
        # And spatial queries still see exactly the live population.
        query = PointLocation(0.0, 0.0)
        assert index.near(query, 100.0) == _brute_near(index, query, 100.0)


class TestCoveredByMatchesBruteForce:
    @given(clouds(), coords, coords, st.floats(0.5, 120.0))
    @settings(max_examples=100, deadline=None)
    def test_box_region(self, cloud, x0, y0, size):
        entities, cell = cloud
        index = RoleIndex(cell)
        for entity in entities:
            index.add(entity)
        region = BoundingBox(x0, y0, x0 + size, y0 + size)
        assert index.covered_by(region) == _brute_covered(index, region)

    @given(clouds(), coords, coords, st.floats(0.5, 120.0), st.integers(0, 60))
    @settings(max_examples=100, deadline=None)
    def test_circle_region_after_evictions(self, cloud, cx, cy, r, evict):
        entities, cell = cloud
        index = RoleIndex(cell)
        for entity in entities:
            index.add(entity)
        index.evict(evict)
        region = Circle(PointLocation(cx, cy), r)
        assert index.covered_by(region) == _brute_covered(index, region)


class TestUnlocatedEntries:
    @given(clouds(), coords, coords, radii)
    @settings(max_examples=60, deadline=None)
    def test_field_located_entities_always_returned(self, cloud, qx, qy, radius):
        entities, cell = cloud
        index = RoleIndex(cell)
        for entity in entities:
            index.add(entity)

        class FieldEntity:
            """Minimal entity whose occurrence location is a field."""

            occurrence_time = TimePoint(0)
            occurrence_location = Polygon(
                (
                    PointLocation(0, 0),
                    PointLocation(10, 0),
                    PointLocation(0, 10),
                )
            )
            attributes: dict = {}
            confidence = 1.0

        seq = index.add(FieldEntity())
        query = PointLocation(qx, qy)
        assert seq in index.near(query, radius)
        assert seq in index.covered_by(BoundingBox(500, 500, 501, 501))
        index.evict(len(entities) + 1)  # evicts every point + the field entity
        assert seq not in index.near(query, radius)


class TestTickBounds:
    @given(st.integers(0, 10_000))
    def test_point_time_bounds(self, tick):
        entity = _observation(0, 0.0, 0.0, tick=tick)
        assert tick_bounds(entity) == (tick, tick)
