"""Polyline geometry, Frenet projection, and conflict-zone detection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossplan import Polyline, Route, RouteGraph, geometry
from crossplan.errors import PositionOutOfCorridor, SOutOfRange
from crossplan.geometry import (
    CONFLICT_REACH,
    LANE_HALF_WIDTH,
    ConflictZone,
    _distances_within_reach,
    compute_conflict_zone,
    normalize_angle,
    project_to_route,
)

from scenes import (circle_route, line_route, merge_graph, merge_scenario,
                    t_junction_graph, t_junction_scenario)


@given(st.floats(min_value=-50.0, max_value=50.0))
def test_normalize_angle_wraps_into_half_open_interval(a):
    w = normalize_angle(a)
    assert -math.pi < w <= math.pi
    # same angle modulo a full turn
    k = (a - w) / (2.0 * math.pi)
    assert abs(k - round(k)) < 1e-9


def test_normalize_angle_boundary():
    assert normalize_angle(math.pi) == pytest.approx(math.pi)
    assert normalize_angle(-math.pi) == pytest.approx(math.pi)
    assert normalize_angle(0.0) == 0.0


def _gentle_polyline(rng, n_seg=40, max_turn=0.03):
    headings = np.cumsum(rng.uniform(-max_turn, max_turn, n_seg))
    headings += rng.uniform(-math.pi, math.pi)
    steps = np.stack([np.cos(headings), np.sin(headings)], axis=1)
    pts = np.vstack([[0.0, 0.0], np.cumsum(steps, axis=0)])
    pts += rng.uniform(-100.0, 100.0, 2)
    return Polyline(pts)


@given(st.integers(0, 10_000), st.floats(-1.5, 1.5), st.floats(0.05, 0.95))
@settings(max_examples=60, deadline=None)
def test_projection_round_trip_on_gentle_polylines(seed, d, frac):
    line = _gentle_polyline(np.random.default_rng(seed))
    s = 1.0 + frac * (line.length - 2.0)
    p = line.point_at(s, d)
    s2, d2, dist = line.project(p)
    # offsetting across a vertex with a small turn bends the normal slightly
    assert abs(s2 - s) < 0.08
    assert abs(d2 - d) < 0.08
    assert abs(dist - abs(d)) < 0.08


def test_projection_round_trip_exact_on_straight_line():
    line = Polyline([[0.0, 0.0], [30.0, 40.0], [60.0, 80.0]])
    for s in (0.0, 12.3, 50.0, line.length):
        for d in (-3.0, 0.0, 2.5):
            p = line.point_at(s, d)
            s2, d2, _ = line.project(p)
            assert s2 == pytest.approx(s, abs=1e-9)
            assert d2 == pytest.approx(d, abs=1e-9)


def _segment_distance(p, a, b):
    ab = b - a
    t = float(np.clip(np.dot(p - a, ab) / np.dot(ab, ab), 0.0, 1.0))
    foot = a + t * ab
    return float(np.hypot(*(p - foot))), t


def test_projection_matches_brute_force_segment_oracle():
    rng = np.random.default_rng(7)
    line = _gentle_polyline(rng, n_seg=25)
    pts = np.asarray(line.points)
    for _ in range(200):
        q = pts[rng.integers(len(pts))] + rng.uniform(-4.0, 4.0, 2)
        best = math.inf
        best_s = None
        acc = 0.0
        for a, b in zip(pts[:-1], pts[1:]):
            dist, t = _segment_distance(q, a, b)
            seg = float(np.hypot(*(b - a)))
            if dist < best - 1e-12:
                best = dist
                best_s = acc + t * seg
            acc += seg
        s, d, dist = line.project(q)
        assert dist == pytest.approx(best, abs=1e-9)
        assert s == pytest.approx(best_s, abs=1e-6)
        assert abs(d) == pytest.approx(best, abs=1e-9)


def test_lateral_offset_sign_is_left_positive():
    line = Polyline([[0.0, 0.0], [100.0, 0.0]])  # pointing east
    _, d_left, _ = line.project(np.array([50.0, 2.0]))
    _, d_right, _ = line.project(np.array([50.0, -2.0]))
    assert d_left > 0 > d_right


def test_point_at_bounds_and_extrapolation():
    line = Polyline([[0.0, 0.0], [10.0, 0.0]])
    with pytest.raises(SOutOfRange):
        line.point_at(-0.1)
    with pytest.raises(SOutOfRange):
        line.point_at(10.1)
    p = line.point_at(12.0, extrapolate=True)
    assert p[0] == pytest.approx(12.0)
    assert p[1] == pytest.approx(0.0)


def test_points_at_equals_stacked_point_at():
    line = _gentle_polyline(np.random.default_rng(7))
    L = line.length
    s = np.concatenate(([-3.0, -1e-10, 0.0], np.linspace(0.0, L, 97),
                        line.arc, [L + 1e-10, L + 0.5, L + 12.0]))
    d = np.random.default_rng(8).uniform(-2.0, 2.0, len(s))
    for dd in (0.0, 1.25, -0.75, d):
        want = np.stack([line.point_at(si, float(di), extrapolate=True)
                         for si, di in zip(s, np.broadcast_to(dd, s.shape))])
        got = line.points_at(s, dd, extrapolate=True)
        assert got.shape == (len(s), 2)
        assert np.array_equal(got, want)
    inside = s[(s >= -1e-9) & (s <= L + 1e-9)]
    want = np.stack([line.point_at(si, 0.5) for si in inside])
    assert np.array_equal(line.points_at(inside, 0.5), want)
    for bad in ([-0.1, 1.0], [1.0, L + 0.1]):
        with pytest.raises(SOutOfRange):
            line.points_at(np.array(bad))


def test_sample_keeps_the_per_segment_formula():
    line = _gentle_polyline(np.random.default_rng(9))
    s, xy = line.sample(0.5)
    assert s[0] == 0.0 and s[-1] == line.length
    # the formula `sample` used before it called `points_at`; the zero
    # offset term that `points_at` adds can flip only the sign of a zero
    i = np.clip(np.searchsorted(line.arc, s, side="right") - 1, 0,
                len(line.seg_len) - 1)
    want = line.points[i] + line.seg_dir[i] * (s - line.arc[i])[:, None]
    assert np.array_equal(xy, want)


@pytest.mark.parametrize("n_points", [2, 41])
def test_segment_lookup_keeps_both_former_rules(n_points):
    rng = np.random.default_rng(n_points)
    line = (Polyline([[3.0, -1.0], [10.0, 4.0]]) if n_points == 2
            else _gentle_polyline(rng, n_seg=n_points - 1))
    L, arc = line.length, line.arc
    s = np.concatenate((
        rng.uniform(-5.0, L + 5.0, 200), arc, np.nextafter(arc, -np.inf),
        np.nextafter(arc, np.inf), [-3.0, -1e-10, -0.0, L + 1e-10, L + 3.0,
                                    -np.inf, np.inf, np.nan]))
    last = len(line.seg_len) - 1
    # the former vector rule of `points_at`: clip s, then the index
    vector_rule = np.clip(np.searchsorted(
        line.arc, np.clip(s, 0.0, line.length), side="right") - 1, 0, last)
    assert np.array_equal(line._segment(s), vector_rule)
    for si, want in zip(s, vector_rule):
        # the former scalar `segment_index`
        scalar_rule = min(max(int(np.searchsorted(
            line.arc, si, side="right")) - 1, 0), last)
        assert line._segment(float(si)) == scalar_rule == want
        assert line.heading_at(float(si)) == line.seg_heading[want]


def _bundled_and_gentle_pairs(rng):
    """Ordered pairs of distinct bundled centerlines, gentle random
    polylines paired both ways, and each gentle polyline with itself."""
    lines = [route.centerline
             for graph in (merge_scenario().graph, t_junction_scenario().graph)
             for route in graph.routes.values()]
    gentle = [_gentle_polyline(rng) for _ in range(6)]
    return ([(a, b) for a in lines for b in lines if a is not b]
            + list(zip(gentle[::2], gentle[1::2]))
            + list(zip(gentle[1::2], gentle[::2]))
            + [(g, g) for g in gentle])


def test_conflict_distances_are_project_distances():
    rng = np.random.default_rng(11)
    dropped = 0
    for a, b in _bundled_and_gentle_pairs(rng):
        _, xy = a.sample(0.5)
        for points in (xy, xy + rng.normal(0.0, 1.0, xy.shape)):
            want = np.array([b.project(p)[2] for p in points])
            # the distances `compute_conflict_zone` holds against its
            # thresholds: a least over some of the segments, so never below
            # `project`'s, and `project`'s within reach, where the filter
            # keeps the nearest segment
            got = _distances_within_reach(b, points)
            assert np.all(got >= want)
            within = want <= CONFLICT_REACH - 1e-9
            assert np.array_equal(got[within], want[within])
            assert np.all(want[got != want] > 2.0 * LANE_HALF_WIDTH)
            dropped += np.count_nonzero(np.isinf(got))
    assert dropped > 0  # the filter is exercised


def _offset_line(rid, p0, p1, offset, n=41):
    """Straight route from p0 to p1 moved `offset` along its left normal."""
    p0, p1 = np.asarray(p0, float), np.asarray(p1, float)
    u = (p1 - p0) / np.hypot(*(p1 - p0))
    shift = offset * np.array([-u[1], u[0]])
    return line_route(rid, p0 + shift, p1 + shift, n=n)


def _boundary_pairs():
    """Route pairs whose centerlines sit at or near the zone thresholds."""
    pairs = []
    for gap in (LANE_HALF_WIDTH, 2.0 * LANE_HALF_WIDTH):
        for eps in (-1e-9, 0.0, 1e-9):
            a = line_route("a", [0.0, 0.0], [200.0, 0.0])
            pairs.append((a, line_route("b", [30.0, gap + eps],
                                        [200.0, gap + eps], n=17)))
            # diagonal segments, whose bounding boxes are large
            pairs.append((_offset_line("a", [0.0, 0.0], [150.0, 150.0], 0.0,
                                       n=4),
                          _offset_line("b", [-20.0, -20.0], [150.0, 150.0],
                                       gap + eps, n=3)))
    diagonal = Polyline([[0.0, 0.0], [80.0, 80.0], [160.0, 0.0],
                         [240.0, 80.0]])
    pairs.append((Route("a", diagonal, 15.0),
                  line_route("b", [0.0, 40.0], [240.0, 40.0], n=5)))
    # touching the other route only at an end vertex
    main = line_route("a", [0.0, 0.0], [100.0, 0.0])
    pairs.append((main, line_route("b", [50.0, -60.0], [50.0, 0.0])))
    pairs.append((main, line_route("b", [100.0, 0.0], [100.0, 80.0])))
    return pairs


def test_conflict_zones_equal_the_full_scan(monkeypatch):
    pairs = [(Route("a", a, 15.0), Route("b", b, 15.0))
             for a, b in _bundled_and_gentle_pairs(np.random.default_rng(11))]
    for route in (merge_scenario().graph.routes["ramp"],
                  t_junction_scenario().graph.routes["side"],
                  circle_route("c", 40.0, n=90)):
        line = route.centerline
        reverse = Route("b", Polyline(line.points[::-1]), 15.0)
        pairs += [(route, Route("b", line, 15.0)), (route, reverse)]
    pairs += _boundary_pairs()

    def full_scan(line, xy):  # every sample against every segment
        return line._to_segments(xy[:, None, :])[2].min(axis=1)

    kinds = set()
    for a, b in pairs:
        with monkeypatch.context() as patch:
            patch.setattr(geometry, "_distances_within_reach", full_scan)
            want = compute_conflict_zone(a, b)
        assert compute_conflict_zone(a, b) == want
        assert RouteGraph([a, b]).zone_between(a.id, b.id) == want
        kinds.add(want.kind if want else None)
        for line, other in ((a.centerline, b.centerline),
                            (b.centerline, a.centerline)):
            _, xy = line.sample(0.5)
            got = _distances_within_reach(other, xy)
            scan = full_scan(other, xy)
            within = scan <= CONFLICT_REACH - 1e-9
            assert np.array_equal(got[within], scan[within])
            assert np.all(got >= scan)
    assert kinds == {"merging", "crossing", None}


def test_bundled_scenarios_conflict_zones():
    merge = merge_scenario().graph
    assert merge.conflict_zones == {
        frozenset(("main", "ramp")): ConflictZone(
            "merging", {"main": 480.5, "ramp": 289.43194348008785})}
    junction = t_junction_scenario().graph
    assert junction.conflict_zones == {
        frozenset(("north", "side")): ConflictZone(
            "merging", {"north": 252.0, "side": 121.90162578071792}),
        frozenset(("side", "south")): ConflictZone(
            "crossing", {"side": 114.90727020313574, "south": 244.5},
            {"side": 124.39960991556869, "south": 254.0}),
    }


def test_curvature_exact_on_sampled_circle():
    for radius in (10.0, 30.0, 112.0):
        route = circle_route("c", radius, n=120)
        mid = 0.5 * route.length
        assert route.centerline.curvature_at(mid) == pytest.approx(
            1.0 / radius, rel=1e-6)


def test_curvature_converges_on_parabola():
    # y = x^2 / 2 has curvature 1 at the apex
    errs = []
    for n in (41, 161, 641):
        x = np.linspace(-2.0, 2.0, n)
        line = Polyline(np.stack([x, 0.5 * x ** 2], axis=1))
        s_apex, _, _ = line.project(np.array([0.0, 0.0]))
        errs.append(abs(line.curvature_at(s_apex) - 1.0))
    assert errs[2] < errs[0]
    assert errs[2] < 1e-3


def test_heading_along_straight_and_circular_lines():
    line = Polyline([[0.0, 0.0], [10.0, 10.0]])
    assert line.heading_at(5.0) == pytest.approx(math.pi / 4)
    route = circle_route("c", 50.0, n=400)
    s = 0.25 * route.length  # quarter turn from (R, 0)
    assert route.centerline.heading_at(s) == pytest.approx(
        math.pi / 2 + math.pi / 4, abs=0.02)


def test_polyline_rejects_degenerate_input():
    with pytest.raises(ValueError):
        Polyline([[0.0, 0.0]])
    with pytest.raises(ValueError):
        Polyline([[1.0, 1.0], [1.0, 1.0]])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            Polyline([[0.0, 0.0], [bad, 0.0], [10.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            Polyline([[0.0, 0.0], [10.0, bad]])


def test_crossing_zone_between_perpendicular_routes():
    a = line_route("a", [-50.0, 0.0], [50.0, 0.0])
    b = line_route("b", [0.0, -50.0], [0.0, 50.0])
    zone = compute_conflict_zone(a, b)
    assert zone is not None
    assert zone.kind == "crossing"
    for rid in ("a", "b"):
        lo, hi = zone.interval(rid)
        assert lo < 50.0 < hi
        assert hi - lo < 12.0


def test_merging_zone_has_open_ended_interval():
    graph = merge_graph()
    zone = graph.zone_between("ramp", "main")
    assert zone is not None
    assert zone.kind == "merging"
    for rid in ("ramp", "main"):
        lo, hi = zone.interval(rid)
        assert 0.0 < lo < graph.routes[rid].length
        assert hi == math.inf


def test_parallel_far_routes_have_no_conflict_zone():
    a = line_route("a", [0.0, 0.0], [100.0, 0.0])
    b = line_route("b", [0.0, 30.0], [100.0, 30.0])
    assert compute_conflict_zone(a, b) is None


def test_t_junction_has_both_zone_kinds():
    graph = t_junction_graph()
    assert graph.zone_between("side", "north").kind == "merging"
    assert graph.zone_between("side", "south").kind == "crossing"
    assert graph.zone_between("north", "south") is None


def test_route_graph_validates_right_of_way():
    a = line_route("a", [-50.0, 0.0], [50.0, 0.0])
    b = line_route("b", [0.0, -50.0], [0.0, 50.0])
    with pytest.raises(ValueError):
        RouteGraph([a, b], right_of_way=[("a", "a")])
    with pytest.raises(ValueError):
        RouteGraph([a, b], right_of_way=[("a", "nope")])
    graph = RouteGraph([a, b], right_of_way=[("a", "b")])
    assert graph.has_priority_over("a", "b")
    assert not graph.has_priority_over("b", "a")
    assert graph.must_yield("b")
    assert not graph.must_yield("a")


def test_route_validates_intersection_start():
    line = Polyline([[0.0, 0.0], [10.0, 0.0]])
    with pytest.raises(ValueError):
        Route(id="r", centerline=line, speed_limit=10.0,
              intersection_start=11.0)


@pytest.mark.parametrize("limit", [0.0, -5.0, math.nan])
def test_route_rejects_a_non_positive_speed_limit(limit):
    line = Polyline([[0.0, 0.0], [10.0, 0.0]])
    with pytest.raises(ValueError, match="speed_limit"):
        Route(id="r", centerline=line, speed_limit=limit)


def test_project_to_route_corridor_limit():
    route = line_route("r", [0.0, 0.0], [100.0, 0.0])
    pose = project_to_route(np.array([40.0, 1.0]), 0.1, route)
    assert pose.s == pytest.approx(40.0)
    assert pose.d == pytest.approx(1.0)
    assert pose.phi == pytest.approx(0.1)
    with pytest.raises(PositionOutOfCorridor):
        project_to_route(np.array([40.0, 80.0]), 0.0, route)


def test_arc_to_cartesian_matches_point_at():
    # point_at is the map from (arc length, left offset) to Cartesian
    # coordinates: on a counter-clockwise circle the left normal points to
    # the centre, and past the end it continues along the last segment
    radius = 40.0
    line = circle_route("c", radius, n=2000).centerline
    for s, d in ((12.0, -0.5), (50.0, 1.2), (0.0, 0.0)):
        theta = s / radius
        want = (radius - d) * np.array([math.cos(theta), math.sin(theta)])
        assert np.allclose(line.point_at(s, d), want, atol=1e-3)
    end = line.points[-1]
    past = line.point_at(line.length + 2.0, extrapolate=True)
    assert np.allclose(past, end + 2.0 * line.seg_dir[-1], atol=1e-12)
