"""Environment representation: polylines, routes, Frenet projection and
conflict zones between routes."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import PositionOutOfCorridor, SOutOfRange

CORRIDOR = 50.0          # m, farthest projection accepted onto a route
LANE_HALF_WIDTH = 1.75   # m, conflict-zone proximity threshold
CONFLICT_SAMPLE_STEP = 0.5
# m, farthest centerline distance the conflict-zone rules look at: twice the
# half-width, plus a margin so that no rounded distance at a threshold can
# fall on the other side of the box test
CONFLICT_REACH = 2.0 * LANE_HALF_WIDTH + 1.0


def normalize_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    a = math.fmod(a, 2.0 * math.pi)
    if a > math.pi:
        a -= 2.0 * math.pi
    elif a <= -math.pi:
        a += 2.0 * math.pi
    return a


class Polyline:
    """Ordered 2-D vertices with cumulative arc-length parametrization."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ValueError("polyline needs at least two 2-D points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("polyline points must be finite")
        seg = np.diff(pts, axis=0)
        seg_len = np.hypot(seg[:, 0], seg[:, 1])
        if np.any(seg_len <= 0.0):
            raise ValueError("consecutive polyline points must be distinct")
        self.points = pts
        self.points.setflags(write=False)
        self.seg_vec = seg
        self.seg_len = seg_len
        self._seg_len2 = seg_len**2
        self.seg_dir = seg / seg_len[:, None]
        self.arc = np.concatenate(([0.0], np.cumsum(seg_len)))
        self.seg_heading = np.arctan2(seg[:, 1], seg[:, 0])
        # left normal of each segment
        self.seg_normal = np.stack([-self.seg_dir[:, 1], self.seg_dir[:, 0]], axis=1)
        self._vertex_curv = _vertex_curvature(pts, seg, seg_len)
        self._interior_arc = self.arc[1:-1]

    @property
    def length(self) -> float:
        return float(self.arc[-1])

    def _segment(self, s):
        """Segment of arc length s (scalar or array): the count of interior
        vertices at or before s, so the end segments continue past the ends."""
        return np.searchsorted(self._interior_arc, s, side="right")

    def point_at(self, s: float, d: float = 0.0, extrapolate: bool = False):
        """Cartesian point at arc length s, offset d along the left normal."""
        return self.points_at([s], d, extrapolate)[0]

    def points_at(self, s, d=0.0, extrapolate: bool = False) -> np.ndarray:
        """Cartesian points at an array of arc lengths, offset d (scalar or
        per sample) along the left normal, as one (len(s), 2) array. Past
        the ends, `extrapolate` continues the end segments."""
        s = np.asarray(s, dtype=float)
        if not extrapolate and (np.any(s < -1e-9)
                                or np.any(s > self.length + 1e-9)):
            raise SOutOfRange(f"s outside [0, {self.length}]")
        i = self._segment(s)
        base = self.points[i] + self.seg_dir[i] * (s - self.arc[i])[:, None]
        return base + np.asarray(d, dtype=float)[..., None] * self.seg_normal[i]

    def heading_at(self, s: float) -> float:
        return float(self.seg_heading[self._segment(s)])

    def curvature_at(self, s):
        """Discrete curvature at arc length s (scalar or array), linearly
        interpolated between vertex values and constant beyond the ends."""
        return np.interp(s, self.arc, self._vertex_curv)

    def project(self, position) -> tuple[float, float, float]:
        """Return (s, d, distance) of the closest point on the polyline.

        Ties between equidistant segments resolve to the lower arc length.
        """
        t, diff, dist = self._to_segments(np.asarray(position, dtype=float))
        i = int(np.argmin(dist))
        s = float(self.arc[i] + t[i] * self.seg_len[i])
        cross = self.seg_dir[i, 0] * diff[i, 1] - self.seg_dir[i, 1] * diff[i, 0]
        d = math.copysign(dist[i], cross) if dist[i] > 0.0 else 0.0
        return s, d, float(dist[i])

    def _to_segments(self, p, seg=slice(None)):
        """Feet of perpendiculars from points p (..., 2) onto the segments
        `seg` (all of them by default), with p broadcast against their
        (..., 2) start points: the clipped foot parameter t, the offset
        p - foot and its length. `project` passes one point and all
        segments, the conflict-zone builder one segment index per point."""
        start, vec = self.points[:-1][seg], self.seg_vec[seg]
        rel = p - start
        t = np.einsum("...j,...j->...", rel, vec) / self._seg_len2[seg]
        t = np.clip(t, 0.0, 1.0)
        diff = p - (start + t[..., None] * vec)
        return t, diff, np.hypot(diff[..., 0], diff[..., 1])

    def grid(self, step: float) -> np.ndarray:
        """The arc-length grid at `step`: evenly spaced from 0 to the length,
        both included, no farther apart than `step`. The count ignores the
        rounding of the length, so that a moved copy of the line gets the
        same grid (750.0000000000015 m at 0.5 m has 750 m's 1,501 samples)."""
        n = max(int(math.ceil(self.length / step - 1e-9)) + 1, 2)
        return np.linspace(0.0, self.length, n)

    def sample(self, step: float):
        """(s, xy) at the arc lengths of `grid(step)`."""
        s = self.grid(step)
        return s, self.points_at(s)


def _vertex_curvature(pts, seg, seg_len):
    """Signed Menger (circumscribed-circle) curvature per vertex.

    Endpoints copy their interior neighbour; collinear triples give 0.
    """
    n = len(pts)
    curv = np.zeros(n)
    for i in range(1, n - 1):
        a, b = seg[i - 1], seg[i]
        la, lb = seg_len[i - 1], seg_len[i]
        chord = pts[i + 1] - pts[i - 1]
        lc = math.hypot(chord[0], chord[1])
        cross = a[0] * b[1] - a[1] * b[0]
        denom = la * lb * lc
        curv[i] = 2.0 * cross / denom if denom > 1e-12 else 0.0
    if n > 2:
        curv[0] = curv[1]
        curv[-1] = curv[-2]
    return curv


@dataclass(frozen=True)
class FrenetPose:
    s: float
    d: float
    phi: float


@dataclass(frozen=True)
class Route:
    id: str
    centerline: Polyline
    speed_limit: float
    intersection_start: Optional[float] = None

    def __post_init__(self):
        # the IDM divides by the target speed, which the limit caps
        if not 0.0 < self.speed_limit < math.inf:
            raise ValueError(f"route {self.id!r}: speed_limit must be positive "
                             "and finite")
        if self.intersection_start is not None:
            if not 0.0 <= self.intersection_start <= self.centerline.length:
                raise ValueError("intersection_start outside route arc range")

    @property
    def length(self) -> float:
        return self.centerline.length


@dataclass(frozen=True)
class ConflictZone:
    """Arc-length region where two routes cross or merge.

    For crossing zones `start`/`end` hold per-route intervals; for merging
    zones only `start` is meaningful (the shared lane begins there).
    """

    kind: str  # "crossing" | "merging"
    start: dict  # route id -> arc length
    end: dict = field(default_factory=dict)  # route id -> arc length (crossing only)

    def interval(self, route_id: str) -> tuple[float, float]:
        if self.kind == "crossing":
            return self.start[route_id], self.end[route_id]
        return self.start[route_id], math.inf


def project_to_route(position, heading: float, route: Route) -> FrenetPose:
    """Project a Cartesian pose onto the route centerline."""
    s, d, dist = route.centerline.project(position)
    if dist > CORRIDOR:
        raise PositionOutOfCorridor(
            f"position {np.asarray(position)} is {dist:.1f} m from route {route.id}")
    phi = normalize_angle(heading - route.centerline.heading_at(s))
    return FrenetPose(s=s, d=d, phi=phi)


def compute_conflict_zone(route_a: Route,
                          route_b: Route) -> Optional[ConflictZone]:
    """Detect the crossing or merging region between two routes.

    Merging: earliest arc length on each route after which the centerlines
    stay within one lane half-width until the route ends (a shared lane).
    Crossing: the interval where the centerlines pass within twice the
    half-width of each other and diverge afterwards.

    Each route is sampled on its `grid(CONFLICT_SAMPLE_STEP)` and each
    sample is measured against the other centerline in two steps: a filter
    keeps the segments whose bounding box, grown by CONFLICT_REACH, holds the
    sample, and `project`'s arithmetic refines the distance to those alone.
    A sample that no grown box holds is farther than the reach, which no
    rule looks at. A moved or rotated copy of the map has the same grids and
    so the same zones, to rounding.
    """
    sa, xa = route_a.centerline.sample(CONFLICT_SAMPLE_STEP)
    sb, xb = route_b.centerline.sample(CONFLICT_SAMPLE_STEP)
    da = _distances_within_reach(route_b.centerline, xa)
    db = _distances_within_reach(route_a.centerline, xb)

    merge_a = _merge_start(sa, da)
    merge_b = _merge_start(sb, db)
    if merge_a is not None and merge_b is not None:
        return ConflictZone(kind="merging",
                            start={route_a.id: merge_a, route_b.id: merge_b})

    near_a = da <= 2.0 * LANE_HALF_WIDTH
    near_b = db <= 2.0 * LANE_HALF_WIDTH
    if near_a.any() and near_b.any():
        ia = np.flatnonzero(near_a)
        ib = np.flatnonzero(near_b)
        return ConflictZone(
            kind="crossing",
            start={route_a.id: float(sa[ia[0]]), route_b.id: float(sb[ib[0]])},
            end={route_a.id: float(sa[ia[-1]]), route_b.id: float(sb[ib[-1]])},
        )
    return None


def _distances_within_reach(line: Polyline, xy) -> np.ndarray:
    """Distance from each point of xy (n, 2) to `line`: `project`'s distance
    bit for bit up to CONFLICT_REACH, never less than it, and inf where no
    segment's bounding box grown by the reach holds the point."""
    lo = np.minimum(line.points[:-1], line.points[1:]) - CONFLICT_REACH
    hi = np.maximum(line.points[:-1], line.points[1:]) + CONFLICT_REACH
    # filter: sort the points along the axis they spread over most, so that
    # each box's range on that axis is one run of the order; then test the
    # other axis on the candidates of that run
    extent = np.ptp(xy, axis=0)
    axis = int(extent[1] > extent[0])
    other = 1 - axis
    order = np.argsort(xy[:, axis])
    keys = xy[order, axis]
    first = np.searchsorted(keys, lo[:, axis])
    count = np.searchsorted(keys, hi[:, axis], side="right") - first
    seg = np.repeat(np.arange(len(lo)), count)
    point = order[np.arange(len(seg))
                  - np.repeat(np.cumsum(count) - count - first, count)]
    inside = ((xy[point, other] >= lo[seg, other])
              & (xy[point, other] <= hi[seg, other]))
    point, seg = point[inside], seg[inside]
    # refine: exact distances of the kept pairs, least per point
    dist = np.full(len(xy), math.inf)
    np.minimum.at(dist, point, line._to_segments(xy[point], seg)[2])
    return dist


def _merge_start(s, dist):
    """Earliest sample after which all remaining samples stay close."""
    within = dist < LANE_HALF_WIDTH
    if not within[-1]:
        return None
    # last index that violates; shared lane starts right after it
    bad = np.flatnonzero(~within)
    if len(bad) == 0:
        return float(s[0])
    return float(s[bad[-1] + 1])


class RouteGraph:
    """Routes plus right-of-way relations and pairwise conflict zones."""

    def __init__(self, routes, right_of_way=()):
        self.routes = {}
        for r in routes:
            if r.id in self.routes:
                raise ValueError(f"duplicate route id {r.id!r}")
            self.routes[r.id] = r
        self.right_of_way = set()
        for over, under in right_of_way:
            if over == under:
                raise ValueError("right_of_way must be irreflexive")
            if over not in self.routes or under not in self.routes:
                raise ValueError(f"unknown route in right_of_way: {over!r}/{under!r}")
            self.right_of_way.add((over, under))
        self.conflict_zones = {}
        ids = sorted(self.routes)
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                zone = compute_conflict_zone(self.routes[a], self.routes[b])
                if zone is not None:
                    self.conflict_zones[frozenset((a, b))] = zone

    def zone_between(self, a: str, b: str) -> Optional[ConflictZone]:
        return self.conflict_zones.get(frozenset((a, b)))

    def has_priority_over(self, a: str, b: str) -> bool:
        return (a, b) in self.right_of_way

    def must_yield(self, route_id: str) -> bool:
        """True when some conflicting route has right of way over this one."""
        for (over, under) in self.right_of_way:
            if under == route_id and self.zone_between(over, under) is not None:
                return True
        return False
