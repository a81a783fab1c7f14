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

    def _to_segments(self, p):
        """Feet of perpendiculars from points p (..., 2) onto every segment,
        with p broadcast against the (n_seg, 2) start points: the clipped
        foot parameter t, the offset p - foot and its length."""
        start, vec = self.points[:-1], self.seg_vec
        rel = p - start
        t = np.einsum("...j,...j->...", rel, vec) / self._seg_len2
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
    stay closer than one lane half-width w until the route ends (a shared
    lane). Crossing: from the first to the last arc length on each route
    where the centerlines come within 2w of each other.

    Both rules read exact arc-length intervals (`_within`), with no
    sampling. Only segment pairs whose bounding boxes overlap once grown by
    2w can come that close, so only those are measured.
    """
    a, b = route_a.centerline, route_b.centerline
    # segment boxes as (x, y) rows of corners: x is compared over all pairs,
    # y over the pairs that x keeps
    (lo_a, hi_a), (lo_b, hi_b) = ((np.minimum(p[:-1], p[1:]).T,
                                   np.maximum(p[:-1], p[1:]).T)
                                  for p in (a.points, b.points))
    grow = 2.0 * LANE_HALF_WIDTH
    i, j = np.nonzero((lo_a[0][:, None] <= hi_b[0] + grow)
                      & (lo_b[0] <= hi_a[0][:, None] + grow))
    keep = (lo_a[1][i] <= hi_b[1][j] + grow) & (lo_b[1][j] <= hi_a[1][i] + grow)
    i, j = i[keep], j[keep]
    spans = {route_a.id: (a, *_within(a, b, i, j)),
             route_b.id: (b, *_within(b, a, j, i))}
    merge = {rid: _merge_start(line, lo[0], hi[0])
             for rid, (line, lo, hi) in spans.items()}
    if None not in merge.values():
        return ConflictZone(kind="merging", start=merge)
    near = {rid: (lo[1, lo[1] <= hi[1]], hi[1, lo[1] <= hi[1]])
            for rid, (_, lo, hi) in spans.items()}
    if all(len(lo) for lo, _ in near.values()):
        return ConflictZone(
            kind="crossing",
            start={rid: float(lo.min()) for rid, (lo, _) in near.items()},
            end={rid: float(hi.max()) for rid, (_, hi) in near.items()})
    return None


def _within(line: Polyline, other: Polyline, i, j):
    """Arc-length intervals (lo, hi) on `line` where its segment i[k] lies
    closer than w (row 0) and within 2w (row 1) of `other`'s segment j[k];
    lo > hi where it does not. The points within r of a segment form a
    capsule: a disk of radius r at each end and the rectangle between them,
    where the slabs along and across the segment overlap. A line meets each
    piece in one interval, and their union is the capsule's."""
    r = LANE_HALF_WIDTH * np.array([[1.0], [2.0]])

    def closer(dist):  # a line exactly w away does not merge
        return np.stack([dist < r[0], dist <= r[1]])

    p, u = line.points[i], line.seg_dir[i]
    e, n, half_len = other.seg_dir[j], other.seg_normal[j], 0.5 * other.seg_len[j]
    rel = p - (other.points[j] + half_len[:, None] * e)
    x0, y0, x1, y1 = (np.einsum("ij,ij->i", q, v) for q in (rel, u) for v in (e, n))
    along = _slab(x0, x1, half_len, np.abs(x0) <= half_len)
    across = _slab(y0, y1, r, closer(np.abs(y0)))
    lo, hi = np.maximum(along[0], across[0]), np.minimum(along[1], across[1])
    lo, hi = np.where(lo <= hi, lo, np.inf), np.where(lo <= hi, hi, -np.inf)
    for c in (other.points[j], other.points[j + 1]):
        rel = p - c
        foot = -np.einsum("ij,ij->i", rel, u)
        cross = np.abs(rel[:, 0] * u[:, 1] - rel[:, 1] * u[:, 0])
        half = np.where(closer(cross), np.sqrt(np.maximum(r**2 - cross**2, 0.0)),
                        -np.inf)
        lo, hi = np.minimum(lo, foot - half), np.maximum(hi, foot + half)
    lo, hi = np.maximum(lo, 0.0), np.minimum(hi, line.seg_len[i])
    return line.arc[i] + lo, line.arc[i] + hi


def _slab(x0, x1, half, inside):
    """The s with |x0 + s x1| <= half, as (lo, hi); where x1 = 0, every s
    if `inside` and none if not."""
    flat = x1 == 0.0
    x1 = np.where(flat, 1.0, x1)
    half = np.where(flat, np.where(inside, np.inf, -np.inf), half / np.abs(x1))
    return -x0 / x1 - half, -x0 / x1 + half


def _merge_start(line: Polyline, lo, hi) -> Optional[float]:
    """Start of the union of the intervals (lo, hi) that reaches the line's
    end, or None; an interval of length 0 touches at exactly w."""
    keep = lo < hi
    order = np.argsort(lo[keep])
    lo, hi = lo[keep][order], hi[keep][order]
    reach = np.maximum.accumulate(hi)
    if len(hi) == 0 or reach[-1] < line.length:
        return None
    gaps = np.flatnonzero(lo[1:] > reach[:-1])
    return float(lo[gaps[-1] + 1] if len(gaps) else lo[0])


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
            if (under, over) in self.right_of_way:
                raise ValueError("right_of_way given both ways: "
                                 f"{over!r}/{under!r}")
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
