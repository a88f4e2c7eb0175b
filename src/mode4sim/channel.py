"""Link-level propagation: two-slope street-canyon pathloss (WINNER+ B1),
spatially correlated log-normal shadowing, and obstacle-based LOS checks.

Exact formulas are documented in the README so the reference values used in
the tests can be reproduced by hand.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig

SPEED_OF_LIGHT = 3e8
MIN_DISTANCE_M = 3.0
ANTENNA_HEIGHT_M = 1.5  # both ends of every link


def dbm_to_mw(dbm):
    return np.power(10.0, np.asarray(dbm, dtype=float) / 10.0)


def shadow_sigma_db(cfg: RunConfig, los):
    """Shadowing sigma of each link from its LOS flag."""
    return np.where(los, cfg.shadow_sigma_los_db, cfg.shadow_sigma_nlos_db)


def breakpoint_distance_m(carrier_ghz: float) -> float:
    h_eff = ANTENNA_HEIGHT_M - 1.0
    return 4.0 * h_eff * h_eff * carrier_ghz * 1e9 / SPEED_OF_LIGHT


def pathloss_los_db(distance_m, carrier_ghz: float = 5.9):
    """Two-slope LOS pathloss, continuous at the breakpoint up to the
    rounding of the published constants."""
    d = np.maximum(np.asarray(distance_m, dtype=float), MIN_DISTANCE_M)
    h_eff = ANTENNA_HEIGHT_M - 1.0
    d_bp = breakpoint_distance_m(carrier_ghz)
    fc_term = np.log10(carrier_ghz / 5.0)
    log_d = np.log10(d)
    near = 22.7 * log_d + (41.0 + 20.0 * fc_term)
    far = 40.0 * log_d + (9.45 - 34.6 * np.log10(h_eff) + 2.7 * fc_term)
    return np.where(d <= d_bp, near, far)


def _nlos_one_way(d_main, d_perp, carrier_ghz):
    n_j = np.maximum(2.8 - 0.0024 * d_main, 1.84)
    return (
        pathloss_los_db(d_main, carrier_ghz)
        + 20.0
        - 12.5 * n_j
        + 10.0 * n_j * np.log10(d_perp)
        + 3.0 * np.log10(carrier_ghz / 5.0)
    )


def pathloss_nlos_db(leg1_m, leg2_m, carrier_ghz: float = 5.9):
    """Around-the-corner pathloss from the two right-triangle legs.

    Symmetric in the legs (best of the two street orderings) and floored at
    the LOS loss of the Euclidean distance, so NLOS >= LOS always holds.
    """
    d1 = np.maximum(np.asarray(leg1_m, dtype=float), MIN_DISTANCE_M)
    d2 = np.maximum(np.asarray(leg2_m, dtype=float), MIN_DISTANCE_M)
    corner = np.minimum(
        _nlos_one_way(d1, d2, carrier_ghz),
        _nlos_one_way(d2, d1, carrier_ghz),
    )
    euclid = np.hypot(d1, d2)
    return np.maximum(corner, pathloss_los_db(euclid, carrier_ghz))


def pathloss_db(cfg: RunConfig, distance_m, los, legs):
    """Pathloss for links of the given length; NLOS links take the corner
    pathloss of their two street legs."""
    pl_los = pathloss_los_db(distance_m, cfg.carrier_ghz)
    if np.all(los):
        return pl_los
    pl_nlos = pathloss_nlos_db(legs[0], legs[1], cfg.carrier_ghz)
    return np.where(los, pl_los, pl_nlos)


def rx_power_dbm(cfg: RunConfig, pathloss_db, shadow_db):
    """Received power; a positive shadow sample attenuates."""
    return cfg.tx_power_dbm + 2.0 * cfg.antenna_gain_db - np.asarray(pathloss_db) - np.asarray(shadow_db)


# ---------------------------------------------------------------------------
# Obstacle map and LOS determination
# ---------------------------------------------------------------------------

# The array LOS test works on pairs x edges; pairs are taken in chunks of at
# most this many pair-edge elements, so each temporary stays within 32 KB.
LOS_CHUNK_ELEMENTS = 1 << 12


class ObstacleMapError(ValueError):
    pass


def _vertices(poly) -> np.ndarray:
    """A polygon's (k, 2) vertex array; raises ObstacleMapError if unusable."""
    arr = np.asarray(poly, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or len(arr) < 3:
        raise ObstacleMapError("each polygon needs at least 3 x,y vertices")
    if not np.isfinite(arr).all():
        raise ObstacleMapError("polygon vertices must be finite")
    return arr


@dataclass
class ObstacleMap:
    """Building footprints as simple polygons, vertex lists in meters."""

    polygons: list

    def __post_init__(self):
        clean = [_vertices(poly) for poly in self.polygons]
        self.polygons = clean
        # Every polygon's edges stacked once, for the array LOS test: edge
        # k runs from edges[0][k] to edges[1][k], and polygon i owns edges
        # edge_starts[i] up to edge_starts[i + 1].
        if clean:
            start = np.concatenate(clean)
            end = np.concatenate([np.roll(poly, -1, axis=0) for poly in clean])
        else:
            start = end = np.empty((0, 2))
        self.edges = (start, end)
        self.edge_starts = np.cumsum([0] + [len(poly) for poly in clean[:-1]])

    @classmethod
    def from_file(cls, path) -> "ObstacleMap":
        polys = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = [p for p in line.split(",") if p.strip()]
                if len(parts) % 2 != 0:
                    raise ObstacleMapError(
                        f"{path}:{lineno}: odd number of coordinates"
                    )
                try:
                    vals = [float(p) for p in parts]
                    polys.append(_vertices(np.reshape(vals, (-1, 2))))
                except ValueError as exc:  # ObstacleMapError included
                    raise ObstacleMapError(f"{path}:{lineno}: {exc}") from exc
        return cls(polygons=polys)


# The array forms below evaluate the expressions of the scalar LOS oracle in
# `tests/oracles.py` (`_orient`, `_on_segment`, `_segments_intersect`,
# `_point_in_polygon`) in the same operation order, element by element, so
# they equal its `blocks` bit for bit.

def _opposite(a, b):
    return ((a > 0) & (b < 0)) | ((a < 0) & (b > 0))


def _within(p, q, r):
    """`_on_segment` for (k, 2) rows."""
    return ((np.minimum(p[:, 0], q[:, 0]) <= r[:, 0])
            & (r[:, 0] <= np.maximum(p[:, 0], q[:, 0]))
            & (np.minimum(p[:, 1], q[:, 1]) <= r[:, 1])
            & (r[:, 1] <= np.maximum(p[:, 1], q[:, 1])))


def _touches_edge(obstacles: ObstacleMap, p, q):
    """Per row pair, whether segment p-q crosses or touches any edge."""
    b1, b2 = obstacles.edges
    ex1, ey1 = b1[:, 0], b1[:, 1]
    ex2, ey2 = b2[:, 0], b2[:, 1]
    edx, edy = ex2 - ex1, ey2 - ey1
    px, py = p[:, :1], p[:, 1:]
    qx, qy = q[:, :1], q[:, 1:]
    sdx, sdy = qx - px, qy - py
    # rows are pairs, columns are edges
    d1 = edx * (py - ey1) - edy * (px - ex1)   # _orient(b1, b2, a1)
    d2 = edx * (qy - ey1) - edy * (qx - ex1)   # _orient(b1, b2, a2)
    d3 = sdx * (ey1 - py) - sdy * (ex1 - px)   # _orient(a1, a2, b1)
    d4 = sdx * (ey2 - py) - sdy * (ex2 - px)   # _orient(a1, a2, b2)
    hit = _opposite(d1, d2) & _opposite(d3, d4)
    # Collinear contacts need an orientation of exactly 0, which is rare:
    # test the on-segment bounds only where one occurs.
    rows, cols = np.nonzero((d1 == 0) | (d2 == 0) | (d3 == 0) | (d4 == 0))
    if len(rows):
        a1, a2, e1, e2 = p[rows], q[rows], b1[cols], b2[cols]
        touch = (((d1[rows, cols] == 0) & _within(e1, e2, a1))
                 | ((d2[rows, cols] == 0) & _within(e1, e2, a2))
                 | ((d3[rows, cols] == 0) & _within(a1, a2, e1))
                 | ((d4[rows, cols] == 0) & _within(a1, a2, e2)))
        hit[rows[touch], cols[touch]] = True
    return hit.any(axis=1)


def _inside_any(obstacles: ObstacleMap, pts):
    """Per (k, 2) row, whether the point lies inside any polygon."""
    b1, b2 = obstacles.edges
    x, y = pts[:, :1], pts[:, 1:]
    # Ray cast to +x; the quotient is only read where the edge spans y, so
    # its divisions by zero on horizontal edges are never used.
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = b1[:, 0] + (y - b1[:, 1]) * (b2[:, 0] - b1[:, 0]) / (b2[:, 1] - b1[:, 1])
    crosses = ((b1[:, 1] > y) != (b2[:, 1] > y)) & (x < x_cross)
    inside = np.bitwise_xor.reduceat(crosses, obstacles.edge_starts, axis=1)
    return inside.any(axis=1)


def _by_chunks(fn, obstacles: ObstacleMap, *arrays):
    """fn over row chunks of the arrays, at most LOS_CHUNK_ELEMENTS rows x edges."""
    step = max(1, LOS_CHUNK_ELEMENTS // len(obstacles.edges[0]))
    out = np.empty(len(arrays[0]), dtype=bool)
    for s in range(0, len(out), step):
        out[s:s + step] = fn(obstacles, *(a[s:s + step] for a in arrays))
    return out


def los_state(obstacles: ObstacleMap | None, pos_i, pos_j):
    """True when the segment between the endpoints touches no polygon.

    The segment is blocked when it crosses or touches any polygon edge, or
    when either endpoint lies inside a polygon. Takes two points and returns
    a bool, or two (m, 2) arrays of endpoints and returns an (m,) bool array
    with one entry per row pair.
    """
    p = np.asarray(pos_i, dtype=float)
    q = np.asarray(pos_j, dtype=float)
    if p.shape != q.shape or p.shape[-1:] != (2,) or p.ndim > 2:
        raise ValueError("endpoints must be two points or two (m, 2) arrays")
    if not np.all(np.isfinite(p)) or not np.all(np.isfinite(q)):
        raise ValueError("positions must be finite")
    single = p.ndim == 1
    p, q = p.reshape(-1, 2), q.reshape(-1, 2)
    if obstacles is None or not obstacles.polygons:
        los = np.ones(len(p), dtype=bool)
    else:
        # Pairs share endpoints (vehicles): test each distinct point once.
        pts, inv = np.unique(np.concatenate([p, q]), axis=0, return_inverse=True)
        inside = _by_chunks(_inside_any, obstacles, pts)[inv.reshape(-1)]
        los = ~(inside[:len(p)] | inside[len(p):]
                | _by_chunks(_touches_edge, obstacles, p, q))
    return bool(los[0]) if single else los


# ---------------------------------------------------------------------------
# Pairwise channel realization
# ---------------------------------------------------------------------------

class ChannelRealization:
    """Per-link pathloss + correlated shadow state for all vehicle pairs.

    Matrices are (n, n) and symmetric; the diagonal is unused. Shadowing is
    an AR(1) process per unordered pair, stepped by the change in relative
    displacement between updates.
    """

    def __init__(self, cfg: RunConfig, pathloss_db, shadow_db, los):
        self.cfg = cfg
        self.pathloss_db = np.asarray(pathloss_db, dtype=float)
        self.shadow_db = np.asarray(shadow_db, dtype=float)
        self.los = np.asarray(los, dtype=bool)
        self.n = self.pathloss_db.shape[0]
        self._rx_lin = None

    @classmethod
    def initial(cls, cfg: RunConfig, dist_m, los, legs,
                rng: np.random.Generator) -> "ChannelRealization":
        pl = pathloss_db(cfg, dist_m, los, legs)
        shadow = _symmetric_normal(rng, len(pl)) * shadow_sigma_db(cfg, los)
        return cls(cfg, pl, shadow, los)

    def advance(self, dist_m, los, legs, rng: np.random.Generator, rho):
        """Refresh pathloss for the new geometry and step the shadow AR(1).

        rho is each pair's correlation with its previous sample,
        exp(-moved/decorr) for a relative displacement `moved` since the
        previous update; rho = 0 resamples the pair from scratch.
        """
        self.los = np.asarray(los, dtype=bool)
        self.pathloss_db = pathloss_db(self.cfg, dist_m, self.los, legs)
        sigma = shadow_sigma_db(self.cfg, self.los)
        g = _symmetric_normal(rng, self.n) * sigma
        self.shadow_db = rho * self.shadow_db + np.sqrt(1.0 - rho * rho) * g
        self._rx_lin = None

    def rx_power_lin(self):
        """Linear received power in mW, diagonal zeroed. rows = transmitter."""
        if self._rx_lin is None:
            with np.errstate(invalid="ignore"):
                lin = dbm_to_mw(rx_power_dbm(self.cfg, self.pathloss_db,
                                             self.shadow_db))
            lin = np.nan_to_num(lin, nan=0.0, posinf=0.0)
            np.fill_diagonal(lin, 0.0)
            self._rx_lin = lin
        return self._rx_lin


def _symmetric_normal(rng, n):
    g = rng.standard_normal((n, n))
    upper = np.triu(g, 1)
    return upper + upper.T
