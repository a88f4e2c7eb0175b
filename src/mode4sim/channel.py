"""Link-level propagation: pairwise geometry, two-slope street-canyon
pathloss (WINNER+ B1), spatially correlated log-normal shadowing, and
obstacle-based LOS checks.

Exact formulas are documented in the README so the reference values used in
the tests can be reproduced by hand.
"""
from __future__ import annotations

import os
import queue
from dataclasses import dataclass

import numpy as np

from .config import RunConfig

SPEED_OF_LIGHT = 3e8
MIN_DISTANCE_M = 3.0
ANTENNA_HEIGHT_M = 1.5  # both ends of every link


def dbm_to_mw(dbm):
    return np.power(10.0, np.asarray(dbm, dtype=float) / 10.0)


def breakpoint_distance_m(carrier_ghz: float) -> float:
    h_eff = ANTENNA_HEIGHT_M - 1.0
    return 4.0 * h_eff * h_eff * carrier_ghz * 1e9 / SPEED_OF_LIGHT


def pathloss_los_db(distance_m, carrier_ghz: float, out=None):
    """Two-slope LOS pathloss, continuous at the breakpoint up to the
    rounding of the published constants. `out`, if given, receives it."""
    if out is None:
        out = np.array(distance_m, dtype=float)
    d = np.maximum(distance_m, MIN_DISTANCE_M, out=out)
    h_eff = ANTENNA_HEIGHT_M - 1.0
    fc_term = np.log10(carrier_ghz / 5.0)
    near = d <= breakpoint_distance_m(carrier_ghz)
    log_d = np.log10(d, out=d)
    # Links within the breakpoint are few: take the near slope on them only.
    pl_near = 22.7 * log_d[near] + (41.0 + 20.0 * fc_term)
    pl = np.multiply(40.0, log_d, out=log_d)
    pl += 9.45 - 34.6 * np.log10(h_eff) + 2.7 * fc_term
    pl[near] = pl_near
    return pl


def _nlos_one_way(d_main, d_perp, carrier_ghz):
    n_j = np.maximum(2.8 - 0.0024 * d_main, 1.84)
    return (
        pathloss_los_db(d_main, carrier_ghz)
        + 20.0
        - 12.5 * n_j
        + 10.0 * n_j * np.log10(d_perp)
        + 3.0 * np.log10(carrier_ghz / 5.0)
    )


def pathloss_nlos_db(leg1_m, leg2_m, carrier_ghz: float):
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
        try:
            fh = open(path, "r", encoding="utf-8")
        except OSError as exc:
            raise ObstacleMapError(f"cannot read obstacle map {path}: {exc}") from exc
        polys = []
        with fh:
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


def los_state(obstacles: ObstacleMap | None, points, a, b):
    """Per pair k, True when the segment from points[a[k]] to points[b[k]]
    touches no polygon.

    `points` is an (m, 2) array, each vehicle once; `a` and `b` are index
    arrays of one length. A segment is blocked when it crosses or touches
    any polygon edge, or when either endpoint lies inside a polygon. The
    inside test runs once per point, the edge test once per pair.
    """
    points = np.asarray(points, dtype=float)
    a, b = np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp)
    if points.ndim != 2 or points.shape[1] != 2 or a.ndim != 1 or a.shape != b.shape:
        raise ValueError("need an (m, 2) array of points and two index arrays of one length")
    if not np.isfinite(points).all():
        raise ValueError("positions must be finite")
    if obstacles is None or not obstacles.polygons:
        return np.ones(len(a), dtype=bool)
    inside = _by_chunks(_inside_any, obstacles, points)
    return ~(inside[a] | inside[b] | _by_chunks(_touches_edge, obstacles, points[a], points[b]))


# ---------------------------------------------------------------------------
# Pairwise geometry
# ---------------------------------------------------------------------------

def pair_legs(points, r0: int, r1: int, wrap_length_m: float | None, dx_buf, dy_buf):
    """|dx| and |dy| of the pairs in rows r0:r1 and columns r0: of the upper
    triangle of the (m, 2) `points`, as (r1 - r0, m - r0) views of the flat
    buffers: |dx| takes the minimum image on a ring of `wrap_length_m`, and
    both are infinite in the rows and columns of a point with a non-finite
    coordinate (an absent vehicle)."""
    shape = (r1 - r0, len(points) - r0)
    dx, dy = _view(dx_buf, shape), _view(dy_buf, shape)
    x, y = np.ascontiguousarray(points.T)
    with np.errstate(invalid="ignore"):
        np.abs(np.subtract(x[r0:r1, None], x[None, r0:], out=dx), out=dx)
        if wrap_length_m is not None:
            np.minimum(dx, np.subtract(wrap_length_m, dx, out=dy), out=dx)
        np.abs(np.subtract(y[r0:r1, None], y[None, r0:], out=dy), out=dy)
    gone = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if len(gone):  # even empty, the writes cost about 30 microseconds a block
        rows, cols = gone[(gone >= r0) & (gone < r1)] - r0, gone[gone >= r0] - r0
        for leg in (dx, dy):
            leg[rows] = leg[:, cols] = np.inf
    return dx, dy


# ---------------------------------------------------------------------------
# Pairwise channel realization
# ---------------------------------------------------------------------------

# The shadow step and the refresh work on blocks of rows of the upper
# triangle, of about BLOCK_ELEMENTS values, so their temporaries are a few
# (rows, n) arrays instead of (n, n) ones. Each of the step's dozen numpy
# calls per block hands the interpreter lock to and from the protocol's
# thread, so blocks never have fewer than MIN_BLOCK_ROWS rows: past 1024
# vehicles the step's calls per period then grow with n, as the protocol's
# work does, not with n^2.
BLOCK_ELEMENTS = 1 << 16
MIN_BLOCK_ROWS = 64


def block_rows(n: int) -> int:
    """Rows per block of an n-vehicle realization; the last block may have fewer."""
    return max(MIN_BLOCK_ROWS, BLOCK_ELEMENTS // max(n, 1))


# Refresh threads per process. Each period's shadow step runs on one of them
# while the protocol runs, and the block computations on all of them.
WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)

_pool = None  # ((pid, workers), ThreadPoolExecutor)


def _executor(workers):
    """This process's refresh threads, made on first use, or None for one
    worker. A forked child (`sweep --jobs`) has none of its parent's
    threads, so it makes its own. `concurrent.futures` is imported here, so
    a process that never makes the pool never loads it."""
    global _pool
    if workers <= 1:
        return None
    key = (os.getpid(), workers)
    if _pool is None or _pool[0] != key:
        from concurrent.futures import ThreadPoolExecutor
        _pool = (key, ThreadPoolExecutor(workers, thread_name_prefix="mode4sim-refresh"))
    return _pool[1]


def _each(pool, fn, blocks):
    """fn(r0, r1) for every block, on the pool, or in order in this thread
    when the pool is None. Returns once every submitted call has returned,
    and then re-raises the first block's failure, so no block writes after
    the end."""
    if pool is None:
        for r0, r1 in blocks:
            fn(r0, r1)
        return
    from concurrent.futures import wait
    futures = []
    try:
        for r0, r1 in blocks:
            futures.append(pool.submit(fn, r0, r1))
    finally:
        wait(futures)
    for future in futures:
        future.result()


class ChannelRealization:
    """Correlated shadowing and received power of all vehicle pairs.

    The linear received power is the one (n, n) matrix, exactly symmetric
    and overwritten in place at every refresh. Shadowing is an AR(1) process
    per unordered pair, kept only for the upper triangle. Its weights, the
    period's normals and the pair legs (`pair_legs`) live only in the block
    that uses them, so the realization keeps and takes no other per-pair
    array. Distances are kept only for the pairs within the awareness
    range, in `neighbours`, and only when a refresh asks. Vehicles with a
    non-finite position are absent: they sit at an infinite distance from
    every other vehicle and receive and send zero power. The pairs an
    obstacle blocks come as the ascending keys i * n + j (i < j) in
    `blocked`, or None when no pair is; only they take the NLOS pathloss
    and shadowing sigma.

    Each period is a shadow step, then a refresh of the power. The
    constructor takes both for the first period. After that `step_ahead`
    takes the next period's positions and blocked keys one period early:
    the step needs only them, the positions of the period before and the
    shadow stream, so it runs while the caller goes on. `advance` then
    takes it and refreshes to what `step_ahead` took.
    """

    def __init__(self, cfg: RunConfig, positions, wrap_length_m: float | None,
                 blocked, rng: np.random.Generator, speeds=None, neighbours=False):
        """The first period's channel; it keeps `rng` as its shadow stream."""
        n = len(positions)
        self.cfg = cfg
        self.wrap_length_m = wrap_length_m
        self._rng = rng
        self._rx_lin = np.empty((n, n))
        self._rows = block_rows(n)
        self._blocks = [(r0, min(r0 + self._rows, n)) for r0 in range(0, n, self._rows)]
        self._shadow = self._upper_store()  # shadow samples by block
        self._pending = None  # (take the step, positions, blocked) from `step_ahead`
        self._speeds = speeds  # m/s on a highway, None on a trace
        self._positions = np.array(positions, dtype=float)  # those of the last step
        self._step(blocked, np.inf)  # forget the zero state
        self._refresh(self._positions, blocked, neighbours)

    @classmethod
    def initial(cls, cfg: RunConfig, positions, wrap_length_m, blocked,
                rng: np.random.Generator, speeds=None,
                neighbours=False) -> "ChannelRealization":
        """The engine's entry point for the first period; see the constructor."""
        return cls(cfg, positions, wrap_length_m, blocked, rng, speeds, neighbours)

    def step_ahead(self, positions, blocked):
        """Hand over the next period's shadow step.

        `positions` and `blocked` are the next period's, as in the
        constructor; both are kept for the next `advance`, `positions` as a
        copy. On a trace a pair's rho is exp(-|moved_i - moved_j|/decorr),
        where `moved` is each vehicle's displacement since the last step,
        NaN where it is absent in either period (rho = 0: a fresh sample);
        a realization built with `speeds` (m/s, a highway's) steps by them.
        The shape of `positions` is checked here. The step then runs on a
        refresh thread while the caller goes on; the next `advance` waits
        for it and re-raises its failure before it writes the power. Call it
        once between two refreshes.
        """
        if self._pending is not None:
            raise RuntimeError("a step is pending already: advance takes it first")
        n = len(self._rx_lin)
        positions = np.array(positions, dtype=float)
        if positions.shape != (n, 2):
            raise ValueError(f"`positions` must be an ({n}, 2) array")
        moved = positions - self._positions if self._speeds is None else None
        pool = _executor(self._threads())
        # With one block or one CPU the next `advance` takes the step itself:
        # one-block steps on the pool made a 66-vehicle urban trace slower
        # (run_s 0.26-0.29 s to 0.29-0.42 s in 5 of 6 runs, RSS +0.65 MB).
        if pool is None:
            take = lambda: self._step(blocked, moved)
        else:
            take = pool.submit(self._step, blocked, moved).result
        self._pending = take, positions, blocked

    def advance(self, neighbours=False):
        """Take the step `step_ahead` handed over and refresh the channel to
        the positions and blocked keys it took. `neighbours` asks the
        refresh to list the pairs within the awareness range in
        `neighbours` (else None)."""
        pending, self._pending = self._pending, None
        if pending is None:
            raise RuntimeError("advance needs the period's shadow step: call step_ahead first")
        take, positions, blocked = pending
        take()
        self._positions = positions
        self._refresh(positions, blocked, neighbours)

    def rx_power_lin(self):
        """Linear received power in mW, diagonal zeroed. rows = transmitter."""
        return self._rx_lin

    def _threads(self):
        return WORKERS if len(self._blocks) > 1 else 1

    def _upper_store(self):
        """Zeros for each block's columns r0: (pair i < j at row i, column j), in one
        flat buffer: n^2/2 values, where an (n, n) array adds a whole matrix."""
        shapes = [(r1 - r0, len(self._rx_lin) - r0) for r0, r1 in self._blocks]
        sizes = [rows * cols for rows, cols in shapes]
        parts = np.split(np.zeros(sum(sizes)), np.cumsum(sizes)[:-1])
        return [part.reshape(shape) for part, shape in zip(parts, shapes)]

    def _step(self, blocked, moved):
        """Step the shadow AR(1) of every pair, block by block and in place:
        s' = rho * s + sqrt(1 - rho^2) * sigma * normal, with
        rho = exp(-d/decorr), in the per-element operation order of a
        whole-matrix step. Each block draws its full rows of the period's
        (n, n) standard normals into one draw buffer, so the stream is that
        of one (n, n) call, and uses their columns r0:. A pair moves d apart:
        |moved_i - moved_j|, |v_i - v_j| * period for None (a highway), and
        infinity for the constructor's fresh draw (`np.inf`)."""
        cfg, n = self.cfg, len(self._rx_lin)
        size = min(self._rows, n) * n
        draw, scratch = np.empty(size), np.empty(size)
        legs = np.empty(size) if np.ndim(moved) else None
        for (r0, r1), shadow in zip(self._blocks, self._shadow):
            drawn = _view(draw, (r1 - r0, n))
            self._rng.standard_normal(out=drawn)
            rho = _view(scratch, shadow.shape)  # d, then rho
            if moved is None:
                np.subtract(self._speeds[r0:r1, None], self._speeds[None, r0:], out=rho)
                np.abs(rho, out=rho)
                rho *= cfg.beacon_period_ms / 1000.0
            elif legs is not None:
                np.hypot(*pair_legs(moved, r0, r1, None, scratch, legs), out=rho)
            else:
                rho.fill(moved)
            np.divide(rho, -cfg.resolved_decorr_dist_m(), out=rho)
            np.exp(rho, out=rho)
            np.multiply(rho, shadow, out=shadow)
            weight = np.sqrt(np.subtract(1.0, np.multiply(rho, rho, out=rho), out=rho), out=rho)
            normals = drawn[:, r0:]
            nlos = _block_pairs(blocked, r0, r1, n)
            if nlos is not None:
                nlos_step = normals[nlos] * cfg.shadow_sigma_nlos_db
            step = np.multiply(normals, cfg.shadow_sigma_los_db, out=normals)
            if nlos is not None:
                step[nlos] = nlos_step
            step *= weight
            shadow += step

    def _refresh(self, positions, blocked, neighbours):
        """One pass over row blocks of the upper triangle, mirrored below.

        Each block is computed and mirrored by one task on the refresh
        threads, or here when there is one block or one CPU. With
        `neighbours`, each block also lists its pairs within the awareness
        range, and the lists are joined in block order, so the result does
        not depend on thread timing."""
        n = len(self._rx_lin)
        workers = self._threads()
        # Two block-sized scratch buffers per thread at work.
        size = min(self._rows, n) * n
        scratch = queue.SimpleQueue()
        for _ in range(workers):
            scratch.put((np.empty(size), np.empty(size)))
        near = [None] * len(self._blocks)

        def block(r0, r1):
            bufs = scratch.get()
            try:
                near[r0 // self._rows] = self._upper_block(r0, r1, positions, blocked,
                                                           neighbours, *bufs)
            finally:
                scratch.put(bufs)
            self._mirror(r0, r1)

        _each(_executor(workers), block, self._blocks)
        np.fill_diagonal(self._rx_lin, 0.0)
        self.neighbours = _both_ways(near, n) if neighbours else None

    def _upper_block(self, r0, r1, positions, blocked, neighbours, dx_buf, dy_buf):
        """Columns r0: of rows r0:r1, in place, in the per-element operation
        order of a whole-matrix refresh. With `neighbours`, returns the
        block's pairs i < j within the awareness range as (i, j, distance)."""
        cfg, n = self.cfg, len(self._rx_lin)
        # The block's power rows hold its distances until the power.
        g = self._rx_lin[r0:r1, r0:]
        dx, dy = pair_legs(positions, r0, r1, self.wrap_length_m, dx_buf, dy_buf)
        dist = np.hypot(dx, dy, out=g)
        near = None
        if neighbours:
            # Row k, column c is pair (r0 + k, r0 + c); c > k keeps i < j.
            k, c = np.divmod(np.flatnonzero(dist <= cfg.resolved_awareness_m()), n - r0)
            k, c = k[c > k], c[c > k]
            near = (r0 + k, r0 + c, dist[k, c])

        # The block's blocked pairs take the NLOS pathloss of their legs.
        nlos = _block_pairs(blocked, r0, r1, n)
        if nlos is not None:
            nlos_pl = pathloss_nlos_db(dx[nlos], dy[nlos], cfg.carrier_ghz)
        pl = pathloss_los_db(dist, cfg.carrier_ghz, out=dx)
        if nlos is not None:
            pl[nlos] = nlos_pl

        # Received power in dBm, then in mW, with the period's shadow sample.
        np.subtract(cfg.tx_power_dbm + 2.0 * cfg.antenna_gain_db, pl, out=pl)
        pl -= self._shadow[r0 // self._rows]
        pl /= 10.0
        np.power(10.0, pl, out=g)
        return near

    def _mirror(self, r0, r1):
        """Copy rows r0:r1 of the upper triangle below the diagonal. It reads
        rows r0:r1 from column r0 on, which only this block writes, and
        writes columns r0:r1 from row r0 on, which no other block writes."""
        g = self._rx_lin
        g[r1:, r0:r1] = g[r0:r1, r1:].T
        square = g[r0:r1, r0:r1]
        np.copyto(square, square.T, where=np.tri(r1 - r0, k=-1, dtype=bool))


def _block_pairs(blocked, r0, r1, n):
    """The keys in `blocked` of pairs in rows r0:r1, as (rows, columns) of
    the block's columns r0:, or None when `blocked` is None."""
    if blocked is None:
        return None
    lo, hi = np.searchsorted(blocked, (r0 * n, r1 * n))
    i, j = np.divmod(blocked[lo:hi], n)
    return i - r0, j - r0


def _both_ways(near, n):
    """The blocks' pairs i < j in both directions: the ascending keys
    src * n + dst, and each pair's distance."""
    i, j, dist = (np.concatenate(part) for part in zip(*near))
    keys = np.concatenate([i * n + j, j * n + i])
    order = np.argsort(keys)
    return keys[order], np.concatenate([dist, dist])[order]


def _view(buf, shape):
    """A C-contiguous array of `shape` over the start of a flat buffer."""
    return buf[:shape[0] * shape[1]].reshape(shape)
