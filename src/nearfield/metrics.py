"""Near/far model mismatch metrics and their worst-case look-angle search."""

from __future__ import annotations

import contextvars
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .arrays import (
    ArrayConfig,
    PolarPosition,
    distances,
    require_number,
    require_ranges,
)

THETA_INSET = 1e-9
"""Offset of the angle-grid endpoints, keeping the search on the open interval."""

# Largest cosine the search grid may use.  cos(THETA_INSET) rounds to exactly
# 1.0, and even one ulp below 1.0 rounds back to collinear geometry inside the
# law-of-cosines product, so the clamp sits a few ulps under 1.0.  That keeps
# the searched look angle strictly off the array axis, where R_n = 0 is
# reachable whenever the range matches an element offset.
_COS_OPEN_MAX = 1.0 - 4e-16

# Smallest angle whose cosine stays strictly below 1.0 after rounding; the
# pointwise twin of the clamp above for callers re-evaluating a worst-case
# angle that landed on the grid endpoint.
THETA_OPEN_MIN = math.acos(_COS_OPEN_MAX)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0

MAX_ROW_CELLS = 2_000_000
"""Largest (search angles x n_elements) kernel row a worst-case search takes,
and the cell budget of one kernel block, which holds at least one row."""

MAX_ANGLE_POINTS = 1_000_000
"""Largest coarse angle grid (AngleSearchPolicy.coarse_grid_points)."""

MAX_THREADS = 256
"""Largest NEARFIELD_THREADS value; the pool starts up to this many threads."""

# most cells (rows x angles x elements) of one kernel call in the coarse pass
# and the golden refinement, so its workspace stays near cache size
_TILE_CELLS = 65_536


class _Workspace(threading.local):
    """One computing thread's kernel scratch: five float buffers of equal
    length, and the (B, T, N) views of them made so far, by shape."""

    def __init__(self) -> None:
        self.buffers: tuple[np.ndarray, ...] = ()
        self.views: dict[tuple[int, int, int], tuple[np.ndarray, ...]] = {}


_workspace = _Workspace()


def _scratch(shape: tuple[int, int, int]) -> tuple[np.ndarray, ...]:
    """Five (B, T, N) arrays over this thread's workspace, valid until the
    thread's next kernel call.  `_geometry` fills the first three, passing
    through the last; `_element_mismatch_sq` works in the last two and
    `eta_grid` in the last one.  No module but this one touches them.

    The buffers grow to the largest call seen and are kept for the thread's
    life, so a warm kernel call allocates no (B, T, N) array and faults no
    page in.
    """
    ws = _workspace
    views = ws.views.get(shape)
    if views is None:
        cells = math.prod(shape)
        if not ws.buffers or len(ws.buffers[0]) < cells:
            ws.buffers = tuple(np.empty(cells) for _ in range(5))
            ws.views = {}
        elif len(ws.views) >= 256:  # shapes seen across many configs
            ws.views = {}
        views = tuple(buf[:cells].reshape(shape) for buf in ws.buffers)
        ws.views[shape] = views
    return views


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count() -> int:
    """Worker cap from NEARFIELD_THREADS; 0 or unset means the usable core count.

    It sizes the one pool behind `parallel_map`; 1 runs everything serially.
    """
    raw = os.environ.get("NEARFIELD_THREADS", "").strip()
    try:
        n = int(raw) if raw else 0
    except ValueError as exc:
        raise ValueError(f"NEARFIELD_THREADS must be an integer, got {raw!r}") from exc
    return require_number("NEARFIELD_THREADS", n, 0, MAX_THREADS) or _usable_cores()


_pool: tuple[int, ThreadPoolExecutor] | None = None
_pool_lock = threading.Lock()
_POOL_PREFIX = "nearfield-pool"


def _block_pool(workers: int) -> ThreadPoolExecutor:
    """The process-wide pool behind `parallel_map`, rebuilt only when the
    worker count changes.  A replaced pool is dropped, not shut down, so a
    caller still mapping on it finishes; its idle threads exit once the last
    reference to it goes.
    """
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != workers:
            _pool = (workers, ThreadPoolExecutor(workers, thread_name_prefix=_POOL_PREFIX))
        return _pool[1]


def parallel_map(fn, items) -> list:
    """[fn(x) for x in items] on the shared pool; results keep item order and
    the first failing item in that order raises.  It runs inline with one
    worker, under two items, or inside a pool task: nested maps never wait on
    the pool, so they cannot deadlock it and at most `worker_count()` threads compute."""
    items = list(items)
    workers = worker_count()
    if workers == 1 or len(items) < 2 or threading.current_thread().name.startswith(_POOL_PREFIX):
        return [fn(x) for x in items]
    # numpy's errstate lives in a context variable that pool threads do not inherit
    contexts = [contextvars.copy_context() for _ in items]
    return list(_block_pool(workers).map(lambda ctx, x: ctx.run(fn, x), contexts, items))


@dataclass(frozen=True)
class AngleSearchPolicy:
    """Coarse-grid plus golden-section settings for the look-angle maximization."""

    coarse_grid_points: int = 721
    refine_tolerance: ClassVar[float] = 1e-6  # rad: a 2*pi/722 bracket takes 19 steps
    refine_max_iter: ClassVar[int] = 200  # a safety cap that never binds

    def __post_init__(self) -> None:
        object.__setattr__(self, "coarse_grid_points", require_number(
            "coarse_grid_points", self.coarse_grid_points, 3, MAX_ANGLE_POINTS, whole=True))


@dataclass(frozen=True)
class MetricSample:
    """A worst-case metric value at one range, with the maximizing angle."""

    range_m: float
    value: float
    theta_star: float

    @classmethod
    def of(cls, r: float, batch: tuple[np.ndarray, np.ndarray]) -> MetricSample:
        """The sample at r from a batch search's one-range (values, theta_stars)."""
        values, thetas = batch
        return cls(range_m=r, value=float(values[0]), theta_star=float(thetas[0]))


def _geometry(cfg: ArrayConfig, r: np.ndarray, cos_t: np.ndarray):
    """Distances, range offsets, and model phase gaps for ranges x cosines.

    r has shape (B,); cos_t has shape (B, T) or (1, T).  Returns three
    (B, T, N) arrays: R, R - r, and dphi = k*((R - r) + n*d*cos), the phase by
    which the spherical model leads the planar one at each element.  R comes
    from `arrays.distances`; R - r is assembled as (R^2 - r^2)/(R + r), which
    does not cancel when R is close to r.  The arrays are views of this
    thread's kernel workspace: the thread's next call overwrites them.
    """
    nd = cfg.element_offsets()
    r3 = r[:, None, None]
    cos3 = cos_t[:, :, None]
    dist, rmr, dphi = _scratch((len(r), cos_t.shape[1], len(nd)))[:3]
    distances(r3, nd, cos3, out=dist)
    # rmr = nd * (nd - (2*r)*cos) / (R + r), dphi = k * (rmr + nd*cos)
    np.subtract(nd, (2.0 * r3) * cos3, out=rmr)
    np.multiply(nd, rmr, out=rmr)
    np.divide(rmr, np.add(dist, r3, out=dphi), out=rmr)
    # nd*cos once per cosine row, in the last array: rows may share one
    nd_cos = np.multiply(nd, cos3, out=_scratch((*cos_t.shape, len(nd)))[4])
    np.add(rmr, nd_cos, out=dphi)
    np.multiply(cfg.wavenumber, dphi, out=dphi)
    return dist, rmr, dphi


def _element_mismatch_sq(r3: np.ndarray, dist: np.ndarray, rmr: np.ndarray, dphi: np.ndarray):
    """Squared per-element mismatch |e^{-jkR}/R - e^{-jk(r-nd cos)}/r|^2.

    Split into an amplitude gap and a phase gap, both nonnegative, instead of
    the direct cosine form whose terms cancel to roundoff.  Consumes rmr and
    dphi, and the workspace's last two arrays: the result lands in rmr's
    buffer.
    """
    dist_r, phase = _scratch(dist.shape)[3:]
    np.multiply(dist, r3, out=dist_r)
    amp = np.divide(rmr, dist_r, out=rmr)
    amp *= amp
    half = np.sin(np.multiply(0.5, dphi, out=dphi), out=dphi)
    np.multiply(4.0, half, out=phase)
    phase *= half
    phase /= dist_r
    amp += phase
    return amp


def _linf_grid(cfg: ArrayConfig, r: np.ndarray, cos_t: np.ndarray) -> np.ndarray:
    dist, rmr, dphi = _geometry(cfg, r, cos_t)
    return np.sqrt(_element_mismatch_sq(r[:, None, None], dist, rmr, dphi).max(axis=2))


def _l2_grid(cfg: ArrayConfig, r: np.ndarray, cos_t: np.ndarray) -> np.ndarray:
    dist, rmr, dphi = _geometry(cfg, r, cos_t)
    num = _element_mismatch_sq(r[:, None, None], dist, rmr, dphi).sum(axis=2)
    inv2 = np.multiply(dist, dist, out=dphi)
    den = np.divide(1.0, inv2, out=inv2).sum(axis=2)
    return np.sqrt(num / den)


def eta_grid(cfg: ArrayConfig, r: np.ndarray, cos_t: np.ndarray):
    """Array-gain efficiency eta and sum_n 1/R_n^2 for ranges x cosines, as
    two (B, T) arrays from one `_geometry` pass; its (B, T, N) products go to
    the workspace's last array."""
    dist, _, dphi = _geometry(cfg, r, cos_t)
    inv = np.divide(1.0, dist, out=dist)
    tmp = _scratch(dphi.shape)[4]
    inv2_sum = np.multiply(inv, inv, out=tmp).sum(axis=2)
    csum = np.multiply(np.cos(dphi, out=tmp), inv, out=tmp).sum(axis=2)
    ssum = np.multiply(np.sin(dphi, out=tmp), inv, out=tmp).sum(axis=2)
    eta = (csum * csum + ssum * ssum) / (cfg.n_elements * inv2_sum)
    # Cauchy-Schwarz holds exactly; trim the few-ulp overshoot
    return np.minimum(eta, 1.0), inv2_sum


def _at_value(cfg: ArrayConfig, pos: PolarPosition, grid_fn) -> float:
    require_ranges("range_m", pos.range_m, cfg.aperture)
    r = np.array([pos.range_m], dtype=float)
    cos_t = np.array([[math.cos(pos.theta)]])
    return float(grid_fn(cfg, r, cos_t)[0, 0])


def e_linf_at(cfg: ArrayConfig, pos: PolarPosition) -> float:
    """Largest single-element model mismatch at one position, in 1/m."""
    return _at_value(cfg, pos, _linf_grid)


def e_l2_at(cfg: ArrayConfig, pos: PolarPosition) -> float:
    """Total array mismatch normalized by the spherical-model gain (dimensionless)."""
    return _at_value(cfg, pos, _l2_grid)


def array_gain_efficiency(cfg: ArrayConfig, pos: PolarPosition) -> float:
    """Squared normalized inner product of the two channel models, in [0, 1]."""
    return _at_value(cfg, pos, lambda *args: eta_grid(*args)[0])


def _golden_max_batch(f, lo: np.ndarray, hi: np.ndarray, tol: float, max_iter: int):
    """Vectorized golden-section maximization over per-row brackets.

    f maps an array of abscissas (one per row) to an array of values.  Each
    iteration evaluates one new point per row; carried points keep their
    already-computed values.  Ties prefer the smaller abscissa.
    """
    a = lo.astype(float).copy()
    b = hi.astype(float).copy()
    h = b - a
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    yc = f(c)
    yd = f(d)
    for _ in range(max_iter):
        if np.all(b - a <= tol):
            break
        left = yc >= yd
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        carry_x = np.where(left, c, d)
        carry_y = np.where(left, yc, yd)
        h = b - a
        eval_x = np.where(left, a + _INV_PHI2 * h, a + _INV_PHI * h)
        eval_y = f(eval_x)
        c = np.where(left, eval_x, carry_x)
        yc = np.where(left, eval_y, carry_y)
        d = np.where(left, carry_x, eval_x)
        yd = np.where(left, carry_y, eval_y)
    take_c = yc >= yd
    return np.where(take_c, c, d), np.where(take_c, yc, yd)


# golden steps whose candidate abscissas one call of a one-row refinement covers
_LOOKAHEAD = 4


def _golden_step(a: float, b: float, c: float, d: float, left: bool):
    """One step of _golden_max_batch on one row: the next (a, b, c, d), whose
    new point is c after a left step and d after a right one."""
    if left:
        b = d
        return a, b, a + _INV_PHI2 * (b - a), c
    a = c
    return a, b, d, a + _INV_PHI * (b - a)


def _golden_candidates(a, b, c, d, known: dict, depth: int, tol: float, out: list) -> None:
    """Append to out the new point of each of the next `depth` steps from
    (a, b, c, d), under both outcomes of every comparison whose values `known`
    lacks."""
    if depth == 0 or b - a <= tol:
        return
    decided = c in known and d in known
    for left in (known[c] >= known[d],) if decided else (True, False):
        state = _golden_step(a, b, c, d, left)
        out.append(state[2] if left else state[3])
        _golden_candidates(*state, known, depth - 1, tol, out)


def _golden_max_one(f, lo: np.ndarray, hi: np.ndarray, tol: float, max_iter: int):
    """_golden_max_batch on a one-row bracket, step for step on Python floats.

    Where a point's value is unknown, one call of f evaluates it together with
    every point the next _LOOKAHEAD - 1 steps may evaluate (1 + 2 + 4 + 8
    abscissas at depth 4; the first call adds c and d).  Each value depends on
    its own abscissa only, so the steps, and the result, keep their bits.
    """
    known: dict[float, float] = {}
    a, b = lo.item(), hi.item()
    h = b - a
    c, d = a + _INV_PHI2 * h, a + _INV_PHI * h
    for step in range(max_iter + 1):
        if c not in known or d not in known:
            xs = [x for x in (c, d) if x not in known]
            _golden_candidates(a, b, c, d, known, _LOOKAHEAD - 1, tol, xs)
            known.update(zip(xs, f(np.array(xs)).tolist()))
        if step == max_iter or b - a <= tol:
            break
        a, b, c, d = _golden_step(a, b, c, d, known[c] >= known[d])
    take_c = known[c] >= known[d]
    return np.array([c if take_c else d]), np.array([known[c] if take_c else known[d]])


@lru_cache(maxsize=16)
def _angle_grid(policy: AngleSearchPolicy) -> np.ndarray:
    grid = np.linspace(THETA_INSET, math.pi - THETA_INSET, policy.coarse_grid_points)
    # both mismatch regimes must be seeded: the phase gap peaks near pi/2, the
    # amplitude gap near the interval ends, and the maximizer switches with range
    grid = np.union1d(grid, [THETA_INSET, 0.5 * math.pi, math.pi - THETA_INSET])
    grid.flags.writeable = False  # shared by every call with this policy
    return grid


def block_rows(cfg: ArrayConfig, policy: AngleSearchPolicy) -> int:
    """Rows per kernel block: worst_over_angle_batch splits its ranges into
    blocks of this many from the first, and a row's bits depend on the rows
    that share its block.  A row above MAX_ROW_CELLS is refused."""
    row = len(_angle_grid(policy)) * cfg.n_elements
    if row > MAX_ROW_CELLS:
        raise ValueError(f"n_elements {cfg.n_elements} x coarse angles is {row} cells per kernel "
                         f"row, more than MAX_ROW_CELLS = {MAX_ROW_CELLS}")
    return min(64, MAX_ROW_CELLS // row)


def _clamped_cos(theta: np.ndarray) -> np.ndarray:
    return np.minimum(np.cos(theta), _COS_OPEN_MAX)


def _tiled(grid_fn, cfg: ArrayConfig, r: np.ndarray, cos_t: np.ndarray) -> np.ndarray:
    """grid_fn(cfg, r, cos_t), computed one tile of at most
    max(_TILE_CELLS, N) cells per call: whole rows when a row fits, else one
    row split over angle tiles.  Every value depends on its own row and angle
    only, so the tiles keep its bits."""
    n = cfg.n_elements
    n_t = cos_t.shape[1]
    angles = min(n_t, max(1, _TILE_CELLS // n))
    rows = max(1, _TILE_CELLS // (angles * n))
    if rows >= len(r) and angles == n_t:
        return grid_fn(cfg, r, cos_t)
    out = np.empty((len(r), n_t))
    for s in range(0, len(r), rows):
        cos_rows = cos_t if len(cos_t) == 1 else cos_t[s : s + rows]
        for t in range(0, n_t, angles):
            out[s : s + rows, t : t + angles] = grid_fn(
                cfg, r[s : s + rows], cos_rows[:, t : t + angles]
            )
    return out


def worst_over_angle_batch(
    cfg: ArrayConfig,
    r_values: np.ndarray,
    policy: AngleSearchPolicy,
    grid_fn,
) -> tuple[np.ndarray, np.ndarray]:
    """Worst metric value and maximizing angle for every range in r_values.

    grid_fn(cfg, r, cos_t) maps B ranges and a (B, T) or (1, T) cosine array
    to (B, T) metric values.
    """
    r_values = np.asarray(r_values, dtype=float)
    require_ranges("ranges", r_values, cfg.aperture)
    thetas = _angle_grid(policy)
    cos_row = _clamped_cos(thetas)[None, :]
    n_t = len(thetas)
    block = block_rows(cfg, policy)
    values = np.empty_like(r_values)
    theta_stars = np.empty_like(r_values)

    def run_block(start: int) -> None:
        rb = r_values[start : start + block]
        coarse = _tiled(grid_fn, cfg, rb, cos_row)
        idx = coarse.argmax(axis=1)  # first max wins: smallest angle on ties
        rows = np.arange(len(rb))
        best_v = coarse[rows, idx]
        best_t = thetas[idx]
        lo = thetas[np.maximum(idx - 1, 0)]
        hi = thetas[np.minimum(idx + 1, n_t - 1)]

        def f(th: np.ndarray) -> np.ndarray:
            # one angle per row, or every angle for a one-row block
            return _tiled(grid_fn, cfg, rb, _clamped_cos(th).reshape(len(rb), -1)).ravel()

        refine = _golden_max_one if len(rb) == 1 else _golden_max_batch
        ref_t, ref_v = refine(f, lo, hi, policy.refine_tolerance, policy.refine_max_iter)
        better = ref_v > best_v
        values[start : start + block] = np.where(better, ref_v, best_v)
        theta_stars[start : start + block] = np.where(better, ref_t, best_t)

    parallel_map(run_block, range(0, len(r_values), block))
    return values, theta_stars


def e_linf_worst(
    cfg: ArrayConfig, r: float, policy: AngleSearchPolicy | None = None
) -> MetricSample:
    """Worst-case single-element mismatch over the look angle at range r."""
    return MetricSample.of(r, e_linf_worst_batch(cfg, [r], policy))


def e_l2_worst(
    cfg: ArrayConfig, r: float, policy: AngleSearchPolicy | None = None
) -> MetricSample:
    """Worst-case normalized total mismatch over the look angle at range r."""
    return MetricSample.of(r, e_l2_worst_batch(cfg, [r], policy))


def e_linf_worst_batch(
    cfg: ArrayConfig, r_values, policy: AngleSearchPolicy | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Vector form of e_linf_worst: (values, theta_stars) for an array of ranges."""
    return worst_over_angle_batch(cfg, r_values, policy or AngleSearchPolicy(), _linf_grid)


def e_l2_worst_batch(
    cfg: ArrayConfig, r_values, policy: AngleSearchPolicy | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Vector form of e_l2_worst: (values, theta_stars) for an array of ranges."""
    return worst_over_angle_batch(cfg, r_values, policy or AngleSearchPolicy(), _l2_grid)
