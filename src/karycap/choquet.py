"""Piecewise-linear extension of multilevel games to [0, k]^n.

Each unit cell of the level grid induces a classical capacity (the
section capacity) from the corner differences of the game; inside the
cell the extension is the classical Choquet integral of that capacity,
offset by the game value at the cell base.  A section capacity is a
k = 1 game, whose extension is its Choquet integral.  The extension
interpolates the game at every lattice point and is continuous across
cell faces.

The interaction index of a coalition splits cell by cell: it equals the
sum over all cells of the classical interaction index of the section
capacity, and likewise the integral of the corresponding mixed partial
derivative of the extension over the whole box.  Both identities are
implemented here as independent numerical checks, on top of the classical
(k = 1) interaction index.  One reader gives a cell's corner values by
coalition mask, and one kernel extends a cell: its base value plus the
Choquet integral of its increments.  The Monte-Carlo check reads each
cell's corners as its base's flat index plus the corner offsets of the
cell based at 0.  The summed capacity of all cells is a box sum less
its value at the empty coalition, with every axis contracted once into
the sums of its levels 0..k-1 and 1..k, and the classical index is one
S-difference of a k = 1 grid, each entry weighted by its coalition size.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .game import (MultichoiceGame, _diff, _integer, _profile, _seed, check_query_size,
                   nonempty_members, query_cost)


def _corners(v: MultichoiceGame, q: Sequence[int]) -> np.ndarray:
    """Values of v at the corners of the unit cell with base q, by coalition mask."""
    return v.grid()[tuple(slice(qi, qi + 2) for qi in q)].ravel(order="F")


def _extend(corners: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Extension of a cell at each row of offsets U (values in [0, 1]).

    The base value plus the Choquet integral of the increments, the cell's
    section capacity.  ``corners`` is the caller's own copy: it is turned
    into the increments in place.
    """
    low = corners[0]
    corners -= low
    return low + _choquet_batch(corners, U)


def section_capacity(v: MultichoiceGame, q: Sequence[int]) -> MultichoiceGame:
    """Capacity of the unit cell with base q, q in {0..k-1}^n, as a k = 1 game."""
    corners = _corners(v, _profile(q, v.n, v.k - 1))
    return MultichoiceGame(v.n, 1, corners - corners[0])


def _choquet_batch(mu: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Classical Choquet integral of each row of W (values in [0, 1]).

    Rows are sorted ascending with ties broken by attribute index; the
    value itself does not depend on the tie order.
    """
    rows, m = W.shape
    order = np.argsort(W, axis=1, kind="stable")
    # the ranked values and their attribute bits, one column per rank
    ranked = W.ravel().take(order + np.arange(rows)[:, None] * m).T
    bits = (1 << order).T
    out = np.zeros(rows)
    mask = 0
    for col in range(m - 1, -1, -1):
        mask = mask | bits[col]
        diff = ranked[col] - ranked[col - 1] if col else ranked[0]
        out += diff * mu.take(mask)
    return out


def choquet_capacity(mu: MultichoiceGame, w: Sequence[float]) -> float:
    """Choquet integral of w in [0, 1]^n w.r.t. a capacity: :func:`choquet_kary` at k = 1."""
    if mu.k != 1:
        raise ValueError(f"defined for k = 1 games only, got k = {mu.k}")
    return choquet_kary(mu, w)


def _eval_in_cell(v: MultichoiceGame, q: Sequence[int], z: np.ndarray) -> float:
    """Extension value at z computed through the cell based at q."""
    offs = z - np.asarray(q, dtype=np.float64)
    return float(_extend(_corners(v, q).copy(), offs[None, :])[0])


def choquet_kary(v: MultichoiceGame, z: Sequence[float]) -> float:
    """Extension of v at a real point z in [0, k]^n.

    The owning cell base is floor(z) clamped to k-1 so points on the top
    faces use the last cell; the result is continuous across cell faces
    and equals v exactly at lattice points.
    """
    arr = np.asarray(z, dtype=np.float64)
    if arr.shape != (v.n,):
        raise ValueError(f"point has {arr.size} coordinates, expected {v.n}")
    if not np.all((arr >= 0.0) & (arr <= v.k)):
        raise ValueError(f"coordinates of {tuple(z)} must lie in [0, {v.k}]")
    q = tuple(min(int(math.floor(zi)), v.k - 1) for zi in arr)
    return _eval_in_cell(v, q, arr)


def classical_interaction(
    v: MultichoiceGame, S: Iterable[int], limit_bits: int | None = None
) -> float:
    """Interaction index of coalition S in a two-level (k = 1) game.

    The sum, over the coalitions T outside S, of the S-difference of v at T
    weighted by (n-t-s)! t! / (n-s+1)!, with t = |T| read from the open grid.
    """
    if v.k != 1:
        raise ValueError(f"defined for k = 1 games only, got k = {v.k}")
    members = nonempty_members(S, v.n)
    n, s = v.n, len(members)
    check_query_size(query_cost("closed_form", n, v.k, s), limit_bits)
    deltas = _diff(v.grid(), members)  # the axes of S have length 1, the others 2
    size = sum(np.ix_(*map(np.arange, deltas.shape)))  # t, the popcount of T's mask
    coeff = np.array([math.factorial(n - t - s) * math.factorial(t) / math.factorial(n - s + 1)
                      for t in range(n - s + 1)])
    return math.fsum((coeff[size] * deltas).ravel().tolist())


def interaction_cellsum(
    v: MultichoiceGame, T: Iterable[int], limit_bits: int | None = None
) -> float:
    """Interaction of T as a total of per-cell classical interactions.

    The classical interaction index is linear in the capacity, so the total
    over all k**n unit cells of the index of each section capacity is the
    index of the summed capacity: one :func:`classical_interaction` call on
    that k = 1 game.  Agrees with the closed-form index and serves as an
    independent oracle for it.
    """
    members = nonempty_members(T, v.n)
    check_query_size(query_cost("cellsum", v.n, v.k, len(members)), limit_bits)
    return classical_interaction(_summed_capacity(v), members, limit_bits)


def _summed_capacity(v: MultichoiceGame) -> MultichoiceGame:
    """Total of the section capacities of all k**n unit cells, as a k = 1 game.

    Its value at coalition mask m is B(m) - B(0), where the box sum B(m)
    adds the cell bases raised by one level on m.  Each axis is contracted
    once: entry 0 sums levels 0..k-1 (the bases), entry 1 levels 1..k.
    """
    n, k = v.n, v.k
    box = v.grid()
    for _ in range(n):  # the last axis each time, its two sums put in front
        box = np.stack([box[..., :k].sum(axis=-1), box[..., 1:].sum(axis=-1)])
    return MultichoiceGame.from_grid(box - box.flat[0])


def _box_index(grid: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    """Indices into ``grid.ravel(order="K")``, for a contiguous grid, of
    the points of the box [0, dims), in F order (table order)."""
    levels = np.ix_(*map(np.arange, dims))
    return sum(lv * (s // grid.itemsize) for lv, s in zip(levels, grid.strides)).ravel(order="F")


class IntegralEstimate(NamedTuple):
    estimate: float
    std_error: float


def integral_check(
    v: MultichoiceGame,
    T: Iterable[int],
    samples: int,
    seed: int,
    limit_bits: int | None = None,
) -> IntegralEstimate:
    """Monte-Carlo estimate of the box integral of the T-mixed derivative.

    Over each unit cell the integral reduces to the alternating sum of the
    extension over the 0/1 corners in the T-coordinates, averaged over
    uniform positions u of the other coordinates.  The grid is differenced
    along the axes of T once, and that corner sum is the extension of the
    differenced cell at u.  ``samples`` points are drawn per cell from a
    stream seeded by (seed, cell number in table order), so the result is
    deterministic.  For |T| = 1 this integrates the almost-everywhere
    partial derivative cell by cell.  Returns the estimate and its
    standard error; when T covers every attribute, nothing is sampled.
    """
    members = nonempty_members(T, v.n)
    seed = _seed(seed)
    samples = _integer(samples, "sample count")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    n, t = v.n, len(members)
    m = n - t
    if m and samples < 2:
        raise ValueError("need at least two samples to estimate a standard error")
    rows = samples if m else 1
    check_query_size(query_cost("integral", n, v.k, t) * rows, limit_bits, "Choquet evaluations")

    grid = _diff(v.grid(), members)
    flat = grid.ravel(order="K")  # a view: the differences keep the grid's F order
    # a cell's corners: the flat index of its base plus those of the cell based at 0
    bases = _box_index(grid, (v.k,) * n)
    offsets = _box_index(grid, [1 if i in members else 2 for i in range(1, n + 1)])
    means, variances = [], []
    for ci, base in enumerate(bases):
        U = np.random.default_rng((seed, ci)).random((rows, m))
        g = _extend(flat[base:].take(offsets), U)
        # g.mean() and g.var(ddof=1) as numpy takes them, without their wrappers
        mean = g.sum() / rows
        means.append(float(mean))
        variances.append(float(np.square(g - mean).sum() / (rows - 1)) if m else 0.0)
    estimate = math.fsum(means)
    std_error = math.sqrt(math.fsum(var / samples for var in variances))
    return IntegralEstimate(estimate, std_error)
