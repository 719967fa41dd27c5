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
(k = 1) interaction index.  A cell's corners are the 2 x ... x 2 block of
``v.grid()`` at its base, read in F order, so they come by coalition mask;
the summed capacity of all cells is a difference of two shifted boxes of
the grid per coalition.  The Monte-Carlo check differences each cell's
block along the axes of T: the corner sum of the extension over T is then
one Choquet integral of that T-difference capacity per sample.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .game import (
    MultichoiceGame,
    _integer,
    _profile,
    _seed,
    check_query_size,
    nonempty_members,
    profiles,
)


def _cell(v: MultichoiceGame, q: Sequence[int]) -> np.ndarray:
    """The 2 x ... x 2 block of ``v.grid()`` at cell base q, q in {0..k-1}^n."""
    return v.grid()[tuple(slice(qi, qi + 2) for qi in q)]


def _section(v: MultichoiceGame, q: Sequence[int]) -> tuple[float, np.ndarray]:
    """Game value at cell base q and the section capacity of that cell.

    The capacity holds v(q raised by one on the coalition) - v(q) by
    coalition mask (the F-order ravel of the block), so its entry 0 is 0.
    """
    block = _cell(v, q).ravel(order="F")
    return block[0], block - block[0]


def section_capacity(v: MultichoiceGame, q: Sequence[int]) -> MultichoiceGame:
    """Capacity of the unit cell with base q, q in {0..k-1}^n, as a k = 1 game."""
    return MultichoiceGame(v.n, 1, _section(v, _profile(q, v.n, v.k - 1))[1])


def _choquet_batch(mu: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Classical Choquet integral of each row of W (values in [0, 1]).

    Rows are sorted ascending with ties broken by attribute index; the
    value itself does not depend on the tie order.
    """
    order = np.argsort(W, axis=1, kind="stable")
    ranked = np.take_along_axis(W, order, axis=1)
    prev = np.concatenate([np.zeros((W.shape[0], 1)), ranked[:, :-1]], axis=1)
    diffs = ranked - prev
    out = np.zeros(W.shape[0])
    mask = np.zeros(W.shape[0], dtype=np.int64)
    for col in range(W.shape[1] - 1, -1, -1):
        mask = mask | (np.int64(1) << order[:, col])
        out += diffs[:, col] * mu[mask]
    return out


def choquet_capacity(mu: MultichoiceGame, w: Sequence[float]) -> float:
    """Choquet integral of w in [0, 1]^n w.r.t. a capacity: :func:`choquet_kary` at k = 1."""
    if mu.k != 1:
        raise ValueError(f"defined for k = 1 games only, got k = {mu.k}")
    return choquet_kary(mu, w)


def _eval_in_cell(v: MultichoiceGame, q: Sequence[int], z: np.ndarray) -> float:
    """Extension value at z computed through the cell based at q."""
    vq, mu = _section(v, q)
    offs = z - np.asarray(q, dtype=np.float64)
    return float(vq + _choquet_batch(mu, offs[None, :])[0])


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


def classical_interaction(v: MultichoiceGame, S: Iterable[int]) -> float:
    """Interaction index of coalition S in a two-level (k = 1) game."""
    if v.k != 1:
        raise ValueError(f"defined for k = 1 games only, got k = {v.k}")
    members = nonempty_members(S, v.n)
    n, s = v.n, len(members)
    others = [p for p in range(n) if p + 1 not in set(members)]
    inner_masks = [
        ((-1.0) ** (s - a), sum(1 << (i - 1) for i in K))
        for a in range(s + 1)
        for K in combinations(members, a)
    ]
    terms = []
    for t in range(len(others) + 1):
        coeff = float(
            Fraction(
                math.factorial(n - t - s) * math.factorial(t),
                math.factorial(n - s + 1),
            )
        )
        for Tset in combinations(others, t):
            tmask = sum(1 << p for p in Tset)
            inner = math.fsum(sign * v.values[tmask | kmask] for sign, kmask in inner_masks)
            terms.append(coeff * inner)
    return math.fsum(terms)


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
    return classical_interaction(_summed_capacity(v, limit_bits), members)


def _summed_capacity(v: MultichoiceGame, limit_bits: int | None) -> MultichoiceGame:
    """Total of the section capacities of all k**n unit cells, as a k = 1 game."""
    n, k = v.n, v.k
    check_query_size(k**n * 2**n, limit_bits)
    grid = v.grid()
    low = grid[(slice(0, k),) * n]  # the cell bases
    # the summed capacity of coalition mask m: the cell bases raised by one on
    # m, minus the bases, added up over the cells (difference first, then sum)
    total = [
        (grid[tuple(slice(m >> i & 1, k + (m >> i & 1)) for i in range(n))] - low).sum()
        for m in range(2**n)
    ]
    return MultichoiceGame(n, 1, total)


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
    uniform positions u of the other coordinates.  The T-coordinates rank
    below or above every coordinate of u, and for a fixed ranking the
    Choquet integral is linear in the capacity, so the corner sum is one
    Choquet integral of (u, 1) under the T-difference capacity: the cell's
    block differenced along the axes of T (v at the base cancels), on the
    complement of T plus one attribute standing for T, and 0 on coalitions
    without that attribute.  ``samples`` points are drawn per cell from a
    stream seeded by (seed, cell number in table order), so the result is
    deterministic.  For |T| = 1 this integrates the almost-everywhere
    partial derivative cell by cell.  Returns the estimate and its
    standard error.

    The guard counts the corners the integrand stands for, k**n * 2**t
    Choquet evaluations per sample, so the count is conservative; when T
    covers every attribute nothing is sampled, so they count once.
    """
    members = nonempty_members(T, v.n)
    seed = _seed(seed)
    samples = _integer(samples, "sample count")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    n = v.n
    m = n - len(members)
    if m and samples < 2:
        raise ValueError("need at least two samples to estimate a standard error")
    check_query_size(
        v.k**n * 2 ** len(members) * (samples if m else 1), limit_bits, "Choquet evaluations"
    )

    means, variances = [], []
    for ci, q in enumerate(profiles(n, v.k - 1)):
        d = _cell(v, q)
        for i in members:
            d = np.diff(d, axis=i - 1)
        # by complement mask, behind the zeros of the coalitions without T
        cap = np.concatenate([np.zeros(2**m), d.ravel(order="F")])
        U = np.random.default_rng((seed, ci)).random((samples if m else 1, m))
        g = _choquet_batch(cap, np.hstack([U, np.ones((len(U), 1))]))
        means.append(float(g.mean()))
        variances.append(float(g.var(ddof=1)) if m else 0.0)
    estimate = math.fsum(means)
    std_error = math.sqrt(math.fsum(var / samples for var in variances))
    return IntegralEstimate(estimate, std_error)
