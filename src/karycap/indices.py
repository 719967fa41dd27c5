"""Importance and interaction indices for multilevel games.

The closed-form index of a coalition T weights each profile of the
remaining attributes by an exact rational coefficient that depends only
on the profile's support size s (components > 0) and kernel size kap
(components at the top level k):

    (n - s - t)! * kap! / (n - s + kap - t + 1)!        with t = |T|

and multiplies it by the alternating sum of v over the corners where T
sits at level 0 or k.  For t = 1 this reduces to the importance index of
a single attribute (top-minus-bottom differences).

Every index reads the table through ``v.grid()``: a basic slice of the
grid (levels 0 and k on the axes of T, say) followed by ``np.diff`` along
each axis of T.  To keep results reproducible and well conditioned, the
resulting terms are grouped by (s, kap) class and summed per class in
canonical table order (attribute 1 fastest); each rational coefficient is
rounded to a double once per class table, one table per shape of terms.

Two independently computable forms are provided as cross-checks: a sum
of discrete derivatives over all unit cells, and an expansion through
reduced games where a coalition moves as a single macro attribute.

The index of every coalition at once comes from a Beta integral of the
class coefficient,

    (n - s - t)! * kap! / (n - s + kap - t + 1)! = int_0^1 x^kap (1 - x)^(n-s-t) dx,

whose integrand splits over attributes, as in the multilinear extension
of a game (Owen 1972).  At a point x, an attribute outside T weighs its
levels 0, 1, ..., k-1, k by [1-x, 1, ..., 1, x] and an attribute in T by
[-1, 0, ..., 0, 1].  That is the row P + x D or D, for P = [1, ..., 1, 0]
and D = [-1, 0, ..., 0, 1], so with h(U) the table contracted along each
axis with D if the attribute is in U and with P otherwise,

    I(T) = sum over U containing T of h(U) / (|U - T| + 1),

the multichoice form of Grabisch's Moebius formula (1997).
:func:`_index_array` contracts ``v.grid()`` once per axis through basic
slices, sweeps |U - T| through the 2^n result as a leading axis of
degree rows, and weighs row d by 1 / (d + 1): every all-coalition
closed-form request, :mod:`karycap.verify`'s axioms included, reads that
one pass through :func:`interaction_all_upto`, while the per-coalition
closed form above stays the reference.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .choquet import _summed_capacity, classical_interaction, interaction_cellsum
from .game import (
    Coalition,
    MultichoiceGame,
    _integer,
    _profile,
    check_query_size,
    members_tuple,
    nonempty_members,
    reduce_group,
    support,
)

METHODS = ("closed_form", "derivative_sum", "recursive", "cellsum")


def shapley_coefficient(n: int, t: int, s: int, kap: int) -> Fraction:
    """Exact class coefficient (n-s-t)! kap! / (n-s+kap-t+1)!.

    Valid for 0 <= kap <= s <= n - t and t >= 1; anything else would hit
    a negative factorial.
    """
    if t < 1 or kap < 0 or kap > s or s > n - t:
        raise ValueError(f"invalid coefficient arguments n={n}, t={t}, s={s}, kap={kap}")
    return Fraction(
        math.factorial(n - s - t) * math.factorial(kap),
        math.factorial(n - s + kap - t + 1),
    )


def _combine_classes(terms: np.ndarray) -> float:
    """Per-(s, kap)-class totals of ``terms``, each scaled by its coefficient.

    Axes of length 1 are those of T, and every other axis indexes a level
    of {0..k}: n is ``terms.ndim`` and t the number of length-1 axes, which
    leave the F-order ravel alone and so are dropped from the table's key.
    """
    shape = tuple(d for d in terms.shape if d > 1)
    build = _classes if math.prod(shape) <= _CACHED_CLASS_IDS else _classes.__wrapped__
    ids, coefficients = build(shape, terms.ndim)
    sums = np.bincount(ids, weights=terms.ravel(order="F"), minlength=coefficients.size)
    present = np.flatnonzero(sums)
    return math.fsum(coefficients[present] * sums[present])


# 128 KiB of int64 ids per cached shape, so the 32 cached shapes stay under 4 MiB
_CACHED_CLASS_IDS = 2**14


@functools.lru_cache(maxsize=32)
def _classes(shape: tuple[int, ...], n: int) -> tuple[np.ndarray, np.ndarray]:
    """(s, kap) class ids of an array of ``shape`` in F order, and the class
    coefficients by id, each rounded once; ``shape`` holds the axes outside T.
    """
    levels = np.indices(shape)  # s counts the levels above 0, kap those at k
    s_arr = np.count_nonzero(levels > 0, axis=0)
    kap_arr = np.count_nonzero(levels == max(shape, default=1) - 1, axis=0)
    ids = np.ravel(s_arr * (n + 1) + kap_arr, order="F")
    coefficients = np.zeros((n + 1) ** 2)
    for s in range(len(shape) + 1):
        for kap in range(s + 1):
            coefficients[s * (n + 1) + kap] = shapley_coefficient(n, n - len(shape), s, kap)
    ids.flags.writeable = coefficients.flags.writeable = False  # shared by every caller
    return ids, coefficients


def _closed_form(v: MultichoiceGame, members: Coalition, limit_bits: int | None) -> float:
    n, k, t = v.n, v.k, len(members)
    check_query_size((k + 1) ** (n - t) * 2**t, limit_bits)
    # T at levels 0 and k, every other attribute at each of its levels
    ends = tuple(slice(0, k + 1, k) if i in members else slice(None) for i in range(1, n + 1))
    terms = v.grid()[ends]
    for i in members:
        terms = np.diff(terms, axis=i - 1)
    return _combine_classes(terms)


def _mask(T: Iterable[int]) -> int:
    """Position of coalition T in :func:`_index_array`: bit i-1 for each i in T."""
    return sum(1 << (i - 1) for i in T)


# layouts of at most 4,096 coalitions are cached (every layout with n <= 12),
# so the 16 cached layouts stay under 8 MiB
_CACHED_LAYOUT_N = 12


@functools.lru_cache(maxsize=16)
def _layout(n: int, m: int) -> tuple[tuple[Coalition, ...], np.ndarray]:
    """Coalitions of order 1..m in served order, and their :func:`_mask` positions."""
    coalitions = tuple(T for size in range(1, m + 1) for T in combinations(range(1, n + 1), size))
    masks = np.array([_mask(T) for T in coalitions], dtype=np.intp)
    masks.flags.writeable = False  # shared by every caller
    return coalitions, masks


def _index_array(v: MultichoiceGame, limit_bits: int | None = None) -> np.ndarray:
    """Closed-form index of every coalition at once, by coalition mask.

    Returns a flat array of 2^n entries whose entry ``_mask(T)`` is I(T);
    entry 0 is not an index.  See the module docstring for the sweep; the
    guard counts the whole table or the n degree rows, whichever is larger.
    """
    n, k = v.n, v.k
    check_query_size(max((k + 1) ** n, n * 2**n), limit_bits)
    # each axis: its entry 0 sums levels 0..k-1 (row P), entry 1 is top minus bottom (D);
    # numpy sums k >= 8 entries pairwise along the fastest axis and in sequence along
    # any other, so h is kept in C order to fix the rounding of each sum
    h = v.grid()
    for ax in range(n):
        lead = (slice(None),) * ax
        h = np.concatenate([h[lead + (slice(0, k),)].sum(axis=ax, keepdims=True),
                            h[lead + (slice(k, k + 1),)] - h[lead + (slice(0, 1),)]],
                           axis=ax, out=np.empty((2,) * (ax + 1) + (k + 1,) * (n - ax - 1)))
    # row d at T sums h(U) over the U containing T with |U - T| = d: on each
    # axis, entry 0 (i not in T) gains entry 1 (i in U) one degree up
    g = np.zeros((n,) + h.shape)
    g[0] = h
    for ax in range(n):
        lead = (slice(None),) * ax
        g[(slice(1, None), *lead, 0)] += g[(slice(0, -1), *lead, 1)]
    index = g[0]
    for d in range(1, n):
        index += g[d] / (d + 1)
    return index.ravel(order="F")


def importance(v: MultichoiceGame, i: int, limit_bits: int | None = None) -> float:
    """Importance index of attribute i.

    Weighted total, over all profiles of the other attributes, of the
    value swing of i from level 0 to level k; the weight is the exact
    (s, kap)-class coefficient with t = 1.
    """
    (i,) = members_tuple((i,), v.n)
    return _closed_form(v, (i,), limit_bits)


def interaction(v: MultichoiceGame, T: Iterable[int], limit_bits: int | None = None) -> float:
    """Interaction index of coalition T, closed form.

    Positive values flag conjunctive (min-like) behaviour of T, negative
    values disjunctive (max-like) behaviour.  For |T| = 1 this is exactly
    :func:`importance`.
    """
    members = nonempty_members(T, v.n)
    return _closed_form(v, members, limit_bits)


def interaction_via_derivatives(
    v: MultichoiceGame, T: Iterable[int], limit_bits: int | None = None
) -> float:
    """Interaction of T as a coefficient-weighted sum of cell derivatives.

    Sums the discrete derivative of v over every unit cell whose base has
    all T-components below the top level; agrees with :func:`interaction`
    up to rounding and serves as an independent oracle for it.
    """
    members = nonempty_members(T, v.n)
    n, k, t = v.n, v.k, len(members)
    check_query_size((k + 1) ** (n - t) * k**t * 2**t, limit_bits)
    deltas = v.grid()  # after the differences: one entry per unit cell of the T-block
    for i in members:
        deltas = np.diff(deltas, axis=i - 1)
    terms = deltas.sum(axis=tuple(i - 1 for i in members), keepdims=True)
    return _combine_classes(terms)


def interaction_recursive(
    v: MultichoiceGame, T: Iterable[int], limit_bits: int | None = None
) -> float:
    """Interaction of T via macro-attribute reductions.

    Expands I(T) as the signed sum, over nonempty A within T, of the
    importance of the macro attribute in the game where A moves in
    lockstep and T without A is frozen at level 0.  Singleton base case
    is the importance index itself.
    """
    members = nonempty_members(T, v.n)
    t = len(members)
    if t == 1:
        return importance(v, members[0], limit_bits)
    terms = []
    for a in range(1, t + 1):
        for A in combinations(members, a):
            reduced = reduce_group(v, members, A)
            terms.append((-1.0) ** (t - a) * importance(reduced, reduced.n, limit_bits))
    return math.fsum(terms)


def classical_shapley(v: MultichoiceGame, i: int) -> float:
    """Shapley value of attribute i in a two-level (k = 1) game."""
    return classical_interaction(v, (i,))


def lattice_point_interaction(v: MultichoiceGame, x: Sequence[int]) -> float:
    """Pointwise interaction at a lattice profile x.

    With J the support of x, averages the discrete derivative of v over
    the cells based one step below x on J, while the attributes outside J
    sweep the extreme levels {0, k}; the weight depends on how many of
    them sit at the top.  At k = 1 and x the indicator of a coalition S
    this is the classical interaction index of S.
    """
    x = _profile(x, v.n, v.k)  # validated before its levels become slice bounds
    J = support(x)
    if not J:
        raise ValueError("x must have nonempty support")
    deltas = v.grid()[tuple(slice(xi - 1, xi + 1) if xi else slice(0, v.k + 1, v.k) for xi in x)]
    for i in J:
        deltas = np.diff(deltas, axis=i - 1)
    # the axes outside J hold levels {0, k} at indices {0, 1}: read as a k = 1
    # grid, h attributes at the top make class (s, kap) = (h, h), whose
    # coefficient (n-j-h)! h! / (n-j+1)! is the weight of this index
    return _combine_classes(deltas)


def interaction_by_method(
    v: MultichoiceGame, T: Iterable[int], method: str, limit_bits: int | None = None
) -> float:
    """Interaction of T computed by one of :data:`METHODS`.

    Each method's function is looked up by its module-level name at call
    time, so a rebinding of that name (a wrapper, say) is honoured.
    """
    compute = {
        "closed_form": interaction,
        "derivative_sum": interaction_via_derivatives,
        "recursive": interaction_recursive,
        "cellsum": interaction_cellsum,
    }.get(method)
    if compute is None:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    return compute(v, T, limit_bits)


def interaction_all_upto(
    v: MultichoiceGame,
    m: int,
    method: str = "closed_form",
    limit_bits: int | None = None,
) -> dict[Coalition, float]:
    """Interaction of every coalition of order 1..m under one method.

    Keys are sorted member tuples, by order and then lexicographically, so
    the singleton rows ``(i,)`` double as the importance vector.
    ``method`` is one of closed_form, derivative_sum, recursive, cellsum;
    closed_form reads every coalition from one :func:`_index_array` pass,
    and cellsum sums the cells' capacities once and indexes every
    coalition in that one k = 1 game, as :func:`interaction_cellsum` does
    for one.
    """
    m = _integer(m, "max order")
    if not 1 <= m <= v.n:
        raise ValueError(f"max order {m} outside 1..{v.n}")
    build = _layout if v.n <= _CACHED_LAYOUT_N else _layout.__wrapped__
    coalitions, masks = build(v.n, m)
    if method == "closed_form":
        return dict(zip(coalitions, _index_array(v, limit_bits)[masks].tolist()))
    if method == "cellsum":
        total = _summed_capacity(v, limit_bits)
        return {T: classical_interaction(total, T) for T in coalitions}
    return {T: interaction_by_method(v, T, method, limit_bits) for T in coalitions}
