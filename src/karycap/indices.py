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
grid (levels 0 and k on the axes of T, say) followed by its T-difference,
``game._diff``.  Each resulting term is weighted by the coefficient of its
(s, kap) class, rounded to a double once per class and cached per shape of
terms, and all the weighted terms are added in one ``math.fsum``, which
rounds their total once whatever their order.

Two independently computable forms are provided as cross-checks: a sum
of discrete derivatives over all unit cells, and an expansion through
reduced games where a coalition moves as a single macro attribute, each
reduced game read as two slices of the grid (its macro levels 0 and k).

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
degree rows, and weighs row d by 1 / (d + 1), for a stack of games of one
shape at once.  :func:`_served` guards each run of games of one shape once
and stacks it within :data:`_STACK_LOOKUPS`, for :func:`interaction_all_upto`
and :mod:`karycap.verify`; the per-coalition closed form stays the reference.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import combinations, groupby, islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .choquet import _summed_capacity, classical_interaction, interaction_cellsum
from .game import (
    Coalition,
    MultichoiceGame,
    _diff,
    _integer,
    _profile,
    check_query_size,
    members_tuple,
    nonempty_members,
    query_cost,
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
    """Sum of ``terms``, each weighted by its (s, kap) class, in one ``math.fsum``.

    Axes of length 1 are those of T, and every other axis indexes a level
    of {0..k}: n is ``terms.ndim`` and t the number of length-1 axes, which
    leave the F-order ravel alone and so are dropped from the weights' key.
    """
    shape = tuple(d for d in terms.shape if d > 1)
    build = _classes if math.prod(shape) <= _CACHED_WEIGHTS else _classes.__wrapped__
    return math.fsum((build(shape, terms.ndim) * terms.ravel(order="F")).tolist())


# 128 KiB of weights per cached shape, so the 32 cached shapes stay under 4 MiB
_CACHED_WEIGHTS = 2**14


@functools.lru_cache(maxsize=32)
def _classes(shape: tuple[int, ...], n: int) -> np.ndarray:
    """Weight of each entry of an array of ``shape`` (the axes outside T) in
    F order: the coefficient of its (s, kap) class, rounded once per class."""
    levels, top = np.ix_(*map(np.arange, shape)), max(shape, default=1) - 1
    s_arr = sum(level > 0 for level in levels)  # the levels above 0
    kap_arr = sum(level == top for level in levels)  # the levels at k
    coefficients = np.zeros((len(shape) + 1,) * 2)
    for s in range(len(shape) + 1):
        for kap in range(s + 1):
            coefficients[s, kap] = shapley_coefficient(n, n - len(shape), s, kap)
    weights = np.ravel(coefficients[s_arr, kap_arr], order="F")
    weights.flags.writeable = False  # shared by every caller
    return weights


def _closed_form(v: MultichoiceGame, members: Coalition, limit_bits: int | None) -> float:
    n, k, t = v.n, v.k, len(members)
    check_query_size(query_cost("closed_form", n, k, t), limit_bits)
    # T at levels 0 and k, every other attribute at each of its levels
    ends = tuple(slice(0, k + 1, k) if i in members else slice(None) for i in range(1, n + 1))
    return _combine_classes(_diff(v.grid()[ends], members))


def _mask(T: Iterable[int]) -> int:
    """Position of coalition T in :func:`_index_array`: bit i-1 for each i in T."""
    return sum(1 << (i - 1) for i in T)


# layouts of at most 4,096 coalitions are cached (every layout with n <= 12),
# so the 16 cached layouts stay under 8 MiB; only the pass reads them
_CACHED_LAYOUT_N = 12


def _coalitions(n: int, m: int) -> Iterator[Coalition]:
    """Coalitions of order 1..m in served order: by order, then lexicographically."""
    return (T for size in range(1, m + 1) for T in combinations(range(1, n + 1), size))


@functools.lru_cache(maxsize=16)
def _layout(n: int, m: int) -> tuple[tuple[Coalition, ...], np.ndarray]:
    """:func:`_coalitions` of order 1..m, and their :func:`_mask` positions."""
    coalitions = tuple(_coalitions(n, m))
    masks = np.array([_mask(T) for T in coalitions], dtype=np.intp)
    masks.flags.writeable = False  # shared by every caller
    return coalitions, masks


def _index_array(games: Sequence[MultichoiceGame]) -> np.ndarray:
    """Closed-form index of every coalition at once, by coalition mask, for games of one shape.

    Returns one row of 2^n entries per game, whose entry ``_mask(T)`` is I(T);
    entry 0 is not an index.  One pass over the stacked tables gives each game
    the row of its own pass.  See the module docstring for the sweep, and :func:`_served`
    for its guard.
    """
    n, k, b = games[0].n, games[0].k, len(games)
    # the games lead (a lone game's table is read in place), then axes n..1 reversed:
    # each table keeps its own order, so every grid of the stack is a game's v.grid()
    axes = (0, *range(n, 0, -1))
    values = games[0].values if b == 1 else np.stack([g.values for g in games])
    h = values.reshape((b,) + (k + 1,) * n).transpose(axes)
    # each axis: its entry 0 sums levels 0..k-1 (row P), entry 1 is top minus bottom (D);
    # numpy sums k >= 8 entries pairwise along the fastest axis and in sequence along
    # any other, so h is kept in C order to fix the rounding of each sum
    for ax in range(1, n + 1):
        lead = (slice(None),) * ax
        h = np.concatenate([h[lead + (slice(0, k),)].sum(axis=ax, keepdims=True),
                            h[lead + (slice(k, k + 1),)] - h[lead + (slice(0, 1),)]],
                           axis=ax, out=np.empty((b,) + (2,) * ax + (k + 1,) * (n - ax)))
    # row d at T sums h(U) over the U containing T with |U - T| = d: on each
    # axis, entry 0 (i not in T) gains entry 1 (i in U) one degree up
    g = np.zeros((n,) + h.shape)
    g[0] = h
    for ax in range(1, n + 1):
        lead = (slice(None),) * ax
        g[(slice(1, None), *lead, 0)] += g[(slice(0, -1), *lead, 1)]
    index = g[0]
    for d in range(1, n):
        index += g[d] / (d + 1)
    return index.transpose(axes).reshape(b, 2**n)


# the pass guard counts that one stack's games may add up to: a larger game is indexed alone
_STACK_LOOKUPS = 2**16


def _served(games: Iterable[MultichoiceGame], m: int, limit_bits: int | None) -> list[dict]:
    """The closed-form report of order 1..min(m, n) of each of ``games``, in order.  Each
    run of one shape meets the pass guard once and is indexed in stacks that fit in
    :data:`_STACK_LOOKUPS`, each stack's games taken once the stack before is freed."""
    tables = []
    for (n, k), run in groupby(games, key=lambda g: (g.n, g.k)):
        check_query_size(cost := query_cost("pass", n, k), limit_bits)
        layout = _layout if n <= _CACHED_LAYOUT_N else _layout.__wrapped__
        coalitions, masks = layout(n, min(m, n))
        while stack := list(islice(run, max(1, _STACK_LOOKUPS // cost))):
            tables += [dict(zip(coalitions, row)) for row in _index_array(stack)[:, masks].tolist()]
            del stack  # not held while the next stack's games are built
    return tables


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
    check_query_size(query_cost("derivative_sum", v.n, v.k, len(members)), limit_bits)
    deltas = _diff(v.grid(), members)  # one entry per unit cell of the T-block
    terms = deltas.sum(axis=tuple(i - 1 for i in members), keepdims=True)
    return _combine_classes(terms)


def interaction_recursive(
    v: MultichoiceGame, T: Iterable[int], limit_bits: int | None = None
) -> float:
    """Interaction of T via macro-attribute reductions.

    Expands I(T) as the signed sum, over nonempty A within T, of the
    importance of the macro attribute in the game where A moves in lockstep
    and T without A is frozen at level 0 (:func:`karycap.game.reduce_group`).
    Its levels 0 and k are read as basic slices of ``v.grid()``: no game is built.
    """
    members = nonempty_members(T, v.n)
    t = len(members)
    check_query_size(query_cost("recursive", v.n, v.k, t), limit_bits)

    def macro(A: Coalition) -> np.ndarray:  # A's axes at k, the rest of T at 0, the others whole
        return v.grid()[tuple(v.k if i in A else 0 if i in members else slice(None)
                              for i in range(1, v.n + 1))]

    # each term weighted as in the reduced game, on n - t + 1 attributes
    return math.fsum((-1.0) ** (t - len(A)) * _combine_classes((macro(A) - macro(()))[..., None])
                     for a in range(1, t + 1) for A in combinations(members, a))


def classical_shapley(v: MultichoiceGame, i: int, limit_bits: int | None = None) -> float:
    """Shapley value of attribute i in a two-level (k = 1) game."""
    return classical_interaction(v, (i,), limit_bits)


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
    ends = tuple(slice(xi - 1, xi + 1) if xi else slice(0, v.k + 1, v.k) for xi in x)
    deltas = _diff(v.grid()[ends], J)
    # the axes outside J hold levels {0, k} at indices {0, 1}: read as a k = 1
    # grid, h attributes at the top make class (s, kap) = (h, h), whose
    # coefficient (n-j-h)! h! / (n-j+1)! is the weight of this index
    return _combine_classes(deltas)


def interaction_by_method(
    v: MultichoiceGame, T: Iterable[int], method: str, limit_bits: int | None = None
) -> float:
    """Interaction of T by one of :data:`METHODS`, each route looked up by
    its module-level name per call, so that a wrapper bound to it is honoured."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    return {
        "closed_form": interaction,
        "derivative_sum": interaction_via_derivatives,
        "recursive": interaction_recursive,
        "cellsum": interaction_cellsum,
    }[method](v, T, limit_bits)


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
    and cellsum indexes every coalition in the one k = 1 game of summed
    cell capacities.  Each counts its whole report before listing any
    coalition; an unknown method is refused at the first coalition.
    """
    m = _integer(m, "max order")
    n = v.n
    if not 1 <= m <= n:
        raise ValueError(f"max order {m} outside 1..{n}")
    if method == "closed_form":
        return _served([v], m, limit_bits)[0]
    if method in METHODS:
        check_query_size(query_cost(method, n, v.k, m=m), limit_bits)
    if method == "cellsum":
        total = _summed_capacity(v)
        return {T: classical_interaction(total, T, limit_bits) for T in _coalitions(n, m)}
    return {T: interaction_by_method(v, T, method, limit_bits) for T in _coalitions(n, m)}
