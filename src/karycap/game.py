"""Multilevel cooperative games on the grid {0,...,k}^N.

A game assigns a real value to every profile of attribute levels and maps
the all-zeros profile to 0.  Attributes are numbered 1..n.  Value tables
are stored densely in little-endian mixed-radix order: attribute 1 is the
least significant digit.  :class:`MultichoiceGame` alone knows this
layout.  ``v.grid()`` views the table as an n-dimensional array whose
axis i-1 carries the level of attribute i, and it is the only address of
the table: a validated profile indexes it directly, and each game
transform reads it through whole-array operations.  The restrictions are
slices, :func:`permute_attributes` is an axis move,
:func:`extend_heterogeneous` takes clamped levels along each short axis
(k_i < k), and :func:`reduce_group` is a gather on moved axes (T's axes
in front, one level array on the axes of A); the axiom
partners of :mod:`karycap.verify` broadcast a new axis or concatenate
along an axis moved to the front.  The indices are slices of it followed
by their T-difference :func:`_diff`, the one loop of differences along T's
axes; ``MultichoiceGame.from_grid`` builds a game from such an array.
Per-axis levels are open grids (``np.ix_``), so no table built from them
holds n tables.  A classical capacity is the game with k = 1.
:func:`profiles` lists {0..k}^n in table order, to tabulate a function.

Games are immutable once built; every operation here is a pure function,
so games can be shared freely across threads.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import sys
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

LatticePoint = tuple[int, ...]
Coalition = tuple[int, ...]

#: Default cap on table size: (k+1)**n must fit in this many bits.
DEFAULT_TABLE_BITS = 28

#: Default cap on table lookups per index query: profiles * corners <= 2**bits.
DEFAULT_QUERY_BITS = 26

GAME_KINDS = ("general", "monotone", "additive")


class SizeLimitError(ValueError):
    """Requested object would exceed the configured exponential-size guard."""


def check_table_size(n: int, k: int, limit_bits: int | None = None) -> None:
    """Fail fast if a dense (k+1)**n table would blow the size budget or numpy's index."""
    bits = DEFAULT_TABLE_BITS if limit_bits is None else _integer(limit_bits, "bit limit")
    n, k = _integer(n, "attribute count n"), _integer(k, "top level k")
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    # numpy indexes fewer than 2^63 entries whatever the limit; from n = 63 on, the
    # integer lower bound n*floor(log2(k+1)) >= n stands in, so n never meets a float
    size_bits = n * math.log2(k + 1) if n < 63 else n * ((k + 1).bit_length() - 1)
    if size_bits > bits or size_bits >= 63:
        # the exact count only up to 2^64 (3**(10**7) takes seconds to build, and past
        # 4,300 digits str() refuses it), then its bits while n fits a float, then the power
        count = (f"{k + 1}^{n}" if n >= 2**64 else (k + 1) ** n
                 if (b := n * math.log2(k + 1)) <= 64 else f"about 2^{b:.0f}")
        beyond = f", beyond the {bits}-bit limit" if size_bits > bits else ""
        raise SizeLimitError(f"table over {{0..{k}}}^{n} has (k+1)^n = {count} entries{beyond}; "
                             + ("raise the limit explicitly if intended" if size_bits < 63 else
                                "numpy cannot index 2^63 entries or more, whatever the limit"))


def check_query_size(
    count: int, limit_bits: int | None = None, unit: str = "table lookups"
) -> None:
    """Fail fast if a query would need more than 2**bits of ``unit``."""
    bits = DEFAULT_QUERY_BITS if limit_bits is None else _integer(limit_bits, "bit limit")
    # the length test first, so that a large limit never builds 2**bits
    if count.bit_length() > bits and count > 2**bits:
        raise SizeLimitError(
            f"query needs {count} {unit}, beyond the {bits}-bit limit; "
            "raise the limit explicitly if intended"
        )


# each route's count for one coalition T of order t, in table lookups unless noted:
# the per-coalition routes read the (k+1)^(n-t) profiles off T times the reads on T
_COSTS = {
    "closed_form": lambda n, k, t: (k + 1) ** (n - t) * 2**t,
    "derivative_sum": lambda n, k, t: (k + 1) ** (n - t) * (2 * k) ** t,
    "recursive": lambda n, k, t: (k + 1) ** (n - t) * 2 * (2**t - 1),  # 2^t - 1 reduced games
    "cellsum": lambda n, k, t: 2**n,  # a classical index: the closed form at k = 1
    "pass": lambda n, k, t: max((k + 1) ** n, n * 2**n),  # the table, or at k = 1 its n rows
    "integral": lambda n, k, t: k**n * 2**t,  # Choquet evaluations per sample: 2^t per cell
}


def query_cost(route: str, n: int, k: int, t: int = 0, m: int = 0) -> int:
    """The one cost model of the query guards: what one call of ``route`` reads,
    for one coalition of order t or, given m, for all C(n, t) of each order 1..m."""
    each = _COSTS[route]
    count = sum(math.comb(n, s) * each(n, k, s) for s in range(1, m + 1)) if m else each(n, k, t)
    return count + _COSTS["pass"](n, k, 0) if route == "cellsum" else count  # + the box sums


def profiles(n: int, k: int) -> Iterator[LatticePoint]:
    """All profiles of {0..k}^n in canonical table order (attribute 1 fastest)."""
    # product varies its last slot fastest; reversed, attribute 1 is fastest
    return (p[::-1] for p in product(range(k + 1), repeat=n))


def _profile(x: Sequence[int], n: int, k: int) -> LatticePoint:
    """Validate a profile of {0..k}^n: n integer levels, each in [0, k]."""
    if len(x) != n:
        raise ValueError(f"profile has {len(x)} components, expected {n}")
    levels = tuple(_integer(xi, "profile component") for xi in x)
    for i, xi in enumerate(levels, 1):
        if not 0 <= xi <= k:
            raise ValueError(f"component {i} is {xi}, outside [0, {k}]")
    return levels


def support(x: Sequence[int]) -> Coalition:
    """Attributes sitting strictly above level 0, as 1-based indices."""
    return tuple(i + 1 for i, xi in enumerate(x) if xi > 0)


def _integer(x, what: str) -> int:
    if not isinstance(x, (bool, np.bool_)) and hasattr(type(x), "__index__"):
        return operator.index(x)
    raise ValueError(f"{what} {x!r} is not an integer")


def _seed(seed) -> int:
    seed = _integer(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed {seed} is negative")
    return seed


def _finite(x, what: str) -> None:
    # no gap exceeds a nan or inf tolerance, and every gap exceeds -inf: a check would decide
    # nothing; a factor that is not a finite number would leave no finite table
    if isinstance(x, (bool, np.bool_)) or not isinstance(x, numbers.Real):
        raise ValueError(f"{what} {x!r} is not a number")
    if isinstance(x, numbers.Rational) and not abs(x) <= sys.float_info.max:
        raise ValueError(f"{what} beyond the float range ±{sys.float_info.max} is not finite")
    if not math.isfinite(x):
        raise ValueError(f"{what} {x} is " + ("not a number" if math.isnan(x) else "not finite"))


def members_tuple(T: Iterable[int], n: int) -> Coalition:
    """Validate a coalition: distinct 1-based integer attribute indices, sorted."""
    members = tuple(sorted(_integer(i, "coalition member") for i in T))
    if any(i < 1 or i > n for i in members):
        raise ValueError(f"coalition {members} has indices outside 1..{n}")
    if len(set(members)) != len(members):
        raise ValueError(f"coalition {members} has duplicate members")
    return members


def nonempty_members(T: Iterable[int], n: int) -> Coalition:
    """:func:`members_tuple` of a coalition that must have a member."""
    members = members_tuple(T, n)
    if not members:
        raise ValueError("coalition must be nonempty")
    return members


@dataclass(frozen=True, eq=False)
class MultichoiceGame:
    """Dense game table over {0..k}^n with v(0,...,0) = 0.

    ``values`` is a read-only float64 array of length (k+1)**n in canonical little-endian
    order, within ±(the largest float) / (2(k+1))^n, since an index route grows a value at
    most 2(k+1)-fold per attribute: a difference doubles it, a sum of k+1 levels multiplies
    it by k+1.  ``meta``, provenance such as original level counts, never affects equality.
    """

    n: int
    k: int
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _integer(self.n, "attribute count n"))
        object.__setattr__(self, "k", _integer(self.k, "top level k"))
        if self.n < 1 or self.k < 1:
            raise ValueError(f"need n >= 1 and k >= 1, got n={self.n}, k={self.k}")
        try:
            vals = np.array(self.values, dtype=np.float64)  # private copy, then frozen
        except OverflowError:  # an int past the float range: refused below, as inf is
            vals = np.full(np.shape(self.values), np.inf)
        # (k+1)^n >= 2^n: an n past the length's bit length fails without the power
        if self.n > vals.size.bit_length() or vals.shape != ((self.k + 1) ** self.n,):
            raise ValueError(
                f"table length {vals.size} does not match (k+1)^n over {{0..{self.k}}}^{self.n}"
            )
        bound = sys.float_info.max / (2 * (self.k + 1)) ** self.n
        if not (vals.max() <= bound and vals.min() >= -bound):  # NaN fails too
            raise ValueError(f"table values must be finite and within ±{bound!r}")
        if vals[0] != 0.0:
            raise ValueError(f"value at the zero profile must be 0, got {vals[0]!r}")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_values(
        cls, n: int, k: int, values: Sequence[float], meta: dict | None = None
    ) -> "MultichoiceGame":
        return cls(n, k, values, meta or {})

    @classmethod
    def from_function(
        cls, n: int, k: int, fn: Callable[[LatticePoint], float]
    ) -> "MultichoiceGame":
        """Tabulate fn over the whole grid; fn must vanish at the zero profile.

        fn is called once per profile, in table order, and its values stream into
        the float64 table: the build holds that table and the constructor's copy.
        """
        check_table_size(n, k)
        try:
            return cls(n, k, np.fromiter((fn(x) for x in profiles(n, k)), np.float64, (k + 1) ** n))
        except OverflowError:  # a value of fn past the float range: refused, as inf is
            return cls(n, k, np.full((k + 1) ** n, np.inf))

    def value(self, x: Sequence[int]) -> float:
        """Game value at profile x."""
        return float(self.grid()[_profile(x, self.n, self.k)])

    @classmethod
    def from_grid(cls, grid: np.ndarray, meta: dict | None = None) -> "MultichoiceGame":
        """Game whose table is ``grid``, an array whose axis i-1 carries attribute i.

        Every axis must have the same length k + 1; :meth:`grid` is the inverse.
        """
        arr = np.asarray(grid)  # converted by the constructor
        if len(set(arr.shape)) != 1:
            raise ValueError(f"grid axes must all have one length, got shape {arr.shape}")
        return cls(arr.ndim, arr.shape[0] - 1, arr.ravel(order="F"), meta or {})

    def grid(self) -> np.ndarray:
        """Read-only view of the table whose axis i-1 carries the level of attribute i."""
        return self.values.reshape((self.k + 1,) * self.n, order="F")


def min_game(n: int, k: int) -> MultichoiceGame:
    """v(x) = min_i x_i; the standard fully conjunctive example."""
    check_table_size(n, k)
    levels = np.ix_(*(np.arange(k + 1.0),) * n)  # attribute i's levels, along axis i-1
    # float levels, and the transpose of the symmetric minimum, which is column-major:
    # from_grid neither converts nor copies the grid
    return MultichoiceGame.from_grid(functools.reduce(np.minimum, levels).T)


def _diff(a: np.ndarray, T: Iterable[int]) -> np.ndarray:
    """The T-difference of ``a``: one difference along the axis of each attribute of T."""
    for i in T:
        a = np.diff(a, axis=i - 1)
    return a


def discrete_derivative(v: MultichoiceGame, T: Iterable[int], x: Sequence[int]) -> float:
    """Alternating corner sum of v over the unit cell [x, x + 1_T].

    Requires x_i < k for every i in T; equals the iterated one-step
    difference along the attributes of T.
    """
    members = nonempty_members(T, v.n)
    x = _profile(x, v.n, v.k)  # validated before its levels become slice bounds
    for i in members:
        if x[i - 1] >= v.k:
            raise ValueError(f"attribute {i} already at top level in {x}")
    cell = v.grid()[tuple(
        slice(xi, xi + 2) if i in members else slice(xi, xi + 1) for i, xi in enumerate(x, 1)
    )]
    return _diff(cell, members).item()


def extend_heterogeneous(
    raw_values: Sequence[float],
    k_list: Sequence[int],
    k: int | None = None,
    limit_bits: int | None = None,
) -> MultichoiceGame:
    """Unify a game with per-attribute level counts to a common k.

    ``raw_values`` covers the product of {0..k_i} in little-endian
    mixed-radix order.  Levels above k_i are clamped to k_i, i.e. the top
    level of a short attribute is duplicated upward.  ``k`` defaults to
    max(k_list) and may be set higher.  An axis with k_i = k is not gathered.
    """
    k_list = [_integer(ki, "level count") for ki in k_list]
    n = len(k_list)
    if n < 1 or any(ki < 1 for ki in k_list):
        raise ValueError(f"per-attribute level counts must be >= 1, got {k_list}")
    kmax = max(k_list)
    k = kmax if k is None else _integer(k, "top level k")
    if k < kmax:
        raise ValueError(f"target k={k} below max(k_list)={kmax}")
    check_table_size(n, k, limit_bits)
    expected = math.prod(ki + 1 for ki in k_list)
    raw = np.asarray(raw_values)  # converted by the constructor
    if raw.shape != (expected,):
        raise ValueError(f"table length mismatch: got {raw.size} values, expected {expected}")
    # axis i-1 carries attribute i; a short axis reads its levels clamped to k_i
    grid = raw.reshape([ki + 1 for ki in k_list], order="F")
    for axis, ki in enumerate(k_list):
        if ki < k:
            grid = np.take(grid, np.minimum(np.arange(k + 1), ki), axis=axis)
    meta = {"k_list": tuple(k_list)} if (k_list != [k] * n) else {}
    return MultichoiceGame.from_grid(grid, meta)


def is_kary_capacity(v: MultichoiceGame, tol: float = 1e-9) -> bool:
    """True iff v is nondecreasing along every +1 step (within a finite tol) and v(top) = 1."""
    _finite(tol, "tolerance")
    grid = v.grid()
    for ax in range(v.n):
        steps = np.diff(grid, axis=ax)
        if steps.size and steps.min() < -tol:
            return False
    return bool(abs(v.values[-1] - 1.0) <= tol)


def restrict_absent(v: MultichoiceGame, S: Iterable[int]) -> MultichoiceGame:
    """Sub-game on N without S, with every attribute of S frozen at level 0."""
    members = members_tuple(S, v.n)
    if len(members) == v.n:
        raise ValueError("cannot freeze every attribute; S must be a proper subset")
    index = tuple(0 if i in members else slice(None) for i in range(1, v.n + 1))
    return MultichoiceGame.from_grid(v.grid()[index])


def restrict_present_top(v: MultichoiceGame, i: int) -> MultichoiceGame:
    """Sub-game on N without i, with i pinned at its top level.

    Values are shifted so the zero profile of the restriction maps to 0.
    """
    if v.n < 2:
        raise ValueError("need at least two attributes to restrict one away")
    (i,) = members_tuple((i,), v.n)
    sliced = v.grid()[(slice(None),) * (i - 1) + (v.k,)]  # a view, unlike np.take
    return MultichoiceGame.from_grid(sliced - sliced.flat[0])


def reduce_group(
    v: MultichoiceGame, T: Iterable[int], A: Iterable[int]
) -> MultichoiceGame:
    """Collapse A into one macro attribute, freezing T without A at level 0.

    The result lives on the attributes outside T (keeping their relative
    order) plus the macro attribute appended last; the macro level moves
    every member of A in lockstep.  The original members of A are recorded
    in ``meta['macro_members']``.
    """
    t_members = members_tuple(T, v.n)
    a_members = nonempty_members(A, v.n)
    if not set(a_members) <= set(t_members):
        raise ValueError(f"A={a_members} is not contained in T={t_members}")
    kept = tuple(i for i in range(1, v.n + 1) if i not in t_members)
    # with T's axes in front, one level array on A's axes (0 on the rest of T)
    # gathers every macro level at once onto a leading axis, which moves last
    front = np.moveaxis(v.grid(), [i - 1 for i in t_members], range(len(t_members)))
    levels = np.arange(v.k + 1)
    gathered = front[tuple(levels if i in a_members else 0 for i in t_members)]
    meta = {"macro_members": a_members, "kept": kept}
    return MultichoiceGame.from_grid(np.moveaxis(gathered, 0, -1), meta)


def permute_attributes(v: MultichoiceGame, sigma: Sequence[int]) -> MultichoiceGame:
    """Relabelled game w with w(sigma(x)) = v(x).

    ``sigma[i-1]`` is the new 1-based index of attribute i, so the level
    that v reads at attribute i is read by w at attribute sigma(i).
    """
    sigma = [_integer(s, "permutation entry") for s in sigma]
    if sorted(sigma) != list(range(1, v.n + 1)):
        raise ValueError(f"{tuple(sigma)} is not a permutation of 1..{v.n}")
    return MultichoiceGame.from_grid(np.moveaxis(v.grid(), range(v.n), [s - 1 for s in sigma]))


def add_games(v: MultichoiceGame, w: MultichoiceGame, alpha: float = 1.0) -> MultichoiceGame:
    """Pointwise combination v + alpha * w on a common grid, alpha a finite number."""
    _finite(alpha, "alpha")
    if (v.n, v.k) != (w.n, w.k):
        raise ValueError("games live on different grids")
    with np.errstate(over="ignore"):  # the constructor refuses an overflow, with no warning
        return MultichoiceGame(v.n, v.k, v.values + alpha * w.values)


def random_game(
    seed: int,
    n: int,
    k: int,
    kind: str = "general",
    limit_bits: int | None = None,
) -> MultichoiceGame:
    """Seeded random game; identical seeds give identical tables.

    ``general`` draws i.i.d. uniform values on [-1, 1).  ``monotone``
    accumulates nonnegative increments over the grid and rescales to a
    top value of exactly 1, so the result is always a k-ary capacity.
    ``additive`` draws per-attribute weights w_i on [0, 1) and sets
    v(x) = sum_i w_i * x_i.  A build of any kind holds two tables at its
    peak, its own and the constructor's copy: ``monotone`` sums and rescales
    its increments in place.
    """
    if kind not in GAME_KINDS:
        raise ValueError(f"kind must be one of {GAME_KINDS}, got {kind!r}")
    check_table_size(n, k, limit_bits)
    seed = _seed(seed)
    rng = np.random.default_rng(seed)
    size = (k + 1) ** n
    if kind == "general":
        vals = rng.uniform(-1.0, 1.0, size)
        vals[0] = 0.0
    elif kind == "monotone":
        vals = rng.uniform(0.0, 1.0, size)  # the increments, summed in place
        vals[0] = 0.0
        grid = vals.reshape((k + 1,) * n)
        for ax in range(n):
            np.cumsum(grid, axis=ax, out=grid)
        vals /= vals[-1]
    else:  # additive
        weights = rng.uniform(0.0, 1.0, n)
        levels = np.ix_(*map(np.arange, (k + 1,) * n))  # attribute i's levels, along axis i-1
        vals = sum(weight * level for weight, level in zip(weights, levels)).ravel(order="F")
    return MultichoiceGame(n, k, vals, {"seed": seed, "kind": kind})
