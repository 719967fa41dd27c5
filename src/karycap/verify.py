"""Executable axiom suite and combinatorial identity checks.

Each axiom of the interaction index (linearity, null attribute,
increment invariance, symmetry, efficiency, recursion) is turned into a
seeded randomized check.  The axiom's builder draws the partners its
equation talks about and lists the games the equation reads.  One driver,
:func:`verify_axioms`, indexes each game by what
``interaction_all_upto(..., "closed_form")`` serves the CLI's importance
and interaction verbs (the same all-coalition pass, keyed by coalition, and
guarded once for each run of an axiom's games of one shape), records both
sides of every equation over those tables, and re-checks the first game's
table against the per-coalition closed form of
:func:`~karycap.indices.importance` and
:func:`~karycap.indices.interaction` at one drawn attribute and one
drawn coalition.  Reports collect every violation above tolerance, so a
passing report means the whole trial batch stayed within bounds.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Iterable

import numpy as np

from .game import (
    MultichoiceGame,
    _finite,
    _integer,
    _seed,
    add_games,
    check_table_size,
    members_tuple,
    permute_attributes,
    random_game,
    restrict_absent,
    restrict_present_top,
)
from .indices import _served, importance, interaction

AXIOMS = ("L", "N", "I", "S", "E", "R")

#: Largest coalition size exercised per trial.
MAX_ORDER = 3


@dataclass
class Failure:
    seed: int
    subject: tuple
    lhs: float
    rhs: float
    gap: float


@dataclass
class VerificationReport:
    axiom: str
    trials: int
    max_gap: float = 0.0
    closed_form_gap: float = 0.0
    passed: bool = True
    note: str = ""
    failures: list[Failure] = field(default_factory=list)

    def record(self, tol: float, seed: int, subject: tuple, lhs: float, rhs: float) -> None:
        gap = abs(lhs - rhs)
        self.max_gap = self._worst(self.max_gap, gap, tol)
        if not gap <= tol:
            self.failures.append(Failure(seed, subject, lhs, rhs, gap))

    def _worst(self, worst: float, gap: float, tol: float) -> float:
        # the larger gap, or a NaN once met; the report fails unless gap <= tol, so on a NaN too
        self.passed = self.passed and gap <= tol
        return gap if gap != gap or gap > worst else worst

    def as_dict(self) -> dict:
        return asdict(self)


def make_null_extension(
    v: MultichoiceGame, position: int, limit_bits: int | None = None
) -> MultichoiceGame:
    """Insert an attribute at ``position`` (1-based) that never matters.

    The new game ignores the inserted attribute's level entirely, so its
    importance and every interaction involving it must vanish.
    """
    position = _integer(position, "position")
    if not 1 <= position <= v.n + 1:
        raise ValueError(f"position {position} outside 1..{v.n + 1}")
    check_table_size(v.n + 1, v.k, limit_bits)
    expanded = np.expand_dims(v.grid(), axis=position - 1)
    return MultichoiceGame.from_grid(np.broadcast_to(expanded, (v.k + 1,) * (v.n + 1)))


def make_invariance_partner(v: MultichoiceGame, i: int) -> MultichoiceGame:
    """Game w whose increments along attribute i are those of v shifted one level up.

    Along i: w at level 0 is 0, w at level l (1 <= l <= k-1) is
    v(l+1) - v(1), and w at level k is v(k) - v(0), all at fixed levels of
    the other attributes.  By construction the importance of i and every
    interaction of a coalition containing i agree between v and w.
    """
    if v.k < 2:
        raise ValueError("the increment-shift relations degenerate for k < 2")
    (i,) = members_tuple((i,), v.n)
    line = np.moveaxis(v.grid(), i - 1, 0)  # levels of i lead
    shifted = np.concatenate([np.zeros_like(line[:1]), line[2:] - line[1], line[-1:] - line[:1]])
    return MultichoiceGame.from_grid(np.moveaxis(shifted, 0, i - 1))


def efficiency_rhs(v: MultichoiceGame) -> float:
    """Total diagonal increment: sum over x < top of v(x + 1_N) - v(x)."""
    grid = v.grid()
    lo = grid[(slice(0, v.k),) * v.n]
    hi = grid[(slice(1, v.k + 1),) * v.n]
    return math.fsum((hi - lo).ravel().tolist())


def verify_axioms(
    axioms: Iterable[str],
    trials: int,
    seed: int,
    n: int,
    k: int,
    tol: float = 1e-9,
    game: MultichoiceGame | None = None,
    limit_bits: int | None = None,
) -> list[VerificationReport]:
    """Randomized check of several interaction-index axioms, one report each.

    Draws fresh games per trial (or reuses ``game`` as the base subject
    while still drawing random partners, permutations and positions) and
    records every equation violation above ``tol * max(1, max|v|)``, v the
    trial's base game; a non-finite ``tol`` is rejected.  The largest gap between
    a table served by ``interaction_all_upto(..., "closed_form")`` and the
    per-coalition closed form at the re-checked coalitions is
    ``closed_form_gap``; above the same tolerance, or NaN, it fails the report.
    ``limit_bits`` overrides the size guards of every game built, of the
    all-coalition pass made for each and of the closed-form queries.
    Every argument is checked before the first trial.

    Each trial's base game is built once and indexed at most once for all
    the axioms.  Each run of an axiom's games of one shape meets the pass
    guard once, and its games share a pass within 2^16 lookups.  Every axiom
    reads the trial's stream from the point after the base game's draw, as
    a run of that axiom alone does, so each report equals
    :func:`verify_axiom`'s.
    Deterministic for a given (axioms, trials, seed, n, k, game).
    """
    axioms = tuple(axioms)
    if not axioms:
        raise ValueError("need at least one axiom")
    for axiom in axioms:
        if axiom not in AXIOMS:
            raise ValueError(f"unknown axiom {axiom!r}, expected one of {AXIOMS}")
    trials = _integer(trials, "trial count")
    if trials < 1:
        raise ValueError("need at least one trial")
    _finite(tol, "tolerance")
    seed = _seed(seed)
    if game is None:
        check_table_size(n, k, limit_bits)
    else:
        n, k = game.n, game.k
    for axiom in axioms:
        if axiom == "I" and k < 2:
            raise ValueError("axiom I needs k >= 2; its relations degenerate otherwise")
        if axiom == "R" and n < 2:
            raise ValueError("axiom R needs at least two attributes")
    note = "constructive one-attribute partner; valid under either quantifier reading"
    reports = [VerificationReport(a, trials, note=note if a == "I" else "") for a in axioms]
    # a seed drawn per trial: one vectorised draw's stream, without its array
    seeds = np.random.default_rng(seed)
    for _ in range(trials):
        ts = int(seeds.integers(0, 2**63 - 1))
        rng = np.random.default_rng(ts)
        v = game if game is not None else random_game(
            int(rng.integers(0, 2**31)), n, k, "general", limit_bits
        )
        scaled_tol = tol * max(1.0, float(np.abs(v.values).max()))
        iv = None  # v's table, indexed for the first axiom that lists v
        after_base = rng.bit_generator.state
        for report in reports:
            rng.bit_generator.state = after_base
            games, equations = _BUILDERS[report.axiom](rng, v, limit_bits)
            checked, tables = _index_games(games, v, iv, limit_bits)
            iv = tables[0] if checked is v else iv
            for subject, lhs, rhs in equations(*tables):
                report.record(scaled_tol, ts, subject, lhs, rhs)
            del tables[1:]  # the partners' tables are not held through the re-check
            _check_closed_form(report, rng, checked, tables[0], scaled_tol, limit_bits)
    return reports


def verify_axiom(
    axiom: str,
    trials: int,
    seed: int,
    n: int,
    k: int,
    tol: float = 1e-9,
    game: MultichoiceGame | None = None,
    limit_bits: int | None = None,
) -> VerificationReport:
    """Randomized check of one interaction-index axiom.

    The one report of :func:`verify_axioms` on ``(axiom,)``, which describes
    the trials, the tolerance and ``limit_bits``; a run over several axioms
    with the same arguments gives ``axiom`` this same report.
    """
    return verify_axioms((axiom,), trials, seed, n, k, tol, game, limit_bits)[0]


def _index_games(games, v, iv, bits):
    # the first game and every game's table, in order, as the importance and interaction
    # verbs serve them (R's games built as they are reached); v's table iv is reused
    games = iter(games)
    first = next(games)
    if first is v and iv is not None:
        return first, [iv, *_served(games, MAX_ORDER, bits)]
    return first, _served(chain([first], games), MAX_ORDER, bits)


def _check_closed_form(report, rng, v, iv, tol, bits):
    # the served table against the per-coalition closed form, at one drawn
    # attribute and one drawn coalition of the largest order checked
    i = int(rng.integers(1, v.n + 1))
    T = tuple(sorted(int(j) + 1 for j in rng.choice(v.n, min(v.n, MAX_ORDER), replace=False)))
    for gap in (abs(importance(v, i, bits) - iv[(i,)]), abs(interaction(v, T, bits) - iv[T])):
        report.closed_form_gap = report._worst(report.closed_form_gap, gap, tol)


# A builder (rng, v, bits) -> (games, equations) draws from rng and lists the games
# to index, the re-checked one first; equations(*tables) yields (subject, lhs, rhs).


def _linearity(rng, v, bits):
    w = random_game(int(rng.integers(0, 2**31)), v.n, v.k, "general", bits)
    alpha = float(rng.uniform(-2.0, 2.0))
    return (v, w, add_games(v, w, alpha)), lambda iv, iw, icombo: (
        (T, icombo[T], iv[T] + alpha * iw[T]) for T in iv
    )


def _null(rng, v, bits):
    position = int(rng.integers(1, v.n + 2))
    return (make_null_extension(v, position, bits),), lambda iext: (
        (T, iext[T], 0.0) for T in iext if position in T
    )


def _invariance(rng, v, bits):
    i = int(rng.integers(1, v.n + 1))
    return (v, make_invariance_partner(v, i)), lambda iv, iw: (
        (T, iv[T], iw[T]) for T in iv if i in T
    )


def _symmetry(rng, v, bits):
    sigma = tuple(int(s) + 1 for s in rng.permutation(v.n))
    return (v, permute_attributes(v, sigma)), lambda iv, irelabeled: (
        (T, irelabeled[tuple(sorted(sigma[i - 1] for i in T))], iv[T]) for T in iv
    )


def _efficiency(rng, v, bits):
    return (v,), lambda iv: [
        (("total",), math.fsum(iv[(i,)] for i in range(1, v.n + 1)), efficiency_rhs(v))
    ]


def _recursion(rng, v, bits):
    def games():  # each restriction built when the driver reaches it
        yield v
        for i in range(1, v.n + 1):
            yield restrict_present_top(v, i)
            yield restrict_absent(v, (i,))

    def equations(iv, *parts):
        tops, absents = parts[0::2], parts[1::2]
        for T in iv:
            if len(T) < 2:
                continue
            for i in T:  # rest: T without i, renumbered for the game without i
                rest = tuple(j - 1 if j > i else j for j in T if j != i)
                yield T + ("drop", i), iv[T], tops[i - 1][rest] - absents[i - 1][rest]

    return games(), equations


_BUILDERS = {
    "L": _linearity,
    "N": _null,
    "I": _invariance,
    "S": _symmetry,
    "E": _efficiency,
    "R": _recursion,
}


def check_lemma4(n: int) -> VerificationReport:
    """Exact identity behind the class coefficients.

    For all 0 <= a <= b < n the sum of (n-s-1)! s! / n! over s in [a, b],
    counted with binomial multiplicity choose(b-a, s-a), must equal
    (n-b-1)! a! / (n-b+a)! as an exact rational.  The b = n edge case is
    excluded: its right-hand side has no meaning (negative factorial).
    """
    if _integer(n, "attribute count n") < 1:
        raise ValueError("need n >= 1")
    report = VerificationReport(axiom="lemma4", trials=0, note=f"n={n}, all 0<=a<=b<n")
    for b in range(n):
        for a in range(b + 1):
            lhs = sum(
                math.comb(b - a, s - a)
                * Fraction(math.factorial(n - s - 1) * math.factorial(s), math.factorial(n))
                for s in range(a, b + 1)
            )
            rhs = Fraction(
                math.factorial(n - b - 1) * math.factorial(a), math.factorial(n - b + a)
            )
            report.trials += 1
            if lhs != rhs:
                gap = abs(float(lhs - rhs))
                report.failures.append(Failure(0, (a, b), float(lhs), float(rhs), gap))
                report.max_gap = max(report.max_gap, gap)
                report.passed = False
    return report
