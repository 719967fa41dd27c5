import math
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from karycap import (
    MultichoiceGame,
    SizeLimitError,
    choquet_capacity,
    choquet_kary,
    classical_interaction,
    integral_check,
    interaction,
    interaction_cellsum,
    random_game,
    section_capacity,
)
from karycap import choquet
from karycap.choquet import _eval_in_cell, _summed_capacity
from karycap.game import GAME_KINDS
from conftest import assert_close


def choquet_oracle(mu: MultichoiceGame, w) -> float:
    """Level-set evaluation: integral over s of mu({i : w_i >= s}).

    The level set is constant between consecutive distinct coordinate
    values, so the integral is an exact finite sum; ties never need a
    sort order.
    """
    total, prev = 0.0, 0.0
    for t in sorted(set(w)):
        if t <= prev:
            continue
        total += (t - prev) * mu.value([int(wi >= t) for wi in w])
        prev = t
    return total


def argsort_choquet(mu: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Choquet integral of each row of W for one capacity by mask: a stable
    argsort, ``take_along_axis`` and the differences against a zero column."""
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


def per_cell_integral_check(v: MultichoiceGame, T, samples: int, seed: int):
    """``integral_check`` as one pass per cell: its corners sliced by mask,
    its own stream, the argsort reference, then numpy's mean and variance."""
    m = v.n - len(T)
    grid = v.grid()
    for i in T:
        grid = np.diff(grid, axis=i - 1)
    means, variances = [], []
    for ci, q in enumerate(p[::-1] for p in product(range(v.k), repeat=v.n)):
        block = grid[tuple(slice(qi, qi + (1 if i in T else 2)) for i, qi in enumerate(q, 1))]
        corners = block.ravel(order="F")
        U = np.random.default_rng((seed, ci)).random((samples if m else 1, m))
        g = corners[0] + argsort_choquet(corners - corners[0], U)
        means.append(float(g.mean()))
        variances.append(float(g.var(ddof=1)) if m else 0.0)
    return math.fsum(means), math.sqrt(math.fsum(var / samples for var in variances))


class TestSectionCapacity:
    def test_min_game_cells(self, m2):
        # a k = 1 game: profile (1, 0) is coalition {1}, (1, 1) is {1, 2}
        mu00 = section_capacity(m2, (0, 0))
        assert (mu00.n, mu00.k) == (2, 1)
        assert mu00.value((1, 0)) == 0.0
        assert mu00.value((0, 1)) == 0.0
        assert mu00.value((1, 1)) == 1.0
        mu10 = section_capacity(m2, (1, 0))
        assert mu10.value((1, 0)) == 0.0
        assert mu10.value((0, 1)) == 1.0
        assert mu10.value((1, 1)) == 1.0

    def test_empty_weight_always_zero(self):
        v = random_game(5, 3, 3, "general")
        for q in product(range(3), repeat=3):
            assert section_capacity(v, q).value((0, 0, 0)) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**31), st.data())
    def test_raises_the_cell_base_on_each_coalition(self, n, k, seed, data):
        # mu(S) = v(q + 1_S) - v(q), one entry per coalition S
        v = random_game(seed, n, k, "general")
        q = tuple(data.draw(st.integers(0, k - 1)) for _ in range(n))
        mu = section_capacity(v, q)
        assert mu.values.size == 2**n
        for S in product((0, 1), repeat=n):
            lifted = [qi + si for qi, si in zip(q, S)]
            assert mu.value(S) == v.value(lifted) - v.value(q)

    def test_rejects_top_component(self, m2):
        with pytest.raises(ValueError):
            section_capacity(m2, (2, 0))

    @pytest.mark.parametrize(
        "q, message",
        [
            ((True, 0), "not an integer"),
            ((0.5, 0), "not an integer"),
            ((-1, 0), "outside"),
            ((1,), "components"),
        ],
    )
    def test_rejects_bad_cell_base(self, m2, q, message):
        with pytest.raises(ValueError, match=message):
            section_capacity(m2, q)


class TestChoquetCapacity:
    def _mu(self, w1, w2, w12):
        return MultichoiceGame.from_values(2, 1, [0.0, w1, w2, w12])

    def test_hand_value(self):
        mu = self._mu(0.2, 0.5, 1.0)
        assert_close(choquet_capacity(mu, (0.6, 0.4)), 0.44, 1e-12)

    def test_extends_the_capacity(self):
        v = random_game(9, 3, 2, "general")
        mu = section_capacity(v, (0, 1, 0))
        for r in range(4):
            for T in combinations(range(1, 4), r):
                x = tuple(int(i in T) for i in range(1, 4))
                assert_close(choquet_capacity(mu, x), mu.value(x), 1e-12)

    def test_constant_is_scaled_total(self):
        mu = self._mu(0.3, 0.8, 1.7)
        for c in (0.0, 0.25, 1.0):
            assert_close(choquet_capacity(mu, (c, c)), c * 1.7, 1e-12)

    def test_matches_level_set_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            v = random_game(int(rng.integers(1 << 30)), 3, 2, "general")
            q = tuple(int(x) for x in rng.integers(0, 2, size=3))
            mu = section_capacity(v, q)
            w = rng.random(3)
            if rng.random() < 0.5:
                w[1] = w[0]  # force a tie
            assert_close(choquet_capacity(mu, w), choquet_oracle(mu, w), 1e-12)

    def test_rejects_out_of_unit_box(self):
        mu = self._mu(0.2, 0.5, 1.0)
        with pytest.raises(ValueError):
            choquet_capacity(mu, (1.2, 0.0))
        with pytest.raises(ValueError, match="must lie in"):
            choquet_capacity(mu, (float("nan"), 0.5))

    def test_rejects_multilevel_games(self, m2):
        with pytest.raises(ValueError, match="k = 1"):
            choquet_capacity(m2, (0.5, 0.5))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 3),
        st.sampled_from(["general", "monotone", "additive"]),
        st.integers(0, 2**31),
        st.data(),
    )
    def test_extension_in_a_cell_is_its_capacity(self, n, k, kind, seed, data):
        # inside the cell at base q the extension is v(q) plus the capacity's integral
        v = random_game(seed, n, k, kind)
        q = tuple(data.draw(st.integers(0, k - 1)) for _ in range(n))
        w = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        want = choquet_kary(v, np.add(q, w)) - v.value(q)
        assert_close(choquet_capacity(section_capacity(v, q), w), want, 1e-12)


class TestChoquetKary:
    def test_min_game_hand_values(self, m2):
        assert_close(choquet_kary(m2, (0.5, 0.3)), 0.3, 1e-12)
        assert_close(choquet_kary(m2, (1.5, 0.5)), 0.5, 1e-12)

    def test_min_game_is_min_everywhere(self, m2):
        rng = np.random.default_rng(4)
        for _ in range(100):
            z = rng.uniform(0, 2, size=2)
            assert_close(choquet_kary(m2, z), float(min(z)), 1e-12)

    def test_interpolates_lattice_points(self):
        for n in (1, 2, 3):
            for k in (1, 2, 3):
                v = random_game(n * 10 + k, n, k, "general")
                for x in product(range(k + 1), repeat=n):
                    assert_close(choquet_kary(v, tuple(float(c) for c in x)), v.value(x), 1e-12)

    def test_continuous_across_cell_faces(self):
        rng = np.random.default_rng(8)
        for n, k in [(2, 2), (3, 3), (3, 2)]:
            v = random_game(int(rng.integers(1 << 30)), n, k, "general")
            for _ in range(40):
                z = rng.uniform(0, k, size=n)
                i = int(rng.integers(0, n))
                z[i] = float(rng.integers(1, k))
                below = list(np.minimum(np.floor(z), k - 1).astype(int))
                below[i] = int(z[i]) - 1
                above = list(below)
                above[i] = int(z[i])
                lo = _eval_in_cell(v, tuple(below), z)
                hi = _eval_in_cell(v, tuple(above), z)
                assert abs(lo - hi) <= 1e-12

    def test_monotone_along_increasing_rays(self):
        rng = np.random.default_rng(15)
        for seed in range(5):
            v = random_game(seed, 3, 2, "monotone")
            for _ in range(40):
                z = rng.uniform(0, 2, size=3)
                step = rng.uniform(0, 0.7, size=3)
                z2 = np.minimum(z + step, 2.0)
                assert choquet_kary(v, z2) >= choquet_kary(v, z) - 1e-12

    def test_rejects_out_of_box(self, m2):
        with pytest.raises(ValueError):
            choquet_kary(m2, (2.1, 0.0))
        with pytest.raises(ValueError):
            choquet_kary(m2, (-0.1, 0.0))
        with pytest.raises(ValueError, match="must lie in"):
            choquet_kary(m2, (float("nan"), 0.5))
        with pytest.raises(ValueError, match="point has 1 coordinates, expected 2"):
            choquet_kary(m2, (0.5,))


class TestCellSum:
    def test_min_game_per_cell_contributions(self, m2):
        contributions = [
            classical_interaction(section_capacity(m2, q), (1, 2))
            for q in [(0, 0), (0, 1), (1, 0), (1, 1)]
        ]
        assert contributions == [1.0, 0.0, 0.0, 1.0]
        assert_close(interaction_cellsum(m2, (1, 2)), 2.0, 1e-12)

    def test_additive_game_vanishes(self):
        v = random_game(23, 3, 2, "additive")
        assert_close(interaction_cellsum(v, (1, 2)), 0.0, 1e-12)

    def test_two_level_reduces_to_classical(self):
        v = random_game(29, 4, 1, "general")
        for t in range(1, 5):
            for T in combinations(range(1, 5), t):
                assert_close(
                    interaction_cellsum(v, T), classical_interaction(v, T), 1e-12
                )

    def test_agrees_with_closed_form(self):
        for seed in range(10):
            for n, k in [(3, 2), (4, 3)]:
                v = random_game(seed + 700, n, k, "general")
                for t in range(1, n + 1):
                    for T in combinations(range(1, n + 1), t):
                        assert_close(interaction_cellsum(v, T), interaction(v, T))

    def test_grid_larger_than_one_gather(self):
        v = random_game(77, 7, 3, "general")  # 2187 cells of 128 corners each
        for T in [(1,), (2, 5), (1, 3, 7)]:
            assert_close(interaction_cellsum(v, T), interaction(v, T))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(1, 3),
        st.sampled_from(["general", "monotone", "additive"]),
        st.sampled_from([1e-6, 1.0, 1e6]),
        st.integers(0, 2**31),
        st.data(),
    )
    def test_matches_per_cell_route(self, n, k, kind, scale, seed, data):
        # the per-cell sum is the definition; the cell sum sums the capacities first
        v = random_game(seed, n, k, kind)
        v = MultichoiceGame(n, k, v.values * scale)
        T = data.draw(st.sets(st.integers(1, n), min_size=1))
        per_cell = math.fsum(
            classical_interaction(section_capacity(v, q), T)
            for q in product(range(k), repeat=n)
        )
        bound = 1e-12 * max(1.0, float(np.abs(v.values).max()))
        assert_close(interaction_cellsum(v, T), per_cell, bound)


# the unit roundoff of a double: each error below is measured in u times the
# total magnitude of the exact sum's terms, Σ|w·x|
U = Fraction(1, 2**53)


def exact_summed_capacity(v: MultichoiceGame) -> tuple[list[Fraction], list[Fraction]]:
    """The summed capacity of v from its definition, in fractions: at mask m,
    the total over the cell bases q of v(q + 1_m) - v(q), and its Σ|w·x|."""
    grid, n, k = v.grid(), v.n, v.k
    values, magnitudes = [], []
    for m in range(2**n):
        total = magnitude = Fraction(0)
        for q in product(range(k), repeat=n):
            hi = Fraction(grid[tuple(qi + (m >> i & 1) for i, qi in enumerate(q))])
            lo = Fraction(grid[q])
            total += hi - lo
            magnitude += abs(hi) + abs(lo)
        values.append(total)
        magnitudes.append(magnitude)
    return values, magnitudes


def exact_classical_interaction(values, magnitudes, n: int, S) -> tuple[Fraction, Fraction]:
    """The classical interaction index of S from its definition, in fractions:
    the sum over T outside S of (n-t-s)! t! / (n-s+1)! times the alternating
    sum over K within S of mu(T | K), and its Σ|w·x| over the given magnitudes."""
    smask, s = sum(1 << (i - 1) for i in S), len(S)
    total = magnitude = Fraction(0)
    for T in range(2**n):
        if T & smask:
            continue
        t = bin(T).count("1")
        weight = Fraction(math.factorial(n - t - s) * math.factorial(t), math.factorial(n - s + 1))
        for K in range(2**n):
            if K & ~smask == 0:
                total += (-1) ** (s - bin(K).count("1")) * weight * values[T | K]
                magnitude += weight * magnitudes[T | K]
    return total, magnitude


def coalitions(n: int):
    return (T for t in range(1, n + 1) for T in combinations(range(1, n + 1), t))


def reference_games(n: int, k: int):
    for seed in range(2):
        for kind in GAME_KINDS:
            yield random_game(seed, n, k, kind)
        v = random_game(seed, n, k)
        yield MultichoiceGame(n, k, v.values * 3.7e200)  # scaled far from 1
        # large additive parts that every difference cancels, over small noise
        yield MultichoiceGame(n, k, random_game(seed, n, k, "additive").values * 1e15 + v.values)


class TestExactReference:
    """Each cellsum route against its definition summed exactly, for n <= 4, k <= 3.

    The stated bounds are first-order: the summed capacity adds k levels
    per axis n times and subtracts once, n(k-1) + 1 <= n k roundings; the
    classical index rounds s differences, the coefficient, its product and
    the total, s + 3.  The largest errors met are under 2 units.
    """

    @pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 5) for k in range(1, 4)])
    def test_summed_capacity_and_cellsum(self, n, k):
        for v in reference_games(n, k):
            values, magnitudes = exact_summed_capacity(v)
            got = _summed_capacity(v).values
            for m in range(2**n):
                assert abs(Fraction(got[m]) - values[m]) <= n * k * U * magnitudes[m]
            for T in coalitions(n):
                want, magnitude = exact_classical_interaction(values, magnitudes, n, T)
                bound = (n * k + len(T) + 3) * U * magnitude
                assert abs(Fraction(interaction_cellsum(v, T)) - want) <= bound

    @pytest.mark.parametrize("n", range(1, 5))
    def test_classical_interaction(self, n):
        # the k = 1 games, and the summed capacities of k = 3 games as tables
        for mu in [*reference_games(n, 1), *map(_summed_capacity, reference_games(n, 3))]:
            values = [Fraction(x) for x in mu.values]
            for T in coalitions(n):
                want, magnitude = exact_classical_interaction(values, list(map(abs, values)), n, T)
                bound = (len(T) + 3) * U * magnitude
                assert abs(Fraction(classical_interaction(mu, T)) - want) <= bound


class TestIntegralCheck:
    def test_min_game_pair_is_exact(self, m2):
        est = integral_check(m2, (1, 2), 10, 7)
        assert_close(est.estimate, 2.0, 1e-12)
        assert est.std_error == 0.0

    def test_min_game_singleton(self, m2):
        est = integral_check(m2, (1,), 100_000, 7)
        assert est.std_error > 0.0
        assert abs(est.estimate - 2.0) <= 3.0 * est.std_error + 1e-9

    def test_additive_pair_is_zero(self):
        v = random_game(33, 3, 2, "additive")
        est = integral_check(v, (1, 2), 500, 5)
        assert_close(est.estimate, 0.0, 1e-12)
        assert est.std_error <= 1e-12

    def test_deterministic_given_seed(self):
        v = random_game(37, 3, 2, "monotone")
        a = integral_check(v, (2, 3), 2000, 11)
        b = integral_check(v, (2, 3), 2000, 11)
        assert a == b

    def test_matches_closed_form_on_monotone_games(self):
        for seed in range(5):
            v = random_game(seed + 800, 3, 2, "monotone")
            target = interaction(v, (1, 2))
            est = integral_check(v, (1, 2), 20_000, seed)
            assert abs(est.estimate - target) <= 3.0 * est.std_error + 1e-9

    def test_honours_limit(self, m2):
        # 2**2 cells * 2 corners * samples Choquet evaluations, refused before sampling
        with pytest.raises(SizeLimitError, match="26-bit"):
            integral_check(m2, (1,), 2**24, 7)
        with pytest.raises(SizeLimitError, match="10-bit"):
            integral_check(m2, (1,), 200, 7, limit_bits=10)  # 1600 > 2**10
        assert integral_check(m2, (1,), 200, 7, limit_bits=11) == integral_check(m2, (1,), 200, 7)

    def test_no_sampling_when_T_covers_every_attribute(self):
        # 3**4 cells * 2**4 corners, evaluated once: 100_000 samples would exceed 2**26
        v = random_game(41, 4, 3, "general")
        est = integral_check(v, (1, 2, 3, 4), 100_000, 1)
        assert est.std_error == 0.0
        assert_close(est.estimate, interaction(v, (1, 2, 3, 4)), 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(1, 3),
        st.sampled_from(["general", "monotone", "additive"]),
        st.sampled_from([1e-6, 1.0, 1e6]),
        st.integers(0, 2**31),
        st.data(),
    )
    def test_matches_per_corner_sum(self, n, k, kind, scale, seed, data):
        # the definition: per sample, the signed sum of the extension over the
        # T-corners of the cell, drawn from the stream of the cell's table number
        v = MultichoiceGame(n, k, random_game(seed, n, k, kind).values * scale)
        T = sorted(data.draw(st.sets(st.integers(1, n), min_size=1)))
        comp = [i - 1 for i in range(1, n + 1) if i not in T]
        samples = 5
        means, variances = [], []
        for ci, q in enumerate(p[::-1] for p in product(range(k), repeat=n)):
            U = np.random.default_rng((seed, ci)).random((samples if comp else 1, len(comp)))
            g = []
            for u in U:
                total = 0.0
                for a in range(len(T) + 1):
                    for K in combinations(T, a):
                        z = np.array(q, dtype=np.float64)
                        z[[i - 1 for i in K]] += 1.0
                        z[comp] += u
                        total += (-1.0) ** (len(T) - a) * _eval_in_cell(v, q, z)
                g.append(total)
            means.append(float(np.mean(g)))
            variances.append(float(np.var(g, ddof=1)) if comp else 0.0)
        est = integral_check(v, T, samples, seed)
        bound = 1e-12 * max(1.0, float(np.abs(v.values).max()))
        assert_close(est.estimate, math.fsum(means), bound)
        assert_close(est.std_error, math.sqrt(math.fsum(var / samples for var in variances)), bound)

    @pytest.mark.parametrize("samples", [2.5, True, "3"])
    @pytest.mark.parametrize("T", [(1,), (1, 2)])
    def test_rejects_non_integer_samples(self, m2, T, samples):
        with pytest.raises(ValueError, match="not an integer"):
            integral_check(m2, T, samples, 1)

    # T covering N samples nothing (m = 0); 150 samples reach numpy's
    # pairwise summation, which the spelled-out mean and variance must follow
    @pytest.mark.parametrize(
        "n, k, T",
        [(3, 2, (1, 2, 3)), (3, 3, (1, 3)), (3, 2, (2,)), (4, 2, (2,)), (5, 1, (4,)), (6, 1, (1,))],
        ids=["m0", "m1", "m2", "m3", "m4", "m5"],
    )
    def test_equals_the_per_cell_loop_bit_for_bit(self, n, k, T):
        for seed, kind in enumerate(GAME_KINDS):
            v = random_game(seed + 90, n, k, kind)
            tied = MultichoiceGame(n, k, np.round(v.values * 2.0) / 2.0)
            for game, samples in product((v, tied), (2, 7, 150)):
                got = integral_check(game, T, samples, seed)
                want = per_cell_integral_check(game, T, samples, seed)
                assert [x.hex() for x in got] == [x.hex() for x in want]

    def test_rejects_bad_arguments(self, m2):
        with pytest.raises(ValueError):
            integral_check(m2, (), 10, 1)
        with pytest.raises(ValueError):
            integral_check(m2, (1,), 0, 1)
        with pytest.raises(ValueError):
            integral_check(m2, (1,), 1, 1)  # one sample cannot carry a std error

    def test_holds_three_half_tables_on_one_large_cell(self):
        # k = 1, T = (1,): the one cell's 2^17 corners; held at once are the
        # differenced grid, the corner offsets and the corners, which become
        # the increments in place
        v = random_game(0, 18, 1)
        tracemalloc.start()
        try:
            integral_check(v, (1,), 2, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * v.values.nbytes


class TestChoquetBatch:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_tied_rows_equal_the_stable_argsort_kernel(self, m):
        # values in {0, 1/2, 1} tie within most rows; signed capacities
        rng = np.random.default_rng(m)
        W = rng.integers(0, 3, size=(64, m)) / 2.0
        mu = rng.normal(size=2**m)
        mu[0] = 0.0
        got = choquet._choquet_batch(mu, W)
        assert [x.hex() for x in got] == [x.hex() for x in argsort_choquet(mu, W)]
