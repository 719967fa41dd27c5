from itertools import combinations, product

import numpy as np
import pytest

from karycap import (
    SectionCapacity,
    choquet_capacity,
    choquet_kary,
    integral_check,
    interaction,
    interaction_cellsum,
    random_game,
    section_capacity,
)
from karycap.choquet import _eval_in_cell
from conftest import assert_close


def choquet_oracle(mu: SectionCapacity, w) -> float:
    """Level-set evaluation: integral over s of mu({i : w_i >= s}).

    The level set is constant between consecutive distinct coordinate
    values, so the integral is an exact finite sum; ties never need a
    sort order.
    """
    total, prev = 0.0, 0.0
    for t in sorted(set(w)):
        if t <= prev:
            continue
        members = tuple(i + 1 for i, wi in enumerate(w) if wi >= t)
        total += (t - prev) * mu.weight(members)
        prev = t
    return total


class TestSectionCapacity:
    def test_min_game_cells(self, m2):
        mu00 = section_capacity(m2, (0, 0))
        assert mu00.weight((1,)) == 0.0
        assert mu00.weight((2,)) == 0.0
        assert mu00.weight((1, 2)) == 1.0
        mu10 = section_capacity(m2, (1, 0))
        assert mu10.weight((1,)) == 0.0
        assert mu10.weight((2,)) == 1.0
        assert mu10.weight((1, 2)) == 1.0

    def test_empty_weight_always_zero(self):
        v = random_game(5, 3, 3, "general")
        for q in product(range(3), repeat=3):
            assert section_capacity(v, q).weight(()) == 0.0

    def test_as_dict_covers_all_coalitions(self, m2):
        d = section_capacity(m2, (1, 1)).as_dict()
        assert set(d) == {(), (1,), (2,), (1, 2)}
        assert d[(1, 2)] == 1.0

    def test_rejects_top_component(self, m2):
        with pytest.raises(ValueError):
            section_capacity(m2, (2, 0))


class TestChoquetCapacity:
    def _mu(self, w1, w2, w12):
        return SectionCapacity(2, (0, 0), np.array([0.0, w1, w2, w12]))

    def test_hand_value(self):
        mu = self._mu(0.2, 0.5, 1.0)
        assert_close(choquet_capacity(mu, (0.6, 0.4)), 0.44, 1e-12)

    def test_extends_the_capacity(self):
        v = random_game(9, 3, 2, "general")
        mu = section_capacity(v, (0, 1, 0))
        for r in range(4):
            for T in combinations(range(1, 4), r):
                w = tuple(1.0 if i in T else 0.0 for i in range(1, 4))
                assert_close(choquet_capacity(mu, w), mu.weight(T), 1e-12)

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


class TestCellSum:
    def test_min_game_per_cell_contributions(self, m2):
        from karycap import classical_interaction

        contributions = [
            classical_interaction(section_capacity(m2, q).as_game(), (1, 2))
            for q in [(0, 0), (0, 1), (1, 0), (1, 1)]
        ]
        assert contributions == [1.0, 0.0, 0.0, 1.0]
        assert_close(interaction_cellsum(m2, (1, 2)), 2.0, 1e-12)

    def test_additive_game_vanishes(self):
        v = random_game(23, 3, 2, "additive")
        assert_close(interaction_cellsum(v, (1, 2)), 0.0, 1e-12)

    def test_two_level_reduces_to_classical(self):
        from karycap import classical_interaction

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

    def test_rejects_bad_arguments(self, m2):
        with pytest.raises(ValueError):
            integral_check(m2, (), 10, 1)
        with pytest.raises(ValueError):
            integral_check(m2, (1,), 0, 1)
        with pytest.raises(ValueError):
            integral_check(m2, (1,), 1, 1)  # one sample cannot carry a std error
