import math
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, strategies as st

from karycap import (
    MultichoiceGame,
    SizeLimitError,
    extend_heterogeneous,
    is_kary_capacity,
    min_game,
    random_game,
)
from karycap.game import (
    add_games,
    corners,
    decode_index,
    digits,
    discrete_derivative,
    encode_index,
    kernel,
    permute_attributes,
    reduce_group,
    restrict_absent,
    restrict_present_top,
    support,
)
from conftest import delta_recursive


def corners_by_bits(strides):
    # per-bit loop over corner numbers: the reference for corners()
    t = len(strides)
    signs = [(-1.0) ** (t - bits.bit_count()) for bits in range(2**t)]
    offsets = [sum(strides[j] for j in range(t) if bits >> j & 1) for bits in range(2**t)]
    return signs, offsets


class TestEncoding:
    def test_hand_values(self):
        assert encode_index((0, 0), 2, 2) == 0
        assert encode_index((2, 1), 2, 2) == 5
        assert encode_index((2, 2), 2, 2) == 8

    def test_roundtrip_exhaustive(self):
        for n in (1, 2, 3, 4):
            for k in (1, 2, 3):
                for idx in range((k + 1) ** n):
                    assert encode_index(decode_index(idx, n, k), n, k) == idx

    @given(st.integers(1, 5), st.integers(1, 4), st.data())
    def test_roundtrip_random(self, n, k, data):
        x = tuple(data.draw(st.integers(0, k)) for _ in range(n))
        assert decode_index(encode_index(x, n, k), n, k) == x

    def test_out_of_range_component(self):
        with pytest.raises(ValueError):
            encode_index((3, 0), 2, 2)
        with pytest.raises(ValueError):
            encode_index((0, -1), 2, 2)
        with pytest.raises(ValueError):
            encode_index((0, 0, 0), 2, 2)


class TestGridHelpers:
    @given(st.integers(1, 4), st.integers(0, 4))
    def test_digits_round_trip_through_encode_index(self, base, width):
        rows = digits(base, width)
        assert rows.shape == (base**width, width)
        assert [encode_index(row.tolist(), width, base - 1) for row in rows] == list(
            range(base**width)
        )

    @given(st.lists(st.integers(0, 10**6), max_size=6))
    def test_corners_match_per_bit_loop(self, strides):
        signs, offsets = corners(strides)
        assert (signs.tolist(), offsets.tolist()) == corners_by_bits(strides)

    @given(st.integers(1, 4), st.integers(1, 3))
    def test_points_are_decoded_indices_of_python_ints(self, n, k):
        points = list(min_game(n, k).points())
        assert points == [decode_index(i, n, k) for i in range((k + 1) ** n)]
        assert all(type(c) is int for x in points for c in x)

    def test_from_function_passes_points_in_table_order(self):
        seen = []
        MultichoiceGame.from_function(2, 2, lambda x: seen.append(x) or 0.0)
        assert seen == list(min_game(2, 2).points())


class TestSupportKernel:
    def test_support(self):
        assert support((0, 0, 0)) == ()
        assert support((2, 0, 1)) == (1, 3)
        assert support((2, 2)) == (1, 2)

    def test_kernel(self):
        assert kernel((0, 0), 2) == ()
        assert kernel((2, 1), 2) == (1,)
        assert kernel((3, 3, 3), 3) == (1, 2, 3)


class TestGameConstruction:
    def test_zero_profile_enforced(self):
        with pytest.raises(ValueError, match="zero profile"):
            MultichoiceGame.from_values(1, 1, [0.5, 1.0])

    def test_table_length_checked(self):
        with pytest.raises(ValueError, match="length"):
            MultichoiceGame.from_values(2, 2, [0.0] * 8)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            MultichoiceGame(1, 1, [0.0, bad])

    def test_values_read_only(self, m2):
        with pytest.raises(ValueError):
            m2.values[3] = 9.0

    def test_min_game_table(self, m2):
        assert m2.values.tolist() == [0, 0, 0, 0, 1, 1, 0, 1, 2]

    def test_value_lookup(self, m2):
        assert m2.value((1, 2)) == 1.0
        assert m2.value((2, 2)) == 2.0


class TestDiscreteDerivative:
    def test_hand_values_min_game(self, m2):
        assert discrete_derivative(m2, (1,), (0, 1)) == 1.0
        assert discrete_derivative(m2, (1, 2), (0, 0)) == 1.0
        assert discrete_derivative(m2, (1, 2), (1, 1)) == 1.0

    def test_matches_recursion_exhaustive(self):
        # both defining forms agree on every cell of every small random game
        for seed, (n, k) in enumerate([(1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]):
            v = random_game(seed, n, k, "general")
            for t in range(1, n + 1):
                for T in combinations(range(1, n + 1), t):
                    for x in product(*(range(k) if (i + 1) in T else range(k + 1) for i in range(n))):
                        got = discrete_derivative(v, T, x)
                        want = delta_recursive(v, T, x)
                        assert abs(got - want) <= 1e-12

    def test_requires_room_to_step(self, m2):
        with pytest.raises(ValueError, match="top level"):
            discrete_derivative(m2, (1,), (2, 0))
        with pytest.raises(ValueError, match="nonempty"):
            discrete_derivative(m2, (), (0, 0))

    def test_null_attribute_kills_derivative(self):
        # v ignores attribute 2 entirely
        v = MultichoiceGame.from_function(3, 2, lambda x: float(x[0] * x[2]))
        for T in [(2,), (1, 2), (2, 3), (1, 2, 3)]:
            for x in product(*(range(2) if i + 1 in T else range(3) for i in range(3))):
                assert discrete_derivative(v, T, x) == 0.0


class TestHeterogeneousExtension:
    def test_uniform_input_is_identity(self, m2):
        g = extend_heterogeneous(m2.values, [2, 2])
        assert np.array_equal(g.values, m2.values)
        assert "k_list" not in g.meta

    def test_clamp_rule(self):
        # raw over {0,1} x {0,1,2}, v(x1,x2) = x1 + x2
        raw = [x1 + x2 for x2 in range(3) for x1 in range(2)]
        g = extend_heterogeneous(raw, [1, 2])
        assert g.k == 2 and g.n == 2
        assert g.value((1, 1)) == 2.0
        assert g.value((2, 1)) == 2.0  # clamped to x1=1
        assert g.meta["k_list"] == (1, 2)

    def test_single_attribute_target_k(self):
        g = extend_heterogeneous([0.0, 5.0], [1], k=2)
        assert g.values.tolist() == [0.0, 5.0, 5.0]

    def test_constant_above_original_top(self):
        rng = np.random.default_rng(3)
        k_list = [1, 3, 2]
        size = math.prod(ki + 1 for ki in k_list)
        raw = rng.uniform(-1, 1, size)
        raw[0] = 0.0
        g = extend_heterogeneous(raw, k_list)
        for x in product(range(4), repeat=3):
            clamped = tuple(min(x[i], k_list[i]) for i in range(3))
            assert g.value(x) == g.value(clamped)

    def test_rejects_bad_raw_table(self):
        with pytest.raises(ValueError, match="length"):
            extend_heterogeneous([0.0, 1.0, 2.0], [1, 2])
        with pytest.raises(ValueError, match="zero profile"):
            extend_heterogeneous([1.0, 2.0], [1])


class TestKaryCapacityCheck:
    def test_scaled_min_game_is_capacity(self, m2):
        half = MultichoiceGame(2, 2, m2.values / 2.0)
        assert is_kary_capacity(half)

    def test_unnormalized_min_game_is_not(self, m2):
        assert not is_kary_capacity(m2)

    def test_monotonicity_violation(self):
        v = MultichoiceGame.from_values(1, 2, [0.0, 0.7, 0.69])
        assert not is_kary_capacity(v)
        assert is_kary_capacity(v, tol=0.5)  # both defects inside a loose tolerance
        w = MultichoiceGame.from_values(1, 2, [0.0, 0.5, 1.0])
        assert is_kary_capacity(w)


class TestRestrictions:
    def test_absent_slice(self, m2):
        w = restrict_absent(m2, (2,))
        assert w.n == 1 and w.values.tolist() == [0.0, 0.0, 0.0]

    def test_absent_empty_is_identity(self, m2):
        w = restrict_absent(m2, ())
        assert np.array_equal(w.values, m2.values)

    def test_absent_additive(self):
        v = MultichoiceGame.from_function(2, 2, lambda x: float(x[0] + x[1]))
        w = restrict_absent(v, (2,))
        assert w.values.tolist() == [0.0, 1.0, 2.0]

    def test_absent_composes(self):
        v = random_game(11, 4, 2, "general")
        a = restrict_absent(restrict_absent(v, (2,)), (2,))  # drops 2 then original 3
        b = restrict_absent(v, (2, 3))
        assert np.array_equal(a.values, b.values)

    def test_absent_rejects_everything(self, m2):
        with pytest.raises(ValueError):
            restrict_absent(m2, (1, 2))

    def test_present_top_min_game(self, m2):
        w = restrict_present_top(m2, 2)
        assert w.values.tolist() == [0.0, 1.0, 2.0]

    def test_present_top_additive(self):
        v = MultichoiceGame.from_function(2, 2, lambda x: float(x[0] + x[1]))
        w = restrict_present_top(v, 2)
        assert w.values.tolist() == [0.0, 1.0, 2.0]

    def test_present_top_zero_at_origin(self):
        v = random_game(7, 3, 3, "general")
        for i in (1, 2, 3):
            assert restrict_present_top(v, i).values[0] == 0.0

    def test_present_top_needs_two_attributes(self):
        v = random_game(7, 1, 3, "general")
        with pytest.raises(ValueError):
            restrict_present_top(v, 1)


class TestReduceGroup:
    def test_diagonal_macro(self, m2):
        w = reduce_group(m2, (1, 2), (1, 2))
        assert w.n == 1 and w.values.tolist() == [0.0, 1.0, 2.0]
        assert w.meta["macro_members"] == (1, 2)

    def test_partial_macro_freezes_rest(self, m2):
        w = reduce_group(m2, (1, 2), (1,))
        assert w.values.tolist() == [0.0, 0.0, 0.0]

    def test_macro_appended_last(self):
        v = random_game(13, 3, 2, "general")
        w = reduce_group(v, (2,), (2,))
        # attributes 1,3 keep order; macro is attribute 3 of the reduction
        for x1 in range(3):
            for x3 in range(3):
                for ell in range(3):
                    assert w.value((x1, x3, ell)) == v.value((x1, ell, x3))

    def test_zero_point_preserved(self):
        v = random_game(17, 3, 2, "general")
        w = reduce_group(v, (1, 2, 3), (1, 3))
        assert w.values[0] == 0.0
        for ell in range(3):
            assert w.value((ell,)) == v.value((ell, 0, ell))

    def test_rejects_bad_arguments(self, m2):
        with pytest.raises(ValueError):
            reduce_group(m2, (1,), ())
        with pytest.raises(ValueError):
            reduce_group(m2, (1,), (2,))


class TestRandomGame:
    def test_deterministic(self):
        a = random_game(12345, 3, 2, "general")
        b = random_game(12345, 3, 2, "general")
        assert np.array_equal(a.values, b.values)

    def test_monotone_is_capacity(self):
        for seed in range(10):
            v = random_game(seed, 3, 2, "monotone")
            assert is_kary_capacity(v)

    def test_additive_structure(self):
        v = random_game(5, 3, 2, "additive")
        w1 = v.value((1, 0, 0))
        w2 = v.value((0, 1, 0))
        w3 = v.value((0, 0, 1))
        for x in product(range(3), repeat=3):
            expected = x[0] * w1 + x[1] * w2 + x[2] * w3
            assert abs(v.value(x) - expected) <= 1e-12

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            random_game(1, 2, 2, "bogus")

    def test_size_guard(self):
        with pytest.raises(SizeLimitError):
            random_game(1, 40, 3, "general")
        # explicit override allows larger tables
        v = random_game(1, 10, 2, "general", limit_bits=17)
        assert v.values.size == 3**10


class TestPermutation:
    def test_matches_definition(self):
        rng = np.random.default_rng(0)
        for n, k in [(2, 2), (3, 3), (4, 2)]:
            v = random_game(int(rng.integers(1 << 30)), n, k, "general")
            sigma = tuple(int(s) + 1 for s in rng.permutation(n))
            w = permute_attributes(v, sigma)
            for idx in range((k + 1) ** n):
                x = decode_index(idx, n, k)
                y = [0] * n
                for p in range(n):
                    y[sigma[p] - 1] = x[p]
                assert w.value(y) == v.value(x)

    def test_rejects_non_permutation(self, m2):
        with pytest.raises(ValueError):
            permute_attributes(m2, (1, 1))


class TestAddGames:
    def test_pointwise(self, m2):
        w = add_games(m2, m2, -0.5)
        assert np.allclose(w.values, 0.5 * m2.values)

    def test_grid_mismatch(self, m2):
        with pytest.raises(ValueError):
            add_games(m2, min_game(2, 3))
