import math
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from karycap import (
    MultichoiceGame,
    SizeLimitError,
    extend_heterogeneous,
    is_kary_capacity,
    min_game,
    random_game,
)
from karycap.game import (
    GAME_KINDS,
    add_games,
    check_table_size,
    discrete_derivative,
    permute_attributes,
    profiles,
    reduce_group,
    restrict_absent,
    restrict_present_top,
    support,
)
from karycap.choquet import integral_check
from karycap.verify import make_invariance_partner, make_null_extension, verify_axiom
from conftest import delta_recursive


def flat_index(x, k):
    # little-endian base (k+1) digits: attribute 1 is the least significant
    return sum(xi * (k + 1) ** i for i, xi in enumerate(x))


def digits(idx, n, k):
    # the inverse of flat_index
    return tuple(idx // (k + 1) ** i % (k + 1) for i in range(n))


def counting_game(n, k):
    # the value at each profile is its flat table index
    return MultichoiceGame.from_values(n, k, range((k + 1) ** n))


class TestEncoding:
    """value() reads the flat little-endian table through grid()."""

    def test_hand_values(self):
        v = counting_game(2, 2)
        assert v.value((0, 0)) == 0.0
        assert v.value((2, 1)) == 5.0
        assert v.value((2, 2)) == 8.0

    def test_roundtrip_exhaustive(self):
        for n in (1, 2, 3, 4):
            for k in (1, 2, 3):
                v = counting_game(n, k)
                for idx in range((k + 1) ** n):
                    assert v.value(digits(idx, n, k)) == idx

    @given(st.integers(1, 5), st.integers(1, 4), st.data())
    def test_roundtrip_random(self, n, k, data):
        x = tuple(data.draw(st.integers(0, k)) for _ in range(n))
        assert counting_game(n, k).value(x) == flat_index(x, k)
        assert digits(flat_index(x, k), n, k) == x

    def test_out_of_range_component(self):
        v = counting_game(2, 2)
        with pytest.raises(ValueError, match="outside"):
            v.value((3, 0))
        with pytest.raises(ValueError, match="outside"):
            v.value((0, -1))
        with pytest.raises(ValueError, match="components"):
            v.value((0, 0, 0))
        with pytest.raises(ValueError, match="not an integer"):
            v.value((True, 0))


class TestGridHelpers:
    @given(st.integers(1, 4), st.integers(1, 3))
    def test_points_are_decoded_indices_of_python_ints(self, n, k):
        points = list(profiles(n, k))
        assert points == [digits(i, n, k) for i in range((k + 1) ** n)]
        assert all(type(c) is int for x in points for c in x)

    def test_from_function_passes_points_in_table_order(self):
        seen = []
        MultichoiceGame.from_function(2, 2, lambda x: seen.append(x) or 0.0)
        assert seen == list(profiles(2, 2))


def mixed_radix_index(x, k_list):
    # little-endian index over the product of {0..k_i}: the raw file order
    idx, step = 0, 1
    for xi, ki in zip(x, k_list):
        idx += xi * step
        step *= ki + 1
    return idx


class TestLayoutContract:
    """grid(), from_grid and every transform against value(), profile by profile."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 3),
        st.sampled_from(GAME_KINDS),
        st.integers(0, 2**31),
        st.data(),
    )
    def test_transforms_match_pointwise_definitions(self, n, k, kind, seed, data):
        v = random_game(seed, n, k, kind)
        attrs = range(1, n + 1)
        points = list(profiles(n, k))
        grid = v.grid()
        assert grid.shape == (k + 1,) * n and not grid.flags.writeable
        assert np.shares_memory(grid, v.values)
        assert all(grid[x] == v.value(x) for x in points)
        assert MultichoiceGame.from_grid(grid).values.tobytes() == v.values.tobytes()

        # restrict_absent: S frozen at 0, the others keep their order
        S = data.draw(st.sets(st.sampled_from(attrs), max_size=n - 1))
        w = restrict_absent(v, S)
        for y in profiles(w.n, w.k):
            rest = iter(y)
            assert w.value(y) == v.value([0 if i in S else next(rest) for i in attrs])

        # permute_attributes: w(sigma(x)) = v(x)
        sigma = data.draw(st.permutations(attrs))
        w = permute_attributes(v, sigma)
        for x in points:
            moved = [0] * n
            for i, level in zip(sigma, x):
                moved[i - 1] = level
            assert w.value(moved) == v.value(x)

        # make_null_extension: the inserted attribute is ignored
        position = data.draw(st.integers(1, n + 1))
        w = make_null_extension(v, position)
        for x in profiles(w.n, w.k):
            assert w.value(x) == v.value(x[: position - 1] + x[position:])

        # reduce_group: kept attributes in order, then the macro level for A
        T = data.draw(st.sets(st.sampled_from(attrs), min_size=1))
        A = data.draw(st.sets(st.sampled_from(sorted(T)), min_size=1))
        w = reduce_group(v, T, A)
        for y in profiles(w.n, w.k):
            rest = iter(y[:-1])
            x = [y[-1] if i in A else 0 if i in T else next(rest) for i in attrs]
            assert w.value(y) == v.value(x)

        # extend_heterogeneous: levels above k_i read the top level k_i
        k_list = data.draw(st.lists(st.integers(1, k), min_size=n, max_size=n))
        raw = np.random.default_rng(seed).uniform(size=math.prod(ki + 1 for ki in k_list))
        raw[0] = 0.0
        w = extend_heterogeneous(raw, k_list, k)
        for x in points:
            clamped = [min(xi, ki) for xi, ki in zip(x, k_list)]
            assert w.value(x) == raw[mixed_radix_index(clamped, k_list)]

        i = data.draw(st.sampled_from(attrs))
        if n >= 2:  # restrict_present_top: i pinned at k, shifted to vanish at 0
            w = restrict_present_top(v, i)
            origin = [k if j == i else 0 for j in attrs]
            for y in profiles(w.n, w.k):
                x = list(y[: i - 1]) + [k] + list(y[i - 1 :])
                assert w.value(y) == v.value(x) - v.value(origin)

        if k >= 2:  # make_invariance_partner: increments along i shifted one level up
            w = make_invariance_partner(v, i)
            for x in points:
                line = [v.value(x[: i - 1] + (level,) + x[i:]) for level in range(k + 1)]
                shifted = [0.0] + [line[l + 1] - line[1] for l in range(1, k)] + [line[k] - line[0]]
                assert w.value(x) == shifted[x[i - 1]]

    @pytest.mark.parametrize("shape", [(4, 2, 8), (3, 2), ()])
    def test_from_grid_rejects_unequal_axes(self, shape):
        with pytest.raises(ValueError, match="one length"):
            MultichoiceGame.from_grid(np.zeros(shape))


class TestSupportKernel:
    def test_support(self):
        assert support((0, 0, 0)) == ()
        assert support((2, 0, 1)) == (1, 3)
        assert support((2, 2)) == (1, 2)


class TestIntegerArguments:
    @pytest.mark.parametrize(
        "build, args",
        [
            (check_table_size, (True, 2)),
            (check_table_size, (2, 1.0)),
            (min_game, (True, 2)),
            (MultichoiceGame, (True, 1, [0.0, 1.0])),
            (MultichoiceGame, (1, np.bool_(True), [0.0, 1.0])),
            (MultichoiceGame, (1.0, 1, [0.0, 1.0])),
            (random_game, (1, 2.5, 2)),
            (random_game, (1, 2, True)),
            (extend_heterogeneous, ([0.0, 1.0], [1.7])),
            (extend_heterogeneous, ([0.0, 1.0], [True])),
            (extend_heterogeneous, ([0.0, 1.0], [1], 2.0)),
            (verify_axiom, ("E", 1, 1, 2, True)),
        ],
        ids=lambda a: getattr(a, "__name__", repr(a)),
    )
    def test_rejects_bool_and_float_sizes(self, build, args):
        # n = True would otherwise run as n = 1, and 1.7 level counts as 1
        with pytest.raises(ValueError, match="not an integer"):
            build(*args)

    def test_numpy_integer_sizes_become_python_ints(self):
        v = MultichoiceGame(np.int64(2), np.int32(1), [0.0, 1.0, 2.0, 3.0])
        assert (type(v.n), type(v.k)) == (int, int)

    @pytest.mark.parametrize("seed", [True, 2.5, "3", -1], ids=["bool", "float", "str", "negative"])
    def test_rejects_bad_seed(self, m2, seed):
        for call in (
            lambda: random_game(seed, 2, 2),
            lambda: verify_axiom("E", 1, seed, 2, 2),
            lambda: integral_check(m2, (1,), 10, seed),
        ):
            with pytest.raises(ValueError, match="^seed .* (is not an integer|is negative)$"):
                call()

    def test_numpy_integer_seed_is_the_same_seed(self):
        a, b = random_game(np.int64(5), 2, 2), random_game(5, 2, 2)
        assert a.values.tobytes() == b.values.tobytes() and type(a.meta["seed"]) is int


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

    @pytest.mark.parametrize("n, k", list(product(range(1, 5), range(1, 4))))
    def test_min_game_matches_tabulated_min(self, n, k):
        want = MultichoiceGame.from_function(n, k, lambda x: float(min(x)))
        assert min_game(n, k).values.tobytes() == want.values.tobytes()

    def test_min_game_refused_before_allocating(self):
        with pytest.raises(SizeLimitError, match="28-bit"):
            min_game(30, 3)

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

    @pytest.mark.parametrize(
        "x, message",
        [
            ((-1, 0), "outside"),
            ((0, -1), "outside"),
            ((0.5, 0), "not an integer"),
            ((0, 1.0), "not an integer"),
            ((0,), "components"),
        ],
    )
    def test_rejects_bad_profile(self, m2, x, message):
        # levels become slice bounds, where a negative one would wrap silently
        with pytest.raises(ValueError, match=message):
            discrete_derivative(m2, (1,), x)

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
            for x in profiles(n, k):
                y = [0] * n
                for p in range(n):
                    y[sigma[p] - 1] = x[p]
                assert w.value(y) == v.value(x)

    def test_rejects_non_permutation(self, m2):
        with pytest.raises(ValueError):
            permute_attributes(m2, (1, 1))
        for sigma in ([True, 2], [2.0, 1.0]):
            with pytest.raises(ValueError, match="not an integer"):
                permute_attributes(m2, sigma)


class TestAddGames:
    def test_pointwise(self, m2):
        w = add_games(m2, m2, -0.5)
        assert np.allclose(w.values, 0.5 * m2.values)

    def test_grid_mismatch(self, m2):
        with pytest.raises(ValueError):
            add_games(m2, min_game(2, 3))
