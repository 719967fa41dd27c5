import math
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction
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
    check_query_size,
    check_table_size,
    discrete_derivative,
    permute_attributes,
    profiles,
    reduce_group,
    restrict_absent,
    restrict_present_top,
    support,
)
from karycap.choquet import choquet_kary, integral_check, interaction_cellsum, section_capacity
from karycap.indices import (_classes, importance, interaction, interaction_all_upto,
                             interaction_recursive, interaction_via_derivatives,
                             lattice_point_interaction)
from karycap.verify import (AXIOMS, efficiency_rhs, make_invariance_partner, make_null_extension,
                            verify_axiom, verify_axioms)
from conftest import delta_recursive

# ints that no float holds, the last with more digits than str() formats
BEYOND_FLOATS = [pytest.param(x, id=i) for x, i in
                 [(10**400, "1e400"), (-10**400, "-1e400"), (10**5000, "1e5000")]]


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


class TestFromFunction:
    """``from_function`` converts each value of ``fn`` as a float64 array of them does."""

    RATINGS = {
        "int": lambda x: 2 * x[0] + x[2],
        "Fraction": lambda x: Fraction(sum(x), 3),
        "float32": lambda x: np.float32(sum(x) / 3),
        "bool": any,
    }

    @pytest.mark.parametrize("rating", RATINGS)
    def test_value_types_match_a_float64_array(self, rating):
        fn = self.RATINGS[rating]
        want = np.array([fn(x) for x in profiles(3, 2)], dtype=np.float64)
        assert MultichoiceGame.from_function(3, 2, fn).values.tobytes() == want.tobytes()

    def test_none_is_refused_as_not_finite(self):
        with pytest.raises(ValueError, match="finite"):
            MultichoiceGame.from_function(2, 2, lambda x: None)

    @pytest.mark.parametrize("value", ["abc", [0.5]], ids=["str", "list"])
    def test_a_value_that_is_not_a_number_is_refused(self, value):
        with pytest.raises(ValueError):
            MultichoiceGame.from_function(2, 2, lambda x: value if any(x) else 0.0)

    def test_an_exception_in_fn_propagates_unchanged(self):
        raised = LookupError("no rating")

        def fn(x):
            if x == (1, 1):
                raise raised
            return 0.0

        with pytest.raises(LookupError) as info:
            MultichoiceGame.from_function(2, 2, fn)
        assert info.value is raised


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

    @pytest.mark.parametrize("bits", [3.5, True], ids=["float", "bool"])
    def test_rejects_non_integer_limit(self, m2, bits):
        # 3.5 would otherwise run as a fractional budget and True as a 1-bit one
        for call in (
            lambda: check_table_size(2, 2, bits),
            lambda: check_query_size(4, bits),
            lambda: random_game(1, 2, 2, limit_bits=bits),
            lambda: interaction(m2, (1,), limit_bits=bits),
        ):
            with pytest.raises(ValueError, match="^bit limit .* is not an integer$"):
                call()

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

    @pytest.mark.parametrize("n, k", [(0, 1), (1, 0)])
    def test_sizes_below_one_rejected(self, n, k):
        with pytest.raises(ValueError, match=f"need n >= 1 and k >= 1, got n={n}, k={k}"):
            MultichoiceGame(n, k, [0.0])

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: random_game(0, 10**400, 1), "beyond the 28-bit limit"),
            (lambda: min_game(10**400, 1), "beyond the 28-bit limit"),
            (lambda: MultichoiceGame.from_function(10**400, 1, float), "beyond the 28-bit limit"),
            (lambda: MultichoiceGame(10**400, 1, [0.0, 1.0]), "^table length 2 does not match"),
            (lambda: MultichoiceGame(10**8, 1, [0.0, 1.0]), "^table length 2 does not match"),
            (lambda: MultichoiceGame(10**6, 1, [0.0, 1.0]), "^table length 2 does not match"),
        ],
        ids=["random_game", "min_game", "from_function", "ctor-1e400", "ctor-1e8", "ctor-1e6"],
    )
    def test_huge_n_refused_at_once(self, build, message):
        # n past the float range once escaped as OverflowError, and the constructor
        # built (k+1)^n twice: 0.75 s at 10**8, without end at 10**400, and at
        # 10**6 str() refused the power's digits
        start = time.perf_counter()
        with pytest.raises(ValueError, match=message):
            build()
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, *BEYOND_FLOATS])
    def test_non_finite_values_rejected(self, bad):
        # every builder meets the constructor's bound: an int past the float range
        # once escaped each of them as OverflowError
        builds = [
            lambda: MultichoiceGame(1, 1, [0.0, bad]),
            lambda: MultichoiceGame.from_values(1, 1, [0.0, bad]),
            lambda: MultichoiceGame.from_grid([[0.0, bad], [1.0, 2.0]]),
            lambda: MultichoiceGame.from_function(2, 1, lambda x: bad if x == (1, 1) else 0.0),
            lambda: extend_heterogeneous([0.0, 1.0, bad], [2]),
        ]
        for build in builds:
            with pytest.raises(ValueError, match="^table values must be finite and within ±"):
                build()

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
        with pytest.raises(SizeLimitError, match="= 1152921504606846976 entries, beyond the 28"):
            min_game(30, 3)
        # past 2^64 entries the refusal gives bits, not the digits of 3**(10**6),
        # and once n is past 2^64, the power
        with pytest.raises(SizeLimitError, match=r"\(k\+1\)\^n = about 2\^1584963 entries"):
            check_table_size(10**6, 2)
        with pytest.raises(SizeLimitError, match=r"\(k\+1\)\^n = 3\^18446744073709551616 entries"):
            check_table_size(2**64, 2)

    @pytest.mark.parametrize(
        "n, k, bits", [(10**400, 1, 10**401), (10**20, 1, 10**30), (63, 1, 100), (21, 7, 100)],
        ids=["n-400-digits", "n-21-digits", "2^63", "8^21"],
    )
    def test_no_limit_admits_two_to_the_63_entries(self, n, k, bits):
        # numpy cannot index such a table: a raised limit once let a 400-digit n meet
        # a float (OverflowError) and admitted 2^(10^20) entries to random_game
        start = time.perf_counter()
        with pytest.raises(SizeLimitError, match=r"numpy cannot index 2\^63 entries") as info:
            check_table_size(n, k, bits)
        assert time.perf_counter() - start < 1.0
        assert "raise the limit" not in str(info.value)

    @pytest.mark.parametrize("n, k, bits", [(62, 1, 62), (21, 6, 100)])
    def test_a_raised_limit_admits_tables_below_two_to_the_63(self, n, k, bits):
        check_table_size(n, k, bits)

    def test_large_query_limit_is_cheap(self):
        # the length test decides before 2**bits would be built (a 12.5 MB integer here)
        start = time.perf_counter()
        check_query_size(4, 10**8)
        assert time.perf_counter() - start < 0.05

    @pytest.mark.parametrize("bits", [-3, -1, 0, 1, 2, 26, 64, 100])
    def test_query_verdict_is_count_above_two_to_the_bits(self, bits):
        bound = 2**bits
        counts = {0, 1, 2, 3} if bits < 0 else {0, bound - 1, bound, bound + 1}
        for count in counts:
            if count > bound:
                with pytest.raises(SizeLimitError, match=f"needs {count} .*{bits}-bit limit"):
                    check_query_size(count, bits)
            else:
                check_query_size(count, bits)

    def test_value_lookup(self, m2):
        assert m2.value((1, 2)) == 1.0
        assert m2.value((2, 2)) == 2.0


def at_the_bound(n, k, kind):
    """A table whose largest magnitude is the bound B: a general game scaled to it,
    or ±B by the parity of the level sum."""
    bound = sys.float_info.max / (2 * (k + 1)) ** n
    if kind == "general":
        values = random_game(n + k, n, k).values
        return MultichoiceGame(n, k, values / np.abs(values).max() * bound), bound
    parity = sum(np.ix_(*[np.arange(k + 1)] * n)) % 2
    values = np.where(parity == 0, bound, -bound).ravel(order="F")
    values[0] = 0.0
    return MultichoiceGame(n, k, values), bound


class TestTableBound:
    """Every index route grows a value at most 2(k+1)-fold per attribute, so at the
    bound each returns finite values with no warning.  The summed capacity of cellsum,
    a section capacity and verify's partners are games of their own, with their own
    bound: past it they are refused with ValueError.  (At (8, 3) the Monte-Carlo check
    runs at T = N only: its 6,561 cells cost about 0.3 s per coalition on a 2-vCPU guest.)"""

    @pytest.mark.parametrize("kind", ["general", "alternating"])
    @pytest.mark.parametrize("n, k", [(3, 2), (4, 3), (2, 9), (6, 1), (5, 2), (1, 3), (8, 3)])
    def test_every_route_is_finite_or_refused(self, n, k, kind):
        v, bound = at_the_bound(n, k, kind)
        N = tuple(range(1, n + 1))
        coalitions = sorted({(1,), N[:2], N})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = list(interaction_all_upto(v, n).values())
            for T in coalitions:
                got += [interaction(v, T), interaction_via_derivatives(v, T),
                        interaction_recursive(v, T)]
            got += [importance(v, n), efficiency_rhs(v), lattice_point_interaction(v, (k,) * n),
                    lattice_point_interaction(v, (1,) + (0,) * (n - 1)),
                    choquet_kary(v, [k / 2] * n), choquet_kary(v, [k * 0.3] * n)]
            for T in coalitions if (n, k) != (8, 3) else [N]:
                got += integral_check(v, T, 40, 5)
            if (n, k) == (3, 2):  # the CLI's default sample count
                got += integral_check(v, (1,), 100_000, 5)
            assert all(map(math.isfinite, got))
            axioms = [a for a in AXIOMS if (a != "I" or k >= 2) and (a != "R" or n >= 2)]
            for route in [lambda: [interaction_cellsum(v, T) for T in coalitions],
                          lambda: section_capacity(v, (0,) * n).values,
                          lambda: [r.max_gap for r in verify_axioms(axioms, 1, 3, n, k, game=v)]]:
                try:
                    assert np.isfinite(route()).all()
                except ValueError as exc:
                    assert str(exc).startswith("table values must be finite and within ±")
        past = v.values.copy()
        past[np.abs(past).argmax()] = np.nextafter(bound, np.inf)
        with pytest.raises(ValueError, match="^table values must be finite and within ±"):
            MultichoiceGame(n, k, past)
        with pytest.raises(ValueError, match="^table values must be finite and within ±"):
            MultichoiceGame(n, k, -past)


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
        table = raw.reshape([ki + 1 for ki in k_list], order="F")
        for k in (3, 4):  # max(k_list), and a target above it that clamps every axis
            g = extend_heterogeneous(raw, k_list, k)
            for x in product(range(k + 1), repeat=3):
                assert g.value(x) == table[tuple(min(x[i], k_list[i]) for i in range(3))]

    def test_rejects_bad_raw_table(self):
        with pytest.raises(ValueError, match="length"):
            extend_heterogeneous([0.0, 1.0, 2.0], [1, 2])
        with pytest.raises(ValueError, match="zero profile"):
            extend_heterogeneous([1.0, 2.0], [1])
        with pytest.raises(ValueError, match="target k=1 below max"):
            extend_heterogeneous([0.0, 1.0, 2.0], [2], k=1)
        with pytest.raises(ValueError, match="level counts must be >= 1"):
            extend_heterogeneous([0.0, 1.0], [0])


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

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, "x", *BEYOND_FLOATS])
    def test_non_finite_tolerance_rejected(self, tol):
        # no step falls below -inf and none below nan: the answer would be vacuous
        v = random_game(3, 3, 2, "general")
        with pytest.raises(ValueError, match="^tolerance .* is not (a number|finite)$"):
            is_kary_capacity(v, tol)


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


class TestBuildMemory:
    """A build holds a few tables, not one level array per attribute."""

    @staticmethod
    def peak(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("n", [16, 18])
    def test_peak_is_a_fixed_multiple_of_the_table(self, n):
        table = 8 * 2**n  # k = 1
        # the first calls in a process set up numpy state that is not the build's
        min_game(2, 1)
        random_game(0, 2, 1, "additive")
        assert self.peak(lambda: min_game(n, 1)) < 2.5 * table
        assert self.peak(lambda: random_game(0, n, 1, "additive")) < 2.5 * table
        v = random_game(0, n, 1)
        _classes.cache_clear()
        assert self.peak(lambda: importance(v, 1)) < 4 * table

    @pytest.mark.parametrize("n, k", [(16, 1), (18, 1), (10, 3)])
    def test_a_build_holds_its_table_and_the_constructor_copy(self, n, k):
        # 2.1 tables: the built one and the constructor's private copy
        table = 8 * (k + 1) ** n
        MultichoiceGame.from_function(2, 1, lambda x: 0.0)
        for kind in GAME_KINDS:
            random_game(0, 2, 1, kind)
            assert self.peak(lambda: random_game(0, n, k, kind)) < 2.5 * table, kind
        assert self.peak(lambda: MultichoiceGame.from_function(n, k, lambda x: x[0])) < 2.5 * table
        assert self.peak(lambda: min_game(n, k)) < 2.5 * table

    @pytest.mark.parametrize("n, k", [(1, 3), (3, 2), (4, 3), (10, 1)])
    def test_monotone_sums_in_place_as_out_of_place_cumsum_does(self, n, k):
        for seed in range(3):
            inc = np.random.default_rng(seed).uniform(0.0, 1.0, (k + 1) ** n)
            inc[0] = 0.0
            grid = inc.reshape((k + 1,) * n)
            for ax in range(n):
                grid = np.cumsum(grid, axis=ax)
            want = grid.ravel() / grid.ravel()[-1]
            assert random_game(seed, n, k, "monotone").values.tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("alpha", ["x", None, True, math.nan, math.inf, -math.inf, *BEYOND_FLOATS])
    def test_alpha_must_be_a_finite_number(self, m2, alpha):
        # refused before any arithmetic, so no numpy error or warning comes first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^alpha .* is not (a number|finite)$"):
                add_games(m2, m2, alpha)

    def test_an_overflow_is_refused_without_a_warning(self, m2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="table values must be finite"):
                add_games(m2, m2, 1e308)
        assert add_games(m2, m2, np.float32(0.5)).values.tolist() == (1.5 * m2.values).tolist()
