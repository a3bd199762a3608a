import math
import pickle
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsectors as q
from qsectors.states import _CanonicalFamily
from support import MALFORMED_VALUES, random_factor, random_product_state

import numpy as np


class TestFactorVector:
    def test_norm_and_dim(self):
        v = q.FactorVector((3.0, 4.0))
        assert v.dim == 2
        assert v.norm == 5.0
        assert v.norm_sq == 25.0

    def test_rejects_empty(self):
        with pytest.raises(q.InvalidAmplitude):
            q.FactorVector(())

    def test_rejects_non_finite(self):
        with pytest.raises(q.InvalidAmplitude):
            q.FactorVector((1.0, float("inf")))
        with pytest.raises(q.InvalidAmplitude):
            q.FactorVector((complex(0, float("nan")),))

    def test_normalized(self):
        v = q.FactorVector((3.0, 4.0)).normalized()
        assert v.norm == pytest.approx(1.0, abs=1e-15)

    def test_normalized_zero_raises(self):
        with pytest.raises(q.ZeroNormFactor):
            q.FactorVector((0.0, 0.0)).normalized()

    def test_distance_to(self):
        a = q.basis_vector(2, 0)
        b = q.basis_vector(2, 1)
        assert a.distance_to(b) == pytest.approx(math.sqrt(2.0))


class TestFactorOverlapFn:
    def test_conjugates_bra(self):
        a = q.FactorVector((1j, 0.0))
        b = q.FactorVector((1.0, 0.0))
        assert q.factor_overlap(a, b) == -1j

    def test_dim_mismatch(self):
        with pytest.raises(q.ShapeMismatch):
            q.factor_overlap(q.basis_vector(2, 0), q.basis_vector(3, 0))


class TestDecaySpec:
    def test_unknown_kind(self):
        with pytest.raises(q.UndeclaredTailClass):
            q.DecaySpec("quadratic")

    def test_geometric_needs_ratio(self):
        with pytest.raises(q.UndeclaredTailClass):
            q.DecaySpec("geometric")
        with pytest.raises(q.UndeclaredTailClass):
            q.DecaySpec("geometric", ratio=1.0)

    @pytest.mark.parametrize(
        "kind, fields",
        [
            ("geometric", {"ratio": "0.5"}),
            ("geometric", {"ratio": True}),
            ("p-series", {"p": "2"}),
            ("p-series", {"p": math.nan}),
            ("eventually-constant", {"rank": 3.5}),
            ("eventually-constant", {"rank": True}),
            ("custom-certified", {"rank": "3"}),
        ],
    )
    def test_declaration_numbers_are_numbers(self, kind, fields):
        with pytest.raises(q.UndeclaredTailClass):
            q.DecaySpec(kind, **fields)

    @pytest.mark.parametrize("value", MALFORMED_VALUES, ids=range(len(MALFORMED_VALUES)))
    @pytest.mark.parametrize("name", ["ratio", "p", "rank"])
    @pytest.mark.parametrize(
        "kind", ["geometric", "p-series", "eventually-constant", "custom-certified"]
    )
    def test_malformed_declarations_are_refused_or_bounded(self, kind, name, value):
        fields = {"ratio": 0.5, "p": 2.0, "rank": 3, name: value}
        if isinstance(value, int) and abs(value) > sys.float_info.max:
            with pytest.raises(q.UndeclaredTailClass, match=f"^decay {name} lies outside"):
                q.DecaySpec(kind, scale=0.3, **fields)
            return
        try:
            d = q.DecaySpec(kind, scale=0.3, **fields)
        except q.UndeclaredTailClass:
            return
        # an accepted declaration answers its bounds in floats
        assert d.bound(1) >= 0.0 and d.series_bound(1) >= 0.0

    def test_numpy_floats_and_ints_are_numbers(self):
        assert q.DecaySpec("geometric", ratio=np.float64(0.5)).ratio == 0.5
        assert q.DecaySpec("p-series", p=2).summable

    def test_p_series_summability(self):
        assert not q.DecaySpec("p-series", p=1.0).summable
        assert q.DecaySpec("p-series", p=1.5).summable
        assert q.DecaySpec("geometric", ratio=0.5).summable
        assert q.DecaySpec("custom-certified", scale=3.0).summable

    def test_geometric_series_bound_matches_sum(self):
        d = q.DecaySpec("geometric", ratio=0.5, scale=2.0)
        exact = sum(d.bound(n) for n in range(10, 200))
        assert d.series_bound(10) == pytest.approx(exact, rel=1e-12)

    def test_p_series_bound_dominates_sum(self):
        d = q.DecaySpec("p-series", p=2.0, scale=1.0)
        partial = sum(d.bound(n) for n in range(5, 200_000))
        bound = d.series_bound(5)
        assert partial <= bound
        # the integral bound should not be grossly loose either
        assert bound <= partial * 1.5

    def test_non_summable_p_series_bound(self):
        assert q.DecaySpec("p-series", p=1.0).series_bound(3) == math.inf


class TestShiftedDeclarations:
    SPECS = [
        q.DecaySpec("geometric", ratio=0.5, scale=0.3),
        q.DecaySpec("geometric", ratio=0.0, scale=0.3),
        q.DecaySpec("p-series", p=1.5, scale=0.3),
        q.DecaySpec("p-series", p=0.75, scale=0.3),
        q.DecaySpec("eventually-constant", rank=4, scale=0.3),
        q.DecaySpec("custom-certified", scale=0.3),
    ]

    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("sites", [0, 1, 3])
    def test_shifted_bound_covers_the_moved_factors(self, spec, sites):
        moved = spec.shifted(sites)
        assert moved.summable == spec.summable
        room = 1.0 - 1e-12  # the bounds are products of rounded powers
        for n in range(sites, sites + 200):
            assert moved.bound(n) >= room * spec.bound(n - sites)
            assert moved.series_bound(n) >= room * spec.series_bound(n - sites)

    def test_shifted_tail_reads_earlier_sites(self):
        def fn(n):
            return q.FactorVector((1.0, 0.5**n))

        tail = q.ParametricTail(2, fn, q.basis_vector(2, 0), q.DecaySpec("geometric", ratio=0.5))
        moved = tail.shifted(1)
        assert moved.decay == q.DecaySpec("geometric", ratio=0.5, scale=2.0)
        assert [moved.factor_at(n) for n in (1, 2, 7)] == [fn(0), fn(1), fn(6)]
        constant = q.ConstantTail(q.basis_vector(2, 1))
        assert constant.shifted(1) is constant

    @pytest.mark.parametrize("spec", SPECS[:5])
    def test_a_canonical_family_stays_one_when_shifted(self, spec):
        limit = q.FactorVector((0.6, 0.8))
        family = _CanonicalFamily(limit, (0.1 + 0.2j, -0.3), spec)
        tail = q.ParametricTail(2, family, limit, spec)
        plain = q.ParametricTail(2, lambda n: family(n), limit, spec)
        for shifts in ((1,), (2, 3), (5,)):
            moved, moved_plain = tail, plain
            for sites in shifts:
                moved, moved_plain = moved.shifted(sites), moved_plain.shifted(sites)
            # either callback stays itself; the tail holds the shifts added up
            assert moved.factor_fn is family
            assert moved_plain.factor_fn is plain.factor_fn
            assert moved.shift == moved_plain.shift == sum(shifts)
            assert moved.decay == moved_plain.decay
            for n in range(12):
                want = family(max(n - sum(shifts), 0))
                assert moved.factor_at(n) == moved_plain.factor_at(n) == want

    def test_an_eventually_constant_family_builds_its_vector_once(self):
        limit = q.FactorVector((0.6, 0.8))
        family = _CanonicalFamily(limit, (0.4, -0.8), q.DecaySpec("eventually-constant", rank=9))
        assert family(0) is family(8)
        assert family(0).amplitudes == (1.0, 0.0)
        assert family(9) is family(10**12) is limit
        tail = q.ParametricTail(2, family, limit, family.decay)
        assert q.ProductState((), tail).run_starts == (0, 9)
        # moved 2 sites later, the family's run before rank starts at the
        # prefix end and its limit at 9 + 2
        assert q.ProductState((limit,) * 3, tail.shifted(2)).run_starts == (3, 11)

    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("a, b", [(0, 0), (1, 2), (3, 0), (2, 5)])
    def test_shifts_add_up_on_the_tail(self, spec, a, b):
        def fn(n):
            return q.FactorVector((0.6, 0.8 + 0.3 * 0.5**n))

        tail = q.ParametricTail(2, fn, q.FactorVector((0.6, 0.8)), spec)
        moved = tail.shifted(a).shifted(b)
        assert moved.shift == a + b
        assert moved.factor_fn is fn
        assert moved.decay == spec.shifted(a).shifted(b)


    @pytest.mark.parametrize("spec", SPECS[:5])
    @pytest.mark.parametrize("sites", [0, 3])
    def test_a_mapped_tail_keeps_its_shift_and_declaration(self, spec, sites):
        limit = q.FactorVector((0.6, 0.8))
        family = _CanonicalFamily(limit, (0.1 + 0.2j, -0.3), spec)
        tail = q.ParametricTail(2, family, limit, spec).shifted(sites)
        m = np.array([[1.0, 2j], [0.5, 0.0], [0.0, -1.0]])  # into dim 3

        def fn(f):
            return q.FactorVector(tuple(complex(c) for c in m @ np.array(f.amplitudes)))

        image = tail.mapped(fn, 0.7)
        assert (image.dim, image.shift, image.limit) == (3, tail.shift, fn(limit))
        old, new = tail.decay, image.decay
        assert (new.kind, new.ratio, new.p, new.rank, new.scale) == (
            old.kind, old.ratio, old.p, old.rank, 0.7
        )
        for n in range(12):
            assert image.factor_at(n) == fn(tail.factor_at(n))
        constant = q.ConstantTail(limit).mapped(fn, 0.7)
        assert constant == q.ConstantTail(fn(limit))
        assert constant.decay.scale == 0.0


class TestTails:
    def test_constant_tail(self):
        t = q.ConstantTail(q.basis_vector(3, 1))
        assert t.dim == 3
        assert t.factor_at(0) == t.factor_at(10 ** 9)

    def test_parametric_probe_rejects_bad_fn(self):
        with pytest.raises(q.InvalidAmplitude):
            q.ParametricTail(
                2,
                lambda n: (1.0, 0.0),
                q.basis_vector(2, 0),
                q.DecaySpec("geometric", ratio=0.5),
            )

    def test_parametric_dim_mismatch(self):
        with pytest.raises(q.ShapeMismatch):
            q.ParametricTail(
                3,
                lambda n: q.basis_vector(2, 0),
                q.basis_vector(3, 0),
                q.DecaySpec("geometric", ratio=0.5),
            )

    def test_parametric_uses_absolute_site(self):
        seen = []

        def fn(n):
            seen.append(n)
            return q.basis_vector(2, 0)

        state = q.ProductState(
            (q.basis_vector(2, 1),),
            q.ParametricTail(2, fn, q.basis_vector(2, 0), q.DecaySpec("geometric", ratio=0.5)),
        )
        seen.clear()
        state.factor_at(7)
        assert seen == [7]


class TestProductState:
    def test_factor_lookup(self):
        s = q.make_product_state(
            [(0.0, 1.0)], q.ConstantTail(q.basis_vector(2, 0)), label="x"
        )
        assert s.prefix_len == 1
        assert s.factor_at(0) == q.basis_vector(2, 1)
        assert s.factor_at(5) == q.basis_vector(2, 0)
        assert s.dim_at(0) == 2 and s.tail_dim == 2
        assert s.label == "x"

    def test_negative_site(self):
        s = q.ProductState((), q.ConstantTail(q.basis_vector(2, 0)))
        with pytest.raises(q.IndexOutOfRange):
            s.factor_at(-1)


class TestCompositeState:
    def test_requires_terms(self):
        with pytest.raises(q.InvalidAmplitude):
            q.CompositeState(())

    def test_shape_consistency(self):
        a = q.ProductState((), q.ConstantTail(q.basis_vector(2, 0)))
        b = q.ProductState((), q.ConstantTail(q.basis_vector(3, 0)))
        with pytest.raises(q.ShapeMismatch):
            q.CompositeState(((1.0 + 0j, a), (1.0 + 0j, b)))

    def test_scaled(self):
        a = q.ProductState((), q.ConstantTail(q.basis_vector(2, 0)))
        c = q.CompositeState(((2.0 + 0j, a),)).scaled(0.5)
        assert c.terms[0][0] == 1.0 + 0j


class TestShapes:
    def test_prefix_vs_tail_positions(self):
        tail2 = q.ConstantTail(q.basis_vector(2, 0))
        a = q.ProductState((q.basis_vector(2, 1), q.basis_vector(2, 0)), tail2)
        b = q.ProductState((), tail2)
        assert q.shapes_match(a, b)
        c = q.ProductState((q.basis_vector(3, 0),), tail2)
        assert not q.shapes_match(a, c)

    def test_ensure_raises(self):
        a = q.ProductState((), q.ConstantTail(q.basis_vector(2, 0)))
        b = q.ProductState((), q.ConstantTail(q.basis_vector(4, 0)))
        with pytest.raises(q.ShapeMismatch):
            q.ensure_same_shape(a, b)

    # (first state's prefix dims, tail dim), (second's), the message: a
    # mismatch at the first site, a middle site, the last prefix site, past
    # the shorter prefix, in the tail, and none
    MISMATCHES = [
        (([3] + [2] * 99, 2), ([2] * 100, 2), "dim 3 vs 2 at site 0"),
        (([2] * 50 + [3] * 50, 2), ([2] * 100, 2), "dim 3 vs 2 at site 50"),
        (([2] * 99 + [4], 2), ([2] * 100, 2), "dim 4 vs 2 at site 99"),
        (([2] * 70 + [1] * 30, 2), ([2] * 70, 2), "dim 1 vs 2 at site 70"),
        (([2] * 100, 2), ([2] * 70, 3), "dim 2 vs 3 at site 70"),
        (([2] * 40 + [5] * 60, 2), ([2] * 40 + [5] * 60, 3), "tail dims differ: 2 vs 3"),
        (([2] * 40 + [5] * 60, 2), ([2] * 40 + [5] * 60 + [2] * 9, 2), None),
    ]

    @pytest.mark.parametrize("first, second, message", MISMATCHES)
    def test_mismatch_messages(self, first, second, message):
        rng = np.random.default_rng(0)

        def state(dims, tail_dim):
            return q.ProductState(
                tuple(random_factor(rng, d) for d in dims),
                q.ConstantTail(random_factor(rng, tail_dim)),
            )

        a, b = state(*first), state(*second)
        assert _shape_message_by_site(a, b) == message
        if message is None:
            q.ensure_same_shape(a, b)
            return
        with pytest.raises(q.ShapeMismatch) as err:
            q.ensure_same_shape(a, b)
        assert str(err.value) == message
        # a longer term elsewhere widens the span, not the message
        long = state([2] * 40 + [5] * 60 + [2] * 9 + [first[1]] * 40, first[1])
        if q.shapes_match(a, long):
            with pytest.raises(q.ShapeMismatch) as err:
                q.ensure_same_shape(q.CompositeState(((1, a), (1, long))), b)
            assert str(err.value) == _shape_message_by_site(a, b, long.prefix_len)


def _shape_message_by_site(a, b, span=0):
    """The site-by-site check ensure_same_shape replaced, as a reference."""
    for site in range(max(a.prefix_len, b.prefix_len, span)):
        if a.dim_at(site) != b.dim_at(site):
            return f"dim {a.dim_at(site)} vs {b.dim_at(site)} at site {site}"
    if a.tail_dim != b.tail_dim:
        return f"tail dims differ: {a.tail_dim} vs {b.tail_dim}"
    return None


class TestDistance:
    def test_self_distance_is_exactly_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = random_product_state(rng, dim=3)
            assert q.distance(s, s, truncation=6) == 0.0

    def test_orthogonal_units(self):
        tail = q.ConstantTail(q.basis_vector(2, 0))
        a = q.ProductState((q.basis_vector(2, 0),), tail)
        b = q.ProductState((q.basis_vector(2, 1),), tail)
        assert q.distance(a, b, truncation=4) == pytest.approx(2.0)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), trunc=st.integers(1, 8))
    def test_symmetric_bitwise(self, seed, trunc):
        rng = np.random.default_rng(seed)
        a = random_product_state(rng, dim=2, unit=False)
        b = random_product_state(rng, dim=2, unit=False)
        assert q.distance(a, b, trunc) == q.distance(b, a, trunc)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        a = random_product_state(rng, dim=2, unit=False)
        b = random_product_state(rng, dim=2, unit=False)
        assert q.distance(a, b, 6) >= -1e-9


# -- the stacked prefix --------------------------------------------------------
#
# Each ProductState keeps its explicit prefix as read-only (sites, dim) arrays,
# one per run of equal dims, built on first use.  Walks, sector certificates
# and asymptotic overlaps read brackets off these arrays, and keep the bits of
# the scalar factor_overlap only while einsum adds in the same order.


def test_stacked_brackets_match_factor_overlap_bits():
    from qsectors.states import _stacked_brackets

    rng = np.random.default_rng(2024)
    for dim in range(1, 65):
        # every term count 1..16 on each side over the dims
        n_bra, n_ket, sites = 1 + dim % 16, 16 - dim % 16, 3
        shape = (sites, dim)
        scale = 10.0 ** rng.uniform(-6, 6, size=(n_bra + n_ket,) + shape)
        rows = scale * (rng.normal(size=scale.shape) + 1j * rng.normal(size=scale.shape))
        bra, ket = rows[:n_bra], rows[n_bra:]
        got = _stacked_brackets(bra, ket)
        vec = [[q.FactorVector(tuple(r.tolist())) for r in term] for term in rows]
        want = np.array([
            [[q.factor_overlap(vec[a][s], vec[n_bra + b][s]) for s in range(sites)]
             for b in range(n_ket)]
            for a in range(n_bra)
        ])
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), f"dim {dim}"


def _runs_state(rng, runs, tail_dim=None):
    """Product state whose prefix holds ``runs`` = [(sites, dim), ...]."""
    dims = [d for sites, d in runs for _ in range(sites)]
    tail = q.ConstantTail(random_factor(rng, tail_dim or (dims[-1] if dims else 2)))
    return q.ProductState(tuple(random_factor(rng, d) for d in dims), tail)


def _random_runs(rng, length, max_dim=16):
    runs, left = [], length
    while left:
        sites = min(left, int(rng.integers(1, 40)))
        runs.append((sites, int(rng.integers(1, max_dim + 1))))
        left -= sites
    return runs


def _dim_runs_by_site(state):
    runs = []
    for site, f in enumerate(state.prefix):
        if runs and runs[-1][1] == f.dim:
            runs[-1][0] = site + 1
        else:
            runs.append([site + 1, f.dim])
    return tuple(tuple(r) for r in runs)


def _scalar_brackets(a, b, span):
    return [q.factor_overlap(a.factor_at(k), b.factor_at(k)) for k in range(span)]


class TestStackedPrefix:
    @pytest.mark.parametrize("length", [0, 1, 63, 64, 65, 200])
    def test_runs_hold_the_prefix(self, length):
        rng = np.random.default_rng(length)
        s = _runs_state(rng, _random_runs(rng, length))
        assert s.dim_runs == _dim_runs_by_site(s)
        assert len(s.stacked) == len(s.dim_runs)
        start = 0
        for (end, dim), rows in zip(s.dim_runs, s.stacked):
            assert rows.shape == (end - start, dim) and rows.dtype == complex
            want = np.array([f.amplitudes for f in s.prefix[start:end]])
            assert rows.tobytes() == want.tobytes()
            for lo in range(start, end):
                hi = int(rng.integers(lo + 1, end + 1))
                assert s.rows(lo, hi).tobytes() == want[lo - start : hi - start].tobytes()
            start = end
        assert start == length

    @pytest.mark.parametrize("length", [63, 64, 65, 66])
    def test_direct_cuts_keep_the_site_by_site_bits(self, length):
        from qsectors import overlaps

        rng = np.random.default_rng(10 + length)
        runs = _random_runs(rng, length)
        bra = q.CompositeState(tuple((complex(rng.normal(), 1.0), _runs_state(rng, runs)) for _ in range(3)))
        ket = q.CompositeState(tuple((complex(1.0, rng.normal()), _runs_state(rng, runs)) for _ in range(2)))
        cuts = [1, 7, 30, 63, 64, 65, length + 5]
        bra_side, ket_side, readouts = overlaps._sides(bra, ket)
        got = overlaps._walk(bra_side, ket_side, readouts, cuts)
        bra_side, ket_side, readouts = overlaps._sides(bra, ket)
        bra_side.explicit = ket_side.explicit = 0  # no blocks: every site alone
        bra_side.stackable = ket_side.stackable = 0
        want = overlaps._walk(bra_side, ket_side, readouts, cuts)
        for k, n in enumerate(cuts):
            if n <= overlaps.DIRECT_LIMIT:
                assert repr(got[0][k]) == repr(want[0][k])

    def test_arrays_are_read_only(self):
        s = _runs_state(np.random.default_rng(1), [(70, 2), (5, 3)])
        for rows in s.stacked + (s.rows(3, 60),):
            with pytest.raises(ValueError):
                rows[0, 0] = 1.0

    def test_built_once_across_walks(self, monkeypatch):
        from functools import cached_property

        real = q.ProductState.__dict__["stacked"].func
        built = []

        def spy(state):
            built.append(state)
            return real(state)

        prop = cached_property(spy)
        prop.__set_name__(q.ProductState, "stacked")
        monkeypatch.setattr(q.ProductState, "stacked", prop)
        rng = np.random.default_rng(3)
        runs = [(40, 2), (60, 3), (30, 2)]
        a, b = _runs_state(rng, runs), _runs_state(rng, runs)
        for _ in range(10):
            q.composite_overlap(a, b, 120)
            q.overlap_sweep(a, b, [10, 64, 100, 130])
            q.distance(a, b, 130)
        assert sorted(map(id, built)) == sorted([id(a), id(b)])

    def test_terms_rows_across_run_edges(self):
        from qsectors.overlaps import _Terms

        rng = np.random.default_rng(4)
        runs = _random_runs(rng, 300)
        states = [_runs_state(rng, runs) for _ in range(3)]
        side = _Terms(states)
        start = 0
        for end, dim in states[0].dim_runs:
            assert side.run_end(start, 10**6) == end
            assert side.run_end(start, start + 1) == start + 1
            for lo, hi in ((start, end), (end - 1, end), (start, (start + end + 1) // 2)):
                want = np.array([[f.amplitudes for f in s.prefix[lo:hi]] for s in states])
                assert side.rows(lo, hi).shape == (3, hi - lo, dim)
                assert side.rows(lo, hi).tobytes() == want.tobytes()
            start = end

    def test_identity_survives_walks(self):
        from qsectors import serialize

        rng = np.random.default_rng(5)
        runs = [(50, 3), (40, 1), (30, 3)]
        a, b = _runs_state(rng, runs), _runs_state(rng, runs)
        copy = q.ProductState(a.prefix, a.tail, a.label)
        before = (hash(a), pickle.dumps(a), serialize.dumps(serialize.encode_state(a)))
        q.overlap_sweep(a, b, [5, 64, 100, 120])
        assert a.stacked and "stacked" not in vars(copy)
        assert a == copy and hash(a) == hash(copy)
        after = (hash(a), pickle.dumps(a), serialize.dumps(serialize.encode_state(a)))
        assert after == before
        back = pickle.loads(after[1])
        assert back == a and "stacked" not in vars(back)
        assert back.stacked[1].tobytes() == a.stacked[1].tobytes()


class TestPrefixBrackets:
    @pytest.mark.parametrize("seed", range(6))
    def test_match_the_site_by_site_brackets(self, seed):
        from qsectors.states import _prefix_brackets

        rng = np.random.default_rng(seed)
        tail_dim = int(rng.integers(1, 5))
        last = int(rng.integers(1, 60))
        runs = _random_runs(rng, int(rng.integers(70, 200)), max_dim=6) + [(last, tail_dim)]
        a = _runs_state(rng, runs, tail_dim)
        # b stops inside a's last run, so the two share more than 64 sites
        cut = a.prefix_len - int(rng.integers(1, last + 1))
        b = q.ProductState(
            tuple(random_factor(rng, f.dim) for f in a.prefix[:cut]),
            q.ConstantTail(random_factor(rng, tail_dim)),
        )
        span = a.prefix_len
        for x, y in ((a, b), (b, a), (a, a)):
            for n in (0, 1, 64, 65, cut, span, span + 3):
                assert repr(_prefix_brackets(x, y, n)) == repr(_scalar_brackets(x, y, n))

    @pytest.mark.parametrize("seed", range(3))
    def test_tails_past_a_short_prefix_match_too(self, seed):
        from qsectors.states import _prefix_brackets

        rng = np.random.default_rng(40 + seed)
        dim = int(rng.integers(1, 4))
        long = _runs_state(rng, [(int(rng.integers(65, 150)), dim)])
        for tail in _row_tails(rng, dim):
            short = q.ProductState((random_factor(rng, dim),) * int(rng.integers(0, 5)), tail)
            for x, y in ((long, short), (short, long), (short, short)):
                for n in (64, 65, long.prefix_len + 9):
                    assert repr(_prefix_brackets(x, y, n)) == repr(_scalar_brackets(x, y, n))


# -- a state's rows ------------------------------------------------------------
#
# ``ProductState.rows`` is the one reader of a state's factors as numpy rows:
# its stacked prefix, then its tail's rows.  Walks, sector probes and prefix
# brackets trust these rows to be the factors, bit for bit.


def _row_tails(rng, dim):
    """A constant tail, then decoded geometric, p-series and
    eventually-constant families, each unshifted and shifted, each also
    behind a plain callback."""
    limit = random_factor(rng, dim)
    deviation = tuple(complex(x, y) for x, y in 0.3 * rng.normal(size=(dim, 2)))
    tails = [q.ConstantTail(limit)]
    for decay in (
        q.DecaySpec("geometric", ratio=0.6),
        q.DecaySpec("p-series", p=1.5),
        q.DecaySpec("eventually-constant", rank=5),
    ):
        family = _CanonicalFamily(limit, deviation, decay)
        for fn in (family, lambda n, family=family: family(n)):
            tail = q.ParametricTail(dim, fn, limit, decay)
            tails += [tail, tail.shifted(4)]
    return tails


def _factor_rows(state, lo, hi, dim):
    rows = [state.factor_at(n).amplitudes for n in range(lo, hi)]
    return np.array(rows, dtype=complex).reshape(-1, dim)


class TestStateRows:
    @pytest.mark.parametrize("seed", range(4))
    def test_rows_are_the_factors(self, seed):
        rng = np.random.default_rng(seed)
        tail_dim = int(rng.integers(1, 4))
        # mixed dims, the last run in the tail's dim so spans cross the prefix end
        runs = _random_runs(rng, int(rng.integers(1, 50)), max_dim=4) + [(3, tail_dim)]
        for tail in _row_tails(rng, tail_dim):
            s = q.ProductState(_runs_state(rng, runs, tail_dim).prefix, tail)
            p = s.prefix_len
            starts = [0] + [end for end, _ in s.dim_runs]
            spans = [(start, end) for start, (end, _) in zip(starts, s.dim_runs)]
            spans += [(p - 2, p + 7), (p - 1, p + 40), (p, p + 9), (p + 60, p + 200)]
            spans += [(0, 0), (p - 1, p - 1), (p + 3, p + 3)]
            for lo, hi in spans:
                got = s.rows(lo, hi)
                want = _factor_rows(s, lo, hi, s.dim_at(lo))
                assert got.shape == want.shape and got.dtype == complex
                assert got.tobytes() == want.tobytes(), (tail, lo, hi)

    def test_closed_rows_call_no_callback(self, monkeypatch):
        rng = np.random.default_rng(7)
        closed = [t for t in _row_tails(rng, 2) if t.closed_rows]
        # the constant tail and three families, unshifted and shifted
        assert len(closed) == 7
        monkeypatch.setattr(_CanonicalFamily, "__call__", lambda self, n: pytest.fail("called"))
        for tail in closed:
            assert tail.rows(0, 50).shape == (50, 2)

    def test_constant_rows_are_a_read_only_view(self):
        rows = q.ConstantTail(q.FactorVector((0.6, 0.8j))).rows(3, 1003)
        assert rows.shape == (1000, 2) and rows.strides[0] == 0
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0

    def test_a_plain_factor_of_the_wrong_dim_raises(self):
        limit = q.FactorVector((0.6, 0.8))
        odd = q.FactorVector((1.0, 0.0, 0.0))
        tail = q.ParametricTail(
            2, lambda n: odd if n == 7 else limit, limit, q.DecaySpec("eventually-constant", rank=8)
        )
        s = q.ProductState((limit,), tail)
        assert s.rows(0, 7).shape == (7, 2)
        with pytest.raises(q.ShapeMismatch, match="site 7 has dim 3"):
            s.rows(0, 12)
        with pytest.raises(q.ShapeMismatch):
            tail.shifted(2).rows(9, 10)


# -- refusals -----------------------------------------------------------------

_E0 = q.FactorVector((1.0, 0.0))
_UNIT = q.make_product_state((), q.ConstantTail(_E0))

STATE_REFUSALS = {
    "distance-to-across-dims": (
        q.ShapeMismatch, lambda: _E0.distance_to(q.FactorVector((1.0, 0.0, 0.0)))
    ),
    "basis-index-past-dim": (q.IndexOutOfRange, lambda: q.basis_vector(2, 2)),
    "basis-index-negative": (q.IndexOutOfRange, lambda: q.basis_vector(2, -1)),
    "parametric-without-decay-spec": (
        q.UndeclaredTailClass,
        lambda: q.ParametricTail(2, lambda n: _E0, _E0, "geometric"),
    ),
    "parametric-limit-of-another-dim": (
        q.ShapeMismatch,
        lambda: q.ParametricTail(
            3, lambda n: _E0, _E0, q.DecaySpec("geometric", ratio=0.5)
        ),
    ),
    "prefix-entry-not-a-factor": (
        q.InvalidAmplitude, lambda: q.ProductState(((1.0, 0.0),), q.ConstantTail(_E0))
    ),
    "tail-not-a-tail": (q.UndeclaredTailClass, lambda: q.ProductState((), _E0)),
    "composite-infinite-coefficient": (
        q.InvalidAmplitude, lambda: q.CompositeState(((math.inf, _UNIT),))
    ),
    "composite-term-not-a-product-state": (
        q.InvalidAmplitude, lambda: q.CompositeState(((1.0, _UNIT.as_composite()),))
    ),
    "distance-negative-truncation": (q.PreconditionViolated, lambda: q.distance(_UNIT, _UNIT, -1)),
}


@pytest.mark.parametrize("case", sorted(STATE_REFUSALS))
def test_mismatched_or_mistyped_state_parts_are_refused(case):
    error, build = STATE_REFUSALS[case]
    with pytest.raises(error):
        build()
