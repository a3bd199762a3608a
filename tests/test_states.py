import dataclasses
import itertools
import math
import pickle
import re
import struct
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsectors as q
from qsectors.states import _CanonicalFamily
from support import (
    MALFORMED_VALUES,
    TAIL_FAMILIES,
    assert_walks_agree,
    complex_bits,
    decoded_family,
    random_factor,
    random_product_state,
    site_by_site,
)

import numpy as np


class TestFactorVector:
    def test_norm_and_dim(self):
        v = q.FactorVector((3.0, 4.0))
        assert v.dim == 2
        assert v.norm == 5.0
        assert v.norm_sq == 25.0

    def test_rejects_empty(self):
        for values in ((), [], np.array([], dtype=complex), iter(())):
            with pytest.raises(q.InvalidAmplitude, match="^factor vector needs at least one amplitude$"):
                q.FactorVector(values)

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


# -- per-site layers against the formulas they replaced ----------------------
#
# FactorVector converts and checks its amplitudes in C-level passes, computes
# its norm on first read, and factor_overlap, basis_vector and the canonical
# family's weighted vectors use map and tuple repetition.  Each keeps the bits
# of the per-amplitude Python loop or generator it replaced; those are kept
# here as the reference.


def _loop_amplitudes(values):
    out = []
    for v in values:
        c = complex(v)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise q.InvalidAmplitude(f"non-finite amplitude {c!r}")
        out.append(c)
    return tuple(out)


def _loop_norm_sq(amplitudes):
    norm_sq = 0.0
    for c in amplitudes:
        norm_sq += c.real * c.real + c.imag * c.imag
    return norm_sq


def _raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


_finite = st.floats(allow_nan=False, allow_infinity=False)
_complex = st.builds(complex, _finite, _finite)


class TestFactorVectorPasses:
    @pytest.mark.parametrize(
        "values",
        [
            (0.6, 0.8j),
            [3, -4],
            (True, False),
            np.array([0.6 + 0.1j, -0.0, 0.8j]),
            np.array([1.0, -2.5]),
            np.array([3, 4], dtype=np.int64),
            (np.float64(0.25), np.complex128(-0.5j), np.int32(2), np.bool_(True)),
            (complex(-0.0, -0.0), -0.0, 5e-324, 1e200),
            tuple(np.random.default_rng(1).normal(size=65_536).tolist()),
        ],
        ids=["tuple", "list", "bools", "numpy-complex", "numpy-float", "numpy-int",
             "numpy-scalars", "signed-zeros", "dim-65536"],
    )
    def test_amplitudes_match_the_loop(self, values):
        v = q.FactorVector(values)
        assert all(type(c) is complex for c in v.amplitudes)
        assert complex_bits(v.amplitudes) == complex_bits(_loop_amplitudes(values))

    def test_a_generator_is_read_once(self):
        v = q.FactorVector(x / 4 for x in range(3))
        assert v.amplitudes == (0j, 0.25 + 0j, 0.5 + 0j)
        with pytest.raises(q.InvalidAmplitude, match=r"^non-finite amplitude \(inf\+0j\)$"):
            q.FactorVector(x for x in (1.0, math.inf, "x"))

    @pytest.mark.parametrize(
        "values",
        [
            (1.0, math.inf, math.nan),
            (0.5, complex(0.0, math.nan), -math.inf),
            (np.float64(1.0), np.float64(-np.inf)),
            (1.0, math.inf, "x"),
            (math.nan, None),
            (0.5, "x", math.inf),
            (0.5, None),
            (1.0, 10**400),
            ([1.0],),
            ((), 1.0),
        ],
    )
    def test_the_first_bad_amplitude_raises_as_the_loop_does(self, values):
        want = _raised(_loop_amplitudes, values)
        assert want is not None
        assert _raised(q.FactorVector, values) == want

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_complex, min_size=1, max_size=20))
    def test_norm_sq_matches_the_loop(self, values):
        v = q.FactorVector(values)
        assert struct.pack("<d", v.norm_sq) == struct.pack("<d", _loop_norm_sq(v.amplitudes))

    @pytest.mark.parametrize(
        "values, norm_sq",
        [
            ((1e200, 1.0), math.inf),
            ((complex(1e200, 1e200),), math.inf),
            ((5e-324, complex(0.0, 5e-324)), 0.0),
            ((1e-160, 1e-160j), (1e-160 * 1e-160) * 2),  # subnormal squares
            # each tie rounds to even, so a compensated sum (fsum, or sum
            # from Python 3.12 on) gives 1 + 2**-52
            ((1.0, complex(2**-27, 2**-27), complex(2**-27, 2**-27)), 1.0),
        ],
    )
    def test_norm_sq_edges(self, values, norm_sq):
        v = q.FactorVector(values)  # a norm past the float range is no error
        assert v.norm_sq == norm_sq == _loop_norm_sq(v.amplitudes)
        assert v.norm == math.sqrt(norm_sq)

    def test_the_norm_is_computed_once_on_first_read(self):
        v = q.FactorVector((3.0, 4.0))
        assert "norm_sq" not in vars(v)
        assert v.norm == 5.0
        assert vars(v)["norm_sq"] == 25.0
        assert v.norm_sq is v.norm_sq

    def test_equality_hash_repr_and_replace(self):
        a, b = q.FactorVector((3.0, 4j)), q.FactorVector([3, 4j])
        b.norm_sq
        assert a == b and hash(a) == hash(b) == hash(((3 + 0j, 4j),))
        assert repr(a) == repr(b) == "FactorVector(amplitudes=((3+0j), 4j))"
        assert [f.name for f in dataclasses.fields(a)] == ["amplitudes"]
        c = dataclasses.replace(b, amplitudes=(1, 0))
        assert c == q.basis_vector(2, 0) and c.norm_sq == 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.amplitudes = (1.0,)

    def test_pickles_do_not_change_when_the_norm_is_read(self):
        v = q.FactorVector((0.6, 0.8j))
        before = pickle.dumps(v)
        assert v.norm_sq == _loop_norm_sq(v.amplitudes)
        assert pickle.dumps(v) == before
        back = pickle.loads(before)
        assert back == v and "norm_sq" not in vars(back)
        assert back.norm_sq == v.norm_sq

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8).flatmap(
        lambda d: st.tuples(*[st.lists(_complex, min_size=d, max_size=d)] * 2)
    ))
    def test_factor_overlap_matches_the_generator_sum(self, pair):
        bra, ket = (q.FactorVector(v) for v in pair)
        want = sum(a.conjugate() * b for a, b in zip(bra.amplitudes, ket.amplitudes))
        assert complex_bits([q.factor_overlap(bra, ket)]) == complex_bits([want])

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda d: st.tuples(*[st.lists(_complex, min_size=d, max_size=d)] * 2)
        ),
        st.sampled_from([0.0, -0.0, 1.0, 5e-324, 0.5, 1e-300]) | st.floats(0.0, 1.0),
    )
    def test_weighted_matches_the_generator(self, pair, weight):
        limit, deviation = q.FactorVector(pair[0]), tuple(pair[1])
        family = _CanonicalFamily(limit, deviation, q.DecaySpec("p-series", p=2.0))
        w = complex(weight)
        try:
            want = _loop_amplitudes(a + w * d for a, d in zip(limit.amplitudes, deviation))
        except q.InvalidAmplitude as exc:
            with pytest.raises(q.InvalidAmplitude, match=f"^{re.escape(str(exc))}$"):
                family._weighted(weight)
            return
        assert complex_bits(family._weighted(weight).amplitudes) == complex_bits(want)

    def test_weighted_keeps_zero_signs(self):
        limit = q.FactorVector((-0.0, complex(-0.0, -0.0), 0.0, 0.5))
        deviation = (complex(-0.0, 0.0), -0.0, complex(0.0, -0.0), -1e-300)
        family = _CanonicalFamily(limit, deviation, q.DecaySpec("geometric", ratio=0.5))
        for weight in (0.0, 1.0, 1e-30, 0.5**1074):
            w = complex(weight)
            want = tuple(a + w * d for a, d in zip(limit.amplitudes, deviation))
            assert complex_bits(family._weighted(weight).amplitudes) == complex_bits(want)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 16, 64, 65_536])
    def test_basis_vector_matches_the_generator(self, dim):
        for index in sorted({0, 1 % dim, dim // 2, dim - 1}):
            want = tuple(1.0 + 0j if k == index else 0j for k in range(dim))
            got = q.basis_vector(dim, index).amplitudes
            assert complex_bits(got) == complex_bits(want)


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

    # (kind, declared field, shift, the shifted scale or None where it leaves
    # the float range): a power that overflows, one that underflows to a zero
    # divisor, a quotient past the range, and shifts whose scale stays finite
    SHIFTS = {
        "p-series-power-overflows": ("p-series", {"p": 60.0}, 10**6, None),
        "p-series-huge-p": ("p-series", {"p": 1e308}, 3, None),
        "p-series-huge-shift": ("p-series", {"p": 2.0}, 10**400, None),
        "p-series-in-range": ("p-series", {"p": 2.0}, 10**6, 0.3 * (10**6 + 1) ** 2.0),
        "geometric-power-underflows": ("geometric", {"ratio": 0.5}, 1100, None),
        "geometric-quotient-overflows": ("geometric", {"ratio": 0.5}, 1050, None),
        "geometric-huge-shift": ("geometric", {"ratio": 0.5}, 10**400, None),
        "geometric-in-range": ("geometric", {"ratio": 0.5}, 1000, 0.3 / 0.5**1000),
        "geometric-slow-in-range": ("geometric", {"ratio": 0.999}, 10**5, 0.3 / 0.999**10**5),
    }

    @pytest.mark.parametrize("case", sorted(SHIFTS))
    def test_shifted_scales_past_the_float_range_are_refused(self, case):
        kind, fields, sites, scale = self.SHIFTS[case]
        spec = q.DecaySpec(kind, scale=0.3, **fields)
        tail = q.ParametricTail(1, lambda n: q.FactorVector((1.0,)), q.FactorVector((1.0,)), spec)
        for shift in (spec.shifted, lambda sites: tail.shifted(sites).decay):
            if scale is None:
                with pytest.raises(
                    q.UndeclaredTailClass,
                    match=f"^decay scale shifted {sites} sites lies outside the float range$",
                ):
                    shift(sites)
            else:
                assert shift(sites) == q.DecaySpec(kind, scale=scale, **fields)


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

    @pytest.mark.parametrize(
        "decay", [q.DecaySpec("geometric", ratio=0.5), q.DecaySpec("p-series", p=1.5)],
        ids=["geometric", "p-series"],
    )
    def test_family_rows_build_their_weights_without_weight(self, decay, monkeypatch):
        family = _CanonicalFamily(q.FactorVector((0.6, 0.8)), (0.1 + 0.2j, -0.3), decay)
        monkeypatch.setattr(_CanonicalFamily, "_weight", mock.Mock(side_effect=AssertionError))
        assert family.rows(-3, 200).shape == (203, 2)

    @pytest.mark.parametrize(
        "decay, lo, hi",
        [
            # ratio**n is subnormal from n = 1023 and 0 from n = 1075
            (q.DecaySpec("geometric", ratio=0.5), 1015, 1085),
            (q.DecaySpec("geometric", ratio=0.0), -4, 6),
            # (n + 1)**-200 is subnormal from n = 34 and 0 from n = 41
            (q.DecaySpec("p-series", p=200.0), 25, 50),
            (q.DecaySpec("p-series", p=0.75), -7, 30),
            (q.DecaySpec("eventually-constant", rank=3), -2, 9),
            (q.DecaySpec("custom-certified", scale=0.5), -2, 9),
        ],
        ids=lambda x: x.kind if isinstance(x, q.DecaySpec) else str(x),
    )
    def test_family_rows_are_the_factors_where_weights_underflow(self, decay, lo, hi):
        # signed zeros and subnormals, so any rounding shows in the bytes
        limit = q.FactorVector((0.6, -0.0, 0.8j, complex(-0.0, -0.0)))
        deviation = (complex(0.1, -0.0), complex(-3e-310, 0.2), complex(0.0, -1e-300), complex(0.0, -3e-320))
        family = _CanonicalFamily(limit, deviation, decay)
        want = np.array([family(max(n, 0)).amplitudes for n in range(lo, hi)], dtype=complex)
        assert family.rows(lo, hi).tobytes() == want.tobytes()

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


# -- the prefix arrays ---------------------------------------------------------
#
# Each ProductState keeps its explicit prefix as read-only (sites, dim) arrays,
# one per run of equal dims (``prefix_rows``), and no vector per site.  Walks,
# sector certificates and asymptotic overlaps read brackets off these arrays,
# and keep the bits of the scalar factor_overlap only while einsum adds in the
# same order.


def test_stacked_brackets_match_factor_overlap_bits():
    """Both bracket kernels: every pair of two stacks, and the pairs of a
    key subset, bra term by bra term (``_paired_brackets``): a random subset
    of the grid, and the lower triangle of a side against itself, which the
    density matrix reads."""
    from qsectors.states import _paired_brackets, _stacked_brackets

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

        grid = [(a, b) for a in range(n_bra) for b in range(n_ket)]
        picked = rng.choice(len(grid), size=rng.integers(1, len(grid) + 1), replace=False)
        keys = [grid[k] for k in sorted(picked)]
        got = _paired_brackets(bra, ket, keys)
        assert got.tobytes() == np.array([want[a, b] for a, b in keys]).tobytes(), f"dim {dim}"

        side = rows[: max(n_bra, n_ket)]
        keys = [(a, b) for a in range(len(side)) for b in range(a)]
        if keys:
            got = _paired_brackets(side, side, keys)
            want = [[q.factor_overlap(vec[a][s], vec[b][s]) for s in range(sites)] for a, b in keys]
            assert got.tobytes() == np.array(want).tobytes(), f"dim {dim}"


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
        assert len(s.prefix_rows) == len(s.dim_runs)
        start = 0
        for (end, dim), rows in zip(s.dim_runs, s.prefix_rows):
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
        for rows in s.prefix_rows + (s.rows(3, 60),):
            with pytest.raises(ValueError):
                rows[0, 0] = 1.0

    def test_walks_keep_the_arrays_the_state_holds(self):
        # the arrays are built with the state, so walks neither build nor
        # keep anything on it
        rng = np.random.default_rng(3)
        runs = [(40, 2), (60, 3), (30, 2)]
        a, b = _runs_state(rng, runs), _runs_state(rng, runs)
        held = {name: dict(vars(s)) for name, s in (("a", a), ("b", b))}
        for _ in range(10):
            q.composite_overlap(a, b, 120)
            q.overlap_sweep(a, b, [10, 64, 100, 130])
            q.distance(a, b, 130)
        for name, s in (("a", a), ("b", b)):
            assert vars(s).keys() == held[name].keys()
            assert all(x is y for x, y in zip(s.prefix_rows, held[name]["prefix_rows"]))

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
        assert vars(a).keys() == vars(copy).keys()
        assert a == copy and hash(a) == hash(copy)
        after = (hash(a), pickle.dumps(a), serialize.dumps(serialize.encode_state(a)))
        assert after == before
        back = pickle.loads(after[1])
        assert back == a and vars(back).keys() == vars(a).keys()
        assert back.prefix_rows[1].tobytes() == a.prefix_rows[1].tobytes()


# -- the prefix as arrays, read back as vectors ---------------------------------
#
# A state keeps no FactorVector per prefix site: ``prefix`` and ``factor_at``
# build vectors from its arrays on each read.  Every read, comparison, hash,
# repr, pickle and document must be what the vectors passed in give, bit for
# bit, and walks over the arrays must agree with the site-by-site walk.

_ARRAY_TAILS = ["constant"] + sorted(TAIL_FAMILIES)


def _array_tail(rng, name, dim, shift):
    limit = random_factor(rng, dim)
    if name == "constant":
        return q.ConstantTail(limit)
    return decoded_family(rng, name, 0, limit, shift).tail


@st.composite
def _array_cases(draw):
    """(factors, tail, label, twin): a prefix of 0-150 sites whose dims run
    among 1-5, a constant tail or a decoded family, moved 7 sites or not, and
    a same-shaped twin state of other factors and another limit."""
    length = draw(st.integers(0, 150))
    runs = draw(st.lists(st.tuples(st.integers(1, 40), st.integers(1, 5)), min_size=1, max_size=6))
    dims = list(itertools.islice(itertools.cycle([d for n, d in runs for _ in range(n)]), length))
    name = draw(st.sampled_from(_ARRAY_TAILS))
    shift = draw(st.sampled_from([0, 7]))
    tail_dim = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factors = tuple(random_factor(rng, d) for d in dims)
    label = draw(st.sampled_from([None, "", "a label"]))
    tail = _array_tail(rng, name, tail_dim, shift)
    twin = q.ProductState(
        tuple(random_factor(rng, d) for d in dims), _array_tail(rng, name, tail_dim, shift)
    )
    return factors, tail, label, twin


def _frozen_case(seed):
    """A state of fresh objects, as a caller builds one from numpy rows or
    a decoder builds one from a document: mixed dims, then a constant tail
    or a decoded family, shifted or not, and a label or none."""
    rng = np.random.default_rng([30, seed])
    dims = []
    while len(dims) < int(rng.integers(0, 151)):
        dims += [int(rng.integers(1, 6))] * int(rng.integers(1, 40))
    prefix = tuple(random_factor(rng, d) for d in dims)
    tail_dim = int(rng.integers(1, 6))
    name = _ARRAY_TAILS[seed % len(_ARRAY_TAILS)]
    if name == "constant":
        tail = q.ConstantTail(random_factor(rng, tail_dim))
    else:
        limit = random_factor(rng, tail_dim)
        tail = decoded_family(rng, name, 0, limit, shift=int(rng.integers(0, 2)) * 7).tail
    return q.ProductState(prefix, tail, label=None if seed % 2 else f"case {seed}")


# sha256 of pickle.dumps(_frozen_case(seed), protocol=4), frozen from the
# implementation that kept one FactorVector per prefix site
FROZEN_PICKLES = {
    0: "4e8e26c1f1e638d13138e6070e99ec235651118ba734a0da4c50f59da1160b23",
    1: "129981de8a6d78f3b84dde113e8d1738acf3e5d0bbf96e65dfb0013b4bbd2fa1",
    2: "a6c43cdec1a90b7810c69477e45219377ef8510c8037fa18c84a961469507cc6",
    3: "89c2444d35a88ca6d0c875af04a6872db4a21eb9804f6ae06c36e3f6f96445e6",
    4: "86985dabbed286a5ca8d0e3495bb2251af5d36b69e47d1c052199aec2aac73ec",
    5: "a33b3aac4b1e78e8c692e8aa007f74175eb2af150b60c5dc06b6cb824c1d335a",
    6: "07df2d5d61d0882c146d61a6c669569c80ae900590689b1f31df380b54b3d8f0",
    7: "2ac7d756d4e3f018d37277672c77cdc6ac77d2e8ca6af265cfce251709848ca6",
    8: "ca5e188abfb406900a0e2b1dcadf95d4d06cec74b2bb9ceb130a1c77cb1ccb2c",
    9: "fd6212128854b787e86aa940170835a79d8fd91249ae73a82f0f7f806f757f1c",
}

# pickle.dumps(_TINY, protocol=4) of the same implementation, in full
_C = complex
_TINY = q.ProductState(
    (q.FactorVector((_C(0.6, 0.0), _C(0.0, 0.8))), q.FactorVector((_C(0.6, -0.0), _C(-0.0, -0.8))),
     q.FactorVector((_C(1.0, 0.0), _C(0.0, 0.0), _C(0.0, -0.0)))),
    q.ConstantTail(q.FactorVector((_C(-1.0, 0.0),))),
    label="frozen",
)
TINY_PICKLE = bytes.fromhex(
    "80049597010000000000008c0f71736563746f72732e737461746573948c0c50726f6475"
    "637453746174659493942981947d94288c067072656669789468008c0c466163746f7256"
    "6563746f729493942981947d948c0a616d706c697475646573948c086275696c74696e73"
    "948c07636f6d706c6578949394473fe33333333333334700000000000000008694529468"
    "0d470000000000000000473fe999999999999a869452948694736268072981947d94680a"
    "680d473fe333333333333347800000000000000086945294680d47800000000000000047"
    "bfe999999999999a869452948694736268072981947d94680a680d473ff0000000000000"
    "47000000000000000086945294680d470000000000000000470000000000000000869452"
    "94680d470000000000000000478000000000000000869452948794736287948c04746169"
    "6c9468008c0c436f6e7374616e745461696c9493942981947d948c06766563746f729468"
    "072981947d94680a680d47bff00000000000004700000000000000008694529485947362"
    "73628c056c6162656c948c0666726f7a656e9475622e"
)


# the earlier pickle of ``shared`` in test_one_vector_at_two_sites_pickles_as_two
SHARED_PICKLE = bytes.fromhex(
    "80049517010000000000008c0f71736563746f72732e737461746573948c0c50726f6475"
    "637453746174659493942981947d94288c067072656669789468008c0c466163746f7256"
    "6563746f729493942981947d948c0a616d706c697475646573948c086275696c74696e73"
    "948c07636f6d706c6578949394473fe33333333333334700000000000000008694529468"
    "0d470000000000000000473fe999999999999a8694529486947362680886948c04746169"
    "6c9468008c0c436f6e7374616e745461696c9493942981947d948c06766563746f729468"
    "072981947d94680a680d473ff000000000000047000000000000000086945294680d4700"
    "00000000000000470000000000000000869452948694736273628c056c6162656c944e75"
    "622e"
)


def _bits(factors):
    return complex_bits(itertools.chain.from_iterable(f.amplitudes for f in factors))


class TestArrayPrefix:
    @settings(max_examples=40, deadline=None)
    @given(_array_cases())
    def test_reads_are_the_vectors_passed_in(self, case):
        factors, tail, label, _ = case
        s = q.ProductState(factors, tail, label)
        p = len(factors)
        assert repr(s.prefix) == repr(factors) and _bits(s.prefix) == _bits(factors)
        assert s.prefix_len == p and s.dim_runs == _dim_runs_by_site(s)
        assert [d for end, d in s.dim_runs] == [len(r[0]) for r in s.prefix_rows]
        for k in range(p + 3):
            want = factors[k] if k < p else tail.factor_at(k)
            assert _bits([s.factor_at(k)]) == _bits([want]) and s.dim_at(k) == want.dim
        start = 0
        for end, dim in s.dim_runs:
            for lo, hi in ((start, end), (start, (start + end + 1) // 2), (end - 1, end)):
                want = np.array([f.amplitudes for f in factors[lo:hi]], dtype=complex)
                assert s.rows(lo, hi).tobytes() == want.tobytes()
            start = end
        # what the dataclass made of the vectors: equality, hash and repr
        copy = q.ProductState(tuple(q.FactorVector(f.amplitudes) for f in factors), tail, label)
        assert s == copy and hash(s) == hash(copy) == hash((factors, tail, label))
        assert repr(s) == f"ProductState(prefix={factors!r}, tail={tail!r}, label={label!r})"
        assert s != q.ProductState(factors, tail, "other")
        if p:
            assert s != q.ProductState(factors[1:], tail, label)
            moved = tuple(q.FactorVector(f.amplitudes[::-1]) for f in factors)
            assert (s == q.ProductState(moved, tail, label)) == (moved == factors)

    @settings(max_examples=40, deadline=None)
    @given(_array_cases())
    def test_documents_round_trip_byte_for_byte(self, case):
        from qsectors import serialize

        factors, tail, label, _ = case
        s = q.ProductState(factors, tail, label)
        if getattr(tail, "shift", 0) and tail.decay.kind == "p-series":
            with pytest.raises(q.UndeclaredTailClass):
                serialize.encode_state(s)
            return
        text = serialize.dumps(serialize.encode_state(s))
        back = serialize.decode_state(serialize.loads(text))
        assert serialize.dumps(serialize.encode_state(back)) == text
        assert _bits(back.prefix) == _bits(factors) and back.dim_runs == s.dim_runs

    @settings(max_examples=30, deadline=None)
    @given(_array_cases())
    def test_walks_agree_with_the_site_by_site_walk(self, case):
        factors, tail, label, twin = case
        s = q.ProductState(factors, tail, label)
        p = len(factors)
        cuts = sorted({1, 10, 64, 65, p + 1, p + 50} | ({p} if p else set()))
        got = q.overlap_sweep(s, twin, cuts)
        want = site_by_site(pytest.MonkeyPatch(), q.overlap_sweep, s, twin, cuts)
        pairs = [list(zip(w.values, w.log_modulus)) for w in (got, want)]
        assert_walks_agree(s, twin, *pairs, cuts)

    def test_norms_past_the_float_range_read_as_the_vectors_read_them(self):
        # the norm reads square amplitudes as arrays; a square past the float
        # range is inf, as the vectors' own Python arithmetic makes it, and
        # no warning is raised (the test settings make warnings errors)
        from qsectors.states import _prefix_norms

        factors = (q.FactorVector((1e200, 1.0)), q.FactorVector((0.6, 0.8j)), q.FactorVector((1e-200j, 0.0)))
        s = q.ProductState(factors, q.ConstantTail(q.FactorVector((1.0, 0.0))))
        assert _prefix_norms(s) == [f.norm for f in factors] == [math.inf, 1.0, 0.0]
        assert q.classify_sequence(s).kind == q.classify_sequence(
            q.ProductState(tuple(q.FactorVector(f.amplitudes) for f in factors), s.tail)
        ).kind

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 16])
    def test_norms_of_short_and_long_runs_keep_the_bits(self, dim):
        # runs of at most ROW_LOOP_MAX amplitudes go through the vectors' own
        # loop, longer ones through _row_norms; both give FactorVector.norm
        from qsectors.states import ROW_LOOP_MAX, _prefix_norms

        rng = np.random.default_rng(dim)
        for sites in {1, ROW_LOOP_MAX // dim, ROW_LOOP_MAX // dim + 1, 40}:
            if not sites:
                continue
            scale = rng.choice([1e-200, 1.0, 1e200], size=(sites, dim))
            rows = (rng.normal(size=(sites, dim)) + 1j * rng.normal(size=(sites, dim))) * scale
            factors = tuple(q.FactorVector(tuple(r.tolist())) for r in rows)
            other = q.FactorVector((1.0,) * (dim % 3 + 1))
            s = q.ProductState(factors + (other,), q.ConstantTail(q.FactorVector((1.0, 0.0))))
            assert _prefix_norms(s) == [f.norm for f in s.prefix]

    def test_reads_check_no_amplitude_again(self, monkeypatch):
        rng = np.random.default_rng(11)
        s = _runs_state(rng, [(70, 2), (5, 3)])
        checked = []
        real = q.FactorVector.__post_init__
        monkeypatch.setattr(q.FactorVector, "__post_init__", lambda v: checked.append(v) or real(v))
        assert len(s.prefix) == 75 and [s.factor_at(k).dim for k in (0, 69, 70, 74)] == [2, 2, 3, 3]
        assert checked == []

    @pytest.mark.parametrize("seed", sorted(FROZEN_PICKLES))
    def test_pickles_keep_their_bytes(self, seed):
        import hashlib

        s = _frozen_case(seed)
        data = pickle.dumps(s, protocol=4)
        assert hashlib.sha256(data).hexdigest() == FROZEN_PICKLES[seed]
        back = pickle.loads(data)
        assert back == s and _bits(back.prefix) == _bits(s.prefix)
        assert vars(back).keys() == vars(s).keys()

    def test_an_earlier_pickle_loads_to_an_equal_state(self):
        assert pickle.dumps(_TINY, protocol=4) == TINY_PICKLE
        back = pickle.loads(TINY_PICKLE)
        assert back == _TINY and repr(back) == repr(_TINY) and _bits(back.prefix) == _bits(_TINY.prefix)
        assert [r.shape for r in back.prefix_rows] == [(2, 2), (1, 3)]
        assert all(not r.flags.writeable for r in back.prefix_rows)

    def test_one_vector_at_two_sites_pickles_as_two(self):
        # an earlier pickle wrote a reference to a vector object passed at
        # two sites; a state holds no vector objects, so every site is
        # written out, as for equal vectors that are distinct objects
        v = q.FactorVector((_C(0.6, 0.0), _C(0.0, 0.8)))
        tail = q.ConstantTail(q.FactorVector((_C(1.0, 0.0), _C(0.0, 0.0))))
        shared = q.ProductState((v, v), tail)
        fresh = q.ProductState(tuple(q.FactorVector(tuple(np.array(v.amplitudes).tolist())) for _ in "ab"), tail)
        assert pickle.dumps(shared, protocol=4) == pickle.dumps(fresh, protocol=4)
        assert pickle.loads(SHARED_PICKLE) == shared
        assert pickle.dumps(shared, protocol=4) != SHARED_PICKLE

    def test_a_state_keeps_no_vector_per_site(self):
        import gc
        import tracemalloc

        sites = 20_000
        rows = np.random.default_rng(12).normal(size=(sites, 2, 2)).view(complex)[..., 0]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            factors = [q.FactorVector(tuple(row.tolist())) for row in rows]
            s = q.ProductState(factors, q.ConstantTail(q.FactorVector((0.6, 0.8))))
            del factors
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert s.prefix_len == sites
        assert kept <= 64 * sites, f"{kept / sites:.0f} bytes per site"


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

    @pytest.mark.parametrize("prefix", [0, 3, 14])
    def test_short_stretches_go_one_site_at_a_time(self, prefix, monkeypatch):
        # a stretch of one dim is read as rows past ROW_LOOP_MAX amplitudes,
        # over explicit prefixes, closed rows and plain callbacks alike
        from qsectors import states
        from qsectors.states import ROW_LOOP_MAX, _prefix_brackets

        rng = np.random.default_rng(50 + prefix)
        tails = _row_tails(rng, 2)
        stacks = []
        real_stack = states._stacked_brackets
        monkeypatch.setattr(states, "_stacked_brackets", lambda *a: stacks.append(a) or real_stack(*a))
        explicit = tuple(random_factor(rng, 2) for _ in range(prefix))
        for tail in tails:
            x, y = q.ProductState(explicit, tail), q.ProductState(explicit[::-1], tails[0])
            for n in sorted({prefix, prefix + 1, ROW_LOOP_MAX // 2, ROW_LOOP_MAX // 2 + 1, prefix + 20}):
                for a, b in ((x, y), (y, x)):
                    stacks.clear()
                    assert repr(_prefix_brackets(a, b, n)) == repr(_scalar_brackets(a, b, n))
                    long = [lo for lo, hi in states._spans(a, n) if 2 * (hi - lo) > ROW_LOOP_MAX]
                    assert len(stacks) == len(long)


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
