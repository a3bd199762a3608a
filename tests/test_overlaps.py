import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsectors as q
from qsectors.oracle import dense_overlap, densify

from support import random_factor, random_product_state

E0 = q.FactorVector((1.0, 0.0))
E1 = q.FactorVector((0.0, 1.0))


def constant_state(prefix=(), tail_vec=E0):
    return q.make_product_state(prefix, q.ConstantTail(tail_vec))


class TestTruncatedOverlap:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            a = random_product_state(rng, dim=3, max_prefix=4, unit=False)
            b = random_product_state(rng, dim=3, max_prefix=4, unit=False)
            for n in (1, 3, 6):
                got = q.truncated_overlap(a, b, n)
                want = dense_overlap(densify(a, n), densify(b, n))
                assert abs(got - want) < 1e-12 * max(1.0, abs(want))

    def test_truncation_zero_is_one(self):
        assert q.truncated_overlap(constant_state(), constant_state((E1,)), 0) == 1.0

    def test_negative_truncation(self):
        with pytest.raises(q.PreconditionViolated):
            q.truncated_overlap(constant_state(), constant_state(), -1)

    def test_shape_mismatch(self):
        three = q.make_product_state((), q.ConstantTail(q.basis_vector(3, 0)))
        with pytest.raises(q.ShapeMismatch):
            q.truncated_overlap(constant_state(), three, 2)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12))
    def test_conjugate_symmetry(self, seed, n):
        rng = np.random.default_rng(seed)
        a = random_product_state(rng, dim=2, unit=False, parametric=True)
        b = random_product_state(rng, dim=2, unit=False, parametric=True)
        lhs = q.truncated_overlap(a, b, n)
        rhs = q.truncated_overlap(b, a, n)
        assert cmath.isclose(lhs, rhs.conjugate(), rel_tol=0, abs_tol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12))
    def test_cauchy_schwarz(self, seed, n):
        rng = np.random.default_rng(seed)
        a = random_product_state(rng, dim=2, unit=False)
        b = random_product_state(rng, dim=2, unit=False)
        cross = abs(q.truncated_overlap(a, b, n)) ** 2
        aa = q.truncated_overlap(a, a, n).real
        bb = q.truncated_overlap(b, b, n).real
        assert cross <= aa * bb * (1.0 + 1e-9) + 1e-12

    def test_deep_truncation_underflows_gracefully(self):
        # 2^-5000 in plain floats is 0, but the log stays finite
        plus = q.FactorVector((2**-0.5, 2**-0.5))
        v = q.truncated_overlap(constant_state(tail_vec=plus), constant_state(), 10_000)
        assert v == 0j
        sweep = q.overlap_sweep(
            constant_state(tail_vec=plus), constant_state(), [10_000]
        )
        assert sweep.log_modulus[0] == pytest.approx(10_000 * math.log(2**-0.5))

    def test_direct_regime_boundary_is_seamless(self):
        rng = np.random.default_rng(5)
        a = random_product_state(rng, dim=2, max_prefix=0, parametric=True)
        b = random_product_state(rng, dim=2, max_prefix=0, parametric=True)
        at_limit = q.truncated_overlap(a, b, 64)
        past = q.truncated_overlap(a, b, 65)
        # consecutive cuts differ by one factor overlap, nothing more
        extra = q.factor_overlap(a.factor_at(64), b.factor_at(64))
        assert abs(past - at_limit * extra) < 1e-12 * max(1.0, abs(past))


class TestCompositeOverlap:
    def test_bilinear_in_terms(self):
        rng = np.random.default_rng(3)
        s1 = random_product_state(rng, dim=2, unit=False)
        s2 = random_product_state(rng, dim=2, unit=False)
        t1 = random_product_state(rng, dim=2, unit=False)
        a = q.CompositeState(((0.5 + 0.1j, s1), (-0.25j, s2)))
        direct = q.composite_overlap(a, t1.as_composite(), 6)
        expected = (0.5 + 0.1j).conjugate() * q.truncated_overlap(
            s1, t1, 6
        ) + (-0.25j).conjugate() * q.truncated_overlap(s2, t1, 6)
        assert abs(direct - expected) < 1e-12

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            parts_a = [random_product_state(rng, dim=2, unit=False) for _ in range(2)]
            parts_b = [random_product_state(rng, dim=2, unit=False) for _ in range(3)]
            a = q.CompositeState(tuple((rng.normal(), s) for s in parts_a))
            b = q.CompositeState(tuple((rng.normal(), s) for s in parts_b))
            got = q.composite_overlap(a, b, 5)
            want = dense_overlap(densify(a, 5), densify(b, 5))
            assert abs(got - want) < 1e-11

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 200])
    def test_product_states_match_truncated_overlap(self, n):
        # same walk on both sides of the direct/log-space switch at DIRECT_LIMIT
        rng = np.random.default_rng(100 + n)
        for parametric in (False, True):
            a = random_product_state(rng, dim=2, max_prefix=4, parametric=parametric)
            b = random_product_state(rng, dim=2, max_prefix=4, parametric=True)
            assert repr(q.truncated_overlap(a, b, n)) == repr(q.composite_overlap(a, b, n))

    def test_accepts_plain_product_states(self):
        v = q.composite_overlap(constant_state(), constant_state(), 3)
        assert v == pytest.approx(1.0)


class TestOverlapSweep:
    def test_requires_cuts(self):
        with pytest.raises(q.PreconditionViolated):
            q.overlap_sweep(constant_state(), constant_state(), [])

    def test_requires_increasing_cuts(self):
        with pytest.raises(q.PreconditionViolated):
            q.overlap_sweep(constant_state(), constant_state(), [2, 2])
        with pytest.raises(q.PreconditionViolated):
            q.overlap_sweep(constant_state(), constant_state(), [0, 1])

    def test_agrees_with_pointwise_truncation(self):
        rng = np.random.default_rng(21)
        a = random_product_state(rng, dim=2, unit=False, parametric=True)
        b = random_product_state(rng, dim=2, unit=False, parametric=True)
        cuts = [1, 2, 5, 9, 70]
        sweep = q.overlap_sweep(a, b, cuts)
        assert sweep.truncations == tuple(cuts)
        for n, v in zip(sweep.truncations, sweep.values):
            assert abs(v - q.truncated_overlap(a, b, n)) < 1e-10

    def test_log_modulus_monotone_for_unit_factors(self):
        plus = q.FactorVector((2**-0.5, 2**-0.5))
        sweep = q.overlap_sweep(
            constant_state(tail_vec=plus), constant_state(), range(1, 120)
        )
        diffs = [b - a for a, b in zip(sweep.log_modulus, sweep.log_modulus[1:])]
        assert all(d <= 1e-12 for d in diffs)

    def test_first_below(self):
        sweep = q.OverlapSweep((1, 2, 3), (0.5, 0.25, 0.125), tuple(
            math.log(x) for x in (0.5, 0.25, 0.125)
        ))
        assert sweep.first_below(0.3) == 2
        assert sweep.first_below(0.125) is None  # the comparison is strict
        assert sweep.first_below(0.1251) == 3
        assert sweep.first_below(0.01) is None
        with pytest.raises(q.PreconditionViolated):
            sweep.first_below(0.0)

    def test_column_length_mismatch(self):
        with pytest.raises(q.PreconditionViolated):
            q.OverlapSweep((1, 2), (1.0,), (0.0, 0.0))


class TestAsymptoticOverlap:
    def test_same_sector_converges_to_declared_value(self):
        def fn(n):
            return q.FactorVector((1.0, 0.3 * 0.5 ** n)).normalized()

        tail = q.ParametricTail(
            dim=2,
            factor_fn=fn,
            limit=E0,
            decay=q.DecaySpec(kind="geometric", ratio=0.5, scale=0.6),
        )
        s = q.ProductState(prefix=(), tail=tail)
        value = q.asymptotic_overlap(s, constant_state())
        partial = q.truncated_overlap(s, constant_state(), 400)
        assert abs(value - partial) < 1e-9

    def test_different_sector_gives_zero(self):
        tilt = q.FactorVector((math.cos(0.4), math.sin(0.4)))
        assert q.asymptotic_overlap(constant_state(), constant_state(tail_vec=tilt)) == 0j

    def test_inconclusive_raises(self):
        delta = math.sqrt(2e-10)
        near = q.FactorVector((1.0, delta)).normalized()
        with pytest.raises(q.InconclusiveSector):
            q.asymptotic_overlap(constant_state(), constant_state(tail_vec=near))

    def test_finite_prefix_scales_the_limit(self):
        tilted = constant_state(prefix=(q.FactorVector((0.6, 0.8)),))
        value = q.asymptotic_overlap(tilted, constant_state())
        assert value == pytest.approx(0.6)
