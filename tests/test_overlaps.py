import cmath
import copy
import dataclasses
import math
import pickle
import struct
import sys
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsectors as q
from qsectors import operators, overlaps, products
from qsectors.decoherence import premeasurement_state
from qsectors.operators import (
    ConstantOperatorTail,
    FactoredOperator,
    FactorOperator,
    IdentityTail,
    OperatorTerm,
)
from qsectors.oracle import dense_overlap, densify
from qsectors.serialize import decode_state, encode_complex
from qsectors.states import _CanonicalFamily

from support import (
    TAIL_FAMILIES,
    assert_walks_agree,
    complex_bits,
    decoded_family,
    log_mass,
    near,
    random_factor,
    random_operator,
    random_product_state,
    site_brackets,
    site_by_site,
)

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

    @pytest.mark.parametrize("n", [10, 64, 65, 100])
    def test_terms_that_cancel_read_zero_on_both_sides_of_the_switch(self, n):
        # the weighted pair products cancel exactly: 0 with log modulus -inf,
        # from the direct sum up to DIRECT_LIMIT and the shifted log form past it
        tilted = constant_state(tail_vec=q.FactorVector((0.8, 0.6)))
        ket = q.CompositeState(((1.0, tilted), (-1.0, tilted)))
        sweep = q.overlap_sweep(constant_state(), ket, [n])
        assert (sweep.values, sweep.log_modulus) == ((0j,), (-math.inf,))
        assert q.composite_overlap(constant_state(), ket, n) == 0j


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

    @pytest.mark.parametrize("truncations", [(2, 1), (3, 3), (1, 5, 4)])
    def test_truncations_must_increase(self, truncations):
        k = len(truncations)
        with pytest.raises(q.PreconditionViolated, match="^truncations must be strictly increasing$"):
            q.OverlapSweep(truncations, (1.0,) * k, (0.0,) * k)


# -- compact sweep columns ------------------------------------------------------
#
# ``OverlapSweep`` keeps its values and log moduli as numpy columns.  Its
# public surface is compared here with the frozen dataclass of tuples it used
# to be, kept below as it was.


@dataclasses.dataclass(frozen=True)
class _TupleSweep:
    truncations: tuple
    values: tuple
    log_modulus: tuple

    def __post_init__(self):
        if not (len(self.truncations) == len(self.values) == len(self.log_modulus)):
            raise q.PreconditionViolated("sweep columns must have equal lengths")
        if any(b <= a for a, b in zip(self.truncations, self.truncations[1:])):
            raise q.PreconditionViolated("truncations must be strictly increasing")

    def first_below(self, eps):
        if not (eps > 0.0):
            raise q.PreconditionViolated("eps must be positive")
        threshold = math.log(eps)
        for n, log_mod in zip(self.truncations, self.log_modulus):
            if log_mod < threshold:
                return n
        return None


def _both(*columns):
    return q.OverlapSweep(*columns), _TupleSweep(*columns)


NAN = float("nan")
EDGE_VALUES = (
    -0.0 + 0j, complex(0.0, -0.0), complex(-0.0, -0.0), complex(math.inf, -math.inf),
    complex(NAN, 1.0), complex(5e-324, -5e-324), complex(2.2250738585072014e-308, 1e-310),
    complex(1e308, -1e-300), 1j,
)
EDGE_LOGS = (-0.0, 0.0, math.inf, -math.inf, NAN, 5e-324, -5e-324, -1e300, 709.78)
EDGE_CUTS = (1, 2, 64, 65, 10**15, 2**63, 10**20, 10**300, 10**400)


def _float_bits(values):
    return b"".join(struct.pack("<d", x) for x in values)


class TestCompactSweep:
    def test_columns_read_back_with_their_bits(self):
        sweep = q.OverlapSweep(EDGE_CUTS, EDGE_VALUES, EDGE_LOGS)
        assert sweep.truncations == EDGE_CUTS
        assert all(type(n) is int for n in sweep.truncations)
        assert all(type(z) is complex for z in sweep.values)
        assert all(type(x) is float for x in sweep.log_modulus)
        assert complex_bits(sweep.values) == complex_bits(EDGE_VALUES)
        assert _float_bits(sweep.log_modulus) == _float_bits(EDGE_LOGS)
        assert sweep._values.dtype == np.complex128 and sweep._log_modulus.dtype == np.float64

    def test_repr_is_the_dataclass_repr(self):
        new, old = _both(EDGE_CUTS, EDGE_VALUES, EDGE_LOGS)
        assert repr(new) == repr(old).replace("_TupleSweep", "OverlapSweep", 1)
        assert repr(q.OverlapSweep((), (), ())) == "OverlapSweep(truncations=(), values=(), log_modulus=())"

    def test_keywords_and_columns_of_any_sequence(self):
        sweep = q.OverlapSweep(truncations=[1, 3], values=np.array([0.5j, 1.0]), log_modulus=(0, -1))
        assert repr(sweep) == repr(q.OverlapSweep((1, 3), (0.5j, 1 + 0j), (0.0, -1.0)))

    def test_equality_and_hash_follow_the_dataclass(self):
        base = ((1, 2, 3), (0.5 + 0j, -0.25j, 1e-300 + 0j), (-0.7, -1.4, -690.0))
        others = [
            base,
            ((1, 2, 3), (0.5 + 0j, -0.25j, 1e-300 + 0j), (-0.7, -1.4, -690.0)),
            ((1, 2, 3), (complex(0.5, -0.0), complex(-0.0, -0.25), 1e-300 + 0j), (-0.7, -1.4, -690.0)),
            ((1, 2, 4), base[1], base[2]),
            ((1, 2, 3), (0.5 + 0j, -0.25j, 2e-300 + 0j), base[2]),
            ((1, 2, 3), base[1], (-0.7, -1.4, math.nextafter(-690.0, 0.0))),
            ((1, 2), base[1][:2], base[2][:2]),
            ((1, 2, 3), base[1], (-0.7, NAN, -690.0)),
        ]
        new, old = _both(*base)
        for columns in others:
            new2, old2 = _both(*columns)
            assert (new == new2) is (old == old2)
            assert (new != new2) is (old != old2)
            if new == new2:
                assert hash(new) == hash(new2)
        assert new != old and new != base

    def test_a_sweep_with_nan_hashes_the_same_each_time(self):
        new, old = _both((1, 2), (complex(NAN, 0.0), 1j), (NAN, 0.0))
        assert new == new and old == old
        assert hash(new) == hash(new) and new in {new}
        # as floats do, two NaNs that are not one object compare unequal
        twin, old_twin = _both((1, 2), (complex(float("nan"), 0.0), 1j), (float("nan"), 0.0))
        assert new != twin and old != old_twin

    def test_pickles_and_copies_keep_the_columns(self):
        sweep = q.OverlapSweep(EDGE_CUTS, EDGE_VALUES, EDGE_LOGS)
        for back in (pickle.loads(pickle.dumps(sweep)), copy.copy(sweep), copy.deepcopy(sweep)):
            assert type(back) is q.OverlapSweep
            assert repr(back) == repr(sweep)
            assert complex_bits(back.values) == complex_bits(EDGE_VALUES)
            assert _float_bits(back.log_modulus) == _float_bits(EDGE_LOGS)
            assert not back._values.flags.writeable
        plain = q.OverlapSweep((1, 5), (0.5j, 1 + 0j), (-0.7, 0.0))
        assert pickle.loads(pickle.dumps(plain)) == plain

    @pytest.mark.parametrize("name", ["truncations", "values", "log_modulus", "_values", "other"])
    def test_immutable(self, name):
        new, old = _both((1, 2), (1j, 0.5 + 0j), (0.0, -0.7))
        for sweep in (new, old):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(sweep, name, ())
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(sweep, name)
        assert not new._values.flags.writeable and not new._log_modulus.flags.writeable
        with pytest.raises(ValueError):
            new._log_modulus[0] = 1.0
        assert repr(new) == repr(old).replace("_TupleSweep", "OverlapSweep", 1)

    @pytest.mark.parametrize("eps", [
        1e-300, 0.3, 0.5, math.nextafter(0.5, 1.0), 1.0, 1.5, 1e308, math.inf, 5e-324, 10**400,
    ])
    def test_first_below_agrees(self, eps):
        logs = (math.log(0.5), NAN, -math.inf, -0.0, math.log(0.25), 700.0, NAN, -1e300)
        cuts = tuple(range(3, 3 + 4 * len(logs), 4))
        values = (1j,) * len(logs)
        new, old = _both(cuts, values, logs)
        assert new.first_below(eps) == old.first_below(eps)
        for k in range(len(logs)):  # each suffix, so each entry is the first one read
            new, old = _both(cuts[k:], values[k:], logs[k:])
            assert new.first_below(eps) == old.first_below(eps)
        assert q.OverlapSweep((), (), ()).first_below(eps) is None

    @pytest.mark.parametrize("eps", [0.0, -1.0, NAN, -math.inf])
    def test_first_below_refuses_a_bad_eps(self, eps):
        for sweep in _both((1,), (1j,), (0.0,)):
            with pytest.raises(q.PreconditionViolated, match="^eps must be positive$"):
                sweep.first_below(eps)

    @pytest.mark.parametrize("cuts", [(1.5, 2.5), (1, 2.0), (True, 2), ("1", 2), (None, 2)])
    def test_refuses_cuts_that_are_not_ints(self, cuts):
        with pytest.raises(q.PreconditionViolated, match="is not an integer"):
            q.OverlapSweep(cuts, (1.0, 0.5), (0.0, -0.69))

    def test_numpy_int_cuts_become_ints(self):
        sweep = q.OverlapSweep(np.array([1, 7]), (1j, 1j), (0.0, 0.0))
        assert sweep.truncations == (1, 7) and all(type(n) is int for n in sweep.truncations)
        assert sweep == q.OverlapSweep((np.int32(1), np.uint8(7)), (1j, 1j), (0.0, 0.0))

    @pytest.mark.parametrize("values, logs", [
        (("x", 1j), (0.0, 0.0)),
        ((1j, 1j), (0.0, 1j)),
        (((1j,), (1j,)), (0.0, 0.0)),
        ((1j, 1j), ((0.0,), (0.0,))),
        ((1j, 10**400), (0.0, 0.0)),
        ((1j, 1j), (0.0, -(10**400))),
    ])
    def test_refuses_columns_that_are_not_numbers(self, values, logs):
        with pytest.raises(q.PreconditionViolated, match="^sweep columns must be"):
            q.OverlapSweep((1, 2), values, logs)

    @pytest.mark.parametrize("values, logs", [
        ((1j, None), (0.0, 0.0)),
        (("1", 1j), (0.0, 0.0)),
        ((b"1", 1j), (0.0, 0.0)),
        ((True, 1j), (0.0, 0.0)),
        ((1j, np.bool_(False)), (0.0, 0.0)),
        (np.array([1j, None], dtype=object), (0.0, 0.0)),
        (np.array(["1", "1j"]), (0.0, 0.0)),
        ((1j, 1j), (None, 0.0)),
        ((1j, 1j), (0.0, "-1")),
        ((1j, 1j), (b"0", 0.0)),
        ((1j, 1j), (0.0, False)),
        ((1j, 1j), np.array([True, False])),
    ])
    def test_refuses_entries_numpy_would_read_as_numbers(self, values, logs):
        # np.array(..., dtype=complex) reads None as NaN and "1" as 1
        with pytest.raises(q.PreconditionViolated, match="^sweep columns must be numbers: found"):
            q.OverlapSweep((1, 2), values, logs)

    def test_numbers_of_other_types_are_read(self):
        sweep = q.OverlapSweep(
            (1, 2, 3), [1, np.float32(0.5), Fraction(1, 4)], np.array([0, -1, -2], dtype=np.int8)
        )
        want = q.OverlapSweep((1, 2, 3), (1 + 0j, 0.5 + 0j, 0.25 + 0j), (0.0, -1.0, -2.0))
        assert repr(sweep) == repr(want)

    def test_a_thousand_cut_sweep_keeps_under_40_bytes_a_cut(self):
        """Two numpy columns (24 B a cut) and the tuple of cuts (8 B a cut,
        sharing the caller's ints); the dataclass of tuples kept about 78."""
        import tracemalloc

        a, b = constant_state(), constant_state(tail_vec=q.FactorVector((0.8, 0.6)))
        cuts = list(range(1000, 1_001_000, 1000))
        tracemalloc.start()
        try:
            sweep = q.overlap_sweep(a, b, cuts)
            held = tracemalloc.get_traced_memory()[0]
            del sweep
            kept = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept <= 40 * len(cuts)


class TestIntegerCuts:
    """Truncations are ints: ``operator.index`` reads each one, so numpy
    integers become ints and bools, floats and NaN are refused."""

    @staticmethod
    def _pair():
        return constant_state(tail_vec=q.FactorVector((0.6, 0.8))), constant_state()

    @pytest.mark.parametrize("cuts", [[3, 100.5], [2.5, 100.0], [True, 5], [1, 2.0], [1, "2"]])
    def test_a_sweep_refuses_cuts_that_are_not_ints(self, cuts):
        a, b = self._pair()
        with pytest.raises(q.PreconditionViolated, match="is not an integer$"):
            q.overlap_sweep(a, b, cuts)

    @pytest.mark.parametrize("cut", [math.nan, 100.5, 3.0, True, False, np.True_, None])
    def test_a_single_cut_refuses_what_is_not_an_int(self, cut):
        a, b = self._pair()
        with pytest.raises(q.PreconditionViolated, match="is not an integer$"):
            q.truncated_overlap(a, b, cut)
        with pytest.raises(q.PreconditionViolated, match="is not an integer$"):
            q.distance(a, b, cut)

    def test_a_fractional_cut_no_longer_reads_a_fraction_of_a_run(self):
        # a fractional cut used to read 97.5 steps of the run here
        a, b = self._pair()
        with pytest.raises(q.PreconditionViolated):
            q.overlap_sweep(a, b, [3, 100.5])
        assert q.overlap_sweep(a, b, [3, 100]).values[1] == q.truncated_overlap(a, b, 100)

    def test_numpy_integers_become_ints(self):
        a, b = self._pair()
        sweep = q.overlap_sweep(a, b, [np.int64(3), np.uint8(70), np.int32(100)])
        assert sweep.truncations == (3, 70, 100)
        assert all(type(n) is int for n in sweep.truncations)
        assert repr(sweep) == repr(q.overlap_sweep(a, b, [3, 70, 100]))
        assert repr(q.truncated_overlap(a, b, np.int64(100))) == repr(sweep.values[2])
        assert q.distance(a, b, np.int16(7)) == q.distance(a, b, 7)

    def test_expectation_sweeps_read_their_cuts_alike(self):
        a, _ = self._pair()
        op = q.FactoredOperator((
            OperatorTerm(1.0, (), ConstantOperatorTail(FactorOperator(((0.5, 0.0), (0.0, 1.0))))),
        ))
        with pytest.raises(q.PreconditionViolated, match="is not an integer$"):
            q.expectation_sweep(op, a, [2, 7.5])
        assert q.expectation_sweep(op, a, [np.int64(7)]).truncations == (7,)


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

    # one tail per declared class the combined tail tag reads; each limit is
    # E0, so every pair shares a sector and the overlap product is walked
    @staticmethod
    def _tail_state(fn, decay, prefix=()):
        return q.ProductState(prefix, q.ParametricTail(2, fn, E0, decay))

    def test_a_custom_certified_tail_takes_the_numeric_verdict(self):
        s = self._tail_state(
            lambda n: q.FactorVector((1.0, 0.3 * 0.5**n)).normalized(),
            q.DecaySpec("custom-certified", scale=0.6),
        )
        assert overlaps._combined_tail_class(s, constant_state()) == {"klass": "custom"}
        # <E0|b_n> = (1 + 0.09 * 4**-n) ** -1/2
        with mpmath.workdps(40):
            want = mpmath.nprod(lambda n: (1 + 0.09 * mpmath.mpf(4) ** -n) ** -0.5, [0, mpmath.inf])
        assert abs(q.asymptotic_overlap(s, constant_state()) - complex(want)) < 1e-13

    @pytest.mark.parametrize("prefix_len, rank", [(0, 1), (0, 16), (3, 5)])
    def test_eventually_constant_tails_take_the_eventually_one_verdict(self, prefix_len, rank):
        # the onset stays within 16 sites of the prefix
        tilt = q.FactorVector((0.8, 0.6))
        s = self._tail_state(
            lambda n: tilt if n < rank else E0,
            q.DecaySpec("eventually-constant", rank=rank, scale=0.7),
            prefix=(E0,) * prefix_len,
        )
        other = self._tail_state(lambda n: E0, q.DecaySpec("eventually-constant", rank=2, scale=0.0))
        assert overlaps._combined_tail_class(s, other) == {"klass": "eventually-one"}
        value = q.asymptotic_overlap(s, other)
        assert value == pytest.approx(0.8 ** (rank - prefix_len), rel=1e-14)
        assert value == q.truncated_overlap(s, other, rank + 16)

    def test_p_series_tails_take_the_smaller_p(self):
        steep = self._tail_state(
            lambda n: q.FactorVector((1.0, 0.3 * (n + 1) ** -3.0)).normalized(),
            q.DecaySpec("p-series", p=3.0, scale=0.6),
        )
        slow = self._tail_state(
            lambda n: q.FactorVector((1.0, 0.2 * (n + 1) ** -2.0)).normalized(),
            q.DecaySpec("p-series", p=2.0, scale=0.4),
        )
        assert overlaps._combined_tail_class(steep, slow) == {"klass": "p-series-log-modulus", "p": 2.0}
        assert overlaps._combined_tail_class(steep, constant_state()) == {
            "klass": "p-series-log-modulus", "p": 3.0
        }

        def bracket(m):  # <steep_n|slow_n> with m = n + 1
            a, b = 0.3 * m**-3, 0.2 * m**-2
            return (1 + a * b) / mpmath.sqrt((1 + a * a) * (1 + b * b))

        with mpmath.workdps(40):
            want = mpmath.nprod(bracket, [1, mpmath.inf])
        got = q.asymptotic_overlap(steep, slow)
        assert abs(got - complex(want)) < 1e-10
        # the walk read far out agrees too
        assert abs(got - q.truncated_overlap(steep, slow, 20_000)) < 1e-10

    def test_a_rotating_tail_declared_summable_quasi_converges_to_zero(self):
        # each factor is e^{0.01 i} E0: the moduli are 1, the phase sum runs
        # away, and the custom-certified declaration is wrong
        spin = q.FactorVector((cmath.exp(0.01j), 0.0))
        s = self._tail_state(lambda n: spin, q.DecaySpec("custom-certified", scale=0.1))
        assert q.same_sector(constant_state(), s).kind == "SameSector"
        verdict = q.classify_product(
            q.ComplexSequenceSpec(
                tail=q.ClosedFormTail(lambda n: q.factor_overlap(E0, spin), "custom")
            )
        )
        assert verdict.kind == "QuasiConvergesToZero"
        assert q.asymptotic_overlap(constant_state(), s) == 0j

    def test_a_tail_that_breaks_its_declaration_is_inconclusive(self):
        # declared geometric with ratio 0.3, but the deviation falls like 1/n:
        # past ratio**n underflow the product walk answers Inconclusive
        s = self._tail_state(
            lambda n: q.FactorVector((1.0, 0.3 / (n + 1))).normalized(),
            q.DecaySpec("geometric", ratio=0.3, scale=0.6),
        )
        with pytest.raises(q.InconclusiveSector) as err:
            q.asymptotic_overlap(s, constant_state())
        assert err.value.message == "overlap product did not settle within budget"
        assert err.value.context == {"verdict": "Inconclusive"}


# -- block stretch ----------------------------------------------------------
#
# Past the last cut <= DIRECT_LIMIT, sites every term holds explicitly are
# bracketed in stacked numpy blocks.  These tests compare that path with the
# site-by-site walk over the same sides (``explicit = stackable = 0`` turns
# the block stretch off).  Sums of n logs or angles round at about 1e-16 of their
# summed magnitudes, so the block path must agree to 1e-12 of those.


def _unit_rows(rng, dims):
    rows = [rng.normal(size=d) + 1j * rng.normal(size=d) for d in dims]
    return [v / np.linalg.norm(v) for v in rows]


def _block_term(rng, base, length, tail_dim, parametric):
    sigma = rng.uniform(0.02, 0.2)
    prefix = []
    for site in range(length):
        row = base[site] + sigma * (
            rng.normal(size=len(base[site])) + 1j * rng.normal(size=len(base[site]))
        )
        prefix.append(q.FactorVector(tuple((row / np.linalg.norm(row)).tolist())))
    (limit,) = _unit_rows(rng, [tail_dim])
    limit_vec = q.FactorVector(tuple(limit.tolist()))
    if not parametric:
        return q.ProductState(tuple(prefix), q.ConstantTail(limit_vec))
    (step,) = _unit_rows(rng, [tail_dim])
    ratio = float(rng.uniform(0.3, 0.9))

    def fn(n):
        v = limit + 0.2 * ratio**n * step
        return q.FactorVector(tuple((v / np.linalg.norm(v)).tolist()))

    decay = q.DecaySpec("geometric", ratio=ratio, scale=1.0)
    return q.ProductState(tuple(prefix), q.ParametricTail(tail_dim, fn, limit_vec, decay))


def _with_zero(state, site, vector):
    prefix = list(state.prefix)
    prefix[site] = vector
    return q.ProductState(tuple(prefix), state.tail)


def _block_case(seed):
    """Two composites of 1-16 terms with unequal prefixes of up to 400 sites,
    a shared explicit stretch, some exactly-zero brackets, and cuts on both
    sides of DIRECT_LIMIT and at block edges."""
    rng = np.random.default_rng(seed)
    n_bra, n_ket = (int(x) for x in rng.integers(1, 17, size=2))
    tail_dim = int(rng.integers(1, 17))
    floor = int(rng.integers(120, 360))
    max_len = floor + int(rng.integers(1, 40))
    dims = [tail_dim] * max_len
    if seed % 2:
        # runs of other dims inside the stretch every term holds
        for _ in range(3):
            start, run = int(rng.integers(0, floor - 20)), int(rng.integers(1, 20))
            dims[start : start + run] = [int(rng.integers(1, 17))] * run
    base = _unit_rows(rng, dims)
    parametric = bool(rng.random() < 0.5)

    def side(n_terms):
        lengths = [floor] + [int(rng.integers(floor, max_len + 1)) for _ in range(n_terms - 1)]
        return [_block_term(rng, base, n, tail_dim, parametric) for n in lengths]

    bra, ket = side(n_bra), side(n_ket)
    # a zero factor zeroes every pair of its term; orthogonal basis vectors
    # zero a single pair
    site = int(rng.integers(70, floor))
    bra[0] = _with_zero(bra[0], site, q.FactorVector((0j,) * dims[site]))
    site = int(rng.integers(0, floor))
    if dims[site] > 1:
        bra[-1] = _with_zero(bra[-1], site, q.basis_vector(dims[site], 0))
        ket[-1] = _with_zero(ket[-1], site, q.basis_vector(dims[site], 1))
    def composite(terms):
        n = len(terms)
        return q.CompositeState(tuple(zip(rng.normal(size=n) + 1j * rng.normal(size=n), terms)))

    bra_c, ket_c = composite(bra), composite(ket)

    lo = 64 if seed % 3 else 0
    width = max(n_bra * tail_dim, n_ket * tail_dim, n_bra * n_ket)
    edge = lo + max(1, overlaps.BLOCK_AMPLITUDES // width)
    cuts = {1, 30, lo, lo + 1, lo + 65, edge - 1, edge, edge + 1, floor - 1, floor,
            floor + 1, max_len + 5}
    if lo == 0:
        cuts -= {1, 30, 0}
    cuts = sorted(c for c in cuts if 1 <= c <= max_len + 5)
    return bra_c, ket_c, cuts


def _pair_walk(bra, ket, cuts, block):
    """(value, log-modulus) per cut of every term pair and of the composite."""
    bra_side, ket_side, (readout,) = overlaps._sides(bra, ket)
    if not block:
        bra_side.explicit = ket_side.explicit = 0
        bra_side.stackable = ket_side.stackable = 0
    pairs = [[(1.0 + 0j, a, b)] for _, a, b in readout]
    return overlaps._walk(bra_side, ket_side, [readout] + pairs, cuts)


def _uses_blocks(monkeypatch):
    used = []
    real = overlaps._bracket_blocks

    def spy(*args):
        used.append(args[3:])
        return real(*args)

    monkeypatch.setattr(overlaps, "_bracket_blocks", spy)
    return used


class TestBlockStretch:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("small_blocks", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_the_site_by_site_walk(self, seed, small_blocks, monkeypatch):
        if small_blocks:
            monkeypatch.setattr(overlaps, "BLOCK_AMPLITUDES", 2**9)
        bra, ket, cuts = _block_case(seed)
        used = _uses_blocks(monkeypatch)
        got = _pair_walk(bra, ket, cuts, block=True)
        assert used
        want = _pair_walk(bra, ket, cuts, block=False)
        mass = log_mass(site_brackets(bra, ket, cuts[-1]))
        for k, n in enumerate(cuts):
            if n <= overlaps.DIRECT_LIMIT:
                assert repr([r[k] for r in got]) == repr([r[k] for r in want])
                continue
            scale = 0.0
            for (c, a, b), got_p, want_p in zip(
                [(cm.conjugate() * cn, a, b) for a, (cm, _) in enumerate(bra.terms)
                 for b, (cn, _) in enumerate(ket.terms)], got[1:], want[1:]
            ):
                (v1, l1), (v2, l2) = got_p[k], want_p[k]
                tol = 1e-12 * max(1.0, mass[a, b, n - 1])
                if l2 == -math.inf:
                    assert (v1, l1) == (0j, -math.inf)
                    continue
                assert abs(l1 - l2) <= tol
                if abs(v2) > 1e-300:  # the phase survives the readout
                    assert abs(cmath.phase(v1 / v2)) <= tol
                scale += abs(c) * math.exp(l2) * max(1.0, mass[a, b, n - 1])
            v1, v2 = got[0][k][0], want[0][k][0]
            assert abs(v1 - v2) <= 1e-12 * scale

    @pytest.mark.parametrize("seed", range(3))
    def test_distance_stays_symmetric(self, seed, monkeypatch):
        bra, ket, cuts = _block_case(seed)
        used = _uses_blocks(monkeypatch)
        for n in cuts:
            assert q.distance(bra, ket, n) == q.distance(ket, bra, n)
            assert q.distance(bra, bra, n) == 0.0
        assert used

    @pytest.mark.parametrize("seed", range(3))
    def test_truncated_density_matches_pairwise_overlaps(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        m, d, length = int(rng.integers(2, 9)), int(rng.integers(2, 6)), 300
        branches = []
        for _ in range(m):
            rows = _unit_rows(rng, [d] * length)
            (limit,) = _unit_rows(rng, [d])
            branches.append(q.make_product_state(
                [tuple(r.tolist()) for r in rows], q.ConstantTail(q.FactorVector(tuple(limit.tolist())))
            ))
        amps = rng.normal(size=m) + 1j * rng.normal(size=m)
        coeffs = tuple(complex(c) for c in amps / np.linalg.norm(amps))
        model = q.MeasurementModel(coeffs, tuple(branches))
        used = _uses_blocks(monkeypatch)
        for n in (64, 65, 200, 300, 310):
            rho = q.truncated_density(model, n).matrix
            for i in range(m):
                for j in range(i + 1, m):
                    want = coeffs[i] * coeffs[j].conjugate() * q.truncated_overlap(
                        branches[j], branches[i], n
                    )
                    assert abs(rho[i, j] - want) <= 1e-12 * abs(want)
                    assert rho[j, i] == rho[i, j].conjugate()
        assert used

    @pytest.mark.parametrize("seed", range(4))
    def test_expectation_sweep_matches_the_image_sweep(self, seed, monkeypatch):
        # image rows keep the bits of apply_to, so both walks bracket the same
        # numbers on the same path
        rng = np.random.default_rng(seed)
        d, length = int(rng.integers(1, 6)), int(rng.integers(200, 400))
        s = q.make_product_state(
            [tuple(r.tolist()) for r in _unit_rows(rng, [d] * length)],
            q.ConstantTail(q.FactorVector(tuple(_unit_rows(rng, [d])[0].tolist()))),
        )
        op = random_operator(rng, dim=d, n_terms=int(rng.integers(1, 6)), max_prefix=100)
        cuts = [1, 64, 65, 150, length - 1, length, length + 20]
        used = _uses_blocks(monkeypatch)
        got = q.expectation_sweep(op, s, cuts)
        assert used
        want = q.overlap_sweep(s, q.apply_operator(op, s), cuts)
        for k in range(len(cuts)):
            assert repr(got.values[k]) == repr(want.values[k])
            assert repr(got.log_modulus[k]) == repr(want.log_modulus[k])

    def test_a_blocked_walk_reads_back_to_a_short_cut(self):
        # every pair's record holds its direct products at cuts <= 64: read
        # at 40 or 150, a read at 30 returns the product at 30
        rng = np.random.default_rng(20)
        bra, ket = (
            q.ProductState(
                tuple(random_factor(rng, 2) for _ in range(200)), q.ConstantTail(random_factor(rng, 2))
            )
            for _ in range(2)
        )

        def fresh(n):
            return repr(overlaps._Walker(*overlaps._sides(bra, ket)).read(n))

        walker = overlaps._Walker(*overlaps._sides(bra, ket))
        assert walker.blocked == 200
        assert repr(walker.read(40)) == repr(walker.read(40)) == fresh(40)
        for back in (39, 30, 1):
            assert repr(walker.read(back)) == fresh(back) == _direct_read(bra, ket, back)
        assert repr(walker.read(64)) == fresh(64) == _direct_read(bra, ket, 64)
        assert repr(walker.read(150)) == fresh(150)
        for back in (64, 30):
            assert repr(walker.read(back)) == fresh(back) == _direct_read(bra, ket, back)
        # past 64 a read still goes back within the last block
        assert repr(walker.read(100)) == fresh(100)


    def test_a_blocked_walk_refuses_to_read_back_before_its_last_block(self, monkeypatch):
        # a one-pair walk of dim 2 takes 32-site blocks: read at 250, it holds
        # the block [224, 256), so cuts 225..256 read back and 224 or less do not
        monkeypatch.setattr(overlaps, "BLOCK_AMPLITUDES", 2**6)
        rng = np.random.default_rng(24)
        bra, ket = (
            q.ProductState(
                tuple(random_factor(rng, 2) for _ in range(300)), q.ConstantTail(random_factor(rng, 2))
            )
            for _ in range(2)
        )

        def fresh(n):
            return repr(overlaps._Walker(*overlaps._sides(bra, ket)).read(n))

        walker = overlaps._Walker(*overlaps._sides(bra, ket))
        assert walker.blocked == 300
        assert repr(walker.read(250)) == fresh(250)
        for back in (200, 224, 100, 65):
            with pytest.raises(q.PreconditionViolated, match=f"cannot read back to cut {back}$"):
                walker.read(back)
        assert repr(walker.read(225)) == fresh(225)
        assert repr(walker.read(256)) == fresh(256)

    def test_a_site_by_site_walk_refuses_to_read_back_outside_a_run(self):
        # a plain callback tail goes one site at a time: past 64 the walk
        # holds only the products at its own site, up to 64 its record
        rng = np.random.default_rng(25)
        w = random_factor(rng, 2)
        bra, ket = _geometric(rng, 3, w), _geometric(rng, 5, w)
        walker = overlaps._Walker(*overlaps._sides(bra, ket))
        assert walker.blocked == 0 and not walker.events
        ((at_100, _),) = walker.read(100)
        assert repr(at_100) == repr(q.truncated_overlap(bra, ket, 100))
        for back in (64, 10):
            got = repr(walker.read(back))
            assert got == _fresh_read(bra, ket, back) == _direct_read(bra, ket, back)
        with pytest.raises(q.PreconditionViolated, match="cannot read back to cut 99$"):
            walker.read(99)
        assert walker.read(100) == [(at_100, walker.accs[0].log_mod)]

# -- readouts depend only on the cut -------------------------------------------
#
# Which path brackets a site depends on the two sides alone, and a pair's
# bracket does not depend on where the pair sits in the stack or where its
# block starts or ends.  So every cut of a sweep reads the bits a walk asked
# for that cut alone reads.


def _sweep_bits(sweep):
    return repr((sweep.values, sweep.log_modulus))


def _pair_terms(bra, ket, a, b, lo, hi):
    """(log|g| + i angle g, g == 0) bytes of pair (a, b) over sites [lo, hi)."""
    blocks = overlaps._bracket_blocks(bra, ket, [(a, b)], lo, hi)
    forms = [overlaps._log_forms(g[0]) for *_, g in blocks]
    return [np.concatenate(column).tobytes() for column in zip(*forms)]


class TestReadoutsDependOnlyOnTheCut:
    @pytest.mark.parametrize("small_blocks", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_sweep_readouts_match_single_cut_walks(self, seed, small_blocks, monkeypatch):
        if small_blocks:
            monkeypatch.setattr(overlaps, "BLOCK_AMPLITUDES", 2**9)
        bra, ket, cuts = _block_case(seed)
        used = _uses_blocks(monkeypatch)
        sweep = q.overlap_sweep(bra, ket, cuts)
        assert used
        for k, n in enumerate(cuts):
            assert repr(q.composite_overlap(bra, ket, n)) == repr(sweep.values[k])
            single = q.overlap_sweep(bra, ket, [n])
            assert _sweep_bits(single) == repr(((sweep.values[k],), (sweep.log_modulus[k],)))

    @pytest.mark.parametrize("seed", range(4))
    def test_expectation_sweep_readouts_match_single_cut_walks(self, seed, monkeypatch):
        rng = np.random.default_rng(100 + seed)
        d, length = int(rng.integers(1, 6)), int(rng.integers(200, 401))
        s = q.make_product_state(
            [tuple(r.tolist()) for r in _unit_rows(rng, [d] * length)],
            q.ConstantTail(q.FactorVector(tuple(_unit_rows(rng, [d])[0].tolist()))),
        )
        op = random_operator(rng, dim=d, n_terms=int(rng.integers(1, 6)), max_prefix=100)
        cuts = [1, 30, 64, 65, 99, 150, length - 1, length, length + 20, 10**6]
        used = _uses_blocks(monkeypatch)
        sweep = q.expectation_sweep(op, s, cuts)
        assert used
        for k, n in enumerate(cuts):
            single = q.expectation_sweep(op, s, [n])
            assert _sweep_bits(single) == repr(((sweep.values[k],), (sweep.log_modulus[k],)))

    @pytest.mark.parametrize("seed", range(4))
    def test_a_pair_bracket_ignores_its_stack_position_and_block_edges(self, seed, monkeypatch):
        rng = np.random.default_rng(200 + seed)
        d, length, n_terms = int(rng.integers(1, 9)), 300, int(rng.integers(2, 7))
        states = [
            q.make_product_state(
                [tuple(r.tolist()) for r in _unit_rows(rng, [d] * length)],
                q.ConstantTail(q.FactorVector(tuple(_unit_rows(rng, [d])[0].tolist()))),
            )
            for _ in range(n_terms)
        ]
        stack = overlaps._Terms(states)
        a, b = (int(x) for x in rng.integers(0, n_terms, size=2))
        want = _pair_terms(stack, stack, a, b, 0, length)
        alone = overlaps._Terms([states[a]]), overlaps._Terms([states[b]])
        # the pair alone, and moved to the end of a reversed stack
        assert _pair_terms(*alone, 0, 0, 0, length) == want
        moved = overlaps._Terms(states[::-1] + [states[a], states[b]])
        assert _pair_terms(moved, moved, n_terms, n_terms + 1, 0, length) == want
        # blocks of other sizes, starting elsewhere
        for amplitudes, lo in ((2**7, 0), (2**9, 37), (2**5, 131)):
            monkeypatch.setattr(overlaps, "BLOCK_AMPLITUDES", amplitudes)
            cut = [want[0][lo * 16 :], want[1][lo:]]
            assert _pair_terms(stack, stack, a, b, lo, length) == cut
        monkeypatch.undo()
        # so a branch pair reads the same bits in the density walk over all
        # branches as in its own walk
        amps = rng.normal(size=n_terms) + 1j * rng.normal(size=n_terms)
        coeffs = tuple(complex(c) for c in amps / np.linalg.norm(amps))
        model = q.MeasurementModel(coeffs, tuple(states))
        for n in (64, 65, 200, 300, 310):
            rho = q.truncated_density(model, n).matrix
            for i in range(n_terms):
                for j in range(i + 1, n_terms):
                    g = q.truncated_overlap(states[j], states[i], n)
                    assert rho[i, j] == coeffs[i] * coeffs[j].conjugate() * g


# -- constant-tail jumps ------------------------------------------------------
#
# Once every term of both sides repeats one factor, from site j, the walk
# brackets each pair once, at j, and reads the rest in closed form.  These
# tests compare that with the site-by-site walk (``ProductState.run_starts``
# patched to return no runs turns the jumps off): cuts <= DIRECT_LIMIT keep their bits, and past
# it the closed form (n - j) * log|G| is at least as close to a 50-digit
# value as the per-site sum of n - j logs.

JUMP_CUTS = (1, 5, 12, 20, 64, 65, 100, 1000, 5000)


def _phase(theta):
    return complex(math.cos(theta), math.sin(theta))


def _positive(rng, dim):
    """Unit vector with positive real amplitudes: brackets of two are real
    and positive, so a readout's log-modulus is the walk's log form."""
    v = np.abs(rng.normal(size=dim)) + 0.1
    return q.FactorVector(tuple((v / np.linalg.norm(v)).tolist()))


def _prefixed(rng, tail, prefix_len, unit):
    return q.ProductState(tuple(unit(rng, tail.dim) for _ in range(prefix_len)), tail)


def _constant(rng, prefix_len, vector, unit=random_factor):
    return _prefixed(rng, q.ConstantTail(vector), prefix_len, unit)


def _eventually_constant(rng, prefix_len, rank, limit, unit=random_factor):
    """A parametric tail that leaves ``limit`` before ``rank`` and equals it after."""
    moved = np.array(limit.amplitudes) + 0.3 * np.array(unit(rng, limit.dim).amplitudes)
    before = q.FactorVector(tuple((moved / np.linalg.norm(moved)).tolist()))
    tail = q.ParametricTail(
        limit.dim,
        lambda n: limit if n >= rank else before,
        limit,
        q.DecaySpec("eventually-constant", rank=rank, scale=0.6),
    )
    return _prefixed(rng, tail, prefix_len, unit)


def _geometric(rng, prefix_len, limit):
    step = np.array(random_factor(rng, limit.dim).amplitudes)

    def fn(n):
        v = np.array(limit.amplitudes) + 0.2 * 0.7**n * step
        return q.FactorVector(tuple((v / np.linalg.norm(v)).tolist()))

    tail = q.ParametricTail(limit.dim, fn, limit, q.DecaySpec("geometric", ratio=0.7, scale=0.2))
    return _prefixed(rng, tail, prefix_len, random_factor)


def _jump_cases():
    """name -> (bra, ket, j): pairs whose factors all repeat from site j."""
    rng = np.random.default_rng(2024)
    u, w = random_factor(rng, 3), random_factor(rng, 3)
    pu, pw = _positive(rng, 3), _positive(rng, 3)
    cases = {
        "constant": (_constant(rng, 3, u), _constant(rng, 7, w), 7),
        "eventually-constant": (
            _eventually_constant(rng, 4, 30, u), _constant(rng, 2, w), 30
        ),
        "eventually-constant-within-prefix": (
            _eventually_constant(rng, 40, 10, u), _eventually_constant(rng, 5, 12, w), 40
        ),
        "zero-bracket": (_constant(rng, 2, E0), _constant(rng, 3, E1), 3),
        "unit-phase": (
            _constant(rng, 2, E0), _constant(rng, 1, q.FactorVector((_phase(0.3), 0j))), 2
        ),
        "positive-constant": (
            _constant(rng, 3, pu, _positive), _constant(rng, 6, pw, _positive), 6
        ),
        "positive-no-prefix": (_constant(rng, 0, pu), _constant(rng, 0, pw), 0),
        "positive-eventually-constant": (
            _eventually_constant(rng, 2, 25, pu, _positive), _constant(rng, 4, pw, _positive), 25
        ),
    }
    cases["composite"] = (
        q.CompositeState((
            (0.6 + 0.2j, _constant(rng, 2, u)),
            (-0.3 + 0.1j, _eventually_constant(rng, 1, 9, u)),
        )),
        q.CompositeState((
            (0.5 + 0j, _constant(rng, 4, w)),
            (0.1 - 0.7j, _constant(rng, 0, u)),
            (0.2 + 0.2j, _eventually_constant(rng, 6, 3, w)),
        )),
        9,
    )
    return cases


JUMP_CASES = _jump_cases()


def _cuts_for(j):
    return sorted(set(JUMP_CUTS) | {j} - {0})


def _sweep_pairs(sweep):
    return list(zip(sweep.values, sweep.log_modulus))


class TestConstantTailJumps:
    @pytest.mark.parametrize("name", sorted(JUMP_CASES))
    def test_agrees_with_the_site_by_site_walk(self, name, monkeypatch):
        bra, ket, j = JUMP_CASES[name]
        cuts = _cuts_for(j)
        got = q.overlap_sweep(bra, ket, cuts)
        want = site_by_site(monkeypatch, q.overlap_sweep, bra, ket, cuts)
        assert_walks_agree(bra, ket, _sweep_pairs(got), _sweep_pairs(want), cuts)

    @pytest.mark.parametrize("name", sorted(JUMP_CASES))
    def test_sweep_readouts_match_single_cut_walks(self, name):
        bra, ket, j = JUMP_CASES[name]
        cuts = _cuts_for(j)
        sweep = q.overlap_sweep(bra, ket, cuts)
        for n, value, log_mod in zip(cuts, sweep.values, sweep.log_modulus):
            assert repr(q.composite_overlap(bra, ket, n)) == repr(value)
            assert repr(q.overlap_sweep(bra, ket, [n]).log_modulus) == repr((log_mod,))
            if isinstance(bra, q.ProductState):
                assert repr(q.truncated_overlap(bra, ket, n)) == repr(value)

    @pytest.mark.parametrize(
        "name", ["positive-constant", "positive-no-prefix", "positive-eventually-constant"]
    )
    def test_closed_form_is_at_least_as_close_as_the_per_site_sum(self, name, monkeypatch):
        bra, ket, j = JUMP_CASES[name]
        cuts = [n for n in JUMP_CUTS if n > max(j, overlaps.DIRECT_LIMIT)] + [10**5]
        jumped = q.overlap_sweep(bra, ket, cuts).log_modulus
        summed = site_by_site(monkeypatch, q.overlap_sweep, bra, ket, cuts).log_modulus
        # the walk's log form at j: per-site logs summed in site order
        at_j = 0.0
        for site in range(j):
            at_j += math.log(abs(q.factor_overlap(bra.factor_at(site), ket.factor_at(site))))
        g = q.factor_overlap(bra.factor_at(j), ket.factor_at(j))
        assert g.real > 0.0 and g.imag == 0.0
        with mpmath.workdps(50):
            for n, a, b in zip(cuts, jumped, summed):
                truth = mpmath.mpf(at_j) + (n - j) * mpmath.log(mpmath.mpf(g.real))
                assert abs(a - truth) <= abs(b - truth)
                assert abs(a - truth) <= 1e-12 * abs(truth)

    def test_zero_bracket_and_unit_phase_past_the_jump(self):
        bra, ket, j = JUMP_CASES["zero-bracket"]
        sweep = q.overlap_sweep(bra, ket, [j, j + 1, 10**9])
        assert sweep.values[1:] == (0j, 0j)
        assert sweep.log_modulus[1:] == (-math.inf, -math.inf)
        bra, ket, j = JUMP_CASES["unit-phase"]
        at_j = q.truncated_overlap(bra, ket, j)
        for n in (64, 65, 10**9):
            value = q.truncated_overlap(bra, ket, n)
            assert abs(value) == pytest.approx(abs(at_j), rel=1e-12)
            assert cmath.isclose(value, at_j * _phase(0.3 * (n - j)), rel_tol=1e-6)

    def test_mixed_terms_jump_pair_by_pair(self, monkeypatch):
        rng = np.random.default_rng(7)
        u = random_factor(rng, 2)
        bra = q.CompositeState(((1.0, _constant(rng, 2, u)), (0.5j, _geometric(rng, 1, u))))
        ket = _constant(rng, 3, random_factor(rng, 2))
        bra_side, ket_side, readouts = overlaps._sides(bra, ket)
        assert (bra_side.runs, ket_side.runs) == ([(2,), ()], [(3,)])
        # the constant pair runs from site 3, the geometric one never
        walker = overlaps._Walker(bra_side, ket_side, readouts)
        walker.read(300)
        assert [(k, run[:2]) for k, run in walker.runs.items()] == [(0, (3, math.inf))]
        cuts = [1, 64, 65, 300]
        got = q.overlap_sweep(bra, ket, cuts)
        want = site_by_site(monkeypatch, q.overlap_sweep, bra, ket, cuts)
        assert_walks_agree(bra, ket, _sweep_pairs(got), _sweep_pairs(want), cuts)

    @pytest.mark.parametrize("tail", ["constant", "identity"])
    def test_expectation_sweep(self, tail, monkeypatch):
        rng = np.random.default_rng(3)
        state = _eventually_constant(rng, 3, 11, random_factor(rng, 2))
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        op_tail = (
            ConstantOperatorTail(FactorOperator((m + m.conj().T) / 6))
            if tail == "constant"
            else IdentityTail(2)
        )
        op = FactoredOperator((
            OperatorTerm(0.7 - 0.2j, (FactorOperator(m),) * 16, op_tail),
            OperatorTerm(0.3j, (), op_tail),
        ))
        cuts = [4, 11, 16, 17, 64, 65, 900]
        got = q.expectation_sweep(op, state, cuts)
        want = site_by_site(monkeypatch, q.expectation_sweep, op, state, cuts)
        image = q.apply_operator(op, state)
        assert_walks_agree(state, image, _sweep_pairs(got), _sweep_pairs(want), cuts)

    def test_sixteen_site_spin_blocks(self, monkeypatch):
        scenario = q.SpinChainScenario(Fraction(3, 16))
        counts = [16 * k for k in (1, 2, 40, 64, 65, 80)]
        got = scenario.sweep(counts)
        want = site_by_site(monkeypatch, scenario.sweep, counts)
        assert_walks_agree(
            *scenario.states(), _sweep_pairs(got), _sweep_pairs(want), [n // 16 for n in counts]
        )
        half_ln2 = 0.5 * math.log(2.0)
        for n, log_mod in zip(counts, got.log_modulus):
            assert log_mod == pytest.approx(-(3 * n // 16) * half_ln2, rel=1e-12)


# -- runs before rank -----------------------------------------------------------
#
# A decoded eventually-constant tail (a canonical family) is one vector from
# the prefix end to its rank and the limit after it, so the walk brackets each
# stretch once.  The reference is the same family behind a plain lambda,
# which the walk brackets site by site up to rank: cuts <= DIRECT_LIMIT keep
# its bits, and later cuts agree with the site-by-site walk to the rounding
# room of its sums.


def _vector_doc(v):
    return [encode_complex(c) for c in v.amplitudes]


def _canonical(rng, prefix_len, rank, limit, moved=None, unit=random_factor):
    """A decoded eventually-constant state: ``moved`` (a random unit vector
    by default) up to ``rank``, ``limit`` from there on."""
    moved = moved or unit(rng, limit.dim)
    deviation = q.FactorVector(
        tuple(m - u for m, u in zip(moved.amplitudes, limit.amplitudes))
    )
    return decode_state({
        "type": "product-state",
        "prefix": [_vector_doc(unit(rng, limit.dim)) for _ in range(prefix_len)],
        "tail": {
            "kind": "parametric",
            "class": "eventually-constant",
            "rank": rank,
            "scale": 2.0,
            "limit": _vector_doc(limit),
            "deviation": _vector_doc(deviation),
        },
    })


def _plain(state):
    """``state`` with every canonical tail behind a plain lambda."""
    if isinstance(state, q.CompositeState):
        return q.CompositeState(tuple((c, _plain(s)) for c, s in state.terms))
    tail = state.tail
    family = getattr(tail, "factor_fn", None)
    if not isinstance(family, _CanonicalFamily):
        return state
    plain = q.ParametricTail(tail.dim, lambda n: family(n), tail.limit, tail.decay)
    return q.ProductState(state.prefix, plain, state.label)


def _run_cases():
    """name -> (bra, ket, cuts), cuts at each prefix end and rank +- 1."""
    rng = np.random.default_rng(99)
    u, w = random_factor(rng, 3), random_factor(rng, 3)
    cases = {
        "rank-before-64": (_canonical(rng, 3, 40, u), _constant(rng, 5, w)),
        "rank-past-64": (_canonical(rng, 4, 200, u), _constant(rng, 2, w)),
        "rank-within-prefix": (_canonical(rng, 30, 10, u), _canonical(rng, 6, 90, w)),
        "rank-at-prefix": (_canonical(rng, 12, 12, u), _constant(rng, 0, w)),
        "two-ranks": (_canonical(rng, 2, 70, u), _canonical(rng, 5, 130, w)),
        "zero-bracket": (
            _canonical(rng, 2, 80, E0, moved=E1), _constant(rng, 3, E0)
        ),
        "unit-phase": (
            _canonical(rng, 2, 500, E0, moved=q.FactorVector((_phase(0.3), 0j))),
            _constant(rng, 1, E0),
        ),
        "positive": (
            _canonical(rng, 3, 150, _positive(rng, 3), _positive(rng, 3), _positive),
            _constant(rng, 4, _positive(rng, 3), _positive),
        ),
    }
    v = random_factor(rng, 3)
    cases["composite"] = (
        q.CompositeState((
            (0.6 + 0.2j, _canonical(rng, 2, 90, u)),
            (-0.3 + 0.1j, _plain(_canonical(rng, 1, 30, v))),
            (0.2j, _constant(rng, 4, w)),
        )),
        q.CompositeState((
            (0.5 + 0j, _geometric(rng, 3, u)),
            (0.1 - 0.7j, _canonical(rng, 0, 75, w)),
            (0.4 + 0.0j, _constant(rng, 6, v)),
        )),
    )
    model = q.MeasurementModel(
        (0.6, 0.8), (_canonical(rng, 2, 70, E0), _canonical(rng, 1, 110, q.FactorVector((0.6, 0.8))))
    )
    premeasured = premeasurement_state(model)
    cases["premeasured"] = (premeasured, premeasured)
    out = {}
    for name, (bra, ket) in cases.items():
        edges = set()
        for side in (bra, ket):
            for _, s in overlaps._as_terms(side):
                edges.add(s.prefix_len)
                rank = s.tail.decay.rank
                if rank is not None:
                    edges |= {rank - 1, rank, rank + 1}
        cuts = sorted((edges | {1, 20, 64, 65, 1000, 3000}) - {0, -1})
        out[name] = (bra, ket, cuts)
    return out


RUN_CASES = _run_cases()


class TestRunsBeforeRank:
    def test_run_starts(self):
        rng = np.random.default_rng(5)
        u = random_factor(rng, 2)
        assert _canonical(rng, 3, 40, u).run_starts == (3, 40)
        assert _canonical(rng, 40, 3, u).run_starts == (40,)
        assert _canonical(rng, 3, 0, u).run_starts == (3,)
        assert _plain(_canonical(rng, 3, 40, u)).run_starts == (40,)
        assert _constant(rng, 7, u).run_starts == (7,)
        assert _geometric(rng, 7, u).run_starts == ()
        _, (_, shifted) = premeasurement_state(q.MeasurementModel(
            (0.6, 0.8), (_constant(rng, 0, E0), _canonical(rng, 3, 40, E1))
        )).terms
        assert shifted.run_starts == (4, 41)
        # an image runs where its factor does, past the prefix operators
        m = FactorOperator(np.eye(2))
        op = FactoredOperator((
            OperatorTerm(1.0, (m,) * 10, IdentityTail(2)),
            OperatorTerm(1.0, (m,) * 50, ConstantOperatorTail(m)),
        ))
        side = overlaps._Terms([_canonical(rng, 3, 40, u)])
        assert operators._Images(op.terms, side).runs == [(10, 40), (50,)]

    @pytest.mark.parametrize("name", sorted(RUN_CASES))
    def test_cuts_up_to_64_keep_the_bits_of_the_plain_lambda_walk(self, name):
        bra, ket, cuts = RUN_CASES[name]
        direct = [n for n in cuts if n <= overlaps.DIRECT_LIMIT]
        got = q.overlap_sweep(bra, ket, direct)
        assert repr(got) == repr(q.overlap_sweep(_plain(bra), _plain(ket), direct))

    @pytest.mark.parametrize("name", sorted(RUN_CASES))
    def test_agrees_with_the_site_by_site_walk(self, name, monkeypatch):
        bra, ket, cuts = RUN_CASES[name]
        got = q.overlap_sweep(bra, ket, cuts)
        want = site_by_site(monkeypatch, q.overlap_sweep, bra, ket, cuts)
        assert_walks_agree(bra, ket, _sweep_pairs(got), _sweep_pairs(want), cuts)

    @pytest.mark.parametrize("name", sorted(RUN_CASES))
    def test_sweep_readouts_match_single_cut_walks(self, name):
        bra, ket, cuts = RUN_CASES[name]
        sweep = q.overlap_sweep(bra, ket, cuts)
        for n, value, log_mod in zip(cuts, sweep.values, sweep.log_modulus):
            assert repr(q.composite_overlap(bra, ket, n)) == repr(value)
            assert repr(q.overlap_sweep(bra, ket, [n]).log_modulus) == repr((log_mod,))

    def test_closed_form_is_at_least_as_close_as_the_per_site_sum(self, monkeypatch):
        bra, ket, _ = RUN_CASES["positive"]
        p, rank = max(bra.prefix_len, ket.prefix_len), bra.tail.decay.rank
        cuts = [100, 149, 150, 151, 1000, 10**5]
        runs = q.overlap_sweep(bra, ket, cuts).log_modulus
        summed = site_by_site(monkeypatch, q.overlap_sweep, bra, ket, cuts).log_modulus
        # the walk's log form at the prefix end: per-site logs in site order
        at_p = 0.0
        for site in range(p):
            at_p += math.log(abs(q.factor_overlap(bra.factor_at(site), ket.factor_at(site))))
        g1, g2 = (q.factor_overlap(bra.factor_at(k), ket.factor_at(k)) for k in (p, rank))
        assert g1.imag == g2.imag == 0.0 and g1.real > 0.0 and g2.real > 0.0
        with mpmath.workdps(50):
            for n, a, b in zip(cuts, runs, summed):
                log1, log2 = (mpmath.log(mpmath.mpf(g.real)) for g in (g1, g2))
                truth = mpmath.mpf(at_p) + (min(n, rank) - p) * log1 + max(0, n - rank) * log2
                assert abs(a - truth) <= abs(b - truth)
                assert abs(a - truth) <= 1e-12 * abs(truth)

    def test_zero_bracket_and_unit_phase_before_rank(self):
        bra, ket, _ = RUN_CASES["zero-bracket"]
        sweep = q.overlap_sweep(bra, ket, [3, 4, 65, 81, 10**9])
        assert sweep.values[0] != 0j
        assert sweep.values[1:] == (0j,) * 4
        assert sweep.log_modulus[1:] == (-math.inf,) * 4
        bra, ket, _ = RUN_CASES["unit-phase"]
        g = q.factor_overlap(bra.factor_at(2), ket.factor_at(2))
        at_p = q.truncated_overlap(bra, ket, 2)
        for n in (64, 65, 499, 500):
            value = q.truncated_overlap(bra, ket, n)
            assert abs(value) == pytest.approx(abs(at_p) * abs(g) ** (n - 2), rel=1e-12)
            assert cmath.isclose(value / abs(value), at_p / abs(at_p) * _phase(-0.3 * (n - 2)), abs_tol=1e-9)

    @pytest.mark.parametrize("prefix_ops", [8, 40])
    def test_expectation_sweep(self, prefix_ops, monkeypatch):
        rng = np.random.default_rng(8)
        state = _canonical(rng, 3, 20, random_factor(rng, 2))
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        op = FactoredOperator((
            OperatorTerm(0.7 - 0.2j, (FactorOperator(m),) * prefix_ops,
                         ConstantOperatorTail(FactorOperator((m + m.conj().T) / 6))),
            OperatorTerm(0.3j, (FactorOperator(m),) * 5, IdentityTail(2)),
        ))
        cuts = [3, 5, 8, 19, 20, 21, 40, 41, 64, 65, 900]
        got = q.expectation_sweep(op, state, cuts)
        plain = q.expectation_sweep(op, _plain(state), cuts)
        want = site_by_site(monkeypatch, q.expectation_sweep, op, state, cuts)
        assert repr(_sweep_pairs(got)[:9]) == repr(_sweep_pairs(plain)[:9])
        image = q.apply_operator(op, state)
        assert_walks_agree(state, image, _sweep_pairs(got), _sweep_pairs(want), cuts)
        for n, value in zip(cuts, got.values):
            assert repr(q.expectation_sweep(op, state, [n]).values) == repr((value,))

    def test_premeasured_branches(self):
        premeasured, _, cuts = RUN_CASES["premeasured"]
        (_, b0), (_, b1) = premeasured.terms
        for n in cuts:
            plain = q.truncated_overlap(_plain(b1), _plain(b0), n)
            got = q.truncated_overlap(b1, b0, n)
            if n <= overlaps.DIRECT_LIMIT:
                assert repr(got) == repr(plain)
            else:
                assert cmath.isclose(got, plain, rel_tol=1e-9, abs_tol=0.0)


# -- one readout inside a run --------------------------------------------------
#
# A pair in a run reads every cut from the run's start: up to DIRECT_LIMIT as
# its direct product there times G once per site, so a sweep, a walk per cut
# and the site-by-site walk agree bit for bit, and a read that goes back
# inside every pair's run reads what a fresh walk reads.


def _decoded_constant(rng, prefix_len, vector):
    return decode_state({
        "type": "product-state",
        "prefix": [_vector_doc(random_factor(rng, vector.dim)) for _ in range(prefix_len)],
        "tail": {"kind": "constant", "vector": _vector_doc(vector)},
    })


def _short_run_cases():
    """name -> (bra, ket): pairs whose runs start below DIRECT_LIMIT."""
    rng = np.random.default_rng(2031)
    u, w, v = (random_factor(rng, 3) for _ in range(3))
    e0, e1 = q.basis_vector(3, 0), q.basis_vector(3, 1)
    return {
        "constant-no-prefix": (_decoded_constant(rng, 0, u), _decoded_constant(rng, 0, w)),
        "constant": (_decoded_constant(rng, 7, u), _decoded_constant(rng, 40, w)),
        "rank-0": (_canonical(rng, 5, 0, u), _decoded_constant(rng, 12, w)),
        "rank-60": (_canonical(rng, 3, 60, u), _decoded_constant(rng, 20, w)),
        "rank-within-prefix": (_canonical(rng, 40, 25, u), _canonical(rng, 9, 33, w)),
        "zero-bracket": (_canonical(rng, 4, 50, e0, moved=e1), _decoded_constant(rng, 2, e0)),
        "unit-phase": (
            _decoded_constant(rng, 1, q.FactorVector((_phase(0.3), 0j, 0j))),
            _canonical(rng, 6, 30, e0),
        ),
        "mixed-composite": (
            q.CompositeState((
                (0.6 + 0.2j, _canonical(rng, 2, 45, u)),
                (-0.3 + 0.1j, _geometric(rng, 3, v)),
                (0.2j, _decoded_constant(rng, 0, w)),
            )),
            q.CompositeState((
                (0.5 + 0j, _decoded_constant(rng, 11, v)),
                (0.1 - 0.7j, _plain(_canonical(rng, 1, 38, w))),
            )),
        ),
        "all-run-composite": (
            q.CompositeState((
                (0.8 + 0j, _canonical(rng, 6, 52, u)), (0.3 - 0.5j, _decoded_constant(rng, 17, v))
            )),
            q.CompositeState((
                (0.4j, _decoded_constant(rng, 3, w)), (0.9 + 0j, _canonical(rng, 0, 9, v))
            )),
        ),
    }


SHORT_RUN_CASES = _short_run_cases()
SHORT_CUTS = list(range(1, 81))


def _last_run_start(*sides):
    return max(
        max(s.run_starts, default=math.inf) for side in sides for _, s in overlaps._as_terms(side)
    )


class TestOneReadoutInARun:
    def test_cases_start_their_runs_below_64(self):
        for bra, ket in SHORT_RUN_CASES.values():
            walker = overlaps._Walker(*overlaps._sides(bra, ket))
            assert min(walker.firsts) <= 40 and walker.blocked == 0

    @pytest.mark.parametrize("name", sorted(SHORT_RUN_CASES))
    def test_sweep_walks_per_cut_and_the_site_by_site_walk_agree(self, name, monkeypatch):
        bra, ket = SHORT_RUN_CASES[name]
        sweep = q.overlap_sweep(bra, ket, SHORT_CUTS)
        for n, value in zip(SHORT_CUTS, sweep.values):
            assert repr(q.composite_overlap(bra, ket, n)) == repr(value)
        direct = [n for n in SHORT_CUTS if n <= overlaps.DIRECT_LIMIT]
        want = site_by_site(monkeypatch, q.overlap_sweep, bra, ket, direct)
        assert repr(_sweep_pairs(sweep)[: len(direct)]) == repr(_sweep_pairs(want))

    @pytest.mark.parametrize(
        "name", sorted(k for k in SHORT_RUN_CASES if k != "mixed-composite")
    )
    def test_reads_back_inside_every_run_keep_the_bits_of_a_fresh_walk(self, name):
        bra, ket = SHORT_RUN_CASES[name]
        last = _last_run_start(bra, ket)
        assert last < overlaps.DIRECT_LIMIT
        walker = overlaps._Walker(*overlaps._sides(bra, ket))
        for n in [80, 64, *range(63, last - 1, -1)]:
            fresh = overlaps._Walker(*overlaps._sides(bra, ket)).read(n)
            assert repr(walker.read(n)) == repr(fresh)


def _count_brackets(monkeypatch):
    calls = []
    real = overlaps.factor_overlap

    def counting(bra, ket):
        calls.append(1)
        return real(bra, ket)

    monkeypatch.setattr(overlaps, "factor_overlap", counting)
    return calls


class TestWalkWork:
    def test_constant_tails_bracket_each_pair_once_past_the_prefix(self, monkeypatch):
        calls = _count_brackets(monkeypatch)
        rng = np.random.default_rng(1)
        bra = _constant(rng, 5, random_factor(rng, 2))
        ket = _constant(rng, 2, random_factor(rng, 2))
        q.truncated_overlap(bra, ket, 10**9)
        assert len(calls) <= 5 + 1
        calls.clear()
        bra_c = q.CompositeState(((1.0, bra), (0.5, _constant(rng, 3, random_factor(rng, 2)))))
        ket_c = q.CompositeState(((1.0, ket), (1j, _constant(rng, 0, random_factor(rng, 2)))))
        q.composite_overlap(bra_c, ket_c, 10**9)
        assert len(calls) <= 4 * (5 + 1)

    def test_constant_tails_at_a_trillion_sites_take_the_closed_form(self):
        bra = constant_state((E1,), q.FactorVector((0.6, 0.8)))
        ket = constant_state((E1,), E0)
        n = 10**12
        start = time.perf_counter()
        (log_mod,) = q.overlap_sweep(bra, ket, [n]).log_modulus
        assert q.truncated_overlap(bra, ket, n) == 0j
        assert time.perf_counter() - start < 0.5
        assert log_mod == pytest.approx((n - 1) * math.log(0.6), rel=1e-12)

    def test_canonical_tails_bracket_each_pair_at_most_prefix_plus_two_times(self, monkeypatch):
        calls = _count_brackets(monkeypatch)
        rng = np.random.default_rng(4)
        rank, n = 10**11, 10**12
        bra = _canonical(rng, 5, rank, random_factor(rng, 2))
        ket = _constant(rng, 3, random_factor(rng, 2))
        start = time.perf_counter()
        q.truncated_overlap(bra, ket, n)
        assert len(calls) <= 5 + 2
        calls.clear()
        bra_c = q.CompositeState(((1.0, bra), (0.5, _canonical(rng, 2, rank + 7, random_factor(rng, 2)))))
        ket_c = q.CompositeState(((1.0, ket), (1j, _canonical(rng, 0, rank - 3, random_factor(rng, 2)))))
        sweep = q.overlap_sweep(bra_c, ket_c, [rank - 3, rank, rank + 7, n])
        assert len(calls) <= 4 * (5 + 3)
        assert time.perf_counter() - start < 0.5
        assert all(math.isfinite(x) for x in sweep.log_modulus)

    def test_a_plain_lambda_before_rank_still_counts_against_the_budget(self):
        rng = np.random.default_rng(6)
        state = _plain(_canonical(rng, 2, 10**7, random_factor(rng, 2)))
        calls = []
        family = state.tail.factor_fn
        tail = q.ParametricTail(2, lambda n: calls.append(n) or family(n), state.tail.limit, state.tail.decay)
        state = q.ProductState(state.prefix, tail)
        calls.clear()
        with pytest.raises(q.DimensionBudgetExceeded) as exc:
            q.truncated_overlap(state, constant_state(), 2 * 10**7)
        assert exc.value.context["sites"] == 10**7  # past the shorter prefix, of 0 sites
        assert calls == []

    def test_parametric_tails_past_the_budget_raise_at_once(self):
        calls = []
        limit = q.FactorVector((0.6, 0.8))

        def fn(n):
            calls.append(n)
            return limit

        state = q.ProductState((), q.ParametricTail(2, fn, limit, q.DecaySpec("geometric", ratio=0.5)))
        calls.clear()
        with pytest.raises(q.DimensionBudgetExceeded) as exc:
            q.truncated_overlap(state, constant_state(), 10**12)
        assert exc.value.context["budget"] == overlaps.WALK_BUDGET
        with pytest.raises(q.DimensionBudgetExceeded):
            q.overlap_sweep(state, state, [10, 10**12])
        assert calls == []


# -- tail blocks ----------------------------------------------------------------
#
# The block stretch runs on past the explicit prefixes into tails whose
# factors it builds as rows: constant tails and decoded canonical families,
# moved or not.  It stops at the first run start of any pair, so only pairs
# that never repeat one factor block their tails.  The reference is the walk
# over the same sides with the block stretch off: cuts <= DIRECT_LIMIT keep
# its bits, later cuts agree within the rounding room of its sums.

TAIL_CUTS = [1, 20, 63, 64, 65, 70, 71, 150, 151, 4098, 4099, 4100, 4500]
SHIFT = 70


def _tail_block_cases():
    """name -> (bra, ket, whether the walk blocks its tails)."""
    rng = np.random.default_rng(13)
    w = random_factor(rng, 2)
    cases = {}
    for shift, moved in ((0, ""), (SHIFT, "-shifted")):
        for name in TAIL_FAMILIES:
            cases[f"constant-vs-{name}{moved}"] = (
                _constant(rng, 3, near(rng, w)),
                decoded_family(rng, name, 5, near(rng, w), shift),
                not name.startswith("rank"),
            )
        for a, b in (
            ("geometric", "geometric"), ("geometric", "p-series"), ("p-series", "rank-past"),
            ("rank-inside", "geometric"), ("rank-inside", "rank-past"),
        ):
            cases[f"{a}-vs-{b}{moved}"] = (
                decoded_family(rng, a, 2, near(rng, w)),
                decoded_family(rng, b, 6, near(rng, w), shift),
                not (a.startswith("rank") and b.startswith("rank")),
            )
    cases["composite"] = (
        q.CompositeState((
            (0.6 + 0.2j, _constant(rng, 3, near(rng, w))),
            (0.3j, decoded_family(rng, "geometric", 4, near(rng, w))),
        )),
        q.CompositeState((
            (0.5 + 0j, decoded_family(rng, "p-series", 2, near(rng, w), SHIFT)),
            (0.1 - 0.7j, decoded_family(rng, "geometric", 7, near(rng, w), 3)),
        )),
        True,
    )
    return cases


TAIL_BLOCK_CASES = _tail_block_cases()


class TestTailBlocks:
    def test_tail_rows_are_the_factors(self):
        rng = np.random.default_rng(2)
        w = random_factor(rng, 3)
        tails = [q.ConstantTail(w)] + [
            decoded_family(rng, name, 0, w, shift).tail
            for name in TAIL_FAMILIES for shift in (0, SHIFT)
        ]
        for tail in tails:
            assert tail.closed_rows
            for lo, hi in ((0, 5), (60, 200), (149, 151)):
                want = np.array([tail.factor_at(n).amplitudes for n in range(lo, hi)])
                assert tail.rows(lo, hi).tobytes() == want.tobytes()
        assert not _plain(decoded_family(rng, "geometric", 0, w)).tail.closed_rows
        assert not _geometric(rng, 0, w).tail.closed_rows

    @pytest.mark.parametrize("name", sorted(TAIL_BLOCK_CASES))
    def test_agrees_with_the_site_by_site_walk(self, name, monkeypatch):
        bra, ket, blocks = TAIL_BLOCK_CASES[name]
        used = _uses_blocks(monkeypatch)
        (got, *_) = _pair_walk(bra, ket, TAIL_CUTS, block=True)
        assert used == [(0, TAIL_CUTS[-1] if blocks else 0)]
        (want, *_) = _pair_walk(bra, ket, TAIL_CUTS, block=False)
        assert_walks_agree(bra, ket, got, want, TAIL_CUTS)

    @pytest.mark.parametrize(
        "name", ["constant-vs-p-series-shifted", "geometric-vs-geometric", "composite"]
    )
    def test_small_tail_blocks_read_the_same_bits(self, name, monkeypatch):
        """Where the blocks end does not change a bracket or a running sum."""
        bra, ket, _ = TAIL_BLOCK_CASES[name]
        want = _pair_walk(bra, ket, TAIL_CUTS, block=True)
        monkeypatch.setattr(overlaps, "TAIL_BLOCK_SITES", 97)
        assert repr(_pair_walk(bra, ket, TAIL_CUTS, block=True)) == repr(want)

    @pytest.mark.parametrize(
        "name", ["constant-vs-geometric-shifted", "p-series-vs-rank-past", "composite"]
    )
    def test_sweep_readouts_match_single_cut_walks(self, name):
        bra, ket, _ = TAIL_BLOCK_CASES[name]
        sweep = q.overlap_sweep(bra, ket, TAIL_CUTS)
        for n, value, log_mod in zip(TAIL_CUTS, sweep.values, sweep.log_modulus):
            assert repr(q.composite_overlap(bra, ket, n)) == repr(value)
            assert repr(q.overlap_sweep(bra, ket, [n]).log_modulus) == repr((log_mod,))

    def test_a_plain_lambda_keeps_its_side_on_the_site_loop(self, monkeypatch):
        rng = np.random.default_rng(17)
        w = random_factor(rng, 2)
        family = decoded_family(rng, "geometric", 3, near(rng, w))
        bra = q.CompositeState(((1.0, family), (0.5j, _geometric(rng, 2, w))))
        ket = decoded_family(rng, "p-series", 4, near(rng, w))
        assert overlaps._Walker(*overlaps._sides(bra, ket)).blocked == 0
        assert overlaps._Walker(*overlaps._sides(_plain(family), ket)).blocked == 0
        cuts = [1, 64, 65, 300]
        got = q.overlap_sweep(bra, ket, cuts)
        plain = q.CompositeState(tuple((c, _plain(s)) for c, s in bra.terms))
        assert repr(got) == repr(q.overlap_sweep(plain, ket, cuts))

    def test_budget_refusal_comes_before_any_bracket(self, monkeypatch):
        rng = np.random.default_rng(19)
        w = random_factor(rng, 2)
        bra = decoded_family(rng, "geometric", 3, near(rng, w))
        ket = decoded_family(rng, "geometric", 5, near(rng, w), SHIFT)
        calls = _count_brackets(monkeypatch)
        stacked = []
        real = overlaps._stacked_brackets
        monkeypatch.setattr(
            overlaps, "_stacked_brackets", lambda *rows: stacked.append(1) or real(*rows)
        )
        with pytest.raises(q.DimensionBudgetExceeded) as exc:
            q.truncated_overlap(bra, ket, 10**7)
        assert exc.value.context["sites"] == 10**7 - 3
        assert calls == [] and stacked == []

    def test_expectation_sweep_blocks_its_images_past_the_prefix(self, monkeypatch):
        """Operator images of a decoded tail are bracketed in tail blocks
        too, up to the last cut."""
        rng = np.random.default_rng(23)
        w = random_factor(rng, 2)
        state = decoded_family(rng, "p-series", 100, near(rng, w))
        op = random_operator(rng, dim=2, n_terms=2, max_prefix=80)
        cuts = [1, 64, 65, 100, 101, 3000]
        used = _uses_blocks(monkeypatch)
        got = q.expectation_sweep(op, state, cuts)
        assert used == [(0, cuts[-1])]
        want = site_by_site(monkeypatch, q.expectation_sweep, op, state, cuts)
        # runs play no part: a p-series state has none
        assert state.run_starts == ()
        image = q.apply_operator(op, state)
        assert_walks_agree(state, image, _sweep_pairs(got), _sweep_pairs(want), cuts)

    def test_a_long_tail_walk_holds_one_small_block(self, monkeypatch):
        """A decoded geometric pair at 3e4 sites peaks below 2 MB traced; with
        its tail in one block of 2^16 amplitudes it would hold about 4 MB."""
        import tracemalloc

        rng = np.random.default_rng(29)
        w = random_factor(rng, 2)
        bra = decoded_family(rng, "geometric", 3, near(rng, w))
        ket = decoded_family(rng, "geometric", 5, near(rng, w))
        n = 3 * 10**4
        q.truncated_overlap(bra, ket, 100)
        used = _uses_blocks(monkeypatch)
        tracemalloc.start()
        try:
            q.truncated_overlap(bra, ket, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert used == [(0, n)]
        assert peak < 2 * 2**20


# -- cuts past the float range -------------------------------------------------
#
# A run of one repeated bracket G reads a cut n as (n - j) * (log|G|, arg G).
# Past the float range that count is multiplied exactly: a modulus below the
# range reads 0 with log-modulus -inf, a unit bracket keeps its log form, and
# a phase that cannot be represented is refused with a code.  The reprs below
# were taken before the change and pin the in-range bits.

E_SKEW = q.FactorVector((0.6, 0.8))


class TestCutsPastTheFloatRange:
    def test_a_modulus_below_the_range_reads_zero(self):
        a, b = q.ProductState((), q.ConstantTail(E0)), q.ProductState((), q.ConstantTail(E_SKEW))
        assert q.truncated_overlap(a, b, 10**400) == 0j
        sweep = q.overlap_sweep(a, b, [10, 10**400])
        assert repr(sweep.values) == "((0.006046617599999999+0j), 0j)"
        assert repr(sweep.log_modulus) == "(-5.108256237659907, -inf)"

    def test_in_range_cuts_keep_their_bits(self):
        a, b = q.ProductState((), q.ConstantTail(E0)), q.ProductState((), q.ConstantTail(E_SKEW))
        assert repr(q.truncated_overlap(a, b, 10**300)) == "0j"
        sweep = q.overlap_sweep(a, b, [10, 64, 65, 10**300])
        assert repr((sweep.values, sweep.log_modulus)) == (
            "(((0.006046617599999999+0j), (6.334028666297314e-15+0j), "
            "(3.800417199778395e-15+0j), 0j), (-5.108256237659907, -32.692839921023406, "
            "-33.203665544789395, -5.108256237659908e+299))"
        )

    def test_a_run_crossed_at_a_million_sites_keeps_its_bits(self):
        ranked = decode_state({
            "type": "product-state",
            "prefix": [],
            "tail": {
                "kind": "parametric", "class": "eventually-constant", "rank": 10**6,
                "scale": 2.0, "limit": [0.6, 0.8], "deviation": [0.2, -0.2],
            },
        })
        ket = q.ProductState((E_SKEW,), q.ConstantTail(E0))
        cuts = [10, 10**6 - 1, 10**6, 10**6 + 1, 2 * 10**6, 10**300, 10**400]
        sweep = q.overlap_sweep(ranked, ket, cuts)
        assert repr(sweep.values) == "((0.12884901888000008+0j), 0j, 0j, 0j, 0j, 0j, 0j)"
        assert repr(sweep.log_modulus) == (
            "(-2.049113956348142, -223143.1458491016, -223143.36899265292, "
            "-223143.87981827668, -733968.9927586436, -5.108256237659908e+299, -inf)"
        )

    def test_a_unit_bracket_keeps_its_value(self):
        a = q.ProductState((E1,), q.ConstantTail(E0))
        sweep = q.overlap_sweep(a, a, [10, 10**400])
        assert sweep.values == (1 + 0j, 1 + 0j) and sweep.log_modulus == (0.0, 0.0)

    @pytest.mark.parametrize("phase", [q.FactorVector((1j, 0j)), q.FactorVector((0.6 + 0.8j, 0j))])
    def test_a_phase_past_the_range_is_refused(self, phase):
        a, b = q.ProductState((), q.ConstantTail(E0)), q.ProductState((), q.ConstantTail(phase))
        q.overlap_sweep(a, b, [10, 10**300])
        with pytest.raises(q.DimensionBudgetExceeded):
            q.overlap_sweep(a, b, [10, 10**400])


# -- many cuts in one read ---------------------------------------------------
#
# ``_Walker.reads`` reads a sorted list of cuts in one call: the cuts inside
# every pair's run from each pair's (log|G|, atan2 G) by
# ``_Accumulator.jumps``, the cuts inside one block with one gather of its
# columns, and every cut through ``_combine``.  Each readout must keep the
# bits of a walk that reads its cut alone, and a read must raise what a lone
# read of its first refused cut raises.


def _many_cut_cases():
    """name -> (bra, ket, cuts worth hitting: run starts, prefix ends, a
    zero bracket's site)."""
    rng = np.random.default_rng(424)
    w = random_factor(rng, 2)
    zeroed = _with_zero(_constant(rng, 90, near(rng, w)), 70, E1)
    cases = {
        "constant": (_constant(rng, 3, near(rng, w)), _constant(rng, 7, near(rng, w)), (3, 7)),
        "eventually-constant": (
            _canonical(rng, 2, 150, near(rng, w)), _constant(rng, 5, near(rng, w)), (5, 150)
        ),
        "geometric": (
            _constant(rng, 3, near(rng, w)), decoded_family(rng, "geometric", 5, near(rng, w)), (5,)
        ),
        "p-series-shifted": (
            decoded_family(rng, "p-series", 80, near(rng, w), SHIFT),
            _constant(rng, 100, near(rng, w)),
            (80, 100, 150),
        ),
        "prefix-blocks": (
            _constant(rng, 200, near(rng, w)), _constant(rng, 230, near(rng, w)), (200, 230)
        ),
        "composite-zero": (
            q.CompositeState((
                (0.6 + 0.2j, _constant(rng, 100, near(rng, w))),
                (-0.3 + 0.1j, _with_zero(_constant(rng, 95, near(rng, w)), 70, E0)),
            )),
            q.CompositeState((
                (0.5 + 0j, zeroed),
                (0.1 - 0.7j, _canonical(rng, 85, 120, near(rng, w))),
            )),
            (70, 71, 85, 90, 95, 100, 120),
        ),
    }
    cases["geometric-composite"] = (*TAIL_BLOCK_CASES["composite"][:2], (7,))
    return cases


MANY_CUT_CASES = _many_cut_cases()
# past DIRECT_LIMIT, past 32-site blocks and 4096-site tail blocks, past the float range
MANY_CUT_MARKS = (1, 2, 31, 32, 33, 63, 64, 65, 66, 96, 97, 4100, 4101, 10**20, 10**400)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except q.QsectorsError as exc:
        return type(exc).__name__


@st.composite
def _many_cut_reads(draw):
    name = draw(st.sampled_from(sorted(MANY_CUT_CASES)))
    marks = sorted(set(MANY_CUT_MARKS) | {
        c + d for c in MANY_CUT_CASES[name][2] for d in (-1, 0, 1) if c + d >= 1
    })
    cuts = draw(st.lists(
        st.one_of(st.sampled_from(marks), st.integers(1, 5000)), min_size=1, max_size=10, unique=True
    ))
    return name, sorted(cuts), draw(st.booleans())


class TestManyCutsInOneRead:
    def test_cases_take_every_path(self):
        walkers = {
            name: overlaps._Walker(*overlaps._sides(bra, ket))
            for name, (bra, ket, _) in MANY_CUT_CASES.items()
        }
        assert walkers["constant"].blocked == 0 and walkers["geometric"].blocked == math.inf
        assert walkers["prefix-blocks"].blocked == 230
        assert walkers["composite-zero"].blocked == 95
        assert walkers["eventually-constant"].blocked == 0

    @settings(max_examples=60, deadline=None)
    @given(_many_cut_reads())
    def test_a_sweep_keeps_the_bits_of_one_walk_per_cut(self, drawn):
        name, cuts, small_blocks = drawn
        bra, ket, _ = MANY_CUT_CASES[name]
        with pytest.MonkeyPatch.context() as m:
            if small_blocks:  # a one-pair walk of dim 2 takes 32-site blocks
                m.setattr(overlaps, "BLOCK_AMPLITUDES", 2**6)
            sweep = _outcome(q.overlap_sweep, bra, ket, cuts)
            alone = [_outcome(q.overlap_sweep, bra, ket, [n]) for n in cuts]
            values = [_outcome(q.truncated_overlap, bra, ket, n) for n in cuts]
        refused = [a for a in alone if isinstance(a, str)]
        if refused:
            assert sweep == refused[0]
            return
        for k, single in enumerate(alone):
            assert _sweep_bits(single) == repr(((sweep.values[k],), (sweep.log_modulus[k],)))
            assert repr(values[k]) == repr(sweep.values[k])

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.sampled_from([
                0j, 0.6 + 0.3j, 1e-300, 1 + 0j, 1j, cmath.exp(1j), cmath.exp(1e-300j),
                1.5 - 2j, complex(1.5e308, 1.5e308),
            ]),
            st.complex_numbers(allow_nan=False, allow_infinity=False),
        ),
        st.booleans(),
        st.tuples(
            st.one_of(st.sampled_from([0.0, -0.0, -math.inf]), st.floats(-1e300, 1e300)),
            st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e300, 1e300)),
            st.sampled_from([False, False, True]),
        ),
        st.lists(
            st.one_of(st.sampled_from([0, 1, 10**20, 10**300, 10**400]), st.integers(0, 10**6)),
            min_size=1, max_size=8, unique=True,
        ),
        st.booleans(),
    )
    def test_jumps_are_the_per_count_jumps(self, g, given_steps, acc, counts, from_zero):
        # the closed form a run's cuts take at once, against ``jump`` at each
        # count: the same bits, or the same refusal; a batch read at a run's
        # start leads with count 0
        counts = sorted(set(counts) | {0} if from_zero else counts)
        steps = products._log_steps(g) if given_steps else None

        def outcome(fn):
            try:
                return repr(fn())
            except (q.QsectorsError, OverflowError) as exc:
                return type(exc).__name__, str(exc), repr(getattr(exc, "context", None))

        assert outcome(lambda: products._Accumulator(*acc).jumps(g, steps, counts)) == outcome(
            lambda: [products._Accumulator(*acc).jump(g, steps, c) for c in counts]
        )

    def test_a_sweep_from_a_run_start_jumps_in_closed_form(self, monkeypatch):
        # the sweep's first cut is the run start itself, count 0 of the run;
        # the cuts after it are read in closed form, not count by count
        rng = np.random.default_rng(29)
        bra, ket = (
            q.ProductState(tuple(random_factor(rng, 2) for _ in range(100)), q.ConstantTail(w))
            for w in (random_factor(rng, 2), random_factor(rng, 2))
        )
        cuts = range(100, 2100, 10)
        want = q.overlap_sweep(bra, ket, cuts)
        calls = []
        real = products._Accumulator.jump
        monkeypatch.setattr(
            products._Accumulator, "jump", lambda acc, *args: calls.append(args) or real(acc, *args)
        )
        got = q.overlap_sweep(bra, ket, cuts)
        assert len(calls) <= 1
        assert repr(got) == repr(want)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
                st.complex_numbers(allow_nan=True, allow_infinity=True),
                st.booleans(),
            ),
            min_size=1, max_size=6,
        ),
        st.sampled_from([0, 1, 64, 65, 10**6]),
    )
    def test_combine_makes_the_operations_of_sum_and_max(self, pairs, truncation):
        # the list forms ``_combine`` had before its plain loops, kept as the reference
        def reference(readout, forms, zeros, truncation):
            if truncation <= overlaps.DIRECT_LIMIT:
                total = sum([c * forms[k] if not zeros[k] else 0j for c, k in readout])
                return total, math.log(abs(total)) if total != 0 else -math.inf
            live = [(c, forms[k]) for c, k in readout if not zeros[k]]
            if not live:
                return 0j, -math.inf
            shift = max([form.real for _, form in live])
            reduced = sum([c * cmath.exp(complex(form.real - shift, form.imag)) for c, form in live])
            if reduced == 0:
                return 0j, -math.inf
            log_mod = shift + math.log(abs(reduced))
            value = reduced * math.exp(shift) if shift < 700.0 else cmath.exp(
                complex(min(log_mod, 700.0), cmath.phase(reduced))
            )
            return value, log_mod

        readout = [(c, k) for k, (c, _, _) in enumerate(pairs)]
        forms = [f for _, f, _ in pairs]
        zeros = [z for _, _, z in pairs]

        def bits(fn):
            try:
                return repr(fn(readout, forms, zeros, truncation))
            except (ValueError, OverflowError) as exc:
                return type(exc).__name__

        assert bits(overlaps._combine) == bits(reference)

    @pytest.mark.parametrize("name", ["constant", "prefix-blocks", "geometric"])
    def test_the_budget_is_checked_once_for_the_last_cut(self, name, monkeypatch):
        bra, ket, _ = MANY_CUT_CASES[name]
        checked = []
        real = overlaps._Walker.check
        monkeypatch.setattr(overlaps._Walker, "check", lambda w, cut: checked.append(cut) or real(w, cut))
        cuts = [1, 64, 65, 100, 150, 229, 230, 231, 3000]
        q.overlap_sweep(bra, ket, cuts)
        assert checked == [3000]

    @pytest.mark.parametrize("name", ["constant", "eventually-constant", "prefix-blocks"])
    def test_cuts_in_a_run_or_a_block_take_no_per_cut_forms(self, name, monkeypatch):
        bra, ket, _ = MANY_CUT_CASES[name]
        callers = []
        real = products._Accumulator.jump

        def spy(acc, *args):
            callers.append(sys._getframe(1).f_code.co_name)
            return real(acc, *args)

        monkeypatch.setattr(products._Accumulator, "jump", spy)
        cuts = list(range(70, 2000, 7))
        sweep = q.overlap_sweep(bra, ket, cuts)
        # a pair that leaves one run for the next crosses it in one jump; no
        # cut is read through a per-count jump
        assert set(callers) <= {"_arrive"} and len(sweep.values) == len(cuts)

    @pytest.mark.parametrize(
        "terms, cuts",
        [
            pytest.param(
                (cmath.exp(1e-300j), cmath.exp(1j)), [10**400, 10**700], id="late-then-early-refusal"
            ),
            pytest.param(
                (0.9 * cmath.exp(0.5j), 0j, cmath.exp(2j), cmath.exp(3j)),
                [10**6, 7 * 10**307, 10**308],
                id="closed-form-zero-late-and-early-refusal",
            ),
        ],
    )
    def test_a_batched_read_refuses_as_its_first_refused_cut_alone(self, terms, cuts):
        # each ket term is a constant tail c|up>, or |down> where c is 0, so
        # its pair's bracket is c.  The last pair's phase leaves the float
        # range at the middle cut, an earlier pair's only at the last; a
        # first pair with |c| < 1 takes the closed form at every cut.
        bra = q.ProductState((), q.ConstantTail(E0))
        kets = [
            q.ProductState((), q.ConstantTail(q.FactorVector((c, 0j)) if c else E1)) for c in terms
        ]
        ket = q.CompositeState(tuple((1.0 + 0j, k) for k in kets))

        def refusal(cuts):
            with pytest.raises(q.DimensionBudgetExceeded) as info:
                q.overlap_sweep(bra, ket, cuts)
            return info.value.message, info.value.context

        alone = refusal(cuts[-2:-1])
        assert alone[1]["bracket"] == terms[-1]
        assert refusal(cuts) == alone


# -- the block walk's bits, frozen ---------------------------------------------
#
# Readouts of the stacked block walk over explicit prefixes past DIRECT_LIMIT,
# frozen as reprs: composites with a dim change inside the prefix, sweeps with
# cuts at or below 64, inside blocks and at block ends, the density's
# above-diagonal gather with an exactly-zero bracket, and images of prefix
# operators of mixed dims.  How the walk stacks rows, hands back its Gram
# blocks and reads their columns must leave every bit as it is.  With
# BLOCK_AMPLITUDES = 2**9 the sweeps' 6 x 5 term pairs take 17-site blocks,
# which end at 68 and 85 from site 0.

WALK_DIMS = [4] * 200 + [2] * 40 + [3] * 60 + [2] * 140


def _frozen_composite(rng, lengths, dims=WALK_DIMS):
    """One term per prefix length in ``lengths``, near shared rows over ``dims``."""
    base = _unit_rows(rng, dims)
    terms = [_block_term(rng, base, n, dims[-1], False) for n in lengths]
    coeffs = rng.normal(size=len(terms)) + 1j * rng.normal(size=len(terms))
    return q.CompositeState(tuple(zip(coeffs.tolist(), terms)))


def _frozen_density_model():
    """Four branches over 150 sites of dim 3; branches 0 and 1 are orthogonal
    at site 100, so that bracket is exactly 0."""
    rng = np.random.default_rng(41)
    branches = []
    for k in range(4):
        prefix = [q.FactorVector(tuple(v.tolist())) for v in _unit_rows(rng, [3] * 150)]
        if k < 2:
            prefix[100] = q.basis_vector(3, k)
        (limit,) = _unit_rows(rng, [3])
        tail = q.ConstantTail(q.FactorVector(tuple(limit.tolist())))
        branches.append(q.ProductState(tuple(prefix), tail))
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    return q.MeasurementModel(tuple(amps.tolist()), tuple(branches))


def _frozen_operator_case(seed, dims, terms):
    """A 210-site state over ``dims`` and an operator with one term per
    (prefix operator count, tail kind) of ``terms``, near the identity."""
    rng = np.random.default_rng(seed)
    prefix = tuple(q.FactorVector(tuple(v.tolist())) for v in _unit_rows(rng, dims[:210]))
    (limit,) = _unit_rows(rng, [2])
    state = q.ProductState(prefix, q.ConstantTail(q.FactorVector(tuple(limit.tolist()))))

    def near_identity(d):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return FactorOperator(np.eye(d) + 0.1 * g)

    op_terms = []
    for n_ops, constant in terms:
        ops = tuple(near_identity(d) for d in dims[:n_ops])
        tail = ConstantOperatorTail(near_identity(2)) if constant else IdentityTail(2)
        op_terms.append(OperatorTerm(complex(rng.normal(), rng.normal()), ops, tail))
    return FactoredOperator(tuple(op_terms)), state


def _columns(sweep):
    return sweep.values, sweep.log_modulus


def _frozen_walk_cases():
    """name -> a function that reads the case's readouts."""
    rng = np.random.default_rng(37)
    wide_bra = _frozen_composite(rng, [300] * 5, [3] * 300)
    wide_ket = _frozen_composite(rng, [300] * 4, [3] * 300)
    mixed_bra = _frozen_composite(rng, [420, 440, 430])
    mixed_ket = _frozen_composite(rng, [440, 425])
    sweep_bra = _frozen_composite(rng, [400] * 6)
    sweep_ket = _frozen_composite(rng, [400, 410, 405, 400, 420])
    sweep_cuts = [1, 30, 64, 65, 67, 68, 69, 84, 85, 86, 199, 200, 201, 399, 400, 401, 450]
    model = _frozen_density_model()
    # terms must agree on dims, so where the prefix dims leave the tail's,
    # every term's prefix operators cross the change
    op, state = _frozen_operator_case(43, [2] * 240, [(0, True), (120, False), (180, True)])
    mixed_op, mixed_state = _frozen_operator_case(
        47, [2] * 100 + [3] * 60 + [2] * 80, [(160, False), (175, False), (230, False)]
    )
    op_cuts = [1, 40, 64, 65, 100, 101, 119, 120, 121, 159, 160, 161, 175, 176, 180, 181,
               209, 210, 211, 230, 231, 300]
    return {
        "composite-wide": lambda: [
            q.composite_overlap(wide_bra, wide_ket, n) for n in (65, 250, 300, 320)
        ],
        "distance-wide": lambda: [q.distance(wide_bra, wide_ket, n) for n in (250, 320)],
        "composite-dim-change": lambda: [
            q.composite_overlap(mixed_bra, mixed_ket, n) for n in (210, 260, 420, 430)
        ],
        "distance-dim-change": lambda: [q.distance(mixed_bra, mixed_ket, n) for n in (210, 420)],
        "sweep": lambda: _columns(q.overlap_sweep(sweep_bra, sweep_ket, sweep_cuts)),
        "density": lambda: [
            q.truncated_density(model, n).matrix.tolist() for n in (50, 99, 100, 101, 150, 200)
        ],
        "expectation": lambda: _columns(q.expectation_sweep(op, state, op_cuts)),
        "expectation-dim-change": lambda: _columns(
            q.expectation_sweep(mixed_op, mixed_state, op_cuts)
        ),
    }


FROZEN_WALK_CASES = _frozen_walk_cases()

# repr of each case's readouts, frozen from the walk that stacked each block's
# rows anew and read each cut through one accumulator per pair
FROZEN_WALK = {
    'composite-dim-change': '[(2.1745715586529373e-81-6.946106367902705e-82j), (6.408639213585987e-93+1.044665734633128e-93j), (9.827844233016826e-131-1.1281731362333396e-130j), (1.0235665196894825e-132-2.257119326553584e-133j)]',
    'composite-wide': '[(3.189339061949757e-20-2.914717157019545e-20j), (-5.720087115166837e-75-9.644559442531841e-75j), (3.364280444913816e-89+3.7039853048907203e-90j), (5.1625901394579016e-93-5.724323863332301e-93j)]',
    'density': '[[[(0.04258143757285204+0j), (-5.1431207101010566e-18-3.1100725081168645e-18j), (-8.489615822322475e-17+1.1922262117194706e-16j), (-3.747687633014235e-18-1.3423613367109418e-18j)], [(-5.1431207101010566e-18+3.1100725081168645e-18j), (0.2841413994471253+0j), (1.2896894044722112e-15-1.2676349656662634e-15j), (-3.3728117912143033e-21-3.19358300551915e-22j)], [(-8.489615822322475e-17-1.1922262117194706e-16j), (1.2896894044722112e-15+1.2676349656662634e-15j), (0.520467857910364+0j), (2.1778433293939752e-16-3.019391357930198e-17j)], [(-3.747687633014235e-18+1.3423613367109418e-18j), (-3.3728117912143033e-21+3.19358300551915e-22j), (2.1778433293939752e-16+3.019391357930198e-17j), (0.15280930506965865+0j)]], [[(0.04258143757285204+0j), (1.4113217274375035e-34+7.065135934393735e-35j), (-6.239985139895201e-30+1.8306996490421097e-29j), (1.8439214952378082e-34+1.8682593670057864e-34j)], [(1.4113217274375035e-34-7.065135934393735e-35j), (0.2841413994471253+0j), (5.46810075906369e-33-8.462962843510912e-33j), (-3.4289227254997506e-39-9.097007396914381e-39j)], [(-6.239985139895201e-30-1.8306996490421097e-29j), (5.46810075906369e-33+8.462962843510912e-33j), (0.520467857910364+0j), (-3.7088292625062424e-31+8.542498586003855e-31j)], [(1.8439214952378082e-34-1.8682593670057864e-34j), (-3.4289227254997506e-39+9.097007396914381e-39j), (-3.7088292625062424e-31-8.542498586003855e-31j), (0.15280930506965865+0j)]], [[(0.04258143757285204+0j), (7.693207221722979e-35+3.5287598045804874e-35j), (-6.665934791864124e-30-7.102337473789812e-31j), (1.3817978921689084e-34-1.3322992264884535e-35j)], [(7.693207221722979e-35-3.5287598045804874e-35j), (0.2841413994471253+0j), (4.2876230921875594e-33-3.0162293054968716e-33j), (-8.336525871184277e-39-1.6566100309338035e-39j)], [(-6.665934791864124e-30+7.102337473789812e-31j), (4.2876230921875594e-33+3.0162293054968716e-33j), (0.520467857910364+0j), (5.8859307301608805e-31+4.981942601282852e-31j)], [(1.3817978921689084e-34+1.3322992264884535e-35j), (-8.336525871184277e-39+1.6566100309338035e-39j), (5.8859307301608805e-31-4.981942601282852e-31j), (0.15280930506965865+0j)]], [[(0.04258143757285204+0j), -0j, (-4.76990768393809e-30-2.4215402884104038e-30j), (-3.5972838619576873e-35-8.290466368171259e-35j)], [0j, (0.2841413994471253+0j), (2.5838952109968465e-33+5.008966441396058e-34j), (-2.720951134096896e-39-7.112513416000939e-41j)], [(-4.76990768393809e-30+2.4215402884104038e-30j), (2.5838952109968465e-33-5.008966441396058e-34j), (0.520467857910364+0j), (2.935566985730493e-32-5.795556769675501e-31j)], [(-3.5972838619576873e-35+8.290466368171259e-35j), (-2.720951134096896e-39+7.112513416000939e-41j), (2.935566985730493e-32+5.795556769675501e-31j), (0.15280930506965865+0j)]], [[(0.04258143757285204+0j), -0j, (-1.5071323540127353e-45-2.227229230624961e-45j), (-2.655374379089216e-51-5.75841461906716e-51j)], [0j, (0.2841413994471253+0j), (1.29264404438956e-44+1.291312183774748e-44j), (-3.300614710862985e-54+1.081658114828605e-54j)], [(-1.5071323540127353e-45+2.227229230624961e-45j), (1.29264404438956e-44-1.291312183774748e-44j), (0.520467857910364+0j), (-1.2778563694768612e-47-5.493048674875418e-48j)], [(-2.655374379089216e-51+5.75841461906716e-51j), (-3.300614710862985e-54-1.081658114828605e-54j), (-1.2778563694768612e-47+5.493048674875418e-48j), (0.15280930506965865+0j)]], [[(0.04258143757285204+0j), -0j, (1.331724570612287e-49-2.6233936040440696e-49j), (3.322379428791986e-57-6.130720282916646e-57j)], [0j, (0.2841413994471253+0j), (1.0316429538325889e-63-1.2147658915013449e-63j), (-6.453553543889684e-75-1.4929846568256582e-74j)], [(1.331724570612287e-49+2.6233936040440696e-49j), (1.0316429538325889e-63+1.2147658915013449e-63j), (0.520467857910364+0j), (-3.4725747931012535e-53-5.877174722290645e-53j)], [(3.322379428791986e-57+6.130720282916646e-57j), (-6.453553543889684e-75+1.4929846568256582e-74j), (-3.4725747931012535e-53+5.877174722290645e-53j), (0.15280930506965865+0j)]]]',
    'distance-dim-change': '[23.174465430901613, 23.17437876697164]',
    'distance-wide': '[18.5339711214991, 18.605116757849352]',
    'expectation': '(((-3.1988877505608184+0.6194899259771351j), (28.84527739162481-5.8907851255943j), (-7.138928419591349-105.00340738189264j), (-19.981729572424246-109.53571085659692j), (87.03325135060601+777.1099691814816j), (208.87658905974362+774.2043660103466j), (2381.1831012907583-71.5120127300628j), (2489.0050506051566-360.19632847032824j), (2793.971586488573-419.19725132955836j), (-13459.430190694211-20178.62257058731j), (-15801.966941870505-21995.252468501738j), (-18420.592515076856-24310.120820970842j), (-78041.01107946337+20300.2016956971j), (-74223.90518457467+29356.38418461583j), (-73153.92916018868+70473.27859281901j), (-80247.49589810966+81429.91896438514j), (371964.908670406-40222.19442580261j), (410616.29988655547-58579.134489770935j), (427962.78232383693-127302.26748572638j), (-1806357.9448366263-95958.81298482127j), (-1938183.7414821251+183189.4032336357j), (199145807.53730035-206807819.72977525j)), (1.1812117904299637, 3.3823760867415285, 4.656298631921663, 4.712618665495494, 6.66181442246608, 6.686966976288077, 7.775803505858412, 7.830001405852695, 7.946350005399075, 10.096401895454438, 10.206664504054782, 10.325508945439953, 11.297726093036886, 11.28750999369183, 11.528576937528177, 11.646811515160135, 12.832367401565833, 12.935488461225116, 13.00918404618306, 14.408232220236549, 14.481708682481228, 19.4753539864481))',
    'expectation-dim-change': '(((1.484886936071113-0.3295654335317481j), (1.4244915182354567-0.3196528476596847j), (1.183492685733094-0.5738013258755335j), (0.9311368238670457-0.6538027267539724j), (0.46055322479163724-0.8565453393424016j), (0.6559101014612726-0.618103238977021j), (-0.16329462972031167-1.4539821246487932j), (-0.08368783002256493-0.9932194729474286j), (-0.06487114502943063-1.0543327727104248j), (-0.385435680582121-1.535914959522144j), (-0.6642489796579361-1.7841772515655878j), (-0.8753181655460949-2.0221745751323787j), (0.28714770936397344-3.3004180765038016j), (0.21848039324062465-3.2713856336491927j), (0.17434822821247248-3.273290017791965j), (0.15560697565417836-3.327839711158048j), (0.4948257570213568-3.1238727206401253j), (0.48755544691170005-3.1807500096597057j), (0.45458885509104335-3.2218797678229723j), (0.5712708668129287-3.023367845574129j), (0.5712708668129287-3.023367845574129j), (0.5712708668129287-3.023367845574129j)), (0.41938132398485306, 0.3783787359522148, 0.27403263952510587, 0.12905213650750935, -0.027873075133562297, -0.10396144080093439, 0.3805732487927429, -0.0032663587366258406, 0.0547974066574638, 0.459662148330058, 0.6438602668507026, 0.7900428504600312, 1.1978196963204155, 1.1874388141252004, 1.187212114457648, 1.2034153740443305, 1.1514641822633802, 1.168728998369162, 1.1798209855984905, 1.123911501639006, 1.123911501639006, 1.123911501639006))',
    'sweep': '(((6.324139217198143+8.904362530477139j), (-3.948389315060795e-13+9.09564721273918e-13j), (-9.510181049436232e-27-5.4573835961208834e-27j), (2.7022908706570926e-27-3.748670987068051e-27j), (2.9160931975309103e-28+5.768781384603326e-28j), (1.9562621148967838e-29+2.0602704838275845e-28j), (-6.113909370239166e-29-5.901127882426084e-29j), (9.79136645431082e-35-1.7364138276735762e-34j), (-1.8766697978043928e-35+8.702726447758888e-35j), (-3.2387310480930647e-35-7.883891385637269e-36j), (3.007684451054964e-76-2.4093566032848304e-77j), (-1.2702892794380203e-77+9.029652147974482e-77j), (-1.2764598934294058e-76+2.60876880822824e-77j), (1.7683318378903047e-119-2.1038440426553492e-119j), (-4.224551785326089e-120+3.042092701449289e-119j), (-3.226469526924992e-119-9.798548679385687e-120j), (-1.8226508833598835e-120-1.0438695223397156e-122j)), (2.3907469328487334, -27.639489545047738, -59.77510844916466, -60.63915666314737, -62.60614454758704, -63.74505761289591, -64.6352255270537, -77.59802652579172, -78.40411564239076, -79.38651331992166, -173.89209827983422, -175.0887395643455, -174.73191628721537, -272.9966432393132, -272.8855297694247, -272.79212718645385, -275.7099027884186))',
}


@pytest.mark.parametrize("small_blocks", [False, True])
@pytest.mark.parametrize("name", sorted(FROZEN_WALK_CASES))
def test_block_walk_bits_are_frozen(name, small_blocks, monkeypatch):
    if small_blocks:
        monkeypatch.setattr(overlaps, "BLOCK_AMPLITUDES", 2**9)
    assert repr(FROZEN_WALK_CASES[name]()) == FROZEN_WALK[name]


# -- one record of direct products per pair -------------------------------------
#
# Each pair's record holds its direct products at cuts <= DIRECT_LIMIT,
# appended by whichever path brackets its sites: stacked blocks, the
# site-by-site loop, or a run's bracket repeated from the run's start.  So
# those cuts read in any order, between increasing cuts past it, the bits a
# fresh walk reads, and a blocked walk brackets no site twice.


def _record_cases():
    """name -> (bra, ket): walks of each kind over the sites up to 64."""
    rng = np.random.default_rng(2035)
    u, v, w = (random_factor(rng, 2) for _ in range(3))
    dims = [2] * 30 + [3] * 20 + [2] * 70  # the dim changes inside the prefixes
    base = _unit_rows(rng, dims)
    bra_terms = [_block_term(rng, base, n, 2, False) for n in (100, 104, 120)]
    ket_terms = [_block_term(rng, base, n, 2, False) for n in (110, 101)]
    # orthogonal at site 40 zeroes one pair there; a zero vector at site 12
    # zeroes every pair of its term
    bra_terms[0] = _with_zero(bra_terms[0], 40, q.basis_vector(3, 0))
    ket_terms[1] = _with_zero(ket_terms[1], 40, q.basis_vector(3, 1))
    bra_terms[2] = _with_zero(bra_terms[2], 12, q.FactorVector((0j, 0j)))

    def composite(terms):
        coeffs = rng.normal(size=len(terms)) + 1j * rng.normal(size=len(terms))
        return q.CompositeState(tuple(zip(coeffs.tolist(), terms)))

    # brackets past the float range make the direct product NaN before a zero
    # bracket at site 2, so only the zero cut reads the products from cut 3 as 0
    big = q.FactorVector((1e200 + 0j, 0j))
    overflow = [(big, big, f) for f in (E0, E1)]

    return {
        "blocked-prefix": tuple(_block_term(rng, base, 100, 2, False) for _ in range(2)),
        "blocked-prefix-callback-tail": tuple(
            _block_term(rng, base, 90, 2, True) for _ in range(2)
        ),
        "blocked-geometric": (
            decoded_family(rng, "geometric", 3, near(rng, w)),
            decoded_family(rng, "geometric", 5, near(rng, w), SHIFT),
        ),
        "blocked-p-series": (
            decoded_family(rng, "p-series", 0, near(rng, w)),
            decoded_family(rng, "p-series", 2, near(rng, w)),
        ),
        "blocked-composite-zero": (composite(bra_terms), composite(ket_terms)),
        "blocked-overflow-zero": tuple(
            q.make_product_state(f + (E0,) * 100, q.ConstantTail(E0)) for f in overflow
        ),
        "site-by-site": (_geometric(rng, 3, w), _geometric(rng, 5, w)),
        "site-by-site-overflow-zero": tuple(
            q.ProductState(f, _geometric(rng, 0, E0).tail) for f in overflow
        ),
        "runs-constant": (_constant(rng, 3, u), _constant(rng, 7, v)),
        "runs-decoded-rank": (_canonical(rng, 3, 30, u), _canonical(rng, 5, 45, v)),
        "runs-composite-zero": (
            composite([_constant(rng, 2, E0), _canonical(rng, 4, 20, u)]),
            composite([_constant(rng, 3, E1), _constant(rng, 0, v)]),
        ),
        "runs-overflow-zero": tuple(
            q.make_product_state(f[:2], q.ConstantTail(f[2])) for f in overflow
        ),
        "runs-and-site-by-site": (
            composite([_canonical(rng, 2, 45, u), _geometric(rng, 3, v)]),
            composite([_constant(rng, 11, v)]),
        ),
    }


RECORD_CASES = _record_cases()


def _fresh_read(bra, ket, n):
    return repr(overlaps._Walker(*overlaps._sides(bra, ket)).read(n))


def _direct_read(bra, ket, n):
    """repr of the walk's readout at a cut n <= 64, built without the walk:
    each term pair's ``factor_overlap`` brackets multiplied in site order
    from 1, a pair with a zero bracket adding 0j, summed as ``_combine`` sums."""
    total = 0
    for cm, a in overlaps._as_terms(bra):
        for cn, b in overlaps._as_terms(ket):
            brackets = [q.factor_overlap(a.factor_at(s), b.factor_at(s)) for s in range(n)]
            product = math.prod(brackets, start=1.0 + 0j)
            total = total + (cm.conjugate() * cn * product if 0 not in brackets else 0j)
    return repr([(total, math.log(abs(total)) if total != 0 else -math.inf)])


class TestDirectRecord:
    def test_cases_take_each_path(self):
        for name, (bra, ket) in RECORD_CASES.items():
            walker = overlaps._Walker(*overlaps._sides(bra, ket))
            if name.startswith("blocked"):
                assert walker.blocked > overlaps.DIRECT_LIMIT
            else:
                assert walker.blocked == 0
                assert (min(walker.firsts) <= 11) is name.startswith("runs")
            walker.read(overlaps.DIRECT_LIMIT)
            zeros = [z for z in walker.zero_at if z <= overlaps.DIRECT_LIMIT]
            assert bool(zeros) is name.endswith("zero")
        assert {f.dim for f in RECORD_CASES["blocked-prefix"][0].prefix} == {2, 3}

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(RECORD_CASES)),
        st.lists(st.integers(0, 200), min_size=1, max_size=10),
    )
    def test_short_cuts_read_in_any_order_keep_the_bits_of_a_fresh_walk(self, name, drawn):
        bra, ket = RECORD_CASES[name]
        walker = overlaps._Walker(*overlaps._sides(bra, ket))
        last = overlaps.DIRECT_LIMIT
        for n in drawn:
            if n > overlaps.DIRECT_LIMIT:  # cuts past 64 increase
                n = last = n if n > last else last + n - overlaps.DIRECT_LIMIT
            got = repr(walker.read(n))
            assert got == _fresh_read(bra, ket, n)
            if n <= overlaps.DIRECT_LIMIT:
                assert got == _direct_read(bra, ket, n)

    @pytest.mark.parametrize("name", sorted(RECORD_CASES))
    def test_every_short_cut_read_backwards_is_the_direct_product(self, name):
        bra, ket = RECORD_CASES[name]
        walker = overlaps._Walker(*overlaps._sides(bra, ket))
        walker.read(100)
        for n in range(overlaps.DIRECT_LIMIT, -1, -1):
            assert repr(walker.read(n)) == _direct_read(bra, ket, n)

    @pytest.mark.parametrize("name", sorted(n for n in RECORD_CASES if n.startswith("blocked")))
    def test_a_blocked_walk_brackets_each_site_below_its_last_cut_once(self, name, monkeypatch):
        bra, ket = RECORD_CASES[name]
        sites = []
        real = overlaps._stacked_brackets
        monkeypatch.setattr(
            overlaps, "_stacked_brackets", lambda b, k: sites.append(b.shape[1]) or real(b, k)
        )
        cuts = [40, 10, 64, 1, 70, 30, 88]
        walker = overlaps._Walker(*overlaps._sides(bra, ket), last_cut=cuts[-1])
        got = [repr(walker.read(n)) for n in cuts]
        assert sum(sites) == cuts[-1]
        del sites[:]
        sweep = q.overlap_sweep(bra, ket, sorted(cuts))
        assert sum(sites) == cuts[-1]
        monkeypatch.undo()
        assert got == [_fresh_read(bra, ket, n) for n in cuts]
        by_cut = dict(zip(sorted(cuts), zip(sweep.values, sweep.log_modulus)))
        assert got == [repr([by_cut[n]]) for n in cuts]

    @pytest.mark.parametrize("name", sorted(n for n in RECORD_CASES if n.startswith("blocked")))
    def test_a_blocked_walk_read_only_past_64_multiplies_out_no_record(self, name, monkeypatch):
        bra, ket = RECORD_CASES[name]
        calls = []
        real = overlaps._Walker._record
        monkeypatch.setattr(
            overlaps._Walker, "_record", lambda w, *args: calls.append(1) or real(w, *args)
        )
        walker = overlaps._Walker(*overlaps._sides(bra, ket))
        got = [repr(walker.read(n)) for n in (65, 70, 88)]
        q.overlap_sweep(bra, ket, [65, 70, 88])
        assert calls == []
        monkeypatch.undo()
        assert got == [_fresh_read(bra, ket, n) for n in (65, 70, 88)]

    @pytest.mark.parametrize("name", sorted(n for n in RECORD_CASES if n.startswith("blocked")))
    def test_short_reads_after_a_long_one_multiply_out_as_far_as_they_need(self, name):
        bra, ket = RECORD_CASES[name]
        walker = overlaps._Walker(*overlaps._sides(bra, ket))
        walker.read(100)
        assert [len(row) for row in walker.direct] == [1] * len(walker.keys)
        assert repr(walker.read(40)) == _fresh_read(bra, ket, 40) == _direct_read(bra, ket, 40)
        assert [len(row) for row in walker.direct] == [41] * len(walker.keys)
        assert repr(walker.read(1)) == _fresh_read(bra, ket, 1) == _direct_read(bra, ket, 1)
        assert repr(walker.read(64)) == _fresh_read(bra, ket, 64)

    @pytest.mark.parametrize("small_blocks", [False, True])
    @pytest.mark.parametrize("name", sorted(n for n in RECORD_CASES if n.startswith("blocked")))
    def test_kept_raw_brackets_are_a_short_copy(self, name, small_blocks, monkeypatch):
        """The raw brackets of sites below 64 are copied out of each block's
        einsum output, at most DIRECT_LIMIT columns of them, also when
        several blocks lie below 64."""
        if small_blocks:
            monkeypatch.setattr(overlaps, "BLOCK_AMPLITUDES", 2**4)
        bra, ket = RECORD_CASES[name]
        outputs = []
        real = overlaps._stacked_brackets
        monkeypatch.setattr(
            overlaps, "_stacked_brackets", lambda b, k: outputs.append(real(b, k)) or outputs[-1]
        )
        walker = overlaps._Walker(*overlaps._sides(bra, ket))
        walker.read(100)
        assert len(outputs) > 1 if small_blocks else outputs
        assert walker.raw.shape == (len(walker.keys), overlaps.DIRECT_LIMIT)
        assert not any(np.shares_memory(walker.raw, out) for out in outputs)
        assert repr(walker.read(40)) == _direct_read(bra, ket, 40)

    @pytest.mark.parametrize("name", sorted(n for n in RECORD_CASES if n.startswith("blocked")))
    def test_a_blocked_walk_read_only_up_to_64_folds_no_log_forms(self, name, monkeypatch):
        bra, ket = RECORD_CASES[name]
        folded = []
        real = overlaps._log_forms
        monkeypatch.setattr(overlaps, "_log_forms", lambda g: folded.append(1) or real(g))
        cuts = (1, 40, 64)
        got = [repr(overlaps._Walker(*overlaps._sides(bra, ket), last_cut=n).read(n)) for n in cuts]
        q.overlap_sweep(bra, ket, cuts)
        assert folded == []
        q.composite_overlap(bra, ket, 65)
        assert folded
        assert got == [_direct_read(bra, ket, n) for n in cuts]


# -- a wide side's stacks ------------------------------------------------------
#
# A side of more than one term copies its terms' prefix arrays into one stack
# per dim run on first use, and only as far as the walk reads: its last cut,
# or the block stretch's end, whichever comes first.  The stack is kept for
# every later block of the walk.


def _wide(rng, terms, length):
    return q.CompositeState(tuple(
        (complex(rng.normal(), rng.normal()),
         q.ProductState(tuple(random_factor(rng, 2) for _ in range(length)),
                        q.ConstantTail(q.FactorVector((0.6, 0.8)))))
        for _ in range(terms)
    ))


class TestSideStacks:
    @pytest.mark.parametrize("cuts", [[40], [1, 40], [40, 64, 65, 500], [999, 1000, 1200]])
    def test_a_stack_reaches_the_walk_s_reach_alone(self, cuts, monkeypatch):
        rng = np.random.default_rng(len(cuts))
        bra, ket = _wide(rng, 16, 1000), _wide(rng, 16, 1000)
        stacked = []
        real = overlaps._Terms._stack
        monkeypatch.setattr(
            overlaps._Terms, "_stack",
            lambda side, k, start, stop: stacked.append(real(side, k, start, stop)) or stacked[-1],
        )
        bra_side, ket_side, readouts = overlaps._sides(bra, ket)
        got = overlaps._walk(bra_side, ket_side, readouts, cuts)
        # one stack per side, built once for all the walk's blocks
        assert [s.shape for s in stacked] == [(16, min(cuts[-1], 1000), 2)] * 2
        monkeypatch.setattr(
            overlaps._Terms, "_stack", lambda side, k, start, stop: real(side, k, start, math.inf)
        )
        want = overlaps._walk(*overlaps._sides(bra, ket), cuts)
        assert repr(got) == repr(want)

    def test_a_side_read_past_its_stack_stacks_further(self):
        rng = np.random.default_rng(7)
        side = overlaps._Terms([s for _, s in _wide(rng, 3, 300).terms])
        first = side.rows(0, 10, 50)
        assert side._stacks[0].shape == (3, 50, 2)
        assert side.rows(60, 70).shape == (3, 10, 2) and side._stacks[0].shape == (3, 300, 2)
        want = np.stack([s.prefix_rows[0][:10] for s in side.states])
        assert first.tobytes() == want.tobytes() == side.rows(0, 10).tobytes()
