import cmath
import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsectors as q
from qsectors import operators, overlaps
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

from support import random_factor, random_operator, random_product_state

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


def _site_brackets(bra, ket, n):
    """(bra terms, ket terms, sites) brackets of the first n sites."""
    out = []
    for site in range(n):
        rows_b = np.array([s.factor_at(site).amplitudes for _, s in bra.terms])
        rows_k = np.array([s.factor_at(site).amplitudes for _, s in ket.terms])
        out.append(np.conj(rows_b) @ rows_k.T)
    return np.stack(out, axis=-1)


def _log_mass(g):
    """Running sum over sites of |log|g|| + |angle g|, up to the first zero."""
    mod = np.abs(g)
    live = np.cumprod(mod > 0, axis=-1).astype(bool)
    logs = np.abs(np.log(np.where(live, mod, 1.0)))
    return np.cumsum(logs + np.where(live, np.abs(np.angle(g)), 0.0), axis=-1)


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
        mass = _log_mass(_site_brackets(bra, ket, cuts[-1]))
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
    blocks = list(overlaps._bracket_blocks(bra, ket, [(a, b)], lo, hi))
    return [np.concatenate([block[k][0] for block in blocks]).tobytes() for k in (2, 3)]


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


def _site_by_site(monkeypatch, fn, *args):
    """``fn(*args)`` with no runs and no closed tail rows: past the explicit
    prefixes, every site is bracketed one at a time."""
    with monkeypatch.context() as m:
        m.setattr(q.ProductState, "run_starts", property(lambda state: ()))
        m.setattr(q.ConstantTail, "closed_rows", False)
        m.setattr(q.ParametricTail, "closed_rows", False)
        return fn(*args)


def _rounding_room(bra, ket, n):
    """(1e-12 of the largest pair's log mass at n, log of sum_k |c_k| |g_k(n)|):
    a sum of n logs or angles rounds at about 1e-16 of its mass."""
    bra_c = bra if isinstance(bra, q.CompositeState) else bra.as_composite()
    ket_c = ket if isinstance(ket, q.CompositeState) else ket.as_composite()
    g = _site_brackets(bra_c, ket_c, n)
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(g)).sum(axis=-1)
    coeffs = np.outer([abs(c) for c, _ in bra_c.terms], [abs(c) for c, _ in ket_c.terms])
    return 1e-12 * max(1.0, _log_mass(g)[..., -1].max()), np.logaddexp.reduce(
        (np.log(coeffs) + logs).ravel()
    )


def _assert_jump_agrees(bra, ket, got, want, cuts):
    """Bits kept at cuts <= DIRECT_LIMIT; past it, agreement within the
    rounding room of the per-site sums."""
    for n, (v1, l1), (v2, l2) in zip(cuts, got, want):
        if n <= overlaps.DIRECT_LIMIT:
            assert repr((v1, l1)) == repr((v2, l2))
        elif l2 == -math.inf:
            assert (v1, l1) == (0j, -math.inf)
        else:
            room, log_scale = _rounding_room(bra, ket, n)
            assert abs(l1 - l2) <= room * math.exp(log_scale - l2)
            assert abs(v1 - v2) <= room * math.exp(log_scale)


def _sweep_pairs(sweep):
    return list(zip(sweep.values, sweep.log_modulus))


class TestConstantTailJumps:
    @pytest.mark.parametrize("name", sorted(JUMP_CASES))
    def test_agrees_with_the_site_by_site_walk(self, name, monkeypatch):
        bra, ket, j = JUMP_CASES[name]
        cuts = _cuts_for(j)
        got = q.overlap_sweep(bra, ket, cuts)
        want = _site_by_site(monkeypatch, q.overlap_sweep, bra, ket, cuts)
        _assert_jump_agrees(bra, ket, _sweep_pairs(got), _sweep_pairs(want), cuts)

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
        summed = _site_by_site(monkeypatch, q.overlap_sweep, bra, ket, cuts).log_modulus
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
        want = _site_by_site(monkeypatch, q.overlap_sweep, bra, ket, cuts)
        _assert_jump_agrees(bra, ket, _sweep_pairs(got), _sweep_pairs(want), cuts)

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
        want = _site_by_site(monkeypatch, q.expectation_sweep, op, state, cuts)
        image = q.apply_operator(op, state)
        _assert_jump_agrees(state, image, _sweep_pairs(got), _sweep_pairs(want), cuts)

    def test_sixteen_site_spin_blocks(self, monkeypatch):
        scenario = q.SpinChainScenario(Fraction(3, 16))
        counts = [16 * k for k in (1, 2, 40, 64, 65, 80)]
        got = scenario.sweep(counts)
        want = _site_by_site(monkeypatch, scenario.sweep, counts)
        _assert_jump_agrees(
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
        want = _site_by_site(monkeypatch, q.overlap_sweep, bra, ket, cuts)
        _assert_jump_agrees(bra, ket, _sweep_pairs(got), _sweep_pairs(want), cuts)

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
        summed = _site_by_site(monkeypatch, q.overlap_sweep, bra, ket, cuts).log_modulus
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
        want = _site_by_site(monkeypatch, q.expectation_sweep, op, state, cuts)
        assert repr(_sweep_pairs(got)[:9]) == repr(_sweep_pairs(plain)[:9])
        image = q.apply_operator(op, state)
        _assert_jump_agrees(state, image, _sweep_pairs(got), _sweep_pairs(want), cuts)
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

TAIL_FAMILIES = {
    "geometric": ("geometric", {"ratio": 0.995}),
    "p-series": ("p-series", {"p": 1.3}),
    "rank-inside": ("eventually-constant", {"rank": 150}),
    "rank-past": ("eventually-constant", {"rank": 10**6}),
}
TAIL_CUTS = [1, 20, 63, 64, 65, 70, 71, 150, 151, 4098, 4099, 4100, 4500]
SHIFT = 70


def _near(rng, w, eps=0.05):
    v = np.array(w.amplitudes) + eps * np.array(random_factor(rng, w.dim).amplitudes)
    return q.FactorVector(tuple((v / np.linalg.norm(v)).tolist()))


def _family(rng, name, prefix_len, limit, shift=0):
    """A decoded state whose tail is the ``TAIL_FAMILIES[name]`` family
    around ``limit``, with a deviation of norm 0.1, moved ``shift`` sites."""
    cls, declared = TAIL_FAMILIES[name]
    deviation = 0.1 * np.array(random_factor(rng, limit.dim).amplitudes)
    state = decode_state({
        "type": "product-state",
        "prefix": [_vector_doc(random_factor(rng, limit.dim)) for _ in range(prefix_len)],
        "tail": {
            "kind": "parametric",
            "class": cls,
            "scale": 1.0,
            "limit": _vector_doc(limit),
            "deviation": [encode_complex(complex(c)) for c in deviation],
            **declared,
        },
    })
    return q.ProductState(state.prefix, state.tail.shifted(shift)) if shift else state


def _tail_block_cases():
    """name -> (bra, ket, whether the walk blocks its tails)."""
    rng = np.random.default_rng(13)
    w = random_factor(rng, 2)
    cases = {}
    for shift, moved in ((0, ""), (SHIFT, "-shifted")):
        for name in TAIL_FAMILIES:
            cases[f"constant-vs-{name}{moved}"] = (
                _constant(rng, 3, _near(rng, w)),
                _family(rng, name, 5, _near(rng, w), shift),
                not name.startswith("rank"),
            )
        for a, b in (
            ("geometric", "geometric"), ("geometric", "p-series"), ("p-series", "rank-past"),
            ("rank-inside", "geometric"), ("rank-inside", "rank-past"),
        ):
            cases[f"{a}-vs-{b}{moved}"] = (
                _family(rng, a, 2, _near(rng, w)),
                _family(rng, b, 6, _near(rng, w), shift),
                not (a.startswith("rank") and b.startswith("rank")),
            )
    cases["composite"] = (
        q.CompositeState((
            (0.6 + 0.2j, _constant(rng, 3, _near(rng, w))),
            (0.3j, _family(rng, "geometric", 4, _near(rng, w))),
        )),
        q.CompositeState((
            (0.5 + 0j, _family(rng, "p-series", 2, _near(rng, w), SHIFT)),
            (0.1 - 0.7j, _family(rng, "geometric", 7, _near(rng, w), 3)),
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
            _family(rng, name, 0, w, shift).tail
            for name in TAIL_FAMILIES for shift in (0, SHIFT)
        ]
        for tail in tails:
            assert tail.closed_rows
            for lo, hi in ((0, 5), (60, 200), (149, 151)):
                want = np.array([tail.factor_at(n).amplitudes for n in range(lo, hi)])
                assert tail.rows(lo, hi).tobytes() == want.tobytes()
        assert not _plain(_family(rng, "geometric", 0, w)).tail.closed_rows
        assert not _geometric(rng, 0, w).tail.closed_rows

    @pytest.mark.parametrize("name", sorted(TAIL_BLOCK_CASES))
    def test_agrees_with_the_site_by_site_walk(self, name, monkeypatch):
        bra, ket, blocks = TAIL_BLOCK_CASES[name]
        used = _uses_blocks(monkeypatch)
        (got, *_) = _pair_walk(bra, ket, TAIL_CUTS, block=True)
        assert used == [(0, TAIL_CUTS[-1] if blocks else 0)]
        (want, *_) = _pair_walk(bra, ket, TAIL_CUTS, block=False)
        _assert_jump_agrees(bra, ket, got, want, TAIL_CUTS)

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
        family = _family(rng, "geometric", 3, _near(rng, w))
        bra = q.CompositeState(((1.0, family), (0.5j, _geometric(rng, 2, w))))
        ket = _family(rng, "p-series", 4, _near(rng, w))
        assert overlaps._Walker(*overlaps._sides(bra, ket)).blocked == 0
        assert overlaps._Walker(*overlaps._sides(_plain(family), ket)).blocked == 0
        cuts = [1, 64, 65, 300]
        got = q.overlap_sweep(bra, ket, cuts)
        plain = q.CompositeState(tuple((c, _plain(s)) for c, s in bra.terms))
        assert repr(got) == repr(q.overlap_sweep(plain, ket, cuts))

    def test_budget_refusal_comes_before_any_bracket(self, monkeypatch):
        rng = np.random.default_rng(19)
        w = random_factor(rng, 2)
        bra = _family(rng, "geometric", 3, _near(rng, w))
        ket = _family(rng, "geometric", 5, _near(rng, w), SHIFT)
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

    def test_expectation_sweep_keeps_its_bits(self, monkeypatch):
        """Operator images stay on the explicit prefix: no tail rows."""
        rng = np.random.default_rng(23)
        w = random_factor(rng, 2)
        state = _family(rng, "p-series", 100, _near(rng, w))
        op = random_operator(rng, dim=2, n_terms=2, max_prefix=80)
        cuts = [1, 64, 65, 100, 101, 3000]
        got = q.expectation_sweep(op, state, cuts)
        want = _site_by_site(monkeypatch, q.expectation_sweep, op, state, cuts)
        # runs play no part: a p-series state has none
        assert state.run_starts == ()
        assert repr(got) == repr(want)

    def test_a_long_tail_walk_holds_one_small_block(self, monkeypatch):
        """A decoded geometric pair at 3e4 sites peaks below 2 MB traced; with
        its tail in one block of 2^16 amplitudes it would hold about 4 MB."""
        import tracemalloc

        rng = np.random.default_rng(29)
        w = random_factor(rng, 2)
        bra = _family(rng, "geometric", 3, _near(rng, w))
        ket = _family(rng, "geometric", 5, _near(rng, w))
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
