import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsectors as q
from qsectors import overlaps
from qsectors.oracle import dense_overlap, densify

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


# -- block stretch ----------------------------------------------------------
#
# Past the last cut <= DIRECT_LIMIT, sites every term holds explicitly are
# bracketed in stacked numpy blocks.  These tests compare that path with the
# site-by-site walk over the same sides (``explicit = 0`` turns the block
# stretch off).  Sums of n logs or angles round at about 1e-16 of their
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
        image = q.apply_operator(op, s)
        want = q.overlap_sweep(s, image, cuts)
        mass = _log_mass(_site_brackets(s.as_composite(), image, cuts[-1]))[0]
        per_term = [
            (abs(c), q.overlap_sweep(s, t, cuts).log_modulus) for c, t in image.terms
        ]
        for k, n in enumerate(cuts):
            if n <= overlaps.DIRECT_LIMIT:
                assert repr(got.values[k]) == repr(want.values[k])
                continue
            scale = sum(
                c * math.exp(logs[k]) * max(1.0, mass[t, n - 1])
                for t, (c, logs) in enumerate(per_term)
            )
            assert abs(got.values[k] - want.values[k]) <= 1e-12 * scale
