import cmath
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qsectors as q
from qsectors.oracle import dense_density, densify
from qsectors.serialize import decode_state, encode_complex
from qsectors.states import WALK_BUDGET

from support import complex_bits, decoded_family, random_factor

E0 = q.FactorVector((1.0, 0.0))
E1 = q.FactorVector((0.0, 1.0))


def pointer_branch(overlap_with_ref, label=""):
    """Unit branch whose per-site bracket against the reference is fixed."""
    v = q.FactorVector((overlap_with_ref, math.sqrt(1.0 - overlap_with_ref**2)))
    return q.make_product_state((), q.ConstantTail(v), label=label)


def two_outcome_model(eta=0.9, weights=(2**-0.5, 2**-0.5)):
    return q.MeasurementModel(
        coefficients=weights,
        branches=(pointer_branch(1.0, "quiet"), pointer_branch(eta, "kicked")),
    )


class TestMeasurementModel:
    def test_needs_two_outcomes(self):
        with pytest.raises(q.PreconditionViolated):
            q.MeasurementModel((1.0,), (pointer_branch(1.0),))

    def test_count_mismatch(self):
        with pytest.raises(q.PreconditionViolated):
            q.MeasurementModel(
                (2**-0.5, 2**-0.5),
                (pointer_branch(1.0), pointer_branch(0.5), pointer_branch(0.0)),
            )

    def test_requires_normalized_amplitudes(self):
        with pytest.raises(q.InvalidAmplitude):
            q.MeasurementModel(
                (0.9, 0.9), (pointer_branch(1.0), pointer_branch(0.5))
            )

    @pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.inf), -math.inf])
    def test_non_finite_amplitudes_are_refused_before_the_sum(self, bad):
        # a NaN sum would pass the normalization check, so finiteness comes first
        with pytest.raises(q.InvalidAmplitude, match=r"^non-finite pointer amplitude "):
            q.MeasurementModel((bad, 0.5), (pointer_branch(1.0), pointer_branch(0.5)))

    def test_unnormalized_amplitudes_keep_their_message(self):
        with pytest.raises(
            q.InvalidAmplitude, match=r"^pointer amplitudes must be normalized, got sum 1\.62"
        ):
            q.MeasurementModel((0.9, 0.9), (pointer_branch(1.0), pointer_branch(0.5)))

    def test_rejects_a_branch_that_is_not_nontrivial_convergent(self):
        # unit prefix and limit, but a zero tail factor at site 0 that the
        # declared bound still allows: the norm product converges to 0
        def fn(n):
            return q.FactorVector((0.0, 0.0)) if n == 0 else E0

        zero_first = q.ProductState(
            (), q.ParametricTail(2, fn, E0, q.DecaySpec("geometric", ratio=0.5, scale=1.0))
        )
        assert zero_first.sequence_class.kind == "ConvergentSequence"
        with pytest.raises(
            q.PreconditionViolated,
            match="^branch 0 classifies as ConvergentSequence; branches must be non-trivial",
        ):
            q.MeasurementModel((2**-0.5, 2**-0.5), (zero_first, pointer_branch(0.5)))

    def test_rejects_same_sector_branches(self):
        # branches differing only on a finite prefix share a sector
        a = pointer_branch(1.0)
        b = q.apply_finite_change(a, {0: E1})
        with pytest.raises(q.PreconditionViolated):
            q.MeasurementModel((2**-0.5, 2**-0.5), (a, b))

    def test_rejects_non_unit_branch(self):
        fat = q.make_product_state(
            (q.FactorVector((2.0, 0.0)),), q.ConstantTail(E0)
        )
        with pytest.raises(q.PreconditionViolated):
            q.MeasurementModel((2**-0.5, 2**-0.5), (fat, pointer_branch(0.5)))

    def test_rejects_shape_mismatch(self):
        wide = q.make_product_state((), q.ConstantTail(q.basis_vector(3, 0)))
        with pytest.raises(q.ShapeMismatch):
            q.MeasurementModel((2**-0.5, 2**-0.5), (pointer_branch(1.0), wide))

    def test_classifies_each_branch_once(self):
        # p = 0.75 does not certify a summable approach, so each branch's
        # classification probes 8,192 factors; the pair check reuses it
        calls = []

        def branch(limit, other):
            def fn(n):
                calls.append(n)
                kick = 0.01 * (n + 1) ** -0.75
                return q.FactorVector(
                    tuple(math.sqrt(1.0 - kick**2) * x + kick * y
                          for x, y in zip(limit.amplitudes, other.amplitudes))
                )

            decay = q.DecaySpec("p-series", p=0.75, scale=0.01)
            return q.ProductState((), q.ParametricTail(2, fn, limit, decay))

        b0, b1 = branch(E0, E1), branch(E1, E0)
        calls.clear()
        m = q.MeasurementModel((0.6, 0.8), (b0, b1))
        assert m.n_outcomes == 2
        assert len(calls) <= 2 * 8192

    def test_probabilities(self):
        m = two_outcome_model(weights=(0.6, 0.8j))
        assert m.probabilities == pytest.approx((0.36, 0.64))


class TestPremeasurementState:
    def test_structure_and_norm(self):
        m = two_outcome_model()
        s = q.premeasurement_state(m)
        assert len(s.terms) == 2
        for i, (_, branch) in enumerate(s.terms):
            assert branch.factor_at(0).amplitudes == q.basis_vector(2, i).amplitudes
        norm = q.composite_overlap(s, s, 1)
        assert norm.real == pytest.approx(1.0)

    def test_dense_amplitudes(self):
        m = two_outcome_model(eta=0.6, weights=(0.6, 0.8))
        s = q.premeasurement_state(m)
        dense = densify(s, 2).amplitudes
        want = 0.6 * np.kron([1, 0], [1, 0]) + 0.8 * np.kron([0, 1], [0.6, 0.8])
        assert np.max(np.abs(dense - want)) < 1e-14


# outcomes -> (tail, dim runs of the explicit prefix): every prefix reaches
# past DIRECT_LIMIT sites, so the density walk brackets the branches in blocks
BLOCK_MODELS = {
    3: ("constant", [(70, 2)]),
    4: ("constant", [(40, 2), (40, 3)]),
    5: ("geometric", [(80, 2)]),
    6: ("constant", [(66, 4)]),
    7: ("p-series", [(72, 2)]),
    8: ("constant", [(90, 3)]),
}


def _block_model(m):
    """Measurement model with m branches of random unit factors over the
    prefix dims of ``BLOCK_MODELS[m]``, with constant or decoded tails."""
    rng = np.random.default_rng(100 + m)
    tail, runs = BLOCK_MODELS[m]
    dims = [d for sites, d in runs for _ in range(sites)]
    branches = []
    for _ in range(m):
        limit = random_factor(rng, dims[-1])
        if tail == "constant":
            prefix = tuple(random_factor(rng, d) for d in dims)
            branches.append(q.ProductState(prefix, q.ConstantTail(limit)))
        else:
            branches.append(decoded_family(rng, tail, len(dims), limit))
    amps = rng.normal(size=m) + 1j * rng.normal(size=m)
    amps /= np.linalg.norm(amps)
    return q.MeasurementModel(tuple(amps.tolist()), tuple(branches))


class TestTruncatedDensity:
    def test_diagonals_are_exact(self):
        rho = q.truncated_density(two_outcome_model(weights=(0.6, 0.8)), 50)
        assert rho.matrix[0, 0] == 0.6**2 + 0j
        assert rho.matrix[1, 1] == 0.8**2 + 0j

    def test_matches_dense_partial_trace(self):
        m = two_outcome_model(eta=0.7, weights=(0.6, 0.8j))
        for n in (1, 2, 5):
            rho = q.truncated_density(m, n)
            # site 0 of the premeasurement state is the pointer
            dense = dense_density(densify(q.premeasurement_state(m), n + 1), 2)
            assert np.max(np.abs(rho.matrix - dense)) < 1e-12

    @pytest.mark.parametrize("kind", ["geometric", "p-series", "eventually-constant"])
    def test_parametric_branches_match_dense_partial_trace(self, kind):
        # the premeasured terms carry each device site one site later, so a
        # parametric tail must be read one site later too
        weights = {
            "geometric": (lambda n: 0.6 * 0.5**n, q.DecaySpec("geometric", ratio=0.5, scale=0.6)),
            "p-series": (lambda n: 0.6 * (n + 1) ** -1.5, q.DecaySpec("p-series", p=1.5, scale=0.6)),
            "eventually-constant": (
                lambda n: 0.6 if n < 3 else 0.0,
                q.DecaySpec("eventually-constant", rank=3, scale=0.6),
            ),
        }
        weight, decay = weights[kind]

        def branch(theta, sign):
            limit = q.FactorVector((math.cos(theta), math.sin(theta)))

            def fn(n):
                t = theta + sign * weight(n)
                return q.FactorVector((math.cos(t), math.sin(t)))

            return q.ProductState((), q.ParametricTail(2, fn, limit, decay))

        m = q.MeasurementModel((0.6, 0.8j), (branch(0.0, 1), branch(0.3, -1)))
        for n in range(1, 6):
            rho = q.truncated_density(m, n)
            dense = dense_density(densify(q.premeasurement_state(m), n + 1), 2)
            assert np.max(np.abs(rho.matrix - dense)) < 1e-12

    def test_coherence_decays_geometrically(self):
        m = two_outcome_model(eta=0.9)
        for n in (1, 2, 5, 10, 50, 100, 200, 400):
            rho = q.truncated_density(m, n)
            got = rho.coherence(0, 1)
            assert got == pytest.approx(0.5 * 0.9**n, rel=1e-12)
            assert math.isclose(
                math.log(got), math.log(0.5) + n * math.log(0.9), abs_tol=1e-12
            )

    def test_validation_catches_broken_matrices(self):
        with pytest.raises(q.PreconditionViolated):
            q.TruncatedDensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]]), 1)
        with pytest.raises(q.PreconditionViolated):
            q.TruncatedDensityMatrix(np.array([[0.7, 0.0], [0.0, 0.7]]), 1)
        with pytest.raises(q.PreconditionViolated):
            q.TruncatedDensityMatrix(np.array([[1.5, 0.0], [0.0, -0.5]]), 1)

    def test_coherence_needs_off_diagonal(self):
        rho = q.truncated_density(two_outcome_model(), 3)
        with pytest.raises(q.PreconditionViolated):
            rho.coherence(1, 1)

    @pytest.mark.parametrize(
        "i, j, error",
        [
            (-1, 1, q.IndexOutOfRange),
            (0, -2, q.IndexOutOfRange),
            (0, 2, q.IndexOutOfRange),
            (2, 1, q.IndexOutOfRange),
            (5, 5, q.IndexOutOfRange),
            (0, 0, q.PreconditionViolated),
            (1, 1, q.PreconditionViolated),
        ],
    )
    def test_coherence_refuses_outcomes_outside_the_matrix(self, i, j, error):
        rho = q.truncated_density(two_outcome_model(), 3)
        with pytest.raises(error):
            rho.coherence(i, j)
        assert rho.coherence(0, 1) == rho.coherence(1, 0) == abs(rho.matrix[0, 1])

    def test_purity_falls_toward_mixture(self):
        m = two_outcome_model(eta=0.9)
        early = q.truncated_density(m, 1).purity
        late = q.truncated_density(m, 500).purity
        assert early > 0.9
        assert late == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("m", sorted(BLOCK_MODELS))
    def test_many_branches_on_the_block_path_match_pair_overlaps_bit_for_bit(
        self, m, monkeypatch
    ):
        """m branches walked in blocks, reading only the pairs above the
        diagonal (``_paired_brackets``): each off-diagonal has the bits of
        c_i c_j* <b_j|b_i>_n from a walk of that pair alone, at cuts up to
        DIRECT_LIMIT and past it."""
        from qsectors import overlaps

        model = _block_model(m)
        branches, coeffs = model.branches, model.coefficients
        assert overlaps._Walker(*overlaps._sides(branches[0], branches[1])).blocked > 64
        paired = []
        real = overlaps._paired_brackets
        monkeypatch.setattr(
            overlaps, "_paired_brackets", lambda *args: paired.append(1) or real(*args)
        )
        for n in (1, 2, 17, 40, 64, 65, 66, 79, 80, 81, 200):
            del paired[:]
            rho = q.truncated_density(model, n).matrix
            assert paired
            for i in range(m):
                for j in range(i + 1, m):
                    want = coeffs[i] * coeffs[j].conjugate() * q.truncated_overlap(
                        branches[j], branches[i], n
                    )
                    assert complex_bits([rho[i, j]]) == complex_bits([want]), (n, i, j)
                    assert complex_bits([rho[j, i]]) == complex_bits([want.conjugate()])

    @pytest.mark.parametrize("m", sorted(BLOCK_MODELS))
    def test_many_branches_match_dense_partial_trace(self, m):
        model = _block_model(m)
        for n in (1, 2, 3):
            rho = q.truncated_density(model, n)
            dense = dense_density(densify(q.premeasurement_state(model), n + 1), m)
            assert np.max(np.abs(rho.matrix - dense)) < 1e-12


    @pytest.mark.parametrize("cut", [10.5, 10.0, True, math.nan])
    def test_a_truncation_that_is_not_an_int_is_refused(self, cut):
        with pytest.raises(q.PreconditionViolated, match="is not an integer$"):
            q.truncated_density(two_outcome_model(), cut)
        assert q.truncated_density(two_outcome_model(), np.int64(10)).truncation == 10


class TestDecoherenceHorizon:
    def test_matches_closed_form(self):
        m = two_outcome_model(eta=0.9)
        # smallest N with 0.5 * 0.9^N < 1e-6
        want = math.ceil((math.log(1e-6) - math.log(0.5)) / math.log(0.9))
        assert want == 125
        assert q.decoherence_horizon(m, 1e-6) == 125
        rho = q.truncated_density(m, 125)
        assert rho.coherence(0, 1) < 1e-6
        assert q.truncated_density(m, 124).coherence(0, 1) >= 1e-6

    def test_constant_tails_past_a_prefix_longer_than_budget(self):
        # the budget bounds the walk past the prefix only; constant tails
        # are closed in form at the prefix's end however long it is
        tilted = q.FactorVector((0.99, math.sqrt(1.0 - 0.99**2)))
        quiet = q.make_product_state((E0,) * 40, q.ConstantTail(E0))
        kicked = q.make_product_state((tilted,) * 40, pointer_branch(0.9).tail)
        m = q.MeasurementModel((2**-0.5, 2**-0.5), (quiet, kicked))
        cur = math.log(0.5) + 40 * math.log(abs(q.factor_overlap(tilted, E0)))
        want = 40 + math.floor((math.log(1e-6) - cur) / math.log(0.9)) + 1
        assert q.decoherence_horizon(m, 1e-6, budget=10) == want
        assert q.decoherence_horizon(m, 1e-6) == want
        assert q.truncated_density(m, want).coherence(0, 1) < 1e-6
        assert q.truncated_density(m, want - 1).coherence(0, 1) >= 1e-6

    def test_pair_selection(self):
        m = q.MeasurementModel(
            (0.6, 0.6, math.sqrt(1.0 - 0.72)),
            (
                pointer_branch(1.0),
                pointer_branch(0.9),
                pointer_branch(0.5),
            ),
        )
        fast = q.decoherence_horizon(m, 1e-6, pair=(0, 2))
        slow = q.decoherence_horizon(m, 1e-6, pair=(0, 1))
        assert fast < slow
        assert q.decoherence_horizon(m, 1e-6) == max(
            q.decoherence_horizon(m, 1e-6, pair=p)
            for p in ((0, 1), (0, 2), (1, 2))
        )

    def test_loose_target_is_met_immediately(self):
        assert q.decoherence_horizon(two_outcome_model(), 0.6) == 0

    def test_orthogonal_branch_sites_finish_in_one_step(self):
        m = q.MeasurementModel(
            (2**-0.5, 2**-0.5),
            (pointer_branch(1.0), pointer_branch(0.0)),
        )
        assert q.decoherence_horizon(m, 1e-6) == 1

    def test_unit_modulus_tail_never_decoheres(self):
        # equal moduli, pure phase difference: different sectors, but the
        # off-diagonal modulus never decays
        phase = q.FactorVector((complex(math.cos(0.1), math.sin(0.1)), 0.0))
        m = q.MeasurementModel(
            (2**-0.5, 2**-0.5),
            (
                pointer_branch(1.0),
                q.make_product_state((), q.ConstantTail(phase)),
            ),
        )
        assert q.decoherence_horizon(m, 1e-6) == math.inf

    def test_parametric_walk_agrees_with_direct_scan(self):
        def fn(n):
            drift = 0.3 * 0.9**n
            return q.FactorVector(
                (math.sqrt(1.0 - drift**2), drift)
            )

        tail = q.ParametricTail(
            dim=2,
            factor_fn=fn,
            limit=E0,
            decay=q.DecaySpec(kind="geometric", ratio=0.9, scale=0.3),
        )
        drifting = q.ProductState(prefix=(), tail=tail)
        m = q.MeasurementModel(
            (2**-0.5, 2**-0.5), (drifting, pointer_branch(0.8))
        )
        got = q.decoherence_horizon(m, 1e-3)
        sweep = q.overlap_sweep(drifting, pointer_branch(0.8), range(1, 80))
        want = sweep.first_below(1e-3 / 0.5)  # weight product is 0.5
        assert got == want

    def test_parametric_tail_approaching_unity_proves_infinite(self):
        def fn(n):
            kick = 0.2 * 0.5**n
            return q.FactorVector((math.sqrt(1.0 - kick**2), kick))

        tail = q.ParametricTail(
            dim=2,
            factor_fn=fn,
            limit=E0,
            decay=q.DecaySpec(kind="geometric", ratio=0.5, scale=0.2),
        )
        near = q.ProductState(prefix=(), tail=tail)
        ref = q.apply_finite_change(pointer_branch(1.0), {0: E1})
        m = q.MeasurementModel((2**-0.5, 2**-0.5), (near, pointer_branch(0.6)))
        del ref
        assert q.decoherence_horizon(m, 1e-30) > 60
        # the quiet pair (branch are different sectors so this is pairwise)
        pair_h = q.decoherence_horizon(m, 1e-30, pair=(0, 1))
        assert pair_h == q.decoherence_horizon(m, 1e-30)

    def test_budget_exhaustion_raises(self):
        # the tail creeps toward its tilted limit so slowly that the walk
        # cannot certify the horizon within a small budget
        theta_limit = math.acos(0.8)

        def fn(n):
            theta = theta_limit * n / (n + 1_000_000.0)
            return q.FactorVector((math.cos(theta), math.sin(theta)))

        creeping = q.ProductState(
            prefix=(),
            tail=q.ParametricTail(
                dim=2,
                factor_fn=fn,
                limit=q.FactorVector((0.8, 0.6)),
                decay=q.DecaySpec(kind="p-series", p=0.05, scale=2.0),
            ),
        )
        m = q.MeasurementModel(
            (2**-0.5, 2**-0.5), (pointer_branch(1.0), creeping)
        )
        with pytest.raises(q.PreconditionViolated) as exc:
            q.decoherence_horizon(m, 1e-9, budget=1000)
        assert exc.value.context["budget"] == 1000

    @pytest.mark.parametrize("a", [1, 2])
    @pytest.mark.parametrize("target", [1, 10, 63, 64, 65, 66, 100, 400])
    def test_dyadic_ties_agree_with_the_truncated_overlap(self, a, target):
        # basis-aligned records: the coherence after n sites is exactly
        # 2**-(a*n + 1) and eps sits on it at the target, a tie that the
        # summed logs and the readout may break differently
        recorded = q.FactorVector((2.0**-a, math.sqrt(1.0 - 4.0**-a)))
        b0 = q.make_product_state((), q.ConstantTail(E0))
        b1 = q.make_product_state((), q.ConstantTail(recorded))
        coeffs = (complex(2**-0.5), complex(2**-0.5))
        m = q.MeasurementModel(coeffs, (b0, b1))
        eps = 2.0 ** -(a * target + 1)
        base = abs(coeffs[0]) * abs(coeffs[1])
        h = q.decoherence_horizon(m, eps)
        assert abs(h - target) <= 1
        assert base * abs(q.truncated_overlap(b1, b0, h)) < eps
        assert base * abs(q.truncated_overlap(b1, b0, h - 1)) >= eps

    @pytest.mark.parametrize("a", [1, 2])
    @pytest.mark.parametrize("target", [1, 10, 64, 65, 99, 100, 101, 150, 400])
    def test_dyadic_ties_on_explicit_prefixes_agree_with_the_truncated_overlap(self, a, target):
        # the same records held as 100-site explicit prefixes: cuts up to
        # 100 read the block stretch, later ones the repeated bracket
        recorded = q.FactorVector((2.0**-a, math.sqrt(1.0 - 4.0**-a)))
        b0 = q.make_product_state((E0,) * 100, q.ConstantTail(E0))
        b1 = q.make_product_state((recorded,) * 100, q.ConstantTail(recorded))
        coeffs = (complex(2**-0.5), complex(2**-0.5))
        m = q.MeasurementModel(coeffs, (b0, b1))
        eps = 2.0 ** -(a * target + 1)
        base = abs(coeffs[0]) * abs(coeffs[1])
        h = q.decoherence_horizon(m, eps)
        assert abs(h - target) <= 1
        assert base * abs(q.truncated_overlap(b1, b0, h)) < eps
        assert base * abs(q.truncated_overlap(b1, b0, h - 1)) >= eps

    @staticmethod
    def _drifting(calls, ratio=0.9):
        def fn(n):
            calls.append(n)
            drift = 0.3 * ratio**n
            return q.FactorVector((math.sqrt(1.0 - drift**2), drift))

        decay = q.DecaySpec(kind="geometric", ratio=ratio, scale=0.3)
        return q.ProductState((), q.ParametricTail(2, fn, E0, decay))

    def test_parametric_horizon_reads_each_site_once(self):
        calls = []
        m = q.MeasurementModel(
            (2**-0.5, 2**-0.5), (self._drifting(calls), pointer_branch(0.999))
        )
        calls.clear()
        h = q.decoherence_horizon(m, 1e-6)
        assert h > 1000
        assert len(calls) <= h + 8

    def test_a_budget_past_the_walk_budget_is_not_refused_up_front(self):
        calls = []
        m = q.MeasurementModel(
            (2**-0.5, 2**-0.5), (self._drifting(calls), pointer_branch(0.98))
        )
        h = q.decoherence_horizon(m, 1e-6)
        assert 500 < h < 1000
        assert q.decoherence_horizon(m, 1e-6, budget=10**7) == h

    def test_the_walk_budget_stops_the_walk_where_it_is_reached(self, monkeypatch):
        from qsectors import overlaps

        monkeypatch.setattr(overlaps, "WALK_BUDGET", 500)
        calls = []
        m = q.MeasurementModel(
            (2**-0.5, 2**-0.5), (self._drifting(calls), pointer_branch(0.999))
        )
        calls.clear()
        with pytest.raises(q.DimensionBudgetExceeded) as exc:
            q.decoherence_horizon(m, 1e-6, budget=10**7)
        assert exc.value.context["budget"] == 500
        assert len(calls) == 500

    @staticmethod
    def _recorded(moved, rank, limit=(0.6, 0.8)):
        """A decoded branch: ``moved`` from its one prefix site to ``rank``,
        ``limit`` after it, so its bracket with E0 is constant on each run."""
        doc = {
            "type": "product-state",
            "prefix": [[0.8, 0.6]],
            "tail": {
                "kind": "parametric",
                "class": "eventually-constant",
                "rank": rank,
                "limit": list(limit),
                "deviation": [m - u for m, u in zip(moved, limit)],
            },
        }
        return decode_state(doc)

    @pytest.mark.parametrize(
        "moved, rank, eps, where",
        [
            ((0.5, 0.75**0.5), 10**6, 1e-40, "before"),
            ((0.5, 0.75**0.5), 100, 0.5 * 0.8 * 0.5**98.5, "at"),
            ((0.9, 0.19**0.5), 100, 0.5 * 0.8 * 0.9**99 * 0.6**50.5, "after"),
            ((1.0, 0.0), 500, 1e-12, "after"),
            ((1.2, 0.0), 1000, 1e-6, "after"),
        ],
    )
    def test_horizon_inside_and_past_the_run_before_rank(
        self, moved, rank, eps, where, monkeypatch
    ):
        from qsectors import overlaps

        b0 = pointer_branch(1.0)
        b1 = self._recorded(moved, rank)
        m = q.MeasurementModel((2**-0.5, 2**-0.5), (b0, b1))
        reads = []
        real = overlaps._Walker.read
        monkeypatch.setattr(overlaps._Walker, "read", lambda w, cut: reads.append(cut) or real(w, cut))
        h = q.decoherence_horizon(m, eps)
        monkeypatch.undo()
        # cuts 0..64 one at a time, then a few per run: no stepping in a run
        assert len(reads) <= overlaps.DIRECT_LIMIT + 8
        assert h < math.inf
        assert {"before": h < rank, "at": h == rank, "after": h > rank}[where]
        base = 0.5
        assert base * abs(q.truncated_overlap(b1, b0, h)) < eps
        assert base * abs(q.truncated_overlap(b1, b0, h - 1)) >= eps
        if rank <= 1000:
            # the same family behind a plain lambda is walked site by site
            family = b1.tail.factor_fn
            tail = q.ParametricTail(2, lambda n: family(n), b1.tail.limit, b1.tail.decay)
            plain = q.MeasurementModel((2**-0.5, 2**-0.5), (b0, q.ProductState(b1.prefix, tail)))
            assert q.decoherence_horizon(plain, eps) == h

    @staticmethod
    def _skewed(prefix_len, tail):
        """A branch of ``prefix_len`` sites (0.6, 0.8) and then ``tail``."""
        return q.make_product_state((q.FactorVector((0.6, 0.8)),) * prefix_len, q.ConstantTail(tail))

    @staticmethod
    def _stepped(model, eps):
        """The first cut N < 4000 with |c0| |c1| |<b1|b0>_N| < eps, one cut
        at a time, or inf."""
        base = abs(model.coefficients[0]) * abs(model.coefficients[1])
        b0, b1 = model.branches
        cuts = (n for n in range(4000) if base * abs(q.truncated_overlap(b1, b0, n)) < eps)
        return next(cuts, math.inf)

    @pytest.mark.parametrize(
        "prefix_len, eps, tail",
        [
            (0, 1e-2, (0.9, 0.19**0.5)),
            (0, 0.4, (0.9, 0.19**0.5)),
            (3, 1e-2, (0.9, 0.19**0.5)),
            (10, 1e-4, (0.9 * cmath.exp(0.7j), 0.19**0.5)),
            (20, 1e-3, (0.9, 0.19**0.5)),
            (40, 1e-10, (0.9, 0.19**0.5)),
            (7, 1e-4, (0.0, 1.0)),
        ],
    )
    def test_horizons_below_64_solve_the_run_from_its_first_cut(
        self, prefix_len, eps, tail, monkeypatch
    ):
        from qsectors import overlaps

        m = q.MeasurementModel(
            (2**-0.5, 2**-0.5), (pointer_branch(1.0), self._skewed(prefix_len, q.FactorVector(tail)))
        )
        reads = []
        real = overlaps._Walker.read
        monkeypatch.setattr(overlaps._Walker, "read", lambda w, cut: reads.append(cut) or real(w, cut))
        h = q.decoherence_horizon(m, eps)
        monkeypatch.undo()
        assert h < overlaps.DIRECT_LIMIT
        assert h == self._stepped(m, eps)
        # one read per cut up to the prefix end, then a few in the run
        assert len(reads) <= prefix_len + 4

    @pytest.mark.parametrize(
        "tail",
        [(cmath.exp(0.3j), 0.0), (0.9, 0.19**0.5), (0.999, (1 - 0.999**2) ** 0.5), "rank"],
    )
    @pytest.mark.parametrize("eps", [1e-20, 1e-24])
    def test_a_block_past_the_horizon_does_not_start_the_run_early(self, tail, eps):
        # the block walk brackets all 100 prefix sites at cut 65, so the walk
        # already holds the run from 100 while the horizon (89) lies before it
        if tail == "rank":
            # one vector up to rank 300, then the limit: runs from 100 and 300
            moved, limit = (0.999, (1 - 0.999**2) ** 0.5), (0.5, 0.75**0.5)
            branch = decode_state({
                "type": "product-state",
                "prefix": [[0.6, 0.8]] * 100,
                "tail": {
                    "kind": "parametric",
                    "class": "eventually-constant",
                    "rank": 300,
                    "limit": list(limit),
                    "deviation": [a - b for a, b in zip(moved, limit)],
                },
            })
        else:
            branch = self._skewed(100, q.FactorVector(tail))
        m = q.MeasurementModel((2**-0.5, 2**-0.5), (pointer_branch(1.0), branch))
        h = q.decoherence_horizon(m, eps)
        assert h == self._stepped(m, eps)
        assert (h < 100) == (eps == 1e-20)

    def test_a_solve_that_lands_on_a_tie_steps_forward(self, monkeypatch):
        # eps is the coherence at cut 220 exactly, so 220 is not below it:
        # the closed-form solve lands there and the search steps on to 221
        from qsectors import overlaps

        m = q.MeasurementModel((2**-0.5, 2**-0.5), (pointer_branch(1.0), pointer_branch(0.2937672263985205)))
        b0, b1 = m.branches
        eps = abs(m.coefficients[0]) * abs(m.coefficients[1]) * abs(q.truncated_overlap(b1, b0, 220))
        reads = []
        real = overlaps._Walker.read
        monkeypatch.setattr(overlaps._Walker, "read", lambda w, cut: reads.append(cut) or real(w, cut))
        h = q.decoherence_horizon(m, eps)
        monkeypatch.undo()
        assert h == self._stepped(m, eps) == 221
        assert reads == [0, 219, 220, 221]

    def test_a_solve_that_lands_one_short_steps_forward_without_a_tie(self, monkeypatch):
        # eps three ulps below the coherence at cut 460, no tie: the closed
        # form puts 460 below eps, the readout does not, so the search steps on
        from qsectors import overlaps

        m = q.MeasurementModel((2**-0.5, 2**-0.5), (pointer_branch(1.0), pointer_branch(0.7397646661013878)))
        b0, b1 = m.branches
        eps = abs(m.coefficients[0]) * abs(m.coefficients[1]) * abs(q.truncated_overlap(b1, b0, 460))
        for _ in range(3):
            eps = math.nextafter(eps, 0.0)
        reads = []
        real = overlaps._Walker.read
        monkeypatch.setattr(overlaps._Walker, "read", lambda w, cut: reads.append(cut) or real(w, cut))
        h = q.decoherence_horizon(m, eps)
        monkeypatch.undo()
        assert h == self._stepped(m, eps) == 461
        assert reads == [0, 459, 460, 461]

    def test_eps_and_pair_validation(self):
        m = two_outcome_model()
        with pytest.raises(q.PreconditionViolated):
            q.decoherence_horizon(m, 0.0)
        with pytest.raises(q.PreconditionViolated):
            q.decoherence_horizon(m, math.inf)
        with pytest.raises(q.IndexOutOfRange):
            q.decoherence_horizon(m, 1e-6, pair=(0, 2))
        with pytest.raises(q.PreconditionViolated):
            q.decoherence_horizon(m, 1e-6, pair=(1, 1))


def _geometric_branch(prefix, ratio=0.99, limit=(0.995, 0.0998749217771909), deviation=(-0.05, 0.04)):
    """A decoded branch: ``prefix``, then a geometric family toward ``limit``,
    whose tail rows are closed, so the horizon's walk brackets it in blocks."""
    return decode_state({
        "type": "product-state",
        "prefix": [[encode_complex(complex(c)) for c in v] for v in prefix],
        "tail": {
            "kind": "parametric",
            "class": "geometric",
            "ratio": ratio,
            "scale": 1.0,
            "limit": [encode_complex(complex(c)) for c in limit],
            "deviation": [encode_complex(complex(c)) for c in deviation],
        },
    })


def _near_e0(rng, n):
    """n unit rows near E0, so a prefix's coherence wanders as it decays."""
    rows = []
    for _ in range(n):
        v = np.array([1.0, 0.0]) + 0.3 * (rng.normal(size=2) + 1j * rng.normal(size=2))
        rows.append(tuple((v / np.linalg.norm(v)).tolist()))
    return rows


def _screen_cases():
    """name -> (quiet branch, recording branch)."""
    rng = np.random.default_rng(77)
    quiet = q.make_product_state((), q.ConstantTail(E0))
    geometric = _geometric_branch(_near_e0(rng, 3))
    family = geometric.tail.factor_fn
    plain = q.ProductState(
        geometric.prefix,
        q.ParametricTail(2, lambda n: family(n), geometric.tail.limit, geometric.tail.decay),
    )
    prefixed = q.make_product_state(
        [q.FactorVector(v) for v in _near_e0(rng, 150)],
        q.ConstantTail(q.FactorVector((0.99, math.sqrt(1.0 - 0.99**2)))),
    )
    return {
        "geometric": (quiet, geometric),
        "geometric-long-prefix": (
            q.make_product_state((E0,) * 200, q.ConstantTail(E0)),
            _geometric_branch(_near_e0(rng, 200), ratio=0.999),
        ),
        "plain-lambda": (quiet, plain),
        "prefix-blocks": (q.make_product_state((E0,) * 150, q.ConstantTail(E0)), prefixed),
    }


SCREEN_CASES = _screen_cases()


def _nudged(value, nudge):
    """``value`` moved |nudge| ulps toward 0 (nudge > 0) or away, or scaled
    by 1 + nudge for a fractional nudge."""
    if isinstance(nudge, float):
        return value * (1.0 + nudge)
    for _ in range(abs(nudge)):
        value = math.nextafter(value, 0.0 if nudge > 0 else math.inf)
    return value


class TestHorizonScreen:
    """Past cut 0 the horizon screens the block stretch's log moduli and
    reads exactly from the first cut that can meet eps: it must land where
    a read of every cut lands, at ties and near-ties too."""

    @staticmethod
    def _model(name):
        b0, b1 = SCREEN_CASES[name]
        return q.MeasurementModel((2**-0.5, 2**-0.5), (b0, b1))

    @staticmethod
    def _scan(model, eps, upto):
        """First cut in 0..upto with |c0| |c1| |<b1|b0>_N| < eps, reading
        every cut's readout, or None."""
        b0, b1 = model.branches
        base = abs(model.coefficients[0]) * abs(model.coefficients[1])
        values = (q.truncated_overlap(b1, b0, 0),) + q.overlap_sweep(b1, b0, range(1, upto + 1)).values
        return next((n for n, v in enumerate(values) if base * abs(v) < eps), None)

    def test_cases_screen_blocks(self):
        from qsectors import overlaps

        blocked = {
            name: overlaps._Walker(*overlaps._sides(b1, b0)).blocked
            for name, (b0, b1) in SCREEN_CASES.items()
        }
        assert blocked == {
            "geometric": math.inf,
            "geometric-long-prefix": math.inf,
            "plain-lambda": 0,
            "prefix-blocks": 150,
        }

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(sorted(SCREEN_CASES)),
        st.integers(1, 2500),
        st.sampled_from([0, 1, 2, 3, -1, -2, -3, 1e-10, -1e-10, 1e-6]),
    )
    def test_the_horizon_is_the_first_cut_a_scan_finds(self, name, target, nudge):
        model = self._model(name)
        b0, b1 = model.branches
        base = abs(model.coefficients[0]) * abs(model.coefficients[1])
        eps = _nudged(base * abs(q.truncated_overlap(b1, b0, target)), nudge)
        assume(eps > 0.0)
        h = q.decoherence_horizon(model, eps)
        want = self._scan(model, eps, target + 1)
        assert want is not None  # eps sits on or just past the target's coherence
        assert h == want
        assert base * abs(q.truncated_overlap(b1, b0, h)) < eps
        assert h == 0 or base * abs(q.truncated_overlap(b1, b0, h - 1)) >= eps

    @pytest.mark.parametrize("name", ["geometric", "geometric-long-prefix", "plain-lambda"])
    def test_the_walk_budget_refuses_at_the_cut_a_read_of_every_cut_reaches(self, name, monkeypatch):
        from qsectors import overlaps

        monkeypatch.setattr(overlaps, "WALK_BUDGET", 700)
        with pytest.raises(q.DimensionBudgetExceeded) as exc:
            q.decoherence_horizon(self._model(name), 1e-300, budget=10**7)
        # sites past the shortest prefix: the refusal comes at the first cut past the budget
        assert exc.value.context == {"sites": 701, "budget": 700}

    @pytest.mark.parametrize("name", ["geometric", "geometric-long-prefix", "plain-lambda"])
    def test_the_horizon_budget_refuses_at_its_cut(self, name):
        model = self._model(name)
        b0, b1 = model.branches
        with pytest.raises(q.PreconditionViolated) as exc:
            q.decoherence_horizon(model, 1e-300, budget=1500)
        cur = math.log(0.5) + q.overlap_sweep(b1, b0, [1500]).log_modulus[0]
        assert exc.value.context == {"budget": 1500, "log_modulus": cur, "target": math.log(1e-300)}

    def test_a_horizon_before_the_walk_budget_is_found(self, monkeypatch):
        from qsectors import overlaps

        model = self._model("geometric")
        h = q.decoherence_horizon(model, 1e-5)
        monkeypatch.setattr(overlaps, "WALK_BUDGET", h)
        assert q.decoherence_horizon(model, 1e-5, budget=10**7) == h
        monkeypatch.setattr(overlaps, "WALK_BUDGET", h - 1)
        with pytest.raises(q.DimensionBudgetExceeded):
            q.decoherence_horizon(model, 1e-5, budget=10**7)

    @pytest.mark.parametrize("eps", [1e-300, 1e-3])
    def test_a_zero_bracket_in_a_block_ends_the_horizon_there(self, eps):
        rows = _near_e0(np.random.default_rng(5), 120)
        rows[100] = (0.0, 1.0)  # orthogonal to the quiet branch: every later cut reads 0
        model = q.MeasurementModel(
            (2**-0.5, 2**-0.5), (SCREEN_CASES["geometric"][0], _geometric_branch(rows))
        )
        h = q.decoherence_horizon(model, eps)
        assert h == self._scan(model, eps, 101)
        assert h == 101 or eps == 1e-3

    def test_the_certificate_is_checked_at_its_cut(self, monkeypatch):
        # a family toward a phase of E0: the coherence levels off, and the
        # certificate at 4096 proves it stays above eps
        from qsectors import overlaps

        phase = (math.cos(0.3), math.sin(0.3))
        branch = _geometric_branch((), ratio=0.99, limit=(complex(*phase), 0.0), deviation=(-0.05, 0.04))
        model = q.MeasurementModel((2**-0.5, 2**-0.5), (SCREEN_CASES["geometric"][0], branch))
        reads = []
        real = overlaps._Walker.read
        monkeypatch.setattr(overlaps._Walker, "read", lambda w, cut: reads.append(cut) or real(w, cut))
        assert q.decoherence_horizon(model, 1e-6) == math.inf
        assert reads[-1] == 4096

    def test_a_subnormal_eps_reads_every_cut(self, monkeypatch):
        # the screen's margin holds for a normal eps only; a subnormal one
        # reads every cut, and still lands where the scan does
        from qsectors import overlaps

        model = q.MeasurementModel(
            (2**-0.5, 2**-0.5),
            (SCREEN_CASES["geometric"][0], _geometric_branch((), ratio=0.9, limit=(0.5, 0.75**0.5))),
        )
        b0, b1 = model.branches
        eps = 0.5 * abs(q.truncated_overlap(b1, b0, 1020))
        assert 0.0 < eps < sys.float_info.min
        reads = []
        real = overlaps._Walker.read
        monkeypatch.setattr(overlaps._Walker, "read", lambda w, cut: reads.append(cut) or real(w, cut))
        h = q.decoherence_horizon(model, eps)
        monkeypatch.undo()
        assert h == self._scan(model, eps, 1100)
        assert len(reads) == h + 1

    def test_the_screen_reads_few_cuts_exactly(self, monkeypatch):
        from qsectors import overlaps

        model = self._model("geometric")
        reads = []
        real = overlaps._Walker.read
        monkeypatch.setattr(overlaps._Walker, "read", lambda w, cut: reads.append(cut) or real(w, cut))
        h = q.decoherence_horizon(model, 1e-8)
        monkeypatch.undo()
        assert h > 2000
        # cut 0, then the screen's first candidate
        assert reads == [0, h]


class TestSampling:
    @pytest.mark.parametrize("seed", [-1, -2, -(2**70)])
    def test_a_negative_seed_is_refused_before_drawing(self, seed):
        m = two_outcome_model()
        for n in (0, 3):
            with pytest.raises(q.PreconditionViolated, match=f"^seed must be >= 0, got {seed}$"):
                q.sample_outcomes(m, n, seed=seed)
        with pytest.raises(q.PreconditionViolated):
            q.sample_outcome(m, seed=seed)

    def test_seed_zero_draws(self):
        m = two_outcome_model()
        assert q.sample_outcomes(m, 5, seed=0).tobytes() == q.sample_outcomes(m, 5, 0).tobytes()

    def test_deterministic_for_fixed_seed(self):
        m = two_outcome_model(weights=(0.3, math.sqrt(0.91)))
        a = q.sample_outcomes(m, 10_000, seed=42)
        b = q.sample_outcomes(m, 10_000, seed=42)
        assert a.dtype == np.int64
        assert a.tobytes() == b.tobytes()
        assert q.sample_outcomes(m, 10_000, seed=43).tobytes() != a.tobytes()

    def test_frequencies_track_born_weights(self):
        m = two_outcome_model(weights=(0.3, math.sqrt(0.91)))
        counts = np.bincount(q.sample_outcomes(m, 100_000, seed=7), minlength=2)
        assert abs(counts[0] / 100_000 - 0.09) < 0.01

    def test_single_outcome_matches_stream(self):
        m = two_outcome_model()
        assert q.sample_outcome(m, seed=5) == q.sample_outcomes(m, 1, seed=5)[0]

    def test_phase_does_not_matter(self):
        flat = two_outcome_model(weights=(0.6, 0.8))
        spun = two_outcome_model(weights=(0.6j, -0.8))
        assert (
            q.sample_outcomes(flat, 5000, seed=1).tobytes()
            == q.sample_outcomes(spun, 5000, seed=1).tobytes()
        )


class TestCollapse:
    def test_projects_to_single_outcome(self):
        m = two_outcome_model()
        c = q.collapse(m, 1)
        assert c.coefficients[1] == 1.0 + 0j
        assert c.coefficients[0] == 0j
        assert c.branches == m.branches

    def test_idempotent(self):
        m = two_outcome_model()
        once = q.collapse(m, 0)
        twice = q.collapse(once, 0)
        assert twice.coefficients == once.coefficients

    def test_outcome_range(self):
        with pytest.raises(q.IndexOutOfRange):
            q.collapse(two_outcome_model(), 2)
        with pytest.raises(q.IndexOutOfRange):
            q.collapse(two_outcome_model(), -1)

    def test_collapsed_model_samples_that_outcome_only(self):
        c = q.collapse(two_outcome_model(), 1)
        assert set(np.unique(q.sample_outcomes(c, 1000, seed=0))) == {1}


# -- refusals -----------------------------------------------------------------

DECOHERENCE_REFUSALS = {
    "density-negative-truncation": lambda: q.truncated_density(two_outcome_model(), -1),
    "sample-negative-count": lambda: q.sample_outcomes(two_outcome_model(), -1, seed=0),
    "density-matrix-not-square": lambda: q.TruncatedDensityMatrix(np.full((2, 3), 1 / 3), 1),
    "density-matrix-flat": lambda: q.TruncatedDensityMatrix(np.array([0.5, 0.5]), 1),
}


@pytest.mark.parametrize("case", sorted(DECOHERENCE_REFUSALS))
def test_negative_counts_and_non_square_matrices_are_refused(case):
    with pytest.raises(q.PreconditionViolated):
        DECOHERENCE_REFUSALS[case]()


# Integer arguments are read as truncations are: ints and numpy integers
# pass, bools and floats are refused by name, before anything is drawn or
# looked up.  A pair must name two outcomes, and a pair that is not iterable
# names none.
INTEGER_REFUSALS = {
    "horizon-pair-float": (
        lambda m: q.decoherence_horizon(m, 0.1, pair=(0.5, 1)), "outcome 0.5 is not an integer"
    ),
    "horizon-pair-bool": (
        lambda m: q.decoherence_horizon(m, 0.1, pair=(True, 0)), "outcome True is not an integer"
    ),
    "horizon-pair-three": (
        lambda m: q.decoherence_horizon(m, 0.1, pair=(0, 1, 2)), r"pair \(0, 1, 2\) must name two"
    ),
    "horizon-pair-int": (
        lambda m: q.decoherence_horizon(m, 0.1, pair=5), "pair 5 must name two outcomes"
    ),
    "horizon-pair-float-alone": (
        lambda m: q.decoherence_horizon(m, 0.1, pair=1.5), "pair 1.5 must name two outcomes"
    ),
    "horizon-pair-object": (
        lambda m: q.decoherence_horizon(m, 0.1, pair=object()), "pair <object .*> must name two"
    ),
    "horizon-pair-ellipsis": (
        lambda m: q.decoherence_horizon(m, 0.1, pair=...), "pair Ellipsis must name two outcomes"
    ),
    "coherence-float": (
        lambda m: q.truncated_density(m, 3).coherence(0.5, 1), "outcome 0.5 is not an integer"
    ),
    "coherence-bool": (
        lambda m: q.truncated_density(m, 3).coherence(0, True), "outcome True is not an integer"
    ),
    "collapse-bool": (lambda m: q.collapse(m, True), "outcome True is not an integer"),
    "collapse-float": (lambda m: q.collapse(m, 1.0), "outcome 1.0 is not an integer"),
    "sample-count-float": (
        lambda m: q.sample_outcomes(m, 2.5, 1), "sample count 2.5 is not an integer"
    ),
    "sample-count-bool": (
        lambda m: q.sample_outcomes(m, True, 1), "sample count True is not an integer"
    ),
    "sample-seed-float": (lambda m: q.sample_outcome(m, 1.5), "seed 1.5 is not an integer"),
    "sample-seed-bool": (lambda m: q.sample_outcomes(m, 2, True), "seed True is not an integer"),
    "change-site-bool": (
        lambda m: q.apply_finite_change(m.branches[0], {True: E0}), "change site True is not an"
    ),
    "change-site-float": (
        lambda m: q.apply_finite_change(m.branches[0], {0.5: E0}), "change site 0.5 is not an"
    ),
    "density-truncation-float": (
        lambda m: q.truncated_density(m, 2.5), "truncation 2.5 is not an integer"
    ),
}


@pytest.mark.parametrize("case", sorted(INTEGER_REFUSALS))
def test_integer_arguments_refuse_bools_and_floats(case):
    call, message = INTEGER_REFUSALS[case]
    with pytest.raises(q.PreconditionViolated, match=message):
        call(two_outcome_model())


def test_numpy_integer_arguments_are_read_as_ints():
    m = two_outcome_model()
    one = np.int64(1)
    assert q.collapse(m, one) == q.collapse(m, 1)
    assert q.truncated_density(m, 3).coherence(np.int64(0), one) == q.truncated_density(
        m, 3
    ).coherence(0, 1)
    assert q.sample_outcome(m, np.int64(5)) == q.sample_outcome(m, 5)
    assert q.decoherence_horizon(m, 0.1, pair=(np.int64(0), one)) == q.decoherence_horizon(
        m, 0.1, pair=(0, 1)
    )
    changed = q.apply_finite_change(m.branches[0], {np.int64(1): E1})
    assert changed == q.apply_finite_change(m.branches[0], {1: E1})


def test_the_sample_count_is_capped_before_anything_is_drawn():
    with pytest.raises(q.DimensionBudgetExceeded) as info:
        q.sample_outcomes(two_outcome_model(), WALK_BUDGET + 1, 0)
    assert info.value.message == f"{WALK_BUDGET + 1} samples requested; the budget is {WALK_BUDGET}"
    assert info.value.context == {"count": WALK_BUDGET + 1, "budget": WALK_BUDGET}
