import math

import numpy as np
import pytest

import qsectors as q
from qsectors.oracle import dense_density, densify
from qsectors.serialize import decode_state

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

    def test_purity_falls_toward_mixture(self):
        m = two_outcome_model(eta=0.9)
        early = q.truncated_density(m, 1).purity
        late = q.truncated_density(m, 500).purity
        assert early > 0.9
        assert late == pytest.approx(0.5, abs=1e-12)


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
