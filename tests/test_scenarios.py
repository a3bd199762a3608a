import math
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsectors as q
from qsectors.oracle import dense_overlap, densify
from qsectors.scenarios import _PLUS, _UP, _blocked_rotation
from support import complex_bits

UP = np.array([1.0, 0.0])
PLUS = np.array([2**-0.5, 2**-0.5])


class TestSpinChainValidation:
    def test_rejects_out_of_range_angles(self):
        with pytest.raises(q.PreconditionViolated):
            q.SpinChainScenario(Fraction(-1, 2))
        with pytest.raises(q.PreconditionViolated):
            q.SpinChainScenario(Fraction(3, 2))

    def test_rejects_oversized_period(self):
        with pytest.raises(q.DimensionBudgetExceeded):
            q.SpinChainScenario(Fraction(1, 17))
        q.SpinChainScenario(Fraction(1, 16))  # at the budget edge

    def test_geometry(self):
        sc = q.SpinChainScenario(Fraction(2, 3))
        assert sc.period == 3
        assert sc.rotated_per_period == 2
        assert sc.block_dim == 8
        whole = q.SpinChainScenario(Fraction(1))
        assert whole.period == 1 and whole.block_dim == 2


class TestSpinChainOverlaps:
    @pytest.mark.parametrize(
        "xi", [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 4)]
    )
    def test_sweep_matches_closed_form(self, xi):
        sc = q.SpinChainScenario(xi)
        counts = [sc.period * k for k in range(1, 13)]
        sweep = sc.sweep(counts)
        assert sweep.truncations == tuple(counts)
        for n, v in zip(sweep.truncations, sweep.values):
            want = sc.closed_overlap(n)
            assert v.imag == 0.0
            assert v.real == pytest.approx(want, rel=1e-12)
            assert abs(v) ** 2 == pytest.approx(sc.closed_probability(n), rel=1e-12)

    def test_closed_forms_are_powers_of_two(self):
        sc = q.SpinChainScenario(Fraction(2, 3))
        assert sc.closed_overlap(6) == pytest.approx(2.0**-2)
        assert sc.closed_probability(6) == pytest.approx(2.0**-4)

    def test_flat_chain_never_decays(self):
        sc = q.SpinChainScenario(Fraction(0))
        sweep = sc.sweep([1, 2, 8])
        assert all(v == pytest.approx(1.0) for v in sweep.values)

    def test_misaligned_counts_are_rejected(self):
        sc = q.SpinChainScenario(Fraction(2, 3))
        with pytest.raises(q.NonIntegralFraction):
            sc.closed_overlap(4)
        with pytest.raises(q.NonIntegralFraction):
            sc.sweep([3, 5])

    def test_counts_below_one_empty_or_out_of_order_are_rejected(self):
        sc = q.SpinChainScenario(Fraction(2, 3))
        for bad in (0, -3):
            with pytest.raises(q.PreconditionViolated, match="^site count must be >= 1$"):
                sc.closed_overlap(bad)
            with pytest.raises(q.PreconditionViolated, match="^site count must be >= 1$"):
                sc.closed_probability(bad)
        with pytest.raises(q.PreconditionViolated, match="^at least one site count is required$"):
            sc.sweep([])
        for counts in ([6, 3], [3, 3]):
            with pytest.raises(q.PreconditionViolated, match="^site counts must be strictly incr"):
                sc.sweep(counts)

    def test_blocking_matches_per_site_chain(self):
        # two blocks of (+ + up) must equal six independent sites
        sc = q.SpinChainScenario(Fraction(2, 3))
        flat, rotated = sc.states()
        got = q.truncated_overlap(flat, rotated, 2)  # two blocks = six sites
        site_vectors = [PLUS, PLUS, UP] * 2
        dense_rotated = reduce(np.kron, site_vectors)
        dense_flat = reduce(np.kron, [UP] * 6)
        want = np.vdot(dense_flat, dense_rotated)
        assert abs(got - want) < 1e-14
        assert np.max(np.abs(densify(rotated, 2).amplitudes - dense_rotated)) < 1e-14

    def test_state_labels(self):
        flat, rotated = q.SpinChainScenario(Fraction(1, 2)).states()
        assert flat.label == "all-up"
        assert rotated.label == "rotated"


class TestSpinChainSectors:
    def test_rotated_chain_leaves_the_sector(self):
        v = q.SpinChainScenario(Fraction(2, 3)).sector_verdict()
        assert v.kind == "DifferentSector"
        assert v.certificate["limit_overlap_deficit"] == pytest.approx(1.0 - 0.5)

    def test_unrotated_chain_stays(self):
        assert q.SpinChainScenario(Fraction(0)).sector_verdict().kind == "SameSector"

    def test_build_spin_pair_accepts_loose_inputs(self):
        for xi in ("2/3", Fraction(2, 3)):
            a, b = q.build_spin_pair(xi)
            assert q.same_sector(a, b).kind == "DifferentSector"
        a, b = q.build_spin_pair(0)
        assert q.same_sector(a, b).kind == "SameSector"


class TestStageAndCascadeSpecs:
    def test_stage_kind_and_parameter_validation(self):
        with pytest.raises(q.PreconditionViolated):
            q.StageSpec("odd", "uniform", 2.0)
        with pytest.raises(q.PreconditionViolated):
            q.StageSpec("neg", "poisson", -1.0)
        with pytest.raises(q.PreconditionViolated):
            q.StageSpec("frac", "fixed", 2.5)

    def test_cascade_bounds(self):
        stage = (q.StageSpec("s", "fixed", 2),)
        with pytest.raises(q.PreconditionViolated):
            q.CascadeSpec(stages=())
        with pytest.raises(q.PreconditionViolated):
            q.CascadeSpec(stages=stage, fidelity=1.0)
        with pytest.raises(q.InvalidAmplitude):
            q.CascadeSpec(stages=stage, amplitudes=(0.9, 0.9))
        with pytest.raises(q.PreconditionViolated, match="^cascade tracks exactly two outcomes$"):
            q.CascadeSpec(stages=stage, amplitudes=(0.6, 0.8, 0.0))
        with pytest.raises(q.PreconditionViolated):
            q.CascadeSpec(stages=stage, loss_rate=1.5)
        with pytest.raises(q.PreconditionViolated):
            q.CascadeSpec(stages=stage, dark_rate=-0.5)


    @pytest.mark.parametrize(
        "amplitudes", [(math.nan, math.nan), (math.inf, 0.0), (0.6, complex(0.8, math.nan))]
    )
    def test_non_finite_amplitudes_are_refused_as_a_model_refuses_them(self, amplitudes):
        # a NaN sum passes the normalization check, so finiteness comes first
        stage = (q.StageSpec("s", "fixed", 0),)
        with pytest.raises(q.InvalidAmplitude, match="^non-finite pointer amplitude ") as spec_err:
            q.CascadeSpec(stages=stage, amplitudes=amplitudes)
        with pytest.raises(q.InvalidAmplitude) as model_err:
            q.MeasurementModel(amplitudes, _branches())
        assert str(spec_err.value) == str(model_err.value)

    def test_unnormalized_amplitudes_read_as_a_model_reads_them(self):
        stage = (q.StageSpec("s", "fixed", 0),)
        with pytest.raises(q.InvalidAmplitude) as spec_err:
            q.CascadeSpec(stages=stage, amplitudes=(0.9, 0.9))
        with pytest.raises(q.InvalidAmplitude) as model_err:
            q.MeasurementModel((0.9, 0.9), _branches())
        assert str(spec_err.value) == str(model_err.value)
        assert str(spec_err.value).startswith("pointer amplitudes must be normalized, got sum 1.62")


def _branches():
    quiet = q.make_product_state((), q.ConstantTail(q.FactorVector((1.0, 0.0))))
    kicked = q.make_product_state((), q.ConstantTail(q.FactorVector((0.8, 0.6))))
    return (quiet, kicked)


class TestRunCascade:
    def test_default_cascade_arithmetic(self):
        r = q.run_cascade(q.default_cascade())
        assert [s.count for s in r.stages] == [10, 1000, 50000]
        assert [s.cumulative_records for s in r.stages] == [10, 1010, 51010]
        assert r.total_records == 51010
        assert r.log10_coherence == pytest.approx(
            math.log10(0.5) + 51010 * math.log10(0.99), rel=1e-15
        )
        assert r.coherence == pytest.approx(0.5 * 0.99**51010)
        assert not r.degenerate

    def test_stage_log_coherence_is_cumulative(self):
        r = q.run_cascade(q.default_cascade())
        logs = [s.log10_coherence for s in r.stages]
        assert logs[0] == pytest.approx(-0.344678049688482, abs=1e-12)
        assert logs[1] == pytest.approx(-4.709483452138571, abs=1e-12)
        assert logs == sorted(logs, reverse=True)

    def test_counts_past_the_float_range_round_as_ieee_rounds_the_exact_value(self):
        huge = int(1e200)
        spec = q.CascadeSpec(
            stages=(q.StageSpec("a", "fixed", 1e200), q.StageSpec("b", "fixed", 1e200))
        )
        r = q.run_cascade(spec)
        base, step = math.log10(0.5), math.log10(0.99)
        assert r.total_records == huge + huge * huge
        # the first stage stays in range and keeps its bits
        assert r.stages[0].log10_coherence == base + huge * step
        assert r.stages[1].log10_coherence == r.log10_coherence == -math.inf
        assert r.coherence == 0.0

    def test_a_count_past_the_float_range_with_a_finite_product_stays_finite(self):
        spec = q.CascadeSpec(
            stages=(q.StageSpec("a", "fixed", 1e300), q.StageSpec("b", "fixed", 1e9)),
            fidelity=1.0 - 1e-6,
        )
        r = q.run_cascade(spec)
        step = math.log10(1.0 - 1e-6)
        exact = float(Fraction(r.total_records) * Fraction(step))
        assert math.isfinite(exact)
        assert r.log10_coherence == math.log10(0.5) + exact
        assert r.stages[0].log10_coherence == math.log10(0.5) + int(1e300) * step
        assert r.coherence == 0.0

    def test_noiseless_fixed_cascade_ignores_seed(self):
        a = q.run_cascade(q.default_cascade(), seed=1)
        b = q.run_cascade(q.default_cascade(), seed=99)
        c = q.run_cascade(q.default_cascade(), seed=-1)
        assert a.stages == b.stages == c.stages

    @pytest.mark.parametrize(
        "stages, loss, dark",
        [
            ((q.StageSpec("a", "poisson", 3.0),), 0.0, 0.0),
            ((q.StageSpec("a", "fixed", 3),), 0.5, 0.0),
            ((q.StageSpec("a", "fixed", 3),), 0.0, 0.5),
            ((q.StageSpec("a", "fixed", 3), q.StageSpec("b", "poisson", 2.0)), 0.0, 0.0),
        ],
    )
    def test_a_cascade_that_draws_refuses_a_negative_seed(self, stages, loss, dark):
        spec = q.CascadeSpec(stages=stages, loss_rate=loss, dark_rate=dark)
        with pytest.raises(q.PreconditionViolated, match="^seed must be >= 0, got -3$"):
            q.run_cascade(spec, seed=-3)
        assert q.run_cascade(spec, seed=0).total_records >= 0

    def test_poisson_stages_are_seed_deterministic(self):
        spec = q.CascadeSpec(
            stages=(
                q.StageSpec("burst", "poisson", 8.0),
                q.StageSpec("fanout", "poisson", 30.0),
            )
        )
        a = q.run_cascade(spec, seed=5)
        b = q.run_cascade(spec, seed=5)
        c = q.run_cascade(spec, seed=6)
        assert a.stages == b.stages
        assert a.stages != c.stages
        assert a.stages[1].count > 0

    def test_total_loss_degenerates(self):
        spec = q.CascadeSpec(
            stages=(q.StageSpec("only", "fixed", 4),), loss_rate=1.0
        )
        r = q.run_cascade(spec, seed=3)
        assert r.degenerate
        assert r.total_records == 0
        assert r.model is None
        assert r.coherence == pytest.approx(0.5)
        with pytest.raises(q.PreconditionViolated):
            r.density()

    def test_dark_counts_resurrect_lost_records(self):
        spec = q.CascadeSpec(
            stages=(q.StageSpec("only", "fixed", 4),),
            loss_rate=1.0,
            dark_rate=6.0,
        )
        r = q.run_cascade(spec, seed=3)
        assert r.total_records > 0
        assert not r.degenerate

    @pytest.mark.parametrize(
        "stages, loss, dark, stage, value",
        [
            ((("a", "fixed", 1e10), ("b", "poisson", 1e10)), 0.0, 0.0, "b", 1e20),
            ((("a", "poisson", 1e19),), 0.0, 0.0, "a", 1e19),
            ((("a", "fixed", 4),), 0.0, 1e19, "a", 1e19),
            ((("a", "fixed", 1e20),), 0.5, 0.0, "a", 10**20),
            # parents past the float range: the mean itself cannot be formed
            (
                (("a", "fixed", 1e200), ("b", "fixed", 1e200), ("c", "poisson", 0.5)),
                0.0, 0.0, "c", math.inf,
            ),
        ],
    )
    def test_draws_past_the_generator_limits_are_refused(self, stages, loss, dark, stage, value):
        spec = q.CascadeSpec(
            stages=tuple(q.StageSpec(*s) for s in stages), loss_rate=loss, dark_rate=dark
        )
        with pytest.raises(q.DimensionBudgetExceeded) as refused:
            q.run_cascade(spec, seed=1)
        assert refused.value.context["stage"] == stage
        assert refused.value.context["value"] == value

    def test_draws_at_the_generator_limit_keep_their_bits(self):
        from qsectors.scenarios import _POISSON_MEAN_MAX

        spec = q.CascadeSpec(
            stages=(
                q.StageSpec("a", "poisson", _POISSON_MEAN_MAX), q.StageSpec("b", "poisson", 0.0)
            ),
            loss_rate=0.25,
            dark_rate=_POISSON_MEAN_MAX,
        )
        rng = np.random.default_rng(5)
        first = int(rng.binomial(int(rng.poisson(_POISSON_MEAN_MAX)), 0.75))
        first += int(rng.poisson(_POISSON_MEAN_MAX))
        second = int(rng.poisson(first * 0.0))
        r = q.run_cascade(spec, seed=5)
        assert [s.count for s in r.stages] == [first, second]

    def test_loss_thins_the_first_stage_only(self):
        spec = q.CascadeSpec(
            stages=(
                q.StageSpec("first", "fixed", 1000),
                q.StageSpec("second", "fixed", 2),
            ),
            loss_rate=0.5,
        )
        r = q.run_cascade(spec, seed=11)
        assert 0 < r.stages[0].count < 1000
        assert r.stages[1].count == 2 * r.stages[0].count

    def test_density_coherence_matches_score(self):
        spec = q.CascadeSpec(stages=(q.StageSpec("s", "fixed", 3),), fidelity=0.9)
        r = q.run_cascade(spec)
        rho = r.density()
        assert rho.coherence(0, 1) == pytest.approx(r.coherence, rel=1e-12)
        assert rho.truncation == r.total_records

    def test_density_past_the_float_range_has_no_coherence(self):
        spec = q.CascadeSpec(
            stages=(q.StageSpec("a", "fixed", 1e200), q.StageSpec("b", "fixed", 1e200))
        )
        r = q.run_cascade(spec)
        rho = r.density()
        assert rho.truncation == r.total_records == int(1e200) + int(1e200) ** 2
        assert (r.log10_coherence, r.coherence) == (-math.inf, 0.0)
        assert rho.coherence(0, 1) == 0j
        assert rho.matrix[0, 0] == rho.matrix[1, 1] == pytest.approx(0.5)

    def test_stage_report_rows(self):
        rows = q.cascade_stage_report(q.run_cascade(q.default_cascade()))
        assert len(rows) == 3
        assert rows[0]["stage"] == "fluorescence"
        assert rows[2]["cumulative_records"] == 51010
        assert all(
            set(r) >= {"stage", "kind", "parameter", "count", "cumulative_records"}
            for r in rows
        )


class TestBlockedRotation:
    """The rotated block's amplitudes come from one ``tolist``; they keep the
    bits of the per-amplitude ``complex`` loop it replaced."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 16).flatmap(lambda q_: st.tuples(st.integers(0, q_), st.just(q_))))
    def test_matches_the_generator(self, case):
        p, period = case
        folded = reduce(np.kron, [_PLUS] * p + [_UP] * (period - p))
        want = tuple(complex(c) for c in folded)
        got = _blocked_rotation(p, period).amplitudes
        assert all(type(c) is complex for c in got)
        assert complex_bits(got) == complex_bits(want)

    @pytest.mark.parametrize("p", [0, 1, 8, 16])
    def test_the_largest_blocks(self, p):
        folded = reduce(np.kron, [_PLUS] * p + [_UP] * (16 - p))
        got = _blocked_rotation(p, 16).amplitudes
        assert len(got) == 65_536
        assert complex_bits(got) == complex_bits(tuple(complex(c) for c in folded))
        assert got[0].real == pytest.approx(2.0 ** (-p / 2), rel=1e-14)
