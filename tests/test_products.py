import cmath
import math

import pytest

import qsectors as q

# High-precision partial-product references (50-digit run, 400 terms).
PROD_ONE_PLUS_HALF_POW = 2.384231029031371724149899
PROD_ONE_MINUS_HALF_POW = 0.2887880950866024212788997
PROD_ONE_PLUS_I_HALF_POW = 0.6698396443906053 + 0.9524833461358507j
SINH_PI_OVER_PI = math.sinh(math.pi) / math.pi


def geometric(fn, ratio):
    return q.ComplexSequenceSpec(
        tail=q.ClosedFormTail(term_fn=fn, klass="geometric-modulus", ratio=ratio)
    )


class TestSpecValidation:
    def test_term_at_is_one_based(self):
        s = q.ComplexSequenceSpec(prefix=(2.0,), tail=q.ConstantValue(3.0))
        assert s.term_at(1) == 2.0
        assert s.term_at(2) == 3.0
        with pytest.raises(q.PreconditionViolated):
            s.term_at(0)

    def test_non_finite_prefix(self):
        with pytest.raises(q.InvalidAmplitude):
            q.ComplexSequenceSpec(prefix=(float("inf"),))

    def test_tail_class_validation(self):
        with pytest.raises(q.UndeclaredTailClass):
            q.ClosedFormTail(term_fn=lambda n: 1.0, klass="mystery")
        with pytest.raises(q.UndeclaredTailClass):
            q.ClosedFormTail(term_fn=lambda n: 1.0, klass="geometric-modulus", ratio=1.5)
        with pytest.raises(q.UndeclaredTailClass):
            q.ClosedFormTail(term_fn=lambda n: 1.0, klass="p-series-log-modulus")

    def test_budget_must_cover_prefix(self):
        s = q.ComplexSequenceSpec(prefix=(1.0,) * 10)
        with pytest.raises(q.PreconditionViolated):
            q.classify_product(s, budget=5)


class TestConstantTails:
    def test_zero_prefix_term_short_circuits(self):
        s = q.ComplexSequenceSpec(prefix=(2.0, 0.0), tail=q.ConstantValue(5.0))
        v = q.classify_product(s)
        assert v.kind == "ConvergesTo"
        assert v.value == 0j
        assert v.diagnostics.log_modulus_sum == -math.inf

    @pytest.mark.parametrize(
        "prefix", [(1e-200, 1e-200, 1e200, 1e200), (1e200, 1e200, 1e-200, 1e-200)]
    )
    def test_extreme_prefix_terms_read_the_log_form(self, prefix):
        # the direct prefix product underflows to 0 or overflows to nan; the
        # product is exactly 1
        s = q.ComplexSequenceSpec(prefix=prefix, tail=q.ConstantValue(1))
        v = q.classify_product(s)
        assert v.kind == "ConvergesTo"
        assert abs(v.value - 1.0) <= 1e-12

    def test_modulus_below_one(self):
        v = q.classify_product(q.ComplexSequenceSpec(tail=q.ConstantValue(0.9)))
        assert v.kind == "ConvergesTo" and v.value == 0j

    def test_modulus_above_one(self):
        v = q.classify_product(q.ComplexSequenceSpec(tail=q.ConstantValue(1.1)))
        assert v.kind == "Diverges"

    def test_unit_aligned(self):
        s = q.ComplexSequenceSpec(prefix=(2.0, 0.25), tail=q.ConstantValue(1.0))
        v = q.classify_product(s)
        assert v.kind == "ConvergesTo"
        assert v.value == 0.5 + 0j

    def test_unit_rotating(self):
        z = cmath.exp(0.3j)
        v = q.classify_product(q.ComplexSequenceSpec(tail=q.ConstantValue(z)))
        assert v.kind == "QuasiConvergesToZero"
        assert v.value == 0j

    def test_unit_modulus_within_snap_still_rotating(self):
        # |exp(i*theta)| computed in floats can sit a few ulps off 1
        z = cmath.exp(1j * 0.7368156)
        v = q.classify_product(q.ComplexSequenceSpec(tail=q.ConstantValue(z)))
        assert v.kind == "QuasiConvergesToZero"


class TestEventuallyOne:
    def test_exact_finite_product(self):
        tail = q.ClosedFormTail(
            term_fn=lambda n: 1.0 + (2.0 if n == 3 else 0.0), klass="eventually-one"
        )
        s = q.ComplexSequenceSpec(prefix=(0.5,), tail=tail)
        v = q.classify_product(s)
        assert v.kind == "ConvergesTo"
        assert v.value == pytest.approx(1.5 + 0j)

    def test_never_settling_is_inconclusive(self):
        tail = q.ClosedFormTail(
            term_fn=lambda n: 1.0 + 1.0 / n, klass="eventually-one"
        )
        v = q.classify_product(q.ComplexSequenceSpec(tail=tail), budget=2000)
        assert v.kind == "Inconclusive"


class TestGeometricTails:
    def test_one_plus_half_powers(self):
        # early stop at tol leaves a relative residual of order tol
        v = q.classify_product(geometric(lambda n: 1.0 + 0.5 ** n, 0.5))
        assert v.kind == "ConvergesTo"
        assert v.value.real == pytest.approx(PROD_ONE_PLUS_HALF_POW, rel=1e-9)

    def test_one_minus_half_powers(self):
        v = q.classify_product(geometric(lambda n: 1.0 - 0.5 ** n, 0.5))
        assert v.kind == "ConvergesTo"
        assert v.value.real == pytest.approx(PROD_ONE_MINUS_HALF_POW, rel=1e-9)

    def test_complex_terms(self):
        v = q.classify_product(geometric(lambda n: 1.0 + 0.5 ** n * 1j, 0.5))
        assert v.kind == "ConvergesTo"
        assert abs(v.value - PROD_ONE_PLUS_I_HALF_POW) < 1e-9

    def test_stops_early(self):
        # remaining-tail bound should terminate the scan long before 10^5
        v = q.classify_product(geometric(lambda n: 1.0 + 0.5 ** n, 0.5))
        assert v.diagnostics.terms_examined < 500


class TestPSeriesTails:
    def test_sinh_pi_over_pi(self):
        tail = q.ClosedFormTail(
            term_fn=lambda n: 1.0 + 1.0 / n ** 2, klass="p-series-log-modulus", p=2.0
        )
        v = q.classify_product(q.ComplexSequenceSpec(tail=tail))
        assert v.kind == "ConvergesTo"
        assert v.value.real == pytest.approx(SINH_PI_OVER_PI, abs=1e-6)

    def test_telescoping_half(self):
        tail = q.ClosedFormTail(
            term_fn=lambda n: 1.0 - 1.0 / (n + 1) ** 2,
            klass="p-series-log-modulus",
            p=2.0,
        )
        v = q.classify_product(q.ComplexSequenceSpec(tail=tail))
        assert v.kind == "ConvergesTo"
        assert v.value.real == pytest.approx(0.5, abs=1e-6)

    def test_cubic(self):
        tail = q.ClosedFormTail(
            term_fn=lambda n: 1.0 + 1.0 / n ** 3, klass="p-series-log-modulus", p=3.0
        )
        v = q.classify_product(q.ComplexSequenceSpec(tail=tail))
        assert v.value.real == pytest.approx(2.428189792098870, abs=1e-6)

    def test_harmonic_diverges(self):
        tail = q.ClosedFormTail(
            term_fn=lambda n: 1.0 + 1.0 / n, klass="p-series-log-modulus", p=1.0
        )
        v = q.classify_product(q.ComplexSequenceSpec(tail=tail))
        assert v.kind == "Diverges"

    def test_negative_harmonic_vanishes(self):
        tail = q.ClosedFormTail(
            term_fn=lambda n: 1.0 - 1.0 / (n + 1), klass="p-series-log-modulus", p=1.0
        )
        v = q.classify_product(q.ComplexSequenceSpec(tail=tail))
        assert v.kind == "ConvergesTo"
        assert v.value == 0j


class TestDeclaredQuasi:
    def test_harmonic_phase(self):
        tail = q.ClosedFormTail(
            term_fn=lambda n: cmath.exp(1j / n),
            klass="bounded-nonsummable-argument",
        )
        v = q.classify_product(q.ComplexSequenceSpec(tail=tail))
        assert v.kind == "QuasiConvergesToZero"
        assert v.value == 0j


class TestNumericFallback:
    def test_custom_convergent(self):
        tail = q.ClosedFormTail(term_fn=lambda n: 1.0 + 0.5 ** n, klass="custom")
        v = q.classify_product(q.ComplexSequenceSpec(tail=tail))
        assert v.kind == "ConvergesTo"
        assert v.value.real == pytest.approx(PROD_ONE_PLUS_HALF_POW, abs=1e-8)

    def test_custom_slowly_divergent(self):
        tail = q.ClosedFormTail(term_fn=lambda n: 1.0 + n ** -0.5, klass="custom")
        v = q.classify_product(q.ComplexSequenceSpec(tail=tail))
        assert v.kind == "Diverges"

    def test_custom_vanishing(self):
        tail = q.ClosedFormTail(term_fn=lambda n: 1.0 - n ** -0.5, klass="custom")
        v = q.classify_product(q.ComplexSequenceSpec(tail=tail))
        assert v.kind == "ConvergesTo" and v.value == 0j

    def test_custom_drift_is_inconclusive_within_budget(self):
        # last-half drift of sum(1/n) is ln 2, far below the quasi threshold
        tail = q.ClosedFormTail(term_fn=lambda n: cmath.exp(1j / n), klass="custom")
        v = q.classify_product(q.ComplexSequenceSpec(tail=tail), budget=20_000)
        assert v.kind == "Inconclusive"

    def test_require_exact_rejects_custom(self):
        tail = q.ClosedFormTail(term_fn=lambda n: 1.0 + 0.5 ** n, klass="custom")
        with pytest.raises(q.UndeclaredTailClass):
            q.classify_product(q.ComplexSequenceSpec(tail=tail), require_exact=True)


class TestQuasiValue:
    def test_quasi_returns_zero(self):
        tail = q.ClosedFormTail(
            term_fn=lambda n: cmath.exp(1j / n),
            klass="bounded-nonsummable-argument",
        )
        assert q.quasi_convergence_value(q.ComplexSequenceSpec(tail=tail)) == 0j

    def test_convergent_returns_value(self):
        s = q.ComplexSequenceSpec(prefix=(0.5,), tail=q.ConstantValue(1.0))
        assert q.quasi_convergence_value(s) == 0.5 + 0j

    def test_divergent_raises(self):
        with pytest.raises(q.NotQuasiConvergent):
            q.quasi_convergence_value(q.ComplexSequenceSpec(tail=q.ConstantValue(2.0)))


class TestDiagnostics:
    def test_samples_and_counts_present(self):
        v = q.classify_product(geometric(lambda n: 1.0 + 0.5 ** n, 0.5))
        assert v.diagnostics.terms_examined > 0
        assert v.diagnostics.samples
        ns = [n for n, _ in v.diagnostics.samples]
        assert ns == sorted(ns)
