import cmath
import contextlib
import json
import math
import re
import sys
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsectors as q
from qsectors import products, serialize
from qsectors.states import WALK_BUDGET

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

    @pytest.mark.parametrize(
        "klass, fields, message",
        [
            # bools, NaN and non-reals are refused as DecaySpec refuses them
            ("p-series-log-modulus", {"p": True}, "tail p must be a real number, got True"),
            ("p-series-log-modulus", {"p": math.nan}, "p-series-log-modulus needs p > 0"),
            ("geometric-modulus", {"ratio": False}, "tail ratio must be a real number, got False"),
            ("geometric-modulus", {"ratio": "0.5"}, "tail ratio must be a real number, got '0.5'"),
            ("custom", {"p": [2.0]}, "tail p must be a real number, got [2.0]"),
            ("p-series-log-modulus", {"p": 10**400}, "tail p lies outside the float range"),
            ("geometric-modulus", {"ratio": -(10**400)}, "tail ratio lies outside the float range"),
            # valid types keep their messages
            ("geometric-modulus", {"ratio": 1.5}, "geometric-modulus needs 0 <= ratio < 1"),
            ("geometric-modulus", {"ratio": math.nan}, "geometric-modulus needs 0 <= ratio < 1"),
            ("p-series-log-modulus", {"p": -1}, "p-series-log-modulus needs p > 0"),
        ],
    )
    def test_declared_numbers_are_checked_as_decay_specs_check_them(self, klass, fields, message):
        with pytest.raises(q.UndeclaredTailClass, match=f"^{re.escape(message)}$"):
            q.ClosedFormTail(term_fn=lambda n: 1.0, klass=klass, **fields)

    def test_int_declarations_read_as_their_floats(self):
        for klass, fields, fn in (
            ("p-series-log-modulus", {"p": 2}, lambda n: 1.0 + 0.3 / (n * n)),
            ("geometric-modulus", {"ratio": 0}, lambda n: 1.0),
        ):
            floats = {k: float(v) for k, v in fields.items()}
            got, want = (
                q.classify_product(q.ComplexSequenceSpec(
                    tail=q.ClosedFormTail(term_fn=fn, klass=klass, **declared)
                ))
                for declared in (fields, floats)
            )
            assert (got.kind, repr(got.value)) == (want.kind, repr(want.value))

    def test_budget_must_cover_prefix(self):
        s = q.ComplexSequenceSpec(prefix=(1.0,) * 10)
        with pytest.raises(q.PreconditionViolated):
            q.classify_product(s, budget=5)

    def test_budget_past_the_walk_cap_is_refused_before_any_term_is_read(self):
        calls = []

        def term(n):
            calls.append(n)
            return 1.0

        s = q.ComplexSequenceSpec(tail=q.ClosedFormTail(term_fn=term, klass="custom"))
        with pytest.raises(q.DimensionBudgetExceeded):
            q.classify_product(s, budget=WALK_BUDGET + 1)
        assert calls == []
        q.classify_product(s, budget=WALK_BUDGET // 1024)
        assert len(calls) == WALK_BUDGET // 1024

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.inf, math.nan])
    def test_tol_must_be_positive_and_finite_before_any_term_is_read(self, tol):
        s = q.ComplexSequenceSpec(tail=q.ClosedFormTail(term_fn=_unread, klass="custom"))
        with pytest.raises(q.PreconditionViolated, match="^tol must be a positive finite number$"):
            q.classify_product(s, tol=tol)

    def test_verdict_kind_and_value_are_checked(self):
        with pytest.raises(q.PreconditionViolated, match="^unknown verdict kind 'Converges'$"):
            q.ConvergenceVerdict("Converges", 1.0)
        with pytest.raises(q.PreconditionViolated, match="^ConvergesTo requires a value$"):
            q.ConvergenceVerdict("ConvergesTo")
        assert q.ConvergenceVerdict("ConvergesTo", 0j).value == 0j
        assert q.ConvergenceVerdict("Diverges").value is None

    def test_every_tail_class_has_one_walked_classifier(self):
        # one table: a class cannot be declared without the classifier that
        # walks it, and an undeclared tail goes to the numeric one
        assert tuple(products._CLASSIFIERS) == products.TAIL_CLASSES
        assert set(products.TAIL_CLASSES) == {
            "eventually-one", "geometric-modulus", "p-series-log-modulus",
            "bounded-nonsummable-argument", "custom",
        }
        assert products._CLASSIFIERS["custom"] is products._classify_numeric


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

    def test_vanishing_coefficient_falls_back_within_budget(self):
        # p <= 1 with a vanishing coefficient estimate reads the numeric
        # verdict off the same walk: the budget caps the terms evaluated
        calls = []

        def term(n):
            calls.append(n)
            return 1.0 + (1e-14 if n % 2 else -1e-14)

        budget = 4000

        def verdict_bytes(klass, **declared):
            calls.clear()
            tail = q.ClosedFormTail(term_fn=term, klass=klass, **declared)
            seq = q.ComplexSequenceSpec(prefix=(0.5, 2.0), tail=tail)
            v = q.classify_product(seq, budget=budget)
            return serialize.dumps(serialize.encode_verdict(v)), len(calls)

        declared, declared_calls = verdict_bytes("p-series-log-modulus", p=0.8)
        custom, custom_calls = verdict_bytes("custom")
        assert declared_calls <= budget
        assert declared_calls == custom_calls
        assert declared == custom


class TestBrokenDeclarations:
    """Terms that break their declared class give a verdict at budget 3000,
    not a bare Python error."""

    @staticmethod
    def classify(fn, **declared):
        tail = q.ClosedFormTail(term_fn=fn, **declared)
        return q.classify_product(q.ComplexSequenceSpec(tail=tail), budget=3000)

    def test_growing_terms_with_p_at_most_one_diverge(self):
        v = self.classify(lambda n: 2.0, klass="p-series-log-modulus", p=0.5)
        assert v.kind == "Diverges"
        # the sample goes through the clamped exp of the log form
        assert v.diagnostics.samples == ((3000, cmath.exp(700.0)),)

    def test_growing_terms_with_p_above_one_are_inconclusive(self):
        v = self.classify(lambda n: 2.0, klass="p-series-log-modulus", p=2.0)
        assert (v.kind, v.value) == ("Inconclusive", None)
        assert v.diagnostics.notes == ("declared p=2 > 1 but the log sum overflows",)
        assert v.diagnostics.terms_examined == 3000
        assert v.diagnostics.log_modulus_sum == pytest.approx(3000 * math.log(2.0))

    def test_p_series_terms_past_power_overflow(self):
        # 1 + n**-400 rounds to 1 from n = 2 on, while n**400 overflows at n = 6
        v = self.classify(lambda n: 1.0 + n**-400, klass="p-series-log-modulus", p=400.0)
        assert (v.kind, v.value) == ("ConvergesTo", 2.0)
        for p, first in ((200.0, 35), (1000.0, 3)):
            v = self.classify(lambda n: 1.0 + 1e-9, klass="p-series-log-modulus", p=p)
            assert (v.kind, v.value) == ("Inconclusive", None)
            n = v.diagnostics.terms_examined
            with pytest.raises(OverflowError):
                float(n) ** p
            assert v.diagnostics.notes == (
                f"declared p={p:g} but a log term stays nonzero past n**p overflow",
            )
            # the first overflowing term, as the per-term reference finds it
            assert n == first == products._first_power_overflow(p, 1, 3000)
            lean, ref = _both(_closed(lambda n: 1.0 + 1e-9, "p-series-log-modulus", p=p), budget=3000)
            assert lean == ref

    def test_geometric_log_sum_overflow_is_inconclusive(self):
        v = self.classify(lambda n: 2.0, klass="geometric-modulus", ratio=0.999999)
        assert (v.kind, v.value) == ("Inconclusive", None)
        assert v.diagnostics.notes == ("declared geometric but the log sum overflows",)

    @pytest.mark.parametrize(
        "declared, last_n",
        [({"klass": "geometric-modulus", "ratio": 0.5}, 45), ({"klass": "p-series-log-modulus", "p": 2.0}, 34)],
    )
    def test_a_prefix_brings_an_overflowing_tail_back_into_range(self, declared, last_n):
        # the tail's log sum alone is 800, past exp's range; with the
        # prefix's log(1e-300) the product's is 109.22
        tail = q.ClosedFormTail(term_fn=lambda n: cmath.exp(400.0) if n in (2, 3) else 1.0, **declared)
        v = q.classify_product(q.ComplexSequenceSpec(prefix=(1e-300,), tail=tail))
        log_sum = math.log(1e-300) + 800.0
        assert v.kind == "ConvergesTo"
        assert v.value == cmath.exp(complex(v.diagnostics.log_modulus_sum, 0.0))
        assert v.value.real == pytest.approx(math.exp(log_sum), rel=1e-12)
        assert v.diagnostics.log_modulus_sum == pytest.approx(log_sum, rel=1e-14)
        assert v.diagnostics.samples == ((1, 1e-300 + 0j), (last_n, v.value))
        assert v.diagnostics.terms_examined == last_n

    def test_an_eventually_one_sample_stays_finite(self):
        v = self.classify(lambda n: 1e200, klass="eventually-one")
        assert (v.kind, v.value) == ("Inconclusive", None)
        (first, one), (last_n, sample) = v.diagnostics.samples
        assert (first, one) == (0, 1 + 0j)
        # the running product overflows at n = 2 and holds inf * 0 = nan from
        # n = 3 on; the sample is exp of the log form, clamped at 700
        assert last_n == 3000 and sample == cmath.exp(700.0)
        assert "nan" not in json.dumps(serialize.encode_verdict(v))

    def test_geometric_terms_past_underflow_are_inconclusive(self):
        v = self.classify(lambda n: 1 + 0.5 / n, klass="geometric-modulus", ratio=0.3)
        assert (v.kind, v.value) == ("Inconclusive", None)
        n = v.diagnostics.terms_examined
        assert 0.3**n == 0.0 and 0.3 ** (n - 1) > 0.0
        assert v.diagnostics.notes == (
            "declared geometric but a log term stays nonzero past ratio**n underflow",
        )

    @pytest.mark.parametrize(
        "fn, declared",
        [
            (lambda n: 1 + 0.5 / n, {"klass": "geometric-modulus", "ratio": 0.3}),
            (lambda n: 2.0, {"klass": "geometric-modulus", "ratio": 0.999999}),
            (lambda n: 1.0 + 1e-9, {"klass": "p-series-log-modulus", "p": 200.0}),
            (lambda n: 2.0, {"klass": "p-series-log-modulus", "p": 2.0}),
        ],
    )
    def test_a_broken_declaration_reports_every_term_walked(self, fn, declared):
        # the exit is taken in the hook or after the walk; either way the
        # diagnostics hold the log form of every term up to the last one read
        prefix = (2.0, 0.5j)
        v = q.classify_product(q.ComplexSequenceSpec(prefix, q.ClosedFormTail(fn, **declared)), 3000)
        last_n = v.diagnostics.terms_examined
        log_mod = arg = 0.0
        for z in (*prefix, *(complex(fn(n)) for n in range(3, last_n + 1))):
            log_mod += math.log(abs(z))
            arg += math.atan2(z.imag, z.real)
        assert (v.kind, v.value) == ("Inconclusive", None)
        assert (v.diagnostics.log_modulus_sum, v.diagnostics.argument_drift) == (log_mod, arg)
        acc = products._Accumulator(log_mod, arg)
        assert v.diagnostics.samples == ((2, 1j), (last_n, acc.value()))

    def test_zero_log_terms_past_underflow_skip_the_bound(self):
        v = self.classify(lambda n: 1.001 if n <= 600 else 1.0, klass="geometric-modulus", ratio=0.3)
        assert v.kind == "ConvergesTo"
        assert v.value == pytest.approx(1.001**600, rel=1e-12)


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


# -- frozen bits: every classifier path ----------------------------------------


def _closed(fn, klass, prefix=(), **declared):
    return q.ComplexSequenceSpec(prefix, q.ClosedFormTail(term_fn=fn, klass=klass, **declared))


def _zero_at(k, fn):
    return lambda n: 0j if n == k else fn(n)


def _unread(n):
    raise AssertionError(f"term {n} was read")


# name -> (sequence, classify_product keyword arguments)
BITS_CASES = {
    "constant-aligned": (q.ComplexSequenceSpec((2.0, 0.25), q.ConstantValue(1.0)), {}),
    "constant-rotating": (q.ComplexSequenceSpec((0.5j,), q.ConstantValue(cmath.exp(0.3j))), {}),
    "constant-below": (q.ComplexSequenceSpec((1.5,), q.ConstantValue(0.9 + 0.1j)), {}),
    "constant-above": (q.ComplexSequenceSpec((), q.ConstantValue(1.1)), {}),
    "constant-zero": (q.ComplexSequenceSpec((2.0,), q.ConstantValue(0.0)), {}),
    "prefix-zero": (q.ComplexSequenceSpec((2.0, 0.0), q.ConstantValue(1.1)), {}),
    "eventually-one-settles": (
        _closed(lambda n: 1.0 + (0.5j if n in (3, 7) else 0.0), "eventually-one", (0.5,)), {}
    ),
    "eventually-one-inconclusive": (
        _closed(lambda n: 1.0 + 1.0 / n, "eventually-one"), {"budget": 2000}
    ),
    "eventually-one-zero": (
        _closed(_zero_at(5, lambda n: 1.0 + 0.1j * (n < 9)), "eventually-one", (1.5,)), {}
    ),
    "geometric-early-stop": (
        _closed(lambda n: 1.0 + (1 + 1j) * 0.5**n, "geometric-modulus", (1.5, 0.5j), ratio=0.5), {}
    ),
    "geometric-ratio-zero": (
        _closed(lambda n: 1.0 + 0.3 * 0.0**n, "geometric-modulus", (2.0,), ratio=0.0), {}
    ),
    "geometric-to-budget": (
        _closed(lambda n: 1.0 - 0.2j * 0.99**n, "geometric-modulus", ratio=0.99), {"budget": 300}
    ),
    "geometric-zero": (
        _closed(_zero_at(4, lambda n: 1.0 + 0.5**n), "geometric-modulus", ratio=0.5), {}
    ),
    "p-series-early-stop": (
        _closed(lambda n: 1.0 + (0.3 - 0.1j) / n**3, "p-series-log-modulus", (0.5,), p=3.0),
        {"budget": 5000, "tol": 1e-6},
    ),
    "p-series-to-budget": (
        _closed(lambda n: 1.0 + (0.3 - 0.1j) * n**-1.7, "p-series-log-modulus", p=1.7),
        {"budget": 3000},
    ),
    "p-series-diverges": (
        _closed(lambda n: 1.0 + 1.0 / n, "p-series-log-modulus", p=1.0), {"budget": 3000}
    ),
    "p-series-vanishes": (
        _closed(lambda n: 1.0 - 1.0 / (n + 1), "p-series-log-modulus", (2.0,), p=1.0),
        {"budget": 3000},
    ),
    "p-series-quasi": (
        _closed(lambda n: cmath.exp(0.5j * n**-0.8), "p-series-log-modulus", p=0.8),
        {"budget": 3000},
    ),
    "p-series-numeric-fallback": (
        _closed(lambda n: 1.0 + (1e-14 if n % 2 else -1e-14), "p-series-log-modulus",
                (0.5, 2.0), p=0.8),
        {"budget": 4000},
    ),
    "p-series-zero": (
        _closed(_zero_at(6, lambda n: 1.0 + n**-2.0), "p-series-log-modulus", p=2.0), {}
    ),
    "p-series-fallback-zero": (
        _closed(_zero_at(600, lambda n: 1.0), "p-series-log-modulus", p=0.5), {"budget": 3000}
    ),
    "declared-quasi": (
        _closed(lambda n: cmath.exp(1j / n), "bounded-nonsummable-argument", (0.8,)),
        {"budget": 3000},
    ),
    "declared-quasi-probe-cap": (
        _closed(lambda n: cmath.exp(1j / n), "bounded-nonsummable-argument"), {"budget": 12_000}
    ),
    "declared-quasi-zero": (
        _closed(_zero_at(7, lambda n: cmath.exp(1j / n)), "bounded-nonsummable-argument"), {}
    ),
    "numeric-convergent": (
        _closed(lambda n: 1.0 + 0.5**n, "custom", (1.25j,)), {"budget": 3000}
    ),
    "numeric-vanishing": (_closed(lambda n: 1.0 - 0.5 * n**-0.5, "custom"), {"budget": 4000}),
    "numeric-divergent": (_closed(lambda n: 1.0 + n**-0.5, "custom"), {"budget": 3000}),
    "numeric-quasi": (_closed(lambda n: cmath.exp(1j * n**-0.1), "custom"), {"budget": 2000}),
    "numeric-inconclusive": (_closed(lambda n: cmath.exp(1j / n), "custom"), {"budget": 2000}),
    "numeric-zero": (_closed(_zero_at(9, lambda n: 1.0 + 0.5**n), "custom"), {"budget": 3000}),
    # a zero term at the first tail term, for every walked class
    "eventually-one-first-zero": (
        _closed(_zero_at(2, lambda n: 1.0 + 0.5j), "eventually-one", (1.5,)), {}
    ),
    "geometric-first-zero": (
        _closed(_zero_at(1, lambda n: 1.0 + 0.5**n), "geometric-modulus", ratio=0.5), {}
    ),
    "p-series-first-zero": (
        _closed(_zero_at(3, lambda n: 1.0 + n**-2.0), "p-series-log-modulus", (0.5, 2.0), p=2.0),
        {},
    ),
    "declared-quasi-first-zero": (
        _closed(_zero_at(1, lambda n: cmath.exp(1j / n)), "bounded-nonsummable-argument"), {}
    ),
    "numeric-first-zero": (
        _closed(_zero_at(2, lambda n: 1.0 + 0.5**n), "custom", (0.25j,)), {"budget": 3000}
    ),
    # a zero term at the last budgeted term
    "numeric-last-zero": (
        _closed(_zero_at(3000, lambda n: 1.0 + 0.5**n), "custom", (0.25j,)), {"budget": 3000}
    ),
    "eventually-one-last-zero": (
        _closed(_zero_at(2000, lambda n: 1.0 + 1.0 / n), "eventually-one"), {"budget": 2000}
    ),
    "p-series-fallback-last-zero": (
        _closed(_zero_at(3000, lambda n: 1.0), "p-series-log-modulus", p=0.5), {"budget": 3000}
    ),
    # refused before any tail term is read
    "require-exact-custom": (
        _closed(_unread, "custom", (0.5,)), {"require_exact": True}
    ),
}

# repr of each verdict, frozen from the per-classifier loops this walk replaced
FROZEN = {
    'constant-above': "ConvergenceVerdict(kind='Diverges', value=None, diagnostics=ProductDiagnostics(samples=((0, (1+0j)), (1, (1.1+0j))), log_modulus_sum=0.0, argument_drift=0.0, terms_examined=1, notes=()))",
    'constant-aligned': "ConvergenceVerdict(kind='ConvergesTo', value=(0.5+0j), diagnostics=ProductDiagnostics(samples=((2, (0.5+0j)), (3, (0.5+0j))), log_modulus_sum=-0.6931471805599453, argument_drift=0.0, terms_examined=3, notes=()))",
    'constant-below': "ConvergenceVerdict(kind='ConvergesTo', value=0j, diagnostics=ProductDiagnostics(samples=((1, (1.5+0j)), (2, (1.35+0.15000000000000002j))), log_modulus_sum=0.4054651081081644, argument_drift=0.11065722117389565, terms_examined=2, notes=()))",
    'constant-rotating': "ConvergenceVerdict(kind='QuasiConvergesToZero', value=0j, diagnostics=ProductDiagnostics(samples=((1, 0.5j), (2, (-0.14776010333066977+0.477668244562803j))), log_modulus_sum=-0.6931471805599453, argument_drift=0.3, terms_examined=2, notes=()))",
    'constant-zero': "ConvergenceVerdict(kind='ConvergesTo', value=0j, diagnostics=ProductDiagnostics(samples=((2, 0j),), log_modulus_sum=-inf, argument_drift=0.0, terms_examined=2, notes=('zero tail term short-circuits the product',)))",
    'declared-quasi': "ConvergenceVerdict(kind='QuasiConvergesToZero', value=0j, diagnostics=ProductDiagnostics(samples=((3000, (0.2135638221293688+0.7709672456580081j)),), log_modulus_sum=-0.2231435513142097, argument_drift=7.583749889959214, terms_examined=3000, notes=('declared bounded-nonsummable-argument: modulus product converges, argument sums are unbounded',)))",
    'declared-quasi-first-zero': "ConvergenceVerdict(kind='ConvergesTo', value=0j, diagnostics=ProductDiagnostics(samples=((1, 0j),), log_modulus_sum=-inf, argument_drift=0.0, terms_examined=1, notes=('zero tail term short-circuits the product',)))",
    'declared-quasi-probe-cap': "ConvergenceVerdict(kind='QuasiConvergesToZero', value=0j, diagnostics=ProductDiagnostics(samples=((10000, (-0.9348968243033432-0.3549196076684464j)),), log_modulus_sum=0.0, argument_drift=9.787606036044348, terms_examined=10000, notes=('declared bounded-nonsummable-argument: modulus product converges, argument sums are unbounded',)))",
    'declared-quasi-zero': "ConvergenceVerdict(kind='ConvergesTo', value=0j, diagnostics=ProductDiagnostics(samples=((7, 0j),), log_modulus_sum=-inf, argument_drift=0.0, terms_examined=7, notes=('zero tail term short-circuits the product',)))",
    'eventually-one-first-zero': "ConvergenceVerdict(kind='ConvergesTo', value=0j, diagnostics=ProductDiagnostics(samples=((2, 0j),), log_modulus_sum=-inf, argument_drift=0.0, terms_examined=2, notes=('zero tail term short-circuits the product',)))",
    # its last sample is the clamped log form since the running product could overflow
    'eventually-one-inconclusive': "ConvergenceVerdict(kind='Inconclusive', value=None, diagnostics=ProductDiagnostics(samples=((0, (1+0j)), (2000, (2001.0000000000089+0j))), log_modulus_sum=7.601402334583738, argument_drift=0.0, terms_examined=2000, notes=('declared eventually-one but terms kept differing within budget',)))",
    'eventually-one-last-zero': "ConvergenceVerdict(kind='ConvergesTo', value=0j, diagnostics=ProductDiagnostics(samples=((2000, 0j),), log_modulus_sum=-inf, argument_drift=0.0, terms_examined=2000, notes=('zero tail term short-circuits the product',)))",
    'eventually-one-settles': "ConvergenceVerdict(kind='ConvergesTo', value=(0.375+0.5j), diagnostics=ProductDiagnostics(samples=((1, (0.5+0j)), (23, (0.375+0.5j))), log_modulus_sum=-0.4700036292457354, argument_drift=0.9272952180016122, terms_examined=23, notes=()))",
    'eventually-one-zero': "ConvergenceVerdict(kind='ConvergesTo', value=0j, diagnostics=ProductDiagnostics(samples=((5, 0j),), log_modulus_sum=-inf, argument_drift=0.0, terms_examined=5, notes=('zero tail term short-circuits the product',)))",
    'geometric-early-stop': "ConvergenceVerdict(kind='ConvergesTo', value=(-0.2198657689562778+0.9363464261342667j), diagnostics=ProductDiagnostics(samples=((2, 0.75j), (34, (-0.2198657689562778+0.9363464261342667j))), log_modulus_sum=-0.038934510121913, argument_drift=1.8014305153981174, terms_examined=34, notes=('geometric log-modulus tail bound below 1e-10',)))",
    'geometric-first-zero': "ConvergenceVerdict(kind='ConvergesTo', value=0j, diagnostics=ProductDiagnostics(samples=((1, 0j),), log_modulus_sum=-inf, argument_drift=0.0, terms_examined=1, notes=('zero tail term short-circuits the product',)))",
    'geometric-ratio-zero': "ConvergenceVerdict(kind='ConvergesTo', value=(2+0j), diagnostics=ProductDiagnostics(samples=((1, (2+0j)), (2, (2+0j))), log_modulus_sum=0.6931471805599453, argument_drift=0.0, terms_examined=2, notes=('geometric log-modulus tail bound below 1e-10',)))",
    'geometric-to-budget': "ConvergenceVerdict(kind='ConvergesTo', value=(2.6310834933441902+0.2811550389343817j), diagnostics=ProductDiagnostics(samples=((0, (1+0j)), (300, (2.6310834933441902+0.2811550389343817j))), log_modulus_sum=0.9730728110122931, argument_drift=-18.74310085984355, terms_examined=300, notes=('geometric log-modulus tail bound below 1e-10',)))",
    'geometric-zero': "ConvergenceVerdict(kind='ConvergesTo', value=0j, diagnostics=ProductDiagnostics(samples=((4, 0j),), log_modulus_sum=-inf, argument_drift=0.0, terms_examined=4, notes=('zero tail term short-circuits the product',)))",
    'numeric-convergent': "ConvergenceVerdict(kind='ConvergesTo', value=(1.2166003742212787e-16+1.986859190859476j), diagnostics=ProductDiagnostics(samples=((1, 1.25j), (2, (9.567553118338697e-17+1.5625j)), (4, (1.1436215836764223e-16+1.86767578125j)), (8, (1.2118603773411277e-16+1.9791181885011613j)), (16, (1.216581810561635e-16+1.9868288741025848j)), (32, (1.2166003739380173e-16+1.9868591903968749j)), (64, (1.2166003742212787e-16+1.986859190859476j)), (128, (1.2166003742212787e-16+1.986859190859476j)), (256, (1.2166003742212787e-16+1.986859190859476j)), (512, (1.2166003742212787e-16+1.986859190859476j)), (1024, (1.2166003742212787e-16+1.986859190859476j)), (2048, (1.2166003742212787e-16+1.986859190859476j)), (3000, (1.2166003742212787e-16+1.986859190859476j))), log_modulus_sum=0.6865550958646002, argument_drift=0.0, terms_examined=3000, notes=('numeric verdict from partial products',)))",
    'numeric-divergent': "ConvergenceVerdict(kind='Diverges', value=None, diagnostics=ProductDiagnostics(samples=((0, (1+0j)), (1, (2+0j)), (2, (3.414213562373095+0j)), (4, (8.07811602252011+0j)), (8, (30.706856867246763+0j)), (16, (230.10813095762003+0j)), (32, (4527.708804972266+0j)), (64, (350231.0138374755+0j)), (128, (188254268.01301715+0j)), (256, (1572412134152.8025+0j)), (512, (6.366170156664993e+17+0j)), (1024, (6.240545225462232e+25+0j)), (2048, (1.4400336624190751e+37+0j)), (3000, (2.2003027144316587e+45+0j))), log_modulus_sum=104.4049241330996, argument_drift=0.0, terms_examined=3000, notes=('numeric verdict from partial products',)))",
    'numeric-first-zero': "ConvergenceVerdict(kind='ConvergesTo', value=0j, diagnostics=ProductDiagnostics(samples=((2, 0j),), log_modulus_sum=-inf, argument_drift=0.0, terms_examined=2, notes=('zero tail term short-circuits the product',)))",
    'numeric-inconclusive': "ConvergenceVerdict(kind='Inconclusive', value=None, diagnostics=ProductDiagnostics(samples=((0, (1+0j)), (1, (0.5403023058681398+0.8414709848078965j)), (2, (0.0707372016677029+0.9974949866040544j)), (4, (-0.4903898319782831+0.8715031914412656j)), (8, (-0.9115593796734136+0.4111684537138292j)), (16, (-0.9715429068976583-0.23686363177332218j)), (32, (-0.6082815892358282-0.7937213038571758j)), (64, (0.03149671331283152-0.9995038554455352j)), (128, (0.6599544355301167-0.751305625577318j)), (256, (0.9874113737785626-0.15817325606034605j)), (512, (0.8611182398133875+0.5084047374491049j)), (1024, (0.33801406619780955+0.9411410579995024j)), (2000, (-0.3187273133011396+0.9478464536810998j))), log_modulus_sum=0.0, argument_drift=0.6928972430599405, terms_examined=2000, notes=('numeric verdict from partial products',)))",
    'numeric-last-zero': "ConvergenceVerdict(kind='ConvergesTo', value=0j, diagnostics=ProductDiagnostics(samples=((3000, 0j),), log_modulus_sum=-inf, argument_drift=0.0, terms_examined=3000, notes=('zero tail term short-circuits the product',)))",
    'numeric-quasi': "ConvergenceVerdict(kind='QuasiConvergesToZero', value=0j, diagnostics=ProductDiagnostics(samples=((0, (1+0j)), (1, (0.5403023058681398+0.8414709848078965j)), (2, (-0.3543666378019844+0.9351065639877185j)), (4, (-0.8483425999350819-0.5294476679855958j)), (8, (0.7390892090751449+0.6736075571344763j)), (16, (0.7762111395435027+0.6304730500573174j)), (32, (0.9711391423346536-0.23851366045892056j)), (64, (-0.8863941275355706+0.46293136712741084j)), (128, (0.7571621188812659-0.6532270093399615j)), (256, (0.9528608354998617-0.3034076929982221j)), (512, (-0.9781177256103243+0.20805219260292113j)), (1024, (-0.995732033942796+0.09229147620521441j)), (2000, (-0.4788485626382538+0.8778975191098739j))), log_modulus_sum=-3.4416913763379853e-15, argument_drift=482.2734587180986, terms_examined=2000, notes=('numeric verdict from partial products',)))",
    'numeric-vanishing': "ConvergenceVerdict(kind='ConvergesTo', value=0j, diagnostics=ProductDiagnostics(samples=((0, (1+0j)), (1, (0.5+0j)), (2, (0.3232233047033631+0j)), (4, (0.1724375802854547+0j)), (8, (0.07113887559312723+0j)), (16, (0.020623433035088606+0j)), (32, (0.003656634531669305+0j)), (64, (0.00032500906139734973+0j)), (128, (1.0913093156298885e-05+0j)), (256, (9.269174660546054e-08+0j)), (512, (1.1285639141871976e-10+0j)), (1024, (8.818465824499928e-15+0j)), (2048, (1.418846577518955e-20+0j)), (4000, (2.008093438081517e-28+0j))), log_modulus_sum=-63.7751968701773, argument_drift=0.0, terms_examined=4000, notes=('numeric verdict from partial products',)))",
    'numeric-zero': "ConvergenceVerdict(kind='ConvergesTo', value=0j, diagnostics=ProductDiagnostics(samples=((9, 0j),), log_modulus_sum=-inf, argument_drift=0.0, terms_examined=9, notes=('zero tail term short-circuits the product',)))",
    'p-series-diverges': "ConvergenceVerdict(kind='Diverges', value=None, diagnostics=ProductDiagnostics(samples=((3000, (3001.0000000000477+0j)),), log_modulus_sum=8.006700845440383, argument_drift=0.0, terms_examined=3000, notes=('p=1 <= 1: log terms scale like c/n^p with c ~ 9.998e-01+0.000e+00j',)))",
    'p-series-early-stop': "ConvergenceVerdict(kind='ConvergesTo', value=(0.5307808493272678-0.010458921134419062j), diagnostics=ProductDiagnostics(samples=((1, (0.5+0j)), (398, (0.5307808493272678-0.010458921134419062j))), log_modulus_sum=-0.6332119545167305, argument_drift=-0.01970223267295912, terms_examined=398, notes=('p-series tail corrected by 9.957e-07',)))",
    'p-series-fallback-last-zero': "ConvergenceVerdict(kind='ConvergesTo', value=0j, diagnostics=ProductDiagnostics(samples=((3000, 0j),), log_modulus_sum=-inf, argument_drift=0.0, terms_examined=3000, notes=('zero tail term short-circuits the product',)))",
    'p-series-fallback-zero': "ConvergenceVerdict(kind='ConvergesTo', value=0j, diagnostics=ProductDiagnostics(samples=((600, 0j),), log_modulus_sum=-inf, argument_drift=0.0, terms_examined=600, notes=('zero tail term short-circuits the product',)))",
    'p-series-first-zero': "ConvergenceVerdict(kind='ConvergesTo', value=0j, diagnostics=ProductDiagnostics(samples=((3, 0j),), log_modulus_sum=-inf, argument_drift=0.0, terms_examined=3, notes=('zero tail term short-circuits the product',)))",
    'p-series-numeric-fallback': "ConvergenceVerdict(kind='ConvergesTo', value=(1+0j), diagnostics=ProductDiagnostics(samples=((2, (1+0j)), (3, (1.00000000000001+0j)), (6, (1+0j)), (12, (1+0j)), (24, (1+0j)), (48, (1+0j)), (96, (1+0j)), (192, (1+0j)), (384, (1+0j)), (768, (1+0j)), (1536, (1+0j)), (3072, (1+0j)), (4000, (1+0j))), log_modulus_sum=-2.0184741754071073e-25, argument_drift=0.0, terms_examined=4000, notes=('numeric verdict from partial products',)))",
    'p-series-quasi': "ConvergenceVerdict(kind='QuasiConvergesToZero', value=0j, diagnostics=ProductDiagnostics(samples=((3000, (-0.7281162499805427-0.685453664746402j)),), log_modulus_sum=0.0, argument_drift=10.180004543399384, terms_examined=3000, notes=('p=0.8 <= 1: log terms scale like c/n^p with c ~ 2.379e-15+5.000e-01j',)))",
    'p-series-to-budget': "ConvergenceVerdict(kind='ConvergesTo', value=(1.7511440664839633-0.31560858054060315j), diagnostics=ProductDiagnostics(samples=((0, (1+0j)), (3000, (1.7511440664839633-0.31560858054060315j))), log_modulus_sum=0.5762525343663358, argument_drift=-0.1783156477987368, terms_examined=3000, notes=('p-series tail corrected by 1.663e-03',)))",
    'p-series-vanishes': "ConvergenceVerdict(kind='ConvergesTo', value=0j, diagnostics=ProductDiagnostics(samples=((3000, (0.0013328890369876368+0j)),), log_modulus_sum=-6.620406484320505, argument_drift=0.0, terms_examined=3000, notes=('p=1 <= 1: log terms scale like c/n^p with c ~ -9.998e-01+0.000e+00j',)))",
    'p-series-zero': "ConvergenceVerdict(kind='ConvergesTo', value=0j, diagnostics=ProductDiagnostics(samples=((6, 0j),), log_modulus_sum=-inf, argument_drift=0.0, terms_examined=6, notes=('zero tail term short-circuits the product',)))",
    'prefix-zero': "ConvergenceVerdict(kind='ConvergesTo', value=0j, diagnostics=ProductDiagnostics(samples=((2, 0j),), log_modulus_sum=-inf, argument_drift=0.0, terms_examined=2, notes=('zero prefix term short-circuits the product',)))",
    'require-exact-custom': "UndeclaredTailClass('custom tail has no declared class; exact verdict unavailable')",
}


def _classified(seq, kwargs):
    """repr of the verdict, or of the error raised in its place."""
    try:
        return repr(q.classify_product(seq, **kwargs))
    except q.QsectorsError as err:
        return repr(err)


@pytest.mark.parametrize("name", sorted(BITS_CASES))
def test_verdict_bits_are_frozen(name):
    # repr covers kind, value and every diagnostics field, to the last bit
    seq, kwargs = BITS_CASES[name]
    assert _classified(seq, kwargs) == FROZEN[name]


def test_non_finite_tail_term_message():
    seq = _closed(lambda n: complex(math.inf, 0.0) if n == 5 else 1.0, "custom", (0.5, 2.0))
    with pytest.raises(q.InvalidAmplitude) as err:
        q.classify_product(seq)
    assert str(err.value) == "non-finite term (inf+0j) at term 5"


# -- values past the float range -----------------------------------------------
#
# A converging product's value comes from the direct product where that and
# the prefix's direct product stay in the float range, else from the log
# form; a log form past the range is Inconclusive, never a clamped value.


def _ones_after(k, z):
    return lambda n: z if n <= k else 1.0


PAST_RANGE_CASES = {
    "constant": q.ComplexSequenceSpec((1e200, 1e200), q.ConstantValue(1)),
    "geometric": _closed(lambda n: 1.0 + 0.5**n, "geometric-modulus", (1e200, 1e200), ratio=0.5),
    "p-series": _closed(lambda n: 1.0 + n**-2.0, "p-series-log-modulus", (1e200, 1e200), p=2.0),
    "eventually-one": _closed(_ones_after(3, 1e200), "eventually-one"),
    "eventually-one-prefix": _closed(_ones_after(3, 1.0 + 0.5j), "eventually-one", (1e200, 1e200)),
    "numeric": _closed(lambda n: 1.0 + 0.5**n, "custom", (1e200, 1e200)),
    "numeric-one-term": _closed(lambda n: 1.0, "custom", (1e200,) * 4),
}


class TestValuesPastTheFloatRange:
    @pytest.mark.parametrize("name", sorted(PAST_RANGE_CASES))
    def test_a_value_past_the_range_is_inconclusive(self, name):
        v = q.classify_product(PAST_RANGE_CASES[name], budget=3000)
        assert v.kind == "Inconclusive" and v.value is None
        assert v.diagnostics.notes == (products._PAST_RANGE,)
        assert v.diagnostics.log_modulus_sum > math.log(sys.float_info.max)
        text = serialize.dumps(serialize.encode_verdict(v))
        assert "inf" not in text and "nan" not in text

    def test_the_constant_tail_reports_the_prefix_log_form(self):
        v = q.classify_product(PAST_RANGE_CASES["constant"])
        assert v.diagnostics.log_modulus_sum == 2 * math.log(1e200)
        assert v.diagnostics.terms_examined == 3

    @pytest.mark.parametrize(
        "seq, want",
        [
            # the direct prefix product overflows, the product does not
            (q.ComplexSequenceSpec((1e200, 1e200, 1e-300), q.ConstantValue(1)), 1e100),
            (q.ComplexSequenceSpec((1e200, 1e200, 1e-95), q.ConstantValue(1.0)), 1e305),
            # tails from term 4 on: the full products over the first three factors
            (_closed(lambda n: 1.0 + 0.5**n, "custom", (1e200, 1e200, 1e-95)),
             1e305 * PROD_ONE_PLUS_HALF_POW / (1.5 * 1.25 * 1.125)),
            (_closed(lambda n: 1.0 + 0.5**n, "geometric-modulus", (1e200, 1e200, 1e-300), ratio=0.5),
             1e100 * PROD_ONE_PLUS_HALF_POW / (1.5 * 1.25 * 1.125)),
            # the direct prefix product underflows, the product does not
            (_closed(_ones_after(4, 1e200), "eventually-one", (1e-200, 1e-200)), 1.0),
            (_closed(lambda n: 1.0 + n**-2.0, "p-series-log-modulus", (1e-200, 1e-200, 1e300), p=2.0),
             1e-100 * SINH_PI_OVER_PI / (2.0 * 1.25 * (1.0 + 1.0 / 9.0))),
            # the direct product overflows in the tail only
            (_closed(lambda n: {2: 1e10, 3: 1e-10}.get(n, 1.0), "eventually-one", (1e300,)), 1e300),
        ],
    )
    def test_a_value_inside_the_range_comes_from_the_log_form(self, seq, want):
        v = q.classify_product(seq, budget=20_000, tol=1e-10)
        assert v.kind == "ConvergesTo"
        assert abs(v.value - want) <= 1e-9 * abs(want)

    def test_a_direct_product_in_range_keeps_its_bits(self):
        seq = _closed(_ones_after(4, 1.0 + 0.5j), "eventually-one", (1e200, 1e-200))
        v = q.classify_product(seq)
        assert repr(v.value) == repr(1e200 * 1e-200 * (1.0 + 0.5j) * (1.0 + 0.5j))


# -- the lean walk against the per-term reference -----------------------------
#
# ``products._walk_tail`` calls ``term_fn`` itself, and the p-series rule runs
# only behind its screen.  The reference below is the walk through
# ``ComplexSequenceSpec.term_at``, one call per term, with the p-series rule
# evaluated at every term; every verdict, zero-term exit and error must match
# it to the last bit.


def _reference_walk(seq, acc, start, stop, step=None):
    """``_walk_tail`` through ``seq.term_at``, one call per term."""
    log, atan2 = math.log, math.atan2
    log_mod, arg = acc.log_mod, acc.arg
    n = start - 1
    try:
        for n in range(start, stop + 1):
            z = seq.term_at(n)
            if z == 0:
                raise products._ZeroTerm(n)
            log_mod += log(abs(z))
            arg += atan2(z.imag, z.real)
            if step is not None and step(n, z):
                break
    finally:
        acc.log_mod, acc.arg = log_mod, arg
    return n


def _reference_p_series(seq, prefix_prod, acc, start, budget, tol):
    """The p-series classifier with c_n = log z_n * n**p built at every term
    and the stopping rule evaluated at every term past start + 32."""
    p = seq.tail.p
    log_sum = 0j
    window = deque(maxlen=8)
    sizes = deque(maxlen=8)

    def step(n, z):
        nonlocal log_sum
        ell = cmath.log(z)
        log_sum += ell
        try:
            c_n = ell * (n**p)
        except OverflowError:
            if ell:
                note = f"declared p={p:g} but a log term stays nonzero past n**p overflow"
                raise products._Broken(n, note) from None
            c_n = 0j
        window.append(c_n)
        if p > 1.0:
            sizes.append(abs(c_n))
            if n >= start + 32:
                return max(sizes) * n ** (1.0 - p) / (p - 1.0) < tol
        return False

    if p > 1.0:
        last_n = products._walk_tail(seq, acc, start, budget, step)
    else:
        last_n, readings = budget, products._walk_read(seq, prefix_prod, acc, start, budget, step)
    c_est = sum(window) / len(window) if window else 0j
    if p > 1.0:
        correction = c_est * (last_n + 0.5) ** (1.0 - p) / (p - 1.0)
        log_form = complex(acc.log_mod, acc.arg) + correction
        value = products._declared_value(prefix_prod, log_sum + correction, log_form)
        if value is None:
            raise products._Broken(last_n, f"declared p={p:g} > 1 but the log sum overflows")
        acc.log_mod += correction.real
        acc.arg += correction.imag
        samples = ((start - 1, prefix_prod), (last_n, value))
        note = f"p-series tail corrected by {abs(correction):.3e}"
        return products._verdict("ConvergesTo", value, acc, last_n, samples, note)
    tiny = max(tol, 1e-9)
    samples = ((last_n, prefix_prod * products._Accumulator(log_sum.real, log_sum.imag).value()),)
    if c_est.real > tiny:
        kind, value = "Diverges", None
    elif c_est.real < -tiny:
        kind, value = "ConvergesTo", 0j
    elif abs(c_est.imag) > tiny:
        kind, value = "QuasiConvergesToZero", 0j
    else:
        return products._numeric_verdict(acc, readings, last_n, tol)
    note = f"p={p:g} <= 1: log terms scale like c/n^p with c ~ {c_est:.3e}"
    return products._verdict(kind, value, acc, last_n, samples, note)


@contextlib.contextmanager
def _reference():
    with mock.patch.object(products, "_walk_tail", _reference_walk), mock.patch.dict(
        products._CLASSIFIERS, {"p-series-log-modulus": _reference_p_series}
    ):
        yield


def _both(seq, **kwargs):
    """``_classified`` through the lean walk, then through the reference."""
    lean = _classified(seq, kwargs)
    with _reference():
        return lean, _classified(seq, kwargs)


def _declared(klass):
    return {"geometric-modulus": {"ratio": 0.5}, "p-series-log-modulus": {"p": 2.0}}.get(klass, {})


@pytest.mark.parametrize("name", sorted(BITS_CASES))
def test_the_reference_walk_keeps_the_frozen_bits(name):
    seq, kwargs = BITS_CASES[name]
    with _reference():
        assert _classified(seq, kwargs) == FROZEN[name]


def test_the_walk_does_not_go_through_term_at():
    with mock.patch.object(q.ComplexSequenceSpec, "term_at", side_effect=AssertionError):
        for klass in products.TAIL_CLASSES:
            v = q.classify_product(_closed(lambda n: 1.0 + 0.5**n, klass, **_declared(klass)), budget=500)
            assert v.diagnostics.terms_examined >= 1


FAMILIES = {
    "power": lambda c, a: lambda n: 1.0 + c * n ** -a,
    "geometric": lambda c, a: lambda n: 1.0 + c * (a / 4.0) ** n,
    "phase": lambda c, a: lambda n: cmath.exp(1j * c.real * n ** -a),
    "ones-after": lambda c, a: lambda n: 1.0 + c * (n < 8 * a),
}
DECLARED = {
    "eventually-one": st.just({}),
    "geometric-modulus": st.builds(
        lambda r: {"ratio": r}, st.sampled_from([0.0, 0.3, 0.5, 0.9, 0.999])
    ),
    "p-series-log-modulus": st.builds(
        lambda p: {"p": p},
        st.sampled_from([0.3, 0.8, 1.0, 1.0000000000000002, 1.5, 2.0, 3.0, 50.0, 200.0, 400.0]),
    ),
    "bounded-nonsummable-argument": st.just({}),
    "custom": st.just({}),
}
FAULTS = st.sampled_from([0j, 1.0, -0.5, 2.0 + 0.5j, 1e-200, 1e200, math.inf, math.nan])
# every form in which a callback may return an exact 1; the walk skips the
# fold of each, and the step must still see each as the complex 1
ONES = [1, 1.0, True, 1 + 0j, complex(1.0, -0.0), np.complex128(1)]


def _stretch_marks(start, budget):
    """Where ``_walk_read``'s stretches end: the half mark and the doubling
    sample counts."""
    marks = {start + (budget - start) // 2}
    mark = start
    while mark <= budget:
        marks.add(mark)
        mark *= 2
    return sorted(marks)


@st.composite
def walked_sequences(draw):
    """(class, sequence, classify_product keyword arguments) with a drawn
    prefix, tail family, fault term and budget."""
    klass = draw(st.sampled_from(products.TAIL_CLASSES))
    declared = draw(DECLARED[klass])
    c = draw(st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False))
    fn = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))](c, draw(st.sampled_from([0.5, 1.0, 2.0, 3.0])))
    prefix = tuple(draw(st.lists(st.sampled_from([0.5, 2.0, 1j, -1.0, 1e-200]), max_size=5)))
    budget = draw(st.integers(len(prefix) + 1, len(prefix) + 2500))
    start = len(prefix) + 1
    for _ in range(draw(st.integers(0, 3))):
        # a run of exact ones, often across a stretch end
        if draw(st.booleans()):
            at = draw(st.sampled_from(_stretch_marks(start, budget))) - draw(st.integers(0, 20))
        else:
            at = draw(st.integers(start, budget))
        length = draw(st.integers(1, 300))
        one = draw(st.sampled_from(ONES))
        fn = (lambda f, lo, hi, z: lambda n: z if lo <= n < hi else f(n))(fn, at, at + length, one)
    fault_at = draw(st.none() | st.integers(start, budget))
    if fault_at is not None:
        fault = draw(FAULTS)
        fn = (lambda f, k, z: lambda n: z if n == k else f(n))(fn, fault_at, fault)
    tol = draw(st.sampled_from([1e-14, 1e-10, 1e-6, 1e-3, 5e-324]))
    seq = _closed(fn, klass, prefix, **declared)
    return klass, seq, {"budget": budget, "tol": tol}


class TestLeanWalk:
    @settings(max_examples=300, deadline=None)
    @given(walked_sequences())
    def test_every_class_matches_the_reference(self, case):
        _, seq, kwargs = case
        lean, ref = _both(seq, **kwargs)
        assert lean == ref

    @pytest.mark.parametrize("klass", products.TAIL_CLASSES)
    @pytest.mark.parametrize("at", [3, 40, 500])
    def test_zero_terms_exit_at_the_same_term(self, klass, at):
        seq = _closed(_zero_at(at, lambda n: 1.0 + 1e-3 * n**-2.0), klass, (0.5, 2.0), **_declared(klass))
        lean, ref = _both(seq, budget=500)
        assert lean == ref
        assert f"terms_examined={at}," in lean and f"samples=(({at}, 0j),)" in lean

    @pytest.mark.parametrize("klass", products.TAIL_CLASSES)
    @pytest.mark.parametrize("bad", [complex(math.inf, 0.0), complex(0.0, -math.inf), complex(math.nan, 1.0)])
    def test_non_finite_terms_raise_the_same_error_at_the_same_term(self, klass, bad):
        seq = _closed(lambda n: bad if n == 37 else 1.0 + 1e-3 * n**-2.0, klass, (0.5,), **_declared(klass))
        errors = []
        for walk in (contextlib.nullcontext(), _reference()):
            with walk, pytest.raises(q.InvalidAmplitude) as err:
                q.classify_product(seq, budget=500)
            errors.append((type(err.value), str(err.value)))
        assert errors[0] == errors[1] == (q.InvalidAmplitude, f"non-finite term {bad!r} at term 37")

    @pytest.mark.parametrize("one", ONES, ids=repr)
    @pytest.mark.parametrize("klass", products.TAIL_CLASSES)
    def test_exact_ones_in_every_form_match_the_reference(self, klass, one):
        # ones between ordinary terms, behind a prefix whose angle is -0.0
        seq = _closed(
            lambda n: one if n % 5 else 1.0 - 1e-3j * n**-2.0, klass, (0.5, complex(1.0, -0.0)),
            **_declared(klass),
        )
        for budget in (2, 3, 40, 500, 3000):
            lean, ref = _both(seq, budget=budget)
            assert lean == ref

    @pytest.mark.parametrize("one", ONES, ids=repr)
    def test_the_step_sees_each_one_as_the_complex_one(self, one):
        seen = []
        acc = products._Accumulator()
        last = products._walk_tail(_closed(lambda n: one, "custom"), acc, 1, 50, lambda n, z: seen.append(z))
        assert last == 50 and len(seen) == 50
        assert all(type(z) is complex and z == 1 for z in seen)
        assert repr((acc.log_mod, acc.arg, acc.direct, acc.zero)) == "(0.0, 0.0, (1+0j), False)"

    @pytest.mark.parametrize("one", ONES, ids=repr)
    def test_faults_among_ones_exit_as_the_reference_does(self, one):
        for fault, at in ((0j, 9), (math.inf, 9), (0j, 64), (complex(math.nan, 0.0), 65)):
            seq = _closed(lambda n: fault if n == at else one, "custom", (2.0,))
            lean, ref = _both(seq, budget=200)
            assert lean == ref
            assert f"at term {at}'" in lean or f"terms_examined={at}," in lean

    def test_a_rule_that_stops_runs_the_exact_check(self):
        # the screen passes from the first checked term on, and the exact
        # rule stops there
        seq = _closed(lambda n: 1.0 + 1e-14 * n**-3.0, "p-series-log-modulus", p=3.0)
        lean, ref = _both(seq, budget=3000)
        assert lean == ref and "terms_examined=33," in lean

    def test_the_window_max_holds_the_rule_back(self):
        # from term 40 on every term passes the screen, but the exact rule
        # still sees the large coefficients of terms < 40 in its window of 8
        seq = _closed(
            lambda n: 1.0 + (1e-2 if n < 40 else 1e-14) * n**-3.0, "p-series-log-modulus", p=3.0
        )
        lean, ref = _both(seq, budget=3000)
        assert lean == ref and "terms_examined=47," in lean

    @pytest.mark.parametrize("tol", [5e-324, 1e-300])
    def test_a_screen_bound_below_the_normal_range_screens_nothing(self, tol):
        # 2 * tol * (p - 1) is subnormal or 0 here, while the rule still
        # stops on a window of exact ones
        seq = _closed(lambda n: 1.0, "p-series-log-modulus", p=1.0 + 2.0**-52)
        lean, ref = _both(seq, budget=3000, tol=tol)
        assert lean == ref and "terms_examined=33," in lean

    @pytest.mark.parametrize(
        "prefix_len, budget", [(5, 6), (5, 100), (4, 5), (0, 5), (0, 6), (0, 100)]
    )
    @pytest.mark.parametrize("term", [1.0 + 1e-9, 1.0])
    def test_power_overflow_at_the_bisection_edge(self, prefix_len, budget, term):
        # n**400 first overflows at n = 6: the first tail term, the last
        # budgeted term, or just past the budget
        with pytest.raises(OverflowError):
            6.0**400
        assert 5.0**400 < math.inf
        seq = _closed(lambda n: term, "p-series-log-modulus", (1.0,) * prefix_len, p=400.0)
        lean, ref = _both(seq, budget=budget)
        assert lean == ref

    @pytest.mark.parametrize("p", [0.5, 2.0, 60.0, 200.0, 400.0, 1000.0])
    @pytest.mark.parametrize(
        "start, stop", [(1, 1), (1, 2), (3, 3), (1, 40), (2, 6), (6, 6), (7, 9), (1, 140_000)]
    )
    def test_first_power_overflow_matches_a_scan(self, p, start, stop):
        def overflows(n):
            try:
                n**p
            except OverflowError:
                return True
            return False

        want = next((n for n in range(start, stop + 1) if overflows(n)), stop + 1)
        assert products._first_power_overflow(p, start, stop) == want


# -- the stretched numeric readings against the per-term protocol ------------
#
# ``products._walk_read`` takes the numeric verdict's readings between walk
# stretches.  ``_ReferenceReadings`` is the per-term protocol it replaced: the
# walk calls ``record`` after every term at or past ``due``.  Both must read
# the same floats at the same terms.


class _ReferenceReadings:
    def __init__(self, acc, prefix_prod, start, budget):
        self.half_mark = start + (budget - start) // 2
        self.half_log = acc.log_mod
        self.half_arg = acc.arg
        self.samples = [(start - 1, prefix_prod)]
        self.next_sample = max(start, 1)
        self.due = min(self.half_mark, self.next_sample)

    def record(self, n, acc):
        if n == self.half_mark:
            self.half_log = acc.log_mod
            self.half_arg = acc.arg
        if n >= self.next_sample:
            self.samples.append((n, acc.value()))
            self.next_sample *= 2
        self.due = self.next_sample if n >= self.half_mark else min(
            self.half_mark, self.next_sample
        )


def _reference_readings(seq, prefix_prod, acc, start, budget):
    """The walk with the per-term reading check, through ``seq.term_at``."""
    readings = _ReferenceReadings(acc, prefix_prod, start, budget)
    log_mod, arg = acc.log_mod, acc.arg
    for n in range(start, budget + 1):
        z = seq.term_at(n)
        log_mod += math.log(abs(z))
        arg += math.atan2(z.imag, z.real)
        if n >= readings.due:
            acc.log_mod, acc.arg = log_mod, arg
            readings.record(n, acc)
    acc.log_mod, acc.arg = log_mod, arg
    return (readings.half_log, readings.half_arg), readings.samples


class TestStretchedReadings:
    @settings(max_examples=200, deadline=None)
    @given(
        prefix_len=st.integers(0, 70),
        span=st.integers(0, 3000),
        c=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
        family=st.sampled_from(sorted(FAMILIES)),
        a=st.sampled_from([0.5, 1.0, 2.0]),
    )
    def test_readings_match_the_per_term_protocol(self, prefix_len, span, c, family, a):
        fn = (lambda f: lambda n: f(n) or 0.5)(FAMILIES[family](c, a))  # no zero terms
        seq = _closed(fn, "custom", (1.5,) * prefix_len)
        start, budget = prefix_len + 1, prefix_len + 1 + span
        prefix_prod = 1.5**prefix_len
        accs = [products._Accumulator(prefix_len * math.log(1.5)) for _ in range(2)]
        got = products._walk_read(seq, prefix_prod, accs[0], start, budget)
        want = _reference_readings(seq, prefix_prod, accs[1], start, budget)
        assert repr(got) == repr(want)
        assert (accs[0].log_mod, accs[0].arg) == (accs[1].log_mod, accs[1].arg)

    @pytest.mark.parametrize("start", [1, 2, 5, 64])
    def test_a_one_term_walk_reads_its_only_term(self, start):
        seq = _closed(lambda n: 1.25j, "custom", (2.0,) * (start - 1))
        acc = products._Accumulator()
        half, samples = products._walk_read(seq, 7.0, acc, start, start)
        assert half == (math.log(1.25), math.pi / 2)
        assert samples == [(start - 1, 7.0), (start, acc.value())]

    def test_every_term_goes_through_the_step_once(self):
        seen = []
        seq = _closed(lambda n: 1.0 + 1e-3 / n, "custom", (2.0,) * 2)
        products._walk_read(seq, 4.0, products._Accumulator(), 3, 777, lambda n, z: seen.append(n))
        assert seen == list(range(3, 778))

    def test_a_step_that_raises_leaves_its_terms_folded_in(self):
        def step(n, z):
            if n == 9:
                raise products._Broken(n, "stop")

        seq = _closed(lambda n: 2.0, "custom")
        acc = products._Accumulator()
        with pytest.raises(products._Broken):
            products._walk_read(seq, 1.0, acc, 1, 100, step)
        assert acc.log_mod == sum(math.log(2.0) for _ in range(9))


# -- repeated terms past the float range ---------------------------------------


class TestRepeatedPastTheFloatRange:
    """``_Accumulator.jump``: ``count`` more terms z in one step, with its
    (log|z|, atan2 z) computed there or passed in by ``_log_steps``."""

    @staticmethod
    def _jumps(z, count):
        acc = products._Accumulator(0.25, -0.5)
        return [acc.jump(z, steps, count) for steps in (None, products._log_steps(z))]

    def test_in_range_counts_keep_their_bits(self):
        for z, count in ((0.6, 10**300), (0.6 + 0.8j, 10**300), (0.9j, 65), (1e-300, 10**6)):
            want = (0.25 + count * math.log(abs(z)), -0.5 + count * math.atan2(z.imag, z.real), False)
            assert self._jumps(z, count) == [want, want]

    @pytest.mark.parametrize(
        "z, count",
        [
            pytest.param(0.6, 10**400, id="past-the-count-range"),
            pytest.param(0.6 - 0.3j, 10**400, id="rotating"),
            pytest.param(1e-300, 10**307, id="past-the-product-range"),
        ],
    )
    def test_a_modulus_past_the_range_reads_zero(self, z, count):
        for log_mod, _, zero in self._jumps(z, count):
            assert zero and log_mod == -math.inf

    def test_a_unit_bracket_keeps_its_log_form(self):
        assert self._jumps(1.0, 10**400) == [(0.25, -0.5, False)] * 2

    def test_no_count_a_zero_product_or_a_zero_term(self):
        acc = products._Accumulator(0.25, -0.5)
        assert acc.jump(0j, None, 0) == (0.25, -0.5, False)
        assert acc.jump(0j, products._log_steps(0j), 3) == (0.25, -0.5, True)
        assert products._Accumulator(0.25, -0.5, zero=True).jump(0.6, None, 3) == (0.25, -0.5, True)

    @pytest.mark.parametrize("z", [1j, 0.6 + 0.8j, 1.5])
    def test_a_phase_or_growth_past_the_range_is_refused(self, z):
        for steps in (None, products._log_steps(z)):
            with pytest.raises(q.DimensionBudgetExceeded):
                products._Accumulator().jump(z, steps, 10**400)

    def test_a_modulus_past_the_float_range_raises_where_a_push_does(self):
        z = complex(1.5e308, 1.5e308)  # |z| overflows
        assert products._log_steps(z) is None
        with pytest.raises(OverflowError):
            products._Accumulator().push(z)
        with pytest.raises(OverflowError):
            products._Accumulator().jump(z, None, 3)

    def test_scaled(self):
        scaled = products._scaled
        assert scaled(3, -0.5) == -1.5
        assert scaled(10**400, -0.5) == -math.inf
        assert scaled(10**400, 2.0) == math.inf
        assert scaled(10**400, 1e-300) == float(10**100)
        assert scaled(10**400, -math.inf) == -math.inf
        assert math.copysign(1.0, scaled(10**400, 0.0)) == 1.0
        assert math.copysign(1.0, scaled(10**400, -0.0)) == -1.0
