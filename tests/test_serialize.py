import cmath
import math
import re

import numpy as np
import pytest

import qsectors as q
from qsectors.operators import (
    ConstantOperatorTail,
    FactoredOperator,
    FactorOperator,
    OperatorTerm,
)
from qsectors.serialize import (
    decode_complex,
    decode_model,
    decode_operator,
    decode_sequence,
    decode_state,
    dumps,
    encode_complex,
    encode_model,
    encode_operator,
    encode_state,
    encode_sweep,
    encode_verdict,
    jsonable,
    loads,
)

from support import BROKEN_SCALE_STATE, MALFORMED_DOCUMENTS, MALFORMED_OPERATORS

E0 = q.FactorVector((1.0, 0.0))
E1 = q.FactorVector((0.0, 1.0))


class TestComplexCodec:
    def test_round_trip(self):
        for z in (0j, 1.5 - 2.25j, complex(-0.0, 3.0)):
            assert decode_complex(encode_complex(z)) == z

    def test_bare_numbers_decode(self):
        assert decode_complex(3) == 3.0 + 0j
        assert decode_complex(-0.5) == -0.5 + 0j

    def test_partial_objects(self):
        assert decode_complex({"re": 2.0}) == 2.0 + 0j
        assert decode_complex({"im": 1.0}) == 1.0j

    def test_rejects_junk(self):
        with pytest.raises(q.UsageError):
            decode_complex("hello")
        with pytest.raises(q.UsageError):
            decode_complex({"real": 1.0})

    def test_non_finite_floats_become_strings(self):
        enc = encode_complex(complex(math.inf, -math.inf))
        assert enc == {"re": "inf", "im": "-inf"}
        assert decode_complex(enc) == complex(math.inf, -math.inf)
        nan_back = decode_complex(encode_complex(complex(math.nan, 0.0)))
        assert math.isnan(nan_back.real)


class TestJsonable:
    def test_containers(self):
        out = jsonable({"a": (1, 2.5), "b": [True, None], 3: "x"})
        assert out == {"a": [1, 2.5], "b": [True, None], "3": "x"}

    def test_numpy_scalars(self):
        assert jsonable(np.int64(7)) == 7
        assert jsonable(np.float64(0.5)) == 0.5

    def test_non_finite(self):
        assert jsonable(math.inf) == "inf"
        assert jsonable((math.nan,)) == ["nan"]

    def test_complex_values(self):
        assert jsonable(1 + 2j) == {"re": 1.0, "im": 2.0}

    def test_rejects_unknown_types(self):
        with pytest.raises(q.UsageError):
            jsonable(object())


class TestStateCodec:
    def test_constant_round_trip_is_exact(self):
        s = q.make_product_state(
            (q.FactorVector((0.6, 0.8j)),),
            q.ConstantTail(E1),
            label="flip",
        )
        back = decode_state(loads(dumps(encode_state(s))))
        assert isinstance(back, q.ProductState)
        assert back.label == "flip"
        assert back.prefix[0].amplitudes == s.prefix[0].amplitudes
        assert back.tail.vector.amplitudes == (0j, 1 + 0j)

    def test_parametric_round_trip_keeps_the_trajectory(self):
        def fn(n):
            return q.FactorVector((1.0 + 0.25 * 0.5**n, 0.1 * 0.5**n))

        tail = q.ParametricTail(
            dim=2,
            factor_fn=fn,
            limit=E0,
            decay=q.DecaySpec(kind="geometric", ratio=0.5, scale=0.3),
        )
        s = q.ProductState(prefix=(E1,), tail=tail)
        back = decode_state(encode_state(s))
        assert isinstance(back.tail, q.ParametricTail)
        assert back.tail.decay.kind == "geometric"
        assert back.tail.decay.ratio == 0.5
        assert back.tail.decay.scale == 0.3
        for n in range(11):
            want = s.tail.factor_at(n).amplitudes
            got = back.tail.factor_at(n).amplitudes
            assert all(abs(a - b) < 1e-15 for a, b in zip(got, want))

    def test_parametric_defaults(self):
        doc = {
            "type": "product-state",
            "tail": {
                "kind": "parametric",
                "limit": [1.0, 0.0],
                "deviation": [0.5, 0.0],
                "class": "geometric",
                "ratio": 0.5,
            },
        }
        s = decode_state(doc)
        # absent scale defaults to the deviation norm
        assert s.tail.decay.scale == 0.5
        doc_plain = {
            "type": "product-state",
            "tail": {"kind": "parametric", "limit": [1.0, 0.0]},
        }
        t = decode_state(doc_plain).tail
        assert t.decay.kind == "eventually-constant"
        assert t.decay.rank == 0
        assert t.factor_at(0).amplitudes == (1 + 0j, 0j)

    @pytest.mark.parametrize(
        "tail",
        [
            {"class": "geometric", "ratio": 0.7, "scale": 0.4},
            {"class": "p-series", "p": 1.5, "scale": 0.4},
            {"class": "eventually-constant", "rank": 3, "scale": 0.4},
        ],
    )
    def test_parametric_document_round_trips_byte_for_byte(self, tail):
        # (limit + dev) - limit is not dev in floating point: 0.1 comes back
        # as 0.09999999999999998 unless the decoded deviation is kept
        doc = {
            "type": "product-state",
            "label": None,
            "prefix": [[{"re": 0.6, "im": 0.0}, {"re": 0.0, "im": 0.8}]],
            "tail": {
                "kind": "parametric",
                "dim": 2,
                "limit": [{"re": 0.8, "im": 0.0}, {"re": 0.0, "im": 0.6}],
                "deviation": [{"re": 0.1, "im": 0.3}, {"re": -0.2, "im": 0.05}],
                **tail,
            },
        }
        text = dumps(doc)
        assert dumps(encode_state(decode_state(loads(text)))) == text

    @staticmethod
    def _premeasured(tail):
        """The tail of the second premeasured term: the decoded branch below,
        moved one site later behind the system factor."""
        kicked = decode_state({
            "type": "product-state",
            "prefix": [],
            "tail": {"kind": "parametric", "limit": [0.6, 0.8], "deviation": [0.0, 0.3],
                     "scale": 0.3, **tail},
        })
        quiet = q.make_product_state((), q.ConstantTail(E0))
        model = q.MeasurementModel((0.6, 0.8), (quiet, kicked))
        return q.premeasurement_state(model).terms[1][1]

    @staticmethod
    def _image(term):
        """``term`` under an operator that keeps the system factor at site 0
        and rotates every device factor: its tail is a new callback that
        must keep the premeasured shift."""
        rotation = FactorOperator(np.array([[0.6, -0.8], [0.8, 0.6]]))
        op = FactoredOperator((
            OperatorTerm(1.0, (FactorOperator(np.eye(2)),), ConstantOperatorTail(rotation)),
        ))
        (_, image), = q.apply_operator(op, term).terms
        return image

    @pytest.mark.parametrize("image", [False, True])
    @pytest.mark.parametrize(
        "tail",
        [
            {"class": "geometric", "ratio": 0.5},
            {"class": "geometric", "ratio": 0.0},
            {"class": "eventually-constant", "rank": 3},
        ],
    )
    def test_shifted_canonical_tails_round_trip(self, tail, image):
        term = self._premeasured(tail)
        assert term.factor_at(1).amplitudes == (0.6, 0.8 + 0.3)
        if image:
            term = self._image(term)
        text = dumps(encode_state(term))
        back = decode_state(loads(text))
        for site in range(12):
            want, got = term.factor_at(site).amplitudes, back.factor_at(site).amplitudes
            assert got == pytest.approx(want, rel=1e-15, abs=1e-300)
        assert back.tail.decay == term.tail.decay
        assert dumps(encode_state(back)) == text

    @pytest.mark.parametrize("image", [False, True])
    def test_shifted_p_series_tails_are_refused(self, image):
        term = self._premeasured({"class": "p-series", "p": 2.0})
        if image:
            term = self._image(term)
        with pytest.raises(q.UndeclaredTailClass):
            encode_state(term)

    @staticmethod
    def _premeasured_callback(decay, weight):
        """``_premeasured`` with the branch's factors (0.6, 0.8 + 0.3 w(n))
        behind a plain Python callback instead of a decoded family."""
        limit = q.FactorVector((0.6, 0.8))
        tail = q.ParametricTail(
            2, lambda n: q.FactorVector((0.6, 0.8 + 0.3 * weight(n))), limit, decay
        )
        quiet = q.make_product_state((), q.ConstantTail(E0))
        model = q.MeasurementModel((0.6, 0.8), (quiet, q.ProductState((), tail)))
        return q.premeasurement_state(model).terms[1][1]

    @pytest.mark.parametrize("image", [False, True])
    @pytest.mark.parametrize(
        "decay, weight",
        [
            (q.DecaySpec("geometric", ratio=0.5, scale=0.3), lambda n: 0.5**n),
            (q.DecaySpec("geometric", ratio=0.0, scale=0.3), lambda n: 0.0**n),
            (q.DecaySpec("eventually-constant", rank=3, scale=0.3), lambda n: float(n < 3)),
        ],
    )
    def test_shifted_callback_tails_decode_to_their_own_factors(self, decay, weight, image):
        # the shifted callback is written with its shift, as a shifted
        # family is: site 1 reads (0.6, 1.1) before and after
        term = self._premeasured_callback(decay, weight)
        assert term.factor_at(1).amplitudes == (0.6, 0.8 + 0.3)
        if image:
            term = self._image(term)
        back = decode_state(loads(dumps(encode_state(term))))
        for site in range(1, 12):
            want, got = term.factor_at(site).amplitudes, back.factor_at(site).amplitudes
            assert got == pytest.approx(want, rel=1e-15, abs=1e-300)
        assert back.tail.decay == term.tail.decay

    @pytest.mark.parametrize("image", [False, True])
    def test_shifted_p_series_callback_tails_are_refused(self, image):
        decay = q.DecaySpec("p-series", p=2.0, scale=0.3)
        term = self._premeasured_callback(decay, lambda n: (n + 1) ** -2.0)
        if image:
            term = self._image(term)
        with pytest.raises(q.UndeclaredTailClass):
            encode_state(term)

    def test_custom_certified_has_no_encoding(self):
        tail = q.ParametricTail(
            dim=2,
            factor_fn=lambda n: E0,
            limit=E0,
            decay=q.DecaySpec(kind="custom-certified", scale=0.1),
        )
        with pytest.raises(q.UndeclaredTailClass):
            encode_state(q.ProductState((), tail))

    def test_composite_round_trip(self):
        a = q.make_product_state((E0,), q.ConstantTail(E0))
        b = q.make_product_state((E1,), q.ConstantTail(E0))
        c = q.CompositeState(((0.6, a), (0.8j, b)))
        back = decode_state(encode_state(c))
        assert isinstance(back, q.CompositeState)
        assert [coeff for coeff, _ in back.terms] == [0.6 + 0j, 0.8j]

    def test_a_deviation_above_its_declared_scale_is_refused(self):
        # the first factor is 3.0 from the limit; a scale of 0.3 would
        # certify bounds that the factors break
        with pytest.raises(q.UndeclaredTailClass):
            decode_state(BROKEN_SCALE_STATE)
        # a nan deviation is not within any scale
        tail = {**BROKEN_SCALE_STATE["tail"], "deviation": [0.0, {"re": "nan", "im": 0.0}]}
        with pytest.raises(q.UndeclaredTailClass):
            decode_state({"type": "product-state", "tail": tail})

    @pytest.mark.parametrize(
        "declared",
        [
            {"class": "geometric", "ratio": 0.5},
            {"class": "p-series", "p": 2.0},
            {"class": "eventually-constant", "rank": 2},
        ],
    )
    def test_every_family_that_reads_its_deviation_checks_the_scale(self, declared):
        tail = {"kind": "parametric", "limit": [0.6, 0.8], "deviation": [0.0, 0.5], **declared}
        with pytest.raises(q.UndeclaredTailClass):
            decode_state({"type": "product-state", "tail": {**tail, "scale": 0.49}})
        # a deviation whose norm equals the scale is the declaration itself
        state = decode_state({"type": "product-state", "tail": {**tail, "scale": 0.5}})
        assert state.tail.factor_at(0).amplitudes == (0.6 + 0j, 1.3 + 0j)

    @pytest.mark.parametrize(
        "tail",
        [
            # one rounding above the scale is within the gray zone
            {"class": "geometric", "ratio": 0.5, "scale": 0.3,
             "deviation": [0.0, 0.30000000000000004]},
            # a rank-0 family never reads its deviation
            {"class": "eventually-constant", "rank": 0, "scale": 0.1, "deviation": [0.0, 3.0]},
            # without a scale the deviation norm is the scale
            {"class": "geometric", "ratio": 0.5, "deviation": [0.0, 3.0]},
        ],
    )
    def test_declarations_the_deviation_keeps_still_decode(self, tail):
        doc = {"type": "product-state",
               "tail": {"kind": "parametric", "limit": [0.6, 0.8], **tail}}
        assert decode_state(doc).tail.decay.kind == tail["class"]

    def test_decode_rejections(self):
        with pytest.raises(q.UsageError):
            decode_state([])
        with pytest.raises(q.UsageError):
            decode_state({"type": "product-state"})  # no tail
        with pytest.raises(q.UsageError):
            decode_state({"type": "composite-state", "terms": []})
        with pytest.raises(q.UsageError):
            decode_state({"type": "wavelet"})
        with pytest.raises(q.ShapeMismatch):
            decode_state(
                {
                    "type": "product-state",
                    "tail": {"kind": "parametric", "dim": 3, "limit": [1.0, 0.0]},
                }
            )


class TestOperatorCodec:
    def test_round_trip(self):
        x = q.FactorOperator(((0.0, 1.0), (1.0, 0.0)))
        op = q.FactoredOperator(
            (
                q.OperatorTerm(0.5j, (x,), q.IdentityTail(2)),
                q.OperatorTerm(1.0, (), q.ConstantOperatorTail(x)),
            )
        )
        back = decode_operator(loads(dumps(encode_operator(op))))
        assert len(back.terms) == 2
        assert back.terms[0].coefficient == 0.5j
        assert np.array_equal(back.terms[0].prefix_ops[0].matrix, x.matrix)
        assert isinstance(back.terms[0].tail, q.IdentityTail)
        assert back.terms[0].tail.dim == 2
        assert isinstance(back.terms[1].tail, q.ConstantOperatorTail)
        assert np.array_equal(back.terms[1].tail.operator.matrix, x.matrix)

    def test_non_square_entry_count(self):
        doc = {
            "type": "factored-operator",
            "terms": [
                {
                    "coefficient": 1,
                    "prefix_ops": [[1.0, 0.0, 0.0]],
                    "tail": {"kind": "identity", "dim": 2},
                }
            ],
        }
        with pytest.raises(q.ShapeMismatch):
            decode_operator(doc)

    def test_missing_pieces(self):
        with pytest.raises(q.UsageError):
            decode_operator({"terms": []})
        with pytest.raises(q.UsageError):
            decode_operator(
                {"terms": [{"coefficient": 1, "tail": {"kind": "mystery"}}]}
            )


class TestModelCodec:
    def test_round_trip(self):
        m = q.MeasurementModel(
            (2**-0.5, 2**-0.5),
            (
                q.make_product_state((), q.ConstantTail(E0), label="quiet"),
                q.make_product_state(
                    (), q.ConstantTail(q.FactorVector((0.8, 0.6))), label="kicked"
                ),
            ),
            label="meter",
        )
        back = decode_model(loads(dumps(encode_model(m))))
        assert back.label == "meter"
        assert back.coefficients == m.coefficients
        assert [b.label for b in back.branches] == ["quiet", "kicked"]

    def test_parametric_model_document_round_trips_byte_for_byte(self):
        def branch(limit, dev):
            return {
                "type": "product-state",
                "label": None,
                "prefix": [[{"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 0.0}]],
                "tail": {
                    "kind": "parametric",
                    "dim": 2,
                    "class": "geometric",
                    "ratio": 0.5,
                    "scale": 0.4,
                    "limit": [encode_complex(c) for c in limit],
                    "deviation": [encode_complex(c) for c in dev],
                },
            }

        text = dumps(
            {
                "type": "measurement-model",
                "label": None,
                "coefficients": [encode_complex(2**-0.5), encode_complex(2**-0.5)],
                "branches": [
                    branch((1.0, 0.0), (0.0, 0.1 + 0.3j)),
                    branch((0.6, 0.8), (0.1 + 0.3j, -0.2)),
                ],
            }
        )
        assert dumps(encode_model(decode_model(loads(text)))) == text

    def test_decode_enforces_model_invariants(self):
        doc = encode_model(
            q.MeasurementModel(
                (2**-0.5, 2**-0.5),
                (
                    q.make_product_state((), q.ConstantTail(E0)),
                    q.make_product_state((), q.ConstantTail(q.FactorVector((0.8, 0.6)))),
                ),
            )
        )
        doc["coefficients"] = [1.0, 1.0]
        with pytest.raises(q.InvalidAmplitude):
            decode_model(doc)


class TestSequenceCodec:
    def test_constant_value(self):
        s = decode_sequence({"prefix": [2.0], "tail": {"kind": "constant-value", "value": 0.5}})
        assert s.term_at(1) == 2.0
        assert s.term_at(2) == 0.5

    def test_default_tail_is_one(self):
        s = decode_sequence({"prefix": [3.0]})
        assert s.term_at(5) == 1.0

    def test_geometric_family(self):
        s = decode_sequence(
            {"tail": {"kind": "geometric-one-plus", "coefficient": 2.0, "ratio": 0.25}}
        )
        assert s.tail.klass == "geometric-modulus"
        # the closed form sees the 1-based sequence index
        assert s.term_at(1) == 1.0 + 2.0 * 0.25
        assert s.term_at(3) == 1.0 + 2.0 * 0.25**3

    def test_p_series_family(self):
        s = decode_sequence(
            {"tail": {"kind": "p-series-one-plus", "coefficient": 1.0, "p": 2.0}}
        )
        assert s.tail.klass == "p-series-log-modulus"
        assert s.term_at(3) == 1.0 + 1.0 / 3.0**2

    def test_phase_drift_classes(self):
        slow = decode_sequence(
            {"tail": {"kind": "phase-drift", "coefficient": 1.0, "p": 1.0}}
        )
        assert slow.tail.klass == "bounded-nonsummable-argument"
        assert abs(slow.term_at(4) - cmath.exp(1j / 4.0)) < 1e-15
        fast = decode_sequence(
            {"tail": {"kind": "phase-drift", "coefficient": 1.0, "p": 2.0}}
        )
        assert fast.tail.klass == "custom"

    def test_unknown_kind(self):
        with pytest.raises(q.UsageError):
            decode_sequence({"tail": {"kind": "fibonacci"}})


class TestVerdictAndSweepCodec:
    def test_convergence_verdict(self):
        # a zero prefix term drives the log sum to -inf, which must become
        # a string under strict JSON
        v = q.classify_product(q.ComplexSequenceSpec(prefix=(0.0,)))
        doc = encode_verdict(v)
        assert doc["type"] == "convergence-verdict"
        assert doc["kind"] == "ConvergesTo"
        assert doc["value"] == {"re": 0.0, "im": 0.0}
        assert doc["diagnostics"]["log_modulus_sum"] == "-inf"
        dumps(doc)  # must be strict-JSON clean

    def test_sequence_class(self):
        c = q.classify_sequence(q.make_product_state((), q.ConstantTail(E0)))
        doc = encode_verdict(c)
        assert doc["type"] == "sequence-class"
        assert doc["kind"] == "NonTrivialConvergentSequence"

    def test_sector_verdict(self):
        a = q.make_product_state((), q.ConstantTail(E0))
        doc = encode_verdict(q.same_sector(a, a))
        assert doc["type"] == "sector-verdict"
        assert doc["kind"] == "SameSector"
        dumps(doc)

    def test_sector_action_verdict(self):
        op = q.FactoredOperator(
            (q.OperatorTerm(1.0, (q.identity_operator(2),), q.IdentityTail(2)),)
        )
        v = q.sector_action(op, q.make_product_state((), q.ConstantTail(E0)))
        doc = encode_verdict(v)
        assert doc["type"] == "sector-action-verdict"
        assert doc["kind"] == "PreservesSector"

    def test_unknown_verdict(self):
        with pytest.raises(q.UsageError):
            encode_verdict({"kind": "???"})

    def test_sweep(self):
        sweep = q.OverlapSweep((1, 2), (0.5 + 0j, 0.25j), (-0.7, -1.4))
        doc = encode_sweep(sweep)
        assert doc["truncations"] == [1, 2]
        assert doc["values"][1] == {"re": 0.0, "im": 0.25}
        assert doc["log_modulus"] == [-0.7, -1.4]


class TestDumpsLoads:
    def test_deterministic_key_order(self):
        assert dumps({"b": 1, "a": 2}) == dumps({"a": 2, "b": 1}) == '{"a":2,"b":1}'

    def test_pretty_mode(self):
        text = dumps({"a": 1}, pretty=True)
        assert text == '{\n  "a": 1\n}'

    def test_raw_nan_is_rejected(self):
        with pytest.raises(ValueError):
            dumps({"x": math.nan})

    def test_loads_wraps_decode_errors(self):
        with pytest.raises(q.UsageError):
            loads("{not json")
        assert loads('{"a": [1, 2]}') == {"a": [1, 2]}


@pytest.mark.parametrize("case", sorted(MALFORMED_DOCUMENTS))
def test_malformed_documents_fail_with_a_package_error(case):
    _, doc = MALFORMED_DOCUMENTS[case]
    try:
        decode_state(doc)
    except q.QsectorsError:
        pass


@pytest.mark.parametrize("case", sorted(MALFORMED_OPERATORS))
def test_malformed_operators_fail_with_a_package_error(case):
    try:
        decode_operator(MALFORMED_OPERATORS[case])
    except q.QsectorsError:
        pass


# -- numbers outside the float range -----------------------------------------

HUGE = 10**400  # a JSON integer literal with 401 digits
UNIT_TAIL = {"kind": "constant", "vector": [1.0, 0.0]}


def _parametric(**fields):
    return {"tail": {"kind": "parametric", "limit": [1.0, 0.0], "deviation": [0.0, 0.1], **fields}}


# id -> (decoder, document, the field the refusal names)
HUGE_NUMBERS = {
    "state-prefix": (decode_state, {"prefix": [[HUGE, 0.0]], "tail": UNIT_TAIL}, "prefix[0]"),
    "state-prefix-re": (
        decode_state, {"prefix": [[{"re": HUGE}, 0.0]], "tail": UNIT_TAIL}, "prefix[0]"
    ),
    "state-vector-im": (
        decode_state, {"tail": {"kind": "constant", "vector": [0.0, {"im": -HUGE}]}}, "tail.vector"
    ),
    "state-limit": (
        decode_state, {"tail": {"kind": "parametric", "limit": [HUGE, 0.0]}}, "tail.limit"
    ),
    "state-deviation": (
        decode_state, _parametric(**{"class": "geometric", "ratio": 0.5, "deviation": [0.0, HUGE]}),
        "tail.deviation",
    ),
    "state-scale": (
        decode_state, _parametric(**{"class": "geometric", "ratio": 0.5, "scale": HUGE}),
        "tail.scale",
    ),
    "state-ratio": (
        decode_state, _parametric(**{"class": "geometric", "ratio": HUGE}), "tail.ratio"
    ),
    "state-p": (decode_state, _parametric(**{"class": "p-series", "p": HUGE}), "tail.p"),
    "state-rank": (decode_state, _parametric(rank=HUGE), "tail.rank"),
    "composite-coefficient": (
        decode_state,
        {"type": "composite-state", "terms": [{"coefficient": HUGE, "state": {"tail": UNIT_TAIL}}]},
        "terms[0].coefficient",
    ),
    "model-coefficient": (
        decode_model,
        {"coefficients": [HUGE, 0.0], "branches": [{"tail": UNIT_TAIL}, {"tail": UNIT_TAIL}]},
        "coefficients",
    ),
    "sequence-prefix": (decode_sequence, {"prefix": [0.5, HUGE]}, "prefix"),
    "sequence-value": (
        decode_sequence, {"tail": {"kind": "constant-value", "value": HUGE}}, "tail.value"
    ),
    "sequence-coefficient": (
        decode_sequence, {"tail": {"kind": "geometric-one-plus", "coefficient": HUGE}},
        "tail.coefficient",
    ),
    "sequence-ratio": (
        decode_sequence, {"tail": {"kind": "geometric-one-plus", "ratio": HUGE}}, "tail.ratio"
    ),
    "sequence-p": (decode_sequence, {"tail": {"kind": "p-series-one-plus", "p": HUGE}}, "tail.p"),
    "sequence-phase-coefficient": (
        decode_sequence, {"tail": {"kind": "phase-drift", "coefficient": -HUGE}}, "tail.coefficient"
    ),
    "operator-coefficient": (
        decode_operator, MALFORMED_OPERATORS["coefficient-9"], "terms[0].coefficient"
    ),
    "operator-prefix-entry": (
        decode_operator, MALFORMED_OPERATORS["prefix-entry-9"], "terms[0].prefix_ops[0]"
    ),
    "operator-tail-entry": (
        decode_operator, MALFORMED_OPERATORS["tail-entry-9"], "terms[1].tail.entries"
    ),
}


@pytest.mark.parametrize("case", sorted(HUGE_NUMBERS))
def test_integers_past_the_float_range_are_refused_by_field(case):
    decode, doc, field = HUGE_NUMBERS[case]
    want = f"{field} holds an integer outside the float range"
    with pytest.raises(q.UsageError, match=f"^{re.escape(want)}$"):
        decode(loads(dumps(doc)))


def test_an_integer_past_the_digit_limit_is_malformed_json():
    with pytest.raises(q.UsageError, match="^malformed JSON: "):
        loads('{"prefix": [1' + "0" * 5000 + "]}")


# JSON's 1e400 reads as math.inf
@pytest.mark.parametrize("dim", ["x", "2", 2.5, 2.0, True, None, [2], math.inf])
def test_an_identity_dim_must_be_a_json_integer(dim):
    want = f"terms[0].tail.dim must be an integer, got {dim!r}"
    with pytest.raises(q.UsageError, match=re.escape(want)):
        decode_operator({"terms": [{"tail": {"kind": "identity", "dim": dim}}]})


def test_an_identity_dim_reads_a_json_integer():
    op = decode_operator(loads('{"terms": [{"tail": {"kind": "identity", "dim": 3}}]}'))
    assert op.terms[0].tail.dim == 3
    with pytest.raises(q.UsageError, match="needs a 'dim'"):
        decode_operator({"terms": [{"tail": {"kind": "identity"}}]})
