"""JSON encoding and decoding for states, operators, models, and verdicts.

Complex numbers travel as ``{"re": ..., "im": ...}``; non-finite floats as
the strings ``"inf"``, ``"-inf"``, ``"nan"`` so the emitted documents stay
inside strict JSON.  Matrices travel as flat row-major entry lists with the
dimension recovered from the square root of the length.

Parametric tails are stored as their canonical family: the limit vector,
the declared decay class, and the initial deviation.  Decoding rebuilds
the family (``states._CanonicalFamily``) from those three pieces, so a tail
with an arbitrary callback round-trips to the canonical member of its own
decay class; the prefix, limit, and declaration always survive exactly.
A tail moved later (``ParametricTail.shift``), whether a family or a
plain callback, is written as the canonical family of its moved declaration
where one exists, and refused where none does.
"""

from __future__ import annotations

import cmath
import json
import math
from typing import Any, Union

import numpy as np

from .decoherence import MeasurementModel
from .errors import ShapeMismatch, UndeclaredTailClass, UsageError
from .operators import (
    ConstantOperatorTail,
    FactoredOperator,
    FactorOperator,
    IdentityTail,
    OperatorTerm,
    SectorActionVerdict,
)
from .overlaps import OverlapSweep
from .products import (
    ClosedFormTail,
    ComplexSequenceSpec,
    ConstantValue,
    ConvergenceVerdict,
)
from .sectors import SectorVerdict, SequenceClass
from .states import (
    ALIGN_GRAY,
    CompositeState,
    ConstantTail,
    DecaySpec,
    FactorVector,
    ParametricTail,
    ProductState,
    _CanonicalFamily,
    _as_complex_tuple,
    _factor_rows,
)

__all__ = [
    "encode_complex",
    "decode_complex",
    "jsonable",
    "encode_state",
    "decode_state",
    "encode_operator",
    "decode_operator",
    "encode_model",
    "decode_model",
    "decode_sequence",
    "encode_verdict",
    "encode_sweep",
    "dumps",
    "loads",
]


def encode_complex(z: complex) -> dict:
    z = complex(z)
    return {"re": _float_out(z.real), "im": _float_out(z.imag)}


def decode_complex(obj: Any, where: str = "number") -> complex:
    """A number or ``{re, im}`` object of the field ``where`` as a complex."""
    if isinstance(obj, (int, float)):
        try:
            return complex(obj)
        except OverflowError:
            raise _outside_the_float_range(where) from None
    if isinstance(obj, dict) and set(obj) <= {"re", "im"}:
        return complex(_float_in(obj.get("re", 0.0), where), _float_in(obj.get("im", 0.0), where))
    raise UsageError(f"expected a number or {{re, im}} object, got {obj!r}")


def _outside_the_float_range(where: str) -> UsageError:
    # the integer itself may run to thousands of digits, so it is not quoted
    return UsageError(f"{where} holds an integer outside the float range")


def _float_out(x: float) -> Union[float, str]:
    x = float(x)
    if math.isfinite(x):
        return x
    if math.isnan(x):
        return "nan"
    return "inf" if x > 0 else "-inf"


def _float_in(x: Any, where: str = "number") -> float:
    if isinstance(x, str):
        try:
            return float(x)
        except ValueError:
            raise UsageError(f"not a number: {x!r}") from None
    if isinstance(x, (int, float)):
        try:
            return float(x)
        except OverflowError:
            raise _outside_the_float_range(where) from None
    raise UsageError(f"not a number: {x!r}")


def jsonable(x: Any) -> Any:
    """Recursive conversion into strict-JSON-safe values."""
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, float):
        return _float_out(x)
    if isinstance(x, complex):
        return encode_complex(x)
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return _float_out(float(x))
    raise UsageError(f"cannot make {type(x).__name__} JSON-safe")


def _encode_vector(v: FactorVector) -> list:
    return [encode_complex(c) for c in v.amplitudes]


def _decode_amplitudes(obj: Any, where: str) -> tuple[complex, ...]:
    """The amplitudes of a vector document, refused where they are not a
    non-empty list of finite complex entries."""
    if not isinstance(obj, list) or not obj:
        raise UsageError(f"{where} must be a non-empty list of complex entries")
    amplitudes = tuple(decode_complex(c, where) for c in obj)
    if not all(map(cmath.isfinite, amplitudes)):
        _as_complex_tuple(amplitudes)  # names the first non-finite amplitude
    return amplitudes


def _decode_vector(obj: Any, where: str) -> FactorVector:
    return FactorVector(_decode_amplitudes(obj, where))


def _decode_prefix(vectors: list) -> list[np.ndarray]:
    """The prefix vectors of a state document as one (sites, dim) complex
    array per run of equal dims, each refused in document order."""
    return _factor_rows([_decode_amplitudes(v, f"prefix[{i}]") for i, v in enumerate(vectors)])


def _encode_tail(tail) -> dict:
    if isinstance(tail, ConstantTail):
        return {"kind": "constant", "vector": _encode_vector(tail.vector)}
    decay = tail.decay
    if decay.kind == "custom-certified":
        raise UndeclaredTailClass(
            "custom-certified tails have no canonical closed form to serialize"
        )
    family, shift = tail.factor_fn, tail.shift
    if isinstance(family, _CanonicalFamily):
        dev = family.deviation
    else:
        dev = tuple(a - b for a, b in zip(family(0).amplitudes, tail.limit.amplitudes))
    # a shifted tail is written as the canonical family of its shifted
    # declaration: geometric rescales its deviation, eventually-constant
    # keeps it under the shifted rank
    if shift and decay.kind == "p-series":
        raise UndeclaredTailClass(
            "shifted p-series tails have no canonical closed form to serialize"
        )
    if shift and decay.kind == "geometric":
        dev = tuple(d / decay.ratio**shift for d in dev)
    out = {
        "kind": "parametric",
        "dim": tail.dim,
        "class": decay.kind,
        "scale": _float_out(decay.scale),
        "limit": _encode_vector(tail.limit),
        "deviation": [encode_complex(c) for c in dev],
    }
    if decay.ratio is not None:
        out["ratio"] = decay.ratio
    if decay.p is not None:
        out["p"] = decay.p
    if decay.rank is not None:
        out["rank"] = decay.rank
    return out


def _decode_tail(obj: Any, where: str):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise UsageError(f"{where} must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "constant":
        return ConstantTail(_decode_vector(obj.get("vector"), f"{where}.vector"))
    if kind != "parametric":
        raise UsageError(f"{where}.kind must be 'constant' or 'parametric'")
    limit = _decode_vector(obj.get("limit"), f"{where}.limit")
    dev_json = obj.get("deviation", [])
    if not isinstance(dev_json, list) or len(dev_json) not in (0, limit.dim):
        raise UsageError(f"{where}.deviation must match the limit dimension")
    dev_where = f"{where}.deviation"
    dev = tuple(decode_complex(c, dev_where) for c in dev_json) or (0j,) * limit.dim
    dim = obj.get("dim", limit.dim)
    if dim != limit.dim:
        raise ShapeMismatch(f"{where}: dim {dim} vs limit dim {limit.dim}")
    # huge entries give inf here where abs(c) ** 2 raises OverflowError; a
    # document without a scale then fails the declaration's finite-scale check
    dev_norm = math.sqrt(sum(c.real * c.real + c.imag * c.imag for c in dev))
    for name in ("ratio", "p", "rank"):
        if isinstance(obj.get(name), int):  # refuses, naming it, one past the float range
            _float_in(obj[name], f"{where}.{name}")
    decay = DecaySpec(
        kind=obj.get("class", "eventually-constant"),
        ratio=obj.get("ratio"),
        p=obj.get("p"),
        rank=obj.get("rank", 0 if "class" not in obj else None),
        scale=_float_in(obj["scale"], f"{where}.scale") if "scale" in obj else max(dev_norm, 0.0),
    )
    # every family that reads its deviation weighs it by w(0) = 1 at site 0
    # and by w(n) <= 1 after, so the declaration holds exactly when the
    # deviation's norm (not nan) is within the declared scale
    reads_deviation = decay.kind in ("geometric", "p-series") or (decay.rank or 0) > 0
    if reads_deviation and not dev_norm <= decay.scale * (1.0 + ALIGN_GRAY):
        raise UndeclaredTailClass(
            f"{where}: deviation norm {dev_norm!r} exceeds the declared scale "
            f"{decay.scale!r}"
        )
    # the family keeps the decoded deviation for encoding: (limit + dev) -
    # limit need not equal dev in floating point
    family = _CanonicalFamily(limit, dev, decay)
    return ParametricTail(dim=limit.dim, factor_fn=family, limit=limit, decay=decay)


def encode_state(state: Union[ProductState, CompositeState]) -> dict:
    if isinstance(state, ProductState):
        return {
            "type": "product-state",
            "label": state.label,
            "prefix": [
                [encode_complex(c) for c in row]
                for rows in state.prefix_rows
                for row in rows.tolist()
            ],
            "tail": _encode_tail(state.tail),
        }
    return {
        "type": "composite-state",
        "terms": [
            {"coefficient": encode_complex(c), "state": encode_state(s)}
            for c, s in state.terms
        ],
    }


def decode_state(obj: Any) -> Union[ProductState, CompositeState]:
    if not isinstance(obj, dict):
        raise UsageError("state document must be a JSON object")
    kind = obj.get("type", "product-state")
    if kind == "product-state":
        prefix_json = obj.get("prefix", [])
        if not isinstance(prefix_json, list):
            raise UsageError("prefix must be a list of vectors")
        prefix = _decode_prefix(prefix_json)
        if "tail" not in obj:
            raise UsageError("product-state document needs a 'tail' field")
        tail = _decode_tail(obj["tail"], "tail")
        label = obj.get("label")
        if label is not None and not isinstance(label, str):
            raise UsageError("label must be a string or null")
        return ProductState._of_rows(prefix, tail, label)
    if kind == "composite-state":
        terms_json = obj.get("terms")
        if not isinstance(terms_json, list) or not terms_json:
            raise UsageError("composite-state needs a non-empty 'terms' list")
        terms = []
        for i, t in enumerate(terms_json):
            if not isinstance(t, dict) or "state" not in t:
                raise UsageError(f"terms[{i}] must be an object with a 'state'")
            inner = decode_state(t["state"])
            if not isinstance(inner, ProductState):
                raise UsageError(f"terms[{i}].state must be a product-state")
            coefficient = decode_complex(t.get("coefficient", 1), f"terms[{i}].coefficient")
            terms.append((coefficient, inner))
        return CompositeState(tuple(terms))
    raise UsageError(f"unknown state type {kind!r}")


def _encode_matrix(m: np.ndarray) -> list:
    return [encode_complex(c) for c in m.reshape(-1).tolist()]


def _decode_matrix(obj: Any, where: str) -> FactorOperator:
    if not isinstance(obj, list) or not obj:
        raise UsageError(f"{where} must be a flat row-major entry list")
    d = math.isqrt(len(obj))
    if d * d != len(obj):
        raise ShapeMismatch(f"{where} has {len(obj)} entries, not a square count")
    entries = [decode_complex(c, where) for c in obj]
    return FactorOperator(np.array(entries, dtype=complex).reshape(d, d))


def encode_operator(op: FactoredOperator) -> dict:
    terms = []
    for t in op.terms:
        if isinstance(t.tail, IdentityTail):
            tail = {"kind": "identity", "dim": t.tail.dim}
        else:
            tail = {"kind": "constant", "entries": _encode_matrix(t.tail.operator.matrix)}
        terms.append(
            {
                "coefficient": encode_complex(t.coefficient),
                "prefix_ops": [_encode_matrix(m) for run in t.prefix_matrices for m in run],
                "tail": tail,
            }
        )
    return {"type": "factored-operator", "terms": terms}


def decode_operator(obj: Any) -> FactoredOperator:
    if not isinstance(obj, dict) or obj.get("type", "factored-operator") != "factored-operator":
        raise UsageError("operator document must be a factored-operator object")
    terms_json = obj.get("terms")
    if not isinstance(terms_json, list) or not terms_json:
        raise UsageError("operator needs a non-empty 'terms' list")
    terms = []
    for i, t in enumerate(terms_json):
        if not isinstance(t, dict):
            raise UsageError(f"terms[{i}] must be an object")
        ops_json = t.get("prefix_ops", [])
        if not isinstance(ops_json, list):
            raise UsageError(f"terms[{i}].prefix_ops must be a list")
        prefix_ops = tuple(
            _decode_matrix(m, f"terms[{i}].prefix_ops[{k}]")
            for k, m in enumerate(ops_json)
        )
        tail_json = t.get("tail")
        if not isinstance(tail_json, dict) or "kind" not in tail_json:
            raise UsageError(f"terms[{i}].tail must be an object with a 'kind'")
        if tail_json["kind"] == "identity":
            if "dim" not in tail_json:
                raise UsageError(f"terms[{i}].tail needs a 'dim'")
            dim = tail_json["dim"]
            if isinstance(dim, bool) or not isinstance(dim, int):
                raise UsageError(f"terms[{i}].tail.dim must be an integer, got {dim!r}")
            tail = IdentityTail(dim)
        elif tail_json["kind"] == "constant":
            tail = ConstantOperatorTail(
                _decode_matrix(tail_json.get("entries"), f"terms[{i}].tail.entries")
            )
        else:
            raise UsageError(f"terms[{i}].tail.kind must be 'identity' or 'constant'")
        terms.append(
            OperatorTerm(
                decode_complex(t.get("coefficient", 1), f"terms[{i}].coefficient"),
                prefix_ops,
                tail,
            )
        )
    return FactoredOperator(tuple(terms))


def encode_model(model: MeasurementModel) -> dict:
    return {
        "type": "measurement-model",
        "label": model.label,
        "coefficients": [encode_complex(c) for c in model.coefficients],
        "branches": [encode_state(b) for b in model.branches],
    }


def decode_model(obj: Any) -> MeasurementModel:
    if not isinstance(obj, dict) or obj.get("type", "measurement-model") != "measurement-model":
        raise UsageError("model document must be a measurement-model object")
    coeffs_json = obj.get("coefficients")
    branches_json = obj.get("branches")
    if not isinstance(coeffs_json, list) or not isinstance(branches_json, list):
        raise UsageError("model needs 'coefficients' and 'branches' lists")
    branches = []
    for i, b in enumerate(branches_json):
        state = decode_state(b)
        if not isinstance(state, ProductState):
            raise UsageError(f"branches[{i}] must be a product-state")
        branches.append(state)
    label = obj.get("label")
    if label is not None and not isinstance(label, str):
        raise UsageError("label must be a string or null")
    return MeasurementModel(
        tuple(decode_complex(c, "coefficients") for c in coeffs_json), tuple(branches), label=label
    )


_SEQUENCE_TAIL_KINDS = (
    "constant-value",
    "geometric-one-plus",
    "p-series-one-plus",
    "phase-drift",
)


def decode_sequence(obj: Any) -> ComplexSequenceSpec:
    """Build a sequence spec from JSON.

    Closed-form tails come from a small family catalogue, since arbitrary
    callbacks cannot travel through JSON:

    - ``constant-value``: every tail term equals ``value``.
    - ``geometric-one-plus``: term(n) = 1 + coefficient * ratio**n.
    - ``p-series-one-plus``: term(n) = 1 + coefficient / n**p.
    - ``phase-drift``: term(n) = exp(i * coefficient / n**p); for p <= 1 the
      arguments are certified bounded-nonsummable, beyond that the class
      falls back to numeric probing.
    """
    if not isinstance(obj, dict):
        raise UsageError("sequence document must be a JSON object")
    prefix_json = obj.get("prefix", [])
    if not isinstance(prefix_json, list):
        raise UsageError("prefix must be a list of complex entries")
    prefix = tuple(decode_complex(c, "prefix") for c in prefix_json)
    tail_json = obj.get("tail", {"kind": "constant-value", "value": 1})
    if not isinstance(tail_json, dict) or "kind" not in tail_json:
        raise UsageError("tail must be an object with a 'kind' field")
    kind = tail_json["kind"]
    if kind in ("constant-value", "constant"):
        tail = ConstantValue(decode_complex(tail_json.get("value", 1), "tail.value"))
    elif kind == "geometric-one-plus":
        c = decode_complex(tail_json.get("coefficient", 1), "tail.coefficient")
        ratio = _float_in(tail_json.get("ratio", 0.5), "tail.ratio")
        tail = ClosedFormTail(
            term_fn=lambda n: 1.0 + c * ratio ** n,
            klass="geometric-modulus",
            ratio=ratio,
        )
    elif kind == "p-series-one-plus":
        c = decode_complex(tail_json.get("coefficient", 1), "tail.coefficient")
        p = _float_in(tail_json.get("p", 2.0), "tail.p")
        tail = ClosedFormTail(
            term_fn=lambda n: 1.0 + c * float(n) ** (-p),
            klass="p-series-log-modulus",
            p=p,
        )
    elif kind == "phase-drift":
        c = _float_in(tail_json.get("coefficient", 1.0), "tail.coefficient")
        p = _float_in(tail_json.get("p", 1.0), "tail.p")
        klass = "bounded-nonsummable-argument" if p <= 1.0 else "custom"
        tail = ClosedFormTail(
            term_fn=lambda n: cmath.exp(1j * c * float(n) ** (-p)),
            klass=klass,
        )
    else:
        raise UsageError(
            f"unknown sequence tail kind {kind!r}; known: {_SEQUENCE_TAIL_KINDS}"
        )
    return ComplexSequenceSpec(prefix=prefix, tail=tail)


def encode_verdict(verdict: Any) -> dict:
    if isinstance(verdict, ConvergenceVerdict):
        d = verdict.diagnostics
        return {
            "type": "convergence-verdict",
            "kind": verdict.kind,
            "value": None if verdict.value is None else encode_complex(verdict.value),
            "diagnostics": {
                "samples": [[n, encode_complex(z)] for n, z in d.samples],
                "log_modulus_sum": _float_out(d.log_modulus_sum),
                "argument_drift": _float_out(d.argument_drift),
                "terms_examined": d.terms_examined,
                "notes": list(d.notes),
            },
        }
    if isinstance(verdict, SequenceClass):
        return {
            "type": "sequence-class",
            "kind": verdict.kind,
            "evidence": jsonable(verdict.evidence),
        }
    if isinstance(verdict, SectorVerdict):
        return {
            "type": "sector-verdict",
            "kind": verdict.kind,
            "certificate": jsonable(verdict.certificate),
        }
    if isinstance(verdict, SectorActionVerdict):
        return {
            "type": "sector-action-verdict",
            "kind": verdict.kind,
            "witness": jsonable(verdict.witness),
        }
    raise UsageError(f"no verdict encoding for {type(verdict).__name__}")


def encode_sweep(sweep: OverlapSweep) -> dict:
    return {
        "type": "overlap-sweep",
        "truncations": list(sweep.truncations),
        "values": [encode_complex(z) for z in sweep.values],
        "log_modulus": [_float_out(x) for x in sweep.log_modulus],
    }


def dumps(obj: Any, pretty: bool = False) -> str:
    """Deterministic serialization: sorted keys, fixed separators."""
    if pretty:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise UsageError(f"malformed JSON: {exc}") from None
