"""Shared builders for randomized tests, and the environment for CLI children."""

from __future__ import annotations

import copy
import math
import os
import struct
from pathlib import Path

import numpy as np

import qsectors as q
from qsectors import overlaps
from qsectors.operators import (
    ConstantOperatorTail,
    FactoredOperator,
    FactorOperator,
    IdentityTail,
    OperatorTerm,
)
from qsectors.serialize import decode_state, encode_complex, encode_operator, encode_state


def complex_bits(values) -> bytes:
    """The bytes of a sequence of complex numbers, signs of zero included."""
    return b"".join(struct.pack("<dd", c.real, c.imag) for c in values)


def random_factor(rng: np.random.Generator, dim: int, unit: bool = True) -> q.FactorVector:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    if unit:
        v = v / np.linalg.norm(v)
    return q.FactorVector(tuple(complex(c) for c in v))


def random_product_state(
    rng: np.random.Generator,
    dim: int = 2,
    max_prefix: int = 3,
    unit: bool = True,
    parametric: bool = False,
) -> q.ProductState:
    prefix = tuple(
        random_factor(rng, dim, unit) for _ in range(int(rng.integers(0, max_prefix + 1)))
    )
    if not parametric:
        return q.ProductState(prefix, q.ConstantTail(random_factor(rng, dim, unit)))
    limit = random_factor(rng, dim, unit=True)
    direction = random_factor(rng, dim, unit=True)
    ratio = float(rng.uniform(0.2, 0.7))
    base = np.asarray(limit.amplitudes)
    step = np.asarray(direction.amplitudes)

    def fn(n: int) -> q.FactorVector:
        v = base + (ratio ** n) * 0.3 * step
        if unit:
            v = v / np.linalg.norm(v)
        return q.FactorVector(tuple(complex(c) for c in v))

    # normalizing shifts each factor by at most twice the raw deviation
    decay = q.DecaySpec("geometric", ratio=ratio, scale=1.0)
    return q.ProductState(prefix, q.ParametricTail(dim, fn, limit, decay))


def random_operator(
    rng: np.random.Generator,
    dim: int = 2,
    n_terms: int = 2,
    max_prefix: int = 2,
) -> FactoredOperator:
    terms = []
    for _ in range(n_terms):
        prefix = tuple(
            FactorOperator(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            for _ in range(int(rng.integers(0, max_prefix + 1)))
        )
        if rng.random() < 0.5:
            tail = IdentityTail(dim)
        else:
            tail = ConstantOperatorTail(
                FactorOperator(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            )
        terms.append(
            OperatorTerm(complex(rng.normal(), rng.normal()), prefix, tail)
        )
    return FactoredOperator(tuple(terms))


def child_env() -> dict[str, str]:
    """The environment for CLI children: this process's source tree first on PYTHONPATH."""
    env = dict(os.environ)
    source_root = str(Path(q.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (source_root, env.get("PYTHONPATH")) if part
    )
    return env


# -- malformed state documents -------------------------------------------------
#
# A canonical document (as encode_state writes it) of each declared tail class,
# and each of them with one tail field, or one deviation entry, replaced by a
# value of the wrong type, sign or size.  Decoding or reading one must fail
# with a QsectorsError, or succeed; nothing else.

MALFORMED_VALUES = ("x", "0.5", 3.5, -1, True, None, [], {}, 1e308, 10**400)

CANONICAL_DOCUMENTS = {
    cls: encode_state(decode_state({
        "type": "product-state",
        "prefix": [[0.8, 0.6]],
        "tail": {"kind": "parametric", "class": cls, "scale": 0.3,
                 "limit": [0.6, 0.8], "deviation": [0.0, 0.3], **declaration},
    }))
    for cls, declaration in (
        ("geometric", {"ratio": 0.5}),
        ("p-series", {"p": 2.0}),
        ("eventually-constant", {"rank": 3}),
    )
}


def _malformed_documents() -> dict[str, tuple[str, dict]]:
    out = {}
    for cls, doc in CANONICAL_DOCUMENTS.items():
        for k, value in enumerate(MALFORMED_VALUES):
            for name in doc["tail"]:
                mutated = copy.deepcopy(doc)
                mutated["tail"][name] = value
                out[f"{cls}-{name}-{k}"] = (cls, mutated)
            for i in range(len(doc["tail"]["deviation"])):
                mutated = copy.deepcopy(doc)
                mutated["tail"]["deviation"][i] = value
                out[f"{cls}-deviation[{i}]-{k}"] = (cls, mutated)
    return out


# id -> (tail class, document); ids name the class, the field and the value's
# index in MALFORMED_VALUES
MALFORMED_DOCUMENTS = _malformed_documents()


# A geometric tail whose deviation breaks its declared scale: the first factor
# is 3.0 from the limit, not at most 0.3.  Decoding it must refuse.
BROKEN_SCALE_STATE = {
    "type": "product-state",
    "tail": {"kind": "parametric", "class": "geometric", "ratio": 0.5, "scale": 0.3,
             "limit": [0.6, 0.8], "deviation": [0.0, 3.0]},
}


# A canonical operator document with a prefix operator and both tail kinds,
# and each of them with the coefficient, one matrix entry or the identity
# tail's dim replaced by one of MALFORMED_VALUES.
CANONICAL_OPERATOR = encode_operator(FactoredOperator((
    OperatorTerm(0.5, (FactorOperator(np.array([[0.0, 1.0], [1.0, 0.0]])),), IdentityTail(2)),
    OperatorTerm(0.5j, (), ConstantOperatorTail(FactorOperator(np.diag([1.0, -1.0])))),
)))


def _malformed_operators() -> dict[str, dict]:
    out = {}
    for k, value in enumerate(MALFORMED_VALUES):
        for field, path in (
            ("coefficient", (0, "coefficient")),
            ("prefix-entry", (0, "prefix_ops", 0, 1)),
            ("dim", (0, "tail", "dim")),
            ("tail-entry", (1, "tail", "entries", 3)),
        ):
            mutated = copy.deepcopy(CANONICAL_OPERATOR)
            node = mutated["terms"]
            for step in path[:-1]:
                node = node[step]
            node[path[-1]] = value
            out[f"{field}-{k}"] = mutated
    return out


# id -> operator document; ids name the field and the value's index in
# MALFORMED_VALUES
MALFORMED_OPERATORS = _malformed_operators()


# -- walks compared with the site-by-site walk ---------------------------------
#
# ``site_by_site`` turns runs and closed tail rows off, so past the explicit
# prefixes every site is bracketed one at a time.  Cuts <= DIRECT_LIMIT keep
# that walk's bits, and later cuts agree with it within the rounding room of
# its per-site sums (``assert_walks_agree``).

# name -> (decay class, declared constants) of a decoded canonical family
TAIL_FAMILIES = {
    "geometric": ("geometric", {"ratio": 0.995}),
    "p-series": ("p-series", {"p": 1.3}),
    "rank-inside": ("eventually-constant", {"rank": 150}),
    "rank-past": ("eventually-constant", {"rank": 10**6}),
}


def near(rng: np.random.Generator, w: q.FactorVector, eps: float = 0.05) -> q.FactorVector:
    v = np.array(w.amplitudes) + eps * np.array(random_factor(rng, w.dim).amplitudes)
    return q.FactorVector(tuple((v / np.linalg.norm(v)).tolist()))


def decoded_family(rng, name, prefix_len, limit, shift=0):
    """A decoded state whose tail is the ``TAIL_FAMILIES[name]`` family
    around ``limit``, with a deviation of norm 0.1, moved ``shift`` sites."""
    cls, declared = TAIL_FAMILIES[name]
    deviation = 0.1 * np.array(random_factor(rng, limit.dim).amplitudes)

    def doc(v):
        return [encode_complex(complex(c)) for c in v]

    state = decode_state({
        "type": "product-state",
        "prefix": [doc(random_factor(rng, limit.dim).amplitudes) for _ in range(prefix_len)],
        "tail": {
            "kind": "parametric",
            "class": cls,
            "scale": 1.0,
            "limit": doc(limit.amplitudes),
            "deviation": doc(deviation),
            **declared,
        },
    })
    return q.ProductState(state.prefix, state.tail.shifted(shift)) if shift else state


def site_brackets(bra, ket, n):
    """(bra terms, ket terms, sites) brackets of the first n sites."""
    out = []
    for site in range(n):
        rows_b = np.array([s.factor_at(site).amplitudes for _, s in bra.terms])
        rows_k = np.array([s.factor_at(site).amplitudes for _, s in ket.terms])
        out.append(np.conj(rows_b) @ rows_k.T)
    return np.stack(out, axis=-1)


def log_mass(g):
    """Running sum over sites of |log|g|| + |angle g|, up to the first zero."""
    mod = np.abs(g)
    live = np.cumprod(mod > 0, axis=-1).astype(bool)
    logs = np.abs(np.log(np.where(live, mod, 1.0)))
    return np.cumsum(logs + np.where(live, np.abs(np.angle(g)), 0.0), axis=-1)


def site_by_site(monkeypatch, fn, *args):
    """``fn(*args)`` with no runs and no closed tail rows: past the explicit
    prefixes, every site is bracketed one at a time."""
    with monkeypatch.context() as m:
        m.setattr(q.ProductState, "run_starts", property(lambda state: ()))
        m.setattr(q.ConstantTail, "closed_rows", False)
        m.setattr(q.ParametricTail, "closed_rows", False)
        return fn(*args)


def rounding_room(bra, ket, n):
    """(1e-12 of the largest pair's log mass at n, log of sum_k |c_k| |g_k(n)|):
    a sum of n logs or angles rounds at about 1e-16 of its mass."""
    return rounding_rooms(bra, ket, [n])[0]


def rounding_rooms(bra, ket, cuts):
    """``rounding_room`` at each of the sorted cuts >= 1, from one pass of
    site brackets up to the last."""
    bra_c = bra if isinstance(bra, q.CompositeState) else bra.as_composite()
    ket_c = ket if isinstance(ket, q.CompositeState) else ket.as_composite()
    g = site_brackets(bra_c, ket_c, cuts[-1])
    with np.errstate(divide="ignore"):
        logs = np.cumsum(np.log(np.abs(g)), axis=-1)
    mass = log_mass(g)
    coeffs = np.log(np.outer([abs(c) for c, _ in bra_c.terms], [abs(c) for c, _ in ket_c.terms]))
    return [
        (
            1e-12 * max(1.0, mass[..., n - 1].max()),
            np.logaddexp.reduce((coeffs + logs[..., n - 1]).ravel()),
        )
        for n in cuts
    ]


def assert_walks_agree(bra, ket, got, want, cuts):
    """(value, log-modulus) per cut: bits kept at cuts <= DIRECT_LIMIT; past
    it, agreement within the rounding room of the per-site sums."""
    for n, (v1, l1), (v2, l2) in zip(cuts, got, want):
        if n <= overlaps.DIRECT_LIMIT:
            assert repr((v1, l1)) == repr((v2, l2))
        elif l2 == -math.inf:
            assert (v1, l1) == (0j, -math.inf)
        else:
            room, log_scale = rounding_room(bra, ket, n)
            assert abs(l1 - l2) <= room * math.exp(log_scale - l2)
            assert abs(v1 - v2) <= room * math.exp(log_scale)
