"""Differential tests: factored operators against the dense oracle.

Hypothesis draws the shapes (1-3 terms, prefixes of 0-20 operators whose
dims change, identity and constant tails, states with constant and decoded
family tails) and a seed; numpy draws the numbers from the seed.  Every
operator output is compared with plain linear algebra on the first n
factors, where those hold at most 2**14 amplitudes: images and their
overlaps (``apply_operator`` + ``composite_overlap``), truncated
expectations (``expectation_sweep``), evolution (``evolve``), and the
truncated norm bound (``FactoredOperator.norm_bound``).  Operator documents
must round-trip byte for byte.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import qsectors as q
from qsectors import serialize
from qsectors.oracle import DenseState, dense_overlap, densify, densify_operator

from support import random_factor

AMPLITUDE_LIMIT = 2**14
DENSE_NORM_LIMIT = 2**8  # an SVD of at most this size per example
DIMS = st.integers(1, 3)
FAMILIES = (
    ("geometric", {"ratio": 0.6}),
    ("p-series", {"p": 1.5}),
    ("eventually-constant", {"rank": 3}),
)
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


@st.composite
def shapes(draw):
    """(operator prefix dims, state prefix dims, tail dim): both prefixes
    agree on the sites they share, and a prefix reaching past the other's
    holds the tail dim there, so operator and state fit."""
    tail_dim = draw(DIMS)
    op_len, state_len = draw(st.integers(0, 20)), draw(st.integers(0, 12))
    shared = draw(st.lists(DIMS, min_size=min(op_len, state_len), max_size=min(op_len, state_len)))
    rest = [tail_dim] * abs(op_len - state_len)
    if op_len >= state_len:
        return shared + rest, shared, tail_dim
    return shared, shared + rest, tail_dim


def _matrix(rng, d, hermitian=False):
    m = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / math.sqrt(2 * d)
    return (m + m.conj().T) / 2 if hermitian else m


def _term(rng, dims, tail_dim, constant_tail, hermitian=False):
    coefficient = complex(rng.normal()) if hermitian else complex(rng.normal(), rng.normal())
    prefix = tuple(q.FactorOperator(_matrix(rng, d, hermitian)) for d in dims)
    if constant_tail:
        tail = q.ConstantOperatorTail(q.FactorOperator(_matrix(rng, tail_dim, hermitian)))
    else:
        tail = q.IdentityTail(tail_dim)
    return q.OperatorTerm(coefficient, prefix, tail)


def _state(rng, dims, tail_dim, family):
    """A state with unit prefix factors of ``dims`` and a constant tail
    (``family`` None) or the decoded tail of ``FAMILIES[family]``."""
    prefix = tuple(random_factor(rng, d) for d in dims)
    limit = random_factor(rng, tail_dim)
    if family is None:
        return q.ProductState(prefix, q.ConstantTail(limit))
    cls, declared = FAMILIES[family]
    deviation = 0.1 * np.array(random_factor(rng, tail_dim).amplitudes)
    tail = serialize.decode_state({
        "type": "product-state",
        "prefix": [],
        "tail": {
            "kind": "parametric", "class": cls, "scale": 1.0,
            "limit": [serialize.encode_complex(c) for c in limit.amplitudes],
            "deviation": [serialize.encode_complex(complex(c)) for c in deviation],
            **declared,
        },
    }).tail
    return q.ProductState(prefix, tail)


@st.composite
def cases(draw, max_terms=3, hermitian=False):
    """(operator, state): the operator's terms share the drawn shape, each
    with its own tail kind; the state's tail is constant or decoded."""
    op_dims, state_dims, tail_dim = draw(shapes())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tails = draw(st.lists(st.booleans(), min_size=1, max_size=max_terms))
    op = q.FactoredOperator(tuple(
        _term(rng, op_dims, tail_dim, constant, hermitian) for constant in tails
    ))
    family = draw(st.sampled_from([None, 0, 1, 2]))
    return op, _state(rng, state_dims, tail_dim, family)


def _sites(state, limit=AMPLITUDE_LIMIT):
    """The longest truncation, at most 24 sites, whose dense state holds at
    most ``limit`` amplitudes."""
    n, size = 0, 1
    while n < 24 and size * state.dim_at(n) <= limit:
        size *= state.dim_at(n)
        n += 1
    return n


def _dense_image(op, psi):
    """op applied to the dense state ``psi`` one site's axis at a time, as
    the sum over terms of the coefficient times every site's matrix."""
    tensor = psi.amplitudes.reshape(psi.dims or (1,))
    total = np.zeros_like(tensor)
    for t in op.terms:
        x = tensor
        for site in range(len(psi.dims)):
            u = t.op_at(site)
            if u is not None:
                x = np.moveaxis(np.tensordot(u.matrix, x, axes=([1], [site])), 0, site)
        total = total + t.coefficient * x
    return DenseState(total.reshape(-1), psi.dims)


def _room(op, psi, n):
    """Rounding room for a bracket <psi|op|psi> of the first n factors,
    which the truncated norm bound times |psi|**2 bounds."""
    return 1e-10 * (1.0 + op.norm_bound(n) * psi.norm**2)


@SETTINGS
@given(cases())
def test_images_and_their_overlaps_match_the_oracle(case):
    op, state = case
    n = _sites(state)
    image = q.apply_operator(op, state)
    psi = densify(state, n)
    want = _dense_image(op, psi)
    room = _room(op, psi, n)
    assert np.max(np.abs(densify(image, n).amplitudes - want.amplitudes), initial=0.0) <= room
    got = q.composite_overlap(state, image, n)
    assert abs(got - dense_overlap(psi, want)) <= room


@SETTINGS
@given(cases())
def test_expectation_sweeps_match_the_oracle(case):
    op, state = case
    n = _sites(state)
    cuts = sorted({1, max(n // 2, 1), max(n, 1)})
    sweep = q.expectation_sweep(op, state, cuts)
    for cut, value in zip(cuts, sweep.values):
        psi = densify(state, cut)
        want = dense_overlap(psi, _dense_image(op, psi))
        assert abs(value - want) <= _room(op, psi, cut)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cases(max_terms=1, hermitian=True), st.floats(-3.0, 3.0))
def test_evolution_matches_the_oracle(case, t):
    generator, state = case
    n = _sites(state)
    result = q.evolve(generator, state, t, n)
    psi = densify(state, n)
    (term,) = generator.terms
    tensor = psi.amplitudes.reshape(psi.dims or (1,))
    for site in range(n):
        h = term.op_at(site)
        if h is not None:
            u = expm(1j * t * term.coefficient.real * h.matrix)
            tensor = np.moveaxis(np.tensordot(u, tensor, axes=([1], [site])), 0, site)
    want = DenseState(tensor.reshape(-1), psi.dims)
    room = 1e-9 * (1.0 + psi.norm**2)
    got = densify(result.state, n).amplitudes
    assert np.max(np.abs(got - want.amplitudes), initial=0.0) <= room
    assert abs(result.survival - dense_overlap(psi, want)) <= room


@SETTINGS
@given(cases())
def test_norm_bound_bounds_the_dense_norm(case):
    op, state = case
    n = _sites(state, DENSE_NORM_LIMIT)
    for cut in sorted({0, n // 2, n}):
        dense = densify_operator(op, cut)
        assert np.linalg.norm(dense, 2) <= op.norm_bound(cut) * (1 + 1e-9)


@SETTINGS
@given(cases())
def test_operator_documents_round_trip_byte_for_byte(case):
    op, _ = case
    text = serialize.dumps(serialize.encode_operator(op))
    back = serialize.decode_operator(serialize.loads(text))
    assert back == op
    assert serialize.dumps(serialize.encode_operator(back)) == text
    assert [m.tobytes() for t in back.terms for m in t.prefix_matrices] == [
        m.tobytes() for t in op.terms for m in t.prefix_matrices
    ]

