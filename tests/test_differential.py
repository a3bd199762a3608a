"""Differential tests: factored operators and walks over decoded families
against the dense oracle and mpmath.

Hypothesis draws the shapes (1-3 terms, prefixes of 0-20 operators whose
dims change, identity and constant tails, states with constant and decoded
family tails) and a seed; numpy draws the numbers from the seed.  Every
operator output is compared with plain linear algebra on the first n
factors, where those hold at most 2**14 amplitudes: images and their
overlaps (``apply_operator`` + ``composite_overlap``), truncated
expectations (``expectation_sweep``), evolution (``evolve``), and the
truncated norm bound (``FactoredOperator.norm_bound``).  Operator documents
must round-trip byte for byte.  Walks over decoded canonical families are
compared with the oracle and with mpmath past several tail blocks, and a
family's rows with its factors bit for bit (see the section below).
"""

import math

import mpmath
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import qsectors as q
from qsectors import serialize
from qsectors.oracle import DenseState, dense_overlap, densify, densify_operator
from qsectors.overlaps import TAIL_BLOCK_SITES

from support import random_factor, rounding_rooms

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


def _sites(state, limit=AMPLITUDE_LIMIT, most=24):
    """The longest truncation, at most ``most`` sites, whose dense state
    holds at most ``limit`` amplitudes."""
    n, size = 0, 1
    while n < most and size * state.dim_at(n) <= limit:
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



# -- walks over decoded canonical families ------------------------------------
#
# Two same-shaped states, each with a decoded geometric, p-series (p <= 1 or
# p > 1) or eventually-constant tail, unshifted or moved by
# ``ParametricTail.shifted``, after prefixes whose dims change.  Their walks
# are read at cuts on both sides of 64 and past TAIL_BLOCK_SITES (several
# tail blocks) and compared with the dense oracle where the truncated space
# fits, and with the exact families' brackets multiplied in mpmath at 40
# digits, within the rounding room of the walk's per-site sums.  A family's
# rows must be its factors bit for bit, over any range, below the shift too.

FAMILY_DECLARATIONS = st.one_of(
    st.floats(0.3, 0.999).map(lambda r: ("geometric", {"ratio": r})),
    st.floats(0.3, 1.0).map(lambda p: ("p-series", {"p": p})),
    st.floats(1.05, 3.0).map(lambda p: ("p-series", {"p": p})),
    st.integers(0, 6000).map(lambda rank: ("eventually-constant", {"rank": rank})),
)
# deviations of this norm keep every walk's log modulus inside the float range
FAMILY_DEVIATION = 0.05


def _family_state(rng, dims, tail_dim, declaration, shift, limit):
    """A state with unit prefix factors of ``dims`` and the decoded family of
    ``declaration`` around ``limit``, moved ``shift`` sites."""
    cls, declared = declaration
    deviation = FAMILY_DEVIATION * np.array(random_factor(rng, tail_dim).amplitudes)
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
    prefix = tuple(random_factor(rng, d) for d in dims)
    return q.ProductState(prefix, tail.shifted(shift) if shift else tail)


@st.composite
def family_pairs(draw, dims=DIMS):
    """(bra, ket, cuts): two family states that agree in shape, with site
    dims drawn from ``dims``, their limits equal or apart, and sorted cuts
    around 64 and past TAIL_BLOCK_SITES."""
    tail_dim = draw(dims)
    lengths = st.one_of(st.integers(0, 12), st.integers(60, 80))
    bra_len, ket_len = draw(lengths), draw(lengths)
    shared = draw(st.lists(dims, min_size=min(bra_len, ket_len), max_size=min(bra_len, ket_len)))
    rest = [tail_dim] * abs(bra_len - ket_len)
    bra_dims, ket_dims = (shared + rest, shared) if bra_len >= ket_len else (shared, shared + rest)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    limit = random_factor(rng, tail_dim)
    ket_limit = limit if draw(st.booleans()) else random_factor(rng, tail_dim)
    bra, ket = (
        _family_state(rng, dims, tail_dim, draw(FAMILY_DECLARATIONS), draw(st.integers(0, 70)), u)
        for dims, u in ((bra_dims, limit), (ket_dims, ket_limit))
    )
    last = draw(st.integers(TAIL_BLOCK_SITES + 100, 2 * TAIL_BLOCK_SITES + 100))
    middle = draw(st.integers(66, last - 1))
    return bra, ket, sorted({1, 63, 64, 65, middle, last})


def _walks(bra, ket, cuts):
    """(value, log-modulus) of the sweep at each cut; ``truncated_overlap``
    read alone gives each cut's value bit for bit."""
    sweep = q.overlap_sweep(bra, ket, cuts)
    alone = [q.truncated_overlap(bra, ket, n) for n in cuts]
    assert repr(alone) == repr(list(sweep.values))
    return list(zip(sweep.values, sweep.log_modulus))


def _assert_near(got, want, room, log_scale):
    """A walk's (value, log-modulus) against a reference product ``want``,
    within the rounding room; values are compared where they are normal
    floats."""
    value, log_mod = got
    truth = float(mpmath.log(abs(want)))
    assert abs(log_mod - truth) <= room * math.exp(log_scale - truth)
    if abs(truth) < 700.0:
        assert abs(value - complex(want)) <= room * math.exp(log_scale)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(family_pairs(st.sampled_from([1, 1, 2, 3])))  # dim-1 tails fit far out
def test_family_walks_match_the_oracle(case):
    bra, ket, cuts = case
    most = _sites(bra, AMPLITUDE_LIMIT, cuts[-1])
    fits = sorted({n for n in cuts if n <= most} | {max(most, 1)})
    got = _walks(bra, ket, fits)
    for n, walked, (room, log_scale) in zip(fits, got, rounding_rooms(bra, ket, fits)):
        dense = dense_overlap(densify(bra, n), densify(ket, n))
        _assert_near(walked, mpmath.mpc(dense), room, log_scale)


class _MpState:
    """A family state's factors at the current mpmath precision: explicit
    prefix amplitudes as given, then limit + w(n) * deviation with w from
    the family's declared constants."""

    def __init__(self, state):
        family = state.tail.factor_fn
        self.decay, self.shift = family.decay, state.tail.shift
        self.explicit = [row for rows in state.prefix_rows for row in rows.tolist()]
        self.limit, self.deviation = (
            list(map(mpmath.mpc, v)) for v in (family.limit.amplitudes, family.deviation)
        )
        # a geometric weight steps on by one factor from the last (m, w)
        p_series = self.decay.kind == "p-series"
        self.power = -mpmath.mpf(self.decay.p) if p_series else mpmath.mpf(self.decay.ratio or 0)
        self.last = (None, None)

    def weight(self, site):
        m, decay = max(site - self.shift, 0), self.decay
        if decay.kind == "p-series":
            return mpmath.mpf(m + 1) ** self.power
        if decay.kind == "eventually-constant":
            return 1 if m < decay.rank else 0
        last_m, w = self.last
        w = w * self.power if last_m == m - 1 else self.power**m
        self.last = m, w
        return w

    def factor(self, site):
        if site < len(self.explicit):
            return list(map(mpmath.mpc, self.explicit[site]))
        w = self.weight(site)
        return [a + w * d for a, d in zip(self.limit, self.deviation)]


def _mp_brackets(bra, ket, stop):
    """Yield the exact <bra_n|ket_n> of the sites n in [0, stop) at the
    current precision; past both prefixes, A + w_a B + w_b (C + w_a D) from
    the two families' limits and deviations."""
    x, y = _MpState(bra), _MpState(ket)

    def dot(u, v):
        return mpmath.fsum(a.conjugate() * b for a, b in zip(u, v))

    a, b = dot(x.limit, y.limit), dot(x.deviation, y.limit)
    c, d = dot(x.limit, y.deviation), dot(x.deviation, y.deviation)
    explicit = max(bra.prefix_len, ket.prefix_len)
    for site in range(stop):
        if site < explicit:
            yield dot(x.factor(site), y.factor(site))
        else:
            w = x.weight(site)
            yield a + w * b + y.weight(site) * (c + w * d)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(family_pairs())
def test_family_walks_match_mpmath(case):
    bra, ket, cuts = case
    got = _walks(bra, ket, cuts)
    with mpmath.workdps(40):
        product, want = mpmath.mpc(1), []
        for site, g in enumerate(_mp_brackets(bra, ket, cuts[-1]), 1):
            product *= g
            if site in cuts:
                want.append(product)
        for walked, truth, (room, log_scale) in zip(got, want, rounding_rooms(bra, ket, cuts)):
            _assert_near(walked, truth, room, log_scale)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    DIMS,
    FAMILY_DECLARATIONS,
    st.integers(0, 70),
    st.one_of(st.integers(-80, 300), st.integers(0, 10**6)),
    st.integers(1, 5000),
    st.integers(0, 2**32 - 1),
)
def test_family_rows_are_their_factors_bit_for_bit(dim, declaration, shift, lo, length, seed):
    rng = np.random.default_rng(seed)
    tail = _family_state(rng, [], dim, declaration, shift, random_factor(rng, dim)).tail
    start = max(lo, 0)
    want = np.array([tail.factor_at(n).amplitudes for n in range(start, start + length)])
    assert tail.rows(start, start + length).tobytes() == want.tobytes()
    # the family's own sites, below 0 (the sites before the shift) too
    family = tail.factor_fn
    want = np.array([family(max(n, 0)).amplitudes for n in range(lo, lo + length)])
    assert family.rows(lo, lo + length).tobytes() == want.tobytes()
