import base64
import cmath
import hashlib
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsectors as q
from qsectors import operators, overlaps, serialize
from qsectors.oracle import (
    dense_expectation,
    dense_overlap,
    densify,
    densify_operator,
)

from support import (
    assert_walks_agree,
    complex_bits,
    decoded_family,
    near,
    random_factor,
    random_operator,
    random_product_state,
    site_by_site,
)

E0 = q.FactorVector((1.0, 0.0))
E1 = q.FactorVector((0.0, 1.0))
PLUS = q.FactorVector((2**-0.5, 2**-0.5))

PAULI_X = ((0.0, 1.0), (1.0, 0.0))
PAULI_Z = ((1.0, 0.0), (0.0, -1.0))


def constant_state(prefix=(), tail_vec=E0):
    return q.make_product_state(prefix, q.ConstantTail(tail_vec))


def single_site(matrix, site=0, dim=2, coefficient=1.0):
    prefix = tuple(
        q.identity_operator(dim) if k < site else q.FactorOperator(matrix)
        for k in range(site + 1)
    )
    return q.FactoredOperator(
        (q.OperatorTerm(coefficient, prefix, q.IdentityTail(dim)),)
    )


def global_op(matrix, dim=2, coefficient=1.0):
    return q.FactoredOperator(
        (
            q.OperatorTerm(
                coefficient, (), q.ConstantOperatorTail(q.FactorOperator(matrix))
            ),
        )
    )


_finite = st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False)
_complex = st.builds(complex, _finite, _finite)


class TestFactorOperator:
    def test_rejects_non_square(self):
        with pytest.raises(q.ShapeMismatch):
            q.FactorOperator(((1.0, 0.0),))

    def test_rejects_non_finite(self):
        with pytest.raises(q.InvalidAmplitude):
            q.FactorOperator(((float("nan"), 0.0), (0.0, 1.0)))

    def test_norm_bound_is_largest_singular_value(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            u = q.FactorOperator(m)
            assert u.norm_bound == pytest.approx(np.linalg.norm(m, 2))

    def test_identity_and_hermitian_flags(self):
        assert q.identity_operator(3).is_identity
        assert q.FactorOperator(PAULI_X).is_hermitian
        assert not q.FactorOperator(((0.0, 1.0), (0.0, 0.0))).is_hermitian

    def test_apply_to(self):
        out = q.FactorOperator(PAULI_X).apply_to(E0)
        assert out.amplitudes == (0.0, 1.0)
        with pytest.raises(q.ShapeMismatch):
            q.FactorOperator(PAULI_X).apply_to(q.basis_vector(3, 0))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 16).flatmap(lambda d: st.tuples(
        st.lists(_complex, min_size=d * d, max_size=d * d),
        st.lists(_complex, min_size=d, max_size=d),
    )))
    def test_apply_to_matches_the_generator(self, case):
        entries, amplitudes = case
        m = np.array(entries, dtype=complex).reshape(len(amplitudes), -1)
        u, f = q.FactorOperator(m), q.FactorVector(amplitudes)
        out = u.matrix @ np.asarray(f.amplitudes, dtype=complex)
        try:
            want = q.FactorVector(tuple(complex(c) for c in out))
        except q.InvalidAmplitude as exc:  # an entry past the float range
            with pytest.raises(q.InvalidAmplitude, match=f"^{re.escape(str(exc))}$"):
                u.apply_to(f)
            return
        got = u.apply_to(f)
        assert all(type(c) is complex for c in got.amplitudes)
        assert complex_bits(got.amplitudes) == complex_bits(want.amplitudes)

    def test_matrix_is_read_only(self):
        u = q.FactorOperator(PAULI_X)
        with pytest.raises(ValueError):
            u.matrix[0, 0] = 5.0


class TestFactoredOperator:
    def test_needs_terms(self):
        with pytest.raises(q.PreconditionViolated):
            q.FactoredOperator(())

    def test_terms_must_agree_on_dims(self):
        a = q.OperatorTerm(1.0, (q.identity_operator(2),), q.IdentityTail(2))
        b = q.OperatorTerm(1.0, (q.identity_operator(3),), q.IdentityTail(2))
        with pytest.raises(q.ShapeMismatch):
            q.FactoredOperator((a, b))

    def test_support_and_finiteness(self):
        op = single_site(PAULI_X, site=2)
        assert op.finite_support
        assert op.support == (2,)
        assert not global_op(PAULI_Z).finite_support

    def test_norm_bound_dominates_dense_norm(self):
        rng = np.random.default_rng(9)
        for _ in range(8):
            op = random_operator(rng, dim=2, n_terms=2, max_prefix=2)
            bound = op.norm_bound(4)
            dense = densify_operator(op, 4)
            assert bound + 1e-9 >= np.linalg.norm(dense, 2)

    @staticmethod
    def _scaled_tail_operator(tail_norm):
        """Two terms: a 3-site prefix under a tail scaled to ``tail_norm``,
        and a finitely supported one."""
        prefix = (np.diag([2.0, 0.5]), np.array(PAULI_X), np.diag([0.25, 1.0]))
        return q.FactoredOperator((
            q.OperatorTerm(
                0.5 - 1j,
                tuple(q.FactorOperator(m) for m in prefix),
                q.ConstantOperatorTail(q.FactorOperator(tail_norm * np.array(PAULI_Z))),
            ),
            q.OperatorTerm(3.0, (q.FactorOperator(np.eye(2)),), q.IdentityTail(2)),
        ))

    @staticmethod
    def _site_by_site(op, truncation):
        total = 0.0
        for t in op.terms:
            prod = 1.0
            for site in range(truncation):
                u = t.op_at(site)
                prod *= u.norm_bound if u is not None else 1.0
            total += abs(t.coefficient) * prod
        return total

    @pytest.mark.parametrize("tail_norm", [0.5, 1.5])
    def test_norm_bound_reads_the_tail_in_closed_form(self, tail_norm):
        op = self._scaled_tail_operator(tail_norm)
        # within the prefix, and for no sites at all, the bits are the loop's
        for truncation in (-1, 0, 1, 2, 3):
            assert op.norm_bound(truncation) == self._site_by_site(op, truncation)
        assert op.norm_bound(-5) == abs(0.5 - 1j) + 3.0
        assert op.norm_bound(1000) == pytest.approx(self._site_by_site(op, 1000), rel=1e-12)
        # 10**12 sites would take days one at a time
        far = op.norm_bound(10**12)
        assert far == (3.0 if tail_norm < 1.0 else math.inf)

    @pytest.mark.parametrize("d", range(1, 17))
    def test_norm_bound_keeps_the_per_matrix_bits(self, d):
        # each run's norms are one batched SVD; the loop reads one per site
        rng = np.random.default_rng(40 + d)
        e = d % 16 + 1
        ops = tuple(q.FactorOperator(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
                    for n in [d] * 3 + [e] * 2 + [d])
        op = q.FactoredOperator((
            q.OperatorTerm(0.3 + 0.4j, ops, q.ConstantOperatorTail(ops[0])),
            q.OperatorTerm(-2.0, ops[:5], q.ConstantOperatorTail(ops[1])),
        ))
        # up to one tail site past each prefix, where the closed form is the loop
        for truncation in range(-1, 7):
            assert op.norm_bound(truncation) == self._site_by_site(op, truncation)

    # prefix dims of two terms and their tail dims: the terms differ at the
    # first site, inside a run, where one prefix ends, only past the longer
    # prefix of the two but inside a third's, in the tails alone, or nowhere
    TERM_DIMS = [
        (([3, 2, 2], 2), ([2, 2, 2], 2)),
        (([2, 2, 3, 3], 2), ([2, 2, 3, 2], 2)),
        (([2, 2], 3), ([2, 2, 2, 2], 3)),
        (([2], 3), ([2, 2], 4)),
        (([2, 2], 2), ([2, 2], 3)),
        (([2, 4, 2], 2), ([2, 4], 2)),
    ]

    @pytest.mark.parametrize("dims", TERM_DIMS)
    def test_terms_disagreeing_on_dims_are_named_as_site_by_site(self, dims):
        terms = [
            q.OperatorTerm(1.0, tuple(map(q.identity_operator, prefix)),
                           q.ConstantOperatorTail(q.identity_operator(tail)))
            for prefix, tail in dims
        ]
        terms.append(q.OperatorTerm(1.0, tuple(map(q.identity_operator, [2] * 8)), terms[0].tail))
        first, span = terms[0], 8
        want = None
        for t in terms[1:]:  # the site-by-site check the run-wise one replaced
            bad = [s for s in range(span) if t.dim_at(s) != first.dim_at(s)]
            if bad:
                site = bad[0]
                want = f"terms disagree on dim at site {site}: {t.dim_at(site)} vs {first.dim_at(site)}"
            elif t.tail.dim != first.tail.dim:
                want = "terms disagree on tail dim"
            if want:
                break
        if want is None:
            q.FactoredOperator(tuple(terms))
            return
        with pytest.raises(q.ShapeMismatch, match=f"^{re.escape(want)}$"):
            q.FactoredOperator(tuple(terms))

    def test_state_dim_mismatch(self):
        three = q.make_product_state((), q.ConstantTail(q.basis_vector(3, 0)))
        with pytest.raises(q.ShapeMismatch):
            q.apply_operator(single_site(PAULI_X), three)

    # (operator prefix dims, tail dim), (state prefix dims, tail dim): a
    # mismatch at the first site, a middle site, the last prefix site of
    # either side, in the tail, and none
    MISMATCHES = [
        (([3] + [2] * 9, 2), ([2] * 100, 2)),
        (([2] * 10, 2), ([2] * 50 + [3] * 50, 2)),
        (([2] * 10, 2), ([2] * 99 + [1], 2)),
        (([2] * 9 + [4], 2), ([2] * 100, 2)),
        (([2] * 70, 2), ([2] * 70, 3)),
        (([4] * 80, 2), ([4] * 80, 2)),
    ]

    @pytest.mark.parametrize("op_dims, state_dims", MISMATCHES)
    def test_state_dim_mismatch_messages(self, op_dims, state_dims):
        from qsectors.operators import _check_op_state_dims

        rng = np.random.default_rng(0)
        op = q.FactoredOperator((
            q.OperatorTerm(
                1.0,
                tuple(q.identity_operator(d) for d in op_dims[0]),
                q.ConstantOperatorTail(q.identity_operator(op_dims[1])),
            ),
        ))
        state = q.ProductState(
            tuple(random_factor(rng, d) for d in state_dims[0]),
            q.ConstantTail(random_factor(rng, state_dims[1])),
        )
        message = _op_state_message_by_site(op, state)
        if message is None:
            _check_op_state_dims(op, state)
            return
        with pytest.raises(q.ShapeMismatch) as err:
            _check_op_state_dims(op, state)
        assert str(err.value) == message


def _op_state_message_by_site(op, state):
    """The site-by-site check _check_op_state_dims replaced, as a reference."""
    span = max(max(len(t.prefix_ops) for t in op.terms), state.prefix_len)
    for site in range(span):
        if op.dim_at(site) != state.dim_at(site):
            return (
                f"operator dim {op.dim_at(site)} vs state dim "
                f"{state.dim_at(site)} at site {site}"
            )
    if op.tail_dim != state.tail_dim:
        return f"operator tail dim {op.tail_dim} vs state tail dim {state.tail_dim}"
    return None


class TestApplyOperator:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            op = random_operator(rng, dim=2, n_terms=2, max_prefix=2)
            s = random_product_state(rng, dim=2, unit=False)
            n = 4
            got = densify(q.apply_operator(op, s), n).amplitudes
            want = densify_operator(op, n) @ densify(s, n).amplitudes
            assert np.max(np.abs(got - want)) < 1e-10

    def test_constant_tail_is_rotated(self):
        out = q.apply_operator(global_op(PAULI_X), constant_state())
        term_state = out.terms[0][1]
        assert isinstance(term_state.tail, q.ConstantTail)
        assert term_state.tail.vector.amplitudes == (0.0, 1.0)

    def test_parametric_tail_keeps_certificate(self):
        s = random_product_state(np.random.default_rng(1), dim=2, parametric=True)
        op = global_op(2.0 * np.eye(2))
        out = q.apply_operator(op, s)
        new_tail = out.terms[0][1].tail
        assert isinstance(new_tail, q.ParametricTail)
        # the bound stretches by at most the operator norm
        assert new_tail.decay.scale == pytest.approx(2.0 * s.tail.decay.scale)
        assert new_tail.factor_at(3).amplitudes == pytest.approx(
            tuple(2.0 * a for a in s.tail.factor_at(3).amplitudes)
        )


DECLARATIONS = [
    q.DecaySpec("geometric", ratio=0.6, scale=0.3),
    q.DecaySpec("p-series", p=1.5, scale=0.3),
    q.DecaySpec("eventually-constant", rank=4, scale=0.3),
    q.DecaySpec("custom-certified", scale=0.3),
]


def declared_state(decay, limit_norm=1.0):
    limit = PLUS.scaled(limit_norm)

    def fn(n):
        return q.FactorVector((limit.amplitudes[0] + 0.1 * 0.5**n, limit.amplitudes[1]))

    return q.make_product_state((E0,), q.ParametricTail(2, fn, limit, decay))


class TestDeclarationsSurviveFactorwiseMaps:
    """Factor-wise maps rescale a declared decay and keep everything else."""

    @staticmethod
    def assert_rescaled(new, old, scale):
        assert (new.kind, new.ratio, new.p, new.rank) == (
            old.kind,
            old.ratio,
            old.p,
            old.rank,
        )
        assert new.scale == scale

    @pytest.mark.parametrize("decay", DECLARATIONS, ids=lambda d: d.kind)
    def test_normed_representative(self, decay):
        s = declared_state(decay, limit_norm=0.8)
        new = q.normed_representative(s).tail.decay
        self.assert_rescaled(new, decay, 2.0 * decay.scale / s.tail.limit.norm)

    @pytest.mark.parametrize("decay", DECLARATIONS, ids=lambda d: d.kind)
    def test_apply_operator_with_constant_tail(self, decay):
        op = global_op(((0.0, 2.0), (1.0, 0.0)))
        out = q.apply_operator(op, declared_state(decay))
        new = out.terms[0][1].tail.decay
        self.assert_rescaled(new, decay, decay.scale * op.terms[0].tail.operator.norm_bound)


class TestTermImages:
    """A term maps one factor, or a block of factor rows, site by site."""

    @staticmethod
    def terms(rng):
        ops = [q.FactorOperator(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
               for _ in range(11)]
        for prefix in ((), ops[:3], ops[:10]):
            yield q.OperatorTerm(1.0, prefix, q.IdentityTail(2))
            yield q.OperatorTerm(1.0, prefix, q.ConstantOperatorTail(ops[10]))

    def test_image_at_is_the_factor_or_its_operator_image(self):
        rng = np.random.default_rng(5)
        f = random_factor(rng, 2)
        for t in self.terms(rng):
            for site in range(14):
                u = t.op_at(site)
                image = t.image_at(site, f)
                if u is None:
                    assert image is f
                else:
                    want = u.apply_to(f)
                    assert np.array(image.amplitudes).tobytes() == np.array(want.amplitudes).tobytes()

    # (lo, sites) of each block.  Over the 3- and 10-site prefix operators,
    # blocks from 0, 2 and 8 start before or inside them and may end inside
    # them; those from 12 start past.  The mixed prefix has dims d, e, d over
    # [0, 4), [4, 9), [9, 12) and blocks keep one dim: before the change,
    # inside the changed run, and past it into the tail.
    BLOCKS = ((0, 2), (0, 40), (2, 5), (8, 6), (12, 30))
    MIXED_BLOCKS = ((0, 4), (1, 2), (4, 5), (5, 3), (8, 1), (9, 3), (10, 8), (12, 30))

    @staticmethod
    def mixed_prefix(rng, d):
        e = d % 16 + 1
        return [q.FactorOperator(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
                for n in [d] * 4 + [e] * 5 + [d] * 3]

    @pytest.mark.parametrize("d", range(1, 17))
    def test_image_rows_keep_the_bits_of_image_at(self, d):
        rng = np.random.default_rng(d)
        ops = [q.FactorOperator(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
               for _ in range(11)]
        mixed = self.mixed_prefix(rng, d)
        for prefix, blocks in (((), self.BLOCKS), (ops[:3], self.BLOCKS),
                               (ops[:10], self.BLOCKS), (mixed, self.MIXED_BLOCKS)):
            for tail in (q.IdentityTail(d), q.ConstantOperatorTail(ops[10])):
                t = q.OperatorTerm(1.0, prefix, tail)
                kept = dict(vars(t))
                for _ in range(2):  # the second pass reads the arrays the first read
                    for lo, sites in blocks:
                        dim = t.dim_at(lo)
                        f = rng.normal(size=(sites, dim)) + 1j * rng.normal(size=(sites, dim))
                        out = np.empty_like(f)
                        t.image_rows(lo, f, out)
                        for k, row in enumerate(f):
                            want = t.image_at(lo + k, q.FactorVector(tuple(row.tolist())))
                            assert out[k].tobytes() == np.array(want.amplitudes).tobytes()
                # images read the term's own arrays and cache nothing beside them
                assert vars(t).keys() == kept.keys()
                assert all(vars(t)[k] is v for k, v in kept.items())

    def test_images_leave_the_term_as_it_is(self):
        rng = np.random.default_rng(3)
        tail = q.ConstantOperatorTail(q.FactorOperator(rng.normal(size=(2, 2))))
        t = q.OperatorTerm(0.5 - 1j, self.mixed_prefix(rng, 2), tail)
        twin = q.OperatorTerm(t.coefficient, t.prefix_ops, t.tail)
        before = (hash(t), repr(t), pickle.dumps(t))
        f = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        out = np.empty_like(f)
        t.image_rows(4, f, out)
        assert [m.shape for m in t.prefix_matrices] == [(4, 2, 2), (5, 3, 3), (3, 2, 2)]
        assert all(not m.flags.writeable for m in t.prefix_matrices)
        assert t == twin and (hash(t), repr(t), pickle.dumps(t)) == before
        back = pickle.loads(before[2])
        assert back == t and repr(back) == repr(t)
        again = np.empty_like(f)
        back.image_rows(4, f, again)
        assert again.tobytes() == out.tobytes()


# Pickles frozen from the release that built each prefix operator when its
# term was built and took every operator's SVD norm there, with the norm in
# its pickled state: a term with prefix dims 2, 2, 1 and a constant tail,
# and the second of its prefix operators alone.
_M1 = np.array([[0.5, 1 - 2j], [0.25j, -0.0]])
_M2 = np.array([[2.0]])
_M3 = np.array([[1e-300, 3.5], [-1.5, 1e300j]])
_EARLIER_TERM_PICKLE = (
    "gASV6QIAAAAAAACMEnFzZWN0b3JzLm9wZXJhdG9yc5SMDE9wZXJhdG9yVGVybZSTlCmBlH2UKIwL"
    "Y29lZmZpY2llbnSUjAhidWlsdGluc5SMB2NvbXBsZXiUk5RHP+AAAAAAAABHv/AAAAAAAACGlFKU"
    "jApwcmVmaXhfb3BzlGgAjA5GYWN0b3JPcGVyYXRvcpSTlCmBlH2UKIwGbWF0cml4lIwWbnVtcHku"
    "X2NvcmUubXVsdGlhcnJheZSMDF9yZWNvbnN0cnVjdJSTlIwFbnVtcHmUjAduZGFycmF5lJOUSwCF"
    "lEMBYpSHlFKUKEsBSwJLAoaUaBSMBWR0eXBllJOUjANjMTaUiYiHlFKUKEsDjAE8lE5OTkr/////"
    "Sv////9LAHSUYolDQAAAAAAAAOA/AAAAAAAAAAAAAAAAAADwPwAAAAAAAADAAAAAAAAAAAAAAAAA"
    "AADQPwAAAAAAAACAAAAAAAAAAACUdJRijApub3JtX2JvdW5klEdAAlXnFEm/WXViaA0pgZR9lCho"
    "EGgTaBZLAIWUaBiHlFKUKEsBSwJLAoaUaCCJQ0BZ8/jCH26lAQAAAAAAAAAAAAAAAAAADEAAAAAA"
    "AAAAAAAAAAAAAPi/AAAAAAAAAAAAAAAAAAAAAJx1AIg85Dd+lHSUYmglR3435DyIAHWcdWJoDSmB"
    "lH2UKGgQaBNoFksAhZRoGIeUUpQoSwFLAUsBhpRoIIlDEAAAAAAAAABAAAAAAAAAAACUdJRiaCVH"
    "QAAAAAAAAAB1YoeUjAR0YWlslGgAjBRDb25zdGFudE9wZXJhdG9yVGFpbJSTlCmBlH2UjAhvcGVy"
    "YXRvcpRoDSmBlH2UKGgQaBNoFksAhZRoGIeUUpQoSwFLAksChpRoIIlDQAAAAAAAAOA/AAAAAAAA"
    "AAAAAAAAAAAAAAAAAAAAANA/AAAAAAAA8D8AAAAAAAAAwAAAAAAAAACAAAAAAAAAAACUdJRiaCVH"
    "QAJV5xRJv1p1YnNidWIu"
)
_EARLIER_OPERATOR_PICKLE = (
    "gASVGwEAAAAAAACMEnFzZWN0b3JzLm9wZXJhdG9yc5SMDkZhY3Rvck9wZXJhdG9ylJOUKYGUfZQo"
    "jAZtYXRyaXiUjBZudW1weS5fY29yZS5tdWx0aWFycmF5lIwMX3JlY29uc3RydWN0lJOUjAVudW1w"
    "eZSMB25kYXJyYXmUk5RLAIWUQwFilIeUUpQoSwFLAksChpRoCYwFZHR5cGWUk5SMA2MxNpSJiIeU"
    "UpQoSwOMATyUTk5OSv////9K/////0sAdJRiiUNAWfP4wh9upQEAAAAAAAAAAAAAAAAAAAxAAAAA"
    "AAAAAAAAAAAAAAD4vwAAAAAAAAAAAAAAAAAAAACcdQCIPOQ3fpR0lGKMCm5vcm1fYm91bmSUR343"
    "5DyIAHWcdWIu"
)
# sha256 of the pickle of a term with no operator, which keeps its bytes
_BARE_TERM_PICKLE_SHA256 = "c14eaa1a663562750fb5cf4e9619aaf9fdc3381922eed163bbf76958795e96fb"


def _count_norms(monkeypatch):
    """The shapes passed to every 2-norm (an SVD) taken from now on."""
    calls, real = [], np.linalg.norm

    def spy(x, ord=None, *args, **kwargs):
        if ord == 2:
            calls.append(np.shape(x))
        return real(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", spy)
    return calls


def _hermitian(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + m.conj().T) / 2


class TestOperatorsOnDemand:
    """A term keeps its prefix operators as arrays and builds FactorOperators
    on demand; an operator takes its SVD norm on the first read of it."""

    @staticmethod
    def term():
        return q.OperatorTerm(
            0.5 - 1j,
            tuple(map(q.FactorOperator, (_M1, _M3, _M2))),
            q.ConstantOperatorTail(q.FactorOperator(_M1.T.copy())),
        )

    def test_earlier_pickles_load_to_equal_objects(self):
        back = pickle.loads(base64.b64decode(_EARLIER_TERM_PICKLE))
        want = self.term()
        assert back == want and hash(back) == hash(want) and repr(back) == repr(want)
        assert back.dim_runs == ((2, 2), (3, 1)) and back.prefix_len == 3
        assert [m.shape for m in back.prefix_matrices] == [(2, 2, 2), (1, 1, 1)]
        assert all(not m.flags.writeable for m in back.prefix_matrices)
        u = pickle.loads(base64.b64decode(_EARLIER_OPERATOR_PICKLE))
        assert u == q.FactorOperator(_M3) and vars(u)["norm_bound"] == 1e300
        # pickled again, each leaves its norm out
        assert b"norm_bound" not in pickle.dumps(u) + pickle.dumps(back)
        assert pickle.loads(pickle.dumps(back)) == want

    def test_norm_bound_is_read_once_and_left_out_of_pickles(self, monkeypatch):
        calls = _count_norms(monkeypatch)
        u = q.FactorOperator(_M3)
        assert calls == [] and "norm_bound" not in vars(u)
        assert u.norm_bound == 1e300 and u.norm_bound == 1e300
        assert calls == [(2, 2)]
        data = pickle.dumps(u)
        assert b"norm_bound" not in data
        back = pickle.loads(data)
        assert back == u and "norm_bound" not in vars(back) and back.norm_bound == 1e300
        # the matrix its hash reads stays read-only through a pickle
        assert not back.matrix.flags.writeable
        assert not pickle.loads(base64.b64decode(_EARLIER_OPERATOR_PICKLE)).matrix.flags.writeable
        term = pickle.loads(pickle.dumps(self.term()))
        assert not term.tail.operator.matrix.flags.writeable
        bare = q.OperatorTerm(1.0, (), q.IdentityTail(3))
        assert hashlib.sha256(pickle.dumps(bare)).hexdigest() == _BARE_TERM_PICKLE_SHA256

    def test_operators_compare_by_their_matrices(self):
        a, b = q.FactorOperator(_M1), q.FactorOperator(_M1.copy())
        assert a == b and hash(a) == hash(b) and a is not b
        zero, negative_zero = (q.FactorOperator(z * np.zeros((2, 2))) for z in (1.0, -1.0))
        assert zero == negative_zero and hash(zero) == hash(negative_zero)
        assert a != q.FactorOperator(_M1.T.copy()) and a != q.identity_operator(3)
        assert a.__eq__(_M1) is NotImplemented

    def test_a_transposed_matrix_is_kept_row_major(self):
        u = q.FactorOperator(_M1.T)
        assert u.matrix.flags.c_contiguous and u == q.FactorOperator(_M1.T.copy())

    def test_prefix_operators_are_built_on_each_read(self):
        t = self.term()
        first, second = t.prefix_ops, t.prefix_ops
        assert first == second and all(a is not b for a, b in zip(first, second))
        given = [m.astype(complex).tobytes() for m in (_M1, _M3, _M2)]
        assert [u.matrix.tobytes() for u in first] == given
        assert all(not u.matrix.flags.writeable for u in first)
        assert t.op_at(1) == first[1] and t.op_at(2).dim == 1 and t.op_at(3) is t.tail.operator
        with pytest.raises(q.InvalidAmplitude, match="prefix_ops entries must be FactorOperator"):
            q.OperatorTerm(1.0, (_M1,), q.IdentityTail(2))

    def test_decode_and_evolve_on_a_constant_tail_take_no_norm(self, monkeypatch):
        rng = np.random.default_rng(12)
        hs = [q.FactorOperator(_hermitian(rng, 2)) for _ in range(3)]
        term = q.OperatorTerm(1.0, tuple(hs[:2]), q.ConstantOperatorTail(hs[2]))
        gen = q.FactoredOperator((term,))
        doc = serialize.dumps(serialize.encode_operator(gen))
        state = random_product_state(rng, dim=2, max_prefix=3)
        calls = _count_norms(monkeypatch)
        decoded = serialize.decode_operator(serialize.loads(doc))
        q.evolve(decoded, state, 0.3, 300)
        q.apply_operator(decoded, state)
        assert calls == []
        # a declared tail stretches its scale by the tail operator's norm, read once
        declared = declared_state(DECLARATIONS[0])
        for _ in range(2):
            q.apply_operator(decoded, declared)
        assert calls == [(2, 2)]

    def test_norms_past_the_float_range(self):
        big = q.FactorOperator(np.array([[1.7e308, 1.7e308], [0.0, 0.0]]))
        assert big.norm_bound == math.inf
        op = global_op(big.matrix)
        # a constant tail takes no scale, so 0 * inf is never formed
        out = q.apply_operator(op, constant_state())
        assert out.terms[0][1].tail.vector.amplitudes == (1.7e308 + 0j, 0j)
        for scale in (0.0, 0.5):  # 0 * inf is NaN, 0.5 * inf is inf: both refused
            decay = q.DecaySpec("geometric", ratio=0.5, scale=scale)
            state = q.make_product_state((), q.ParametricTail(2, lambda n: E0, E0, decay))
            with pytest.raises(q.UndeclaredTailClass, match="decay scale must be finite"):
                q.apply_operator(op, state)
        prefixed = q.FactoredOperator((q.OperatorTerm(1.0, (big,), q.IdentityTail(2)),))
        assert prefixed.norm_bound(3) == math.inf
        zero = q.FactoredOperator((q.OperatorTerm(0.0, (big,), q.ConstantOperatorTail(big)),))
        assert math.isnan(zero.norm_bound(3))


class TestSectorAction:
    def test_requires_non_trivial_state(self):
        shrink = constant_state(tail_vec=q.FactorVector((0.9, 0.0)))
        with pytest.raises(q.PreconditionViolated):
            q.sector_action(single_site(PAULI_X), shrink)

    def test_requires_unit_factors(self):
        s = q.make_product_state(
            (q.FactorVector((2.0, 0.0)),), q.ConstantTail(E0)
        )
        with pytest.raises(q.PreconditionViolated):
            q.sector_action(single_site(PAULI_X), s)

    def test_finite_support_preserves(self):
        v = q.sector_action(single_site(PAULI_X, site=3), constant_state())
        assert v.kind == "PreservesSector"
        assert v.witness["kind"] == "finite-support"
        assert v.witness["support"] == (3,)

    def test_fixed_tail_preserves(self):
        phase = ((1.0, 0.0), (0.0, cmath.exp(0.3j)))
        v = q.sector_action(global_op(phase), constant_state())
        assert v.kind == "PreservesSector"
        assert v.witness["kind"] == "fixed-tail"

    def test_rotation_leaves(self):
        c, s = math.cos(0.25), math.sin(0.25)
        v = q.sector_action(global_op(((c, -s), (s, c))), constant_state())
        assert v.kind == "LeavesSector"
        w = v.witness["witness"]
        assert w["modulus_deficit"] == pytest.approx(1.0 - c)

    def test_tail_annihilation_is_inconclusive(self):
        lower = ((0.0, 0.0), (1.0, 0.0))
        v = q.sector_action(global_op(lower), constant_state(tail_vec=E1))
        assert v.kind == "Inconclusive"
        assert "annihilates" in v.witness["reason"]

    def test_gray_rotation_is_inconclusive(self):
        theta = 3e-5  # deficit theta^2/2 ~ 4.5e-10 lands between thresholds
        c, s = math.cos(theta), math.sin(theta)
        v = q.sector_action(global_op(((c, -s), (s, c))), constant_state(tail_vec=PLUS))
        assert v.kind == "Inconclusive"

    def test_zero_coefficient_terms_are_skipped(self):
        op = q.FactoredOperator(
            (
                q.OperatorTerm(0.0, (), q.ConstantOperatorTail(q.FactorOperator(PAULI_X))),
                q.OperatorTerm(1.0, (q.FactorOperator(PAULI_Z),), q.IdentityTail(2)),
            )
        )
        v = q.sector_action(op, constant_state())
        assert v.kind == "PreservesSector"


class TestExpectationSweep:
    # The bit-identity tests below hold where the sites past 64 are explicit
    # prefix sites or plain callbacks (``random_product_state``'s parametric
    # tails), which both sweeps walk the same way; decoded tails are
    # compared with the site-by-site walk in TestBlockWalkedImages.

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            op = random_operator(rng, dim=2, n_terms=2, max_prefix=2)
            s = random_product_state(rng, dim=2, unit=False)
            sweep = q.expectation_sweep(op, s, [3, 5])
            for n, v in zip(sweep.truncations, sweep.values):
                want = dense_expectation(densify_operator(op, n), densify(s, n))
                assert abs(v - want) < 1e-10 * max(1.0, abs(want))

    @pytest.mark.parametrize("parametric", [False, True])
    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_bit_identical_to_overlap_sweep_of_image(self, seed, parametric):
        # both walk the same pairs; only where the images come from differs
        rng = np.random.default_rng(seed)
        op = random_operator(rng, dim=3, n_terms=4, max_prefix=3)
        s = random_product_state(rng, dim=3, max_prefix=5, parametric=parametric)
        self.assert_same_bits(op, s, [1, 2, 7, 64, 65, 150])

    @pytest.mark.parametrize("parametric", [False, True])
    @pytest.mark.parametrize("seed", [5, 10, 13])
    def test_bit_identical_to_overlap_sweep_of_image_in_blocks(self, seed, parametric):
        # these seeds draw explicit prefixes of 91, 326 and 278 sites and
        # constant tail operators, so images are bracketed in blocks
        rng = np.random.default_rng(seed)
        op = random_operator(rng, dim=3, n_terms=4, max_prefix=120)
        s = random_product_state(rng, dim=3, max_prefix=400, parametric=parametric)
        assert s.prefix_len > 64
        self.assert_same_bits(op, s, [1, 2, 7, 64, 65, 100, 150, 300, 401, 450])

    @pytest.mark.parametrize("constant", [False, True])
    def test_bit_identical_to_overlap_sweep_of_image_across_a_dim_change(self, constant):
        # blocks of the middle dim end where the prefix operators do, so no
        # row of theirs meets the tail operator, which has the other dim
        rng = np.random.default_rng(8)
        dims = [2] * 80 + [3] * 30 + [2] * 40
        s = q.ProductState(tuple(random_factor(rng, d) for d in dims), q.ConstantTail(E0))
        terms = []
        for n_ops in (110, 130):
            ops = tuple(q.FactorOperator(rng.normal(size=(d, d)) + 0j) for d in dims[:n_ops])
            u = q.FactorOperator(rng.normal(size=(2, 2)) + 0j)
            tail = q.ConstantOperatorTail(u) if constant else q.IdentityTail(2)
            terms.append(q.OperatorTerm(complex(rng.normal(), 1.0), ops, tail))
        cuts = [1, 64, 65, 100, 110, 111, 150, 200]
        self.assert_same_bits(q.FactoredOperator(tuple(terms)), s, cuts)

    @staticmethod
    def assert_same_bits(op, s, cuts):
        got = q.expectation_sweep(op, s, cuts)
        want = q.overlap_sweep(s, q.apply_operator(op, s), cuts)
        assert got.truncations == want.truncations
        assert repr(got.values) == repr(want.values)
        assert repr(got.log_modulus) == repr(want.log_modulus)

    def test_requires_cuts(self):
        with pytest.raises(q.PreconditionViolated):
            q.expectation_sweep(single_site(PAULI_Z), constant_state(), [])

    def test_projector_expectation_decays_geometrically(self):
        # <+|0><0|+> per site, so the running expectation halves each cut
        proj = ((1.0, 0.0), (0.0, 0.0))
        sweep = q.expectation_sweep(
            global_op(proj), constant_state(tail_vec=PLUS), range(1, 30)
        )
        for n, v in zip(sweep.truncations, sweep.values):
            assert abs(v - 0.5**n) < 1e-14


# -- operator images in the block stretch -------------------------------------
#
# A decoded tail (a canonical family) has closed rows, so its operator images
# are bracketed in blocks as far as the state's own rows reach: up to the
# first run start of a pair, or the last cut.  Cuts <= DIRECT_LIMIT keep the
# bits of the site-by-site walk; later cuts agree with it within the rounding
# room of its per-site sums.

IMAGE_CUTS = [1, 5, 63, 64, 65, 66, 71, 100, 151, 700]

# (prefix operator count, constant tail operator) per term, one operator each
# for 1 to 4 terms; prefixes of 66 to 120 operators cross site 64
IMAGE_TERMS = (
    ((70, True),),
    ((0, True), (90, False)),
    ((3, False), (66, True), (120, True)),
    ((0, False), (80, True), (5, True), (100, False)),
)


def _image_operator(rng, terms, dims, tail_dim=2):
    """One term per (prefix operator count, constant tail) of ``terms``, the
    prefix operators over ``dims`` and then ``tail_dim``, near the identity."""

    def near_identity(d):
        return q.FactorOperator(np.eye(d) + 0.3 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))))

    out = []
    for n_ops, constant in terms:
        ops = tuple(near_identity(dims[k] if k < len(dims) else tail_dim) for k in range(n_ops))
        tail = q.ConstantOperatorTail(near_identity(tail_dim)) if constant else q.IdentityTail(tail_dim)
        out.append(q.OperatorTerm(complex(rng.normal(), rng.normal()), ops, tail))
    return q.FactoredOperator(tuple(out))


def _image_cases():
    """name -> (op, state): each decoded family, plain and moved 70 sites,
    under two of IMAGE_TERMS, so every family meets 1 to 4 terms; and a state
    whose prefix dims change under operators that cross the change."""
    rng = np.random.default_rng(31)
    w = random_factor(rng, 2)
    cases, i = {}, 0
    for family in ("geometric", "p-series", "rank-inside"):
        for shift in (0, 70):
            state = decoded_family(rng, family, 4, near(rng, w), shift)
            for k in (i % 4, (i + 2) % 4):
                op = _image_operator(rng, IMAGE_TERMS[k], [2] * 4)
                cases[f"{family}{'-shifted' if shift else ''}-{k + 1}-terms"] = (op, state)
            i += 1
    dims = [2] * 40 + [3] * 40 + [2] * 10
    family = decoded_family(rng, "geometric", 0, near(rng, w))
    prefix = tuple(random_factor(rng, d) for d in dims)
    cases["dim-change"] = (
        _image_operator(rng, ((85, True), (100, False)), dims),
        q.ProductState(prefix, family.tail),
    )
    return cases


IMAGE_CASES = _image_cases()


def _count_images(monkeypatch):
    """The site of every ``image_at`` call."""
    sites = []
    real = q.OperatorTerm.image_at

    def counting(term, site, f):
        sites.append(site)
        return real(term, site, f)

    monkeypatch.setattr(q.OperatorTerm, "image_at", counting)
    return sites


def _blocks_past_64(name):
    """Whether the block stretch of the case reaches past DIRECT_LIMIT.  An
    eventually-constant family's pairs start their runs at the prefix end or
    where a term's prefix operators end; the block stretch ends at the first
    of them, so when that lies at or below DIRECT_LIMIT the pairs still
    outside a run go site by site, as they do in an overlap sweep."""
    op, state = IMAGE_CASES[name]
    if not state.run_starts:
        return True
    return min(max(state.run_starts[0], len(t.prefix_ops)) for t in op.terms) > overlaps.DIRECT_LIMIT


def _pairs(sweep):
    return list(zip(sweep.values, sweep.log_modulus))


class TestBlockWalkedImages:
    @pytest.mark.parametrize("name", sorted(IMAGE_CASES))
    def test_agrees_with_the_site_by_site_walk(self, name, monkeypatch):
        op, state = IMAGE_CASES[name]
        cuts = sorted(IMAGE_CUTS + ([80, 81, 85, 86, 90, 91] if name == "dim-change" else []))
        got = q.expectation_sweep(op, state, cuts)
        want = site_by_site(monkeypatch, q.expectation_sweep, op, state, cuts)
        image = q.apply_operator(op, state)
        assert_walks_agree(state, image, _pairs(got), _pairs(want), cuts)

    @pytest.mark.parametrize("name", sorted(n for n in IMAGE_CASES if _blocks_past_64(n)))
    def test_no_image_is_built_site_by_site_past_64(self, name, monkeypatch):
        """Past DIRECT_LIMIT an image is built only where a pair's run starts."""
        op, state = IMAGE_CASES[name]
        side = overlaps._Terms([state])
        images = operators._Images(op.terms, side)
        assert images.stackable == math.inf
        run_starts = set().union(*images.runs)
        sites = _count_images(monkeypatch)
        q.expectation_sweep(op, state, IMAGE_CUTS)
        assert {n for n in sites if n >= overlaps.DIRECT_LIMIT} <= run_starts
        assert len(sites) <= len(op.terms) * len(run_starts)

    def test_a_plain_callback_keeps_its_images_site_by_site(self, monkeypatch):
        op, state = IMAGE_CASES["p-series-shifted-2-terms"]
        tail = state.tail
        plain = q.ProductState(
            state.prefix,
            q.ParametricTail(tail.dim, tail.factor_fn.__call__, tail.limit, tail.decay, tail.shift),
        )
        sites = _count_images(monkeypatch)
        q.expectation_sweep(op, plain, IMAGE_CUTS)
        past = [n for n in sites if n >= overlaps.DIRECT_LIMIT]
        assert len(past) == len(op.terms) * (IMAGE_CUTS[-1] - overlaps.DIRECT_LIMIT)

    @pytest.mark.parametrize("name", ["geometric-1-terms", "p-series-shifted-4-terms",
                                      "rank-inside-3-terms", "dim-change"])
    def test_small_cuts_match_the_dense_oracle(self, name):
        op, state = IMAGE_CASES[name]
        cuts = [1, 2, 5]
        sweep = q.expectation_sweep(op, state, cuts + [700])
        for n, v in zip(cuts, sweep.values):
            want = dense_expectation(densify_operator(op, n), densify(state, n))
            assert abs(v - want) <= 1e-12 * max(1.0, abs(want))


class TestEvolve:
    def test_survival_traces_a_cosine(self):
        h = single_site(PAULI_X)
        for t in (0.0, 0.3, 1.1, 2.0):
            out = q.evolve(h, constant_state(), t, truncation=5)
            assert abs(out.survival - math.cos(t)) < 1e-12

    def test_preserves_norm(self):
        rng = np.random.default_rng(4)
        h = global_op(np.array(PAULI_Z) * 0.7)
        s = random_product_state(rng, dim=2, max_prefix=2)
        out = q.evolve(h, s, 0.9, truncation=6)
        n = q.composite_overlap(out.state, out.state, 6)
        assert n.real == pytest.approx(1.0, abs=1e-12)

    def test_matches_dense_propagator(self):
        # a constant generator tail means one copy of h per site; the global
        # propagator is then exp(i t sum_k h_k), which must factorize
        from scipy.linalg import expm

        rng = np.random.default_rng(8)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = m + m.conj().T
        s = random_product_state(rng, dim=2, max_prefix=2)
        n, t = 4, 0.37
        out = q.evolve(global_op(h), s, t, truncation=n)
        h_sum = sum(
            np.kron(np.kron(np.eye(2**k), h), np.eye(2 ** (n - 1 - k)))
            for k in range(n)
        )
        want = expm(1j * t * h_sum) @ densify(s, n).amplitudes
        got = densify(out.state, n).amplitudes
        assert np.max(np.abs(got - want)) < 1e-10
        assert abs(out.survival - np.vdot(densify(s, n).amplitudes, want)) < 1e-10

    def test_rejects_multi_term_generator(self):
        op = q.FactoredOperator(
            (
                q.OperatorTerm(1.0, (q.FactorOperator(PAULI_X),), q.IdentityTail(2)),
                q.OperatorTerm(1.0, (q.FactorOperator(PAULI_Z),), q.IdentityTail(2)),
            )
        )
        with pytest.raises(q.NonFactorizableGenerator) as exc:
            q.evolve(op, constant_state(), 1.0, truncation=3)
        assert exc.value.context["n_terms"] == 2

    def test_rejects_complex_coefficient(self):
        with pytest.raises(q.NonHermitianGenerator):
            q.evolve(
                single_site(PAULI_X, coefficient=1.0j),
                constant_state(),
                1.0,
                truncation=3,
            )

    def test_rejects_non_hermitian_matrix(self):
        raising = ((0.0, 1.0), (0.0, 0.0))
        with pytest.raises(q.NonHermitianGenerator):
            q.evolve(single_site(raising), constant_state(), 1.0, truncation=3)

    def test_rejects_oversized_factor(self):
        dim = 17
        big = q.make_product_state((), q.ConstantTail(q.basis_vector(dim, 0)))
        h = q.FactoredOperator(
            (
                q.OperatorTerm(
                    1.0,
                    (),
                    q.ConstantOperatorTail(q.FactorOperator(np.eye(dim))),
                ),
            )
        )
        with pytest.raises(q.DimensionBudgetExceeded):
            q.evolve(h, big, 1.0, truncation=2)

    @pytest.mark.parametrize("d", range(1, 17))
    def test_batched_propagators_keep_the_bits_of_one_matrix(self, d):
        rng = np.random.default_rng(70 + d)
        hs = np.array([_hermitian(rng, d) for _ in range(5)])
        for angle in (0.37, -2.5, 1e3):
            got = operators._propagators(hs, angle)
            for h, u in zip(hs, got):
                lam, v = np.linalg.eigh(h)
                assert u.tobytes() == ((v * np.exp(1j * angle * lam)) @ v.conj().T).tobytes()

    # generator dims of a prefix and its tail, with the sites (the tail as -1)
    # whose generator is not Hermitian: each run is checked at once, so the
    # first refusal in site order must still win, a Hermiticity one before a
    # dim one at the same site
    REFUSALS = [
        ([2, 2, 3, 3], 2, [3]),
        ([2, 2, 3, 3], 2, [1, 3]),
        ([2, 2, 3, 3], 3, [-1]),
        ([2, 17, 17, 2], 2, [2]),
        ([2, 17, 17, 2], 2, [1]),
        ([2, 2, 3], 17, []),
        ([2, 2, 3], 17, [-1]),
        ([3, 2, 2], 2, []),
    ]

    @pytest.mark.parametrize("dims, tail_dim, off", REFUSALS)
    def test_generators_are_refused_in_site_order(self, dims, tail_dim, off):
        rng = np.random.default_rng(len(dims) + tail_dim)
        ms = [_hermitian(rng, d) for d in dims + [tail_dim]]
        for site in off:
            ms[site][0, -1] += 1e-9 if len(ms[site]) > 1 else 1e-9j
        term = q.OperatorTerm(
            1.0, tuple(map(q.FactorOperator, ms[:-1])), q.ConstantOperatorTail(q.FactorOperator(ms[-1]))
        )
        want = None  # the site-by-site checks the run-wise ones replaced
        for site, m in enumerate(ms):
            where = "tail generator" if site == len(dims) else f"prefix generator at site {site}"
            dev = float(np.max(np.abs(m - m.conj().T)))
            if dev > 1e-12:
                want = (q.NonHermitianGenerator, f"{where} deviates from Hermiticity by {dev:.3e}")
            elif len(m) > operators.EVOLVE_DIM_LIMIT:
                want = (q.DimensionBudgetExceeded, f"evolve handles factor dims up to 16, got {len(m)}")
            if want:
                break
        state = q.make_product_state((), q.ConstantTail(q.basis_vector(dims[0], 0)))
        if want is None:
            assert dims[0] != 2  # the state's dims do not fit the generator's
            with pytest.raises(q.ShapeMismatch):
                q.evolve(q.FactoredOperator((term,)), state, 0.5, 4)
            return
        with pytest.raises(want[0], match=f"^{re.escape(want[1])}$"):
            q.evolve(q.FactoredOperator((term,)), state, 0.5, 4)

    def test_non_finite_propagators_are_refused(self):
        # an angle past the float range turns e^{i angle lambda} into NaN
        with np.errstate(invalid="ignore"):
            with pytest.raises(q.InvalidAmplitude, match="operator matrix has non-finite entries"):
                q.evolve(single_site(PAULI_X), constant_state(), math.inf, 3)


# -- refusals and skipped terms -------------------------------------------------

TERM_REFUSALS = {
    "infinite-coefficient": (
        q.InvalidAmplitude, lambda: q.OperatorTerm(math.inf, (), q.IdentityTail(2))
    ),
    "nan-coefficient": (
        q.InvalidAmplitude, lambda: q.OperatorTerm(complex(0.0, math.nan), (), q.IdentityTail(2))
    ),
    "matrix-tail": (q.ShapeMismatch, lambda: q.OperatorTerm(1.0, (), q.FactorOperator(PAULI_X))),
    "dim-tail": (q.ShapeMismatch, lambda: q.OperatorTerm(1.0, (), 2)),
}


@pytest.mark.parametrize("case", sorted(TERM_REFUSALS))
def test_operator_terms_refuse_bad_coefficients_and_tails(case):
    error, build = TERM_REFUSALS[case]
    with pytest.raises(error):
        build()


def test_sector_action_skips_a_term_whose_prefix_operator_annihilates_a_factor():
    # the first term's projector zeroes the first factor E0, so its rotating
    # tail, which alone would leave the sector, never counts
    c, s = math.cos(0.25), math.sin(0.25)
    onto_e1 = q.FactorOperator(((0.0, 0.0), (0.0, 1.0)))
    rotation = q.ConstantOperatorTail(q.FactorOperator(((c, -s), (s, c))))
    op = q.FactoredOperator((
        q.OperatorTerm(1.0, (onto_e1,), rotation),
        q.OperatorTerm(1.0, (), q.IdentityTail(2)),
    ))
    v = q.sector_action(op, constant_state())
    assert v.kind == "PreservesSector"
    assert [r["term"] for r in v.witness["terms"]] == [1]
    alone = q.FactoredOperator((q.OperatorTerm(1.0, (), rotation),))
    assert q.sector_action(alone, constant_state()).kind == "LeavesSector"


@pytest.mark.parametrize("zero_first", [True, False])
def test_sector_action_reads_term_images_in_site_order(zero_first):
    # image_at reads the sites in order: a zero image skips the term before a
    # later image past the float range is reached, and an image past the
    # float range before any zero one is refused
    u = q.FactorVector((0.6, 0.8))
    state = q.ProductState((u, u, u), q.ConstantTail(u))
    zero = q.FactorOperator(np.zeros((2, 2)))
    huge = q.FactorOperator(np.full((2, 2), 1.5e308))
    ops = (q.FactorOperator(np.eye(2)),) + ((zero, huge) if zero_first else (huge, zero))
    flip = q.ConstantOperatorTail(q.FactorOperator(PAULI_X))
    op = q.FactoredOperator((q.OperatorTerm(1.0, ops, flip), q.OperatorTerm(1.0, (), q.IdentityTail(2))))
    if zero_first:
        v = q.sector_action(op, state)
        assert v.kind == "PreservesSector"
        assert [r["term"] for r in v.witness["terms"]] == [1]
    else:
        # FactorOperator.apply_to's matmul warns of the overflow that is then refused
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(q.InvalidAmplitude, match="non-finite amplitude"):
                q.sector_action(op, state)


def _site_readers():
    """name -> (reader of one site, its answer at site 0): the state and
    operator lookups that take a site."""
    x, z = q.FactorOperator(PAULI_X), q.FactorOperator(PAULI_Z)
    state = constant_state((E1, PLUS))
    term = q.OperatorTerm(1.0, (x, z), q.ConstantOperatorTail(z))
    bare = q.OperatorTerm(1.0, (), q.IdentityTail(2))
    return {
        "state-factor-at": (state.factor_at, E1),
        "state-dim-at": (state.dim_at, 2),
        "bare-state-dim-at": (constant_state().dim_at, 2),
        "term-op-at": (term.op_at, x),
        "term-dim-at": (term.dim_at, 2),
        "term-image-at": (lambda site: term.image_at(site, E0), E1),
        "bare-term-op-at": (bare.op_at, None),
        "bare-term-dim-at": (bare.dim_at, 2),
        "bare-term-image-at": (lambda site: bare.image_at(site, E0), E0),
        "operator-dim-at": (q.FactoredOperator((term,)).dim_at, 2),
    }


@pytest.mark.parametrize("site", [-1, -2, -3, -10**6])
@pytest.mark.parametrize("name", sorted(_site_readers()))
def test_negative_sites_are_refused_not_wrapped(name, site):
    read, at_zero = _site_readers()[name]
    with pytest.raises(q.IndexOutOfRange, match=f"negative site {site}"):
        read(site)
    assert read(0) == at_zero
