"""Independent reference values for the output checks.

Nothing here calls qsectors.  Per-site factors of the generated states are
rebuilt with numpy from the same numbers the generators wrote into the JSON
documents, and infinite products come from mpmath.  The checks in
``workloads`` compare the program's outputs with these values.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import mpmath
import numpy as np

CHUNK = 1 << 16
RTOL = 1e-9  # relative tolerance of the vectorized and closed-form checks


@dataclass
class TailSpec:
    """A tail as written into a state document.

    Beyond the prefix the factor at site n is ``limit + w(n) * dev`` with
    w(n) = ratio**n (geometric), (n+1)**-p (p-series), 1 for n < rank and 0
    after (eventually-constant), or no deviation at all (constant).
    """

    kind: str
    limit: np.ndarray
    dev: np.ndarray | None = None
    ratio: float | None = None
    p: float | None = None
    rank: int | None = None
    scale: float = 1.0

    def weights(self, sites: np.ndarray) -> np.ndarray:
        if self.kind == "geometric":
            return self.ratio ** sites.astype(float)
        if self.kind == "p-series":
            return (sites + 1.0) ** (-self.p)
        if self.kind == "eventually-constant":
            return (sites < self.rank).astype(float)
        return np.zeros(len(sites))

    def doc(self) -> dict:
        if self.kind == "constant":
            return {"kind": "constant", "vector": vec_json(self.limit)}
        out = {
            "kind": "parametric",
            "dim": len(self.limit),
            "class": self.kind,
            "scale": self.scale,
            "limit": vec_json(self.limit),
            "deviation": vec_json(self.dev),
        }
        for key in ("ratio", "p", "rank"):
            if getattr(self, key) is not None:
                out[key] = getattr(self, key)
        return out


@dataclass
class StateSpec:
    """Explicit prefix rows plus a tail; mirrors one product-state document."""

    prefix: np.ndarray  # (P, d) complex
    tail: TailSpec
    label: str | None = None

    @property
    def dim(self) -> int:
        return len(self.tail.limit)

    def doc(self) -> dict:
        return {
            "type": "product-state",
            "label": self.label,
            "prefix": [vec_json(v) for v in self.prefix],
            "tail": self.tail.doc(),
        }

    def factors(self, start: int, stop: int) -> np.ndarray:
        sites = np.arange(start, stop)
        out = np.empty((stop - start, self.dim), dtype=complex)
        p = len(self.prefix)
        in_prefix = sites < p
        out[in_prefix] = self.prefix[sites[in_prefix]]
        tail_sites = sites[~in_prefix]
        if len(tail_sites):
            rows = np.broadcast_to(self.tail.limit, (len(tail_sites), self.dim)).copy()
            if self.tail.dev is not None and self.tail.kind != "constant":
                rows = rows + self.tail.weights(tail_sites)[:, None] * self.tail.dev
            out[~in_prefix] = rows
        return out


def cjson(z: complex) -> dict:
    z = complex(z)
    return {"re": float(z.real), "im": float(z.imag)}


def vec_json(v) -> list:
    return [cjson(c) for c in v]


def bracket_logs(site_brackets, cuts: list[int]) -> list[tuple[float, float, bool]]:
    """Running (sum log|g|, sum arg g, hit zero) at each of the sorted cuts.

    ``site_brackets(start, stop)`` returns the per-site brackets of a chunk.
    """
    out = []
    log_sum = arg_sum = 0.0
    zero = False
    pos = 0
    pending = list(cuts)
    while pending and pending[0] <= pos:
        out.append((log_sum, arg_sum, zero))
        pending.pop(0)
    while pending:
        stop = min(pending[-1], pos + CHUNK)
        g = site_brackets(pos, stop)
        with np.errstate(divide="ignore"):
            logs = log_sum + np.cumsum(np.log(np.abs(g)))
        args = arg_sum + np.cumsum(np.arctan2(g.imag, g.real))
        zeros = zero | (np.cumsum(g == 0) > 0)
        while pending and pending[0] <= stop:
            k = pending.pop(0) - pos - 1
            out.append((float(logs[k]), float(args[k]), bool(zeros[k])))
        log_sum, arg_sum, zero = float(logs[-1]), float(args[-1]), bool(zeros[-1])
        pos = stop
    return out


def pair_logs(bra: StateSpec, ket: StateSpec, cuts: list[int]):
    """Per-cut log-modulus and argument of prod <bra_k|ket_k>.

    Two constant tails use the closed form: the prefix sum plus
    (N - span) * (log|g|, arg g) for the tail bracket g."""
    def brackets(s, e):
        return np.sum(np.conj(bra.factors(s, e)) * ket.factors(s, e), axis=1)

    if bra.tail.kind != "constant" or ket.tail.kind != "constant":
        return bracket_logs(brackets, cuts)
    span = max(len(bra.prefix), len(ket.prefix))
    g = complex(np.vdot(bra.tail.limit, ket.tail.limit))
    head = bracket_logs(brackets, [min(c, span) for c in cuts])
    if g == 0:
        return [(lg, arg, zero or c > span) for (lg, arg, zero), c in zip(head, cuts)]
    step_log, step_arg = math.log(abs(g)), math.atan2(g.imag, g.real)
    return [
        (lg + max(c - span, 0) * step_log, arg + max(c - span, 0) * step_arg, zero)
        for (lg, arg, zero), c in zip(head, cuts)
    ]


def value_from_logs(log_mod: float, arg: float, zero: bool) -> complex:
    if zero:
        return 0j
    return cmath.exp(complex(min(log_mod, 700.0), arg))


def close_complex(got: complex, want: complex, scale: float) -> bool:
    """|got - want| within RTOL of ``scale`` (the size of the summed terms)."""
    return abs(complex(got) - want) <= RTOL * scale + 1e-300


def log_agrees(got_log: float, want_log: float, rtol: float) -> bool:
    if math.isinf(want_log) or math.isinf(got_log):
        return got_log == want_log
    return abs(got_log - want_log) <= rtol * max(1.0, abs(want_log))


def value_agrees(got: complex, log_mod: float, arg: float, zero: bool, rtol: float) -> bool:
    """Compare a returned product value with reference logs, allowing underflow."""
    got = complex(got)
    if zero:
        return got == 0
    if log_mod < -700.0:
        return abs(got) <= math.exp(-690.0)
    if got == 0:
        return False
    if not log_agrees(math.log(abs(got)), log_mod, rtol):
        return False
    phase = cmath.phase(got) - arg
    phase = (phase + math.pi) % (2.0 * math.pi) - math.pi
    return abs(phase) <= rtol * max(1.0, abs(arg))


def composite_sweep(bra_terms, ket_terms, cuts: list[int]):
    """[(value, log|value|, scale)] of <bra|ket> at each cut."""
    per_pair = []
    for cm, sm in bra_terms:
        for cn, sn in ket_terms:
            w = complex(cm).conjugate() * complex(cn)
            per_pair.append((w, pair_logs(sm, sn, cuts)))
    out = []
    for k in range(len(cuts)):
        live = [(w, logs[k]) for w, logs in per_pair if not logs[k][2] and w != 0]
        if not live:
            out.append((0j, -math.inf, 0.0))
            continue
        shift = max(lg[0] for _, lg in live)
        reduced = sum(w * cmath.exp(complex(lg[0] - shift, lg[1])) for w, lg in live)
        scale = sum(abs(w) * math.exp(lg[0] - shift) for w, lg in live) * math.exp(shift)
        log_mod = shift + math.log(abs(reduced)) if reduced != 0 else -math.inf
        out.append((reduced * math.exp(shift), log_mod, scale))
    return out


# -- infinite products ------------------------------------------------------


def mp_finite_product(terms) -> complex:
    mpmath.mp.dps = 30
    acc = mpmath.mpc(1)
    for z in terms:
        acc *= mpmath.mpc(z)
    return complex(acc)


def mp_geometric_product(c: complex, ratio: float, first: int) -> complex:
    """prod_{n >= first} (1 + c * ratio**n)."""
    mpmath.mp.dps = 30
    acc = mpmath.mpc(1)
    n = first
    r = mpmath.mpf(ratio)
    cc = mpmath.mpc(c)
    while True:
        term = cc * r**n
        acc *= 1 + term
        if abs(term) < mpmath.mpf(10) ** -28:
            break
        n += 1
    return complex(acc)


def mp_p_series_log(c: complex, p: float, first: int) -> complex:
    """sum_{n >= first} log(1 + c n^-p) by direct sum plus Euler-Maclaurin."""
    mpmath.mp.dps = 30
    cc = mpmath.mpc(c)
    pp = mpmath.mpf(p)

    def f(x):
        return mpmath.log(1 + cc * mpmath.power(x, -pp))

    m = first + 2000
    head = mpmath.fsum(f(mpmath.mpf(n)) for n in range(first, m))
    mm = mpmath.mpf(m)
    integral = mpmath.mpc(0)
    k = 1
    while True:
        piece = (-1) ** (k + 1) * cc**k * mpmath.power(mm, 1 - k * pp) / (k * (k * pp - 1))
        integral += piece
        if abs(piece) < mpmath.mpf(10) ** -28 or k > 60:
            break
        k += 1
    tail = (
        integral
        + f(mm) / 2
        - mpmath.diff(f, mm, 1) / 12
        + mpmath.diff(f, mm, 3) / 720
        - mpmath.diff(f, mm, 5) / 30240
    )
    return complex(head + tail)


# -- single-site linear algebra ----------------------------------------------


def hermitian_exp(h: np.ndarray, t: float) -> np.ndarray:
    """exp(i t h) for Hermitian h via its eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * t * w)) @ v.conj().T
