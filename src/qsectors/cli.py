"""Command line front end.

Primary artifacts (delimited tables or JSON reports) go to stdout or the
``--out`` path; machine-readable one-line summaries and error payloads go
to stderr as JSON.  Exit codes: 0 success, 2 bad usage or unreadable
input, 3 a computation that refused to produce a verdict.

Output is byte-deterministic for fixed inputs: floats are rendered with
``repr``, JSON keys are sorted, and CSV always uses ``\\n`` line endings.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .decoherence import _branch_overlaps, decoherence_horizon, sample_outcomes
from .errors import DimensionBudgetExceeded, IoError, QsectorsError, UsageError
from .operators import expectation_sweep
from .overlaps import OverlapSweep, overlap_sweep
from .products import classify_product
from .scenarios import (
    CascadeSpec,
    SpinChainScenario,
    StageSpec,
    cascade_stage_report,
    default_cascade,
    run_cascade,
)
from .sectors import same_sector
from .serialize import (
    decode_model,
    decode_operator,
    decode_sequence,
    decode_state,
    dumps,
    encode_verdict,
    jsonable,
    loads,
)
from .states import WALK_BUDGET, ProductState

__all__ = ["main"]

_LN10 = math.log(10.0)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc.strerror or exc}") from None


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc.strerror or exc}") from None


def _load(path: str):
    return loads(_read_text(path))


def _product_state(doc, name: str) -> ProductState:
    state = decode_state(doc)
    if not isinstance(state, ProductState):
        raise UsageError(f"{name} must be a product-state document")
    return state


def _summary(payload: dict) -> None:
    print(dumps(jsonable({"kind": "summary", **payload})), file=sys.stderr)


def _csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise UsageError(f"{what} must be comma-separated integers: {text!r}") from None


def _cut_range(step: int, stop: int) -> list[int]:
    """The cuts step, 2 step, ... up to ``stop``, counted before they are
    built: more than WALK_BUDGET of them are refused."""
    cuts = range(step, stop + 1, step)
    if len(cuts) > WALK_BUDGET:
        raise DimensionBudgetExceeded(
            f"{len(cuts)} truncations requested; the budget is {WALK_BUDGET}",
            cuts=len(cuts),
            budget=WALK_BUDGET,
        )
    return list(cuts)


def _resolve_cuts(args) -> list[int]:
    if args.cuts is not None:
        cuts = _parse_int_list(args.cuts, "--cuts")
    elif args.max_cut is not None:
        if args.step < 1:
            raise UsageError("--step must be >= 1")
        cuts = _cut_range(args.step, args.max_cut)
    else:
        raise UsageError("provide --cuts or --max")
    if not cuts:
        raise UsageError("the truncation list is empty")
    if any(n < 1 for n in cuts) or any(b <= a for a, b in zip(cuts, cuts[1:])):
        raise UsageError("truncations must be strictly increasing and >= 1")
    return cuts


def _sweep_rows(sweep: OverlapSweep) -> list[list]:
    rows = []
    for n, value, log_mod in zip(sweep.truncations, sweep.values, sweep.log_modulus):
        rows.append([n, value.real, value.imag, abs(value), log_mod / _LN10])
    return rows


def _maybe_first_below(sweep: OverlapSweep, eps: Optional[float]) -> None:
    if eps is not None:
        _summary({"eps": eps, "first_below": sweep.first_below(eps)})


def _cmd_product_classify(args) -> int:
    seq = decode_sequence(_load(args.sequence))
    verdict = classify_product(
        seq, budget=args.budget, tol=args.tol, require_exact=args.require_exact
    )
    _write_text(args.out, dumps(encode_verdict(verdict), pretty=args.pretty) + "\n")
    return 0


def _cmd_sector_test(args) -> int:
    a = _product_state(_load(args.a), "first state")
    b = _product_state(_load(args.b), "second state")
    report = {
        "type": "sector-test",
        "a_class": encode_verdict(a.sequence_class),
        "b_class": encode_verdict(b.sequence_class),
        "verdict": encode_verdict(same_sector(a, b)),
    }
    _write_text(args.out, dumps(report, pretty=args.pretty) + "\n")
    return 0


_SWEEP_HEADER = ("truncation", "re", "im", "modulus", "log10_modulus")


def _cmd_overlap_sweep(args) -> int:
    bra = _product_state(_load(args.bra), "bra state")
    ket = _product_state(_load(args.ket), "ket state")
    sweep = overlap_sweep(bra, ket, _resolve_cuts(args))
    _write_text(args.out, _csv_text(_SWEEP_HEADER, _sweep_rows(sweep)))
    _maybe_first_below(sweep, args.eps)
    return 0


def _cmd_expectation_sweep(args) -> int:
    op = decode_operator(_load(args.operator))
    state = _product_state(_load(args.state), "state")
    sweep = expectation_sweep(op, state, _resolve_cuts(args))
    _write_text(args.out, _csv_text(_SWEEP_HEADER, _sweep_rows(sweep)))
    _maybe_first_below(sweep, args.eps)
    return 0


def _parse_pair(text: str) -> tuple[int, int]:
    parts = _parse_int_list(text, "--pair")
    if len(parts) != 2:
        raise UsageError("--pair needs exactly two comma-separated indices")
    return parts[0], parts[1]


def _cmd_decohere(args) -> int:
    model = decode_model(_load(args.model))
    cuts = _resolve_cuts(args)
    pair = _parse_pair(args.pair) if args.pair is not None else None
    if pair is not None:
        lo, hi = sorted(pair)
        if lo == hi or not (0 <= lo and hi < model.n_outcomes):
            raise UsageError(
                f"--pair must name two distinct outcomes below {model.n_outcomes}"
            )
        pairs = [(lo, hi)]
    else:
        pairs = [
            (i, j)
            for i in range(model.n_outcomes)
            for j in range(i + 1, model.n_outcomes)
        ]
    # a horizon the model or --eps refuses is refused before the table is written
    horizon = None if args.eps is None else decoherence_horizon(model, args.eps, pair=pair)
    walked = _branch_overlaps(model, pairs, cuts)
    rows = []
    for k, n in enumerate(cuts):
        for (i, j), readings in zip(pairs, walked):
            g, log_mod = readings[k]
            scale = model.coefficients[i] * model.coefficients[j].conjugate()
            value = scale * g
            base = abs(scale)
            log10 = (math.log(base) + log_mod) / _LN10 if base > 0.0 else -math.inf
            rows.append([n, i, j, value.real, value.imag, abs(value), log10])
    header = ("truncation", "i", "j", "re", "im", "modulus", "log10_modulus")
    _write_text(args.out, _csv_text(header, rows))
    if args.eps is not None:
        _summary({"eps": args.eps, "horizon": horizon})
    return 0


def _cmd_sample(args) -> int:
    model = decode_model(_load(args.model))
    if args.count < 0:
        raise UsageError("--count must be >= 0")
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    outcomes = sample_outcomes(model, args.count, args.seed)
    rows = [[int(v)] for v in outcomes]
    _write_text(args.out, _csv_text(("outcome",), rows))
    counts = np.bincount(outcomes, minlength=model.n_outcomes)
    _summary(
        {
            "seed": args.seed,
            "count": args.count,
            "outcome_counts": [int(c) for c in counts],
            "probabilities": list(model.probabilities),
        }
    )
    return 0


def _cmd_spin_sweep(args) -> int:
    try:
        xi = Fraction(args.xi)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"--xi must be a fraction like 1, 1/2, 0.25: {args.xi!r}") from None
    scenario = SpinChainScenario(xi)
    step = args.step if args.step is not None else scenario.period
    if step < 1:
        raise UsageError("--step must be >= 1")
    cuts = _cut_range(step, args.n_max)
    if not cuts:
        raise UsageError(
            f"--n-max {args.n_max} admits no site counts at step {step}"
        )
    sweep = scenario.sweep(cuts)
    rows = []
    for n, value, log_mod in zip(sweep.truncations, sweep.values, sweep.log_modulus):
        modulus = abs(value)
        rows.append(
            [
                n,
                value.real,
                value.imag,
                modulus,
                modulus * modulus,
                2.0 * log_mod / _LN10,
            ]
        )
    header = ("n_sites", "re", "im", "modulus", "probability", "log10_probability")
    _write_text(args.out, _csv_text(header, rows))
    payload = {"xi": str(xi), "sector": scenario.sector_verdict().kind}
    if args.eps is not None:
        payload["eps"] = args.eps
        payload["first_below"] = sweep.first_below(args.eps)
    _summary(payload)
    return 0


def _parse_stages(text: str) -> tuple[StageSpec, ...]:
    stages = []
    for part in text.split(","):
        bits = part.split(":")
        if len(bits) != 3:
            raise UsageError(
                f"stage {part!r} must look like name:kind:parameter"
            )
        name, kind, param = bits
        try:
            value = float(param)
        except ValueError:
            raise UsageError(f"stage parameter {param!r} is not a number") from None
        stages.append(StageSpec(name, kind, value))
    return tuple(stages)


def _parse_weights(text: str) -> tuple[complex, complex]:
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        raise UsageError(f"--weights must be two probabilities: {text!r}") from None
    if len(parts) != 2 or any(w < 0.0 for w in parts):
        raise UsageError("--weights must be two nonnegative probabilities")
    return (complex(math.sqrt(parts[0])), complex(math.sqrt(parts[1])))


def _cmd_qnd_sim(args) -> int:
    stages = (
        _parse_stages(args.stages) if args.stages is not None else default_cascade().stages
    )
    spec = CascadeSpec(
        stages=stages,
        fidelity=args.fidelity,
        amplitudes=_parse_weights(args.weights),
        loss_rate=args.loss,
        dark_rate=args.dark,
    )
    result = run_cascade(spec, seed=args.seed)
    report = {
        "type": "cascade-report",
        "seed": result.seed,
        "fidelity": spec.fidelity,
        "degenerate": result.degenerate,
        "total_records": result.total_records,
        "coherence": result.coherence,
        "log10_coherence": result.log10_coherence,
        "stages": list(cascade_stage_report(result)),
    }
    if args.eps is not None:
        report["eps"] = args.eps
        report["horizon"] = (
            None
            if result.model is None
            else decoherence_horizon(result.model, args.eps)
        )
    _write_text(args.out, dumps(jsonable(report), pretty=args.pretty) + "\n")
    if args.stage_csv is not None:
        header = (
            "stage",
            "kind",
            "parameter",
            "count",
            "cumulative_records",
            "log10_coherence",
        )
        rows = [
            [r["stage"], r["kind"], r["parameter"], r["count"],
             r["cumulative_records"], r["log10_coherence"]]
            for r in cascade_stage_report(result)
        ]
        _write_text(args.stage_csv, _csv_text(header, rows))
    return 0


def _add_cut_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cuts", help="comma-separated strictly increasing truncations")
    p.add_argument("--max", dest="max_cut", type=int, help="sweep 1..MAX (see --step)")
    p.add_argument("--step", type=int, default=1, help="stride used with --max")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsectors",
        description="Sector tests, overlap sweeps, and decoherence reports "
        "for infinite product states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product-classify", help="classify an infinite complex product")
    p.add_argument("sequence", help="sequence JSON file ('-' for stdin)")
    p.add_argument("--budget", type=int, default=100_000)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--require-exact", action="store_true",
                   help="refuse numeric-only verdicts")
    p.add_argument("--pretty", action="store_true")
    p.add_argument("--out")
    p.set_defaults(run=_cmd_product_classify)

    p = sub.add_parser("sector-test", help="decide whether two states share a sector")
    p.add_argument("a", help="first product-state JSON file")
    p.add_argument("b", help="second product-state JSON file")
    p.add_argument("--pretty", action="store_true")
    p.add_argument("--out")
    p.set_defaults(run=_cmd_sector_test)

    p = sub.add_parser("overlap-sweep", help="truncated overlaps at growing cutoffs")
    p.add_argument("bra", help="bra product-state JSON file")
    p.add_argument("ket", help="ket product-state JSON file")
    _add_cut_options(p)
    p.add_argument("--eps", type=float, help="report the first cutoff below eps")
    p.add_argument("--out")
    p.set_defaults(run=_cmd_overlap_sweep)

    p = sub.add_parser("expectation-sweep",
                       help="truncated expectation values at growing cutoffs")
    p.add_argument("operator", help="factored-operator JSON file")
    p.add_argument("state", help="product-state JSON file")
    _add_cut_options(p)
    p.add_argument("--eps", type=float, help="report the first cutoff below eps")
    p.add_argument("--out")
    p.set_defaults(run=_cmd_expectation_sweep)

    p = sub.add_parser("decohere", help="off-diagonal suppression per cutoff")
    p.add_argument("model", help="measurement-model JSON file")
    _add_cut_options(p)
    p.add_argument("--pair", help="restrict to one outcome pair, e.g. 0,1")
    p.add_argument("--eps", type=float, help="also report the decoherence horizon")
    p.add_argument("--out")
    p.set_defaults(run=_cmd_decohere)

    p = sub.add_parser("sample", help="draw outcomes from the pointer probabilities")
    p.add_argument("model", help="measurement-model JSON file")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(run=_cmd_sample)

    p = sub.add_parser("spin-sweep", help="all-up vs partially rotated spin chain")
    p.add_argument("--xi", required=True,
                   help="rotation density as a fraction, e.g. 1, 1/2, 0.25")
    p.add_argument("--n-max", dest="n_max", type=int, required=True)
    p.add_argument("--step", type=int)
    p.add_argument("--eps", type=float,
                   help="report the first site count with overlap below eps")
    p.add_argument("--out")
    p.set_defaults(run=_cmd_spin_sweep)

    p = sub.add_parser("qnd-sim", help="detector cascade coherence report")
    p.add_argument("--stages",
                   help="comma list of name:kind:parameter, kinds fixed|poisson")
    p.add_argument("--fidelity", type=float, default=0.99)
    p.add_argument("--weights", default="0.5,0.5",
                   help="two pointer probabilities, e.g. 0.5,0.5")
    p.add_argument("--loss", type=float, default=0.0)
    p.add_argument("--dark", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, help="also report the decoherence horizon")
    p.add_argument("--stage-csv", dest="stage_csv",
                   help="also write the stage table as CSV to this path")
    p.add_argument("--pretty", action="store_true")
    p.add_argument("--out")
    p.set_defaults(run=_cmd_qnd_sim)

    return parser


def _error_payload(exc: QsectorsError) -> dict:
    context = {}
    for key, value in exc.context.items():
        try:
            context[key] = jsonable(value)
        except UsageError:
            context[key] = str(value)
    return {"code": exc.code, "message": exc.message, "context": context}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # before any subcommand computes or writes its artifact
        if getattr(args, "eps", None) is not None and not args.eps > 0.0:
            raise UsageError("--eps must be positive")
        return args.run(args)
    except (UsageError, IoError) as exc:
        print(dumps(_error_payload(exc)), file=sys.stderr)
        return 2
    except QsectorsError as exc:
        print(dumps(_error_payload(exc)), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
