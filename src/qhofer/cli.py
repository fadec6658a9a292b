"""Command-line front end: products, powers, rotation bounds, length reports.

Every subcommand prints exact rationals as strings (valuations are in units
of pi); decimal columns are annotations.  Exit status follows one contract:
0 when every checked identity or inequality holds, 2 when a check fails or
input data fails validation (a ``CheckError``, which ``main`` alone prints,
as ``qhofer: check failed: ...``), 1 on usage errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction

# Each handler imports the names it uses, so a job loads only its own stack:
# geocheck and usage errors never load the exact modules.
from .novikov import CheckError, ParseError, integer, rational

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract reserves 2 for failed
    # checks, so usage problems are remapped to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit(args, text, payload) -> int:
    """Write the output in the chosen ``--format`` to ``--out`` or stdout.

    ``json`` renders ``payload``; the other formats write ``text``, or its
    entry for the format when a subcommand has several text renderings.
    """
    if args.format == "json":
        import json
        text = json.dumps(payload, indent=2, default=_exact)
    elif isinstance(text, dict):
        text = text[args.format]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)
    return EXIT_OK


def _exact(value) -> str:
    """A payload's Fraction as its exact string; anything else is no JSON."""
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


# The JSON keys that differ from their record's field names.
_JSON_KEYS = {"a_squared": "a2", "omega_f": "omegaF", "v_qk": "vQk", "v_qnegk": "vQnegk",
              "loop_multiple": "k"}


def _as_json(record, *dropped) -> dict:
    """A record's fields in order, less ``dropped``, under their JSON keys."""
    return {_JSON_KEYS.get(f, f): getattr(record, f) for f in record._fields if f not in dropped}


def _dec(q) -> str:
    return f"{float(q):.12g}"


def _resolve_model(args):
    from .quantum_homology import load_model, model_blowup_cp2, model_cpn

    selector = getattr(args, "model", None) or "blowup"
    if selector == "blowup":
        if args.a2 is None:
            raise ValueError("--a2 is required for the blow-up model")
        return model_blowup_cp2(args.a2)
    if selector == "cpn":
        if args.n is None:
            raise ValueError("--n is required for the projective-space model")
        # The model holds a dense (n+1) x (n+1) pairing; refuse before building it.
        if args.n > 100:
            raise ValueError(f"--n must be at most 100, got {args.n}")
        return model_cpn(args.n)
    if not os.path.exists(selector):
        raise ValueError(f"model file not found: {selector}")
    return load_model(selector)


# ---------------------------------------------------------------------------
# Algebra subcommands.
# ---------------------------------------------------------------------------


def cmd_product(args) -> int:
    from .quantum_homology import quantum_product

    model = _resolve_model(args)
    result = quantum_product(model, model.element(args.x), model.element(args.y))
    text = model.format(result)
    return _emit(args, text, {"model": model.name, "product": text})


def cmd_power(args) -> int:
    from .quantum_homology import power

    model = _resolve_model(args)
    result = power(model, model.element(args.x), args.k)
    text = model.format(result)
    return _emit(args, text, {"model": model.name, "k": args.k, "power": text})


def cmd_invert(args) -> int:
    from .novikov import valuation
    from .quantum_homology import invert, quantum_product

    model = _resolve_model(args)
    x = model.element(args.x)
    z = invert(model, x, args.floor)
    residual = quantum_product(model, x, z) - model.unit()
    exact = residual.is_zero()
    if not exact:
        # invert's contract: every residual term lies below floor + v(x).
        top = valuation(residual, model.omega)
        bound = args.floor + valuation(x, model.omega)
        if top >= bound:
            raise CheckError(
                f"residual reaches area {top}, not below floor + v(x) = {bound}"
            )
    inverse = model.format(z)
    tag = "exact inverse" if exact else f"inverse truncated at area {args.floor}"
    payload = {"model": model.name, "inverse": inverse, "exact": exact, "floor": args.floor}
    return _emit(args, f"{inverse}\n# {tag}", payload)


# ---------------------------------------------------------------------------
# Rotation-bound subcommands.
# ---------------------------------------------------------------------------


def cmd_psi(args) -> int:
    from .novikov import SphereClass, valuation
    from .quantum_homology import power, quantum_product
    from .seidel_bounds import psi, q_element

    element = psi(args.k, args.a2)
    model = element.model
    # Independent composition: multiply Q^k by 1 (x) e^{shift} afterwards.
    shift = SphereClass((-2 * element.delta * args.k, element.delta * args.k))
    recomposed = quantum_product(
        model, power(model, q_element(model), args.k), model.basis_element("1", shift)
    )
    if recomposed != element.value:
        raise CheckError("rotation element disagrees with its recomposition")
    v = valuation(element.value, model.omega)
    value = model.format(element.value)
    payload = {**_as_json(element), "value": value, "valuation": v}
    return _emit(args, f"{value}\n# delta = {element.delta}, v = {v} (x pi)", payload)


def cmd_bounds(args) -> int:
    from .seidel_bounds import omega_f, two_sided_bounds

    a2 = args.a2
    of = omega_f(a2)
    rows = two_sided_bounds(args.kmax, a2)
    failures = [k for k, b in rows if k >= 2 and b < of]
    lines = [f"{'k':>4}  {'bound (x pi)':>14}  {'decimal':>12}"]
    csv_lines = ["k,bound,bound_dec,omegaF,omegaF_dec,holds"]
    for k, b in rows:
        lines.append(f"{k:>4}  {str(b):>14}  {float(b):>12.8f}")
        csv_lines.append(f"{k},{b},{_dec(b)},{of},{_dec(of)},{k < 2 or b >= of}")
    verdict = "holds" if not failures else f"FAILS at k = {failures[:5]}"
    lines.append(f"# two-sided bound >= omega(F) = {of} for k >= 2: {verdict}")
    payload = {"a2": a2, "omegaF": of, "rows": [_as_json(r) for r in rows],
               "all_hold": not failures}
    _emit(args, {"text": "\n".join(lines), "csv": "\n".join(csv_lines)}, payload)
    if failures:
        raise CheckError(f"two-sided bound >= omega(F) fails at k = {failures[0]}")
    return EXIT_OK


def cmd_growth(args) -> int:
    from .seidel_bounds import growth_table

    table = growth_table(args.kmax, args.a2)
    s = table.summary
    of = s.omega_f
    failures = [r.k for r in table.rows if r.k >= 2 and r.bound < of]
    lines = [f"{'k':>4}  {'v(Q^k)':>10}  {'v(Q^-k)':>10}  {'sum':>10}  {'psi/k':>10}"]
    csv_lines = ["k,vQk,vQk_dec,vQnegk,vQnegk_dec,bound,bound_dec,omegaF,omegaF_dec"]
    for r in table.rows:
        rate = "-" if r.psi_rate is None else str(r.psi_rate)
        lines.append(
            f"{r.k:>4}  {str(r.v_qk):>10}  {str(r.v_qnegk):>10}  "
            f"{str(r.bound):>10}  {rate:>10}"
        )
        cells = ",".join(f"{q},{float(q)}" for q in (r.v_qk, r.v_qnegk, r.bound, of))
        csv_lines.append(f"{r.k},{cells}")
    lines.append(
        f"# v(Q^-k) bounded: {s.qneg_bounded} "
        f"(max {s.qneg_max} first at k = {s.qneg_argmax})"
    )
    lines.append(
        f"# slope over last period ({s.period}): {s.slope_last_period}  "
        f"reference omega(F/4 - E/2)/3 = {s.slope_reference}"
    )
    lines.append(
        f"# min psi-rate: {s.psi_rate_min}  "
        f"reference (1-a^2)^2/(12(1+a^2)) = {s.psi_rate_reference}"
    )
    payload = {"a2": s.a_squared, "rows": [_as_json(r) for r in table.rows],
               "summary": _as_json(s, "a_squared", "k_max")}
    texts = {"text": "\n".join(lines), "csv": "\n".join(csv_lines)}
    _emit(args, texts, payload)
    if failures:
        raise CheckError(f"two-sided bound >= omega(F) fails at k = {failures[0]}")
    return EXIT_OK


def cmd_rtilde(args) -> int:
    from .seidel_bounds import r_tilde_certificate

    cert = r_tilde_certificate(args.a2, args.kmax)
    text = (
        f"min over k in [1, {cert.k_max}] of v(Q^k) + v(Q^-k) = "
        f"{cert.min_bound} (x pi), attained at k = {cert.attained_at}\n"
        f"omega(F) = {cert.omega_f} (x pi); matches: {cert.matches_omega_f}"
    )
    payload = {**_as_json(cert), "matches_omegaF": cert.matches_omega_f}
    _emit(args, text, payload)
    if not cert.matches_omega_f:
        raise CheckError(f"sweep minimum {cert.min_bound} differs from omega(F) = {cert.omega_f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Length subcommands.
# ---------------------------------------------------------------------------


def cmd_lengths(args) -> int:
    from .seidel_bounds import ell_plus_lower_bound, lengths_blowup_loop, two_sided_bound

    lengths = lengths_blowup_loop(args.k, args.a2)
    total_over_pi = lengths.total / math.pi
    bound = two_sided_bound(args.k, args.a2)
    reference = float(bound)
    text = (
        f"L+ = {lengths.l_plus:.12f}  ({lengths.l_plus / math.pi:.12f} x pi)\n"
        f"L- = {lengths.l_minus:.12f}  ({lengths.l_minus / math.pi:.12f} x pi)\n"
        f"L  = {lengths.total:.12f}  ({total_over_pi:.12f} x pi)"
    )
    payload = {
        "k": args.k,
        "a2": args.a2,
        "L_plus": lengths.l_plus,
        "L_minus": lengths.l_minus,
        "L": lengths.total,
        "L_over_pi": total_over_pi,
        "reference_over_pi": reference,
    }
    _emit(args, text, payload)
    if lengths.l_plus < 0 or lengths.l_minus < 0:
        raise CheckError("one-sided lengths must be nonnegative")
    if abs(total_over_pi - reference) > 1e-12:
        raise CheckError(f"L/pi = {total_over_pi} differs from {reference} by over 1e-12")
    # The lengths meet their lower bounds exactly: the sum always, each side
    # away from 3a^2 = 1, where Psi is undefined.
    if lengths.plus + lengths.minus != bound:
        raise CheckError(f"L/pi differs from v(Q^k) + v(Q^-k) = {bound}")
    if 3 * args.a2 != 1:
        for j, length in ((args.k, lengths.plus), (-args.k, lengths.minus)):
            if length != ell_plus_lower_bound(j, args.a2):
                raise CheckError(f"one-sided length {length} differs from v(Psi({j}))")
    return EXIT_OK


def cmd_geocheck(args) -> int:
    from .hofer_lengths import SampledPath, fixed_extremum_check

    path = SampledPath.from_csv(args.path)
    report = fixed_extremum_check(path, window=args.window)
    sides = {"max": report.has_fixed_max_each_moment, "min": report.has_fixed_min_each_moment}
    text = "\n".join(f"fixed {side} at each moment: {fixed}" for side, fixed in sides.items())
    _emit(args, text, report.to_dict())
    missing = [side for side, fixed in sides.items() if not fixed]
    if missing:
        raise CheckError(f"no fixed {' and '.join(missing)} on some window")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Model-file subcommands.
# ---------------------------------------------------------------------------


def cmd_model_export(args) -> int:
    from .quantum_homology import model_to_dict

    return _emit(args, None, model_to_dict(_resolve_model(args)))


def cmd_model_validate(args) -> int:
    if not os.path.exists(args.path):
        raise ValueError(f"model file not found: {args.path}")
    from .quantum_homology import ModelError, load_model

    try:
        model = load_model(args.path)
    except ModelError as exc:
        raise CheckError(f"invalid model: {exc}") from exc
    print(f"model {model.name!r} is valid: {len(model.basis)} basis classes, "
          f"{len(model.gw)} table entries")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Wiring.
# ---------------------------------------------------------------------------


def _add_model_flags(sub) -> None:
    sub.add_argument(
        "--model",
        default="blowup",
        help="builtin name (blowup, cpn) or a model JSON file path",
    )
    sub.add_argument("--n", type=integer, help="complex dimension for the cpn model")
    sub.add_argument("--a2", type=rational, help="exceptional area a^2 (rational)")


def _add_common(sub, formats=("text", "json"), default="text") -> None:
    sub.add_argument("--format", choices=formats, default=default)
    sub.add_argument("--out", help="write output to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qhofer", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("product", help="quantum product of two elements")
    _add_model_flags(sub)
    _add_common(sub)
    sub.add_argument("x")
    sub.add_argument("y")
    sub.set_defaults(handler=cmd_product)

    sub = subs.add_parser("power", help="integer quantum power")
    _add_model_flags(sub)
    _add_common(sub)
    sub.add_argument("--k", type=integer, required=True)
    sub.add_argument("x")
    sub.set_defaults(handler=cmd_power)

    sub = subs.add_parser("invert", help="inverse, truncated at a valuation floor")
    _add_model_flags(sub)
    _add_common(sub)
    sub.add_argument("--floor", type=rational, default=Fraction(-8))
    sub.add_argument("x")
    sub.set_defaults(handler=cmd_invert)

    sub = subs.add_parser("psi", help="rotation element Psi(k)")
    _add_common(sub)
    sub.add_argument("--k", type=integer, required=True)
    sub.add_argument("--a2", type=rational, required=True)
    sub.set_defaults(handler=cmd_psi)

    sub = subs.add_parser("bounds", help="two-sided bound sweep over k")
    _add_common(sub, formats=("text", "json", "csv"))
    sub.add_argument("--kmax", type=integer, required=True)
    sub.add_argument("--a2", type=rational, required=True)
    sub.set_defaults(handler=cmd_bounds)

    sub = subs.add_parser("growth", help="growth table of v(Q^k), v(Q^-k)")
    _add_common(sub, formats=("text", "json", "csv"))
    sub.add_argument("--kmax", type=integer, required=True)
    sub.add_argument("--a2", type=rational, required=True)
    sub.set_defaults(handler=cmd_growth)

    sub = subs.add_parser("rtilde", help="certified seminorm value from the sweep")
    _add_common(sub)
    sub.add_argument("--kmax", type=integer, default=50)
    sub.add_argument("--a2", type=rational, required=True)
    sub.set_defaults(handler=cmd_rtilde)

    sub = subs.add_parser("lengths", help="lengths of the k-fold rotation loop")
    _add_common(sub)
    sub.add_argument("--k", type=integer, default=2, choices=(1, 2))
    sub.add_argument("--a2", type=rational, required=True)
    sub.set_defaults(handler=cmd_lengths)

    sub = subs.add_parser("geocheck", help="fixed-extremum check on a sampled path")
    _add_common(sub, default="json")
    sub.add_argument("--window", type=integer, default=2)
    sub.add_argument("path")
    sub.set_defaults(handler=cmd_geocheck)

    sub = subs.add_parser("model-export", help="write a builtin model as JSON")
    _add_model_flags(sub)
    sub.add_argument("--out", help="output file (stdout when omitted)")
    sub.set_defaults(handler=cmd_model_export, format="json")

    sub = subs.add_parser("model-validate", help="check a model JSON file")
    sub.add_argument("path")
    sub.set_defaults(handler=cmd_model_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"qhofer: parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CheckError as exc:
        print(f"qhofer: check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except (ValueError, OSError) as exc:
        print(f"qhofer: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
