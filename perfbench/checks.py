"""Output checks for benchmark jobs, written without importing the program.

Element text is read by a parser of the benchmark's own, so a check does not
trust the parser it is checking.  Every check raises ``Mismatch`` with a
short reason; a check that returns has passed.

The invariants used here hold for any correct implementation:

* ``Q^k`` for small k equals the golden table of the acceptance tests;
* every power of ``Q`` (and every ``Psi(k)``) is homogeneous of degree 4;
* the two-sided bound ``v(Q^k) + v(Q^-k)`` is at least ``omega(F) = 1 - a^2``
  for k >= 2, and its minimum is ``omega(F)``, first reached at k = 2;
* ``Psi(k) = Q^k (x) e^{k delta (F - 2E)}`` with the closed-form delta.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from fractions import Fraction

Q_TEXT = "F * e^{1/2*E + 1/4*F}"

# Copied from tests/test_acceptance.py; test_perfbench.py keeps them equal.
GOLDEN_PRODUCTS = (
    ("p", "p", "E * e^{-1*E + -1*F} + F * e^{-1*E + -1*F}"),
    ("E", "p", "F * e^{-1*F}"),
    ("p", "F", "1 * 1 * e^{-1*E + -1*F}"),
    ("E", "E", "-1 * p + E * e^{-1*E} + 1 * e^{-1*F}"),
    ("E", "F", "p + -1 * E * e^{-1*E}"),
    ("F", "F", "E * e^{-1*E}"),
)

GOLDEN_POWERS = (
    (1, "F * e^{1/2*E + 1/4*F}"),
    (2, "E * e^{1/2*F}"),
    (3, "p * e^{1/2*E + 3/4*F} + -1 * E * e^{-1/2*E + 3/4*F}"),
    (4, "-1 * p * e^{1*F} + E * e^{-1*E + 1*F} + 1"),
    (
        5,
        "p * e^{-1/2*E + 5/4*F} + -1 * E * e^{-3/2*E + 5/4*F}"
        " + F * e^{1/2*E + 1/4*F} + -1 * 1 * e^{-1/2*E + 1/4*F}",
    ),
    (-1, "p * e^{1/2*E + 3/4*F}"),
    (-2, "E * e^{1/2*F} + F * e^{1/2*F}"),
    (-3, "F * e^{1/2*E + 1/4*F} + 1 * e^{-1/2*E + 1/4*F}"),
    (-4, "p * e^{1*F} + 1"),
)

GOLDEN = dict(GOLDEN_POWERS)
GOLDEN[0] = "1"

GENERATORS = ("E", "F")
BASIS_DEGREE = {"p": 0, "E": 2, "F": 2, "1": 4}
C1 = (1, 2)  # first Chern numbers of E and F
UNIT = {("1", (Fraction(0), Fraction(0))): Fraction(1)}


class Mismatch(Exception):
    """An output differs from what a correct program prints."""


def _split_top(text: str, sep: str) -> list:
    parts, cur, depth = [], [], 0
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        if depth == 0 and ch == sep:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise Mismatch("unbalanced braces in element text")
    parts.append("".join(cur).strip())
    return parts


def _fraction(text: str) -> Fraction:
    if not re.fullmatch(r"-?\d+(/\d+)?", text):
        raise Mismatch(f"not a rational: {text!r}")
    return Fraction(text)


def parse_element(text: str) -> dict:
    """Canonical map {(basis name, (cE, cF)): coefficient} of element text.

    Rejects repeated keys and zero coefficients: printed elements are canonical.
    """
    text = text.strip()
    if text == "0":
        return {}
    out: dict = {}
    for term in _split_top(text, "+"):
        factors = _split_top(term, "*")
        exps = [f for f in factors if f.startswith("e^{")]
        plain = [f for f in factors if not f.startswith("e^{")]
        coords = [Fraction(0), Fraction(0)]
        if len(exps) > 1:
            raise Mismatch(f"several exponentials in {term!r}")
        if exps:
            inner = exps[0]
            if not inner.endswith("}"):
                raise Mismatch(f"malformed exponential {inner!r}")
            for part in inner[3:-1].split("+"):
                c, _, g = part.strip().partition("*")
                if g not in GENERATORS:
                    raise Mismatch(f"bad exponent term {part!r}")
                coords[GENERATORS.index(g)] += _fraction(c)
        if len(plain) == 1:
            coeff, name = Fraction(1), plain[0]
        elif len(plain) == 2:
            coeff, name = _fraction(plain[0]), plain[1]
        else:
            raise Mismatch(f"term needs one basis class: {term!r}")
        if name not in BASIS_DEGREE:
            raise Mismatch(f"unknown basis class {name!r}")
        key = (name, tuple(coords))
        if key in out or coeff == 0:
            raise Mismatch(f"non-canonical term {term!r}")
        out[key] = coeff
    return out


def shift(elem: dict, d_e: Fraction, d_f: Fraction) -> dict:
    return {(n, (e + d_e, f + d_f)): q for (n, (e, f)), q in elem.items()}


def valuation(elem: dict, a2: Fraction) -> Fraction:
    return max(a2 * e + (1 - a2) * f for (_, (e, f)) in elem)


def delta(a2: Fraction) -> Fraction:
    return (1 - a2) ** 2 / (12 * (1 + a2) * (1 - 3 * a2))


def require(ok: bool, reason: str) -> None:
    if not ok:
        raise Mismatch(reason)


def require_degree4(elem: dict) -> None:
    """Powers of Q and rotation elements are homogeneous of degree 4."""
    for name, (e, f) in elem:
        deg = BASIS_DEGREE[name] + 2 * (C1[0] * e + C1[1] * f)
        require(deg == 4, f"term {name} e^({e}, {f}) has degree {deg}, not 4")


def golden_two_sided(k: int, a2: Fraction) -> Fraction:
    """v(Q^k) + v(Q^-k) from the golden table, for 1 <= k <= 4."""
    return valuation(parse_element(GOLDEN[k]), a2) + valuation(
        parse_element(GOLDEN[-k]), a2
    )


# ---------------------------------------------------------------------------
# Reading each subcommand's output.
# ---------------------------------------------------------------------------


def read_json(out: str) -> dict:
    try:
        data = json.loads(out)
    except json.JSONDecodeError as exc:
        raise Mismatch(f"output is not JSON: {exc}") from None
    require(isinstance(data, dict), "JSON output is not an object")
    return data


def element_output(out: str, fmt: str, key: str) -> str:
    """Element text printed by product/power (``key`` names the JSON field)."""
    if fmt == "json":
        return str(read_json(out)[key])
    return out.strip()


def bound_rows(out: str, fmt: str) -> tuple:
    """(rows [(k, bound)], omega(F), all-hold flag) of a bounds job."""
    if fmt == "json":
        data = read_json(out)
        rows = [(r["k"], _fraction(r["bound"])) for r in data["rows"]]
        return rows, _fraction(data["omegaF"]), data["all_hold"]
    lines = list(csv.DictReader(io.StringIO(out)))
    require(bool(lines), "empty CSV")
    rows = [(int(r["k"]), _fraction(r["bound"])) for r in lines]
    return rows, _fraction(lines[0]["omegaF"]), all(r["holds"] == "True" for r in lines)


def growth_rows(out: str, fmt: str) -> list:
    """[(k, v(Q^k), v(Q^-k), bound)] of a growth job."""
    items = read_json(out)["rows"] if fmt == "json" else csv.DictReader(io.StringIO(out))
    return [(int(r["k"]),) + tuple(_fraction(r[n]) for n in ("vQk", "vQnegk", "bound")) for r in items]


def rtilde_result(out: str, fmt: str) -> tuple:
    """(minimum, k where first attained, omega(F), matches flag)."""
    if fmt == "json":
        d = read_json(out)
        return (
            _fraction(d["min_bound"]),
            d["attained_at"],
            _fraction(d["omegaF"]),
            d["matches_omegaF"],
        )
    m = re.search(r"= (\S+) \(x pi\), attained at k = (\d+)\n"
                  r"omega\(F\) = (\S+) \(x pi\); matches: (True|False)", out)
    require(m is not None, "unreadable rtilde output")
    return _fraction(m[1]), int(m[2]), _fraction(m[3]), m[4] == "True"


def psi_result(out: str, fmt: str) -> tuple:
    """(element text, delta, valuation) of a psi job."""
    if fmt == "json":
        d = read_json(out)
        return d["value"], _fraction(d["delta"]), _fraction(d["valuation"])
    first, _, second = out.strip().partition("\n")
    m = re.fullmatch(r"# delta = (\S+), v = (\S+) \(x pi\)", second.strip())
    require(m is not None, "unreadable psi trailer")
    return first, _fraction(m[1]), _fraction(m[2])


def invert_result(out: str, fmt: str) -> tuple:
    """(element text, exact flag, floor text or None) of an invert job."""
    if fmt == "json":
        d = read_json(out)
        return d["inverse"], d["exact"], d["floor"]
    first, _, tag = out.strip().partition("\n")
    if tag == "# exact inverse":
        return first, True, None
    m = re.fullmatch(r"# inverse truncated at area (\S+)", tag)
    require(m is not None, f"unreadable invert tag {tag!r}")
    return first, False, m[1]


def lengths_result(out: str, fmt: str) -> tuple:
    """(L+, L-, L / pi) of a lengths job."""
    if fmt == "json":
        d = read_json(out)
        return d["L_plus"], d["L_minus"], d["L_over_pi"]
    vals = re.findall(r"^L[+ -]? *= (\S+)  \((\S+) x pi\)$", out, re.M)
    require(len(vals) == 3, "unreadable lengths output")
    return float(vals[0][0]), float(vals[1][0]), float(vals[2][1])


def check_lengths(out: str, fmt: str, k: int, a2: Fraction) -> None:
    l_plus, l_minus, over_pi = lengths_result(out, fmt)
    reference = float(1 - a2) if k == 2 else 1.0
    require(l_plus >= 0 and l_minus >= 0, "negative one-sided length")
    require(math.isclose(l_plus + l_minus, over_pi * math.pi, abs_tol=1e-9),
            "L+ + L- differs from L")
    require(abs(over_pi - reference) <= 1e-9, f"L/pi = {over_pi}, expected {reference}")
