"""End-to-end acceptance checks for the blow-up quantum homology engine.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line to the terminal, so a full run doubles as a certificate:

  1. golden product table of the blown-up plane, exact and fast;
  2. golden power expansions Q^k (k = 1..5) and Q^{-k} (k = 1..4);
  3. valuation-sum inequality v(Q^k) + v(Q^{-k}) >= omega(F), swept
     over k in [2, 200] and nine area parameters;
  4. algebraic lower bound meets the quadrature upper bound, certifying
     the loop-length identity r = pi (1 - a^2);
  5. Seidel-element consistency: psi(1)^2 equals the closed form for the
     doubled loop, and psi(k) psi(-k) = 1;
  6. Simpson quadrature reproduces the closed-form mean radius;
  7. exact property suites: ring axioms on random elements, grading,
     the quantum-correction depth bound, and the exceptional-class
     sign table re-derived from the product table alone;
  8. growth of v(Q^{-k}): staircase slope in the growing regime,
     boundedness in the other regime, and the per-loop rate floor;
  9. projective-space relation x^(n+1) = 1 x e^{-L} for n = 1..4.

Tolerances: algebraic checks are exact rational equalities; quadrature
checks use the stated absolute tolerances (1e-10, 1e-12); runtime
limits are wall-clock via time.perf_counter.
"""

import math
import random
import time
from fractions import Fraction

from qhofer import (
    NEG_INF,
    delta_constant,
    lengths_blowup_loop,
    mean_radius_sq,
    mean_radius_sq_exact,
    model_blowup_cp2,
    model_cpn,
    omega_f,
    power,
    power_walk,
    psi,
    q_element,
    quantum_product,
    r_tilde_certificate,
    radial_mean,
    two_sided_bounds,
    valuation,
)
from helpers import NINE_A2, class_neg, classical_product, degree, hbar, random_qh

A2 = Fraction(1, 4)

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


def _verdict(capsys, number, label, ok):
    line = f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {label}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_c1_golden_product_table(capsys):
    m = model_blowup_cp2(A2)
    cases = [
        (m.basis_element(a), m.basis_element(b), m.element(want))
        for a, b, want in GOLDEN_PRODUCTS
    ]
    quantum_product(m, cases[0][0], cases[0][1])  # warm up
    worst_ms, all_equal = 0.0, True
    for x, y, want in cases:
        t0 = time.perf_counter()
        got = quantum_product(m, x, y)
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        worst_ms = max(worst_ms, elapsed_ms)
        all_equal = all_equal and got == want
    ok = all_equal and worst_ms < 1.0
    _verdict(
        capsys, 1,
        f"six golden products exact, worst {worst_ms:.3f} ms (< 1 ms each)",
        ok,
    )


def test_c2_golden_powers(capsys):
    m = model_blowup_cp2(A2)
    q = q_element(m)
    cases = [(k, m.element(want)) for k, want in GOLDEN_POWERS]
    power(m, q, 3), power(m, q, -2)  # warm up
    best_ms, all_equal = math.inf, True
    for _ in range(3):
        got_all = True
        t0 = time.perf_counter()
        for k, want in cases:
            got_all = got_all and power(m, q, k) == want
        best_ms = min(best_ms, (time.perf_counter() - t0) * 1000.0)
        all_equal = all_equal and got_all
    ok = all_equal and best_ms < 10.0
    _verdict(
        capsys, 2,
        f"Q^1..Q^5 and Q^-1..Q^-4 exact, {best_ms:.2f} ms (< 10 ms)",
        ok,
    )


def test_c3_valuation_sum_sweep(capsys):
    t0 = time.perf_counter()
    holds = True
    for a2 in NINE_A2:
        target = omega_f(a2)
        for k, bound in two_sided_bounds(200, a2):
            if k >= 2:
                holds = holds and bound >= target
    elapsed = time.perf_counter() - t0
    ok = holds and elapsed < 30.0
    _verdict(
        capsys, 3,
        "v(Q^k) + v(Q^-k) >= omega(F) for k in [2, 200], nine a^2 values,"
        f" {elapsed:.1f} s (< 30 s)",
        ok,
    )


def test_c4_loop_length_certificate(capsys):
    ok = True
    for a2 in NINE_A2:
        cert = r_tilde_certificate(a2, 50)
        lower_matches = cert.min_bound == omega_f(a2)
        upper = lengths_blowup_loop(2, a2).total / math.pi
        upper_matches = abs(upper - (1.0 - float(a2))) <= 1e-12
        ok = ok and lower_matches and upper_matches
    _verdict(
        capsys, 4,
        "min_k [v(Q^k)+v(Q^-k)] over k <= 50 equals 1 - a^2 exactly and the"
        " quadrature loop length matches within 1e-12, for nine a^2 values",
        ok,
    )


def test_c5_seidel_consistency(capsys):
    squares_ok, pairs_ok = True, True
    for a2 in NINE_A2:
        m = model_blowup_cp2(a2)
        d = delta_constant(a2)
        doubled = m.basis_element(
            "E", (-4 * d, 2 * d + Fraction(1, 2))
        )
        one = psi(1, a2).value
        squares_ok = squares_ok and quantum_product(m, one, one) == doubled
        for k in range(1, 6):
            prod = quantum_product(m, psi(k, a2).value, psi(-k, a2).value)
            pairs_ok = pairs_ok and prod == m.unit()
    ok = squares_ok and pairs_ok
    _verdict(
        capsys, 5,
        "psi(1)^2 equals E x e^{2d(F-2E) + F/2} and psi(k) psi(-k) = 1 for"
        " k <= 5, nine a^2 values",
        ok,
    )


def test_c6_quadrature_oracle(capsys):
    ok = True
    for a2 in NINE_A2:
        c_exact = float(mean_radius_sq_exact(a2))
        ok = ok and abs(mean_radius_sq(a2, 10**4) - c_exact) <= 1e-10
        ok = ok and abs(radial_mean(lambda s: math.pi * (c_exact - s), a2, 10**4)) <= 1e-10
    _verdict(
        capsys, 6,
        "Simpson mean radius matches 2(1-a^6)/(3(1-a^4)) and the centered"
        " profile has zero mean, within 1e-10 at 10^4 points",
        ok,
    )


def test_c7_property_suites(capsys):
    rng = random.Random(20260825)
    models = (model_blowup_cp2(A2), model_cpn(2))

    rings_ok = True
    for m in models:
        for _ in range(500):
            x, y, z = (random_qh(rng, m) for _ in range(3))
            xy = quantum_product(m, x, y)
            rings_ok = rings_ok and xy == quantum_product(m, y, x)
            left = quantum_product(m, xy, z)
            right = quantum_product(m, x, quantum_product(m, y, z))
            rings_ok = rings_ok and left == right

    grading_ok = True
    for m in models:
        for i, (xn, dx) in enumerate(m.basis):
            for yn, dy in m.basis[i:]:
                prod = quantum_product(
                    m, m.basis_element(xn), m.basis_element(yn)
                )
                if not prod.is_zero():
                    grading_ok = grading_ok and (
                        degree(m, prod) == dx + dy - m.dim
                    )

    # The classical part is the oracle's B = 0 contraction.
    depth_ok = True
    for m in models:
        step = hbar(m)
        for _ in range(500):
            x, y = random_qh(rng, m), random_qh(rng, m)
            if x.is_zero() or y.is_zero():
                continue
            correction = quantum_product(m, x, y) - classical_product(m, x, y)
            v_corr = valuation(correction, m.omega)
            if v_corr == NEG_INF:
                continue
            budget = valuation(x, m.omega) + valuation(y, m.omega) - step
            depth_ok = depth_ok and v_corr <= budget

    # Re-derive the four exceptional-class invariants from the golden
    # product table alone: intersection-pair the e^{-E} stratum of each
    # degree-two product against the basis, then compare with the stored
    # table and with the parity rule (-1)^(number of E arguments).
    m = model_blowup_cp2(A2)
    e_class = (Fraction(-1), Fraction(0))
    derived = {}
    for a, b in (("E", "E"), ("E", "F"), ("F", "F")):
        text = next(w for x, y, w in GOLDEN_PRODUCTS if {x, y} == {a, b})
        stratum = [
            m.element(text).terms.get((i, e_class), Fraction(0))
            for i in range(len(m.basis))
        ]
        for j, (cname, _) in enumerate(m.basis):
            n = sum(ci * m.pairing[i][j] for i, ci in enumerate(stratum))
            if n:
                derived[tuple(sorted((a, b, cname)))] = n
    signs_ok = len(derived) == 4
    for (a, b, c), n in derived.items():
        parity = (-1) ** sum(1 for name in (a, b, c) if name == "E")
        idx = tuple(sorted(map(m.basis_names.index, (a, b, c))))
        signs_ok = signs_ok and n == parity == m.gw.get((idx, class_neg(e_class)))

    ok = rings_ok and grading_ok and depth_ok and signs_ok
    _verdict(
        capsys, 7,
        "ring axioms on 500 random triples per model, grading on all basis"
        " products, correction depth <= v(x)+v(y) - hbar on 500 pairs, and"
        " the exceptional sign table re-derived as (-1)^#E",
        ok,
    )


def test_c8_growth_rates(capsys):
    # Growing regime: the valuation staircase of Q^{-k} climbs one period
    # of omega(F/4 - E/2) every three steps.
    a2 = Fraction(1, 5)
    m = model_blowup_cp2(a2)
    qi = power(m, q_element(m), -1)
    vals = {k: valuation(x, m.omega) for k, x in power_walk(m, qi, 60)}
    step = (omega_f(a2) * Fraction(1, 4) - a2 * Fraction(1, 2)) / 3
    slope_ok = all(
        (vals[k] - vals[k - 3]) / 3 == step for k in range(43, 61)
    )

    # Bounded regime: the same valuations stay bounded, with the maximum
    # appearing early.
    bounded_ok = True
    for a2 in (Fraction(1, 2), Fraction(3, 4)):
        m = model_blowup_cp2(a2)
        qi = power(m, q_element(m), -1)
        seq = [valuation(x, m.omega) for _, x in power_walk(m, qi, 200)]
        first_max = seq.index(max(seq)) + 1
        bounded_ok = bounded_ok and first_max < 20

    # Rate floor: v(psi(k))/k never dips below (1-a^2)^2 / (12 (1+a^2)).
    a2 = Fraction(1, 4)
    m = model_blowup_cp2(a2)
    generator = psi(1, a2).value
    floor_rate = (1 - a2) ** 2 / (12 * (1 + a2))
    rate_ok = all(
        valuation(x, m.omega) / k >= floor_rate
        for k, x in power_walk(m, generator, 100)
    )

    ok = slope_ok and bounded_ok and rate_ok
    _verdict(
        capsys, 8,
        "per-period slope of v(Q^-k) on [40, 60] equals omega(F/4 - E/2)/3 at"
        " a^2 = 1/5; bounded with early max for a^2 in {1/2, 3/4} up to 200;"
        " v(psi(k))/k >= (1-a^2)^2/(12(1+a^2)) for k <= 100 at a^2 = 1/4",
        ok,
    )


def test_c9_projective_space_relation(capsys):
    ok = True
    for n in range(1, 5):
        m = model_cpn(n)
        x = m.basis_element("x")
        ok = ok and power(m, x, n + 1) == m.element("1 * 1 * e^{-1*L}")
    _verdict(
        capsys, 9,
        "x^(n+1) = 1 x e^{-L} exactly in CP^n for n = 1..4",
        ok,
    )
