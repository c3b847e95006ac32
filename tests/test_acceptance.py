"""Acceptance gate: every numbered criterion at its stated tolerance.

Each test prints one pass/fail line; run with `pytest -s tests/test_acceptance.py`
(or `-rA`) to see them all.
"""

import math

import numpy as np

import cylpot as cp
from cylpot import CylinderPoint as P, GreenEvaluator, ModeSolution, positivity_scan
from cylpot.verify import (
    check_boundary_harnack,
    check_green_monotonicity,
    check_iu_ratio,
    check_ratio_limit,
    check_reflection,
    check_small_time_ratio,
    check_symmetry_identity,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _evaluator(pair):
    base, spec = pair
    return GreenEvaluator(spec=spec, base=base)


def test_criterion_1_exponent_formula(arc_fine, cap_hemi3, cap_hemi4, cap_hemi5):
    _, spec_arc = arc_fine
    err_arc = abs(spec_arc.alpha_max - 1.0)
    errs_cap = {
        d: abs(pair[1].alpha_max - 1.0)
        for d, pair in ((3, cap_hemi3), (4, cap_hemi4), (5, cap_hemi5))
    }
    ok = err_arc <= 1e-5 and all(e <= 1e-4 for e in errs_cap.values())
    _report(
        1, ok,
        f"alpha_max errors: arc {err_arc:.2e} (tol 1e-5), caps "
        + ", ".join(f"d={d} {e:.2e}" for d, e in errs_cap.items())
        + " (tol 1e-4)",
    )


def test_criterion_2_closed_form_vs_quadrature(arc_fine, cap_hemi4, one_node):
    rng = np.random.default_rng(2026)
    worst = {}
    for name, pair in (("arc", arc_fine), ("cap_d4", cap_hemi4), ("one_node", one_node)):
        ev = _evaluator(pair)
        n = ev.spec.n
        lo, hi = (0, 1) if n == 1 else (n // 10, n - n // 10)
        w = 0.0
        for _ in range(20):
            u, v = rng.uniform(-2.5, 2.5, 2)
            i, j = rng.integers(lo, hi, 2)
            if u == v and i == j:
                v += 0.5
            a = ev.green(P(u, int(i)), P(v, int(j)))
            q = ev.green_by_quadrature(P(u, int(i)), P(v, int(j)))
            w = max(w, abs(a / q - 1.0))
        worst[name] = w
    ok = all(w <= 1e-8 for w in worst.values())
    _report(2, ok, "closed form vs quadrature, worst rel: "
            + ", ".join(f"{k} {v:.2e}" for k, v in worst.items()) + " (tol 1e-8)")


def test_criterion_3_monotonicity_and_symmetry(arc_sym, cap_hemi4, one_node):
    worst_m, worst_s = -math.inf, -math.inf
    for pair in (arc_sym, cap_hemi4, one_node):
        ev = _evaluator(pair)
        worst_m = max(worst_m, check_green_monotonicity(ev, count=10_000, seed=31).max_violation)
        worst_s = max(worst_s, check_symmetry_identity(ev, count=10_000, seed=32).max_violation)
    ok = worst_m <= 1e-12 and worst_s <= 1e-12
    _report(3, ok, f"10^4-sample sweeps per base: monotonicity {worst_m:.2e}, "
            f"symmetry identity {worst_s:.2e} (tol 1e-12)")


def test_criterion_4_martin_convergence_and_harnack(arc_fine):
    base, spec = arc_fine
    ev = _evaluator(arc_fine)
    poles_v = np.arange(2.0, 40.0 + 1e-9, 2.0)
    u_grid = np.linspace(-2.0, 2.0, 9)
    nodes = np.arange(0, spec.n, 31)
    sups = np.array([
        float(np.max(np.abs(ev.martin_deviation_from_f_plus(P(float(v), ev.reference.node), u_grid, nodes))))
        for v in poles_v
    ])
    decreasing = bool(np.all(np.diff(sups) < 0.0))
    sm = np.sqrt(np.asarray(spec.mu, dtype=float))
    expected = -(sm[1] - sm[0])
    v_fit_min = 2.0 + math.log(100.0) / (sm[2] - sm[1])
    mask = poles_v >= v_fit_min
    fit = cp.fit_exponent(list(zip(poles_v[mask], sups[mask])))
    rate_dev = abs(fit.alpha_hat - expected) / abs(expected)
    har = check_boundary_harnack(ev, grid_max=10)
    ok = decreasing and rate_dev <= 0.10 and har.max_violation <= 0.05
    _report(4, ok, f"sup|K - F+| strictly decreasing over v=2..40: {decreasing}; "
            f"decay rate {fit.alpha_hat:.4f} vs {expected:.4f} ({rate_dev:.1%}, tol 10%); "
            f"Harnack constant {har.empirical_constant:.4f} drift {har.max_violation:.2%} "
            f"under grid doubling (tol 5%)")


def test_criterion_5_heat_kernel_sharpness_rate(arc_fine):
    base, spec = arc_fine
    t_grid = np.concatenate([np.arange(1.0, 9.0, 0.5), np.arange(9.0, 51.0, 1.0)])
    rep = check_iu_ratio(
        spec, probe_node=base.n // 3, t_grid=t_grid, fit_window=(2.0, 8.0)
    )
    tail = rep.extras["tail_gap"]
    ok = rep.rate.rel_deviation <= 0.10 and tail <= 1e-8
    _report(5, ok, f"C(t)-1 rate {rep.rate.value:.4f} vs {rep.rate.expected:.4f} "
            f"({rep.rate.rel_deviation:.2%}, tol 10%); C(50)-1 = {tail:.2e} (tol 1e-8)")


def test_criterion_6_convolution_threshold():
    A = cp.chernoff_threshold(2.0, 0.01)
    rng = np.random.default_rng(606)
    worst_tail = 0.0
    for _ in range(100):
        delays = []
        while sum(delays) < A:
            delays.append(int(rng.integers(1, 9)) / 8.0)
        worst_tail = max(worst_tail, cp.tail_mass(cp.exact_convolution(delays), 2.0))
    hand = cp.tail_mass(cp.exact_convolution([1.0] * 20), 2.0)
    ok = worst_tail <= 0.01 and hand == 211 / 2**20
    _report(6, ok, f"A(2, 0.01) = {A:.3f}; worst exact tail over 100 admissible "
            f"sequences {worst_tail:.3e} (tol 0.01); hand value 211/2^20 reproduced "
            f"exactly: {hand == 211 / 2**20}")


def test_criterion_7_chain_vs_arc_contrast(chain_default, arc_fine):
    base, spec = chain_default
    ev = _evaluator(chain_default)
    centers = cp.chain_bead_centers(base)
    x0 = base.reference_node

    small = check_small_time_ratio(spec, lam=0.0, t0=1.0, x=x0, y_sequence=centers)
    deep_ratio = float(small.extras["ratios"][-1])

    arc_base, arc_spec = arc_fine
    arc_small_time = check_small_time_ratio(
        arc_spec, lam=0.0, t0=1.0, x=arc_base.reference_node,
        y_sequence=np.arange(arc_base.n),
    )
    arc_min = arc_small_time.extras["min_ratio"]

    ratio = check_ratio_limit(ev, rho=1.0, rho_prime=0.0, x=x0, y_sequence=centers)
    deep_dev = ratio.extras["final_deviation"]

    u_fit = np.linspace(2.0, 6.0, 9)
    kern = ev.martin_kernel(P(0.0, int(centers[-1])))
    vals = [(float(u), math.exp(kern.log_value(P(float(u), x0)))) for u in u_fit]
    alpha_hat = cp.fit_exponent(vals).alpha_hat
    alpha_gap = abs(alpha_hat - (-1.0))

    ok = deep_ratio < 0.05 and arc_min > 0.2 and deep_dev <= 0.10 and alpha_gap <= 0.10
    _report(7, ok, f"small-time ratio deep end {deep_ratio:.2e} (< 0.05) vs arc "
            f"minimum {arc_min:.3f} (> 0.2); drifted-ratio deviation at deep end "
            f"{deep_dev:.3f} (tol 0.10); fitted Martin exponent {alpha_hat:.4f} "
            f"vs -1 (gap {alpha_gap:.3f}, tol 0.10)")


def test_criterion_8_positivity_falsification(arc_small):
    base, spec = arc_small
    a0 = 1.0 / spec.ground_state[base.reference_node]
    contaminated = ModeSolution.from_coefficients(spec, [a0], [0.0, 1e-3])
    witness = positivity_scan(contaminated, (-50.0, 50.0))
    found = witness is not None

    clean = [
        ModeSolution.from_coefficients(spec, [a0], []),
        ModeSolution.from_coefficients(spec, [], [a0]),
    ]
    rng = np.random.default_rng(808)
    for _ in range(50):
        a, c = rng.uniform(0.0, 2.0, 2)
        clean.append(ModeSolution.from_coefficients(spec, [a * a0], [c * a0]))
    spurious = [sol for sol in clean if positivity_scan(sol, (-50.0, 50.0)) is not None]
    ok = found and not spurious
    _report(8, ok, f"negativity witness for canonical+1e-3*mode-2 at "
            f"{witness}; no witness for the canonical pair and 50 random "
            f"nonnegative combinations ({len(spurious)} spurious)")


def test_criterion_9_reflection_inequality(arc_sym):
    ev = _evaluator(arc_sym)
    rep = check_reflection(ev, count=10_000, seed=99)
    ok = rep.max_violation <= 1e-12
    _report(9, ok, f"reflection inequality over 10^4 samples: max violation "
            f"{rep.max_violation:.2e} (tol 1e-12); domination constant "
            f"{rep.empirical_constant:.3f}")
