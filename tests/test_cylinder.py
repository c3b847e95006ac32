import math

import numpy as np
import pytest
import scipy.integrate

import cylpot as cp
from cylpot import (
    CylinderPoint as P,
    GreenEvaluator,
    ModeSolution,
    StableAxialEvaluator,
    fit_exponent,
    gaussian_density,
    positivity_scan,
    truncated_dirichlet_solve,
)


def _evaluator(pair):
    base, spec = pair
    return GreenEvaluator(spec=spec, base=base)


def test_gaussian_density_values():
    assert gaussian_density(1.0, 0.0, 0.0) == pytest.approx((4 * math.pi) ** -0.5)
    assert gaussian_density(1.0, 1.0, 1.0) == pytest.approx(
        (4 * math.pi) ** -0.5 * math.exp(-1.0)
    )
    with pytest.raises(ValueError):
        gaussian_density(0.0, 1.0, 0.0)


@pytest.mark.parametrize("t,b", [(0.3, 0.0), (1.0, 2.0), (4.5, -1.3)])
def test_gaussian_density_normalization(t, b):
    val, err = scipy.integrate.quad(
        lambda w: gaussian_density(t, w, b), -np.inf, np.inf, epsabs=1e-12
    )
    assert abs(val - 1.0) <= 1e-10


def test_green_single_mode_closed_form(one_node):
    ev = _evaluator(one_node)
    c = 2.5
    for u, v in ((0.0, 1.3), (2.0, -0.7), (5.0, 5.0)):
        want = math.exp(-abs(u - v) * math.sqrt(c)) / (2 * math.sqrt(c))
        assert ev.green(P(u, 0), P(v, 0)) == pytest.approx(want, rel=1e-12)


def test_green_single_mode_quadrature(one_node):
    ev = _evaluator(one_node)
    c = 2.5
    got = ev.green_by_quadrature(P(0.0, 0), P(1.3, 0))
    want = math.exp(-1.3 * math.sqrt(c)) / (2 * math.sqrt(c))
    assert got == pytest.approx(want, rel=1e-8)
    with pytest.raises(ValueError):
        ev.green_by_quadrature(P(1.0, 0), P(1.0, 0))


@pytest.mark.parametrize("kind", ["arc", "cap"])
def test_green_closed_form_vs_quadrature(kind):
    if kind == "arc":
        base = cp.build_arc(math.pi, 200)
    else:
        base = cp.build_cap(4, 2 * math.pi / 5, 200)
    ev = GreenEvaluator(spec=cp.decompose(base), base=base)
    rng = np.random.default_rng(42)
    for _ in range(20):
        u, v = rng.uniform(-3.0, 3.0, 2)
        i, j = rng.integers(20, 180, 2)
        a = ev.green(P(u, int(i)), P(v, int(j)))
        q = ev.green_by_quadrature(P(u, int(i)), P(v, int(j)))
        assert a == pytest.approx(q, rel=1e-8)


def test_quadrature_integrand_nonnegative(arc_small):
    base, spec = arc_small
    c = np.asarray(spec.eigenvectors[14] * spec.eigenvectors[90], dtype=float)
    lam = np.asarray(spec.eigenvalues, dtype=float)
    for t in np.geomspace(1e-4, 60.0, 200):
        assert gaussian_density(t, 1.7, base.b) * float(c @ np.exp(-lam * t)) >= -1e-30


def test_quadrature_tolerance_error_reports_estimate(one_node):
    ev = _evaluator(one_node)
    with pytest.raises(cp.QuadratureToleranceError) as info:
        ev.green_by_quadrature(P(0.0, 0), P(1.3, 0), rel_tol=1e-16)
    want = math.exp(-1.3 * math.sqrt(2.5)) / (2 * math.sqrt(2.5))
    assert info.value.estimate == pytest.approx(want, rel=1e-8)
    assert info.value.abserr > 0.0


def test_green_symmetric_when_driftless(arc_small):
    ev = _evaluator(arc_small)
    assert ev.green(P(0.4, 11), P(-1.2, 77)) == ev.green(P(-1.2, 77), P(0.4, 11))


def test_green_on_diagonal_finiteness(arc_small):
    _, spec = arc_small
    ev = _evaluator(arc_small)
    i = 40
    direct = float(
        np.sum(np.asarray(spec.eigenvectors[i]) ** 2 / (2.0 * np.sqrt(spec.mu)))
    )
    assert ev.green(P(1.5, i), P(1.5, i)) == pytest.approx(direct, rel=1e-12)


def test_symmetry_identity_with_drift(cap_small):
    ev = _evaluator(cap_small)
    b = ev.spec.b
    rng = np.random.default_rng(3)
    for _ in range(100):
        u, v, v0, v1 = rng.uniform(-4, 4, 4)
        i, j = rng.integers(5, 295, 2)
        lhs = ev.log_green(P(v0 - u, int(i)), P(v0 - v, int(j)))
        rhs = b * (u - v) + ev.log_green(P(v1 + u, int(i)), P(v1 + v, int(j)))
        assert abs(lhs - rhs) <= 1e-12


def test_shift_inequalities_both_branches(cap_small):
    ev = _evaluator(cap_small)
    b = ev.spec.b
    rng = np.random.default_rng(4)
    for _ in range(200):
        u, v = rng.uniform(-5, 5, 2)
        rho = rng.uniform(0.01, 3.0)
        i, j = (int(x) for x in rng.integers(5, 295, 2))
        lg = ev.log_green(P(u, i), P(v, j))
        bound = 0.5 * b * rho + ev.log_green(P(u + rho, i), P(v, j))
        if v >= u + rho / 2:
            assert lg <= bound + 1e-12
        else:
            assert lg >= bound - 1e-12
    # rho = 0 degenerates to equality, and on the branch boundary the two
    # bounds sandwich the value.
    u, i, j = 0.3, 50, 200
    assert ev.log_green(P(u, i), P(2.0, j)) == ev.log_green(P(u, i), P(2.0, j))
    rho = 1.0
    v = u + rho / 2
    lg = ev.log_green(P(u, i), P(v, j))
    bound = 0.5 * b * rho + ev.log_green(P(u + rho, i), P(v, j))
    assert abs(lg - bound) <= 1e-12


def test_martin_kernel_normalization_and_positivity(arc_small):
    ev = _evaluator(arc_small)
    for pole in (P(30.0, 50), P(-4.0, 3), P(0.25, 99)):
        kern = ev.martin_kernel(pole)
        assert kern(ev.reference) == 1.0
        for u in (-2.0, 0.0, 3.0):
            assert kern(P(u, 17)) > 0.0
    with pytest.raises(ValueError):
        ev.martin_kernel(ev.reference)


def test_martin_kernel_shift_lower_bound(cap_small):
    ev = _evaluator(cap_small)
    b = ev.spec.b
    kern = ev.martin_kernel(P(24.0, 150))
    rng = np.random.default_rng(9)
    for _ in range(50):
        u = rng.uniform(-4.0, 4.0)
        rho = rng.uniform(0.0, 3.0)
        if 24.0 < u + rho:
            continue
        i = int(rng.integers(5, 295))
        lhs = kern.log_value(P(u + rho, i))
        rhs = -0.5 * b * rho + kern.log_value(P(u, i))
        assert lhs >= rhs - 1e-12


def test_martin_kernel_far_pole_matches_f_plus(arc_small):
    ev = _evaluator(arc_small)
    kern = ev.martin_kernel(P(30.0, ev.reference.node))
    fp = ev.f_plus()
    worst = max(
        abs(kern(P(u, i)) - fp(P(u, i)))
        for u in np.linspace(-2, 2, 9)
        for i in range(0, ev.spec.n, 5)
    )
    assert worst <= 1e-6


def test_martin_deviation_helper_matches_direct(arc_small):
    ev = _evaluator(arc_small)
    nodes = np.arange(0, ev.spec.n, 7)
    u_grid = np.linspace(-2, 2, 5)
    pole = P(8.0, ev.reference.node)
    dev = ev.martin_deviation_from_f_plus(pole, u_grid, nodes)
    kern = ev.martin_kernel(pole)
    fp = ev.f_plus()
    direct = np.array(
        [[kern(P(u, int(i))) - fp(P(u, int(i))) for u in u_grid] for i in nodes]
    )
    assert np.max(np.abs(dev - direct)) <= 1e-12


def test_reference_shift_changes_kernel_by_constant(arc_small):
    base, spec = arc_small
    ev1 = GreenEvaluator(spec=spec, base=base)
    ev2 = GreenEvaluator(spec=spec, base=base, reference=P(0.0, 20))
    pole = P(9.0, 60)
    k1, k2 = ev1.martin_kernel(pole), ev2.martin_kernel(pole)
    pts = [P(u, i) for u in (-1.0, 0.5, 2.0) for i in (5, 44, 90)]
    ratios = np.array([k2(p) / k1(p) for p in pts])
    assert np.max(np.abs(ratios / ratios[0] - 1.0)) <= 1e-12


def test_f_plus_f_minus_forms(arc_small):
    ev = _evaluator(arc_small)
    fp, fm = ev.f_plus(), ev.f_minus()
    i0 = ev.reference.node
    assert fp(P(0.0, i0)) == 1.0 and fm(P(0.0, i0)) == 1.0
    assert fp(P(1.0, i0)) / fp(P(0.0, i0)) == pytest.approx(
        math.exp(ev.spec.alpha_max), rel=1e-14
    )
    assert fm(P(1.0, i0)) == pytest.approx(math.exp(ev.spec.alpha_min), rel=1e-14)


def test_f_plus_hemisphere_growth(cap_hemi4):
    ev = _evaluator(cap_hemi4)
    fp = ev.f_plus()
    i = ev.spec.n // 2
    ratio = fp(P(1.0, i)) / fp(P(0.0, i))
    assert ratio == pytest.approx(math.e, rel=1e-4)


def test_separated_solution_harmonicity(cap_small):
    base, spec = cap_small
    phi0 = np.asarray(spec.ground_state, dtype=float)
    resid = base.stiffness @ phi0 - spec.lambda1 * base.mass * phi0
    assert np.linalg.norm(resid) <= 1e-10 * spec.lambda1 * np.linalg.norm(phi0)
    for alpha in (spec.alpha_max, spec.alpha_min):
        assert abs(alpha * (alpha + spec.b) - spec.lambda1) <= 1e-12


def test_truncated_solve_reproduces_f_plus(arc_small):
    ev = _evaluator(arc_small)
    fp = ev.f_plus()
    T = 3.0
    g_plus = np.array([fp(P(T, i)) for i in range(ev.spec.n)])
    g_minus = np.array([fp(P(-T, i)) for i in range(ev.spec.n)])
    sol = truncated_dirichlet_solve(ev, T, g_minus, g_plus)
    i0 = ev.reference.node
    assert abs(sol.coeff_plus[0] - 1.0 / ev.spec.ground_state[i0]) <= 1e-10
    assert abs(sol.coeff_minus[0]) <= 1e-10
    assert np.max(np.abs(sol.coeff_plus[1:])) <= 1e-10
    assert np.max(np.abs(sol.coeff_minus[1:])) <= 1e-10


def test_truncated_solve_random_data_reconstruction(arc_small):
    base, spec = arc_small
    ev = _evaluator(arc_small)
    rng = np.random.default_rng(12)
    g_minus, g_plus = rng.normal(size=spec.n), rng.normal(size=spec.n)
    sol = truncated_dirichlet_solve(ev, 2.5, g_minus, g_plus)
    rec = sol.evaluate(np.array([-2.5, 2.5]))
    phi = np.asarray(spec.eigenvectors, dtype=float)
    for col, data in ((0, g_minus), (1, g_plus)):
        got = phi.T @ (base.mass * np.asarray(rec[:, col], dtype=float))
        want = phi.T @ (base.mass * data)
        assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))


def test_truncated_solve_ground_state_data(arc_small):
    _, spec = arc_small
    ev = _evaluator(arc_small)
    g = np.asarray(spec.ground_state, dtype=float)
    sol = truncated_dirichlet_solve(ev, 1.5, g, g)
    assert np.max(np.abs(sol.coeff_plus[1:])) <= 1e-12
    assert np.max(np.abs(sol.coeff_minus[1:])) <= 1e-12
    assert sol.coeff_plus[0] != 0.0 and sol.coeff_minus[0] != 0.0
    with pytest.raises(ValueError):
        truncated_dirichlet_solve(ev, 0.0, g, g)


def test_positivity_scan_canonical_solutions(arc_small):
    _, spec = arc_small
    i0 = cp.build_arc(math.pi, 101).reference_node
    a0 = 1.0 / spec.ground_state[i0]
    assert positivity_scan(ModeSolution.from_coefficients(spec, [a0], []), (-50, 50)) is None
    assert positivity_scan(ModeSolution.from_coefficients(spec, [], [a0]), (-50, 50)) is None


def test_positivity_scan_pure_second_mode(arc_small):
    _, spec = arc_small
    witness = positivity_scan(
        ModeSolution.from_coefficients(spec, [0.0, 1.0], []), (-50, 50)
    )
    assert witness is not None


def test_positivity_scan_contaminated_solution(arc_small):
    _, spec = arc_small
    base = cp.build_arc(math.pi, 101)
    a0 = 1.0 / spec.ground_state[base.reference_node]
    sol = ModeSolution.from_coefficients(spec, [a0], [0.0, 1e-3])
    witness = positivity_scan(sol, (-50, 50))
    # The decaying-branch contamination outgrows the canonical solution for
    # u negative enough; the witness must sit well left of the origin.
    assert witness is not None and witness.u <= -2.0
    sol_a = ModeSolution.from_coefficients(spec, [a0, 1e-3], [])
    witness_a = positivity_scan(sol_a, (-50, 50))
    assert witness_a is not None and witness_a.u >= 2.0


def test_positivity_scan_random_nonnegative_combinations(arc_small):
    _, spec = arc_small
    base = cp.build_arc(math.pi, 101)
    a0 = 1.0 / spec.ground_state[base.reference_node]
    rng = np.random.default_rng(77)
    for _ in range(10):
        a, c = rng.uniform(0.0, 3.0, 2)
        sol = ModeSolution.from_coefficients(spec, [a * a0], [c * a0])
        assert positivity_scan(sol, (-50, 50)) is None


def test_fit_exponent_oracles(arc_small):
    ev = _evaluator(arc_small)
    fp, fm = ev.f_plus(), ev.f_minus()
    us = np.linspace(0.0, 5.0, 11)
    fit_p = fit_exponent([(u, fp(P(u, 30))) for u in us])
    assert fit_p.alpha_hat == pytest.approx(ev.spec.alpha_max, abs=1e-12)
    assert fit_p.max_residual <= 1e-12
    fit_m = fit_exponent([(u, fm(P(u, 30))) for u in us])
    assert fit_m.alpha_hat == pytest.approx(ev.spec.alpha_min, abs=1e-12)
    kern = ev.martin_kernel(P(40.0, ev.reference.node))
    fit_k = fit_exponent([(float(u), kern(P(float(u), 30))) for u in range(6)])
    assert abs(fit_k.alpha_hat - ev.spec.alpha_max) <= 1e-6


def test_fit_exponent_input_validation():
    with pytest.raises(ValueError):
        fit_exponent([(0.0, 1.0), (1.0, 2.0)])
    with pytest.raises(ValueError):
        fit_exponent([(0.0, 1.0), (0.0, 2.0), (1.0, 3.0)])
    with pytest.raises(ValueError):
        fit_exponent([(0.0, 1.0), (1.0, -2.0), (2.0, 3.0)])


def test_stable_axial_matches_eigensum_on_healthy_base(arc_small):
    base, spec = arc_small
    stable = StableAxialEvaluator(base, spec.b)
    sm = np.sqrt(np.asarray(spec.mu, dtype=float))
    phi = np.asarray(spec.eigenvectors, dtype=float)
    x = 50
    # Well-separated nodes: the resolvent route only serves deep pairs, and
    # near the diagonal its w-truncation is out of scope by design.
    nodes = np.array([10, 30, 80])
    for s in (0.0, 0.7, 2.5):
        want = (phi[nodes] * (phi[x] * np.exp(-s * sm) / (2 * sm))[None, :]).sum(axis=1)
        got = stable.values(s, nodes, x)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-8


def test_stable_route_consistent_across_switchover(chain_default):
    base, spec = chain_default
    ev = GreenEvaluator(spec=spec, base=base)
    stable = StableAxialEvaluator(base, spec.b)
    centers = cp.chain_bead_centers(base)
    x = base.reference_node
    sm = np.sqrt(np.asarray(spec.mu, dtype=float))
    phi = np.asarray(spec.eigenvectors, dtype=float)
    s = 2.0
    decay = np.exp(-s * (sm - sm[0]))
    weights = phi[x] / (2 * sm) * decay
    checked = 0
    for node in centers:
        tail = float(phi[int(node)] @ weights)
        mag = float(np.abs(phi[int(node)]) @ np.abs(weights))
        health = tail / mag if mag > 0 else 0.0
        if 1e-6 <= health <= 1e-3:  # both routes have digits to compare
            eig = tail * math.exp(-s * float(sm[0]))
            res = float(stable.values(s, int(node), x)[0])
            assert res == pytest.approx(eig, rel=2e-4)
            checked += 1
    assert checked >= 1


def test_log_green_deep_separation_finite(chain_default):
    base, spec = chain_default
    ev = GreenEvaluator(spec=spec, base=base)
    deep = int(cp.chain_bead_centers(base)[-1])
    val = ev.log_green(P(0.0, base.reference_node), P(0.0, deep))
    assert np.isfinite(val)
    kern = ev.martin_kernel(P(0.0, deep))
    assert kern(ev.reference) == 1.0


def _assert_resolvent_matches_cholesky(base, b):
    """Resolvent entries and s = 0 values against solveh_banded columns."""
    import scipy.linalg

    from cylpot.spectral import mass_scaled_bands

    stable = StableAxialEvaluator(base, b)
    scale, diag, off = mass_scaled_bands(base)
    w, qw = stable._w, stable._qw
    n = base.n
    ab = np.zeros((2, n))
    ab[0, 1:] = off
    nodes = np.arange(n)
    for root in (0, n // 3, n - 1):
        rhs = np.zeros(n)
        rhs[root] = 1.0
        want = np.empty((n, w.size))
        for k, wk in enumerate(w):
            ab[1] = diag + 0.25 * b * b + wk * wk
            want[:, k] = scipy.linalg.solveh_banded(ab, rhs)
        got = stable.resolvent(nodes, root)
        assert np.array_equal(got > 0.0, want > 0.0)
        nz = want > 0.0
        assert np.max(np.abs(got[nz] / want[nz] - 1.0)) <= 1e-10
        # At s = 0 the quadrature has no cosine cancellation.
        ref = (want @ qw) / math.pi * scale * scale[root]
        got_v = stable.values(0.0, nodes, root)
        assert np.array_equal(got_v > 0.0, ref > 0.0)
        assert np.max(np.abs(got_v[ref > 0] / ref[ref > 0] - 1.0)) <= 1e-10


@pytest.mark.parametrize("fixture", ["chain_default", "arc_small", "cap_small"])
def test_resolvent_matches_banded_cholesky_reference(fixture, request):
    base, spec = request.getfixturevalue(fixture)
    _assert_resolvent_matches_cholesky(base, spec.b)


def test_resolvent_rejects_zero_coupling():
    # A zero-conductance edge cuts the path into two blocks.  The resolvent
    # route needs a connected path; decompose rejects the split base too,
    # so no GreenEvaluator ever builds a resolvent for one.
    base = cp.build_graph(
        edges=[[0, 1, 1.0], [1, 2, 0.0], [2, 3, 2.0], [3, 4, 1.0], [4, 5, 0.5]],
        mass=[1.0, 0.5, 1.0, 2.0, 1.0, 1.5],
        dirichlet_leak=[1.0, 0.0, 0.5, 0.0, 0.0, 1.0],
        d=3,
    )
    assert base.is_tridiagonal
    with pytest.raises(ValueError, match="connected path"):
        StableAxialEvaluator(base, base.b)
    with pytest.raises(cp.EigensolverError, match="entrywise positive"):
        cp.decompose(base)


@pytest.fixture(scope="module")
def graph_small():
    # A weighted graph with a cycle and a chord: not a path, no resolvent route.
    base = cp.build_graph(
        edges=[[0, 1, 1.0], [1, 2, 0.7], [2, 3, 1.3], [3, 4, 0.4], [4, 5, 2.0],
               [5, 0, 0.9], [1, 4, 0.25], [2, 6, 1.1]],
        mass=[1.0, 0.5, 1.5, 0.8, 1.2, 0.6, 0.9],
        dirichlet_leak=[0.3, 0.0, 0.0, 0.5, 0.0, 0.2, 0.7],
        d=3,
    )
    assert not base.is_tridiagonal
    return base, cp.decompose(base)


def _oracle_log_green(ev, p, q, extended=False):
    """Per-pair log G over every mode, as log_green computed it before the
    batched route: (log G or None when the sum fails the health switch,
    tail, magnitude)."""
    w = p.u - q.u
    s = abs(w)
    sqrt_mu = ev.sqrt_mu
    delta = sqrt_mu - sqrt_mu[0]
    phi = ev.spec.eigenvectors
    weights = phi[p.node] * phi[q.node] / (2.0 * sqrt_mu)
    if extended:
        decay = np.exp(np.longdouble(-s) * delta.astype(np.longdouble))
        tail = float(np.dot(weights.astype(np.longdouble), decay))
    else:
        decay = np.exp(-s * delta)
        tail = float(np.dot(weights, decay))
    magnitude = float(np.dot(np.abs(weights), decay))
    if tail <= 1e-8 * magnitude:
        return None, tail, magnitude
    return -0.5 * ev.spec.b * w - s * sqrt_mu[0] + math.log(tail), tail, magnitude


@pytest.mark.parametrize("extended", [False, True])
@pytest.mark.parametrize(
    "fixture", ["arc_small", "cap_small", "chain_default", "one_node", "graph_small"]
)
def test_log_green_many_matches_per_pair_oracle(fixture, extended, request):
    base, spec = request.getfixturevalue(fixture)
    ev = GreenEvaluator(spec=spec, base=base)
    rng = np.random.default_rng(17)
    m = 300
    pu, qu = rng.uniform(-6.0, 6.0, m), rng.uniform(-6.0, 6.0, m)
    pu[:30] = qu[:30]  # s = 0 keeps every mode
    pn, qn = rng.integers(0, base.n, m), rng.integers(0, base.n, m)
    logs = ev.log_green_many(pu, pn, qu, qn, extended=extended, allow_stable=False)
    lost = np.isnan(logs)
    eps64 = np.finfo(float).eps
    work = np.longdouble if extended else spec.eigenvectors.dtype
    sm = np.asarray(ev.sqrt_mu, dtype=float)
    for k in range(m):
        want, tail, mag = _oracle_log_green(ev, P(pu[k], int(pn[k])), P(qu[k], int(qn[k])), extended)
        assert bool(lost[k]) == (want is None)
        if want is None:
            continue
        # Both sums round by at most (n + 6 + s delta_max) eps magnitude in
        # the working precision; truncation moves the tail by under an ulp.
        s = abs(pu[k] - qu[k])
        dtail = 2 * (spec.n + 6 + s * (sm[-1] - sm[0])) * np.finfo(work).eps * mag
        dtail += eps64 * tail
        bound = dtail / (tail - dtail) + 4 * eps64 * (
            abs(float(want)) + s * sm[0] + abs(0.5 * spec.b * (pu[k] - qu[k])) + 1.0
        )
        assert abs(float(logs[k]) - float(want)) <= bound


def test_sides_across_a_rung_sum_their_own_mode_counts(chain_default):
    base, spec = chain_default
    ev = GreenEvaluator(spec=spec, base=base)
    delta, ladder, g = ev._float64_modes.delta, ev._ladder, ev._ground_depth
    i, j = 3, 6
    # The separation at which the count of pair (i, j) steps down to a ladder
    # rung: two sides a hair apart on either side of it keep different counts.
    rung = int(ladder[np.searchsorted(ladder, 16)])
    reach = math.log(1.01 / (np.finfo(float).eps * 1e-8)) + g[i] + g[j]
    s_pair = reach / delta[rung] * np.array([1.0 - 1e-9, 1.0 + 1e-9])
    counts = ev._mode_counts(s_pair, np.array([i, i]), np.array([j, j]))
    assert counts[0] > counts[1] == rung
    logs = ev.log_green_many(np.zeros((1, 2)), i, s_pair[None, :], j)
    assert not np.isnan(logs).any()
    # Each side sums its own leading modes in index order.
    phi, sm = spec.eigenvectors, ev.sqrt_mu
    for side, s in enumerate(s_pair):
        K = int(counts[side])
        terms = phi[i, :K] * phi[j, :K] / (2.0 * sm[:K]) * np.exp(-s * (sm - sm[0])[:K])
        tail = np.float64(np.cumsum(terms)[-1])
        assert logs[0, side] == -0.5 * spec.b * -s - s * sm[0] + np.log(tail)


@pytest.mark.parametrize("extended", [False, True])
@pytest.mark.parametrize("fixture", ["chain_default", "arc_small", "cap_small", "graph_small"])
def test_eigenmode_values_do_not_depend_on_batch_shape(fixture, extended, request):
    # A pair's eigenmode value is the same in an (m, 3) batch, in the flat
    # batch and alone; the resolvent route is left out (allow_stable=False).
    base, spec = request.getfixturevalue(fixture)
    ev = GreenEvaluator(spec=spec, base=base)
    rng = np.random.default_rng(23)
    m = 60
    pu, qu = rng.uniform(-6.0, 6.0, (m, 3)), rng.uniform(-6.0, 6.0, (m, 3))
    pu[:5] = qu[:5]  # s = 0 keeps every mode
    pn, qn = rng.integers(0, base.n, (m, 3)), rng.integers(0, base.n, (m, 3))
    grid = ev.log_green_many(pu, pn, qu, qn, extended=extended, allow_stable=False)
    flat = ev.log_green_many(pu.ravel(), pn.ravel(), qu.ravel(), qn.ravel(),
                             extended=extended, allow_stable=False)
    assert grid.shape == (m, 3)
    assert np.array_equal(grid.ravel(), flat, equal_nan=True)
    for k, (a, b, c, d) in enumerate(zip(pu.ravel(), pn.ravel(), qu.ravel(), qn.ravel())):
        try:
            one = ev.log_green(P(a, int(b)), P(c, int(d)), extended, allow_stable=False)
        except cp.NumericalLossError:
            one = np.nan
        assert np.array_equal(flat[k], one, equal_nan=True)


def test_resolvent_values_do_not_depend_on_batch(chain_default):
    # Every pair the eigenmode route loses (656 of 984 here) takes the
    # resolvent route, and its value is the same in the flat batch, in the
    # (3, n) batch and alone.
    base, spec = chain_default
    ev = GreenEvaluator(spec=spec, base=base)
    u, nodes = np.array([0.3, 1.3, 4.0]), np.arange(base.n)
    pu, pn = np.repeat(u, base.n), np.tile(nodes, u.size)
    lost = np.isnan(ev.log_green_many(pu, pn, 0.0, 0, allow_stable=False))
    assert np.count_nonzero(lost) == 656
    flat = ev.log_green_many(pu, pn, 0.0, 0)
    grid = ev.log_green_many(u[:, None], nodes[None, :], 0.0, 0)
    alone = [ev.log_green_many(a, b, 0.0, 0) for a, b in zip(pu[lost], pn[lost])]
    assert np.array_equal(grid.ravel()[lost], flat[lost])
    assert np.array_equal(np.asarray(alone), flat[lost])


@pytest.mark.parametrize("pu, qu", [(np.nan, 0.0), (0.0, np.inf), (-np.inf, -np.inf)])
def test_pairs_reject_non_finite_axial_coordinates(arc_small, pu, qu):
    ev = _evaluator(arc_small)
    with pytest.raises(ValueError, match="finite"):
        ev.log_green_many([0.0, pu], 5, qu, 7)
    with pytest.raises(ValueError, match="finite"):
        ev.screen_many(pu, 5, qu, 7)


def test_log_green_many_shapes_and_loss(chain_default):
    base, spec = chain_default
    ev = GreenEvaluator(spec=spec, base=base)
    deep = int(cp.chain_bead_centers(base)[-1])
    pu = np.array([[0.0, 1.0], [2.0, 3.0]])
    logs = ev.log_green_many(pu, 0, 0.0, [[deep], [5]])
    assert logs.shape == (2, 2) and not np.isnan(logs).any()
    for r in range(2):
        for c in range(2):
            node = deep if r == 0 else 5
            assert logs[r, c] == pytest.approx(
                float(ev.log_green(P(pu[r, c], 0), P(0.0, node))), abs=1e-12
            )
    # Without the resolvent the deep pair is lost (nan), and log_green raises.
    assert np.isnan(ev.log_green_many(0.0, 0, 0.0, deep, allow_stable=False))
    with pytest.raises(cp.NumericalLossError):
        ev.log_green(P(0.0, 0), P(0.0, deep), allow_stable=False)
    with pytest.raises(ValueError):
        ev.log_green_many(0.0, 0, 0.0, base.n)
    assert ev.log_green_many([], [], 0.0, 0).shape == (0,)


def test_chain_deep_eigenmode_sum_matches_fine_resolvent_rule():
    # The benchmark's deep chain at axial separation s = 0.2269..., where the
    # 80-bit mode sum is healthy: the eigenmode log G at nodes 80-87 (pole
    # at node 0) against resolvent quadrature on rules far finer than the
    # default panels.  Eigendata from divide and conquer is 4.4e-8 off here.
    from cylpot.cylinder import _gauss_panel_rule

    base = cp.load_base({
        "type": "chain", "d": 4, "J": 40, "beadNodes": 8, "neckRatio": 0.004,
        "anchorNodes": 8, "radiiRule": "uniform",
    })
    ev = GreenEvaluator(spec=cp.decompose(base), base=base)
    u, nodes = -0.22691860165038974, np.arange(80, 88)
    modes = ev.log_green_many(u, nodes, 0.0, 0, allow_stable=False)
    assert not np.isnan(modes).any()

    def reference(edges, order):
        stable = StableAxialEvaluator(base, base.b)
        stable._w, stable._qw = _gauss_panel_rule(edges, order)
        return -0.5 * base.b * u + np.log(stable.values(abs(u), nodes, 0))

    fine = reference(np.concatenate([np.arange(0.0, 40.0, 0.1), np.arange(40.0, 200.5, 1.0)]), 16)
    finer = reference(np.concatenate([np.arange(0.0, 40.0, 0.05), np.arange(40.0, 400.5, 1.0)]), 20)
    assert np.max(np.abs(fine - finer)) <= 1e-12  # the reference has converged
    assert np.max(np.abs(np.asarray(modes, dtype=float) - fine)) <= 5e-9
