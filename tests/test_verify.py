import math
import re
import warnings

import numpy as np
import pytest

import cylpot as cp
from cylpot import CylinderPoint as P, GreenEvaluator
from cylpot.verify import (
    UnknownSuiteError,
    check_boundary_harnack,
    check_green_monotonicity,
    check_iu_ratio,
    check_normalization,
    check_ratio_limit,
    check_reflection,
    check_small_time_ratio,
    check_symmetry_identity,
    run_suite,
    sample_axial_tuples,
)
from cylpot.verify import _harnack_constants, _harnack_levels


def _evaluator(pair):
    base, spec = pair
    return GreenEvaluator(spec=spec, base=base)


def test_monotonicity_sweep_passes(arc_small):
    ev = _evaluator(arc_small)
    rep = check_green_monotonicity(ev, count=2000, seed=5)
    assert rep.passed and rep.max_violation <= 1e-12
    assert rep.sample_count == 2000


def test_monotonicity_explicit_samples_and_edge_cases(arc_small):
    ev = _evaluator(arc_small)
    # rho -> 0 equality and the two-branch sandwich at v = u + rho/2.
    rep = check_green_monotonicity(
        ev, samples=[(0.5, 1.0, 1.0, 20, 70), (0.0, 0.0, 1e-9, 10, 10)]
    )
    assert rep.max_violation <= 1e-12
    with pytest.raises(ValueError):
        check_green_monotonicity(ev, samples=[])


def test_symmetry_identity_sweep(cap_small):
    ev = _evaluator(cap_small)
    rep = check_symmetry_identity(ev, count=2000, seed=6)
    assert rep.passed and rep.max_violation <= 1e-12


def test_harnack_single_mode_constant(one_node):
    ev = _evaluator(one_node)
    rep = check_boundary_harnack(ev)
    mu1 = math.sqrt(float(ev.spec.mu[0]))
    expect = max(2 * mu1, 1.0 / (2 * mu1))
    assert rep.empirical_constant == pytest.approx(expect, rel=1e-12)
    assert rep.max_violation <= 1e-12


def test_symmetry_sides_have_bitwise_equal_separations():
    # The two sides of every sample have the same |u - v| to the bit, so
    # they share a mode count and a summation order on every route.
    for seed in (0, 3, 1234):
        axial, _ = sample_axial_tuples(300, 10_000, seed, 4, 2)
        u, v, v0, v1 = axial.T
        left = np.abs((v0 - u) - (v0 - v))
        right = np.abs((v1 + u) - (v1 + v))
        assert np.array_equal(left, right)


def test_symmetry_sweep_is_structural(chain_default):
    # Every sample the screen can classify is settled there: none is
    # re-measured in 80-bit, and the deep ones are still skipped.
    rep = check_symmetry_identity(_evaluator(chain_default), count=2000, seed=13)
    assert rep.extras["structural"] is True
    assert rep.extras["escalated"] == 0 and rep.extras["screened"] == 2000
    assert rep.extras["skipped_unresolvable"] > 0
    assert rep.passed and rep.max_violation <= 1e-13


def test_symmetry_screen_sums_each_sample_once(chain_default, monkeypatch):
    # The two sides of a sample are neighbours in the screen's flat batch
    # with the same (s, i, j), so the screen sums one pair per sample.
    from cylpot import cylinder

    summed = []
    sum_pairs = cylinder._sum_distinct_pairs

    def counted(modes, s, i, j, keep):
        summed.append(s.size)
        return sum_pairs(modes, s, i, j, keep)

    monkeypatch.setattr(cylinder, "_sum_distinct_pairs", counted)
    rep = check_symmetry_identity(_evaluator(chain_default), count=2000, seed=13)
    assert rep.extras["escalated"] == 0
    assert summed[0] == 2000 and sum(summed) == 2000


def test_sweep_screens_no_side_of_a_certainly_lost_sample(chain_deep, monkeypatch):
    # Monotonicity screens each sample's deeper side (the larger |u - v|)
    # first, and the other side only of samples not certainly lost there.
    # Its report is the one from screening every side.  The symmetry
    # sweep's sides share separation and nodes: one screen call.
    from cylpot import verify

    ev = _evaluator(chain_deep)
    rng = np.random.default_rng(11)
    u, v = rng.uniform(-6.0, 6.0, (2, 3000))
    rho = rng.uniform(0.05, 4.0, 3000)
    i, j = rng.integers(0, ev.spec.n, (2, 3000))
    samples = list(zip(u, v, rho, i, j))
    calls = []
    screen = ev.screen_many

    def recorded(*pairs):
        calls.append((pairs, screen(*pairs)))
        return calls[-1][1]

    monkeypatch.setattr(ev, "screen_many", recorded)
    got = check_green_monotonicity(ev, samples=samples)
    (deep_pairs, (logs, bound)), (rest_pairs, _) = calls
    deeper = np.abs(u + rho - v) > np.abs(u - v)
    assert np.array_equal(deep_pairs[0], np.where(deeper, u + rho, u))
    lost = np.isnan(logs) & np.isfinite(bound)
    assert 0 < np.count_nonzero(lost) < lost.size
    assert np.array_equal(rest_pairs[0], np.where(deeper, u, u + rho)[~lost])
    assert np.array_equal(rest_pairs[1], i[~lost]) and np.array_equal(rest_pairs[3], j[~lost])

    monkeypatch.setattr(verify, "_screen_sides", lambda ev, pairs: screen(*pairs))
    want = check_green_monotonicity(ev, samples=samples)
    assert got.extras == want.extras and got.extras["skipped_unresolvable"] > 0
    # Equal values of one dtype (80-bit values carry unused padding bytes).
    assert got.max_violation.dtype == want.max_violation.dtype
    assert got.max_violation == want.max_violation
    assert got.samples.keys() == want.samples.keys()
    for name, col in want.samples.items():
        assert got.samples[name].dtype == col.dtype and np.array_equal(got.samples[name], col)
    monkeypatch.undo()

    monkeypatch.setattr(ev, "screen_many", recorded)
    calls.clear()
    check_symmetry_identity(ev, count=2000, seed=13)
    assert len(calls) == 1 and calls[0][0][0].shape == (2000, 2)


@pytest.mark.parametrize("fixture", ["chain_default", "arc_small"])
def test_normalization_compares_batched_numerators_with_one_pair_values(
    fixture, request, monkeypatch
):
    ev = _evaluator(request.getfixturevalue(fixture))
    rep = check_normalization(ev)
    assert rep.sample_count == 15 and rep.config == {"poles": 15}
    assert rep.max_violation == 0.0
    # Batched values one ulp up (log_green's one-pair calls, 0-d, untouched):
    # the suite sees the difference.
    many = GreenEvaluator.log_green_many

    def nudged(self, *args, **kwargs):
        logs = many(self, *args, **kwargs)
        return logs if logs.ndim == 0 else np.nextafter(logs, np.inf)

    monkeypatch.setattr(GreenEvaluator, "log_green_many", nudged)
    assert check_normalization(ev).max_violation > 0.0


def test_normalization_report_is_structural(arc_small):
    # Its numerators and denominators agree by construction, like the two
    # sides of the symmetry sweep, and verify.json says so for both.
    reports = run_suite(_evaluator(arc_small), ("normalization", "symmetry"), count=200)
    for name in ("normalization", "symmetry"):
        assert reports[name].passed
        assert reports[name].to_dict()["extras"]["structural"] is True


def _two_kernel_harnack_constant(ev, grid_max, densify):
    """The Harnack constant over the kernel and its transpose, as the
    suite computed it before it dropped the transpose."""
    x0 = ev.reference.node
    levels = _harnack_levels(ev, grid_max, densify)
    lo, hi = np.nonzero(levels[None, :] >= levels[:, None] + 1.0)
    logs = ev.log_green_many(
        np.stack([levels[lo], levels[hi]], 1), x0,
        np.stack([levels[hi], levels[lo]], 1), x0,
    )
    table = np.full((levels.size, levels.size, 2), np.nan, dtype=logs.dtype)
    table[lo, hi] = logs
    ratio = table[:, None, :, :] - table[:, :, None, :] - table[None, :, :, :]
    valid = ~np.isnan(ratio[..., 0])
    worst = float(np.max(np.abs(ratio[valid]), initial=0.0))
    return math.exp(worst), int(np.count_nonzero(valid))


@pytest.mark.parametrize("fixture", ["chain_default", "arc_small", "cap_small", "cap_d3"])
def test_harnack_transpose_adds_nothing(fixture, request):
    if fixture == "cap_d3":
        base = cp.build_cap(3, 1.2, 400)
        ev = GreenEvaluator(spec=cp.decompose(base), base=base)
    else:
        ev = _evaluator(request.getfixturevalue(fixture))
    grids = ((10, 1), (20, 2))
    for (got, triples), grid in zip(_harnack_constants(ev, grids), grids):
        want, want_triples = _two_kernel_harnack_constant(ev, *grid)
        assert triples == want_triples
        assert abs(got / want - 1.0) <= 1e-14


def _dense_harnack_constant(ev, grid_max, densify):
    """The Harnack constant as the suite computed it before it formed only
    the triples whose three log values exist: the dense L^3 difference."""
    x0 = ev.reference.node
    levels = _harnack_levels(ev, grid_max, densify)
    lo, hi = np.nonzero(levels[None, :] >= levels[:, None] + 1.0)
    logs = ev.log_green_many(levels[lo], x0, levels[hi], x0)
    table = np.full((levels.size, levels.size), np.nan, dtype=logs.dtype)
    table[lo, hi] = logs
    ratio = table[:, None, :] - table[:, :, None] - table[None, :, :]
    valid = ~np.isnan(ratio)
    worst = float(np.max(np.abs(ratio[valid]), initial=0.0))
    return math.exp(worst), int(np.count_nonzero(valid))


@pytest.mark.parametrize("fixture", ["chain_default", "arc_small", "cap_small", "one_node"])
def test_harnack_constant_bit_identical_to_dense_table(fixture, request):
    # The two grids read one batch over the union of their level pairs; each
    # constant equals its own grid's dense table bit for bit.
    ev = _evaluator(request.getfixturevalue(fixture))
    grids = ((10, 1), (20, 2))
    got = _harnack_constants(ev, grids)
    assert got == [_dense_harnack_constant(ev, *grid) for grid in grids]


def test_harnack_stability_on_arc(arc_small):
    ev = _evaluator(arc_small)
    rep = check_boundary_harnack(ev, grid_max=10)
    assert rep.passed  # drift under grid doubling within 5%
    assert rep.empirical_constant >= 1.0


def test_iu_ratio_on_arc(arc_small):
    base, spec = arc_small
    rep = check_iu_ratio(spec, probe_node=base.n // 3)
    lam = np.asarray(spec.eigenvalues, dtype=float)
    assert rep.rate.expected == pytest.approx(-(lam[1] - lam[0]))
    assert rep.rate.rel_deviation <= 0.10
    assert np.all(np.asarray(rep.extras["c_values"]) >= 1.0)
    assert rep.extras["tail_gap"] <= 1e-8
    assert rep.extras["tail_t"] == pytest.approx(50.0, rel=0.01)


def _full_width_c_values(spec, probe_node):
    """C(t) of check_iu_ratio on its default grid as the suite computed it
    before it dropped the modes whose weight is 0 at the first time."""
    tau = 3.0 / float(spec.eigenvalues[1] - spec.eigenvalues[0])
    t_grid = tau * np.concatenate([np.arange(1.0, 9.0, 0.5), np.arange(9.0, 51.0, 1.0)])
    lam, phi, phi0 = spec.eigenvalues, spec.eigenvectors, spec.ground_state
    gaps = lam[1:] - lam[0]
    coeff = phi[probe_node, 1:] / phi0[probe_node]
    cvals = np.empty_like(t_grid)
    for idx, t in enumerate(t_grid):
        r = 1.0 + (phi[:, 1:] @ (coeff * np.exp(-gaps * t))) / phi0
        cvals[idx] = math.inf if np.any(r <= 0.0) else max(np.max(r), np.max(1.0 / r))
    return t_grid, cvals


@pytest.mark.parametrize("fixture", ["chain_default", "chain_deep"])
def test_iu_ratio_bit_identical_to_full_width_product(fixture, request):
    # 80-bit eigendata sum the product in order, so the exact-zero weights
    # the suite drops change no bit.
    base, spec = request.getfixturevalue(fixture)
    assert spec.eigenvectors.dtype == np.longdouble
    probe = base.n // 3
    t_grid, want = _full_width_c_values(spec, probe)
    rep = check_iu_ratio(spec, probe)
    assert rep.extras["c_values"].tobytes() == want.tobytes()
    if fixture == "chain_deep":
        lam, phi = spec.eigenvalues, spec.eigenvectors
        weights = phi[probe, 1:] / phi[probe, 0] * np.exp(-(lam[1:] - lam[0]) * t_grid[0])
        assert np.count_nonzero(weights) < spec.n // 4  # most modes are dropped


def test_iu_ratio_grid_validation(arc_small):
    _, spec = arc_small
    with pytest.raises(ValueError):
        check_iu_ratio(spec, probe_node=3, t_grid=np.array([2.0, 1.0]))


def test_small_time_single_mode_flat(one_node):
    _, spec = one_node
    rep = check_small_time_ratio(spec, lam=0.3, t0=1.7, x=0, y_sequence=[0, 0, 0])
    want = -math.expm1(-(spec.lambda1 + 0.3) * 1.7)
    assert np.allclose(rep.extras["ratios"], want, rtol=1e-12)
    assert rep.extras["is_decreasing"]


def test_small_time_arc_bounded_below(arc_small):
    base, spec = arc_small
    rep = check_small_time_ratio(
        spec, lam=0.0, t0=1.0, x=base.reference_node, y_sequence=np.arange(base.n)
    )
    assert rep.extras["min_ratio"] >= 0.2


def test_small_time_requires_positive_shift(one_node):
    _, spec = one_node
    with pytest.raises(ValueError):
        check_small_time_ratio(spec, lam=-10.0, t0=1.0, x=0, y_sequence=[0])


def test_small_time_chain_collapses_at_the_end(chain_default):
    base, spec = chain_default
    centers = cp.chain_bead_centers(base)
    rep = check_small_time_ratio(
        spec, lam=0.0, t0=1.0, x=base.reference_node, y_sequence=centers
    )
    ratios = np.asarray(rep.extras["ratios"], dtype=float)
    assert rep.extras["is_decreasing"]
    assert ratios[-1] <= 0.05 * ratios[4]


def test_small_time_ratios_below_the_floor_read_zero(chain_default):
    # Beads 8-40 of the default chain sit below the floor, where the
    # cancelling eigen-sum leaves sign-random rounding (down to -7.6e-17).
    base, spec = chain_default
    rep = check_small_time_ratio(
        spec, lam=0.0, t0=1.0, x=base.reference_node, y_sequence=cp.chain_bead_centers(base)
    )
    ratios = np.asarray(rep.extras["ratios"])
    assert rep.extras["below_floor"] == 33
    assert np.all(ratios[7:] == 0.0) and np.all(ratios[:7] >= 1e-9)
    assert rep.extras["min_ratio"] == 0.0 and rep.extras["is_decreasing"]


def test_iu_ratio_reports_an_empty_fit_window(cyclic_graph):
    # lam3 - lam2 = 5.6e-4 moves the window start past its end: nothing to fit.
    spec = cp.decompose(cp.load_base(cyclic_graph))
    rep = check_iu_ratio(spec, probe_node=spec.n // 3)
    assert rep.status == "insufficient" and not rep.passed and rep.rate is None
    assert "fit window [8235.19, 4717.92] holds 0 of the 58 times" in rep.note
    assert "lam3 - lam2 = 0.000559" in rep.note


def test_ratio_limit_trivial_cases(arc_small, cap_small):
    nodes = [10, 40, 90]
    rep = check_ratio_limit(
        _evaluator(arc_small), rho=1.3, rho_prime=-1.3, x=50, y_sequence=nodes
    )
    assert np.allclose(rep.extras["ratios"], 1.0, rtol=1e-12)
    rep2 = check_ratio_limit(
        _evaluator(cap_small), rho=0.8, rho_prime=0.8, x=150, y_sequence=nodes
    )
    assert np.allclose(rep2.extras["ratios"], math.exp(0.0), rtol=1e-12)


def test_ratio_limit_chain_converges(chain_default):
    base, _ = chain_default
    centers = cp.chain_bead_centers(base)
    rep = check_ratio_limit(
        _evaluator(chain_default), rho=1.0, rho_prime=0.0, x=base.reference_node,
        y_sequence=centers,
    )
    devs = np.asarray(rep.extras["deviations"], dtype=float)
    assert rep.extras["final_deviation"] <= 0.10
    assert np.all(np.diff(devs[20:]) <= 1e-9)  # settles along the deep half


def test_reflection_exactness_and_fixed_nodes(arc_sym):
    ev = _evaluator(arc_sym)
    rep = check_reflection(ev, count=2000, seed=3)
    assert rep.passed and rep.max_violation <= 1e-12
    sigma = ev.base.symmetry
    center = int(np.nonzero(sigma == np.arange(ev.spec.n))[0][0])
    pole = P(1.0, 30)
    lhs = ev.log_green(P(-2.0, center), pole)
    rhs = ev.log_green(P(-2.0, int(sigma[center])), pole)
    assert lhs == rhs


def test_reflection_skipped_without_symmetry(cap_small):
    ev = _evaluator(cap_small)
    rep = check_reflection(ev)
    assert rep.status == "skipped" and rep.passed


def test_reflection_on_a_one_node_arc_is_insufficient():
    # The only node is the fixed one: no left-half node to place a pole at.
    base = cp.build_arc(2.0, 1)
    ev = GreenEvaluator(spec=cp.decompose(base), base=base)
    rep = run_suite(ev, ("reflection",), count=64, seed=3)["reflection"]
    assert rep.status == "insufficient" and not rep.passed
    assert rep.sample_count == 0
    assert "left half" in rep.note


def test_reflection_constant_stable_under_refinement(arc_sym):
    ev = _evaluator(arc_sym)
    c1 = check_reflection(ev, count=2000, seed=3).empirical_constant
    c2 = check_reflection(ev, count=4000, seed=3).empirical_constant
    assert abs(c2 / c1 - 1.0) <= 0.10


def test_ratio_limit_with_a_lost_pair_is_an_error(chain_shortcut):
    chain, doc = chain_shortcut
    base = cp.load_base(doc)
    ev = GreenEvaluator(spec=cp.decompose(base), base=base)
    centers = cp.chain_bead_centers(chain)
    # The deepest rho' = 0 pair has no positive value on any route.
    with pytest.raises(cp.NumericalLossError, match=rf"G\(\(0.0, {centers[-1]}\); \(0.0, 0\)\)"):
        check_ratio_limit(ev, 1.0, 0.0, 0, centers)
    rep = run_suite(ev, ("ratio_limit",))["ratio_limit"]
    assert rep.status == "error" and not rep.passed
    assert rep.note.startswith("NumericalLossError")


@pytest.mark.parametrize("b", [3000.0, -3000.0])
def test_ratio_limit_past_the_float_range_is_a_parameter_error(b):
    # e^(-b/2) at rho - rho' = 1 underflows (b > 0) or overflows (b < 0):
    # a named error before any exp, with no floating-point warning.
    base = cp.build_arc(3.0, 50, b=b)
    ev = GreenEvaluator(spec=cp.decompose(base), base=base)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = run_suite(ev, ("ratio_limit",))["ratio_limit"]
    assert rep.status == "error" and not rep.passed
    assert rep.note.startswith("ParameterError: ")
    assert f"b = {b!r}" in rep.note and "rho - rho' = 1.0" in rep.note


def _mirrored_chain_graph():
    """The 12-bead default chain mirrored about its anchor, as a 208-node
    graph: nodes 103 and 104 are the two anchors, each with a leak of 8.0,
    joined by a conductance-8 edge; a 1e-9 chord (0, 207) keeps it from
    being a path, so it has no resolvent route.  Symmetry k -> 207 - k."""
    chain = cp.build_chain(cp.default_chain_spec(bead_count=12), d=4)
    n = chain.n
    edges = [[n - 1 - int(j), n - 1 - int(i), float(c)]
             for (i, j), c in zip(chain.edges, chain.conductance)]
    edges += [[n + int(i), n + int(j), float(c)]
              for (i, j), c in zip(chain.edges, chain.conductance)]
    edges += [[n - 1, n, 8.0], [0, 2 * n - 1, 1e-9]]
    leak = np.zeros(2 * n)
    leak[[n - 1, n]] = 8.0
    return cp.build_graph(
        edges=edges, mass=np.concatenate([chain.mass[::-1], chain.mass]),
        dirichlet_leak=leak, d=4, symmetry=np.arange(2 * n)[::-1],
    )


def test_reflection_with_a_lost_profile_is_an_error():
    base = _mirrored_chain_graph()
    assert base.n == 208 and not base.is_tridiagonal
    ev = GreenEvaluator(spec=cp.decompose(base), base=base)
    # A domination profile reaches the deep beads, where its mode sum has no
    # positive value: the constant cannot be measured, and the suite says so
    # instead of reporting a nan constant as ok.
    rep = run_suite(ev, ("reflection",), count=2000, seed=3)["reflection"]
    assert rep.status == "error" and not rep.passed
    assert re.fullmatch(
        r"NumericalLossError: no positive value for G\(\(\S+, \d+\); \(\S+, \d+\)\) on any route",
        rep.note,
    )


def test_run_suite_all_on_arc(arc_small):
    ev = _evaluator(arc_small)
    reports = run_suite(ev, ("all",), count=1500, seed=21)
    assert set(reports) == set(
        ("monotonicity", "symmetry", "normalization", "harnack",
         "iu_ratio", "small_time", "ratio_limit", "reflection")
    )
    for name, rep in reports.items():
        assert rep.passed, f"{name}: {rep.max_violation} vs {rep.tolerance}"
    for name in ("monotonicity", "symmetry", "normalization", "reflection"):
        assert reports[name].max_violation <= 1e-12
    assert reports["iu_ratio"].rate is not None


def test_run_suite_all_on_chain(chain_default):
    ev = _evaluator(chain_default)
    reports = run_suite(ev, ("all",), count=800, seed=13)
    for name, rep in reports.items():
        assert rep.passed, f"{name}: {rep.max_violation} vs {rep.tolerance}"
    # Deep pairs are skipped by the exactness sweeps, not asserted blindly.
    assert reports["monotonicity"].extras["skipped_unresolvable"] > 0
    assert reports["reflection"].status == "skipped"
    assert reports["iu_ratio"].rate.rel_deviation <= 0.10


def test_run_suite_empty_and_unknown(arc_small):
    ev = _evaluator(arc_small)
    assert run_suite(ev, ()) == {}
    with pytest.raises(UnknownSuiteError):
        run_suite(ev, ("does-not-exist",))


def test_run_suite_deterministic(arc_small):
    ev = _evaluator(arc_small)
    a = run_suite(ev, ("monotonicity", "symmetry"), count=800, seed=9)
    b = run_suite(ev, ("monotonicity", "symmetry"), count=800, seed=9)
    for name in a:
        assert a[name].max_violation == b[name].max_violation
        assert a[name].to_dict() == b[name].to_dict()


def test_suite_error_isolation(arc_small, monkeypatch):
    ev = _evaluator(arc_small)

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr("cylpot.verify.check_boundary_harnack", boom)
    reports = run_suite(ev, ("harnack", "normalization"), seed=1)
    assert reports["harnack"].status == "error" and not reports["harnack"].passed
    assert reports["normalization"].passed


def test_report_serialization(arc_small):
    ev = _evaluator(arc_small)
    rep = check_green_monotonicity(ev, count=500, seed=2)
    d = rep.to_dict()
    assert d["suite"] == "monotonicity" and d["passed"] is True
    assert isinstance(d["max_violation"], float)


def test_sweep_reports_route_counts(chain_default):
    ev = _evaluator(chain_default)
    for check in (check_green_monotonicity, check_symmetry_identity):
        rep = check(ev, count=500, seed=13)
        ex = rep.extras
        assert ex["screened"] + ex["escalated"] == 500
        assert ex["resolved_fraction"] == rep.sample_count / 500
        assert rep.sample_count + ex["skipped_unresolvable"] == 500


def test_sweep_with_no_resolved_sample_is_insufficient(arc_small, monkeypatch):
    # A health switch at 1 declares every mode sum lost.
    monkeypatch.setattr("cylpot.cylinder._HEALTH_SWITCH", 1.0)
    ev = _evaluator(arc_small)
    for rep in (
        check_green_monotonicity(ev, count=64, seed=1),
        check_symmetry_identity(ev, count=64, seed=1),
    ):
        assert rep.status == "insufficient" and not rep.passed
        assert rep.sample_count == 0
        assert rep.extras["skipped_unresolvable"] == 64
        assert rep.extras["resolved_fraction"] == 0.0


def test_deep_pair_near_the_slack_is_remeasured(chain_default):
    """A screen value below the -1e-8 slack by less than its certified
    bound settles nothing: the sample is re-measured in eigendata
    precision, and the report carries that measurement."""
    ev = _evaluator(chain_default)
    b, phi, sm = ev.spec.b, ev.spec.eigenvectors, ev.sqrt_mu
    rng = np.random.default_rng(5)
    u = rng.uniform(-6.0, 0.0, 4000)
    v = u + rng.uniform(0.5, 6.0, 4000)
    i, j = rng.integers(0, ev.spec.n, 4000), rng.integers(0, ev.spec.n, 4000)
    screen, bound = ev.screen_many(u, i, v, j)
    lost = np.isnan(screen)
    # A deep pair whose sum cancels to ~1e-7 of its magnitude: its float64
    # screen is certified only to ~1e-6, far coarser than the slack.
    k = int(np.flatnonzero(~lost & (bound > 1e-7) & (bound < 1e-5))[0])
    u0, v0, i0, j0 = u[k], v[k], int(i[k]), int(j[k])
    rhos = np.geomspace(1e-10, 1e-3, 2000)
    pu = np.stack([np.full(rhos.size, u0), u0 + rhos], 1)
    lg, bd = ev.screen_many(pu, i0, v0, j0)
    viol = lg[:, 0] - (0.5 * b * rhos + lg[:, 1])
    # Independent floor of the certified bound: (K + 4) eps magnitude/|tail|
    # for each side, from the sums over every mode.
    keep = ev._mode_counts(np.abs(pu - v0).ravel(), np.full(pu.size, i0),
                           np.full(pu.size, j0)).reshape(pu.shape)
    weights = phi[i0] * phi[j0] / (2.0 * sm)
    terms = weights[None, :] * np.exp(-np.abs(pu - v0).ravel()[:, None] * (sm - sm[0]))
    ratio = (np.abs(terms).sum(axis=1) / np.abs(terms.sum(axis=1))).reshape(pu.shape)
    floor = (keep + 4) * np.finfo(float).eps * ratio.astype(float)
    assert np.all(bd >= floor)
    # The largest shift whose screen value the floor cannot settle.
    rho_k = int(np.flatnonzero(viol + floor.sum(axis=1) > -1e-8)[-1])
    rho = rhos[rho_k]
    assert viol[rho_k] < -1e-8
    rep = check_green_monotonicity(ev, samples=[(u0, v0, rho, i0, j0)])
    assert rep.extras["escalated"] == 1 and rep.extras["screened"] == 0
    native = ev.log_green_many(np.array([[u0, u0 + rho]]), i0, v0, j0, allow_stable=False)
    assert not np.isnan(native).any()
    assert rep.max_violation == native[0, 0] - (0.5 * b * rho + native[0, 1])


def test_sample_near_the_slack_settles_on_its_screen_value_on_float64_base(arc_small):
    """On float64 eigendata the screen is the eigendata-precision value
    (every bound 0), so a sample settles on it however near the slack it
    lies: nothing is re-measured.

    The pinned sample was found by scanning rho over
    np.geomspace(1e-12, 1e-7, 2000) at this (u, v, i, j); its violation,
    about -3.1e-11, is above the sweep's -1e-8 slack."""
    ev = _evaluator(arc_small)
    u, v, rho, i, j = -0.57038289364972, -0.24275770748896, 1.5438115904375312e-10, 81, 21
    pu = np.array([[u, u + rho]])
    # v >= u + rho/2 and b = 0: the violation is log G(u) - log G(u + rho).
    screen, bound = ev.screen_many(pu, i, v, j)
    lg = ev.log_green_many(pu, i, v, j, allow_stable=False)
    assert ev.spec.b == 0.0 and not bound.any() and np.array_equal(screen, lg)
    v64 = lg[0, 0] - lg[0, 1]
    assert -1e-8 < v64 < 0.0
    rep = check_green_monotonicity(ev, samples=[(u, v, rho, i, j)])
    assert rep.extras["escalated"] == 0 and rep.extras["screened"] == 1
    assert rep.max_violation == v64


def test_run_suite_rejects_bad_count_and_seed(arc_small):
    ev = _evaluator(arc_small)
    for kwargs in ({"count": 0}, {"count": -5}, {"seed": -1}):
        with pytest.raises(cp.ParameterError):
            run_suite(ev, ("monotonicity",), **kwargs)


@pytest.mark.parametrize("dims", [1, 2, 3, 4, 5, 6])
def test_sobol_port_matches_scipy(dims, monkeypatch):
    # The sweeps' construction is scipy's scrambled Sobol sequence.  Fed the
    # scramble bits scipy draws from default_rng(seed), the shift's then the
    # LMS matrices', the numpy port reproduces scipy's points bit for bit on
    # every shape the suites draw.
    from scipy.stats import qmc

    from cylpot import verify

    def numpy_bits(seed, count):
        assert count == dims * 30 * 31
        rng = np.random.default_rng(seed)
        shift = rng.integers(2, size=dims * 30, dtype=np.uint32)
        return np.concatenate([shift, rng.integers(2, size=dims * 900, dtype=np.uint32)])

    monkeypatch.setattr(verify, "_random_bits", numpy_bits)
    for count in (1, 2, 200, 4000, 10000, 10001):
        block = 1 << max(0, (count - 1).bit_length())
        for seed in (0, 1234, 2**31 - 1, 2**63 + 5):
            want = qmc.Sobol(d=dims, scramble=True, seed=seed).random(block)[:count]
            got = verify._sobol(dims, count, seed)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (dims, count, seed)
    with pytest.raises(ValueError, match="2\\*\\*30"):  # scipy's limit, checked first
        verify._sobol(dims, 2**30 + 1, 0)


def test_scramble_bits_are_the_standard_librarys():
    # _sobol's scramble bits are random.Random(seed).getrandbits's, least
    # significant bit first; a numpy integer seed is its Python int.
    import random

    from cylpot.verify import _random_bits

    for seed in (0, 1, 2**32, 2**64 + 5):
        for count in (1, 8, 930, 6 * 930):
            bits = _random_bits(seed, count)
            word = random.Random(seed).getrandbits(count)
            assert bits.shape == (count,)
            assert [int(b) for b in bits] == [word >> i & 1 for i in range(count)]
    assert np.array_equal(_random_bits(np.uint64(2**63 + 7), 930), _random_bits(2**63 + 7, 930))
    assert np.array_equal(_random_bits(np.int32(7), 930), _random_bits(7, 930))
    draws = [_random_bits(seed, 930) for seed in (0, 1, 2, 2**32, 2**40)]
    assert len({d.tobytes() for d in draws}) == len(draws)
    with pytest.raises(ValueError, match="non-negative"):
        _random_bits(-1, 930)
    with pytest.raises(ValueError, match="non-negative"):
        _random_bits(np.int64(-3), 930)


@pytest.mark.parametrize("dims", [1, 2, 3, 4, 5, 6])
def test_sobol_points_are_dyadic_and_stratified(dims):
    # Each coordinate of the first 2**m points meets every interval
    # [k 2**-m, (k+1) 2**-m) once, whatever the scramble, and every
    # coordinate is a multiple of 2**-30, so the symmetry sweep's two sides
    # have bitwise-equal |u - v|.
    from cylpot.verify import _sobol

    for seed in (0, 7, 2**40):
        points = _sobol(dims, 1 << 12, seed)
        ticks = points * 2.0**30
        assert np.array_equal(ticks, np.floor(ticks)) and np.all((0 <= points) & (points < 1))
        for m in range(13):
            cells = np.floor(points[: 1 << m] * 2.0**m).astype(np.int64)
            for col in cells.T:
                assert np.array_equal(np.sort(col), np.arange(1 << m)), (dims, seed, m)


def test_sobol_rejects_a_negative_seed():
    from cylpot.verify import _sobol

    with pytest.raises(ValueError, match="non-negative"):
        _sobol(3, 8, -1)


def test_sobol_draws_at_most_six_dimensions():
    # Only the direction numbers of the six dimensions the sweeps draw are
    # embedded.
    from cylpot.verify import _sobol

    with pytest.raises(ValueError, match="at most 6 Sobol dimensions"):
        _sobol(7, 8, 0)


def test_error_reports_keep_the_suites_tolerance(arc_small, monkeypatch):
    # A suite that raises reports the tolerance it reports when it runs:
    # its fixed one, or run_suite's for the exactness sweeps.
    ev = _evaluator(arc_small)
    names = ("monotonicity", "normalization", "harnack", "iu_ratio", "small_time", "ratio_limit")
    ran = run_suite(ev, names, count=200, tolerance=3e-11)
    for check in ("check_green_monotonicity", "check_normalization", "check_boundary_harnack",
                  "check_iu_ratio", "check_small_time_ratio", "check_ratio_limit"):
        monkeypatch.setattr(f"cylpot.verify.{check}", lambda *a, **k: 1 / 0)
    failed = run_suite(ev, names, count=200, tolerance=3e-11)
    for name in names:
        assert failed[name].status == "error"
        assert failed[name].tolerance == ran[name].tolerance
    assert [failed[name].tolerance for name in names] == [3e-11, 0.0, 0.05, 0.1, 0.0, 0.0]
