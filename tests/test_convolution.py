import math
import random

import numpy as np
import pytest

from cylpot import (
    ConvolutionCapacityError,
    DiscreteDistribution,
    chernoff_bound,
    chernoff_threshold,
    chernoff_threshold_details,
    exact_convolution,
    tail_mass,
)
from cylpot.convolution import _common_grid, _merge_atoms


def test_all_zero_delays_is_point_mass():
    dist = exact_convolution([0.0, 0.0, 0.0])
    assert dist.support.tolist() == [0.0]
    assert dist.probabilities.tolist() == [1.0]
    assert tail_mass(dist, 5.0) == 1.0


def test_unit_delays_give_shifted_binomial():
    dist = exact_convolution([1.0] * 20)
    assert dist.atom_count == 21
    assert np.array_equal(dist.support, -np.arange(20, -1, -1.0))
    assert dist.probabilities[-1] == 0.5**20  # atom at 0
    # Exact tail over [-2, 0]: C(20,0)+C(20,1)+C(20,2) coin patterns.
    assert tail_mass(dist, 2.0) == 211 / 2**20


def test_grid_dp_matches_enumeration():
    grid = exact_convolution([0.5] * 10)
    # sqrt(2)/3 has no rational step, so ten copies take the enumeration
    # route, whose equal partial sums merge into 11 binomial atoms.
    a = math.sqrt(2.0) / 3.0
    assert _common_grid(np.full(10, a)) is None
    enum = exact_convolution([a] * 10)
    assert grid.atom_count == enum.atom_count == 11
    binomial = np.array([math.comb(10, k) for k in range(10, -1, -1)]) / 2**10
    assert np.allclose(enum.probabilities, binomial, rtol=0.0, atol=1e-12)
    assert np.allclose(grid.probabilities, binomial, rtol=0.0, atol=1e-12)
    assert np.allclose(enum.support / a, grid.support / 0.5, rtol=0.0, atol=1e-12)
    assert abs(float(np.sum(grid.probabilities)) - 1.0) <= 1e-12


def test_permutation_invariance():
    rng = np.random.default_rng(8)
    delays = rng.integers(1, 9, size=12) / 8.0
    a = exact_convolution(delays)
    b = exact_convolution(delays[::-1])
    assert np.allclose(a.support, b.support, atol=1e-12)
    assert np.allclose(a.probabilities, b.probabilities, rtol=1e-12)


def test_capacity_error_without_common_grid():
    rng = np.random.default_rng(1)
    delays = rng.uniform(0.1, 0.9, size=30)
    with pytest.raises(ConvolutionCapacityError):
        exact_convolution(delays)


def test_delay_validation():
    with pytest.raises(ValueError):
        exact_convolution([0.5, 1.5])
    with pytest.raises(ValueError):
        exact_convolution([-0.1])


def test_tail_mass_edges():
    dist = exact_convolution([1.0] * 4)
    assert tail_mass(dist, 10.0) == 1.0  # interval swallows the support
    assert tail_mass(dist, 1.0) == (1 + 4) / 16
    with pytest.raises(ValueError):
        tail_mass(dist, 0.0)


def test_chernoff_bound_formula_and_soundness():
    delays = [1.0] * 20
    beta, L = 1.0, 2.0
    want = math.exp(beta * L) * (1 - (1 - math.exp(-beta)) / 2) ** 20
    assert chernoff_bound(delays, L, beta) == pytest.approx(want, rel=1e-12)
    exact = tail_mass(exact_convolution(delays), L)
    assert chernoff_bound(delays, L, beta) >= exact
    rng = np.random.default_rng(5)
    for _ in range(10):
        d = rng.integers(0, 9, size=25) / 8.0
        exact = tail_mass(exact_convolution(d), 1.5)
        best = min(chernoff_bound(d, 1.5, b) for b in np.arange(0.05, 5.0, 0.05))
        assert exact <= best + 1e-12


def test_chernoff_bound_limits():
    assert chernoff_bound([0.7, 0.3], 2.0, 1e-9) == pytest.approx(1.0, abs=1e-6)
    assert chernoff_bound([0.0, 1.0], 1.0, 2.0) == pytest.approx(
        math.exp(2.0) * (1 - (1 - math.exp(-2.0)) / 2), rel=1e-12
    )
    with pytest.raises(ValueError):
        chernoff_bound([0.5], 1.0, 0.0)


def test_chernoff_bound_past_the_float_range_is_inf():
    delays = [1.0] * 20
    log_bound = 5.0 * 200.0 + 20 * math.log1p(0.5 * math.expm1(-5.0))
    assert log_bound > math.log(np.finfo(float).max)
    assert chernoff_bound(delays, 200.0, 5.0) == math.inf
    assert chernoff_bound(delays, 140.0, 5.0) == pytest.approx(
        math.exp(5.0 * 140.0 + 20 * math.log1p(0.5 * math.expm1(-5.0))), rel=1e-12
    )


def test_threshold_monotonicity_and_guarantee():
    grid_L = [0.5, 1.0, 2.0, 4.0]
    grid_eps = [0.2, 0.05, 0.01, 0.001]
    for eps in grid_eps:
        vals = [chernoff_threshold(L, eps) for L in grid_L]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
    for L in grid_L:
        vals = [chernoff_threshold(L, eps) for eps in grid_eps]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
    # Direct guarantee: the simplified bound at the certified beta equals eps.
    thr = chernoff_threshold_details(2.0, 0.01)
    simplified = math.exp(thr.beta * 2.0) * math.exp(
        -0.5 * thr.beta * math.exp(-thr.beta) * thr.threshold
    )
    assert simplified == pytest.approx(0.01, rel=1e-9)


def test_threshold_degenerate_eps():
    val = chernoff_threshold(2.0, 1.0 - 1e-9)
    assert 0.0 < val < math.inf
    with pytest.raises(ValueError):
        chernoff_threshold(2.0, 1.0)
    with pytest.raises(ValueError):
        chernoff_threshold(2.0, 0.0)


def test_threshold_pins_exact_tail():
    A = chernoff_threshold(2.0, 0.01)
    rng = np.random.default_rng(17)
    for _ in range(10):
        delays = []
        while sum(delays) < A:
            delays.append(int(rng.integers(1, 9)) / 8.0)
        assert tail_mass(exact_convolution(delays), 2.0) <= 0.01


def _convolve_by_copies(a, step):
    """The grid DP with a zeroed shifted copy of the pmf per delay."""
    ticks = np.rint(np.asarray(a) / step).astype(np.int64)
    pmf = np.zeros(int(ticks.sum()) + 1)
    pmf[0] = 1.0
    top = 0
    for k in ticks:
        if k == 0:
            continue
        shifted = np.zeros_like(pmf)
        shifted[k : top + k + 1] = pmf[: top + 1]
        pmf[: top + k + 1] = 0.5 * pmf[: top + k + 1] + 0.5 * shifted[: top + k + 1]
        top += k
    keep = pmf > 0.0
    return -step * np.arange(pmf.size)[keep][::-1], pmf[keep][::-1]


def test_in_place_grid_dp_bit_identical_to_copies():
    rng = np.random.default_rng(11)
    for grid, count in ((1000, 60), (40, 200), (7, 30)):
        delays = rng.integers(0, grid + 1, size=count) / grid
        dist = exact_convolution(delays)
        support, probs = _convolve_by_copies(delays, 1.0 / grid)
        assert np.array_equal(dist.support, support)
        assert np.array_equal(dist.probabilities, probs)


def _convolve_two_products(a, step):
    """The grid DP as it was before it halved the sum: each half rounded
    on its own, then added."""
    ticks = np.rint(np.asarray(a) / step).astype(np.int64)
    pmf = np.zeros(int(ticks.sum()) + 1)
    pmf[0] = 1.0
    top = 0
    for k in ticks:
        if k == 0:
            continue
        pmf[k : top + k + 1] = 0.5 * pmf[k : top + k + 1] + 0.5 * pmf[: top + 1]
        pmf[:k] *= 0.5
        top += k
    keep = pmf > 0.0
    return -step * np.arange(pmf.size)[keep][::-1], pmf[keep][::-1]


def test_halved_sum_bit_identical_to_two_products():
    # 400 delays keep every mass above 2**-400, far from the subnormals.
    delays = np.random.default_rng(5).integers(0, 41, size=400) / 40
    dist = exact_convolution(delays)
    support, probs = _convolve_two_products(delays, 1.0 / 40)
    assert np.min(probs) > np.finfo(float).tiny
    assert np.array_equal(dist.support, support)
    assert np.array_equal(dist.probabilities, probs)


def _merge_atoms_per_atom(support, probs):
    """The atom merge as it was before the neighbour-gap pass: a no-merge
    shortcut, then a walk that merges each atom within 1e-12 of the last
    kept atom."""
    order = np.argsort(support)
    s, p = support[order], probs[order]
    if np.all(np.diff(s) > 1e-12):
        return DiscreteDistribution(s + 0.0, p)
    merged_s = [s[0]]
    merged_p = [p[0]]
    for x, q in zip(s[1:], p[1:]):
        if x - merged_s[-1] <= 1e-12:
            merged_p[-1] += q
        else:
            merged_s.append(x)
            merged_p.append(q)
    return DiscreteDistribution(np.asarray(merged_s) + 0.0, np.asarray(merged_p))


def _enumerate_per_atom(a):
    """The enumeration route as it was, merging after every factor."""
    support = np.array([0.0])
    probs = np.array([1.0])
    for delay in a:
        support = np.concatenate([support, support - delay])
        probs = np.concatenate([0.5 * probs, 0.5 * probs])
        dist = _merge_atoms_per_atom(support, probs)
        support, probs = dist.support, dist.probabilities
    return DiscreteDistribution(support, probs)


def test_enumeration_bit_identical_to_per_atom_merge():
    # Irrational delays with repeats and pairwise sums, so equal partial
    # sums formed in different orders meet within 1e-12 and merge.
    rng = np.random.default_rng(2024)
    for _ in range(240):
        base = rng.uniform(0.02, 0.5, size=int(rng.integers(2, 7)))
        i, j = rng.integers(0, base.size, size=(2, int(rng.integers(1, 4))))
        extra = rng.choice(base, size=int(rng.integers(0, 4)))
        delays = rng.permutation(np.concatenate([base, base[i] + base[j], extra]))
        assert _common_grid(delays) is None  # the enumeration route
        dist, want = exact_convolution(delays), _enumerate_per_atom(delays)
        assert dist.support.tobytes() == want.support.tobytes()
        assert dist.probabilities.tobytes() == want.probabilities.tobytes()


def test_grid_route_bit_identical_to_per_atom_merge():
    delays = np.random.default_rng(9).integers(0, 1001, size=400) / 1000
    dist = exact_convolution(delays)
    want = _merge_atoms_per_atom(*_convolve_by_copies(delays, 1.0 / 1000))
    assert np.array_equal(dist.support, want.support)
    assert np.array_equal(dist.probabilities, want.probabilities)


def test_near_chain_merges_whole():
    # Three delays, each pair within 1e-12 but spanning 1.5e-12: every run
    # of partial sums chains by neighbour gap into one atom, giving the
    # binomial masses of three equal delays.  The per-atom walk split each
    # middle run 1e-12 past its first atom, into six atoms.
    a = math.sqrt(2.0) / 3.0
    delays = [a, a + 1.5e-12, a + 0.75e-12]
    dist = exact_convolution(delays)
    assert dist.probabilities.tolist() == [1 / 8, 3 / 8, 3 / 8, 1 / 8]
    assert np.allclose(dist.support, [-3 * a, -2 * a, -a, 0.0], rtol=0.0, atol=1e-11)
    assert _enumerate_per_atom(delays).atom_count == 6


def _convolve_in_place(ticks):
    """The grid DP as it was before it wrote into a second buffer: an
    overlapping in-place add, then an in-place halving."""
    pmf = np.zeros(int(ticks.sum()) + 1)
    pmf[0] = 1.0
    top = 0
    for k in ticks:
        if k == 0:
            continue
        pmf[k : top + k + 1] += pmf[: top + 1]
        pmf[: top + k + 1] *= 0.5
        top += k
    return pmf


def _assert_grid_dp_matches_in_place(delays):
    """exact_convolution's grid route against the full-grid in-place DP,
    bit for bit: atoms, masses, +0.0 for an atom at 0, and masses that
    read the same backwards (the law is a palindrome on the grid)."""
    step = _common_grid(delays)
    assert step is not None  # the grid route
    pmf = _convolve_in_place(np.rint(delays / step).astype(np.int64))
    keep = pmf > 0.0
    support, probs = _merge_atoms(-step * np.arange(pmf.size)[keep], pmf[keep])
    dist = exact_convolution(delays)
    assert dist.support.tobytes() == support.tobytes()
    assert dist.probabilities.tobytes() == probs.tobytes()
    assert dist.probabilities.tobytes() == dist.probabilities[::-1].tobytes()
    assert not np.any(np.signbit(dist.support[dist.support == 0.0]))
    return dist


def test_double_buffered_grid_dp_bit_identical_to_in_place():
    # 300 seeded delay lists with zero ticks, first ticks past the mass
    # (gaps) and denominators up to 10,000, then the 400 delays of the
    # benchmark's cap-large job at seed 3.  The grid path reads its atoms off
    # the DP buffer unsorted; they equal the merged ones, with +0.0 at 0.
    rng = np.random.default_rng(300)
    cases = []
    for _ in range(300):
        grid = int(rng.choice([1, 2, 3, 7, 40, 1000, 9973, 10_000]))
        ticks = rng.integers(0, grid + 1, size=int(rng.integers(1, 40)))
        ticks[rng.random(ticks.size) < 0.2] = 0
        cases.append(ticks / grid)
    draw = random.Random("cap-large:3")
    cases.append(np.array([draw.randint(1, 1000) / 1000 for _ in range(400)]))
    for delays in cases:
        assert _assert_grid_dp_matches_in_place(delays).support[-1] == 0.0


def test_half_grid_dp_edge_steps_bit_identical_to_in_place():
    # Odd and even totals, zero ticks, and gap steps (k > top + 1, which
    # leave ticks of zero mass between the two copies), on the 1/7 grid.
    for ticks in ([1], [2], [3, 1], [1, 5], [0, 6, 0, 1, 0], [2, 7, 7, 1],
                  [7, 7, 7, 7, 6], [1, 1, 1, 1, 3, 7, 7], [0, 0], [5, 3, 7, 2, 6]):
        delays = np.array(ticks) / 7
        dist = _assert_grid_dp_matches_in_place(delays)
        assert dist.atom_count <= 2 ** np.count_nonzero(delays)
    ticks = _assert_grid_dp_matches_in_place(np.array([1, 5]) / 7).support * 7
    assert np.allclose(ticks, [-6, -5, -1, 0], rtol=0.0, atol=1e-12)


def test_half_grid_dp_bit_identical_in_the_subnormal_range():
    # 1200 nonzero delays on the 1/40 grid: the outer masses fall through
    # the subnormals (where halving rounds) to 0, the atom at 0 among them,
    # and the kept ones still match the full-grid DP bit for bit.
    delays = np.random.default_rng(1200).integers(1, 41, size=1200) / 40
    dist = _assert_grid_dp_matches_in_place(delays)
    assert np.min(dist.probabilities) < np.finfo(float).tiny
    assert dist.support[-1] < 0.0


def test_grid_convolution_peak_memory():
    # 400 delays on the 1/1000 grid, about 200k ticks (the benchmark's
    # cap-large job at seed 7).  The DP holds two half-grid buffers of
    # (ticks // 2 + 1) floats; the law is mirrored out into one full-grid
    # buffer, and the atoms are gathered from it without sorting or
    # merging.  Traced peak, measured at 194,845 ticks: 4.88 MB, 3.1
    # buffers (the full law, its ticks and its masses), as with two
    # full-grid DP buffers; sorting and merging the atoms took 12.67 MB,
    # 8.1 buffers.
    import tracemalloc

    draw = random.Random("cap-large:7")
    delays = [draw.randint(1, 1000) / 1000 for _ in range(400)]
    buffer = 8 * (round(sum(delays) * 1000) + 1)
    exact_convolution(delays[:3])  # warm any lazy imports
    tracemalloc.start()
    try:
        dist = exact_convolution(delays)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dist.atom_count > 190_000
    assert peak <= 4 * buffer, (peak, buffer)
