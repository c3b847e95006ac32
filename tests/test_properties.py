"""Property tests of the Green routes on random chains and random graphs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cylpot as cp
from cylpot import CylinderPoint as P, GreenEvaluator

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=3)
GRAPHS = settings(PROPERTY, max_examples=12)

# |log G(p;q) - log G(q;p) + b(pu - qu)| on resolvent values: the two sides
# come from different roots' prefix products, so rounding separates them.
# Seen: 1.7e-13 at most over 3 x 3000 pairs.
RESOLVENT_SWAP_TOL = 1e-12
# |V(0) by the s = 0 rule - full mode sum| relative to the sum of the mode
# magnitudes.  Seen: 1.7e-12 at most over 40 seeded paths like these; the
# rule's own discretization and range errors are near 1e-17.
ZERO_RULE_TOL = 1e-11


@PROPERTY
@given(
    beads=st.integers(20, 40),
    neck=st.floats(1e-3, 4e-3),
    seed=st.integers(0, 2**32 - 1),
)
def test_resolvent_values_swap_with_the_drift_factor(beads, neck, seed):
    """On d=4 chains (b = 2), pairs whose mode sum is lost are measured by
    resolvent quadrature, once with the pole at q and once at p; the two
    values must differ by exactly the drift factor e^{-b(pu - qu)}."""
    base = cp.build_chain(cp.default_chain_spec(bead_count=beads, neck_ratio=neck), d=4)
    ev = GreenEvaluator(spec=cp.decompose(base), base=base)
    rng = np.random.default_rng(seed)
    m = 3000
    pu, qu = rng.uniform(-6.0, 6.0, m), rng.uniform(-6.0, 6.0, m)
    i, j = rng.integers(0, base.n, m), rng.integers(0, base.n, m)
    lost = np.isnan(ev.log_green_many(pu, i, qu, j, allow_stable=False))
    assert lost.sum() >= 100  # the property reaches the resolvent route
    pu, qu, i, j = pu[lost], qu[lost], i[lost], j[lost]
    forward = ev.log_green_many(pu, i, qu, j)
    backward = ev.log_green_many(qu, j, pu, i)
    err = np.abs(forward - backward + base.b * (pu - qu))
    assert err.max() <= RESOLVENT_SWAP_TOL


@st.composite
def non_path_graphs(draw):
    """Connected weighted graphs that are not paths: a deep random spanning
    tree (node k hangs off one of the three nodes before it), a few random
    chords and a weak chord (0, n-1), conductances over five decades,
    random masses and one leak, at node 0.  Far from the leak, mode sums of
    such graphs lose their digits, as on the chains."""
    n = draw(st.integers(12, 48))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = {(int(rng.integers(max(0, k - 3), k)), k) for k in range(1, n)}
    edges |= {tuple(sorted(map(int, rng.choice(n, 2, replace=False))))
              for _ in range(draw(st.integers(0, 3)))}
    edges.discard((0, n - 1))
    edges = sorted(edges) + [(0, n - 1)]
    cond = 10.0 ** rng.uniform(-4.0, 1.0, len(edges))
    cond[-1] *= 1e-6
    leak = np.zeros(n)
    leak[0] = 10.0 ** rng.uniform(-1.0, 1.0)
    base = cp.build_graph(
        edges=[[a, c, w] for (a, c), w in zip(edges, cond)],
        mass=10.0 ** rng.uniform(-1.0, 1.0, n), dirichlet_leak=leak,
        d=draw(st.integers(2, 5)),
    )
    assert not base.is_tridiagonal
    return base, rng


@GRAPHS
@given(graph=non_path_graphs())
def test_non_path_graph_values_are_finite_or_the_evaluator_raises(graph):
    base, rng = graph
    ev = GreenEvaluator(spec=cp.decompose(base), base=base)
    m = 400
    pu, qu = rng.uniform(-30.0, 30.0, m), rng.uniform(-30.0, 30.0, m)
    i, j = rng.integers(0, base.n, m), rng.integers(0, base.n, m)
    modes = ev.log_green_many(pu, i, qu, j, allow_stable=False)
    lost = np.isnan(modes)
    # nan marks exactly the pairs log_green refuses.
    for k in range(m):
        p, q = P(pu[k], int(i[k])), P(qu[k], int(j[k]))
        if lost[k]:
            with pytest.raises(cp.NumericalLossError):
                ev.log_green(p, q, allow_stable=False)
        else:
            assert ev.log_green(p, q, allow_stable=False) == modes[k]
    # With no resolvent route on these bases, a lost pair is an error.
    if lost.any():
        with pytest.raises(cp.NumericalLossError, match=r"G\(\(\S+, \d+\); \(\S+, \d+\)\)"):
            ev.log_green_many(pu, i, qu, j)
    else:
        assert np.all(np.isfinite(ev.log_green_many(pu, i, qu, j)))


@GRAPHS
@given(
    n=st.integers(2, 120),
    d=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_zero_separation_rule_matches_the_mode_sum_on_random_paths(n, d, seed):
    """On random connected paths (conductances over four decades, masses
    over two, leaks at both ends), the s = 0 rule and the full mode sum
    agree to a stated multiple of the sum of the mode magnitudes, one
    column at a time.  A one-mode evaluator raises ValueError at zero
    separation on every route and matches the full evaluator on the pairs
    that one mode certifies."""
    rng = np.random.default_rng(seed)
    cond = 10.0 ** rng.uniform(-2.0, 2.0, n - 1)
    leak = np.zeros(n)
    leak[[0, -1]] = 10.0 ** rng.uniform(-1.0, 1.0, 2)
    base = cp.build_graph(
        edges=[[k, k + 1, c] for k, c in enumerate(cond)],
        mass=10.0 ** rng.uniform(-1.0, 1.0, n), dirichlet_leak=leak, d=d,
    )
    assert base.is_tridiagonal
    spec = cp.decompose(base)
    sm = np.sqrt(spec.mu)
    rule = cp.StableAxialEvaluator(base, mu1=float(spec.mu[0]))
    for j in rng.integers(0, n, 3):
        terms = spec.eigenvectors * spec.eigenvectors[j] / (2.0 * sm)
        got = rule.zero_separation_values(np.arange(n), j)
        assert np.max(np.abs(got - terms.sum(axis=1)) / np.abs(terms).sum(axis=1)) <= ZERO_RULE_TOL
    ev = GreenEvaluator(spec=cp.decompose(base, modes=1), base=base)
    i, j = rng.integers(0, n, 300), rng.integers(0, n, 300)
    u = rng.uniform(-5.0, 5.0, 300)
    beyond = "needs more than the 1 formed modes"
    for kwargs in ({}, {"allow_stable": False}):
        with pytest.raises(ValueError, match=beyond):
            ev.log_green_many(u, i, u, j, **kwargs)
    with pytest.raises(ValueError, match=beyond):
        ev.screen_many(u, i, u, j)
    with pytest.raises(ValueError, match=beyond):
        ev.log_green(P(u[0], i[0]), P(u[0], j[0]))
    s = rng.uniform(0.0, 1e4 / (sm[1] - sm[0]), 300)
    ok = ev._mode_counts(s, i, j) > 0
    assert ok.any()
    full = GreenEvaluator(spec=spec, base=base)
    got, want = (e.log_green_many(s[ok], i[ok], 0.0, j[ok], allow_stable=False) for e in (ev, full))
    # The partial and full solves' ground states differ by up to 1.2e-13
    # relative here (seen), hence the 1e-9 of test_partial_evaluator_routes;
    # a log value of size L (1e7 at these separations) rounds to about eps L.
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-9)
