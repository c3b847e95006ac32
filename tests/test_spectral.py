import functools
import math
import os
import threading

import numpy as np
import pytest

import cylpot as cp
from cylpot import (
    DegenerateGroundStateError,
    NotPositiveDefiniteError,
    heat_kernel,
    heat_kernel_matrix,
)


def test_arc_single_node_eigendata():
    spec = cp.decompose(cp.build_arc(math.pi, 1))
    assert spec.lambda1 == pytest.approx(8.0 / math.pi**2, rel=1e-14)
    assert spec.ground_state[0] == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-14)


def test_arc_fine_ground_state(arc_fine):
    base, spec = arc_fine
    assert abs(spec.lambda1 - 1.0) <= 1e-5
    theta = np.array([lab["angle"] for lab in base.labels])
    model = np.sin(theta)
    scale = spec.ground_state[base.n // 2] / model[base.n // 2]
    rel = np.abs(np.asarray(spec.ground_state, dtype=float) / (scale * model) - 1.0)
    assert np.max(rel) <= 1e-4


# MRRR keeps orthogonality only to ~1e-12 on large bases (5.3e-13 on cap_hemi4).
@pytest.mark.parametrize("fixture", ["arc_small", "cap_small", "cap_hemi4", "chain_default"])
def test_mass_orthonormality(fixture, request):
    base, spec = request.getfixturevalue(fixture)
    phi = np.asarray(spec.eigenvectors, dtype=float)
    gram = (phi * base.mass[:, None]).T @ phi
    assert np.max(np.abs(gram - np.eye(base.n))) <= 1e-10


@pytest.mark.parametrize("fixture", ["arc_small", "cap_small", "chain_default"])
def test_eigenpair_residuals(fixture, request):
    base, spec = request.getfixturevalue(fixture)
    K = base.stiffness
    phi = np.asarray(spec.eigenvectors, dtype=float)
    lam = np.asarray(spec.eigenvalues, dtype=float)
    resid = K @ phi - (base.mass[:, None] * phi) * lam[None, :]
    norms = np.linalg.norm(resid, axis=0)
    bound = 1e-9 * lam * np.linalg.norm(phi, axis=0)
    assert np.all(norms <= bound)


def test_ground_state_positive_and_gap(chain_default):
    _, spec = chain_default
    assert np.min(spec.ground_state) > 0.0
    assert spec.eigenvalues[1] - spec.eigenvalues[0] > 0.0


def test_degenerate_ground_state_rejected():
    base = cp.build_graph(
        edges=[], mass=[1.0, 1.0], dirichlet_leak=[2.0, 2.0], d=2, b=0.0
    )
    with pytest.raises(DegenerateGroundStateError, match="Perron"):
        cp.decompose(base)


def test_zero_form_rejected():
    base = cp.build_graph(edges=[], mass=[1.0], dirichlet_leak=[0.0], d=2, b=0.0)
    with pytest.raises(NotPositiveDefiniteError):
        cp.decompose(base)


def test_heat_kernel_symmetry(arc_small):
    _, spec = arc_small
    assert heat_kernel(spec, 0.7, 10, 55) == heat_kernel(spec, 0.7, 55, 10)
    with pytest.raises(ValueError):
        heat_kernel(spec, 0.0, 0, 0)


def test_heat_kernel_semigroup_identity(arc_small):
    base, spec = arc_small
    t, s = 0.4, 0.9
    left = heat_kernel_matrix(spec, t) @ np.diag(base.mass) @ heat_kernel_matrix(spec, s)
    right = heat_kernel_matrix(spec, t + s)
    assert np.max(np.abs(left - right)) <= 1e-10 * np.max(np.abs(right))


def test_heat_kernel_positivity_and_subnormalization(arc_small):
    base, spec = arc_small
    rng = np.random.default_rng(0)
    for t in (1e-3, 0.05, 1.0, 7.0, 50.0):
        pi_t = heat_kernel_matrix(spec, t)
        idx = rng.integers(0, base.n, size=60)
        assert np.min(pi_t[idx, idx[::-1]]) >= -1e-12
        row_mass = pi_t @ base.mass
        assert np.max(row_mass) <= 1.0 + 1e-10
        if t >= 1.0:
            assert np.max(row_mass) < 1.0


def test_heat_kernel_ground_state_domination(arc_small):
    _, spec = arc_small
    t = 2.0
    phi = np.asarray(spec.eigenvectors, dtype=float)
    lam = spec.eigenvalues
    for i, j in ((7, 31), (50, 50), (11, 88)):
        val = heat_kernel(spec, t, i, j)
        lhs = abs(val * math.exp(lam[0] * t) / (phi[i, 0] * phi[j, 0]) - 1.0)
        bound = (
            math.exp(-(lam[1] - lam[0]) * t)
            * (spec.n - 1)
            * np.max(np.abs(phi[i, 1:] * phi[j, 1:]))
            / (phi[i, 0] * phi[j, 0])
        )
        assert lhs <= bound


def _ladder(spec):
    return (spec.alpha_min, spec.alpha_zero, spec.alpha_max, spec.lambda1)


def test_exponent_ladder_closed_forms():
    flat = cp.decompose(
        cp.build_graph(edges=[], mass=[1.0], dirichlet_leak=[1.0], d=2, b=0.0)
    )
    assert _ladder(flat) == pytest.approx((-1.0, 0.0, 1.0, 1.0))
    drift = cp.decompose(
        cp.build_graph(edges=[], mass=[1.0], dirichlet_leak=[3.0], d=4, b=2.0)
    )
    assert _ladder(drift) == pytest.approx((-3.0, -1.0, 1.0, 3.0))


def test_exponent_ladder_hemisphere(cap_hemi4):
    _, spec = cap_hemi4
    assert abs(spec.alpha_max - 1.0) <= 1e-4
    assert spec.alpha_min < spec.alpha_zero < spec.alpha_max


@pytest.mark.parametrize("fixture", ["arc_small", "cap_small", "chain_default"])
def test_alpha_root_relation(fixture, request):
    _, spec = request.getfixturevalue(fixture)
    lam1 = spec.lambda1
    for alpha in (spec.alpha_max, spec.alpha_min):
        assert abs(alpha * (alpha + spec.b) - lam1) <= 1e-12 * max(1.0, lam1)
    assert np.all(spec.mu > 0.0)


def test_decompose_deterministic(arc_small):
    base, spec = arc_small
    again = cp.decompose(base)
    assert np.array_equal(np.asarray(spec.eigenvalues), np.asarray(again.eigenvalues))
    assert np.array_equal(np.asarray(spec.eigenvectors), np.asarray(again.eigenvectors))


def test_refinement_consistent_with_plain_solve(chain_default):
    base, refined = chain_default
    plain = cp.decompose(base, refine_low_band=False)
    lam_r = np.asarray(refined.eigenvalues, dtype=float)
    lam_p = np.asarray(plain.eigenvalues, dtype=float)
    assert np.max(np.abs(lam_r - lam_p) / (1.0 + lam_p)) <= 1e-10
    low = lam_p <= 5.0
    phi_r = np.asarray(refined.eigenvectors, dtype=float)[:, low]
    phi_p = np.asarray(plain.eigenvectors, dtype=float)[:, low]
    assert np.max(np.abs(phi_r - phi_p)) <= 1e-7 * np.max(np.abs(phi_p))


def test_refine_low_band_is_honoured_only_on_chains(arc_small, chain_default, cyclic_graph):
    # On by default: chains refine to 80-bit eigendata, and every other
    # base, a dense one included, ignores the flag either way.
    assert chain_default[1].eigenvectors.dtype == np.longdouble
    assert cp.decompose(chain_default[0], refine_low_band=False).eigenvectors.dtype == np.float64
    base, spec = arc_small
    for flag in (True, False):
        again = cp.decompose(base, refine_low_band=flag)
        assert np.array_equal(again.eigenvectors, spec.eigenvectors)
    graph = cp.load_base(cyclic_graph)
    dense = [cp.decompose(graph, refine_low_band=flag) for flag in (True, False)]
    assert dense[0].eigenvectors.dtype == np.float64
    assert np.array_equal(dense[0].eigenvectors, dense[1].eigenvectors)


def _solve_shifted_reference(diag, off, shift, rhs):
    """Scalar per-row pivoted elimination for one shifted system."""
    n = diag.shape[0]
    dt = diag.dtype
    b = (diag - shift).astype(dt, copy=True)
    c = np.zeros(n, dtype=dt)
    c[: n - 1] = off
    c2 = np.zeros(n, dtype=dt)
    x = rhs.astype(dt, copy=True)
    tiny = np.finfo(dt).tiny * 1e8
    for i in range(n - 1):
        sub = off[i]
        if abs(sub) > abs(b[i]):
            b[i], sub = sub, b[i]
            c[i], b[i + 1] = b[i + 1], c[i]
            c2[i], c[i + 1] = c[i + 1], c2[i]
            x[i], x[i + 1] = x[i + 1], x[i]
        piv = b[i] if b[i] != 0 else tiny
        m = sub / piv
        b[i + 1] = b[i + 1] - m * c[i]
        c[i + 1] = c[i + 1] - m * c2[i]
        x[i + 1] = x[i + 1] - m * x[i]
    z = np.empty(n, dtype=dt)
    z[n - 1] = x[n - 1] / (b[n - 1] if b[n - 1] != 0 else tiny)
    if n > 1:
        z[n - 2] = (x[n - 2] - c[n - 2] * z[n - 1]) / (b[n - 2] if b[n - 2] != 0 else tiny)
    for i in range(n - 3, -1, -1):
        z[i] = (x[i] - c[i] * z[i + 1] - c2[i] * z[i + 2]) / (b[i] if b[i] != 0 else tiny)
    return z


@pytest.mark.parametrize("n", [1, 2, 3, 7])
@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_batched_shifted_solve_bit_identical_to_scalar_rows(n, dtype):
    # Shifts on and next to the diagonal entries, and a zero coupling, so
    # that columns pivot differently and some meet an exact zero pivot.
    from cylpot.spectral import _solve_shifted_tridiagonal

    rng = np.random.default_rng(n)
    diag = rng.uniform(1.0, 3.0, n).astype(dtype)
    off = rng.uniform(-1.0, -0.1, n - 1).astype(dtype)
    off[::2] = 0.0
    shifts = np.concatenate([diag, diag + 1e-9, rng.uniform(0.0, 4.0, 3)]).astype(dtype)
    rhs = rng.standard_normal((n, shifts.size)).astype(dtype)
    got = _solve_shifted_tridiagonal(diag, off, shifts, rhs)
    assert got.dtype == dtype
    for k in range(shifts.size):
        want = _solve_shifted_reference(diag, off, shifts[k], rhs[:, k])
        assert np.array_equal(got[:, k], want, equal_nan=True)


def _refine_reference(diag, off, vals, psi, cutoff):
    """Mode-by-mode 80-bit Rayleigh-quotient refinement."""
    ld = np.longdouble
    dL, eL = diag.astype(ld), off.astype(ld)
    vals_out, psi_out = vals.astype(ld), psi.astype(ld)

    def tri_mv(v):
        out = dL * v
        out[:-1] += eL * v[1:]
        out[1:] += eL * v[:-1]
        return out

    for k in range(diag.shape[0]):
        if vals[k] > cutoff:
            break
        v = psi_out[:, k]
        v = v / np.sqrt(v @ v)
        lam = v @ tri_mv(v)
        for _ in range(2):
            z = _solve_shifted_reference(dL, eL, lam, v)
            top = np.max(np.abs(z))
            if not np.isfinite(top) or top == 0.0:
                break
            z = z / top
            v = z / np.sqrt(z @ z)
            lam = v @ tri_mv(v)
        if abs(float(lam) - vals[k]) <= 1e-6 * (1.0 + abs(vals[k])):
            if v @ psi_out[:, k] < 0:
                v = -v
            vals_out[k] = lam
            psi_out[:, k] = v
    return vals_out, psi_out


@pytest.mark.parametrize(
    "spec",
    [cp.default_chain_spec(), cp.ChainSpec(bead_count=10, radii=cp.inverse_sqrt_radii(10))],
)
def test_batched_refinement_bit_identical_to_per_mode(spec):
    import scipy.linalg

    from cylpot.spectral import _refine_low_band, mass_scaled_bands

    _, diag, off = mass_scaled_bands(cp.build_chain(spec, d=4))
    vals, psi = scipy.linalg.eigh_tridiagonal(diag, off, lapack_driver="stemr")
    assert np.count_nonzero(vals <= 50.0) >= 5
    want = _refine_reference(diag, off, vals, psi, 50.0)
    got = _refine_low_band(diag, off, vals, psi, 50.0)
    for w, g in zip(want, got):
        assert g.dtype == np.longdouble
        assert np.array_equal(w, g)


def test_mass_scaled_bands_match_dense_similarity(cap_small):
    from cylpot.spectral import mass_scaled_bands

    base, _ = cap_small
    s, diag, off = mass_scaled_bands(base)
    A = (base.stiffness * s[None, :]) * s[:, None]
    assert np.array_equal(diag, np.diag(A))
    assert np.array_equal(off, np.diag(A, 1))


@pytest.mark.parametrize(
    "base, refined",
    [
        (cp.build_arc(math.pi, 101), False),
        (cp.build_chain(cp.default_chain_spec(), d=4), True),
        # Lumped cap masses near the pole are ~h^3: only a residual weighted
        # by M^-1 sees this perturbation.
        (cp.build_cap(4, 2 * math.pi / 5, 301), False),
    ],
)
def test_banded_residual_check_rejects_perturbed_eigenvector(base, refined, monkeypatch):
    from cylpot import EigensolverError, spectral

    solver = spectral._stemr_vectors
    assert cp.decompose(base).eigenvectors.dtype == (np.longdouble if refined else float)

    def perturbed(diag, off, count):
        w, psi = solver(diag, off, count)
        # The top mode sits above every refinement cutoff.
        psi[base.n // 2, -1] += 1e-3
        return w, psi

    monkeypatch.setattr(spectral, "_stemr_vectors", perturbed)
    with pytest.raises(EigensolverError, match="residual"):
        cp.decompose(base)


def _eigendata_by_copies(base):
    """decompose's eigendata built the way it was before the in-place
    reorder and sign flips: a reordered, scaled and signed copy each.  Path
    bases pair the MRRR vectors with the dqds (dpteqr) eigenvalues."""
    import scipy.linalg

    from cylpot.spectral import _refine_low_band, mass_scaled_bands

    if base.is_tridiagonal:
        s, diag, off = mass_scaled_bands(base)
        _, psi = scipy.linalg.eigh_tridiagonal(diag, off, lapack_driver="stemr")
        vals = scipy.linalg.lapack.dpteqr(diag, off, np.zeros((1, 1)), compute_z=0)[0][::-1]
        if base.kind == "chain":
            vals, psi = _refine_low_band(diag, off, vals, psi, 50.0)
            s = s.astype(np.longdouble)
    else:
        s = 1.0 / np.sqrt(base.mass)
        vals, psi = scipy.linalg.eigh((base.stiffness * s[None, :]) * s[:, None])
    order = np.argsort(vals, kind="stable")
    phi = s[:, None] * psi[:, order]
    idx = np.argmax(np.abs(phi), axis=0)
    signs = np.sign(phi[idx, np.arange(phi.shape[1])])
    signs[signs == 0] = 1.0
    return vals[order], phi * signs[None, :]


@pytest.mark.parametrize("fixture", ["arc_sym", "cap_small", "chain_default", "chain_shortcut"])
def test_in_place_eigendata_bit_identical_to_copies(fixture, request):
    if fixture == "chain_shortcut":  # its graph document: the dense solve
        base = cp.load_base(request.getfixturevalue(fixture)[1])
        spec = cp.decompose(base)
    else:
        base, spec = request.getfixturevalue(fixture)
    vals, phi = _eigendata_by_copies(base)
    assert spec.eigenvalues.dtype == vals.dtype and spec.eigenvectors.dtype == phi.dtype
    assert np.array_equal(spec.eigenvalues, vals)
    assert np.array_equal(spec.eigenvectors, phi)


@pytest.mark.parametrize("fixture", ["arc_sym", "cap_small", "chain_default"])
def test_partial_eigenvectors_bit_identical_to_scipy_selected_solve(fixture, request):
    # decompose's partial solve calls dstemr itself; scipy's wrapper with
    # select='i' is the independent reference for its columns.
    import scipy.linalg

    from cylpot.spectral import mass_scaled_bands

    base, _ = request.getfixturevalue(fixture)
    s, diag, off = mass_scaled_bands(base)
    for count in (1, 12, 53):
        spec = cp.decompose(base, modes=count, refine_low_band=False)
        _, psi = scipy.linalg.eigh_tridiagonal(
            diag, off, select="i", select_range=(0, count - 1), lapack_driver="stemr"
        )
        phi = s[:, None] * psi
        idx = np.argmax(np.abs(phi), axis=0)
        signs = np.sign(phi[idx, np.arange(count)])
        signs[signs == 0] = 1.0
        assert spec.modes == count
        assert np.array_equal(spec.eigenvectors, phi * signs[None, :])


def test_stemr_signature_mismatch_raises_before_the_call(arc_small, monkeypatch):
    # A scipy whose LAPACK takes 64-bit integers would be handed 32-bit
    # ones: the exported signature is checked before the first call.
    from scipy.linalg import cython_lapack

    from cylpot import EigensolverError, spectral

    name, kinds, restype = spectral._DSTEMR
    good = spectral._capsule_name(cython_lapack.__pyx_capi__[name]).decode()
    spectral._check_signature(name, good, kinds, restype)
    fakes = [
        good.replace("int *", "long long *"),
        good.replace(", int *)", ")"),          # 20 arguments
        good.replace("void (", "int (", 1),
        "",
    ]
    for fake in fakes:
        assert fake != good
        with pytest.raises(EigensolverError, match=r"scipy \d"):
            spectral._check_signature(name, fake, kinds, restype)
    monkeypatch.setattr(spectral, "_capsule_name", lambda capsule: fakes[0].encode())
    spectral._lapack.cache_clear()
    try:
        with pytest.raises(EigensolverError, match="long long"):
            cp.decompose(arc_small[0], modes=3)
    finally:
        spectral._lapack.cache_clear()


def _reach_solve(base, spec):
    cp.decompose(base, reach=40.0)


def _full_solve(base, spec):
    cp.decompose(base)


def _zero_separation_column(base, spec):
    from cylpot.cylinder import StableAxialEvaluator

    StableAxialEvaluator(base, mu1=float(spec.mu[0])).zero_separation_values(np.arange(base.n), 0)


# A call that reaches each routine through the loader.
_CALLS_OF_LOADED_ROUTINES = {
    "_DSTEMR": _reach_solve,
    "_DLARRB": _reach_solve,
    "_DLANEG": _reach_solve,
    "_DPTTRF": _reach_solve,
    "_DPTEQR": _full_solve,
    "_DPTSV": _zero_separation_column,
}


@pytest.mark.parametrize("routine", list(_CALLS_OF_LOADED_ROUTINES))
def test_faked_signature_of_each_loaded_routine_raises(routine, cap_small, monkeypatch):
    # Faking the exported signature of any one routine fails before its
    # first call, in a call that reaches it.
    from scipy.linalg import cython_lapack

    from cylpot import EigensolverError, spectral

    name, kinds, restype = getattr(spectral, routine)
    _CALLS_OF_LOADED_ROUTINES[routine](*cap_small)  # passes unfaked
    target = cython_lapack.__pyx_capi__[name]
    real = spectral._capsule_name
    fake = real(target).decode().replace("int *", "long long *")
    spectral._check_signature(name, real(target).decode(), kinds, restype)
    with pytest.raises(EigensolverError, match=f"exports {name} as"):
        spectral._check_signature(name, fake, kinds, restype)
    monkeypatch.setattr(spectral, "_capsule_name",
                        lambda capsule: fake.encode() if capsule is target else real(capsule))
    spectral._lapack.cache_clear()
    try:
        with pytest.raises(EigensolverError, match=f"exports {name} as .*long long"):
            _CALLS_OF_LOADED_ROUTINES[routine](*cap_small)
    finally:
        spectral._lapack.cache_clear()


def _zero_separation_by_wrapper(stable, y, x):
    """The s = 0 column summed through scipy's dptsv wrapper: the reference."""
    from scipy.linalg.lapack import dptsv

    rhs = np.zeros(stable._diag.size)
    rhs[x] = 1.0
    acc = np.zeros(y.shape)
    for w, qw in zip(*stable._zero_rule):
        z, info = dptsv(stable._diag + (stable._shift + w * w), stable._off, rhs)[2:]
        assert info == 0
        acc += z[y] * qw
    return acc / math.pi * stable._scale[y] * stable._scale[x]


@pytest.mark.parametrize("fixture", ["cap_small", "chain_default", "two_node_path"])
def test_direct_lapack_calls_bit_identical_to_scipy_wrappers(fixture, request):
    # scipy's f2py wrappers stay the reference for each routine cylpot calls
    # through the cython_lapack pointers, and the bands are left untouched.
    from scipy.linalg import lapack

    from cylpot.cylinder import StableAxialEvaluator
    from cylpot.spectral import _ldl_factor, _path_eigenvalues, mass_scaled_bands

    if fixture == "two_node_path":
        base = cp.build_graph(edges=[[0, 1, 0.7]], mass=[1.0, 2.0], dirichlet_leak=[1.5, 0.0],
                              d=2, b=0.5)
    else:
        base = request.getfixturevalue(fixture)[0]
    _, diag, off = mass_scaled_bands(base)
    bands = diag.copy(), off.copy()
    n = base.n
    piv, ell, info = lapack.dpttrf(diag, off)
    assert info == 0
    factor = _ldl_factor(diag, off)
    assert np.array_equal(factor.d, piv) and np.array_equal(factor.lld, ell * ell * piv[:-1])
    vals, _, _, info = lapack.dpteqr(diag, off, np.zeros((1, 1)), compute_z=0)
    assert info == 0 and np.array_equal(_path_eigenvalues(diag, off), vals[::-1])
    stable = StableAxialEvaluator(base, mu1=float(cp.decompose(base).mu[0]))
    for x in (0, n - 1):
        y = np.arange(n)
        assert np.array_equal(stable.zero_separation_values(y, x),
                              _zero_separation_by_wrapper(stable, y, x))
    assert np.array_equal(diag, bands[0]) and np.array_equal(off, bands[1])


def test_dpttrf_and_dpteqr_name_the_same_leading_minor():
    from scipy.linalg import lapack

    from cylpot.spectral import _ldl_factor, _path_eigenvalues

    # Pivots 2, 1.5 and 0.1 - 1/1.5 < 0: the leading minor of order 3.
    diag, off = np.array([2.0, 2.0, 0.1, 2.0, 2.0]), np.full(4, -1.0)
    assert lapack.dpttrf(diag, off)[2] == 3
    assert lapack.dpteqr(diag, off, np.zeros((1, 1)), compute_z=0)[3] == 3
    for solve in (_ldl_factor, _path_eigenvalues):
        with pytest.raises(NotPositiveDefiniteError, match="leading minor of order 3 "):
            solve(diag, off)


def test_missing_cython_lapack_extension_names_the_directory(tmp_path, monkeypatch):
    import re
    import sys

    import scipy

    from cylpot import spectral

    monkeypatch.delitem(sys.modules, "scipy.linalg.cython_lapack")
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    with pytest.raises(ImportError, match=re.escape(f"in {tmp_path / 'linalg'}") + "$"):
        spectral._load_cython_lapack()


def test_stemr_vectors_reject_sizes_before_the_call():
    from cylpot.spectral import _stemr_vectors

    diag, off = np.full(5, 2.0), np.full(4, -1.0)
    assert _stemr_vectors(diag, off, 5)[1].shape == (5, 5)
    for bad_off, count in ((off, 0), (off, 6), (off[:3], 2)):
        with pytest.raises(ValueError, match="count"):
            _stemr_vectors(diag, bad_off, count)


def test_partial_decompose_peak_memory_stays_far_below_one_n_by_n_array():
    # A partial solve holds the (n, 12) output, dstemr's 18n + 10n
    # workspace and a few n-vectors, about 0.6 MB here; scipy's wrapper
    # allocated an n x n output (18 MB) whatever range it was asked for.
    import tracemalloc

    n = 1500
    base = cp.build_cap(4, math.pi / 2, n)
    tracemalloc.start()
    try:
        spec = cp.decompose(base, modes=12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.modes == 12
    assert peak < 0.1 * n * n * 8


def test_decompose_peak_memory_stays_near_one_eigenvector_matrix():
    import tracemalloc

    n = 1500
    base = cp.build_cap(4, math.pi / 2, n)
    tracemalloc.start()
    try:
        cp.decompose(base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.7 * n * n * 8


def test_path_solve_low_band_matches_exact_arc_eigenvalues(arc_sym):
    # The uniform arc's bands are constant, so the stored matrix has the
    # eigenvalues (d + 2e) - 4e sin^2(k pi / (2(n + 1))), evaluated here in
    # longdouble without cancellation.  Divide and conquer is 1.1e-10 off.
    from cylpot.spectral import mass_scaled_bands

    base, spec = arc_sym
    _, diag, off = mass_scaled_bands(base)
    assert np.ptp(diag) == 0.0 and np.ptp(off) == 0.0
    ld = np.longdouble
    pi = ld("3.14159265358979323846264338327950288")
    k = np.arange(1, 65, dtype=ld)
    half = np.sin(k * pi / (2 * (base.n + 1)))
    exact = (ld(diag[0]) + 2 * ld(off[0])) - 4 * ld(off[0]) * half * half
    rel = np.abs(spec.eigenvalues[:64].astype(ld) / exact - 1)
    assert np.max(rel) <= 2e-11


def _stemr_and_dqds_against_80_bit(base, count):
    """Relative errors of the full MRRR solve's and of the dqds eigenvalues
    against 80-bit Rayleigh-quotient refinement of the MRRR eigenpairs, for
    the ``count`` lowest modes."""
    import scipy.linalg

    from cylpot.spectral import _path_eigenvalues, _refine_low_band, mass_scaled_bands

    _, diag, off = mass_scaled_bands(base)
    stemr, psi = scipy.linalg.eigh_tridiagonal(diag, off, lapack_driver="stemr")
    dqds = _path_eigenvalues(diag, off)
    ref, _ = _refine_low_band(diag, off, stemr[:count], psi[:, :count], np.inf)
    return (np.abs(stemr[:count].astype(ref.dtype) - ref),
            np.abs(dqds[:count].astype(ref.dtype) - ref), ref)


@pytest.mark.parametrize(
    "fixture, tol",
    [("arc_fine", 1e-11), ("arc_sym", 1e-11), ("cap_small", 1e-11), ("cap_hemi3", 1e-11),
     ("cap_hemi4", 1e-11), ("cap_hemi5", 1e-11), ("chain_default", 3e-11)],
)
def test_path_eigenvalues_low_band_within_budget_of_80_bit(fixture, tol, request):
    # Measured worst: 2.7e-12 on cap_hemi3, 7.9e-12 on the chain; the full
    # MRRR solve is 5e-12 to 7.5e-11 off on the same fixtures.  The reach
    # solve (here of 64 modes, so 65 known values) bisects on the same
    # dpttrf factor that dqds works on, and keeps the same budget.
    base, _ = request.getfixturevalue(fixture)
    err_stemr, err_dqds, ref = _stemr_and_dqds_against_80_bit(base, 64)
    reach = cp.decompose(base, modes=64, reach=0.0, refine_low_band=False)
    assert reach.modes == 64 and reach.known_eigenvalues.shape == (65,)
    err_reach = np.abs(reach.known_eigenvalues[:64].astype(ref.dtype) - ref)
    for err in (err_dqds, err_reach):
        assert float(np.max(err / ref)) <= tol
        assert np.max(err / ref) <= np.max(err_stemr / ref)


def _sturm_count(d, lld, sigma):
    """Eigenvalues below ``sigma`` of L D L^T, counted by the stationary qds
    transform in the arithmetic of the mpmath inputs."""
    t, neg = -sigma, 0
    for dk, lk in zip(d[:-1], lld):
        dplus = dk + t
        neg += dplus < 0
        t = t / dplus * lk - sigma
    return neg + (d[-1] + t < 0)


def test_reach_values_within_2_ulps_of_dqds_error_against_40_digits(cap_small):
    # Both solvers work on dpttrf's factor L D L^T; its eigenvalues to 40
    # digits come from Sturm-count bisection in mpmath.  The reach solve's
    # value of each mode is no further from them than dqds plus 2 ulps.
    # Measured: at most 4.1 ulps off where dqds is 67 ulps off (k = 2), and
    # 1.3 ulps where dqds is 0.3.
    mpmath = pytest.importorskip("mpmath")
    import scipy.linalg

    from cylpot.spectral import _path_eigenvalues, mass_scaled_bands

    base, _ = cap_small
    _, diag, off = mass_scaled_bands(base)
    dqds = _path_eigenvalues(diag, off)
    spec = cp.decompose(base, reach=40.0)
    K = spec.modes
    assert 3 < K < base.n and spec.known_eigenvalues.shape == (K + 1,)
    mp = mpmath.mp.clone()
    mp.dps = 40
    piv, ell, info = scipy.linalg.lapack.dpttrf(diag, off)
    assert info == 0
    d = [mp.mpf(float(x)) for x in piv]
    lld = [mp.mpf(float(x)) ** 2 * mp.mpf(float(y)) for x, y in zip(ell, piv[:-1])]
    for k in (0, 1, 2, K - 1, K):
        lo, hi = mp.mpf(float(dqds[k])) * (1 - 1e-12), mp.mpf(float(dqds[k])) * (1 + 1e-12)
        assert _sturm_count(d, lld, lo) <= k < _sturm_count(d, lld, hi)
        for _ in range(80):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if _sturm_count(d, lld, mid) <= k else (lo, mid)
        exact = (lo + hi) / 2
        err_dqds = abs(mp.mpf(float(dqds[k])) - exact)
        err_reach = abs(mp.mpf(float(spec.known_eigenvalues[k])) - exact)
        assert err_reach <= err_dqds + 2 * np.spacing(float(exact)), k


def test_gershgorin_interval_holds_every_eigenvalue(cap_small):
    from cylpot.spectral import _gershgorin, _path_eigenvalues, mass_scaled_bands

    # Rows [2, -1, .], [-1, 3, 0.5], [., 0.5, 4]: ends 1, 1.5, 3.5 and 3, 4.5, 4.5.
    assert _gershgorin(np.array([2.0, 3.0, 4.0]), np.array([-1.0, 0.5])) == (1.0, 4.5)
    assert _gershgorin(np.array([2.5]), np.empty(0)) == (2.5, 2.5)
    _, diag, off = mass_scaled_bands(cap_small[0])
    lo, hi = _gershgorin(diag, off)
    vals = _path_eigenvalues(diag, off)
    assert lo <= vals[0] and vals[-1] <= hi


@pytest.mark.parametrize("fixture", ["arc_small", "cap_small", "chain_default"])
def test_bisection_does_not_depend_on_its_start(fixture, request):
    # The reach solve bisects lam_1, lam_2 and lam_(K+1) from the Gershgorin
    # interval and the others from dstemr's values at half-width
    # 0.25 eps ||T||, and dlarrb widens a bracket that misses.  Starting
    # every value from either, or from estimates 8 eps ||T|| off, gives the
    # same eigenvalues within 2 ulps.
    from cylpot.spectral import _bisect, _ldl_factor, _stemr_vectors, mass_scaled_bands

    _, diag, off = mass_scaled_bands(request.getfixturevalue(fixture)[0])
    factor = _ldl_factor(diag, off)
    estimates = _stemr_vectors(diag, off, 20)[0]
    start = 8.0 * np.finfo(float).eps * max(abs(factor.lo), abs(factor.hi))
    want = _bisect(factor, [], [], 20)
    for guess in (estimates, estimates + start, estimates - start):
        got = _bisect(factor, [], guess, 0)
        assert np.max(np.abs(got - want) / np.spacing(want)) <= 2.0
    mixed = _bisect(factor, want[:2], estimates[2:19], 1)
    assert np.array_equal(mixed[:2], want[:2])
    assert np.max(np.abs(mixed - want) / np.spacing(want)) <= 2.0
    with pytest.raises(ValueError, match="at most n"):
        _bisect(factor, [], [], diag.size + 1)


@pytest.mark.parametrize("fixture", ["arc_small", "cap_small", "chain_default"])
def test_path_eigenvalues_top_half_within_16_ulps_of_80_bit(fixture, request):
    # Measured worst: 13.1 ulps on cap_small (MRRR: 3.7).
    base, _ = request.getfixturevalue(fixture)
    _, err_dqds, ref = _stemr_and_dqds_against_80_bit(base, base.n)
    top = slice(base.n // 2, None)
    assert np.all(err_dqds[top] <= 16 * np.spacing(ref[top].astype(float)))


def test_full_solve_reports_the_dqds_eigenvalues(arc_sym, cap_small):
    from cylpot.spectral import _path_eigenvalues, mass_scaled_bands

    for base, spec in (arc_sym, cap_small):
        assert spec.eigenvalues is spec.known_eigenvalues
        assert np.array_equal(spec.eigenvalues, _path_eigenvalues(*mass_scaled_bands(base)[1:]))


def test_leading_block_of_modes(cap_small):
    base, full = cap_small
    spec = cp.decompose(base, modes=12)
    assert spec.eigenvalues.shape == (12,) and spec.eigenvectors.shape == (base.n, 12)
    assert spec.modes == 12 and spec.n == base.n
    assert np.array_equal(spec.known_eigenvalues, full.known_eigenvalues)
    assert np.array_equal(spec.known_eigenvalues[:12], spec.eigenvalues)
    assert np.array_equal(spec.mu, full.mu) and spec.lambda1 == full.lambda1
    assert np.max(np.abs(spec.eigenvectors - full.eigenvectors[:, :12])) <= 1e-9
    assert 0.0 < spec.eig_residual <= 1e-6


def test_partial_eigendata_rejected_by_full_mode_sums(cap_small):
    base, _ = cap_small
    spec = cp.decompose(base, modes=5)
    ev = cp.GreenEvaluator(spec=spec, base=base)
    # A pair beyond the formed modes raises; the quadrature cross-check
    # sums over all modes.
    with pytest.raises(ValueError, match="needs more than the 5 formed modes"):
        ev.log_green(cp.CylinderPoint(0.5, 3), cp.CylinderPoint(0.0, 4))
    for call in (
        lambda: ev.green_by_quadrature(cp.CylinderPoint(0.5, 3), cp.CylinderPoint(0.0, 4)),
        lambda: heat_kernel(spec, 0.5, 3, 4),
        lambda: heat_kernel_matrix(spec, 0.5),
        lambda: cp.check_small_time_ratio(spec, 0.0, 1.0, 0, [1, 2]),
        lambda: cp.check_iu_ratio(spec, 0),
        lambda: cp.ModeSolution.from_coefficients(spec, [1.0], [1.0]),
    ):
        with pytest.raises(ValueError, match="only 5 were formed"):
            call()
    with pytest.raises(ValueError, match="at least one mode"):
        cp.decompose(base, modes=0)


def test_modes_is_a_lower_bound_off_the_plain_path(chain_default, chain_shortcut):
    # A refined chain and a dense graph form every mode; the chain reports
    # the same eigendata as its full solve.
    base, full = chain_default
    spec = cp.decompose(base, modes=4)
    assert spec.modes == base.n
    assert np.array_equal(spec.eigenvalues, full.eigenvalues)
    assert np.array_equal(spec.eigenvectors, full.eigenvectors)
    assert cp.decompose(cp.load_base(chain_shortcut[1]), modes=4).modes == chain_shortcut[0].n


@pytest.mark.parametrize("modes", [None, 1])
def test_edge_cases_take_the_dqds_path(modes):
    from cylpot.spectral import mass_scaled_bands

    single = cp.build_arc(math.pi, 1)
    assert single.is_tridiagonal
    spec = cp.decompose(single, modes=modes)
    assert spec.known_eigenvalues.tolist() == mass_scaled_bands(single)[1].tolist()
    two = cp.build_graph(edges=[], mass=[1.0, 1.0], dirichlet_leak=[2.0, 2.0], d=2, b=0.0)
    zero = cp.build_graph(edges=[], mass=[1.0], dirichlet_leak=[0.0], d=2, b=0.0)
    # A free pair of nodes: dpteqr itself finds the singular leading minor.
    free = cp.build_graph(edges=[[0, 1, 1.0]], mass=[1.0, 1.0], dirichlet_leak=[0.0, 0.0],
                          d=2, b=0.0)
    assert two.is_tridiagonal and zero.is_tridiagonal and free.is_tridiagonal
    with pytest.raises(DegenerateGroundStateError, match="Perron"):
        cp.decompose(two, modes=modes)
    for base in (zero, free):
        with pytest.raises(NotPositiveDefiniteError, match="leading minor"):
            cp.decompose(base, modes=modes)


@pytest.mark.parametrize("fixture", ["arc_small", "cap_small", "chain_default"])
def test_eig_residual_is_the_worst_relative_residual(fixture, request):
    # Recomputed from the returned eigendata, in its own precision (80-bit
    # on the refined chain), so it matches up to the unscaling round trip.
    from cylpot.spectral import mass_scaled_bands

    base, spec = request.getfixturevalue(fixture)
    s, diag, off = mass_scaled_bands(base)
    psi = spec.eigenvectors / s[:, None].astype(spec.eigenvectors.dtype)
    psi /= np.sqrt(np.sum(psi * psi, axis=0))
    resid = diag[:, None] * psi - psi * spec.eigenvalues
    resid[:-1] += off[:, None] * psi[1:]
    resid[1:] += off[:, None] * psi[:-1]
    worst = float(np.max(np.sqrt(np.sum(resid * resid, axis=0)) / spec.eigenvalues))
    assert 0.0 < spec.eig_residual <= 1e-6
    assert spec.eig_residual == pytest.approx(worst, rel=0.2)


def test_reach_forms_the_modes_within_reach(cap_small):
    # A reach solve knows the eigenvalues of modes 1..K+1 only, bisected on
    # the dpttrf factor: they agree with the full solve's dqds list to
    # 1e-13 relative (not bit for bit), and count the same modes.  The rule
    # sqrt(mu_k) - sqrt(mu_1) <= reach is read on the solve's own values, so
    # a reach exactly at the full solve's delta_10 is no case for the count;
    # the two cases sit 1e-9 on either side of it.
    base, full = cap_small
    delta = np.sqrt(full.mu) - np.sqrt(full.mu[0])
    for reach, formed in ((0.0, 1), (float(delta[9]) + 1e-9, 10), (float(delta[9]) - 1e-9, 9)):
        spec = cp.decompose(base, reach=reach)
        assert spec.modes == formed and spec.n == base.n
        known = spec.known_eigenvalues
        assert known.shape == (formed + 1,)
        own = np.sqrt(spec.mu) - np.sqrt(spec.mu[0])
        assert own[formed - 1] <= reach < own[formed]
        assert np.max(np.abs(known / full.known_eigenvalues[: formed + 1] - 1.0)) <= 1e-13
        assert np.array_equal(spec.eigenvalues, known[:formed])
        assert spec.lambda1 == known[0] and spec.mu.shape == (formed + 1,)
    assert cp.decompose(base, modes=12, reach=float(delta[9]) + 1e-9).modes == 12
    assert cp.decompose(base, modes=3, reach=float(delta[9]) + 1e-9).modes == 10
    assert cp.decompose(base, reach=math.inf).modes == base.n
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="reach"):
            cp.decompose(base, reach=bad)


def test_reach_solve_on_tiny_paths_and_infinite_reach(cap_small):
    # One node: every reach covers every mode.  Two nodes: a reach of 0
    # forms one mode and knows both values.  An infinite reach is the full
    # solve, bit for bit.
    single = cp.build_arc(math.pi, 1)
    for reach in (0.0, math.inf):
        spec = cp.decompose(single, reach=reach)
        assert spec.modes == 1
        assert np.array_equal(spec.known_eigenvalues, cp.decompose(single).known_eigenvalues)
    pair = cp.build_arc(math.pi, 2)
    full = cp.decompose(pair)
    spec = cp.decompose(pair, reach=0.0)
    assert spec.modes == 1 and spec.known_eigenvalues.shape == (2,)
    assert np.max(np.abs(spec.known_eigenvalues / full.known_eigenvalues - 1.0)) <= 1e-14
    assert np.max(np.abs(spec.eigenvectors[:, 0] - full.eigenvectors[:, 0])) <= 1e-14
    assert cp.decompose(pair, reach=math.inf).modes == 2
    base, full = cap_small
    spec = cp.decompose(base, reach=math.inf)
    assert np.array_equal(spec.known_eigenvalues, full.known_eigenvalues)
    assert np.array_equal(spec.eigenvectors, full.eigenvectors)


def test_reach_solve_rejects_a_disconnected_path_with_equal_rows():
    # Zero conductances and equal leaks: every eigenvalue is 1, so the
    # Gershgorin interval is one point.  Its bisection bracket still has a
    # width that dlarrb can widen (from width 0 it would never return), and
    # the solve stops at the ground state check.
    base = cp.build_graph(edges=[[0, 1, 0.0], [1, 2, 0.0]], mass=[1.0, 1.0, 1.0],
                          dirichlet_leak=[1.0, 1.0, 1.0], d=3)
    assert base.is_tridiagonal
    with pytest.raises(DegenerateGroundStateError):
        cp.decompose(base, reach=1.0)


def test_reach_solve_on_a_30000_node_cap_meets_the_hemisphere_oracle():
    # The reach solve never forms all n eigenvalues: on the d = 4
    # hemisphere, lam_1 = d - 1 = 3 up to the O(h^2) discretization error
    # (-6.9e-8 at n = 3000, -3.2e-10 here).
    base = cp.build_cap(4, math.pi / 2, 30000)
    spec = cp.decompose(base, reach=60.0)
    assert 1 < spec.modes < 100 and spec.known_eigenvalues.shape == (spec.modes + 1,)
    assert abs(spec.lambda1 - 3.0) <= 1e-8
    assert 0.0 < spec.eig_residual <= 1e-6


def test_reach_forms_every_mode_off_the_plain_path(chain_default, chain_shortcut):
    # Refined chains and dense graphs still form every mode.
    base, full = chain_default
    spec = cp.decompose(base, reach=1.0)
    assert spec.modes == base.n
    assert np.array_equal(spec.eigenvectors, full.eigenvectors)
    assert cp.decompose(cp.load_base(chain_shortcut[1]), reach=1.0).modes == chain_shortcut[0].n


def _fake_cpus(monkeypatch, count: int) -> None:
    """Give every parallel section a mask of CPUs 0 .. count - 1, so it
    splits the same on any runner; no placement reaches the host, whose
    own mask stays as it was."""
    monkeypatch.setattr("cylpot.spectral._cpus", lambda: list(range(count)))
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)


def _started_threads(monkeypatch) -> list:
    """The names of the threads started from here on, as a list that fills
    as they start."""
    names, start = [], threading.Thread.start

    def counted(self):
        names.append(self.name)
        return start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return names


def _solves_both_ways(monkeypatch, solve):
    """solve() with _run_pair's helper thread forced on (every base passes
    the node gate, a mask of two CPUs on any runner), then on a mask of one
    CPU; the helper starts only in the first call, and the thread count is
    unchanged after each."""
    threads = threading.active_count()
    results = []
    for force in ("on", "off"):
        with monkeypatch.context() as patch:
            if force == "on":
                patch.setattr("cylpot.spectral._PAIR_NODES", 0)
            _fake_cpus(patch, 2 if force == "on" else 1)
            started = _started_threads(patch)
            results.append(solve())
        assert ("cylpot-pair" in started) == (force == "on"), started
        assert threading.active_count() == threads
    return results


def _same(a, b):
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return np.array_equal(a, b) and np.asarray(a).dtype == np.asarray(b).dtype


@pytest.mark.parametrize("fixture", ["arc_small", "cap_small", "chain_default"])
def test_paired_solves_bit_identical_to_one_thread(fixture, request, monkeypatch):
    # decompose's dpteqr beside dstemr, _bisect's two halves of brackets and
    # the two halves of the s = 0 rule give the bits of one thread.
    from cylpot.cylinder import StableAxialEvaluator
    from cylpot.spectral import (_bisect, _dlarrb, _ldl_factor, _reach_band, _stemr_vectors,
                                 mass_scaled_bands)

    base, spec = request.getfixturevalue(fixture)
    _, diag, off = mass_scaled_bands(base)
    shift = 0.25 * base.b * base.b
    stable = StableAxialEvaluator(base, mu1=float(spec.mu[0]))
    nodes = np.arange(0, base.n, 3)

    def solve():
        out = []
        for kwargs in ({}, {"modes": 7}, {"reach": 1.5}):
            got = cp.decompose(base, **kwargs)
            out.append((got.known_eigenvalues, got.eigenvectors, np.array(got.eig_residual)))
        out.append(_reach_band(diag, off, shift, 1.5, 1))
        out.append(_reach_band(diag, off, shift, 0.0, 2))
        out.append(stable.zero_separation_values(nodes, base.reference_node))
        return tuple(out)

    paired, alone = _solves_both_ways(monkeypatch, solve)
    assert _same(paired, alone)
    # References: the fixture's solve, one dlarrb call over every bracket,
    # and the s = 0 rule summed through scipy's dptsv wrapper.
    assert _same(paired[0], (spec.known_eigenvalues, spec.eigenvectors,
                             np.array(spec.eig_residual)))
    factor = _ldl_factor(diag, off)
    estimates = _stemr_vectors(diag, off, 12)[0]
    w = np.concatenate([estimates[:11], [0.5 * (factor.lo + factor.hi)]])
    eps, tnorm = np.finfo(float).eps, max(abs(factor.lo), abs(factor.hi))
    werr = np.concatenate([np.full(11, 0.25 * eps * tnorm),
                           [max(0.5 * (factor.hi - factor.lo), eps * tnorm)]])
    _dlarrb(factor, w, werr, 0, 12)
    halves = _solves_both_ways(monkeypatch, lambda: _bisect(factor, [], estimates[:11], 1))
    assert _same(halves[0], w) and _same(halves[1], w)
    assert _same(paired[-1], _zero_separation_by_wrapper(stable, nodes, base.reference_node))


def test_pair_runs_the_first_callable_on_a_helper_thread(monkeypatch):
    from cylpot.spectral import _run_pair

    main = threading.get_ident()

    def elsewhere():
        return threading.get_ident() != main

    monkeypatch.setattr("cylpot.spectral._PAIR_NODES", 10)
    _fake_cpus(monkeypatch, 2)
    assert _run_pair(elsewhere, elsewhere, 10) == (True, False)
    assert _run_pair(elsewhere, elsewhere, 9) == (False, False)
    _fake_cpus(monkeypatch, 1)
    assert _run_pair(elsewhere, elsewhere, 10) == (False, False)


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")
def test_pair_places_each_thread_on_its_own_cpu(monkeypatch):
    # Above the gate the helper runs on the second CPU of the real mask and
    # the caller on the first while second runs; the caller's mask is back
    # after a normal return and after the helper raised.
    from cylpot.spectral import _run_pair

    mask = os.sched_getaffinity(0)
    cpus = sorted(mask)

    def where():
        return os.sched_getaffinity(0)

    def fails():
        raise KeyError("in the helper")

    monkeypatch.setattr("cylpot.spectral._PAIR_NODES", 10)
    assert _run_pair(where, where, 10) == ({cpus[1]}, {cpus[0]})
    assert os.sched_getaffinity(0) == mask
    with pytest.raises(KeyError, match="in the helper"):
        _run_pair(fails, where, 10)
    assert os.sched_getaffinity(0) == mask
    assert _run_pair(where, where, 9) == (mask, mask)


def test_pair_without_an_affinity_call_runs_in_the_caller(monkeypatch):
    # Where the platform lacks os.sched_getaffinity, the mask is empty: a
    # pair above the gate starts no thread and returns the same values.
    from cylpot.spectral import _cpus, _run_pair

    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert _cpus() == []
    started = _started_threads(monkeypatch)
    assert _run_pair(lambda: "a", lambda: "b", 10**6) == ("a", "b")
    assert started == []


def test_helper_exception_reaches_the_caller_first(monkeypatch):
    # first's exception wins over second's, as if the two ran in order.
    # Beside the helper, second runs to its end (three calls); in order, it
    # does not start after first failed (one call).
    from cylpot.spectral import _run_pair

    class HelperFailed(Exception):
        pass

    ran = []

    def fails():
        raise HelperFailed("in the helper")

    def second(exc=None):
        ran.append(threading.get_ident())
        if exc is not None:
            raise exc

    def pairs():
        for tail in (None, KeyError("in the caller")):
            with pytest.raises(HelperFailed, match="in the helper"):
                _run_pair(fails, functools.partial(second, tail), 10**6)
        with pytest.raises(KeyError, match="in the caller"):
            _run_pair(lambda: 1, functools.partial(second, KeyError("in the caller")), 10**6)
        return len(ran)

    assert _solves_both_ways(monkeypatch, pairs) == [3, 4]


def test_pair_runs_in_order_when_no_thread_starts(monkeypatch):
    from cylpot.spectral import _run_pair

    def no_thread(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    monkeypatch.setattr("cylpot.spectral._PAIR_NODES", 0)
    _fake_cpus(monkeypatch, 2)
    order = []
    assert _run_pair(lambda: order.append(1) or "a", lambda: order.append(2) or "b", 5) == (
        "a", "b")
    assert order == [1, 2]


def test_not_positive_definite_wins_over_a_failed_dstemr(monkeypatch):
    # dpteqr raises NotPositiveDefiniteError; dstemr, run beside it, would
    # raise EigensolverError.  dpteqr's error is the one raised, as when
    # dstemr ran only after it.
    from cylpot.spectral import EigensolverError

    base = cp.build_graph(edges=[[i, i + 1, 1.0] for i in range(9)], mass=[1.0] * 10,
                          dirichlet_leak=[0.0] * 10, d=3)
    assert base.is_tridiagonal

    def stemr_fails(*args):
        raise EigensolverError("dstemr failed")

    def solve():
        with pytest.raises(NotPositiveDefiniteError):
            cp.decompose(base)
        with pytest.raises(NotPositiveDefiniteError):
            cp.decompose(base, modes=3)
        return True

    monkeypatch.setattr("cylpot.spectral._stemr_vectors", stemr_fails)
    assert _solves_both_ways(monkeypatch, solve) == [True, True]
