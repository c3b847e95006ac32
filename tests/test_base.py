import json
import math

import numpy as np
import pytest

import cylpot as cp
from cylpot.base import (
    AsymmetryError,
    BaseOperator,
    MassError,
    OffDiagonalSignError,
    ParameterError,
    SchemaError,
)


def test_arc_single_node_matrices():
    base = cp.build_arc(math.pi, 1)
    h = math.pi / 2
    # Conservation-form stiffness: both boundary leaks 1/h on the one node.
    assert base.stiffness[0, 0] == pytest.approx(2.0 / h)
    assert base.mass[0] == pytest.approx(h)
    assert base.d == 2 and base.b == 0.0


def test_arc_tridiagonal_structure():
    base = cp.build_arc(math.pi, 3)
    h = math.pi / 4
    c = 1.0 / h
    expect = np.array([[2 * c, -c, 0.0], [-c, 2 * c, -c], [0.0, -c, 2 * c]])
    assert np.allclose(base.stiffness, expect, rtol=0, atol=1e-15)
    assert np.array_equal(base.stiffness, base.stiffness.T)
    assert base.mass == pytest.approx([h, h, h])
    assert base.is_tridiagonal



def test_is_tridiagonal_counted_once_without_temporaries(monkeypatch):
    import tracemalloc

    base = cp.build_arc(math.pi, 1500)
    calls = []
    count = np.count_nonzero
    monkeypatch.setattr(np, "count_nonzero", lambda *a, **k: calls.append(1) or count(*a, **k))
    tracemalloc.start()
    try:
        assert base.is_tridiagonal
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6  # an n x n boolean mask alone takes 2.25 MB
    first = len(calls)
    assert base.is_tridiagonal and len(calls) == first
    ring = cp.build_graph(edges=[[0, 1, 1.0], [1, 2, 1.0], [2, 0, 0.5]],
                          mass=[1.0, 1.0, 1.0], dirichlet_leak=[1.0, 0.0, 1.0], d=3)
    assert not ring.is_tridiagonal

def test_arc_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        cp.build_arc(0.0, 5)
    with pytest.raises(ParameterError):
        cp.build_arc(2 * math.pi, 5)
    with pytest.raises(ParameterError):
        cp.build_arc(1.0, 0)


def test_arc_refinement_order():
    errs, hs = [], []
    for n in (250, 500, 1000, 2000):
        spec = cp.decompose(cp.build_arc(math.pi, n))
        errs.append(abs(spec.lambda1 - 1.0))
        hs.append(math.pi / (n + 1))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 1.9 <= slope <= 2.1


def test_arc_symmetry_declaration():
    base = cp.build_arc(math.pi, 8)
    sigma = base.symmetry
    assert np.array_equal(sigma[sigma], np.arange(8))
    assert np.array_equal(base.stiffness[np.ix_(sigma, sigma)], base.stiffness)
    assert np.array_equal(base.mass[sigma], base.mass)


def test_cap_structure_and_mass():
    d, theta0, n = 4, 2 * math.pi / 5, 50
    base = cp.build_cap(d, theta0, n)
    h = theta0 / (n + 0.5)
    theta = (np.arange(1, n + 1) - 0.5) * h
    assert base.mass == pytest.approx(np.sin(theta) ** (d - 2) * h)
    # No-flux pole: first node couples only rightward.
    assert base.stiffness[0, 0] == pytest.approx(-base.stiffness[0, 1])
    assert base.b == d - 2


def test_cap_d2_matches_arc_spectrum():
    theta0 = 1.1
    lam_cap = cp.decompose(cp.build_cap(2, theta0, 400)).lambda1
    lam_arc = cp.decompose(cp.build_arc(2 * theta0, 801)).lambda1
    oracle = (math.pi / (2 * theta0)) ** 2
    assert lam_cap == pytest.approx(oracle, rel=1e-4)
    assert lam_cap == pytest.approx(lam_arc, rel=1e-4)


def test_cap_rejects_polar_complement():
    with pytest.raises(ParameterError, match="polar"):
        cp.build_cap(4, math.pi, 100)


def test_chain_hand_checkable_example():
    spec = cp.ChainSpec(bead_count=1, radii=(1.0,), bead_nodes=2,
                        neck_ratio=1.0, anchor_nodes=2)
    base = cp.build_chain(spec, d=3)
    expect = np.array(
        [
            [4.0, -2.0, 0.0, 0.0],
            [-2.0, 4.0, -2.0, 0.0],
            [0.0, -2.0, 4.0, -2.0],
            [0.0, 0.0, -2.0, 2.0],
        ]
    )
    assert np.array_equal(base.stiffness, expect)
    assert base.mass == pytest.approx([0.5, 0.5, 0.5, 0.5])
    assert base.reference_node == 0
    assert base.b == 1.0


def test_chain_ground_eigenvalue_monotone_in_bead_count():
    lam = {}
    for J in (20, 40):
        spec = cp.ChainSpec(bead_count=J, radii=cp.inverse_sqrt_radii(J),
                            bead_nodes=8, neck_ratio=0.05, anchor_nodes=8)
        lam[J] = cp.decompose(cp.build_chain(spec, d=4)).lambda1
    assert 0.0 < lam[40] < lam[20]


def test_chain_bead_centers_march_outward():
    base = cp.build_chain(cp.default_chain_spec(bead_count=12), d=4)
    centers = cp.chain_bead_centers(base)
    pos = np.array([base.labels[i]["pos"] for i in centers])
    assert np.all(np.diff(pos) > 0)
    assert len(centers) == 12


def test_chain_spec_validation():
    with pytest.raises(ParameterError):
        cp.ChainSpec(bead_count=2, radii=(0.5, 1.5))
    with pytest.raises(ParameterError):
        cp.ChainSpec(bead_count=2, radii=(0.5, 0.5), neck_ratio=1.5)
    with pytest.raises(ParameterError):
        cp.ChainSpec(bead_count=2, radii=(0.5, 0.5), bead_nodes=1)


def test_load_base_arc_dispatch(tmp_path):
    doc = {"type": "arc", "L": math.pi, "n": 3}
    built = cp.load_base(doc)
    direct = cp.build_arc(math.pi, 3)
    assert np.array_equal(built.stiffness, direct.stiffness)
    assert np.array_equal(built.mass, direct.mass)
    path = tmp_path / "arc.json"
    path.write_text(json.dumps(doc))
    from_file = cp.load_base(path)
    assert np.array_equal(from_file.stiffness, direct.stiffness)


def test_load_base_explicit_graph():
    doc = {
        "type": "graph",
        "d": 3,
        "edges": [[0, 1, 1.0]],
        "mass": [1.0, 1.0],
        "dirichlet_leak": [1.0, 1.0],
    }
    base = cp.load_base(doc)
    assert np.array_equal(base.stiffness, [[2.0, -1.0], [-1.0, 2.0]])


# Malformed base documents: a mutation of the two-node graph document of
# mutated_document, and the error that load_base raises for it.  test_cli
# runs the same table through the command line.
MALFORMED_DOCUMENTS = [
    ({"mass": [1.0, 0.0]}, MassError),
    ({"edges": [[0, 1, -1.0]]}, OffDiagonalSignError),
    ({"edges": [[0, 1, 1.0], [1, 0, 2.0]]}, AsymmetryError),
    ({"type": "torus"}, SchemaError),
    ({"drop": "edges"}, SchemaError),
    ({"edges": [5]}, SchemaError),
    ({"symmetry": [5, 0]}, ParameterError),
    ({"mass": ["heavy", 1.0]}, SchemaError),
    ({"edges": [["a", 1, 1.0]]}, SchemaError),
    ({"edges": [[0, 1, "x"]]}, SchemaError),
    ({"edges": [[0.5, 1, 1.0]]}, SchemaError),
    ({"labels": ["only one"]}, SchemaError),
    ({"type": "cap", "theta0": 1.0, "n": 20, "b": math.nan}, ParameterError),
    ({"type": "arc", "L": 2.0, "n": 20, "b": math.inf}, ParameterError),
    ({"edges": [[0, 1, math.nan]]}, ParameterError),
    ({"dirichlet_leak": [math.inf, 1.0]}, ParameterError),
]


def mutated_document(mutation) -> dict:
    doc = {
        "type": "graph",
        "d": 3,
        "edges": [[0, 1, 1.0]],
        "mass": [1.0, 1.0],
        "dirichlet_leak": [1.0, 1.0],
    }
    if "drop" in mutation:
        doc.pop(mutation["drop"])
    else:
        doc.update(mutation)
    return doc


@pytest.mark.parametrize("mutation, err", MALFORMED_DOCUMENTS)
def test_load_base_named_validation_errors(mutation, err):
    with pytest.raises(err):
        cp.load_base(mutated_document(mutation))


def test_load_base_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError):
        cp.load_base(path)


def test_load_base_chain_rules():
    doc = {"type": "chain", "d": 4, "J": 5}
    base = cp.load_base(doc)
    assert base.kind == "chain"
    doc2 = {"type": "chain", "d": 4, "J": 5, "radiiRule": "inverse_sqrt"}
    base2 = cp.load_base(doc2)
    assert base2.n == base.n
    with pytest.raises(SchemaError):
        cp.load_base({"type": "chain", "d": 4, "J": 5, "radiiRule": "fib"})


def test_builder_postconditions_everywhere():
    bases = [
        cp.build_arc(2.0, 17),
        cp.build_cap(5, 1.0, 23),
        cp.build_chain(cp.default_chain_spec(bead_count=4), d=4),
    ]
    for base in bases:
        K = base.stiffness
        assert np.array_equal(K, K.T)
        off = K - np.diag(np.diag(K))
        assert np.all(off <= 0.0)
        assert np.all(base.mass > 0.0)


def _assemble_path(conductances, leak_left, leak_right):
    """Dense path stiffness, assembled entry by entry."""
    n = len(conductances) + 1
    K = np.zeros((n, n))
    for i, c in enumerate(conductances):
        K[i, i] += c
        K[i + 1, i + 1] += c
        K[i, i + 1] = -c
        K[i + 1, i] = -c
    K[0, 0] += leak_left
    K[n - 1, n - 1] += leak_right
    return K


def _chain_conductances(spec):
    h_anchor = 1.0 / spec.anchor_nodes
    cond = [1.0 / h_anchor] * (spec.anchor_nodes - 1)
    for r in spec.radii:
        h = r / spec.bead_nodes
        cond += [spec.neck_ratio / h] + [1.0 / h] * (spec.bead_nodes - 1)
    return cond, 1.0 / h_anchor


def test_path_stiffness_matches_dense_assembly():
    for L, n in ((math.pi, 1), (2.0, 17)):
        c = (n + 1) / L
        want = _assemble_path(np.full(n - 1, c), c, c)
        assert np.array_equal(cp.build_arc(L, n).stiffness, want)
    d, theta0, n = 5, 1.0, 23
    h = theta0 / (n + 0.5)
    w_face = np.sin(np.arange(1, n + 1) * h) ** (d - 2)
    want = _assemble_path(w_face[:-1] / h, 0.0, w_face[-1] / h)
    assert np.array_equal(cp.build_cap(d, theta0, n).stiffness, want)
    spec = cp.default_chain_spec(bead_count=4)
    cond, leak = _chain_conductances(spec)
    want = _assemble_path(np.asarray(cond), leak, 0.0)
    assert np.array_equal(cp.build_chain(spec, d=4).stiffness, want)


def test_cap_build_stores_nothing_quadratic():
    import tracemalloc

    tracemalloc.start()
    try:
        base = cp.build_cap(4, math.pi / 2, 3000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6  # a dense 3000 x 3000 stiffness alone takes 72 MB
    assert base.is_tridiagonal and base.edges.shape == (2999, 2)


@pytest.mark.parametrize(
    "mutation, match",
    [
        ({}, None),
        # A zero-conductance edge is no edge: its image need not be listed.
        ({"edges": [[0, 1, 1.0], [1, 2, 2.0], [2, 3, 1.0], [0, 3, 0.5], [0, 2, 0.0]]}, None),
        # Leaks keep the diagonal symmetric; the edge (2, 3) is not.
        ({"edges": [[0, 1, 1.0], [1, 2, 2.0], [2, 3, 1.5], [0, 3, 0.5]],
          "dirichlet_leak": [1.5, 0.5, 0.0, 1.0]}, "stiffness"),
        ({"dirichlet_leak": [1.0, 0.0, 0.0, 2.0]}, "stiffness"),
        ({"mass": [1.0, 2.0, 2.0, 1.5]}, "mass"),
    ],
)
def test_graph_symmetry_declaration(mutation, match):
    doc = {
        "type": "graph",
        "d": 3,
        "edges": [[0, 1, 1.0], [1, 2, 2.0], [2, 3, 1.0], [0, 3, 0.5]],
        "mass": [1.0, 2.0, 2.0, 1.0],
        "dirichlet_leak": [1.0, 0.0, 0.0, 1.0],
        "symmetry": [3, 2, 1, 0],
    }
    doc.update(mutation)
    if match is None:
        base = cp.load_base(doc)
        sigma = base.symmetry
        assert np.array_equal(base.stiffness[np.ix_(sigma, sigma)], base.stiffness)
    else:
        with pytest.raises(AsymmetryError, match=match):
            cp.load_base(doc)


def test_operator_rejects_malformed_edge_lists():
    fields = dict(mass=[1.0, 1.0, 1.0], diagonal=[2.0, 2.0, 2.0], d=3, b=1.0)
    for edges in ([[1, 0]], [[1, 1]], [[0, 3]], [[-1, 2]], [[0, 1], [0, 1]]):
        with pytest.raises(ParameterError):
            BaseOperator(edges=edges, conductance=[1.0] * len(edges), **fields)
    with pytest.raises(ParameterError):
        BaseOperator(edges=[[0, 1]], conductance=[1.0, 2.0], **fields)
    with pytest.raises(OffDiagonalSignError):
        BaseOperator(edges=[[0, 1]], conductance=[-1.0], **fields)


@pytest.mark.parametrize("mutation, match", [
    ({"edges": [[0.5, 1, 1.0]]}, r"edges\[0\]\[0\]"),
    ({"edges": [[0, np.float64(1.0), 1.0]]}, r"edges\[0\]\[1\]"),
    ({"edges": [[0, 1, "1.0"]]}, r"edges\[0\]\[2\]"),
    ({"mass": [1.0, "2"]}, r"mass\[1\]"),
    ({"dirichlet_leak": [True, 1.0]}, r"dirichlet_leak\[0\]"),
    ({"symmetry": [1.0, 0.0]}, r"symmetry\[0\]"),
    ({"d": 3.0}, r"'d'"),
    ({"b": "1"}, r"'b'"),
])
def test_build_graph_checks_every_entry(mutation, match):
    # Each of these used to be truncated or converted into a valid graph.
    fields = dict(edges=[[0, 1, 1.0]], mass=[1.0, 1.0], dirichlet_leak=[1.0, 1.0], d=3)
    fields.update(mutation)
    with pytest.raises(SchemaError, match=match):
        cp.build_graph(**fields)


def test_build_graph_takes_numpy_numbers():
    base = cp.build_graph(
        edges=[(np.int64(0), np.int32(1), np.float32(0.5))],
        mass=np.array([1.0, 1.0], dtype=np.float32), dirichlet_leak=np.ones(2),
        d=np.int64(3), b=np.float64(0.5), symmetry=np.array([1, 0]),
    )
    assert base.edges.tolist() == [[0, 1]] and base.d == 3 and base.b == 0.5
    assert base.symmetry.tolist() == [1, 0] and base.conductance.tolist() == [0.5]


def test_operator_rejects_float_node_indices():
    # [1.5, 0.2] and [[0.5, 1.7]] used to truncate to a valid swap and edge.
    fields = dict(mass=[1.0, 1.0], diagonal=[2.0, 2.0], conductance=[1.0], d=3, b=1.0)
    with pytest.raises(ParameterError, match="symmetry permutation must hold integer"):
        BaseOperator(edges=[[0, 1]], symmetry=[1.5, 0.2], **fields)
    with pytest.raises(ParameterError, match="edges must hold integer"):
        BaseOperator(edges=[[0.5, 1.7]], **fields)
    assert BaseOperator(edges=[[0, 1]], symmetry=[1, 0], **fields).symmetry.tolist() == [1, 0]
