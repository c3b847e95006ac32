import math

import numpy as np
import pytest

import cylpot as cp


@pytest.fixture(scope="session")
def arc_small():
    base = cp.build_arc(math.pi, 101)
    return base, cp.decompose(base)


@pytest.fixture(scope="session")
def arc_fine():
    base = cp.build_arc(math.pi, 2000)
    return base, cp.decompose(base)


@pytest.fixture(scope="session")
def arc_sym():
    # Odd interior count keeps a fixed node on the reflection axis.
    base = cp.build_arc(math.pi, 2001)
    return base, cp.decompose(base)


@pytest.fixture(scope="session")
def cap_hemi4():
    base = cp.build_cap(4, math.pi / 2, 2000)
    return base, cp.decompose(base)


@pytest.fixture(scope="session")
def cap_hemi3():
    base = cp.build_cap(3, math.pi / 2, 2000)
    return base, cp.decompose(base)


@pytest.fixture(scope="session")
def cap_hemi5():
    base = cp.build_cap(5, math.pi / 2, 2000)
    return base, cp.decompose(base)


@pytest.fixture(scope="session")
def cap_small():
    base = cp.build_cap(4, 2 * math.pi / 5, 301)
    return base, cp.decompose(base)


@pytest.fixture(scope="session")
def chain_default():
    base = cp.build_chain(cp.default_chain_spec(), d=4)
    return base, cp.decompose(base)


@pytest.fixture(scope="session")
def one_node():
    base = cp.build_graph(edges=[], mass=[1.0], dirichlet_leak=[2.5], d=2, b=0.0)
    return base, cp.decompose(base)


@pytest.fixture(scope="session")
def one_node_drift():
    base = cp.build_graph(edges=[], mass=[1.0], dirichlet_leak=[3.0], d=4, b=2.0)
    return base, cp.decompose(base)


@pytest.fixture(scope="session")
def chain_shortcut():
    """A 12-bead chain and its edges, mass and a leak at node 0 re-entered
    as a graph document with one extra edge (0, 2): not a path, so it has
    no resolvent route, and its deepest mode sums lose their digits."""
    chain = cp.build_chain(cp.default_chain_spec(bead_count=12), d=4)
    edges = [[int(i), int(j), float(c)] for (i, j), c in zip(chain.edges, chain.conductance)]
    doc = {
        "type": "graph",
        "d": 4,
        "edges": edges + [[0, 2, 1e-3]],
        "mass": chain.mass.tolist(),
        "dirichlet_leak": [8.0] + [0.0] * (chain.n - 1),
    }
    return chain, doc


@pytest.fixture(scope="session")
def cyclic_graph():
    """Base document of an 80-node cycle: conductances 1 + 0.5 sin k on
    edge (k, k + 1), mass 1 + 0.3 cos k and leak 0.2 at every node, d = 3.
    Its eigenvalues 2 and 3 lie 5.6e-4 apart."""
    k = np.arange(80)
    return {
        "type": "graph",
        "d": 3,
        "edges": [[int(a), int((a + 1) % 80), 1.0 + 0.5 * math.sin(a)] for a in k],
        "mass": (1.0 + 0.3 * np.cos(k)).tolist(),
        "dirichlet_leak": [0.2] * 80,
    }
