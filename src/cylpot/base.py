"""Discrete Dirichlet operators on base domains.

Every builder returns a :class:`BaseOperator`: a weighted graph stored as an
edge list (pairs i < j with conductances >= 0) plus the stiffness diagonal,
in which the Dirichlet boundary is eliminated into leak terms, together with
positive lumped mass weights.  The symmetric stiffness K has that diagonal
and K[i, j] = K[j, i] = -conductance on each edge; conservation-form finite
differences are paths (edges join consecutive nodes).  The generalized
eigenproblem ``K @ phi = lam * M @ phi`` is what the spectral module consumes.

Builders: uniform arcs of the circle, geodesic caps of the (d-1)-sphere in
radial Sturm-Liouville form with weight sin^(d-2), bead-and-neck chains, and
explicit weighted graphs loaded from JSON documents.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

__all__ = [
    "BaseSpecError",
    "ParameterError",
    "SchemaError",
    "AsymmetryError",
    "MassError",
    "OffDiagonalSignError",
    "ScaleError",
    "BaseOperator",
    "ChainSpec",
    "DEFAULT_NECK_RATIO",
    "DEFAULT_BEAD_COUNT",
    "DEFAULT_BEAD_NODES",
    "DEFAULT_BEAD_RADIUS",
    "inverse_sqrt_radii",
    "uniform_radii",
    "default_chain_spec",
    "build_arc",
    "build_cap",
    "build_chain",
    "build_graph",
    "load_base",
    "chain_bead_centers",
]


class BaseSpecError(ValueError):
    """Base class for all base-domain construction/validation errors."""


class ParameterError(BaseSpecError):
    """A builder argument is outside its admissible range."""


class SchemaError(BaseSpecError):
    """A base-spec document does not match the expected schema."""


class AsymmetryError(BaseSpecError):
    """An explicit operator document declares conflicting edge conductances."""


class MassError(BaseSpecError):
    """A mass weight is zero or negative."""


class OffDiagonalSignError(BaseSpecError):
    """A conductance (negated off-diagonal stiffness entry) is negative."""


class ScaleError(BaseSpecError):
    """The base's mass-scaled operator has entries whose squares overflow
    float64, which the eigensolvers' norms and pivot bounds form."""


# Committed default chain configuration, frozen after bring-up tuning.
# Uniform radii equalize the per-bead passage delays, which buys the largest
# total transit time per digit of Green-value suppression; the neck ratio
# then sets that delay so the axial fit window [2, 6] sits well inside the
# slow-arrival regime of the deep beads.  See tests/test_acceptance.py.
DEFAULT_BEAD_COUNT = 40
DEFAULT_BEAD_NODES = 8
DEFAULT_BEAD_RADIUS = 0.28
DEFAULT_NECK_RATIO = 0.004


def _node_indices(name: str, values) -> np.ndarray:
    """``values`` as an int array; ParameterError unless they are integers,
    so that no float index is truncated to a node."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise ParameterError(f"{name} must hold integer node indices, not {arr.dtype}")
    return arr.astype(int, copy=False)


@dataclass(frozen=True)
class BaseOperator:
    """Discrete Dirichlet operator on a base domain, as a weighted graph.

    Nothing n x n is stored: the stiffness K is the diagonal plus one
    symmetric pair of entries -conductance per edge.

    Attributes
    ----------
    mass : (n,) ndarray
        Positive lumped measure weights.
    diagonal : (n,) ndarray
        Diagonal of K: the conductances of the incident edges plus the
        Dirichlet leak of each node.
    edges : (E, 2) int ndarray
        Distinct node pairs (i, j) with i < j.
    conductance : (E,) ndarray
        Conductance >= 0 of each edge.
    d : int
        Ambient dimension (>= 2).
    b : float
        Axial drift coefficient; defaults to d - 2 in every builder.
    labels : tuple of dict
        Per-node geometric descriptors (angle, bead index, or user tag).
    reference_node : int
        Index of the distinguished node used to normalize Martin kernels.
    symmetry : optional (n,) int ndarray
        Involutive node permutation declared to commute with the operator.
    kind : str
        Builder tag ("arc", "cap", "chain", "graph").
    """

    mass: np.ndarray
    diagonal: np.ndarray
    edges: np.ndarray
    conductance: np.ndarray
    d: int
    b: float
    labels: tuple = ()
    reference_node: int = 0
    symmetry: Optional[np.ndarray] = None
    kind: str = "graph"

    def __post_init__(self):
        m = np.asarray(self.mass, dtype=float)
        diag = np.asarray(self.diagonal, dtype=float)
        edges = _node_indices("edges", self.edges).reshape(-1, 2)
        cond = np.asarray(self.conductance, dtype=float)
        for name, val in (("mass", m), ("diagonal", diag), ("edges", edges),
                          ("conductance", cond)):
            object.__setattr__(self, name, val)
        n = m.shape[0]
        if m.ndim != 1 or diag.shape != (n,):
            raise ParameterError("mass and diagonal must be length-n vectors")
        if cond.shape != (edges.shape[0],):
            raise ParameterError("need one conductance per edge")
        if not (math.isfinite(self.b) and np.all(np.isfinite(diag)) and np.all(np.isfinite(cond))):
            raise ParameterError("drift b, stiffness diagonal and conductances must be finite")
        i, j = edges.T
        repeated = np.diff(np.sort(_edge_keys(edges, n))) == 0
        if np.any(i < 0) or np.any(i >= j) or np.any(j >= n) or np.any(repeated):
            raise ParameterError("edges must be distinct node pairs (i, j) with i < j")
        if np.any(cond < 0.0):
            raise OffDiagonalSignError("an edge has negative conductance")
        if np.any(m <= 0.0) or not np.all(np.isfinite(m)):
            raise MassError("mass weights must be strictly positive and finite")
        if self.reference_node < 0 or self.reference_node >= n:
            raise ParameterError("reference node out of range")
        if self.symmetry is not None:
            sig = _node_indices("symmetry permutation", self.symmetry)
            object.__setattr__(self, "symmetry", sig)
            if sig.shape != (n,):
                raise ParameterError("symmetry permutation has wrong length")
            if np.any((sig < 0) | (sig >= n)):
                raise ParameterError("symmetry permutation maps outside the nodes")
            if not np.array_equal(sig[sig], np.arange(n)):
                raise ParameterError("declared symmetry is not an involution")
            if not (np.array_equal(diag[sig], diag) and _maps_edges_onto_themselves(
                    sig, edges, cond)):
                raise AsymmetryError("declared symmetry does not commute with stiffness")
            if not np.array_equal(m[sig], m):
                raise AsymmetryError("declared symmetry does not preserve the mass weights")

    @property
    def n(self) -> int:
        return self.mass.shape[0]

    @property
    def is_tridiagonal(self) -> bool:
        """True when every edge of nonzero conductance joins consecutive
        nodes (a path graph, so K is tridiagonal)."""
        consecutive = self.edges[:, 1] - self.edges[:, 0] == 1
        return bool(np.all(consecutive | (self.conductance == 0.0)))

    @property
    def stiffness(self) -> np.ndarray:
        """The dense (n, n) stiffness matrix, built anew on every read."""
        K = np.diag(self.diagonal)
        i, j = self.edges.T
        K[i, j] = K[j, i] = -self.conductance
        return K


def _edge_keys(edges: np.ndarray, n: int) -> np.ndarray:
    """One integer per node pair (i, j), i < j."""
    return edges[:, 0] * n + edges[:, 1]


def _maps_edges_onto_themselves(sig, edges, cond) -> bool:
    """Does the node permutation ``sig`` map the edge list of distinct pairs
    onto itself, conductances included?  A zero-conductance edge is the
    same stiffness as no edge, so it is left out."""
    live = cond != 0.0
    keys = _edge_keys(edges[live], sig.shape[0])
    image = _edge_keys(np.sort(sig[edges[live]], axis=1), sig.shape[0])
    a, b = np.argsort(keys), np.argsort(image)
    return np.array_equal(keys[a], image[b]) and np.array_equal(cond[live][a], cond[live][b])


@dataclass(frozen=True)
class ChainSpec:
    """Parameters of a bead-and-neck chain surrogate.

    The chain is a path of ``bead_count`` shrinking 1-D beads behind an
    anchor segment; bead j is traversed on a grid of step r_j / bead_nodes so
    its internal diffusion time scales like r_j**2, and necks throttle the
    passage between blocks by the factor ``neck_ratio``.
    """

    bead_count: int
    radii: tuple
    bead_nodes: int = DEFAULT_BEAD_NODES
    neck_ratio: float = DEFAULT_NECK_RATIO
    anchor_nodes: int = DEFAULT_BEAD_NODES

    def __post_init__(self):
        object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))
        if self.bead_count < 1 or self.bead_count != len(self.radii):
            raise ParameterError("bead_count must match the number of radii")
        if any(r <= 0.0 or r > 1.0 for r in self.radii):
            raise ParameterError("bead radii must lie in (0, 1]")
        if self.bead_nodes < 2:
            raise ParameterError("need at least 2 nodes per bead")
        # 1.0 means un-throttled necks (a plain path), useful as a reference.
        if not 0.0 < self.neck_ratio <= 1.0:
            raise ParameterError("neck_ratio must lie in (0, 1]")
        if self.anchor_nodes < 1:
            raise ParameterError("anchor block needs at least one node")

    @property
    def radius_sq_sum(self) -> float:
        return float(sum(r * r for r in self.radii))


def inverse_sqrt_radii(bead_count: int) -> tuple:
    """Radii r_j = 1/sqrt(j+1), j = 1..bead_count (square sums diverge)."""
    return tuple(1.0 / math.sqrt(j + 1) for j in range(1, bead_count + 1))


def uniform_radii(bead_count: int, radius: float = DEFAULT_BEAD_RADIUS) -> tuple:
    """Constant radii (square sums diverge linearly in the bead count)."""
    return (float(radius),) * bead_count


def default_chain_spec(
    bead_count: int = DEFAULT_BEAD_COUNT,
    bead_nodes: int = DEFAULT_BEAD_NODES,
    neck_ratio: float = DEFAULT_NECK_RATIO,
    anchor_nodes: int = DEFAULT_BEAD_NODES,
) -> ChainSpec:
    """The committed chain configuration of the contrast experiments."""
    return ChainSpec(
        bead_count=bead_count,
        radii=uniform_radii(bead_count),
        bead_nodes=bead_nodes,
        neck_ratio=neck_ratio,
        anchor_nodes=anchor_nodes,
    )


def _graph_operator(edges, conductance, leak, mass, **fields) -> BaseOperator:
    """BaseOperator of a weighted graph with Dirichlet leaks.  Each edge adds
    its conductance to the diagonal entries of both its nodes, edge by edge
    in list order, and the leaks are added last."""
    edges = np.asarray(edges, dtype=int).reshape(-1, 2)
    conductance = np.asarray(conductance, dtype=float)
    diagonal = np.zeros(len(mass))
    np.add.at(diagonal, edges.ravel(), np.repeat(conductance, 2))
    return BaseOperator(
        mass=mass, diagonal=diagonal + leak, edges=edges, conductance=conductance, **fields
    )


def _path_operator(conductances, leak_left: float, leak_right: float, mass,
                   **fields) -> BaseOperator:
    """Path graph from its consecutive edge conductances and end leaks."""
    n = len(conductances) + 1
    leak = np.zeros(n)
    leak[0] += leak_left
    leak[-1] += leak_right
    edges = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    return _graph_operator(edges, conductances, leak, mass, **fields)


def build_arc(L: float, n: int, b: float = 0.0) -> BaseOperator:
    """Uniform second-order operator on an arc of length L with Dirichlet ends.

    Grid step h = L/(n+1); edge conductances 1/h, boundary leaks 1/h, lumped
    mass h per node.  Ambient dimension is 2, so the drift default is 0.
    """
    if not (0.0 < L < 2.0 * math.pi):
        raise ParameterError("arc length must lie in (0, 2*pi)")
    if int(n) != n or n < 1:
        raise ParameterError("need a positive integer interior node count")
    n = int(n)
    h = L / (n + 1)
    c = 1.0 / h
    theta = h * np.arange(1, n + 1)
    labels = tuple({"angle": float(t)} for t in theta)
    ref = int(np.argmin(np.abs(theta - L / 2.0)))
    sigma = np.arange(n)[::-1].copy()
    return _path_operator(
        np.full(n - 1, c), c, c, np.full(n, h),
        d=2,
        b=float(b),
        labels=labels,
        reference_node=ref,
        symmetry=sigma,
        kind="arc",
    )


def build_cap(d: int, theta0: float, n: int, b: Optional[float] = None) -> BaseOperator:
    """Radial operator of a geodesic cap of half-angle theta0 on the (d-1)-sphere.

    Discretizes the Sturm-Liouville form -(w phi')'/w with w = sin^(d-2) on a
    cell-centered grid theta_i = (i - 1/2) h, h = theta0/(n + 1/2).  The pole
    face at theta = 0 carries no flux (ghost-node reflection; for d >= 3 the
    weight vanishes there anyway), the face beyond the last node is Dirichlet.
    Mass weights are sin^(d-2)(theta_i) * h.
    """
    if int(d) != d or d < 2:
        raise ParameterError("ambient dimension must be an integer >= 2")
    if not 0.0 < theta0 < math.pi:
        raise ParameterError(
            "cap half-angle must lie in (0, pi): a full sphere would leave a "
            "polar complement, violating the standing non-polarity assumption"
        )
    if int(n) != n or n < 1:
        raise ParameterError("need a positive integer interior node count")
    d, n = int(d), int(n)
    h = theta0 / (n + 0.5)
    theta = (np.arange(1, n + 1) - 0.5) * h
    faces = np.arange(1, n + 1) * h
    w_face = np.sin(faces) ** (d - 2)
    mass = (np.sin(theta) ** (d - 2)) * h
    labels = tuple({"angle": float(t)} for t in theta)
    ref = int(np.argmin(np.abs(theta - theta0 / 2.0)))
    drift = float(d - 2) if b is None else float(b)
    return _path_operator(
        w_face[:-1] / h, 0.0, w_face[-1] / h, mass,
        d=d,
        b=drift,
        labels=labels,
        reference_node=ref,
        kind="cap",
    )


def build_chain(spec: ChainSpec, d: int, b: Optional[float] = None) -> BaseOperator:
    """Anchor segment plus shrinking beads joined by throttled neck edges.

    The anchor is a unit-length uniform segment whose outer end carries the
    single Dirichlet leak; bead j is a uniform segment of ``bead_nodes`` nodes
    with step h_j = r_j / bead_nodes.  The neck into bead j has conductance
    neck_ratio / h_j (the entered bead's internal conductance, throttled).
    """
    if int(d) != d or d < 2:
        raise ParameterError("ambient dimension must be an integer >= 2")
    d = int(d)
    m = spec.bead_nodes
    h_anchor = 1.0 / spec.anchor_nodes

    conductances = []
    masses = []
    labels = []
    pos = 0.0
    # Anchor block: node 0 sits next to the eliminated Dirichlet boundary.
    for i in range(spec.anchor_nodes):
        pos += h_anchor
        masses.append(h_anchor)
        labels.append({"block": "anchor", "index": i, "pos": pos})
        if i > 0:
            conductances.append(1.0 / h_anchor)
    for j, r in enumerate(spec.radii, start=1):
        h_j = r / m
        conductances.append(spec.neck_ratio / h_j)
        for i in range(m):
            pos += h_j
            masses.append(h_j)
            labels.append({"block": "bead", "bead": j, "index": i, "pos": pos})
            if i > 0:
                conductances.append(1.0 / h_j)
    drift = float(d - 2) if b is None else float(b)
    return _path_operator(
        np.asarray(conductances), 1.0 / h_anchor, 0.0, np.asarray(masses),
        d=d,
        b=drift,
        labels=tuple(labels),
        reference_node=0,
        kind="chain",
    )


def chain_bead_centers(base: BaseOperator) -> np.ndarray:
    """Node indices of the center of each bead, in bead order."""
    centers = {}
    per_bead = {}
    for idx, lab in enumerate(base.labels):
        if lab.get("block") == "bead":
            per_bead.setdefault(lab["bead"], []).append(idx)
    for j, nodes in per_bead.items():
        centers[j] = nodes[len(nodes) // 2]
    return np.asarray([centers[j] for j in sorted(centers)], dtype=int)


def build_graph(
    edges: Sequence[Sequence[float]],
    mass: Sequence[float],
    dirichlet_leak: Sequence[float],
    d: int,
    b: Optional[float] = None,
    labels: Optional[Sequence] = None,
    symmetry: Optional[Sequence[int]] = None,
) -> BaseOperator:
    """Explicit weighted graph: edge list with conductances plus node leaks.

    Every entry is checked as a graph document's is: an edge is [int, int,
    real], masses and leaks are reals, symmetry entries are ints, ``d`` is an
    int and ``b`` a real (numpy numbers count, bools and strings do not), or
    SchemaError names the first entry that is not.
    """
    m = np.asarray(_entries("mass", list(mass), float))
    n = m.shape[0]
    if np.any(m <= 0.0):
        raise MassError("graph document has a non-positive mass weight")
    leak = np.asarray(_entries("dirichlet_leak", list(dirichlet_leak), float))
    if leak.shape != (n,):
        raise SchemaError("dirichlet_leak must list one value per node")
    if np.any(leak < 0.0):
        raise ParameterError("Dirichlet leak coefficients must be >= 0")
    d = _typed("d", d, int)
    drift = float(d - 2) if b is None else _typed("b", b, float)
    seen = {}
    for k, e in enumerate(edges):
        i, j, c = _edge(k, e)
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise SchemaError(f"edge ({i}, {j}) is not a valid node pair")
        if c < 0.0:
            raise OffDiagonalSignError(
                f"edge ({i}, {j}) has negative conductance {c}; the stiffness "
                "off-diagonal would be positive"
            )
        key = (min(i, j), max(i, j))
        if key in seen and seen[key] != c:
            raise AsymmetryError(
                f"edge {key} declared twice with conductances {seen[key]} and {c}"
            )
        seen[key] = c
    if labels is not None and len(labels) != n:
        raise SchemaError("labels must list one entry per node")
    if labels is None:
        lab = tuple({"tag": i} for i in range(n))
    else:
        lab = tuple(dict(x) if isinstance(x, dict) else {"tag": x} for x in labels)
    sig = None if symmetry is None else np.asarray(_entries("symmetry", list(symmetry), int))
    return _graph_operator(
        list(seen), list(seen.values()), leak, m,
        d=d,
        b=drift,
        labels=lab,
        reference_node=0,
        symmetry=sig,
        kind="graph",
    )


def _typed(key: str, val, typ) -> object:
    if typ is float and isinstance(val, numbers.Real) and not isinstance(val, bool):
        return float(val)
    if typ is int and isinstance(val, numbers.Integral) and not isinstance(val, bool):
        return int(val)
    if typ is list and isinstance(val, list):
        return val
    raise SchemaError(f"field '{key}' must be of type {typ.__name__}")


def _require(doc: dict, key: str, typ) -> object:
    if key not in doc:
        raise SchemaError(f"base-spec document is missing required field '{key}'")
    return _typed(key, doc[key], typ)


def _optional(doc: dict, key: str, typ, default) -> object:
    return _typed(key, doc[key], typ) if key in doc else default


def _entries(key: str, values: list, typ) -> list:
    """The entries of the list field ``key``, each of type ``typ``."""
    return [_typed(f"{key}[{k}]", x, typ) for k, x in enumerate(values)]


def _edge(k: int, edge) -> list:
    """Entry k of a graph's edge list: [int, int, real]."""
    if not isinstance(edge, (list, tuple, np.ndarray)) or len(edge) != 3:
        raise SchemaError(f"edge {k} must be [i, j, conductance]")
    return _entries(f"edges[{k}]", edge[:2], int) + [_typed(f"edges[{k}][2]", edge[2], float)]


def load_base(document: Union[str, Path, dict]) -> BaseOperator:
    """Build a BaseOperator from a JSON base-spec document (path or dict).

    {"type": "arc"|"cap"|"chain"|"graph", "d": int, "b": optional real, ...}
    """
    if isinstance(document, (str, Path)):
        with open(document, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"base-spec file is not valid JSON: {exc}") from exc
    else:
        doc = document
    if not isinstance(doc, dict):
        raise SchemaError("base-spec document must be a JSON object")
    kind = doc.get("type")
    b = doc.get("b")
    if b is not None and (isinstance(b, bool) or not isinstance(b, (int, float))):
        raise SchemaError("field 'b' must be a real number")

    if kind == "arc":
        L = _require(doc, "L", float)
        n = _require(doc, "n", int)
        return build_arc(L, n, b=0.0 if b is None else float(b))
    if kind == "cap":
        return build_cap(
            _require(doc, "d", int),
            _require(doc, "theta0", float),
            _require(doc, "n", int),
            b=None if b is None else float(b),
        )
    if kind == "chain":
        J = _require(doc, "J", int)
        if "radii" in doc:
            radii = tuple(_typed("radii", r, float) for r in _require(doc, "radii", list))
        else:
            rule = doc.get("radiiRule", "uniform")
            if rule == "uniform":
                radii = uniform_radii(J, _optional(doc, "radius", float, DEFAULT_BEAD_RADIUS))
            elif rule == "inverse_sqrt":
                radii = inverse_sqrt_radii(J)
            else:
                raise SchemaError(f"unknown radii rule '{rule}'")
        spec = ChainSpec(
            bead_count=J,
            radii=radii,
            bead_nodes=_optional(doc, "beadNodes", int, DEFAULT_BEAD_NODES),
            neck_ratio=_optional(doc, "neckRatio", float, DEFAULT_NECK_RATIO),
            anchor_nodes=_optional(doc, "anchorNodes", int, DEFAULT_BEAD_NODES),
        )
        return build_chain(spec, _require(doc, "d", int), b=None if b is None else float(b))
    if kind == "graph":
        return build_graph(
            edges=_require(doc, "edges", list),
            mass=_require(doc, "mass", list),
            dirichlet_leak=_require(doc, "dirichlet_leak", list),
            d=_require(doc, "d", int),
            b=b,
            labels=_optional(doc, "labels", list, None),
            symmetry=_optional(doc, "symmetry", list, None),
        )
    raise SchemaError(f"unknown base type {kind!r}")
