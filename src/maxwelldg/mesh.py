"""Conforming triangle meshes with oriented face connectivity.

The mesh layer fixes every orientation convention used downstream:

* elements are stored counterclockwise (positive signed area);
* each face (edge) is keyed by its sorted vertex pair and listed in
  lexicographic order of that pair;
* the face tangent runs from the lower-numbered vertex to the higher one,
  and the face parameter s in [0, 1] runs the same way;
* for an interior face the "plus" element is the one with the lower element
  index, and the stored unit normal points out of it.  Boundary faces store
  the outward normal of their single element.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Mesh",
    "MeshFormatError",
    "unit_square",
    "lshape",
    "read_mesh",
    "write_mesh",
    "refine_uniform",
]


class MeshFormatError(ValueError):
    """Raised for malformed mesh files or geometrically invalid input."""


@dataclass(frozen=True)
class Mesh:
    """Triangulation with precomputed face connectivity.

    Attributes
    ----------
    vertices : (nv, 2) float array
    elements : (ne, 3) int array, counterclockwise vertex triples
    tags : (ne,) int array of material tags
    faces : (nf, 2) int array of sorted vertex pairs, lexicographically ordered
    face_elements : (nf, 2) int array; column 1 is -1 on boundary faces
    face_normals : (nf, 2) unit normals, outward from the plus element
    face_tangents : (nf, 2) unit tangents, lower vertex towards higher
    face_lengths : (nf,) face lengths h_F
    boundary : (nf,) bool mask of boundary faces
    element_faces : (ne, 3) face index opposite each local vertex
    """

    vertices: np.ndarray
    elements: np.ndarray
    tags: np.ndarray
    faces: np.ndarray = field(init=False)
    face_elements: np.ndarray = field(init=False)
    face_normals: np.ndarray = field(init=False)
    face_tangents: np.ndarray = field(init=False)
    face_lengths: np.ndarray = field(init=False)
    boundary: np.ndarray = field(init=False)
    element_faces: np.ndarray = field(init=False)

    def __post_init__(self):
        vertices = np.ascontiguousarray(np.asarray(self.vertices, dtype=float))
        elements = np.ascontiguousarray(np.asarray(self.elements, dtype=np.int64))
        tags = np.ascontiguousarray(np.asarray(self.tags, dtype=np.int64))
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise MeshFormatError("vertices must be an (nv, 2) array")
        if elements.ndim != 2 or elements.shape[1] != 3:
            raise MeshFormatError("elements must be an (ne, 3) array")
        if tags.shape != (len(elements),):
            raise MeshFormatError("one material tag per element required")
        if elements.size and (elements.min() < 0 or elements.max() >= len(vertices)):
            raise MeshFormatError("element vertex index out of range")
        if not np.all(np.isfinite(vertices)):
            raise MeshFormatError("vertex coordinates must be finite")
        dedup = np.unique(np.round(vertices, 12), axis=0)
        if len(dedup) != len(vertices):
            raise MeshFormatError("duplicate vertices")

        # Normalize orientation, then reject elements that stay degenerate.
        areas = _signed_areas(vertices, elements)
        flip = areas < 0
        elements = elements.copy()
        elements[flip] = elements[flip][:, [0, 2, 1]]
        areas = np.abs(areas)
        scale = np.max(np.abs(vertices)) if vertices.size else 1.0
        if np.any(areas <= 1e-14 * max(scale, 1.0) ** 2):
            raise MeshFormatError("degenerate element (zero area)")

        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "tags", tags)
        self._build_faces()
        self._check_hanging_vertices()

    def _build_faces(self):
        elements = self.elements
        # Local face k is opposite local vertex k.
        local = [(1, 2), (0, 2), (0, 1)]
        pairs = {}
        for e, tri in enumerate(elements):
            for k, (a, b) in enumerate(local):
                key = (min(tri[a], tri[b]), max(tri[a], tri[b]))
                pairs.setdefault(key, []).append((e, k))
        keys = sorted(pairs)
        nf = len(keys)
        faces = np.array(keys, dtype=np.int64).reshape(nf, 2)
        face_elements = np.full((nf, 2), -1, dtype=np.int64)
        element_faces = np.full((len(elements), 3), -1, dtype=np.int64)
        for f, key in enumerate(keys):
            adj = sorted(pairs[key])
            if len(adj) > 2:
                raise MeshFormatError("face shared by more than two elements")
            for slot, (e, k) in enumerate(adj):
                face_elements[f, slot] = e
                element_faces[e, k] = f
        if np.any(element_faces < 0):
            raise MeshFormatError("inconsistent element-face incidence")

        a = self.vertices[faces[:, 0]]
        b = self.vertices[faces[:, 1]]
        tangents = b - a
        lengths = np.linalg.norm(tangents, axis=1)
        tangents = tangents / lengths[:, None]
        # Candidate normal is the tangent rotated by -90 degrees; flip it to
        # point away from the plus element's centroid.
        normals = np.stack([tangents[:, 1], -tangents[:, 0]], axis=1)
        plus = face_elements[:, 0]
        centroids = self.vertices[elements[plus]].mean(axis=1)
        mid = 0.5 * (a + b)
        outward = np.einsum("fd,fd->f", normals, mid - centroids) > 0
        normals[~outward] *= -1.0

        object.__setattr__(self, "faces", faces)
        object.__setattr__(self, "face_elements", face_elements)
        object.__setattr__(self, "face_normals", normals)
        object.__setattr__(self, "face_tangents", tangents)
        object.__setattr__(self, "face_lengths", lengths)
        object.__setattr__(self, "boundary", face_elements[:, 1] < 0)
        object.__setattr__(self, "element_faces", element_faces)

    def _check_hanging_vertices(self):
        """Reject a vertex in the relative interior of a face.  Neither the
        face nor the two edges split off it find a partner element, so all
        three are flagged boundary: only boundary vertices against boundary
        faces need testing."""
        faces = self.faces[self.boundary]
        a = self.vertices[faces[:, 0]]
        d = self.vertices[faces[:, 1]] - a
        rel = self.vertices[np.unique(faces)][:, None, :] - a
        len2 = np.einsum("fd,fd->f", d, d)
        along = np.einsum("vfd,fd->vf", rel, d)
        across = rel[..., 0] * d[:, 1] - rel[..., 1] * d[:, 0]
        tol = 1e-10 * len2
        inside = ((np.abs(across) <= tol) & (along > tol)
                  & (along < len2 - tol))
        if np.any(inside):
            raise MeshFormatError("hanging node: a vertex lies inside a face")

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_elements(self) -> int:
        return len(self.elements)

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    def element_areas(self) -> np.ndarray:
        return np.abs(_signed_areas(self.vertices, self.elements))

    def mesh_size(self) -> float:
        """Largest element diameter (longest edge over all elements)."""
        tri = self.vertices[self.elements]
        edge = [np.linalg.norm(tri[:, i] - tri[:, j], axis=1)
                for i, j in ((0, 1), (1, 2), (0, 2))]
        return float(np.max(edge))


def _signed_areas(vertices, elements):
    tri = vertices[elements]
    d1 = tri[:, 1] - tri[:, 0]
    d2 = tri[:, 2] - tri[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def unit_square(n: int, tag: int = 0) -> Mesh:
    """Uniform n-by-n grid of the unit square, each cell split along the
    lower-left to upper-right diagonal; 2 n^2 congruent triangles."""
    if n < 1:
        raise ValueError("n must be positive")
    xs = np.linspace(0.0, 1.0, n + 1)
    xv, yv = np.meshgrid(xs, xs, indexing="ij")
    vertices = np.stack([xv.ravel(), yv.ravel()], axis=1)

    def vid(i, j):
        return i * (n + 1) + j

    elements = []
    for i in range(n):
        for j in range(n):
            p00, p10 = vid(i, j), vid(i + 1, j)
            p01, p11 = vid(i, j + 1), vid(i + 1, j + 1)
            elements.append((p00, p10, p11))
            elements.append((p00, p11, p01))
    elements = np.array(elements, dtype=np.int64)
    return Mesh(vertices, elements, np.full(len(elements), tag, dtype=np.int64))


def lshape(n: int, tag: int = 0) -> Mesh:
    """L-shaped domain (-1,1)^2 minus the fourth-quadrant unit square,
    reentrant corner at the origin; 6 n^2 triangles, area 3."""
    if n < 1:
        raise ValueError("n must be positive")
    m = 2 * n
    xs = np.linspace(-1.0, 1.0, m + 1)
    used = {}
    vertices = []

    def vid(i, j):
        key = (i, j)
        if key not in used:
            used[key] = len(vertices)
            vertices.append((xs[i], xs[j]))
        return used[key]

    elements = []
    for i in range(m):
        for j in range(m):
            cx = 0.5 * (xs[i] + xs[i + 1])
            cy = 0.5 * (xs[j] + xs[j + 1])
            if cx > 0.0 and cy < 0.0:
                continue
            p00, p10 = vid(i, j), vid(i + 1, j)
            p01, p11 = vid(i, j + 1), vid(i + 1, j + 1)
            elements.append((p00, p10, p11))
            elements.append((p00, p11, p01))
    elements = np.array(elements, dtype=np.int64)
    return Mesh(np.array(vertices), elements, np.full(len(elements), tag, dtype=np.int64))


def read_mesh(text: str) -> Mesh:
    """Parse the plain-text format::

        # optional comments anywhere
        nodes N
        x y          (N lines)
        elements M
        i j k [tag]  (M lines, tag defaults to 0)
    """
    lines = []
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append(stripped)
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(lines):
            raise MeshFormatError("unexpected end of mesh file")
        line = lines[pos]
        pos += 1
        return line

    head = take().split()
    if len(head) != 2 or head[0] != "nodes":
        raise MeshFormatError("expected 'nodes N' header")
    try:
        nv = int(head[1])
    except ValueError as exc:
        raise MeshFormatError("node count is not an integer") from exc
    if nv < 3:
        raise MeshFormatError("at least three nodes required")
    vertices = np.empty((nv, 2))
    for i in range(nv):
        parts = take().split()
        if len(parts) != 2:
            raise MeshFormatError(f"node line {i} must hold two coordinates")
        try:
            vertices[i] = [float(parts[0]), float(parts[1])]
        except ValueError as exc:
            raise MeshFormatError(f"bad coordinate on node line {i}") from exc

    head = take().split()
    if len(head) != 2 or head[0] != "elements":
        raise MeshFormatError("expected 'elements M' header")
    try:
        ne = int(head[1])
    except ValueError as exc:
        raise MeshFormatError("element count is not an integer") from exc
    if ne < 1:
        raise MeshFormatError("at least one element required")
    elements = np.empty((ne, 3), dtype=np.int64)
    tags = np.zeros(ne, dtype=np.int64)
    for i in range(ne):
        parts = take().split()
        if len(parts) not in (3, 4):
            raise MeshFormatError(f"element line {i} must hold 3 indices and an optional tag")
        try:
            vals = [int(p) for p in parts]
        except ValueError as exc:
            raise MeshFormatError(f"bad index on element line {i}") from exc
        elements[i] = vals[:3]
        if len(vals) == 4:
            tags[i] = vals[3]
    if pos != len(lines):
        raise MeshFormatError("trailing content after element block")
    return Mesh(vertices, elements, tags)


def write_mesh(mesh: Mesh) -> str:
    """Serialize to the plain-text format; round-trips exactly through
    read_mesh (coordinates via repr)."""
    out = [f"nodes {mesh.num_vertices}"]
    out.extend(f"{repr(float(x))} {repr(float(y))}" for x, y in mesh.vertices)
    out.append(f"elements {mesh.num_elements}")
    out.extend(
        f"{int(a)} {int(b)} {int(c)} {int(t)}"
        for (a, b, c), t in zip(mesh.elements, mesh.tags)
    )
    return "\n".join(out) + "\n"


def refine_uniform(mesh: Mesh) -> Mesh:
    """Split every triangle into four congruent children via edge midpoints.

    Original vertices keep their numbers; midpoint vertices follow in face
    order, so the refinement is deterministic.  Children inherit the tag.
    """
    nv = mesh.num_vertices
    midpoint_id = {tuple(f): nv + i for i, f in enumerate(mesh.faces)}
    mids = 0.5 * (mesh.vertices[mesh.faces[:, 0]] + mesh.vertices[mesh.faces[:, 1]])
    vertices = np.vstack([mesh.vertices, mids])

    elements = []
    tags = []
    for tri, tag in zip(mesh.elements, mesh.tags):
        v0, v1, v2 = (int(v) for v in tri)
        m01 = midpoint_id[(min(v0, v1), max(v0, v1))]
        m12 = midpoint_id[(min(v1, v2), max(v1, v2))]
        m02 = midpoint_id[(min(v0, v2), max(v0, v2))]
        elements.extend([(v0, m01, m02), (m01, v1, m12), (m02, m12, v2), (m01, m12, m02)])
        tags.extend([tag] * 4)
    return Mesh(vertices, np.array(elements, dtype=np.int64), np.array(tags, dtype=np.int64))

