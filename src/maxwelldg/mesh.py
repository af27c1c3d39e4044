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
    "nested_dissection",
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
        # Both geometric checks are relative to the bounding box, so a mesh
        # in any unit passes or fails alike.
        span = vertices - vertices.min(axis=0) if len(vertices) else vertices
        extent = float(span.max(initial=0.0)) or 1.0
        dedup = np.unique(np.round(span / extent, 12), axis=0)
        if len(dedup) != len(vertices):
            raise MeshFormatError("duplicate vertices")

        # Normalize orientation, then reject elements that stay degenerate.
        areas = _signed_areas(vertices, elements)
        flip = areas < 0
        elements = elements.copy()
        elements[flip] = elements[flip][:, [0, 2, 1]]
        areas = np.abs(areas)
        if np.any(areas <= 1e-14 * extent ** 2):
            raise MeshFormatError("degenerate element (zero area)")

        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "tags", tags)
        self._build_faces()
        self._check_hanging_vertices()

    def _build_faces(self):
        elements = self.elements
        ne, nv = len(elements), len(self.vertices)
        # Local face k is opposite local vertex k; slot 3 e + k holds the
        # sorted vertex pair (a, b) of local face k of element e, as the key
        # a nv + b, which orders the pairs lexicographically.
        pairs = np.sort(elements[:, [[1, 2], [0, 2], [0, 1]]], axis=2)
        keys, slot_face = np.unique((pairs[..., 0] * nv + pairs[..., 1]).ravel(),
                                    return_inverse=True)
        faces = np.stack(np.divmod(keys, nv), axis=1)
        nf = len(faces)
        element_faces = slot_face.reshape(ne, 3)
        # slots grouped by face, each group in increasing (element, k)
        slots = np.argsort(slot_face, kind="stable")
        count = np.bincount(slot_face, minlength=nf)
        if np.any(count > 2):
            raise MeshFormatError("face shared by more than two elements")
        first = np.cumsum(count) - count
        face_elements = np.full((nf, 2), -1, dtype=np.int64)
        face_elements[:, 0] = slots[first] // 3
        shared = count == 2
        face_elements[shared, 1] = slots[first[shared] + 1] // 3

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

    def dissection(self, leaf: int):
        """Nested-dissection order of the elements, parts of at most leaf
        elements left whole, and its runs: the elements at positions
        bounds[j] to bounds[j + 1] - 1 of the order are one separator or
        one part left whole, and no run is empty."""
        centroids = self.vertices[self.elements].mean(axis=1)
        order, cuts = nested_dissection(
            centroids, self.face_elements[~self.boundary], leaf)
        start, first, second, _ = cuts.T
        bounds = np.unique(np.concatenate([[0, len(order)], start + first,
                                           start + first + second]))
        return order, bounds

    def mesh_size(self) -> float:
        """Largest element diameter (longest edge over all elements)."""
        tri = self.vertices[self.elements]
        edges = tri - np.roll(tri, 1, axis=1)
        return float(np.linalg.norm(edges, axis=2).max())


def nested_dissection(points: np.ndarray, pairs: np.ndarray, leaf: int):
    """Nested-dissection order of the nodes of a graph with coordinates.

    points is (n, 2), pairs an (m, 2) array of the node pairs that are
    joined.  Each part is cut at its median along the longer side of its
    bounding box; the nodes of the first half joined to the second half
    form the separator, which is numbered after both halves.  Parts of at
    most leaf nodes stay whole.  The parts of one level are cut
    together, with one stable sort on (part, coordinate).

    Returns the order (node indices, first eliminated first) and the cuts,
    an array of rows (start, first, second, separator): the part beginning
    at position start holds its first half, then its second half, then
    its separator, of these sizes.
    """
    n = len(points)
    x, y = np.array(points, dtype=float).T.copy()
    u, v = np.array(pairs, dtype=np.int64).reshape(-1, 2).T.copy()
    position = np.empty(n, dtype=np.int64)
    slot = np.empty(n, dtype=np.int64)
    cuts = [np.zeros((0, 4), dtype=np.int64)]
    active = np.arange(n)                   # nodes of open parts
    part = np.zeros(n, dtype=np.int64)      # their part, nondecreasing
    start = np.zeros(1, dtype=np.int64)     # first position of each part
    while True:
        new = np.ones(active.size, dtype=bool)
        new[1:] = part[1:] != part[:-1]
        start = start[part[new]]
        part = np.cumsum(new) - 1
        size = np.bincount(part, minlength=len(start))
        first = np.cumsum(size) - size
        rank = np.arange(active.size) - first[part]
        done = (size <= leaf)[part]
        position[active[done]] = start[part[done]] + rank[done]
        if done.all():
            break
        if done.any():
            active, part = active[~done], part[~done]
            continue
        # sort each part along the longer side of its bounding box
        xs, ys = x[active], y[active]
        wide = (np.maximum.reduceat(xs, first) - np.minimum.reduceat(xs, first)
                >= np.maximum.reduceat(ys, first)
                - np.minimum.reduceat(ys, first))
        active = active[np.lexsort((np.where(wide[part], xs, ys), part))]
        second = rank >= (size // 2)[part]
        # the separator: first-half nodes joined to the second half; pairs
        # that leave their part never join two nodes of one part again
        slot.fill(-1)
        slot[active] = np.arange(active.size)
        a, b = slot[u], slot[v]
        inside = (a >= 0) & (b >= 0)
        inside &= part[a] == part[b]
        u, v, a, b = u[inside], v[inside], a[inside], b[inside]
        across = second[a] != second[b]
        separator = np.zeros(active.size, dtype=bool)
        separator[np.where(second[a], b, a)[across]] = True
        n_sep = np.bincount(part[separator], minlength=len(size))
        n_second = size - size // 2
        n_first = size // 2 - n_sep
        picked = np.flatnonzero(separator)
        at = part[picked]
        position[active[picked]] = (start + n_first + n_second)[at] + (
            np.arange(picked.size) - (np.cumsum(n_sep) - n_sep)[at])
        cuts.append(np.stack([start, n_first, n_second, n_sep], axis=1))
        active = active[~separator]
        part = (2 * part + second)[~separator]
        start = np.stack([start, start + n_first], axis=1).ravel()
    order = np.empty(n, dtype=np.int64)
    order[position] = np.arange(n)
    return order, np.concatenate(cuts)


def _signed_areas(vertices, elements):
    tri = vertices[elements]
    d1 = tri[:, 1] - tri[:, 0]
    d2 = tri[:, 2] - tri[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def _grid_cells(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    """Corners (i, j), (i+1, j), (i, j+1), (i+1, j+1) of the grid cells
    (i, j) of an (n+1) x (n+1) vertex grid numbered i (n+1) + j, shape
    (cells, 4)."""
    return (i * (n + 1) + j)[:, None] + np.array([0, n + 1, 1, n + 2])


def _split_cells(corners: np.ndarray) -> np.ndarray:
    """Two counterclockwise triangles per cell, split along the lower-left
    to upper-right diagonal, shape (2 cells, 3)."""
    return corners[:, [0, 1, 3, 0, 3, 2]].reshape(-1, 3)


def unit_square(n: int) -> Mesh:
    """Uniform n-by-n grid of the unit square, each cell split along the
    lower-left to upper-right diagonal; 2 n^2 congruent triangles."""
    if n < 1:
        raise ValueError("n must be positive")
    xs = np.linspace(0.0, 1.0, n + 1)
    xv, yv = np.meshgrid(xs, xs, indexing="ij")
    vertices = np.stack([xv.ravel(), yv.ravel()], axis=1)
    i, j = np.divmod(np.arange(n * n), n)
    elements = _split_cells(_grid_cells(i, j, n))
    return Mesh(vertices, elements, np.zeros(len(elements), dtype=np.int64))


def lshape(n: int) -> Mesh:
    """L-shaped domain (-1,1)^2 minus the fourth-quadrant unit square,
    reentrant corner at the origin; 6 n^2 triangles, area 3.  Vertices are
    numbered in order of first use by the cells, corner by corner."""
    if n < 1:
        raise ValueError("n must be positive")
    m = 2 * n
    xs = np.linspace(-1.0, 1.0, m + 1)
    mid = 0.5 * (xs[:-1] + xs[1:])
    i, j = np.divmod(np.arange(m * m), m)
    keep = ~((mid[i] > 0.0) & (mid[j] < 0.0))
    corners = _grid_cells(i[keep], j[keep], m)
    grid_ids, first = np.unique(corners, return_index=True)
    used = grid_ids[np.argsort(first)]
    number = np.empty((m + 1) ** 2, dtype=np.int64)
    number[used] = np.arange(len(used))
    vertices = np.stack([xs[used // (m + 1)], xs[used % (m + 1)]], axis=1)
    elements = number[_split_cells(corners)]
    return Mesh(vertices, elements, np.zeros(len(elements), dtype=np.int64))


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

    def check_left(count: int, what: str):
        # before allocating: a declared count past the file's end
        if count > len(lines) - pos:
            raise MeshFormatError(
                f"unexpected end of mesh file: {count} {what} lines "
                f"declared, only {len(lines) - pos} left")

    head = take().split()
    if len(head) != 2 or head[0] != "nodes":
        raise MeshFormatError("expected 'nodes N' header")
    try:
        nv = int(head[1])
    except ValueError as exc:
        raise MeshFormatError("node count is not an integer") from exc
    if nv < 3:
        raise MeshFormatError("at least three nodes required")
    check_left(nv, "node")
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
    check_left(ne, "element")
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
    mids = 0.5 * (mesh.vertices[mesh.faces[:, 0]] + mesh.vertices[mesh.faces[:, 1]])
    vertices = np.vstack([mesh.vertices, mids])

    v0, v1, v2 = mesh.elements.T
    # the midpoint of local face k, which is opposite local vertex k
    m12, m02, m01 = (nv + mesh.element_faces).T
    children = np.stack([v0, m01, m02, m01, v1, m12, m02, m12, v2,
                         m01, m12, m02], axis=1)
    return Mesh(vertices, children.reshape(-1, 3), np.repeat(mesh.tags, 4))
