"""Unstructured-mesh zoo: jittered, irregularly-split and non-rectangular.

Every workload before this module was the unit box, uniformly triangulated
and partitioned into congruent boxes — the easiest possible case for the
batch cache, because grouping is free.  The paper's setting is general
decompositions produced by graph partitioners over arbitrary meshes, so
these generators open that regime while staying pure NumPy:

* :func:`jittered_square_mesh` — the unit square with randomly perturbed
  interior nodes and a randomly chosen diagonal per cell (an
  "irregularly-split" simplicial mesh).  No two subdomains of a partition
  are exact translates, so exact fingerprints stop collapsing and only the
  rotation-invariant *pricing* signatures of :mod:`repro.sparse.canonical`
  group anything.
* :func:`lshape_mesh` — the unit square minus its upper-right quadrant
  (the classic re-entrant corner domain).
* :func:`strip_with_holes_mesh` — an elongated strip with square holes
  punched out, the "perforated" domain graph partitioners are built for.

All generators return the ordinary :class:`repro.fem.mesh.Mesh`, so the
whole FEM / dd / batch pipeline downstream is unchanged; boundary groups
are recomputed geometrically (``left``/``right``/``bottom``/``top``) plus
one ``"boundary"`` group holding every node on a free facet — use it for
Dirichlet conditions on domains whose boundary is not four straight sides.
:data:`MESH_ZOO` / :func:`make_mesh` name the generators for the CLI
(``python -m repro batch --mesh ...``; see ``docs/unstructured.md``).
"""

from __future__ import annotations

import numpy as np

from repro.fem.mesh import Mesh, unit_cube_mesh, unit_square_mesh
from repro.util import require


def _signed_areas(coords: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Signed area of every triangle (positive = counter-clockwise)."""
    a, b, c = (coords[elements[:, k]] for k in range(3))
    return 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                  - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))


def element_facets(elements: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All facets of every simplex, with their owning element indices.

    A facet is an element with one vertex dropped, nodes sorted; the same
    construction serves triangles (edges) and tetrahedra (faces).  Returns
    ``(facets, owners)`` where row *i* of ``facets`` belongs to element
    ``owners[i]`` — interior facets appear twice, boundary facets once.
    """
    elements = np.asarray(elements)
    ne, nv = elements.shape
    facets = np.vstack([
        np.sort(np.delete(elements, k, axis=1), axis=1) for k in range(nv)
    ])
    owners = np.tile(np.arange(ne, dtype=np.intp), nv)
    return facets, owners


def facet_keys(facets: np.ndarray) -> np.ndarray:
    """One int64 key per sorted facet row, ordered like the rows themselves.

    The key is the row's index in a C-ordered ``n_nodes ** k`` array, so
    comparing keys compares rows lexicographically and a 1-D sort or
    ``np.unique`` replaces the row-wise one.  Raises :class:`ValueError`
    when ``n_nodes ** k`` exceeds the int64 range (about 2.1 M nodes for
    tetrahedral faces) instead of wrapping a key.
    """
    facets = np.asarray(facets)
    span = int(facets.max()) + 1 if facets.size else 1
    require(
        span ** facets.shape[1] <= np.iinfo(np.int64).max,
        f"{span} nodes ** {facets.shape[1]} facet nodes overflows an int64 facet key",
    )
    return np.ravel_multi_index(facets.T, (span,) * facets.shape[1])


def boundary_nodes_from_elements(elements: np.ndarray) -> np.ndarray:
    """Sorted nodes lying on a free facet (one appearing in exactly one cell)."""
    facets, _ = element_facets(elements)
    _, first, counts = np.unique(
        facet_keys(facets), return_index=True, return_counts=True
    )
    return np.unique(facets[first[counts == 1]]).astype(np.intp)


def _rebuild_groups(coords: np.ndarray, elements: np.ndarray) -> dict[str, np.ndarray]:
    """Geometric side groups + the facet-derived ``"boundary"`` group."""
    boundary = boundary_nodes_from_elements(elements)
    on_boundary = np.zeros(coords.shape[0], dtype=bool)
    on_boundary[boundary] = True
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    span = float(np.max(hi - lo))
    tol = 1e-9 * max(span, 1.0)
    groups = {
        "left": np.flatnonzero(on_boundary & (coords[:, 0] <= lo[0] + tol)),
        "right": np.flatnonzero(on_boundary & (coords[:, 0] >= hi[0] - tol)),
        "bottom": np.flatnonzero(on_boundary & (coords[:, 1] <= lo[1] + tol)),
        "top": np.flatnonzero(on_boundary & (coords[:, 1] >= hi[1] - tol)),
        "boundary": boundary,
    }
    return {name: nodes.astype(np.intp) for name, nodes in groups.items()}


def submesh(mesh: Mesh, keep_elements: np.ndarray) -> Mesh:
    """The mesh restricted to *keep_elements*, nodes compacted and boundary
    groups rebuilt from the surviving facets."""
    keep_elements = np.asarray(keep_elements, dtype=np.intp)
    require(keep_elements.size >= 1, "submesh needs at least one element")
    elements = mesh.elements[keep_elements]
    nodes = np.unique(elements)
    remap = np.full(mesh.n_nodes, -1, dtype=np.intp)
    remap[nodes] = np.arange(nodes.size, dtype=np.intp)
    coords = mesh.coords[nodes]
    elements = remap[elements]
    return Mesh(
        coords=coords,
        elements=elements,
        dim=mesh.dim,
        grid_shape=mesh.grid_shape,
        boundary_groups=_rebuild_groups(coords, elements) if mesh.dim == 2 else {
            "boundary": boundary_nodes_from_elements(elements)
        },
    )


def jittered_square_mesh(
    nx: int,
    ny: int | None = None,
    jitter: float = 0.25,
    seed: int = 0,
) -> Mesh:
    """Irregular triangulation of the unit square.

    Starts from :func:`repro.fem.mesh.unit_square_mesh`, then

    * moves every *interior* node by a uniform random offset of up to
      ``jitter/2`` cell widths per axis (boundary nodes stay put, so the
      domain is still the exact unit square), and
    * splits each cell along a randomly chosen diagonal instead of always
      the same one.

    Both draws come from one seeded generator, so the mesh is a pure
    function of ``(nx, ny, jitter, seed)``.  *jitter* is capped at 0.45 —
    beyond that neighbouring nodes could cross and invert a triangle; the
    generator additionally verifies every signed area stays positive.
    """
    require(nx >= 1, "nx must be >= 1")
    ny = nx if ny is None else ny
    require(ny >= 1, "ny must be >= 1")
    require(0.0 <= jitter <= 0.45, "jitter must be in [0, 0.45]")
    base = unit_square_mesh(nx, ny)
    mx, my = base.grid_shape
    rng = np.random.default_rng(seed)

    coords = base.coords.copy()
    node_ix = np.arange(mx * my) // my
    node_iy = np.arange(mx * my) % my
    interior = (node_ix > 0) & (node_ix < nx) & (node_iy > 0) & (node_iy < ny)
    h = np.array([1.0 / nx, 1.0 / ny])
    coords[interior] += rng.uniform(-0.5, 0.5, (int(interior.sum()), 2)) * jitter * h

    ix, iy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    n00 = (ix * my + iy).ravel()
    n10 = ((ix + 1) * my + iy).ravel()
    n01 = (ix * my + iy + 1).ravel()
    n11 = ((ix + 1) * my + iy + 1).ravel()
    main_diagonal = rng.random(n00.size) < 0.5
    # Diagonal n00–n11 (the structured default) or n10–n01; both splits are
    # counter-clockwise, so orientation is uniform across the mesh.
    lower = np.where(
        main_diagonal[:, None],
        np.column_stack([n00, n10, n11]),
        np.column_stack([n00, n10, n01]),
    )
    upper = np.where(
        main_diagonal[:, None],
        np.column_stack([n00, n11, n01]),
        np.column_stack([n10, n11, n01]),
    )
    elements = np.vstack([lower, upper]).astype(np.intp)
    require(
        bool(_signed_areas(coords, elements).min() > 0.0),
        "jitter inverted a triangle; lower the jitter amplitude",
    )
    return Mesh(
        coords=coords,
        elements=elements,
        dim=2,
        grid_shape=(mx, my),
        boundary_groups=_rebuild_groups(coords, elements),
    )


def lshape_mesh(nx: int, ny: int | None = None) -> Mesh:
    """The unit square minus its upper-right quadrant (re-entrant corner).

    *nx*/*ny* are the cell counts of the generating square grid and must be
    even so the cut falls on mesh lines.
    """
    require(nx >= 2 and nx % 2 == 0, "nx must be even and >= 2")
    ny = nx if ny is None else ny
    require(ny >= 2 and ny % 2 == 0, "ny must be even and >= 2")
    base = unit_square_mesh(nx, ny)
    centroids = base.coords[base.elements].mean(axis=1)
    keep = np.flatnonzero(~((centroids[:, 0] > 0.5) & (centroids[:, 1] > 0.5)))
    return submesh(base, keep)


def strip_with_holes_mesh(
    ny: int,
    length: float = 3.0,
    holes: int = 2,
    hole_size: float = 0.5,
) -> Mesh:
    """An elongated strip ``[0, length] x [0, 1]`` with square holes.

    *ny* cells across the strip height (cells are kept square, so there are
    ``round(length * ny)`` cells along the strip); *holes* square holes of
    side *hole_size* are punched out at mid-height, evenly spaced along the
    length.  At least one full cell row must survive above and below each
    hole (``hole_size <= 1 - 2/ny``) so the mesh stays connected; the
    generator verifies connectivity of the result either way.
    """
    require(ny >= 4, "ny must be >= 4")
    require(length >= 1.0, "length must be >= 1")
    require(holes >= 0, "holes must be >= 0")
    require(
        0.0 < hole_size <= 1.0 - 2.0 / ny,
        f"hole_size must be in (0, 1 - 2/ny] = (0, {1.0 - 2.0 / ny:.3f}] so a "
        "cell row survives above and below each hole; raise ny or shrink the hole",
    )
    nx = int(round(length * ny))
    base = unit_square_mesh(nx, ny)
    coords = base.coords.copy()
    coords[:, 0] *= length
    stretched = Mesh(
        coords=coords,
        elements=base.elements,
        dim=2,
        grid_shape=base.grid_shape,
        boundary_groups=base.boundary_groups,
    )
    centroids = coords[base.elements].mean(axis=1)
    inside = np.zeros(base.n_elements, dtype=bool)
    half = hole_size / 2.0
    for k in range(holes):
        xc = (k + 1) * length / (holes + 1)
        inside |= (np.abs(centroids[:, 0] - xc) < half) & (
            np.abs(centroids[:, 1] - 0.5) < half
        )
    out = submesh(stretched, np.flatnonzero(~inside))
    from repro.part.partitioner import element_dual_graph
    from scipy.sparse.csgraph import connected_components

    n_comp, _ = connected_components(element_dual_graph(out), directed=False)
    require(
        n_comp == 1,
        f"strip mesh fell apart into {n_comp} components; "
        "use fewer/smaller holes or a finer ny",
    )
    return out


#: Named generators for the CLI mesh zoo.  Each entry maps the ``--mesh``
#: name to ``(dim, builder)`` where the builder takes ``(cells, seed)``.
#: *cells* is passed through unaltered, so each generator's own validation
#: applies (``lshape`` needs even cells, ``strip`` needs at least 4); only
#: ``jittered`` consumes the seed — the other meshes are deterministic.
MESH_ZOO = {
    "square": (2, lambda cells, seed: unit_square_mesh(cells)),
    "cube": (3, lambda cells, seed: unit_cube_mesh(cells)),
    "jittered": (2, lambda cells, seed: jittered_square_mesh(cells, seed=seed)),
    "lshape": (2, lambda cells, seed: lshape_mesh(cells)),
    "strip": (2, lambda cells, seed: strip_with_holes_mesh(cells)),
}


def make_mesh(name: str, cells: int, seed: int = 0) -> Mesh:
    """Build one mesh-zoo entry by name (see :data:`MESH_ZOO`)."""
    require(name in MESH_ZOO, f"unknown mesh {name!r}; available: {sorted(MESH_ZOO)}")
    _, builder = MESH_ZOO[name]
    return builder(cells, seed)


__all__ = [
    "MESH_ZOO",
    "boundary_nodes_from_elements",
    "element_facets",
    "facet_keys",
    "jittered_square_mesh",
    "lshape_mesh",
    "make_mesh",
    "strip_with_holes_mesh",
    "submesh",
]
