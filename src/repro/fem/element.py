"""P1 (linear simplex) element matrices, vectorized over all elements.

For a simplex with vertices ``x_0..x_d`` the P1 stiffness matrix is
``K_e = |T| * G G^T`` where row *i* of ``G`` is the (constant) gradient of
the *i*-th barycentric basis function and ``|T|`` the simplex measure.
"""

from __future__ import annotations

import numpy as np

from repro.util import require


def p1_gradients(coords: np.ndarray, elements: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients and measures of all P1 simplices at once.

    Returns
    -------
    grads:
        ``(n_el, d+1, d)`` basis-function gradients.
    measures:
        ``(n_el,)`` element areas/volumes (positive).
    """
    coords = np.asarray(coords, dtype=np.float64)
    elements = np.asarray(elements)
    d = coords.shape[1]
    require(elements.shape[1] == d + 1, "elements must be simplices of the mesh dim")
    verts = coords[elements]  # (n_el, d+1, d)
    # Edge matrix J: columns x_i - x_0, shape (n_el, d, d).
    j = np.swapaxes(verts[:, 1:, :] - verts[:, :1, :], 1, 2)
    det = np.linalg.det(j)
    require(bool(np.all(np.abs(det) > 1e-300)), "degenerate element encountered")
    jinv = np.linalg.inv(j)  # (n_el, d, d)
    # Barycentric coordinates satisfy (lambda_1..lambda_d)^T = J^{-1} (x - x_0),
    # so grad lambda_i is the i-th *row* of J^{-1}; grad lambda_0 is minus
    # their sum.
    grads_rest = jinv  # (n_el, d, d): row i = grad lambda_{i+1}
    grad0 = -grads_rest.sum(axis=1, keepdims=True)
    grads = np.concatenate([grad0, grads_rest], axis=1)  # (n_el, d+1, d)
    factorial = {1: 1.0, 2: 2.0, 3: 6.0}[d]
    measures = np.abs(det) / factorial
    return grads, measures


def _stiffness(
    grads: np.ndarray, measures: np.ndarray, conductivity: float | np.ndarray
) -> np.ndarray:
    kappa = np.broadcast_to(
        np.asarray(conductivity, dtype=np.float64), measures.shape
    )
    scale = (measures * kappa)[:, None, None]
    return scale * np.einsum("eid,ejd->eij", grads, grads)


def _load(measures: np.ndarray, source: float | np.ndarray, d1: int) -> np.ndarray:
    src = np.broadcast_to(np.asarray(source, dtype=np.float64), measures.shape)
    return np.repeat((src * measures / d1)[:, None], d1, axis=1)


def p1_stiffness(
    coords: np.ndarray,
    elements: np.ndarray,
    conductivity: float | np.ndarray = 1.0,
) -> np.ndarray:
    """Local stiffness matrices ``(n_el, d+1, d+1)`` for scalar diffusion.

    *conductivity* may be a scalar or a per-element array.
    """
    grads, measures = p1_gradients(coords, elements)
    return _stiffness(grads, measures, conductivity)


def p1_load(
    coords: np.ndarray,
    elements: np.ndarray,
    source: float | np.ndarray = 1.0,
) -> np.ndarray:
    """Local load vectors ``(n_el, d+1)`` for a (per-element) constant source:
    each vertex receives ``source * |T| / (d+1)``."""
    _, measures = p1_gradients(coords, elements)
    return _load(measures, source, elements.shape[1])


def p1_element_matrices(
    coords: np.ndarray,
    elements: np.ndarray,
    conductivity: float | np.ndarray,
    source: float | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``(ke, fe)`` — :func:`p1_stiffness` and :func:`p1_load` of the same
    elements from one :func:`p1_gradients` pass (bit-equal to both)."""
    grads, measures = p1_gradients(coords, elements)
    return _stiffness(grads, measures, conductivity), _load(measures, source, elements.shape[1])


__all__ = ["p1_gradients", "p1_stiffness", "p1_load", "p1_element_matrices"]
