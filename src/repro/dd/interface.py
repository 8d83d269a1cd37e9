"""Lagrange-multiplier gluing across subdomain interfaces.

Every free mesh node shared by several subdomains generates equality
constraints forcing the duplicated DOFs to coincide.  Two standard gluing
strategies are provided:

* ``"redundant"`` (default, what TFETI implementations such as ESPRESO use)
  — one multiplier per *pair* of subdomains sharing the node;
* ``"chain"`` — multipliers only between consecutive subdomains (a minimal,
  non-redundant set).

The builder fills ``subdomain.bt`` (the ``B_i^T`` of the paper, §2.1) and
returns the total number of multipliers.  Signs follow the convention
``+1`` on the lower-indexed subdomain, ``-1`` on the higher one.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.dd.subdomain import Subdomain
from repro.util import require

GLUING_METHODS = ("redundant", "chain")


def build_interface(
    subdomains: list[Subdomain],
    n_mesh_nodes: int,
    gluing: str = "redundant",
) -> int:
    """Create the gluing matrices ``B_i^T`` for all *subdomains* in place.

    Multipliers are numbered by ascending mesh node, then pair by pair over
    the node's sharers in list order; columns of ``B_i^T`` follow ascending
    multiplier id.  Returns the number of multipliers (rows of the global ``B``).
    """
    require(gluing in GLUING_METHODS, f"unknown gluing method {gluing!r}")

    # One (node, subdomain position, local dof) triple per free DOF, sorted
    # by node; the stable sort keeps each node's sharers in position order.
    sizes = [sub.free_nodes.size for sub in subdomains]
    node = np.concatenate([sub.free_nodes for sub in subdomains])
    order = np.argsort(node, kind="stable")
    node = node[order]
    pos = np.repeat(np.arange(len(subdomains)), sizes)[order]
    local = np.concatenate([np.arange(size) for size in sizes])[order]

    # Runs of equal nodes: a run of c sharers glues c - 1 consecutive
    # ("chain") or c (c - 1) / 2 ("redundant", lower index first) pairs;
    # multipliers are numbered node by node, pair by pair.
    start = np.flatnonzero(np.diff(node, prepend=-1))
    count = np.diff(start, append=node.size)
    n_pairs = count - 1 if gluing == "chain" else count * (count - 1) // 2
    first = np.cumsum(n_pairs) - n_pairs
    plus, minus, mult = [], [], []
    for c in np.unique(count[count >= 2]):
        if gluing == "chain":
            a, b = np.arange(c - 1), np.arange(1, c)
        else:
            a, b = np.triu_indices(c, 1)
        runs = count == c
        base = start[runs][:, None]
        plus.append((base + a).ravel())
        minus.append((base + b).ravel())
        mult.append((first[runs][:, None] + np.arange(a.size)).ravel())
    empty = np.empty(0, dtype=np.intp)  # a decomposition may glue nothing
    entry = np.concatenate([empty, *plus, *minus])
    mult = np.concatenate([empty, *mult, *mult])
    vals = np.repeat([1.0, -1.0], entry.size // 2)

    # Column j of B_i^T is the subdomain's j-th multiplier in global order.
    owner = pos[entry]
    order = np.lexsort((mult, owner))
    bounds = np.cumsum(np.bincount(owner, minlength=len(subdomains)))[:-1]
    for sub, sel in zip(subdomains, np.split(order, bounds)):
        sub.bt = sp.csc_matrix(
            (vals[sel], (local[entry[sel]], np.arange(sel.size))),
            shape=(sub.n_dofs, sel.size),
        )
        sub.multiplier_ids = mult[sel]
    return int(n_pairs.sum())


def check_gluing_consistency(
    subdomains: list[Subdomain], n_multipliers: int, tol: float = 1e-12
) -> bool:
    """Verify that ``sum_i B_i u_i == 0`` for any *continuous* field.

    Uses the global node index itself as the test field — a field that is
    single-valued per mesh node must satisfy all gluing constraints.
    """
    total = np.zeros(n_multipliers)
    for sub in subdomains:
        if sub.bt is None:
            raise ValueError("interface not built yet")
        u = sub.free_nodes.astype(np.float64)
        total[sub.multiplier_ids] += sub.bt.T @ u
    return bool(np.abs(total).max() <= tol) if n_multipliers else True


__all__ = ["build_interface", "check_gluing_consistency", "GLUING_METHODS"]
