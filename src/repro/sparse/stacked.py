"""Stacks of same-pattern sparse matrices — the batched numeric substrate.

Members of one fingerprint group of :mod:`repro.batch` share the *exact*
stored CSC pattern of their factor and gluing matrices; only the values
differ.  :class:`StackedCSC` exploits that: it keeps the pattern once
(``indptr``/``indices``) next to a ``(group, nnz)`` value stack, so block
extraction, row packing and densification become single vectorized NumPy
operations over the whole group instead of ``group`` separate SciPy calls —
the host-side analogue of the stacked device buffers a cuBLAS ``*Batched``
kernel consumes.

Everything here is packing, plus who packs with whom (:func:`plan_stacks`);
cost accounting lives with the batched kernels in :mod:`repro.gpu.kernels`.
With orientation-canonical relabeling
(:class:`repro.sparse.canonical.CanonicalRelabeling`) the members stacked
here can come from *different mirror classes* — their relabeled patterns are
bit-equal, which :meth:`StackedCSC.from_matrices` validates entry-for-entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.obs import get_tracer
from repro.sparse.canonical import UnionPlan, union_plan
from repro.util import require

#: Default fill-ratio cap of union-padded stacks: a class whose padded stack
#: would store/stream more than this multiple of its members' exact entries
#: keeps its exact stacks.  Lenient — the batched kernels densify blocks, so
#: moderate fill mostly costs zeros, while launch savings scale with the class.
DEFAULT_UNION_FILL_CAP = 8.0


def _canonical_csc(a: sp.spmatrix) -> sp.csc_matrix:
    """CSC with sorted indices and summed duplicates (copy only if needed)."""
    ac = a.tocsc()
    if not ac.has_canonical_format:
        ac = ac.copy()
        ac.sum_duplicates()
    return ac


@dataclass(frozen=True)
class StackedCSC:
    """``group`` CSC matrices with one shared pattern and stacked values.

    Attributes
    ----------
    shape:
        The (rows, cols) shape every member shares.
    indptr / indices:
        The shared CSC pattern (sorted row indices within each column).
    data:
        ``(group, nnz)`` float64 stack; ``data[g]`` are member *g*'s stored
        values in the shared pattern's entry order.
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __post_init__(self) -> None:
        require(self.data.ndim == 2, "data must be (group, nnz)")
        require(self.data.shape[1] == self.indices.shape[0], "data/pattern nnz mismatch")
        require(self.indptr.shape[0] == self.shape[1] + 1, "indptr/shape mismatch")

    @property
    def group(self) -> int:
        """Number of stacked members."""
        return int(self.data.shape[0])

    @property
    def nnz(self) -> int:
        """Stored entries of *one* member (the shared pattern's count)."""
        return int(self.indices.shape[0])

    @classmethod
    def from_matrices(cls, mats: list[sp.spmatrix]) -> "StackedCSC":
        """Stack same-pattern sparse matrices; raises if any pattern differs."""
        require(len(mats) >= 1, "need at least one matrix to stack")
        first = _canonical_csc(mats[0])
        data = np.empty((len(mats), first.nnz), dtype=np.float64)
        data[0] = first.data
        for g, m in enumerate(mats[1:], start=1):
            mc = _canonical_csc(m)
            require(mc.shape == first.shape, f"member {g}: shape differs")
            require(
                mc.nnz == first.nnz
                and np.array_equal(mc.indptr, first.indptr)
                and np.array_equal(mc.indices, first.indices),
                f"member {g}: stored pattern differs — not one fingerprint group",
            )
            data[g] = mc.data
        return cls(
            shape=first.shape,
            indptr=np.asarray(first.indptr),
            indices=np.asarray(first.indices),
            data=data,
        )

    @classmethod
    def pattern_of(cls, mat: sp.spmatrix) -> "StackedCSC":
        """The zero-member stack over *mat*'s stored pattern: what a dry run
        prices and the pattern cache keeps of a factor."""
        mc = _canonical_csc(mat)
        data = np.empty((0, mc.nnz), dtype=np.float64)
        return cls(mc.shape, np.asarray(mc.indptr), np.asarray(mc.indices), data)

    def entry_columns(self) -> np.ndarray:
        """Column index of every stored entry (CSC expansion of ``indptr``)."""
        return np.repeat(np.arange(self.shape[1], dtype=np.intp), np.diff(self.indptr))

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "StackedCSC":
        """``A[r0:r1, c0:c1]`` of every member in one pattern-driven gather."""
        require(0 <= r0 <= r1 <= self.shape[0], "row range out of bounds")
        require(0 <= c0 <= c1 <= self.shape[1], "column range out of bounds")
        start, end = int(self.indptr[c0]), int(self.indptr[c1])
        rows = self.indices[start:end]
        sel = np.flatnonzero((rows >= r0) & (rows < r1))
        # Kept entries before each old column start are the new column starts.
        indptr = np.searchsorted(sel, self.indptr[c0 : c1 + 1] - start)
        return StackedCSC(
            shape=(r1 - r0, c1 - c0),
            indptr=indptr.astype(self.indptr.dtype),
            indices=rows[sel] - r0,
            data=self.data[:, sel + start],
        )

    def nonempty_rows(self) -> np.ndarray:
        """Rows with at least one stored entry (shared across the group)."""
        return np.unique(self.indices).astype(np.intp)

    def toarray(self, rows: np.ndarray | None = None) -> np.ndarray:
        """Densify every member into a ``(group, rows, cols)`` stack.

        With *rows* (sorted local row indices that must cover every stored
        row), the result is the *packed* ``(group, len(rows), cols)`` stack —
        the pruning gather that feeds the batched GEMM.
        """
        cols = self.entry_columns()
        if rows is None:
            out = np.zeros((self.group, self.shape[0], self.shape[1]))
            out[:, self.indices, cols] = self.data
            return out
        rank = np.full(self.shape[0], -1, dtype=np.intp)
        rank[rows] = np.arange(rows.size, dtype=np.intp)
        local = rank[self.indices]
        require(bool(np.all(local >= 0)), "rows must cover every stored entry")
        out = np.zeros((self.group, rows.size, self.shape[1]))
        out[:, local, cols] = self.data
        return out

    def member(self, g: int) -> sp.csc_matrix:
        """Member *g* as an ordinary CSC matrix — a zero-copy view of the
        stack's pattern and value row (what the per-matrix library routines
        of a stack of one consume)."""
        require(0 <= g < self.group, "member index out of range")
        return sp.csc_matrix(
            (self.data[g], self.indices, self.indptr), shape=self.shape
        )


def stack_into_union(
    mats: list[sp.spmatrix], union, pad_diagonal: bool = False
) -> StackedCSC:
    """Pack different-pattern members into one :class:`StackedCSC` over a
    shared union pattern (:class:`repro.sparse.canonical.PatternUnion`).

    The value-tolerant counterpart of :meth:`StackedCSC.from_matrices`:
    member *g*'s stored values scatter to ``union.scatters[g]``, every
    union position the member does not store stays an explicit ``0.0``.
    With *pad_diagonal* the diagonal entries at rows beyond the member's
    own order are set to ``1.0`` — the identity block that keeps the padded
    triangular factor ``[[L, 0], [0, I]]`` nonsingular for the batched
    solves while contributing nothing to the leading Schur block.
    """
    require(len(mats) == union.group, "one member per union scatter map")
    data = np.zeros((len(mats), union.nnz), dtype=np.float64)
    for g, m in enumerate(mats):
        mc = _canonical_csc(m)
        require(
            tuple(mc.shape) == union.member_shapes[g],
            f"member {g}: shape differs from the union plan",
        )
        require(
            mc.nnz == union.scatters[g].size,
            f"member {g}: stored pattern differs from the union plan",
        )
        data[g, union.scatters[g]] = mc.data
    if pad_diagonal:
        diag_pos = np.flatnonzero(union.indices == union.entry_columns())
        diag_rows = union.indices[diag_pos]
        for g in range(len(mats)):
            n_g = union.member_shapes[g][0]
            pad = diag_pos[diag_rows >= n_g]
            # Only overwrite true padding zeros: a member never stores rows
            # at or beyond its own order, so these positions are untouched.
            data[g, pad] = 1.0
    return StackedCSC(
        shape=union.shape,
        indptr=np.asarray(union.indptr),
        indices=np.asarray(union.indices),
        data=data,
    )


@dataclass(frozen=True)
class Stack:
    """One launch unit of a stacking plan: *members* go through the kernel
    chain together under *key* — padded into the union *plan* when one is
    set, and alone through the per-member call when not *stacked*."""

    key: str
    members: tuple[int, ...]
    plan: UnionPlan | None = None
    stacked: bool = True


def plan_stacks(
    exact_keys: list[str],
    l_mats: list[sp.spmatrix],
    bt_mats: list[sp.spmatrix],
    class_keys: list[str | None] | None = None,
    fill_cap: float = float("inf"),
    stack_exact=lambda key, members: True,
) -> tuple[list[Stack], dict[str, float]]:
    """Decide which members share a stack — the one grouping policy behind
    the batch engine's ``execution=`` modes and the grouped dual operator's
    implicit path.

    A class (members of one *class_keys* value; ``None`` = no class) that
    spans at least two exact keys pads into its
    :func:`~repro.sparse.canonical.union_plan` over *l_mats* / *bt_mats*
    when ``fill_ratio <= fill_cap``.  Every other member stacks with the
    remaining members of its exact key when ``stack_exact(key, members)``
    says so and runs singly (a ``stacked=False`` stack of one) otherwise.
    Returns the stacks ordered by first member, and the fill ratio of every
    class that was considered for padding, kept or not.
    """
    classes: dict[str, list[int]] = {}
    for i, ck in enumerate(class_keys or ()):
        if ck is not None:
            classes.setdefault(ck, []).append(i)
    stacks, fill_ratios, padded = [], {}, set()
    for ck, members in classes.items():
        if len({exact_keys[i] for i in members}) < 2:
            continue  # one exact pattern: the exact stack already batches it
        with get_tracer().span("batch.union_pad", group=ck[:16], n_members=len(members)):
            plan = union_plan([l_mats[i] for i in members], [bt_mats[i] for i in members])
        fill_ratios[ck] = plan.fill_ratio
        if plan.fill_ratio <= fill_cap:
            stacks.append(Stack(ck, tuple(members), plan))
            padded.update(members)
    exact: dict[str, list[int]] = {}
    for i, key in enumerate(exact_keys):
        if i not in padded:
            exact.setdefault(key, []).append(i)
    for key, members in exact.items():
        if stack_exact(key, members):
            stacks.append(Stack(key, tuple(members)))
        else:
            stacks.extend(Stack(key, (i,), stacked=False) for i in members)
    return sorted(stacks, key=lambda s: s.members[0]), fill_ratios


def stack_union_permuted_dense(
    mats: list[sp.spmatrix], union, col_perm: np.ndarray
) -> np.ndarray:
    """Column-permute and densify different-pattern RHS members into the
    ``(group, n, m)`` stack of a union pattern.

    The :func:`stack_permuted_dense` analogue for the padded path: members
    embed at the identity prefix of ``union.shape`` (member entry ``(i, j)``
    lands at dense ``(i, inverse_perm[j])``), rows and columns beyond a
    member's own shape stay zero — the ``[[X], [0]]`` padding whose TRSM/
    SYRK images are structural zeros.
    """
    n, m = union.shape
    col_perm = np.asarray(col_perm, dtype=np.intp)
    require(col_perm.shape == (m,), "col_perm length must match union column count")
    inverse = np.empty(m, dtype=np.intp)
    inverse[col_perm] = np.arange(m, dtype=np.intp)
    out = np.zeros((len(mats), n, m))
    for g, mat in enumerate(mats):
        mc = _canonical_csc(mat)
        require(
            mc.shape[0] <= n and mc.shape[1] <= m,
            f"member {g}: shape exceeds the union shape",
        )
        cols = np.repeat(
            np.arange(mc.shape[1], dtype=np.intp), np.diff(mc.indptr)
        )
        out[g, mc.indices, inverse[cols]] = mc.data
    return out


def stack_permuted_dense(
    bt_rows: list[sp.spmatrix], col_perm: np.ndarray
) -> np.ndarray:
    """Column-permute and densify a group of same-pattern RHS matrices.

    The batched equivalent of the per-member ``bt_rows[:, col_perm].toarray()``
    stepped-shape step of :meth:`repro.core.assembler.SchurAssembler.assemble`:
    one scatter over the shared pattern fills the whole ``(group, n, m)``
    stack.  Raises if the members' stored patterns differ.
    """
    stacked = StackedCSC.from_matrices(bt_rows)
    n, m = stacked.shape
    col_perm = np.asarray(col_perm, dtype=np.intp)
    require(col_perm.shape == (m,), "col_perm length must match column count")
    inverse = np.empty(m, dtype=np.intp)
    inverse[col_perm] = np.arange(m, dtype=np.intp)
    out = np.zeros((stacked.group, n, m))
    out[:, stacked.indices, inverse[stacked.entry_columns()]] = stacked.data
    return out


__all__ = [
    "DEFAULT_UNION_FILL_CAP",
    "Stack",
    "StackedCSC",
    "plan_stacks",
    "stack_into_union",
    "stack_permuted_dense",
    "stack_union_permuted_dense",
]
