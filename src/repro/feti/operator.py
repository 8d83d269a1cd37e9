"""The FETI dual operator ``F = B K^+ B^T`` and its building blocks (§2.1).

Per subdomain, the *local dual operator* ``F̃_i = B̃_i K_i^+ B̃_i^T`` (eq. 9)
can be applied *implicitly* (two triangular solves per application, eq. 11)
or *explicitly* (one dense GEMV against the preassembled ``F̃_i``, eq. 12).
The global operator combines the local ones additively through the
decomposition's gather/scatter.

This module also assembles the coarse quantities ``G = BR``, ``e = R^T f``
and ``d = B K^+ f`` used by the projected CG.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.dd.decomposition import Decomposition
from repro.dd.subdomain import Subdomain
from repro.obs import get_tracer
from repro.sparse.cholesky import CholeskyFactor, cholesky
from repro.sparse.ordering import compute_ordering
from repro.sparse.stacked import (
    DEFAULT_UNION_FILL_CAP,
    StackedCSC,
    plan_stacks,
    stack_into_union,
)
from repro.util import require


class LocalDualOperator:
    """Interface: apply ``F̃_i`` to a local dual vector."""

    def apply(self, lam_local: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def solve_kplus(self, rhs: np.ndarray) -> np.ndarray:  # pragma: no cover
        """Apply the generalized inverse ``K_i^+`` to a primal vector."""
        raise NotImplementedError


@dataclass
class ImplicitLocalOperator(LocalDualOperator):
    """Implicit application (eq. 11): SPMV, two TRSVs, SPMV."""

    factor: CholeskyFactor
    bt: sp.csc_matrix

    def apply(self, lam_local: np.ndarray) -> np.ndarray:
        t = self.bt @ lam_local
        t = self.factor.solve(t)
        return self.bt.T @ t

    def solve_kplus(self, rhs: np.ndarray) -> np.ndarray:
        return self.factor.solve(rhs)


@dataclass
class ExplicitLocalOperator(LocalDualOperator):
    """Explicit application (eq. 12): one dense GEMV with preassembled F̃."""

    f: np.ndarray
    factor: CholeskyFactor  # still needed for K^+ in the solution recovery

    def apply(self, lam_local: np.ndarray) -> np.ndarray:
        return self.f @ lam_local

    def solve_kplus(self, rhs: np.ndarray) -> np.ndarray:
        return self.factor.solve(rhs)


def factorize_subdomain(
    sub: Subdomain,
    ordering: str = "nd",
    engine: str = "superlu",
    conform: bool = True,
    relabeling=None,
    reuse=None,
) -> CholeskyFactor:
    """Factorize the (regularized) subdomain matrix with coordinates-aware
    nested dissection — the per-subdomain numerical factorization of §2.2.

    *conform* (default) pads the stored factor to the symbolic fill pattern
    so its structure is a pure function of the subdomain's patterns and
    permutation — together with the canonical-frame ordering this makes
    translate-identical subdomains factor-fingerprint identically (see
    :mod:`repro.sparse.canonical` and :mod:`repro.batch.fingerprint`).

    With a :class:`~repro.sparse.canonical.CanonicalRelabeling` the whole
    decision chain — fixing DOFs, regularization, fill-reducing ordering,
    conformed factor extraction — runs in the *canonical orientation frame*
    instead: relabeled mirror-identical subdomains see bit-equal inputs, so
    every member of a canonical class produces the same stored ``L``
    pattern and can share one set of batch artifacts
    (see ``docs/batching.md``).  The returned factor's permutation is
    composed back to original DOF indices, so it is a drop-in
    factorization of the (canonically regularized) subdomain matrix —
    ``factor.solve`` and :meth:`SchurAssembler.assemble
    <repro.core.assembler.SchurAssembler.assemble>` work unchanged.

    The fill-reducing ordering depends on the matrix pattern and the
    coordinates only; a *reuse* scope
    (:class:`~repro.sparse.reuse.SymbolicReuse`) lets members with bit-equal
    ones share it.  Everything that reads values — regularization, the
    numeric factorization, conforming — stays per subdomain.
    """
    if relabeling is None:
        k_reg, coords = sub.regularized(), sub.coords
    else:
        from repro.sparse import choose_fixing_dofs, regularize

        require(
            relabeling.n_dofs == sub.n_dofs,
            "relabeling does not match the subdomain's DOF count",
        )
        k_reg = relabeling.apply_matrix(sub.k)
        coords = relabeling.coords()
        if sub.floating:
            fixing = choose_fixing_dofs(k_reg, sub.kernel_dim, coords=coords)
            k_reg = regularize(k_reg, fixing)
    perm = compute_ordering(k_reg, method=ordering, coords=coords, reuse=reuse)
    factor = cholesky(k_reg, perm=perm, engine=engine, conform=conform)
    if relabeling is None:
        return factor
    return CholeskyFactor(
        l=factor.l,
        perm=relabeling.dof_perm[factor.perm],
        flops=factor.flops,
        engine=factor.engine,
    )


@dataclass
class DualOperator:
    """The assembled global dual operator plus coarse-space data.

    Attributes
    ----------
    decomposition:
        The torn problem.
    locals:
        One :class:`LocalDualOperator` per subdomain.
    g:
        Dense ``G = B R`` (n_multipliers x total kernel dim).
    e:
        ``R^T f`` stacked over floating subdomains.
    d:
        ``B K^+ f`` (dual right-hand side; ``c = 0`` in our problems).
    """

    decomposition: Decomposition
    locals: list[LocalDualOperator]
    g: np.ndarray
    e: np.ndarray
    d: np.ndarray

    @property
    def n_multipliers(self) -> int:
        return self.decomposition.n_multipliers

    @property
    def kernel_dim(self) -> int:
        return self.g.shape[1]

    @property
    def explicit(self) -> bool:
        """Every local operator holds an assembled ``F̃_i`` (eq. 12)."""
        return all(isinstance(op, ExplicitLocalOperator) for op in self.locals)

    @property
    def chain_launches(self) -> int:
        """Kernel launches of one subdomain's application: gather → GEMM →
        scatter-add against an assembled ``F̃_i``; gather → SpMM → TRSM →
        TRSMᵀ → SpMMᵀ → scatter-add against its factor."""
        return 3 if self.explicit else 6

    def apply(self, lam: np.ndarray) -> np.ndarray:
        """``q = F lam`` — concurrent local applications, additive gather.

        *lam* is a dual vector ``(m,)`` or a panel ``(m, k)``.
        """
        require(
            lam.ndim in (1, 2) and lam.shape[0] == self.n_multipliers,
            "dual input must be (n_multipliers,) or (n_multipliers, k)",
        )
        dec = self.decomposition
        contribs = [
            op.apply(lam_local)
            for op, lam_local in zip(self.locals, dec.scatter_dual(lam))
        ]
        return dec.gather_dual(contribs)

    def recover_solution(self, lam: np.ndarray, alpha: np.ndarray) -> list[np.ndarray]:
        """Per-subdomain primal solutions ``u_i = K^+ (f - B^T lam) + R alpha``
        (eq. 5)."""
        dec = self.decomposition
        lam_locals = dec.scatter_dual(lam)
        out = []
        a_off = 0
        for sub, op, lam_local in zip(dec.subdomains, self.locals, lam_locals):
            u = op.solve_kplus(sub.f - sub.bt @ lam_local)
            kdim = sub.kernel_dim
            if kdim:
                u = u + sub.r @ alpha[a_off : a_off + kdim]
                a_off += kdim
            out.append(u)
        return out


@dataclass
class _ExplicitGroup:
    """One order class of the explicit path: the members' assembled
    ``F̃_i`` stacked as ``(G, m, m)`` beside their global multiplier ids."""

    members: list[int]
    f_stack: np.ndarray
    ids_stack: np.ndarray
    tier: str = "explicit"


@dataclass
class _ApplyGroup:
    """One batched-execution group of the implicit path.

    ``bt_stack`` holds the *permuted* gluing ``bt[perm]`` of every member
    (union-padded on the near tier), ``l_stack`` the stored factors, and
    ``ids_stack`` the members' global multiplier ids (padded ids point at
    multiplier 0 and carry exact structural zeros, so the scatter-add is
    a no-op there).  A group of one also carries its member's cached
    ``CholeskyFactor.solver()``, so the SuperLU analysis is paid once per
    factor, not once per application.
    """

    members: list[int]
    l_stack: StackedCSC
    bt_stack: StackedCSC
    ids_stack: np.ndarray
    tier: str  # "exact" | "union"
    solver: object = None  # TriangularSolver of a group of one


class GroupedDualOperator:
    """Batched per-iteration ``F`` application across groups of subdomains.

    Wraps a :class:`DualOperator` and applies *what it holds* through the
    stacked kernels of :mod:`repro.gpu.kernels`, **one launch per kernel
    step per group** instead of one per subdomain.  Which chain runs is
    read off the operator (:attr:`DualOperator.explicit`), never asked for:

    **Explicit** — every local operator is an
    :class:`ExplicitLocalOperator`: the assembled ``F̃_i`` are stacked into
    ``(G, m, m)`` arrays, one group per dual order ``m``, and an
    application is gather → GEMM → additive scatter, 3 launches per order
    class.  The stack is the only resident copy of the Schur
    complements (each local operator's ``f`` is rebound to its row view).
    Dense blocks of one order always stack, so *signature* and
    *union_fill_cap* have nothing to decide here: no fingerprint, permuted
    gluing copy or union plan is built.

    **Implicit** — otherwise the implicit application is replayed: gather,
    SPMM with ``bt[perm]``, forward/backward TRSM on ``L``, transposed
    SPMM, additive scatter, 6 launches per group.  *signature* picks the
    grouping tier (mirroring the assembly engine's):

    * ``"exact"`` — members share one :func:`factor fingerprint
      <repro.batch.fingerprint.factor_fingerprint>` (bit-equal factor and
      permuted-gluing patterns), stacked with
      :meth:`StackedCSC.from_matrices`.
    * ``"near"`` — near classes execute padded through a
      :func:`~repro.sparse.canonical.union_plan`: members embed at the
      identity prefix of the pattern union, the padded factor is
      ``[[L, 0], [0, I]]`` and padding carries structural zeros only, so
      member results are exact (no masking needed).  Classes whose
      :attr:`fill_ratio <repro.sparse.canonical.UnionPlan.fill_ratio>`
      exceeds *union_fill_cap* keep their exact stacks.

    The tiering itself is :func:`repro.sparse.stacked.plan_stacks`, shared
    with the assembly engine; groups apply in its order (first member
    ascending).

    :meth:`apply_panel_sequential` is the launch-policy comparator: the
    same chain over groups of one.  The numerics agree up to BLAS
    association order; per-member FLOPs and traffic are identical *by
    construction* on the explicit path and the exact tier (same cost
    formulas over the same shapes and patterns), which the solver
    test-suite asserts through the executor ledgers.
    """

    def __init__(
        self,
        base: DualOperator,
        executor=None,
        signature: str = "exact",
        union_fill_cap: float = DEFAULT_UNION_FILL_CAP,
    ) -> None:
        require(signature in ("exact", "near"), f"unknown signature {signature!r}")
        # Lazy import: repro.gpu imports feti-adjacent modules.
        from repro.gpu.runtime import gpu_executor

        self.base = base
        self.executor = executor if executor is not None else gpu_executor()
        self.signature = signature
        self.explicit = base.explicit
        self._ids = [sub.multiplier_ids for sub in base.decomposition.subdomains]
        self._singletons = None  # groups of one, built on first sequential use
        if self.explicit:
            self.groups = self._explicit_groups()
        else:
            self.groups = self._implicit_groups(signature, union_fill_cap)

    # -- group construction -------------------------------------------------

    def _explicit_groups(self) -> list[_ExplicitGroup]:
        ops = self.base.locals
        by_order: dict[int, list[int]] = {}
        for i, op in enumerate(ops):
            by_order.setdefault(op.f.shape[0], []).append(i)
        groups = []
        for members in by_order.values():
            grp = self._explicit_group(members)
            # Rebind to row views: the stack stays the only resident copy.
            for row, i in enumerate(members):
                ops[i].f = grp.f_stack[row]
            groups.append(grp)
        return groups

    def _explicit_group(self, members: list[int]) -> _ExplicitGroup:
        return _ExplicitGroup(
            members=members,
            f_stack=np.stack([self.base.locals[i].f for i in members]),
            ids_stack=np.stack([self._ids[i] for i in members]),
        )

    def _implicit_groups(
        self, signature: str, union_fill_cap: float
    ) -> list[_ApplyGroup]:
        # Lazy imports: repro.batch imports feti-adjacent modules.
        from repro.batch.fingerprint import factor_fingerprint, near_fingerprint

        subs = self.base.decomposition.subdomains
        factors = [op.factor for op in self.base.locals]
        self._l = [f.l.tocsc() for f in factors]
        self._btp = [sub.bt.tocsr()[f.perm].tocsc() for sub, f in zip(subs, factors)]
        # The assembly engine's planner decides who shares a stack: members
        # of one factor fingerprint stack exactly, near classes pad.
        stacks, _ = plan_stacks(
            [
                factor_fingerprint(f, sub.bt, bt_rows=btp).key
                for sub, f, btp in zip(subs, factors, self._btp)
            ],
            self._l,
            self._btp,
            class_keys=(
                [near_fingerprint(sub.coords, sub.bt).key for sub in subs]
                if signature == "near"
                else None
            ),
            fill_cap=union_fill_cap,
        )
        return [
            self._exact_group(list(s.members))
            if s.plan is None
            else self._union_group(list(s.members), s.plan)
            for s in stacks
        ]

    def _exact_group(self, members: list[int]) -> _ApplyGroup:
        return _ApplyGroup(
            members=members,
            l_stack=StackedCSC.from_matrices([self._l[i] for i in members]),
            bt_stack=StackedCSC.from_matrices([self._btp[i] for i in members]),
            ids_stack=np.stack([self._ids[i] for i in members]),
            tier="exact",
            solver=(
                self.base.locals[members[0]].factor.solver()
                if len(members) == 1
                else None
            ),
        )

    def _union_group(self, members: list[int], plan) -> _ApplyGroup:
        ids_stack = np.zeros((len(members), plan.shape[1]), dtype=np.intp)
        for row, i in enumerate(members):
            ids_stack[row, : self._ids[i].size] = self._ids[i]
        return _ApplyGroup(
            members=members,
            l_stack=stack_into_union(
                [self._l[i] for i in members], plan.l_union, pad_diagonal=True
            ),
            bt_stack=stack_into_union([self._btp[i] for i in members], plan.bt_union),
            ids_stack=ids_stack,
            tier="union",
        )

    # -- application --------------------------------------------------------

    @property
    def n_multipliers(self) -> int:
        return self.base.n_multipliers

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def launches_per_application(self) -> int:
        """Kernel launches one grouped ``F`` application costs (3 per
        explicit group, 6 per implicit one)."""
        return self.base.chain_launches * len(self.groups)

    @property
    def sequential_launches_per_application(self) -> int:
        """Launches of the same chain run one subdomain per launch."""
        return self.base.chain_launches * len(self.base.locals)

    def _check_panel(self, lam: np.ndarray) -> None:
        require(
            lam.ndim == 2 and lam.shape[0] == self.n_multipliers,
            "multiplier panel must be (n_multipliers, k)",
        )

    def apply_panel(self, lam: np.ndarray) -> np.ndarray:
        """``Q = F Λ`` on a multiplier panel — one kernel chain per group."""
        return self._apply_groups(self.groups, lam, self.executor)

    def _apply_groups(self, groups: list, lam: np.ndarray, ex) -> np.ndarray:
        self._check_panel(lam)
        chain = self._explicit_chain if self.explicit else self._implicit_chain
        out = np.zeros_like(lam)
        for grp in groups:
            chain(ex, grp, lam, out)
        return out

    def _explicit_chain(self, ex, grp: _ExplicitGroup, lam: np.ndarray, out: np.ndarray) -> None:
        g, m, k = len(grp.members), grp.f_stack.shape[1], lam.shape[1]
        with get_tracer().span("feti.apply_group", members=g, tier=grp.tier, m=m, k=k):
            gathered = ex.panel_gather(lam, grp.ids_stack)
            contrib = np.empty((g, m, k))
            ex.gemm(grp.f_stack, gathered, contrib, beta=0.0)
            ex.panel_scatter_add(out, grp.ids_stack, contrib)

    def _implicit_chain(self, ex, grp: _ApplyGroup, lam: np.ndarray, out: np.ndarray) -> None:
        g, k = len(grp.members), lam.shape[1]
        n, m = grp.bt_stack.shape
        with get_tracer().span(
            "feti.apply_group", members=g, tier=grp.tier, n=n, m=m, k=k
        ):
            gathered = ex.panel_gather(lam, grp.ids_stack)
            t = np.zeros((g, n, k))
            ex.spmm(grp.bt_stack, gathered, t, beta=0.0)
            ex.trsm_sparse(grp.l_stack, t, solver=grp.solver)
            ex.trsm_sparse(grp.l_stack, t, trans=True, solver=grp.solver)
            contrib = np.zeros((g, m, k))
            ex.spmm(grp.bt_stack, t, contrib, beta=0.0, trans_a=True)
            ex.panel_scatter_add(out, grp.ids_stack, contrib)

    def apply(self, lam: np.ndarray) -> np.ndarray:
        """Single-vector ``F lam`` through the panel path (k = 1)."""
        require(lam.shape == (self.n_multipliers,), "dual vector size mismatch")
        return self.apply_panel(lam[:, None])[:, 0]

    def apply_panel_sequential(self, lam: np.ndarray, executor) -> np.ndarray:
        """Per-subdomain comparator: the same chain over groups of one.

        Every subdomain is its own group (built once, on first use), so the
        identical kernels run with one member per launch and charge
        *executor* ledgers directly comparable with the grouped path.
        """
        if self._singletons is None:
            make = self._explicit_group if self.explicit else self._exact_group
            self._singletons = [make([i]) for i in range(len(self.base.locals))]
        return self._apply_groups(self._singletons, lam, executor)

    def recover_solution(self, lam: np.ndarray, alpha: np.ndarray) -> list[np.ndarray]:
        return self.base.recover_solution(lam, alpha)


def build_dual_operator(
    decomposition: Decomposition,
    local_ops: list[LocalDualOperator],
) -> DualOperator:
    """Assemble ``G``, ``e`` and ``d`` around prebuilt local operators."""
    dec = decomposition
    require(
        len(local_ops) == dec.n_subdomains,
        "one local operator per subdomain required",
    )
    kernel_dim = sum(s.kernel_dim for s in dec.subdomains)
    g = np.zeros((dec.n_multipliers, kernel_dim))
    e = np.zeros(kernel_dim)
    d = np.zeros(dec.n_multipliers)
    a_off = 0
    for sub, op in zip(dec.subdomains, local_ops):
        if sub.kernel_dim:
            # G columns: B_i R_i scattered to this subdomain's multipliers.
            local_g = sub.bt.T @ sub.r  # (m_i, kdim)
            g[sub.multiplier_ids, a_off : a_off + sub.kernel_dim] += local_g
            e[a_off : a_off + sub.kernel_dim] = sub.r.T @ sub.f
            a_off += sub.kernel_dim
        d[sub.multiplier_ids] += sub.bt.T @ op.solve_kplus(sub.f)
    return DualOperator(decomposition=dec, locals=local_ops, g=g, e=e, d=d)


__all__ = [
    "LocalDualOperator",
    "ImplicitLocalOperator",
    "ExplicitLocalOperator",
    "DualOperator",
    "GroupedDualOperator",
    "build_dual_operator",
    "factorize_subdomain",
]
