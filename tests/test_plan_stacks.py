"""The one stack planner (:func:`repro.sparse.stacked.plan_stacks`) and the
partitions it hands its callers.

The property test drives the planner alone — ``union_plan`` is replaced by
a stub whose fill ratio the test chooses, so the cap boundary is exact.
The pinned partitions below were computed once at the parent commit (where
the engine, ``GroupedDualOperator`` and ``StackedPreconditioner`` each
grouped with their own code) and are written as literals: the shared
planner has to reproduce them.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import BatchAssembler, items_from_decomposition
from repro.core import default_config
from repro.dd import decompose
from repro.fem import heat_problem, heat_transfer_2d
from repro.feti.operator import GroupedDualOperator
from repro.feti.solver import FetiSolver
from repro.part import make_mesh
from repro.sparse.stacked import DEFAULT_UNION_FILL_CAP, plan_stacks

CAP = 2.0
ABOVE_CAP = math.nextafter(CAP, math.inf)


@settings(max_examples=200, deadline=None)
@given(
    members=st.lists(
        st.tuples(
            st.sampled_from("abcd"),  # exact key
            st.sampled_from([None, "X", "Y", "Z"]),  # class key
        ),
        min_size=0,
        max_size=12,
    ),
    # fill ratio of each class: below, exactly at, one float above, well above
    ratios=st.fixed_dictionaries(
        {c: st.sampled_from([1.0, CAP, ABOVE_CAP, 5.0]) for c in "XYZ"}
    ),
    stacking=st.sampled_from(["all", "none", "pairs"]),
    with_classes=st.booleans(),
)
def test_plan_stacks_properties(members, ratios, stacking, with_classes):
    exact_keys = [e for e, _ in members]
    class_keys = [c for _, c in members] if with_classes else None
    predicate = {
        "all": lambda key, group: True,
        "none": lambda key, group: False,
        "pairs": lambda key, group: len(group) >= 2,
    }[stacking]
    # The "matrices" are the members' class keys: the stub reads the class
    # (and with it the chosen fill ratio) off the first one it is handed.
    mats = [c for _, c in members]

    def fake_union_plan(l_mats, bt_mats):
        assert l_mats == bt_mats and len(set(l_mats)) == 1
        return SimpleNamespace(fill_ratio=ratios[l_mats[0]])

    with mock.patch("repro.sparse.stacked.union_plan", fake_union_plan):
        stacks, fill_ratios = plan_stacks(
            exact_keys, mats, mats, class_keys=class_keys, fill_cap=CAP, stack_exact=predicate
        )

    # every member in exactly one stack; output ordered by first member
    assert sorted(i for s in stacks for i in s.members) == list(range(len(members)))
    firsts = [s.members[0] for s in stacks]
    assert firsts == sorted(firsts)
    assert all(list(s.members) == sorted(s.members) for s in stacks)

    # classes considered for padding: exactly those spanning >= 2 exact keys
    spanning = {}
    for e, c in members:
        if with_classes and c is not None:
            spanning.setdefault(c, set()).add(e)
    eligible = {c for c, keys in spanning.items() if len(keys) >= 2}
    assert set(fill_ratios) == eligible
    assert all(fill_ratios[c] == ratios[c] for c in eligible)

    # fill == cap is kept, the next float above is skipped
    union_stacks = [s for s in stacks if s.plan is not None]
    assert {s.key for s in union_stacks} == {c for c in eligible if ratios[c] in (1.0, CAP)}
    for s in union_stacks:
        assert s.stacked
        assert list(s.members) == [i for i, (_, c) in enumerate(members) if c == s.key]

    # everyone else (over-cap classes included) reappears under its exact
    # key, stacked with the remaining members of that key or alone
    in_union = {i for s in union_stacks for i in s.members}
    remaining = {}
    for i, e in enumerate(exact_keys):
        if i not in in_union:
            remaining.setdefault(e, []).append(i)
    for s in stacks:
        if s.plan is not None:
            continue
        group = remaining[s.key]
        if predicate(s.key, group):
            assert s.stacked and list(s.members) == group
        else:
            assert not s.stacked and len(s.members) == 1 and s.members[0] in group


# ---------------------------------------------------------------------------
# pinned partitions (parent-commit literals)
# ---------------------------------------------------------------------------


def _jittered_decomposition():
    problem = heat_problem(make_mesh("jittered", 12, seed=1), dirichlet=())
    return decompose(problem, n_subdomains=6, partitioner="rcb", seed=1)


@pytest.fixture(scope="module")
def operators():
    ops = {}
    for name, dec in (
        ("grid4x4", decompose(heat_transfer_2d(16, dirichlet=()), grid=(4, 4))),
        ("jittered6", _jittered_decomposition()),
    ):
        solver = FetiSolver(dec, approach="impl_mkl")
        solver.preprocess()
        ops[name] = solver.operator
    return ops


_GRID_EXACT = [
    ("exact", [0]), ("exact", [1, 2]), ("exact", [3]), ("exact", [4, 8]),
    ("exact", [5, 6, 9, 10]), ("exact", [7, 11]), ("exact", [12]),
    ("exact", [13, 14]), ("exact", [15]),
]
_JIT_EXACT = [("exact", [i]) for i in range(6)]

#: (operator, signature, cap) -> [(tier, members)] in application order.
#: For ``near`` at cap 0.5 the parent listed the same partition class by
#: class ([0], [3], [12], [15], [1, 2], ... / [0], [2], [3], [5], [1], [4]);
#: the planner orders every partition by first member.
PINNED_OPERATOR_GROUPS = {
    ("grid4x4", "exact", 8.0): _GRID_EXACT,
    ("grid4x4", "exact", 0.5): _GRID_EXACT,
    ("grid4x4", "near", 8.0): [
        ("union", [0, 3, 12, 15]),
        ("union", [1, 2, 4, 7, 8, 11, 13, 14]),
        ("exact", [5, 6, 9, 10]),
    ],
    ("grid4x4", "near", 0.5): _GRID_EXACT,
    ("jittered6", "exact", 8.0): _JIT_EXACT,
    ("jittered6", "exact", 0.5): _JIT_EXACT,
    ("jittered6", "near", 8.0): [("union", [0, 2, 3, 5]), ("union", [1, 4])],
    ("jittered6", "near", 0.5): _JIT_EXACT,
}


@pytest.mark.parametrize("case", sorted(PINNED_OPERATOR_GROUPS), ids=str)
def test_grouped_dual_operator_partition_is_pinned(operators, case):
    name, signature, cap = case
    gop = GroupedDualOperator(operators[name], signature=signature, union_fill_cap=cap)
    assert [(g.tier, list(g.members)) for g in gop.groups] == PINNED_OPERATOR_GROUPS[case]


def test_grouped_dual_operator_default_cap_is_the_shared_constant(operators):
    default = GroupedDualOperator(operators["jittered6"], signature="near")
    assert DEFAULT_UNION_FILL_CAP == 8.0
    assert [(g.tier, list(g.members)) for g in default.groups] == PINNED_OPERATOR_GROUPS[
        ("jittered6", "near", 8.0)
    ]


@pytest.mark.parametrize(
    "cap, union_groups",
    [(8.0, [[0, 2, 3, 5], [1, 4]]), (0.5, [])],
)
def test_engine_union_partition_is_pinned(cap, union_groups):
    items = items_from_decomposition(_jittered_decomposition())
    engine = BatchAssembler(
        config=default_config("gpu", 2), signature_mode="near", union_fill_cap=cap
    )
    batch = engine.assemble_batch(items, execution="union")
    assert list(batch.union_groups.values()) == union_groups
    assert list(batch.groups.values()) == [[i] for i in range(6)]
    assert batch.stats.n_union_skipped == 2 - len(union_groups)
    assert batch.stats.n_grouped == 6  # padded or exact, every member ran in a stack
