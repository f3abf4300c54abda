"""The sparse simplex kernel against the dense reference kernel at scale.

`test_simplex_reference.py` requires bit-identical results on small random
problems. On the models the package solves, the edge formulation and the
restricted masters of column generation, the kernel's sparse products add the
same terms in a different order than the reference's dense ones, so the last
bits of duals and primal values, and at times the pivot path, differ. Here
both kernels solve the same LPs and the kernel under test must give the same
status, the objective within 1e-9 relative, a primal solution that meets every
row within 1e-7 and every bound, and reduced costs whose signs (within 1e-6)
prove its duals optimal.
"""

import numpy as np
import pytest

from mmcrp import colgen, milp
from mmcrp.cli import split_fleet
from mmcrp.edgeform import build_edge_model
from mmcrp.instgen import GenParams, generate
from mmcrp.milp import LE, LpSolution, MilpProblem
from mmcrp.ridegraph import Caps, build_graph, enumerate_variants
from test_simplex_reference import ref_solve_lp


def instance(users, vehicles, seed):
    return generate(GenParams(n_users=users, n_depots=2,
                              vehicles_per_depot=split_fleet(vehicles, 2),
                              seed=seed))


def assert_equivalent(p: MilpProblem, got: LpSolution, want: LpSolution,
                      bounds=None):
    assert got.status == want.status
    if want.status != "optimal":
        return
    assert abs(got.objective - want.objective) <= 1e-9 * max(1.0, abs(want.objective))
    a = p.dense()
    b = np.array([rhs for _, rhs in p.rows])
    le = np.array([sense == LE for sense, _ in p.rows], dtype=bool)
    ax = a @ got.x
    assert (ax[le] <= b[le] + 1e-7).all()
    assert (np.abs(ax[~le] - b[~le]) <= 1e-7).all()
    lo = np.zeros(p.n_cols)
    hi = np.array(p.upper)
    for j, (l, h) in (bounds or {}).items():
        lo[j], hi[j] = l, h
    assert (got.x >= lo - 1e-7).all() and (got.x <= hi + 1e-7).all()
    # max form: a column that can still rise must not gain, one that can
    # still fall must not lose, and <= rows price nonnegative
    d = np.array(p.objective) - got.duals @ a
    assert (d[got.x < hi - 1e-7] <= 1e-6).all()
    assert (d[got.x > lo + 1e-7] >= -1e-6).all()
    assert (got.duals[le] >= -1e-6).all()


@pytest.mark.parametrize("users,vehicles,seed", [
    (8, 2, 0), (8, 2, 1), (12, 2, 2), (12, 3, 3), (16, 2, 4), (16, 3, 5),
    (20, 3, 6), (20, 4, 7), (25, 3, 8), (25, 4, 9)])
def test_edge_model_lps(users, vehicles, seed):
    inst = instance(users, vehicles, seed)
    graph = build_graph(inst, enumerate_variants(inst, Caps()))
    p = build_edge_model(graph, inst).problem
    assert_equivalent(p, milp.solve_lp(p), ref_solve_lp(p))


def snapshot(p: MilpProblem) -> MilpProblem:
    q = MilpProblem(p.rows)
    q.objective = list(p.objective)
    q.col_entries = list(p.col_entries)
    q.upper = list(p.upper)
    q.integer = list(p.integer)
    return q


@pytest.mark.parametrize("users,vehicles,seed,scheme", [
    (20, 3, 0, "multiple"), (20, 3, 1, "best"), (30, 4, 2, "multiple"),
    (30, 4, 3, "first"), (40, 4, 4, "multiple"), (40, 4, 5, "best")])
def test_column_generation_master_lps(monkeypatch, users, vehicles, seed, scheme):
    """Every LP of a real run, master and restricted-IP node alike, as the
    run solved it (warm-started, reusing the basis inverse) and solved cold,
    against the reference's cold solve."""
    calls = []
    solve_lp = milp.solve_lp

    def spy(problem, state=None, bounds=None):
        sol = solve_lp(problem, state=state, bounds=bounds)
        calls.append((snapshot(problem), bounds, state is not None, sol))
        return sol

    inst = instance(users, vehicles, seed)
    graph = build_graph(inst, enumerate_variants(inst))
    monkeypatch.setattr(milp, "solve_lp", spy)
    colgen.run(inst, graph, scheme=scheme)
    monkeypatch.undo()
    assert sum(warm for _, _, warm, _ in calls) >= 3
    for p, bounds, _, got in calls:
        want = ref_solve_lp(p, bounds=bounds)
        assert_equivalent(p, got, want, bounds)
        assert_equivalent(p, milp.solve_lp(p, bounds=bounds), want, bounds)
