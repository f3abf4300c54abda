import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from mmcrp import milp
from mmcrp.milp import (
    EQ,
    LE,
    MilpError,
    MilpProblem,
    solve_ip,
    solve_lp,
)


def random_lp(rng, m=None, n=None, with_eq=False):
    """Feasible bounded max-form LP built around a known interior point."""
    m = m or rng.integers(2, 7)
    n = n or rng.integers(2, 7)
    A = rng.normal(size=(m, n))
    x0 = rng.uniform(0.1, 2.0, size=n)
    b = A @ x0 + rng.uniform(0.1, 1.0, size=m)
    c = rng.normal(size=n)
    p = MilpProblem([(LE, float(v)) for v in b]
                    + [(LE, 10.0)] * n)           # box rows keep it bounded
    for j in range(n):
        entries = [(i, float(A[i, j])) for i in range(m)]
        entries.append((m + j, 1.0))
        p.add_column(float(c[j]), entries)
    if with_eq:
        # anchor one equality through the interior point
        w = rng.normal(size=n)
        p.rows.append((EQ, float(w @ x0)))
        for j in range(n):
            p.col_entries[j].append((m + n, float(w[j])))
    return p


def scipy_solve(p: MilpProblem):
    A = p.dense()
    senses = [s for s, _ in p.rows]
    b = np.array([r for _, r in p.rows])
    le = [i for i, s in enumerate(senses) if s == LE]
    eq = [i for i, s in enumerate(senses) if s == EQ]
    bounds = [(0, None if math.isinf(u) else u) for u in p.upper]
    return linprog(-np.array(p.objective),
                   A_ub=A[le] if le else None, b_ub=b[le] if le else None,
                   A_eq=A[eq] if eq else None, b_eq=b[eq] if eq else None,
                   bounds=bounds, method="highs")


def test_single_bound_lp():
    p = MilpProblem([(LE, 1.0)])
    p.add_column(1.0, [(0, 1.0)])
    s = solve_lp(p)
    assert s.status == "optimal"
    assert s.objective == pytest.approx(1.0, abs=1e-9)
    assert s.duals[0] == pytest.approx(1.0, abs=1e-9)


def test_degenerate_lp_terminates():
    # many redundant constraints meeting at one vertex: heavy degeneracy
    p = MilpProblem([(LE, 1.0)] * 6)
    p.add_column(1.0, [(i, 1.0) for i in range(6)])
    p.add_column(1.0, [(i, float(1 + (i % 2))) for i in range(6)])
    s = solve_lp(p)
    assert s.status == "optimal"
    assert s.objective == pytest.approx(1.0, abs=1e-7)


def test_infeasible_lp():
    p = MilpProblem([(EQ, 1.0), (EQ, 2.0)])
    p.add_column(1.0, [(0, 1.0), (1, 1.0)])
    assert solve_lp(p).status == "infeasible"


def test_unbounded_lp():
    p = MilpProblem([(LE, 1.0)])
    p.add_column(1.0, [(0, -1.0)])
    assert solve_lp(p).status == "unbounded"


def test_random_lps_match_reference():
    rng = np.random.default_rng(42)
    for k in range(50):
        p = random_lp(rng, with_eq=(k % 3 == 0))
        ref = scipy_solve(p)
        s = solve_lp(p)
        if ref.status == 2:
            assert s.status == "infeasible"
            continue
        assert s.status == "optimal"
        assert s.objective == pytest.approx(-ref.fun, abs=1e-6)


def test_strong_duality_on_random_lps():
    rng = np.random.default_rng(7)
    for _ in range(60):
        p = random_lp(rng)
        s = solve_lp(p)
        assert s.status == "optimal"
        b = np.array([r for _, r in p.rows])
        assert abs(s.objective - s.duals @ b) <= 1e-6
        # dual sign convention: <= rows price nonnegative in max form
        assert (s.duals >= -1e-7).all()


def test_warm_start_after_adding_columns():
    rng = np.random.default_rng(3)
    p = random_lp(rng, m=4, n=4)
    s1 = solve_lp(p)
    # append a column and re-solve warm; must match a cold solve
    p.add_column(5.0, [(0, 1.0), (1, 1.0)])
    warm = solve_lp(p, state=s1.state)
    cold = solve_lp(p)
    assert warm.objective == pytest.approx(cold.objective, abs=1e-8)


def assert_same_solution(a, b):
    assert (a.status, a.objective, a.iterations) == (b.status, b.objective, b.iterations)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.duals, b.duals)
    assert np.array_equal(a.state.basis, b.state.basis)
    assert np.array_equal(a.state.vstat, b.state.vstat)
    assert np.array_equal(a.state.binv, b.state.binv)


def test_state_of_a_wider_problem_falls_back_cold():
    rng = np.random.default_rng(3)
    wide = random_lp(rng, m=4, n=5)
    narrow = MilpProblem(wide.rows)
    for j in range(wide.n_cols - 1):
        narrow.add_column(wide.objective[j], wide.col_entries[j])
    state = solve_lp(wide).state
    assert milp._Simplex(narrow).load_state(state) == "fail"
    warm = solve_lp(narrow, state=state)
    assert warm.status == "optimal"
    assert_same_solution(warm, solve_lp(narrow))


def test_failed_dual_repair_falls_back_cold(monkeypatch):
    rng = np.random.default_rng(3)
    p = random_lp(rng, m=4, n=4)
    root = solve_lp(p)
    j = int(np.argmax(root.x))
    bounds = {j: (0.0, root.x[j] / 2)}          # cuts the root optimum off
    repairs = []

    def fail(self):
        repairs.append(self)
        return "fail"

    monkeypatch.setattr(milp._Simplex, "dual_repair", fail)
    warm = solve_lp(p, state=root.state, bounds=bounds)
    assert len(repairs) == 1
    assert warm.status == "optimal"
    assert_same_solution(warm, solve_lp(p, bounds=bounds))


def test_ip_integral_relaxation_returned_unchanged():
    p = MilpProblem([(LE, 2.0)])
    p.add_column(1.0, [(0, 1.0)], upper=1.0, integer=True)
    p.add_column(1.0, [(0, 1.0)], upper=1.0, integer=True)
    r = solve_ip(p)
    assert r.status == "optimal"
    assert r.objective == pytest.approx(2.0, abs=1e-9)
    assert r.gap == 0.0


def test_knapsack_matches_enumeration():
    rng = np.random.default_rng(11)
    vals = rng.uniform(1, 20, 12)
    wts = rng.uniform(1, 10, 12)
    cap = 22.0
    p = MilpProblem([(LE, cap)])
    for v, w in zip(vals, wts):
        p.add_column(float(v), [(0, float(w))], upper=1.0, integer=True)
    r = solve_ip(p)
    best = max(
        (vals[list(sel)].sum() for k in range(13)
         for sel in itertools.combinations(range(12), k)
         if wts[list(sel)].sum() <= cap),
    )
    assert r.objective == pytest.approx(best, abs=1e-9)
    assert r.status == "optimal"


def test_random_binary_ips_match_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(15):
        m, n = 3, 9
        A = rng.uniform(0, 3, size=(m, n))
        b = rng.uniform(2, 8, size=m)
        c = rng.normal(size=n) + 0.5
        p = MilpProblem([(LE, float(v)) for v in b])
        for j in range(n):
            p.add_column(float(c[j]), [(i, float(A[i, j])) for i in range(m)],
                         upper=1.0, integer=True)
        r = solve_ip(p)
        best = -math.inf
        for mask in range(1 << n):
            x = np.array([(mask >> j) & 1 for j in range(n)], dtype=float)
            if (A @ x <= b + 1e-12).all():
                best = max(best, float(c @ x))
        assert r.objective == pytest.approx(best, abs=1e-7)


def test_infeasible_ip():
    p = MilpProblem([(EQ, 3.0)])
    p.add_column(1.0, [(0, 2.0)], upper=1.0, integer=True)
    assert solve_ip(p).status == "infeasible"


def test_lp_bound_dominates_ip():
    rng = np.random.default_rng(19)
    for _ in range(10):
        p = random_lp(rng, m=3, n=6)
        for j in range(p.n_cols):
            p.integer[j] = True
            p.upper[j] = 3.0
        lp = solve_lp(p)
        ip = solve_ip(p)
        if ip.status == "optimal":
            assert lp.objective >= ip.objective - 1e-7


def test_mixed_integer_bounds_respected():
    # one integer with ub 3 (waiting-edge style), one continuous
    p = MilpProblem([(LE, 4.5)])
    p.add_column(1.0, [(0, 1.0)], upper=3.0, integer=True)
    p.add_column(0.4, [(0, 1.0)])
    r = solve_ip(p)
    assert r.status == "optimal"
    assert r.x[0] == pytest.approx(3.0, abs=1e-9)
    assert r.objective == pytest.approx(3.0 + 0.4 * 1.5, abs=1e-7)


def test_time_limit_returns_flagged_partial():
    rng = np.random.default_rng(23)
    n = 26
    c = rng.uniform(1, 3, n)
    w = rng.uniform(1, 3, n)
    p = MilpProblem([(LE, float(w.sum()) / 2)])
    for j in range(n):
        p.add_column(float(c[j]), [(0, float(w[j]))], upper=1.0, integer=True)
    r = solve_ip(p, time_limit_s=0.0)
    assert r.status == "time_limit"
    assert r.bound >= r.objective - 1e-9


def test_row_validation():
    with pytest.raises(MilpError):
        MilpProblem([("<", 1.0)])
    p = MilpProblem([(LE, 1.0)])
    with pytest.raises(MilpError):
        p.add_column(1.0, [(5, 1.0)])



def test_repeated_row_entries_are_summed():
    # a column may list a row twice (a route covering a task twice has
    # coefficient 2); the solver must see the sum, as dense() does
    rng = np.random.default_rng(31)
    for k in range(30):
        p = random_lp(rng, with_eq=(k % 2 == 0))
        for j, entries in enumerate(p.col_entries):
            r, v = entries[int(rng.integers(len(entries)))]
            split = float(rng.uniform(-1.0, 2.0))
            p.col_entries[j] = entries + [(r, v - split), (r, split)]
        twice = [(int(r), 1.0) for r in rng.choice(p.n_rows, 2, replace=False)]
        p.add_column(float(rng.uniform(0.5, 2.0)), twice + twice[:1])
        ref = scipy_solve(p)
        s = solve_lp(p)
        if ref.status == 2:
            assert s.status == "infeasible"
            continue
        assert s.status == "optimal"
        assert s.objective == pytest.approx(-ref.fun, abs=1e-6)
