"""The simplex kernel against a frozen copy of its earlier implementation.

`_RefSimplex`, `ref_solve_lp` and `ref_solve_ip` below are the kernel as it
was before its pivot, ratio-test and start-up code were rewritten onto
shared routines and array masks. The rewrite changed no rule, tolerance or
tie-break, so on every problem here both must take the same pivots: equal
status, iteration and node counts, and bit-identical objectives, primal
values, duals and warm-start snapshots. The problems cover LE and EQ rows,
a redundant EQ row (phase 1 leaves its artificial basic), warm starts after
appended columns, branch-and-bound bound changes repaired by the dual
simplex (feasible and infeasible children), unbounded LPs, infeasible
integer programs and the binary programs of acceptance criterion 10.
"""

import math
import time
from typing import Optional, Sequence

import numpy as np
import pytest

from mmcrp import milp
from mmcrp.milp import (
    EQ,
    LE,
    IpResult,
    LpSolution,
    MilpError,
    MilpProblem,
    SimplexState,
    solve_ip,
    solve_lp,
)

TOL_FEAS = 1e-7
TOL_INT = 1e-6

_TOL_PRICE = 1e-9
_TOL_PIVOT = 1e-10
_REFACTOR_EVERY = 120

_AT_LB, _AT_UB, _BASIC = 0, 1, 2


class _RefSimplex:
    """Bounded-variable primal simplex over [structural | slack | artificial]."""

    def __init__(self, problem: MilpProblem,
                 bounds: Optional[dict[int, tuple[float, float]]] = None):
        m, n = problem.n_rows, problem.n_cols
        self.m, self.n = m, n
        n_slack = sum(1 for s, _ in problem.rows if s == LE)
        self.N = n + n_slack + m      # one artificial slot per row
        self.A = np.zeros((m, self.N))
        self.A[:, :n] = problem.dense()
        self.b = np.array([rhs for _, rhs in problem.rows], dtype=float)
        self.c = np.zeros(self.N)
        self.c[:n] = problem.objective
        self.lb = np.zeros(self.N)
        self.ub = np.full(self.N, np.inf)
        self.ub[:n] = problem.upper
        if bounds:
            for j, (lo, hi) in bounds.items():
                self.lb[j], self.ub[j] = lo, hi

        self.slack_of_row = np.full(m, -1, dtype=int)
        k = n
        for i, (sense, _) in enumerate(problem.rows):
            if sense == LE:
                self.slack_of_row[i] = k
                self.A[i, k] = 1.0
                k += 1
        self.art_of_row = np.arange(n + n_slack, self.N)
        self.art_cols = self.art_of_row.copy()

        self.basis = np.zeros(m, dtype=int)
        self.vstat = np.full(self.N, _AT_LB, dtype=np.int8)
        self.x = np.zeros(self.N)
        self.binv = np.eye(m)
        self.iterations = 0

    # -- state plumbing ------------------------------------------------------

    def load_state(self, state: SimplexState) -> str:
        """Adopt a previous basis (columns may have been appended since).

        Returns 'ok' when the loaded basis is primal feasible, 'repair' when
        it is regular but some basic variable violates a (changed) bound, and
        'fail' when it cannot be used at all."""
        shift = self.n - state.n_cols
        if shift < 0:
            return "fail"
        remap = lambda j: j if j < state.n_cols else j + shift
        basis = np.array([remap(j) for j in state.basis], dtype=int)
        if len(basis) != self.m or basis.max(initial=-1) >= self.N:
            return "fail"
        vstat = np.full(self.N, _AT_LB, dtype=np.int8)
        for j_old in range(len(state.vstat)):
            vstat[remap(j_old)] = state.vstat[j_old]
        art_lo = self.N - self.m
        for j in basis:
            if j >= art_lo:
                # basic artificial of a redundant row, pinned at zero; give its
                # column a unit coefficient so the basis matrix stays regular
                self.A[j - art_lo, j] = 1.0
        self.basis, self.vstat = basis, vstat
        try:
            self._refactor()
        except np.linalg.LinAlgError:
            return "fail"
        # clamp nonbasics onto (possibly changed) bounds, then check basics
        self._set_nonbasic_values()
        self._recompute_basics()
        if not bool(np.all(np.abs(self.x[self.art_cols]) <= TOL_FEAS)):
            return "fail"
        xb = self.x[self.basis]
        ok = bool(np.all(xb >= self.lb[self.basis] - TOL_FEAS)
                  and np.all(xb <= self.ub[self.basis] + TOL_FEAS))
        return "ok" if ok else "repair"

    def dual_repair(self, c: np.ndarray, max_iter: int = 20000) -> str:
        """Bounded dual simplex: restore primal feasibility after bound
        changes, starting from a dual-feasible (previously optimal) basis.
        Returns 'feasible', 'infeasible', or 'fail' (caller solves cold)."""
        it = 0
        while True:
            it += 1
            if it > max_iter:
                return "fail"
            xb = self.x[self.basis]
            below = self.lb[self.basis] - xb
            above = xb - self.ub[self.basis]
            viol = np.maximum(below, above)
            r = int(np.argmax(viol))
            if viol[r] <= TOL_FEAS:
                return "feasible"
            leaving = int(self.basis[r])
            exits_low = below[r] >= above[r]
            row = self.binv[r, :] @ self.A
            y = c[self.basis] @ self.binv
            d = c - y @ self.A
            # x_B[r] must rise when below its lower bound, drop when above
            # its upper bound; pick the entering column by the dual ratio test
            best_j = -1
            best_ratio = math.inf
            for j in range(self.N):
                if self.vstat[j] == _BASIC or (self.ub[j] - self.lb[j]) <= _TOL_PIVOT:
                    continue
                rj = row[j]
                if abs(rj) <= 1e-9:
                    continue
                at_lb = self.vstat[j] == _AT_LB
                if exits_low:
                    # need delta x_Br > 0: raise an AT_LB var with rj < 0 or
                    # lower an AT_UB var with rj > 0
                    usable = (at_lb and rj < 0) or (not at_lb and rj > 0)
                else:
                    usable = (at_lb and rj > 0) or (not at_lb and rj < 0)
                if not usable:
                    continue
                ratio = abs(d[j]) / abs(rj)
                if ratio < best_ratio - 1e-12 or (ratio < best_ratio + 1e-12
                                                  and (best_j < 0 or j < best_j)):
                    best_j = j
                    best_ratio = ratio
            if best_j < 0:
                return "infeasible"
            w = self.binv @ self.A[:, best_j]
            piv = w[r]
            if abs(piv) < _TOL_PIVOT:
                return "fail"
            self.vstat[leaving] = _AT_LB if exits_low else _AT_UB
            self.basis[r] = best_j
            self.vstat[best_j] = _BASIC
            rowv = self.binv[r, :] / piv
            self.binv -= np.outer(w, rowv)
            self.binv[r, :] = rowv
            self._set_nonbasic_values()
            self._recompute_basics()

    def snapshot(self) -> SimplexState:
        return SimplexState(self.n, self.basis.copy(), self.vstat.copy())

    # -- linear algebra ------------------------------------------------------

    def _refactor(self):
        self.binv = np.linalg.inv(self.A[:, self.basis])

    def _set_nonbasic_values(self):
        nb = self.vstat != _BASIC
        at_ub = nb & (self.vstat == _AT_UB) & np.isfinite(self.ub)
        self.x[nb] = self.lb[nb]
        self.x[at_ub] = self.ub[at_ub]

    def _recompute_basics(self):
        xfull = self.x.copy()
        xfull[self.basis] = 0.0
        resid = self.b - self.A @ xfull
        self.x[self.basis] = self.binv @ resid

    # -- core loop -------------------------------------------------------------

    def start_cold(self) -> bool:
        """Build the slack/artificial starting basis; returns True when a
        phase-1 run is required."""
        self.vstat[:] = _AT_LB
        self._set_nonbasic_values()
        xfull = self.x.copy()
        xfull[self.art_cols] = 0.0
        for i in range(self.m):
            if self.slack_of_row[i] >= 0:
                xfull[self.slack_of_row[i]] = 0.0
        resid = self.b - self.A @ xfull
        need_art = False
        for i in range(self.m):
            s = self.slack_of_row[i]
            if s >= 0 and resid[i] >= 0:
                self.basis[i] = s
                self.vstat[s] = _BASIC
            else:
                a = self.art_of_row[i]
                self.A[i, a] = 1.0 if resid[i] >= 0 else -1.0
                self.basis[i] = a
                self.vstat[a] = _BASIC
                need_art = True
        self._refactor()
        self._set_nonbasic_values()
        self._recompute_basics()
        return need_art

    def optimize(self, c: np.ndarray, max_iter: int = 200000) -> str:
        m = self.m
        fixed = (self.ub - self.lb) <= _TOL_PIVOT
        abs_a = np.abs(self.A)
        abs_c = np.abs(c)
        degen_streak = 0
        bland = False
        since_refactor = 0
        tol_boost = 1.0
        while True:
            self.iterations += 1
            if self.iterations > max_iter:
                raise MilpError("simplex iteration limit exceeded")
            y = c[self.basis] @ self.binv
            d = c - y @ self.A
            # entering tolerance scales with each column's own magnitude:
            # reduced costs of big-coefficient columns carry big float noise
            tol = tol_boost * (_TOL_PRICE + 1e-12 * (abs_c + np.abs(y) @ abs_a))
            nb_lb = (self.vstat == _AT_LB) & ~fixed
            nb_ub = (self.vstat == _AT_UB) & ~fixed
            score = np.where(nb_lb, d, np.where(nb_ub, -d, -np.inf))
            eligible = score > tol
            if not eligible.any():
                return "optimal"
            if bland:
                j = int(np.flatnonzero(eligible)[0])
            else:
                j = int(np.argmax(score - tol))
            sigma = 1.0 if self.vstat[j] == _AT_LB else -1.0

            w = self.binv @ self.A[:, j]
            step_dir = -sigma * w          # movement of basics per unit t
            xb = self.x[self.basis]
            lo = self.lb[self.basis]
            hi = self.ub[self.basis]
            with np.errstate(divide="ignore", invalid="ignore"):
                t_lo = np.where(step_dir < -_TOL_PIVOT,
                                (xb - lo) / -step_dir, np.inf)
                t_hi = np.where(step_dir > _TOL_PIVOT,
                                (hi - xb) / step_dir, np.inf)
            t_rows = np.minimum(t_lo, t_hi)
            t_rows = np.maximum(t_rows, 0.0)
            t_flip = self.ub[j] - self.lb[j]
            t_min_rows = t_rows.min() if m else np.inf
            t = min(t_flip, t_min_rows)
            if not np.isfinite(t):
                return "unbounded"

            if np.isfinite(t_flip) and t_flip <= t_min_rows:
                # bound flip, basis unchanged
                self.x[j] = self.ub[j] if sigma > 0 else self.lb[j]
                self.vstat[j] = _AT_UB if sigma > 0 else _AT_LB
                self.x[self.basis] = xb + step_dir * t_flip
                degen_streak = 0
                continue

            cand = np.flatnonzero(t_rows <= t + 1e-9)
            if bland:
                leave_pos = int(cand[np.argmin(self.basis[cand])])
            else:
                leave_pos = int(cand[np.argmax(np.abs(w[cand]))])
            leaving = int(self.basis[leave_pos])

            self.x[self.basis] = xb + step_dir * t
            self.x[j] = self.x[j] + sigma * t
            # leaving variable lands exactly on the bound it hit
            self.vstat[leaving] = _AT_LB if step_dir[leave_pos] < 0 else _AT_UB
            self.x[leaving] = (self.lb[leaving] if step_dir[leave_pos] < 0
                               else self.ub[leaving])
            self.basis[leave_pos] = j
            self.vstat[j] = _BASIC

            piv = w[leave_pos]
            if abs(piv) < _TOL_PIVOT:
                self._refactor()
                self._recompute_basics()
                continue
            row = self.binv[leave_pos, :] / piv
            self.binv -= np.outer(w, row)
            self.binv[leave_pos, :] = row

            since_refactor += 1
            if since_refactor >= _REFACTOR_EVERY:
                self._refactor()
                self._recompute_basics()
                since_refactor = 0

            if t <= 1e-10:
                degen_streak += 1
                if degen_streak > 3 * m:
                    bland = True
                if degen_streak > 6 * m + 50:
                    # numerical stalemate: refresh the factorization and relax
                    # the entering tolerance a notch
                    self._refactor()
                    self._recompute_basics()
                    tol_boost = min(tol_boost * 10.0, 1e4)
                    degen_streak = 0
                    bland = False
            else:
                degen_streak = 0
                bland = False

    def phase1(self) -> str:
        c1 = np.zeros(self.N)
        c1[self.art_cols] = -1.0
        status = self.optimize(c1)
        if status != "optimal":          # phase-1 objective is bounded by 0
            raise MilpError("phase 1 reported unbounded; problem is malformed")
        infeas = -(c1[self.basis] @ self.x[self.basis])
        if infeas > TOL_FEAS * max(1.0, np.abs(self.b).max(initial=0.0)):
            return "infeasible"
        self._pivot_out_artificials()
        self.ub[self.art_cols] = 0.0
        self.lb[self.art_cols] = 0.0
        return "feasible"

    def _pivot_out_artificials(self):
        for pos in range(self.m):
            j = self.basis[pos]
            if j not in self.art_cols:
                continue
            row = self.binv[pos, :] @ self.A
            pick = -1
            for jj in range(self.n + (self.N - self.n - self.m)):
                if self.vstat[jj] != _BASIC and abs(row[jj]) > 1e-8:
                    pick = jj
                    break
            if pick < 0:
                continue                  # redundant row: artificial stays at 0
            w = self.binv @ self.A[:, pick]
            piv = w[pos]
            self.vstat[j] = _AT_LB
            self.x[j] = 0.0
            self.basis[pos] = pick
            self.vstat[pick] = _BASIC
            rowv = self.binv[pos, :] / piv
            self.binv -= np.outer(w, rowv)
            self.binv[pos, :] = rowv
        self._recompute_basics()


def ref_solve_lp(problem: MilpProblem, state: Optional[SimplexState] = None,
             bounds: Optional[dict[int, tuple[float, float]]] = None) -> LpSolution:
    """Solve the LP relaxation; on 'optimal' the solution carries row duals
    (>= 0 for <= rows in this max form, free for = rows) and a warm-start
    snapshot for subsequent calls with extra columns."""
    sx = _RefSimplex(problem, bounds)
    loaded = sx.load_state(state) if state is not None else "fail"
    if loaded != "fail":
        sx.ub[sx.art_cols] = 0.0
        sx.lb[sx.art_cols] = 0.0
    if loaded == "repair":
        repaired = sx.dual_repair(sx.c)
        if repaired == "infeasible":
            return LpSolution("infeasible", math.nan, np.zeros(problem.n_cols),
                              np.zeros(problem.n_rows), sx.iterations)
        if repaired == "fail":
            loaded = "fail"
    if loaded == "fail":
        sx = _RefSimplex(problem, bounds)
        if sx.start_cold() and sx.phase1() == "infeasible":
            return LpSolution("infeasible", math.nan, np.zeros(problem.n_cols),
                              np.zeros(problem.n_rows), sx.iterations)
        sx.ub[sx.art_cols] = 0.0
        sx.lb[sx.art_cols] = 0.0
    status = sx.optimize(sx.c)
    if status == "unbounded":
        return LpSolution("unbounded", math.inf, np.zeros(problem.n_cols),
                          np.zeros(problem.n_rows), sx.iterations)
    sx._refactor()
    sx._recompute_basics()
    x = sx.x[:problem.n_cols].copy()
    y = sx.c[sx.basis] @ sx.binv
    obj = float(np.array(problem.objective) @ x)
    return LpSolution("optimal", obj, x, y, sx.iterations, sx.snapshot())


def _ref_most_fractional(x: np.ndarray, integer: Sequence[bool]) -> int:
    best_j, best_f = -1, TOL_INT
    for j, is_int in enumerate(integer):
        if not is_int:
            continue
        f = abs(x[j] - round(x[j]))
        if f > best_f + 1e-12:
            best_j, best_f = j, f
    return best_j


def ref_solve_ip(problem: MilpProblem, time_limit_s: Optional[float] = None) -> IpResult:
    """Depth-first branch and bound on the most-fractional variable (ties by
    lowest index). Returns the incumbent and the best remaining bound; when
    the tree is exhausted the bound equals the incumbent (gap 0)."""
    t0 = time.perf_counter()
    c = np.array(problem.objective)

    root = ref_solve_lp(problem)
    if root.status == "infeasible":
        return IpResult("infeasible", math.nan, None, math.nan, nodes=1)
    if root.status == "unbounded":
        return IpResult("unbounded", math.inf, None, math.inf, nodes=1)

    best_x = None
    best_obj = -math.inf
    nodes = 0
    # stack entries: (bounds dict, parent state, parent bound)
    stack: list[tuple[dict, Optional[SimplexState], float]] = [({}, None, root.objective)]
    timed_out = False

    while stack:
        if time_limit_s is not None and time.perf_counter() - t0 > time_limit_s:
            timed_out = True
            break
        bnds, state, parent_bound = stack.pop()
        if parent_bound <= best_obj + 1e-9:
            continue
        nodes += 1
        sol = ref_solve_lp(problem, state=state, bounds=bnds) if bnds else root
        if sol.status != "optimal" or sol.objective <= best_obj + 1e-9:
            continue
        j = _ref_most_fractional(sol.x, problem.integer)
        if j < 0:
            x_int = sol.x.copy()
            for k, is_int in enumerate(problem.integer):
                if is_int:
                    x_int[k] = round(x_int[k])
            obj = float(c @ x_int)
            if obj > best_obj:
                best_obj, best_x = obj, x_int
            continue
        lo, hi = bnds.get(j, (0.0, problem.upper[j]))
        down = dict(bnds)
        down[j] = (lo, math.floor(sol.x[j] + TOL_INT))
        up = dict(bnds)
        up[j] = (math.ceil(sol.x[j] - TOL_INT), hi)
        stack.append((down, sol.state, sol.objective))
        stack.append((up, sol.state, sol.objective))   # explore 'up' first

    if best_x is None and not timed_out:
        return IpResult("infeasible", math.nan, None, math.nan, nodes=nodes)
    open_bound = max((pb for _, _, pb in stack), default=-math.inf)
    bound = max(best_obj, open_bound) if timed_out else best_obj
    gap = 0.0 if not timed_out else (
        (bound - best_obj) / max(abs(best_obj), 1e-9) if best_x is not None else math.inf
    )
    return IpResult("time_limit" if timed_out else "optimal", best_obj, best_x,
                    bound, nodes, gap)


# --- comparison ---------------------------------------------------------------


def bits(v) -> bytes:
    return np.float64(v).tobytes()


def assert_same_lp(got: LpSolution, want: LpSolution):
    assert got.status == want.status
    assert got.iterations == want.iterations
    assert bits(got.objective) == bits(want.objective)
    assert got.x.tobytes() == want.x.tobytes()
    assert got.duals.tobytes() == want.duals.tobytes()
    assert (got.state is None) == (want.state is None)
    if want.state is not None:
        assert got.state.n_cols == want.state.n_cols
        assert got.state.basis.tobytes() == want.state.basis.tobytes()
        assert got.state.vstat.tobytes() == want.state.vstat.tobytes()


def assert_same_ip(got: IpResult, want: IpResult):
    assert got.status == want.status
    assert got.nodes == want.nodes
    assert bits(got.objective) == bits(want.objective)
    assert bits(got.bound) == bits(want.bound)
    assert bits(got.gap) == bits(want.gap)
    assert (got.x is None) == (want.x is None)
    if want.x is not None:
        assert got.x.tobytes() == want.x.tobytes()


def both_lp(p: MilpProblem, states=(None, None), bounds=None):
    """(new, reference) solutions of one LP, each warm-started from its own
    earlier state."""
    got = solve_lp(p, state=states[0], bounds=bounds)
    want = ref_solve_lp(p, state=states[1], bounds=bounds)
    assert_same_lp(got, want)
    return got, want


@pytest.fixture
def repairs(monkeypatch):
    """Outcomes of every dual-simplex repair the kernel under test runs."""
    seen: list[str] = []
    orig = milp._Simplex.dual_repair

    def spy(self, *args, **kwargs):
        out = orig(self, *args, **kwargs)
        seen.append(out)
        return out

    monkeypatch.setattr(milp._Simplex, "dual_repair", spy)
    return seen


# --- problems -----------------------------------------------------------------


def random_lp(rng, m, n, n_eq=0, redundant=False, box=True):
    """Feasible max-form LP around an interior point x0: m LE rows, n_eq EQ
    rows through x0 (plus a scaled copy of the first when redundant) and,
    with box, one x_j <= 10 row per column."""
    A = rng.normal(size=(m, n))
    x0 = rng.uniform(0.1, 2.0, size=n)
    b = A @ x0 + rng.uniform(0.1, 1.0, size=m)
    E = rng.normal(size=(n_eq, n))
    if redundant:
        E = np.vstack([E, 2.0 * E[0]])
    rows = [(LE, float(v)) for v in b] + [(EQ, float(v)) for v in E @ x0]
    if box:
        rows += [(LE, 10.0)] * n
    p = MilpProblem(rows)
    for j in range(n):
        entries = [(i, float(A[i, j])) for i in range(m)]
        entries += [(m + k, float(E[k, j])) for k in range(len(E))]
        if box:
            entries.append((m + len(E) + j, 1.0))
        p.add_column(float(rng.normal()), entries)
    return p


def master_lp(rng, n_tasks, n_depots, n_routes, forced_zero=False):
    """Shaped like the column-generation master: a <= 1 row per task, an
    EQ start row and an EQ end row per depot (the end rows sum to the start
    rows, so one EQ row is redundant), 0/1 coefficients, integer savings
    and an idle or relocation route per depot pair. With forced_zero, two
    LE rows x_a - x_b <= 0 and an EQ row -(sum of three routes) = 0 add
    zero right-hand sides: the starting basis is degenerate, and phase 1
    ends with that EQ row's artificial basic at zero, to be pivoted out."""
    fleet = rng.integers(1, 3, size=n_depots)
    rows = ([(LE, 1.0)] * n_tasks
            + [(EQ, float(v)) for v in fleet]
            + [(EQ, float(v)) for v in rng.permutation(fleet)])
    n_extra = 2 if forced_zero else 0
    rows += [(EQ, 0.0)] * (n_extra > 0) + [(LE, 0.0)] * n_extra
    p = MilpProblem(rows)
    extra = n_tasks + 2 * n_depots
    for d in range(n_depots):
        for d2 in range(n_depots):
            p.add_column(0.0 if d == d2 else -10.0,
                         [(n_tasks + d, 1.0), (n_tasks + n_depots + d2, 1.0)])
    for k in range(n_routes):
        tasks = rng.choice(n_tasks, size=int(rng.integers(1, 4)), replace=False)
        d0, d1 = rng.integers(0, n_depots, size=2)
        entries = [(int(t), 1.0) for t in tasks]
        entries += [(n_tasks + int(d0), 1.0), (n_tasks + n_depots + int(d1), 1.0)]
        if forced_zero and k < 3:
            entries.append((extra, -1.0))
        if forced_zero and k in (3, 4):
            entries += [(extra + 1, 1.0 if k == 3 else -1.0)]
        if forced_zero and k in (5, 6):
            entries += [(extra + 2, 1.0 if k == 5 else -1.0)]
        p.add_column(float(rng.integers(-2, 8)), entries)
    return p


def append_columns(rng, p: MilpProblem, k: int):
    for _ in range(k):
        rows = rng.choice(p.n_rows, size=int(rng.integers(1, p.n_rows + 1)),
                          replace=False)
        p.add_column(float(rng.normal() + 0.5),
                     [(int(r), float(rng.uniform(-1.0, 2.0))) for r in rows])


def artificial_basic(p: MilpProblem, sol: LpSolution) -> bool:
    n_slack = sum(1 for s, _ in p.rows if s == LE)
    return bool((sol.state.basis >= p.n_cols + n_slack).any())


# --- tests --------------------------------------------------------------------


def test_le_and_eq_rows():
    rng = np.random.default_rng(101)
    statuses = set()
    for k in range(60):
        p = random_lp(rng, int(rng.integers(2, 7)), int(rng.integers(2, 8)),
                      n_eq=k % 3)
        got, _ = both_lp(p)
        statuses.add(got.status)
    assert "optimal" in statuses


def test_master_shaped_lps():
    rng = np.random.default_rng(707)
    kept = 0
    for k in range(40):
        p = master_lp(rng, int(rng.integers(3, 12)), int(rng.integers(1, 4)),
                      int(rng.integers(4, 25)), forced_zero=k % 2 == 1)
        got, want = both_lp(p)
        assert got.status == "optimal"
        kept += artificial_basic(p, got)
        for _ in range(2):
            append_columns(rng, p, int(rng.integers(1, 4)))
            got, want = both_lp(p, (got.state, want.state))
    assert kept >= 10


def test_redundant_eq_row_keeps_artificial_basic():
    rng = np.random.default_rng(202)
    kept = 0
    for _ in range(30):
        p = random_lp(rng, int(rng.integers(1, 5)), int(rng.integers(3, 8)),
                      n_eq=int(rng.integers(1, 3)), redundant=True)
        got, _ = both_lp(p)
        if got.status == "optimal" and artificial_basic(p, got):
            kept += 1
    assert kept >= 20


def test_warm_start_after_appended_columns():
    rng = np.random.default_rng(303)
    through_artificial = 0
    for k in range(40):
        p = random_lp(rng, int(rng.integers(2, 6)), int(rng.integers(2, 7)),
                      n_eq=k % 2, redundant=k % 4 == 1)
        got, want = both_lp(p)
        assert got.status == "optimal"
        through_artificial += artificial_basic(p, got)
        for _ in range(3):
            append_columns(rng, p, int(rng.integers(1, 4)))
            got, want = both_lp(p, (got.state, want.state))
    assert through_artificial >= 5


def test_bound_changes_repaired_by_dual_simplex(repairs):
    rng = np.random.default_rng(404)
    for k in range(40):
        p = random_lp(rng, int(rng.integers(2, 6)), int(rng.integers(3, 8)),
                      n_eq=k % 2)
        root, root_ref = both_lp(p)
        if root.status != "optimal":
            continue
        frac = [j for j in range(p.n_cols) if abs(root.x[j] - round(root.x[j])) > 1e-3]
        for j in frac[:2]:
            down = {j: (0.0, float(math.floor(root.x[j])))}
            up = {j: (float(math.ceil(root.x[j])), math.inf)}
            for bnds in (down, up):
                child, child_ref = both_lp(p, (root.state, root_ref.state), bnds)
                if child.status != "optimal":
                    continue
                # a grandchild also fixes a second column at its lower bound
                j2 = int(np.argmax(child.x))
                both_lp(p, (child.state, child_ref.state),
                        {**bnds, j2: (0.0, float(math.floor(child.x[j2] / 2)))})
        # past its x_j <= 10 box row: an infeasible child
        j = int(np.argmax(root.x))
        got, _ = both_lp(p, (root.state, root_ref.state), {j: (11.0, math.inf)})
        assert got.status == "infeasible"
    assert "ok" in repairs and "infeasible" in repairs


def test_unbounded_lps():
    rng = np.random.default_rng(505)
    for k in range(20):
        p = random_lp(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)),
                      n_eq=k % 2, box=False)
        # a ray: more objective, no row tightened (EQ rows untouched)
        m_le = sum(1 for s, _ in p.rows if s == LE)
        p.add_column(1.0 + float(rng.uniform()),
                     [(i, -float(rng.uniform(0.1, 1.0))) for i in range(m_le)])
        got, _ = both_lp(p)
        assert got.status == "unbounded"
        assert_same_ip(solve_ip(p), ref_solve_ip(p))


def test_criterion_10_binary_programs(repairs):
    rng = np.random.default_rng(2024)
    for _ in range(50):
        m, n = 4, 12
        A = rng.uniform(0, 3, size=(m, n))
        b = rng.uniform(3, 10, size=m)
        c = rng.normal(size=n) + 0.3
        p = MilpProblem([(LE, float(v)) for v in b])
        for j in range(n):
            p.add_column(float(c[j]), [(i, float(A[i, j])) for i in range(m)],
                         upper=1.0, integer=True)
        assert_same_ip(solve_ip(p), ref_solve_ip(p))
    assert repairs


def test_master_shaped_integer_programs(repairs):
    rng = np.random.default_rng(808)
    for k in range(30):
        p = master_lp(rng, int(rng.integers(4, 10)), int(rng.integers(1, 4)),
                      int(rng.integers(6, 20)), forced_zero=k % 3 == 2)
        p.integer = [True] * p.n_cols
        assert_same_ip(solve_ip(p), ref_solve_ip(p))
    assert "ok" in repairs


def test_general_integer_programs():
    rng = np.random.default_rng(606)
    for k in range(20):
        p = random_lp(rng, 3, 6, n_eq=k % 2)
        for j in range(p.n_cols):
            p.integer[j] = True
            p.upper[j] = 3.0
        assert_same_ip(solve_ip(p), ref_solve_ip(p))
    # infeasible: as an LP (x <= 1, x = 2), and only as an IP (2x = 1)
    for rows, coefs in (([(LE, 1.0), (EQ, 2.0)], [(0, 1.0), (1, 1.0)]),
                        ([(EQ, 1.0)], [(0, 2.0)])):
        p = MilpProblem(rows)
        p.add_column(1.0, coefs, upper=3.0, integer=True)
        got = solve_ip(p)
        assert got.status == "infeasible"
        assert_same_ip(got, ref_solve_ip(p))
