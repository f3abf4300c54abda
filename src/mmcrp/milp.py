"""Embedded max-form LP solver with duals plus depth-first branch-and-bound.

The LP kernel is a two-phase revised simplex on bounded variables, adequate
for desk-scale problems (a few thousand rows and columns). It keeps the
constraint matrix as column-ordered nonzeros (row index, value, column id and
column pointers; entries that repeat a row within a column are summed, as
`MilpProblem.dense` sums them) and the basis inverse as a dense m x m array.
Pricing is one `np.bincount` over the nonzeros, an entering column is
`binv[:, rows] @ values`, and a pivot updates only the rows of the inverse
where that column is nonzero. Dantzig pricing with Bland's rule as an
anti-cycling fallback after a long degenerate streak. The columns are laid
out as [structural | one slack per <= row | one artificial per row];
artificials carry phase 1 and are pinned at zero afterwards. Every basis
change, in the primal loop, the dual-simplex repair of a warm start and the
pivot-out of artificials after phase 1, goes through one routine,
`_Simplex._pivot`. Problems and solutions are value objects.

Tolerances shared across the package: feasibility 1e-7, reduced cost 1e-6,
integrality 1e-6. The simplex itself prices to 1e-9 so that callers checking
against the 1e-6 contract always see a strictly tighter master.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

TOL_FEAS = 1e-7
TOL_RC = 1e-6
TOL_INT = 1e-6

_TOL_PRICE = 1e-9
_TOL_PIVOT = 1e-10
_MAX_ITER = 200000
_MAX_REPAIR_ITER = 20000

LE = "<="
EQ = "="

_AT_LB, _AT_UB, _BASIC = 0, 1, 2


class MilpError(ValueError):
    pass


class MilpProblem:
    """Sparse column-wise max-form problem: rows are fixed at construction,
    columns are appended (the natural shape for column generation)."""

    def __init__(self, rows: Sequence[tuple[str, float]]):
        for i, (sense, rhs) in enumerate(rows):
            if sense not in (LE, EQ):
                raise MilpError(f"row {i}: unknown sense '{sense}'")
            if not math.isfinite(rhs):
                raise MilpError(f"row {i}: rhs must be finite")
        self.rows: list[tuple[str, float]] = list(rows)
        self.objective: list[float] = []
        self.col_entries: list[list[tuple[int, float]]] = []
        self.upper: list[float] = []
        self.integer: list[bool] = []

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.objective)

    def add_column(self, obj: float, entries: Sequence[tuple[int, float]],
                   upper: float = math.inf, integer: bool = False) -> int:
        for row, _ in entries:
            if not 0 <= row < self.n_rows:
                raise MilpError(f"column entry references unknown row {row}")
        self.objective.append(float(obj))
        self.col_entries.append([(int(r), float(v)) for r, v in entries])
        self.upper.append(float(upper))
        self.integer.append(bool(integer))
        return self.n_cols - 1

    def dense(self) -> np.ndarray:
        a = np.zeros((self.n_rows, self.n_cols))
        for j, entries in enumerate(self.col_entries):
            for r, v in entries:
                a[r, j] += v
        return a


@dataclass
class SimplexState:
    """Opaque warm-start snapshot: basis, variable statuses and, when it can
    be reused, the basis inverse.

    binv is shared, not copied (branch-and-bound children share their
    parent's); `_Simplex.load_state` copies it before pivoting. It is None
    when a basic artificial had coefficient -1: a loaded basis gives its
    artificials +1, so that basis matrix differs and is refactored."""

    n_cols: int
    basis: np.ndarray
    vstat: np.ndarray
    binv: Optional[np.ndarray] = None


@dataclass
class LpSolution:
    status: str                       # optimal | infeasible | unbounded
    objective: float
    x: np.ndarray
    duals: np.ndarray
    iterations: int = 0
    state: Optional[SimplexState] = None


@dataclass
class IpResult:
    """The integer columns of `x` hold integral values."""

    status: str                       # optimal | infeasible | unbounded | time_limit
    objective: float
    x: Optional[np.ndarray]
    bound: float
    nodes: int = 0
    gap: float = math.inf


class _Simplex:
    """Bounded-variable primal simplex over [structural | slack | artificial].

    The constraint matrix is held as column-ordered nonzeros: `row`, `val`
    and `col` per entry, and `ptr`, where column j's entries are
    ptr[j]:ptr[j + 1], sorted by row. Entries that repeat a row within a
    structural column are summed in entry order, which is what
    `MilpProblem.dense` does, so every product and the basis matrix see the
    same coefficients as the dense matrix. A slack has one entry 1.0; an
    artificial has one entry whose value, 0.0 until then, is set to +1 or -1
    when it enters a starting basis (`art_coef` views those m values)."""

    def __init__(self, problem: MilpProblem,
                 bounds: Optional[dict[int, tuple[float, float]]] = None):
        m, n = problem.n_rows, problem.n_cols
        self.m, self.n = m, n
        slack_rows = np.array([i for i, (s, _) in enumerate(problem.rows)
                               if s == LE], dtype=int)
        n_slack = len(slack_rows)
        self.N = n + n_slack + m      # one artificial slot per row

        flat = np.array([rv for entries in problem.col_entries for rv in entries],
                        dtype=float).reshape(-1, 2)
        col = np.repeat(np.arange(n), [len(e) for e in problem.col_entries])
        # one entry per (column, row) in sorted order, repeats summed
        key, slot = np.unique(col * m + flat[:, 0].astype(int),
                              return_inverse=True)
        col, row = np.divmod(key, m)
        self.slack_of_row = np.full(m, -1, dtype=int)
        self.slack_of_row[slack_rows] = np.arange(n, n + n_slack)
        self.art_of_row = np.arange(n + n_slack, self.N)
        self.row = np.concatenate([row, slack_rows, np.arange(m)])
        self.col = np.concatenate([col, self.slack_of_row[slack_rows],
                                   self.art_of_row])
        self.val = np.concatenate([np.bincount(slot, flat[:, 1], len(key)),
                                   np.ones(n_slack), np.zeros(m)])
        self.ptr = np.zeros(self.N + 1, dtype=int)
        self.ptr[1:] = np.cumsum(np.bincount(self.col, minlength=self.N))
        self.art_coef = self.val[len(self.val) - m:]

        self.b = np.array([rhs for _, rhs in problem.rows], dtype=float)
        self.c = np.zeros(self.N)
        self.c[:n] = problem.objective
        self.lb = np.zeros(self.N)
        self.ub = np.full(self.N, np.inf)
        self.ub[:n] = problem.upper
        if bounds:
            for j, (lo, hi) in bounds.items():
                self.lb[j], self.ub[j] = lo, hi

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
        basis = np.where(state.basis < state.n_cols, state.basis,
                         state.basis + shift)
        vstat = np.insert(state.vstat, state.n_cols,
                          np.full(shift, _AT_LB, dtype=np.int8))
        if (len(basis) != self.m or len(vstat) != self.N
                or basis.max(initial=-1) >= self.N):
            return "fail"
        # basic artificials of redundant rows, pinned at zero; a unit
        # coefficient keeps the basis matrix regular
        art_lo = self.N - self.m
        self.art_coef[basis[basis >= art_lo] - art_lo] = 1.0
        self.basis, self.vstat = basis, vstat
        if state.binv is not None:
            # appended columns are never basic: the basis matrix is unchanged
            self.binv = state.binv.copy()
        else:
            try:
                self._refactor()
            except np.linalg.LinAlgError:
                return "fail"
        # clamp nonbasics onto (possibly changed) bounds, then check basics
        self._set_nonbasic_values()
        self._recompute_basics()
        if not bool(np.all(np.abs(self.x[self.art_of_row]) <= TOL_FEAS)):
            return "fail"
        xb = self.x[self.basis]
        ok = bool(np.all(xb >= self.lb[self.basis] - TOL_FEAS)
                  and np.all(xb <= self.ub[self.basis] + TOL_FEAS))
        return "ok" if ok else "repair"

    def dual_repair(self) -> str:
        """Bounded dual simplex: restore primal feasibility after bound
        changes, starting from a dual-feasible (previously optimal) basis.
        Returns 'ok', 'infeasible', or 'fail' (caller solves cold)."""
        movable = (self.ub - self.lb) > _TOL_PIVOT
        for _ in range(_MAX_REPAIR_ITER):
            xb = self.x[self.basis]
            below = self.lb[self.basis] - xb
            above = xb - self.ub[self.basis]
            viol = np.maximum(below, above)
            r = int(np.argmax(viol))
            if viol[r] <= TOL_FEAS:
                return "ok"
            leaving = int(self.basis[r])
            exits_low = below[r] >= above[r]
            row = self._y_times_a(self.binv[r, :])
            y = self.c[self.basis] @ self.binv
            d = self.c - self._y_times_a(y)
            # x_B[r] must rise when below its lower bound, drop when above
            # its upper bound: raise an AT_LB column or lower an AT_UB one
            # whose row entry moves it that way. The dual ratio test takes
            # the smallest |d_j / row_j|; a later column replaces the pick
            # only if its ratio is smaller by more than 1e-12
            toward = np.where(self.vstat == _AT_LB, row, -row)
            usable = np.flatnonzero(
                (self.vstat != _BASIC) & movable & (np.abs(row) > 1e-9)
                & ((toward < 0) if exits_low else (toward > 0)))
            if not len(usable):
                return "infeasible"
            ratios = np.abs(d[usable]) / np.abs(row[usable])
            best_j, best_ratio = -1, math.inf
            for j, ratio in zip(usable.tolist(), ratios.tolist()):
                if ratio < best_ratio - 1e-12:
                    best_j, best_ratio = j, ratio
            w = self._ftran(best_j)
            if abs(w[r]) < _TOL_PIVOT:
                return "fail"
            self.vstat[leaving] = _AT_LB if exits_low else _AT_UB
            self._pivot(r, best_j, w)
            self._set_nonbasic_values()
            self._recompute_basics()
        return "fail"

    def snapshot(self) -> SimplexState:
        art_lo = self.N - self.m
        arts = self.basis[self.basis >= art_lo] - art_lo
        unit = bool(np.all(self.art_coef[arts] == 1.0))
        return SimplexState(self.n, self.basis.copy(), self.vstat.copy(),
                            self.binv if unit else None)

    # -- linear algebra ------------------------------------------------------

    def _y_times_a(self, y: np.ndarray) -> np.ndarray:
        return np.bincount(self.col, y[self.row] * self.val, minlength=self.N)

    def _a_times_x(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.row, self.val * x[self.col], minlength=self.m)

    def _ftran(self, j: int) -> np.ndarray:
        """binv @ A[:, j]."""
        s = slice(self.ptr[j], self.ptr[j + 1])
        return self.binv[:, self.row[s]] @ self.val[s]

    def _refactor(self):
        pos = np.full(self.N, -1)
        pos[self.basis] = np.arange(self.m)
        at = pos[self.col]
        basic = at >= 0
        bmat = np.zeros((self.m, self.m))
        bmat[self.row[basic], at[basic]] = self.val[basic]
        self.binv = np.linalg.inv(bmat)

    def _pivot(self, pos: int, j: int, w: np.ndarray) -> bool:
        """Column j (w = binv @ A[:, j]) replaces basis[pos]; the caller has
        already given the leaving variable its nonbasic status. Updates the
        inverse in place on the rows where w is nonzero, or refactors and
        recomputes the basics when the pivot is too small to divide by (then
        returns False)."""
        self.basis[pos] = j
        self.vstat[j] = _BASIC
        piv = w[pos]
        if abs(piv) < _TOL_PIVOT:
            self._refactor()
            self._recompute_basics()
            return False
        row = self.binv[pos, :] / piv
        nz = np.flatnonzero(w)
        self.binv[nz] -= np.outer(w[nz], row)
        self.binv[pos, :] = row
        return True

    def _set_nonbasic_values(self):
        nb = self.vstat != _BASIC
        at_ub = nb & (self.vstat == _AT_UB) & np.isfinite(self.ub)
        self.x[nb] = self.lb[nb]
        self.x[at_ub] = self.ub[at_ub]

    def _recompute_basics(self):
        xfull = self.x.copy()
        xfull[self.basis] = 0.0
        self.x[self.basis] = self.binv @ (self.b - self._a_times_x(xfull))

    # -- core loop -------------------------------------------------------------

    def start_cold(self) -> bool:
        """Build the slack/artificial starting basis; returns True when a
        phase-1 run is required."""
        self.vstat[:] = _AT_LB
        self._set_nonbasic_values()
        # every slack and artificial sits at 0 here
        resid = self.b - self._a_times_x(self.x)
        use_slack = (self.slack_of_row >= 0) & (resid >= 0)
        self.basis[:] = np.where(use_slack, self.slack_of_row, self.art_of_row)
        rows = np.flatnonzero(~use_slack)
        self.art_coef[rows] = np.where(resid[rows] >= 0, 1.0, -1.0)
        self.vstat[self.basis] = _BASIC
        self._refactor()
        self._set_nonbasic_values()
        self._recompute_basics()
        return len(rows) > 0

    def optimize(self, c: np.ndarray) -> str:
        m = self.m
        fixed = (self.ub - self.lb) <= _TOL_PIVOT
        abs_c = np.abs(c)
        degen_streak = 0
        bland = False
        tol_boost = 1.0
        while True:
            self.iterations += 1
            if self.iterations > _MAX_ITER:
                raise MilpError("simplex iteration limit exceeded")
            y = c[self.basis] @ self.binv
            ya = y[self.row] * self.val
            d = c - np.bincount(self.col, ya, minlength=self.N)
            # entering tolerance scales with each column's own magnitude:
            # reduced costs of big-coefficient columns carry big float noise
            tol = tol_boost * (_TOL_PRICE + 1e-12 * (
                abs_c + np.bincount(self.col, np.abs(ya), minlength=self.N)))
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

            w = self._ftran(j)
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
            if not self._pivot(leave_pos, j, w):
                continue

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
        c1[self.art_of_row] = -1.0
        status = self.optimize(c1)
        if status != "optimal":          # phase-1 objective is bounded by 0
            raise MilpError("phase 1 reported unbounded; problem is malformed")
        infeas = -(c1[self.basis] @ self.x[self.basis])
        if infeas > TOL_FEAS * max(1.0, np.abs(self.b).max(initial=0.0)):
            return "infeasible"
        self._pivot_out_artificials()
        return "feasible"

    def _pivot_out_artificials(self):
        art_lo = self.N - self.m
        for pos in range(self.m):
            j = self.basis[pos]
            if j < art_lo:
                continue
            row = self._y_times_a(self.binv[pos, :])
            pick = np.flatnonzero((self.vstat[:art_lo] != _BASIC)
                                  & (np.abs(row[:art_lo]) > 1e-8))
            if not len(pick):
                continue                  # redundant row: artificial stays at 0
            self.vstat[j] = _AT_LB
            self.x[j] = 0.0
            self._pivot(pos, int(pick[0]), self._ftran(int(pick[0])))
        self._recompute_basics()


def _no_optimum(status: str, problem: MilpProblem, iterations: int) -> LpSolution:
    return LpSolution(status, math.nan if status == "infeasible" else math.inf,
                      np.zeros(problem.n_cols), np.zeros(problem.n_rows),
                      iterations)


def solve_lp(problem: MilpProblem, state: Optional[SimplexState] = None,
             bounds: Optional[dict[int, tuple[float, float]]] = None) -> LpSolution:
    """Solve the LP relaxation; on 'optimal' the solution carries row duals
    (>= 0 for <= rows in this max form, free for = rows) and a warm-start
    snapshot for subsequent calls with extra columns.

    With a state, a warm attempt loads its basis and, after bound changes,
    repairs it by dual simplex; if that basis is unusable, a cold attempt
    on a fresh model follows (the warm one has changed artificial
    coefficients and the basis)."""
    for warm in ((True, False) if state is not None else (False,)):
        sx = _Simplex(problem, bounds)
        start = sx.load_state(state) if warm else "cold"
        if start == "fail":
            continue
        if start == "cold" and sx.start_cold() and sx.phase1() == "infeasible":
            return _no_optimum("infeasible", problem, sx.iterations)
        # artificials stay at zero from here on
        sx.lb[sx.art_of_row] = sx.ub[sx.art_of_row] = 0.0
        if start == "repair":
            start = sx.dual_repair()
            if start == "infeasible":
                return _no_optimum("infeasible", problem, sx.iterations)
            if start == "fail":
                continue
        break
    if sx.optimize(sx.c) == "unbounded":
        return _no_optimum("unbounded", problem, sx.iterations)
    sx._refactor()
    sx._recompute_basics()
    x = sx.x[:problem.n_cols].copy()
    y = sx.c[sx.basis] @ sx.binv
    obj = float(np.array(problem.objective) @ x)
    return LpSolution("optimal", obj, x, y, sx.iterations, sx.snapshot())


def _most_fractional(x: np.ndarray, mask: np.ndarray) -> int:
    """The masked column farthest from an integer by more than TOL_INT, or
    -1; a later column beats the pick only by more than 1e-12."""
    frac = np.where(mask, np.abs(x - np.round(x)), 0.0)
    cand = np.flatnonzero(frac > TOL_INT)
    best_j, best_f = -1, TOL_INT
    for j, f in zip(cand.tolist(), frac[cand].tolist()):
        if f > best_f + 1e-12:
            best_j, best_f = j, f
    return best_j


def solve_ip(problem: MilpProblem, time_limit_s: Optional[float] = None) -> IpResult:
    """Depth-first branch and bound on `_most_fractional`, 'up' child first;
    an integral LP solution, rounded on the integer columns, is a candidate
    incumbent. Exhausted, the bound equals the incumbent (gap 0). The time
    limit is checked before each child node, so the root is always
    evaluated; then the bound also covers the open nodes."""
    t0 = time.perf_counter()
    c = np.array(problem.objective)
    mask = np.array(problem.integer, dtype=bool)
    best_x = None
    best_obj = -math.inf
    nodes = 0
    # stack entries: (bounds dict, parent state, parent bound)
    stack: list[tuple[dict, Optional[SimplexState], float]] = [({}, None, math.inf)]

    while stack:
        if nodes and time_limit_s is not None \
                and time.perf_counter() - t0 > time_limit_s:
            bound = max(best_obj, max(pb for _, _, pb in stack))
            gap = ((bound - best_obj) / max(abs(best_obj), 1e-9)
                   if best_x is not None else math.inf)
            return IpResult("time_limit", best_obj, best_x, bound, nodes, gap)
        bnds, state, parent_bound = stack.pop()
        if parent_bound <= best_obj + 1e-9:
            continue
        nodes += 1
        sol = solve_lp(problem, state=state, bounds=bnds)
        if sol.status == "unbounded":
            # only the root can be: a child only tightens bounds
            return IpResult("unbounded", math.inf, None, math.inf, nodes)
        if sol.status != "optimal" or sol.objective <= best_obj + 1e-9:
            continue
        j = _most_fractional(sol.x, mask)
        if j < 0:
            # + 0.0: np.round turns values just below zero into -0.0
            x_int = np.where(mask, np.round(sol.x) + 0.0, sol.x)
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

    if best_x is None:
        return IpResult("infeasible", math.nan, None, math.nan, nodes=nodes)
    return IpResult("optimal", best_obj, best_x, best_obj, nodes, 0.0)
