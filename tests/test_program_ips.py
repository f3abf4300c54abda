"""`solve_ip` on the integer programs the package itself builds, against the
frozen branch and bound of `test_simplex_reference.py`.

The inputs are the final restricted masters of column generation and the
direct edge models of small instances, each picked because its tree
branches: the masters take 3 to 5 nodes, the edge models' roots are
fractional. Both trees must visit the same nodes and return the same bits,
and no incumbent may hold a -0.0: rounding an entry just below zero with
numpy gives one, Python's `round` does not. One more edge model has an
integral root with such an entry.
"""

import numpy as np
import pytest

from test_simplex_reference import assert_same_ip, ref_solve_ip
from mmcrp import colgen, edgeform, milp
from mmcrp.instgen import GenParams, generate
from mmcrp.ridegraph import build_graph, enumerate_variants


def graph_of(n_users, seed):
    inst = generate(GenParams(n_users=n_users, seed=seed))
    return inst, build_graph(inst, enumerate_variants(inst))


def assert_as_reference(problem, min_nodes):
    got = milp.solve_ip(problem)
    assert got.nodes >= min_nodes
    assert_same_ip(got, ref_solve_ip(problem))
    assert not np.signbit(got.x).any()


@pytest.mark.parametrize("n_users,seed", [(20, 1), (30, 3), (30, 9), (40, 7)])
def test_restricted_masters(monkeypatch, n_users, seed):
    inst, graph = graph_of(n_users, seed)
    masters = []
    solve_ip = milp.solve_ip

    def keep(problem, time_limit_s=None):
        masters.append(problem)
        return solve_ip(problem, time_limit_s)

    monkeypatch.setattr(milp, "solve_ip", keep)
    colgen.run(inst, graph)
    monkeypatch.undo()
    assert_as_reference(masters[-1], 3)


@pytest.mark.parametrize("n_users,seed",
                         [(6, 2), (10, 88), (12, 42), (12, 74), (12, 88)])
def test_edge_models(n_users, seed):
    inst, graph = graph_of(n_users, seed)
    assert_as_reference(edgeform.build_edge_model(graph, inst).problem, 2)


def test_integral_root_with_an_entry_below_zero():
    inst, graph = graph_of(6, 47)
    problem = edgeform.build_edge_model(graph, inst).problem
    assert np.signbit(milp.solve_lp(problem).x).any()
    assert_as_reference(problem, 1)
