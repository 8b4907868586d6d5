"""Steering a polynomial so its reciprocal approximants track g on E."""

import importlib

import numpy as np
import pytest

from opalab import (
    AlphaWeight,
    BoundarySet,
    CoeffSeries,
    InvalidInputError,
    InvalidParameterError,
    blaschke_series,
    evaluate,
    multiply,
    opa_search_m,
    opa_solve,
    steer,
)
from opalab.serialize import dumps, to_jsonable

# The module, not the function that the package exports under the same name.
steer_module = importlib.import_module("opalab.steer")
opa_module = importlib.import_module("opalab.opa")

H2 = AlphaWeight(0.0)
DIR = AlphaWeight(1.0)
E_ONE = BoundarySet.from_points([0.0])


def test_order_search_trivial_and_pinned():
    assert opa_search_m(CoeffSeries([1.0]), [1.0], E_ONE, 1e-3, H2) == 0
    # Pinned when this suite was first assembled, matching the profile
    # crossing for the same polynomial at the same tolerance.
    assert opa_search_m(CoeffSeries([1.0, -0.5]), [2.0], E_ONE, 1e-3, H2) == 11


def test_order_search_grows_as_the_tolerance_tightens():
    P = CoeffSeries([1.0, -0.5])
    ms = [opa_search_m(P, [2.0], E_ONE, tol, H2) for tol in (1e-3, 5e-4, 1e-6, 1e-9)]
    assert ms == sorted(ms)
    assert ms[0] == 11


def test_order_search_rejects_bad_inputs():
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(InvalidParameterError):
            opa_search_m(CoeffSeries([1.0]), [1.0], E_ONE, bad, H2)
    with pytest.raises(InvalidInputError):
        opa_search_m(CoeffSeries([1.0]), [], BoundarySet(), 1e-3, H2)


def test_steer_zero_free_input_tracks_a_constant():
    f = CoeffSeries([1.0, -0.5])
    res = steer(f, CoeffSeries([2.0]), E_ONE, 0.1)
    assert res.F_structured.inner_zeros == ()
    assert res.F_structured.scalar == 1.0 + 0.0j
    assert res.m <= 16
    assert res.achieved.norm_error < 0.1
    assert res.achieved.boundary_error < 0.1
    assert abs(evaluate(res.Q_m, 1.0) - 2.0) < 0.1
    # Q_m really is the reciprocal approximant of F at the reported order
    direct = opa_solve(res.F_coeffs, res.m, H2).Q
    assert np.allclose(res.Q_m.coeffs, direct.coeffs, atol=1e-10)


def test_steer_walks_the_orders_once(monkeypatch):
    walks = []
    orders = opa_module._opa_orders

    def counting_orders(*args):
        walks.append(args)
        return orders(*args)

    # Both bindings: a second walk would come in through opa_solve
    monkeypatch.setattr(steer_module, "_opa_orders", counting_orders)
    monkeypatch.setattr(opa_module, "_opa_orders", counting_orders)
    res = steer(CoeffSeries([1.0, -0.5]), CoeffSeries([2.0]), E_ONE, 0.1)
    assert len(walks) == 1
    # Q_m comes out of the search's walk, bit for bit the approximant of P at order m
    direct = opa_solve(res.F_structured.P, res.m, H2).Q
    assert np.array_equal(res.Q_m.coeffs.view(np.uint64), direct.coeffs.view(np.uint64))


def test_steer_reaches_a_larger_constant():
    res = steer(CoeffSeries([1.0, -0.5]), CoeffSeries([5.0]), E_ONE, 0.1)
    assert res.achieved.norm_error < 0.1
    assert abs(evaluate(res.Q_m, 1.0) - 5.0) < 0.1


def test_steer_in_the_dirichlet_space():
    # Pinned regression constant: the first order that tracks 1/P within eps/2 on E.
    res = steer(CoeffSeries([1.0, -0.5]), CoeffSeries([2.0]), E_ONE, 0.1, space="dirichlet")
    assert res.m == 6
    assert res.achieved.norm_error < 0.1
    assert res.achieved.boundary_error < 0.1
    direct = opa_solve(res.F_coeffs, res.m, DIR).Q
    assert np.array_equal(res.Q_m.coeffs, direct.coeffs)


def test_steer_through_an_inner_factor():
    f = CoeffSeries([-0.5, 1.0])
    res = steer(f, CoeffSeries([2.0]), E_ONE, 0.1)
    assert np.allclose(res.F_structured.inner_zeros, [0.5], atol=1e-9)
    # the scalar is conj(B(0)), the covariance constant of reciprocal
    # approximants under the inner factor; here B(0) = |0.5|
    assert res.F_structured.scalar == pytest.approx(0.5, abs=1e-9)
    assert res.achieved.norm_error < 0.1
    assert res.achieved.boundary_error < 0.1
    # structured and flat forms agree where it matters
    B = blaschke_series(list(res.F_structured.inner_zeros), 512)
    flat = multiply(B, res.F_structured.P, max_degree=len(res.F_coeffs.coeffs) - 1)
    recon = res.F_structured.scalar * np.asarray(
        [evaluate(flat, z) for z in (0.3, -0.4j, 0.2 + 0.5j)]
    )
    direct = np.asarray([evaluate(res.F_coeffs, z) for z in (0.3, -0.4j, 0.2 + 0.5j)])
    assert np.allclose(recon, direct, atol=1e-8)


def test_steer_rejections():
    good_g = CoeffSeries([2.0])
    with pytest.raises(InvalidInputError):
        steer(CoeffSeries([0.0, 1.0, 1.0]), good_g, E_ONE, 0.1)
    with pytest.raises(InvalidInputError):
        steer(CoeffSeries([1.0, -0.5]), CoeffSeries([0.0]), E_ONE, 0.1)
    with pytest.raises(InvalidInputError):
        steer(CoeffSeries([1.0, -0.5]), CoeffSeries([1.0, -1.0]), E_ONE, 0.1)
    with pytest.raises(InvalidInputError):
        steer(CoeffSeries([1.0, -0.5]), good_g, BoundarySet(arcs=((0.0, 0.1),)), 0.1)
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(InvalidParameterError):
            steer(CoeffSeries([1.0, -0.5]), good_g, E_ONE, bad)
    with pytest.raises(InvalidParameterError):
        steer(CoeffSeries([-0.5, 1.0]), good_g, E_ONE, 0.1, space="dirichlet")
    with pytest.raises(InvalidInputError):
        steer(CoeffSeries([1.0, -0.5], tail_bound=1e-8), good_g, E_ONE, 0.1)
    # f(0) = -1e-9 passes the f(0) != 0 guard, but root factoring snaps the
    # root 1e-9 to 0, where the normalizing scalar conj(B(0)) would vanish
    with pytest.raises(InvalidInputError, match="root within"):
        steer(CoeffSeries([-1e-9, 1.0]), good_g, E_ONE, 0.1)


def test_steer_is_deterministic():
    args = (CoeffSeries([1.0, -0.5]), CoeffSeries([2.0]), E_ONE, 0.1)
    a = dumps(to_jsonable(steer(*args)))
    b = dumps(to_jsonable(steer(*args)))
    assert a == b
