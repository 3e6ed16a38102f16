"""Array evaluation of the closed-form families against pointwise calls.

On a grid the oracles return (values, singular) and raise nothing; at a
point they return the value or raise SingularPoint.  Both must flag the
same nodes and agree elsewhere, including on grids that cross the blow-up
set of S.
"""

import cmath
import math
import warnings

import numpy as np
import pytest

from nnls_gbdt import oracles
from nnls_gbdt.errors import SingularPoint
from nnls_gbdt.gbdt_core import Grid

RELATIVE_GAP = 1e-14


def _mesh(grid):
    return np.meshgrid(grid.x_values, grid.t_values, indexing="ij")


def _assert_matches_pointwise(fn, p, x, t):
    """Array call versus one scalar call per node; returns the mask."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, singular = fn(p, x, t)
    assert singular.shape == x.shape
    assert values.shape[: x.ndim] == x.shape
    for k, l in np.ndindex(x.shape):
        try:
            expected = np.asarray(fn(p, float(x[k, l]), float(t[k, l])))
        except SingularPoint:
            assert singular[k, l], (k, l)
            assert np.all(np.isnan(values[k, l]))
            continue
        assert not singular[k, l], (k, l)
        gap = np.max(np.abs(values[k, l] - expected))
        assert gap <= RELATIVE_GAP * np.max(np.abs(expected)), (k, l, gap)
    return singular


def _draw_complex(rng, lo, hi):
    return rng.uniform(lo, hi) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def _draw_a(rng):
    re = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.3)
    return complex(re, rng.uniform(-1.0, 1.0))


def test_ex1_blowup_grid_matches_pointwise():
    p = oracles.Example1Params(a=1.0 + 1.0j, theta1=2.0, theta2=1.0, kappa=1)
    t_star = oracles.ex1_blowup_time(p)
    for nx, nt in ((41, 3), (61, 21)):
        grid = Grid.build(x_max=2.0, nx=nx, t_min=2.0 * t_star, t_max=0.0, nt=nt)
        x, t = _mesh(grid)
        singular = _assert_matches_pointwise(oracles.ex1_u, p, x, t)
        assert singular[grid.nx // 2, grid.nt // 2]


def test_ex1_blowup_set_flagged_off_the_grid_axes():
    """Every zero x = k pi / 2 of S at the blow-up time is flagged."""
    p = oracles.Example1Params(a=1.0 + 1.0j, theta1=2.0, theta2=1.0, kappa=1)
    t_star = oracles.ex1_blowup_time(p)
    x = np.array([-math.pi / 2.0, 0.0, math.pi / 2.0, 0.3])[:, None]
    t = np.array([t_star, 0.0])[None, :]
    x, t = np.broadcast_arrays(x, t)
    singular = _assert_matches_pointwise(oracles.ex1_u, p, x, t)
    assert singular.tolist() == [[True, False]] * 3 + [[False, False]]


@pytest.mark.parametrize("family", ["two", "three"])
def test_random_data_matches_pointwise(family):
    rng = np.random.default_rng(20261017)
    grid = Grid.build(x_max=1.5, nx=21, t_min=-0.3, t_max=0.3, nt=11)
    x, t = _mesh(grid)
    for _ in range(6):
        kappa = int(rng.integers(0, 2))
        if family == "two":
            p = oracles.Example2Params(
                a=_draw_a(rng), b=_draw_complex(rng, 0.4, 1.5),
                c=_draw_complex(rng, 0.4, 1.5), kappa=kappa,
            )
            _assert_matches_pointwise(oracles.ex2_u, p, x, t)
        else:
            p = oracles.Example3Params(
                a=_draw_a(rng), b1=_draw_complex(rng, 0.5, 1.5),
                b2=_draw_complex(rng, 0.5, 1.5), c=_draw_complex(rng, 0.5, 1.5),
                kappa=kappa,
            )
            _assert_matches_pointwise(oracles.ex3_u, p, x, t)


def test_singular_origin_flagged_for_ex2_and_ex3():
    """Focusing data whose denominators cancel at the origin."""
    grid = Grid.build(x_max=1.0, nx=11, t_min=-0.1, t_max=0.1, nt=5)
    x, t = _mesh(grid)
    origin = (grid.nx // 2, grid.nt // 2)
    p2 = oracles.Example2Params(a=1.0, b=1.0, c=1.0, kappa=1)
    assert _assert_matches_pointwise(oracles.ex2_u, p2, x, t)[origin]
    p3 = oracles.Example3Params(a=1.0, b1=0.6, b2=0.8, c=1.0, kappa=1)
    assert _assert_matches_pointwise(oracles.ex3_u, p3, x, t)[origin]


def test_value_shapes_on_a_grid():
    x = np.linspace(-1.0, 1.0, 5)[:, None]
    t = np.linspace(-0.1, 0.1, 3)[None, :]
    p3 = oracles.Example3Params(a=1.0, b1=2.0, b2=1.0, c=1.0, kappa=0)
    values, singular = oracles.ex3_u(p3, x, t)
    assert values.shape == (5, 3, 2, 1)
    assert singular.shape == (5, 3) and not singular.any()
    p1 = oracles.Example1Params(a=1.0, theta1=2.0, theta2=1.0, kappa=0)
    values, singular = oracles.ex1_u(p1, x, t)
    assert values.shape == singular.shape == (5, 3)


def test_s_and_dets_broadcast():
    p1 = oracles.Example1Params(a=0.8 + 0.2j, theta1=1.5, theta2=0.7j, kappa=1)
    p2 = oracles.Example2Params(a=1.0 - 0.3j, b=1.0, c=0.5j, kappa=0)
    x = np.linspace(-1.0, 1.0, 7)[:, None]
    t = np.linspace(-0.2, 0.2, 4)[None, :]
    s = oracles.ex1_S(p1, x, t)
    det = oracles.ex2_detS(p2, x, t)
    for k, l in np.ndindex(s.shape):
        xs, ts = float(x[k, 0]), float(t[0, l])
        s_point = oracles.ex1_S(p1, xs, ts)
        det_point = oracles.ex2_detS(p2, xs, ts)
        assert s[k, l] == pytest.approx(s_point, rel=RELATIVE_GAP)
        assert det[k, l] == pytest.approx(det_point, rel=RELATIVE_GAP)
