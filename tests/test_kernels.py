"""Kernel checks: the Magnus step exponentials and their ordered product."""

import numpy as np
import pytest

from szscatter import _kernels


def _field_generator(fields, _, x):
    """Generator entries from five field callables, in the coefficient
    kernel's row order: phi', diagonal, rho1, rho2, phase."""
    ppr, dia, rh1, rh2, phase = (np.asarray(f(x), dtype=np.complex128)
                                 for f in fields)
    inv2 = 0.5 / ppr
    em = np.exp(-2j * phase)
    return (1j * dia * inv2, (rh1 + 1j * rh2) * em * inv2,
            (rh1 - 1j * rh2) / em * inv2)


def _random_fields(seed):
    # Piecewise-constant fields on 16 intervals of width 0.125 over [0, 2].
    rng = np.random.default_rng(seed)
    n_int = 16
    values = [1.0 + 0.2 * rng.random(n_int),                 # phi' > 0
              rng.normal(size=n_int),                        # diagonal
              rng.normal(size=n_int),                        # rho1
              rng.normal(size=n_int)]                        # rho2

    def piecewise(v):
        return lambda x: v[np.clip((x / 0.125).astype(np.int64), 0,
                                   n_int - 1)]

    return [*(piecewise(v) for v in values), lambda x: x]  # phase ~ x


def test_tree_product_matches_sequential_product():
    # Same generator, same step exponentials: the pairwise tree reduction
    # must agree with plain sequential left-multiplication.  333 steps is
    # odd, so the identity padding runs.
    fields = _random_fields(3)
    n = 333
    h = 2.0 / n
    steps = _kernels._magnus_steps(_field_generator, fields, None, 0.0, h, n)
    e = np.eye(2, dtype=np.complex128)
    for m11, m12, m21, m22 in zip(*steps):
        e = np.array([[m11, m12], [m21, m22]]) @ e
    got = _kernels.ordered_product(_field_generator, fields, None, 0.0, 2.0, n)
    for u, v in zip(got, e.ravel()):
        assert complex(u) == pytest.approx(complex(v), abs=1e-13)


def test_product_blocks_match_single_tree(monkeypatch):
    fields = _random_fields(4)
    whole = _kernels.ordered_product(_field_generator, fields, None,
                                     0.0, 2.0, 333)
    monkeypatch.setattr(_kernels, "PRODUCT_BLOCK", 64)
    blocked = _kernels.ordered_product(_field_generator, fields, None,
                                       0.0, 2.0, 333)
    for u, v in zip(whole, blocked):
        assert complex(u) == pytest.approx(complex(v), abs=1e-13)


def test_magnus_product_is_sixth_order():
    # A smooth cubic per field, so the generator is analytic over [0, 2]:
    # step doubling must shrink the Cauchy differences |E_2n - E_n| by
    # about 2^6.
    coeffs = ([0.0, 0.05, 0.1, 1.0], [0.1, -0.2, 0.3, 0.5],
              [0.0, 0.3, -0.4, 0.2], [-0.1, 0.0, 0.5, 0.7],
              [0.0, 0.0, 1.0, 0.0])
    fields = [lambda x, c=c: np.polyval(c, x) for c in coeffs]
    prods = [np.array(_kernels.ordered_product(_field_generator, fields, None,
                                               0.0, 2.0, n))
             for n in (8, 16, 32, 64, 128)]
    diffs = [np.max(np.abs(b - a)) for a, b in zip(prods, prods[1:])]
    for coarse, fine in zip(diffs, diffs[1:]):
        assert coarse / fine > 48.0


def test_step_exponential_is_unimodular():
    fields = [lambda x, c=c: np.full(x.shape, c)
              for c in (1.0, 0.7, -0.3, 1.1)] + [lambda x: x]
    e11, e12, e21, e22 = _kernels.ordered_product(_field_generator, fields,
                                                  None, 0.0, 2.0, 64)
    det = e11 * e22 - e12 * e21
    assert complex(det) == pytest.approx(1.0, abs=1e-12)


def test_warm_up_runs():
    _kernels.warm_up()
