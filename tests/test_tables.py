"""Direct checks of the piecewise-cubic table layer."""

import numpy as np
import pytest

from szscatter._tables import build_segment_table, eval_table, segment_plan


def test_table_matches_smooth_fields():
    fields = [np.cos, lambda x: np.exp(0.3 * x), lambda x: x**3 - x]
    table = build_segment_table(fields, -2.0, 3.0, False, False, 1e-3)
    rng = np.random.default_rng(11)
    xs = rng.uniform(-2.0, 3.0, 200)
    for row, fn in enumerate(fields):
        got = eval_table(table, row, xs)
        np.testing.assert_allclose(got, fn(xs), atol=1e-12)


def test_table_constant_row_is_exact():
    table = build_segment_table([2.5, np.sin], 0.0, 1.0, False, False, 1e-2)
    xs = np.linspace(0.0, 1.0, 37)
    assert np.all(eval_table(table, 0, xs) == 2.5)


def test_table_cubic_fields_are_exact_to_rounding():
    # Cubic splines reproduce cubics; only rounding remains.
    table = build_segment_table([lambda x: 1.0 + 2.0 * x], -1.0, 1.0,
                                False, False, 1e-2)
    xs = np.linspace(-1.0, 1.0, 101)
    np.testing.assert_allclose(eval_table(table, 0, xs), 1.0 + 2.0 * xs,
                               atol=5e-15)


def test_nudged_sampling_takes_one_sided_limits():
    def step(x):
        xv = np.asarray(x)
        return np.where(xv >= 0.0, 1.0, -1.0)

    # Segment ending exactly on the jump: the right-end knot must carry
    # the limit from inside (the left), not the value at the jump.
    table = build_segment_table([step], -1.0, 0.0, False, True, 1e-2)
    assert eval_table(table, 0, -1e-9) == pytest.approx(-1.0, abs=1e-6)
    assert eval_table(table, 0, 0.0) == pytest.approx(-1.0, abs=1e-6)


def test_segment_plan_assigns_edge_stops_to_the_segment_left():
    edges = [-2.0, -0.5, 0.5, 2.0]
    forward = list(segment_plan(edges, -2.0, [-0.5, 0.0, 2.0]))
    assert forward == [(0, -2.0, [-0.5, -0.5], 1),
                       (1, -0.5, [0.0, 0.5], 1),
                       (2, 0.5, [2.0], 1)]
    backward = list(segment_plan(edges, 2.0, [0.5, -1.0]))
    assert backward == [(2, 2.0, [0.5, 0.5], 1),
                        (1, 0.5, [-0.5], 0),
                        (0, -0.5, [-1.0], 1)]
    # A walk that starts on an edge runs in the segment it moves into.
    assert [j for j, *_ in segment_plan(edges, 0.5, [1.0])] == [2]
    assert [j for j, *_ in segment_plan(edges, 0.5, [0.0])] == [1]
