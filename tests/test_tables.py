"""Direct checks of the segment walker."""

from szscatter._tables import segment_plan


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
