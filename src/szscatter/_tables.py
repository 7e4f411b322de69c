"""Segment walking.

segment_plan splits a walk at the edges of the smooth segments; evolve and
transfer_matrix both walk with it.  Segments never straddle a
discontinuity.

No kernel reads a table: the Runge-Kutta loop and the panel product
evaluate their generator directly, and the gauge antiderivatives live on
the Chebyshev panels (_panels.antiderivative).  build_segment_table is a
stub that raises.
"""

from bisect import bisect_left, bisect_right


def build_segment_table(*args, **kwargs):
    """Removed: no route builds a table.  The stub stays only because
    perfbench's tracer wraps this name."""
    raise NotImplementedError("spline tables were removed")


def segment_plan(edges, start: float, stops):
    """Split a walk from start through ordered stops at the segment edges.

    Yields (j, x_enter, seg_stops, n_taken) in travel order, forward or
    backward: segment j is entered at x_enter and left at seg_stops[-1].
    The first n_taken entries of seg_stops are the caller's stops; when
    the walk goes on, the exit edge follows them.  A stop that lies on an
    edge belongs to the segment being left; the last stop ends the walk.
    """
    forward = stops[-1] >= start
    if forward:
        j = bisect_right(edges, start) - 1
    else:
        j = bisect_left(edges, start) - 1
    j = min(max(j, 0), len(edges) - 2)
    step = 1 if forward else -1
    x = start
    i = 0
    while True:
        exit_edge = edges[j + 1] if forward else edges[j]
        end = i
        while end < len(stops) and (stops[end] <= exit_edge if forward
                                    else stops[end] >= exit_edge):
            end += 1
        taken = list(stops[i:end])
        if end == len(stops):
            yield j, x, taken, len(taken)
            return
        yield j, x, taken + [exit_edge], len(taken)
        i = end
        x = exit_edge
        j += step
