"""The stub of the removed spline tables, kept for perfbench.

No route builds a table.  perfbench's tracer wraps build_segment_table
and finds this module in sys.modules, so the package's __init__ imports
it although no module calls the stub.
"""


def build_segment_table(*args, **kwargs):
    """Removed: no route builds a table.  The stub stays only because
    perfbench's tracer wraps this name."""
    raise NotImplementedError("spline tables were removed")
