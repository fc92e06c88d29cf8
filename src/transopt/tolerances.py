"""Every numeric tolerance of transopt, one name per comparison it loosens.

The paper's algorithms are exact; these five absorb float rounding only,
and a closed form such as ``jeep.continuous_optimum`` needs none.  They are
constants: no option or environment variable sets them.  Visibility takes no
tolerance: a cross product within its rounding bound (``geometry.rounding_bound``,
computed from the input) has its sign computed exactly (``geometry.turn``).
"""

# absolute: cross products and coordinate gaps (``geometry.orientation``,
# ``geometry.on_segment``, polygon validation)
EPS = 1e-9
# relative: ``jeep.fdiv``, inline in ``jeep.eval_equal_fast`` and in the
# closed form of its run starts
DIV_TOL = 1e-9
# relative: ``threshold_search`` rejects a budget below the continuous
# optimum times (1 - BUDGET_SLACK), so rounding never rejects one some k meets
BUDGET_SLACK = 1e-9
# relative: ``oracles.jeep_simulate_plan``'s tank and delivery checks
REL_TOL = 1e-9
# relative: ``check``'s solver/oracle agreement, and the bracket width at
# which ``jeep-graph-binary`` stops
CHECK_EPS = 1e-6
