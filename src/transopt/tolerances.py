"""Every numeric tolerance of transopt, one name per comparison it loosens.

The paper's algorithms are exact; these seven absorb float rounding only,
and a closed form such as ``jeep.continuous_optimum`` needs none.  They are
constants: no option or environment variable sets them.  The one tolerance
computed from the input, the rounding bound ``m * m * 2**-46`` that the
visibility pass adds to ``DEFER_TOL``, stays in ``visibility.visibility_matrix``.
"""

# absolute: cross products and coordinate gaps (``geometry.orientation``,
# ``geometry.on_segment``, polygon validation)
EPS = 1e-9
# visibility pair test and its reference: a segment piece between two touch
# points at most this long, in the segment's own parameter, is skipped
MIN_PIECE = 1e-12
# the fast visibility pass defers a funnel-walk row to the pair test when a
# cross product it decides on is this near zero (well clear of EPS)
DEFER_TOL = 1e-8
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
