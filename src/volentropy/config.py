"""Default tolerances and limits.

Math modules take these as keyword defaults; the CLI exposes overrides for
the user-facing ones.
"""

# Root finding: width of the final sign bracket in h times the longest edge
# length (a relative accuracy at any length scale), and the cap on radius
# evaluations per solve.
ROOT_TOL = 1e-12
ROOT_MAX_EVALUATIONS = 200

# Fixed-point residual threshold, measured on max-normalized vectors.
RESIDUAL_TOL = 1e-9

# Power iteration (on M plus a quarter of its Rayleigh quotient times I,
# from the first step): relative change between successive Rayleigh-quotient
# estimates, then the max-norm residual threshold, and the iteration cap.
# The two tolerances govern full-precision evaluations only: an intermediate
# Newton evaluation stops as soon as its Collatz-Wielandt bounds settle the
# side of 1.  POWER_RQ_TOL also bounds the dense inverse iteration's
# Collatz-Wielandt gap, max (Mx)/x - min (Mx)/x, relative to its upper end.
POWER_RQ_TOL = 1e-14
POWER_RESIDUAL_TOL = 1e-12
POWER_MAX_ITER = 10**6

# Dense matrices (shifted inverse iteration, np.linalg.solve) below this
# oriented edge count; from it up, a triplet operator with a numpy bincount
# product (power iteration).
DENSE_EDGE_LIMIT = 64

# Path-count oracle: default radius in integer grid units, number of fit
# points, and the refusal cap on DP grid cells.
ORACLE_R_MAX_GRID = 30
ORACLE_FIT_POINTS = 12
ORACLE_CELL_CAP = 10**9

# Random-metric minimality checks.
SAMPLE_COUNT = 200
SAMPLE_SEED = 0

# Covering inequality: gap below which the equality characterization is
# tested, and the relative spread allowed when recovering the scale factor.
EQUALITY_GAP_TOL = 1e-6
PROPORTIONALITY_TOL = 1e-6
