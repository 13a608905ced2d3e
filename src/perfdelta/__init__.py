"""perfdelta: statistically grounded detection of performance changes.

Measurement campaigns run workloads in isolated executor processes with
warmup, measurement iterations and in-iteration repetitions; decisions
between two versions use Welch's t-test, Mann-Whitney U or
confidence-interval overlap over per-VM means.  An analytic power model and
a resampling-based configuration tuner bound and optimize detectability.
"""
