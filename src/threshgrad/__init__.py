"""Thresholding gradient methods for separable sparsity-regularized
least squares.

Submodules:
    regularizers  intervals, scalar penalties, soft-thresholding, prox
    operators     least-squares term over a dense matrix, exact norm, CSV input
    solver        the forward-backward iteration, its trace and the trace CSV
    support       support / extended-support analytics and identification
    conditioning  polishing, uniqueness and growth certificates, sampled
                  growth constants, rate classification
    analysis      problem builders and `analyze` (solve, polish, support
                  report, rate fit and tail bound, growth certificate,
                  once each)
    cli           experiment runner (`threshgrad` console script)

Nothing is imported eagerly; pull what you need, e.g.
``from threshgrad.solver import Problem, run``.  `solver.run` takes the
step, budget, tolerance and start as keyword arguments, and `analysis.analyze`
passes them on.
"""

__version__ = "0.1.0"
