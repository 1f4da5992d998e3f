"""Thresholding gradient methods for separable sparsity-regularized
least squares.

Submodules:
    regularizers  intervals, scalar penalties, soft-thresholding, prox
    operators     least-squares term over a dense matrix, norm estimate, data input
    solver        the forward-backward iteration and its trace
    support       support / extended-support analytics and identification
    conditioning  polishing, growth constants, rate classification
    cli           experiment runner (`threshgrad` console script)

Nothing is imported eagerly; pull what you need, e.g.
``from threshgrad.solver import Problem, SolverConfig, run``.  The `cli`
module relies on this to cap BLAS thread counts before numpy loads.
"""

__version__ = "0.1.0"
