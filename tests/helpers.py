"""Data and oracles shared by the test modules."""

import itertools

import numpy as np

from torus_nls.lattice import SpectralField, TorusMetric

METRIC = TorusMetric((1.0, np.sqrt(2.0), np.sqrt(3.0)))


def random_field(M=2, seed=0, scale=1.0, metric=METRIC):
    """scale times complex Gaussian coefficients on [-M, M]^3, the real parts
    drawn from default_rng(seed) before the imaginary parts."""
    rng = np.random.default_rng(seed)
    nn = 2 * M + 1
    return SpectralField(metric, M, scale * (rng.standard_normal((nn,) * 3)
                                             + 1j * rng.standard_normal((nn,) * 3)))


def brute_v2(values):
    """V^2 norm as the supremum over all increasing index chains, the
    terminal value 0 appended."""
    a = list(values) + [0.0]
    n = len(a)
    best = 0.0
    for k in range(2, n + 1):
        for chain in itertools.combinations(range(n), k):
            best = max(best, sum(abs(a[chain[i + 1]] - a[chain[i]]) ** 2
                                 for i in range(k - 1)))
    return float(np.sqrt(best))
