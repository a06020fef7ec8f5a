"""scipy.sparse as the reference for the package's own CSR matrices.

The package itself never imports scipy; tests that want a dense view of
a matrix, or scipy's answer to compare against, go through here.
"""

import numpy as np
import scipy.sparse as sp


def to_scipy(m) -> sp.csr_matrix:
    """The same arrays, in the same entry order, as a scipy matrix."""
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)


def dense(m) -> np.ndarray:
    return to_scipy(m).toarray()
