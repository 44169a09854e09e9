"""Dense reference for the sparse-matrix tests: a matrix is a list of rows
of floats, a vector a list of floats.

The quad-tree, NZD and CSR kernels are checked against these plain
loops, which share no code with them.
"""


def random_dense(rng, n_rows, n_cols, density):
    """Rows of values in [0, 1) rounded to 3 decimals, each cell non-zero
    with probability ``density``; ``rng`` is a ``random.Random``."""
    return [[round(rng.random(), 3) if rng.random() < density else 0.0
             for _ in range(n_cols)] for _ in range(n_rows)]


def dense_from_coo(n_rows, n_cols, entries):
    """The rows of ``(row, col, value)`` triples."""
    dense = [[0.0] * n_cols for _ in range(n_rows)]
    for r, c, v in entries:
        dense[r][c] = v
    return dense


def nonzero_entries(dense):
    """``(row, col, value)`` of every non-zero cell, row-major."""
    return [(r, c, v) for r, row in enumerate(dense)
            for c, v in enumerate(row) if v != 0]


def linspace(start, stop, n):
    """``n`` evenly spaced values from ``start`` to ``stop`` inclusive."""
    step = (stop - start) / (n - 1)
    return [start + i * step for i in range(n - 1)] + [stop]


def matvec(dense, x):
    """``dense @ x``."""
    return [sum(v * x[c] for c, v in enumerate(row)) for row in dense]


def transpose(dense):
    return [list(col) for col in zip(*dense)]


def add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scale(alpha, dense):
    return [[alpha * v for v in row] for row in dense]


def allclose(a, b, rtol=1e-5, atol=1e-8):
    """``numpy.allclose`` with its default tolerances, over equal-shaped
    vectors or lists of rows (no broadcasting)."""
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if isinstance(x, list) or isinstance(y, list):
            if not (isinstance(x, list) and isinstance(y, list)
                    and allclose(x, y, rtol, atol)):
                return False
        elif not abs(x - y) <= atol + rtol * abs(y):
            return False
    return True
