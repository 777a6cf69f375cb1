"""Exact sparse matrix sums and products for the seminormal checks.

A matrix is a dict of rows {i: {j: value}} holding only nonzero entries, so
two matrices are equal exactly when their dicts are.  A seminormal generator
has at most two nonzeros per row, so a product with one costs O(dim) exact
operations instead of the O(dim^3) of a dense product.
"""


def sparse(entries) -> dict:
    """Dict of rows from an {(i, j): value} entry map, zeros dropped."""
    rows: dict = {}
    for (i, j), v in entries.items():
        if v:
            rows.setdefault(i, {})[j] = v
    return rows


def identity(dim: int) -> dict:
    return {i: {i: 1} for i in range(dim)}


def add(a: dict, b: dict) -> dict:
    out = {i: dict(row) for i, row in a.items()}
    for i, brow in b.items():
        acc = out.setdefault(i, {})
        for j, w in brow.items():
            acc[j] = acc.get(j, 0) + w
    return sparse({(i, j): v for i, row in out.items() for j, v in row.items()})


def matmul(a: dict, b: dict) -> dict:
    out = {}
    for i, arow in a.items():
        acc: dict = {}
        for k, v in arow.items():
            for j, w in b.get(k, {}).items():
                acc[j] = acc.get(j, 0) + v * w
        acc = {j: v for j, v in acc.items() if v}
        if acc:
            out[i] = acc
    return out
