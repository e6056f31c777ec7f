"""Exact Hilbert dimensions of a complex's cohomology by linear algebra.

Independent of `ttgkit.groebner`: the complex is read only through its
generator degrees and differential entries.  In total degree n the complex is
the finite-dimensional space F_n spanned by (generator i, monomial of weight
n - deg i), the differential is a matrix D_n: F_n -> F_{n+1}, and

    dim H^n = dim F_n - rank D_n - rank D_{n-1}.

Ranks are computed exactly, by sparse Gaussian elimination over Q (Fraction).
"""

from fractions import Fraction

from gen import monomials


class ComplexRanks:
    """Memoized dim F_n and rank D_n for one complex over Q."""

    def __init__(self, complex_, variables):
        self.degrees = complex_.degrees
        self.rows = [[(j, tuple(e), Fraction(c)) for j, p in row for e, c in p.terms.items()]
                     for row in complex_.rows]
        self.variables = variables
        self._mons = {}
        self._cache = {}

    def _monomials(self, weight):
        if weight not in self._mons:
            self._mons[weight] = monomials(self.variables, weight)
        return self._mons[weight]

    def dim_and_rank(self, n):
        """(dim F_n, rank of D_n: F_n -> F_{n+1})."""
        if n not in self._cache:
            index = {}
            matrix = []
            for i, d in enumerate(self.degrees):
                for m in self._monomials(n - d):
                    row = {}
                    for j, e, c in self.rows[i]:
                        key = (j, tuple(a + b for a, b in zip(m, e)))
                        col = index.setdefault(key, len(index))
                        row[col] = row.get(col, 0) + c
                    matrix.append(row)
            self._cache[n] = (len(matrix), rank(matrix))
        return self._cache[n]

    def hilbert(self, n):
        dim, rank_n = self.dim_and_rank(n)
        return dim - rank_n - self.dim_and_rank(n - 1)[1]


def rank(rows):
    """Rank of a sparse matrix given as a list of {column: Fraction} rows."""
    pivots = {}
    count = 0
    for row in rows:
        work = {c: v for c, v in row.items() if v}
        while work:
            col = max(work)
            pivot = pivots.get(col)
            if pivot is None:
                inv = 1 / work[col]
                pivots[col] = {c: v * inv for c, v in work.items()}
                count += 1
                break
            factor = work[col]
            for c, v in pivot.items():
                value = work.get(c, 0) - factor * v
                if value:
                    work[c] = value
                else:
                    work.pop(c, None)
    return count
