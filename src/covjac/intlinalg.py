"""Exact dense integer linear algebra.

Matrices are plain ``list[list[int]]`` of Python ints, so every routine is
exact at arbitrary precision.  Everything is dense and sized for the
desk-scale matrices this package produces (a few hundred rows at most).
Large determinants go through a CRT of word-size modular eliminations.
"""

from __future__ import annotations

import math

import numpy as np


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(a) -> list[list[int]]:
    return [list(col) for col in zip(*a)] if a else []


def matmul(a, b) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


# ---------------------------------------------------------------------------
# Smith normal form


def smith_normal_form_full(a):
    """Smith normal form with both transforms and their inverses.

    Returns ``(d, u, v, uinv, vinv)`` with ``u @ a @ v == d`` diagonal,
    entries nonnegative and satisfying ``d[i] | d[i+1]``, and u, v
    unimodular.  Pivoting always picks a minimal-absolute-value entry of
    the trailing submatrix, which keeps intermediate growth down.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(map(int, row)) for row in a]
    u = identity_matrix(m)
    uinv = identity_matrix(m)
    v = identity_matrix(n)
    vinv = identity_matrix(n)

    def row_add(i, j, c):
        di, dj = d[i], d[j]
        for k in range(n):
            di[k] += c * dj[k]
        ui, uj = u[i], u[j]
        for k in range(m):
            ui[k] += c * uj[k]
        for row in uinv:
            row[j] -= c * row[i]

    def col_add(i, j, c):
        for row in d:
            row[i] += c * row[j]
        for row in v:
            row[i] += c * row[j]
        vj, vi = vinv[j], vinv[i]
        for k in range(n):
            vj[k] -= c * vi[k]

    def row_swap(i, j):
        if i == j:
            return
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]
        for row in uinv:
            row[i], row[j] = row[j], row[i]

    def col_swap(i, j):
        if i == j:
            return
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def row_negate(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]
        for row in uinv:
            row[i] = -row[i]

    def clear(t):
        # Diagonalize position t against the trailing submatrix.  Returns
        # False when the submatrix is already zero.
        while True:
            pi = pj = -1
            best = 0
            for i in range(t, m):
                di = d[i]
                for j in range(t, n):
                    x = di[j]
                    if x and (pi < 0 or abs(x) < best):
                        pi, pj, best = i, j, abs(x)
                        if best == 1:
                            break
                if best == 1:
                    break
            if pi < 0:
                return False
            row_swap(t, pi)
            col_swap(t, pj)
            if d[t][t] < 0:
                row_negate(t)
            dirty = False
            p = d[t][t]
            for i in range(t + 1, m):
                if d[i][t]:
                    row_add(i, t, -(d[i][t] // p))
                    if d[i][t]:
                        dirty = True
            for j in range(t + 1, n):
                if d[t][j]:
                    col_add(j, t, -(d[t][j] // p))
                    if d[t][j]:
                        dirty = True
            if not dirty:
                return True

    rank = 0
    for t in range(min(m, n)):
        if not clear(t):
            break
        rank = t + 1

    # Enforce the divisibility chain.  Each fix merges two diagonal spots
    # into (gcd, lcm); restarting from the left keeps the pass simple, and
    # the guard bounds it.
    guard = 0
    t = 0
    while t + 1 < rank:
        if d[t + 1][t + 1] % d[t][t]:
            guard += 1
            if guard > 8 * rank * rank + 64:
                raise RuntimeError("divisibility fixup failed to converge")
            col_add(t, t + 1, 1)
            for tt in range(t, rank):
                clear(tt)
            t = 0
        else:
            t += 1
    return d, u, v, uinv, vinv


def smith_normal_form(a):
    """Return (d, u, v) with u @ a @ v = d in Smith normal form."""
    d, u, v, _, _ = smith_normal_form_full(a)
    return d, u, v


def snf_diagonal(a) -> list[int]:
    d, _, _, _, _ = smith_normal_form_full(a)
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


# ---------------------------------------------------------------------------
# Hermite form, lattice membership, kernels


def _echelon_insert(pivots, row, pivot_width, width):
    """Insert ``row`` into the echelon dict ``pivots`` (column -> row).

    Only the first ``pivot_width`` columns are eligible as pivots; returns
    the residual row once its pivot-eligible part is exhausted (or None if
    it was absorbed as a new pivot row).
    """
    while True:
        j = next((k for k in range(pivot_width) if row[k]), None)
        if j is None:
            return row
        if j in pivots:
            b = pivots[j]
            if row[j] % b[j] == 0:
                q = row[j] // b[j]
                row = [x - q * y for x, y in zip(row, b)]
            else:
                g, x, y = _xgcd(b[j], row[j])
                bq = b[j] // g
                rq = row[j] // g
                newb = [x * p + y * q for p, q in zip(b, row)]
                row = [bq * q - rq * p for p, q in zip(b, row)]
                pivots[j] = newb
        else:
            pivots[j] = row
            return None


def hermite_row_basis(rows, width: int | None = None) -> list[tuple[int, ...]]:
    """Canonical row-style Hermite basis of the lattice spanned by ``rows``.

    Pivots are positive with strictly increasing pivot columns, and every
    entry above a pivot is reduced into [0, pivot).  The output is the
    unique canonical basis, so two lattices coincide iff their bases
    compare equal.  Zero rows are dropped.
    """
    rows = [list(map(int, r)) for r in rows]
    if width is None:
        width = len(rows[0]) if rows else 0
    pivots: dict[int, list[int]] = {}
    for row in rows:
        _echelon_insert(pivots, row, width, width)
    cols = sorted(pivots)
    basis = [pivots[j] for j in cols]
    for i, row in enumerate(basis):
        if row[cols[i]] < 0:
            basis[i] = [-x for x in row]
    # Reduce above-pivot entries; ascending k keeps earlier columns intact
    # because basis[k] vanishes left of its own pivot.
    for i in range(len(basis) - 2, -1, -1):
        for k in range(i + 1, len(basis)):
            j = cols[k]
            q = basis[i][j] // basis[k][j]
            if q:
                basis[i] = [x - q * y for x, y in zip(basis[i], basis[k])]
    return [tuple(r) for r in basis]


def lattice_coordinates(basis, vec) -> list[int] | None:
    """Integer coefficients of ``vec`` in the lattice given by Hermite
    rows, one per row, or None when ``vec`` is not in the lattice."""
    v = list(map(int, vec))
    coords = []
    for row in basis:
        j = next(k for k, x in enumerate(row) if x)
        q, r = divmod(v[j], row[j])
        if r:
            return None
        if q:
            v = [x - q * y for x, y in zip(v, row)]
        coords.append(q)
    return None if any(v) else coords


def lattice_contains(basis, vec) -> bool:
    """Membership of an integer vector in the lattice given by Hermite rows."""
    return lattice_coordinates(basis, vec) is not None


def kernel_basis(a) -> list[tuple[int, ...]]:
    """Hermite basis of the integer kernel {x : a @ x = 0}."""
    m = len(a)
    n = len(a[0]) if m else 0
    if n == 0:
        return []
    pivots: dict[int, list[int]] = {}
    kernel = []
    for i in range(n):
        row = [a[r][i] for r in range(m)] + [1 if k == i else 0 for k in range(n)]
        residue = _echelon_insert(pivots, row, m, m + n)
        if residue is not None:
            kernel.append(residue[m:])
    return hermite_row_basis(kernel, n)


def kernel_mod(a, mods) -> list[tuple[int, ...]]:
    """Hermite basis of {x : (a @ x)_i == 0 mod mods[i]} (mods[i]=0: exact)."""
    m = len(a)
    n = len(a[0]) if m else 0
    aug_cols = [i for i, md in enumerate(mods) if md]
    full = [
        list(a[r]) + [mods[i] if r == i else 0 for i in aug_cols]
        for r in range(m)
    ]
    ker = kernel_basis(full)
    proj = [row[:n] for row in ker]
    return hermite_row_basis([p for p in proj if any(p)], n)


def hnf_is_full_unimodular(basis, dim: int) -> bool:
    """True iff the Hermite basis spans all of Z^dim."""
    if len(basis) != dim:
        return False
    return all(basis[i][i] == 1 for i in range(dim))


# ---------------------------------------------------------------------------
# Determinants


def det_bareiss(a) -> int:
    """Fraction-free exact determinant."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(map(int, row)) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k]), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            mi = m[i]
            mk = m[k]
            mik = mi[k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * pivot - mik * mk[j]) // prev
            mi[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def _is_small_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def _prime_stream():
    p = (1 << 24) - 1
    while p > 1 << 20:
        if _is_small_prime(p):
            yield p
        p -= 2


def _det_mod(arr: np.ndarray, p: int) -> int:
    a = arr.copy()
    n = a.shape[0]
    det = 1
    for k in range(n):
        col = a[k:, k]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            return 0
        piv = k + int(nz[0])
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            det = -det
        pk = int(a[k, k])
        det = det * pk % p
        if k + 1 < n:
            inv = pow(pk, -1, p)
            factors = (a[k + 1 :, k] * inv) % p
            a[k + 1 :, k:] = (a[k + 1 :, k:] - factors[:, None] * a[k, k:]) % p
    return det % p


def det_crt(a) -> int:
    """Exact determinant by CRT over word-size primes (entries < 2**31)."""
    n = len(a)
    if n == 0:
        return 1
    bound = 1
    for row in a:
        s = sum(x * x for x in row)
        if s == 0:
            return 0
        bound *= math.isqrt(s) + 1
    target = 2 * bound + 1
    arr = np.array(a, dtype=np.int64)
    if int(np.abs(arr).max(initial=0)) >= 1 << 31:
        return det_bareiss(a)
    residue, modulus = 0, 1
    for p in _prime_stream():
        r = _det_mod(arr % p, p)
        if modulus == 1:
            residue, modulus = r, p
        else:
            t = ((r - residue) * pow(modulus % p, -1, p)) % p
            residue += modulus * t
            modulus *= p
        if modulus >= target:
            break
    if residue > modulus // 2:
        residue -= modulus
    return residue


def det_exact(a) -> int:
    """Exact integer determinant; switches to modular CRT for large sizes."""
    return det_bareiss(a) if len(a) <= 60 else det_crt(a)
