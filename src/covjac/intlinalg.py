"""Exact integer linear algebra.

Matrices are plain ``list[list[int]]`` of Python ints, so every routine is
exact at arbitrary precision.  Storage is dense and sized for the
desk-scale matrices this package produces (a few hundred rows at most).
Determinants above 60 x 60 go through a CRT of eliminations modulo
primes just below 2**31, each confined to the band that a reverse
Cuthill-McKee ordering gives the matrix.
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


# Deterministic below this bound with bases 2, 3, 5, 7: it is the least
# strong pseudoprime to all four (Pomerance-Selfridge-Wagstaff 1980).
MILLER_RABIN_LIMIT = 3_215_031_751


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test on bases 2, 3, 5, 7.

    Exact for n < MILLER_RABIN_LIMIT; larger n raise ValueError rather
    than get an answer that could be wrong.
    """
    if n >= MILLER_RABIN_LIMIT:
        raise ValueError(
            f"{n} is beyond the deterministic primality range "
            f"(below {MILLER_RABIN_LIMIT})"
        )
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in (2, 3, 5, 7):
        x = pow(base, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Primes below 2**31 in descending order, grown on demand and kept for
# later calls.  Residues stay below 2**31, so a product of two stays
# below 2**62 and int64 elimination never overflows.
_CRT_PRIMES: list[int] = []


def _crt_primes():
    i = 0
    while True:
        if i == len(_CRT_PRIMES):
            p = _CRT_PRIMES[-1] - 2 if _CRT_PRIMES else (1 << 31) - 1
            while not is_prime(p):
                p -= 2
            _CRT_PRIMES.append(p)
        yield _CRT_PRIMES[i]
        i += 1


def _rcm_order(pattern: np.ndarray) -> list[int]:
    """Reverse Cuthill-McKee ordering of a symmetric boolean pattern.

    Each connected component is searched breadth first from a vertex of
    least degree, visiting neighbours by increasing degree; the whole
    order is then reversed.
    """
    n = pattern.shape[0]
    adj = [[w for w in np.flatnonzero(row).tolist() if w != v]
           for v, row in enumerate(pattern)]
    deg = [len(nb) for nb in adj]
    placed = [False] * n
    order: list[int] = []
    for start in sorted(range(n), key=deg.__getitem__):
        if placed[start]:
            continue
        placed[start] = True
        head = len(order)
        order.append(start)
        while head < len(order):
            nbrs = [w for w in adj[order[head]] if not placed[w]]
            head += 1
            nbrs.sort(key=deg.__getitem__)
            for w in nbrs:
                placed[w] = True
            order.extend(nbrs)
    return order[::-1]


def det_crt(a) -> int:
    """Exact determinant by CRT over primes just below 2**31.

    Rows and columns are permuted alike by a reverse Cuthill-McKee
    ordering of the nonzero pattern of A + A^T, which leaves the
    determinant unchanged and gathers a sparse matrix into a band with
    lower and upper bandwidths kl and ku.  Modulo each prime, Gaussian
    elimination with partial pivoting then works inside the band only:
    the pivot is sought in the kl rows below the diagonal, and row swaps
    widen the upper band to at most kl + ku (Golub-Van Loan, Matrix
    Computations, 4.3.5).  Each update is cut to the rows down to the
    last nonzero of the pivot column and the columns up to the last
    nonzero of the pivot row; the rest of the window is zero there.  A
    dense matrix has kl = ku = n - 1 and runs the same loop over the
    whole trailing submatrix.  A column with no nonzero entry in the
    window makes the residue 0, which is a valid residue.  Primes are
    taken until their product exceeds twice the Hadamard bound.
    Entries that do not fit in int64 go to Bareiss instead.
    """
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
    try:
        arr = np.array(a, dtype=np.int64)
    except OverflowError:
        return det_bareiss(a)
    nonzero = arr != 0
    perm = _rcm_order(nonzero | nonzero.T)
    arr = arr[np.ix_(perm, perm)]
    rows, cols = np.nonzero(arr)
    kl = max(0, int((rows - cols).max()))
    ku = max(0, int((cols - rows).max()))
    residue, modulus = 0, 1
    for p in _crt_primes():
        w = arr % p
        r = 1
        for k in range(n):
            below = min(n, k + kl + 1)
            right = min(n, k + kl + ku + 1)
            nz = np.flatnonzero(w[k:below, k])
            if nz.size == 0:
                r = 0
                break
            piv = k + int(nz[0])
            if piv != k:
                w[[k, piv], k:right] = w[[piv, k], k:right]
                r = -r
            pk = int(w[k, k])
            r = r * pk % p
            last = k + int(nz[-1]) + 1
            if last > k + 1:
                end = k + int(np.flatnonzero(w[k, k:right])[-1]) + 1
                f = w[k + 1 : last, k] * pow(pk, -1, p) % p
                w[k + 1 : last, k:end] = (
                    w[k + 1 : last, k:end] - f[:, None] * w[k, k:end]
                ) % p
        r %= p
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
