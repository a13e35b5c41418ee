import itertools
import random

import numpy as np
import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

from covjac.covering import derived_graph
from covjac.graphs import build_graph, laplacian
from covjac.iwasawa import ZpVoltageGraph, layer_graph
from covjac.intlinalg import (
    MILLER_RABIN_LIMIT,
    _crt_primes,
    _rcm_order,
    det_bareiss,
    det_crt,
    det_exact,
    hermite_row_basis,
    hnf_is_full_unimodular,
    identity_matrix,
    is_prime,
    kernel_basis,
    kernel_mod,
    lattice_contains,
    lattice_coordinates,
    matmul,
    smith_normal_form_full,
    snf_diagonal,
    transpose,
)


def random_matrix(rng, rows, cols, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def test_snf_transforms_roundtrip():
    rng = random.Random(101)
    for _ in range(40):
        m = rng.randint(1, 5)
        n = rng.randint(0, 5)
        a = random_matrix(rng, m, n)
        d, u, v, uinv, vinv = smith_normal_form_full(a)
        assert matmul(matmul(u, a), v) == d
        assert matmul(u, uinv) == identity_matrix(m)
        assert matmul(v, vinv) == identity_matrix(n)
        diag = [d[i][i] for i in range(min(m, n))]
        assert all(x >= 0 for x in diag)
        for i in range(len(diag) - 1):
            if diag[i + 1]:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
            # zero may only follow zero or divide nothing


def test_snf_agrees_with_sympy():
    rng = random.Random(757)
    for _ in range(25):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = random_matrix(rng, m, n)
        mine = [x for x in snf_diagonal(a) if x not in (0,)]
        theirs = sympy.Matrix(a).rank()
        assert len([x for x in mine if x]) == theirs
        sm = smith_normal_form(sympy.Matrix(a))
        ref = sorted(abs(sm[i, i]) for i in range(min(m, n)) if sm[i, i])
        assert sorted(x for x in mine if x) == ref


def test_known_snf():
    d = snf_diagonal([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert d == [2, 2, 156]


def test_det_routes_agree():
    rng = random.Random(33)
    for _ in range(30):
        n = rng.randint(1, 6)
        a = random_matrix(rng, n, n, bound=20)
        ref = int(sympy.Matrix(a).det())
        assert det_bareiss([row[:] for row in a]) == ref
        assert det_crt(a) == ref
        assert det_exact(a) == ref


def test_det_big_entries():
    a = [[10**30, 3], [7, -(10**25)]]
    assert det_exact(a) == -(10**55) - 21
    # entries past int64 must not reach the numpy conversion
    assert det_crt(a) == -(10**55) - 21


def test_is_prime_against_sympy():
    rng = random.Random(61)
    numbers = list(range(-3, 2000))
    numbers += [rng.randrange(MILLER_RABIN_LIMIT) for _ in range(2000)]
    for n in numbers:
        assert is_prime(n) == sympy.isprime(n), n
    # strong pseudoprimes to bases 2; 2, 3; 2, 3, 5; 2, 3, 5, 7 (the last is the limit)
    for n in (2047, 1373653, 25326001):
        assert not is_prime(n)
    assert is_prime(MILLER_RABIN_LIMIT - 2) == sympy.isprime(MILLER_RABIN_LIMIT - 2)
    for n in (MILLER_RABIN_LIMIT, 2**61 - 1):
        with pytest.raises(ValueError):
            is_prime(n)


def test_crt_prime_table():
    primes = list(itertools.islice(_crt_primes(), 80))
    assert primes[0] == 2**31 - 1
    assert primes == sorted(set(primes), reverse=True)
    assert all(p < 2**31 and sympy.isprime(p) for p in primes)
    # the table is shared: a second walk reads the same primes
    assert list(itertools.islice(_crt_primes(), 80)) == primes


def test_rcm_order_recovers_band():
    # a cycle of 40 and a path of 30, relabelled at random: the ordering
    # must bring every nonzero back within two places of the diagonal
    rng = random.Random(90)
    n = 70
    edges = [(i, (i + 1) % 40) for i in range(40)] + [(i, i + 1) for i in range(40, 69)]
    labels = list(range(n))
    rng.shuffle(labels)
    pattern = np.eye(n, dtype=bool)
    for u, v in edges:
        pattern[labels[u], labels[v]] = pattern[labels[v], labels[u]] = True
    order = _rcm_order(pattern)
    assert sorted(order) == list(range(n))
    rows, cols = np.nonzero(pattern[np.ix_(order, order)])
    assert int(abs(rows - cols).max()) == 2


def _tree_minor(graph):
    return [row[1:] for row in laplacian(graph)[1:]]


def _random_multigraph(rng, n, extra):
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(extra)]
    return build_graph(n, edges)


@pytest.mark.parametrize("seed", range(4))
def test_band_det_multigraph_minors(seed):
    rng = random.Random(f"band:{seed}")
    n = rng.randint(62, 121)
    minor = _tree_minor(_random_multigraph(rng, n, rng.randint(0, n)))
    assert det_crt(minor) == det_bareiss(minor)


@pytest.mark.parametrize("p,voltages,layer", [
    (2, (1, 3), 6), (3, (1, -4), 4), (2, (1, 5, 2), 6),
])
def test_band_det_tower_layers(p, voltages, layer):
    nv = len(voltages) - 1
    edges = [(0, 0)] + [(v, v + 1) for v in range(nv - 1)] + [(0, nv - 1)]
    base = build_graph(nv, edges)
    zvg = ZpVoltageGraph(base, p, voltages)
    minor = _tree_minor(derived_graph(layer_graph(zvg, layer)).graph)
    assert 61 <= len(minor) <= 130
    assert det_crt(minor) == det_bareiss(minor)


@pytest.mark.parametrize("seed", range(3))
def test_band_det_sparse_nonsymmetric(seed):
    rng = random.Random(f"sparse:{seed}")
    n = rng.randint(61, 75)
    big = 2**31 - 1
    cols = list(range(n))
    rng.shuffle(cols)
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][cols[i]] = rng.randint(-big, big)
    for _ in range(3 * n):
        entry = rng.choice((-big, big, rng.randint(-big, big)))
        a[rng.randrange(n)][rng.randrange(n)] = entry
    assert det_crt(a) == det_bareiss(a) != 0


def test_band_det_dense():
    rng = random.Random(70)
    a = random_matrix(rng, 70, 70, bound=50)
    assert det_crt(a) == det_bareiss(a) != 0


def test_band_det_permuted_singular():
    rng = random.Random(80)
    n = 72
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(max(0, i - 2), min(n, i + 3)):
            a[i][j] = rng.randint(-9, 9)
    a[n - 1] = [x + y for x, y in zip(a[3], a[40])]
    perm = list(range(n))
    rng.shuffle(perm)
    shuffled = [[a[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    assert det_bareiss(shuffled) == 0
    assert det_crt(shuffled) == 0


def test_band_det_pivot_below_diagonal():
    # every diagonal entry is the first table prime, so modulo that
    # prime each leading entry vanishes and a row below must pivot
    p = next(_crt_primes())
    n = 66
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = p
        if i + 1 < n:
            a[i][i + 1] = 1
            a[i + 1][i] = -2
    a[0][n - 1] = 3
    assert det_crt(a) == det_bareiss(a) != 0


def test_hermite_canonical():
    rows = [[2, 4], [6, 8]]
    h1 = hermite_row_basis(rows, 2)
    h2 = hermite_row_basis([[6, 8], [2, 4], [8, 12]], 2)
    assert h1 == h2
    assert lattice_contains(h1, [2, 4])
    assert lattice_contains(h1, [6, 8])
    assert not lattice_contains(h1, [1, 0])
    coords = lattice_coordinates(h1, [6, 8])
    assert [sum(c * row[j] for c, row in zip(coords, h1)) for j in range(2)] == [6, 8]
    assert lattice_coordinates(h1, [1, 0]) is None


def test_kernel_basis():
    a = [[1, 2, 3], [2, 4, 6]]
    ker = kernel_basis(a)
    assert len(ker) == 2
    for v in ker:
        assert all(sum(r[j] * v[j] for j in range(3)) == 0 for r in a)


def test_kernel_mod():
    # x + 2y = 0 mod 4, solutions generated exactly
    ker = kernel_mod([[1, 2]], [4])
    for v in ker:
        assert (v[0] + 2 * v[1]) % 4 == 0
    assert lattice_contains(hermite_row_basis(ker, 2), [2, 1])
    assert not lattice_contains(hermite_row_basis(ker, 2), [1, 0])
    assert kernel_mod([], []) == []


def test_unimodular_check():
    assert hnf_is_full_unimodular([[1, 5], [0, 1]], 2)
    assert not hnf_is_full_unimodular([[2, 0], [0, 1]], 2)


def test_transpose_shape():
    assert transpose([[1, 2, 3]]) == [[1], [2], [3]]
    assert transpose([]) == []
