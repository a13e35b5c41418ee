"""Exact arithmetic in integral group rings of finite abelian groups.

Group elements are enumerated lexicographically by exponent vector with
the first generator most significant, so index 0 is always the identity.
That fixed enumeration is part of the data contract: Hermite bases of
ideal lattices are only comparable when produced under the same ordering.

Two rings appear throughout: the integral group ring itself (tag ``"R"``)
and its quotient by the principal ideal generated by the full norm
element (tag ``"Rbar"``).  An element of the quotient is stored by the
canonical representative whose coefficient at the identity is zero, which
makes the quotient a free Z-module on the non-identity group elements.
"""

from __future__ import annotations

import cmath
import math

from .errors import ResourceLimitError, RingMismatchError
from .intlinalg import hermite_row_basis, lattice_contains

R = "R"
RBAR = "Rbar"

_MUL_TABLE_LIMIT = 256
MINOR_STATE_BUDGET = 1 << 13  # every determinant up to 13 x 13 fits


class FinAbGroup:
    """Finite abelian group given as a product of cyclic factors.

    ``orders`` may contain 1s and may be empty (the trivial group).  The
    ``l``-th distinguished generator is the element with exponent vector
    ``e_l``.
    """

    __slots__ = ("orders", "size", "_strides", "_mul_table", "_inv_table")

    def __init__(self, orders):
        orders = tuple(int(n) for n in orders)
        if any(n < 1 for n in orders):
            raise ValueError("cyclic factor orders must be >= 1")
        self.orders = orders
        self.size = math.prod(orders) if orders else 1
        strides = []
        acc = 1
        for n in reversed(orders):
            strides.append(acc)
            acc *= n
        self._strides = tuple(reversed(strides))
        self._mul_table = None
        self._inv_table = None
        if self.size <= _MUL_TABLE_LIMIT:
            self._inv_table = tuple(
                self.index(tuple((-a) % n for a, n in zip(self.exps(i), orders)))
                for i in range(self.size)
            )

    def mul_table(self):
        """The multiplication table, built on first use by a group-ring
        product or translate; None above _MUL_TABLE_LIMIT elements.  Until
        it exists, ``mul`` adds exponent vectors instead, so building a
        derived graph never pays for the |G|^2 table."""
        if self._mul_table is None and self.size <= _MUL_TABLE_LIMIT:
            elems = range(self.size)
            self._mul_table = tuple(tuple(self.mul(i, j) for j in elems) for i in elems)
        return self._mul_table

    @property
    def num_factors(self) -> int:
        return len(self.orders)

    @property
    def identity(self) -> int:
        return 0

    def index(self, exps) -> int:
        return sum(e % n * s for e, n, s in zip(exps, self.orders, self._strides))

    def exps(self, idx: int) -> tuple[int, ...]:
        out = []
        for n, s in zip(self.orders, self._strides):
            out.append((idx // s) % n)
        return tuple(out)

    def mul(self, i: int, j: int) -> int:
        table = self._mul_table
        if table is not None:
            return table[i][j]
        out = 0
        for n, s in zip(self.orders, self._strides):
            out += (i // s + j // s) % n * s
        return out

    def inv(self, i: int) -> int:
        if self._inv_table is not None:
            return self._inv_table[i]
        return self.index(tuple((-a) % n for a, n in zip(self.exps(i), self.orders)))

    def power(self, i: int, k: int) -> int:
        return self.index(tuple(a * k % n for a, n in zip(self.exps(i), self.orders)))

    def generator(self, l: int) -> int:
        exps = [0] * len(self.orders)
        exps[l] = 1 % self.orders[l]
        return self.index(exps)

    def generators(self) -> list[int]:
        return [self.generator(l) for l in range(len(self.orders))]

    def element_order(self, i: int) -> int:
        out = 1
        for a, n in zip(self.exps(i), self.orders):
            out = math.lcm(out, n // math.gcd(a, n))
        return out

    def elements(self):
        return range(self.size)

    def __eq__(self, other):
        return isinstance(other, FinAbGroup) and self.orders == other.orders

    def __hash__(self):
        return hash(("FinAbGroup", self.orders))

    def __repr__(self):
        return f"FinAbGroup{self.orders}"


class CayleyGroup:
    """Opaque finite group given by a multiplication table; 0 is the identity.

    Only the operations needed to derive covering graphs are provided.
    """

    __slots__ = ("size", "_table", "_inv")

    def __init__(self, table):
        table = tuple(tuple(int(x) for x in row) for row in table)
        n = len(table)
        if any(len(row) != n for row in table):
            raise ValueError("multiplication table must be square")
        for i in range(n):
            if table[0][i] != i or table[i][0] != i:
                raise ValueError("row 0 / column 0 must be the identity")
            if sorted(table[i]) != list(range(n)):
                raise ValueError("table rows must be permutations")
        inv = [None] * n
        for i in range(n):
            for j in range(n):
                if table[i][j] == 0:
                    inv[i] = j
        if any(v is None for v in inv):
            raise ValueError("every element needs an inverse")
        self.size = n
        self._table = table
        self._inv = tuple(inv)

    @property
    def identity(self) -> int:
        return 0

    def mul(self, i, j):
        return self._table[i][j]

    def inv(self, i):
        return self._inv[i]

    def elements(self):
        return range(self.size)


class GroupRingElement:
    """Element of Z[G] (ring "R") or of its norm quotient (ring "Rbar")."""

    __slots__ = ("group", "ring", "coeffs")

    def __init__(self, group: FinAbGroup, coeffs, ring: str = R):
        if ring not in (R, RBAR):
            raise ValueError(f"unknown ring tag {ring!r}")
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != group.size:
            raise ValueError("coefficient vector length must equal the group order")
        if ring == RBAR and coeffs[0]:
            c0 = coeffs[0]
            coeffs = tuple(c - c0 for c in coeffs)
        self.group = group
        self.ring = ring
        self.coeffs = coeffs

    # -- ring structure -----------------------------------------------------

    def _compat(self, other: "GroupRingElement"):
        if self.group != other.group or self.ring != other.ring:
            raise RingMismatchError("operands live in different rings")

    def __add__(self, other):
        if isinstance(other, int):
            other = integer_multiple(self.group, other, self.ring)
        self._compat(other)
        return GroupRingElement(
            self.group, [a + b for a, b in zip(self.coeffs, other.coeffs)], self.ring
        )

    def __sub__(self, other):
        if isinstance(other, int):
            other = integer_multiple(self.group, other, self.ring)
        self._compat(other)
        return GroupRingElement(
            self.group, [a - b for a, b in zip(self.coeffs, other.coeffs)], self.ring
        )

    def __neg__(self):
        return GroupRingElement(self.group, [-a for a in self.coeffs], self.ring)

    def __mul__(self, other):
        if isinstance(other, int):
            return GroupRingElement(
                self.group, [a * other for a in self.coeffs], self.ring
            )
        self._compat(other)
        g = self.group
        out = [0] * g.size
        table = g._mul_table or g.mul_table()
        oc = other.coeffs
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            if table is not None:
                row = table[i]
                for j, b in enumerate(oc):
                    if b:
                        out[row[j]] += a * b
            else:
                for j, b in enumerate(oc):
                    if b:
                        out[g.mul(i, j)] += a * b
        return GroupRingElement(g, out, self.ring)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined here")
        out = one(self.group, self.ring)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, GroupRingElement)
            and self.group == other.group
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.group.orders, self.ring, self.coeffs))

    # -- structure maps -----------------------------------------------------

    def involution(self) -> "GroupRingElement":
        """The coefficient-wise pullback along g -> g^{-1}."""
        g = self.group
        out = [0] * g.size
        for i, c in enumerate(self.coeffs):
            if c:
                out[g.inv(i)] = c
        return GroupRingElement(g, out, self.ring)

    def translate(self, gidx: int) -> "GroupRingElement":
        """Multiplication by the group element with index ``gidx``."""
        g = self.group
        out = [0] * g.size
        table = g.mul_table()
        if table is not None:
            row = table[gidx]
        else:
            row = [g.mul(gidx, i) for i in g.elements()]
        for i, c in enumerate(self.coeffs):
            if c:
                out[row[i]] += c
        return GroupRingElement(g, out, self.ring)

    def augmentation(self) -> int:
        if self.ring != R:
            raise RingMismatchError("augmentation is defined on the full group ring")
        return sum(self.coeffs)

    def to_quotient(self) -> "GroupRingElement":
        return GroupRingElement(self.group, self.coeffs, RBAR)

    def lift(self) -> "GroupRingElement":
        """The canonical representative, viewed back in the full group ring."""
        return GroupRingElement(self.group, self.coeffs, R)

    def coordinates(self) -> tuple[int, ...]:
        """Coefficient coordinates used for ideal lattices."""
        if self.ring == RBAR:
            return self.coeffs[1:]
        return self.coeffs

    def __repr__(self):
        g = self.group
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
                continue
            mono = "*".join(
                f"g{l + 1}" + (f"^{e}" if e > 1 else "")
                for l, e in enumerate(g.exps(i))
                if e
            )
            if c == 1:
                terms.append(mono)
            elif c == -1:
                terms.append(f"-{mono}")
            else:
                terms.append(f"{c}*{mono}")
        body = " + ".join(terms).replace("+ -", "- ") if terms else "0"
        return f"<{body}>" if self.ring == R else f"<{body} mod norm>"


# ---------------------------------------------------------------------------
# Constructors and distinguished elements


def zero(group: FinAbGroup, ring: str = R) -> GroupRingElement:
    return GroupRingElement(group, [0] * group.size, ring)


def one(group: FinAbGroup, ring: str = R) -> GroupRingElement:
    c = [0] * group.size
    c[0] = 1
    return GroupRingElement(group, c, ring)


def integer_multiple(group: FinAbGroup, n: int, ring: str = R) -> GroupRingElement:
    c = [0] * group.size
    c[0] = n
    return GroupRingElement(group, c, ring)


def group_element(group: FinAbGroup, idx: int, ring: str = R) -> GroupRingElement:
    c = [0] * group.size
    c[idx] = 1
    return GroupRingElement(group, c, ring)


def element_from_coords(group: FinAbGroup, coords, ring: str = R) -> GroupRingElement:
    """Inverse of ``GroupRingElement.coordinates`` for the given ring."""
    if ring == RBAR:
        return GroupRingElement(group, (0, *coords), ring)
    return GroupRingElement(group, coords, ring)


def offset_of(group: FinAbGroup, gidx: int) -> GroupRingElement:
    """g - 1 for the group element with index ``gidx``."""
    c = [0] * group.size
    c[gidx] += 1
    c[0] -= 1
    return GroupRingElement(group, c, R)


def cyclic_norm_of(group: FinAbGroup, gidx: int, order: int) -> GroupRingElement:
    """1 + g + ... + g^{order-1}."""
    c = [0] * group.size
    for k in range(order):
        c[group.power(gidx, k)] += 1
    return GroupRingElement(group, c, R)


def derivative_of(group: FinAbGroup, gidx: int, order: int) -> GroupRingElement:
    """g + 2 g^2 + ... + (order-1) g^{order-1}.

    Satisfies (g - 1) * derivative = order - cyclic_norm, the identity the
    shifted Fitting ideal computations lean on.
    """
    c = [0] * group.size
    for k in range(1, order):
        c[group.power(gidx, k)] += k
    return GroupRingElement(group, c, R)


def gen_minus_one(group: FinAbGroup, l: int) -> GroupRingElement:
    return offset_of(group, group.generator(l))


def cyclic_norm(group: FinAbGroup, l: int) -> GroupRingElement:
    return cyclic_norm_of(group, group.generator(l), group.orders[l])


def derivative_element(group: FinAbGroup, l: int) -> GroupRingElement:
    return derivative_of(group, group.generator(l), group.orders[l])


def norm_element(group: FinAbGroup) -> GroupRingElement:
    """Sum of all group elements (the product of the cyclic norms)."""
    return GroupRingElement(group, [1] * group.size, R)


def norm_scaled_derivative(
    group: FinAbGroup, l: int, generators=None, orders=None
) -> GroupRingElement:
    """Product of the norms before position l, the derivative at l, and the
    plain integer orders after l."""
    if generators is None:
        generators = group.generators()
    if orders is None:
        orders = group.orders
    out = derivative_of(group, generators[l], orders[l])
    for k in range(l):
        out = out * cyclic_norm_of(group, generators[k], orders[k])
    tail = math.prod(orders[l + 1 :], start=1)
    if tail != 1:
        out = out * tail
    return out


def validate_decomposition(group: FinAbGroup, gen_indices, orders) -> bool:
    """Check that the listed elements give a direct-product decomposition."""
    if math.prod(orders, start=1) != group.size:
        return False
    for g, n in zip(gen_indices, orders):
        if group.element_order(g) != n:
            return False
    # The exponent map Z^s -> group must have kernel exactly prod(n_l Z).
    cols = [group.exps(g) for g in gen_indices]
    mat = [[cols[j][r] for j in range(len(gen_indices))] for r in range(group.num_factors)]
    from .intlinalg import kernel_mod

    ker = kernel_mod(mat, group.orders)
    expected = hermite_row_basis(
        [[n if i == j else 0 for j in range(len(orders))] for i, n in enumerate(orders)]
    )
    return ker == expected


# ---------------------------------------------------------------------------
# Determinants over the group ring


def nonzero_minors(rows, k: int, one_elt):
    """Yield every nonzero k x k minor of a matrix over a commutative ring.

    Entries need only ``*``, ``+``, unary ``-`` and ``bool`` (false
    exactly on the ring's zero).  A depth-first walk over ascending row
    subsets carries, for the rows chosen so far, the table column mask ->
    minor on those rows and columns; a child extends its parent's table
    by one row, so row subsets with a common prefix share that work.  A
    node whose minors all vanish is dropped with its subtree, since by
    Laplace expansion along its rows every minor below it vanishes too.
    At depth k the table holds the nonzero minors on every column subset.

    Raises ResourceLimitError once the tables along the walk hold more
    than MINOR_STATE_BUDGET partial minors.
    """
    if k == 0:
        yield one_elt
        return
    nrows = len(rows)
    entries = [[(1 << j, e, -e) for j, e in enumerate(row) if e] for row in rows]
    held = 0

    def walk(table, start, depth):
        nonlocal held
        for r in range(start, nrows - k + depth + 1):
            cur: dict = {}
            for mask, val in table.items():
                for bit, e, neg in entries[r]:
                    if mask & bit:
                        continue
                    # the sign counts chosen columns right of this one
                    term = val * (neg if (mask // bit).bit_count() & 1 else e)
                    acc = cur.get(mask | bit)
                    cur[mask | bit] = term if acc is None else acc + term
            cur = {m: v for m, v in cur.items() if v}
            if not cur:
                continue
            if held + len(cur) > MINOR_STATE_BUDGET:
                raise ResourceLimitError(
                    f"partial minors exceed the budget of {MINOR_STATE_BUDGET}"
                )
            if depth + 1 == k:
                yield from cur.values()
            else:
                held += len(cur)
                yield from walk(cur, r + 1, depth + 1)
                held -= len(cur)

    yield from walk({0: one_elt}, 0, 0)


def _det_berkowitz(rows, zero_elt, one_elt):
    # Division-free characteristic-polynomial recursion; safe in the
    # presence of zero divisors.
    def charvec(a):
        k = len(a)
        if k == 0:
            return [one_elt]
        if k == 1:
            return [one_elt, -a[0][0]]
        sub = [row[1:] for row in a[1:]]
        tv = charvec(sub)
        r = a[0][1:]
        w = [row[0] for row in a[1:]]
        items = [one_elt, -a[0][0]]
        for step in range(k - 1):
            dot = zero_elt
            for x, y in zip(r, w):
                dot = dot + x * y
            items.append(-dot)
            if step < k - 2:
                w = [
                    _sum_elements([row[j] * w[j] for j in range(k - 1)], zero_elt)
                    for row in sub
                ]
        out = []
        for i in range(k + 1):
            s = zero_elt
            for j in range(len(tv)):
                if 0 <= i - j < len(items):
                    s = s + items[i - j] * tv[j]
            out.append(s)
        return out

    n = len(rows)
    t = charvec(rows)[n]
    return t if n % 2 == 0 else -t


def _sum_elements(elts, zero_elt):
    out = zero_elt
    for e in elts:
        out = out + e
    return out


def det_group_ring(rows) -> GroupRingElement:
    """Exact determinant of a square matrix over the group ring.

    Sizes up to 10 use the subset-sum expansion of ``nonzero_minors``
    (division-free, exponential but cheap at this scale); larger sizes
    switch to the Berkowitz recursion, which stays polynomial and never
    divides, so zero divisors in the quotient ring are harmless.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("determinant needs a nonempty matrix; use one() for rank 0")
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    sample = rows[0][0]
    g, ring = sample.group, sample.ring
    for row in rows:
        for x in row:
            if x.group != g or x.ring != ring:
                raise RingMismatchError("matrix entries must share one ring")
    z, o = zero(g, ring), one(g, ring)
    if n <= 10:
        return next(nonzero_minors(rows, n, o), z)
    return _det_berkowitz(rows, z, o)


# ---------------------------------------------------------------------------
# Characters (used as an independent numeric cross-check)


def all_characters(group: FinAbGroup):
    """Exponent tuples indexing the character group (same enumeration)."""
    return [group.exps(i) for i in range(group.size)]


def character_value(group: FinAbGroup, char_exps, elem_idx: int) -> complex:
    e = group.exps(elem_idx)
    angle = 0.0
    for k, a, n in zip(char_exps, e, group.orders):
        angle += 2.0 * math.pi * k * a / n
    return cmath.exp(1j * angle)


def evaluate_at_character(x: GroupRingElement, char_exps) -> complex:
    return sum(
        c * character_value(x.group, char_exps, i)
        for i, c in enumerate(x.coeffs)
        if c
    )


# ---------------------------------------------------------------------------
# Ideal lattices


class IdealLattice:
    """A (fractional) ideal of R or Rbar stored as an integer lattice.

    The lattice is the Z-span of the Hermite basis rows in coefficient
    coordinates (all group elements for R, the non-identity elements for
    Rbar), divided by a positive denominator.  The stored form is
    canonical, so equality of fractional ideals is literal equality of the
    stored data.
    """

    __slots__ = ("group", "ring", "basis", "denominator")

    def __init__(self, group, ring, rows, denominator=1, _canonical=False):
        if not isinstance(group, FinAbGroup):
            raise TypeError("ideal lattices require a finite abelian group")
        if denominator <= 0:
            raise ValueError("denominator must be positive")
        dim = group.size - 1 if ring == RBAR else group.size
        if _canonical:
            basis = tuple(tuple(r) for r in rows)
        else:
            basis = tuple(hermite_row_basis([r for r in rows if any(r)], dim))
        if basis:
            content = 0
            for row in basis:
                for x in row:
                    content = math.gcd(content, x)
            g = math.gcd(content, denominator)
            if g > 1:
                basis = tuple(tuple(x // g for x in row) for row in basis)
                denominator //= g
        else:
            denominator = 1
        self.group = group
        self.ring = ring
        self.basis = basis
        self.denominator = denominator

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_generators(cls, gens, denominator=1, group=None, ring=None):
        """Smallest fractional ideal containing gens / denominator.

        The Hermite basis grows one generator at a time, by the
        generator's translates.  A generator already in the lattice is
        skipped: the lattice is spanned by whole orbits, so it is stable
        under the group and holds the translates too.
        """
        gens = list(gens)
        if gens:
            group = gens[0].group
            ring = gens[0].ring
        if group is None or ring is None:
            raise ValueError("empty generator list needs explicit group and ring")
        dim = group.size - 1 if ring == RBAR else group.size
        basis: list = []
        for x in gens:
            if x.group != group or x.ring != ring:
                raise RingMismatchError("generators must share one ring")
            if lattice_contains(basis, x.coordinates()):
                continue
            orbit = [x.translate(gi).coordinates() for gi in group.elements()]
            basis = hermite_row_basis(basis + orbit, dim)
        return cls(group, ring, basis, denominator, _canonical=True)

    @classmethod
    def zero_ideal(cls, group, ring=R):
        return cls(group, ring, [], 1)

    @classmethod
    def unit_ideal(cls, group, ring=R):
        return cls.from_generators([one(group, ring)])

    # -- basic data -------------------------------------------------------

    @property
    def dimension(self) -> int:
        return self.group.size - 1 if self.ring == RBAR else self.group.size

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def is_zero(self) -> bool:
        return not self.basis

    @property
    def is_integral(self) -> bool:
        return self.denominator == 1

    def basis_elements(self):
        return [element_from_coords(self.group, row, self.ring) for row in self.basis]

    def __eq__(self, other):
        return (
            isinstance(other, IdealLattice)
            and self.group == other.group
            and self.ring == other.ring
            and self.denominator == other.denominator
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.group.orders, self.ring, self.denominator, self.basis))

    def __repr__(self):
        return (
            f"IdealLattice({self.ring}, rank={self.rank}, "
            f"denominator={self.denominator})"
        )

    # -- ideal arithmetic -------------------------------------------------

    def _compat(self, other):
        if self.group != other.group or self.ring != other.ring:
            raise RingMismatchError("ideals live in different rings")

    def __add__(self, other):
        self._compat(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        den = math.lcm(self.denominator, other.denominator)
        a = den // self.denominator
        b = den // other.denominator
        rows = [tuple(a * x for x in row) for row in self.basis]
        rows += [tuple(b * x for x in row) for row in other.basis]
        return IdealLattice(self.group, self.ring, rows, den)

    def __mul__(self, other):
        if isinstance(other, GroupRingElement):
            return self.scaled(other)
        self._compat(other)
        if self.is_zero or other.is_zero:
            return IdealLattice.zero_ideal(self.group, self.ring)
        mine = self.basis_elements()
        theirs = other.basis_elements()
        rows = [(x * y).coordinates() for x in mine for y in theirs]
        return IdealLattice(
            self.group, self.ring, rows, self.denominator * other.denominator
        )

    def scaled(self, elt: GroupRingElement):
        if elt.group != self.group or elt.ring != self.ring:
            raise RingMismatchError("scaling element lives in a different ring")
        rows = [(x * elt).coordinates() for x in self.basis_elements()]
        return IdealLattice(self.group, self.ring, rows, self.denominator)

    def scaled_by_int(self, n: int):
        if n == 0:
            return IdealLattice.zero_ideal(self.group, self.ring)
        num, den = abs(n), self.denominator
        g = math.gcd(num, den)
        rows = [tuple((num // g) * x for x in row) for row in self.basis]
        return IdealLattice(self.group, self.ring, rows, den // g)

    def contains_element(self, elt: GroupRingElement) -> bool:
        if elt.group != self.group or elt.ring != self.ring:
            raise RingMismatchError("membership test across rings")
        vec = [self.denominator * x for x in elt.coordinates()]
        return lattice_contains(self.basis, vec)

    def contains(self, other) -> bool:
        self._compat(other)
        return (self + other) == self

    def index(self, sub) -> int:
        """Lattice index [self : sub] of a full-rank sub-ideal: the ratio
        of the covolumes, read off the Hermite diagonals."""
        self._compat(sub)
        dim = self.dimension
        if sub.rank != dim or not self.contains(sub):
            raise ValueError("index needs a full-rank sub-ideal")
        num = math.prod(sub.basis[i][i] for i in range(dim)) * self.denominator ** dim
        den = math.prod(self.basis[i][i] for i in range(dim)) * sub.denominator ** dim
        return num // den

    def involution(self):
        g = self.group
        rows = [x.involution().coordinates() for x in self.basis_elements()]
        return IdealLattice(g, self.ring, rows, self.denominator)

    def check_gamma_stable(self) -> bool:
        """Every basis vector stays inside the lattice under the action."""
        for x in self.basis_elements():
            for l in range(self.group.num_factors):
                y = x.translate(self.group.generator(l))
                if not lattice_contains(self.basis, y.coordinates()):
                    return False
        return True

    def to_json(self) -> dict:
        return {
            "ring": self.ring,
            "orders": list(self.group.orders),
            "denominator": self.denominator,
            "hnf": [list(row) for row in self.basis],
        }
