"""Exact algebra: integer polynomials and integer matrices.

The one exact scalar is ``int``: matrices are integer matrices, charpolys
are monic over Z, and the reduced coronal num/den are integer polynomials by
Gauss's lemma, because den is monic. ``Poly`` and ``Matrix`` hold ints only,
and bools, floats, rationals and anything else are rejected, so nothing
silently leaves exact arithmetic; polynomial division fails where a quotient
coefficient is not an integer. The one rational value is what a reduced
coronal's ``CoronalTriple.eval`` (coronal.py) returns where it is not
integral. Coefficient vectors are stored lowest degree first with no
trailing zeros.

Ints are checked once, where they enter: ``Poly(...)`` and ``Matrix(...)``
check every entry's type. What the package computes from ints it already
holds (sums, products, quotients, gcds, derivatives and CRT lifts here, and
the graph matrices of graphs.py) is built by ``Poly._from_ints`` and
``Matrix._from_rows``, which skip that second pass; ``Poly._from_ints``
still trims trailing zeros.

Every characteristic polynomial, at every order, comes from one exact
kernel modulo word-size primes, lifted back to integers by CRT, in two
halves. The first takes the power sums tr(a^k), k <= n, from about
2 sqrt(n) float64 matrix products (baby-step/giant-step); its primes are
sized to the order n: the largest below 2^b, for the largest b with
n * (2^(b-1) + 2)^2 < 2^53, so every float sum is an exact integer (2^26
through order 7, 2^25 through order 31, 2^24 through order 127, 2^23
through order 511). It takes a batch of same-order matrices, reduces each
modulo one list of primes of the batch and runs all of them in one numpy
array, so many matrices cost a few numpy calls per product, not per
product and matrix. The second turns power sums into coefficients by
Newton's identities in int64, where the same bound keeps every sum of at
most n products below p^2 from wrapping; it runs once per call over the
power sums of all its batches, each column with its own prime and order.
One entry first folds each matrix by its twin rows, which splits off a
linear factor (x - lam) per folded row exactly, then groups the folded
matrices by order into such batches; a matrix given with a vector u also
puts its rank-one update in the batch, as the pair of vectors (u', w) that
the kernel forms the updated matrix from, and u^T adj(xI - a) u is lifted
from the difference of the two residues. Each folded matrix and each
update is keyed once per batch, and every result is read back by position.

Before the batch, a folded matrix with a scalar diagonal s loses it,
chi_a(x) = chi_(a - sI)(x - s), and a folded matrix of order
n >= _HALVED_MIN that is then [[0, B], [C, 0]] up to a permutation (a
bipartite graph, with a smaller side of m rows) goes to the kernel as BC,
of order m: chi(x) = x^(n-2m) chi_BC(x^2). Its vector goes as three
rank-one updates of BC, whose forms give u^T adj(xI - a) u through the
block inverse of xI - a (halving.py). Paths, even cycles, stars and
trees, the factors of the large products, are bipartite, and the kernel's
2 sqrt(n) products of n x n matrices per prime cost about 2^3.5 times
less at half the order.
"""
from __future__ import annotations

from collections import Counter
from itertools import chain, count
from math import comb, isqrt, prod
from math import gcd as _int_gcd
from numbers import Rational
from operator import mul
from typing import Iterable, Iterator, Sequence

import numpy as np

from .halving import _halved, _unhalved


_INT_ONLY = frozenset((int,))


def _exact_ints(xs: Iterable[int]) -> tuple[int, ...]:
    """xs as a tuple if every entry is an int.

    A bool, float, Fraction or anything else raises TypeError naming the first
    such entry. One pass over the entry types decides; only a failure scans again.
    """
    t = tuple(xs)
    if not _INT_ONLY.issuperset(map(type, t)):
        bad = next(x for x in t if type(x) is not int)
        raise TypeError(f"int expected, got {type(bad).__name__} {bad!r}")
    return t


def _trimmed(c: Sequence[int]) -> tuple[int, ...]:
    # c as a tuple without its trailing zeros
    k = len(c)
    while k and c[k - 1] == 0:
        k -= 1
    return tuple(c[:k])


class Poly:
    """Univariate polynomial with integer coefficients."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Iterable[int] = ()):
        self._c = _trimmed(_exact_ints(coeffs))

    @classmethod
    def _from_ints(cls, coeffs: Sequence[int]) -> "Poly":
        """The polynomial with these coefficients, lowest degree first, from
        ints the package computed: only trailing zeros are trimmed, and the
        type pass of __init__ is skipped."""
        p = cls.__new__(cls)
        p._c = _trimmed(coeffs)
        return p

    @classmethod
    def constant(cls, value: int) -> "Poly":
        return cls([value])

    @classmethod
    def x(cls) -> "Poly":
        return cls([0, 1])

    @classmethod
    def linear(cls, const: int, slope: int = 1) -> "Poly":
        """slope*x + const."""
        return cls([const, slope])

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coefficients, lowest degree first, no trailing zeros."""
        return self._c

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._c) - 1

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def leading(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._c[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self._c) and self._c[-1] == 1

    def coeff(self, k: int) -> int:
        return self._c[k] if 0 <= k < len(self._c) else 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self._c == other._c
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._c)

    def __bool__(self) -> bool:
        return bool(self._c)

    def __add__(self, other: "Poly | int") -> "Poly":
        o = other if isinstance(other, Poly) else Poly.constant(other)
        a, b = self._c, o._c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        return Poly._from_ints(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._from_ints([-x for x in self._c])

    def __sub__(self, other: "Poly | int") -> "Poly":
        o = other if isinstance(other, Poly) else Poly.constant(other)
        return self + (-o)

    def __rsub__(self, other: int) -> "Poly":
        return Poly.constant(other) - self

    def __mul__(self, other: "Poly | int") -> "Poly":
        if not isinstance(other, Poly):
            s = other if type(other) is int else _exact_ints((other,))[0]
            # a Poly is immutable, so a product by 1 can be the Poly itself
            return self if s == 1 else Poly._from_ints([s * x for x in self._c])
        a, b = self._c, other._c
        if not a or not b:
            return Poly()
        if min(len(a), len(b)) > _SCHOOLBOOK_MAX:
            return Poly._from_ints(_kronecker_mul(a, b))
        return Poly._from_ints(_schoolbook(a, b))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        (k,) = _exact_ints((k,))
        if k < 0:
            raise ValueError("polynomial power must be a non-negative int")
        return _power({1: self}, k) if k else Poly.constant(1)

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Division over Z: ArithmeticError where a quotient coefficient is not an integer.

        A monic divisor, as every den, charpoly and gcd here is, makes each
        quotient coefficient the leading remainder coefficient itself.
        """
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self._c)
        dq = len(self._c) - len(other._c)
        if dq < 0:
            return Poly(), self
        quot = [0] * (dq + 1)
        d = other._c
        lead = d[-1]
        for k in range(dq, -1, -1):
            c = rem[k + len(d) - 1]
            if lead != 1:
                c, r = divmod(c, lead)
                if r:
                    raise ArithmeticError("polynomial quotient is not integral")
            quot[k] = c
            if c:
                for j, y in enumerate(d):
                    rem[k + j] -= c * y
        return Poly._from_ints(quot), Poly._from_ints(rem)

    def divexact(self, other: "Poly") -> "Poly":
        """Division that must leave no remainder."""
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ArithmeticError("polynomial division left a remainder")
        return q

    def eval(self, x: Rational) -> Rational:
        """Exact Horner evaluation at an int or a rational point."""
        if isinstance(x, bool) or not isinstance(x, Rational):
            raise TypeError(f"exact point expected, got {type(x).__name__} {x!r}")
        acc = 0
        for c in reversed(self._c):
            acc = acc * x + c
        return acc

    def coeff_strings(self) -> list[str]:
        """Coefficients as decimal integer strings, lowest degree first."""
        return [str(c) for c in self._c]

    def pretty(self, var: str = "x") -> str:
        if not self._c:
            return "0"
        parts: list[str] = []
        for d in range(len(self._c) - 1, -1, -1):
            c = self._c[d]
            if c == 0:
                continue
            mag = -c if c < 0 else c
            if d == 0:
                body = str(mag)
            else:
                xs = var if d == 1 else f"{var}^{d}"
                body = xs if mag == 1 else f"{mag}{xs}"
            if not parts:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f"- {body}" if c < 0 else f"+ {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self.pretty()})"


# integer products where the shorter operand has at most this many coefficients
# run the schoolbook loop: packing costs more than it saves at that size
_SCHOOLBOOK_MAX = 8


def _schoolbook(a: Sequence, b: Sequence) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _offset(n: int, width: int) -> int:
    # half of every width-byte chunk: sum of 2^(8*width*i + 8*width - 1) over i < n
    return int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")


def _kronecker_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Integer polynomial product by Kronecker substitution into one int.

    Each operand is evaluated at x = 2^(8*width) by laying its coefficients
    out as width-byte chunks, the two ints are multiplied once, and the
    product's coefficients are read back chunk by chunk. Chunks hold a
    coefficient plus half their range, so every chunk is non-negative and no
    borrow runs between neighbours; subtracting the offset corrects for it.
    A square (b is a) packs once and multiplies the int by itself, which
    CPython's multiplication detects and does in about two thirds of the
    time of a general product.
    """
    # |product coefficient| <= min(len) * max|a| * max|b|, plus one sign bit
    bits = (max(abs(x) for x in a).bit_length() + max(abs(x) for x in b).bit_length()
            + min(len(a), len(b)).bit_length() + 1)
    width = (bits + 7) // 8
    half = 1 << (8 * width - 1)

    def pack(c: Sequence[int]) -> int:
        raw = b"".join((x + half).to_bytes(width, "little") for x in c)
        return int.from_bytes(raw, "little") - _offset(len(c), width)

    n = len(a) + len(b) - 1
    pa = pack(a)
    pb = pa if b is a else pack(b)
    raw = (pa * pb + _offset(n, width)).to_bytes(width * n, "little")
    return [int.from_bytes(raw[i:i + width], "little") - half
            for i in range(0, width * n, width)]


def _primitive(p: Poly) -> tuple[int, Poly]:
    # content and primitive part of a nonzero p, the part with a positive leading coefficient
    c = _int_gcd(*p.coeffs)
    return c, Poly._from_ints([x // (c if p.leading > 0 else -c) for x in p.coeffs])


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Greatest common divisor in Z[x], content included, leading coefficient positive.

    When one input is monic, so is the gcd. Heuristic integer gcd (GCDHEU;
    Char, Geddes & Gonnet, JSC 1989) of the primitive parts A, B: evaluate
    both at one xi >= 2m + 2, m the smaller of |A|_inf and |B|_inf, read
    h = gcd(A(xi), B(xi)) back as symmetric xi-adic digits, each at most xi/2
    in size, and keep the primitive part g of that polynomial.

    g is accepted only if it divides A and B, and is then the gcd G: with
    G = g*K and c the content of the digits, G(xi) | h = c*g(xi) gives
    K(xi) | c, so |K(xi)| <= xi/2; but K divides the input of norm m, whose
    roots are below 1 + m <= xi/2 in size (Cauchy), so a nonconstant K would
    have |K(xi)| > xi - 1 - m >= xi/2. Otherwise xi grows, and the loop ends:
    with A = G*A1 and B = G*B1, h = G(xi)*s for s = gcd(A1(xi), B1(xi)), and
    this spurious factor s divides the resultant of the coprime cofactors A1
    and B1. Once xi/2 exceeds that resultant times |G|_inf, the digits of h
    are those of s*G.
    """
    return _gcd_cofactors(a, b)[0]


def _gcd_cofactors(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, a/g, b/g) with g = poly_gcd(a, b), from one GCDHEU run (see poly_gcd).

    The cofactors are the quotients of the acceptance test, with the content
    and sign of each input put back, so no caller divides by g again. A zero
    input has the zero cofactor, and the other input's cofactor is +-1.
    """
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    if a.is_zero or b.is_zero:
        p = a or b
        sign = 1 if p.leading > 0 else -1
        return sign * p, a and Poly.constant(sign), b and Poly.constant(sign)
    (ca, pa), (cb, pb) = _primitive(a), _primitive(b)
    xi = 2 * min(max(map(abs, pa.coeffs)), max(map(abs, pb.coeffs))) + 2
    while True:
        h = _int_gcd(pa.eval(xi), pb.eval(xi))
        digits = []
        while h:
            digits.append((h + xi // 2) % xi - xi // 2)
            h = (h - digits[-1]) // xi
        g = _primitive(Poly._from_ints(digits))[1]
        try:
            qa, qb = pa.divexact(g), pb.divexact(g)
        except ArithmeticError:
            xi = xi * 73794 // 27011  # the growth factor of Char, Geddes & Gonnet
            continue
        c = _int_gcd(ca, cb)
        # a = +-ca * pa with the sign of a's leading coefficient, and so for b
        return (c * g, qa * (ca // c if a.leading > 0 else -ca // c),
                qb * (cb // c if b.leading > 0 else -cb // c))


def compose_with_rational(g: Poly, num: Poly, den: Poly) -> Poly:
    """den(x)^deg(g) * g(num(x)/den(x)), expanded exactly.

    This is how eigenvalue products like prod_i (num - lam_i * den) are
    assembled without computing any eigenvalue: take g with the lam_i as
    roots and clear denominators.

    With u = num, v = den and k = deg g this is H(0, k), where
    H(lo, hi) = sum_{j=lo..hi} g_j u^(j-lo) v^(hi-j) = H(lo, mid) v^(hi-mid)
    + u^(mid+1-lo) H(mid+1, hi): about log k levels of balanced products, with
    the powers memoised per call by square-and-multiply, where Horner makes k
    lopsided ones (Brent & Kung, JACM 1978).
    """
    if den.is_zero:
        raise ZeroDivisionError("composition denominator is zero")
    if g.degree <= 0:
        return g  # den^0 * g, and the zero polynomial
    return _homogenised(g.coeffs, 0, g.degree, {1: num}, {1: den})


def _power(memo: dict[int, Poly], e: int) -> Poly:
    # base^e for e >= 1, memo[1] the base, by square-and-multiply through e // 2
    if e not in memo:
        half = _power(memo, e // 2)
        memo[e] = half * half * memo[1] if e & 1 else half * half
    return memo[e]


def _homogenised(g: Sequence[int], lo: int, hi: int,
                 u_pow: dict[int, Poly], v_pow: dict[int, Poly]) -> Poly | int:
    # H(lo, hi); a single term stays a scalar, so its products are scalar multiples
    if lo == hi:
        return g[lo]
    mid = (lo + hi) // 2
    return (_homogenised(g, lo, mid, u_pow, v_pow) * _power(v_pow, hi - mid)
            + _power(u_pow, mid + 1 - lo) * _homogenised(g, mid + 1, hi, u_pow, v_pow))


def _strip_low_zeros(c: list[int]) -> tuple[int, list[int]]:
    m = 0
    while m < len(c) - 1 and c[m] == 0:
        m += 1
    return m, c[m:]


def _synthetic_div(c: list[int], root: int) -> list[int]:
    # divide lowest-first integer coefficients by (x - root); exact by construction
    out = [0] * (len(c) - 1)
    carry = c[-1]
    for i in range(len(c) - 2, -1, -1):
        out[i] = carry
        carry = c[i] + root * carry
    if carry != 0:
        raise ArithmeticError("synthetic division left a remainder")
    return out


def _shifted(p: Poly, s: int) -> Poly:
    """p(x + s), by repeated synthetic division (a Taylor shift)."""
    c = list(p.coeffs)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += s * c[j + 1]
    return Poly._from_ints(c)


def _derivative(p: Poly) -> Poly:
    return Poly._from_ints([k * c for k, c in enumerate(p.coeffs)][1:])


def _square_free_parts(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's square-free decomposition of a primitive p with a positive leading
    coefficient: [(s_j, j), ...] with p = prod s_j^j, each s_j square-free of
    positive degree, the s_j pairwise coprime and ordered by j.

    With a = gcd(p, p'), b = p/a and c = p'/a, each round takes
    d = c - b', s_j = gcd(b, d), then b <- b/s_j and c <- d/s_j (Yun,
    "On square-free decomposition algorithms", SYMSAC 1976). Every divisor
    is a gcd with a positive leading coefficient of primitive polynomials,
    so it is primitive, and by Gauss's lemma each division is exact over Z;
    the quotients are the gcd's cofactors (see _gcd_cofactors).
    """
    parts = []
    _, b, c = _gcd_cofactors(p, _derivative(p))
    j = 1
    while b.degree > 0:
        s, b, c = _gcd_cofactors(b, c - _derivative(b))
        if s.degree > 0:
            parts.append((s, j))
        j += 1
    return parts


def _odd_primes() -> Iterator[int]:
    return (q for q in count(3, 2) if _is_prime(q))


def _eval_mod(c: Sequence[int], x: int, m: int) -> int:
    # c(x) mod m by Horner, c lowest first
    acc = 0
    for a in reversed(c):
        acc = (acc * x + a) % m
    return acc


def _simple_roots_mod(c: Sequence[int], dc: Sequence[int], q: int) -> list[int] | None:
    """The roots of c in F_q, or None if one of them is a root of dc too."""
    roots = []
    # residues in the order 0, -1, 1, -2, 2, ...: a repeated small root, the
    # common case, rules q out after a few evaluations
    for a in ((k + 1) // 2 * (-1) ** k % q for k in range(q)):
        if _eval_mod(c, a, q) == 0:
            if _eval_mod(dc, a, q) == 0:
                return None
            roots.append(a)
    return roots


# odd primes at which integer_roots tries p itself before it takes p's
# square-free part; a p with a repeated integer root fails at every prime,
# so each one tried costs it an extra pass
_SIMPLE_ROOT_PRIMES = (3, 5)


def _root_candidates(f: Poly, primes: Iterable[int]) -> list[int] | None:
    """Integers that include every integer root of f, given f(0) != 0, or
    None when no prime in primes will do.

    A prime q will do when every root a of f in F_q is simple, f'(a) != 0
    mod q; then every integer root of f is simple too. If f is square-free,
    every q that divides neither its leading coefficient nor its
    discriminant will do, so a search over all odd primes ends; if f has a
    repeated integer root, no q will do, so the search must be over
    finitely many primes. Every integer root divides f(0), so its size is
    at most B = |f(0)|, and it is congruent to some root a mod q. Each a
    has one lift modulo q^(2^i) by Newton's iteration r <- r - f(r)/f'(r)
    (Hensel's lemma), so once the modulus m exceeds 2B, the lift of an
    integer root, read in (-m/2, m/2], is that root. The lifts are
    candidates; the caller confirms each.
    """
    c, dc = f.coeffs, _derivative(f).coeffs
    for q in primes:
        roots = _simple_roots_mod(c, dc, q)
        if roots is not None:
            break
    else:
        return None
    bound, out = abs(c[0]), []
    for r in roots:
        m = q
        while m <= 2 * bound:
            m *= m
            r = (r - _eval_mod(c, r, m) * pow(_eval_mod(dc, r, m), -1, m)) % m
        out.append(r if 2 * r <= m else r - m)
    return out


def integer_roots(p: Poly) -> tuple[tuple[int, ...], Poly]:
    """All integer roots of p with multiplicity, plus the integer-root-free quotient.

    Returns (roots sorted ascending, quotient) with
    p == quotient * prod(x - root). After x^m is split off, the other roots
    are among the Hensel-lifted candidates (see _root_candidates) of the
    rest f, lifted from the first of _SIMPLE_ROOT_PRIMES modulo which every
    root of f is simple. When none is, f may have a repeated root, and the
    candidates come from its square-free part f/gcd(f, f'), the cofactor
    of one _gcd_cofactors call. Each candidate that divides the
    constant term is divided out by synthetic division for as long as the
    division is exact; no interval of integers is scanned.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has every integer as a root")
    zero_mult, ints = _strip_low_zeros(list(p.coeffs))
    roots = [0] * zero_mult
    if len(ints) > 1:
        f = Poly._from_ints(ints)
        candidates = _root_candidates(f, _SIMPLE_ROOT_PRIMES)
        if candidates is None:
            pf = _primitive(f)[1]
            candidates = _root_candidates(_gcd_cofactors(pf, _derivative(pf))[1],
                                          _odd_primes())
        for r in candidates:
            while r and ints[0] % r == 0 and len(ints) > 1:
                try:
                    ints = _synthetic_div(ints, r)
                except ArithmeticError:
                    break
                roots.append(r)
    return tuple(sorted(roots)), Poly._from_ints(ints)


class Matrix:
    """Dense integer matrix."""

    __slots__ = ("_rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence[int]]):
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(rows[0])
        packed = []
        for r in rows:
            row = tuple(r)
            if len(row) != width:
                raise ValueError("ragged matrix rows")
            packed.append(_exact_ints(row))
        self._rows = tuple(packed)
        self.nrows = len(packed)
        self.ncols = width

    @classmethod
    def _from_rows(cls, rows: Iterable[Iterable[int]]) -> "Matrix":
        """The matrix with these rows, of ints the package holds, at least one
        and all of one nonzero length: the checks of __init__ are skipped."""
        m = cls.__new__(cls)
        m._rows = tuple(map(tuple, rows))
        m.nrows = len(m._rows)
        m.ncols = len(m._rows[0])
        return m

    @classmethod
    def diagonal(cls, entries: Sequence[int]) -> "Matrix":
        d = _exact_ints(entries)
        if not d:
            raise ValueError("matrix must have at least one row and one column")
        n = len(d)
        return cls._from_rows([d[i] if i == j else 0 for j in range(n)] for i in range(n))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def rows(self) -> tuple[tuple[int, ...], ...]:
        return self._rows

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self._rows[i][j]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Matrix):
            return self._rows == other._rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in r) for r in self._rows)
        return f"Matrix[{body}]"

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError("matrix shapes differ")
        return Matrix._from_rows([a + b for a, b in zip(r1, r2)]
                                 for r1, r2 in zip(self._rows, other._rows))

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError("matrix shapes differ")
        return Matrix._from_rows([a - b for a, b in zip(r1, r2)]
                                 for r1, r2 in zip(self._rows, other._rows))

    def __neg__(self) -> "Matrix":
        return Matrix._from_rows([-x for x in r] for r in self._rows)


def _prime_bits(n: int) -> int:
    """The largest b with n * (2^(b-1) + 2)^2 < 2^53: the kernel's primes at order n lie below 2^b.

    The kernel keeps float64 residues r with |r| <= p/2 + 2, and every sum
    it accumulates at order n has at most n terms, each a product of two
    such residues; with p < 2^b every partial sum is an integer below 2^53,
    so it is exact in any summation order (see _power_sums_mod):
    2^27 at order 1, 2^26 through order 7, 2^25 through order 31, 2^24
    through order 127, 2^23 through order 511, and so on. The same bound
    keeps the int64 sums of Newton's identities, n terms below p^2, from
    wrapping. Larger primes mean fewer of them per bound.
    """
    b = 31
    while n * ((1 << b) + 4) ** 2 >= 1 << 55:
        b -= 1
    return b


# per ceiling bit count b, the primes below 2^b found so far, largest first;
# only ever extended, so every caller at one ceiling sees the same list
_PRIMES: dict[int, list[int]] = {}


def _is_prime(q: int) -> bool:
    """Deterministic Miller-Rabin on the bases 2, 7 and 61.

    Exact for q < 4 759 123 141 (Jaeschke, Math. Comp. 1993), which every
    prime ceiling is below; trial division would cost every fresh process
    milliseconds per prime near 2^29.
    """
    if q < 2 or q % 2 == 0:
        return q == 2
    d, s = q - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 7, 61):
        if a % q == 0:
            continue
        x = pow(a, d, q)
        if x in (1, q - 1):
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def _primes_past(bound: int, n: int) -> list[int]:
    """The fewest of the largest primes below 2^_prime_bits(n) whose product exceeds bound."""
    b = _prime_bits(n)
    primes = _PRIMES.setdefault(b, [])
    out, product = [], 1
    while product <= bound:
        if len(out) == len(primes):
            q = (primes[-1] if primes else (1 << b) + 1) - 2
            if q < 3:
                raise ValueError(f"the odd primes below 2^{b}, the ceiling at order {n}, "
                                 f"multiply to no more than {bound}")
            while not _is_prime(q):
                q -= 2
            primes.append(q)
        out.append(primes[len(out)])
        product *= out[-1]
    return out


def _inverses(q: int, n: int) -> list[int]:
    # [0, 1^-1, ..., n^-1] mod the prime q > n, by k^-1 = -(q // k) (q mod k)^-1
    inv = [0, 1]
    for k in range(2, n + 1):
        inv.append((q - q // k) * inv[q % k] % q)
    return inv


# per prime q, the int64 array [q - k^-1 mod q] for k = 0, 1, ... (entry 0
# is q) that Newton's identities multiply by; rebuilt longer when a larger
# order needs more entries, so every caller reads one table per prime
_NEG_INVERSES: dict[int, np.ndarray] = {}


def _neg_inverses(q: int, n: int) -> np.ndarray:
    table = _NEG_INVERSES.get(q)
    if table is None or len(table) <= n:
        table = _NEG_INVERSES[q] = q - np.array(_inverses(q, n), dtype=np.int64)
    return table[:n + 1]


def _reduce(x: np.ndarray, p: np.ndarray, inv: np.ndarray) -> None:
    # x <- x - rint(x * inv) * p in place: symmetric float residues modulo p,
    # with inv = 1/p, both broadcast against x
    y = x * inv
    np.rint(y, out=y)
    y *= p
    x -= y


def _fill_powers(stack: np.ndarray, p: np.ndarray, inv: np.ndarray) -> None:
    # stack[0] = I and stack[1] = x are given; stack[j] = x^j for every later slot
    for j in range(2, len(stack)):
        np.matmul(stack[j - 1], stack[1], out=stack[j])
        _reduce(stack[j], p, inv)


def _power_sums_mod(h: np.ndarray, p: np.ndarray, out: np.ndarray) -> None:
    """The power sums p_k = tr(h[i]^k), k = 0 ... n, of each h[i] modulo p[i],
    written into out as out[m, i] = p_(n-m) in [0, p[i]).

    h is a (B, n, n) int64 batch of integer matrices whose entries are below
    2^52 in absolute value, p a (B,) array of primes in which a prime
    repeats once per matrix reduced modulo it, and out an (n + 1, B) int64
    array or view. All n power sums come from about 2 sqrt(n) matrix
    products (Paterson & Stockmeyer, SIAM J. Comput. 1973): with
    s = isqrt(n) + 1 and t = n // s, the baby powers a^0 ... a^(s-1) and the
    giant powers g^0 ... g^t of g = a^s give p_(is+j) = tr(g^i a^j), the sum
    over r of row r of a^j times column r of g^i, which covers k <= n.

    The products run in float64 on symmetric residues r = x - rint(x/p) p,
    so BLAS does them. The entries of h are exact in float64, and the first
    reduction takes them to such residues by the argument below. Each
    product is exact: its entries sum n products of residues with
    |r| <= p/2 + 2, and _prime_bits keeps n (p/2 + 2)^2 < 2^53, so every
    partial sum is an integer below 2^53, whatever order BLAS adds in, with
    or without fused multiply-adds. The reduction keeps that bound: for
    |x| < 2^53 the float x * (1/p) is within about 2/p of x/p, so rint(x/p)
    misses the nearest integer by less than 1/2 + 2/p, and both its product
    with p and the difference are exact integers. Each trace sums n reduced
    entries, far below 2^53.
    """
    count, n, _ = h.shape
    s = isqrt(n) + 1
    t = n // s
    # p and 1/p as whole matrices: a full operand is faster than a broadcast one
    pf = np.empty((count, n, n))
    pf[:] = p[:, None, None]
    inv = 1 / pf
    eye = np.eye(n)
    baby = np.empty((s, count, n, n))
    baby[0] = eye
    baby[1] = h
    _reduce(baby[1], pf, inv)
    _fill_powers(baby, pf, inv)
    # giant[i] is the transpose of g^i, so that its rows are the columns of g^i
    giant = np.empty((t + 1, count, n, n))
    giant[0] = eye
    if t:
        np.matmul(baby[1].transpose(0, 2, 1), baby[s - 1].transpose(0, 2, 1), out=giant[1])
        _reduce(giant[1], pf, inv)
        _fill_powers(giant, pf, inv)
    # terms[b, r, j, i] = (row r of a^j) . (column r of g^i), one n-term sum each
    terms = baby.transpose(1, 2, 0, 3) @ giant.transpose(1, 2, 3, 0)
    _reduce(terms, pf[:, :1, :1, None], inv[:, :1, :1, None])
    traces = terms.sum(axis=1)
    _reduce(traces, pf[:, :1, :1], inv[:, :1, :1])
    # row i * s + j of the reshape is p_(is+j); read from row n down
    np.remainder(traces.transpose(2, 1, 0).reshape(-1, count)[n::-1].astype(np.int64), p,
                 out=out)


def _newton_mod(rev: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Charpoly coefficients c_0 = 1, c_1, ..., c_N of each column of rev,
    modulo that column's prime, as an (N + 1, C) int64 array: c[k, i] is
    the coefficient of x^(n-k) in the charpoly of the order-n matrix whose
    power sums column i holds.

    rev is (N + 1, C), with rev[m, i] = p_(N-m) in [0, p[i]) for
    N - m <= n, the column's own order, and 0 above that (for m < N - n),
    as _power_sums_mod writes them; p is the (C,) array of the columns'
    primes. Newton's identities, k c_k = -sum_{i=1..k} p_i c_(k-i)
    (Csanky, SIAM J. Comput. 1976), run once over every column, one
    vectorised int64 step per k <= N, and give c_k for every k <= n of
    each column. Each step sums products below p^2 of one column's
    residues in [0, p); a power sum past the column's order is 0, so at
    most n of them are nonzero, and _prime_bits keeps n p^2 below 2^63.
    The step divides by k through a table of inverses kept per prime across
    calls (_NEG_INVERSES), which needs p > k for every k <= n. What a step
    writes for k > n is never read, so a column's prime need only exceed
    its own order.
    """
    big_n = len(rev) - 1
    table = {q: _neg_inverses(q, big_n) for q in set(p.tolist())}
    neg_inv = np.stack([table[q] for q in p.tolist()], axis=1)
    # c[k] = -(p_k c_0 + p_(k-1) c_1 + ... + p_1 c_(k-1)) / k
    c = np.zeros(rev.shape, dtype=np.int64)
    c[0] = 1
    for k in range(1, big_n + 1):
        c[k] = (c[:k] * rev[big_n - k:big_n]).sum(axis=0) % p * neg_inv[k] % p
    return c


# hold at most this many array entries per chunk of a batch, so memory stays bounded
_BATCH_ENTRIES = 1 << 21

# integers of absolute value below this are exact in float64 with room to
# spare, so _power_sums_mod reduces them itself
_FLOAT_EXACT = 1 << 52


def _coefficient_bound(vectors: Iterable[Sequence[int]]) -> int:
    """max_k e_k(r_1, ..., r_n), with r_i = ceil(|v_i|_2) and e_k the k-th
    elementary symmetric sum: a bound on every charpoly coefficient of the
    square integer matrix whose rows, or whose columns, are the v_i.

    The coefficient of x^(n-k) is a signed sum of the principal minors of
    order k, one per index set S of size k. By Hadamard, such a minor is at
    most the product of the Euclidean norms of its rows, and also of its
    columns (det M = det M^T); each is at most the norm of the whole row or
    column, so the sum is at most the sum over S of prod_{i in S} r_i,
    which is e_k. No symmetry is needed. _charpolys_with_forms passes the
    columns of a matrix folded by its twin rows, whose columns carry the
    class sizes once each. The e_k are the coefficients of
    prod_i (1 + r_i t), with the m vectors of one norm r contributing
    (1 + r t)^m, whose coefficients are C(m, i) r^i; they are multiplied
    out on plain int lists, and a zero norm contributes 1.
    """
    e = [1]
    for r, m in Counter(_ceil_sqrt(sum(map(mul, v, v))) for v in vectors).items():
        if r:
            e = _schoolbook(e, [comb(m, i) * r ** i for i in range(m + 1)])
    return max(e)


def _ceil_sqrt(t: int) -> int:
    s = isqrt(t)
    return s + (s * s < t)


def _charpoly_residues(batches: Sequence[tuple[Sequence[Sequence[Sequence[int]]], int,
                                               Sequence[tuple[int, Sequence[int], Sequence[int]]]]]
                       ) -> list[tuple[list[int], np.ndarray]]:
    """Per batch (mats, bound, updates): the charpolys of its T same-order
    integer matrices and U rank-one updates of them, modulo one list of P
    primes of its own.

    Update (i, u, w) is the matrix mats[i] + u w^T. It is formed here, from
    the array of entries the mats are read into, in int64 where no entry
    of mats or updates can pass it and in Python ints otherwise, so no
    caller builds its rows. A batch's primes are the fewest of the largest
    below its order's ceiling 2^_prime_bits(n) whose product exceeds
    2 * bound, so every integer of absolute value at most bound is fixed by
    its residues (see _crt_lift), and the lifted integers do not depend on
    which primes were used. Every matrix of a batch goes to each of its
    primes, and its (T + U)*P residue matrices go through _power_sums_mod
    in chunks that hold at most _BATCH_ENTRIES array entries. When every
    entry, updates included, is below 2^52 in absolute value the matrices
    go as they are, since the kernel's float reduction is exact on them;
    otherwise each is first reduced into [0, p), in int64 or in Python ints.

    Each batch's power sums fill its own columns of one (N + 1)-row array,
    N the largest order of the call, and _newton_mod turns every column
    into coefficients at once, so the call takes N sequential Newton steps
    however many batches it holds; with one batch the array is that
    batch's own. Returns, per batch in order, the primes and a
    (T + U, P, n + 1) int64 array of coefficient residues, lowest degree
    first: the mats', then the updates'. Every prime above n works:
    Newton's identities hold over any field whose characteristic exceeds n,
    so there is no unlucky prime to detect or retry.
    """
    plans = []
    for mats, bound, updates in batches:
        n = len(mats[0])
        primes = _primes_past(2 * bound, n)
        # the invariants _prime_bits keeps: n products of residues of size at
        # most p/2 + 2 sum below 2^53, and every k <= n is invertible modulo
        # every prime
        if n * (primes[0] + 4) ** 2 >= 1 << 55:
            raise OverflowError(f"order {n} with primes near {primes[0]} "
                                "would leave exact float64")
        if primes[-1] <= n:
            raise ValueError(f"order {n} needs primes above it, got {primes[-1]}")
        base, us, ws = zip(*updates) if updates else ((), (), ())
        try:
            entries = np.array(mats, dtype=np.int64)
            if updates:
                # |a_jk + u_j w_k| <= max|a| + max|u| max|w| must stay in int64
                room = (1 << 63) - 1 - max(map(abs, chain(*us))) * max(map(abs, chain(*ws)))
                if int(entries.max()) > room or int(entries.min()) < -room:
                    raise OverflowError("rank-one updates past int64")
        except OverflowError:
            entries = np.array(mats, dtype=object)
        if updates:
            u, w = np.array(us, dtype=entries.dtype), np.array(ws, dtype=entries.dtype)
            entries = np.concatenate([entries,
                                      entries[list(base)] + u[:, :, None] * w[:, None, :]])
        plans.append((n, primes, entries))
    big_n = max(n for n, _, _ in plans)
    rev = np.zeros((big_n + 1, sum(len(e) * len(ps) for _, ps, e in plans)), dtype=np.int64)
    col_primes, blocks, start = [], [], 0
    for n, primes, entries in plans:
        # column t * P + j of a batch is its matrix t modulo its prime j
        t, j = np.divmod(np.arange(len(entries) * len(primes)), len(primes))
        p = np.array(primes, dtype=np.int64)[j]
        blocks.append(slice(start, start + len(p)))
        block = rev[big_n - n:, blocks[-1]]
        col_primes.append(p)
        start += len(p)
        small = (entries.dtype != object
                 and -_FLOAT_EXACT < entries.min() and entries.max() < _FLOAT_EXACT)
        # per residue matrix the kernel holds s = isqrt(n) + 1 baby and at
        # most s giant powers, and at most seven more arrays of (n + 1)^2
        # entries: the residues, p, 1/p, and the row-by-column terms of the
        # traces and their reduction, two each
        step = max(1, _BATCH_ENTRIES // ((n + 1) ** 2 * (2 * (isqrt(n) + 1) + 7)))
        for lo in range(0, len(p), step):
            cols = slice(lo, lo + step)
            h = (entries[t[cols]] if small
                 else entries[t[cols]] % p[cols].astype(entries.dtype)[:, None, None])
            _power_sums_mod(h.astype(np.int64, copy=False), p[cols], block[:, cols])
    c = _newton_mod(rev, np.concatenate(col_primes))
    return [(primes, c[n::-1, cols].T.reshape(len(entries), len(primes), n + 1))
            for (n, primes, entries), cols in zip(plans, blocks)]


def _crt_lift(primes: list[int], residues: np.ndarray) -> list[Poly]:
    """The integer polynomials with these residues and coefficients below prod(primes)/2.

    residues is (T, P, k): T polynomials, each as k coefficient residues
    modulo each of the P primes. CRT gives
    c = sum_i r_i * (M/p_i) * ((M/p_i)^-1 mod p_i) mod M, taken into the
    symmetric range.
    """
    modulus = prod(primes)
    weights = np.array([(modulus // q) * pow(modulus // q, -1, q) for q in primes],
                       dtype=object)
    half = modulus // 2
    return [Poly._from_ints([c if c <= half else c - modulus
                             for c in (int(x) % modulus for x in row)])
            for row in residues.transpose(0, 2, 1).astype(object) @ weights]


def _fold_twins(rows: tuple[tuple[int, ...], ...], u: tuple[int, ...] | None
                ) -> tuple[tuple[tuple[int, ...], ...],
                           tuple[tuple[int, ...], tuple[int, ...]] | None, Counter]:
    """Fold the twin rows of a square integer matrix a, and of a + u u^T where u is given.

    Rows i and j are twins when a_ii = a_jj = lam, a_ij = a_ji = 0, the two
    rows agree everywhere else and, where u is given, u_i = u_j: exactly
    when their keys (lam, u_i, row i with its diagonal set to 0) agree, so
    one dict pass finds the classes. Then (e_j - e_i)^T a = lam (e_j - e_i)^T,
    and the similarity by I - e_j e_i^T, which subtracts row i from row j and
    adds column j into column i, leaves lam e_j^T as row j. Over a class of m
    twins, det(xI - a) = (x - lam)^(m-1) det(xI - a'),
    where a' keeps one row and column per class and adds the columns of each
    class into its representative's: a'_kc = sum over j in class c of a_kj.
    The paper's product clones every first-factor vertex n2 times, and the
    clones are twins in A, L and Q; that is its linear factor
    (x - d)^(n1 (n2 - 1)), and the folded product has order n1 (n2 + 1).

    u_i = u_j keeps e_j - e_i a left eigenvector of a + u u^T with the same
    lam, so the same classes fold it to a' + u' w^T, with u' the
    representatives' entries of u and w its class sums (|w|_1 = |u|_1).

    Returns the rows of a', the pair (u', w) (None without u) and the
    multiplicity of each split-off linear factor (x - lam); with no twins,
    a itself, (u, u) and no factor. The rows of a' + u' w^T are formed only
    in the kernel's entry array (see _charpoly_residues).
    """
    classes: dict = {}
    for i, r in enumerate(rows):
        classes.setdefault((r[i], None if u is None else u[i], r[:i] + (0,) + r[i + 1:]),
                           []).append(i)
    linear: Counter = Counter()
    members = list(classes.values())
    if len(members) < len(rows):
        column_class = [0] * len(rows)
        for k, c in enumerate(members):
            for j in c:
                column_class[j] = k
        folded = []
        for c in members:
            row = [0] * len(members)
            for x, k in zip(rows[c[0]], column_class):
                row[k] += x
            folded.append(tuple(row))
        rows = tuple(folded)
        for (lam, _, _), c in classes.items():
            if len(c) > 1:
                linear[lam] += len(c) - 1
    if u is None:
        return rows, None, linear
    reps = tuple(u[c[0]] for c in members)
    return rows, (reps, tuple(ui * len(c) for ui, c in zip(reps, members))), linear


def _diagonal_shifted(rows: tuple[tuple[int, ...], ...]
                      ) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(rows of a - sI, s) where the diagonal of a is scalar s; (a, 0) where
    it is not.

    chi_a(x) = chi_(a - sI)(x - s), and the form shifts the same way, so
    the kernel can take a - sI: its zero diagonal lowers the column norms of
    the coefficient bound, and leaves the graph of a bipartite where its
    off-diagonal entries make one (see _halved). A diagonal that is not
    scalar is left as it is: any shift keeps a nonzero entry, which rules
    halving out, and on the many small matrices of a verification campaign
    the shift back costs more than the primes it would save.
    """
    s = rows[0][0]
    if not s or any(r[i] != s for i, r in enumerate(rows)):
        return rows, 0
    return tuple(r[:i] + (r[i] - s,) + r[i + 1:] for i, r in enumerate(rows)), s


def _times_linear(p: Poly, linear: dict[int, int]) -> Poly:
    # p * prod (x - lam)^e over the split-off factors; p itself when there are
    # none. (x - lam)^e is a shift by e for lam = 0, and otherwise the one
    # product by sum_k C(e, k) (-lam)^(e-k) x^k
    for lam, e in linear.items():
        if lam:
            p = p * Poly._from_ints([comb(e, k) * (-lam) ** (e - k) for k in range(e + 1)])
        else:
            p = Poly._from_ints((0,) * e + p.coeffs)
    return p


# folded orders below this go to the kernel whole, bipartite or not: there
# a batch costs about its fixed numpy calls whatever its order, so BC saves
# nothing, while the colouring, the three updates and the map back cost
# about 25 us per order-16 item. One A(P_n) with the all-ones vector
# breaks even near n = 12 and gains 11 % at n = 16 (2-core x86_64, python
# 3.11, numpy 2.4 with OpenBLAS)
_HALVED_MIN = 16


def _kernel_item(a: Matrix, u: Sequence[int] | None) -> tuple:
    """What the kernel takes for the item (a, u) of _charpolys_with_forms:
    (rows sent, updates sent, split-off factors, shift s, and
    (n - 2m, w_b . u_b) where the item is halved, else None)."""
    if not a.is_square:
        raise ValueError("characteristic polynomial of a non-square matrix")
    if u is not None:
        if len(u) != a.nrows:
            raise ValueError("vector length differs from matrix size")
        u = _exact_ints(u)
    rows, uw, linear = _fold_twins(a.rows(), u)
    rows, s = _diagonal_shifted(rows)
    half = _halved(rows, uw) if len(rows) >= _HALVED_MIN else None
    if half is None:
        return rows, [] if uw is None else [uw], linear, s, None
    bc, updates, e, wu_b = half
    return bc, updates, linear, s, (e, wu_b)


def _charpolys_with_forms(items: Sequence[tuple[Matrix, Sequence[int] | None]]
                          ) -> list[tuple[Poly, Poly | None]]:
    """det(xI - a) of each square integer matrix a, and u^T adj(xI - a) u where u is given.

    Each item is first folded by its twin rows (see _fold_twins), which
    splits off det(xI - a) = prod (x - lam)^e * det(xI - a') exactly; the
    factor multiplies the lifted charpoly and form back, and an item with
    no twins goes through whole. Where the diagonal of a' is scalar s, it
    is subtracted (see _diagonal_shifted): M = a' - sI, and
    chi_a'(x) = chi_M(x - s) is an exact Taylor shift back (_shifted), as is
    the form; otherwise M = a'. Where M, of order n >= _HALVED_MIN, is
    [[0, B], [C, 0]] up to a permutation, with a smaller side of m >= 1
    rows (see _halved: a' has a scalar diagonal and a bipartite graph),
    the kernel takes BC, of order m, in place of M, and
    chi_M(x) = x^(n-2m) chi_BC(x^2) (see halving.py). Every other M goes
    as it is; _kernel_item says what is sent.

    The matrices sent of each order are one batch of the multimodular
    kernel, modulo one list of primes, and all the batches go to the kernel
    in one call (see _charpoly_residues). An item with a vector also sends
    rank-one updates (z, y) of its matrix: for an M sent as it is, the
    folded pair (u', w) itself; for a halved one, the three updates of BC
    that _halved derives from (u', w), whose forms _unhalved combines into
    w^T adj(xI - M) u' through the block inverse of xI - M. By the matrix
    determinant lemma,
    det(xI - b - z y^T) = chi_b(x) - y^T adj(xI - b) z for the matrix b
    sent, so each form is lifted from the difference of two residues, and
    u^T adj(xI - a) u = prod (x - lam)^e * w^T adj(xI - a') u', since the
    folding factor of a + u u^T is that of a. chi_(b + z y^T) itself is
    never lifted, so its larger entries do not set the prime count.

    The primes cover W * E, with E the largest _coefficient_bound of the
    columns of a matrix b of the batch and W the largest |y|_1 |z|_1 of
    an update sent (1 where there is none). E bounds every chi_b. The
    coefficient of x^(n-1-k) in y^T adj(xI - b) z sums y_i * z_j times a
    signed sum of minors of b of order k, one per column set of size k
    that avoids i; each is at most the product of its columns' norms
    (Hadamard), so the sum is at most e_k of the column norms, and the
    weights |y_i * z_j| add up to |y|_1 |z|_1. Columns, not rows: folding
    multiplies the column of a class of m twins by m, so in the column
    bound the class counts once, while in a row bound the factor m would
    enter every row that meets the class (163 against 82 bits for A of the
    order-72 K2 x L^2(K3,3)). For a symmetric a with no twins the two are
    equal. The bound is taken on what is sent, so a halved batch is sized
    by the columns of BC and the weights of its three updates, not by |u|_1^2.
    The mapped-back charpolys and forms need no bound of their own: they are
    exact integer combinations and shifts of the lifted ones.

    Each distinct matrix sent, and each distinct update up to the sign of
    (z, y), goes to the kernel once per batch: (-z)(-y)^T = z y^T, so the
    sign is fixed by making the first nonzero entry of z positive. An
    update goes as (batch index of b, z, y), and the kernel forms its
    matrix (see _charpoly_residues). Each matrix and each update is keyed
    once, and the results are read back by position.
    """
    folds = [_kernel_item(a, u) for a, u in items]
    if not folds:
        return []
    by_order: dict[int, list[int]] = {}
    for k, fold in enumerate(folds):
        by_order.setdefault(len(fold[0]), []).append(k)
    batches, slots = [], []
    for group in by_order.values():
        mats: dict = {}  # rows sent -> batch index
        updates: dict = {}  # (batch index, z, y) -> update index
        slot = []  # per item of the group: batch index, update indices
        for k in group:
            rows, sent = folds[k][:2]
            i = mats.setdefault(rows, len(mats))
            js = []
            for z, y in sent:
                if next((x for x in z if x), 0) < 0:
                    z, y = tuple(-x for x in z), tuple(-x for x in y)
                js.append(updates.setdefault((i, z, y), len(updates)))
            slot.append((i, js))
        weight = max((sum(map(abs, z)) * sum(map(abs, y)) for _, z, y in updates), default=0)
        bound = max(1, weight) * max(_coefficient_bound(tuple(zip(*b))) for b in mats)
        batches.append((list(mats), bound, list(updates)))
        slots.append(slot)
    out: list = [None] * len(folds)
    for group, slot, (mats, _, updates), (primes, res) in zip(
            by_order.values(), slots, batches, _charpoly_residues(batches)):
        # y^T adj(xI - b) z = chi_b - chi_(b + z y^T), residue by residue
        diff = ((res[[i for i, _, _ in updates]] - res[len(mats):])
                % np.array(primes, dtype=np.int64)[:, None])
        lifted = _crt_lift(primes, np.concatenate([res[:len(mats)], diff]))
        for k, (i, js) in zip(group, slot):
            _, _, linear, s, half = folds[k]
            chi, forms = lifted[i], [lifted[len(mats) + j] for j in js]
            if half is None:
                form = forms[0] if forms else None
            else:
                up, q = _unhalved(chi.coeffs, [f.coeffs for f in forms], *half)
                chi, form = Poly._from_ints(up), None if q is None else Poly._from_ints(q)
            if s:
                chi = _shifted(chi, -s)
                form = None if form is None else _shifted(form, -s)
            out[k] = (_times_linear(chi, linear),
                      None if form is None else _times_linear(form, linear))
    return out


def charpolys(mats: Sequence[Matrix]) -> list[Poly]:
    """det(xI - m) of each square integer matrix, in order (see _charpolys_with_forms)."""
    return [f for f, _ in _charpolys_with_forms([(m, None) for m in mats])]


def charpoly(a: Matrix) -> Poly:
    """det(xI - a), monic, with integer coefficients."""
    return charpolys([a])[0]


def charpoly_with_adjugate_form(a: Matrix, u: Sequence[int]) -> tuple[Poly, Poly]:
    """Characteristic polynomial of a and u^T adj(xI - a) u, from one kernel batch
    of a and a + u u^T (see _charpolys_with_forms)."""
    return _charpolys_with_forms([(a, u)])[0]
