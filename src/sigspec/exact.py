"""Exact algebra: polynomials, rational functions and integer matrices.

The exact scalar is ``int``. A ``fractions.Fraction`` appears only where a
value really is non-integral, and one with denominator 1 is stored as its
numerator, so every polynomial built from an integer matrix has int
coefficients. bools, floats and anything else are rejected so that nothing
silently leaves exact arithmetic; every exact division goes through
``Fraction``, never ``/`` between ints. Polynomial coefficient vectors are
stored lowest degree first with no trailing zeros. ``Matrix`` holds ints
only.

Characteristic polynomials take one of two exact kernels by matrix order: a
Faddeev-LeVerrier recursion on Python ints up to a small order, and above it
Hessenberg reduction modulo word-size primes, batched over the primes in one
int64 numpy array, lifted back to integers by CRT.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, isqrt, prod
from math import gcd as _int_gcd
from typing import Iterable, Sequence

import numpy as np

Scalar = int | Fraction


def _exact(x: Scalar) -> Scalar:
    """The canonical exact scalar: an int, or a Fraction that is not integral."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int) and not isinstance(x, bool):
        return int(x)
    raise TypeError(f"exact scalar expected (int or Fraction), got {type(x).__name__}")


def _div(a: Scalar, b: Scalar) -> Scalar:
    """Exact quotient a/b; '/' between two ints would give a float."""
    return a if b == 1 else _exact(Fraction(a, b))


class Poly:
    """Univariate polynomial with exact rational coefficients."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        c = [_exact(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self._c = tuple(c)

    @classmethod
    def constant(cls, value: Scalar) -> "Poly":
        return cls([value])

    @classmethod
    def x(cls) -> "Poly":
        return cls([0, 1])

    @classmethod
    def linear(cls, const: Scalar, slope: Scalar = 1) -> "Poly":
        """slope*x + const."""
        return cls([const, slope])

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
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
    def leading(self) -> Scalar:
        if not self._c:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._c[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self._c) and self._c[-1] == 1

    def coeff(self, k: int) -> Scalar:
        return self._c[k] if 0 <= k < len(self._c) else 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self._c == other._c
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._c)

    def __bool__(self) -> bool:
        return bool(self._c)

    def __add__(self, other: "Poly | Scalar") -> "Poly":
        o = other if isinstance(other, Poly) else Poly.constant(other)
        a, b = self._c, o._c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly([-x for x in self._c])

    def __sub__(self, other: "Poly | Scalar") -> "Poly":
        o = other if isinstance(other, Poly) else Poly.constant(other)
        return self + (-o)

    def __rsub__(self, other: Scalar) -> "Poly":
        return Poly.constant(other) - self

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        if not isinstance(other, Poly):
            s = _exact(other)
            return Poly([s * x for x in self._c])
        a, b = self._c, other._c
        if not a or not b:
            return Poly()
        if (min(len(a), len(b)) > _SCHOOLBOOK_MAX and all(type(x) is int for x in a)
                and all(type(x) is int for x in b)):
            return Poly(_kronecker_mul(a, b))
        return Poly(_schoolbook(a, b))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial power must be a non-negative int")
        result = Poly.constant(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
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
            c = _div(rem[k + len(d) - 1], lead)
            quot[k] = c
            if c:
                for j, y in enumerate(d):
                    rem[k + j] -= c * y
        return Poly(quot), Poly(rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def divexact(self, other: "Poly") -> "Poly":
        """Division that must leave no remainder."""
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ArithmeticError("polynomial division left a remainder")
        return q

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        lead = self._c[-1]
        if lead == 1:
            return self
        return Poly([Fraction(x, lead) for x in self._c])

    def eval(self, x: Scalar) -> Scalar:
        """Exact Horner evaluation."""
        x = _exact(x)
        acc = 0
        for c in reversed(self._c):
            acc = acc * x + c
        return _exact(acc)

    def coeff_strings(self) -> list[str]:
        """Coefficients as exact "p/q" strings, lowest degree first."""
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
    raw = (pack(a) * pack(b) + _offset(n, width)).to_bytes(width * n, "little")
    return [int.from_bytes(raw[i:i + width], "little") - half
            for i in range(0, width * n, width)]


class RationalFn:
    """Reduced ratio of two polynomials with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num.is_zero:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.divexact(g)
                den = den.divexact(g)
        lead = den.leading
        if lead != 1:
            num = num * Fraction(1, lead)
            den = den.monic()
        self.num = num
        self.den = den

    def eval(self, x: Scalar) -> Scalar:
        d = self.den.eval(x)
        if d == 0:
            raise ZeroDivisionError(f"pole of rational function at {x}")
        return _div(self.num.eval(x), d)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RationalFn):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RationalFn(({self.num.pretty()}) / ({self.den.pretty()}))"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor by the Euclidean algorithm."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def compose_with_rational(g: Poly, num: Poly, den: Poly) -> Poly:
    """den(x)^deg(g) * g(num(x)/den(x)), expanded exactly.

    This is how eigenvalue products like prod_i (num - lam_i * den) are
    assembled without computing any eigenvalue: take g with the lam_i as
    roots and clear denominators.
    """
    if den.is_zero:
        raise ZeroDivisionError("composition denominator is zero")
    if g.is_zero:
        return Poly()
    k = g.degree
    den_pow = [Poly.constant(1)]
    for _ in range(k):
        den_pow.append(den_pow[-1] * den)
    acc = Poly.constant(g.coeff(k))
    for j in range(k - 1, -1, -1):
        acc = acc * num + g.coeff(j) * den_pow[k - j]
    return acc


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


def _int_root_bound(c: list[int]) -> int:
    # Fujiwara-style bound from bit lengths: |root| <= 2 * max_i (|a_{n-i}|/|a_n|)^(1/i),
    # overestimated via 2^(ceil((bits(a_{n-i}) - bits(a_n) + 1)/i)).
    n = len(c) - 1
    lead_bits = abs(c[-1]).bit_length()
    emax = 0
    for i in range(1, n + 1):
        a = c[n - i]
        if a == 0:
            continue
        e = -(-(abs(a).bit_length() - lead_bits + 1) // i)
        emax = max(emax, e)
    if emax > 60:
        raise ArithmeticError("integer root bound is out of range for this polynomial")
    return 2 << emax


def integer_roots(p: Poly) -> tuple[tuple[int, ...], Poly]:
    """All integer roots of p with multiplicity, plus the integer-root-free quotient.

    Returns (roots sorted ascending, quotient) with
    p == quotient * prod(x - root).
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has every integer as a root")
    scale = 1
    for c in p.coeffs:
        scale = scale * c.denominator // _int_gcd(scale, c.denominator)
    ints = [int(c * scale) for c in p.coeffs]
    zero_mult, ints = _strip_low_zeros(ints)
    roots = [0] * zero_mult
    if len(ints) > 1:
        bound = _int_root_bound(ints)
        for k in range(-bound, bound + 1):
            if k == 0 or ints[0] % k != 0:
                continue
            while len(ints) > 1:
                acc = 0
                for c in reversed(ints):
                    acc = acc * k + c
                if acc != 0:
                    break
                ints = _synthetic_div(ints, k)
                roots.append(k)
                if ints[0] == 0:
                    raise ArithmeticError("unexpected zero constant term after division")
    quotient = Poly([Fraction(c, scale) for c in ints])
    return tuple(sorted(roots)), quotient


def _integer(x: Scalar) -> int:
    x = _exact(x)
    if type(x) is not int:
        raise TypeError(f"integer matrix entry expected, got {x}")
    return x


class Matrix:
    """Dense integer matrix."""

    __slots__ = ("_rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence[Scalar]]):
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(rows[0])
        packed = []
        for r in rows:
            if len(r) != width:
                raise ValueError("ragged matrix rows")
            packed.append(tuple(_integer(x) for x in r))
        self._rows = tuple(packed)
        self.nrows = len(packed)
        self.ncols = width

    @classmethod
    def diagonal(cls, entries: Sequence[int]) -> "Matrix":
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

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
        return Matrix([[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self._rows, other._rows)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError("matrix shapes differ")
        return Matrix([[a - b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self._rows, other._rows)])

    def __neg__(self) -> "Matrix":
        return Matrix([[-x for x in r] for r in self._rows])


def _faddeev_leverrier(a: Matrix, u: Sequence[int] | None) -> tuple[Poly, Poly | None]:
    # The auxiliary matrices M_k satisfy adj(xI - a) = sum_k M_k x^(n-1-k), so
    # one recursion gives the charpoly and u^T adj(xI - a) u. Every M_k of an
    # integer matrix is an integer matrix, so the recursion runs on ints; numpy
    # object matmul keeps Python big ints and is the fastest exact route here.
    n = a.nrows
    mat = np.array(a.rows(), dtype=object)
    m = np.identity(n, dtype=object)
    uv = None if u is None else np.array(u, dtype=object)
    coeffs = [1]
    forms = []
    for k in range(1, n + 1):
        if uv is not None:
            forms.append(int(uv @ (m @ uv)))
        m = mat @ m
        tr = 0
        for i in range(n):
            tr += m[i, i]
        c, rem = divmod(-tr, k)
        if rem:
            raise ArithmeticError("trace not divisible in integer Faddeev-LeVerrier")
        coeffs.append(c)
        for i in range(n):
            m[i, i] += c
    if any(m[i, j] != 0 for i in range(n) for j in range(n)):
        raise ArithmeticError("Faddeev-LeVerrier recursion did not terminate at zero")
    f = Poly(list(reversed(coeffs)))
    if u is None:
        return f, None
    return f, Poly(list(reversed(forms)))


# Faddeev-LeVerrier runs at or below this order. Its O(n^4) big-int work beats
# the multimodular kernel's fixed cost of a few numpy calls per row up to here.
_FL_MAX = 11

# The multimodular kernel works modulo primes below this bound. Every sum it
# accumulates in int64 has at most n terms, each a product of two residues, so
# it cannot wrap while n * (p - 1)^2 < 2^63: up to order 2^15 here.
_PRIME_BOUND = 1 << 24
# primes below _PRIME_BOUND, largest first; only ever extended, so every caller
# sees the same list
_PRIMES: list[int] = []


def _primes_past(bound: int) -> list[int]:
    """The fewest of the largest primes below _PRIME_BOUND whose product exceeds bound."""
    out, product = [], 1
    while product <= bound:
        if len(out) == len(_PRIMES):
            q = (_PRIMES[-1] if _PRIMES else _PRIME_BOUND) - 1
            while any(q % d == 0 for d in range(2, isqrt(q) + 1)):
                q -= 1
            _PRIMES.append(q)
        out.append(_PRIMES[len(out)])
        product *= out[-1]
    return out


def _hessenberg_charpoly_mod(h: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Charpoly coefficients, lowest first, of each h[i] modulo p[i].

    h is a (P, n, n) int64 batch of residues in [0, p). Each prime reduces its
    matrix to upper Hessenberg form by similarity transforms over F_p, with its
    own pivot row, which leave the charpoly unchanged; then the recurrence
    chi_m = (x - h_mm) chi_{m-1} - sum_i h_im (h_{i+1,i} ... h_{m,m-1}) chi_{i-1}
    over the leading blocks gives the charpoly (Cohen, Alg. 2.2.9). h is
    overwritten.
    """
    count, n, _ = h.shape
    batch = np.arange(count)
    p2, p3 = p[:, None], p[:, None, None]
    for m in range(n - 2):
        # pivot: the first row below the diagonal with a nonzero in column m;
        # a prime with none has nothing to eliminate in this column
        r = m + 1 + np.argmax(h[:, m + 1:, m] != 0, axis=1)
        moved = r != m + 1
        if moved.any():
            b, rb = batch[moved], r[moved]
            rows = h[b, rb, :]
            h[b, rb, :] = h[b, m + 1, :]
            h[b, m + 1, :] = rows
            cols = h[b, :, rb]
            h[b, :, rb] = h[b, :, m + 1]
            h[b, :, m + 1] = cols
        inv = np.array([pow(int(x), -1, int(q)) if x else 0
                        for x, q in zip(h[:, m + 1, m], p)], dtype=np.int64)
        u = h[:, m + 2:, m] * inv[:, None] % p2
        # h <- L^-1 h L with L = I + sum_i u_i e_i e_(m+1)^T: one rank-1 row
        # update, then one column update, both in place
        below = h[:, m + 2:, m:]
        below -= u[:, :, None] * h[:, m + 1, None, m:]
        np.remainder(below, p3, out=below)
        col = h[:, :, m + 1]
        col += np.einsum("bij,bj->bi", h[:, :, m + 2:], u)
        np.remainder(col, p2, out=col)
    chi = np.zeros((count, n + 1, n + 1), dtype=np.int64)
    chi[:, 0, 0] = 1
    # tail[:, i] = h_{i,i-1} h_{i+1,i} ... h_{m-1,m-2} for the current m
    tail = np.ones((count, n), dtype=np.int64)
    for m in range(1, n + 1):
        prev = chi[:, m - 1, :m]
        acc = -(h[:, m - 1, m - 1, None] * prev % p2)
        if m > 1:
            tail[:, 1:m] = tail[:, 1:m] * h[:, m - 1, m - 2, None] % p2
            w = h[:, :m - 1, m - 1] * tail[:, 1:m] % p2
            acc[:, :m - 1] -= np.einsum("bi,bik->bk", w, chi[:, :m - 1, :m - 1]) % p2
        chi[:, m, 1:m + 1] = prev
        chi[:, m, :m] = (chi[:, m, :m] + acc) % p2
    return chi[:, n, :]


# batch at most this many int64 entries per array, so memory stays bounded
_BATCH_ENTRIES = 1 << 21


def _multimodular_charpoly(rows: Sequence[Sequence[int]]) -> Poly:
    """det(xI - a) of a square integer matrix, by Hessenberg reduction mod primes.

    |c_k| <= C(n, k) * rho^k, where rho is the largest absolute row sum,
    because c_k is a signed sum of C(n, k) principal minors of order k, each
    at most rho^k. Primes are taken until their product exceeds twice that
    bound, and the residues are lifted by CRT into the symmetric range. Every
    prime works: a similarity over F_p keeps the charpoly, so there is no
    unlucky prime to detect or retry.
    """
    n = len(rows)
    rho = max(sum(abs(x) for x in r) for r in rows)
    primes = _primes_past(2 * max(comb(n, k) * rho ** k for k in range(n + 1)))
    if n * (primes[0] - 1) ** 2 >= 1 << 63:
        raise OverflowError(f"order {n} with primes near {primes[0]} would overflow int64")
    # entries past int64 are reduced as Python ints
    entries = np.array(rows, dtype=np.int64 if rho < 1 << 63 else object)
    step = max(1, _BATCH_ENTRIES // (n + 1) ** 2)
    parts = []
    for lo in range(0, len(primes), step):
        ps = np.array(primes[lo:lo + step], dtype=entries.dtype)
        h = (entries[None] % ps[:, None, None]).astype(np.int64, copy=False)
        parts.append(_hessenberg_charpoly_mod(h, ps.astype(np.int64)))
    # CRT: c = sum_i r_i * (M/p_i) * ((M/p_i)^-1 mod p_i) mod M
    modulus = prod(primes)
    weights = np.array([(modulus // q) * pow(modulus // q, -1, q) for q in primes],
                       dtype=object)
    lifted = np.concatenate(parts).T.astype(object) @ weights
    half = modulus // 2
    return Poly([c if c <= half else c - modulus for c in (int(x) % modulus for x in lifted)])


def charpoly_with_adjugate_form(a: Matrix, u: Sequence[int] | None):
    """Characteristic polynomial of a, and u^T adj(xI - a) u if u is given.

    At or below order _FL_MAX both come out of one Faddeev-LeVerrier
    recursion. Above it the charpoly comes from the multimodular Hessenberg
    kernel, and the form from the matrix determinant lemma:
    det(xI - a - u u^T) = chi_a(x) - u^T adj(xI - a) u.
    """
    if not a.is_square:
        raise ValueError("characteristic polynomial of a non-square matrix")
    if u is not None and len(u) != a.nrows:
        raise ValueError("vector length differs from matrix size")
    uv = None if u is None else [_integer(x) for x in u]
    if a.nrows <= _FL_MAX:
        return _faddeev_leverrier(a, uv)
    f = _multimodular_charpoly(a.rows())
    if uv is None:
        return f, None
    shifted = [[x + ui * uj for x, uj in zip(r, uv)] for r, ui in zip(a.rows(), uv)]
    return f, f - _multimodular_charpoly(shifted)


def charpoly(a: Matrix) -> Poly:
    """det(xI - a), monic, with integer coefficients."""
    f, _ = charpoly_with_adjugate_form(a, None)
    return f


def adjugate_quadratic_form(a: Matrix, u: Sequence[int]) -> Poly:
    """u^T adj(xI - a) u as a polynomial of degree n-1."""
    _, p = charpoly_with_adjugate_form(a, u)
    return p
