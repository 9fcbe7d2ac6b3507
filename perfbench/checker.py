"""Independent checks of sigspec outputs.

Nothing here imports sigspec. Graphs are rebuilt from plain descriptions
(vertex count, edge pairs, signs, markings), products are assembled in numpy
from the Kronecker block form given in the docstring of
``sigspec.product.block_adjacency``, exact polynomials are compared with
sympy's charpoly where the order allows and otherwise with Newton's
identities and ``slogdet``, and floats are compared with ``eigvalsh``.

Every check raises ``CheckFailed`` with a message naming what differed.
"""
from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

# sympy's charpoly of an integer matrix takes ~0.9 s at order 72 here;
# above this order the top coefficients and two determinants are compared instead
SYMPY_MAX_ORDER = 80
EIG_ABS_TOL = 1e-8
ENERGY_REL_TOL = 1e-9
LOGDET_REL_TOL = 1e-9
NEAR_INTEGER = 1e-7


class CheckFailed(Exception):
    """An output disagrees with the independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------- graphs

def family_pairs(family: str, n: int, b: int | None = None) -> list[tuple[int, int]]:
    """Edge pairs (i < j) of a generator family member."""
    if family == "star":
        return [(0, k) for k in range(1, n)]
    if family == "path":
        return [(k, k + 1) for k in range(n - 1)]
    if family == "cycle":
        return sorted(tuple(sorted((k, (k + 1) % n))) for k in range(n))
    if family == "complete":
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    if family == "complete-bipartite":
        return [(i, n + j) for i in range(n) for j in range(b)]
    if family == "prism":
        ring = [(k, (k + 1) % n) for k in range(n)]
        pairs = ring + [(n + i, n + j) for i, j in ring] + [(k, n + k) for k in range(n)]
        return sorted(tuple(sorted(p)) for p in pairs)
    raise ValueError(f"unknown family {family!r}")


def line_graph_pairs(pairs: Sequence[tuple[int, int]]) -> tuple[int, list[tuple[int, int]]]:
    """Line graph with vertex k standing for the k-th edge in sorted order."""
    base = sorted(tuple(sorted(p)) for p in pairs)
    out = [(a, c) for a in range(len(base)) for c in range(a + 1, len(base))
           if set(base[a]) & set(base[c])]
    return len(base), out


def unsigned_adjacency(n: int, pairs: Iterable[tuple[int, int]]) -> np.ndarray:
    a = np.zeros((n, n), dtype=np.int64)
    for i, j in pairs:
        a[i, j] = a[j, i] = 1
    return a


def signed_adjacency(n: int, edges: Iterable[tuple[int, int, int]]) -> np.ndarray:
    a = np.zeros((n, n), dtype=np.int64)
    for i, j, s in edges:
        a[i, j] = a[j, i] = s
    return a


def mu_adjacency(base: np.ndarray, marks: Sequence[int]) -> np.ndarray:
    """Every edge re-signed to the product of its endpoint marks."""
    mu = np.asarray(marks, dtype=np.int64)
    return np.abs(base) * np.outer(mu, mu)


def canonical_marks(a: np.ndarray) -> list[int]:
    """Product of incident edge signs per vertex."""
    out = []
    for row in a:
        nz = row[row != 0]
        out.append(int(np.prod(nz)) if nz.size else 1)
    return out


def product_adjacency(a1: np.ndarray, mu1: Sequence[int],
                      a2: np.ndarray, mu2: Sequence[int]) -> np.ndarray:
    """Adjacency of the marked product from Kronecker blocks.

    [[ A(S1mu) (x) J_n2,  diag(mu1) (x) 1 mu2^T ],
     [ diag(mu1) (x) mu2 1^T,  I_n1 (x) A(S2mu) ]]
    """
    n1, n2 = a1.shape[0], a2.shape[0]
    m1 = np.asarray(mu1, dtype=np.int64)
    m2 = np.asarray(mu2, dtype=np.int64)
    phi = np.diag(m1)
    ones_mu2 = np.outer(np.ones(n2, dtype=np.int64), m2)
    top = np.hstack([np.kron(mu_adjacency(a1, m1), np.ones((n2, n2), dtype=np.int64)),
                     np.kron(phi, ones_mu2)])
    bottom = np.hstack([np.kron(phi, ones_mu2.T),
                        np.kron(np.eye(n1, dtype=np.int64), mu_adjacency(a2, m2))])
    return np.vstack([top, bottom])


def matrix_of(a: np.ndarray, kind: str) -> np.ndarray:
    """A, or L = D - A, or Q = D + A with D the underlying degrees."""
    if kind == "A":
        return a
    d = np.diag(np.abs(a).sum(axis=1))
    return d - a if kind == "L" else d + a


def parse_graph_text(text: str) -> tuple[int, list[tuple[int, int, int]], list[int]]:
    """(n, signed edges, marking) from sigspec's text format."""
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    require(bool(lines) and len(lines[0]) == 2, "graph text has no 'n m' header")
    n, m = int(lines[0][0]), int(lines[0][1])
    edges = []
    for tokens in lines[1:1 + m]:
        require(len(tokens) == 3 and tokens[2] in "+-", f"bad edge line {tokens}")
        i, j = sorted((int(tokens[0]), int(tokens[1])))
        edges.append((i, j, 1 if tokens[2] == "+" else -1))
    require(len(edges) == m, f"header promises {m} edges, found {len(edges)}")
    require(len({(i, j) for i, j, _ in edges}) == m, "duplicate edge in graph text")
    rest = lines[1 + m:]
    if rest:
        require(rest[0][0] == "marking" and len(rest[0]) == n + 1, "bad marking line")
        marks = [1 if t == "+" else -1 for t in rest[0][1:]]
    else:
        marks = canonical_marks(signed_adjacency(n, edges))
    return n, edges, marks


def check_graph_text(text: str, a: np.ndarray, marks: Sequence[int], label: str) -> None:
    """Graph text parses to exactly this signed adjacency and marking."""
    n, edges, got_marks = parse_graph_text(text)
    require(n == a.shape[0], f"{label}: {n} vertices, expected {a.shape[0]}")
    require(np.array_equal(signed_adjacency(n, edges), a),
            f"{label}: parsed adjacency differs from the independent build")
    require(list(got_marks) == list(marks), f"{label}: marking differs")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------- polynomials

def as_int_coeffs(coeffs: Sequence, label: str) -> list[int]:
    """Exact coefficients (ints, Fractions or 'p/q' strings), lowest degree first."""
    out = []
    for c in coeffs:
        f = Fraction(c)
        require(f.denominator == 1, f"{label}: non-integer coefficient {c}")
        out.append(f.numerator)
    return out


def poly_eval(coeffs: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _log_of_positive_int(v: int) -> float:
    shift = max(v.bit_length() - 64, 0)
    return math.log(v >> shift) + shift * math.log(2)


_SYMPY_CACHE: dict[bytes, list[int]] = {}
_EIG_CACHE: dict[bytes, np.ndarray] = {}


def _key(m: np.ndarray) -> bytes:
    return hashlib.sha256(np.ascontiguousarray(m, dtype=np.int64).tobytes()
                          + str(m.shape).encode()).digest()


def sympy_charpoly(m: np.ndarray) -> list[int]:
    """det(xI - m) by sympy over ZZ, lowest degree first."""
    key = _key(m)
    if key not in _SYMPY_CACHE:
        from sympy import ZZ
        from sympy.polys.matrices import DomainMatrix
        n = m.shape[0]
        dm = DomainMatrix([[ZZ(int(x)) for x in row] for row in m], (n, n), ZZ)
        _SYMPY_CACHE[key] = [int(c) for c in reversed(dm.charpoly())]
    return _SYMPY_CACHE[key]


def integer_traces(m: np.ndarray) -> tuple[int, int, int]:
    """tr(M), tr(M^2), tr(M^3), exact while entries of M^2 stay below 2^53."""
    f = m.astype(np.float64)
    rho = float(np.abs(f).sum(axis=1).max())
    require(f.shape[0] * rho ** 3 < 2.0 ** 52, "matrix too large for exact float traces")
    sq = f @ f
    return (int(round(float(np.trace(f)))), int(round(float(np.trace(sq)))),
            int(round(float(np.sum(sq * f.T)))))


def check_charpoly(coeffs: Sequence, m: np.ndarray, label: str) -> None:
    """coeffs (lowest first) is det(xI - m).

    Up to SYMPY_MAX_ORDER the polynomial must equal sympy's. Above it, the
    three top coefficients must follow from the traces of M, M^2, M^3 by
    Newton's identities, log p(k) must match slogdet(kI - M) to a relative
    LOGDET_REL_TOL at two integers k above the largest absolute row sum, and
    the lowest nonzero coefficient must sit at the nullity with the sign and
    size of the product of the nonzero eigenvalues. Floats see only relative
    changes, so above SYMPY_MAX_ORDER a middle coefficient is covered only
    through the factored form (``check_factorization``).
    """
    c = as_int_coeffs(coeffs, label)
    n = m.shape[0]
    require(len(c) == n + 1 and c[-1] == 1, f"{label}: not monic of degree {n}")
    if n <= SYMPY_MAX_ORDER:
        require(c == sympy_charpoly(m), f"{label}: differs from sympy's charpoly")
        return
    p1, p2, p3 = integer_traces(m)
    newton = [-p1, (p1 * p1 - p2) // 2, -(p1 ** 3 - 3 * p1 * p2 + 2 * p3) // 6]
    require([c[n - 1], c[n - 2], c[n - 3]] == newton,
            f"{label}: top coefficients {c[n - 1]}, {c[n - 2]}, {c[n - 3]} "
            f"differ from Newton's identities {newton}")
    rho = int(np.abs(m).sum(axis=1).max())
    eye = np.eye(n)
    for k in (rho + 1, 2 * rho + 3):
        sign, logdet = np.linalg.slogdet(k * eye - m)
        value = poly_eval(c, k)
        require(sign > 0 and value > 0, f"{label}: p({k}) is not positive")
        exact = _log_of_positive_int(value)
        require(abs(exact - logdet) <= LOGDET_REL_TOL * abs(logdet),
                f"{label}: log p({k}) = {exact!r} but slogdet gives {logdet!r}")
    # the bottom of the polynomial: x^z times a constant term prod(-lambda) over
    # the nonzero eigenvalues, to first-order eigvalsh accuracy
    ev = eigenvalues(m)
    nonzero = ev[np.abs(ev) > NEAR_INTEGER]
    z = n - nonzero.size
    require(not any(c[:z]) and c[z] != 0, f"{label}: x^{z} does not divide exactly once "
            f"the {z} zero eigenvalues")
    negative = (n - z + int(np.sum(nonzero < 0))) % 2
    require((c[z] < 0) == bool(negative), f"{label}: sign of the coefficient of x^{z}")
    expected = float(np.sum(np.log(np.abs(nonzero))))
    tol = 64 * n * np.finfo(float).eps * rho * float(np.sum(1 / np.abs(nonzero)))
    got = _log_of_positive_int(abs(c[z]))
    require(abs(got - expected) <= tol + LOGDET_REL_TOL * abs(expected),
            f"{label}: log|coefficient of x^{z}| = {got!r}, eigenvalues give {expected!r}")


def check_factorization(assembled: Sequence, factors: Sequence[tuple[Sequence, int]],
                        points: Sequence[int], label: str) -> None:
    """assembled == prod factor^exponent, compared exactly at integer points."""
    a = as_int_coeffs(assembled, label)
    fs = [(as_int_coeffs(f, label), e) for f, e in factors]
    degree = sum((len(f) - 1) * e for f, e in fs)
    require(len(a) - 1 == degree, f"{label}: factor degrees add to {degree}, "
            f"assembled has degree {len(a) - 1}")
    for k in points:
        rhs = 1
        for f, e in fs:
            rhs *= poly_eval(f, k) ** e
        require(poly_eval(a, k) == rhs, f"{label}: factored form differs at x = {k}")


# ---------------------------------------------------------------- spectra

def eigenvalues(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of an integer matrix by LAPACK."""
    key = _key(m)
    if key not in _EIG_CACHE:
        _EIG_CACHE[key] = np.linalg.eigvalsh(m.astype(np.float64))
    return _EIG_CACHE[key]


def check_eigenvalues(values: Sequence[float], m: np.ndarray, label: str) -> None:
    ref = eigenvalues(m)
    got = np.sort(np.asarray(values, dtype=np.float64))
    require(got.shape == ref.shape, f"{label}: {got.size} eigenvalues, expected {ref.size}")
    err = float(np.max(np.abs(got - ref))) if ref.size else 0.0
    require(err <= EIG_ABS_TOL, f"{label}: eigenvalues off by {err:.3e}")


def reference_energy(m: np.ndarray) -> float:
    return float(np.sum(np.abs(eigenvalues(m))))


def check_energy(value: float, m: np.ndarray, label: str) -> None:
    ref = reference_energy(m)
    rel = abs(value - ref) / max(abs(ref), 1.0)
    require(rel <= ENERGY_REL_TOL, f"{label}: energy {value!r} vs eigvalsh {ref!r} "
            f"(relative {rel:.2e})")


def near_integer_eigenvalues(m: np.ndarray) -> list[int]:
    """Eigenvalues lying within NEAR_INTEGER of an integer, rounded, ascending."""
    ev = eigenvalues(m)
    r = np.rint(ev)
    return sorted(int(x) for x in r[np.abs(ev - r) <= NEAR_INTEGER])


def check_integer_roots(roots: Iterable[int], m: np.ndarray, label: str) -> None:
    """The claimed integer roots are exactly the integer eigenvalues, with multiplicity."""
    got = sorted(int(r) for r in roots)
    require(got == near_integer_eigenvalues(m),
            f"{label}: integer roots differ from the integer eigenvalues")


def check_integral(verdict: bool, m: np.ndarray, label: str) -> None:
    integral = len(near_integer_eigenvalues(m)) == m.shape[0]
    require(bool(verdict) == integral,
            f"{label}: integrality verdict {verdict}, eigvalsh says {integral}")


def check_coronal(num: Sequence, den: Sequence, shared: Sequence,
                  m: np.ndarray, mu: Sequence[int], label: str) -> None:
    """num/den is mu^T (xI - M)^{-1} mu in lowest terms and den * shared = det(xI - M)."""
    from sympy import Poly, gcd, symbols

    p, q, s = (as_int_coeffs(x, label) for x in (num, den, shared))
    require(q[-1] == 1 and s[-1] == 1, f"{label}: den and shared must be monic")
    require(len(p) == len(q) - 1, f"{label}: deg num != deg den - 1")
    check_charpoly(poly_mul(q, s), m, f"{label} den*shared")
    x = symbols("x")
    g = gcd(Poly(list(reversed(p)), x), Poly(list(reversed(q)), x))
    require(g.degree() == 0, f"{label}: num and den share a factor")
    rho = int(np.abs(m).sum(axis=1).max())
    u = np.asarray(mu, dtype=np.float64)
    eye = np.eye(m.shape[0])
    for k in (rho + 1, rho + 2):
        ref = float(u @ np.linalg.solve(k * eye - m, u))
        got = poly_eval(p, k) / poly_eval(q, k)
        require(abs(got - ref) <= 1e-9 * max(abs(ref), 1.0),
                f"{label}: coronal at {k} is {got!r}, solve gives {ref!r}")
