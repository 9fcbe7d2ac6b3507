"""Factored characteristic polynomials of the marked product.

The product of (Sigma1, mu1) on n1 vertices with (Sigma2, mu2) on n2
vertices signs every edge mu(u)mu(v), and its own marking is mu1 on the
clones and mu2 on the copies. So each of its matrices A, L and Q is
D*M*D, with D the diagonal of that marking and M the same matrix of the
product of the underlying all-positive graphs |Sigma1| and |Sigma2|
(switching; Zaslavsky, "Signed graphs", Discrete Appl. Math. 1982). Its
charpoly, and every factor below, is a function of |Sigma1| and |Sigma2|
alone. M has two blocks. On the clone block it has a scalar diagonal d
plus s*A(|Sigma1|) (x) J_n2, and on the copy block one copy N of a matrix
of |Sigma2| per first-factor vertex; the coupling between them is
+-I (x) J_n2:

    A:  d = 0,             s = +1,  N = A(|Sigma2|)
    L:  d = n2*(r1 + 1),   s = -1,  N = L(|Sigma2|) + n2*I
    Q:  d = n2*(r1 + 1),   s = +1,  N = Q(|Sigma2|) + n2*I

where d is the clone degree of an r1-regular first factor;
degree_mode="paper" puts the published constant r1 + 2*n2 there instead.

Eliminating the copy blocks (a Schur complement) leaves
(x - d)I - (s*A(|Sigma1|) + c(x) I) (x) J_n2, where c = num/den =
1^T (xI - N)^-1 1 is the reduced coronal of N with the all-ones vector,
and shared = charpoly(N) / den. For L, N 1 = n2 1, so c = n2/(x - n2) and
shared = charpoly(N)/(x - n2). J_n2 has eigenvalue n2 once and 0
otherwise, so

    det(xI - M) = (x - d)^(n1(n2-1)) * shared^n1 * prod_i (u - lam_i*v)

with u = (x - d)*den - n2*num, v = n2*den and lam_i the eigenvalues of
s*A(|Sigma1|). The bracket prod_i (u - lam_i*v) is assembled without
computing eigenvalues by composing the charpoly of s*A(|Sigma1|) with u/v,
one square-free part at a time, and only when it is read: integrality and
energy need the factors alone. Every factor is monic: den is, and
deg num < deg den.

factored_charpolys is the one route from two factors to a product charpoly;
cospectral_family_check compares its forms and builds no product.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Literal, Sequence

from .coronal import CoronalTriple, _row_sum_coronal, reduced_coronal
from .exact import (_SCHOOLBOOK_MAX, Matrix, Poly, _charpolys_with_forms, _shifted,
                    _square_free_parts, _times_linear, compose_with_rational)
from .graphs import (MarkedSignedGraph, SignedGraph, adjacency_matrix, graph_matrix,
                     regular_degree, require_regular)

DegreeMode = Literal["constructed", "paper"]
MatrixKind = Literal["A", "L", "Q"]


@dataclass(frozen=True)
class FactoredCharPoly:
    """det(xI - M) = linear^linear_exponent * shared^shared_exponent * bracket.

    linear is x - d for the clone-block diagonal d, and coronal is the
    reduced coronal num/den of the copy block N, a matrix of |Sigma2|, with
    the all-ones vector. The rest is derived from these: shared is
    coronal.shared, the cofactor of den in charpoly(N); the exponents are
    n1(n2 - 1) and n1; and the bracket is prod_i (u - lam_i * v), with
    u = bracket_u and v = bracket_v as in the module docstring, over the
    eigenvalues lam_i of the integer matrix bracket_matrix, +-A(|Sigma1|),
    whose charpoly bracket_charpoly is composed with u/v. For each lam_i the
    symmetric bordered matrix

        B = [[d + lam_i*n2, sqrt(n2)*1^T], [sqrt(n2)*1, N]]

    of order n2 + 1 has det(xI - B) = shared * (u - lam_i * v) by its Schur
    complement, so the roots of shared^n1 * bracket are the eigenvalues of
    n1 such matrices. All three factors are monic. The bracket and the
    expansion are built on first access only, because integrality and
    energy need the factors alone. factored_charpolys builds every instance,
    one per pair of underlying graphs and clone diagonal, so pairs that
    differ only in signs and markings share its bracket and expansion.

    _value_at(x) is det(xI - M) at an int x, exact and read off the factors
    without multiplying any polynomial out; with _degree and _l1_bound it
    decides p == assembled at one point (see _l1_bound). The same
    evaluation taken mod a prime would spot-check a form too large to
    expand.
    """

    matrix_kind: MatrixKind
    linear_factor: Poly
    coronal: CoronalTriple
    bracket_matrix: Matrix
    bracket_charpoly: Poly
    copy_block: Matrix

    @property
    def shared_factor(self) -> Poly:
        return self.coronal.shared

    @property
    def shared_exponent(self) -> int:
        return self.bracket_matrix.nrows

    @property
    def linear_exponent(self) -> int:
        return self.bracket_matrix.nrows * (self.copy_block.nrows - 1)

    @cached_property
    def bracket_u(self) -> Poly:
        """u = (x - d)*den - n2*num."""
        return self.linear_factor * self.coronal.den - self.copy_block.nrows * self.coronal.num

    @cached_property
    def bracket_v(self) -> Poly:
        """v = n2*den."""
        return self.copy_block.nrows * self.coronal.den

    @cached_property
    def bracket(self) -> Poly:
        """prod_i (u - lam_i * v) = v^n1 * chi(u/v), chi = bracket_charpoly."""
        return _composed_bracket(self.bracket_charpoly, self.bracket_u, self.bracket_v)

    @property
    def _degree(self) -> int:
        """deg assembled: the bracket has degree n1*deg u, as u is monic of
        degree deg den + 1 and deg v = deg den."""
        return self.linear_exponent + self.shared_exponent * (
            self.shared_factor.degree + self.bracket_u.degree)

    @cached_property
    def _l1_bound(self) -> int:
        """B = (1 + |d|)^e * |shared|_1^n1 * sum_k |c_k| |u|_1^k |v|_1^(n1-k)
        >= |assembled|_1, for chi = bracket_charpoly = sum_k c_k x^k.

        |f + g|_1 <= |f|_1 + |g|_1, and |fg|_1 <= |f|_1 |g|_1 since every
        product coefficient is a sum of f_i g_j, each pair used once; applied
        to assembled = (x - d)^e * shared^n1 * sum_k c_k u^k v^(n1-k) this
        gives B. So for an integer polynomial p, p == assembled exactly when
        p(X) == _value_at(X) at one X = 2^b > 2*max(|p|_inf, B): the
        difference q has |q|_inf <= |p|_inf + B < X, and if q != 0, with
        q_j its lowest nonzero coefficient, q(X) = X^j (q_j + X*r) for an
        int r, where 0 < |q_j| < X makes q_j + X*r nonzero. Unequal degrees
        (_degree) decide a miss before any of this.
        """
        u, v, shared = (sum(map(abs, p.coeffs))
                        for p in (self.bracket_u, self.bracket_v, self.shared_factor))
        chi = self.bracket_charpoly.coeffs
        m = len(chi) - 1
        return ((1 + abs(self.linear_factor.coeff(0))) ** self.linear_exponent
                * shared ** self.shared_exponent
                * sum(abs(c) * u ** k * v ** (m - k) for k, c in enumerate(chi)))

    def _value_at(self, x: int) -> int:
        """det(xI - M) at the int x, from the factors: the bracket
        sum_k c_k u(x)^k v(x)^(n1-k) by homogeneous Horner."""
        u, v = self.bracket_u.eval(x), self.bracket_v.eval(x)
        chi = self.bracket_charpoly.coeffs
        bracket, vk = chi[-1], 1
        for c in reversed(chi[:-1]):
            vk *= v
            bracket = bracket * u + c * vk
        return ((x + self.linear_factor.coeff(0)) ** self.linear_exponent
                * self.shared_factor.eval(x) ** self.shared_exponent * bracket)

    @cached_property
    def assembled(self) -> Poly:
        rest = (self.shared_factor ** self.shared_exponent) * self.bracket
        expanded = _times_linear(rest, {-self.linear_factor.coeff(0): self.linear_exponent})
        if self._degree != expanded.degree:
            raise AssertionError("factored degrees do not add up")
        if not expanded.is_monic:
            raise AssertionError("assembled polynomial must be monic")
        return expanded


def _composed_bracket(chi: Poly, u: Poly, v: Poly) -> Poly:
    """v^deg(chi) * chi(u/v), expanded, for a monic chi.

    With chi = prod_j s_j^j split square-free (Yun), this is
    prod_j (v^deg(s_j) * s_j(u/v))^j: each distinct factor is composed once
    and raised to its power, where the whole composition would repeat the
    work of every repeated eigenvalue. A chi of degree at most
    _SCHOOLBOOK_MAX is composed whole, the size rule of Poly.__mul__.
    """
    if chi.degree <= _SCHOOLBOOK_MAX:
        return compose_with_rational(chi, u, v)
    return prod((compose_with_rational(s, u, v) ** j for s, j in _square_free_parts(chi)),
                start=Poly.constant(1))


def _a_degree(r1: int, n2: int, degree_mode: DegreeMode) -> int:
    # clone vertices have degree n2*(r1+1) in the constructed product;
    # "paper" keeps the published constant r1 + 2*n2 for comparison runs
    if degree_mode == "constructed":
        return n2 * (r1 + 1)
    if degree_mode == "paper":
        return r1 + 2 * n2
    raise ValueError(f"degree_mode must be 'constructed' or 'paper', got {degree_mode!r}")


def factored_charpoly(mg1: MarkedSignedGraph, mg2: MarkedSignedGraph,
                      kind: MatrixKind,
                      degree_mode: DegreeMode = "constructed") -> FactoredCharPoly:
    """Factored charpoly of the product's A, L or Q (see the module docstring).

    L and Q need the first factor regular, for the clone-block diagonal d;
    the second factor may be any graph. degree_mode picks d for L and Q and
    is ignored for A.
    """
    return factored_charpolys([(mg1, mg2)], kind, [degree_mode])[0][0]


def factored_charpolys(pairs: Sequence[tuple[MarkedSignedGraph, MarkedSignedGraph]],
                       kind: MatrixKind, degree_modes: Sequence[DegreeMode]
                       ) -> list[list[FactoredCharPoly]]:
    """factored_charpoly of each pair in each degree mode, one list per pair.

    Every factor depends on the underlying graphs alone (see the module
    docstring), so the work is keyed by them: (n, endpoint columns) of the
    second factor keys its copy block, and of the first its bracket matrix.
    Each key's all-positive graph is built once, and pairs with equal keys
    and equal d get one shared FactoredCharPoly. Every copy block, with the
    all-ones vector, and every bracket matrix goes through one exact call,
    so the matrices of each order are one kernel batch, and each copy
    block's coronal is reduced once. L and Q copy blocks go to the kernel
    as L or Q(|Sigma2|), without the n2*I, and their polynomials are
    shifted back by n2. A copy block whose rows all sum to one sigma sends
    no vector and takes no gcd: its coronal is n2/(x - sigma), with
    shared = charpoly(N)/(x - sigma) (see _row_sum_coronal). That is A and Q
    of a regular |Sigma2|, and L of every |Sigma2|. The key graphs are built
    from the factors' own kept edge columns, with no check
    (SignedGraph._from_normal_columns). The results are read back by
    position: copy blocks first, then bracket matrices.
    """
    if kind not in ("A", "L", "Q"):
        raise ValueError(f"matrix kind must be A, L or Q, got {kind!r}")
    # per underlying key: the position of its copy block; the position of
    # its bracket matrix and the first factor's regular degree (0 for A)
    blocks, brackets, keys = {}, {}, []
    for mg1, mg2 in pairs:
        g1, g2 = mg1.graph, mg2.graph
        k1 = (g1.n, *g1._columns()[:2])
        k2 = (g2.n, *g2._columns()[:2])
        if k1 not in brackets:
            brackets[k1] = (len(brackets),
                            0 if kind == "A" else require_regular(g1, "first factor"))
        blocks.setdefault(k2, len(blocks))
        keys.append((k1, k2))
    copies, items = [], []
    for n, ii, jj in blocks:
        m = graph_matrix(SignedGraph._from_normal_columns(n, ii, jj, (1,) * len(ii)), kind)
        copies.append(m if kind == "A" else m + Matrix.diagonal([n] * n))
        # a block whose rows all sum to one sigma needs no adjugate form
        uniform = len(set(map(sum, m.rows()))) == 1
        items.append((m, None if uniform else (1,) * n))
    # the clone block of L carries -A(|Sigma1|) (x) J: the all-negative graph's
    sign = -1 if kind == "L" else 1
    mats = [adjacency_matrix(SignedGraph._from_normal_columns(n, ii, jj, (sign,) * len(ii)))
            for n, ii, jj in brackets]
    solved = _charpolys_with_forms(items + [(m, None) for m in mats])
    coronals = []
    for (n, _, _), (m, u), (f, p) in zip(blocks, items, solved):
        # the kernel took N - n2 I = L or Q(|Sigma2|), whose smaller diagonal
        # needs fewer primes; chi_N(x) = chi_(N - n2 I)(x - n2), and Q's
        # adjugate form shifts back as its charpoly does
        shift = 0 if kind == "A" else n
        if shift:
            f = _shifted(f, -shift)
        if u is None:
            coronals.append(_row_sum_coronal(f, n, sum(m.rows()[0]) + shift))
        else:
            coronals.append(reduced_coronal(f, _shifted(p, -shift) if shift else p))
    forms = {}
    out = []
    for k1, k2 in keys:
        b, r1 = brackets[k1]
        n2 = k2[0]
        row = []
        for mode in degree_modes:
            d = 0 if kind == "A" else _a_degree(r1, n2, mode)
            key = (k2, k1, d)
            if key not in forms:
                forms[key] = FactoredCharPoly(
                    matrix_kind=kind, linear_factor=Poly.linear(-d),
                    coronal=coronals[blocks[k2]], bracket_matrix=mats[b],
                    bracket_charpoly=solved[len(items) + b][0],
                    copy_block=copies[blocks[k2]])
            row.append(forms[key])
        out.append(row)
    return out


@dataclass(frozen=True)
class CospectralFamilyReport:
    """Product cospectrality check for a cospectral input pair."""

    side: Literal["left", "right"]
    hypothesis_cospectral: bool
    hypothesis_coronal_equal: bool | None
    regular_inputs: bool
    a_match: bool
    l_match: bool | None
    q_match: bool | None

    @property
    def hypothesis_holds(self) -> bool:
        if not self.hypothesis_cospectral:
            return False
        return self.hypothesis_coronal_equal is not False

    @property
    def consistent(self) -> bool:
        """True unless the hypothesis holds and some product charpoly differs."""
        if not self.hypothesis_holds:
            return True
        return self.a_match and self.l_match is not False and self.q_match is not False


def cospectral_family_check(mg_a: MarkedSignedGraph, mg_b: MarkedSignedGraph,
                            mg: MarkedSignedGraph,
                            side: Literal["left", "right"]) -> CospectralFamilyReport:
    """Do cospectral factors give cospectral products on the given side?

    side="left" compares mg_a * mg and mg_b * mg (cospectral underlying
    graphs suffice); side="right" compares mg * mg_a and mg * mg_b (equal
    reduced coronals are hypothesised as well). Hypotheses and matches are read off
    the products' factored forms, one factored_charpolys call per kind, and
    no product is built. A match compares the assembled forms, the products'
    charpolys, not the factors: a factorization is not unique. L and Q are
    compared when all three inputs are regular.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    pairs = [(mg_a, mg), (mg_b, mg)] if side == "left" else [(mg, mg_a), (mg, mg_b)]
    (fa,), (fb,) = factored_charpolys(pairs, "A", ["constructed"])
    hypothesis_coronal: bool | None = None
    if side == "left":
        hypothesis_cospectral = fa.bracket_charpoly == fb.bracket_charpoly
    else:
        ca, cb = fa.coronal, fb.coronal
        hypothesis_cospectral = ca.charpoly == cb.charpoly
        hypothesis_coronal = (ca.num, ca.den) == (cb.num, cb.den)
    regular = all(regular_degree(x.graph) is not None for x in (mg_a, mg_b, mg))
    a_match = fa.assembled == fb.assembled
    l_match = q_match = None
    if regular:
        (la,), (lb,) = factored_charpolys(pairs, "L", ["constructed"])
        (qa,), (qb,) = factored_charpolys(pairs, "Q", ["constructed"])
        l_match, q_match = la.assembled == lb.assembled, qa.assembled == qb.assembled
    return CospectralFamilyReport(side=side,
                                  hypothesis_cospectral=hypothesis_cospectral,
                                  hypothesis_coronal_equal=hypothesis_coronal,
                                  regular_inputs=regular,
                                  a_match=a_match, l_match=l_match, q_match=q_match)
