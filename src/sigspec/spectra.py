"""Floating-point spectra via LAPACK's symmetric eigensolver.

Eigenvalues come from ``np.linalg.eigvalsh`` (``dsyevd``). Exact decisions
(cospectrality, integrality) never go through floats.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exact import Matrix, Poly, charpoly, integer_roots
from .graphs import MarkedSignedGraph, SignedGraph, adjacency_matrix, matrices


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted descending."""

    values: tuple[float, ...]
    # not a field: always 0, kept because perfbench/tracer.py reads it for spectra.sweeps
    sweeps = 0


def _as_float_array(m) -> np.ndarray:
    if isinstance(m, Matrix):
        return np.array(m.rows(), dtype=np.float64)
    arr = np.array(m, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    return arr


def symmetric_eigenvalues(m) -> Spectrum:
    """All eigenvalues of a symmetric matrix, sorted descending."""
    a = _as_float_array(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    # eigvalsh reads only the lower triangle, so asymmetry must be caught here
    if a.size and float(np.max(np.abs(a - a.T))) > 1e-12:
        raise ValueError("matrix must be symmetric within 1e-12")
    return Spectrum(values=tuple(float(x) for x in np.linalg.eigvalsh(a)[::-1]))


@dataclass(frozen=True)
class EnergyValue:
    """Sum of absolute adjacency eigenvalues with its accumulated tolerance."""

    value: float
    tolerance: float

    @classmethod
    def of(cls, spec: Spectrum, tol: float) -> EnergyValue:
        """Energy of an adjacency spectrum, allowing tol per eigenvalue."""
        return cls(value=float(sum(abs(v) for v in spec.values)),
                   tolerance=tol * len(spec.values))


def _adjacency_of(mg) -> Matrix:
    if isinstance(mg, MarkedSignedGraph):
        return adjacency_matrix(mg.graph)
    if isinstance(mg, SignedGraph):
        return adjacency_matrix(mg)
    raise TypeError("energy expects a signed graph or marked signed graph")


def energy(mg, tol: float = 1e-9) -> EnergyValue:
    """Graph energy: sum of |eigenvalue| over the adjacency spectrum."""
    return EnergyValue.of(symmetric_eigenvalues(_adjacency_of(mg)), tol)


def _graph_of(mg) -> SignedGraph:
    return mg.graph if isinstance(mg, MarkedSignedGraph) else mg


def cospectral(mg1, mg2, matrix_kind: str = "A") -> bool:
    """Exact cospectrality: charpoly equality over the rationals, never floats."""
    g1, g2 = _graph_of(mg1), _graph_of(mg2)
    if matrix_kind not in ("A", "L", "Q"):
        raise ValueError(f"matrix kind must be A, L or Q, got {matrix_kind!r}")
    return (charpoly(getattr(matrices(g1), matrix_kind))
            == charpoly(getattr(matrices(g2), matrix_kind)))


@dataclass(frozen=True)
class IntegralityResult:
    integral: bool
    roots: tuple[int, ...]
    quotient: Poly


def is_integral(mg) -> IntegralityResult:
    """Exact integrality of the adjacency spectrum via integer root extraction."""
    f = charpoly(adjacency_matrix(_graph_of(mg)))
    roots, quotient = integer_roots(f)
    return IntegralityResult(integral=quotient.degree == 0, roots=roots,
                             quotient=quotient)
