"""Floating-point spectra via LAPACK's symmetric eigensolver.

Eigenvalues come from ``np.linalg.eigvalsh`` (``dsyevd``). Exact decisions
(cospectrality, integrality) never go through floats.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .exact import Matrix, Poly, charpoly, charpolys, integer_roots
from .graphs import graph_matrix


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


def energy(mg, tol: float = 1e-9) -> EnergyValue:
    """Graph energy: sum of |eigenvalue| over the adjacency spectrum."""
    return EnergyValue.of(symmetric_eigenvalues(graph_matrix(mg, "A")), tol)


def cospectral(mg1, mg2, matrix_kind: str = "A") -> bool:
    """Exact cospectrality: charpoly equality over the rationals, never floats."""
    f1, f2 = charpolys([graph_matrix(mg, matrix_kind) for mg in (mg1, mg2)])
    return f1 == f2


@dataclass(frozen=True)
class IntegralityResult:
    """Integer roots of a monic integer polynomial and the rest of it.

    quotient, the polynomial divided by prod(x - root), is built by
    build_quotient on first access, so a verdict on a polynomial known only
    through its factors never expands it.
    """

    integral: bool
    roots: tuple[int, ...]
    build_quotient: Callable[[], Poly] = field(repr=False, compare=False)

    @cached_property
    def quotient(self) -> Poly:
        return self.build_quotient()

    @classmethod
    def of(cls, p: Poly) -> IntegralityResult:
        roots, quotient = integer_roots(p)
        return cls(integral=quotient.degree == 0, roots=roots,
                   build_quotient=lambda: quotient)


def is_integral(mg) -> IntegralityResult:
    """Exact integrality of the adjacency spectrum via integer root extraction."""
    return IntegralityResult.of(charpoly(graph_matrix(mg, "A")))
