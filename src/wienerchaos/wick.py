"""Exact expectations of polynomials in independent standard Gaussians.

This is the ground-truth oracle behind every closed-form claim in the
package.  Because the variables are independent, E[prod_v G_v^{e_v}]
factorizes into per-variable double factorials, so expectations cost
O(number of monomials) rather than a pairing enumeration.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

DEGREE_CAP = 16   # largest total degree isserlis_expectation expands


class DegreeCapError(ValueError):
    """A monomial exceeds the total-degree cap DEGREE_CAP."""


class GaussianPolynomial:
    """Polynomial in nvars jointly independent standard Gaussians.

    Stored as a map from exponent tuples (length nvars, nonnegative ints)
    to real coefficients; zero coefficients are never kept.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple, float] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        self.nvars = int(nvars)
        clean: dict[tuple, float] = {}
        for exps, coef in (terms or {}).items():
            e = tuple(int(v) for v in exps)
            if len(e) != self.nvars or any(v < 0 for v in e):
                raise ValueError(f"bad exponent vector {exps!r}")
            c = float(coef)
            if c != 0.0:
                clean[e] = clean.get(e, 0.0) + c
                if clean[e] == 0.0:
                    del clean[e]
        self.terms = clean

    @classmethod
    def constant(cls, value: float, nvars: int) -> "GaussianPolynomial":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, i: int, nvars: int) -> "GaussianPolynomial":
        """The coordinate x_i (0-based)."""
        if not 0 <= i < nvars:
            raise ValueError("variable index out of range")
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): 1.0})

    @classmethod
    def monomial(cls, exps: Iterable[int], coef: float,
                 nvars: int) -> "GaussianPolynomial":
        return cls(nvars, {tuple(exps): coef})

    def _check(self, other: "GaussianPolynomial"):
        if self.nvars != other.nvars:
            raise ValueError("polynomials live on different variable counts")

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = GaussianPolynomial.constant(other, self.nvars)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0.0) + c
            if out[e] == 0.0:
                del out[e]
        return GaussianPolynomial(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return GaussianPolynomial(
            self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = GaussianPolynomial.constant(other, self.nvars)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return GaussianPolynomial(
                self.nvars, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        out: dict[tuple, float] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0.0) + c1 * c2
        return GaussianPolynomial(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = GaussianPolynomial.constant(1.0, self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def diff(self, i: int) -> "GaussianPolynomial":
        """Partial derivative with respect to x_i (0-based)."""
        out: dict[tuple, float] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = out.get(tuple(d), 0.0) + c * e[i]
        return GaussianPolynomial(self.nvars, out)

    def __call__(self, x) -> float:
        acc = 0.0
        for e, c in self.terms.items():
            v = c
            for xi, ei in zip(x, e):
                if ei:
                    v *= xi ** ei
            acc += v
        return acc

    def __repr__(self):
        return f"GaussianPolynomial(nvars={self.nvars}, nterms={len(self.terms)})"


def _double_factorials(cap: int) -> list[float]:
    # df[m] = (m-1)!! for even m, unused for odd m
    df = [1.0] * (cap + 1)
    for m in range(2, cap + 1, 2):
        df[m] = df[m - 2] * (m - 1)
    return df


def isserlis_expectation(p: GaussianPolynomial) -> float:
    """E[p(G_1, ..., G_n)] for independent standard Gaussians.

    Uses E[G^m] = (m-1)!! for even m and 0 for odd m, per variable.
    Raises DegreeCapError when a monomial degree exceeds DEGREE_CAP.
    """
    df = _double_factorials(DEGREE_CAP)
    acc = 0.0
    for e, c in p.terms.items():
        deg = sum(e)
        if deg > DEGREE_CAP:
            raise DegreeCapError(
                f"monomial of degree {deg} exceeds cap {DEGREE_CAP}")
        if any(v & 1 for v in e):
            continue
        v = c
        for m in e:
            if m:
                v *= df[m]
        acc += v
    return acc


def gamma_of_polynomial(f: GaussianPolynomial) -> GaussianPolynomial:
    """Squared-gradient (carre du champ) sum_i (df/dx_i)^2, exactly."""
    out = GaussianPolynomial(f.nvars, {})
    for i in range(f.nvars):
        d = f.diff(i)
        if d.terms:
            out = out + d * d
    return out


def cumulants_from_moment_sequence(moments) -> list[float]:
    """Cumulants kappa_1..kappa_r from raw moments m_1..m_r.

    Standard recursion: kappa_n = m_n - sum_{j<n} C(n-1, j-1) kappa_j m_{n-j}.
    """
    ms = [float(m) for m in moments]
    if not all(math.isfinite(m) for m in ms):
        raise ValueError("moments must be finite")
    ks: list[float] = []
    for n in range(1, len(ms) + 1):
        acc = ms[n - 1]
        for j in range(1, n):
            acc -= math.comb(n - 1, j - 1) * ks[j - 1] * ms[n - j - 1]
        ks.append(acc)
    return ks
