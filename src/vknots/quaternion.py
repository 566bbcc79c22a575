"""Quaternions with Laurent-polynomial coefficients and Gaussian-integer
Laurent polynomials (Z[i][t, t^-1]).

A quaternion q = w + x i + y j + z k is stored as four LaurentPoly
components.  The complex doubling used for Study determinants identifies
q = z1 + z2 j with the 2x2 complex matrix [[z1, z2], [-conj(z2), conj(z1)]],
where z1 = w + x i and z2 = y + z i live in Z[i][t, t^-1].  The
determinant engine works on the four components, one 2 x 2 block of
the doubling at a time; ``double_matrix`` is the reference it is
checked against.
"""

from __future__ import annotations

from .laurent import LaurentPoly


class GaussianLaurent:
    """Laurent polynomial in t with Gaussian-integer coefficients.

    Stored as a pair (re, im) of integer Laurent polynomials.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=None, im=None, var="t"):
        self.re = re if re is not None else LaurentPoly({}, var)
        self.im = im if im is not None else LaurentPoly({}, self.re.var)

    @classmethod
    def const(cls, a, b=0, var="t"):
        return cls(LaurentPoly.const(a, var), LaurentPoly.const(b, var))

    @classmethod
    def from_poly(cls, p):
        return cls(p, LaurentPoly({}, p.var))

    def is_zero(self):
        return self.re.is_zero() and self.im.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, GaussianLaurent):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        return GaussianLaurent(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GaussianLaurent(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return GaussianLaurent(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            other = GaussianLaurent.from_poly(other)
        return GaussianLaurent(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conj(self):
        return GaussianLaurent(self.re, -self.im)

    def norm(self):
        """Complex norm z * conj(z), an integer Laurent polynomial."""
        return self.re * self.re + self.im * self.im

    def exact_div(self, other):
        """Exact division by another Gaussian Laurent polynomial."""
        if other.is_zero():
            raise ZeroDivisionError
        # z / w = z * conj(w) / (w * conj(w)); the denominator is real.
        num = self * other.conj()
        den = other.norm()
        return GaussianLaurent(num.re.exact_div(den), num.im.exact_div(den))

    def __repr__(self):
        return f"GaussianLaurent({self.re.render()} , i*({self.im.render()}))"

    def render(self):
        if self.im.is_zero():
            return self.re.render()
        if self.re.is_zero():
            return f"i*({self.im.render()})"
        return f"({self.re.render()}) + i*({self.im.render()})"


class Quaternion:
    """Quaternion over Z[t, t^-1] with basis 1, i, j, k."""

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w=None, x=None, y=None, z=None, var="t"):
        zero = LaurentPoly({}, var)
        self.w = w if w is not None else zero
        self.x = x if x is not None else zero
        self.y = y if y is not None else zero
        self.z = z if z is not None else zero

    @classmethod
    def const(cls, w=0, x=0, y=0, z=0, var="t"):
        return cls(
            LaurentPoly.const(w, var),
            LaurentPoly.const(x, var),
            LaurentPoly.const(y, var),
            LaurentPoly.const(z, var),
        )

    def complex_pair(self):
        return (
            GaussianLaurent(self.w, self.x),
            GaussianLaurent(self.y, self.z),
        )

    def is_zero(self):
        return all(p.is_zero() for p in (self.w, self.x, self.y, self.z))

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return (
            self.w == other.w
            and self.x == other.x
            and self.y == other.y
            and self.z == other.z
        )

    def __hash__(self):
        return hash((self.w, self.x, self.y, self.z))

    def __add__(self, other):
        return Quaternion(
            self.w + other.w, self.x + other.x, self.y + other.y, self.z + other.z
        )

    def __sub__(self, other):
        return Quaternion(
            self.w - other.w, self.x - other.x, self.y - other.y, self.z - other.z
        )

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            return Quaternion(
                self.w * other, self.x * other, self.y * other, self.z * other
            )
        a, b, c, d = self.w, self.x, self.y, self.z
        e, f, g, h = other.w, other.x, other.y, other.z
        return Quaternion(
            a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e,
        )

    def conj(self):
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm(self):
        """Reduced norm q * conj(q) = w^2 + x^2 + y^2 + z^2."""
        return (
            self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z
        )

    def __repr__(self):
        return (
            f"Quaternion(({self.w.render()}) + ({self.x.render()})i"
            f" + ({self.y.render()})j + ({self.z.render()})k)"
        )


def doubling_block(q):
    """2x2 GaussianLaurent block of the complex doubling of quaternion q."""
    z1, z2 = q.complex_pair()
    return [[z1, z2], [-z2.conj(), z1.conj()]]


def double_matrix(qmat):
    """Complex 2m x 2m doubling of an m x m quaternionic matrix."""
    m = len(qmat)
    if any(len(row) != m for row in qmat):
        raise ValueError(f"quaternionic matrix is not square: {m} rows")
    out = [[None] * (2 * m) for _ in range(2 * m)]
    for r in range(m):
        for c in range(m):
            q = qmat[r][c]
            # a zero quaternion's block is one shared zero entry
            blk = doubling_block(q) if q else [[GaussianLaurent(q.w, q.x)] * 2] * 2
            for dr in range(2):
                for dc in range(2):
                    out[2 * r + dr][2 * c + dc] = blk[dr][dc]
    return out
