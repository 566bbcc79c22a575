"""Exact integer-coefficient Laurent polynomials in one and two variables.

All arithmetic is exact; no zero coefficients are ever stored.  Rendering
follows a fixed format (terms by ascending exponent, ``c*t^i`` syntax) that
report serialization depends on.
"""

from __future__ import annotations

from math import gcd as _int_gcd


class LaurentPoly:
    """Sparse Laurent polynomial over Z in a single named variable."""

    __slots__ = ("var", "terms")

    def __init__(self, terms=None, var="t"):
        self.var = var
        tbl = {}
        if terms:
            for e, c in (terms.items() if isinstance(terms, dict) else terms):
                c = tbl.get(e, 0) + c
                if c:
                    tbl[e] = c
                else:
                    tbl.pop(e, None)
        self.terms = tbl

    @classmethod
    def const(cls, c, var="t"):
        return cls({0: c} if c else {}, var)

    @classmethod
    def monomial(cls, c, e, var="t"):
        return cls({e: c} if c else {}, var)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.var == other.var and self.terms == other.terms

    def __hash__(self):
        return hash((self.var, frozenset(self.terms.items())))

    def _check(self, other):
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var} vs {other.var}")

    def __add__(self, other):
        self._check(other)
        tbl = dict(self.terms)
        for e, c in other.terms.items():
            c = tbl.get(e, 0) + c
            if c:
                tbl[e] = c
            else:
                tbl.pop(e, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out.var, out.terms = self.var, tbl
        return out

    def __neg__(self):
        out = LaurentPoly.__new__(LaurentPoly)
        out.var = self.var
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other, self.var)
        self._check(other)
        tbl = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                c = tbl.get(e, 0) + c1 * c2
                if c:
                    tbl[e] = c
                else:
                    del tbl[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out.var, out.terms = self.var, tbl
        return out

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            if len(self.terms) != 1:
                raise ValueError("negative power of non-monomial")
            ((e, c),) = self.terms.items()
            if c not in (1, -1):
                raise ValueError("negative power of non-unit")
            return LaurentPoly.monomial(c if k % 2 else 1, e * k, self.var)
        r = LaurentPoly.const(1, self.var)
        b = self
        while k:
            if k & 1:
                r = r * b
            b = b * b
            k >>= 1
        return r

    def shift(self, d):
        """Multiply by var**d."""
        out = LaurentPoly.__new__(LaurentPoly)
        out.var = self.var
        out.terms = {e + d: c for e, c in self.terms.items()}
        return out

    def min_exp(self):
        return min(self.terms) if self.terms else 0

    def max_exp(self):
        return max(self.terms) if self.terms else 0

    def exact_div(self, other):
        """Exact division; raises if the quotient is not in the ring."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        self._check(other)
        if self.is_zero():
            return LaurentPoly({}, self.var)
        # align to ordinary polynomials
        sa, sb = self.min_exp(), other.min_exp()
        rem = dict(self.shift(-sa).terms)
        div = other.shift(-sb).terms
        dmax = max(div)
        dc = div[dmax]
        quo = {}
        while rem:
            e = max(rem)
            c = rem[e]
            if e < dmax or c % dc:
                raise ArithmeticError("inexact polynomial division")
            qe, qc = e - dmax, c // dc
            quo[qe] = qc
            for de, dcf in div.items():
                ne = de + qe
                nc = rem.get(ne, 0) - dcf * qc
                if nc:
                    rem[ne] = nc
                else:
                    rem.pop(ne, None)
        return LaurentPoly(quo, self.var).shift(sa - sb)

    def __repr__(self):
        return f"LaurentPoly({self.render()!r})"

    def render(self):
        return _render_terms(sorted(self.terms.items()), lambda e: _var_pow(self.var, e))


class LaurentPoly2:
    """Sparse Laurent polynomial over Z in the commuting variables s and t."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        tbl = {}
        if terms:
            for e, c in (terms.items() if isinstance(terms, dict) else terms):
                c = tbl.get(e, 0) + c
                if c:
                    tbl[e] = c
                else:
                    tbl.pop(e, None)
        self.terms = tbl

    @classmethod
    def const(cls, c):
        return cls({(0, 0): c} if c else {})

    @classmethod
    def monomial(cls, c, es, et):
        return cls({(es, et): c} if c else {})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        tbl = dict(self.terms)
        for e, c in other.terms.items():
            c = tbl.get(e, 0) + c
            if c:
                tbl[e] = c
            else:
                tbl.pop(e, None)
        out = LaurentPoly2.__new__(LaurentPoly2)
        out.terms = tbl
        return out

    def __neg__(self):
        out = LaurentPoly2.__new__(LaurentPoly2)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = LaurentPoly2.const(other)
        tbl = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                e = (a1 + a2, b1 + b2)
                c = tbl.get(e, 0) + c1 * c2
                if c:
                    tbl[e] = c
                else:
                    del tbl[e]
        out = LaurentPoly2.__new__(LaurentPoly2)
        out.terms = tbl
        return out

    __rmul__ = __mul__

    def shift(self, ds, dt):
        out = LaurentPoly2.__new__(LaurentPoly2)
        out.terms = {(a + ds, b + dt): c for (a, b), c in self.terms.items()}
        return out

    def min_exps(self):
        if not self.terms:
            return (0, 0)
        return (min(a for a, _ in self.terms), min(b for _, b in self.terms))

    def exact_div(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return LaurentPoly2({})
        sa = self.min_exps()
        sb = other.min_exps()
        rem = dict(self.shift(-sa[0], -sa[1]).terms)
        div = other.shift(-sb[0], -sb[1]).terms
        dlead = max(div)  # lex order on (s-exp, t-exp)
        dc = div[dlead]
        quo = {}
        while rem:
            e = max(rem)
            c = rem[e]
            qe = (e[0] - dlead[0], e[1] - dlead[1])
            if qe[0] < 0 or qe[1] < 0 or c % dc:
                raise ArithmeticError("inexact polynomial division")
            qc = c // dc
            quo[qe] = qc
            for de, dcf in div.items():
                ne = (de[0] + qe[0], de[1] + qe[1])
                nc = rem.get(ne, 0) - dcf * qc
                if nc:
                    rem[ne] = nc
                else:
                    rem.pop(ne, None)
        return LaurentPoly2(quo).shift(sa[0] - sb[0], sa[1] - sb[1])

    def __repr__(self):
        return f"LaurentPoly2({self.render()!r})"

    def render(self):
        def mono(e):
            s = _var_pow("s", e[0])
            t = _var_pow("t", e[1])
            if s and t:
                return s + "*" + t
            return s or t

        return _render_terms(sorted(self.terms.items()), mono)


def _var_pow(var, e):
    if e == 0:
        return ""
    if e == 1:
        return var
    return f"{var}^{e}"


def _render_terms(items, mono):
    if not items:
        return "0"
    parts = []
    for e, c in items:
        m = mono(e)
        if m:
            body = m if abs(c) == 1 else f"{abs(c)}*{m}"
        else:
            body = str(abs(c))
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


def normalize_unit(p):
    """Canonical representative of the orbit of p under units +/- s^i t^j.

    Minimal s- and t-exponents are shifted to zero and the sign is fixed so
    the lexicographically-first term is positive.  Zero maps to zero.
    """
    if isinstance(p, LaurentPoly):
        if p.is_zero():
            return p
        q = p.shift(-p.min_exp())
        if q.terms[min(q.terms)] < 0:
            q = -q
        return q
    if p.is_zero():
        return p
    ms, mt = p.min_exps()
    q = p.shift(-ms, -mt)
    if q.terms[min(q.terms)] < 0:
        q = -q
    return q


def normalize_leadpos(p):
    """Shift a one-variable p to t-valuation 0 and make the leading
    (highest-degree) coefficient positive; 0 maps to 0."""
    if p.is_zero():
        return p
    q = p.shift(-p.min_exp())
    if q.terms[max(q.terms)] < 0:
        q = -q
    return q


def _content_and_list(p):
    """(content, dense coefficient list) of a valuation-0 one-variable poly."""
    n = p.max_exp()
    lst = [p.terms.get(i, 0) for i in range(n + 1)]
    cont = 0
    for c in lst:
        cont = _int_gcd(cont, abs(c))
    return cont, lst


def _prim(lst):
    g = 0
    for c in lst:
        g = _int_gcd(g, abs(c))
    if g > 1:
        lst = [c // g for c in lst]
    while lst and lst[-1] == 0:
        lst.pop()
    return lst


def _pseudo_rem(a, b):
    """Pseudo-remainder of dense integer coefficient lists (b nonzero)."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and a:
        da, la = len(a) - 1, a[-1]
        a = [c * lb for c in a]
        for i, bc in enumerate(b):
            a[da - db + i] -= la * bc
        while a and a[-1] == 0:
            a.pop()
    return a


def poly_gcd(a, b):
    """Greatest common divisor in Z[t] of two integer Laurent polynomials.

    Both inputs are shifted to valuation 0 first; integer content is
    included.  The result has positive leading coefficient and zero
    t-valuation.
    """
    if a.is_zero():
        return normalize_leadpos(b)
    if b.is_zero():
        return normalize_leadpos(a)
    var = a.var
    ca, la = _content_and_list(a.shift(-a.min_exp()))
    cb, lb = _content_and_list(b.shift(-b.min_exp()))
    cont = _int_gcd(ca, cb)
    fa, fb = _prim(la), _prim(lb)
    if len(fa) < len(fb):
        fa, fb = fb, fa
    while fb:
        r = _prim(_pseudo_rem(fa, fb))
        fa, fb = fb, r
    g = LaurentPoly({i: cont * c for i, c in enumerate(fa)}, var)
    return normalize_leadpos(g)
