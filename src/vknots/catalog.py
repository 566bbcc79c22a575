"""Built-in catalog of reference diagrams with attached assertions.

Each entry carries a signed oriented Gauss code, a provenance note, and
a list of expected-invariant assertions.  The assertions are executable
checks (run in CI) that pin the entry to the published values it is
supposed to reproduce; for the hand-transcribed virtual diagrams they
are the evidence that the transcription is correct.

Transcription notes for the two 4-crossing virtual knots, both shaped
as a connected sum of two 2-crossing tangles:

* ``kishino`` — ``O1+U2-U1+O2- U3-O4+O3-U4+``: the second tangle is the
  mirror of the first (passages and signs both flipped).  The diagram
  is non-realizable, has unit f-polynomial and vanishing generalized
  Alexander polynomial, and its quaternionic pair is
  (0, 2 + 5t^2 + 2t^4).
* ``knot-k`` — ``O1+U2-U3+O4-O3+U4-U1+O2-``: the two tangles repeat the
  same passage/sign pattern.  It likewise has f = 1 and vanishing
  generalized Alexander polynomial, but its Alexander-module ideal of
  codimension one is generated by s*t + s - 1 = -s*(s^-1 - t - 1), so
  the module is nontrivial and the diagram is knotted.  The two entries
  lie in distinct canonical classes.

Both transcriptions were found by exhaustive search over 4-crossing
connected-sum-shaped codes subject to the attached assertions; the
assertions, not the drawing, are the source of truth here.
"""

from dataclasses import dataclass, field

from .gausscode import (
    GaussCodeError,
    inter_component_parity,
    parse_gauss,
    realizability_check,
)
from .laurent import LaurentPoly, LaurentPoly2, normalize_unit


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    code: object
    note: str
    assertions: tuple = field(default=())

    def run_assertions(self):
        """Return a list of (description, ok, detail) triples."""
        out = []
        for desc, check in self.assertions:
            try:
                ok, detail = check(self.code)
            except Exception as exc:  # surface, don't swallow
                ok, detail = False, f"raised {exc!r}"
            out.append((desc, ok, detail))
        return out


# --- assertion helpers ------------------------------------------------------


def _f_equals(expected_render):
    def check(code):
        from .invariants import f_polynomial

        got = f_polynomial(code).render()
        return got == expected_render, f"f = {got}"

    return check


def _gen_alexander_zero(code):
    from .invariants import gen_alexander

    g = gen_alexander(code)
    return g.is_zero(), f"gen_alexander = {g.render()}"


def _gen_alexander_equals(expected):
    def check(code):
        from .invariants import gen_alexander

        got = normalize_unit(gen_alexander(code))
        return got == expected, f"gen_alexander = {got.render()}"

    return check


def _quaternionic_equals(study_expected, gcd_expected):
    def check(code):
        from .invariants import quaternionic_invariant

        study, gcd = quaternionic_invariant(code)
        ok = study == study_expected and gcd == gcd_expected
        return ok, f"quaternionic = ({study.render()}, {gcd.render()})"

    return check


def _realizable(expected):
    def check(code):
        got = realizability_check(code)
        return got == expected, f"realizable = {got}"

    return check


def _parity_equals(expected):
    def check(code):
        got = inter_component_parity(code, 0, 1)
        return got == expected, f"inter_component_parity = {got}"

    return check


def _iq_count_equals(n, expected):
    def check(code):
        from .coloring import count_iq_colorings, make_dihedral_quandle

        got = count_iq_colorings(code, make_dihedral_quandle(n))
        return got == expected, f"dihedral-{n} count = {got}"

    return check


def _first_minors(mat):
    """(i, j, det) for every first minor of a square matrix over
    Z[s, s^-1, t, t^-1], the one without row i and column j, its det up
    to a unit +-s^a t^b: each minor is reduced by unit pivots before its
    determinant is taken (invariants._alexander_det)."""
    from .invariants import _alexander_det

    rows = [{c: e.terms for c, e in enumerate(row) if e} for row in mat]
    for i in range(len(rows)):
        rest = rows[:i] + rows[i + 1 :]
        for j in range(len(rows)):
            minor = [{c - (c > j): e for c, e in row.items() if c != j} for row in rest]
            yield i, j, _alexander_det(minor)


def _module_relation_nontrivial(code):
    """The codimension-1 Alexander ideal is generated by -s(s^-1 - t - 1).

    Checks that every first minor of the Alexander presentation matrix
    is exactly divisible by r = s*t + s - 1 and that some minor is a
    unit multiple of r, which pins the gcd to r up to units.
    """
    from .invariants import alexander_matrix

    r = LaurentPoly2({(1, 1): 1, (1, 0): 1, (0, 0): -1})
    r_norm = normalize_unit(r)
    unit_hit = False
    for i, j, d in _first_minors(alexander_matrix(code)):
        if d.is_zero():
            continue
        try:
            d.exact_div(r)
        except ArithmeticError:
            return False, f"minor ({i},{j}) not divisible by s*t + s - 1"
        if normalize_unit(d) == r_norm:
            unit_hit = True
    if not unit_hit:
        return False, "no first minor is a unit multiple of s*t + s - 1"
    return True, "codim-1 ideal = (s*t + s - 1)"


_KISHINO_GCD = LaurentPoly({0: 2, 2: 5, 4: 2}, "t")
_ZERO_T = LaurentPoly({}, "t")
_G_VTREF = normalize_unit(
    LaurentPoly2(
        {(0, 0): 1, (0, 1): -1, (1, 0): -1, (1, 2): 1, (2, 1): 1, (2, 2): -1}
    )
)


def _entry(name, text, note, assertions):
    return CatalogEntry(
        name=name, code=parse_gauss(text), note=note, assertions=tuple(assertions)
    )


def builtin_entries():
    return [
        _entry(
            "unknot",
            "()",
            "crossingless unknot",
            [
                ("f = 1", _f_equals("1")),
                ("realizable", _realizable(True)),
                ("3 trivial dihedral-3 colorings", _iq_count_equals(3, 3)),
            ],
        ),
        _entry(
            "kink",
            "O1+U1+",
            "unknot with one positive curl",
            [
                ("f = 1", _f_equals("1")),
                ("gen_alexander = 0", _gen_alexander_zero),
                ("realizable", _realizable(True)),
            ],
        ),
        _entry(
            "trefoil",
            "O1+U2+O3+U1+O2+U3+",
            "right-handed classical trefoil",
            [
                ("f is the classical value", _f_equals("-A^-16 + A^-12 + A^-4")),
                ("gen_alexander vanishes (classical)", _gen_alexander_zero),
                ("realizable", _realizable(True)),
                ("9 dihedral-3 colorings", _iq_count_equals(3, 9)),
            ],
        ),
        _entry(
            "figure-eight",
            "O1+U2-O3-U1+O4+U3-O2-U4+",
            "figure-eight candidate, closure of the braid word "
            "(sigma_1 sigma_2^-1)^2",
            [
                (
                    "f is the classical value",
                    _f_equals("A^-8 - A^-4 + 1 - A^4 + A^8"),
                ),
                ("gen_alexander vanishes (classical)", _gen_alexander_zero),
                ("realizable", _realizable(True)),
                ("5 dihedral-5 colorings", _iq_count_equals(5, 25)),
            ],
        ),
        _entry(
            "virtual-trefoil",
            "O1+O2+U1+U2+",
            "2-crossing virtual trefoil",
            [
                ("f is nontrivial", _f_equals("-A^-10 + A^-6 + A^-4")),
                (
                    "gen_alexander is the known 2-variable value",
                    _gen_alexander_equals(_G_VTREF),
                ),
                ("not realizable", _realizable(False)),
            ],
        ),
        _entry(
            "kishino",
            "O1+U2-U1+O2-U3-O4+O3-U4+",
            "Kishino diagram: connected sum of a 2-crossing tangle and its "
            "mirror; trivial f and generalized Alexander, detected by the "
            "quaternionic pair",
            [
                ("f = 1", _f_equals("1")),
                ("gen_alexander = 0", _gen_alexander_zero),
                ("not realizable", _realizable(False)),
                (
                    "quaternionic pair (0, 2 + 5t^2 + 2t^4)",
                    _quaternionic_equals(_ZERO_T, _KISHINO_GCD),
                ),
            ],
        ),
        _entry(
            "knot-k",
            "O1+U2-U3+O4-O3+U4-U1+O2-",
            "knot K: connected sum of two copies of a 2-crossing tangle; "
            "trivial f and generalized Alexander, detected by its "
            "Alexander-module relation (provisional transcription pinned "
            "by the module assertion)",
            [
                ("f = 1", _f_equals("1")),
                ("gen_alexander = 0", _gen_alexander_zero),
                ("not realizable", _realizable(False)),
                (
                    "codim-1 module relation s*t + s - 1",
                    _module_relation_nontrivial,
                ),
            ],
        ),
        _entry(
            "flat-h",
            "O1+/U1+",
            "2-component link H with a single shared crossing; its odd "
            "inter-component parity obstructs flat unknotting",
            [
                ("odd inter-component parity", _parity_equals(1)),
                ("not realizable", _realizable(False)),
            ],
        ),
        _entry(
            "hopf",
            "O1+U2+/U1+O2+",
            "classical positive Hopf link",
            [
                ("even inter-component parity", _parity_equals(0)),
                ("realizable", _realizable(True)),
            ],
        ),
    ]


def load_catalog(path=None):
    """Built-in entries plus optional user entries from a TSV file.

    File format: one entry per line, ``name<TAB>gauss-code``; blank lines
    and ``#`` comments ignored.  Duplicate names are an error.
    """
    entries = builtin_entries()
    names = {e.name for e in entries}
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "\t" not in line:
                    raise GaussCodeError(
                        f"{path}:{lineno}: expected 'name<TAB>gauss-code'"
                    )
                name, text = line.split("\t", 1)
                name = name.strip()
                if name in names:
                    raise GaussCodeError(
                        f"{path}:{lineno}: duplicate catalog name {name!r}"
                    )
                try:
                    code = parse_gauss(text.strip())
                except GaussCodeError as exc:
                    raise GaussCodeError(
                        f"{path}:{lineno}: invalid code for {name!r}: {exc}"
                    ) from None
                names.add(name)
                entries.append(
                    CatalogEntry(name=name, code=code, note=f"user entry ({path})")
                )
    return entries


def catalog_by_name(path=None):
    return {e.name: e for e in load_catalog(path)}
