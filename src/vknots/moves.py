"""Generalized Reidemeister moves on Gauss codes, crossing transforms,
the descending-virtualization construction, and a random move walker.

Virtual moves and the detour move never change a Gauss code, so the
calculus consists of R1/R2/R3 on classical crossings plus the opt-in
upper forbidden move (two adjacent Over passages sliding across each
other), which models welded equivalence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, permutations, product

from .gausscode import (
    GaussCodeError,
    GaussEntry,
    LinkGaussCode,
    canonicalize,
    edge_structure,
)

MOVE_KINDS = ("R1Add", "R1Remove", "R2Add", "R2Remove", "R3", "ForbiddenOver")


@dataclass(frozen=True)
class MoveSite:
    kind: str
    data: tuple

    def __repr__(self):
        return f"MoveSite({self.kind}, {self.data})"


def _fresh_label(code):
    labs = code.labels
    return (max(labs) + 1) if labs else 1


def _with_component(code, ci, new_comp):
    comps = list(code.components)
    comps[ci] = tuple(new_comp)
    return LinkGaussCode(comps)


def _insert(comp, slot, entries):
    c = list(comp)
    return tuple(c[:slot] + list(entries) + c[slot:])


def _adjacent_pairs(code):
    """(ci, p, q, comp[p], comp[q]) for cyclically adjacent entries
    q = p + 1 mod k of each component; a 2-entry component has one such
    pair, not two, and shorter components have none."""
    for ci, comp in enumerate(code.components):
        k = len(comp)
        for p in range(k if k > 2 else k // 2):
            q = (p + 1) % k
            yield ci, p, q, comp[p], comp[q]


def enumerate_sites(code, kind):
    if kind == "R1Add":
        return _sites_r1_add(code)
    if kind == "R1Remove":
        return _sites_r1_remove(code)
    if kind == "R2Add":
        return _sites_r2_add(code)
    if kind == "R2Remove":
        return _sites_r2_remove(code)
    if kind == "R3":
        return _sites_r3(code)
    if kind == "ForbiddenOver":
        return _sites_forbidden(code)
    raise ValueError(f"unknown move kind {kind!r}")


def apply_move(code, site):
    kind, data = site.kind, site.data
    if kind == "R1Add":
        ci, slot, over_first, sign = data
        a = _fresh_label(code)
        pair = (
            (GaussEntry("O", a, sign), GaussEntry("U", a, sign))
            if over_first
            else (GaussEntry("U", a, sign), GaussEntry("O", a, sign))
        )
        return _with_component(code, ci, _insert(code.components[ci], slot, pair))
    if kind == "R1Remove":
        ci, p = data
        comp = code.components[ci]
        k = len(comp)
        q = (p + 1) % k
        if k < 2 or comp[p].label != comp[q].label:
            raise GaussCodeError("stale R1Remove site")
        keep = [e for idx, e in enumerate(comp) if idx not in (p, q)]
        return _with_component(code, ci, keep)
    if kind == "R2Add":
        return _apply_r2_add(code, data)
    if kind == "R2Remove":
        return _apply_r2_remove(code, data)
    if kind == "R3":
        pairs = data
        comps = [list(c) for c in code.components]
        for ci, p, q in pairs:
            comps[ci][p], comps[ci][q] = comps[ci][q], comps[ci][p]
        return LinkGaussCode(tuple(tuple(c) for c in comps))
    if kind == "ForbiddenOver":
        ci, p = data
        comp = list(code.components[ci])
        q = (p + 1) % len(comp)
        if comp[p].passage != "O" or comp[q].passage != "O":
            raise GaussCodeError("stale ForbiddenOver site")
        comp[p], comp[q] = comp[q], comp[p]
        return _with_component(code, ci, comp)
    raise ValueError(f"unknown move kind {kind!r}")


# --- R1 -------------------------------------------------------------------


def _slots(comp):
    return range(len(comp)) if comp else (0,)


def _sites_r1_add(code):
    out = []
    for ci, comp in enumerate(code.components):
        for slot in _slots(comp):
            for over_first in (True, False):
                for sign in (1, -1):
                    out.append(MoveSite("R1Add", (ci, slot, over_first, sign)))
    return out


def _sites_r1_remove(code):
    return [
        MoveSite("R1Remove", (ci, p))
        for ci, p, _q, x, y in _adjacent_pairs(code)
        if x.label == y.label
    ]


# --- R2 -------------------------------------------------------------------
#
# Creation inserts a cancelling pair of crossings a, b with signs
# (sigma, -sigma).  One strand carries the two Over (or the two Under)
# entries; the other strand's insertion order encodes the relative
# orientation of the strands in the bigon.  Thanks to the detour move all
# eight combinations of over-strand, relative orientation, and sigma are
# legal for any pair of insertion slots, including a slot paired with
# itself (nested pattern on a single strand).


def _sites_r2_add(code):
    spots = []
    for ci, comp in enumerate(code.components):
        for slot in _slots(comp):
            spots.append((ci, slot))
    out = []
    for i, s1 in enumerate(spots):
        for s2 in spots[i:]:
            for over_first, anti, sigma in product(
                (True, False), (True, False), (1, -1)
            ):
                if s1 == s2 and not anti:
                    continue  # a strand over itself is necessarily antiparallel
                out.append(MoveSite("R2Add", (s1, s2, over_first, anti, sigma)))
    return out


def _apply_r2_add(code, data):
    (c1, s1), (c2, s2), over_first, anti, sigma = data
    a = _fresh_label(code)
    b = a + 1
    X = "O" if over_first else "U"
    Y = "U" if over_first else "O"
    ea = GaussEntry(X, a, sigma)
    eb = GaussEntry(X, b, -sigma)
    fa = GaussEntry(Y, a, sigma)
    fb = GaussEntry(Y, b, -sigma)
    if (c1, s1) == (c2, s2):
        return _with_component(
            code, c1, _insert(code.components[c1], s1, (ea, eb, fb, fa))
        )
    strand2 = (fb, fa) if anti else (fa, fb)
    if c1 == c2:
        comp = code.components[c1]
        lo, hi = ((s1, (ea, eb)), (s2, strand2))
        if s1 > s2:
            lo, hi = ((s2, strand2), (s1, (ea, eb)))
        comp = _insert(comp, hi[0], hi[1])
        comp = _insert(comp, lo[0], lo[1])
        return _with_component(code, c1, comp)
    out = _with_component(code, c1, _insert(code.components[c1], s1, (ea, eb)))
    return _with_component(out, c2, _insert(out.components[c2], s2, strand2))


def _sites_r2_remove(code):
    out = []
    # locate the adjacent Over pair; the Under partners must also be
    # adjacent (in either order) and the signs opposite.
    under_adj = {}
    for ci, p, q, x, y in _adjacent_pairs(code):
        if x.passage == "U" and y.passage == "U" and x.label != y.label:
            under_adj[frozenset((x.label, y.label))] = (ci, p, q)
    for ci, p, q, x, y in _adjacent_pairs(code):
        if (
            x.passage == "O"
            and y.passage == "O"
            and x.label != y.label
            and x.sign == -y.sign
        ):
            hit = under_adj.get(frozenset((x.label, y.label)))
            if hit is not None:
                out.append(MoveSite("R2Remove", ((ci, p, q), hit)))
    return out


def _apply_r2_remove(code, data):
    (c1, p1, q1), (c2, p2, q2) = data
    labels = {code.components[c1][p1].label, code.components[c1][q1].label}
    comps = []
    for comp in code.components:
        comps.append(tuple(e for e in comp if e.label not in labels))
    return LinkGaussCode(comps)


# --- R3 -------------------------------------------------------------------
#
# An R3 site is three crossings a, b, c forming a triangle: three disjoint
# adjacent entry pairs, one per strand, with label sets {a,b}, {a,c},
# {b,c}.  Legality is decided against the actual planar triangle: three
# pairwise-crossing lines are affinely a fixed arrangement, so we test all
# strand-to-line assignments, line orientations, and the mirror image,
# requiring (1) traversal order of the two crossings along each strand,
# (2) the crossing sign rule sign = mirror * sign(det[d_over, d_under]),
# and (3) a transitive over/under pattern (one strand over both others,
# one under both).  Applying the move swaps the entries of each pair.

_LINE_DIRS = ((1, 0), (0, 1), (1, -1))
# crossing position parameters along each line: _PARAM[i][j] = parameter of
# the crossing with line j along line i (lines 0: y=0, 1: x=0, 2: x+y=1).
_PARAM = {
    (0, 1): (0, 0),
    (0, 2): (1, 1),
    (1, 2): (1, 0),
}


def _line_param(i, j):
    if i < j:
        return _PARAM[(i, j)][0]
    return _PARAM[(j, i)][1]


def _det2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _sites_r3(code):
    # gather adjacent distinct-label pairs
    pairs = [
        (ci, p, q) for ci, p, q, x, y in _adjacent_pairs(code) if x.label != y.label
    ]
    out = []
    for trio in combinations(pairs, 3):
        positions = set()
        ok = True
        for ci, p, q in trio:
            for pos in ((ci, p), (ci, q)):
                if pos in positions:
                    ok = False
                positions.add(pos)
        if not ok:
            continue
        labelsets = []
        for ci, p, q in trio:
            comp = code.components[ci]
            labelsets.append((comp[p].label, comp[q].label))
        labs = set()
        for a, b in labelsets:
            labs.update((a, b))
        if len(labs) != 3:
            continue
        if any(len(set(ls)) != 2 for ls in labelsets) or len(
            {frozenset(ls) for ls in labelsets}
        ) != 3:
            continue
        if _r3_legal(code, trio, labelsets):
            out.append(MoveSite("R3", tuple(trio)))
    return out


def _r3_legal(code, trio, labelsets):
    # passage of each strand at each of its two crossings
    strand_info = []  # per strand: ((label, passage), (label, passage), sign data)
    for (ci, p, q), (la, lb) in zip(trio, labelsets):
        comp = code.components[ci]
        strand_info.append(((la, comp[p].passage), (lb, comp[q].passage)))
    # over strand index at each crossing + transitivity of the over relation
    over_count = [0, 0, 0]
    for si, info in enumerate(strand_info):
        for lab, passage in info:
            if passage == "O":
                over_count[si] += 1
    if sorted(over_count) != [0, 1, 2]:
        return False
    # crossing -> (over strand, under strand)
    cross_strands = {}  # label -> dict passage -> strand index
    for si, info in enumerate(strand_info):
        for lab, passage in info:
            cross_strands.setdefault(lab, {})[passage] = si
    signs = edge_structure(code).signs
    for assign in permutations(range(3)):  # strand s -> line assign[s]
        line_of = assign
        strand_at_line = {line_of[s]: s for s in range(3)}
        for orients in product((1, -1), repeat=3):
            for mirror in (1, -1):
                if _r3_match(
                    strand_info,
                    cross_strands,
                    signs,
                    line_of,
                    strand_at_line,
                    orients,
                    mirror,
                ):
                    return True
    return False


def _r3_match(strand_info, cross_strands, signs, line_of, strand_at_line, orients, mirror):
    # order of the two crossings along each strand must match the code
    for si, info in enumerate(strand_info):
        li = line_of[si]
        (la, _pa), (lb, _pb) = info
        other_a = _other_line(cross_strands, la, si, line_of)
        other_b = _other_line(cross_strands, lb, si, line_of)
        ta = orients[si] * _line_param(li, other_a)
        tb = orients[si] * _line_param(li, other_b)
        if not ta < tb:
            return False
    # signs
    for lab, by_passage in cross_strands.items():
        so, su = by_passage["O"], by_passage["U"]
        do = _scaled_dir(line_of[so], orients[so])
        du = _scaled_dir(line_of[su], orients[su])
        s = _det2(do, du)
        if mirror * (1 if s > 0 else -1) != signs[lab]:
            return False
    return True


def _other_line(cross_strands, lab, si, line_of):
    for strand in cross_strands[lab].values():
        if strand != si:
            return line_of[strand]
    raise AssertionError("crossing must join two strands")


def _scaled_dir(line, orient):
    d = _LINE_DIRS[line]
    return (orient * d[0], orient * d[1])


# --- forbidden move -------------------------------------------------------


def _sites_forbidden(code):
    return [
        MoveSite("ForbiddenOver", (ci, p))
        for ci, p, _q, x, y in _adjacent_pairs(code)
        if x.passage == "O" and y.passage == "O" and x.label != y.label
    ]


# --- crossing transforms --------------------------------------------------


def switch_crossing(code, label):
    """s(i): the two entries of the label swap passage and negate sign."""
    if label not in code.labels:
        raise GaussCodeError(f"unknown label {label}")
    comps = []
    for comp in code.components:
        comps.append(
            tuple(
                GaussEntry("U" if e.passage == "O" else "O", e.label, -e.sign)
                if e.label == label
                else e
                for e in comp
            )
        )
    return LinkGaussCode(comps)


def virtualize_crossing(code, label):
    """v(i): flank the crossing with two virtual crossings.

    On the Gauss code this keeps both passages and negates the sign:
    the bracket smoothings and the writhe then transform exactly as for
    switch_crossing (so the f-polynomials of the two images agree), while
    the over/under pattern that arc and edge labelings see is untouched.
    """
    if label not in code.labels:
        raise GaussCodeError(f"unknown label {label}")
    comps = []
    for comp in code.components:
        comps.append(
            tuple(
                GaussEntry(e.passage, e.label, -e.sign) if e.label == label else e
                for e in comp
            )
        )
    return LinkGaussCode(comps)


def descending_switch_set(code, basepoint=0):
    """Labels whose first passage from the basepoint is Under.

    Switching exactly these crossings gives a descending diagram, which is
    an unknot whenever the code is classical.
    """
    if len(code.components) != 1:
        raise GaussCodeError("descending set needs a single-component code")
    comp = code.components[0]
    k = len(comp)
    seen = set()
    out = set()
    for idx in range(k):
        e = comp[(basepoint + idx) % k]
        if e.label in seen:
            continue
        seen.add(e.label)
        if e.passage == "U":
            out.add(e.label)
    return out


def virt_construction(code, basepoint=0):
    """Virtualize the descending switch set of the canonical form.

    For a classical knot the result is a virtual knot with f-polynomial 1
    (generally nontrivial).  Non-classical input is accepted; the theorem's
    hypothesis is simply unmet.
    """
    work = canonicalize(code)
    for label in sorted(descending_switch_set(work, basepoint)):
        work = virtualize_crossing(work, label)
    return work


# --- random walk ----------------------------------------------------------


def random_walk(code, steps, seed, allow_forbidden=False, max_crossings=None):
    """A reproducible sequence of `steps` legal moves starting at `code`.

    Returns the list of steps+1 codes.  Each step picks uniformly among
    move kinds that currently have sites (crossing-adding kinds are
    excluded when they would exceed max_crossings), then uniformly among
    that kind's sites.
    """
    rng = random.Random(seed)
    kinds = ["R1Add", "R1Remove", "R2Add", "R2Remove", "R3"]
    if allow_forbidden:
        kinds.append("ForbiddenOver")
    out = [code]
    for _ in range(steps):
        options = []
        for kind in kinds:
            if max_crossings is not None:
                grow = {"R1Add": 1, "R2Add": 2}.get(kind, 0)
                if grow and code.n_crossings + grow > max_crossings:
                    continue
            sites = enumerate_sites(code, kind)
            if sites:
                options.append((kind, sites))
        if not options:
            break
        _kind, sites = options[rng.randrange(len(options))]
        site = sites[rng.randrange(len(sites))]
        code = apply_move(code, site)
        out.append(code)
    return out
