"""Generalized Reidemeister moves on Gauss codes, crossing transforms,
the descending-virtualization construction, and a random move walker.

Virtual moves and the detour move never change a Gauss code, so the
calculus consists of R1/R2/R3 on classical crossings plus the opt-in
upper forbidden move (two adjacent Over passages sliding across each
other), which models welded equivalence.

``enumerate_sites`` lists a kind's sites in a fixed order, and a walk
builds only the site it takes.  The R1Add and R2Add sites are laid out by
count and index over the code's insertion slots (``site_count`` and
``site_at``, which ``enumerate_sites`` also decodes).  R3 sites are found
by a triangle search over the adjacent distinct-label pairs, indexed by
label; a triangle's legality depends only on its shape (which ends of the
three strands carry which crossing, their passages and the three signs),
one of 512 shapes, and each shape is decided once by the 96-placement
search and remembered.  For a kind it does not take, a walk only asks
whether a site exists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from math import isqrt

from .gausscode import (
    GaussCodeError,
    GaussEntry,
    LinkGaussCode,
    canonicalize,
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
    """Every site of the move kind on the code, as a list in a fixed order."""
    if kind in _SPOT_KINDS:
        count, at = _SPOT_KINDS[kind]
        spots = _spots(code)
        return [at(spots, i) for i in range(count(len(spots)))]
    if kind in _SITE_ITERS:
        return list(_SITE_ITERS[kind](code))
    raise ValueError(f"unknown move kind {kind!r}")


def site_count(code, kind):
    """len(enumerate_sites(code, kind)) for R1Add or R2Add, in closed form:
    4 sites per insertion slot for R1Add, 4 m^2 for R2Add on m slots."""
    return _spot_kind(kind)[0](len(_spots(code)))


def site_at(code, kind, i):
    """enumerate_sites(code, kind)[i] for R1Add or R2Add, built alone."""
    count, at = _spot_kind(kind)
    spots = _spots(code)
    if not 0 <= i < count(len(spots)):
        raise IndexError(f"{kind} site index {i} out of range")
    return at(spots, i)


def _spot_kind(kind):
    try:
        return _SPOT_KINDS[kind]
    except KeyError:
        raise ValueError(f"{kind!r} sites are not laid out by index") from None


def _has_site(code, kind):
    if kind in _SPOT_KINDS:
        return True  # every code has an insertion slot
    return next(_SITE_ITERS[kind](code), None) is not None


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


def _spots(code):
    """The insertion slots (ci, slot) of every component, in order."""
    return [
        (ci, slot) for ci, comp in enumerate(code.components) for slot in _slots(comp)
    ]


def _r1_add_at(spots, i):
    # per slot: over_first in (True, False), then sign in (1, -1)
    slot, r = divmod(i, 4)
    return MoveSite("R1Add", spots[slot] + (r < 2, -1 if r & 1 else 1))


def _r1_remove_sites(code):
    for ci, p, _q, x, y in _adjacent_pairs(code):
        if x.label == y.label:
            yield MoveSite("R1Remove", (ci, p))


# --- R2 -------------------------------------------------------------------
#
# Creation inserts a cancelling pair of crossings a, b with signs
# (sigma, -sigma).  One strand carries the two Over (or the two Under)
# entries; the other strand's insertion order encodes the relative
# orientation of the strands in the bigon.  Thanks to the detour move all
# eight combinations of over-strand, relative orientation, and sigma are
# legal for any pair of insertion slots, including a slot paired with
# itself (nested pattern on a single strand).


_R2_FLAGS = tuple(product((True, False), (True, False), (1, -1)))
# a strand over itself is necessarily antiparallel
_R2_SAME_SLOT_FLAGS = tuple(f for f in _R2_FLAGS if f[1])


def _r2_add_at(spots, i):
    # slot pairs s1 <= s2 in order, (over_first, anti, sigma) in product
    # order within each: 4 sites when s1 == s2, 8 otherwise, so the pairs
    # from s1 = a start at 4 a (2m - a) and there are 4 m^2 sites in all
    m = len(spots)
    a = m - 1 - isqrt(m * m - i // 4 - 1)
    r = i - 4 * a * (2 * m - a)
    if r < 4:
        b, flags = a, _R2_SAME_SLOT_FLAGS[r]
    else:
        b, flags = a + 1 + (r - 4) // 8, _R2_FLAGS[(r - 4) % 8]
    return MoveSite("R2Add", (spots[a], spots[b]) + flags)


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


def _r2_remove_sites(code):
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
                yield MoveSite("R2Remove", ((ci, p, q), hit))


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


def _r3_sites(code):
    """R3 sites in the order of itertools.combinations over the adjacent
    distinct-label pairs: from each pair i = {a, b}, the later pairs j
    sharing exactly one label with it, then the later pairs k whose label
    set closes the triangle."""
    pairs = []  # (ci, p, q, comp[p], comp[q])
    by_label = {}  # label -> indices of the pairs holding it
    by_set = {}  # frozenset of the two labels -> pair indices
    for pair in _adjacent_pairs(code):
        a, b = pair[3].label, pair[4].label
        if a != b:
            i = len(pairs)
            pairs.append(pair)
            by_label.setdefault(a, []).append(i)
            by_label.setdefault(b, []).append(i)
            by_set.setdefault(frozenset((a, b)), []).append(i)
    for i, (ci, pi, qi, xi, yi) in enumerate(pairs):
        ab = {xi.label, yi.label}
        # a pair with label set {a, b} is listed twice and closes nothing
        for j in sorted(j for lab in ab for j in by_label[lab] if j > i):
            cj, pj, qj, xj, yj = pairs[j]
            rest = ab ^ {xj.label, yj.label}
            if len(rest) != 2:
                continue
            for k in by_set.get(frozenset(rest), ()):
                if k <= j:
                    continue
                ck, pk, qk, xk, yk = pairs[k]
                ends = {(ci, pi), (ci, qi), (cj, pj), (cj, qj), (ck, pk), (ck, qk)}
                if len(ends) != 6:
                    continue
                if _r3_shape_legal(_r3_key(xi, yi, xj, yj, xk, yk)):
                    yield MoveSite("R3", ((ci, pi, qi), (cj, pj, qj), (ck, pk, qk)))


def _r3_key(x0, y0, x1, y1, x2, y2):
    """The shape of the triangle whose strands s = 0, 1, 2 run through the
    entries (x_s, y_s), as an int in range(512).

    The crossings are numbered 0 = x0, 1 = y0 and 2 = the third.  The key is
    layout * 64 + passages * 8 + signs.  layout = 2 * (0 -> (0, 2),
    1 -> (2, 0), 2 -> (1, 2), 3 -> (2, 1): strand 1's crossings) + (whether
    strand 2 meets crossing 2 first).  The passage bits (O = 1) and the sign
    bits (+ = 1) are those of x0, y0 and strand 1's entry of crossing 2; a
    crossing's other entry has the other passage and the same sign.
    """
    a, b = x0.label, y0.label
    if x1.label == a:
        layout, z = 0, y1
    elif y1.label == a:
        layout, z = 1, x1
    elif x1.label == b:
        layout, z = 2, y1
    else:
        layout, z = 3, x1
    layout = 2 * layout + (x2.label == z.label)
    passages = 4 * (x0.passage == "O") + 2 * (y0.passage == "O") + (z.passage == "O")
    signs = 4 * (x0.sign > 0) + 2 * (y0.sign > 0) + (z.sign > 0)
    return 64 * layout + 8 * passages + signs


def _r3_shape(key):
    """The inverse of _r3_key: per strand ((crossing, passage), (crossing,
    passage)) at its two ends, and the sign of each crossing 0, 1, 2."""
    layout, rest = divmod(key, 64)
    passages, signs = divmod(rest, 8)
    strand1, strand2_first = divmod(layout, 2)
    shared = strand1 // 2  # the crossing strand 1 shares with strand 0
    other = 1 - shared
    ends = (
        (0, 1),
        (2, shared) if strand1 % 2 else (shared, 2),
        (2, other) if strand2_first else (other, 2),
    )
    home = (0, 0, 1)  # the strand whose entry the key's bits describe
    over = [bool(passages & bit) for bit in (4, 2, 1)]
    shape = tuple(
        tuple((c, "O" if over[c] == (s == home[c]) else "U") for c in ends[s])
        for s in range(3)
    )
    return shape, tuple(1 if signs & bit else -1 for bit in (4, 2, 1))


@lru_cache(maxsize=512)
def _r3_shape_legal(key):
    return _r3_search(*_r3_shape(key))


def _r3_search(strand_info, signs):
    """Whether some placement of the three strands on the three lines
    realizes the trio: strand_info as from _r3_shape, signs[crossing]."""
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


def _forbidden_sites(code):
    for ci, p, _q, x, y in _adjacent_pairs(code):
        if x.passage == "O" and y.passage == "O" and x.label != y.label:
            yield MoveSite("ForbiddenOver", (ci, p))


# kind -> (number of sites on m insertion slots, (slots, index) -> site)
_SPOT_KINDS = {
    "R1Add": (lambda m: 4 * m, _r1_add_at),
    "R2Add": (lambda m: 4 * m * m, _r2_add_at),
}
# kind -> generator of its sites in enumerate_sites order
_SITE_ITERS = {
    "R1Remove": _r1_remove_sites,
    "R2Remove": _r2_remove_sites,
    "R3": _r3_sites,
    "ForbiddenOver": _forbidden_sites,
}


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


_GROWTH = {"R1Add": 1, "R2Add": 2}  # crossings added by each kind


def random_walk(code, steps, seed, allow_forbidden=False, max_crossings=None):
    """A reproducible sequence of `steps` legal moves starting at `code`.

    Returns the list of steps+1 codes.  Each step picks uniformly among
    move kinds that currently have sites (crossing-adding kinds are
    excluded when they would exceed max_crossings), then uniformly among
    that kind's sites.  The random stream is fixed by that rule: one
    rng.randrange(number of kinds with sites), the kinds in the order
    R1Add, R1Remove, R2Add, R2Remove, R3, ForbiddenOver, then one
    rng.randrange(number of sites) naming a site by its index in
    enumerate_sites order.  Only the site taken is built; for the other
    kinds the walk asks only whether a site exists.
    """
    rng = random.Random(seed)
    kinds = ["R1Add", "R1Remove", "R2Add", "R2Remove", "R3"]
    if allow_forbidden:
        kinds.append("ForbiddenOver")
    out = [code]
    for _ in range(steps):
        n = code.n_crossings
        options = []
        for kind in kinds:
            grow = _GROWTH.get(kind, 0)
            if grow and max_crossings is not None and n + grow > max_crossings:
                continue
            if _has_site(code, kind):
                options.append(kind)
        if not options:
            break
        kind = options[rng.randrange(len(options))]
        if kind in _SPOT_KINDS:
            site = site_at(code, kind, rng.randrange(site_count(code, kind)))
        else:
            sites = enumerate_sites(code, kind)
            site = sites[rng.randrange(len(sites))]
        code = apply_move(code, site)
        out.append(code)
    return out
