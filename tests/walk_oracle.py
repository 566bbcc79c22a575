"""The walk layer as ``vknots.moves`` had it before walks built only the
site they take, kept as a test oracle.

``_sites_r1_add`` and ``_sites_r2_add`` build every site of their kind by
nested loops; ``_sites_r3`` tries every ``combinations`` trio of adjacent
distinct-label pairs and decides legality by ``_r3_legal``, which reads the
signs from ``edge_structure(code)`` and tries all 96 line placements of the
trio with ``vknots.moves._r3_match``.  ``_sites_r1_remove``,
``_sites_r2_remove`` and ``_sites_forbidden`` return lists where
``vknots.moves`` now yields its sites lazily.  ``random_walk`` enumerates
every kind in full at every step.  These routines are unchanged, and
``enumerate_sites`` dispatches to them as ``vknots.moves.enumerate_sites``
did.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations, product

from vknots.gausscode import edge_structure
from vknots.moves import MoveSite, _adjacent_pairs, _r3_match, _slots, apply_move


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


def _sites_forbidden(code):
    return [
        MoveSite("ForbiddenOver", (ci, p))
        for ci, p, _q, x, y in _adjacent_pairs(code)
        if x.passage == "O" and y.passage == "O" and x.label != y.label
    ]


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
