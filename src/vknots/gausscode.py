"""Signed oriented Gauss codes: data model, parser, validator, structure.

Grammar (whitespace between tokens is ignored):

    code      := component ("/" component)*
    component := "()" | entry+
    entry     := ("O" | "U") integer ("+" | "-")

Integers are base-10 without leading zeros.  Every crossing label must
occur exactly twice in the whole code, once Over and once Under, with the
same sign at both occurrences.  An empty component "()" is an unknotted,
unlinked circle.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple


class GaussCodeError(ValueError):
    """Syntax or validation failure for a Gauss code."""


class GaussEntry(NamedTuple):
    passage: str  # "O" or "U"
    label: int
    sign: int  # +1 or -1

    def render(self):
        return f"{self.passage}{self.label}{'+' if self.sign > 0 else '-'}"


class LinkGaussCode:
    """Immutable signed oriented Gauss code of a virtual link."""

    __slots__ = ("components",)

    def __init__(self, components):
        self.components = tuple(tuple(c) for c in components)
        if not self.components:
            raise GaussCodeError("a code needs at least one component")

    def __eq__(self, other):
        if not isinstance(other, LinkGaussCode):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return f"LinkGaussCode({render_gauss(self)!r})"

    @property
    def labels(self):
        return sorted({e.label for comp in self.components for e in comp})

    @property
    def n_crossings(self):
        return sum(len(c) for c in self.components) // 2

    def sign_of(self, label):
        for comp in self.components:
            for e in comp:
                if e.label == label:
                    return e.sign
        raise GaussCodeError(f"unknown label {label}")


_TOKEN = re.compile(r"\s+|\(\)|/|[OU](?:[1-9][0-9]*)[+-]|.", re.DOTALL)
_ENTRY = re.compile(r"([OU])([1-9][0-9]*)([+-])")


def parse_gauss(text):
    """Parse and validate a Gauss code string into a LinkGaussCode."""
    components = [[]]
    saw_empty = [False]
    for m in _TOKEN.finditer(text):
        tok = m.group(0)
        if tok.isspace():
            continue
        if tok == "/":
            components.append([])
            saw_empty.append(False)
            continue
        if tok == "()":
            if components[-1] or saw_empty[-1]:
                raise GaussCodeError(
                    f"position {m.start()}: '()' must stand alone in a component"
                )
            saw_empty[-1] = True
            continue
        em = _ENTRY.fullmatch(tok)
        if not em:
            raise GaussCodeError(f"position {m.start()}: unexpected {tok!r}")
        if saw_empty[-1]:
            raise GaussCodeError(
                f"position {m.start()}: entries after '()' in one component"
            )
        components[-1].append(
            GaussEntry(em.group(1), int(em.group(2)), 1 if em.group(3) == "+" else -1)
        )
    for comp, empty in zip(components, saw_empty):
        if not comp and not empty:
            raise GaussCodeError("empty component; write '()' for a free circle")
    code = LinkGaussCode(components)
    problems = validate_code(code)
    if problems:
        raise GaussCodeError("; ".join(_render_violation(v) for v in problems))
    return code


def render_gauss(code):
    """Deterministic string form; reparses to an equal code."""
    return "/".join(
        "".join(e.render() for e in comp) if comp else "()"
        for comp in code.components
    )


@dataclass(frozen=True)
class Violation:
    kind: str  # MissingPartner | ExtraOccurrence | PassageMismatch | SignMismatch
    label: int


def _render_violation(v):
    return f"{v.kind}({v.label})"


def validate_code(code):
    """All label-pairing violations, as data; empty list iff valid."""
    occurrences = {}
    for comp in code.components:
        for e in comp:
            occurrences.setdefault(e.label, []).append(e)
    out = []
    for label in sorted(occurrences):
        occ = occurrences[label]
        if len(occ) == 1:
            out.append(Violation("MissingPartner", label))
            continue
        if len(occ) > 2:
            out.append(Violation("ExtraOccurrence", label))
            continue
        a, b = occ
        if a.passage == b.passage:
            out.append(Violation("PassageMismatch", label))
        if a.sign != b.sign:
            out.append(Violation("SignMismatch", label))
    return out


def canonicalize(code):
    """Representative of the orbit under rotation, relabeling, and
    component permutation: the minimal relabeled entry sequence over all
    component orders and rotations.

    Labels are renumbered in first-traversal order, and keys compare
    component by component, so the minimum is built one component at a
    time.  A branch is the components still to place plus the renumbering
    inherited from those placed.  At each level every remaining
    (component, rotation) pair of every branch is renumbered, and only
    the pairs that tie for the smallest tuple become the next branches.
    Branches with the same remaining components that agree on the labels
    those components carry have the same future, so one of them is kept.
    A pair's key is compared with the smallest so far while it is built:
    it is dropped at its first larger entry, or when it runs past the
    smallest one with every entry equal.
    """
    comps = code.components
    empties = sum(1 for c in comps if not c)
    nonempty = [c for c in comps if c]
    comp_labels = [{e.label for e in c} for c in nonempty]
    branches = [(tuple(range(len(nonempty))), {})]
    best = []
    while branches[0][0]:
        level_min = None
        tied = {}
        for remaining, mapping in branches:
            for i in remaining:
                comp = nonempty[i]
                size = len(comp)
                live = None
                for rot in range(size):
                    new_map = dict(mapping)
                    key = []
                    below = level_min is None
                    for e in comp[rot:] + comp[:rot]:
                        if e.label not in new_map:
                            new_map[e.label] = len(new_map) + 1
                        entry = (e.passage, new_map[e.label], e.sign)
                        if not below:
                            if len(key) == len(level_min):
                                break  # longer, with level_min as prefix
                            least = level_min[len(key)]
                            if entry != least:
                                if entry > least:
                                    break
                                below = True
                        key.append(entry)
                    if len(key) < size:
                        continue  # dropped before its end
                    if below or size < len(level_min):
                        level_min, tied = tuple(key), {}
                    if live is None:
                        rest = tuple(j for j in remaining if j != i)
                        live = set().union(*(comp_labels[j] for j in rest))
                    future = tuple(
                        sorted((l, v) for l, v in new_map.items() if l in live)
                    )
                    tied.setdefault((rest, future), (rest, new_map))
        best.append(level_min)
        branches = list(tied.values())
    new_components = [()] * empties
    for comp in best:
        new_components.append(
            tuple(GaussEntry(p, lbl, s) for (p, lbl, s) in comp)
        )
    return LinkGaussCode(new_components)


def canonical_key(code):
    """Stable string identifying the code up to relabeling/rotation/order."""
    return render_gauss(canonicalize(code))


class FlatCode(NamedTuple):
    components: tuple  # tuple of tuples of labels

    def render(self):
        return " / ".join(
            " ".join(str(l) for l in comp) if comp else "()"
            for comp in self.components
        )


def flat_projection(code):
    """Forget passage and sign, keeping only the label pattern."""
    return FlatCode(tuple(tuple(e.label for e in comp) for comp in code.components))


def inter_component_parity(code, i, j):
    """Parity of the number of crossings shared by components i and j.

    Two closed curves in the plane meet transversally an even number of
    times, so classical + virtual inter-component crossings are even in
    any realization; the virtual parity therefore equals the classical
    parity and is computable from the code alone.  Invariant under all
    generalized Reidemeister moves.
    """
    if i == j:
        raise ValueError("components must differ")
    ncomp = len(code.components)
    if not (0 <= i < ncomp and 0 <= j < ncomp):
        raise IndexError("component index out of range")
    li = {e.label for e in code.components[i]}
    lj = {e.label for e in code.components[j]}
    return len(li & lj) % 2


@dataclass(frozen=True)
class EdgeStructure:
    """The compiled diagram of a code: edges, arcs, crossing incidences,
    signs and connected pieces, which every invariant reads.

    edges[k] = (component, position): the segment from entry `position`
    to the cyclically next entry of that component.  Edge e has two ends,
    its tail 2e and its head 2e + 1.  crossing_edges maps each label to
    (over_in, over_out, under_in, under_out) edge indices, and
    crossing_ends to the ends met there: (2*over_in + 1, 2*over_out,
    2*under_in + 1, 2*under_out).  arcs are maximal edge runs broken only
    at Under passages (a non-empty component with no Under passage is one
    closed arc); crossing_arcs maps each label to (over_arc, under_in_arc,
    under_out_arc).  signs maps each label to its sign.  pieces groups the
    labels into the connected pieces of the diagram (two components lie in
    one piece when they share a crossing; free circles belong to none):
    sorted label tuples, in order of their smallest label.

    edge_structure memoizes it, so one instance is shared by all callers:
    they must not mutate it.
    """

    edges: tuple
    arcs: tuple
    crossing_edges: dict
    crossing_ends: dict
    crossing_arcs: dict
    signs: dict
    pieces: tuple
    free_circles: int


@lru_cache(maxsize=16)
def edge_structure(code):
    edges = []
    arcs = []
    arc_of_edge = {}
    crossing_edges = {}
    signs = {}
    free = 0
    for ci, comp in enumerate(code.components):
        k = len(comp)
        if not k:
            free += 1
            continue
        base = len(edges)  # edge id of the component's first segment
        edges += [(ci, pi) for pi in range(k)]
        for pi, e in enumerate(comp):
            slot = crossing_edges.setdefault(e.label, [None] * 4)
            at = 0 if e.passage == "O" else 2
            slot[at], slot[at + 1] = base + (pi - 1) % k, base + pi
            signs[e.label] = e.sign
        # an arc runs from just after one Under passage to the next; a
        # component with no Under passage is one closed arc
        unders = [pi for pi, e in enumerate(comp) if e.passage == "U"] or [0]
        for start, stop in zip(unders, unders[1:] + unders[:1]):
            length = (stop - start - 1) % k + 1
            arc = tuple(base + (start + j) % k for j in range(length))
            arc_of_edge.update(dict.fromkeys(arc, len(arcs)))
            arcs.append(arc)
    crossing_edges = {l: tuple(v) for l, v in crossing_edges.items()}
    crossing_ends = {
        l: (2 * o_in + 1, 2 * o_out, 2 * u_in + 1, 2 * u_out)
        for l, (o_in, o_out, u_in, u_out) in crossing_edges.items()
    }
    crossing_arcs = {
        l: (arc_of_edge[o_out], arc_of_edge[u_in], arc_of_edge[u_out])
        for l, (o_in, o_out, u_in, u_out) in crossing_edges.items()
    }

    # pieces: union-find over labels, joining neighbours along a component
    labels = sorted(signs)
    parent = {l: l for l in labels}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for comp in code.components:
        for a, b in zip(comp, comp[1:]):
            parent[find(a.label)] = find(b.label)
    pieces = {}
    for l in labels:
        pieces.setdefault(find(l), []).append(l)
    return EdgeStructure(
        edges=tuple(edges),
        arcs=tuple(arcs),
        crossing_edges=crossing_edges,
        crossing_ends=crossing_ends,
        crossing_arcs=crossing_arcs,
        signs=signs,
        pieces=tuple(tuple(piece) for piece in pieces.values()),
        free_circles=free,
    )


# --- realizability -------------------------------------------------------
#
# A signed oriented Gauss code determines an abstract 4-valent graph with
# a rotation system: at a positive crossing the counterclockwise order of
# the four edge-ends is (over-in, under-in, over-out, under-out); at a
# negative crossing it is (over-in, under-out, over-out, under-in).  The
# code admits a planar (classical) realization exactly when the closed
# surface built from this rotation system has genus zero on every
# connected piece, which Euler's formula decides after face tracing.


def realizability_check(code):
    es = edge_structure(code)
    if not es.edges:
        return True
    nends = 2 * len(es.edges)
    next_ccw = [0] * nends
    label_of = [0] * nends
    for label, (o_in, o_out, u_in, u_out) in es.crossing_ends.items():
        if es.signs[label] > 0:
            ring = (o_in, u_in, o_out, u_out)
        else:
            ring = (o_in, u_out, o_out, u_in)
        for k, x in enumerate(ring):
            next_ccw[x] = ring[k - 3]
            label_of[x] = label
    piece_of = {l: i for i, piece in enumerate(es.pieces) for l in piece}
    faces_per_piece = [0] * len(es.pieces)
    # a dart is named by the end it arrives at; a dart arriving at x
    # leaves along the next end counterclockwise and arrives at its far end
    seen = [False] * nends
    for start in range(nends):
        if seen[start]:
            continue
        x = start
        while not seen[x]:
            seen[x] = True
            x = next_ccw[x] ^ 1
        # a face never leaves the piece of the crossings it touches
        faces_per_piece[piece_of[label_of[start]]] += 1
    # per piece: V = crossings, E = 2V (each crossing has 4 ends, each edge
    # 2), so the Euler characteristic V - E + F is F - V
    return all(
        faces - len(piece) == 2
        for piece, faces in zip(es.pieces, faces_per_piece)
    )
