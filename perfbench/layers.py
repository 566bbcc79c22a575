"""The traced layers, their work counts, and what each should move.

Every layer is one public function of a ``vknots`` module.  The traced run
wraps it at every module that binds it and reports, per layer,
``<module>.<function>.calls``, ``.busy_s`` (time inside the outermost call)
and ``.self_s`` (busy time minus the traced calls made inside it), plus the
work counts listed here.  Counts are computed from call arguments and
return values only, so they repeat exactly for a given op list.

No layer has a wait metric: the program is single-threaded and nothing in
it waits on a queue, a lock or a device.

``moves`` records, before any optimisation is measured, which end-to-end
metric on which workload a change to that layer should move.  A later
performance change cites these lines by layer name.
"""

from math import factorial, prod
from typing import NamedTuple


class Layer(NamedTuple):
    module: str
    function: str
    counts: tuple  # extra count metric names, besides calls
    moves: str

    @property
    def name(self):
        return f"{self.module}.{self.function}"


def _selections(args, kwargs, result):
    sels = args[1]
    return {
        "minors": len(sels),
        "max_dim": max((len(rows) for rows, _cols in sels), default=0),
    }


def _bracket_states(args, kwargs, result):
    return {"states": 2 ** len(args[0].labels)}


def _canonical_candidates(args, kwargs, result):
    lens = [len(c) for c in args[0].components if c]
    return {"candidates": factorial(len(lens)) * prod(lens)}


def _fuzz_report(args, kwargs, result):
    # fuzz_walks fills its report only when no divergence was found
    return dict(kwargs.get("report") or {})


# COUNTERS[layer name](positional args, keyword args, return value)
#   -> {count name: value}
COUNTERS = {
    "fastdet.det_gaussian_submatrices": _selections,
    "fastdet.det_gaussian_many":
        lambda args, kwargs, result: {"matrices": len(args[0])},
    "invariants.bracket": _bracket_states,
    "gausscode.canonicalize": _canonical_candidates,
    "moves.enumerate_sites": lambda args, kwargs, result: {"sites": len(result)},
    "cli.fuzz_walks": _fuzz_report,
}

# Count metrics aggregated by maximum instead of by sum.
MAX_COUNTS = {"max_dim"}

_FASTDET = "ops_per_s on fuzz and op_p50_ms on report; flat on jones"
_COLORING = "op_tail_ms on report and ops_per_s on fuzz; flat on jones"

LAYERS = (
    Layer("fastdet", "det_gaussian_submatrices", ("minors", "max_dim"),
          _FASTDET + " (the codim-1 minor sweep)"),
    Layer("fastdet", "det_gaussian_many", ("matrices",), _FASTDET),
    Layer("fastdet", "det_laurent2", (), _FASTDET),
    Layer("coloring", "count_biquandle_colorings", (), _COLORING),
    Layer("coloring", "count_iq_colorings", (), _COLORING),
    Layer("invariants", "bracket", ("states",),
          "op_p50_ms and op_tail_ms on jones; negligible on fuzz and report"),
    Layer("invariants", "f_polynomial", (),
          "op_p50_ms on jones (through the bracket)"),
    Layer("invariants", "gen_alexander", (),
          "ops_per_s on fuzz and op_p50_ms on report; not called on jones"),
    Layer("invariants", "quaternionic_invariant", (),
          "ops_per_s on fuzz and op_p50_ms on report; not called on jones"),
    Layer("invariants", "codim1_gcd", (),
          "ops_per_s on fuzz and op_p50_ms on report; not called on jones"),
    Layer("invariants", "study_determinant", (),
          "ops_per_s on fuzz and op_p50_ms on report; not called on jones"),
    Layer("invariants", "atom_profile", (),
          "op_p50_ms on report and jones; not called on fuzz"),
    Layer("invariants", "bracket_congruence", (),
          "op_p50_ms on jones (a second bracket per op)"),
    Layer("gausscode", "canonicalize", ("candidates",),
          "op_tail_ms on jones (the 5-component links); small on fuzz"),
    Layer("gausscode", "edge_structure", (),
          "every workload by a small share; calls_per_op is the baseline "
          "for compiling each diagram once"),
    Layer("gausscode", "realizability_check", (),
          "every workload by a small share"),
    Layer("moves", "enumerate_sites", ("sites",), "ops_per_s on fuzz only"),
    Layer("moves", "apply_move", (), "ops_per_s on fuzz only"),
    Layer("quaternion", "double_matrix", (), "ops_per_s on fuzz, op_p50_ms on report"),
    Layer("laurent", "poly_gcd", (), "ops_per_s on fuzz, op_p50_ms on report"),
    Layer("cli", "fuzz_walks", ("steps", "distinct_codes"),
          "ops_per_s on fuzz; cli.fuzz.memo_hit_ratio (1 - distinct codes / "
          "steps) should rise only if the memo changes"),
    Layer("report", "invariant_report", (), "op_p50_ms on report and jones"),
)

# Shares of the criterion-5 fuzz time in the ROADMAP baseline profile, as
# (label, layers summed, percent); printed beside the traced fuzz breakdown.
ROADMAP_FUZZ_SHARES = (
    ("quaternionic pair", ("invariants.quaternionic_invariant",), 74),
    ("codim-1 minor sweep", ("invariants.codim1_gcd",), 64),
    ("coloring search", ("coloring.count_biquandle_colorings",
                         "coloring.count_iq_colorings"), 22),
)


def metric_specs():
    """(name, unit, better) of every per-layer metric, in output order."""
    specs = []
    for layer in LAYERS:
        specs.append((f"{layer.name}.calls", "count", "lower"))
        specs.append((f"{layer.name}.busy_s", "s", "lower"))
        specs.append((f"{layer.name}.self_s", "s", "lower"))
        specs.extend((f"{layer.name}.{c}", "count", "lower") for c in layer.counts)
    specs += [
        ("gausscode.edge_structure.calls_per_op", "calls/op", "lower"),
        ("cli.fuzz.memo_hit_ratio", "ratio", "higher"),
        ("trace.ops", "count", "higher"),
        ("trace.layer_errors", "count", "lower"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.traced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return specs
