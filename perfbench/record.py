"""Make the benchmark corpus and record the expected output of every item.

    python3 perfbench/record.py [fuzz|report|jones ...]

writes ``perfbench/corpus/<workload>.json``.  Inputs come from fixed
generator seeds, so a rerun reproduces the same inputs.  The recorded
answers (fuzz step and distinct-code counts, SHA-256 digests of rendered
reports) are what the benchmark's correctness gate compares against, so
rerun this only when the corpus itself is meant to change; a digest that
no longer matches otherwise means the program's output changed.
"""

import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    _ROOT = Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]

from vknots.gausscode import canonical_key, parse_gauss, validate_code  # noqa: E402

from perfbench import workloads  # noqa: E402

TIMING_PASSES = 3
FUZZ_JOBS_PER_SEED_CODE = 40
FUZZ_TIERS = 8
REPORT_CROSSINGS = 7
REPORT_ITEMS = 240
REPORT_TIERS = 20
JONES_ITEMS_PER_CLASS = 30
# component lengths (entries per component) of each jones class
JONES_SHAPES = {
    "K14": (28,), "K15": (30,), "K16": (32,), "K17": (34,),
    "L4": (5, 5, 5, 5), "L5": (4, 4, 4, 4, 4),
}
# One jones round holds each slot of JONES_PATTERN once: three fast ops
# (K14, L4) and three slow ones (K16, K17, L5) sandwich three K15 ops, so
# the median op of a run is the middle K15 op, and K15 times lie within
# about 15% of each other.  Without the sandwich the median falls on the
# boundary between two shapes and jumps with the few ops near it.
JONES_PATTERN = ("K14", "K15", "K16", "L4", "K15", "K17", "K14", "K15", "L5")
JONES_TIERS = 2


def random_code_text(rng, lengths):
    """A random valid code whose components have the given entry counts."""
    n = sum(lengths) // 2
    word = [lab for lab in range(1, n + 1) for _ in range(2)]
    rng.shuffle(word)
    first_passage = {lab: rng.choice("OU") for lab in range(1, n + 1)}
    signs = {lab: rng.choice("+-") for lab in range(1, n + 1)}
    seen = set()
    entries = []
    for lab in word:
        passage = first_passage[lab]
        if lab in seen:
            passage = "U" if passage == "O" else "O"
        seen.add(lab)
        entries.append(f"{passage}{lab}{signs[lab]}")
    parts, pos = [], 0
    for length in lengths:
        parts.append("".join(entries[pos:pos + length]))
        pos += length
    return " / ".join(parts)


def distinct_codes(rng, lengths, count, seen):
    """``count`` codes of one shape, none canonically equal to ``seen``."""
    out = []
    while len(out) < count:
        text = random_code_text(rng, lengths)
        code = parse_gauss(text)
        if validate_code(code):
            raise AssertionError(f"generator made an invalid code: {text}")
        key = canonical_key(code)
        if key not in seen:
            seen.add(key)
            out.append(text)
    return out


def _record(wl, raw, answer, tiers, shapes):
    """Run every item, attach its recorded answer, and split each shape's
    items into ``tiers`` equal bands by the median time of its op over
    TIMING_PASSES passes here (passes, not back-to-back repeats, so a slow
    spell of the machine does not land on one item's every timing).

    A band is a scheduling class: runs visit every class equally often, so
    each run gets the same share of slow and fast inputs.  The warm-up item
    is the one whose op raised this process's peak memory the most, so
    every run's peak memory includes the corpus's largest op whether or not
    the seed schedules it.
    """
    wl.run(wl.prepare(raw[0]))  # first-call allocations count for no item
    items, timings, growth = [], [[] for _ in raw], []
    for n in range(TIMING_PASSES):
        for i, item in enumerate(raw):
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            t0 = time.perf_counter()
            result = wl.run(wl.prepare(item))
            timings[i].append(time.perf_counter() - t0)
            if n == 0:
                growth.append(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss)
                items.append(dict(item, **answer(result)))
            elif dict(item, **answer(result)) != items[i]:
                raise AssertionError(f"output changed between passes: {item}")
    times = [statistics.median(t) for t in timings]
    for shape in shapes:
        idx = sorted((i for i, it in enumerate(items) if it["shape"] == shape),
                     key=lambda i: times[i])
        for rank, i in enumerate(idx):
            items[i]["cls"] = f"{shape}#{rank * tiers // len(idx)}"
    # The pattern alternates the fastest and slowest tiers left, so a run
    # that stops part-way through a cycle still has about the mean mix.
    zigzag = [t for pair in zip(range(tiers), reversed(range(tiers)))
              for t in pair][:tiers]
    pattern = [f"{shape}#{t}" for t in zigzag for shape in shapes]
    warmup = items[max(range(len(items)), key=lambda i: growth[i])]
    return {"warmup": warmup, "pattern": pattern,
            "mean_op_s": sum(times) / len(times), "items": items}


def _digest(text):
    return {"sha256": workloads.digest(text)}


def _fuzz_counts(result):
    divergence, stats = result
    if divergence is not None:
        raise AssertionError(f"fuzz divergence while recording: {divergence}")
    return stats


def record_fuzz():
    rng = random.Random("fuzz-corpus")
    names = workloads.FUZZ_SEED_CODES
    raw = [
        {"shape": name, "walk_seed": rng.randrange(10**6)}
        for _ in range(FUZZ_JOBS_PER_SEED_CODE)
        for name in names
    ]
    wl = workloads.Fuzz(corpus=_empty(raw[0]))
    return _record(wl, raw, _fuzz_counts, FUZZ_TIERS, names)


def record_report():
    rng = random.Random("report-corpus")
    texts = distinct_codes(rng, (2 * REPORT_CROSSINGS,), REPORT_ITEMS, set())
    shape = f"C{REPORT_CROSSINGS}"
    raw = [{"shape": shape, "code": t} for t in texts]
    wl = workloads.Report(corpus=_empty(raw[0]))
    return _record(wl, raw, _digest, REPORT_TIERS, (shape,))


def record_jones():
    rng = random.Random("jones-corpus")
    seen = set()
    raw = []
    for shape, lengths in JONES_SHAPES.items():
        count = JONES_ITEMS_PER_CLASS * JONES_PATTERN.count(shape)
        raw += [{"shape": shape, "code": t}
                for t in distinct_codes(rng, lengths, count, seen)]
    wl = workloads.Jones(corpus=_empty(raw[0]))
    corpus = _record(wl, raw, _digest, JONES_TIERS, tuple(JONES_SHAPES))
    corpus["pattern"] = jones_pattern()
    return corpus


def jones_pattern():
    """JONES_PATTERN once per tier, each shape's slots taking its tiers in
    turn, so a shape with several slots has both bands in every round."""
    visits = dict.fromkeys(JONES_SHAPES, 0)
    pattern = []
    for _ in range(JONES_TIERS):
        for shape in JONES_PATTERN:
            pattern.append(f"{shape}#{visits[shape] % JONES_TIERS}")
            visits[shape] += 1
    return pattern


def _empty(warmup):
    return {"warmup": warmup, "pattern": [], "mean_op_s": 1.0, "items": []}


RECORDERS = {"fuzz": record_fuzz, "report": record_report, "jones": record_jones}


def main(names):
    for name in names or RECORDERS:
        corpus = {"workload": name, **RECORDERS[name]()}
        path = workloads.CORPUS_DIR / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(corpus, fh, indent=0)
            fh.write("\n")
        print(f"wrote {path} ({len(corpus['items'])} items)")


if __name__ == "__main__":
    main(sys.argv[1:])
