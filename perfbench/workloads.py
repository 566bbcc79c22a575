"""The benchmark's workloads: inputs, the op each runs, and its check.

Inputs come from a committed corpus, ``perfbench/corpus/<workload>.json``,
made once by ``perfbench/record.py`` together with the expected output of
every item.  The run seed decides which corpus items a run uses and in
what order, so the same seed gives the same inputs and every op can be
checked against a recorded answer.

Each item has a shape (the fuzz seed diagram, the crossing count or the
link shape) and a scheduling class: its shape plus the band of op times it
fell in when the corpus was recorded.  A run visits the classes
round-robin in the corpus's ``pattern``, taking each class's items in a
seed-shuffled order, so every run has the same mix of shapes and of slow
and fast inputs however long it lasts.  That fixed mix is what keeps the
per-run medians and tails steady from seed to seed.
"""

import hashlib
import json
import random
from pathlib import Path

from vknots import cli
from vknots import report as vreport
from vknots.catalog import catalog_by_name
from vknots.gausscode import parse_gauss

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"

STRUCTURE_SPECS = ("dihedral-3", "alexander-5-2-3")
FUZZ_SEED_CODES = ("kink", "trefoil", "virtual-trefoil", "hopf", "flat-h")
FUZZ_WALKS = 2
FUZZ_STEPS = 4
FUZZ_MAX_CROSSINGS = 5


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_corpus(name):
    with open(CORPUS_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    """One workload: its corpus, a seeded op schedule, an op and a check.

    ``entry`` is the traced layer the op calls first; the traced run's
    coverage is the share of wall time spent in the layers it calls.
    ``mean_op_s`` is the mean op time when the corpus was recorded; it
    fixes the traced run's op count, which must not depend on the speed
    measured in the run.
    """

    name = ""
    entry = ""

    def __init__(self, corpus=None):
        corpus = corpus if corpus is not None else load_corpus(self.name)
        self.structures = [vreport.parse_structure(s) for s in STRUCTURE_SPECS]
        self.pattern = tuple(corpus["pattern"])
        self.mean_op_s = corpus["mean_op_s"]
        self.warmup = self.prepare(corpus["warmup"])
        self.by_class = {}
        for item in corpus["items"]:
            self.by_class.setdefault(item["cls"], []).append(self.prepare(item))

    def prepare(self, item):
        """Parse one corpus item into the form ``run`` takes."""
        return dict(item, code=parse_gauss(item["code"]))

    def schedule(self, seed):
        """Endless seeded op sequence, classes round-robin in ``pattern``."""
        rng = random.Random(seed)
        queues = {cls: [] for cls in self.by_class}
        while True:
            for cls in self.pattern:
                if not queues[cls]:
                    queues[cls] = self.by_class[cls][:]
                    rng.shuffle(queues[cls])
                yield queues[cls].pop()

    def first_ops(self, seed, count):
        ops = self.schedule(seed)
        return [next(ops) for _ in range(count)]

    def run(self, item):
        raise NotImplementedError

    def check(self, item, result):
        """True when ``result`` is the recorded answer for ``item``."""
        return digest(result) == item["sha256"]


class Fuzz(Workload):
    """Move-invariance fuzz (acceptance criterion 5) through cli.fuzz_walks.

    One op is one fuzz_walks job from a catalog seed diagram; the snapshot
    memo serves repeats inside the job.
    """

    name = "fuzz"
    entry = "cli.fuzz_walks"

    def __init__(self, corpus=None):
        entries = catalog_by_name()
        self.seed_codes = {n: entries[n].code for n in FUZZ_SEED_CODES}
        super().__init__(corpus)

    def prepare(self, item):
        return dict(item, code=self.seed_codes[item["shape"]])

    def run(self, item):
        stats = {}
        divergence = cli.fuzz_walks(
            item["code"],
            walks=FUZZ_WALKS,
            steps=FUZZ_STEPS,
            seed=item["walk_seed"],
            allow_forbidden=False,
            structures=self.structures,
            max_crossings=FUZZ_MAX_CROSSINGS,
            report=stats,
        )
        return divergence, stats

    def check(self, item, result):
        divergence, stats = result
        return divergence is None and stats == {
            "steps": item["steps"], "distinct_codes": item["distinct_codes"]
        }


class Report(Workload):
    """``invariants --all`` with both structures on distinct random knots."""

    name = "report"
    entry = "report.invariant_report"

    def run(self, item):
        pairs = vreport.invariant_report(
            item["code"], set(vreport.FLAG_NAMES), self.structures
        )
        return vreport.render_report(pairs)


class Jones(Workload):
    """f-polynomial and atom report: bracket and canonicalize, no fastdet."""

    name = "jones"
    entry = "report.invariant_report"

    def run(self, item):
        pairs = vreport.invariant_report(item["code"], {"f", "atom"})
        return vreport.render_report(pairs)


WORKLOADS = {w.name: w for w in (Fuzz, Report, Jones)}
