"""The three workloads: seeded inputs, written as game documents, and their ops.

Every input comes from this file, the documents under data/ and the seed;
none comes from wmpower. Each workload function returns the ops of one pass,
smallest games first, with the reference output of each op attached (see
check.py).
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from check import (
    INDEX_KINDS,
    Op,
    axioms_validator,
    game_text,
    merge_validator,
    mwc_listing,
    property_validator,
    render_table,
)
from oracle import MergeVerdict, Reference, cross_check, decomposition

DATA = Path(__file__).resolve().parent / "data"
ECUADOR_PERIODS = ("may21", "jun21", "jul21", "oct12", "oct26", "dec21")
DEMO_INDICES = ("ss", "dp", "pg", "cm", "hcm")
EU_TOTAL, EU_QUOTA = 345, 255
# The axioms command's builtin games: five fixtures plus the six Ecuador periods.
BUILTIN_AXIOM_GAMES = 11

# Games are drawn once, from POOL_SEED; --seed relabels their players and
# orders the ops. So inputs differ from seed to seed while the work per pass
# stays nearly the same, and run-to-run spread measures the program.
POOL_SEED = 240206298
# index-ladder rungs: (players, games, accepted mwc counts). The band sits
# around the median mwc count of majority games with weights 1..99.
LADDER_RUNGS = ((8, 5, (20, 26)), (10, 4, (62, 76)), (12, 4, (200, 236)), (14, 2, (700, 820)))
# Banzhaf at n = 12 (about 0.5 s) is left out: it ties with the n = 14
# mwc-based cells, and the 90th percentile jumped between the two kinds.
LADDER_SKIPPED = {(12, "bz")}
# merge-axioms bases: (players, families, accepted mwc counts), quota ceil(3W/4).
MERGE_RUNGS = ((6, 10, (4, 5)), (7, 10, (5, 7)), (8, 10, (9, 11)), (9, 10, (14, 16)), (10, 10, (22, 26)))
AXIOM_SUITES = (("dp", "thm1"), ("hcm", "thm2"), ("ss", "classic"), ("pg", "classic"))
AXIOM_SAMPLES = 20


class Document:
    """A game document as the benchmark knows it: parsed without wmpower."""

    def __init__(self, path: Path, root: Path) -> None:
        obj = json.loads(path.read_text())
        self.arg = str(path.relative_to(root))
        self.quota = Fraction(obj["quota"])
        self.weights = [Fraction(w) for w in obj["weights"]]
        self.names = obj.get("players") or [f"P{k + 1}" for k in range(len(self.weights))]
        self.label = obj.get("metadata", {}).get("label")


def write_document(path: Path, quota, weights) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"quota": str(quota), "weights": [str(w) for w in weights]}))


def power_op(doc: Document, ref: Reference, keys, fmt: str, digits: int, exact: bool, cell: str) -> Op:
    argv = ["power", "--game", doc.arg, "--index", ",".join(keys), "--format", fmt]
    if digits != 4:
        argv += ["--digits", str(digits)]
    if exact:
        argv.append("--exact")
    vectors = [(INDEX_KINDS[k], ref.index(k)) for k in keys]
    return Op("power", argv, render_table(doc.names, vectors, fmt, digits, exact) + "\n", cell=cell)


def mwc_op(doc: Document, ref: Reference, cell: str) -> Op:
    text = mwc_listing(doc.label, doc.quota, doc.weights, doc.names, ref.mwc)
    return Op("mwc", ["mwc", "--game", doc.arg], text, cell=cell)


def tables_small(seed: int, work: Path, root: Path, oracles) -> list[Op]:
    """Real bodies at n <= 6: start-up, documents, tables and argparse set the time."""
    rng = random.Random(seed)
    periods = [Document(DATA / "ecuador" / f"{p}.json", root) for p in ECUADOR_PERIODS]
    fixtures = [
        Document(DATA / f"{name}.json", root)
        for name in ("reference_game", "readme_a", "readme_b", "readme_union", "fixture_221")
    ]
    refs = {doc.arg: Reference(doc.quota, doc.weights) for doc in periods + fixtures}
    for ref in refs.values():
        cross_check(oracles, ref, permutations=True)
    ops = []
    for fmt in ("table", "csv", "json"):
        for exact in (False, True):
            digits = rng.randint(2, 8)
            blocks = []
            for doc in periods:
                ref = refs[doc.arg]
                vectors = [(INDEX_KINDS[k], ref.index(k)) for k in DEMO_INDICES]
                blocks.append(
                    f"{doc.label}  {game_text(doc.quota, doc.weights)}\n"
                    f"minimal winning coalitions: {len(ref.mwc)}\n"
                    + render_table(doc.names, vectors, fmt, digits, exact)
                )
            argv = ["demo", "ecuador", "--format", fmt, "--digits", str(digits)]
            ops.append(Op("demo", argv + (["--exact"] if exact else []), "\n\n".join(blocks) + "\n", cell=f"demo/{fmt}"))
    for key, doc in zip(ECUADOR_PERIODS, periods):
        for fmt in ("table", "csv", "json"):
            vectors = [(INDEX_KINDS[k], refs[doc.arg].index(k)) for k in DEMO_INDICES]
            text = (
                f"{doc.label}  {game_text(doc.quota, doc.weights)}\n"
                f"minimal winning coalitions: {len(refs[doc.arg].mwc)}\n"
                + render_table(doc.names, vectors, fmt, 4, False)
            )
            ops.append(Op("demo", ["demo", "ecuador", "--period", key, "--format", fmt], text + "\n", cell=f"demo/{key}"))
    for doc in periods + fixtures:
        for fmt in ("table", "csv", "json"):
            for exact in (False, True):
                ops.append(power_op(doc, refs[doc.arg], list(INDEX_KINDS), fmt, rng.randint(2, 8), exact, f"power/{fmt}"))
        ops.append(mwc_op(doc, refs[doc.arg], "mwc"))
    a, b, nonmergeable = (Document(DATA / f"{n}.json", root) for n in ("readme_a", "readme_b", "nonmergeable_b"))
    for pair in ((a, b), (a, nonmergeable)):
        verdict = MergeVerdict([d.quota for d in pair], [d.weights for d in pair])
        for check_only in (False, True):
            argv = ["merge", *(d.arg for d in pair)] + (["--check-only"] if check_only else [])
            ops.append(Op("merge", argv, validate=merge_validator(verdict, check_only), cell="merge"))
    for bad in sorted((DATA / "bad").glob("*.json")):
        arg = str(bad.relative_to(root))
        ops.append(Op("refused", ["power", "--game", arg], exit_code=2, cell=f"refused/{bad.stem}"))
        ops.append(Op("refused", ["mwc", "--game", arg], exit_code=2, cell=f"refused/{bad.stem}"))
    return ops


def sample_game(rng: random.Random, n: int, band, quota_of) -> tuple[int, list[int], Reference]:
    """A random game with weights 1..99 whose mwc count lies in the band."""
    while True:
        weights = [rng.randint(1, 99) for _ in range(n)]
        quota = quota_of(sum(weights))
        ref = Reference(quota, weights)
        if band[0] <= len(ref.mwc) <= band[1]:
            return quota, weights, ref


def relabel(rows, rng: random.Random) -> list[list]:
    """The rows with one random permutation of the players applied to each."""
    order = list(range(len(rows[0])))
    rng.shuffle(order)
    return [[row[i] for i in order] for row in rows]


def eu_council(root: Path) -> Document:
    doc = Document(DATA / "eu_council_nice.json", root)
    if len(doc.weights) != 27 or sum(doc.weights) != EU_TOTAL or doc.quota != EU_QUOTA:
        raise ValueError("the EU Council document must hold 27 weights totalling 345, quota 255")
    return doc


def index_ladder(seed: int, work: Path, root: Path, oracles) -> list[Op]:
    """Majority games at n = 8..14 plus the EU Council (Nice): kernels set the time."""
    pool, rng = random.Random(POOL_SEED), random.Random(seed)
    ops = []
    for n, count, band in LADDER_RUNGS:
        for g in range(count):
            quota, weights, _ = sample_game(pool, n, band, lambda total: total // 2 + 1)
            (weights,) = relabel([weights], rng)
            ref = Reference(quota, weights)
            if n <= 8:
                cross_check(oracles, ref, permutations=False)
            path = work / f"n{n}-{g}.json"
            write_document(path, quota, weights)
            doc = Document(path, root)
            ops.append(mwc_op(doc, ref, f"n{n}/mwc"))
            for key in INDEX_KINDS:
                if (n, key) not in LADDER_SKIPPED:
                    ops.append(power_op(doc, ref, [key], "json", 4, True, f"n{n}/{key}"))
    eu = eu_council(root)
    argv = ["power", "--game", eu.arg, "--index", "ss", "--exact", "--format", "json"]
    ops.append(Op("power", argv, validate=property_validator(eu.names, eu.weights), cell="eu27/ss"))
    return ops


def merge_axioms(seed: int, work: Path, root: Path, oracles) -> list[Op]:
    """Single-mwc decompositions, intact and perturbed, plus the axiom suites."""
    pool, rng = random.Random(POOL_SEED), random.Random(seed)
    ops = []
    for n, count, band in MERGE_RUNGS:
        for f in range(count):
            while True:
                quota, weights, ref = sample_game(pool, n, band, lambda total: -(-3 * total // 4))
                rows = decomposition(ref)
                # players with a nonzero weight in two or more components
                shared = [i for i in range(n) if sum(1 for row in rows if row[i]) >= 2]
                if shared:
                    break
            if n <= 8:
                cross_check(oracles, ref, permutations=False)
            player = pool.choice(shared)
            component = pool.choice([k for k, row in enumerate(rows) if row[player]])
            perturbed = [list(row) for row in rows]
            perturbed[component][player] += 1
            relabelled = relabel(rows + perturbed, rng)
            rows, perturbed = relabelled[: len(rows)], relabelled[len(rows) :]
            # The perturbed family shares every document but one with the intact one.
            paths = [work / f"n{n}-{f}" / f"c{k:02d}.json" for k in range(len(rows))]
            for path, row in zip(paths, rows):
                write_document(path, quota, row)
            perturbed_paths = list(paths)
            perturbed_paths[component] = work / f"n{n}-{f}" / "perturbed.json"
            write_document(perturbed_paths[component], quota, perturbed[component])
            for kind, family, files in (("mergeable", rows, paths), ("nonmergeable", perturbed, perturbed_paths)):
                verdict = MergeVerdict([quota] * len(family), family)
                if verdict.overall != (kind == "mergeable"):
                    raise RuntimeError(f"n={n} family {f}: the {kind} family has the wrong verdict")
                argv = ["merge", *(str(p.relative_to(root)) for p in files)]
                ops.append(Op("merge", argv, validate=merge_validator(verdict), cell=f"n{n}/{kind}"))
    for index, suite in AXIOM_SUITES:
        for _ in range(2):
            argv = ["axioms", "--index", index, "--suite", suite, "--samples", str(AXIOM_SAMPLES),
                    "--seed", str(pool.randrange(10**6))]
            games = BUILTIN_AXIOM_GAMES + AXIOM_SAMPLES
            ops.append(Op("axioms", argv, validate=axioms_validator(index, suite, games), cell=f"axioms/{index}-{suite}"))
    return ops


WORKLOADS = {
    "tables-small": tables_small,
    "index-ladder": index_ladder,
    "merge-axioms": merge_axioms,
}
