"""Seeded input generators for the four benchmark workloads.

Every workload is a list of :class:`Input` records.  A record carries the
``.adt`` text the program reads, the extra ``schedule`` flags, the group it
is reported under (``tight`` or ``relaxed``) and the facts the output check
needs.  Nothing here imports the program or the repository's tests: the
generators are the benchmark's own copies, so editing a test cannot shift a
workload, and the same seed always gives byte-identical inputs.

One *cycle* of a workload is its whole input list; the closed loop repeats
cycles, so every workload's mix is the same in every complete cycle.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from math import gcd
from pathlib import Path

TREES_DIR = Path(__file__).resolve().parent / "trees"

WORKLOADS = ("long_durations", "outcome_fans", "wide_chains", "random_corpus")


@dataclass
class Input:
    key: str          # names the input in failure reports
    text: str         # the .adt file the program reads
    flags: list       # extra `adtsched schedule` arguments
    expect: dict      # what the output check needs
    group: str = "tight"


def inputs_digest(inputs) -> str:
    h = hashlib.sha256()
    for item in inputs:
        h.update(item.key.encode())
        h.update(b"\0")
        h.update(item.text.encode())
        h.update(b"\0")
        h.update(" ".join(item.flags).encode())
        h.update(b"\1")
    return h.hexdigest()


def gcd_all(values) -> int:
    unit = 0
    for value in values:
        unit = gcd(unit, value)
    return unit


# Failures a run may show and still pass its check, as prefixes of the
# failure's status: the known OR-enumeration crash on some random trees (an
# exception of this type raised in this file and function of the program),
# and wrong answers on outcomes where a NODEF countermeasure failed (see
# ``reference.NODEF_DEFECT``).  Both count as failed analyses and are
# listed by tree seed, never filtered out.
KNOWN_FAILURES = {
    "random_corpus": (
        "AttributeError adtsched/preprocess.py enumerate_or_variants:",
        "output check: known NODEF defect: ",
    ),
}


# long_durations

BUNDLED = ("gain-admin", "iot-dev", "forestall", "treasure")

# Per-tree scale of the scaled copy.  gain-admin grows by a quarter (about
# 20,000 unit steps); the three smaller trees are brought to between 6,000
# and 12,500 units, which makes each of them cost about as much as the others,
# so a cycle's median analysis is one of them whatever the seed.
BASE_SCALE = {"gain-admin": 1.25, "iot-dev": 6, "forestall": 75,
              "treasure": 65}

# (slots, agents) of the best variant of each feasible case, and the number
# of "attack impossible" cases where it is pinned; taken from the
# hand-written acceptance figures for the bundled trees.
PINNED = {
    "gain-admin": {"feasible": [(2942, 1), (4320, 1), (5762, 1)],
                   "impossible": 0},
    "forestall": {"feasible": [(43, 1), (54, 1), (55, 1)], "impossible": 0},
    "iot-dev": {"feasible": [(694, 2)], "impossible": None},
    "treasure": {"feasible": [(125, 2)], "impossible": 1},
}

_ATTACK_TIME = re.compile(r"^(\s*[A-Za-z_][A-Za-z0-9_']*\s*:\s*ATTACK\b.*?"
                          r"\btime=)(\d+)\b", re.MULTILINE)


def scale_attack_leaves(text: str, rng: random.Random, scale: float) -> str:
    """Give every timed attack leaf its own seeded factor in [0.9, 1.1],
    then rescale all factors so that the sum of attack durations is
    ``scale`` times the original.  The seed moves durations between leaves
    (and with them critical paths and OR choices) while the amount of unit
    expansion stays the same for every seed.  Gates and defence leaves keep
    their durations, and the longest leaf is lengthened by one unit when
    all durations would share a factor, so the gcd time unit the program
    divides by stays 1 and does not absorb the scaling."""
    matches = list(_ATTACK_TIME.finditer(text))
    raw = [int(m.group(2)) for m in matches]
    weights = [d * rng.uniform(0.9, 1.1) for d in raw]
    norm = scale * sum(raw) / sum(weights)
    scaled = [max(1, round(w * norm)) for w in weights]
    others = [int(x) for x in
              re.findall(r"\btime=(\d+)", _ATTACK_TIME.sub("", text))]
    if gcd_all(scaled + others) > 1:
        scaled[scaled.index(max(scaled))] += 1
    out, pos = [], 0
    for m, d in zip(matches, scaled):
        out.append(text[pos:m.start(2)])
        out.append(str(d))
        pos = m.end(2)
    out.append(text[pos:])
    return "".join(out)


def long_durations(seed: int) -> list:
    rng = random.Random("long_durations:%d" % seed)
    out = []
    for name in BUNDLED:
        text = (TREES_DIR / (name + ".adt")).read_text()
        out.append(Input("%s x1" % name, text, [],
                         {"kind": "pinned", "tree": name}))
    for name in BUNDLED:
        text = (TREES_DIR / (name + ".adt")).read_text()
        scaled = scale_attack_leaves(text, rng, BASE_SCALE[name])
        out.append(Input("%s scaled" % name, scaled, [],
                         {"kind": "critical_path"}))
    return out


# outcome_fans

def _labels(rng: random.Random, count: int) -> list:
    """``count`` distinct labels with a seeded prefix; no underscores, so
    generated step names split unambiguously."""
    prefix = "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(3))
    return ["%s%d" % (prefix, i) for i in range(count)]


def or_fan(rng: random.Random, k: int) -> str:
    """AND over k two-way ORs of unit leaves: 2^k equally fast variants."""
    ors, leaves = _labels(rng, k), _labels(rng, 2 * k)
    order = list(range(k))
    rng.shuffle(order)
    lines = ["G: AND(%s)" % ", ".join(ors[i] for i in order)]
    for i in range(k):
        lines.append("%s: OR(%s, %s)" % (ors[i], leaves[2 * i],
                                         leaves[2 * i + 1]))
    for leaf in leaves:
        lines.append("%s: ATTACK time=1 cost=%d" % (leaf, rng.randint(0, 50)))
    return "\n".join(lines) + "\n"


def cand_fan(rng: random.Random, k: int) -> str:
    """AND over k CANDs of a unit attack and a unit defence: 2^k defence
    configurations that collapse to 2 cases."""
    gates, acts, defs = (_labels(rng, k), _labels(rng, k), _labels(rng, k))
    order = list(range(k))
    rng.shuffle(order)
    lines = ["G: AND(%s)" % ", ".join(gates[i] for i in order)]
    for i in range(k):
        lines.append("%s: CAND(%s, %s)" % (gates[i], acts[i], defs[i]))
    for i in range(k):
        lines.append("%s: ATTACK time=1 cost=%d" % (acts[i],
                                                    rng.randint(0, 50)))
        lines.append("%s: DEFENCE time=1" % defs[i])
    return "\n".join(lines) + "\n"


OR_FAN_K = (8, 9, 10, 11)
CAND_FAN_K = (9, 10, 11, 12)


def outcome_fans(seed: int) -> list:
    """Every cycle holds each fan size once, in a seeded order, so a run's
    mix of sizes does not depend on the seed."""
    rng = random.Random("outcome_fans:%d" % seed)
    or_ks, cand_ks = list(OR_FAN_K), list(CAND_FAN_K)
    rng.shuffle(or_ks)
    rng.shuffle(cand_ks)
    out = []
    for ko, kc in zip(or_ks, cand_ks):
        out.append(Input("or-fan k=%d" % ko, or_fan(rng, ko), ["--json"],
                         {"kind": "or_fan", "k": ko}))
        out.append(Input("cand-fan k=%d" % kc, cand_fan(rng, kc), ["--json"],
                         {"kind": "cand_fan", "k": kc}))
    return out


# wide_chains

def chain_set(rng: random.Random, n: int) -> list:
    """n chain durations in 1..200, one uniform draw from each of n equal
    strata, in a seeded order; their sum and maximum barely move between
    seeds."""
    width = 200 / n
    durations = [int(1 + width * (i + rng.random())) for i in range(n)]
    rng.shuffle(durations)
    return durations


WIDTHS = (30, 47, 63, 80)
SLACKS = (2.5, 2.08, 1.67, 1.25)  # paired with WIDTHS: wide sets, less slack


def wide_chains(seed: int) -> list:
    """Each cycle holds the widths 30..80 once at the minimal deadline and
    once relaxed, the relaxed ones with slack 2.5..1.25x; the seed moves
    each width by up to two chains and each slack by up to 0.05, and draws
    the durations.  Each tree's cost then barely depends on the seed."""
    rng = random.Random("wide_chains:%d" % seed)
    specs = [(n + rng.randint(-2, 2), None) for n in WIDTHS]
    specs += [(n + rng.randint(-2, 2), s + rng.uniform(-0.05, 0.05))
              for n, s in zip(WIDTHS, SLACKS)]
    specs = [(min(80, max(30, n)), s) for n, s in specs]
    rng.shuffle(specs)
    out = []
    for n, slack in specs:
        durations = chain_set(rng, n)
        labels = ["c%d" % j for j in range(n)]
        lines = ["W: AND(%s)" % ", ".join(labels)]
        lines += ["%s: ATTACK time=%d" % (lab, d)
                  for lab, d in zip(labels, durations)]
        text = "\n".join(lines) + "\n"
        expect = {"kind": "chains",
                  "durations": dict(zip(labels, durations))}
        if slack is None:
            out.append(Input("chains n=%d tight" % n, text, [], expect))
            continue
        slack = min(2.5, max(1.25, slack))
        override = round(max(durations) // gcd_all(durations) * slack)
        expect["slots"] = override
        out.append(Input("chains n=%d relaxed x%.2f" % (n, slack), text,
                         ["--slots-override", str(override)], expect,
                         group="relaxed"))
    return out


# random_corpus

CORPUS_TREES = 1000  # --seed n draws the trees seeded n*1000 .. n*1000+999

_ATTACK_GATES = ("AND", "OR", "SAND")
_COUNTER_GATES = ("CAND", "SCAND", "NODEF")


def random_tree(rng: random.Random, max_leaves=12, max_time=3,
                defence_prob=0.2) -> str:
    """One valid random tree as .adt text.  Draws from ``rng`` in exactly
    the order of the repository's seeded random-tree builder, so a tree
    seed names the same tree in both."""
    nodes = {}  # label -> (kind, children, duration, cost); insertion order
    counter = [0]

    def fresh(prefix="n"):
        counter[0] += 1
        return "%s%d" % (prefix, counter[0])

    def leaf(defence, max_t):
        label = fresh("d" if defence else "n")
        duration = rng.randint(0, max_t)
        cost = rng.choice((0, 0, 10, 25))
        nodes[label] = ("DEFENCE" if defence else "ATTACK", [], duration,
                        cost)
        return label

    def defence_subtree(depth):
        if depth <= 0 or rng.random() < 0.6:
            return leaf(True, max_time)
        kind = rng.choice(_ATTACK_GATES)
        kids = [defence_subtree(depth - 1) for _ in range(rng.randint(1, 2))]
        label = fresh("d")
        nodes[label] = (kind, kids, rng.randint(0, max_time), 0)
        return label

    def attack_subtree(depth, budget):
        if depth <= 0 or budget <= 1 or rng.random() < 0.3:
            return leaf(False, max_time)
        if rng.random() < defence_prob:
            kind = rng.choice(_COUNTER_GATES)
            kids = [attack_subtree(depth - 1, budget - 1),
                    defence_subtree(1)]
        else:
            kind = rng.choice(_ATTACK_GATES)
            width = rng.randint(1, min(3, budget))
            share = max(1, budget // max(width, 1))
            kids = [attack_subtree(depth - 1, share) for _ in range(width)]
        label = fresh()
        nodes[label] = (kind, kids, rng.randint(0, max_time), 0)
        return label

    root = attack_subtree(rng.randint(1, 3), max_leaves)
    if all(node[2] == 0 for node in nodes.values()):
        kind, kids, _, cost = nodes[root]
        nodes[root] = (kind, kids, max(1, max_time), cost)
    lines = []
    for label, (kind, kids, duration, cost) in nodes.items():
        if kids:
            lines.append("%s: %s(%s) time=%d cost=%d"
                         % (label, kind, ", ".join(kids), duration, cost))
        else:
            lines.append("%s: %s time=%d cost=%d"
                         % (label, kind, duration, cost))
    lines.append("root: %s" % root)
    return "\n".join(lines) + "\n"


def random_corpus(seed: int) -> list:
    out = []
    for i in range(CORPUS_TREES):
        tree_seed = seed * CORPUS_TREES + i
        text = random_tree(random.Random(tree_seed))
        out.append(Input("tree %d (tree seed %d)" % (i, tree_seed), text,
                         ["--json"], {"kind": "brute_force"}))
    return out


BUILDERS = {
    "long_durations": long_durations,
    "outcome_fans": outcome_fans,
    "wide_chains": wide_chains,
    "random_corpus": random_corpus,
}


def build(workload: str, seed: int) -> list:
    return BUILDERS[workload](seed)
