"""The probe-first agent search against the bisection it replaced.

At the minimal deadline and with a slots override, both must return the
same agent count and leave the same (agent, slot) on every node.
"""

import math
import random

from adtsched import compute_bounds, preprocess, unit_dag
from adtsched.preprocess import copy_dag
from adtsched.scheduler import _min_agents

from conftest import TREES, load_tree
from rand_trees import chains_adt, random_adt
import reference_bisection


def searches(dag, slots):
    """``(new, old, first probe fits)``: the count and cells each search
    leaves on its own copy of ``dag``."""
    twin = copy_dag(dag)
    bounds = compute_bounds(dag, slots)
    agents = _min_agents(dag, bounds)
    old = reference_bisection._min_agents(twin, compute_bounds(twin, slots))
    new = (agents, [(x.agent, x.slot) for x in unit_dag(dag).nodes])
    ref = (old, [(x.agent, x.slot) for x in unit_dag(twin).nodes])
    return new, ref, agents == bounds.lower + 1


def compare(adts):
    """Disagreements over every schedulable variant of ``adts``, at the
    minimal deadline and at two slots more, and how many searches ran past
    a failed first probe."""
    found, bisected = [], 0
    for adt in adts:
        for variant in preprocess(adt):
            if not variant.feasible or variant.dag.n == 0:
                continue
            least = compute_bounds(variant.dag).slots
            for slots in (None, least + 2):
                new, old, first_fits = searches(variant.dag, slots)
                if new != old:
                    found.append((variant.or_choices, slots))
                bisected += not first_fits
    return found, bisected


def test_bundled_trees_search_as_before():
    adts = [load_tree(path.stem) for path in sorted(TREES.glob("*.adt"))]
    assert compare(adts)[0] == []


def test_random_trees_search_as_before():
    adts = [random_adt(random.Random(seed), max_leaves=12, max_time=3,
                       defence_prob=0.2) for seed in range(1000)]
    found, bisected = compare(adts)
    assert found == []
    assert bisected > 0  # the bisection after the first probe is exercised


def test_independent_chains_search_as_before():
    # the chain sets of test_relaxed_chains_need_mcnaughton_agents
    rng = random.Random(11)
    for width in (6, 17, 30, 45):
        durations = [1] + [rng.randint(1, 40) for _ in range(width - 1)]
        slots = math.ceil(max(durations) * rng.uniform(1.25, 2.5))
        variant, = preprocess(chains_adt(durations))
        for override in (None, slots):
            new, old, _ = searches(variant.dag, override)
            assert new == old, (width, override)
