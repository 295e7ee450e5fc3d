"""Every Schedule producer pinned to fixed-seed corpora.

The per-unit DP, the brute-force oracle and the interval-space map each
turn a choice of on-runs into a Schedule. The digests below cover every
field of every schedule (u, v, x to the last bit, cost), so a change in
how any producer builds its schedules shows here.
"""

import hashlib
from collections import Counter

import numpy as np

from hullprice.pricing import solve_commitment
from hullprice.samples import (demo_instance, random_generator,
                               random_instance, random_prices)
from hullprice.ucdp import brute_force_uc, extract_schedule, run_dp


def _digest(items):
    return hashlib.sha256(repr(items).encode()).hexdigest()


def _root_kind(root):
    if root[0] == "shutdown":
        return "shutdown@0" if root[1] == 0 else "shutdown"
    return root[0]


def test_dp_schedules_are_pinned():
    rng = np.random.default_rng(11)
    schedules, kinds = [], Counter()
    for i in range(200):
        T = int(rng.integers(1, 9))
        gen = random_generator(rng, T, f"u{i}")
        _, tables = run_dp(gen, random_prices(rng, T))
        kinds[_root_kind(tables.argmin["root"])] += 1
        schedules.append(extract_schedule(gen, tables))
    # every way the DP can open a schedule is exercised
    assert min(kinds[k] for k in ("start", "never", "stay_on", "shutdown",
                                  "shutdown@0")) >= 5, kinds
    assert _digest(schedules) == \
        "071a221e78d910028267e8bd5578e1b20d33572a56d334624552c08fcd14cbcf"


def test_brute_force_schedules_are_pinned():
    rng = np.random.default_rng(12)
    schedules = []
    for i in range(30):
        T = int(rng.integers(1, 7))
        gen = random_generator(rng, T, f"u{i}")
        schedules.append(brute_force_uc(gen, random_prices(rng, T))[1])
    assert _digest(schedules) == \
        "02ec0250cb2d77adc50d6dc6e6a88ee908865fb9b680a698ec68cb99f1d57e51"


def test_commitment_schedules_are_pinned():
    rng = np.random.default_rng(13)
    systems = [demo_instance()] + [
        random_instance(rng, int(rng.integers(1, 4)), int(rng.integers(1, 6)))
        for _ in range(15)]
    schedules = [solve_commitment(inst).schedules for inst in systems]
    assert _digest(schedules) == \
        "94c84ef92d57ebd48ad1b03f77f9d6b0bb01d5e6747991b660e976ae556dbbd0"
