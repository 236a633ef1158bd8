"""Seeded inputs for the benchmark: machine-DSL specs and macs_serve frames.

Everything here is a pure function of the seed, so the same seed gives the
same specs and the same frames on every run and every machine.  The program
under test only ever sees the strings produced here.
"""

import functools
import json
import random

# Stock presets on which the bound oracle holds.  `broken-hierarchy` is
# the fixture that must fail it, and `dual-lsu` fails it the same way
# (a second load/store pipe puts MAC above MACS).
PRESETS = ["c240", "ideal", "no-bubbles", "no-refresh"]

# The machine properties simulator speed depends on.  Short vector
# lengths cut strips the fast path cannot leap; few banks and long bank
# busy times force cycle stepping on conflicts; the rest change chime
# structure, refresh phase and scalar issue.  Values on which the bound
# oracle reports violations are left out, since every operation of a
# workload must succeed: vl <= 8 (eq. 18 breaks), pipes.ld=2, pair=1/1
# and scalar=4/3 (see perfbench/README.md).
KNOBS = {
    "vl": ["16", "32", "64", "96"],
    "banks": ["4", "8", "16", "64"],
    "busy": ["2", "4", "12", "16"],
    "refresh": ["none", "4/200", "16/400", "8/800"],
    "pipes.add": ["2"],
    "pipes.mul": ["2"],
    "pair": ["2/2", "3/1"],
    "scalar": ["2/1", "1/2"],
}

KERNELS = list(range(1, 13))
SCALAR_KERNELS = {5, 11}
VECTOR_KERNELS = [k for k in KERNELS if k not in SCALAR_KERNELS]

# Fault plans that slow a simulation without stalling it out.
FAULTS = ["seed=3; jitter=12", "seed=42; degrade-bank=0*8; jitter=12"]

# A simulated-cycle allowance below the cost of any Livermore kernel, so a
# frame carrying it degrades every item to the estimate tier.
DEGRADE_BUDGET = 50


def machine_pool(seed):
    """The presets, then specs of two clauses each on a preset base, in
    seeded order.  Stratified: every knob value appears in exactly two
    specs, so pools of different seeds cost about the same to simulate."""
    rng = random.Random(f"specs:{seed}")
    clauses = [(k, v) for k in sorted(KNOBS) for v in KNOBS[k]]
    bases = (PRESETS * len(clauses))[:len(clauses)]
    rng.shuffle(bases)
    while True:
        slots = rng.sample(clauses * 2, 2 * len(clauses))
        pairs = [sorted(slots[i:i + 2]) for i in range(0, len(slots), 2)]
        if all(a[0] != b[0] for a, b in pairs):
            break
    pool = list(PRESETS)
    for base, pair in zip(bases, pairs):
        pool.append(";".join([base] + [f"{k}={v}" for k, v in pair]))
    rng.shuffle(pool)
    return pool


# One block of BLOCK frames holds exactly this mix; only the order, the
# kernels, the machines and which items run cycle-stepped vary with the
# seed, so every stretch of the stream costs about the same.
BLOCK = 20
ITEM_OPS = ["simulate"] * 23 + ["hierarchy"] * 10 + ["advise"] * 2 + ["validate"] * 2
FRAME_SIZES = [1] * 14 + [2, 3, 4, 6, 8]  # 1 in 4 frames is a batch
CYCLE_ITEMS = 7  # about 1 in 5 items asks for "fidelity":"cycle"
# ... and one more frame per block carries DEGRADE_BUDGET (5%).


def _item(rng, op, machines):
    item = {"op": op}
    if op == "hierarchy":
        item["kernel"] = rng.choice(VECTOR_KERNELS)
    elif op != "validate":
        item["kernel"] = rng.choice(KERNELS)
    item["machine"] = rng.choice(machines)
    return item


@functools.lru_cache(maxsize=64)
def _block(seed, block, machines):
    """The block's frames as (item list, degraded) in stream order."""
    rng = random.Random(f"block:{seed}:{block}")
    items = [_item(rng, op, machines)
             for op in rng.sample(ITEM_OPS, len(ITEM_OPS))]
    for i in rng.sample(range(len(items)), CYCLE_ITEMS):
        items[i]["fidelity"] = "cycle"
    sims = [it for it in items if it["op"] == "simulate"]
    rng.choice(sims)["faults"] = rng.choice(FAULTS)
    frames = []
    for n in rng.sample(FRAME_SIZES, len(FRAME_SIZES)):
        frames.append((items[:n], False))
        items = items[n:]
    budget = [_item(rng, "simulate", machines), _item(rng, "hierarchy", machines)]
    frames.insert(rng.randrange(len(frames) + 1), (budget, True))
    return frames


def frame(seed, index, machines):
    """Frame `index` of the seed's stream: (id, request line, degraded).

    A degraded frame carries a budget that sends every item to the
    estimate tier (it holds no `validate` item, which has none)."""
    items, degraded = _block(seed, index // BLOCK, tuple(machines))[index % BLOCK]
    fid = f"s{seed}-f{index}"
    body = {"id": fid}
    if degraded:
        body["budget_cycles"] = DEGRADE_BUDGET
    if len(items) == 1:
        body.update(items[0])
    else:
        body["batch"] = items
    return fid, json.dumps(body, separators=(",", ":")), degraded
