"""Seeded inputs for the benchmark workloads.

Cones are drawn here with the benchmark's own arithmetic, so the program
under test sees only finished generator tuples and a change to conetri's
own random-cone helper cannot change what is measured. The draw loop is
call-for-call the one `conetri random` and the acceptance campaign use, so
the same random stream yields the same cone.

Two workloads pick from pinned pools (pins.json, rebuilt by find_pins.py)
instead of drawing freely. Work per cone varies by two orders of magnitude
at equal multiplicity, so a free draw would make the time of a run depend
mostly on the seed; the pools keep every seed's run comparable while the
seed still decides which cones are run.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import gcd
from pathlib import Path

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

WORKLOADS = ("small-batch", "heavy-d4", "p2t-d5")
DEFAULT_SEED = 0

# The acceptance campaign's d=4 generator: entries in [-7, 7], multiplicity
# capped at 1500 by resampling. Index 6 is the named heavy cone (mu 1062).
CAMPAIGN_SEED = 20260819
CAMPAIGN_BOUND = 7
CAMPAIGN_CAP_D4 = 1500

# p2t-d5 pool: draw j < P2T_DRAWS uses Random(P2T_STREAM + j) once, entries
# in [-7, 7]; the draw joins the pool only when its multiplicity lies in
# P2T_MU_RANGE. A run leaves out pool cones above P2T_MAX_CONES output cones
# (the largest would each take a large share of a pass and set its time
# alone; without them a pass is short enough for four or five passes a
# run, so each input's time is a median of that many samples) and picks
# one cone from each of P2T_STRATA strata of the rest.
P2T_STREAM = 5_000_000_000
P2T_MU_RANGE = (1000, 3000)
P2T_DRAWS = 1500
P2T_MAX_CONES = 1500
P2T_STRATA = 48

# small-batch draw i alternates these (dimension, entry bound) shapes and
# resamples above SMALL_MU_CAP. The cap only bites at d=3 (about 1.5% of
# draws): those few cones make up the tail of final-cone counts, and with
# them the batch's largest input, and so its peak memory, swings with the
# seed. heavy-d4 covers large cones.
SMALL_SHAPES = ((2, 7), (3, 4))
SMALL_MU_CAP = 100
SMALL_BATCH = 3000


@dataclass(frozen=True)
class Workload:
    """One workload's inputs for one seed.

    kind is "pipeline" (run_pipeline plus the JSON report) or "p2t"
    (run_p2t plus audit_trace). expected holds the pinned output-cone count
    of each input, or None where no count is pinned.
    """

    name: str
    kind: str
    cones: tuple[tuple[tuple[int, ...], ...], ...]
    expected: tuple[int | None, ...]


def _content(v) -> int:
    g = 0
    for c in v:
        g = gcd(g, c)
    return g


def determinant(rows) -> int:
    """Bareiss fraction-free determinant of a square integer matrix."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def draw_cone(d: int, bound: int, rng: random.Random):
    """A nonsingular cone of primitive generators, entries in [-bound, bound].

    Returns (generators, multiplicity).
    """
    while True:
        gens = [[rng.randint(-bound, bound) for _ in range(d)] for _ in range(d)]
        contents = [_content(g) for g in gens]
        if 0 in contents:
            continue
        prim = tuple(tuple(c // k for c in g) for g, k in zip(gens, contents))
        mu = abs(determinant(prim))
        if mu:
            return prim, mu


def campaign_d4(index: int):
    """Draw `index` of the acceptance campaign's capped d=4 stream."""
    rng = random.Random(CAMPAIGN_SEED + 1_000_003 * 4 + index)
    while True:
        gens, mu = draw_cone(4, CAMPAIGN_BOUND, rng)
        if mu <= CAMPAIGN_CAP_D4:
            return gens, mu


def p2t_draw(j: int):
    """Draw j of the p2t-d5 stream; None when mu is outside P2T_MU_RANGE."""
    gens, mu = draw_cone(5, CAMPAIGN_BOUND, random.Random(P2T_STREAM + j))
    lo, hi = P2T_MU_RANGE
    return (gens, mu) if lo <= mu <= hi else None


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def small_batch(seed: int, count: int = SMALL_BATCH) -> Workload:
    """`count` cones, `conetri random`-style: draw i uses
    Random(seed * 1_000_003 + i) and alternates d=2 and d=3 shapes."""
    cones = []
    for i in range(count):
        d, bound = SMALL_SHAPES[i % 2]
        rng = random.Random(seed * 1_000_003 + i)
        while True:
            gens, mu = draw_cone(d, bound, rng)
            if mu <= SMALL_MU_CAP:
                break
        cones.append(gens)
    return Workload("small-batch", "pipeline", tuple(cones), (None,) * count)


def heavy_d4(seed: int, pins: dict) -> Workload:
    """One heavy d=4 campaign cone: pool entry seed mod pool size.

    Entry 0 is campaign index 6, the named heavy cone; find_pins.py states
    how the other entries were chosen.
    """
    pool = pins["heavy-d4"]["pool"]
    entry = pool[seed % len(pool)]
    gens, mu = campaign_d4(entry["index"])
    if mu != entry["mu"]:
        raise RuntimeError(f"campaign index {entry['index']} drew mu {mu}")
    return Workload("heavy-d4", "pipeline", (gens,), (entry["final"],))


def p2t_d5(seed: int, pins: dict) -> Workload:
    """One pool cone from each stratum, chosen by Random(seed).

    The pool is sorted by its pinned run time and cut into equal strata, so
    every seed runs the same mix of cheap and costly cones.
    """
    pool = sorted(
        (e for e in pins["p2t-d5"]["pool"] if e["cones"] <= P2T_MAX_CONES),
        key=lambda e: (e["seconds"], e["draw"]),
    )
    rng = random.Random(seed)
    cones, expected = [], []
    for k in range(P2T_STRATA):
        lo, hi = k * len(pool) // P2T_STRATA, (k + 1) * len(pool) // P2T_STRATA
        entry = pool[lo + rng.randrange(hi - lo)]
        drawn = p2t_draw(entry["draw"])
        if drawn is None or drawn[1] != entry["mu"]:
            raise RuntimeError(f"p2t-d5 draw {entry['draw']} does not match its pin")
        cones.append(drawn[0])
        expected.append(entry["cones"])
    return Workload("p2t-d5", "p2t", tuple(cones), tuple(expected))


def smoke(name: str) -> Workload:
    """Toy-size inputs of the same kind, for the benchmark's own tests."""
    if name == "small-batch":
        return small_batch(DEFAULT_SEED, count=6)
    if name == "heavy-d4":
        return Workload("heavy-d4", "pipeline", (campaign_d4(14)[0],), (None,))
    cone = next(c for c in map(p2t_draw, range(100)) if c is not None)
    return Workload("p2t-d5", "p2t", (cone[0],), (None,))


def build(name: str, seed: int, smoke_mode: bool = False) -> Workload:
    if smoke_mode:
        return smoke(name)
    if name == "small-batch":
        return small_batch(seed)
    pins = load_pins()
    if name == "heavy-d4":
        return heavy_d4(seed, pins)
    return p2t_d5(seed, pins)
