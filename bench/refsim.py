"""Reference sampler for the 48 grid specs, written from the model definitions.

This file shares no code with ``sc2combat``: it reads the bundled YAML data
itself and implements the four damage-pool models as the README and the
engine's module docstring define them, with its own random streams. Its
win/draw counts are the yardstick the grid and planner workloads check the
engine against.

    A round: each army turns its surviving units into a damage pool,
    computed from the start-of-round state, and spends it on randomly
    selected enemy units. A selected unit whose effective health fits in
    the remaining pool dies and shrinks the pool; otherwise it dies with
    probability pool / health and the pool is spent. Overkill is lost.

    APX1  pools of DPS x area, uniformly random targets
    APX2  + only ranged units add to the first round's pool
    APX3  + bonus DPS, scaled by the share of alive enemy units that carry
            a vulnerable attribute (ranged-only in the first round)
    APX4  + melee units are targeted before any ranged unit

A battle still undecided after 10,000 rounds is a draw.

Regenerate the stored rates, TRIALS battles a spec (about 6 minutes on 2
cores; the counts do not depend on the number of cores):

    python3 bench/refsim.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DATA_DIR = BENCH_DIR.parent / "src" / "sc2combat" / "data"
RATES_PATH = BENCH_DIR / "reference_rates.json"
MODELS = ("APX1", "APX2", "APX3", "APX4")
ROUND_CAP = 10_000
STREAM_PREFIX = "bench-refsim"
TRIALS = 40_000


# yaml and the pool are imported where used: clock.py runs the sampler in
# fresh interpreters whose start-up time is measured.


def load_units(path: Path = DATA_DIR / "units.yaml") -> dict[str, dict]:
    """Unit name -> derived stats, computed from the raw catalog fields."""
    import yaml

    units = {}
    for rec in yaml.safe_load(path.read_text(encoding="utf-8")):
        units[rec["name"]] = {
            "health": (rec["health"] + rec["shields"]) * 1.5 ** rec["armor"],
            "dps": rec["dps"] * rec["aoe_area"],
            "bonus": rec["bonus_dps"] * rec["bonus_aoe_area"],
            "ranged": bool(rec["ranged"]),
            "attributes": frozenset(a.lower() for a in rec["attributes"]),
            "bonus_vs": frozenset(a.lower() for a in rec["bonus_vs"]),
        }
    return units


def load_matchups(path: Path = DATA_DIR / "matchups.yaml") -> list[dict]:
    """The 12 builtin matchups as {round, match, army1, army2} in file order."""
    import yaml

    return [
        {"round": int(m["round"]), "match": str(m["match"]),
         "army1": list(m["army1"].items()), "army2": list(m["army2"].items())}
        for m in yaml.safe_load(path.read_text(encoding="utf-8"))
    ]


class Side:
    """Per-class stats of one army plus, per class, which enemy classes its
    bonus applies to."""

    def __init__(self, army: list[tuple[str, int]], units: dict[str, dict]):
        stats = [units[name] for name, _ in army]
        self.counts = tuple(count for _, count in army)
        self.health = [s["health"] for s in stats]
        self.dps = [s["dps"] for s in stats]
        self.bonus = [s["bonus"] for s in stats]
        self.ranged = [s["ranged"] for s in stats]
        self.attributes = [s["attributes"] for s in stats]
        self.bonus_vs = [s["bonus_vs"] for s in stats]


def _pool(att: Side, alive: list[int], enemy: Side, enemy_alive: list[int],
          model: int, first: bool) -> float:
    ranged_only = model >= 2 and first
    fires = [c > 0 and (att.ranged[i] or not ranged_only) for i, c in enumerate(alive)]
    base = 0.0
    for i, c in enumerate(alive):
        if fires[i]:
            base += c * att.dps[i]
    if model < 3:
        return base
    enemies = sum(enemy_alive)
    extra = 0.0
    for i, c in enumerate(alive):
        if not fires[i] or att.bonus[i] == 0.0:
            continue
        vulnerable = sum(n for j, n in enumerate(enemy_alive)
                         if n and att.bonus_vs[i] & enemy.attributes[j])
        if vulnerable:
            extra += c * att.bonus[i] * (vulnerable / enemies)
    return base + extra


def _spend(pool: float, target: Side, alive: list[int], melee_first: bool,
           rng: random.Random) -> None:
    while pool > 0:
        classes = [i for i, n in enumerate(alive) if n]
        if not classes:
            return
        if melee_first:
            melee = [i for i in classes if not target.ranged[i]]
            classes = melee or classes
        pick = rng.randrange(sum(alive[i] for i in classes))
        for i in classes:
            if pick < alive[i]:
                break
            pick -= alive[i]
        health = target.health[i]
        if pool >= health:
            alive[i] -= 1
            pool -= health
        else:
            if rng.random() * health < pool:
                alive[i] -= 1
            return


def battle(side1: Side, side2: Side, model: int, rng: random.Random) -> tuple:
    """One battle: ("army1" | "army2" | "draw", survivors1, survivors2)."""
    alive1 = list(side1.counts)
    alive2 = list(side2.counts)
    for rnd in range(ROUND_CAP):
        first = rnd == 0
        pool1 = _pool(side1, alive1, side2, alive2, model, first)
        pool2 = _pool(side2, alive2, side1, alive1, model, first)
        _spend(pool1, side2, alive2, model >= 4, rng)
        _spend(pool2, side1, alive1, model >= 4, rng)
        left1, left2 = any(alive1), any(alive2)
        if not left1 or not left2:
            winner = "army1" if left1 else "army2" if left2 else "draw"
            return winner, tuple(alive1), tuple(alive2)
    return "draw", tuple(alive1), tuple(alive2)


def sample_counts(army1, army2, model: int, trials: int, stream: str) -> dict[str, int]:
    """Win/draw counts of ``trials`` battles drawn from one named stream."""
    units = load_units()
    side1, side2 = Side(army1, units), Side(army2, units)
    rng = random.Random(stream)
    counts = {"army1": 0, "army2": 0, "draw": 0}
    for _ in range(trials):
        counts[battle(side1, side2, model, rng)[0]] += 1
    return counts


def _spec_task(task: tuple) -> dict:
    rnd, match, army1, army2, model, trials = task
    stream = f"{STREAM_PREFIX}/{rnd}/{match}/{model}"
    counts = sample_counts(army1, army2, MODELS.index(model) + 1, trials, stream)
    return {"round": rnd, "match": match, "model": model, "trials": trials,
            "win1": counts["army1"], "win2": counts["army2"], "draw": counts["draw"]}


def regenerate() -> dict:
    """Each spec draws from its own named stream, so the pool's size changes
    only the speed."""
    import multiprocessing

    tasks = [(m["round"], m["match"], m["army1"], m["army2"], model, TRIALS)
             for m in load_matchups() for model in MODELS]
    with multiprocessing.get_context("spawn").Pool() as pool:
        specs = pool.map(_spec_task, tasks, chunksize=1)
    return {"generator": "bench/refsim.py", "stream_prefix": STREAM_PREFIX,
            "trials_per_spec": TRIALS, "specs": specs}


def load_rates(path: Path = RATES_PATH) -> dict[tuple[int, str, str], dict]:
    """(round, match, model) -> stored counts."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    return {(s["round"], s["match"], s["model"]): s for s in doc["specs"]}


def main() -> None:
    RATES_PATH.write_text(json.dumps(regenerate(), indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
