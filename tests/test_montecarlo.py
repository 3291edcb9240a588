import concurrent.futures
import hashlib
import math
import struct

import pytest

import sc2combat.engine as engine
import sc2combat.montecarlo as montecarlo
from sc2combat import (
    ExperimentSpec,
    MatchupSpec,
    ModelId,
    StalemateError,
    UnitCatalog,
    Winner,
    find_matchup,
    run_experiment,
    run_experiments,
    sample_outcomes,
    trial_rng,
    trial_seed,
)

from conftest import make_unit, three_sigma


def tiny_catalog():
    return UnitCatalog([
        make_unit("fast", health=10, dps=10.0),
        make_unit("slow", health=10, dps=5.0),
        make_unit("inert", health=10, dps=0.0),
    ])


def matchup(army1, army2):
    return MatchupSpec(army1=tuple(army1), army2=tuple(army2))


class TestTrialStreams:
    def test_seed_derivation_is_keyed(self):
        assert trial_seed(1, 0) == trial_seed(1, 0)
        assert trial_seed(1, 0) != trial_seed(1, 1)
        assert trial_seed(1, 0) != trial_seed(2, 0)

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1, -1])
    @pytest.mark.parametrize("chunk", [0, 1, 2**64 - 1])
    def test_seed_is_blake2b_128_of_packed_pair(self, seed, chunk):
        # the definition every stream, golden digest and pinned row rests on;
        # -1 aliases 2**64 - 1 through the 64-bit mask
        mask = 2**64 - 1
        packed = struct.pack("<QQ", seed & mask, chunk & mask)
        digest = hashlib.blake2b(packed, digest_size=16).digest()
        assert trial_seed(seed, chunk) == int.from_bytes(digest, "little")

    def test_negative_master_seed_accepted(self):
        assert trial_seed(-7, 3) == trial_seed(-7, 3)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_spec_rejects_seed_outside_64_bits(self, seed):
        # trial_seed masks to 64 bits, so -1 would alias 2**64 - 1
        with pytest.raises(ValueError):
            ExperimentSpec(matchup=matchup([("fast", 1)], [("slow", 1)]),
                           model=ModelId.APX1, master_seed=seed)
        ExperimentSpec(matchup=matchup([("fast", 1)], [("slow", 1)]),
                       model=ModelId.APX1, master_seed=seed % 2**64)


class TestChunkStreams:
    def test_chunk_stream_serves_its_trials_in_order(self):
        a = engine.ArmyState([(tiny_catalog()["fast"], 2)])
        b = engine.ArmyState([(tiny_catalog()["slow"], 3)])
        expected = {}
        for index in range(130):
            if index % montecarlo.CHUNK == 0:
                rng = trial_rng(13, index // montecarlo.CHUNK)
            a.counts[:], b.counts[:] = a.initial_counts, b.initial_counts
            outcome = engine.run_trial(a, b, ModelId.APX1, rng)
            key = (outcome.winner, outcome.survivors1, outcome.survivors2)
            expected[key] = expected.get(key, 0) + 1
        spec = ExperimentSpec(matchup=matchup([("fast", 2)], [("slow", 3)]),
                              model=ModelId.APX1, trials=130, master_seed=13)
        assert sample_outcomes(spec, tiny_catalog()) == expected

    @pytest.mark.parametrize("start", [1, 63, 65])
    def test_block_start_off_a_chunk_boundary_rejected(self, start):
        cat = tiny_catalog()
        with pytest.raises(ValueError, match="chunk boundary"):
            montecarlo._count_outcomes([(cat["fast"], 1)], [(cat["slow"], 1)],
                                       ModelId.APX1, 0, start, 200)


class TestRunExperiment:
    def test_forced_draw_splits_evenly(self):
        spec = ExperimentSpec(matchup=matchup([("fast", 1)], [("fast", 1)]),
                              model=ModelId.APX1, trials=1000, master_seed=5)
        result = run_experiment(spec, tiny_catalog())
        assert result.draw == 1.0
        assert result.reported_win1 == 0.5
        assert result.reported_win2 == 0.5
        assert result.mean_survivors1 is None and result.mean_survivors2 is None

    def test_half_win_half_draw(self):
        spec = ExperimentSpec(matchup=matchup([("fast", 1)], [("slow", 1)]),
                              model=ModelId.APX1, trials=10_000, master_seed=11)
        result = run_experiment(spec, tiny_catalog())
        assert result.win2_count == 0
        assert abs(result.win1 - 0.5) <= three_sigma(0.5, spec.trials)
        assert abs(result.draw - 0.5) <= three_sigma(0.5, spec.trials)

    def test_parallel_matches_serial(self):
        spec = ExperimentSpec(matchup=matchup([("fast", 2)], [("slow", 3)]),
                              model=ModelId.APX2, trials=200, master_seed=29)
        serial = run_experiment(spec, tiny_catalog(), n_jobs=1)
        parallel = run_experiment(spec, tiny_catalog(), n_jobs=3)
        assert serial == parallel
        # a repeated spec, a 1-trial spec, fewer trials than workers, a stalemate
        specs = [spec,
                 spec._replace(trials=1),
                 spec._replace(model=ModelId.APX1, trials=2, master_seed=4),
                 spec,
                 ExperimentSpec(matchup=matchup([("inert", 1)], [("inert", 1)]),
                                model=ModelId.APX1, trials=3)]
        expected = [run_experiment(s, tiny_catalog()) for s in specs]
        for n_jobs in (1, 2, 3):
            assert run_experiments(specs, tiny_catalog(), n_jobs=n_jobs) == expected

    @pytest.mark.parametrize("n_jobs", [0, -3])
    def test_jobs_below_one_rejected(self, n_jobs):
        spec = ExperimentSpec(matchup=matchup([("fast", 1)], [("slow", 1)]),
                              model=ModelId.APX1, trials=10)
        with pytest.raises(ValueError, match="n_jobs"):
            run_experiment(spec, tiny_catalog(), n_jobs=n_jobs)
        with pytest.raises(ValueError, match="n_jobs"):
            run_experiments([], tiny_catalog(), n_jobs=n_jobs)

    def test_different_seeds_agree_within_six_sigma(self):
        results = []
        for seed in (101, 202):
            spec = ExperimentSpec(matchup=matchup([("fast", 1)], [("slow", 1)]),
                                  model=ModelId.APX1, trials=10_000, master_seed=seed)
            results.append(run_experiment(spec, tiny_catalog()).win1)
        sigma = math.sqrt(0.5 * 0.5 / 10_000)
        assert abs(results[0] - results[1]) <= 6 * sigma

    def test_stalemates_counted_not_fatal(self):
        spec = ExperimentSpec(matchup=matchup([("inert", 1)], [("inert", 1)]),
                              model=ModelId.APX1, trials=3, master_seed=0)
        result = run_experiment(spec, tiny_catalog())
        assert result.stalemate_count == 3
        assert result.draw == 1.0

    def test_slow_battle_ends_as_the_oracle_says(self):
        # a 0.01-DPS unit against a 0-DPS one of equal health: the oracle gives
        # win1 = 1; playing every idle round hit the round cap in 11% of trials
        cat = UnitCatalog([make_unit("weak", health=50, dps=0.01),
                           make_unit("idle", health=50, dps=0.0)])
        spec = ExperimentSpec(matchup=matchup([("weak", 1)], [("idle", 1)]),
                              model=ModelId.APX1, trials=200, master_seed=1)
        result = run_experiment(spec, cat)
        assert result.win1 == 1.0 and result.stalemate_count == 0

    def test_conditional_survivors(self):
        # fast pair vs one slow: army1 always wins with 1 or 2 survivors
        cat = UnitCatalog([make_unit("pair", health=5, dps=10.0),
                           make_unit("lone", health=20, dps=4.0)])
        spec = ExperimentSpec(matchup=matchup([("pair", 2)], [("lone", 1)]),
                              model=ModelId.APX1, trials=2000, master_seed=1)
        result = run_experiment(spec, cat)
        assert result.win1 == 1.0
        assert result.mean_survivors2 is None
        mean = result.mean_survivors1[0]
        assert abs(mean - 1.2) <= 3 * math.sqrt(0.16 / spec.trials)

    def test_trials_start_from_initial_counts(self, monkeypatch):
        starts = []
        original = montecarlo.run_trial

        def recording(army1, army2, model, rng):
            starts.append((army1, army2, tuple(army1.counts), tuple(army2.counts)))
            return original(army1, army2, model, rng)

        monkeypatch.setattr(montecarlo, "run_trial", recording)
        spec = ExperimentSpec(matchup=matchup([("fast", 2)], [("slow", 3)]),
                              model=ModelId.APX1, trials=20, master_seed=3)
        run_experiment(spec, tiny_catalog())
        assert len(starts) == 20
        assert {(c1, c2) for _, _, c1, c2 in starts} == {((2,), (3,))}
        # one pair of states serves the whole block
        assert len({(id(a1), id(a2)) for a1, a2, _, _ in starts}) == 1

    def test_every_trial_runs_through_the_module_global(self, monkeypatch):
        # the seam a wrapper on montecarlo.run_trial relies on: it sees every
        # trial of every block, and a wrapper that changes nothing changes
        # no result
        spec = ExperimentSpec(matchup=matchup([("fast", 2)], [("slow", 3)]),
                              model=ModelId.APX4, trials=130, master_seed=3)
        expected = run_experiment(spec, tiny_catalog())
        calls = []
        original = montecarlo.run_trial

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(montecarlo, "run_trial", counting)
        assert run_experiment(spec, tiny_catalog()) == expected
        assert len(calls) == 130

    def test_full_pool_cache_changes_no_result(self, catalog, monkeypatch):
        spec = ExperimentSpec(find_matchup(2, "PvZ"), ModelId.APX4, 200, 5)
        uncapped = run_experiment(spec, catalog)
        sizes = []
        original = engine.ArmyState._round_pools

        def recording(self, defender, model):
            pools = original(self, defender, model)
            sizes.append(len(pools))
            return pools

        monkeypatch.setattr(engine, "_POOL_CACHE_ENTRIES", 3)
        monkeypatch.setattr(engine.ArmyState, "_round_pools", recording)
        assert run_experiment(spec, catalog) == uncapped
        assert max(sizes) == 3  # the block filled its cache

    def test_specs_share_no_round_pools(self, catalog):
        specs = [ExperimentSpec(find_matchup(1, "PvT"), model, 300, 9) for model in ModelId]
        assert run_experiments(specs, catalog) == [run_experiment(s, catalog) for s in specs]

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            ExperimentSpec(matchup=matchup([("fast", 1)], [("slow", 1)]),
                           model=ModelId.APX1, trials=0)


class InlinePool:
    """Records each pool's size and runs every task in this process."""

    started: list = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


class TestSettingsValidation:
    @pytest.mark.parametrize("field, value", [
        ("trials", True), ("trials", 2.5), ("master_seed", False), ("master_seed", 1.5),
    ])
    def test_non_integer_spec_settings_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an int"):
            ExperimentSpec(matchup=matchup([("fast", 1)], [("slow", 1)]), model=ModelId.APX1,
                           **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("model", "apx4"), ("model", 4), ("matchup", ((("fast", 1),), (("slow", 1),))),
    ])
    def test_wrong_typed_spec_rejected(self, field, value):
        # caught at construction, not as an AttributeError deep in the engine
        fields = dict(matchup=find_matchup(1, "PvT"), model=ModelId.APX4, trials=10)
        with pytest.raises(ValueError, match=f"{field} must be a"):
            ExperimentSpec(**{**fields, field: value})

    @pytest.mark.parametrize("n_jobs", [True, 1.5])
    def test_non_integer_n_jobs_rejected(self, n_jobs):
        spec = ExperimentSpec(matchup=matchup([("fast", 1)], [("slow", 1)]), model=ModelId.APX1)
        with pytest.raises(ValueError, match="n_jobs must be an int"):
            run_experiments([spec], tiny_catalog(), n_jobs=n_jobs)


class TestWorkerPool:
    @pytest.fixture
    def started(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(InlinePool, "started", [])
        return InlinePool.started

    @pytest.mark.parametrize("n_jobs, cpus, workers", [
        (5000, 4, 4),  # capped by the CPUs
        (5000, 64, 30),  # capped by the blocks: 2 specs x 15 one-chunk blocks
        (2, 64, 2),
        (3, None, 1),  # CPU count unknown: one worker, so no pool
    ])
    def test_workers_capped(self, monkeypatch, started, n_jobs, cpus, workers):
        # the fallback where os has no sched_getaffinity, as on macOS or Windows
        monkeypatch.delattr(montecarlo.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
        specs = [ExperimentSpec(matchup=matchup([("fast", 2)], [("slow", 3)]),
                                model=model, trials=15 * montecarlo.CHUNK, master_seed=8)
                 for model in (ModelId.APX1, ModelId.APX4)]
        serial = run_experiments(specs, tiny_catalog())
        assert run_experiments(specs, tiny_catalog(), n_jobs=n_jobs) == serial
        assert started == ([workers] if workers > 1 else [])

    def test_workers_capped_by_affinity(self, monkeypatch, started):
        # a taskset or cpuset pin leaves 3 of the machine's 64 CPUs usable
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 64)
        spec = ExperimentSpec(matchup=matchup([("fast", 2)], [("slow", 3)]),
                              model=ModelId.APX4, trials=15 * montecarlo.CHUNK, master_seed=8)
        serial = run_experiment(spec, tiny_catalog())
        assert run_experiment(spec, tiny_catalog(), n_jobs=5000) == serial
        assert started == [3]

    @pytest.mark.parametrize("trials", [1, 63, 64, 65, 130])
    def test_jobs_change_no_result(self, monkeypatch, started, trials):
        monkeypatch.delattr(montecarlo.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 8)
        spec = ExperimentSpec(matchup=matchup([("fast", 2)], [("slow", 3)]),
                              model=ModelId.APX4, trials=trials, master_seed=21)
        serial = run_experiment(spec, tiny_catalog())
        for n_jobs in (2, 3, 7):
            assert run_experiment(spec, tiny_catalog(), n_jobs=n_jobs) == serial
        chunks = -(-trials // montecarlo.CHUNK)
        # a pool starts only where there is more than one whole chunk to split
        assert started == ([min(n, chunks) for n in (2, 3, 7)] if chunks > 1 else [])


class TestSampleOutcomes:
    def test_matches_run_experiment_tallies(self):
        spec = ExperimentSpec(matchup=matchup([("fast", 2)], [("slow", 2)]),
                              model=ModelId.APX1, trials=400, master_seed=7)
        cat = tiny_catalog()
        outcomes = sample_outcomes(spec, cat)
        result = run_experiment(spec, cat)
        assert sum(outcomes.values()) == spec.trials
        for winner, count_attr in ((Winner.ARMY1, "win1_count"),
                                   (Winner.ARMY2, "win2_count"),
                                   (Winner.DRAW, "draw_count")):
            total = sum(c for (w, _, _), c in outcomes.items() if w is winner)
            assert total == getattr(result, count_attr)

    def test_stalemate_raises(self):
        spec = ExperimentSpec(matchup=matchup([("inert", 1)], [("inert", 1)]),
                              model=ModelId.APX1, trials=3, master_seed=0)
        with pytest.raises(StalemateError):
            sample_outcomes(spec, tiny_catalog())
