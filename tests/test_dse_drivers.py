"""Tests for the DSE search drivers, including the seeded-determinism
regression contract: identical seed + space => identical point sequence,
independent of the session's ``jobs`` setting."""

import pytest

from repro.api import Session
from repro.gpu import TITAN_XP
from repro.dse import (
    ExhaustiveDriver,
    RandomDriver,
    SuccessiveHalvingDriver,
    build_driver,
    driver_names,
    explore,
    grid,
)


@pytest.fixture(scope="module")
def space():
    return grid({"num_sm": (1, 2, 4), "mac_bw": (1, 2, 4),
                 "dram_bw": (1, 1.5, 2), "cta_tile": (128, 256)},
                network="alexnet", batch=32)


class TestExhaustiveDriver:
    def test_covers_every_point_in_order(self, space):
        planned = ExhaustiveDriver().plan(space)
        assert planned.tolist() == list(range(len(space)))

    def test_limit_caps_the_plan(self, space):
        assert len(ExhaustiveDriver(limit=5).plan(space)) == 5


class TestRandomDriver:
    def test_budget_respected(self, space):
        assert len(RandomDriver(budget=7, seed=0).plan(space)) == 7

    def test_budget_above_space_returns_all(self, space):
        assert len(RandomDriver(budget=10_000, seed=0).plan(space)) == len(space)

    def test_sampling_without_replacement(self, space):
        planned = RandomDriver(budget=20, seed=5).plan(space)
        first, _ = space.table().take(planned).content_index()
        assert len(first) == len(planned)

    def test_identical_seed_enumerates_identical_points(self, space):
        """Satellite regression: seed + space fully determine the sequence."""
        for seed in (0, 1, 1234):
            first = RandomDriver(budget=12, seed=seed).plan(space)
            second = RandomDriver(budget=12, seed=seed).plan(space)
            assert first.tolist() == second.tolist()

    def test_different_seeds_differ(self, space):
        a = RandomDriver(budget=12, seed=0).plan(space)
        b = RandomDriver(budget=12, seed=99).plan(space)
        assert a.tolist() != b.tolist()

    def test_selection_independent_of_jobs(self, space):
        """The same seeded sweep evaluates the same points (with identical
        metrics) whether the session fans out over 1 or 3 workers."""
        driver = RandomDriver(budget=10, seed=21)
        with Session(jobs=1) as serial, Session(jobs=3) as parallel:
            a = explore(space, driver=driver, session=serial)
            b = explore(space, driver=driver, session=parallel)
        assert [r.key for r in a.results] == [r.key for r in b.results]
        for ra, rb in zip(a.results, b.results):
            assert ra.metrics == rb.metrics
        assert a.frontier == b.frontier

    def test_non_positive_budget_rejected(self):
        with pytest.raises(ValueError):
            RandomDriver(budget=0)


class TestSuccessiveHalvingDriver:
    def test_pool_shrinks_to_budget(self, space):
        driver = SuccessiveHalvingDriver(budget=4, eta=4, rungs=2, seed=0)
        result = explore(space, driver=driver, base_gpu=TITAN_XP)
        assert len(result.results) == 4
        assert result.stats.proxy_evaluations > 0
        # full evaluations: 4 survivors + 1 workload baseline.
        assert result.stats.evaluated <= 5

    def test_survivors_are_good_designs(self, space):
        """Cheap-first refinement keeps high-throughput candidates: every
        survivor must beat the space's median exhaustive throughput."""
        exhaustive = explore(space, driver=ExhaustiveDriver(),
                             objectives=("throughput",))
        throughputs = sorted(
            float(r.metrics["throughput_tflops"]) for r in exhaustive.results)
        median = throughputs[len(throughputs) // 2]
        adaptive = explore(
            space, driver=SuccessiveHalvingDriver(budget=4, seed=0),
            objectives=("throughput",))
        for result in adaptive.results:
            assert float(result.metrics["throughput_tflops"]) >= median

    def test_deterministic_across_runs(self, space):
        driver = SuccessiveHalvingDriver(budget=4, seed=7)
        a = explore(space, driver=driver)
        b = explore(space, driver=driver)
        assert [r.key for r in a.results] == [r.key for r in b.results]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SuccessiveHalvingDriver(budget=0)
        with pytest.raises(ValueError):
            SuccessiveHalvingDriver(budget=4, eta=1)
        with pytest.raises(ValueError):
            SuccessiveHalvingDriver(budget=4, rungs=0)


class TestBuildDriver:
    def test_names(self):
        assert driver_names() == ("grid", "random", "halving")

    def test_grid_variants(self):
        assert isinstance(build_driver("grid"), ExhaustiveDriver)
        assert build_driver("exhaustive", budget=3).limit == 3

    def test_random_requires_budget(self):
        with pytest.raises(ValueError, match="budget"):
            build_driver("random")
        driver = build_driver("random", budget=5, seed=9)
        assert isinstance(driver, RandomDriver)
        assert (driver.budget, driver.seed) == (5, 9)

    def test_halving_requires_budget(self):
        with pytest.raises(ValueError, match="budget"):
            build_driver("halving")
        assert isinstance(build_driver("halving", budget=4),
                          SuccessiveHalvingDriver)

    def test_unknown_driver(self):
        with pytest.raises(ValueError, match="unknown driver"):
            build_driver("simulated-annealing")
