"""Tests for the Monte Carlo harness: generators, replication, aggregation."""

import numpy as np
import pytest

from discrete_fdr import (
    Family,
    InvalidConfigError,
    MarginalVector,
    ScenarioConfig,
    Sidedness,
    WfdrConfig,
    bh_reject,
    estimate_pi0,
    generate_binomial_scenario,
    generate_poisson_scenario,
    group_by_statistic_quantiles,
    run_study,
    weight_study,
)
from discrete_fdr.simulate import FET_TRIALS, _num_true_nulls, score_study


def poisson_cfg(**overrides):
    base = dict(
        family=Family.POISSON_BINOMIAL,
        m=200,
        pi0=0.5,
        alpha_grid=(0.05,),
        l_star_grid=(3,),
        replications=2,
        master_seed=11,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def binomial_cfg(**overrides):
    base = dict(
        family=Family.BINOMIAL_FET,
        m=200,
        pi0=0.5,
        alpha_grid=(0.05,),
        l_star_grid=(3,),
        replications=2,
        master_seed=11,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestGenerators:
    def test_poisson_means_at_least_seven(self):
        cfg = poisson_cfg(m=2000)
        rng_probe = np.random.default_rng(1)
        study = generate_poisson_scenario(cfg, rng_probe)
        # regenerate with the same stream to inspect the means directly
        rng = np.random.default_rng(1)
        mu1 = 7.0 * (1.0 + rng.pareto(7.0, cfg.m))
        assert np.all(mu1 >= 7.0)
        assert study.m == cfg.m

    def test_pure_null_poisson_has_equal_means(self):
        # with pi0 = 1 the two counts are exchangeable draws from one mean;
        # verify via the truth labels and a sanity check on the totals
        cfg = poisson_cfg(pi0=1.0, m=500)
        study = generate_poisson_scenario(cfg, 7)
        assert study.is_null.all()

    def test_same_seed_identical_poisson(self):
        cfg = poisson_cfg()
        a = generate_poisson_scenario(cfg, 123)
        b = generate_poisson_scenario(cfg, 123)
        assert np.array_equal(a.c1, b.c1) and np.array_equal(a.c2, b.c2)
        assert np.array_equal(a.is_null, b.is_null)

    def test_binomial_margins_structure(self):
        cfg = binomial_cfg()
        study = generate_binomial_scenario(cfg, 5)
        assert np.all(study.c1 <= FET_TRIALS) and np.all(study.c2 <= FET_TRIALS)
        _, _, stats = score_study(study, Sidedness.TWO_SIDED)
        totals = study.c1 + study.c2
        assert stats == [MarginalVector(FET_TRIALS, FET_TRIALS, t) for t in totals]
        # the row totals are constant, so quantile grouping bins the margins
        # on their varying table total: the float totals' partition
        for l_star in (1, 3, 5):
            by_margins = group_by_statistic_quantiles(stats, l_star).groups
            by_totals = group_by_statistic_quantiles(totals.astype(float), l_star).groups
            assert [g.tolist() for g in by_margins] == [g.tolist() for g in by_totals]

    def test_all_alternatives_use_fixed_rates(self):
        cfg = binomial_cfg(pi0=0.0, m=4000)
        study = generate_binomial_scenario(cfg, 5)
        assert not study.is_null.any()
        # empirical rates concentrate near 0.15 and 0.3
        assert study.c1.mean() / FET_TRIALS == pytest.approx(0.15, abs=0.02)
        assert study.c2.mean() / FET_TRIALS == pytest.approx(0.30, abs=0.02)

    def test_same_seed_identical_binomial(self):
        cfg = binomial_cfg()
        a = generate_binomial_scenario(cfg, 99)
        b = generate_binomial_scenario(cfg, 99)
        assert np.array_equal(a.c1, b.c1) and np.array_equal(a.c2, b.c2)

    def test_family_mismatch(self):
        with pytest.raises(InvalidConfigError):
            generate_poisson_scenario(binomial_cfg(), 1)

    def test_num_true_nulls_floor(self):
        assert _num_true_nulls(1000, 0.7) == 700
        assert _num_true_nulls(5000, 0.7) == 3500
        assert _num_true_nulls(10, 0.95) == 9
        assert _num_true_nulls(3, 0.5) == 1


class TestScoreStudy:
    def test_zero_total_maps_to_unit(self):
        cfg = poisson_cfg(m=3)
        study = generate_poisson_scenario(cfg, 2)
        study = type(study)(
            family=study.family,
            c1=np.array([0, 1, 2]),
            c2=np.array([0, 1, 3]),
            is_null=study.is_null[:3],
        )
        p, supports, stats = score_study(study, Sidedness.TWO_SIDED)
        assert p[0] == 1.0
        # {1} has no point below any guiding value, so its lambdas are all 0
        assert not supports._rows[supports.ids[0]].any()
        assert stats[0] == 0.0


def replication_values(cfg, generate):
    """Each replication's (fdp, tdp, n_rejected[, pi0*, pi0_g]) per
    (l_star, alpha, procedure) cell, in replication order, recomputed from
    the scored data of each replication seed with the one-shot procedures."""
    values = {}
    pi0_cfg = cfg.resolved_pi0_config()
    for rep in range(cfg.replications):
        study = generate(cfg, np.random.SeedSequence([cfg.master_seed, rep]))
        pvalues, supports, stats = score_study(study, Sidedness.TWO_SIDED)
        pi0_g = estimate_pi0(pvalues, supports, pi0_cfg).value
        m1 = int(np.count_nonzero(~study.is_null))
        for l_star in cfg.l_star_grid:
            wcfg = WfdrConfig(l_star=l_star, pi0=pi0_cfg)
            weighted = weight_study(pvalues, supports, stats, wcfg)
            for alpha in cfg.alpha_grid:
                for procedure, report, estimates in (
                    ("wfdr", weighted.reject(alpha), (weighted.pi0_overall, pi0_g)),
                    ("bh", bh_reject(pvalues, alpha), ()),
                ):
                    n = report.n_rejected
                    n_false = int(np.count_nonzero(study.is_null[report.rejected]))
                    values.setdefault((l_star, alpha, procedure), []).append(
                        (n_false / max(n, 1), (n - n_false) / m1, n, *estimates)
                    )
    return values


FAMILIES = [
    (poisson_cfg, generate_poisson_scenario),
    (binomial_cfg, generate_binomial_scenario),
]


class TestRunStudy:
    def test_single_replication_equals_its_values(self):
        # every cell of a one-replication study, recomputed from the scored
        # data with the one-shot procedures, for both families
        for make_cfg, generate in FAMILIES:
            cfg = make_cfg(
                replications=1, alpha_grid=(0.05, 0.1), l_star_grid=(1, 3), m=300
            )
            result = run_study(cfg)
            assert len(result.cells) == 2 * 2 * 2
            values = replication_values(cfg, generate)
            for cell in result.cells:
                [record] = values[(cell.l_star, cell.alpha, cell.procedure)]
                fdp, tdp, n, *estimates = record
                assert cell.fdr == fdp
                assert cell.power == tdp
                assert cell.mean_rejections == n
                assert cell.fdp_std == 0.0 and cell.tdp_std == 0.0
                if cell.procedure == "wfdr":
                    assert [cell.pi0_star_mean, cell.pi0_g_mean] == estimates

    @pytest.mark.parametrize(
        "make_cfg, generate", FAMILIES, ids=["poisson", "binomial"]
    )
    def test_cells_aggregate_replications_in_order(self, make_cfg, generate):
        # nine replications: numpy's pairwise sum takes its unrolled path
        # from eight values on, so a reduction over the replications that
        # differs from the 1-d one on each cell shows in the last bits
        cfg = make_cfg(
            replications=9, alpha_grid=(0.05, 0.2), l_star_grid=(1, 3), m=150
        )
        result = run_study(cfg)
        assert len(result.cells) == 2 * 2 * 2
        values = replication_values(cfg, generate)
        for cell in result.cells:
            columns = values[(cell.l_star, cell.alpha, cell.procedure)]
            fdp, tdp, n, *estimates = np.array(columns, dtype=float).T
            assert cell.fdr == np.mean(fdp)
            assert cell.power == np.mean(tdp)
            assert cell.fdp_std == np.std(fdp, ddof=1)
            assert cell.tdp_std == np.std(tdp, ddof=1)
            assert cell.mean_rejections == np.mean(n)
            if cell.procedure == "wfdr":
                pi0_star, pi0_g = estimates
                assert cell.pi0_star_mean == np.mean(pi0_star)
                assert cell.pi0_g_mean == np.mean(pi0_g)
            else:
                assert cell.pi0_star_mean is None and cell.pi0_g_mean is None

    def test_pure_null_power_zero(self):
        result = run_study(poisson_cfg(pi0=1.0, alpha_grid=(0.1,), replications=1))
        assert [c.power for c in result.cells] == [0.0, 0.0]

    def test_alpha_zero_rejects_nothing(self):
        result = run_study(binomial_cfg(alpha_grid=(0.0,), replications=1))
        for cell in result.cells:
            assert cell.mean_rejections == 0.0
            assert cell.fdr == 0.0

    def test_fdp_tdp_bounds(self):
        # one replication per cell, so fdr and power are its fdp and tdp
        cfg = binomial_cfg(m=400, alpha_grid=(0.1,), replications=1, master_seed=17)
        for cell in run_study(cfg).cells:
            assert 0.0 <= cell.fdr <= 1.0
            assert 0.0 <= cell.power <= 1.0

    def test_deterministic_across_runs_and_workers(self):
        cfg = binomial_cfg(replications=4, m=150)
        a = run_study(cfg)
        b = run_study(cfg)
        c = run_study(cfg, workers=3)
        assert a.cells == b.cells == c.cells

    def test_long_table_schema(self):
        cfg = binomial_cfg(replications=2, m=100)
        rows = run_study(cfg).long_table()
        assert {r["metric"] for r in rows if r["procedure"] == "bh"} == {
            "fdr",
            "power",
            "fdp_std",
            "tdp_std",
            "mean_rejections",
        }
        assert {r["metric"] for r in rows if r["procedure"] == "wfdr"} >= {
            "fdr",
            "power",
            "pi0_star_mean",
            "pi0_g_mean",
        }
        for row in rows:
            assert set(row) == {
                "family",
                "pi0",
                "alpha",
                "l_star",
                "procedure",
                "metric",
                "value",
            }

    def test_long_table_metric_order(self):
        rows = run_study(binomial_cfg(replications=2, m=100)).long_table()
        order = {}
        for row in rows:
            order.setdefault(row["procedure"], []).append(row["metric"])
        shared = ["fdr", "power", "fdp_std", "tdp_std", "mean_rejections"]
        assert order == {
            "wfdr": shared + ["pi0_star_mean", "pi0_g_mean"],
            "bh": shared,
        }

    def test_config_validation(self):
        with pytest.raises(InvalidConfigError):
            binomial_cfg(m=0)
        with pytest.raises(InvalidConfigError):
            binomial_cfg(pi0=1.5)
        with pytest.raises(InvalidConfigError):
            binomial_cfg(alpha_grid=())
        with pytest.raises(InvalidConfigError):
            binomial_cfg(replications=0)
        for alpha_grid in ((0.05, 0.05), (1.5,), (-0.1,), (float("nan"),)):
            with pytest.raises(InvalidConfigError, match="alpha"):
                binomial_cfg(alpha_grid=alpha_grid)
        for l_star_grid in ((3, 3), (0,), (2, -1), (2.5,), (3, 2.5)):
            with pytest.raises(InvalidConfigError, match="l_star"):
                binomial_cfg(l_star_grid=l_star_grid)
        for name, value in (("m", 10.5), ("replications", 2.5)):
            with pytest.raises(InvalidConfigError, match=f"{name} must be an integer"):
                binomial_cfg(**{name: value})

    def test_power_plateaus_in_group_count(self):
        # more groups raise the weighted procedure's power until it levels
        # off: 7 groups must not be materially worse than 3
        cfg = binomial_cfg(
            m=1000, pi0=0.5, l_star_grid=(3, 7, 10), replications=30,
            master_seed=314,
        )
        result = run_study(cfg)
        power = {
            c.l_star: c.power
            for c in result.cells
            if c.procedure == "wfdr" and c.alpha == 0.05
        }
        se = max(
            c.tdp_std / np.sqrt(cfg.replications)
            for c in result.cells
            if c.procedure == "wfdr" and c.alpha == 0.05
        )
        assert power[7] >= power[3] - se
