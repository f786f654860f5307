"""Monte Carlo harness for power and FDR studies on discrete tests.

Two data-generating scenarios are supported: pairs of Poisson counts tested
with the binomial test, and pairs of binomial counts tested with Fisher's
exact test on the induced 2x2 table.  A study runs many independent
replications of generate-test-reject, records the false and true discovery
proportions of each procedure, and aggregates them into a long-format table.

Replication seeds are derived from the master seed by counter, so results
are bit-identical however the replications are scheduled; replications can
run on worker processes (``DISCRETE_FDR_WORKERS`` sets the default count).
"""

from __future__ import annotations

import enum
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import InvalidConfigError
from .exact_tests import Sidedness
from .io import score_input
from .proportion import BINOMIAL_PI0_CONFIG, FET_PI0_CONFIG, Pi0Config, estimate_pi0
from .wfdr import WfdrConfig, bh_reject, weight_study

WORKERS_ENV_VAR = "DISCRETE_FDR_WORKERS"

FET_TRIALS = 50  # number of trials of each binomial count in the FET scenario


class Family(enum.Enum):
    """Data-generating scenario (and the exact test it is analysed with)."""

    POISSON_BINOMIAL = "poisson"  # Poisson pairs, binomial test
    BINOMIAL_FET = "binomial"  # binomial pairs, Fisher's exact test


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation scenario: a single null proportion, full design grids."""

    family: Family
    m: int
    pi0: float
    alpha_grid: tuple[float, ...]
    l_star_grid: tuple[int, ...]
    replications: int
    master_seed: int
    sided: Sidedness = Sidedness.TWO_SIDED
    pi0_config: Pi0Config | None = None

    def __post_init__(self):
        if self.m < 1:
            raise InvalidConfigError(f"m must be >= 1, got {self.m}")
        if not 0.0 <= self.pi0 <= 1.0:
            raise InvalidConfigError(f"pi0 must be in [0, 1], got {self.pi0}")
        if not self.alpha_grid or not self.l_star_grid:
            raise InvalidConfigError("alpha and l_star grids must be nonempty")
        if self.replications < 1:
            raise InvalidConfigError("replications must be >= 1")

    def resolved_pi0_config(self) -> Pi0Config:
        if self.pi0_config is not None:
            return self.pi0_config
        if self.family is Family.POISSON_BINOMIAL:
            return BINOMIAL_PI0_CONFIG
        return FET_PI0_CONFIG


@dataclass(frozen=True)
class SimulatedStudy:
    """Generated counts plus the truth labels of each hypothesis."""

    family: Family
    c1: np.ndarray
    c2: np.ndarray
    is_null: np.ndarray

    @property
    def m(self) -> int:
        return int(self.c1.size)


@dataclass(frozen=True)
class ReplicationStats:
    """Discovery proportions of one procedure in one replication."""

    procedure: str
    fdp: float
    tdp: float
    n_rejected: int
    pi0_g: float | None = None
    pi0_star: float | None = None


def _num_true_nulls(m: int, pi0: float) -> int:
    # integer part of m * pi0, guarded against float artifacts like
    # 1000 * 0.7 == 699.9999...
    return int(np.floor(m * pi0 + 1e-9))


def generate_poisson_scenario(cfg: ScenarioConfig, seed) -> SimulatedStudy:
    """Poisson pairs: means from Pareto(scale 7, shape 7), alternatives scaled.

    The first floor(m * pi0) hypotheses are true nulls with equal means; each
    alternative's second mean is the first times a Uniform(1.5, 5) factor.
    """
    if cfg.family is not Family.POISSON_BINOMIAL:
        raise InvalidConfigError("config is not a Poisson scenario")
    rng = np.random.default_rng(seed)
    m0 = _num_true_nulls(cfg.m, cfg.pi0)
    mu1 = 7.0 * (1.0 + rng.pareto(7.0, cfg.m))
    mu2 = mu1.copy()
    rho = rng.uniform(1.5, 5.0, cfg.m - m0)
    mu2[m0:] = rho * mu1[m0:]
    c1 = rng.poisson(mu1)
    c2 = rng.poisson(mu2)
    is_null = np.zeros(cfg.m, dtype=bool)
    is_null[:m0] = True
    return SimulatedStudy(family=cfg.family, c1=c1, c2=c2, is_null=is_null)


def generate_binomial_scenario(cfg: ScenarioConfig, seed) -> SimulatedStudy:
    """Binomial pairs with 50 trials: null rates Uniform(0.02, 0.15), equal
    across the pair; alternatives fixed at (0.15, 0.3)."""
    if cfg.family is not Family.BINOMIAL_FET:
        raise InvalidConfigError("config is not a binomial scenario")
    rng = np.random.default_rng(seed)
    m0 = _num_true_nulls(cfg.m, cfg.pi0)
    q1 = np.full(cfg.m, 0.15)
    q2 = np.full(cfg.m, 0.3)
    q1[:m0] = rng.uniform(0.02, 0.15, m0)
    q2[:m0] = q1[:m0]
    c1 = rng.binomial(FET_TRIALS, q1)
    c2 = rng.binomial(FET_TRIALS, q2)
    is_null = np.zeros(cfg.m, dtype=bool)
    is_null[:m0] = True
    return SimulatedStudy(family=cfg.family, c1=c1, c2=c2, is_null=is_null)


def generate_scenario(cfg: ScenarioConfig, seed) -> SimulatedStudy:
    if cfg.family is Family.POISSON_BINOMIAL:
        return generate_poisson_scenario(cfg, seed)
    return generate_binomial_scenario(cfg, seed)


def score_study(study: SimulatedStudy, sided: Sidedness):
    """P-values, null supports and conditioning statistics of a dataset.

    Scores with ``io.score_input``, giving the FET scenario's tables their
    row totals of ``FET_TRIALS`` trials each.
    """
    trials = None
    if study.family is Family.BINOMIAL_FET:
        trials = np.full(study.m, FET_TRIALS)
    return score_input(study.c1, study.c2, sided, n1=trials, n2=trials)


def _discovery_proportions(rejected: np.ndarray, is_null: np.ndarray):
    n_rejected = rejected.size
    n_false = int(np.count_nonzero(is_null[rejected])) if n_rejected else 0
    m1 = int(np.count_nonzero(~is_null))
    fdp = n_false / max(n_rejected, 1)
    tdp = (n_rejected - n_false) / m1 if m1 else 0.0
    return fdp, tdp


def _replication_stats(procedure, report, is_null, **estimates):
    fdp, tdp = _discovery_proportions(report.rejected, is_null)
    return ReplicationStats(
        procedure, fdp, tdp, n_rejected=report.n_rejected, **estimates
    )


def _replication_records(cfg: ScenarioConfig, rep: int):
    """All per-cell statistics of one replication.

    The dataset and its p-values are shared across the alpha and l_star
    grids; the weighting runs once per l_star and each step-up once per
    alpha.  Returns (l_star, alpha, procedure) -> ReplicationStats tuples.
    """
    seed = np.random.SeedSequence([cfg.master_seed, rep])
    study = generate_scenario(cfg, seed)
    pvalues, supports, stats = score_study(study, cfg.sided)
    pi0_cfg = cfg.resolved_pi0_config()
    pi0_g = estimate_pi0(pvalues, supports, pi0_cfg).value

    bh_by_alpha = {
        alpha: _replication_stats("bh", bh_reject(pvalues, alpha), study.is_null)
        for alpha in cfg.alpha_grid
    }
    records = []
    for l_star in cfg.l_star_grid:
        weighted = weight_study(
            pvalues, supports, stats, WfdrConfig(l_star=l_star, pi0=pi0_cfg)
        )
        for alpha in cfg.alpha_grid:
            wfdr = _replication_stats(
                "wfdr",
                weighted.reject(alpha),
                study.is_null,
                pi0_g=pi0_g,
                pi0_star=weighted.pi0_overall,
            )
            records.append((l_star, alpha, wfdr))
            records.append((l_star, alpha, bh_by_alpha[alpha]))
    return records


@dataclass(frozen=True)
class CellSummary:
    """Aggregated statistics of one (pi0, alpha, l_star, procedure) cell."""

    family: str
    pi0: float
    alpha: float
    l_star: int
    procedure: str
    replications: int
    fdr: float
    power: float
    fdp_std: float
    tdp_std: float
    mean_rejections: float
    pi0_star_mean: float | None = None
    pi0_g_mean: float | None = None


@dataclass(frozen=True)
class StudyResult:
    """Cell summaries of one scenario, plus the long-format table."""

    config: ScenarioConfig
    cells: tuple[CellSummary, ...]

    def long_table(self) -> list[dict]:
        """Plot-ready rows: family, pi0, alpha, l_star, procedure, metric, value."""
        rows = []
        for cell in self.cells:
            metrics = {
                "fdr": cell.fdr,
                "power": cell.power,
                "fdp_std": cell.fdp_std,
                "tdp_std": cell.tdp_std,
                "mean_rejections": cell.mean_rejections,
            }
            if cell.procedure == "wfdr":
                metrics["pi0_star_mean"] = cell.pi0_star_mean
                metrics["pi0_g_mean"] = cell.pi0_g_mean
            for metric, value in metrics.items():
                rows.append(
                    {
                        "family": cell.family,
                        "pi0": cell.pi0,
                        "alpha": cell.alpha,
                        "l_star": cell.l_star,
                        "procedure": cell.procedure,
                        "metric": metric,
                        "value": value,
                    }
                )
        return rows


def _resolve_workers(workers: int | None) -> int:
    if workers is None:
        workers = int(os.environ.get(WORKERS_ENV_VAR, "1"))
    if workers < 1:
        raise InvalidConfigError(f"workers must be >= 1, got {workers}")
    return workers


def _std(values: np.ndarray) -> float:
    # sample standard deviation; 0 for a single replication
    return float(np.std(values, ddof=1)) if values.size > 1 else 0.0


def run_study(cfg: ScenarioConfig, workers: int | None = None) -> StudyResult:
    """Run all replications of a scenario and aggregate per-cell statistics.

    Replications are independent tasks with counter-derived seeds, so the
    result is identical for any worker count; aggregation always sums in
    replication order.
    """
    workers = _resolve_workers(workers)
    task = partial(_replication_records, cfg)
    reps = range(cfg.replications)
    if workers == 1:
        per_rep = [task(r) for r in reps]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_rep = list(pool.map(task, reps))

    by_cell: dict[tuple, list[ReplicationStats]] = {}
    for records in per_rep:  # replication order is fixed
        for l_star, alpha, stats in records:
            by_cell.setdefault((l_star, alpha, stats.procedure), []).append(stats)

    cells = []
    for l_star in cfg.l_star_grid:
        for alpha in cfg.alpha_grid:
            for procedure in ("wfdr", "bh"):
                stats = by_cell[(l_star, alpha, procedure)]
                fdp = np.array([s.fdp for s in stats])
                tdp = np.array([s.tdp for s in stats])
                nrej = np.array([s.n_rejected for s in stats], dtype=float)
                cell = CellSummary(
                    family=cfg.family.value,
                    pi0=cfg.pi0,
                    alpha=alpha,
                    l_star=l_star,
                    procedure=procedure,
                    replications=cfg.replications,
                    fdr=float(fdp.mean()),
                    power=float(tdp.mean()),
                    fdp_std=_std(fdp),
                    tdp_std=_std(tdp),
                    mean_rejections=float(nrej.mean()),
                    pi0_star_mean=(
                        float(np.mean([s.pi0_star for s in stats]))
                        if procedure == "wfdr"
                        else None
                    ),
                    pi0_g_mean=(
                        float(np.mean([s.pi0_g for s in stats]))
                        if procedure == "wfdr"
                        else None
                    ),
                )
                cells.append(cell)
    return StudyResult(config=cfg, cells=tuple(cells))
