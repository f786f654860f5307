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
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .errors import InvalidConfigError, check_array, check_count, check_scalar
from .exact_tests import Sidedness
from .io import score_input
from .proportion import _PI0_CONFIGS, Pi0Config, estimate_pi0
from .wfdr import WfdrConfig, bh_reject, weight_study

WORKERS_ENV_VAR = "DISCRETE_FDR_WORKERS"

FET_TRIALS = 50  # number of trials of each binomial count in the FET scenario

# the last two axes of a replication's records
PROCEDURES = ("wfdr", "bh")
STATISTICS = ("fdp", "tdp", "n_rejected", "pi0_star", "pi0_g")


class Family(enum.Enum):
    """Data-generating scenario (and the exact test it is analysed with)."""

    POISSON_BINOMIAL = "poisson"  # Poisson pairs, binomial test
    BINOMIAL_FET = "binomial"  # binomial pairs, Fisher's exact test


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation scenario: a single null proportion, full design grids.

    The tests are two-sided and the null proportion is estimated on the
    family's default guiding-value grid.
    """

    family: Family
    m: int
    pi0: float
    alpha_grid: tuple[float, ...]
    l_star_grid: tuple[int, ...]
    replications: int
    master_seed: int

    def __post_init__(self):
        check_count("m", self.m, 1)
        check_count("replications", self.replications, 1)
        check_count("master_seed", self.master_seed)
        check_scalar("pi0", self.pi0, "be in [0, 1]")
        for name, grid in (("alpha", self.alpha_grid), ("l_star", self.l_star_grid)):
            values = check_array(f"{name} grid", grid)
            if values.size == 0:
                raise InvalidConfigError("alpha and l_star grids must be nonempty")
            if np.unique(values).size != values.size:
                raise InvalidConfigError(f"{name} grid has a repeated value: {grid}")
        for alpha in self.alpha_grid:
            check_scalar("alpha", alpha, "be in [0, 1]")
        for l_star in self.l_star_grid:
            check_count("l_star", l_star, 1)

    def resolved_pi0_config(self) -> Pi0Config:
        return _PI0_CONFIGS["fet" if self.family is Family.BINOMIAL_FET else "binomial"]


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


def _num_true_nulls(m: int, pi0: float) -> int:
    # integer part of m * pi0, guarded against float artifacts like
    # 1000 * 0.7 == 699.9999...
    return int(np.floor(m * pi0 + 1e-9))


def _rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)`` for a seed that is None, a numpy seed
    sequence, bit generator or generator, or an integer >= 0."""
    if not (seed is None or isinstance(seed, (np.random.SeedSequence,
                                              np.random.BitGenerator,
                                              np.random.Generator))):
        check_count("seed", seed)
    return np.random.default_rng(seed)


def generate_poisson_scenario(cfg: ScenarioConfig, seed) -> SimulatedStudy:
    """Poisson pairs: means from Pareto(scale 7, shape 7), alternatives scaled.

    The first floor(m * pi0) hypotheses are true nulls with equal means; each
    alternative's second mean is the first times a Uniform(1.5, 5) factor.
    """
    if cfg.family is not Family.POISSON_BINOMIAL:
        raise InvalidConfigError("config is not a Poisson scenario")
    rng = _rng(seed)
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
    rng = _rng(seed)
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
    row totals of ``FET_TRIALS`` trials each.  The supports carry the
    family's default grid, ``resolved_pi0_config``, and the estimator reads it.
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


def _replication_records(cfg: ScenarioConfig, rep: int) -> np.ndarray:
    """All per-cell statistics of one replication.

    The dataset and its p-values are shared across the alpha and l_star
    grids; the weighting runs once per l_star and each step-up once per
    alpha.  Returns an array indexed (l_star, alpha, procedure, statistic)
    in the order of the grids, ``PROCEDURES`` and ``STATISTICS``; bh's pi0
    statistics are NaN.
    """
    seed = np.random.SeedSequence([cfg.master_seed, rep])
    study = generate_scenario(cfg, seed)
    pvalues, supports, stats = score_study(study, Sidedness.TWO_SIDED)
    pi0_g = estimate_pi0(pvalues, supports).value

    def record(report, *estimates):
        fdp, tdp = _discovery_proportions(report.rejected, study.is_null)
        return fdp, tdp, report.n_rejected, *estimates

    out = np.full(
        (len(cfg.l_star_grid), len(cfg.alpha_grid), len(PROCEDURES), len(STATISTICS)),
        np.nan,
    )
    wfdr, bh = PROCEDURES.index("wfdr"), PROCEDURES.index("bh")
    for j, alpha in enumerate(cfg.alpha_grid):
        out[:, j, bh, :3] = record(bh_reject(pvalues, alpha))
    for i, l_star in enumerate(cfg.l_star_grid):
        weighted = weight_study(pvalues, supports, stats, WfdrConfig(l_star=l_star))
        for j, alpha in enumerate(cfg.alpha_grid):
            report = weighted.reject(alpha)
            out[i, j, wfdr] = record(report, weighted.pi0_overall, pi0_g)
    return out


@dataclass(frozen=True)
class CellSummary:
    """Aggregated statistics of one (pi0, alpha, l_star, procedure) cell.

    The fields after ``replications`` are the statistics, in output order.
    """

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

    def statistics(self) -> dict:
        """The statistics that apply to the procedure; the pi0 means are None,
        and left out, for bh."""
        names = [f.name for f in fields(self)]
        return {
            name: getattr(self, name)
            for name in names[names.index("replications") + 1:]
            if getattr(self, name) is not None
        }


@dataclass(frozen=True)
class StudyResult:
    """Cell summaries of one scenario, plus the long-format table."""

    config: ScenarioConfig
    cells: tuple[CellSummary, ...]

    def long_table(self) -> list[dict]:
        """Plot-ready rows: family, pi0, alpha, l_star, procedure, metric, value."""
        return [
            dict(family=cell.family, pi0=cell.pi0, alpha=cell.alpha,
                 l_star=cell.l_star, procedure=cell.procedure,
                 metric=metric, value=value)
            for cell in self.cells
            for metric, value in cell.statistics().items()
        ]


def _resolve_workers(workers: int | None) -> int:
    if workers is None:
        raw = os.environ.get(WORKERS_ENV_VAR, "1")
        try:
            workers = int(raw)
        except ValueError:
            raise InvalidConfigError(f"{WORKERS_ENV_VAR}={raw!r} is not an integer") from None
    check_count("workers", workers, 1)
    return workers


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

    # replications on the contiguous last axis, so that each cell reduces
    # exactly like the 1-d array of its values
    records = np.ascontiguousarray(np.stack(per_rep, axis=-1))
    means = records.mean(axis=-1)
    # sample standard deviation; 0 for a single replication
    if cfg.replications > 1:
        stds = records.std(axis=-1, ddof=1)
    else:
        stds = np.zeros_like(means)

    cells = []
    for i, l_star in enumerate(cfg.l_star_grid):
        for j, alpha in enumerate(cfg.alpha_grid):
            for k, procedure in enumerate(PROCEDURES):
                fdr, power, n_rejected, pi0_star, pi0_g = means[i, j, k].tolist()
                fdp_std, tdp_std = stds[i, j, k, :2].tolist()
                wfdr = procedure == "wfdr"
                cells.append(
                    CellSummary(
                        family=cfg.family.value,
                        pi0=cfg.pi0,
                        alpha=alpha,
                        l_star=l_star,
                        procedure=procedure,
                        replications=cfg.replications,
                        fdr=fdr,
                        power=power,
                        fdp_std=fdp_std,
                        tdp_std=tdp_std,
                        mean_rejections=n_rejected,
                        pi0_star_mean=pi0_star if wfdr else None,
                        pi0_g_mean=pi0_g if wfdr else None,
                    )
                )
    return StudyResult(config=cfg, cells=tuple(cells))
