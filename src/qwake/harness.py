"""Experiment harness: seeded sweeps over graph families, CSV emission,
scaling-exponent fits, and advice-level comparisons.

Cells are (family, n, alpha) triples; each cell runs a fixed number of
seeded repetitions. Graphs and wake sets are derived from the config seed
and the cell coordinates only (not from alpha), so runs at different advice
budgets are matched seed-for-seed. Medians are the headline statistic; the
rare failed run would otherwise make means heavy-tailed.
"""
from __future__ import annotations

import csv
import hashlib
import io
import math
import os
from dataclasses import dataclass

import numpy as np

from . import qsearch
from .advice import assign_advice, compute_epoch_plan
from .network import (
    WakeConfig,
    build_hidden_matching_graph,
    clique_graph,
    path_graph,
    random_connected_graph,
    random_perfect_matching,
)
from .scheduler import RunParams, run_wakeup

# Not called here (rows take EpochPlan.awake_dist), but bench/tracing.py
# wraps harness.awake_distance by name, so the binding stays.
from .network import awake_distance  # noqa: F401

CSV_COLUMNS = [
    "family",
    "n",
    "alpha",
    "beta",
    "seed",
    "classical",
    "quantum",
    "total",
    "rounds",
    "epochs",
    "awake_dist",
    "success",
]

FAMILIES = ("clique", "random", "path", "hidden-matching")


class HarnessError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    family: str = "clique"
    edge_probability: float = 0.3  # random family only
    n_values: tuple[int, ...] = (32, 64)
    alpha_values: tuple[int, ...] = (0,)
    wake_rule: str = "single-node"  # single-node | random-k:<k> | all-centers
    seeds_per_cell: int = 10
    seed: int = 0
    msg_convention: str = "roundtrip2"
    c_tau: float = 8.0
    search_c: float = qsearch.DEFAULT_SEARCH_C
    iter_c: float = qsearch.DEFAULT_ITER_C
    repetition_factor: int | None = None
    output_csv: str = "sweep.csv"

    def validate(self):
        if self.family not in FAMILIES:
            raise HarnessError(f"unknown family {self.family!r}")
        if not self.n_values or any(n < 2 for n in self.n_values):
            raise HarnessError("n values must all be >= 2")
        if any(a < 0 for a in self.alpha_values):
            raise HarnessError("alpha values must be >= 0")
        if self.seeds_per_cell < 1:
            raise HarnessError("need at least one seed per cell")
        if not (0.0 <= self.edge_probability <= 1.0):
            raise HarnessError("edge probability must be in [0, 1]")
        if not (
            self.wake_rule in ("single-node", "all-centers")
            or self.wake_rule.startswith("random-k:")
        ):
            raise HarnessError(f"unknown wake rule {self.wake_rule!r}")
        if self.family == "hidden-matching" and any(n % 2 for n in self.n_values):
            raise HarnessError("hidden-matching needs even n")
        return self

    def run_params(self) -> RunParams:
        return RunParams(
            search_c=self.search_c,
            iter_c=self.iter_c,
            c_tau=self.c_tau,
            repetition_factor=self.repetition_factor,
            msg_convention=self.msg_convention,
            record_actor_sets=False,
        )

    # -- line-oriented key=value config format ------------------------------

    def to_text(self) -> str:
        lines = [
            f"family={self.family}",
            f"edge_probability={self.edge_probability!r}",
            "n_values=" + ",".join(map(str, self.n_values)),
            "alpha_values=" + ",".join(map(str, self.alpha_values)),
            f"wake_rule={self.wake_rule}",
            f"seeds_per_cell={self.seeds_per_cell}",
            f"seed={self.seed}",
            f"msg_convention={self.msg_convention}",
            f"c_tau={self.c_tau!r}",
            f"search_c={self.search_c!r}",
            f"iter_c={self.iter_c!r}",
            f"repetition_factor={'' if self.repetition_factor is None else self.repetition_factor}",
            f"output_csv={self.output_csv}",
        ]
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "ExperimentConfig":
        kv: dict[str, str] = {}
        for ln in text.splitlines():
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            if "=" not in ln:
                raise HarnessError(f"bad config line: {ln!r}")
            k, v = ln.split("=", 1)
            kv[k.strip()] = v.strip()
        cfg = ExperimentConfig(
            family=kv.get("family", "clique"),
            edge_probability=float(kv.get("edge_probability", "0.3")),
            n_values=tuple(int(x) for x in kv["n_values"].split(",")) if kv.get("n_values") else (32, 64),
            alpha_values=tuple(int(x) for x in kv["alpha_values"].split(",")) if kv.get("alpha_values") else (0,),
            wake_rule=kv.get("wake_rule", "single-node"),
            seeds_per_cell=int(kv.get("seeds_per_cell", "10")),
            seed=int(kv.get("seed", "0")),
            msg_convention=kv.get("msg_convention", "roundtrip2"),
            c_tau=float(kv.get("c_tau", "8.0")),
            search_c=float(kv.get("search_c", str(qsearch.DEFAULT_SEARCH_C))),
            iter_c=float(kv.get("iter_c", str(qsearch.DEFAULT_ITER_C))),
            repetition_factor=int(kv["repetition_factor"]) if kv.get("repetition_factor") else None,
            output_csv=kv.get("output_csv", "sweep.csv"),
        )
        return cfg.validate()


def stable_seed(*parts) -> int:
    """Deterministic 63-bit seed from the config seed and cell coordinates."""
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class Row:
    family: str
    n: int
    alpha: int
    beta: int
    seed: int
    classical: int
    quantum: int
    total: int
    rounds: int
    epochs: int
    awake_dist: int
    success: int

    def to_csv(self) -> list:
        return [getattr(self, c) for c in CSV_COLUMNS]

    @staticmethod
    def from_csv(values: list[str]) -> "Row":
        family = values[0]
        nums = [int(x) for x in values[1:]]
        return Row(family, *nums)


def _instance_for(config: ExperimentConfig, n: int, rep: int):
    """Graph and wake set for one repetition; independent of alpha.

    A clique depends on n alone: every repetition of a cell gets the same
    shared, immutable network from ``clique_graph``'s one-slot memo. It is
    called through this module's own binding, which bench/tracing.py wraps.
    """
    gseed = stable_seed(config.seed, config.family, n, "graph", rep)
    if config.family == "clique":
        net = clique_graph(n)
    elif config.family == "path":
        net = path_graph(n)
    elif config.family == "random":
        net = random_connected_graph(n, config.edge_probability, gseed)
    elif config.family == "hidden-matching":
        matching = random_perfect_matching(n, gseed)
        net = build_hidden_matching_graph(n, matching).network
    else:
        raise HarnessError(config.family)

    wseed = stable_seed(config.seed, config.family, n, "wake", rep)
    wrng = np.random.default_rng(wseed)
    # For hidden-matching, wake candidates are the centers 1..n (the pendant
    # side starts asleep by construction).
    if config.wake_rule == "all-centers":
        if config.family != "hidden-matching":
            raise HarnessError("all-centers only applies to hidden-matching")
        wake = WakeConfig(frozenset(range(1, n + 1)))
    elif config.wake_rule == "single-node":
        wake = WakeConfig(frozenset([int(wrng.integers(1, n + 1))]))
    else:
        k = int(config.wake_rule.split(":", 1)[1])
        pool = list(range(1, n + 1))
        chosen = wrng.choice(pool, size=min(k, len(pool)), replace=False)
        wake = WakeConfig(frozenset(int(x) for x in chosen))
    return net, wake


def run_cell_row(config: ExperimentConfig, n: int, alpha: int, rep: int) -> Row:
    """Execute one (family, n, alpha, rep) run and summarize it as a row.

    ``n`` is the cell coordinate; for hidden-matching that is the number of
    centers and the network itself has 2n nodes.
    """
    net, wake = _instance_for(config, n, rep)
    plan = compute_epoch_plan(net, wake)
    assignment = assign_advice(net, plan, alpha)
    aseed = stable_seed(config.seed, config.family, n, "alg", rep)
    rng = np.random.default_rng(aseed)
    try:
        t = run_wakeup(net, wake, assignment, config.run_params(), rng, aseed)
        success = int(t.all_awake)
    except Exception:
        return Row(config.family, n, alpha, assignment.beta, rep, 0, 0, 0, 0, 0,
                   plan.awake_dist, 0)
    return Row(
        config.family,
        n,
        alpha,
        assignment.beta,
        rep,
        t.ledger.classical_total,
        t.ledger.quantum_total,
        t.ledger.total(),
        t.rounds_total,
        t.epochs_executed,
        plan.awake_dist,
        success,
    )


def write_csv(rows, path_or_file):
    own = isinstance(path_or_file, (str, os.PathLike))
    f = open(path_or_file, "w", newline="") if own else path_or_file
    try:
        w = csv.writer(f)
        w.writerow(CSV_COLUMNS)
        for row in rows:
            w.writerow(row.to_csv())
    finally:
        if own:
            f.close()


def read_csv(path_or_text: str) -> list[Row]:
    if os.path.exists(path_or_text):
        with open(path_or_text, newline="") as f:
            text = f.read()
    else:
        text = path_or_text
    rows = []
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != CSV_COLUMNS:
        raise HarnessError(f"unexpected CSV header: {header}")
    for values in reader:
        if values:
            rows.append(Row.from_csv(values))
    return rows


def run_sweep(config: ExperimentConfig, csv_path: str | None = None, resume: bool = True) -> list[Row]:
    """Run every cell; rows are canonical-ordered and written incrementally.

    With ``resume``, rows already present in the CSV are kept and their runs
    skipped; per-run failures become success=0 rows and never abort the
    sweep.
    """
    config.validate()
    path = csv_path if csv_path is not None else config.output_csv
    done: dict[tuple, Row] = {}
    if resume and path and os.path.exists(path):
        for row in read_csv(path):
            done[(row.family, row.n, row.alpha, row.seed)] = row
    rows: list[Row] = []
    with open(path, "w", newline="") if path else io.StringIO() as f:
        w = csv.writer(f)
        w.writerow(CSV_COLUMNS)
        for n in config.n_values:
            for alpha in config.alpha_values:
                for rep in range(config.seeds_per_cell):
                    key = (config.family, n, alpha, rep)
                    row = done.get(key)
                    if row is None:
                        row = run_cell_row(config, n, alpha, rep)
                    rows.append(row)
                    w.writerow(row.to_csv())
                    f.flush()
    return rows


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    family: str
    alpha: int
    slope: float
    intercept: float
    r_squared: float
    ci_low: float
    ci_high: float
    slope_raw: float
    n_values: tuple[int, ...]
    medians: tuple[float, ...]

    def to_text(self) -> str:
        return (
            f"family={self.family} alpha={self.alpha} slope={self.slope:.4f} "
            f"ci=[{self.ci_low:.4f},{self.ci_high:.4f}] r2={self.r_squared:.5f} "
            f"raw_slope={self.slope_raw:.4f} n={','.join(map(str, self.n_values))}"
        )


def _fit_loglog(xs, ys):
    x = np.log(np.asarray(xs, dtype=float))
    y = np.log(np.asarray(ys, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def fit_exponent(rows, family: str | None = None, alpha: int | None = None,
                 bootstrap: int = 200, min_n_values: int = 4, min_seeds: int = 10) -> list[FitResult]:
    """Least-squares slope of log(median total / log2 n) against log n,
    per (family, alpha), with a seed-resampling bootstrap CI. Only
    successful rows participate."""
    groups: dict[tuple[str, int], dict[int, list[int]]] = {}
    for row in rows:
        if not row.success:
            continue
        if family is not None and row.family != family:
            continue
        if alpha is not None and row.alpha != alpha:
            continue
        groups.setdefault((row.family, row.alpha), {}).setdefault(row.n, []).append(row.total)
    results = []
    for (fam, a), per_n in sorted(groups.items()):
        ns = sorted(per_n)
        if len(ns) < min_n_values:
            raise HarnessError(
                f"fit for ({fam}, alpha={a}) needs >= {min_n_values} n values, got {len(ns)}"
            )
        for n in ns:
            if len(per_n[n]) < min_seeds:
                raise HarnessError(
                    f"fit for ({fam}, alpha={a}) needs >= {min_seeds} successful seeds at n={n}"
                )
        medians = [float(np.median(per_n[n])) for n in ns]
        norm = [m / math.log2(n) for m, n in zip(medians, ns)]
        slope, intercept, r2 = _fit_loglog(ns, norm)
        slope_raw, _, _ = _fit_loglog(ns, medians)
        brng = np.random.default_rng(stable_seed("bootstrap", fam, a))
        bslopes = []
        for _ in range(bootstrap):
            bm = []
            for n in ns:
                vals = per_n[n]
                sample = brng.choice(vals, size=len(vals), replace=True)
                bm.append(float(np.median(sample)) / math.log2(n))
            s, _, _ = _fit_loglog(ns, bm)
            bslopes.append(s)
        lo, hi = np.percentile(bslopes, [2.5, 97.5])
        results.append(
            FitResult(fam, a, slope, intercept, r2, float(lo), float(hi), slope_raw,
                      tuple(ns), tuple(medians))
        )
    return results


@dataclass(frozen=True)
class AdviceRatio:
    """Measured vs predicted saving between two advice levels. ``predicted``
    is the worst-case bound's factor, not a per-instance promise."""

    family: str
    n: int
    alpha_lo: int
    alpha_hi: int
    beta_lo: int
    beta_hi: int
    measured: float
    predicted: float

    def to_text(self) -> str:
        return (
            f"family={self.family} n={self.n} alpha {self.alpha_lo}->{self.alpha_hi} "
            f"(beta {self.beta_lo}->{self.beta_hi}) measured={self.measured:.3f} "
            f"predicted={self.predicted:.3f}"
        )


def compare_advice_levels(rows, family: str, n: int) -> list[AdviceRatio]:
    """Matched-seed ratios of median quantum messages between advice levels
    at fixed (family, n). The predicted column is sqrt(2^(beta_hi-beta_lo)),
    the factor by which the worst-case bound shrinks. An instance realizes it
    only where each actor holds fewer than 2^beta_hi sleepers, so that range
    advice narrows its searches; where one actor holds every sleeper (a clique
    with one node awake) it keeps g=1 at every advised level and the measured
    ratio between advised levels is 1. Failed rows are dropped."""
    per_alpha: dict[int, dict[int, int]] = {}
    betas: dict[int, int] = {}
    for row in rows:
        if row.family != family or row.n != n or not row.success:
            continue
        per_alpha.setdefault(row.alpha, {})[row.seed] = row.quantum
        betas[row.alpha] = row.beta
    alphas = sorted(per_alpha)
    out = []
    for i, a_lo in enumerate(alphas):
        for a_hi in alphas[i:]:
            seeds = sorted(set(per_alpha[a_lo]) & set(per_alpha[a_hi]))
            if not seeds:
                raise HarnessError(f"no matched seeds for alpha {a_lo} vs {a_hi}")
            lo_med = float(np.median([per_alpha[a_lo][s] for s in seeds]))
            hi_med = float(np.median([per_alpha[a_hi][s] for s in seeds]))
            measured = lo_med / hi_med if hi_med else float("inf")
            predicted = math.sqrt(2 ** (betas[a_hi] - betas[a_lo]))
            out.append(
                AdviceRatio(family, n, a_lo, a_hi, betas[a_lo], betas[a_hi], measured, predicted)
            )
    return out
