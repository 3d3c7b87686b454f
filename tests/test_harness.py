import math
import os

import numpy as np
import pytest

from qwake.advice import compute_epoch_plan
from qwake.harness import (
    FAMILIES,
    ExperimentConfig,
    HarnessError,
    Row,
    compare_advice_levels,
    fit_exponent,
    read_csv,
    run_cell_row,
    run_sweep,
    stable_seed,
    write_csv,
    _instance_for,
)
from qwake.network import awake_distance


def small_config(tmp_path, **kw):
    defaults = dict(
        family="clique",
        n_values=(8, 16),
        alpha_values=(0, 3),
        seeds_per_cell=3,
        output_csv=str(tmp_path / "out.csv"),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_config_round_trip(tmp_path):
    cfg = small_config(tmp_path, wake_rule="random-k:2", repetition_factor=9)
    assert ExperimentConfig.from_text(cfg.to_text()) == cfg


def test_config_validation():
    with pytest.raises(HarnessError):
        ExperimentConfig(family="torus").validate()
    with pytest.raises(HarnessError):
        ExperimentConfig(wake_rule="everything").validate()
    with pytest.raises(HarnessError):
        ExperimentConfig(family="hidden-matching", n_values=(5,)).validate()


def test_single_cell_single_seed(tmp_path):
    cfg = small_config(tmp_path, n_values=(8,), alpha_values=(0,), seeds_per_cell=1)
    rows = run_sweep(cfg)
    assert len(rows) == 1
    assert rows[0].success == 1


def test_sweep_deterministic(tmp_path):
    cfg = small_config(tmp_path)
    run_sweep(cfg, str(tmp_path / "a.csv"), resume=False)
    run_sweep(cfg, str(tmp_path / "b.csv"), resume=False)
    assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()


def test_sweep_resume_skips_done_rows(tmp_path):
    cfg = small_config(tmp_path)
    full = run_sweep(cfg, str(tmp_path / "full.csv"), resume=False)
    partial = [r for r in full if not (r.n == 16 and r.alpha == 3)]
    write_csv(partial, str(tmp_path / "part.csv"))
    resumed = run_sweep(cfg, str(tmp_path / "part.csv"), resume=True)
    assert resumed == full


def test_rows_parse_back(tmp_path):
    cfg = small_config(tmp_path)
    rows = run_sweep(cfg)
    assert read_csv(cfg.output_csv) == rows


def test_matched_seeds_share_graph_and_wake(tmp_path):
    cfg = small_config(tmp_path, family="random", n_values=(12,), alpha_values=(0, 5))
    a = run_cell_row(cfg, 12, 0, 1)
    b = run_cell_row(cfg, 12, 5, 1)
    assert a.awake_dist == b.awake_dist  # same instance, alpha-independent


def test_stable_seed_is_stable():
    assert stable_seed(1, "clique", 8, "alg", 0) == stable_seed(1, "clique", 8, "alg", 0)
    assert stable_seed(1, "a") != stable_seed(2, "a")


def test_fit_recovers_its_own_model():
    rows = [
        Row("clique", n, 0, 0, s, 0, 0, (n**1.5) * math.log2(n), 0, 0, 1, 1)
        for n in (32, 64, 128, 256) for s in range(12)
    ]
    fit = fit_exponent(rows)[0]
    assert abs(fit.slope - 1.5) < 1e-6
    assert fit.ci_low <= fit.slope <= fit.ci_high
    rows2 = [
        Row("clique", n, 0, 0, s, 0, 0, (n**2) * math.log2(n), 0, 0, 1, 1)
        for n in (32, 64, 128, 256) for s in range(12)
    ]
    assert abs(fit_exponent(rows2)[0].slope - 2.0) < 1e-6


def test_fit_requires_enough_data():
    rows = [Row("clique", n, 0, 0, s, 0, 0, n, 0, 0, 1, 1) for n in (8, 16) for s in range(12)]
    with pytest.raises(HarnessError):
        fit_exponent(rows)
    rows = [Row("clique", n, 0, 0, s, 0, 0, n, 0, 0, 1, 1) for n in (8, 16, 32, 64) for s in range(3)]
    with pytest.raises(HarnessError):
        fit_exponent(rows)


def test_fit_ignores_failed_rows():
    rows = [
        Row("clique", n, 0, 0, s, 0, 0, (n**1.5) * math.log2(n), 0, 0, 1, 1)
        for n in (32, 64, 128, 256) for s in range(12)
    ]
    rows += [Row("clique", 512, 0, 0, s, 0, 0, 10**9, 0, 0, 1, 0) for s in range(12)]
    fit = fit_exponent(rows)[0]
    assert 512 not in fit.n_values


def test_advice_ratio_trivial_and_predicted():
    rows = [Row("clique", 64, 0, 0, s, 0, 100, 100, 0, 0, 1, 1) for s in range(5)]
    rows += [Row("clique", 64, 5, 2, s, 0, 50, 50, 0, 0, 1, 1) for s in range(5)]
    ratios = compare_advice_levels(rows, "clique", 64)
    same = next(r for r in ratios if r.alpha_lo == r.alpha_hi == 0)
    assert same.measured == 1.0 and same.predicted == 1.0
    pair = next(r for r in ratios if (r.alpha_lo, r.alpha_hi) == (0, 5))
    assert pair.predicted == 2.0  # sqrt(2^(2-0))
    assert pair.measured == 2.0


def test_advice_ratio_requires_matched_seeds():
    rows = [Row("clique", 64, 0, 0, 0, 0, 1, 1, 0, 0, 1, 1),
            Row("clique", 64, 5, 2, 9, 0, 1, 1, 0, 0, 1, 1)]
    with pytest.raises(HarnessError):
        compare_advice_levels(rows, "clique", 64)


def test_failed_cells_do_not_abort(tmp_path, monkeypatch):
    import qwake.harness as H

    calls = {"k": 0}
    orig = H.run_wakeup

    def flaky(*a, **kw):
        calls["k"] += 1
        if calls["k"] == 2:
            raise RuntimeError("boom")
        return orig(*a, **kw)

    monkeypatch.setattr(H, "run_wakeup", flaky)
    cfg = small_config(tmp_path, n_values=(8,), alpha_values=(0,), seeds_per_cell=3)
    rows = run_sweep(cfg, resume=False)
    assert len(rows) == 3
    assert sum(r.success for r in rows) == 2


def test_advice_ratio_realized_on_hidden_matching(tmp_path):
    # every center has exactly one sleeper, so the advised search range
    # shrinks by 2^beta and the quantum-message ratio tracks sqrt(2^dbeta)
    cfg = small_config(
        tmp_path, family="hidden-matching", n_values=(64,), alpha_values=(1, 5),
        seeds_per_cell=8, wake_rule="all-centers",
    )
    rows = run_sweep(cfg, resume=False)
    assert all(r.success for r in rows)
    pair = next(
        r for r in compare_advice_levels(rows, "hidden-matching", 64)
        if (r.alpha_lo, r.alpha_hi) == (1, 5)
    )
    assert pair.predicted == 2.0
    assert 1.4 <= pair.measured <= 2.8


def test_hidden_matching_family_all_centers(tmp_path):
    cfg = small_config(
        tmp_path, family="hidden-matching", n_values=(4, 6), alpha_values=(0,),
        seeds_per_cell=2, wake_rule="all-centers",
    )
    rows = run_sweep(cfg)
    assert all(r.success for r in rows)
    assert all(r.awake_dist == 1 for r in rows)


@pytest.mark.parametrize("family", FAMILIES)
def test_plan_awake_dist_is_the_bfs_awake_distance(family):
    # rows report EpochPlan.awake_dist in place of a second BFS
    rules = ["single-node", "random-k:1", "random-k:3"]
    if family == "hidden-matching":
        rules.append("all-centers")
    for rule in rules:
        cfg = ExperimentConfig(family=family, wake_rule=rule, seed=7)
        for n in (4, 8, 12):
            for rep in range(3):
                net, wake = _instance_for(cfg, n, rep)
                assert compute_epoch_plan(net, wake).awake_dist == awake_distance(net, wake)
