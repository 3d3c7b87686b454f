import os

import pytest

from qwake.cli import main


def test_run_prints_summary(capsys):
    rc = main(["run", "--family", "clique", "--n", "12", "--alpha", "3", "--seed", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all_awake=1" in out and "n=12" in out


def test_run_writes_transcript(tmp_path, capsys):
    log = tmp_path / "t.log"
    rc = main(["run", "--family", "path", "--n", "4", "--alpha", "0", "--seed", "1",
               "--log", str(log)])
    assert rc == 0
    text = log.read_text()
    assert text.startswith("kind=wakeup")
    assert "event" in text


def test_sweep_and_fit(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "family=clique\nn_values=8,12,16,24\nalpha_values=0\nseeds_per_cell=10\n"
        f"seed=3\noutput_csv={tmp_path/'s.csv'}\n"
    )
    assert main(["sweep", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "rows" in out
    assert main(["fit", str(tmp_path / "s.csv")]) == 0
    out = capsys.readouterr().out
    assert "slope=" in out


def test_reduce(capsys):
    rc = main(["reduce", "--n", "4", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "descriptor_correct=1" in out


def test_routing_demo(capsys):
    rc = main(["routing-demo", "--seed", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "queries used: 4" in out
    assert "True" in out


def test_env_default_seed(monkeypatch, capsys):
    monkeypatch.setenv("QWAKE_SEED", "17")
    rc = main(["run", "--family", "clique", "--n", "8", "--alpha", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "seed=17" in out
