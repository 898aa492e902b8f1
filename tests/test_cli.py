"""Command-line behavior: determinism, flag defaults, exit codes."""

import argparse
import csv
import json
import warnings
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaybandits import cli, core
from delaybandits.seeding import run_seed


def read_rows_no_timing(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        row.pop("wall_time_ms")
    return rows


def test_run_writes_expected_schema(tmp_path, capsys):
    out = tmp_path / "r.csv"
    rc = cli.main(["run", "--T", "64", "--seeds", "2", "--out", str(out)])
    assert rc == 0
    with open(out, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert header == list(cli.CSV_COLUMNS)
    assert len(rows) == 2
    assert "wrote 2 rows" in capsys.readouterr().out


def test_runs_are_deterministic_up_to_timing(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--T", "32", "--T", "64", "--seeds", "3", "--seed-base", "5"]
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert read_rows_no_timing(a) == read_rows_no_timing(b)


def test_worker_count_does_not_change_results(tmp_path):
    one, two = tmp_path / "w1.csv", tmp_path / "w2.csv"
    args = ["sweep", "--T", "32", "--T", "64", "--seeds", "2"]
    assert cli.main(args + ["--workers", "1", "--out", str(one)]) == 0
    assert cli.main(args + ["--workers", "2", "--out", str(two)]) == 0
    assert read_rows_no_timing(one) == read_rows_no_timing(two)


def test_rows_sorted_by_horizon_then_seed(tmp_path):
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", "--T", "64", "--T", "32", "--seeds", "3", "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    keys = [(int(r["T"]), int(r["seed"])) for r in rows]
    assert keys == sorted(keys)


def test_seeds_are_paired_across_horizons(tmp_path):
    out = tmp_path / "p.csv"
    assert cli.main(["sweep", "--T", "32", "--T", "64", "--seeds", "4",
                     "--seed-base", "9", "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    by_t = {}
    for r in rows:
        by_t.setdefault(r["T"], set()).add(r["seed"])
    seeds_32, seeds_64 = by_t["32"], by_t["64"]
    assert seeds_32 == seeds_64
    assert seeds_32 == {str(run_seed(9, rep)) for rep in range(4)}


def test_flags_left_out_take_spec_defaults_and_given_flags_win():
    # a flag left out takes ExperimentSpec's default, a flag given wins, and
    # sweep defaults to its grid and 50 seeds
    parse = cli.build_parser().parse_args
    spec = cli._spec_from_args(parse(["run", "--K", "3", "--seeds", "4", "--tau", "5"]))
    assert spec == cli.ExperimentSpec(arm_count=3, repetitions=4, batch_size=5)
    spec = cli._spec_from_args(parse(["sweep", "--adversary", "iid", "--delay", "none"]))
    assert spec == cli.ExperimentSpec(adversary="iid", delay="none",
                                      horizons=cli.DEFAULT_SWEEP_HORIZONS, repetitions=50)
    spec = cli._spec_from_args(parse(["sweep", "--T", "32", "--T", "64", "--seeds", "2"]))
    assert spec == cli.ExperimentSpec(horizons=(32, 64), repetitions=2)


def test_run_flags_set_exactly_the_spec_fields():
    # each run/sweep flag sets one ExperimentSpec field, and every field has one
    names = sorted(f.name for f in fields(cli.ExperimentSpec))
    parser = cli.build_parser()
    commands = next(a.choices for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    for command in ("run", "sweep"):
        dests = [a.dest for a in commands[command]._actions if a.dest != "help"]
        assert sorted(dests) == names
    assert len(names) == 12


def test_removed_config_flag_is_unknown(tmp_path, capsys):
    # --config is gone; it is an unknown flag like any other
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("T = 32\n")
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
    assert "--config" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


class TestUsageErrors:
    def test_run_requires_single_horizon(self, tmp_path):
        assert cli.main(["run", "--T", "32", "--T", "64",
                         "--out", str(tmp_path / "x.csv")]) == 1

    def test_unknown_choice_exits_one(self, tmp_path):
        assert cli.main(["run", "--adversary", "nonsense",
                         "--out", str(tmp_path / "x.csv")]) == 1

    def test_masking_delay_needs_walk_loss(self, tmp_path):
        assert cli.main(["run", "--adversary", "iid", "--delay", "statemachine",
                         "--out", str(tmp_path / "x.csv")]) == 1

    def test_parity_trap_is_two_armed(self, tmp_path):
        assert cli.main(["run", "--adversary", "paritytrap", "--delay", "parity",
                         "--K", "3", "--out", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize("flag", ["--epsilon", "--sigma"])
    def test_walk_schedule_flags_are_unrecognized(self, tmp_path, capsys, flag):
        # the gap-walk gap and sigma come from gap_walk_defaults(K, T) only
        assert cli.main(["run", flag, "0.1", "--out", str(tmp_path / "x.csv")]) == 1
        assert f"unrecognized arguments: {flag} 0.1" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("given, message", [
        (dict(adversary="paritytrap", delay="parity", learner="uniform", arm_count=3,
              horizons=(16,)), "the parity trap is two-armed; use --K 2"),
        (dict(adversary="iid", delay="statemachine"),
         "--delay statemachine requires --adversary gapwalk"),
        (dict(delay="none", delay_span=5),
         "--delay none fixes its own span; --d applies to --delay lastslot only"),
    ], ids=["three-armed-trap", "statemachine-over-iid", "span-without-lastslot"])
    def test_spec_built_in_python_is_checked(self, given, message):
        with pytest.raises(cli.UsageError) as info:
            cli.ExperimentSpec(**given)
        assert str(info.value) == message

    def test_span_flag_only_for_last_slot_delay(self, tmp_path):
        # the masking and parity delays fix their own span of 2
        assert cli.main(["run", "--delay", "statemachine", "--d", "7",
                         "--out", str(tmp_path / "x.csv")]) == 1
        assert not (tmp_path / "x.csv").exists()

    def test_last_slot_delay_needs_real_span(self, tmp_path):
        assert cli.main(["run", "--adversary", "iid", "--delay", "lastslot",
                         "--d", "1", "--out", str(tmp_path / "x.csv")]) == 1

    def test_unknown_verify_suite(self):
        assert cli.main(["verify", "nonsense"]) == 1

    def test_negative_bootstrap_count_rejected(self, tmp_path, capsys):
        csv = tmp_path / "s.csv"
        assert cli.main(["sweep", "--adversary", "paritytrap", "--delay", "parity",
                         "--learner", "uniform", "--m", "1", "--T", "32", "--T", "64",
                         "--T", "128", "--seeds", "2", "--out", str(csv)]) == 0
        capsys.readouterr()
        assert cli.main(["analyze", str(csv), "--metric", "pseudo_regret",
                         "--bootstrap", "-5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "error: --bootstrap" in captured.err


def test_io_error_exits_three(tmp_path):
    missing_dir = tmp_path / "nope" / "out.csv"
    assert cli.main(["run", "--T", "32", "--out", str(missing_dir)]) == 3
    assert cli.main(["analyze", str(tmp_path / "absent.csv")]) == 3


def test_fast_verify_suites_pass(capsys):
    # all six suites; the report is pinned byte for byte
    assert cli.main(["verify"]) == 0
    golden = Path(__file__).parent / "golden" / "verify.txt"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


#: every valid adversary+delay pairing, with the flags it needs
CLI_PAIRINGS = (
    ("constant", "none", []), ("constant", "lastslot", ["--d", "4"]),
    ("iid", "none", []), ("iid", "lastslot", ["--d", "4"]),
    ("paritytrap", "none", ["--m", "1"]), ("paritytrap", "parity", ["--m", "1"]),
    ("paritytrap", "lastslot", ["--m", "1", "--d", "4"]),
    ("gapwalk", "none", []), ("gapwalk", "statemachine", []),
    ("gapwalk", "lastslot", ["--d", "4"]),
)


def cli_run_lines(tmp_path) -> list:
    """Rows of every pairing x learner at T = 64 and 1000 x 3 seeds, as
    CSV text without the wall_time_ms column, under one header."""
    drop = cli.CSV_COLUMNS.index("wall_time_ms")
    lines = [",".join(c for i, c in enumerate(cli.CSV_COLUMNS) if i != drop)]
    for adversary, delay, flags in CLI_PAIRINGS:
        for learner in cli.LEARNERS:
            out = tmp_path / f"{adversary}-{delay}-{learner}.csv"
            assert cli.main(["sweep", "--adversary", adversary, "--delay", delay,
                             "--learner", learner, *flags, "--T", "64", "--T", "1000",
                             "--seeds", "3", "--out", str(out)]) == 0
            with open(out, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))[1:]
            lines += [",".join(c for i, c in enumerate(r) if i != drop) for r in rows]
    return lines


@given(
    pairing=st.sampled_from(CLI_PAIRINGS),
    learner=st.sampled_from(cli.LEARNERS),
    horizon=st.integers(min_value=3, max_value=300),
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_same_pairing_and_seed_replay_identically(pairing, learner, horizon, seed):
    adversary, delay, flags = pairing
    options = dict(zip(flags[::2], flags[1::2]))
    spec = cli.ExperimentSpec(adversary=adversary, delay=delay, learner=learner,
                              horizons=(horizon,), delay_span=int(options.get("--d", 0)),
                              memory_bound=int(options.get("--m", 0)))
    runs = []
    for _ in range(2):
        config, lrn, loss, dly, _ = cli._build_run(spec, horizon, seed)
        tr = core.run_game(config, lrn, loss, dly)
        runs.append((tr, core.policy_regret(tr, loss)))
    assert runs[0] == runs[1]
    assert tr.delay_span == dly.delay_span


def test_every_cli_pairing_matches_golden(tmp_path, capsys):
    golden = Path(__file__).parent / "golden" / "cli_runs.csv"
    lines = cli_run_lines(tmp_path)
    assert len(lines) == 1 + len(CLI_PAIRINGS) * len(cli.LEARNERS) * 2 * 3
    assert lines == golden.read_text(encoding="utf-8").splitlines()


def test_analyze_emits_fit_json(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--adversary", "paritytrap", "--delay", "parity",
                     "--learner", "uniform", "--m", "1",
                     "--T", "64", "--T", "128", "--T", "256",
                     "--seeds", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    rc = cli.main(["analyze", str(out), "--metric", "pseudo_regret"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["metric"] == "pseudo_regret"
    # uniform play on the trap loses about T/4 at odd rounds: near-linear
    assert 0.8 <= payload["alpha"] <= 1.2
    assert payload["r_squared"] > 0.9
    assert [t for t, _ in payload["points"]] == [64, 128, 256]


def test_analyze_bootstrap_interval(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--adversary", "paritytrap", "--delay", "parity",
                     "--learner", "uniform", "--m", "1",
                     "--T", "64", "--T", "128", "--T", "256",
                     "--seeds", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["analyze", str(out), "--metric", "pseudo_regret",
                     "--bootstrap", "50"]) == 0
    payload = json.loads(capsys.readouterr().out)
    lo, hi = payload["alpha_ci_90"]
    assert lo <= payload["alpha"] <= hi


def test_analyze_missing_column_names_it(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("T,foo\n32,1.0\n64,2.0\n128,3.0\n")
    assert cli.main(["analyze", str(bad)]) == 1
    assert "policy_regret" in capsys.readouterr().err


def test_analyze_non_numeric_column_names_it(tmp_path, capsys):
    out = tmp_path / "runs.csv"
    assert cli.main(["run", "--T", "64", "--out", str(out)]) == 0
    assert cli.main(["analyze", str(out), "--metric", "learner"]) == 1
    assert "'learner'" in capsys.readouterr().err


def test_analyze_needs_three_horizons(tmp_path):
    thin = tmp_path / "thin.csv"
    thin.write_text("T,policy_regret\n32,1.0\n64,2.0\n")
    assert cli.main(["analyze", str(thin)]) == 1


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("bootstrap", ["0", "50"])
def test_analyze_rejects_non_finite_values(tmp_path, capsys, value, bootstrap):
    # json.dumps would print NaN or Infinity, which is not JSON
    bad = tmp_path / "bad.csv"
    bad.write_text(f"T,policy_regret\n64,1.0\n128,{value}\n256,3.0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["analyze", str(bad), "--bootstrap", bootstrap]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: values must be finite and strictly positive for a log-log fit\n"


def test_policy_regret_zero_reported_for_trap(tmp_path):
    out = tmp_path / "trap.csv"
    assert cli.main(["run", "--adversary", "paritytrap", "--delay", "parity",
                     "--learner", "uniform", "--m", "1", "--T", "100",
                     "--seeds", "3", "--out", str(out)]) == 0
    rows = read_rows_no_timing(out)
    assert all(float(r["policy_regret"]) == 0.0 for r in rows)
    assert all(r["d"] == "2" and r["tau"] == "1" for r in rows)
