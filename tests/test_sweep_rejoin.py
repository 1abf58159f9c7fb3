"""scripts/sweep_rejoin.py: one role cut from both peers, then healed."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "sweep_rejoin.py"
spec = importlib.util.spec_from_file_location("sweep_rejoin", SCRIPT)
sweep_rejoin = importlib.util.module_from_spec(spec)
spec.loader.exec_module(sweep_rejoin)


def test_short_and_long_cuts_of_every_role_raise_nothing(capsys):
    # D = 300 ms stays under the detector's 600 ms horizon; at 700 ms the
    # cut role is declared gone, takes over or hands duties back, and
    # rejoins. Only a tr cut may end diverged (the open rejoin case).
    status = sweep_rejoin.main(["--worlds", "loop", "--seeds", "2",
                                "--durations", "300,700"])
    lines = capsys.readouterr().out.splitlines()
    assert status == 0
    assert lines[-1].startswith("6 runs, 0 raised")
    # Summary rows: world, cut role, runs, raised, diverged.
    rows = {line.split()[1]: line.split()[2:]
            for line in lines if line.startswith("loop ")}
    assert {role: cells[:2] for role, cells in rows.items()} == {
        "tr": ["2", "0"], "lm": ["2", "0"], "lc": ["2", "0"]}
    assert rows["lm"][2] == rows["lc"][2] == "0"
    for line in lines:
        if line.startswith("diverged"):
            assert "cut tr D=700 ms" in line


def test_a_run_that_raises_is_printed_and_fails_the_sweep(capsys, monkeypatch):
    def crash(spec, topology):
        raise RuntimeError("boom")

    monkeypatch.setattr(sweep_rejoin, "run_distributed", crash)
    status = sweep_rejoin.main(["--worlds", "loop", "--seeds", "1",
                                "--roles", "lm", "--durations", "500"])
    out = capsys.readouterr().out
    assert status == 1
    assert "raised   loop         seed 1   cut lm D=500 ms: RuntimeError: boom" in out
    assert out.splitlines()[-1] == "1 runs, 1 raised, 0 diverged"


def test_duration_and_seed_arguments():
    assert sweep_rejoin._durations("300:400:50") == [300.0, 350.0, 400.0]
    assert sweep_rejoin._durations("300,700") == [300.0, 700.0]
    assert sweep_rejoin._int_list("1-3") == [1, 2, 3]
    assert sweep_rejoin._int_list("2,5") == [2, 5]
