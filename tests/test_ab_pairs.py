"""scripts/ab_pairs.py's summary over canned benchmark result lines."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ab_pairs.py"
spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)

BETTER = {"frames_per_s": "higher", "setup_s": "lower"}


def _line(fps, setup, correct=True):
    return json.dumps({"correct": correct, "attempted": 9, "failed": 0,
                       "metrics": {
                           "frames_per_s": {"value": fps, "unit": "1/s"},
                           "setup_s": {"value": setup, "unit": "s"},
                           "peak_rss_mb": {"value": 60.0, "unit": "MB"}}})


def _result(fps, setup, correct=True):
    return ab_pairs.last_json(f"env {{}}\nworld 1 plain: ...\n"
                              f"{_line(fps, setup, correct)}\n")


def test_last_json_reads_only_the_last_line():
    assert ab_pairs.last_json("x\n" + _line(1.0, 2.0) + "\n")["correct"]
    assert ab_pairs.last_json(_line(1.0, 2.0) + "\ntrailing text") is None
    assert ab_pairs.last_json("") is None


def test_summary_gives_medians_quartiles_and_wins():
    pairs = [(_result(100.0, 0.80), _result(110.0, 0.30)),
             (_result(120.0, 0.90), _result(100.0, 0.40)),
             (_result(110.0, 1.00), _result(130.0, 0.35))]
    lines, ok = ab_pairs.summarize(pairs, BETTER)
    assert ok
    rows = {line.split()[0]: line for line in lines[1:]}
    assert rows["frames_per_s"].endswith("2/3 (higher is better)")
    assert rows["setup_s"].endswith("3/3 (lower is better)")
    assert "110 [105, 115]" in rows["frames_per_s"]
    assert "0.9 [0.85, 0.95]" in rows["setup_s"]
    assert "0.35 [0.325, 0.375]" in rows["setup_s"]
    # No declared direction: no win count.
    assert rows["peak_rss_mb"].endswith("  -")


def test_an_incorrect_or_missing_run_fails_the_summary():
    lines, ok = ab_pairs.summarize(
        [(_result(100.0, 0.8), _result(100.0, 0.3, correct=False))], BETTER)
    assert not ok and lines[-1] == "not correct: pair 0 change"
    lines, ok = ab_pairs.summarize([(None, _result(100.0, 0.3))], BETTER)
    assert not ok and lines[-1] == "not correct: pair 0 parent"
    rows = {line.split()[0]: line for line in lines[1:-1]}
    assert rows["setup_s"].endswith("0/0 (lower is better)")


def test_directions_come_from_the_checkouts_benchmark_file():
    better = ab_pairs.directions(SCRIPT.parents[1])
    assert better["frames_per_s"] == "higher"
    assert better["setup_s"] == "lower"


def test_claim_stands_only_on_nine_tenths_of_wins_beyond_the_spread():
    # frames_per_s: the change wins 9 of 10 pairs by about 20 1/s, far
    # beyond the parent's quartile spread. setup_s: the change wins every
    # pair, but by 0.001 s against a parent spread of about 0.1 s.
    parent_fps = [100.0, 102.0, 98.0, 101.0, 99.0,
                  100.0, 103.0, 97.0, 100.0, 101.0]
    change_fps = [120.0, 121.0, 119.0, 122.0, 118.0,
                  120.0, 121.0, 119.0, 120.0, 96.0]
    parent_setup = [0.5, 0.7, 0.6, 0.5, 0.7, 0.6, 0.5, 0.7, 0.6, 0.6]
    pairs = [(_result(pf, ps), _result(cf, ps - 0.001))
             for pf, cf, ps in zip(parent_fps, change_fps, parent_setup)]
    lines, ok = ab_pairs.summarize(pairs, BETTER)
    assert ok
    assert lines[0].split()[-3:] == ["claim", "change", "won"]
    rows = {line.split()[0]: line.split() for line in lines[1:]}
    assert rows["frames_per_s"][-5:] == ["stands", "9/10", "(higher", "is",
                                         "better)"]
    assert rows["setup_s"][-5:] == ["fails", "10/10", "(lower", "is",
                                    "better)"]
    assert rows["peak_rss_mb"][-2:] == ["-", "-"]
    # The same wins over fewer than 10 pairs, or on 8 of 10, do not stand.
    lines, _ = ab_pairs.summarize(pairs[:9], BETTER)
    assert lines[1].split()[-5] == "fails"
    pairs[0] = (_result(100.0, 0.5), _result(90.0, 0.499))
    lines, _ = ab_pairs.summarize(pairs, BETTER)
    assert lines[1].split()[-5:-3] == ["fails", "8/10"]
