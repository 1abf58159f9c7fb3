"""scripts/diff_fingerprints.py over hand-made benchmark result files."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "diff_fingerprints.py"
spec = importlib.util.spec_from_file_location("diff_fingerprints", SCRIPT)
diff_fingerprints = importlib.util.module_from_spec(spec)
spec.loader.exec_module(diff_fingerprints)


def _fingerprint(ate=0.0123456789, digest="ab" * 16):
    return {"ate_m": ate, "out_bytes": 1000, "messages_out": 40,
            "simnet_events": 300, "kf_roundtrip_ms": [50.0, 62.5],
            "consistency_s": 0.0, "track_failures": 0,
            "digests": {"tr": digest, "lm": digest}}


def _write(path, runs):
    path.write_text(json.dumps({"runs": [
        {"world_seed": seed, "mode": mode, "fingerprint": fp}
        for seed, mode, fp in runs]}))
    return str(path)


def test_identical_files_exit_zero(tmp_path, capsys):
    runs = [(1, "plain", _fingerprint()), (1, "oracle", _fingerprint()),
            (1000004, "plain", _fingerprint())]
    a = _write(tmp_path / "a.json", runs)
    b = _write(tmp_path / "b.json", list(reversed(runs)))
    assert diff_fingerprints.main([a, b]) == 0
    assert "0 difference(s) over 3" in capsys.readouterr().out


def test_last_bit_of_ate_and_one_digest_are_reported(tmp_path, capsys):
    ate = 0.0123456789
    a = _write(tmp_path / "a.json", [(1, "plain", _fingerprint(ate))])
    moved = _fingerprint(ate + 2e-18)
    moved["digests"]["lm"] = "cd" * 16
    moved["kf_roundtrip_ms"][1] = 62.75
    b = _write(tmp_path / "b.json", [(1, "plain", moved)])
    assert diff_fingerprints.main([a, b]) == 1
    out = capsys.readouterr().out
    assert ".ate_m:" in out and ".digests.lm:" in out
    assert ".kf_roundtrip_ms: 1 of 2 items differ, first [1]" in out
    assert ".digests.tr" not in out


def test_runs_matched_on_seed_and_mode(tmp_path, capsys):
    a = _write(tmp_path / "a.json", [(1, "plain", _fingerprint())])
    b = _write(tmp_path / "b.json", [(1, "fault_free", _fingerprint())])
    assert diff_fingerprints.main([a, b]) == 1
    out = capsys.readouterr().out
    assert "world 1 plain: only in A" in out
    assert "world 1 fault_free: only in B" in out
