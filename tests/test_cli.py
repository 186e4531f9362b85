"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestDevices:
    def test_lists_everything(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "oneplus8pro" in out
        assert "gboard" in out
        assert "chase" in out


class TestSteal:
    def test_end_to_end_exact(self, capsys):
        code = main(["steal", "hunterpw12", "--seed", "7"])
        out = capsys.readouterr().out
        assert "inferred" in out
        assert code == 0

    def test_unknown_phone_is_usage_error(self, capsys):
        # registry validation happens at argparse time: exit 2, no traceback
        with pytest.raises(SystemExit) as excinfo:
            main(["steal", "x" * 8, "--phone", "iphone15"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown phone 'iphone15'" in err


class TestTrainAttack:
    def test_train_then_attack_roundtrip(self, tmp_path, capsys):
        store_path = tmp_path / "store.json"
        assert main(["train", str(store_path)]) == 0
        assert store_path.exists()
        code = main(["attack", str(store_path), "secretpw1", "--seed", "5"])
        out = capsys.readouterr().out
        assert "recognized" in out
        assert code in (0, 1)  # exact or guess-recovered vs not

    def test_attack_with_guessing_recovers(self, tmp_path, capsys):
        store_path = tmp_path / "store.json"
        main(["train", str(store_path)])
        # run a batch; at least one should succeed (exit 0)
        codes = [
            main(["attack", str(store_path), "pw" + "abcdef"[i] * 6, "--seed", str(40 + i)])
            for i in range(3)
        ]
        assert 0 in codes


class TestSurvey:
    def test_survey_prints_chart(self, capsys):
        assert main(["survey", "--keyboard", "gboard", "--repeats", "3"]) == 0
        out = capsys.readouterr().out
        assert "weakest keys" in out
        assert "overall per-key accuracy" in out

    def test_unknown_keyboard(self, capsys):
        # same argparse-time registry validation as steal/attack/fleet
        with pytest.raises(SystemExit) as excinfo:
            main(["survey", "--keyboard", "nokia3310"])
        assert excinfo.value.code == 2
        assert "unknown keyboard 'nokia3310'" in capsys.readouterr().err


class TestReport:
    def test_report_writes_figures(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "out")]) == 0
        out_dir = tmp_path / "out"
        assert (out_dir / "summary.md").exists()
        assert (out_dir / "fig17_accuracy.txt").exists()
        assert (out_dir / "table2_baseline.txt").exists()
        content = (out_dir / "fig17_accuracy.txt").read_text()
        assert "Fig 17" in content

    def test_report_scale_validation(self, tmp_path):
        import pytest as _pytest

        from repro.analysis.report import generate_report

        with _pytest.raises(ValueError):
            generate_report(tmp_path / "x", scale=0)


class TestLifecycle:
    def test_manifest_counts_one_session_of_its_segments(self, tmp_path, capsys):
        """The arc is one runtime session streaming ``--segments``
        credential entries: the manifest's meta says both, and its
        session count agrees with the runtime's own counter."""
        import json

        path = tmp_path / "lifecycle.json"
        code = main(["lifecycle", "--segments", "2", "--metrics-out", str(path)])
        assert code in (0, 1)
        assert "recovery ratio" in capsys.readouterr().out
        manifest = json.loads(path.read_text())
        counters = manifest["metrics"]["counters"]
        assert manifest["meta"]["sessions"] == counters["runtime.sessions_completed"] == 1
        assert manifest["meta"]["segments"] == 2
