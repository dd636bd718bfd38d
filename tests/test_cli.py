import json
import math

import pytest

from helix_kmd.cli import main
from helix_kmd.config import load_config
from helix_kmd.errors import ConfigError

BASE = """
[config]
variant = StraightPolygon
r = 1.0
h = 1.0
n_outer = 3
periods = 1

[kmd]
modes = 64
dt = 1e-3
t_final = 0.25
stride = 25

[stream]
epsilon = e^-10, e^-20
r = 1.0
h = 1.0
n = 3

[sweep]
threads = 1
"""


@pytest.fixture()
def cfg_file(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text(BASE)
    return p


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[stream]\nwhatever = 3\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[mystery]\nx = 1\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_range_validation(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[kmd]\ndt = -0.1\n")
        with pytest.raises(ConfigError):
            load_config(p)
        p.write_text("[stream]\nepsilon = 0.9\nr = 1\nh = 1\nn = 3\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_log_scale_epsilon_tokens(self, tmp_path):
        p = tmp_path / "ok.ini"
        p.write_text("[stream]\nepsilon = e^-12\nr = 1\nh = 1\nn = 3\n")
        cfg = load_config(p)
        assert cfg.section("stream")["epsilon"][0] == pytest.approx(math.exp(-12))

    def test_exit_code_on_bad_config(self, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_text("[stream]\nbogus = 1\n")
        code = main(["residual-scan", "--config", str(p), "--out", str(tmp_path / "o")])
        assert code == 2


class TestSimulateKmd:
    def test_trajectory_and_speed(self, cfg_file, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate-kmd", "--config", str(cfg_file),
                     "--out", str(out)]) == 0
        report = json.loads((out / "simulation.json").read_text())
        t_final = 0.25
        assert report["final_phase"] == pytest.approx(4.0 * t_final, abs=1e-6)
        assert report["cov_drift_relative_per_time"] < 1e-10
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,j,m,s,re_x,im_x"
        manifest = json.loads((out / "manifest.json").read_text())
        assert "trajectory.csv" in manifest["files"]
        assert manifest["library_version"]


class TestStreamCommands:
    def test_build_stream_artifacts(self, cfg_file, tmp_path):
        out = tmp_path / "bs"
        assert main(["build-stream", "--config", str(cfg_file), "--out", str(out),
                     "--epsilon-override", "e^-15"]) == 0
        ctx = json.loads((out / "context.json").read_text())
        assert ctx["alpha"] == pytest.approx(-2.0)
        assert ctx["eps"] == pytest.approx(math.exp(-15))
        assert len(ctx["vertices"]) == 3
        assert {"mu", "c1", "c2", "d_eps"} <= set(ctx)
        for name in ("psi_star.csv", "h2_correction.csv"):
            assert (out / name).is_file()

    def test_residual_scan_deterministic(self, cfg_file, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        for out in (out1, out2):
            assert main(["residual-scan", "--config", str(cfg_file),
                         "--out", str(out)]) == 0
        a = (out1 / "residual_scan.csv").read_bytes()
        b = (out2 / "residual_scan.csv").read_bytes()
        assert a == b
        lines = a.decode().splitlines()
        assert lines[0] == "epsilon,outer_norm,inner_norm,slope"
        assert len(lines) == 3

    def test_residual_scan_thread_independent(self, cfg_file, tmp_path):
        # a tiny grid keeps the two scans fast; both epsilons run concurrently
        cfg_file.write_text(
            BASE.replace("[stream]\n", "[stream]\ngrid.radial = 64\ngrid.angular = 24\n")
        )
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            assert main(["residual-scan", "--config", str(cfg_file), "--out", str(out),
                         "--threads", threads]) == 0
            outputs.append((out / "residual_scan.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_alpha_solve_json(self, cfg_file, tmp_path):
        out = tmp_path / "as"
        assert main(["alpha-solve", "--config", str(cfg_file), "--out", str(out),
                     "--epsilon-override", "e^-15"]) == 0
        rows = json.loads((out / "alpha_solve.json").read_text())
        assert rows[0]["alpha_leading"] == pytest.approx(-2.0)
        assert {"alpha_root", "correction_ratio", "calA_evaluations",
                "root_method"} <= set(rows[0])

    def test_alpha_solve_thread_independent(self, cfg_file, tmp_path):
        # tiny grid; the two epsilons of the config solve concurrently
        cfg_file.write_text(
            BASE.replace("[stream]\n", "[stream]\ngrid.radial = 64\ngrid.angular = 24\n")
        )
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            assert main(["alpha-solve", "--config", str(cfg_file), "--out", str(out),
                         "--threads", threads]) == 0
            outputs.append((out / "alpha_solve.json").read_bytes())
        assert outputs[0] == outputs[1]
        assert len(json.loads(outputs[0])) == 2

    def test_alpha_solve_ignores_config_alpha(self, cfg_file, tmp_path, monkeypatch):
        # solve_alpha starts at the leading-order speed, so a build at
        # `[stream] alpha` would go unused
        from helix_kmd import stream

        build = stream.build_context
        alphas = []

        def counting(*args, **kwargs):
            alphas.append(kwargs.get("alpha"))
            return build(*args, **kwargs)

        monkeypatch.setattr(stream, "build_context", counting)
        grid = "[stream]\ngrid.radial = 64\ngrid.angular = 24\n"
        counts = []
        for extra in ("", "alpha = -3.0\n"):
            cfg_file.write_text(BASE.replace("[stream]\n", grid + extra))
            alphas.clear()
            out = tmp_path / f"a{len(counts)}"
            assert main(["alpha-solve", "--config", str(cfg_file), "--out", str(out),
                         "--epsilon-override", "e^-20"]) == 0
            assert alphas[0] == pytest.approx(-2.0)
            counts.append(len(alphas))
        assert counts[0] == counts[1]

    def test_subcommand_isolation(self, cfg_file, tmp_path):
        # residual-scan runs in a fresh directory without simulate outputs
        out = tmp_path / "iso"
        assert main(["residual-scan", "--config", str(cfg_file),
                     "--out", str(out), "--epsilon-override", "e^-10"]) == 0
        assert not (out / "trajectory.csv").exists()


class TestLift3d:
    def test_report_and_box(self, cfg_file, tmp_path):
        out = tmp_path / "l3"
        assert main(["lift-3d", "--config", str(cfg_file), "--out", str(out),
                     "--epsilon-override", "e^-20"]) == 0
        rep = json.loads((out / "lift_report.json").read_text())
        assert rep["divergence_defect"] < 1e-5
        assert rep["symmetry_defect_normalized"] < 1e-10
        head = (out / "omega_box.csv").read_text().splitlines()
        assert head[0] == "x,y,z,w1,w2,w3"
        assert len(head) > 100


class TestVerify:
    def test_verify_passes(self, tmp_path, capsys):
        assert main(["verify", "--out", str(tmp_path / "v")]) == 0
        text = capsys.readouterr().out
        assert "[FAIL]" not in text
        assert text.count("[PASS]") >= 15


class TestKmdOverrides:
    def test_circulation_override(self, tmp_path):
        p = tmp_path / "ov.ini"
        p.write_text(BASE.replace("stride = 25",
                                  "stride = 25\nkappa = 2, 2, 2\n"
                                  "alpha_core = 1, 1, 1\nn_filaments = 3"))
        out = tmp_path / "sim"
        assert main(["simulate-kmd", "--config", str(p), "--out", str(out)]) == 0

    def test_length_mismatch_rejected(self, tmp_path):
        p = tmp_path / "ov.ini"
        p.write_text(BASE.replace("stride = 25", "stride = 25\nkappa = 2, 2"))
        assert main(["simulate-kmd", "--config", str(p),
                     "--out", str(tmp_path / "x")]) == 2

    def test_filament_count_mismatch_rejected(self, tmp_path):
        p = tmp_path / "ov.ini"
        p.write_text(BASE.replace("stride = 25", "stride = 25\nn_filaments = 5"))
        assert main(["simulate-kmd", "--config", str(p),
                     "--out", str(tmp_path / "x")]) == 2
