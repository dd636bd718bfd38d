import ast
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from helix_kmd import cli
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
"""


@pytest.fixture()
def cfg_file(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text(BASE)
    return p


def _without(section: str, key: str) -> str:
    """BASE with `key` of `[section]` left out."""
    lines, current = [], None
    for line in BASE.splitlines():
        if line.startswith("["):
            current = line.strip("[]")
        elif current == section and line.split("=")[0].strip() == key:
            continue
        lines.append(line)
    return "\n".join(lines) + "\n"


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        # delta1 and [kmd] periods are retired keys
        for text in ("[stream]\nwhatever = 3\n", "[stream]\ndelta1 = 0.1\n",
                     "[kmd]\nperiods = 1\n"):
            p.write_text(text)
            with pytest.raises(ConfigError, match="unknown key"):
                load_config(p)

    @pytest.mark.parametrize("line", ["kappa = 2, 2, 2", "alpha_core = 1, 1, 1",
                                      "n_filaments = 3", "collision_threshold = 1e-6"])
    def test_retired_kmd_keys_exit_2(self, tmp_path, capsys, line):
        # the configured family fixes the circulations, core constants and
        # filament count, and simulate sets its own collision threshold
        p = tmp_path / "retired.ini"
        p.write_text(BASE.replace("stride = 25", f"stride = 25\n{line}"))
        out = tmp_path / "o"
        assert main(["simulate-kmd", "--config", str(p), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: unknown key '{line.split(' = ')[0]}' in section [kmd]"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("line", ["nu_bar = nan", "a_decay = inf"])
    def test_retired_stream_keys_exit_2(self, tmp_path, capsys, line):
        # the residual norm weights are fixed, so their former keys are
        # unknown whatever their value
        p = tmp_path / "retired.ini"
        p.write_text(BASE.replace("n = 3", f"n = 3\n{line}"))
        out = tmp_path / "o"
        assert main(["residual-scan", "--config", str(p), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: unknown key '{line.split(' = ')[0]}' in section [stream]"
        ]
        assert not out.exists()

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        # [sweep] is retired: the thread count comes from --threads only
        for text in ("[mystery]\nx = 1\n", "[sweep]\nthreads = 1\n"):
            p.write_text(text)
            with pytest.raises(ConfigError, match="unknown section"):
                load_config(p)

    def test_range_validation(self, tmp_path):
        p = tmp_path / "bad.ini"
        stream = "[stream]\nepsilon = e^-20\nr = 1\nh = 1\nn = 3\n"
        for text in ("[kmd]\ndt = -0.1\n", "[stream]\nepsilon = 0.9\nr = 1\nh = 1\nn = 3\n",
                     "[stream]\nepsilon = e^1000\nr = 1\nh = 1\nn = 3\n",
                     stream + "grid.radial = 3\n", stream + "grid.angular = 0\n",
                     stream + "grid.rho_min = 0\n", stream + "grid.rho_min = 30\n",
                     stream + "grid.rho_max = 1e-7\n", stream + "out_grid.n = 0\n",
                     "[grid]\nnx = 0\n", "[grid]\nny = 0\n", "[grid]\nnz = 0\n",
                     "[config]\nvariant = PolygonHelix\nperiods = 0\n",
                     # a central filament without circulation
                     "[config]\nvariant = PolygonWithCenter\nkappa0 = 0\n",
                     # 100 steps that stride 7 does not divide; 100.05 steps;
                     # a step longer than the run
                     "[kmd]\ndt = 1e-3\nt_final = 0.1\nstride = 7\n",
                     "[kmd]\ndt = 1e-3\nt_final = 0.10005\nstride = 10\n",
                     "[kmd]\ndt = 0.2\nt_final = 0.1\n"):
            p.write_text(text)
            with pytest.raises(ConfigError):
                load_config(p)
        # NaN and inf are rejected where they are parsed, with the key named
        for text, key in ((stream + "out_grid.extent = nan\n", "[stream] out_grid.extent"),
                          (stream + "alpha = nan\n", "[stream] alpha"),
                          (stream.replace("r = 1", "r = nan"), "[stream] r"),
                          (stream.replace("h = 1", "h = inf"), "[stream] h"),
                          (stream.replace("h = 1", "h = -inf"), "[stream] h"),
                          ("[grid]\nextent = nan\n", "[grid] extent"),
                          ("[kmd]\ndt = nan\nt_final = 0.1\n", "[kmd] dt")):
            p.write_text(text)
            with pytest.raises(ConfigError, match=rf"^bad value for \{key}: "):
                load_config(p)
        # the norm weights are fixed: their former keys are unknown
        p.write_text(stream + "nu_bar = 3\n")
        with pytest.raises(ConfigError, match=r"^unknown key 'nu_bar' in section \[stream\]$"):
            load_config(p)
        # the smallest sizes are accepted
        p.write_text(stream + "grid.radial = 4\ngrid.angular = 1\nout_grid.n = 1\n"
                     "[grid]\nnx = 1\nny = 1\nnz = 1\n")
        load_config(p)

    @pytest.mark.parametrize("subcommand,section,key,value", [
        ("build-stream", "stream", "out_grid.extent", "nan"),
        ("build-stream", "stream", "r", "nan"),
        ("build-stream", "stream", "h", "inf"),
        ("build-stream", "stream", "alpha", "nan"),
        ("lift-3d", "grid", "extent", "nan"),
        ("simulate-kmd", "kmd", "dt", "nan"),
    ])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, subcommand, section, key, value):
        text = _without(section, key)
        if f"[{section}]" not in text:
            text += f"\n[{section}]\n"
        p = tmp_path / "nonfinite.ini"
        p.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n"))
        out = tmp_path / "o"
        assert main([subcommand, "--config", str(p), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: bad value for [{section}] {key}: {value}"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("subcommand,section,key", [
        ("build-stream", "stream", "h"),
        ("build-stream", "stream", "r"),
        ("residual-scan", "stream", "n"),
        ("alpha-solve", "stream", "r"),
        ("lift-3d", "stream", "h"),
        ("simulate-kmd", "kmd", "t_final"),
        ("simulate-kmd", "kmd", "dt"),
        ("simulate-kmd", "config", "r"),
        ("simulate-kmd", "config", "n_outer"),
    ])
    def test_missing_required_key_exits_2(self, tmp_path, capsys, subcommand, section, key):
        p = tmp_path / "missing.ini"
        p.write_text(_without(section, key))
        assert main([subcommand, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: missing required key '{key}' in section [{section}]"
        ]

    def test_readme_example_config_loads(self, tmp_path):
        # the README's example config follows the schema
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        p = tmp_path / "readme.ini"
        p.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
        assert set(load_config(p).sections) == {"config", "kmd", "stream", "grid"}

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

    @pytest.mark.parametrize("value,error", [
        ("abc", "bad --epsilon-override: abc"),
        ("e^x", "bad --epsilon-override: e^x"),
        ("e^1000", "bad --epsilon-override: e^1000"),
        (",", "no epsilon values given"),
        ("", "no epsilon values given"),
        ("e^-20,", None),
    ])
    def test_epsilon_override_values(self, tmp_path, capsys, value, error):
        # parsed like [stream] epsilon: empty items are dropped
        p = tmp_path / "tiny.ini"
        p.write_text(BASE.replace("[stream]\n", "[stream]\ngrid.radial = 64\n"
                                  "grid.angular = 24\nout_grid.n = 3\n"))
        out = tmp_path / "o"
        code = main(["build-stream", "--config", str(p), "--out", str(out),
                     "--epsilon-override", value])
        err = capsys.readouterr().err.splitlines()
        if error is None:
            assert (code, err) == (0, [])
            assert json.loads((out / "context.json").read_text())["eps"] == math.exp(-20.0)
        else:
            assert (code, err) == (2, [f"config error: {error}"])

    @pytest.mark.parametrize("threads", ["0", "-3"])
    @pytest.mark.parametrize("subcommand", ["residual-scan", "alpha-solve", "verify"])
    def test_threads_below_one_exit_2(self, cfg_file, tmp_path, capsys, subcommand, threads):
        code = main([subcommand, "--config", str(cfg_file), "--out", str(tmp_path / "o"),
                     "--threads", threads])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: --threads must be >= 1, got {threads}"
        ]
        assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize("subcommand, out, reason", [
        ("verify", "file", "File exists"),
        ("build-stream", "file/sub", "Not a directory"),
    ])
    def test_out_that_cannot_be_created_exits_2(self, cfg_file, tmp_path, capsys,
                                                monkeypatch, subcommand, out, reason):
        (tmp_path / "file").write_text("")
        ran = []
        monkeypatch.setitem(cli._COMMANDS, subcommand, lambda *args: ran.append(args))
        out = tmp_path / out
        code = main([subcommand, "--config", str(cfg_file), "--out", str(out)])
        assert (code, ran) == (2, [])
        assert capsys.readouterr().err.splitlines() == [
            f"config error: cannot create --out {out}: {reason}"
        ]


class TestSimulateKmd:
    @pytest.mark.parametrize("change,error", [
        ("stride = 7", "stride must divide the number of steps"),
        ("t_final = 0.25005", "t_final must be an integer number of steps"),
        ("dt = 0.5", "need 0 < dt <= t_final"),
    ])
    def test_step_count_errors_exit_2(self, tmp_path, capsys, change, error):
        key = change.split(" = ")[0]
        p = tmp_path / "steps.ini"
        p.write_text(_without("kmd", key).replace("[kmd]\n", f"[kmd]\n{change}\n"))
        out = tmp_path / "o"
        assert main(["simulate-kmd", "--config", str(p), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: [kmd] {error}"]
        assert not out.exists()

    def test_zero_center_circulation_exits_2(self, tmp_path, capsys):
        p = tmp_path / "center.ini"
        p.write_text(BASE.replace("variant = StraightPolygon",
                                  "variant = PolygonWithCenter\nkappa0 = 0"))
        out = tmp_path / "o"
        assert main(["simulate-kmd", "--config", str(p), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: [config] kappa0 must be nonzero"
        ]
        assert not out.exists()

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
        assert set(ctx) == {"eps", "log_eps", "mu", "log_mu", "alpha", "c1", "c2",
                            "delta", "d_eps", "vertices"}
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

    def test_pool_factors_each_cached_system_once(self, cfg_file, tmp_path, monkeypatch):
        # both pool threads ask for the same mode and knot factors; a slowed
        # factorization keeps the first one busy while the second asks
        from helix_kmd import elliptic

        cfg_file.write_text(
            BASE.replace("[stream]\n", "[stream]\ngrid.radial = 64\ngrid.angular = 24\n")
        )
        built = []
        factor = elliptic._Banded.__init__

        def slow_factor(self, bands):
            built.append(bands.shape)
            time.sleep(0.05)
            factor(self, bands)

        monkeypatch.setattr(elliptic._Banded, "__init__", slow_factor)
        caches = (elliptic._mode_factor, elliptic._knot_factor)
        for cache in caches:
            cache.cache_clear()
        assert main(["residual-scan", "--config", str(cfg_file), "--out", str(tmp_path / "o"),
                     "--threads", "2"]) == 0
        assert len(built) == sum(cache.cache_info().currsize for cache in caches)

    def test_alpha_solve_json(self, cfg_file, tmp_path):
        out = tmp_path / "as"
        assert main(["alpha-solve", "--config", str(cfg_file), "--out", str(out),
                     "--epsilon-override", "e^-15"]) == 0
        rows = json.loads((out / "alpha_solve.json").read_text())
        assert rows[0]["alpha_leading"] == pytest.approx(-2.0)
        assert {"alpha_root", "correction_ratio", "calA_evaluations", "field_builds",
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
            ctx = build(*args, **kwargs)
            alphas.append(ctx.alpha)
            return ctx

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

    def test_out_of_band_stream_config_exits_3(self, tmp_path):
        # R = 3/sqrt(20) > 0.45: build_context rejects the geometry
        cfg = tmp_path / "wide.ini"
        cfg.write_text("[stream]\nepsilon = e^-20\nr = 3.0\nh = 1.0\nn = 3\n")
        src = Path(__file__).resolve().parents[1] / "src"
        run = subprocess.run(
            [sys.executable, "-m", "helix_kmd", "alpha-solve", "--config", str(cfg),
             "--out", str(tmp_path / "out")],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
            timeout=120,
        )
        assert run.returncode == 3
        assert "Traceback" not in run.stderr
        assert run.stderr.splitlines() == [
            "numerical failure: polygon radius r/sqrt|log eps| too close to the cutoff"
        ]

    def test_subcommand_isolation(self, cfg_file, tmp_path):
        # residual-scan runs in a fresh directory without simulate outputs
        out = tmp_path / "iso"
        assert main(["residual-scan", "--config", str(cfg_file),
                     "--out", str(out), "--epsilon-override", "e^-10,e^-20"]) == 0
        assert not (out / "trajectory.csv").exists()

    @pytest.mark.parametrize("override", ["e^-20", "e^-20,e^-20"])
    def test_residual_scan_needs_two_epsilons(self, cfg_file, tmp_path, capsys, override):
        # a slope through fewer than two distinct points would be nan
        out = tmp_path / "one"
        assert main(["residual-scan", "--config", str(cfg_file), "--out", str(out),
                     "--epsilon-override", override]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: residual-scan needs at least two distinct epsilon values"
        ]
        assert not (out / "residual_scan.csv").exists()

    @pytest.mark.filterwarnings("error")      # one stderr line: no overflow warning
    @pytest.mark.parametrize("stream, message", [
        # an admitted speed (|alpha| <= 66 here) whose frozen rotation term
        # switches F on past overflow in the outer region: the scan would
        # write an infinite norm and a nan slope
        ("epsilon = e^-41.9, e^-42\nr = 0.5\nh = 2\nn = 3\nalpha = -38\n",
         "outer residual norm is not finite"),
        # at e^-10 with N = 4 the vorticity cutoff is fully on nowhere on the
        # inner sup grid, so the inner norm has no points to take its sup over
        ("epsilon = e^-10, e^-20\nr = 1\nh = 1\nn = 4\n",
         "cutoff never saturates on the inner grid"),
        # polar grids that miss the defect band or the vertices (R = 0.2236): the
        # solve would run and give wrong norms
        ("epsilon = e^-20, e^-40\nr = 1\nh = 1\nn = 3\ngrid.rho_max = 0.8\n",
         "polar grid [1e-06, 0.8] must have rho_min < R = 0.2236 and rho_max > 1.02"),
        ("epsilon = e^-20, e^-40\nr = 1\nh = 1\nn = 3\ngrid.rho_min = 0.6\n",
         "polar grid [0.6, 20] must have rho_min < R = 0.2236 and rho_max > 1.02"),
    ], ids=["outer-overflow", "unsaturated", "grid-inside-defect-band", "grid-outside-vertices"])
    def test_norm_failure_exits_3(self, tmp_path, capsys, stream, message):
        cfg = tmp_path / "fail.ini"
        cfg.write_text(f"[stream]\n{stream}grid.radial = 64\ngrid.angular = 24\n")
        out = tmp_path / "fail"
        assert main(["residual-scan", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == [f"numerical failure: {message}"]
        assert not (out / "residual_scan.csv").exists()


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
        report = json.loads((tmp_path / "v" / "verify.json").read_text())
        assert report["failures"] == 0
        checks = report["checks"]
        assert len(checks) == text.count("[PASS]")
        assert all(set(c) == {"name", "passed", "detail"} and c["passed"] for c in checks)
        assert "bubble mass 8 pi" in [c["name"] for c in checks]


@pytest.mark.parametrize("module", [m.name for m in pkgutil.iter_modules(
    importlib.import_module("helix_kmd").__path__) if m.name != "__main__"])
def test_all_names_exist(module):
    # `from helix_kmd.<module> import *` finds every name its __all__ lists
    mod = importlib.import_module(f"helix_kmd.{module}")
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


def test_imports_sit_at_module_top():
    # a module imports what it uses when it loads; the CLI defers only what
    # one command alone runs: verify (with linear_theory) and the sweep pool
    src = Path(importlib.import_module("helix_kmd").__file__).parent
    deferred = []
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            deferred += [
                (path.stem, getattr(top, "name", None), node.module)
                for node in ast.walk(top)
                if node is not top and isinstance(node, (ast.Import, ast.ImportFrom))
            ]
    assert deferred == [("cli", "_map", "concurrent.futures"),
                        ("cli", "cmd_verify", "verify")]


def _run_cli_script(tmp_path, body: str) -> subprocess.CompletedProcess:
    """Run `body` in a fresh interpreter on src/ after the tiny-grid CLI runs.

    `body` starts with `import sys` done and sees `commands`, the argv
    lists of tiny-grid residual-scan, alpha-solve, lift-3d and verify runs.
    """
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(
        BASE.replace("[stream]\n", "[stream]\ngrid.radial = 64\ngrid.angular = 24\n")
    )
    out = str(tmp_path / "out")
    commands = [
        ["residual-scan", "--config", str(cfg), "--out", out],
        ["alpha-solve", "--config", str(cfg), "--out", out],
        ["lift-3d", "--config", str(cfg), "--out", out, "--epsilon-override", "e^-20"],
        ["verify", "--out", out],
    ]
    script = f"import sys\ncommands = {commands!r}\n" + textwrap.dedent(body)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)


def test_cli_import_skips_pool_and_logging(tmp_path):
    """Importing the package loads no submodule; importing the CLI loads
    neither concurrent.futures, logging, verify nor linear_theory."""
    run = _run_cli_script(tmp_path, """
        import helix_kmd

        print(sorted(m for m in sys.modules if m.startswith("helix_kmd.")))
        import helix_kmd.cli

        print(sorted(m for m in ("concurrent.futures", "logging", "helix_kmd.verify",
                                 "helix_kmd.linear_theory") if m in sys.modules))
    """)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["[]", "[]"]


def test_cli_runs_without_heavy_scipy(tmp_path):
    """No scipy module is loaded by the import or by any subcommand."""
    run = _run_cli_script(tmp_path, """
        import helix_kmd.cli as cli

        def scipy_modules():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

        print("loaded after import", scipy_modules())
        for argv in commands:
            code = cli.main(argv)
            print("loaded after", argv[0], code, scipy_modules())
    """)
    assert run.returncode == 0, run.stderr
    assert [line for line in run.stdout.splitlines() if line.startswith("loaded")] == [
        "loaded after import []", "loaded after residual-scan 0 []",
        "loaded after alpha-solve 0 []", "loaded after lift-3d 0 []", "loaded after verify 0 []",
    ]


def test_cli_runs_with_scipy_unimportable(tmp_path):
    """Every subcommand and solve_alpha's bracket fallback run where scipy cannot load."""
    run = _run_cli_script(tmp_path, """
        import math
        from types import SimpleNamespace

        class RefuseScipy:
            def find_spec(self, name, path=None, target=None):
                if name == "scipy" or name.startswith("scipy."):
                    raise ModuleNotFoundError(f"No module named {name!r}")
                return None

        sys.meta_path.insert(0, RefuseScipy())
        import helix_kmd.cli as cli
        from helix_kmd import stream

        for argv in commands:
            if cli.main(argv) != 0:
                sys.exit(f"{argv[0]} failed")
        # flat between a* = 0 and the estimate 1: the secant stalls
        stream.calA = lambda alpha, ctx: min(1.0, 7.0 - 4.0 * alpha)
        stub = dict(leading_alpha=lambda: 0.0, r=1.0, sqrt_log=1.0, abs_log_eps=20.0,
                    loglog=math.log(20.0), eps=math.exp(-20.0), h=1.0, n=3, delta=0.3,
                    grid=None)
        # the context solve_alpha builds at its root is the stub at that speed
        stream.build_context = lambda *args, alpha, **kwargs: SimpleNamespace(**stub, alpha=alpha)
        root, diag = stream.solve_alpha(SimpleNamespace(**stub, alpha=0.0))
        if diag["root_method"] != "bracket" or abs(root - 1.75) > 1e-8:
            sys.exit(f"fallback gave {root} by {diag['root_method']}")
    """)
    assert run.returncode == 0, run.stderr
