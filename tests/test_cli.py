import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import dirgaf
from dirgaf import __version__, cli
from dirgaf.cli import (
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_VERSION,
    ConfigError,
    ExperimentConfig,
    file_sha256,
    main,
    parse_config_file,
    write_csv,
)
from dirgaf.errors import ResourceCapError, UndefinedEstimatorError
from dirgaf.series_eval import DEFAULT_TRUNCATION_CAP


def run_cli(*args):
    return main(list(args))


class TestConfigParsing:
    def test_file_with_comments_and_sections(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# comment\n"
            "experiment = zeta-check\n"
            "coefficients.kind = circle  # inline comment\n"
            "beta = 0\n"
            "s = 1e-3\n"
            "seed = 5\n"
        )
        raw = parse_config_file(cfg)
        assert raw["experiment"] == "zeta-check"
        assert raw["coefficients.kind"] == "circle"

    def test_malformed_line_reports_line_number(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("experiment = clt\nnot a key value pair\n")
        with pytest.raises(ConfigError, match="bad.cfg:2"):
            parse_config_file(cfg)

    def test_missing_required_key_names_it(self):
        with pytest.raises(ConfigError, match="'alpha'"):
            ExperimentConfig.from_raw({"experiment": "clt", "s": "1e-3", "replicates": "600", "seed": "1"})

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            ExperimentConfig.from_raw({"experiment": "nope", "seed": "1"})

    def test_missing_key_exit_code(self, tmp_path, capsys):
        code = run_cli("run", "--experiment", "clt", "--s", "2e-3",
                       "--replicates", "600", "--seed", "1",
                       "--output-dir", str(tmp_path))
        assert code == EXIT_CONFIG
        assert "alpha" in capsys.readouterr().err

    def test_bad_model_exit_code(self, tmp_path, capsys):
        code = run_cli("run", "--experiment", "zeta-check", "--beta", "0", "--s", "1e-3",
                       "--seed", "1", "--model", "cauchy", "--output-dir", str(tmp_path))
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("flag, value", [
        ("--threads", "abc"), ("--threads", "0"), ("--threads", "-2"), ("--threads", "1.5"),
        ("--seed", "-1"), ("--seed", str(2 ** 64)), ("--seed", "x"), ("--seed", "7.5"),
    ])
    def test_invalid_threads_or_seed_exit_code(self, tmp_path, capsys, flag, value):
        args = {"--threads": "1", "--seed": "1", flag: value}
        code = run_cli("run", "--experiment", "zeta-check", "--beta", "0", "--s", "1e-2",
                       "--output-dir", str(tmp_path), *(tok for kv in args.items() for tok in kv))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and flag[2:] in err and "Traceback" not in err

    def test_seed_and_threads_bounds(self):
        base = {"experiment": "zeta-check", "beta": "0", "s": "1e-2"}
        cfg = ExperimentConfig.from_raw({**base, "seed": str(2 ** 64 - 1), "threads": "3"})
        assert (cfg.seed, cfg.threads) == (2 ** 64 - 1, 3)
        assert ExperimentConfig.from_raw({**base, "seed": "0"}).threads == 1

    def test_integer_keys_reject_fractions(self):
        raw = {"experiment": "zeros-real", "s": "1e-3", "seed": "1", "replicates": "3", "head_n": "1e3"}
        cfg = ExperimentConfig.from_raw(raw)
        assert cfg.values["head_n"] == 1000
        zeta = ExperimentConfig.from_raw({"experiment": "zeta-check", "beta": "0", "s": "1e-2", "seed": "1"})
        assert zeta.values["k_cut"] == 10 ** 5
        with pytest.raises(ConfigError, match="'head_n' must be an integer"):
            ExperimentConfig.from_raw({**raw, "head_n": "2.7"})
        # replicates are checked when the config is built
        for bad in ("2.7", "inf", "nan", "abc"):
            with pytest.raises(ConfigError, match="'replicates' must be an integer"):
                ExperimentConfig.from_raw({**raw, "replicates": bad})

    def test_fractional_replicates_exit_code(self, tmp_path, capsys):
        code = run_cli("run", "--experiment", "zeros-real", "--model", "rademacher", "--s", "1e-2",
                       "--replicates", "2.7", "--seed", "1", "--head-n", "256",
                       "--output-dir", str(tmp_path))
        assert code == EXIT_CONFIG
        assert "replicates" in capsys.readouterr().err

    def test_unknown_series_tail_exit_code(self, tmp_path, capsys):
        # an unknown tail must not run silently without the Gaussian completion
        code = run_cli("run", "--experiment", "clt", "--model", "rademacher", "--alpha", "0", "--s", "2e-3",
                       "--replicates", "600", "--seed", "1", "--head-n", "256",
                       "--set", "series.tail=gausian", "--output-dir", str(tmp_path))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'gausian'" in err

    def test_evaluation_beyond_r_max_exit_code(self, tmp_path, capsys, monkeypatch):
        # a sampler sized for half the rectangle's reach: its paths reject the rectangle's corners
        sampler = cli.ScaledSeriesSampler
        monkeypatch.setattr(cli, "ScaledSeriesSampler", lambda *a, r_max, **k: sampler(*a, r_max=0.5 * r_max, **k))
        code = run_cli("run", "--experiment", "zeros-complex", "--model", "gauss-complex", "--s", "1e-3",
                       "--replicates", "1", "--seed", "1", "--head-n", "256", "--output-dir", str(tmp_path))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "r_max" in err

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        code = run_cli("run", "--experiment", "gaf-sample", "--alpha", "0", "--seed", "1",
                       "--set", "grid=1;1", "--output-dir", str(tmp_path))
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "DegenerateGridError" in err

    @pytest.mark.parametrize("args, code, needle", [
        (("--experiment", "nr-dist", "--model", "gauss-complex", "--r", "0.5", "--replicates", "2", "--s", "1e300"),
         EXIT_NUMERICAL, "UnresolvableBoundaryError"),
        (("--experiment", "nr-dist", "--model", "gauss-complex", "--r", "0.5", "--replicates", "2", "--s", "1e-300"),
         EXIT_CONFIG, "overflow"),
        (("--experiment", "zeros-real", "--s", "1e-3", "--replicates", "2", "--window", "0.2,1e300"),
         EXIT_NUMERICAL, "underflows"),
        (("--experiment", "zeta-check", "--beta", "0", "--s", "1e-2", "--set", "k_cut=1"), EXIT_CONFIG, "k_cut"),
        (("--experiment", "gaf-sample", "--alpha", "0", "--set", "sampler=integral", "--set", "cells=10"),
         EXIT_CONFIG, "'cells'"),
        (("--experiment", "gaf-sample", "--alpha", "0", "--set", "sampler=integral", "--set", "y_max=10"),
         EXIT_CONFIG, "'y_max'"),
    ], ids=["nr-dist-s-1e300", "nr-dist-s-1e-300", "zeros-real-window-1e300", "k_cut-1", "cells-10", "y_max-10"])
    def test_degenerate_config_ends_at_once(self, tmp_path, args, code, needle):
        # a fresh interpreter, so that a run without end is cut by the timeout instead of stalling the suite
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(dirgaf.__file__))}
        done = subprocess.run([sys.executable, "-m", "dirgaf.cli", "run", *args, "--seed", "1",
                               "--output-dir", str(tmp_path)], capture_output=True, text=True, env=env, timeout=10)
        assert done.returncode == code, done.stderr
        assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
        assert needle in done.stderr, done.stderr

    @pytest.mark.parametrize("args, key", [
        (("--experiment", "covariance", "--alpha", "0", "--replicates", "40", "--set", "s_list=1e-1,abc"), "s_list"),
        (("--experiment", "zeta-check", "--beta", "0", "--s", "1e-2", "--set", "angles=x"), "angles"),
        (("--experiment", "zeta-check", "--beta", "0", "--s", "1e-2", "--model", "two-point",
          "--set", "coefficients.p=abc"), "coefficients.p"),
        (("--experiment", "zeta-check", "--beta", "0", "--s", "1e-2", "--model", "two-point",
          "--set", "coefficients.point=zz"), "coefficients.point"),
        (("--experiment", "lil", "--alpha", "0", "--set", "s_grid=geom:1e-2:1e-3:0"), "s_grid"),
        (("--experiment", "zeta-check", "--beta", "0", "--s", "nan"), "s"),
        (("--experiment", "nr-dist", "--model", "gauss-complex", "--s", "nan", "--r", "0.5",
          "--replicates", "2"), "s"),
        (("--experiment", "gaf-sample", "--alpha", "0", "--set", "sampler=integral", "--set", "y_max=inf"), "y_max"),
        (("--experiment", "nr-dist", "--model", "gauss-complex", "--s", "1e-3", "--r", "0.5",
          "--replicates", "0"), "replicates"),
        (("--experiment", "zeta-check", "--beta", "inf", "--s", "1e-2"), "beta"),
        (("--experiment", "gaf-sample", "--alpha", "0", "--set", "sampler=integral", "--set", "grid=0;1+1j"), "grid"),
        (("--experiment", "clt", "--alpha", "0", "--s", "2e-3", "--replicates", "500",
          "--set", "break_normalizer=True"), "break_normalizer"),
        (("--experiment", "clt", "--alpha", "0", "--s", "2e-3", "--replicates", "500",
          "--set", "break_normalizer=1"), "break_normalizer"),
    ], ids=["s_list", "angles", "coefficients.p", "coefficients.point", "s_grid", "zeta-nan", "nr-dist-nan",
            "y_max-inf", "replicates-0", "beta-inf", "grid-off-half-plane", "break_normalizer-True",
            "break_normalizer-1"])
    def test_malformed_value_exit_code(self, tmp_path, capsys, args, key):
        code = run_cli("run", *args, "--seed", "1", "--output-dir", str(tmp_path))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert re.search(rf"\b{re.escape(key)}\b", err), err

    @pytest.mark.parametrize("args, key", [
        (("--experiment", "clt", "--alpha", "abc", "--s", "2e-3", "--replicates", "500"), "alpha"),
        (("--experiment", "nr-dist", "--s", "1e-3", "--r", "abc", "--replicates", "2"), "r"),
        (("--experiment", "zeros-real", "--s", "1e-3", "--replicates", "2", "--window", "1,2,3"), "window"),
        (("--experiment", "gaf-sample", "--alpha", "0", "--set", "sampler=foo"), "sampler"),
    ], ids=["clt-alpha", "nr-dist-r", "zeros-real-window", "gaf-sample-sampler"])
    def test_malformed_value_creates_no_output_dir(self, tmp_path, capsys, args, key):
        # every key is parsed before the run starts, so a bad value leaves nothing behind
        out = tmp_path / "out"
        assert run_cli("run", *args, "--seed", "1", "--output-dir", str(out)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert re.search(rf"\b{re.escape(key)}\b", err), err
        assert not out.exists()

    @pytest.mark.parametrize("args, key", [
        (("--experiment", "clt", "--alpha", "0", "--s", "2e-3", "--replicates", "1e12"), "replicates"),
        (("--experiment", "nr-dist", "--s", "1e-3", "--r", "0.5", "--replicates", "2", "--head-n", "1e12"), "head_n"),
        (("--experiment", "gaf-sample", "--alpha", "0", "--set", "sampler=integral", "--set", "cells=1e12"), "cells"),
        (("--experiment", "sigma-c", "--alpha", "0", "--set", "n_max=1e12"), "n_max"),
        (("--experiment", "zeta-check", "--beta", "0", "--s", "1e-2", "--set", "k_cut=1e12"), "k_cut"),
        (("--experiment", "lil", "--alpha", "0", "--set", "s_grid=geom:1e-2:1e-3:100000000000"), "s_grid"),
    ], ids=["replicates", "head_n", "cells", "n_max", "k_cut", "s_grid"])
    def test_count_over_the_cap_exit_code(self, tmp_path, capsys, args, key):
        tracemalloc.start()
        try:
            code = run_cli("run", *args, "--seed", "1", "--output-dir", str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_RESOURCE
        assert peak < 2 ** 24  # refused before the work it sizes is allocated
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert re.search(rf"\b{re.escape(key)}\b", err), err

    def test_count_cap_boundary(self):
        raw = {"experiment": "zeros-real", "s": "1e-3", "seed": "1", "replicates": str(DEFAULT_TRUNCATION_CAP)}
        assert ExperimentConfig.from_raw(raw).values["replicates"] == DEFAULT_TRUNCATION_CAP
        with pytest.raises(ResourceCapError, match="'replicates' must be at most 2\\*\\*27"):
            ExperimentConfig.from_raw({**raw, "replicates": str(DEFAULT_TRUNCATION_CAP + 1)})

    def test_unreadable_config_file_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("experiment = zeta-check\n# caf\xe9\n".encode("latin-1"))
        assert run_cli("run", "--config", str(cfg)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "latin1.cfg" in err

    def test_output_dir_under_a_file_exit_code(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        code = run_cli("run", "--experiment", "zeta-check", "--beta", "0", "--s", "1e-2", "--seed", "1",
                       "--output-dir", str(tmp_path / "file" / "out"))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "output directory" in err

    def test_unknown_key_exit_code(self, tmp_path, capsys):
        code = run_cli("run", "--experiment", "nr-dist", "--s", "1e-3", "--r", "0.5", "--replicates", "2",
                       "--head-n", "256", "--seed", "1", "--set", "bogus=1", "--output-dir", str(tmp_path))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'bogus'" in err

    def test_solver_failure_outside_the_known_kinds_exit_code(self, tmp_path, capsys, monkeypatch):
        # every DirgafError that is not a config or resource error exits 5
        def undefined(*args, **kwargs):
            raise UndefinedEstimatorError("all partial sums are zero")

        monkeypatch.setattr(cli, "estimate_sigma_c", undefined)
        code = run_cli("run", "--experiment", "sigma-c", "--alpha", "0", "--seed", "1", "--set", "n_max=1000",
                       "--output-dir", str(tmp_path))
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "UndefinedEstimatorError" in err

    def test_key_table_in_readme_matches_the_registry(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = {}
        for line in readme.splitlines():
            cells = [tuple(re.findall(r"`([^`]+)`", cell)) for cell in line.split("|")[1:-1]]
            if len(cells) == 3 and cells[0] and cells[0][0] in cli.EXPERIMENTS:
                table[cells[0][0]] = (cells[1], cells[2])
        # an optional key is listed as key=default, or as the bare key when its default depends on other keys
        def listed(e):
            return tuple(key if e.keys[key][1] is None else f"{key}={e.keys[key][1]}" for key in e.optional)

        assert table == {name: (e.required, listed(e)) for name, e in cli.EXPERIMENTS.items()}

    def test_dispatch_is_looked_up_when_the_run_starts(self, tmp_path, monkeypatch):
        # a caller may time or trace a runner by wrapping it in cli.DISPATCH
        calls = []
        runner = cli.DISPATCH["zeta-check"]

        def wrapper(config):
            calls.append(config.experiment)
            return runner(config)

        monkeypatch.setitem(cli.DISPATCH, "zeta-check", wrapper)
        code = run_cli("run", "--experiment", "zeta-check", "--beta", "0", "--s", "1e-2", "--set", "k_cut=1000",
                       "--seed", "1", "--output-dir", str(tmp_path))
        assert code == EXIT_OK
        assert calls == ["zeta-check"]


# text that a number, list or grid parser may meet; integers and floats of any size, NaN and inf included
NUMBER_TEXT = st.one_of(
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["1e400", "-1e400", "nan", "-inf", "1e3", "-0", "2.7", "1_0", "9" * 5000]),
)
VALUE_TEXT = st.one_of(
    NUMBER_TEXT,
    st.text(max_size=8),
    st.lists(NUMBER_TEXT, max_size=4).map(",".join),
    st.lists(st.one_of(NUMBER_TEXT, st.complex_numbers().map(str)), max_size=4).map(";".join),
    # a valid n sizes the grid that the parser builds, so n is either small or over the cap
    st.tuples(NUMBER_TEXT, NUMBER_TEXT, st.integers(-2, 50) | st.integers(min_value=DEFAULT_TRUNCATION_CAP + 1))
    .map(lambda t: "geom:{}:{}:{}".format(*t)),
    st.sampled_from(["", "true", "false", "cholesky", "integral", "gaussian", "two-point", "circle"]),
)


VALID = {"seed": "1", "alpha": "0", "beta": "0", "s": "1e-3", "r": "0.5", "replicates": "2"}


@pytest.mark.parametrize("experiment", list(cli.EXPERIMENTS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_config_boundary_raises_only_config_errors(experiment, data):
    # a valid config with generated text for one to three of its keys, required, optional or common
    spec = cli.EXPERIMENTS[experiment]
    raw = {"experiment": experiment, **{key: VALID[key] for key in ("seed", *spec.required)}}
    keys = ("seed", "threads", "coefficients.kind", "coefficients.point", "coefficients.p", *spec.keys)
    for key in data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True)):
        raw[key] = data.draw(VALUE_TEXT)
    try:
        cfg = ExperimentConfig.from_raw(raw)
    except (ConfigError, ResourceCapError):
        return
    assert set(cfg.values) == set(spec.keys)


class TestCsvFormat:
    def test_header_checksum_and_float_format(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(path, "a,b", [(1.0 / 3.0, 2)])
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[1].startswith("0.33333333333333331")  # 17 significant digits
        assert lines[-1].startswith("# sha256=")
        assert "\r" not in path.read_text()

    def test_returns_the_digest_of_the_whole_file(self, tmp_path):
        path = tmp_path / "x.csv"
        assert write_csv(path, "a,b", [(1.0 / 3.0, 2)]) == file_sha256(path)


class TestRunAndReplay:
    def test_zeta_check_run(self, tmp_path):
        out = tmp_path / "zeta"
        code = run_cli("run", "--experiment", "zeta-check", "--beta", "0", "--s", "1e-3",
                       "--seed", "1", "--output-dir", str(out))
        assert code == EXIT_OK
        assert (out / "zeta.csv").exists()
        assert (out / "manifest.json").exists()
        report = json.loads((out / "report.json").read_text())
        assert report[0]["name"] == "zeta-check"
        files = json.loads((out / "manifest.json").read_text())["files"]
        assert sorted(files) == ["report.csv", "zeta.csv"]
        assert all(digest == file_sha256(out / name) for name, digest in files.items())

    def test_clt_run_and_replay(self, tmp_path):
        out = tmp_path / "clt"
        code = run_cli("run", "--experiment", "clt", "--model", "rademacher",
                       "--alpha", "0", "--s", "2e-3", "--replicates", "600",
                       "--seed", "42", "--head-n", "4096", "--output-dir", str(out))
        assert code == EXIT_OK
        assert run_cli("replay", str(out / "manifest.json")) == EXIT_OK

    def test_replay_detects_edited_seed(self, tmp_path):
        out = tmp_path / "clt2"
        run_cli("run", "--experiment", "clt", "--model", "rademacher",
                "--alpha", "0", "--s", "2e-3", "--replicates", "600",
                "--seed", "42", "--head-n", "4096", "--output-dir", str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["config"]["seed"] = "43"
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert run_cli("replay", str(out / "manifest.json")) != EXIT_OK

    @pytest.mark.parametrize("manifest", [{"artifact_version": __version__}, []], ids=["no-config", "list"])
    def test_replay_malformed_manifest_exit_code(self, tmp_path, capsys, manifest):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        assert run_cli("replay", str(path)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_replay_of_a_payload_the_run_does_not_write(self, tmp_path, capsys):
        out = tmp_path / "zeta"
        run_cli("run", "--experiment", "zeta-check", "--beta", "0", "--s", "1e-2", "--seed", "1",
                "--output-dir", str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["files"]["missing.csv"] = "0" * 64
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert run_cli("replay", str(out / "manifest.json")) == EXIT_FAIL
        assert capsys.readouterr().err == "payload mismatch for missing.csv\n"

    def test_replay_version_mismatch(self, tmp_path):
        out = tmp_path / "clt3"
        run_cli("run", "--experiment", "zeta-check", "--beta", "0", "--s", "1e-2",
                "--seed", "1", "--output-dir", str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["artifact_version"] = "9.9.9"
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert run_cli("replay", str(out / "manifest.json")) == EXIT_VERSION

    def test_resource_cap_exit(self, tmp_path):
        code = run_cli("run", "--experiment", "clt", "--model", "rademacher",
                       "--alpha", "0", "--s", "2e-3", "--replicates", "600", "--seed", "1",
                       "--set", "series.tail=truncate", "--set", "series.eps=1e-9",
                       "--output-dir", str(tmp_path / "cap"))
        assert code == EXIT_RESOURCE

    def test_thread_count_invariance(self, tmp_path):
        # byte-identical CSV payloads across 1, 4, and 8 worker threads
        experiments = {
            "real_zero_counts.csv": ("--experiment", "zeros-real", "--model", "rademacher", "--s", "1e-2",
                                     "--head-n", "256", "--set", "window=0.5,2.0"),
            "counts.csv": ("--experiment", "nr-dist", "--model", "gauss-complex", "--s", "1e-3", "--r", "0.5",
                           "--head-n", "512"),
        }
        for payload, args in experiments.items():
            payloads = {}
            for threads in (1, 4, 8):
                out = tmp_path / f"{payload}-t{threads}"
                code = run_cli("run", *args, "--replicates", "12", "--seed", "3", "--threads", str(threads),
                               "--output-dir", str(out))
                assert code in (EXIT_OK, EXIT_FAIL)
                payloads[threads] = (out / payload).read_bytes()
            assert payloads[1] == payloads[4] == payloads[8], payload

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "experiment = zeta-check\nbeta = 0\ns = 1e-2\nseed = 7\n"
            f"output_dir = {tmp_path / 'a'}\n"
        )
        code = run_cli("run", "--config", str(cfg), "--output-dir", str(tmp_path / "b"))
        assert code == EXIT_OK
        assert (tmp_path / "b" / "zeta.csv").exists()
        assert not (tmp_path / "a").exists()


class TestSigmaCExperiment:
    def test_shipped_seed_passes(self, tmp_path):
        out = tmp_path / "sc"
        code = run_cli("run", "--experiment", "sigma-c", "--model", "rademacher",
                       "--alpha", "0", "--seed", "20260802",
                       "--set", "n_max=1000000", "--output-dir", str(out))
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())[0]
        assert abs(report["statistic"] - 0.5) < 0.1
