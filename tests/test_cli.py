import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dirgaf
from dirgaf import __version__, cli, stats_harness
from dirgaf.coeff_models import MODEL_NAMES
from dirgaf.cli import (
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_MISMATCH,
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
        # threads changes no run; a valid value is accepted so that recorded manifests replay
        cfg = ExperimentConfig.from_raw({**base, "seed": str(2 ** 64 - 1), "threads": "3"})
        assert (cfg.seed, cfg.raw["threads"]) == (2 ** 64 - 1, "3")
        assert ExperimentConfig.from_raw({**base, "seed": "0", "threads": "1024"}).raw["threads"] == "1024"
        assert cli.MAX_THREADS == 1024

    @pytest.mark.parametrize("threads", ["1025", "1e300"])
    def test_threads_over_the_cap_exit_code(self, tmp_path, capsys, threads):
        out = tmp_path / "out"
        code = run_cli("run", "--experiment", "zeta-check", "--beta", "0", "--s", "1e-2", "--seed", "1",
                       "--threads", threads, "--output-dir", str(out))
        assert code == EXIT_RESOURCE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "threads" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("run", "--experiment", "clt", "--alpha", "-2.5e-1", "--s", "2e-3", "--replicates", "500", "--seed", "1"),
        ("run", "--experiment", "clt", "--bogus", "1"),
        (),
    ], ids=["negative-exponent-value", "unknown-flag", "no-subcommand"])
    def test_usage_error_prints_one_line(self, capsys, argv):
        assert run_cli(*argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "usage:" not in err and "Traceback" not in err

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as done:
            run_cli("run", "--help")
        assert done.value.code == 0
        assert "usage:" in capsys.readouterr().out

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

    def test_non_finite_power_series_exit_code(self, tmp_path, capsys, monkeypatch):
        # a NaN coefficient makes every value of its row NaN: an undefined count, not "no zeros"
        draw = stats_harness.sample_power_series_gaf

        def nan_draw(*args, **kwargs):
            coeffs = draw(*args, **kwargs)
            coeffs[3] = np.nan
            return coeffs

        monkeypatch.setattr(stats_harness, "sample_power_series_gaf", nan_draw)
        code = run_cli("run", "--experiment", "zeros-real", "--model", "rademacher", "--s", "1e-3",
                       "--replicates", "3", "--seed", "1", "--head-n", "256", "--output-dir", str(tmp_path))
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "UndefinedEstimatorError" in err and "its sign there is undefined" in err

    def test_out_of_memory_exit_code(self, tmp_path, capsys, monkeypatch):
        # running out of memory is a resource limit, not a failed criterion (exit 1)
        def runner(cfg):
            raise MemoryError("Unable to allocate 2.06 GiB for an array")

        monkeypatch.setitem(cli.DISPATCH, "zeta-check", runner)
        out = tmp_path / "oom"
        code = run_cli("run", "--experiment", "zeta-check", "--beta", "0", "--s", "1e-2", "--seed", "1",
                       "--output-dir", str(out))
        assert code == EXIT_RESOURCE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "MemoryError" in err and "2.06 GiB" in err
        assert not out.exists()

    def test_default_truncation_tolerance_is_on_the_scaled_sum(self, tmp_path, capsys):
        # eps defaults to 1e-3 of the scaled value's limit std K^(1/2) = (Gamma(5) / 2^5)^(1/2) = 0.866, the scale
        # of the tail bound; no N below the cap reaches it at s = 0.05, where the variance sits beyond exp(1/s)
        code = run_cli("run", "--experiment", "clt", "--model", "rademacher", "--alpha", "2", "--s", "0.05",
                       "--replicates", "500", "--set", "series.tail=truncate", "--seed", "1",
                       "--output-dir", str(tmp_path / "trunc"))
        assert code == EXIT_RESOURCE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "eps=0.000866025 " in err

    def test_duplicated_grid_point_exit_code(self, tmp_path, capsys):
        # a point repeated in the config is a config error, not a numerical failure
        code = run_cli("run", "--experiment", "gaf-sample", "--alpha", "0", "--seed", "1",
                       "--set", "grid=1;1", "--output-dir", str(tmp_path))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "duplicated grid point" in err

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

    def test_overflow_regime_ends_in_a_verdict(self, tmp_path):
        # at s = 1e-17 on (0.2, 3e15) atoms are folded and x^20 exceeds 1e308: monomials in x would overflow
        # (a RuntimeWarning, then NaN rows, exit 5), but in x / r_max every one is at most 1
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(dirgaf.__file__))}
        done = subprocess.run([sys.executable, "-m", "dirgaf.cli", "run", "--experiment", "zeros-real",
                               "--s", "1e-17", "--window", "0.2,3e15", "--replicates", "2", "--head-n", "256",
                               "--seed", "1", "--output-dir", str(tmp_path / "out")],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode in (EXIT_OK, EXIT_FAIL), done.stderr
        assert done.stdout.count("\n") == 1 and done.stderr == ""

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

    @pytest.mark.parametrize("args, code, key", [
        (("--experiment", "clt", "--alpha", "abc", "--s", "2e-3", "--replicates", "500"), EXIT_CONFIG, "alpha"),
        (("--experiment", "nr-dist", "--s", "1e-3", "--r", "abc", "--replicates", "2"), EXIT_CONFIG, "r"),
        (("--experiment", "zeros-real", "--s", "1e-3", "--replicates", "2", "--window", "1,2,3"), EXIT_CONFIG,
         "window"),
        (("--experiment", "gaf-sample", "--alpha", "0", "--set", "sampler=foo"), EXIT_CONFIG, "sampler"),
        # refused inside the runner, after the config was built
        (("--experiment", "nr-dist", "--s", "1e-3", "--r", "1.5", "--replicates", "2"), EXIT_CONFIG, "isotropic"),
        (("--experiment", "nr-dist", "--model", "gauss-complex", "--s", "1e-3", "--r", "1.5", "--replicates", "2"),
         EXIT_CONFIG, "r"),
        (("--experiment", "zeros-real", "--s", "1e-3", "--replicates", "2", "--window", "5,0.2"), EXIT_CONFIG,
         "window"),
        (("--experiment", "clt", "--alpha", "0", "--s", "2e-3", "--replicates", "500",
          "--set", "series.tail=gausian"), EXIT_CONFIG, "gausian"),
        (("--experiment", "zeros-complex", "--s", "1e-3", "--set", "tol=0"), EXIT_CONFIG, "tol"),
        (("--experiment", "zeta-check", "--beta", "0", "--s", "2"), EXIT_CONFIG, "z"),
        (("--experiment", "gaf-sample", "--alpha", "0", "--set", "grid=1;1"), EXIT_CONFIG, "grid"),
        (("--experiment", "covariance", "--alpha", "0", "--replicates", "40", "--set", "s_list=1e-3,1e-2,1e-1"),
         EXIT_CONFIG, "s_list"),
        (("--experiment", "covariance", "--alpha", "0", "--replicates", "40", "--set", "s_list=1e-2,1e-2"),
         EXIT_CONFIG, "s_list"),
        # anisotropic at any scale: an absolute tolerance let this one through to a verdict (exit 1)
        (("--experiment", "nr-dist", "--model", "two-point", "--set", "coefficients.point=1e-7", "--s", "1e-3",
          "--r", "0.5", "--replicates", "2"), EXIT_CONFIG, "isotropic"),
        # its variances overflow to inf, which ended in NaN paths (exit 5)
        (("--experiment", "zeros-real", "--model", "two-point", "--set", "coefficients.point=1e160", "--s", "1e-3",
          "--replicates", "2"), EXIT_CONFIG, "variances"),
        # the normalizer underflows to 0, then Gamma(173) overflows: every value was 0, a KS failure (exit 1)
        (("--experiment", "clt", "--model", "rademacher", "--alpha", "85", "--s", "2e-3", "--replicates", "500",
          "--head-n", "1024", "--set", "series.tail=none"), EXIT_CONFIG, "normalizer"),
        (("--experiment", "clt", "--model", "rademacher", "--alpha", "86", "--s", "2e-3", "--replicates", "500",
          "--head-n", "1024", "--set", "series.tail=none"), EXIT_CONFIG, "normalizer"),
    ], ids=["clt-alpha", "nr-dist-r", "zeros-real-window", "gaf-sample-sampler", "nr-dist-anisotropic",
            "nr-dist-r-1.5", "zeros-real-window-reversed", "clt-series.tail", "zeros-complex-tol-0", "zeta-check-s-2",
            "gaf-sample-duplicate-point", "covariance-s_list-increasing", "covariance-s_list-repeated",
            "nr-dist-anisotropic-small-scale", "zeros-real-two-point-variance-overflow",
            "clt-normalizer-underflow", "clt-normalizer-gamma-overflow"])
    def test_malformed_value_creates_no_output_dir(self, tmp_path, capsys, args, code, key):
        # a run that fails, in the config or in the runner, leaves nothing behind
        out = tmp_path / "out"
        assert run_cli("run", *args, "--seed", "1", "--output-dir", str(out)) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert re.search(rf"\b{re.escape(key)}\b", err), err
        assert not out.exists()

    def test_two_point_at_a_large_scale_is_centered(self, tmp_path):
        # its mean rounds to -7.3e-12, which an absolute 1e-12 refused as not centered (exit 2)
        code = run_cli("run", "--experiment", "zeros-real", "--model", "two-point", "--set", "coefficients.point=1e5",
                       "--set", "coefficients.p=0.3", "--s", "1e-3", "--replicates", "2", "--head-n", "256",
                       "--seed", "1", "--output-dir", str(tmp_path / "out"))
        assert code in (EXIT_OK, EXIT_FAIL)

    @pytest.mark.parametrize("seed", ["1", "2", "3", "7"])
    def test_tol_below_float64_resolution_is_a_config_error(self, tmp_path, capsys, seed):
        # at these seeds tol = 1e-30 ended in degenerate corners (exit 2) or cut retries (exit 5)
        out = tmp_path / "out"
        args = ("--experiment", "zeros-complex", "--s", "1e-3", "--set", "tol=1e-30", "--seed", seed)
        assert run_cli("run", *args, "--output-dir", str(out)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert re.fullmatch(r"config error: tol must be at least 3\.\d+e-12 \(.*\), got 1e-30\n", err), err
        assert not out.exists()

    @pytest.mark.parametrize("args, needles", [
        (("--experiment", "gaf-sample", "--alpha", "86"), ("alpha = 86", "(1+0j)")),
        (("--experiment", "gaf-sample", "--alpha", "86", "--set", "sampler=integral"), ("alpha = 86", "(1+0j)")),
        (("--experiment", "gaf-sample", "--alpha", "40", "--set", "grid=1e-3"), ("alpha = 40", "(0.001+0j)")),
        (("--experiment", "gaf-sample", "--alpha", "40", "--set", "grid=1e-3", "--set", "sampler=integral"),
         ("alpha = 40", "(0.001+0j)")),
        (("--experiment", "zeta-check", "--beta", "100", "--s", "1e-3"), ("beta = 100", "(0.001+0j)")),
        (("--experiment", "zeta-check", "--beta", "170", "--s", "1e-3"), ("beta = 170", "(0.001+0j)")),
        (("--experiment", "gaf-sample", "--alpha", "0", "--set", "sampler=integral", "--set", "y_max=1e308"),
         ("y_max = 1e+308", "(1+0j)")),
        # found by test_main_ends_in_a_known_exit_code: a kernel, a power of s and the second moments
        (("--experiment", "covariance", "--alpha", "47", "--replicates", "1", "--head-n", "2", "--set", "grid=1e3+1j"),
         ("alpha = 47", "covariance")),
        (("--experiment", "covariance", "--alpha", "103", "--replicates", "1", "--head-n", "2",
          "--set", "s_list=1000"), ("alpha = 103", "covariance")),
        (("--experiment", "covariance", "--alpha", "58", "--replicates", "1", "--head-n", "2", "--set", "s_list=1"),
         ("alpha = 58", "covariance")),
    ], ids=["cholesky-gamma", "integral-gamma", "cholesky-kernel", "integral-kernel", "zeta-error", "zeta-power",
            "integral-midpoint", "covariance-kernel", "covariance-scale", "covariance-moments"])
    def test_float64_overflow_is_a_config_error(self, tmp_path, capsys, args, needles):
        # an overflow is refused where it is formed, naming the exponent and the point, not run to a NaN
        out = tmp_path / "out"
        assert run_cli("run", *args, "--seed", "1", "--output-dir", str(out)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert all(needle in err for needle in needles), err
        assert not out.exists()

    @pytest.mark.parametrize("args, key", [
        (("--experiment", "clt", "--alpha", "0", "--s", "2e-3", "--replicates", "1e12"), "replicates"),
        (("--experiment", "nr-dist", "--s", "1e-3", "--r", "0.5", "--replicates", "2", "--head-n", "1e12"), "head_n"),
        (("--experiment", "gaf-sample", "--alpha", "0", "--set", "sampler=integral", "--set", "cells=1e12"), "cells"),
        (("--experiment", "gaf-sample", "--alpha", "0", "--set", "sampler=integral", "--set", "cells=33554432"),
         "cells"),
        (("--experiment", "sigma-c", "--alpha", "0", "--set", "n_max=1e12"), "n_max"),
        (("--experiment", "zeta-check", "--beta", "0", "--s", "1e-2", "--set", "k_cut=1e12"), "k_cut"),
        (("--experiment", "lil", "--alpha", "0", "--set", "s_grid=geom:1e-2:1e-3:100000000000"), "s_grid"),
    ], ids=["replicates", "head_n", "cells", "cells-times-grid", "n_max", "k_cut", "s_grid"])
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
            return tuple(key if default is None else f"{key}={default}"
                         for key, (_, default) in e.keys.items() if default is not cli.REQUIRED)

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


def log_uniform(lo: float, hi: float):
    """Text of a float in [lo, hi], uniform in its logarithm."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: repr(10.0 ** e))


POSITIVE = log_uniform(1e-3, 1e3)
GRID_POINT = st.tuples(POSITIVE, st.sampled_from(["+", "-"]), POSITIVE).map(lambda t: f"{t[0]}{t[1]}{t[2]}j")
# generated text for every key, valid or not; counts are drawn at their floors or a little above, so that
# no example allocates more than a few MiB (series.tail=truncate, which sizes its own head, is left out)
MAIN_VALUES = {
    "seed": st.integers(0, 2 ** 64 - 1).map(str),
    "threads": st.sampled_from(["1", "2"]),
    "coefficients.kind": st.sampled_from(MODEL_NAMES),
    "coefficients.point": st.sampled_from(["1", "1+0.5j", "-2", "0"]),
    "coefficients.p": st.sampled_from(["0.2", "0.5", "0.9", "1"]),
    "alpha": st.floats(-1, 200).map(repr),
    "beta": st.floats(-2, 200).map(repr),
    "s": POSITIVE | log_uniform(1e-3, 0.1),  # the second: the range clt accepts
    "r": st.one_of(st.floats(0.05, 0.9).map(repr), st.sampled_from(["0", "1", "-0.5", "1.5", "r"])),
    "tol": st.one_of(log_uniform(1e-3, 1), st.sampled_from(["0", "-1", "1e-30"])),
    "series.tail": st.one_of(st.sampled_from(["gaussian", "none"]), st.text(max_size=4)),
    "series.eps": log_uniform(1e-6, 1),
    "break_normalizer": st.sampled_from(["true", "false"]),
    "window": st.lists(POSITIVE, min_size=2, max_size=2).map(",".join),
    "grid": st.lists(GRID_POINT | POSITIVE, min_size=1, max_size=3).map(";".join),
    "s_list": st.lists(POSITIVE, min_size=1, max_size=3).map(",".join),
    "s_grid": st.just("geom:1e-2:1e-6:5") | st.lists(log_uniform(1e-7, 0.5), min_size=1, max_size=3).map(",".join),
    "angles": st.lists(st.floats(-4, 4).map(repr), min_size=1, max_size=2).map(",".join),
    "sampler": st.sampled_from(["cholesky", "integral"]),
    "y_max": log_uniform(1, 1e6),
    "replicates": st.integers(1, 3).map(str),
    "head_n": st.integers(2, 64).map(str),
    "n_max": st.integers(100, 1000).map(str),
    "k_cut": st.integers(2, 1000).map(str),
    "cells": st.integers(1000, 1100).map(str),
}
SIZES = ("replicates", "head_n", "n_max", "k_cut", "cells")  # always set: their defaults size real runs
EXIT_CODES = {EXIT_OK, EXIT_FAIL, EXIT_CONFIG, EXIT_RESOURCE, EXIT_NUMERICAL}


@pytest.mark.parametrize("experiment", list(cli.EXPERIMENTS))
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_main_ends_in_a_known_exit_code(experiment, data):
    # a run with generated values for its required keys and for any of its other keys; a failed run
    # prints one stderr line and no traceback and leaves no output directory, a finished run writes
    # only finite numbers, and no run warns (a warning would be one more line on stderr)
    spec = cli.EXPERIMENTS[experiment]
    keys = [key for key in MAIN_VALUES if key in cli.COMMON_KEYS or key in spec.keys]
    raw = {key: data.draw(MAIN_VALUES[key], label=key) for key in keys
           if key in ("seed", "coefficients.kind", *spec.required, *SIZES) or data.draw(st.booleans())}
    if experiment == "clt":
        raw["replicates"] = "500"  # its floor
    argv = ["run", "--set", f"experiment={experiment}", *(tok for kv in raw.items() for tok in ("--set", "=".join(kv)))]
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--output-dir", str(out)])
        assert code in EXIT_CODES
        assert not [str(w.message) for w in caught]
        err = stderr.getvalue()
        if code in (EXIT_OK, EXIT_FAIL):
            assert err == ""
            for name in (spec.payload, "report.csv"):
                text = (out / name).read_text(encoding="utf-8").lower()
                assert "nan" not in text and "inf" not in text, (name, text)
        else:
            assert err.count("\n") == 1 and "Traceback" not in err, err
            assert not out.exists()


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

    def test_zeta_check_error_is_relative(self, tmp_path):
        # Gamma(41) = 8.2e47: the absolute error of the limit read about 3.2e32 here, and passed
        out = tmp_path / "zeta"
        code = run_cli("run", "--experiment", "zeta-check", "--beta", "40", "--s", "1e-3", "--seed", "1",
                       "--output-dir", str(out))
        assert code == EXIT_OK
        header, *rows, checksum = (out / "zeta.csv").read_text().splitlines()
        assert header == "re_z,im_z,relative_error" and checksum.startswith("# sha256=") and len(rows) == 2
        assert all(float(row.split(",")[2]) < 1e-12 for row in rows)

    def test_zeta_check_fails_outside_the_band(self, tmp_path, capsys, monkeypatch):
        # a zeta-type sum off by one in the exponent of log k misses the limit, and the run says so
        partial = stats_harness.zeta_partial_with_tail
        monkeypatch.setattr(stats_harness, "zeta_partial_with_tail",
                            lambda beta, z, k_cut: partial(beta + 1.0, z, k_cut))
        code = run_cli("run", "--experiment", "zeta-check", "--beta", "0", "--s", "1e-2", "--seed", "1",
                       "--output-dir", str(tmp_path / "zeta"))
        assert code == EXIT_FAIL
        assert capsys.readouterr().out.startswith("[FAIL] zeta-check")

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
        assert run_cli("replay", str(out / "manifest.json")) == EXIT_MISMATCH

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
        assert run_cli("replay", str(out / "manifest.json")) == EXIT_MISMATCH
        assert capsys.readouterr().err == "payload mismatch for missing.csv\n"

    def test_replay_mismatch_names_the_blas_environment_that_moved(self, tmp_path, capsys, monkeypatch):
        # a payload summed by a threaded BLAS can move with its thread count, so the mismatch
        # line names the BLAS fields that differ from the manifest's, and only those
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        out = tmp_path / "zeta"
        run_cli("run", "--experiment", "zeta-check", "--beta", "0", "--s", "1e-2", "--seed", "1",
                "--output-dir", str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["files"]["missing.csv"] = "0" * 64
        manifest["environment"].update(python="0.0.0", OPENBLAS_NUM_THREADS="2", cpu_count=-1)
        (out / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run_cli("replay", str(out / "manifest.json")) == EXIT_MISMATCH
        assert capsys.readouterr().err == (
            "payload mismatch for missing.csv (environment differs: "
            f"OPENBLAS_NUM_THREADS '2' -> '1', cpu_count -1 -> {os.cpu_count()!r})\n"
        )

    def test_manifest_records_the_environment_and_replay_ignores_it(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        out = tmp_path / "zeta"
        run_cli("run", "--experiment", "zeta-check", "--beta", "0", "--s", "1e-2", "--seed", "1",
                "--output-dir", str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        env = manifest["environment"]
        assert env["python"] == ".".join(map(str, sys.version_info[:3])) and env["numpy"] == np.__version__
        assert env["blas"] and env["blas_version"] and env["cpu_count"] == os.cpu_count()
        assert env["OPENBLAS_NUM_THREADS"] == "1" and env["OMP_NUM_THREADS"] is None
        manifest["environment"] = {"python": "0.0.0", "blas": "none", "OPENBLAS_NUM_THREADS": "64"}
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert run_cli("replay", str(out / "manifest.json")) == EXIT_OK
        del manifest["environment"]
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert run_cli("replay", str(out / "manifest.json")) == EXIT_OK

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

    @pytest.mark.parametrize("model, extra, digest", [
        ("rademacher", (), "322afc08ada4b2b15cd36070bdd03328f8726d92f17afd462429bcfd376a4440"),
        ("gauss-real", (), "b086362ea2466aa0b48a6fea64c73547bdf84eb8efc303631935b4cffe2a01b9"),
        ("two-point", ("--set", "coefficients.p=0.3"),
         "cdd0df6323333bfc7a67fe3bd600507a76c2e986633ef280b7c355143fbd492b"),
    ], ids=["rademacher", "gauss-real", "two-point"])
    def test_zeros_real_payload_is_pinned(self, tmp_path, model, extra, digest):
        # 70 replicates span two count chunks; a change to either side's counts moves the digest
        out = tmp_path / model
        code = run_cli("run", "--experiment", "zeros-real", "--model", model, *extra, "--s", "1e-3",
                       "--head-n", "1024", "--set", "window=0.2,5.0", "--replicates", "70", "--seed", "3",
                       "--output-dir", str(out))
        assert code == EXIT_OK
        assert file_sha256(out / "real_zero_counts.csv") == digest

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
