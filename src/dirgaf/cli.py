"""Batch experiment driver: config parsing, dispatch, and artifact emission.

Runs are reproducible by construction: all randomness flows from the single
config seed, replicates bind to streams by index, and CSV payloads are
formatted deterministically (UTF-8, LF, '.' decimal separator, 17 significant
digits).  ``replay`` re-executes a recorded manifest and byte-compares the
data files.

Exit codes: 0 success, 1 hard statistical criterion failed, 2 invalid config,
3 resource cap exceeded or out of memory, 4 replay version mismatch, 5 any
other solver or sampler failure, 6 replay payload mismatch.
"""

from __future__ import annotations

import argparse
import cmath
import gc
import hashlib
import importlib
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .coeff_models import CoefficientModel, CoefficientStream, implied_covariance
from .errors import ArgumentError, DirgafError, ResourceCapError, float64_guard, require_finite
from .limit_gaf import KernelParams, sample_gaf_cholesky, sample_gaf_integral
from .series_eval import DEFAULT_TRUNCATION_CAP, ScaledSeriesSampler, estimate_sigma_c
from .stats_harness import (
    CSV_REPORT_HEADER,
    ZETA_TOLERANCE,
    LILParams,
    StatReport,
    clt_normality_check,
    lil_band_check,
    real_zero_process_comparison,
    scaled_covariance_experiment,
    zero_count_experiment,
    zero_count_pmf,
    zeta_limit_check,
)
from .zero_finder import evaluation_reach, locate_zeros, mapped_disk_rectangle

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_VERSION = 4
EXIT_NUMERICAL = 5
EXIT_MISMATCH = 6

# keys every experiment accepts
COMMON_KEYS = ("experiment", "seed", "threads", "output_dir", "coefficients.kind", "coefficients.point",
               "coefficients.p")
REQUIRED = object()  # the default of a key that every config of the experiment must set
# `threads` changes no run; it is still validated, against a fixed cap rather than the host's core count, so that
# recorded manifests replay on any machine
MAX_THREADS = 2 ** 10


class ConfigError(DirgafError):
    pass


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    if isinstance(x, (np.floating,)):
        return format(float(x), ".17g")
    return str(x)


def write_csv(path: Path, header: str, rows) -> str:
    """Write a CSV with LF endings and a trailing self-checksum comment line; return the file's sha256."""
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    data = payload + f"# sha256={hashlib.sha256(payload).hexdigest()}\n".encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- configuration ---------------------------------------------------------------


def _parse_int(key: str, text) -> int:
    """An integer config value; integral floats such as ``1e3`` are accepted."""
    try:
        return int(text)  # exact beyond 2**53, where floats are not
    except ValueError:
        pass
    try:
        if float(text).is_integer():
            return int(float(text))
    except ValueError:
        pass
    raise ConfigError(f"key {key!r} must be an integer, got {text!r}")


def _parse_count(key: str, text) -> int:
    """An integer config value that sizes work, at most ``DEFAULT_TRUNCATION_CAP``."""
    value = _parse_int(key, text)
    if value > DEFAULT_TRUNCATION_CAP:
        raise ResourceCapError(f"key {key!r} must be at most 2**{DEFAULT_TRUNCATION_CAP.bit_length() - 1}, "
                               f"got {text!r}")
    return value


def _parse_replicates(key: str, text) -> int:
    value = _parse_count(key, text)
    if value < 1:
        raise ConfigError(f"replicates must be at least 1, got {text!r}")
    return value


def _parse_bool(key: str, text: str) -> bool:
    if text not in ("true", "false"):
        raise ConfigError(f"key {key!r} must be 'true' or 'false', got {text!r}")
    return text == "true"


def _choice(*choices: str) -> Callable:
    """The parser of a config value that must be one of ``choices``."""

    def parse(key: str, text: str) -> str:
        if text not in choices:
            raise ConfigError(f"key {key!r} must be one of {', '.join(choices)}, got {text!r}")
        return text

    return parse


def _parse_num(key: str, text) -> float:
    """A finite real config value."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r} must be a finite number, got {text!r}")
    return value


def _parse_complex(key: str, text) -> complex:
    """A finite complex config value such as ``1.3+0.6j``."""
    try:
        value = complex(text)
    except ValueError:
        value = complex(math.nan)
    if not cmath.isfinite(value):
        raise ConfigError(f"key {key!r} must be a finite complex number, got {text!r}")
    return value


def _parse_list(key: str, text: str, parse=_parse_num, sep: str = ",") -> list:
    """A nonempty ``sep``-separated list of config values; blank items are skipped."""
    values = [parse(key, tok) for tok in text.split(sep) if tok.strip()]
    if not values:
        raise ConfigError(f"key {key!r} must list at least one value, got {text!r}")
    return values


def _parse_window(key: str, text: str) -> tuple[float, float]:
    bounds = _parse_list(key, text)
    if len(bounds) != 2:
        raise ConfigError(f"window must be 'a,b', got {text!r}")
    return bounds[0], bounds[1]


def _parse_grid(key: str, text: str) -> np.ndarray:
    """A ';'-separated complex grid, in the open right half-plane."""
    z = np.array(_parse_list(key, text, _parse_complex, ";"))
    if not np.all(z.real > 0):
        raise ConfigError(f"grid points must have a positive real part, got {text!r}")
    return z


def _parse_s_grid(key: str, text: str) -> np.ndarray:
    """A list of values, or ``geom:hi:lo:n`` for n geometrically spaced ones."""
    if not text.startswith("geom:"):
        return np.array(_parse_list(key, text))
    parts = text[5:].split(":")
    if len(parts) != 3:
        raise ConfigError(f"s_grid geometric form must be geom:hi:lo:n, got {text!r}")
    hi, lo, n = _parse_num(key, parts[0]), _parse_num(key, parts[1]), _parse_count(key, parts[2])
    if not (hi > 0 and lo > 0 and n >= 1):
        raise ConfigError(f"s_grid geom:hi:lo:n needs hi, lo > 0 and n >= 1, got {text!r}")
    return np.geomspace(hi, lo, n)


def _parse_model(raw: dict) -> CoefficientModel:
    kind = raw.get("coefficients.kind", "rademacher")
    kwargs = {}
    if kind == "two-point":
        kwargs["point"] = _parse_complex("coefficients.point", raw.get("coefficients.point", "1"))
        kwargs["p"] = _parse_num("coefficients.p", raw.get("coefficients.p", "0.2"))
    try:
        return CoefficientModel.from_name(kind, **kwargs)
    except ArgumentError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config_file(path: Path) -> dict:
    """Flat ``key = value`` pairs with '#' comments; dotted keys form sections."""
    out: dict[str, str] = {}
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        out[key] = value.strip()
    return out


@dataclass
class ExperimentConfig:
    """Validated experiment description assembled from file plus CLI overrides."""

    experiment: str
    seed: int
    output_dir: Path
    model: CoefficientModel
    values: dict  # every key of the experiment besides COMMON_KEYS, parsed or defaulted
    raw: dict  # the config as given, echoed by the manifest

    @classmethod
    def from_raw(cls, raw: dict) -> "ExperimentConfig":
        if "experiment" not in raw:
            raise ConfigError("missing required key 'experiment'")
        exp = raw["experiment"]
        if exp not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {exp!r}; expected one of {tuple(EXPERIMENTS)}")
        spec = EXPERIMENTS[exp]
        for key in ("seed", *spec.required):
            if key not in raw:
                raise ConfigError(f"missing required key {key!r} for experiment {exp!r}")
        unknown = sorted(set(raw) - {*COMMON_KEYS, *spec.keys})
        if unknown:
            raise ConfigError(f"unknown key(s) {', '.join(map(repr, unknown))} for experiment {exp!r}")
        seed = _parse_int("seed", raw["seed"])
        if not 0 <= seed < 2 ** 64:  # the stream key keeps only the low 64 bits
            raise ConfigError(f"seed must lie in 0..2**64-1, got {raw['seed']!r}")
        threads = _parse_int("threads", raw.get("threads", "1"))
        if threads < 1:
            raise ConfigError(f"threads must be at least 1, got {raw['threads']!r}")
        if threads > MAX_THREADS:
            raise ResourceCapError(f"threads must be at most {MAX_THREADS}, got {raw['threads']!r}")
        values = {}
        for key, (parse, default) in spec.keys.items():
            text = raw.get(key, default)
            values[key] = None if text is None else parse(key, text)
        config = cls(experiment=exp, seed=seed, output_dir=Path(raw.get("output_dir", ".")), model=_parse_model(raw),
                     values=values, raw=dict(raw))
        for module in spec.modules:  # loaded during set-up, and frozen with the rest by run()
            importlib.import_module(module)
        return config


# -- experiments -------------------------------------------------------------------


def _run_clt(cfg: ExperimentConfig):
    v = cfg.values
    report = clt_normality_check(cfg.model, v["alpha"], v["s"], v["replicates"], cfg.seed, head_n=v["head_n"],
                                 tail=v["series.tail"], eps=v["series.eps"] or None,
                                 break_normalizer=v["break_normalizer"])
    d = report.details
    return report, [(d["alpha"], d["s"], report.statistic, report.p_value, d["sample_variance"])]


def _run_covariance(cfg: ExperimentConfig):
    v = cfg.values
    z = v["grid"]
    what = f"the covariance sweep at alpha = {v['alpha']:g}"  # its kernels, powers of s and second moments
    with float64_guard(what):
        res = scaled_covariance_experiment(cfg.model, v["alpha"], v["s_list"], z, v["replicates"], cfg.seed,
                                           head_n=v["head_n"])
    kp, kh = res["kernel_pseudo"], res["kernel_hermitian"]
    rows = []
    for per_s in res["per_s"]:
        for i in range(len(z)):
            for j in range(len(z)):
                ep, eh = per_s["pseudo"][i, j], per_s["hermitian"][i, j]
                rows.append(
                    (per_s["s"], i, j, ep.real, ep.imag, kp[i, j].real, kp[i, j].imag, per_s["se_pseudo"][i, j],
                     eh.real, eh.imag, kh[i, j].real, kh[i, j].imag, per_s["se_hermitian"][i, j])
                )
    require_finite(what, rows, res["report"].statistic)
    return res["report"], rows


def _run_zeros_complex(cfg: ExperimentConfig):
    """Locate all zeros of a few sampled paths in the mapped disk's bounding rectangle."""
    v = cfg.values
    s, r, n_paths, tol = v["s"], v["r"], v["replicates"], v["tol"]
    rect = mapped_disk_rectangle(r)
    sampler = ScaledSeriesSampler(cfg.model, 0.0, s, v["head_n"], x_min=rect.lo.real,
                                  r_max=evaluation_reach(rect, tol))
    rows = []
    total = 0
    for rep in range(n_paths):
        path = sampler.sample_path(CoefficientStream(cfg.model, cfg.seed, rep))
        measure = locate_zeros(path.eval, rect, tol=tol)
        total += measure.total()
        for loc, mult in measure.atoms:
            rows.append((rep, loc.real, loc.imag, mult))
    report = StatReport(name="zeros-complex", statistic=float(total) / n_paths, n_replicates=n_paths, seed=cfg.seed,
                        verdict="pass", details={"model": cfg.model.kind, "s": s, "r": r})
    return report, rows


def _run_nr_dist(cfg: ExperimentConfig):
    v = cfg.values
    report = zero_count_experiment(cfg.model, v["s"], v["r"], v["replicates"], cfg.seed, head_n=v["head_n"])
    law = zero_count_pmf(v["r"])
    hist = report.details["histogram"]
    rows = [
        (k, hist[k] if k < len(hist) else 0, law.pmf[k] if k < len(law.pmf) else 0.0)
        for k in range(max(len(hist), len(law.pmf)))
    ]
    return report, rows


def _run_zeros_real(cfg: ExperimentConfig):
    v = cfg.values
    report = real_zero_process_comparison(cfg.model, v["s"], v["window"], v["replicates"], cfg.seed,
                                          head_n=v["head_n"])
    hs = report.details["hist_series"]
    hg = report.details["hist_gaf"]
    return report, [(k, hs[k], hg[k]) for k in range(len(hs))]


def _run_lil(cfg: ExperimentConfig):
    v = cfg.values
    params = LILParams(alpha=v["alpha"], s_grid=tuple(v["s_grid"]))
    report = lil_band_check(cfg.model, params, cfg.seed, head_n=v["head_n"])
    return report, list(zip(report.details["s_grid"], report.details["r_values"]))


def _run_zeta_check(cfg: ExperimentConfig):
    v = cfg.values
    beta, mod = v["beta"], v["s"]
    z_list = [mod * complex(np.cos(a), np.sin(a)) for a in v["angles"]]
    errors = zeta_limit_check(beta, z_list, k_cut=v["k_cut"])
    worst = max(err for _, err in errors)
    report = StatReport(name="zeta-check", statistic=worst, n_replicates=len(z_list), seed=cfg.seed,
                        verdict="pass" if worst <= ZETA_TOLERANCE else "fail", details={"beta": beta, "modulus": mod})
    return report, [(z.real, z.imag, err) for z, err in errors]


def _run_gaf_sample(cfg: ExperimentConfig):
    v = cfg.values
    params = KernelParams(v["alpha"], implied_covariance(cfg.model))
    z, sampler = v["grid"], v["sampler"]
    rng = CoefficientStream(cfg.model, cfg.seed, 0).bulk_generator()
    if sampler == "cholesky":
        sample = sample_gaf_cholesky(params, z, rng)[0]
    else:
        sample = sample_gaf_integral(params, z, rng, y_max=v["y_max"], cells=v["cells"])[0]
    report = StatReport(name="gaf-sample", statistic=float(np.abs(sample).max()), n_replicates=1,
                        seed=cfg.seed, verdict="pass", details={"sampler": sampler})
    return report, [(p.real, p.imag, val.real, val.imag) for p, val in zip(z, sample)]


def _run_sigma_c(cfg: ExperimentConfig):
    alpha, n_max = cfg.values["alpha"], cfg.values["n_max"]
    coeffs = CoefficientStream(cfg.model, cfg.seed, 0).pairs(n_max - 1)
    estimate = estimate_sigma_c(coeffs, alpha, n_max)
    report = StatReport(name="sigma-c", statistic=estimate, n_replicates=1, seed=cfg.seed,
                        verdict="pass" if abs(estimate - 0.5) < 0.1 else "fail",
                        details={"alpha": alpha, "model": cfg.model.kind, "n_max": n_max, "target": 0.5})
    return report, [(alpha, n_max, estimate)]


@dataclass(frozen=True)
class Experiment:
    """One experiment: its runner, cfg -> (report, payload rows); the keys it reads besides
    COMMON_KEYS, each with its parser and default (``REQUIRED``: none; ``None``: absent stays
    ``None``); the payload CSV it writes and that CSV's header; and the modules it needs that
    ``import dirgaf.cli`` does not load."""

    runner: Callable
    keys: dict
    payload: str
    header: str
    modules: tuple[str, ...] = ()

    @property
    def required(self) -> tuple[str, ...]:
        return tuple(key for key, (_, default) in self.keys.items() if default is REQUIRED)


NUM = (_parse_num, REQUIRED)
REPLICATES = (_parse_replicates, REQUIRED)
HEAD_N = (_parse_count, "4096")

EXPERIMENTS = {
    "clt": Experiment(
        _run_clt,
        {"alpha": NUM, "s": NUM, "replicates": REPLICATES, "head_n": (_parse_count, "65536"),
         "series.tail": (_choice("gaussian", "none", "truncate"), "gaussian"), "series.eps": (_parse_num, "0"),
         "break_normalizer": (_parse_bool, "false")},
        "clt_summary.csv", "alpha,s,ks_statistic,p_value,sample_variance"),
    "covariance": Experiment(
        _run_covariance,
        {"alpha": NUM, "replicates": REPLICATES, "s_list": (_parse_list, "1e-1,1e-2,1e-3"),
         "grid": (_parse_grid, "1.0;1.3+0.6j;2.0-0.8j"), "head_n": HEAD_N},
        "covariance.csv", "s,i,j,pseudo_re,pseudo_im,kernel_pseudo_re,kernel_pseudo_im,se_pseudo,"
                          "hermitian_re,hermitian_im,kernel_hermitian_re,kernel_hermitian_im,se_hermitian"),
    "zeros-complex": Experiment(
        _run_zeros_complex,
        {"s": NUM, "r": (_parse_num, "0.5"), "replicates": (_parse_replicates, "4"), "tol": (_parse_num, "5e-3"),
         "head_n": HEAD_N},
        "atoms.csv", "replicate,re,im,multiplicity"),
    "zeros-real": Experiment(
        _run_zeros_real,
        {"s": NUM, "replicates": REPLICATES, "window": (_parse_window, "0.2,5"), "head_n": HEAD_N},
        "real_zero_counts.csv", "count,series,power_series"),
    "nr-dist": Experiment(
        _run_nr_dist, {"s": NUM, "r": NUM, "replicates": REPLICATES, "head_n": HEAD_N},
        "counts.csv", "count,observed,limit_pmf"),
    "lil": Experiment(
        _run_lil, {"alpha": NUM, "s_grid": (_parse_s_grid, "geom:1e-2:1e-6:40"), "head_n": (_parse_count, "100000")},
        "lil.csv", "s,r_value"),
    "zeta-check": Experiment(
        _run_zeta_check,
        {"beta": NUM, "s": NUM, "angles": (_parse_list, "0,0.785398163397448279"),
         "k_cut": (_parse_count, "100000")},
        "zeta.csv", "re_z,im_z,relative_error", ("mpmath",)),
    "gaf-sample": Experiment(
        _run_gaf_sample,
        {"alpha": NUM, "grid": (_parse_grid, "1.0;1.5+0.5j;2.0-0.5j;2.5+1.0j"),
         "sampler": (_choice("cholesky", "integral"), "cholesky"), "y_max": (_parse_num, None),
         "cells": (_parse_count, "16384")},
        "sample.csv", "re_z,im_z,re_val,im_val"),
    "sigma-c": Experiment(
        _run_sigma_c, {"alpha": NUM, "n_max": (_parse_count, "1000000")}, "sigma_c.csv", "alpha,n_max,estimate"),
}

# looked up when a run starts, not bound at import, so that a caller (perfbench's child runs) may wrap a runner here
DISPATCH = {name: experiment.runner for name, experiment in EXPERIMENTS.items()}


# -- running -------------------------------------------------------------------------


# The environment fields a payload can depend on: BLAS products that are split
# over threads sum in another order.  The clt and lil sums avoid the BLAS; the
# covariance sweep's GEMMs do not.
BLAS_ENVIRONMENT = ("blas", "blas_version", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "cpu_count")


def environment() -> dict:
    """What a run's timings, and its BLAS-summed payloads, depend on beyond the config."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": ".".join(map(str, sys.version_info[:3])), "numpy": np.__version__,
        "blas": blas.get("name"), "blas_version": blas.get("version"), "cpu_count": os.cpu_count(),
        **{var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; write its payload CSV, report.csv, report.json and manifest.json.

    Returns 1 when the hard criterion failed, else 0; a failure to produce the
    results raises its :class:`DirgafError`.

    Both ``dirgaf run`` and ``dirgaf replay`` come through here with a
    validated config, so every module the experiment needs is loaded.  The
    heap built so far is frozen: the collector, and the final collection at
    interpreter exit, no longer traverse it, while objects the run creates
    are collected as before.
    """
    gc.freeze()
    t0 = time.time()
    experiment = EXPERIMENTS[config.experiment]
    report, rows = DISPATCH[config.experiment](config)  # writes nothing: a failed run leaves no output
    out_dir = config.output_dir
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
    files = {
        experiment.payload: write_csv(out_dir / experiment.payload, experiment.header, rows),
        "report.csv": write_csv(out_dir / "report.csv", CSV_REPORT_HEADER, [report.csv_row()]),
    }
    with open(out_dir / "report.json", "w", encoding="utf-8") as fh:
        json.dump([report.to_json_dict()], fh, indent=2, sort_keys=True)
        fh.write("\n")
    manifest = {
        "artifact_version": __version__,
        "config": config.raw,
        "environment": environment(),
        "files": files,
        "wall_clock_s": time.time() - t0,
        "verdicts": {report.name: report.verdict},
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"[{report.verdict.upper()}] {report.name}: statistic={report.statistic:.6g}"
          + (f" p={report.p_value:.4g}" if report.p_value is not None else "")
          + (f" tv={report.tv_distance:.4g}" if report.tv_distance is not None else ""))
    return EXIT_FAIL if report.verdict == "fail" else EXIT_OK


def replay(manifest_path: Path) -> int:
    """Re-execute a recorded run and byte-compare its CSV payloads."""
    try:
        manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ConfigError(f"manifest {manifest_path} must hold a JSON object")
    if manifest.get("artifact_version") != __version__:
        print(
            f"version mismatch: manifest {manifest.get('artifact_version')} vs installed {__version__}",
            file=sys.stderr,
        )
        return EXIT_VERSION
    raw, files = manifest.get("config"), manifest.get("files")
    if not (isinstance(raw, dict) and all(isinstance(v, str) for v in raw.values()) and isinstance(files, dict)):
        raise ConfigError(f"manifest {manifest_path} needs a 'config' object of strings and a 'files' object")
    old_dir = Path(manifest_path).parent
    with tempfile.TemporaryDirectory() as tmp:
        run(ExperimentConfig.from_raw({**raw, "output_dir": tmp}))
        for name, digest in files.items():
            new_file, old_file = Path(tmp) / name, old_dir / name
            old_digest = file_sha256(old_file) if old_file.is_file() else digest
            if not new_file.is_file() or file_sha256(new_file) != old_digest:
                print(f"payload mismatch for {name}{_environment_moves(manifest.get('environment'))}",
                      file=sys.stderr)
                return EXIT_MISMATCH
    print("replay ok: all payloads identical")
    return EXIT_OK


def _environment_moves(recorded) -> str:
    """The BLAS fields of the recorded environment that differ from this one, as a suffix for the mismatch line."""
    if not isinstance(recorded, dict):
        return ""
    now = environment()
    moved = [f"{key} {recorded[key]!r} -> {now[key]!r}"
             for key in BLAS_ENVIRONMENT if key in recorded and recorded[key] != now[key]]
    return f" (environment differs: {', '.join(moved)})" if moved else ""


def exit_code(exc: DirgafError | MemoryError) -> int:
    """Print one stderr line for a failed run and return its exit code."""
    if isinstance(exc, ResourceCapError):
        code, what = EXIT_RESOURCE, "resource cap exceeded"
    elif isinstance(exc, MemoryError):
        code, what = EXIT_RESOURCE, "out of memory (MemoryError)"
    elif isinstance(exc, (ConfigError, ArgumentError)):
        code, what = EXIT_CONFIG, "config error"
    else:
        code, what = EXIT_NUMERICAL, f"numerical failure ({type(exc).__name__})"
    print(f"{what}: {exc}", file=sys.stderr)
    return code


# flag -> config key
FLAGS = {
    "--experiment": "experiment",
    "--model": "coefficients.kind",
    "--alpha": "alpha",
    "--s": "s",
    "--replicates": "replicates",
    "--seed": "seed",
    "--beta": "beta",
    "--r": "r",
    "--window": "window",
    "--output-dir": "output_dir",
    "--threads": "threads",
    "--head-n": "head_n",
}


class ArgumentParser(argparse.ArgumentParser):
    """Raises a usage error as a ConfigError, so that it is reported in one stderr line like any other."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = ArgumentParser(prog="dirgaf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment")
    runp.add_argument("--config", type=Path, help="flat key=value config file")
    for flag, key in FLAGS.items():
        runp.add_argument(flag, dest=key, default=None)
    runp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                      help="override any config key")
    rep = sub.add_parser("replay", help="re-run a manifest and compare payloads")
    rep.add_argument("manifest", type=Path)
    return parser


def raw_config(args: argparse.Namespace) -> dict:
    """The config file, then the flags, then each ``--set``; later sources win."""
    raw: dict[str, str] = {}
    if args.config is not None:
        raw.update(parse_config_file(args.config))
    raw.update({key: getattr(args, key) for key in FLAGS.values() if getattr(args, key) is not None})
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        raw[key.strip()] = value.strip()
    return raw


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "replay":
            return replay(args.manifest)
        return run(ExperimentConfig.from_raw(raw_config(args)))
    except (DirgafError, MemoryError) as exc:
        return exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
