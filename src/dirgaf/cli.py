"""Batch experiment driver: config parsing, dispatch, and artifact emission.

Runs are reproducible by construction: all randomness flows from the single
config seed, replicates bind to streams by index, and CSV payloads are
formatted deterministically (UTF-8, LF, '.' decimal separator, 17 significant
digits).  ``replay`` re-executes a recorded manifest and byte-compares the
data files.

Exit codes: 0 success, 1 hard statistical criterion failed or replay payload
mismatch, 2 invalid config, 3 resource cap exceeded, 4 replay version mismatch,
5 any other solver or sampler failure.
"""

from __future__ import annotations

import argparse
import cmath
import gc
import hashlib
import importlib
import json
import math
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .coeff_models import CoefficientModel, CoefficientStream, MODEL_NAMES, implied_covariance
from .errors import ArgumentError, DirgafError, ResourceCapError
from .limit_gaf import MIN_CELLS, MIN_REACH, KernelParams, sample_gaf_cholesky, sample_gaf_integral
from .series_eval import DEFAULT_TRUNCATION_CAP, ScaledSeriesSampler, SeriesSpec, estimate_sigma_c
from .stats_harness import (
    CSV_REPORT_HEADER,
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
from .zero_finder import DISK_MARGIN, evaluation_reach, locate_zeros, mapped_disk_rectangle

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_VERSION = 4
EXIT_NUMERICAL = 5

# keys every experiment accepts
COMMON_KEYS = ("experiment", "seed", "threads", "output_dir", "coefficients.kind", "coefficients.point",
               "coefficients.p")
# integer keys that size an allocation or a loop; each is capped by _parse_count
COUNT_KEYS = ("replicates", "head_n", "cells", "n_max", "k_cut")


class ConfigError(DirgafError):
    pass


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    if isinstance(x, (np.floating,)):
        return format(float(x), ".17g")
    return str(x)


def write_csv(path: Path, header: str, rows) -> str:
    """Write a CSV with LF endings and a trailing self-checksum comment line."""
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    digest = hashlib.sha256(payload).hexdigest()
    with open(path, "wb") as fh:
        fh.write(payload)
        fh.write(f"# sha256={digest}\n".encode("utf-8"))
    return digest


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


def _parse_bool(key: str, text: str) -> bool:
    if text not in ("true", "false"):
        raise ConfigError(f"key {key!r} must be 'true' or 'false', got {text!r}")
    return text == "true"


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
    threads: int = 1
    raw: dict = field(default_factory=dict)

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
        unknown = sorted(set(raw) - {*COMMON_KEYS, *spec.required, *spec.optional})
        if unknown:
            raise ConfigError(f"unknown key(s) {', '.join(map(repr, unknown))} for experiment {exp!r}")
        seed = _parse_int("seed", raw["seed"])
        if not 0 <= seed < 2 ** 64:  # the stream key keeps only the low 64 bits
            raise ConfigError(f"seed must lie in 0..2**64-1, got {raw['seed']!r}")
        threads = _parse_int("threads", raw.get("threads", "1"))
        if threads < 1:
            raise ConfigError(f"threads must be at least 1, got {raw['threads']!r}")
        counts = {key: _parse_count(key, raw[key]) for key in COUNT_KEYS if key in raw}
        if counts.get("replicates", 1) < 1:
            raise ConfigError(f"replicates must be at least 1, got {raw['replicates']!r}")
        config = cls(experiment=exp, seed=seed, output_dir=Path(raw.get("output_dir", ".")), threads=threads,
                     raw=dict(raw))
        config.model()  # validate the model keys up front
        for module in spec.modules:  # loaded during set-up, and frozen with the rest by run()
            importlib.import_module(module)
        return config

    # typed accessors ------------------------------------------------------

    def _num(self, key: str, default=None) -> float:
        if key not in self.raw:
            if default is None:
                raise ConfigError(f"missing required key {key!r}")
            return float(default)
        return _parse_num(key, self.raw[key])

    def _int(self, key: str, default=None) -> int:
        if key not in self.raw:
            return int(self._num(key, default))
        return _parse_int(key, self.raw[key])

    def _list(self, key: str, default: str) -> list[float]:
        return _parse_list(key, self.raw.get(key, default))

    def model(self) -> CoefficientModel:
        kind = self.raw.get("coefficients.kind", "rademacher")
        if kind not in MODEL_NAMES:
            raise ConfigError(f"coefficients.kind must be one of {MODEL_NAMES}, got {kind!r}")
        kwargs = {}
        if kind == "two-point":
            kwargs["point"] = _parse_complex("coefficients.point", self.raw.get("coefficients.point", "1"))
            kwargs["p"] = self._num("coefficients.p", 0.2)
        try:
            return CoefficientModel.from_name(kind, **kwargs)
        except ArgumentError as exc:
            raise ConfigError(str(exc)) from exc

    def z_grid(self, default: str) -> np.ndarray:
        """The ';'-separated complex grid, in the open right half-plane."""
        text = self.raw.get("grid", default)
        z = np.array(_parse_list("grid", text, _parse_complex, ";"))
        if not np.all(z.real > 0):
            raise ConfigError(f"grid points must have a positive real part, got {text!r}")
        return z

    def s_grid(self) -> np.ndarray:
        text = self.raw.get("s_grid", "geom:1e-2:1e-6:40")
        if not text.startswith("geom:"):
            return np.array(_parse_list("s_grid", text))
        parts = text[5:].split(":")
        if len(parts) != 3:
            raise ConfigError(f"s_grid geometric form must be geom:hi:lo:n, got {text!r}")
        hi, lo, n = _parse_num("s_grid", parts[0]), _parse_num("s_grid", parts[1]), _parse_count("s_grid", parts[2])
        if not (hi > 0 and lo > 0 and n >= 1):
            raise ConfigError(f"s_grid geom:hi:lo:n needs hi, lo > 0 and n >= 1, got {text!r}")
        return np.geomspace(hi, lo, n)

    def window(self) -> tuple[float, float]:
        bounds = self._list("window", "0.2,5")
        if len(bounds) != 2:
            raise ConfigError(f"window must be 'a,b', got {self.raw['window']!r}")
        return bounds[0], bounds[1]


# -- experiments -------------------------------------------------------------------


def _run_clt(cfg: ExperimentConfig):
    report = clt_normality_check(
        cfg.model(),
        alpha=cfg._num("alpha"),
        s=cfg._num("s"),
        n_replicates=cfg._int("replicates"),
        master_seed=cfg.seed,
        head_n=cfg._int("head_n", 2 ** 16),
        tail=cfg.raw.get("series.tail", "gaussian"),
        eps=cfg._num("series.eps", 0) or None,
        break_normalizer=_parse_bool("break_normalizer", cfg.raw.get("break_normalizer", "false")),
    )
    csvs = {"clt_summary.csv": ("alpha,s,ks_statistic,p_value,sample_variance", [(
        report.details["alpha"], report.details["s"], report.statistic, report.p_value,
        report.details["sample_variance"],
    )])}
    return [report], csvs


def _run_covariance(cfg: ExperimentConfig):
    z = cfg.z_grid("1.0;1.3+0.6j;2.0-0.8j")
    res = scaled_covariance_experiment(
        cfg.model(),
        cfg._num("alpha"),
        cfg._list("s_list", "1e-1,1e-2,1e-3"),
        z,
        n_replicates=cfg._int("replicates"),
        master_seed=cfg.seed,
        head_n=cfg._int("head_n", 2 ** 12),
    )
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
    header = ("s,i,j,pseudo_re,pseudo_im,kernel_pseudo_re,kernel_pseudo_im,se_pseudo,"
              "hermitian_re,hermitian_im,kernel_hermitian_re,kernel_hermitian_im,se_hermitian")
    return [res["report"]], {"covariance.csv": (header, rows)}


def _run_zeros_complex(cfg: ExperimentConfig):
    """Locate all zeros of a few sampled paths in the mapped disk's bounding rectangle."""
    model = cfg.model()
    s = cfg._num("s")
    r = cfg._num("r", 0.5)
    n_paths = cfg._int("replicates", 4)
    tol = cfg._num("tol", 5e-3)
    rect = mapped_disk_rectangle(r, DISK_MARGIN)
    sampler = ScaledSeriesSampler(
        model, 0.0, s, cfg._int("head_n", 2 ** 12), x_min=rect.lo.real, r_max=evaluation_reach(rect, tol),
    )
    rows = []
    total = 0
    for rep in range(n_paths):
        path = sampler.sample_path(CoefficientStream(model, cfg.seed, rep))
        measure = locate_zeros(path.eval, rect, tol=tol)
        total += measure.total()
        for loc, mult in measure.atoms:
            rows.append((rep, loc.real, loc.imag, mult))
    report = StatReport(
        name="zeros-complex",
        statistic=float(total) / n_paths,
        n_replicates=n_paths,
        seed=cfg.seed,
        verdict="pass",
        details={"model": model.kind, "s": s, "r": r},
    )
    return [report], {"atoms.csv": ("replicate,re,im,multiplicity", rows)}


def _run_nr_dist(cfg: ExperimentConfig):
    report = zero_count_experiment(
        cfg.model(),
        s=cfg._num("s"),
        r=cfg._num("r"),
        n_replicates=cfg._int("replicates"),
        master_seed=cfg.seed,
        head_n=cfg._int("head_n", 2 ** 12),
        threads=cfg.threads,
    )
    law = zero_count_pmf(cfg._num("r"))
    hist = report.details["histogram"]
    rows = [
        (k, hist[k] if k < len(hist) else 0, law.pmf[k] if k < len(law.pmf) else 0.0)
        for k in range(max(len(hist), len(law.pmf)))
    ]
    return [report], {"counts.csv": ("count,observed,limit_pmf", rows)}


def _run_zeros_real(cfg: ExperimentConfig):
    report = real_zero_process_comparison(
        cfg.model(),
        s=cfg._num("s"),
        window=cfg.window(),
        n_replicates=cfg._int("replicates"),
        master_seed=cfg.seed,
        head_n=cfg._int("head_n", 2 ** 12),
        threads=cfg.threads,
    )
    hs = report.details["hist_series"]
    hg = report.details["hist_gaf"]
    rows = [(k, hs[k], hg[k]) for k in range(len(hs))]
    return [report], {"real_zero_counts.csv": ("count,series,power_series", rows)}


def _run_lil(cfg: ExperimentConfig):
    params = LILParams(
        alpha=cfg._num("alpha"),
        sigma1_sq=implied_covariance(cfg.model()).sigma1_sq,
        s_grid=tuple(cfg.s_grid()),
    )
    report = lil_band_check(cfg.model(), params, cfg.seed, head_n=cfg._int("head_n", 10 ** 5))
    rows = list(zip(report.details["s_grid"], report.details["r_values"]))
    return [report], {"lil.csv": ("s,r_value", rows)}


def _run_zeta_check(cfg: ExperimentConfig):
    beta = cfg._num("beta")
    mod = cfg._num("s")
    angles = cfg._list("angles", "0,0.785398163397448279")
    z_list = [mod * complex(np.cos(a), np.sin(a)) for a in angles]
    errors = zeta_limit_check(beta, z_list, k_cut=cfg._int("k_cut", 10 ** 5))
    rows = [(z.real, z.imag, err) for z, err in errors]
    worst = max(err for _, err in errors)
    report = StatReport(
        name="zeta-check",
        statistic=worst,
        n_replicates=len(z_list),
        seed=cfg.seed,
        verdict="pass",
        details={"beta": beta, "modulus": mod},
    )
    return [report], {"zeta.csv": ("re_z,im_z,error", rows)}


def _run_gaf_sample(cfg: ExperimentConfig):
    params = KernelParams(cfg._num("alpha"), implied_covariance(cfg.model()))
    z = cfg.z_grid("1.0;1.5+0.5j;2.0-0.5j;2.5+1.0j")
    rng = CoefficientStream(cfg.model(), cfg.seed, 0).bulk_generator()
    sampler = cfg.raw.get("sampler", "cholesky")
    if sampler == "cholesky":
        sample = sample_gaf_cholesky(params, z, rng)
    elif sampler == "integral":
        x_min = float(z.real.min())
        y_max, cells = cfg._num("y_max", MIN_REACH / x_min), cfg._int("cells", 2 ** 14)
        if not y_max >= MIN_REACH / x_min:
            raise ConfigError(f"key 'y_max' must be at least {MIN_REACH:g} / min Re(grid), got {y_max:g}")
        if cells < MIN_CELLS:
            raise ConfigError(f"key 'cells' must be at least {MIN_CELLS}, got {cells}")
        sample = sample_gaf_integral(params, z, rng, y_max=y_max, cells=cells)
    else:
        raise ConfigError(f"sampler must be cholesky or integral, got {sampler!r}")
    report = StatReport(
        name="gaf-sample",
        statistic=float(np.abs(sample.values).max()),
        n_replicates=1,
        seed=cfg.seed,
        verdict="pass",
        details={"sampler": sampler},
    )
    return [report], {"sample.csv": ("re_z,im_z,re_val,im_val", list(sample.to_csv_rows()))}


def _run_sigma_c(cfg: ExperimentConfig):
    model = cfg.model()
    alpha = cfg._num("alpha")
    n_max = cfg._int("n_max", 10 ** 6)
    stream = CoefficientStream(model, cfg.seed, 0)
    coeffs = stream.pairs(n_max - 1)
    spec = SeriesSpec(alpha, truncation_n=n_max)
    estimate = estimate_sigma_c(coeffs, spec, n_max)
    report = StatReport(
        name="sigma-c",
        statistic=estimate,
        n_replicates=1,
        seed=cfg.seed,
        verdict="pass" if abs(estimate - 0.5) < 0.1 else "fail",
        details={"alpha": alpha, "model": model.kind, "n_max": n_max, "target": 0.5},
    )
    return [report], {"sigma_c.csv": ("alpha,n_max,estimate", [(alpha, n_max, estimate)])}


@dataclass(frozen=True)
class Experiment:
    """A runner, cfg -> (reports, {csv name: (header, rows)}), the keys it reads besides COMMON_KEYS,
    and the modules it needs that ``import dirgaf.cli`` does not load."""

    runner: Callable
    required: tuple[str, ...]
    optional: tuple[str, ...] = ()
    modules: tuple[str, ...] = ()


EXPERIMENTS = {
    "clt": Experiment(_run_clt, ("alpha", "s", "replicates"),
                      ("head_n", "series.tail", "series.eps", "break_normalizer"), ("scipy.stats",)),
    "covariance": Experiment(_run_covariance, ("alpha", "replicates"), ("s_list", "grid", "head_n")),
    "zeros-complex": Experiment(_run_zeros_complex, ("s",), ("r", "replicates", "tol", "head_n")),
    "zeros-real": Experiment(_run_zeros_real, ("s", "replicates"), ("window", "head_n")),
    "nr-dist": Experiment(_run_nr_dist, ("s", "r", "replicates"), ("head_n",)),
    "lil": Experiment(_run_lil, ("alpha",), ("s_grid", "head_n")),
    "zeta-check": Experiment(_run_zeta_check, ("beta", "s"), ("angles", "k_cut"), ("mpmath",)),
    "gaf-sample": Experiment(_run_gaf_sample, ("alpha",), ("grid", "sampler", "y_max", "cells")),
    "sigma-c": Experiment(_run_sigma_c, ("alpha",), ("n_max",)),
}

DISPATCH = {name: experiment.runner for name, experiment in EXPERIMENTS.items()}


# -- running -------------------------------------------------------------------------


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; write manifest.json, report.json, and CSV files.

    Returns 1 when a hard criterion failed, else 0; a failure to produce the
    results raises its :class:`DirgafError`.

    Both ``dirgaf run`` and ``dirgaf replay`` come through here with a
    validated config, so every module the experiment needs is loaded.  The
    heap built so far is frozen: the collector, and the final collection at
    interpreter exit, no longer traverse it, while objects the run creates
    are collected as before.
    """
    gc.freeze()
    t0 = time.time()
    out_dir = config.output_dir
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
    reports, csvs = DISPATCH[config.experiment](config)
    files = {}
    for name, (header, rows) in csvs.items():
        write_csv(out_dir / name, header, rows)
        files[name] = file_sha256(out_dir / name)
    report_rows = [r.csv_row() for r in reports]
    write_csv(out_dir / "report.csv", CSV_REPORT_HEADER, report_rows)
    files["report.csv"] = file_sha256(out_dir / "report.csv")
    with open(out_dir / "report.json", "w", encoding="utf-8") as fh:
        json.dump([r.to_json_dict() for r in reports], fh, indent=2, sort_keys=True)
        fh.write("\n")
    manifest = {
        "artifact_version": __version__,
        "config": config.raw,
        "files": files,
        "wall_clock_s": time.time() - t0,
        "verdicts": {r.name: r.verdict for r in reports},
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for r in reports:
        print(f"[{r.verdict.upper()}] {r.name}: statistic={r.statistic:.6g}"
              + (f" p={r.p_value:.4g}" if r.p_value is not None else "")
              + (f" tv={r.tv_distance:.4g}" if r.tv_distance is not None else ""))
    hard_fail = any(r.verdict == "fail" for r in reports)
    return EXIT_FAIL if hard_fail else EXIT_OK


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
                print(f"payload mismatch for {name}", file=sys.stderr)
                return EXIT_FAIL
    print("replay ok: all payloads identical")
    return EXIT_OK


def exit_code(exc: DirgafError) -> int:
    """Print one stderr line for a failed run and return its exit code."""
    if isinstance(exc, ResourceCapError):
        code, what = EXIT_RESOURCE, "resource cap exceeded"
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dirgaf", description=__doc__)
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
    args = build_parser().parse_args(argv)
    try:
        if args.command == "replay":
            return replay(args.manifest)
        return run(ExperimentConfig.from_raw(raw_config(args)))
    except DirgafError as exc:
        return exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
