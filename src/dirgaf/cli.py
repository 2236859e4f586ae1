"""Batch experiment driver: config parsing, dispatch, and artifact emission.

Runs are reproducible by construction: all randomness flows from the single
config seed, replicates bind to streams by index, and CSV payloads are
formatted deterministically (UTF-8, LF, '.' decimal separator, 17 significant
digits).  ``replay`` re-executes a recorded manifest and byte-compares the
data files.

Exit codes: 0 success, 1 hard statistical criterion failed or replay payload
mismatch, 2 invalid config, 3 resource cap exceeded, 4 replay version mismatch,
5 numerical failure (a solver or sampler could not produce a valid result).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .coeff_models import CoefficientModel, CoefficientStream, MODEL_NAMES, implied_covariance
from .errors import (
    ArgumentError,
    DegenerateGridError,
    DirgafError,
    DiscretizationError,
    KernelInconsistencyError,
    NonConvergenceError,
    ResourceCapError,
    UnresolvableBoundaryError,
)
from .limit_gaf import KernelParams, sample_gaf_cholesky, sample_gaf_integral
from .series_eval import ScaledSeriesSampler, SeriesSpec, estimate_sigma_c
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
from .zero_finder import evaluation_reach, locate_zeros, mapped_disk_rectangle

EXPERIMENTS = (
    "clt",
    "covariance",
    "zeros-complex",
    "zeros-real",
    "nr-dist",
    "lil",
    "zeta-check",
    "gaf-sample",
    "sigma-c",
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_VERSION = 4
EXIT_NUMERICAL = 5

NUMERICAL_ERRORS = (
    UnresolvableBoundaryError,
    NonConvergenceError,
    DegenerateGridError,
    DiscretizationError,
    KernelInconsistencyError,
)


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


def parse_config_file(path: Path) -> dict:
    """Flat ``key = value`` pairs with '#' comments; dotted keys form sections."""
    out: dict[str, str] = {}
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
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

    @staticmethod
    def _need(raw: dict, key: str):
        if key not in raw:
            raise ConfigError(f"missing required key {key!r} for experiment {raw.get('experiment')!r}")
        return raw[key]

    @classmethod
    def from_raw(cls, raw: dict) -> "ExperimentConfig":
        exp = cls._need(raw, "experiment")
        if exp not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {exp!r}; expected one of {EXPERIMENTS}")
        needed = {
            "clt": ("alpha", "s", "replicates", "seed"),
            "covariance": ("alpha", "replicates", "seed"),
            "zeros-complex": ("s", "seed"),
            "zeros-real": ("s", "replicates", "seed"),
            "nr-dist": ("s", "r", "replicates", "seed"),
            "lil": ("alpha", "seed"),
            "zeta-check": ("beta", "s", "seed"),
            "gaf-sample": ("alpha", "seed"),
            "sigma-c": ("alpha", "seed"),
        }[exp]
        for key in needed:
            cls._need(raw, key)
        seed = _parse_int("seed", raw.get("seed", "0"))
        if not 0 <= seed < 2 ** 64:  # the stream key keeps only the low 64 bits
            raise ConfigError(f"seed must lie in 0..2**64-1, got {raw['seed']!r}")
        threads = _parse_int("threads", raw.get("threads", "1"))
        if threads < 1:
            raise ConfigError(f"threads must be at least 1, got {raw['threads']!r}")
        out_dir = Path(raw.get("output_dir", "."))
        return cls(experiment=exp, seed=seed, output_dir=out_dir, threads=threads, raw=dict(raw))

    # typed accessors ------------------------------------------------------

    def _num(self, key: str, default=None) -> float:
        if key not in self.raw:
            if default is None:
                raise ConfigError(f"missing required key {key!r}")
            return float(default)
        try:
            return float(self.raw[key])
        except ValueError as exc:
            raise ConfigError(f"key {key!r} must be numeric, got {self.raw[key]!r}") from exc

    def _int(self, key: str, default=None) -> int:
        if key not in self.raw:
            return int(self._num(key, default))
        return _parse_int(key, self.raw[key])

    def model(self) -> CoefficientModel:
        kind = self.raw.get("coefficients.kind", "rademacher")
        if kind not in MODEL_NAMES:
            raise ConfigError(f"coefficients.kind must be one of {MODEL_NAMES}, got {kind!r}")
        kwargs = {}
        if kind == "two-point":
            kwargs["point"] = complex(self.raw.get("coefficients.point", "1"))
            kwargs["p"] = float(self.raw.get("coefficients.p", "0.2"))
        try:
            return CoefficientModel.from_name(kind, **kwargs)
        except ArgumentError as exc:
            raise ConfigError(str(exc)) from exc

    def z_grid(self, default: str) -> np.ndarray:
        text = self.raw.get("grid", default)
        try:
            return np.array([complex(tok) for tok in text.split(";") if tok.strip()])
        except ValueError as exc:
            raise ConfigError(f"grid must be ';'-separated complex numbers, got {text!r}") from exc

    def s_grid(self) -> np.ndarray:
        text = self.raw.get("s_grid", "geom:1e-2:1e-6:40")
        if text.startswith("geom:"):
            try:
                hi, lo, n = text[5:].split(":")
                return np.geomspace(float(hi), float(lo), int(n))
            except ValueError as exc:
                raise ConfigError(f"s_grid geometric form must be geom:hi:lo:n, got {text!r}") from exc
        try:
            return np.array([float(tok) for tok in text.split(",")])
        except ValueError as exc:
            raise ConfigError(f"s_grid must be a comma list or geom:hi:lo:n, got {text!r}") from exc

    def window(self) -> tuple[float, float]:
        text = self.raw.get("window", "0.2,5")
        try:
            a, b = (float(t) for t in text.split(","))
        except ValueError as exc:
            raise ConfigError(f"window must be 'a,b', got {text!r}") from exc
        return a, b


# -- experiment dispatch -----------------------------------------------------------


def _run_clt(cfg: ExperimentConfig, threads: int):
    report = clt_normality_check(
        cfg.model(),
        alpha=cfg._num("alpha"),
        s=cfg._num("s"),
        n_replicates=cfg._int("replicates"),
        master_seed=cfg.seed,
        head_n=cfg._int("head_n", 2 ** 16),
        tail=cfg.raw.get("series.tail", "gaussian"),
        eps=cfg._num("series.eps", 0) or None,
        break_normalizer=cfg.raw.get("break_normalizer", "false") == "true",
    )
    csvs = {"clt_summary.csv": ("alpha,s,ks_statistic,p_value,sample_variance", [(
        report.details["alpha"], report.details["s"], report.statistic, report.p_value,
        report.details["sample_variance"],
    )])}
    return [report], csvs


def _run_covariance(cfg: ExperimentConfig, threads: int):
    s_list = [float(t) for t in cfg.raw.get("s_list", "1e-1,1e-2,1e-3").split(",")]
    z = cfg.z_grid("1.0;1.3+0.6j;2.0-0.8j")
    res = scaled_covariance_experiment(
        cfg.model(),
        cfg._num("alpha"),
        s_list,
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


def _run_zeros_complex(cfg: ExperimentConfig, threads: int):
    """Locate all zeros of a few sampled paths in the mapped disk's bounding rectangle."""
    model = cfg.model()
    s = cfg._num("s")
    r = cfg._num("r", 0.5)
    n_paths = cfg._int("replicates", 4)
    tol = cfg._num("tol", 5e-3)
    rect = mapped_disk_rectangle(r, 0.1)
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


def _run_nr_dist(cfg: ExperimentConfig, threads: int):
    model = cfg.model()
    report = zero_count_experiment(
        model,
        s=cfg._num("s"),
        r=cfg._num("r"),
        n_replicates=cfg._int("replicates"),
        master_seed=cfg.seed,
        head_n=cfg._int("head_n", 2 ** 12),
        threads=threads,
    )
    law = zero_count_pmf(cfg._num("r"))
    hist = report.details["histogram"]
    rows = [
        (k, hist[k] if k < len(hist) else 0, law.pmf[k] if k < len(law.pmf) else 0.0)
        for k in range(max(len(hist), len(law.pmf)))
    ]
    return [report], {"counts.csv": ("count,observed,limit_pmf", rows)}


def _run_zeros_real(cfg: ExperimentConfig, threads: int):
    report = real_zero_process_comparison(
        cfg.model(),
        s=cfg._num("s"),
        window=cfg.window(),
        n_replicates=cfg._int("replicates"),
        master_seed=cfg.seed,
        head_n=cfg._int("head_n", 2 ** 12),
        threads=threads,
    )
    hs = report.details["hist_series"]
    hg = report.details["hist_gaf"]
    rows = [(k, hs[k], hg[k]) for k in range(len(hs))]
    return [report], {"real_zero_counts.csv": ("count,series,power_series", rows)}


def _run_lil(cfg: ExperimentConfig, threads: int):
    params = LILParams(
        alpha=cfg._num("alpha"),
        sigma1_sq=implied_covariance(cfg.model()).sigma1_sq,
        s_grid=tuple(cfg.s_grid()),
    )
    report = lil_band_check(cfg.model(), params, cfg.seed, head_n=cfg._int("head_n", 10 ** 5))
    rows = list(zip(report.details["s_grid"], report.details["r_values"]))
    return [report], {"lil.csv": ("s,r_value", rows)}


def _run_zeta_check(cfg: ExperimentConfig, threads: int):
    beta = cfg._num("beta")
    mod = cfg._num("s")
    angles = [float(t) for t in cfg.raw.get("angles", "0,0.785398163397448279").split(",")]
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


def _run_gaf_sample(cfg: ExperimentConfig, threads: int):
    params = KernelParams(cfg._num("alpha"), implied_covariance(cfg.model()))
    z = cfg.z_grid("1.0;1.5+0.5j;2.0-0.5j;2.5+1.0j")
    rng = CoefficientStream(cfg.model(), cfg.seed, 0).bulk_generator()
    sampler = cfg.raw.get("sampler", "cholesky")
    if sampler == "cholesky":
        sample = sample_gaf_cholesky(params, z, rng)
    elif sampler == "integral":
        sample = sample_gaf_integral(
            params, z, rng,
            y_max=cfg._num("y_max", 30.0 / float(z.real.min())),
            cells=cfg._int("cells", 2 ** 14),
        )
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


def _run_sigma_c(cfg: ExperimentConfig, threads: int):
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


DISPATCH = {
    "clt": _run_clt,
    "covariance": _run_covariance,
    "zeros-complex": _run_zeros_complex,
    "zeros-real": _run_zeros_real,
    "nr-dist": _run_nr_dist,
    "lil": _run_lil,
    "zeta-check": _run_zeta_check,
    "gaf-sample": _run_gaf_sample,
    "sigma-c": _run_sigma_c,
}


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; write manifest.json, report.json, and CSV files."""
    t0 = time.time()
    out_dir = config.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        reports, csvs = DISPATCH[config.experiment](config, config.threads)
    except ResourceCapError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ArgumentError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read manifest: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if manifest.get("artifact_version") != __version__:
        print(
            f"version mismatch: manifest {manifest.get('artifact_version')} vs installed {__version__}",
            file=sys.stderr,
        )
        return EXIT_VERSION
    raw = dict(manifest["config"])
    with tempfile.TemporaryDirectory() as tmp:
        raw["output_dir"] = tmp
        try:
            config = ExperimentConfig.from_raw(raw)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        code = run(config)
        if code not in (EXIT_OK, EXIT_FAIL):
            return code
        old_dir = Path(manifest_path).parent
        for name, digest in manifest["files"].items():
            new_digest = file_sha256(Path(tmp) / name)
            old_file = old_dir / name
            old_digest = file_sha256(old_file) if old_file.exists() else digest
            if new_digest != old_digest:
                print(f"payload mismatch for {name}", file=sys.stderr)
                return EXIT_FAIL
    print("replay ok: all payloads identical")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dirgaf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment")
    runp.add_argument("--config", type=Path, help="flat key=value config file")
    for flag, key in [
        ("--experiment", "experiment"),
        ("--model", "coefficients.kind"),
        ("--alpha", "alpha"),
        ("--s", "s"),
        ("--replicates", "replicates"),
        ("--seed", "seed"),
        ("--beta", "beta"),
        ("--r", "r"),
        ("--window", "window"),
        ("--output-dir", "output_dir"),
        ("--threads", "threads"),
        ("--head-n", "head_n"),
    ]:
        runp.add_argument(flag, dest=key.replace(".", "__"), default=None)
    runp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                      help="override any config key")
    rep = sub.add_parser("replay", help="re-run a manifest and compare payloads")
    rep.add_argument("manifest", type=Path)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "replay":
        return replay(args.manifest)
    raw: dict[str, str] = {}
    try:
        if args.config is not None:
            raw.update(parse_config_file(args.config))
        for flag_key in (
            "experiment", "coefficients__kind", "alpha", "s", "replicates", "seed",
            "beta", "r", "window", "output_dir", "threads", "head_n",
        ):
            val = getattr(args, flag_key, None)
            if val is not None:
                raw[flag_key.replace("__", ".")] = str(val)
        for item in args.set:
            if "=" not in item:
                raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
            key, value = item.split("=", 1)
            raw[key.strip()] = value.strip()
        config = ExperimentConfig.from_raw(raw)
        config.model()  # validate model keys up front
        return run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceCapError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
