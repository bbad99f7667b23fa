"""Experiment harness CLI.

    halftest sample --config cfg.json --out data.csv [--seed N]
    halftest test   DATASET --config cfg.json [--out report.json]
    halftest learn  --config cfg.json --out DIR [--jobs N] [--seed N]
    halftest oracle DATASET --config cfg.json [--out report.json]

Configs are single JSON documents (schemas in the README).  Exit codes:
0 accept/success, 1 reject, 2 usage/config error, 3 I/O error.  Outputs
are written atomically (temp file + rename) and every report carries the
library version, a config hash, and the resolved calibration constants.
Given the same config and seed, dataset files and JSON reports are
byte-identical across runs (timing lives only in the aggregate CSV).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .distributions import (Dataset, MarginalSpec, NoiseModel, empirical_error,
                            label_dataset, load_dataset, sample_marginal,
                            to_binary, to_csv)
from .errors import HalftestError
from .learner import (FixedDatasetSource, LearnerConfig, SyntheticSource,
                      universal_tester_learner)
from .numerics import householder_basis, is_integer, is_number, unit
from .oracle import (brute_force_max_fourth_moment, erm_halfspace,
                     finite_difference_gradient, gaussian_strip_stats,
                     structural_check)
from .sos_hyper import empirical_fourth_moment_tensor, solve_relaxation
from .surrogate import PsgdConfig, RampParams, surrogate_gradient, surrogate_loss
from .testers import (TesterConfig, hypercontractivity_test,
                      local_disagreement_test, spectral_test,
                      stationary_point_test, strip_probability,
                      weak_anticoncentration_test)
from . import rng

EXIT_ACCEPT = 0
EXIT_REJECT = 1
EXIT_CONFIG = 2
EXIT_IO = 3

TESTER_NAMES = ("spectral", "strip", "disagreement", "anticoncentration",
                "hypercontractivity", "stationary")
ORACLE_CHECKS = ("fourth-moment", "gradient", "erm", "structural", "strip-stats")


class ConfigError(Exception):
    pass


# The keys each config section may hold, all of them read.  Any other key is
# a config error, so a misspelt key cannot fall back to its default.
CONFIG_KEYS = {
    "sample": ("marginal", "noise", "n", "seed", "out"),
    "test": ("tester", "tester_config", "w", "theta", "mode", "sigma", "eta"),
    "learn": ("learner", "marginal", "noise", "dataset", "trials", "seeds",
              "seed", "out"),
    "oracle": ("check", "seed", "sigma", "directions", "instances", "target",
               "offset"),
    "marginal": ("kind", "dim", "nu", "spread", "direction"),
    "noise": ("kind", "target", "eta", "profile", "width", "rule", "flip_prob"),
    "tester": ("lambda", "gamma", "c1", "c_hyper"),
    "learner": ("lambda", "gamma", "eps", "noise", "eta", "psgd", "tester",
                "n1", "n2", "repetitions"),
    "psgd": ("iterations", "step_size", "batch_size"),
}


def _section(name: str, c) -> dict:
    """``c``, checked to be a JSON object that holds only keys of ``name``."""
    if not isinstance(c, dict):
        raise ConfigError(f"{name} config must be a JSON object")
    unknown = sorted(set(c) - set(CONFIG_KEYS[name]))
    if unknown:
        raise ConfigError(f"unknown {name} config key(s) "
                          + ", ".join(map(repr, unknown)))
    return c


def _number(c: dict, key: str, default=None, test=is_number):
    """c[key], or ``default`` when c has no such key, as written, checked to
    be a JSON number (an integer when ``test`` is ``is_integer``); JSON true
    and false are neither."""
    value = c.get(key, default)
    if not test(value):
        what = "an integer" if test is is_integer else "a number"
        raise ConfigError(f"{key} must be {what}, not {value!r}")
    return value


def _vector(c: dict, key: str) -> np.ndarray:
    """c[key], checked to be a nonempty JSON list of numbers, as a float
    vector; a list holding true, false or a string is refused, not coerced."""
    value = c[key]
    if not (isinstance(value, (list, tuple)) and value
            and all(is_number(x) for x in value)):
        raise ConfigError(f"{key} must be a nonempty list of numbers, "
                          f"not {value!r}")
    return np.array(value, dtype=float)


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def atomic_write(path: str, data) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    mode = "wb" if isinstance(data, bytes) else "w"
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".halftest-tmp-")
    try:
        with os.fdopen(fd, mode) as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _report(cfg: dict, body: dict) -> str:
    payload = {"library_version": __version__,
               "config_hash": _config_hash(cfg)}
    payload.update(body)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _print_report(cfg: dict, body: dict, out) -> None:
    """Print the report, and write it to ``out`` too when that is set."""
    text = _report(cfg, body)
    print(text, end="")
    if out:
        atomic_write(out, text)


# ---------------------------------------------------------------------------
# config -> objects

def marginal_from_config(c: dict) -> MarginalSpec:
    c = _section("marginal", c)
    return MarginalSpec(
        kind=c["kind"], dim=c["dim"],
        nu=c.get("nu"), spread=c.get("spread"),
        direction=(tuple(_vector(c, "direction").tolist())
                   if c.get("direction") is not None else None))


def _target_vector(c: dict, dim: int) -> tuple:
    target = c.get("target", "e1")
    if target == "e1":
        return tuple(np.eye(dim)[0])
    return tuple(unit(_vector(c, "target")))


def noise_from_config(c: dict, dim: int) -> NoiseModel:
    c = _section("noise", c)
    return NoiseModel(**dict(c, target=_target_vector(c, dim)))


def tester_from_config(c: dict) -> TesterConfig:
    c = _section("tester", c)
    return TesterConfig(**{"lam" if key == "lambda" else key: v
                           for key, v in c.items()})


def psgd_from_config(c: dict) -> PsgdConfig:
    # no seed: the learner seeds every sigma's PSGD run itself
    c = _section("psgd", c)
    return PsgdConfig(**{"iterations": 400, "batch_size": None, **c})


def learner_from_config(c: dict) -> LearnerConfig:
    # a key left out takes its dataclass default; lambda and gamma have none
    c = _section("learner", c)
    given = {"lam" if key == "lambda" else key: v for key, v in c.items()
             if key not in ("eps", "psgd", "tester")}
    return LearnerConfig(**{"lam": 1.0, "gamma": 1.0, **given}, eps=c["eps"],
                         psgd=psgd_from_config(c.get("psgd", {})),
                         tester=tester_from_config(c.get("tester", {})))


def read_config(command: str, cfg) -> dict:
    """The sections of a ``command`` config, built without sampling or
    learning: ``tester`` (test), ``learner`` (learn), ``marginal`` and
    ``noise`` (sample, and learn without a dataset).  A missing or
    malformed section, or a key the command does not read, is a
    ConfigError."""
    cfg = _section(command, cfg)
    parts = {}
    if command == "test":
        parts["tester"] = tester_from_config(cfg.get("tester_config", {}))
    if command == "learn":
        if "learner" not in cfg:
            raise ConfigError("learn config needs a 'learner' section")
        parts["learner"] = learner_from_config(cfg["learner"])
        if "dataset" in cfg:
            return parts
        for key in ("marginal", "noise"):
            if key not in cfg:
                raise ConfigError(
                    f"learn config needs a '{key}' section (or 'dataset')")
    if command in ("sample", "learn"):
        marginal = marginal_from_config(cfg["marginal"])
        parts["marginal"] = marginal
        parts["noise"] = noise_from_config(cfg.get("noise", {"kind": "clean"}),
                                           marginal.dim)
    return parts


def resolved_constants(tc: TesterConfig) -> dict:
    return {"lambda": tc.lam, "gamma": tc.gamma, "c1": tc.c1,
            "c_hyper": tc.c_hyper, "strip_constant": tc.strip_constant}


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def _trial_seeds(cfg: dict) -> list:
    trials = _number(cfg, "trials", 1, is_integer)
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if "seeds" not in cfg:
        root = _number(cfg, "seed", 0, is_integer)
        return [root + i for i in range(trials)]
    seeds = cfg["seeds"]
    if not (isinstance(seeds, list) and len(seeds) == trials
            and all(map(is_integer, seeds))):
        raise ConfigError(f"seeds must be {trials} integers, not {seeds!r}")
    return seeds


# ---------------------------------------------------------------------------
# subcommands

def cmd_sample(args) -> int:
    cfg = _load_config(args.config)
    parts = read_config("sample", cfg)
    n = _number(cfg, "n", 0, is_integer)
    if n < 1:
        raise ConfigError("n must be >= 1")
    out = args.out or cfg.get("out")
    if not out:
        raise ConfigError("sample needs an output path (--out)")
    seed = _number(cfg, "seed", 0, is_integer) if args.seed is None else args.seed
    points = sample_marginal(parts["marginal"], n, seed)
    ds = label_dataset(points, parts["noise"], seed)
    atomic_write(out, to_csv(ds) if str(out).endswith(".csv") else to_binary(ds))
    return EXIT_ACCEPT


def _run_tester(ds: Dataset, cfg: dict, tc: TesterConfig):
    name = cfg.get("tester")
    if name not in TESTER_NAMES:
        raise ConfigError(f"tester must be one of {TESTER_NAMES}")
    w = None
    if name != "hypercontractivity":
        if "w" not in cfg:
            raise ConfigError(f"tester {name} needs a unit vector 'w'")
        w = unit(_vector(cfg, "w"))
        if w.shape != (ds.dim,):
            raise ConfigError("w dimension does not match the dataset")
    if name == "spectral":
        return spectral_test(ds.points, _number(cfg, "theta"), cfg.get("mode", "min"))
    if name == "strip":
        prob = strip_probability(ds.points, w, _number(cfg, "sigma"))
        return {"strip_probability": prob}
    if name == "disagreement":
        return local_disagreement_test(ds.points, w, _number(cfg, "theta"), tc)
    if name == "anticoncentration":
        return weak_anticoncentration_test(ds.points, w, _number(cfg, "sigma"), tc)
    if name == "hypercontractivity":
        return hypercontractivity_test(ds.points, tc.gamma, tc.c_hyper)
    eta = None if cfg.get("eta") is None else _number(cfg, "eta")
    return stationary_point_test(ds, w, _number(cfg, "sigma"), eta, tc)


def cmd_test(args) -> int:
    cfg = _load_config(args.config)
    tc = read_config("test", cfg)["tester"]
    ds = load_dataset(args.dataset)
    result = _run_tester(ds, cfg, tc)
    if isinstance(result, dict):
        body, code = {"result": result}, EXIT_ACCEPT
    else:
        body = {"accepted": result.accepted, "diagnostics": result.diagnostics}
        code = EXIT_ACCEPT if result.accepted else EXIT_REJECT
    body["constants"] = resolved_constants(tc)
    _print_report(cfg, body, args.out)
    return code


def _learn_trial(payload) -> dict:
    cfg, seed = payload
    parts = read_config("learn", cfg)
    if "dataset" in cfg:
        source = FixedDatasetSource(load_dataset(cfg["dataset"]))
    else:
        source = SyntheticSource(parts["marginal"], parts["noise"], seed)
    outcome = universal_tester_learner(source, parts["learner"], seed=seed)
    record = json.loads(outcome.to_json())
    record["seed"] = seed
    return {"record": record, "wall_time": outcome.wall_time}


def cmd_learn(args) -> int:
    if args.jobs < 1:
        raise ConfigError("--jobs must be >= 1")
    cfg = _load_config(args.config)
    tc = read_config("learn", cfg)["learner"].tester
    out_dir = args.out or cfg.get("out")
    if not out_dir:
        raise ConfigError("learn needs an output directory (--out)")
    if args.seed is not None:
        if "seeds" in cfg:
            raise ConfigError("--seed would be ignored next to a 'seeds' list")
        cfg = dict(cfg, seed=args.seed)
    seeds = _trial_seeds(cfg)
    if "dataset" in cfg and len(seeds) > 1:
        # every trial would read the same first rows of the file
        raise ConfigError("a dataset file serves one trial; set trials to 1")
    # a forked pool starts all its workers at the first submit
    jobs = min(args.jobs, len(seeds))
    payloads = [(cfg, seed) for seed in seeds]
    if jobs == 1:
        results = [_learn_trial(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_learn_trial, payloads))

    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for i, res in enumerate(results):
        rec = res["record"]
        text = _report(cfg, {"trial": i, "outcome": rec,
                             "constants": resolved_constants(tc)})
        atomic_write(os.path.join(out_dir, f"trial_{i:03d}.json"), text)
        rows.append([i, int(rec["status"] == "accepted"),
                     rec["empirical_error"] if rec["empirical_error"] is not None else "",
                     rec["sigma_used"] if rec["sigma_used"] is not None else "",
                     f"{res['wall_time']:.3f}"])
    buf = []
    buf.append("trial,accepted,error,sigma,wall_time")
    for row in rows:
        buf.append(",".join(str(v) for v in row))
    atomic_write(os.path.join(out_dir, "aggregate.csv"), "\n".join(buf) + "\n")
    accept_rate = sum(r["record"]["status"] == "accepted" for r in results) / len(results)
    print(json.dumps({"trials": len(results), "accept_rate": accept_rate}))
    if len(results) == 1:
        return EXIT_ACCEPT if results[0]["record"]["status"] == "accepted" else EXIT_REJECT
    return EXIT_ACCEPT


def _oracle_report(ds: Dataset, cfg: dict) -> dict:
    check = cfg.get("check")
    if check not in ORACLE_CHECKS:
        raise ConfigError(f"check must be one of {ORACLE_CHECKS}")
    seed = _number(cfg, "seed", 0, is_integer)
    if check == "fourth-moment":
        value, v = brute_force_max_fourth_moment(ds.points, seed=seed)
        sos, sol = solve_relaxation(empirical_fourth_moment_tensor(ds.points))
        return {"check": check, "oracle_value": value,
                "oracle_direction": [float(x) for x in v],
                "sos_value": sos, "sos_status": sol.status,
                "pass": bool(sol.optimal and sos >= value - 1e-5)}
    if check == "gradient":
        sigma = _number(cfg, "sigma", 0.2)
        p = RampParams(sigma)
        gen = rng.stream(seed, rng.STREAM_ORACLE + 3)
        worst = 0.0
        for _ in range(_number(cfg, "directions", 10, is_integer)):
            w = rng.unit_sphere(gen, ds.dim)
            lib = surrogate_gradient(w, ds, p)
            ref = finite_difference_gradient(lambda u: surrogate_loss(u, ds, p), w)
            denom = max(np.linalg.norm(ref), 1e-9)
            worst = max(worst, float(np.linalg.norm(lib - ref) / denom))
        return {"check": check, "sigma": sigma,
                "max_relative_deviation": worst, "pass": worst <= 1e-5}
    if check == "erm":
        w, opt = erm_halfspace(ds, seed=seed)
        return {"check": check, "opt": opt, "w": [float(x) for x in w],
                "pass": bool(abs(empirical_error(w, ds) - opt) < 1e-12)}
    if check == "structural":
        sigma = _number(cfg, "sigma", 0.1)
        gen = rng.stream(seed, rng.STREAM_ORACLE + 4)
        w_star = np.asarray(_target_vector(cfg, ds.dim))
        results = []
        for _ in range(_number(cfg, "instances", 20, is_integer)):
            w = rng.unit_sphere(gen, ds.dim)
            theta = math.acos(float(np.clip(w @ w_star, -1.0, 1.0)))
            if not 1e-6 < theta < math.pi / 2 - 1e-6:
                continue
            alpha = max(sigma / (2.0 * math.tan(theta)), 0.3)
            results.append(structural_check(ds, w, w_star, sigma, alpha))
        return {"check": check, "instances": len(results),
                "violations": sum(not r["holds"] for r in results),
                "pass": all(r["holds"] for r in results)}
    # strip-stats
    sigma = _number(cfg, "sigma", 0.1)
    offset = _number(cfg, "offset", 0.3)
    gen = rng.stream(seed, rng.STREAM_ORACLE + 5)
    w = rng.unit_sphere(gen, ds.dim)
    v = householder_basis(w)[0]
    analytic = gaussian_strip_stats(sigma, offset, uu_inner=float(w @ v))
    xw = ds.points @ w
    xv = ds.points @ v
    samples = {
        "strip_probability": np.abs(xw) <= sigma,
        "strip_second_moment": xv**2 * (np.abs(xw) <= sigma),
        "cross_fourth_moment": xw**2 * xv**2,
        "offset_strip_second_moment":
            xv**2 * ((np.abs(xw) >= offset) & (np.abs(xw) <= offset + sigma)),
    }
    emp = {key: float(np.mean(s)) for key, s in samples.items()}
    ses = {key: float(np.std(s) / math.sqrt(ds.n)) for key, s in samples.items()}
    checks = {key: bool(abs(emp[key] - analytic[key]) <= 3.0 * max(ses[key], 1e-12))
              for key in emp}
    return {"check": check, "sigma": sigma, "offset": offset,
            "empirical": emp, "analytic": analytic,
            "standard_errors": ses, "per_quantity": checks,
            "pass": all(checks.values())}


def cmd_oracle(args) -> int:
    cfg = _load_config(args.config)
    read_config("oracle", cfg)
    ds = load_dataset(args.dataset)
    report = _oracle_report(ds, cfg)
    _print_report(cfg, report, args.out)
    return EXIT_ACCEPT if report["pass"] else EXIT_REJECT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halftest",
        description="universal tester-learner experiments for halfspaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="generate a labeled dataset file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("test", help="run one tester on a dataset")
    p.add_argument("dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("learn", help="run tester-learner trials")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("oracle", help="cross-check library values on a dataset")
    p.add_argument("dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, HalftestError, KeyError, TypeError,
            ValueError) as exc:
        what = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        print(f"config error: {what}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
