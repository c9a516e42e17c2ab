"""Command line front end.

Subcommands: capacity, widths, exp1, exp2, integrate, sample.  Parameters
come from flags or a JSON config file (flags win); the env var SYMPB_SEED
supplies the default seed.  Exit codes: 0 success, 1 numerical-domain error,
2 I/O or usage error.  Every CSV starts with a comment line carrying the
resolved configuration, so outputs are reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import ensembles, evolution, integrators
from .bottleneck import energy_scan
from .errors import SympbError
from .linalg import ellipsoid_capacity, symplectic_spectrum
from .matio import load_matrix
from .models import (
    builtin_cnf,
    builtin_quadratic,
    default_params,
    load_cnf_model,
    load_params,
)
from .tables import ExperimentReport

# built-in normal forms by name: degrees of freedom for builtin_cnf
BUILTIN_CNF = {
    "eckart-morse-2dof": 2,
    "eckart-morse-morse-3dof": 3,
}

DEFAULT_RADII = "0.05,0.1,0.2,0.4"
DEFAULT_XIS = "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0"


def _default_seed() -> int:
    raw = os.environ.get("SYMPB_SEED", "")
    return int(raw) if raw else 0


def _merge_config(args, defaults: dict) -> dict:
    """Layer resolution: built-in defaults, then config file, then flags."""
    cfg = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must contain a JSON object")
        for key, value in loaded.items():
            norm = key.replace("-", "_")
            if norm not in cfg:
                raise ValueError(f"unknown config key {key!r}")
            cfg[norm] = value
    for key in cfg:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _parse_floats(text: str, what: str) -> list:
    items = [s for s in str(text).split(",") if s.strip() != ""]
    if not items:
        raise ValueError(f"{what} list is empty")
    return [float(s) for s in items]


def _load_cnf(cfg):
    if cfg.get("model"):
        return load_cnf_model(cfg["model"])
    name = cfg.get("builtin") or "eckart-morse-2dof"
    if name not in BUILTIN_CNF:
        raise ValueError(
            f"unknown builtin {name!r}; choose from {sorted(BUILTIN_CNF)}"
        )
    return builtin_cnf(BUILTIN_CNF[name])


def _emit(report: ExperimentReport, cfg) -> None:
    fmt = cfg.get("format") or "csv"
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown output format {fmt!r}")
    target = cfg.get("output") or sys.stdout
    if fmt == "json":
        report.to_json(target)
    else:
        report.to_csv(target)


def _write_text(text: str, output) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------


def cmd_capacity(args) -> int:
    cfg = _merge_config(args, {"output": None})
    m = load_matrix(args.matrix_file)
    spectrum = symplectic_spectrum(m)
    doc = {
        "dim": int(m.shape[0]),
        "spectrum": [float(v) for v in spectrum],
        "capacity": float(ellipsoid_capacity(m)),
    }
    _write_text(json.dumps(doc) + "\n", cfg["output"])
    return 0


def cmd_widths(args) -> int:
    defaults = {
        "builtin": None,
        "model": None,
        "e_min": None,
        "e_max": None,
        "steps": 11,
        "samples": 100000,
        "seed": _default_seed(),
        "output": None,
        "format": None,
    }
    cfg = _merge_config(args, defaults)
    if cfg["e_min"] is None or cfg["e_max"] is None:
        print("error: --e-min and --e-max are required", file=sys.stderr)
        return 2
    model = _load_cnf(cfg)
    meta = {"command": "widths", **{k: v for k, v in cfg.items() if k != "output"}}
    report = energy_scan(
        model,
        float(cfg["e_min"]),
        float(cfg["e_max"]),
        int(cfg["steps"]),
        int(cfg["samples"]),
        int(cfg["seed"]),
        extra_meta=meta,
    )
    _emit(report, cfg)
    return 0


def cmd_exp1(args) -> int:
    defaults = {
        "radii": DEFAULT_RADII,
        "seed": _default_seed(),
        "sigma": evolution.DEFAULT_SIGMA,
        "tau_points": evolution.DEFAULT_TAU_POINTS,
        "tau_max": None,
        "e_ref": 0.0,
        "dof": 2,
        "output": None,
        "curves_out": None,
        "format": None,
    }
    cfg = _merge_config(args, defaults)
    model = builtin_quadratic(int(cfg["dof"]))
    radii = _parse_floats(cfg["radii"], "radii")
    tau_max = cfg["tau_max"]
    if tau_max is None:
        tau_max = 3.0 / model.lam
    tau_grid = np.linspace(0.0, float(tau_max), int(cfg["tau_points"]))
    meta = {"command": "exp1", **{k: v for k, v in cfg.items() if k != "output"},
            "radii": radii, "tau_max": float(tau_max)}
    report, curves = evolution.radius_scan_curves(
        model,
        radii,
        int(cfg["seed"]),
        tau_grid=tau_grid,
        sigma=float(cfg["sigma"]),
        e_ref=float(cfg["e_ref"]),
        extra_meta=meta,
    )
    _emit(report, cfg)
    if cfg["curves_out"]:
        for i, curve in enumerate(curves):
            curve.to_report({**meta, "radius_index": i}).to_csv(f"{cfg['curves_out']}_r{i}.csv")
    return 0


def _ensemble_cfg(args, with_kind: bool):
    defaults = {
        "builtin": None,
        "model": None,
        "n": 5000,
        "e_center": 0.0,
        "delta_e": None,
        "q1_range": 1.0,
        "seed": _default_seed(),
        "output": None,
        "format": None,
    }
    if with_kind:
        defaults.update({"kind": "A", "xi": 0.0})
    else:
        defaults.update({"xis": DEFAULT_XIS, "t_max": None})
    cfg = _merge_config(args, defaults)
    model = _load_cnf(cfg)
    delta_e = cfg["delta_e"]
    if delta_e is None:
        delta_e = ensembles.default_delta_e(model, float(cfg["e_center"]))
    return cfg, model, float(delta_e)


def cmd_exp2(args) -> int:
    cfg, model, delta_e = _ensemble_cfg(args, with_kind=False)
    xis = _parse_floats(cfg["xis"], "xi")
    t_max = cfg["t_max"]
    if t_max is None:
        t_max = ensembles.default_t_max(model)
    spec = ensembles.EnsembleSpec(
        n_traj=int(cfg["n"]),
        e_center=float(cfg["e_center"]),
        delta_e=delta_e,
        seed=int(cfg["seed"]),
        q1_range=float(cfg["q1_range"]),
    )
    meta = {"command": "exp2", **{k: v for k, v in cfg.items() if k != "output"},
            "delta_e": delta_e, "t_max": float(t_max), "xis": xis}
    report = ensembles.scan_report(model, spec, xis, float(t_max), extra_meta=meta)
    _emit(report, cfg)
    return 0


def cmd_sample(args) -> int:
    cfg, model, delta_e = _ensemble_cfg(args, with_kind=True)
    kind = str(cfg["kind"])
    spec = ensembles.EnsembleSpec(
        n_traj=int(cfg["n"]),
        e_center=float(cfg["e_center"]),
        delta_e=delta_e,
        seed=int(cfg["seed"]),
        xi=float(cfg["xi"]),
        q1_range=float(cfg["q1_range"]),
    )
    ens = ensembles.sample_ensemble(model, spec, kind)
    nb = model.n_bath
    columns = (
        ["q1", "p1"]
        + [f"j_{k}" for k in range(2, nb + 2)]
        + [f"phase_{k}" for k in range(2, nb + 2)]
        + ["energy"]
    )
    rows = np.column_stack([ens.q1, ens.p1, ens.j, ens.phases, ens.energy]).tolist()
    meta = {"command": "sample", **{k: v for k, v in cfg.items() if k != "output"},
            "delta_e": delta_e}
    report = ExperimentReport(columns=tuple(columns), rows=rows, meta=meta)
    _emit(report, cfg)
    return 0


def cmd_integrate(args) -> int:
    defaults = {
        "params": None,
        "state0": None,
        "h": 1e-3,
        "t_final": 10.0,
        "monitor_stride": 10,
        "fd_epsilon": 1e-6,
        "no_jacobian": None,
        "max_drift": None,
        "output": None,
    }
    cfg = _merge_config(args, defaults)
    if cfg["state0"] is None:
        print("error: --state0 is required (comma-separated q..., p...)", file=sys.stderr)
        return 2
    max_drift = cfg["max_drift"]
    if max_drift is not None:
        max_drift = float(max_drift)
        if not max_drift >= 0:
            raise ValueError(f"--max-drift must be >= 0, got {max_drift}")
    params = load_params(cfg["params"]) if cfg["params"] else default_params()
    state0 = _parse_floats(cfg["state0"], "state0")
    icfg = integrators.IntegratorConfig(
        h=float(cfg["h"]),
        t_final=float(cfg["t_final"]),
        monitor_stride=int(cfg["monitor_stride"]),
        fd_epsilon=float(cfg["fd_epsilon"]),
        compute_jacobian=not bool(cfg["no_jacobian"]),
    )
    record = integrators.integrate(params, np.asarray(state0), icfg)
    d = record.states.shape[1] // 2
    summary = {
        "drift": record.energy_drift,
        "symplecticity_error": record.symplecticity_error,
        "t_final": icfg.t_final,
        "h": icfg.h,
        "records": int(record.times.size),
    }
    # max_drift stays out of the metadata: the gate never changes the output bytes
    meta = {"command": "integrate",
            **{k: v for k, v in cfg.items() if k not in ("output", "max_drift")}}
    if cfg["output"]:
        columns = ["t"] + [f"q{i + 1}" for i in range(d)] + [f"p{i + 1}" for i in range(d)] + ["H"]
        rows = [
            (float(t), *(float(v) for v in state), float(e))
            for t, state, e in zip(record.times, record.states, record.energies)
        ]
        ExperimentReport(tuple(columns), rows, meta).to_csv(cfg["output"] + ".csv")
        _write_text(json.dumps(summary) + "\n", cfg["output"] + ".json")
    else:
        _write_text(json.dumps(summary) + "\n", None)
    if max_drift is not None and not record.energy_drift <= max_drift:
        print(f"error: energy drift {record.energy_drift!r} exceeds --max-drift {max_drift!r}",
              file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file; flags override its entries")
    sub.add_argument("-o", "--output", help="output path (default: stdout)")


def _add_model_flags(sub):
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--builtin", choices=sorted(BUILTIN_CNF),
                       help="built-in coefficient set (default: eckart-morse-2dof)")
    group.add_argument("--model", help="JSON coefficient file for the normal form")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sympb",
        description="Symplectic bottleneck diagnostics: spectra, widths, flux, "
                    "and finite-time transmission experiments.",
    )
    sub = parser.add_subparsers(dest="cmd")

    p = sub.add_parser("capacity", help="symplectic spectrum and capacity of an ellipsoid matrix")
    p.add_argument("matrix_file", help="CSV or JSON matrix file")
    _add_common(p)
    p.set_defaults(handler=cmd_capacity)

    p = sub.add_parser("widths", help="energy scan of maximal actions, candidate width, and flux")
    _add_model_flags(p)
    p.add_argument("--e-min", type=float)
    p.add_argument("--e-max", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--samples", type=int, help="Monte-Carlo samples per energy")
    p.add_argument("--seed", type=int)
    p.add_argument("--format", choices=("csv", "json"))
    _add_common(p)
    p.set_defaults(handler=cmd_widths)

    p = sub.add_parser("exp1", help="projection-area curves and the radius scan")
    p.add_argument("--radii", help=f"comma-separated radii (default {DEFAULT_RADII})")
    p.add_argument("--seed", type=int, help="mixer seed")
    p.add_argument("--sigma", type=float, help="mixer strength")
    p.add_argument("--tau-points", type=int)
    p.add_argument("--tau-max", type=float, help="default 3/lambda")
    p.add_argument("--e-ref", type=float, help="energy of the reference width level")
    p.add_argument("--dof", type=int, choices=(2, 3))
    p.add_argument("--curves-out", help="prefix for per-radius A(tau) curve files")
    p.add_argument("--format", choices=("csv", "json"))
    _add_common(p)
    p.set_defaults(handler=cmd_exp1)

    p = sub.add_parser("exp2", help="transmission-vs-localization scan with baseline")
    _add_model_flags(p)
    p.add_argument("--xis", help=f"comma-separated xi values (default {DEFAULT_XIS})")
    p.add_argument("--n", type=int, help="trajectories per ensemble (default 5000)")
    p.add_argument("--e-center", type=float)
    p.add_argument("--delta-e", type=float, help="energy half-width (default 1%% of excess)")
    p.add_argument("--q1-range", type=float)
    p.add_argument("--t-max", type=float, help="default 5/lambda")
    p.add_argument("--seed", type=int)
    p.add_argument("--format", choices=("csv", "json"))
    _add_common(p)
    p.set_defaults(handler=cmd_exp2)

    p = sub.add_parser("sample", help="dump one sampled ensemble as a table")
    _add_model_flags(p)
    p.add_argument("--kind", choices=("A", "B"))
    p.add_argument("--xi", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--e-center", type=float)
    p.add_argument("--delta-e", type=float)
    p.add_argument("--q1-range", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--format", choices=("csv", "json"))
    _add_common(p)
    p.set_defaults(handler=cmd_sample)

    p = sub.add_parser("integrate", help="integrate the physical Hamiltonian with monitors")
    p.add_argument("--params", help="JSON parameter file (default: built-in parameters)")
    p.add_argument("--state0", help="comma-separated initial state q..., p...")
    p.add_argument("--h", type=float)
    p.add_argument("--t-final", type=float)
    p.add_argument("--monitor-stride", type=int)
    p.add_argument("--fd-epsilon", type=float)
    p.add_argument("--no-jacobian", action="store_true", default=None,
                   help="skip the finite-difference symplecticity check")
    p.add_argument("--max-drift", type=float,
                   help="exit 1 after writing the outputs if the energy drift exceeds this")
    _add_common(p)
    p.set_defaults(handler=cmd_integrate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = getattr(args, "handler", None)
    if handler is None:
        parser.print_help()
        return 2
    try:
        return handler(args)
    except SympbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
