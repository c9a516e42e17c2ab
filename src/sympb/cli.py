"""Command line front end.

Subcommands: capacity, widths, exp1, exp2, integrate, sample.  One table of
``Opt`` entries per subcommand gives its flags and its JSON config keys, with
the flag's type and choices for both (flags win); SYMPB_SEED supplies the
seed when neither gives one.  Exit codes: 0 success, 1 numerical-domain error,
2 I/O or usage error.  Every CSV starts with a comment line carrying the
resolved configuration, so outputs are reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import ensembles, evolution, integrators
from .bottleneck import energy_scan
from .errors import SympbError
from .linalg import ellipsoid_capacity, symplectic_spectrum
from .matio import load_matrix
from .models import (
    builtin_cnf,
    default_params,
    load_cnf_model,
    load_params,
)
from .tables import ExperimentReport, write_text

# built-in normal forms by name: degrees of freedom for builtin_cnf
BUILTIN_CNF = {
    "eckart-morse-2dof": 2,
    "eckart-morse-morse-3dof": 3,
}

DEFAULT_RADII = "0.05,0.1,0.2,0.4"
DEFAULT_XIS = "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0"


class Opt(NamedTuple):
    """One option: the flag ``--key`` (or ``flags``) and, when ``keyed``, the
    config key ``key``.  ``type`` is None for text and bool for a switch; a
    float must be finite, and a number must be at least ``minimum`` when one
    is given.  A callable ``default`` is called only when neither source gives
    a value.  ``exclusive`` options form the command's mutually exclusive
    group."""

    key: str
    type: Callable | None = None
    default: object = None
    choices: tuple | None = None
    help: str | None = None
    flags: tuple = ()
    keyed: bool = True
    exclusive: bool = False
    minimum: float | None = None


def _env_seed() -> int:
    raw = os.environ.get("SYMPB_SEED", "")
    try:
        seed = int(raw) if raw else 0
    except ValueError:
        raise ValueError(f"SYMPB_SEED must be an integer, got {raw!r}") from None
    return _checked(SEED, "SYMPB_SEED", seed)


SEED = Opt("seed", int, _env_seed, minimum=0)
MODEL = (
    Opt("builtin", choices=tuple(sorted(BUILTIN_CNF)), exclusive=True,
        help="built-in coefficient set (default: eckart-morse-2dof)"),
    Opt("model", exclusive=True, help="JSON coefficient file for the normal form"),
)
ENSEMBLE = (
    Opt("n", int, 5000, help="trajectories per ensemble (default 5000)"),
    Opt("e_center", float, 0.0),
    Opt("delta_e", float, help="energy half-width (default 1%% of excess)"),
    Opt("q1_range", float, 1.0),
)
OUTPUT = (
    Opt("config", keyed=False, help="JSON config file; flags override its entries"),
    Opt("output", flags=("-o", "--output"), help="output path (default: stdout)"),
)
TABLE_OUTPUT = (Opt("format", choices=("csv", "json")), *OUTPUT)

OPTIONS = {
    "capacity": (
        Opt("matrix_file", flags=("matrix_file",), keyed=False, help="CSV or JSON matrix file"),
        *OUTPUT,
    ),
    "widths": (
        *MODEL,
        Opt("e_min", float),
        Opt("e_max", float),
        Opt("steps", int, 11),
        Opt("samples", int, 100000, help="Monte-Carlo samples per energy"),
        SEED,
        *TABLE_OUTPUT,
    ),
    "exp1": (
        Opt("radii", default=DEFAULT_RADII, help=f"comma-separated radii (default {DEFAULT_RADII})"),
        SEED._replace(help="mixer seed"),
        Opt("sigma", float, evolution.DEFAULT_SIGMA, help="mixer strength"),
        Opt("tau_points", int, evolution.DEFAULT_TAU_POINTS),
        Opt("tau_max", float, help="default 3/lambda"),
        Opt("e_ref", float, 0.0, help="energy of the reference width level"),
        Opt("dof", int, 2, choices=(2, 3)),
        Opt("curves_out", help="prefix for per-radius A(tau) curve files"),
        *TABLE_OUTPUT,
    ),
    "exp2": (
        *MODEL,
        Opt("xis", default=DEFAULT_XIS, help=f"comma-separated xi values (default {DEFAULT_XIS})"),
        *ENSEMBLE,
        Opt("t_max", float, help="default 5/lambda"),
        SEED,
        *TABLE_OUTPUT,
    ),
    "sample": (
        *MODEL,
        Opt("kind", default="A", choices=("A", "B")),
        Opt("xi", float, 0.0),
        # sample's --help lists these flags without help text
        *(opt._replace(help=None) for opt in ENSEMBLE),
        SEED,
        *TABLE_OUTPUT,
    ),
    "integrate": (
        Opt("params", help="JSON parameter file (default: built-in parameters)"),
        Opt("state0", help="comma-separated initial state q..., p..."),
        Opt("h", float, 1e-3),
        Opt("t_final", float, 10.0),
        Opt("monitor_stride", int, 10),
        Opt("fd_epsilon", float, 1e-6),
        Opt("no_jacobian", bool, help="skip the finite-difference symplecticity check"),
        Opt("max_drift", float, minimum=0.0,
            help="exit 1 after writing the outputs if the energy drift exceeds this"),
        *OUTPUT,
    ),
}

_KINDS = {None: "text", bool: "true or false", int: "an integer", float: "a number"}


def _flag(opt: Opt) -> str:
    return opt.flags[-1] if opt.flags else "--" + opt.key.replace("_", "-")


def _checked(opt: Opt, name: str, value):
    """``value`` if it is finite and at least ``opt.minimum``; otherwise
    raises ValueError naming the option as ``name``."""
    if opt.type is float and not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if opt.minimum is not None and value < opt.minimum:
        raise ValueError(f"{name} must be >= {opt.minimum}, got {value!r}")
    return value


def _convert(opt: Opt, key: str, value):
    """A config value as its flag gives it: converted with the flag's type
    and checked against its choices and as ``_checked`` checks a flag.
    Raises ValueError naming ``key``."""
    if value is None and opt.default is None:
        return None
    got = json.dumps(value)
    if opt.type is bool:
        ok = isinstance(value, bool)
    else:
        ok = isinstance(value, (str, int, float)) and not isinstance(value, bool)
        if ok and opt.type is int and isinstance(value, float):
            ok = value.is_integer()
        if ok:
            try:
                value = (opt.type or str)(value)
            except (ValueError, OverflowError):
                ok = False
    if not ok:
        raise ValueError(f"config key {key!r} must be {_KINDS[opt.type]}, got {got}")
    if opt.choices is not None and value not in opt.choices:
        choices = ", ".join(json.dumps(c) for c in opt.choices)
        raise ValueError(f"config key {key!r} must be one of {choices}, got {got}")
    return _checked(opt, f"config key {key!r}", value)


def _merge_config(args, options) -> dict:
    """Layer resolution: defaults, then the config file, then flags.  The
    command's exclusive group is one setting: the config may set only one of
    its keys, and a flag in it overrides every config key of the group."""
    table = {opt.key: opt for opt in options if opt.keyed}
    loaded = {}
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("config file must contain a JSON object")
        for key, value in doc.items():
            opt = table.get(key.replace("-", "_"))
            if opt is None:
                raise ValueError(f"unknown config key {key!r}")
            loaded[opt.key] = _convert(opt, key, value)
    group = [opt.key for opt in options if opt.exclusive]
    in_config = [key for key in group if loaded.get(key) is not None]
    if len(in_config) > 1:
        raise ValueError(f"config keys {' and '.join(map(repr, in_config))} are mutually "
                         "exclusive")
    if any(getattr(args, key) is not None for key in group):
        for key in group:
            loaded.pop(key, None)
    cfg = {}
    for key, opt in table.items():
        value = getattr(args, key)
        if value is None:
            value = loaded[key] if key in loaded else opt.default
        else:
            value = _checked(opt, _flag(opt), value)
        cfg[key] = value() if callable(value) else value
    return cfg


def _meta(command: str, cfg: dict, **extra) -> dict:
    """The metadata line: the resolved configuration without the output path."""
    return {"command": command, **{k: v for k, v in cfg.items() if k != "output"}, **extra}


def _parse_floats(text: str, what: str) -> list:
    items = [s for s in text.split(",") if s.strip() != ""]
    if not items:
        raise ValueError(f"{what} list is empty")
    values = []
    for s in items:
        try:
            value = float(s)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"{what} must hold finite numbers, got {s.strip()!r}")
        values.append(value)
    return values


def _load_cnf(cfg):
    if cfg["model"]:
        return load_cnf_model(cfg["model"])
    return builtin_cnf(BUILTIN_CNF[cfg["builtin"] or "eckart-morse-2dof"])


def _emit(report: ExperimentReport, cfg) -> None:
    target = cfg["output"] or sys.stdout
    if cfg["format"] == "json":
        report.to_json(target)
    else:
        report.to_csv(target)


# ---------------------------------------------------------------------------
# handlers: each takes the parsed flags and the resolved configuration
# ---------------------------------------------------------------------------


def cmd_capacity(args, cfg) -> int:
    m = load_matrix(args.matrix_file)
    spectrum = symplectic_spectrum(m)
    doc = {
        "dim": int(m.shape[0]),
        "spectrum": [float(v) for v in spectrum],
        "capacity": float(ellipsoid_capacity(m)),
    }
    write_text(cfg["output"] or sys.stdout, json.dumps(doc) + "\n")
    return 0


def cmd_widths(args, cfg) -> int:
    if cfg["e_min"] is None or cfg["e_max"] is None:
        raise ValueError("--e-min and --e-max are required")
    report = energy_scan(_load_cnf(cfg), cfg["e_min"], cfg["e_max"], cfg["steps"],
                         cfg["samples"], cfg["seed"])
    report.meta.update(_meta("widths", cfg))
    _emit(report, cfg)
    return 0


def cmd_exp1(args, cfg) -> int:
    model = builtin_cnf(cfg["dof"])
    radii = _parse_floats(cfg["radii"], "radii")
    tau_max = cfg["tau_max"]
    if tau_max is None:
        tau_max = 3.0 / model.lam
    tau_grid = np.linspace(0.0, float(tau_max), cfg["tau_points"])
    meta = _meta("exp1", cfg, radii=radii, tau_max=float(tau_max))
    report, curves = evolution.radius_scan_curves(
        model, radii, cfg["seed"], tau_grid=tau_grid, sigma=cfg["sigma"], e_ref=cfg["e_ref"],
    )
    report.meta.update(meta)
    _emit(report, cfg)
    if cfg["curves_out"]:
        for i, curve in enumerate(curves):
            curve_report = curve.to_report()
            curve_report.meta.update(meta, radius_index=i)
            curve_report.to_csv(f"{cfg['curves_out']}_r{i}.csv")
    return 0


def _ensemble(cfg):
    """The model and ensemble spec shared by exp2 and sample."""
    model = _load_cnf(cfg)
    delta_e = cfg["delta_e"]
    if delta_e is None:
        delta_e = ensembles.default_delta_e(model, cfg["e_center"])
    spec = ensembles.EnsembleSpec(n_traj=cfg["n"], e_center=cfg["e_center"],
                                  delta_e=float(delta_e), seed=cfg["seed"],
                                  q1_range=cfg["q1_range"])
    return model, spec


def cmd_exp2(args, cfg) -> int:
    model, spec = _ensemble(cfg)
    xis = _parse_floats(cfg["xis"], "xis")
    t_max = cfg["t_max"]
    if t_max is None:
        t_max = ensembles.default_t_max(model)
    meta = _meta("exp2", cfg, delta_e=spec.delta_e, t_max=float(t_max), xis=xis)
    report = ensembles.scan_report(model, spec, xis, float(t_max))
    report.meta.update(meta)
    _emit(report, cfg)
    return 0


def cmd_sample(args, cfg) -> int:
    if cfg["kind"] == "A" and cfg["xi"] != 0:
        raise ValueError(f"xi = {cfg['xi']!r} needs kind B: kind A draws with xi = 0")
    model, spec = _ensemble(cfg)
    ens = ensembles.sample_ensemble(model, spec, cfg["xi"] if cfg["kind"] == "B" else 0.0)
    nb = model.n_bath
    columns = (
        ["q1", "p1"]
        + [f"j_{k}" for k in range(2, nb + 2)]
        + [f"phase_{k}" for k in range(2, nb + 2)]
        + ["energy"]
    )
    rows = np.column_stack([ens.q1, ens.p1, ens.j, ens.phases, ens.energy]).tolist()
    report = ExperimentReport(tuple(columns), rows, _meta("sample", cfg, delta_e=spec.delta_e))
    _emit(report, cfg)
    return 0


def cmd_integrate(args, cfg) -> int:
    if cfg["state0"] is None:
        raise ValueError("--state0 is required (comma-separated q..., p...)")
    max_drift = cfg["max_drift"]
    params = load_params(cfg["params"]) if cfg["params"] else default_params()
    state0 = _parse_floats(cfg["state0"], "state0")
    icfg = integrators.IntegratorConfig(
        h=cfg["h"], t_final=cfg["t_final"], monitor_stride=cfg["monitor_stride"],
        fd_epsilon=cfg["fd_epsilon"], compute_jacobian=not cfg["no_jacobian"],
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
    meta = _meta("integrate", cfg)
    del meta["max_drift"]
    if cfg["output"]:
        columns = ["t"] + [f"q{i + 1}" for i in range(d)] + [f"p{i + 1}" for i in range(d)] + ["H"]
        rows = [
            (float(t), *(float(v) for v in state), float(e))
            for t, state, e in zip(record.times, record.states, record.energies)
        ]
        ExperimentReport(tuple(columns), rows, meta).to_csv(cfg["output"] + ".csv")
    write_text(cfg["output"] + ".json" if cfg["output"] else sys.stdout,
               json.dumps(summary) + "\n")
    if max_drift is not None and not record.energy_drift <= max_drift:
        print(f"error: energy drift {record.energy_drift!r} exceeds --max-drift {max_drift!r}",
              file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_options(parser, options) -> None:
    group = None
    for opt in options:
        target = parser
        if opt.exclusive:
            group = group or parser.add_mutually_exclusive_group()
            target = group
        flags = opt.flags or (_flag(opt),)
        if opt.type is bool:
            kwargs = {"action": "store_true", "default": None}
        else:
            kwargs = {"type": opt.type, "choices": opt.choices}
        target.add_argument(*flags, help=opt.help, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sympb",
        description="Symplectic bottleneck diagnostics: spectra, widths, flux, "
                    "and finite-time transmission experiments.",
    )
    sub = parser.add_subparsers(dest="cmd")
    for name, handler, help_text in (
        ("capacity", cmd_capacity, "symplectic spectrum and capacity of an ellipsoid matrix"),
        ("widths", cmd_widths, "energy scan of maximal actions, candidate width, and flux"),
        ("exp1", cmd_exp1, "projection-area curves and the radius scan"),
        ("exp2", cmd_exp2, "transmission-vs-localization scan with baseline"),
        ("sample", cmd_sample, "dump one sampled ensemble as a table"),
        ("integrate", cmd_integrate, "integrate the physical Hamiltonian with monitors"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_options(p, OPTIONS[name])
        p.set_defaults(handler=handler)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on the first :func:`main` call."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.cmd is None:
        parser.print_help()
        return 2
    try:
        return args.handler(args, _merge_config(args, OPTIONS[args.cmd]))
    except SympbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
