"""Command-line driver: coefficients, Monte Carlo runs, validation, reports.

Subcommands
-----------
coeffs            deterministic coefficient table (add --weights for the
                  exact combinatorial weights of its C_{n,k})
mc                heat-content estimates over the configured times
validate          the report's bound checks plus the positivity audit
report            full expansion report (JSON/CSV)
sampler-selftest  distributional checks of the stable sampler

mc, validate and report share one set of estimates: one
``estimate_heat_content`` call at mc.seed covers the sorted t_list, every
time rescaling the same paths, so they agree bit for bit on Q(t) for one
config.  Every JSON output carries
``config_digest``, a hash of the resolved run (``dataclasses.asdict`` of its
RunConfig) without the output routing and mc.threads, neither of which
changes a computed number; a value spelled out at its default hashes as if
it were left out.  Hashing the resolved objects replaced an earlier hash of a
schema-shaped copy of the config, so digests written before that differ.

Exit codes: 0 success, 1 a check failed or an error (an "error:" line), 2 configuration error.

The JSON config schema (all sections except dimension/alpha/potential are
optional; unknown keys anywhere are rejected):

    {
      "dimension": 1,
      "alpha": 1.5,
      "potential": [{"weight": -1.0, "center": 0.0, "sharpness": 1.0}],
      "grid": {"points_per_axis": 256, "half_extent": 16.0},
      "t_list": [0.02, 0.05, 0.1, 0.2],
      "mc": {"n_paths": 200000, "m_steps": 64, "seed": 0, "threads": 1},
      "validate": {"n_max": 5, "gamma": 0.5},
      "output": {"directory": "out", "format": "both"}
    }
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from ._version import __version__
from .coefficients import MAX_ORDER, coefficient_table
from .montecarlo import McConfig, estimate_heat_content
from .potentials import GaussianMixturePotential, mixture
from .sampling import RngStream, _check_alpha, _is_finite_real, sampler_selftest
from .simplex import enumerate_compositions, weight_A
from .spectral import SpectralGrid
from .validator import (
    _FMT,
    _check_report_limits,
    _csv,
    expansion_report,
    positivity_audit,
    report_to_csv,
    report_to_json,
)


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    potential: GaussianMixturePotential
    alpha: float
    grid: SpectralGrid
    t_list: tuple[float, ...]
    mc: McConfig
    n_max: int
    gamma: float | None
    out_dir: str | None
    formats: tuple[str, ...]


_REQUIRED = object()  # the default of a key a config must give
_NUM = (int, float)


def _section(obj: dict, spec: dict, path: str, invalid: str = "") -> dict:
    """Every key of spec ({key: (JSON types, default)}) read from obj, which may hold no other key.

    Unknown keys are looked for first.  A missing, mistyped or non-finite value
    raises with ``invalid`` in front of its message: the grid and mc sections
    pass the prefix that their range errors carry.
    """
    for key in obj:
        if key not in spec:
            raise ConfigError(f"unknown config key {path}{key!r}")
    out = {}
    for key, (types, default) in spec.items():
        val = out[key] = obj.get(key, default)
        if val is _REQUIRED:
            raise ConfigError(f"{invalid}missing required config key {path}{key!r}")
        # JSON true/false load as bool, a subclass of int; no key takes one
        if key in obj and (isinstance(val, bool) or not isinstance(val, types)):
            raise ConfigError(f"{invalid}config key {path}{key!r} has wrong type {type(val).__name__}")
        # no key takes JSON's NaN or Infinity, or an int too large for float() to convert
        if isinstance(val, _NUM) and not _is_finite_real(val):
            raise ConfigError(f"{invalid}{path}{key} must be a finite number within float range")
    return out


def _coords(value, path: str) -> list[float]:
    """A centre, a list of numbers or one bare number, as a list of floats."""
    vals = value if isinstance(value, list) else [value]
    if not all(_is_finite_real(u) for u in vals):
        raise ConfigError(f"{path} entries must be finite numbers")
    return [float(u) for u in vals]


# each config section's spec, {key: (JSON types, default)}, read by _section
_TOP = {
    "dimension": (int, _REQUIRED),
    "alpha": (_NUM, _REQUIRED),
    "potential": (list, _REQUIRED),
    "grid": (dict, {}),
    "t_list": (list, (0.02, 0.05, 0.1, 0.2)),
    "mc": (dict, {}),
    "validate": (dict, {}),
    "output": (dict, {}),
}
_COMPONENT = {"weight": (_NUM, _REQUIRED), "center": (_NUM + (list,), _REQUIRED), "sharpness": (_NUM, _REQUIRED)}
_MC = {
    "n_paths": (int, 200_000),
    "m_steps": (int, McConfig.m_steps),
    "seed": (int, McConfig.seed),
    "threads": (int, McConfig.threads),
    # mc.proposal set the start-point proposal of an earlier estimator; it is still
    # checked, so a config rejected before still is, but no value is read (main warns)
    "proposal": ((dict, type(None)), None),
}
_PROPOSAL = {"center": (_NUM + (list,), None), "sigma": (_NUM, None)}
_VALIDATE = {"n_max": (int, MAX_ORDER), "gamma": (_NUM + (type(None),), None)}
_OUTPUT = {"directory": (str, None), "format": (str, "both")}
_FORMATS = {"csv": ("csv",), "json": ("json",), "both": ("csv", "json")}  # each output.format's files


def _grid_spec(dim: int) -> dict:
    """The grid section's spec, whose defaults are those of ``SpectralGrid.default_for(dim)``."""
    gdef = SpectralGrid.default_for(dim)
    return {"points_per_axis": (int, gdef.points_per_axis), "half_extent": (_NUM, gdef.half_extent)}


def load_config(path: str) -> RunConfig:
    """Parse and strictly validate a JSON run configuration."""
    return resolve_config(_read_config(path))


def _read_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return raw


def resolve_config(raw: dict) -> RunConfig:
    top = _section(raw, _TOP, "")
    dim, alpha = top["dimension"], top["alpha"]
    if dim not in (1, 2, 3):
        raise ConfigError(f"dimension must be 1, 2 or 3, got {dim!r}")
    try:
        _check_alpha(alpha)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    weights, centers, sharps = [], [], []
    for i, comp in enumerate(top["potential"]):
        if not isinstance(comp, dict):
            raise ConfigError(f"potential[{i}] must be an object")
        comp = _section(comp, _COMPONENT, f"potential[{i}].")
        if not isinstance(comp["center"], list) and dim > 1:
            raise ConfigError(f"potential[{i}].center must be a list of {dim} numbers in dimension {dim}")
        weights.append(float(comp["weight"]))
        centers.append(_coords(comp["center"], f"potential[{i}].center"))
        sharps.append(float(comp["sharpness"]))
    try:
        pot = mixture(weights, centers, sharps, dimension=dim)
    except ValueError as exc:
        raise ConfigError(f"invalid potential: {exc}") from exc

    gsec = _section(top["grid"], _grid_spec(dim), "grid.", "invalid grid: ")
    try:
        grid = SpectralGrid(dim, gsec["points_per_axis"], float(gsec["half_extent"]))
    except ValueError as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc

    ts = top["t_list"]
    if not ts or not all(_is_finite_real(t) and t > 0 for t in ts):
        raise ConfigError("t_list must be a nonempty list of positive finite numbers")
    t_list = tuple(sorted(float(t) for t in ts))

    msec = _section(top["mc"], _MC, "mc.", "invalid mc section: ")
    if (prop := msec.pop("proposal")) is not None:
        prop = _section(prop, _PROPOSAL, "mc.proposal.")
        if prop["center"] is not None and len(_coords(prop["center"], "mc.proposal.center")) != dim:
            raise ConfigError(f"mc.proposal.center must have {dim} entries")
        if prop["sigma"] is not None and not prop["sigma"] > 0.0:
            raise ConfigError(f"mc.proposal.sigma must be a positive finite number, got {prop['sigma']!r}")
    try:
        mc = McConfig(**msec)
    except ValueError as exc:
        raise ConfigError(f"invalid mc section: {exc}") from exc

    vsec = _section(top["validate"], _VALIDATE, "validate.")
    n_max = vsec["n_max"]
    gamma = None if vsec["gamma"] is None else float(vsec["gamma"])
    try:
        _check_report_limits(float(alpha), n_max, gamma)
    except ValueError as exc:
        raise ConfigError(f"invalid validate section: {exc}") from exc

    osec = _section(top["output"], _OUTPUT, "output.")
    if osec["format"] not in _FORMATS:
        raise ConfigError(f"output.format must be csv, json or both, got {osec['format']!r}")
    return RunConfig(pot, float(alpha), grid, t_list, mc, n_max, gamma, osec["directory"], _FORMATS[osec["format"]])


def config_digest(cfg: RunConfig) -> str:
    """Identifies the computation: the resolved run less output routing and thread count, which change no number."""
    doc = asdict(cfg)
    del doc["out_dir"], doc["formats"], doc["mc"]["threads"]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def _write_outputs(cfg: RunConfig, stem: str, json_doc: dict, csv_text: str) -> None:
    if cfg.out_dir is None:
        return
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if "json" in cfg.formats:
        json_doc = json_doc | {"config_digest": config_digest(cfg), "version": __version__}
        (out / f"{stem}.json").write_text(json.dumps(json_doc, sort_keys=True, indent=2) + "\n")
    if "csv" in cfg.formats:
        (out / f"{stem}.csv").write_text(csv_text)


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    mc = {key: val for key in ("seed", "threads") if (val := getattr(args, key)) is not None}
    try:
        changes = {"mc": replace(cfg.mc, **mc)} if mc else {}
    except ValueError as exc:
        raise ConfigError(f"invalid override: {exc}") from exc
    if args.out:
        changes["out_dir"] = args.out
    if args.format:
        changes["formats"] = _FORMATS[args.format]
    return replace(cfg, **changes)


def _expansion_report(cfg: RunConfig):
    return expansion_report(
        cfg.potential, cfg.alpha, cfg.t_list, cfg.mc, grid=cfg.grid, n_max=cfg.n_max, gamma=cfg.gamma
    )


# -- subcommands -----------------------------------------------------------------


def _cmd_coeffs(cfg: RunConfig, args) -> int:
    table = coefficient_table(cfg.potential, cfg.grid, cfg.alpha)
    print(f"# coefficients  alpha={cfg.alpha:g}  {cfg.grid.descriptor}  config={config_digest(cfg)}")
    for label, e in table.entries.items():
        print(f"{label:8s} {_FMT(e.value):>24s}  {e.route:12s} {e.grid}")
    doc = {
        "alpha": cfg.alpha,
        "dimension": cfg.potential.dimension,
        "entries": {label: asdict(e) for label, e in table.entries.items()},
    }
    if args.weights:
        print("# exact simplex weights A(n, l)")
        doc["weights"] = []
        # every n and k that occur in a C_{n,k} with n + k <= MAX_ORDER
        for n in range(MAX_ORDER - 1):
            for k in range(2, MAX_ORDER - n + 1):
                for ell in enumerate_compositions(n, k - 1):
                    val = weight_A(n, ell)
                    doc["weights"].append({"n": n, "composition": list(ell), "value": str(val)})
                    print(f"A({n},{ell}) = {val}")
    rows = [(label, e.value, e.route, e.grid) for label, e in table.entries.items()]
    _write_outputs(cfg, "coeffs", doc, _csv(("label", "value", "route", "grid"), rows))
    return 0


def _cmd_mc(cfg: RunConfig, args) -> int:
    print(f"# heat-content estimates  alpha={cfg.alpha:g}  n_paths={cfg.mc.n_paths}  config={config_digest(cfg)}")
    rows = list(zip(cfg.t_list, estimate_heat_content(cfg.potential, cfg.alpha, cfg.t_list, cfg.mc)))
    for t, est in rows:
        print(f"t={t:<10g} Q={_FMT(est.mean):>24s}  se={est.standard_error:.3e}  n={est.n_samples}")
    header = ("t", "mean", "standard_error", "n_samples")
    cells = [(t, e.mean, e.standard_error, e.n_samples) for t, e in rows]
    doc = {"alpha": cfg.alpha, "estimates": [dict(zip(header, row)) for row in cells]}
    _write_outputs(cfg, "mc", doc, _csv(header, cells))
    return 0


def _cmd_validate(cfg: RunConfig, args) -> int:
    report = _expansion_report(cfg)
    print(f"# validation  alpha={cfg.alpha:g}  config={config_digest(cfg)}")
    checks = [c for row in report.rows for c in row.checks]
    audit = positivity_audit(cfg.potential, cfg.grid, cfg.alpha)
    failed = 0
    for c in checks:
        failed += not c.passed
        print(f"{'PASS' if c.passed else 'FAIL'} {c.name}: value={c.value:.6e} margin={c.margin:.3e}")
    for r in audit:
        failed += not r.ok
        req = "required" if r.required else "probe"
        print(f"{'PASS' if r.ok else 'FAIL'} {r.label}: value={r.value:.6e} ({req})")
    doc = {
        "se_mult": report.se_mult,
        "checks": [{key: getattr(c, key) for key in ("name", "passed", "value", "margin")} for c in checks],
        "positivity": [asdict(r) for r in audit],
    }
    rows = [("bound", c.name, int(c.passed), c.value, c.margin) for c in checks]
    rows += [("positivity", r.label, int(r.ok), r.value, "") for r in audit]
    _write_outputs(cfg, "validate", doc, _csv(("kind", "name", "passed", "value", "margin"), rows))
    print(f"# {len(checks) + len(audit)} checks, {failed} failed")
    return 1 if failed else 0


def _cmd_report(cfg: RunConfig, args) -> int:
    report = _expansion_report(cfg)
    print(f"# expansion report  alpha={cfg.alpha:g}  config={config_digest(cfg)}")
    failed = 0
    for row in report.rows:
        bad = [c for c in row.checks if not c.passed]
        failed += len(bad)
        res = row.residuals[report.n_max]
        print(
            f"t={row.t:<10g} Q={row.estimate:+.8e} se={row.standard_error:.2e} "
            f"res(N={report.n_max})={res:+.3e} checks={'ok' if not bad else 'FAIL:' + ','.join(c.name for c in bad)}"
        )
    for n, fit in sorted(report.fitted_orders.items()):
        print(
            f"order fit N={n}: slope={fit.slope:.3f} (expect ~{n + 1}) r2={fit.r_squared:.4f} "
            f"window=[{fit.t_window[0]:g}, {fit.t_window[1]:g}] used={fit.n_used}"
        )
    _write_outputs(cfg, "report", json.loads(report_to_json(report)), report_to_csv(report))
    return 1 if failed else 0


def _cmd_selftest(args) -> int:
    n = 200_000 if args.quick else 1_000_000
    seed = args.seed if args.seed is not None else 0
    try:
        RngStream(seed)
    except ValueError as exc:
        raise ConfigError(f"invalid override: {exc}") from exc
    checks = sampler_selftest(seed=seed, n_cf=n)
    failed = 0
    for c in checks:
        failed += not c.passed
        print(f"{'PASS' if c.passed else 'FAIL'} {c.name}: stat={c.statistic:.4e} thr={c.threshold:.4e}")
    print(f"# {len(checks)} checks, {failed} failed")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fracheat", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"fracheat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run):
        p.set_defaults(run=run)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override mc.seed")
        p.add_argument("--threads", type=int, default=None, help="override mc.threads")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--format", choices=_FORMATS, default=None)

    p = sub.add_parser("coeffs", help="deterministic coefficient table")
    common(p, _cmd_coeffs)
    p.add_argument("--weights", action="store_true", help="also print exact simplex weights")
    common(sub.add_parser("mc", help="Monte Carlo heat-content estimates"), _cmd_mc)
    common(sub.add_parser("validate", help="bound checks and positivity audit"), _cmd_validate)
    common(sub.add_parser("report", help="full expansion report"), _cmd_report)
    p = sub.add_parser("sampler-selftest", help="distributional sampler checks")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--quick", action="store_true", help="smaller sample sizes")

    args = parser.parse_args(argv)
    try:
        if args.command == "sampler-selftest":
            return _cmd_selftest(args)
        raw = _read_config(args.config)
        cfg = _apply_overrides(resolve_config(raw), args)
        if "proposal" in raw.get("mc", {}):
            print("warning: config key 'mc.proposal' is ignored: start points are drawn from |V|", file=sys.stderr)
        return args.run(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
