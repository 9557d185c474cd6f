"""Command-line driver: coefficients, Monte Carlo runs, validation, reports.

Subcommands
-----------
coeffs            deterministic coefficient table (add --weights for the
                  exact combinatorial weights)
mc                heat-content estimates over the configured times
validate          the report's bound checks plus the positivity audit
report            full expansion report (JSON/CSV)
sampler-selftest  distributional checks of the stable sampler

mc, validate and report share one set of estimates: one estimator call at
mc.seed covers the sorted t_list, every time rescaling the same paths
(``validator.estimate_series``), so they agree bit for bit on Q(t) for one
config.  Every JSON output carries
``config_digest``, a hash of the resolved run (``dataclasses.asdict`` of its
RunConfig) without the output routing and mc.threads, neither of which
changes a computed number; a value spelled out at its default hashes as if
it were left out.  Hashing the resolved objects replaced an earlier hash of a
schema-shaped copy of the config, so digests written before that differ.

Exit codes: 0 success, 1 at least one check failed, 2 configuration error.

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
from .montecarlo import McConfig
from .potentials import GaussianMixturePotential, mixture
from .sampling import RngStream, _check_alpha, _is_finite_real, sampler_selftest
from .simplex import enumerate_compositions, weight_A
from .spectral import SpectralGrid
from .validator import (
    _check_report_limits,
    estimate_series,
    expansion_report,
    positivity_audit,
    report_to_csv,
    report_to_json,
)

_FMT = "{:.17g}".format


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


def _require_keys(obj: dict, allowed: set[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown config key {path}{key!r}")


def _get(obj: dict, key: str, types, path: str, default=None, required: bool = False):
    if key not in obj:
        if required:
            raise ConfigError(f"missing required config key {path}{key!r}")
        return default
    val = obj[key]
    # JSON true/false load as bool, a subclass of int; no key takes one
    if types is not None and (isinstance(val, bool) or not isinstance(val, types)):
        raise ConfigError(f"config key {path}{key!r} has wrong type {type(val).__name__}")
    # no key takes JSON's NaN or Infinity, or an int too large for float() to convert
    if isinstance(val, (int, float)) and not _is_finite_real(val):
        raise ConfigError(f"{path}{key} must be a finite number within float range")
    return val


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
    _require_keys(raw, {"dimension", "alpha", "potential", "grid", "t_list", "mc", "validate", "output"}, "")
    dim = _get(raw, "dimension", int, "", required=True)
    if dim not in (1, 2, 3):
        raise ConfigError(f"dimension must be 1, 2 or 3, got {dim!r}")
    alpha = _get(raw, "alpha", (int, float), "", required=True)
    try:
        _check_alpha(alpha)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    comps = _get(raw, "potential", list, "", required=True)
    weights, centers, sharps = [], [], []
    for i, comp in enumerate(comps):
        if not isinstance(comp, dict):
            raise ConfigError(f"potential[{i}] must be an object")
        _require_keys(comp, {"weight", "center", "sharpness"}, f"potential[{i}].")
        weights.append(float(_get(comp, "weight", (int, float), f"potential[{i}].", required=True)))
        center = _get(comp, "center", (int, float, list), f"potential[{i}].", required=True)
        if not isinstance(center, list) and dim > 1:
            raise ConfigError(f"potential[{i}].center must be a list of {dim} numbers in dimension {dim}")
        vals = center if isinstance(center, list) else [center]
        if not all(_is_finite_real(u) for u in vals):
            raise ConfigError(f"potential[{i}].center entries must be finite numbers")
        centers.append([float(u) for u in vals])
        sharps.append(float(_get(comp, "sharpness", (int, float), f"potential[{i}].", required=True)))
    try:
        pot = mixture(weights, centers, sharps, dimension=dim)
    except ValueError as exc:
        raise ConfigError(f"invalid potential: {exc}") from exc

    gsec = _get(raw, "grid", dict, "", default={})
    _require_keys(gsec, {"points_per_axis", "half_extent"}, "grid.")
    gdef = SpectralGrid.default_for(dim)
    try:
        grid = SpectralGrid(
            dim,
            _get(gsec, "points_per_axis", int, "grid.", default=gdef.points_per_axis),
            float(_get(gsec, "half_extent", (int, float), "grid.", default=gdef.half_extent)),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc

    ts = _get(raw, "t_list", list, "", default=[0.02, 0.05, 0.1, 0.2])
    if not ts or not all(_is_finite_real(t) and t > 0 for t in ts):
        raise ConfigError("t_list must be a nonempty list of positive finite numbers")
    t_list = tuple(sorted(float(t) for t in ts))

    msec = _get(raw, "mc", dict, "", default={})
    _require_keys(msec, {"n_paths", "m_steps", "seed", "threads", "proposal"}, "mc.")
    # mc.proposal set the start-point proposal of an earlier estimator; it is still
    # checked, so a config rejected before still is, but no value is read (main warns)
    prop = _get(msec, "proposal", (dict, type(None)), "mc.", default=None)
    if prop is not None:
        _require_keys(prop, {"center", "sigma"}, "mc.proposal.")
        raw_center = _get(prop, "center", (list, int, float), "mc.proposal.", default=None)
        if raw_center is not None:
            vals = raw_center if isinstance(raw_center, list) else [raw_center]
            if not all(_is_finite_real(u) for u in vals):
                raise ConfigError("mc.proposal.center entries must be finite numbers")
            if len(vals) != dim:
                raise ConfigError(f"mc.proposal.center must have {dim} entries")
        sigma = _get(prop, "sigma", (int, float), "mc.proposal.", default=None)
        if sigma is not None and not (_is_finite_real(sigma) and sigma > 0.0):
            raise ConfigError(f"mc.proposal.sigma must be a positive finite number, got {sigma!r}")
    try:
        mc = McConfig(
            n_paths=_get(msec, "n_paths", int, "mc.", default=200_000),
            m_steps=_get(msec, "m_steps", int, "mc.", default=64),
            seed=_get(msec, "seed", int, "mc.", default=0),
            threads=_get(msec, "threads", int, "mc.", default=1),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid mc section: {exc}") from exc

    vsec = _get(raw, "validate", dict, "", default={})
    _require_keys(vsec, {"n_max", "gamma"}, "validate.")
    n_max = _get(vsec, "n_max", int, "validate.", default=MAX_ORDER)
    gamma = _get(vsec, "gamma", (int, float, type(None)), "validate.", default=None)
    gamma = None if gamma is None else float(gamma)
    try:
        _check_report_limits(float(alpha), n_max, gamma)
    except ValueError as exc:
        raise ConfigError(f"invalid validate section: {exc}") from exc

    osec = _get(raw, "output", dict, "", default={})
    _require_keys(osec, {"directory", "format"}, "output.")
    out_dir = _get(osec, "directory", str, "output.", default=None)
    fmt = _get(osec, "format", str, "output.", default="both")
    if fmt not in ("csv", "json", "both"):
        raise ConfigError(f"output.format must be csv, json or both, got {fmt!r}")
    return RunConfig(pot, float(alpha), grid, t_list, mc, n_max, gamma, out_dir, _formats(fmt))


def _formats(fmt: str) -> tuple[str, ...]:
    return ("csv", "json") if fmt == "both" else (fmt,)


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
        changes["formats"] = _formats(args.format)
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
    weight_rows = []
    if args.weights:
        print("# exact simplex weights A(n, l)")
        # every n and k that occur in a C_{n,k} with n + k <= MAX_ORDER
        for n in range(MAX_ORDER - 1):
            for k in range(2, MAX_ORDER + 1):
                for ell in enumerate_compositions(n, k - 1):
                    val = weight_A(n, ell)
                    weight_rows.append((n, ell, str(val)))
                    print(f"A({n},{ell}) = {val}")
    doc = {
        "alpha": cfg.alpha,
        "dimension": cfg.potential.dimension,
        "entries": {
            label: {"value": e.value, "route": e.route, "grid": e.grid} for label, e in table.entries.items()
        },
    }
    if weight_rows:
        doc["weights"] = [{"n": n, "composition": list(ell), "value": s} for n, ell, s in weight_rows]
    csv_lines = ["label,value,route,grid"]
    csv_lines += [f"{label},{_FMT(e.value)},{e.route},{e.grid}" for label, e in table.entries.items()]
    _write_outputs(cfg, "coeffs", doc, "\n".join(csv_lines) + "\n")
    return 0


def _cmd_mc(cfg: RunConfig, args) -> int:
    print(f"# heat-content estimates  alpha={cfg.alpha:g}  n_paths={cfg.mc.n_paths}  config={config_digest(cfg)}")
    rows = estimate_series(cfg.potential, cfg.alpha, cfg.t_list, cfg.mc)
    for t, est in rows:
        print(f"t={t:<10g} Q={_FMT(est.mean):>24s}  se={est.standard_error:.3e}  n={est.n_samples}")
    doc = {
        "alpha": cfg.alpha,
        "estimates": [
            {"t": t, "mean": e.mean, "standard_error": e.standard_error, "n_samples": e.n_samples}
            for t, e in rows
        ],
    }
    csv_lines = ["t,mean,standard_error,n_samples"]
    csv_lines += [f"{_FMT(t)},{_FMT(e.mean)},{_FMT(e.standard_error)},{e.n_samples}" for t, e in rows]
    _write_outputs(cfg, "mc", doc, "\n".join(csv_lines) + "\n")
    return 0


def _cmd_validate(cfg: RunConfig, args) -> int:
    report = _expansion_report(cfg)
    print(f"# validation  alpha={cfg.alpha:g}  config={config_digest(cfg)}")
    checks = [c for row in report.rows for c in row.checks]
    audit = positivity_audit(cfg.potential, cfg.grid, cfg.alpha)
    failed = 0
    for c in checks:
        ok = c.passed
        failed += not ok
        print(f"{'PASS' if ok else 'FAIL'} {c.name}: value={c.value:.6e} margin={c.margin:.3e}")
    for r in audit:
        ok = r.ok or not r.required
        failed += not ok
        tag = "PASS" if ok else "FAIL"
        req = "required" if r.required else "probe"
        print(f"{tag} {r.label}: value={r.value:.6e} ({req})")
    doc = {
        "se_mult": report.se_mult,
        "checks": [
            {"name": c.name, "passed": c.passed, "value": c.value, "margin": c.margin} for c in checks
        ],
        "positivity": [
            {"label": r.label, "value": r.value, "required": r.required, "ok": r.ok} for r in audit
        ],
    }
    csv_lines = ["kind,name,passed,value,margin"]
    csv_lines += [f"bound,{c.name},{int(c.passed)},{_FMT(c.value)},{_FMT(c.margin)}" for c in checks]
    csv_lines += [f"positivity,{r.label},{int(r.ok or not r.required)},{_FMT(r.value)}," for r in audit]
    _write_outputs(cfg, "validate", doc, "\n".join(csv_lines) + "\n")
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

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override mc.seed")
        p.add_argument("--threads", type=int, default=None, help="override mc.threads")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--format", choices=("csv", "json", "both"), default=None)

    p = sub.add_parser("coeffs", help="deterministic coefficient table")
    common(p)
    p.add_argument("--weights", action="store_true", help="also print exact simplex weights")
    common(sub.add_parser("mc", help="Monte Carlo heat-content estimates"))
    common(sub.add_parser("validate", help="bound checks and positivity audit"))
    common(sub.add_parser("report", help="full expansion report"))
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
        return {
            "coeffs": _cmd_coeffs,
            "mc": _cmd_mc,
            "validate": _cmd_validate,
            "report": _cmd_report,
        }[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
