import json

import numpy as np
import pytest

from fracheat import (
    McConfig,
    RngStream,
    SpectralGrid,
    cli,
    coefficient_table,
    estimate_heat_content,
    gaussian,
    montecarlo,
    sample_increment,
    t2_exact,
    validator,
)
from fracheat.cli import ConfigError, config_digest, load_config, main
from fracheat.sampling import moment_estimate, sample_subordinator
from fracheat.spectral import apply_fractional_laplacian, forward_transform, sample_on_grid

MINIMAL = {
    "dimension": 1,
    "alpha": 1.5,
    "potential": [{"weight": 1.0, "center": 0.0, "sharpness": 1.0}],
}


def write_config(tmp_path, extra=None, name="run.json"):
    cfg = dict(MINIMAL)
    if extra:
        cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_minimal_config_fills_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg.alpha == 1.5
    assert cfg.grid.points_per_axis == 256 and cfg.grid.half_extent == 16.0
    assert cfg.t_list == (0.02, 0.05, 0.1, 0.2)
    assert cfg.mc.n_paths == 200_000 and cfg.mc.seed == 0
    assert cfg.n_max == 5 and cfg.gamma is None
    assert cfg.formats == ("csv", "json")


def test_unknown_keys_are_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"alpha_decay": 2}))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"mc": {"paths": 100}}))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"grid": {"points": 64}}))


def test_config_validation_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"alpha": 2.5}))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"t_list": []}))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"t_list": [0.1, -0.2]}))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"validate": {"n_max": 7}}))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"validate": {"gamma": 1.4}}))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"output": {"format": "xml"}}))
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    # a bare number is a center only in d = 1; in d = 2 it would load as (0.7, 0)
    scalar_2d = {"dimension": 2, "potential": [{"weight": 1.0, "center": 0.7, "sharpness": 1.0}]}
    with pytest.raises(ConfigError, match=r"potential\[0\]\.center"):
        load_config(write_config(tmp_path, scalar_2d))
    pair_1d = {"dimension": 1, "potential": [{"weight": 1.0, "center": [0.0, 1.0], "sharpness": 1.0}]}
    with pytest.raises(ConfigError, match="invalid potential"):
        load_config(write_config(tmp_path, pair_1d))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))


@pytest.mark.parametrize(
    "extra",
    [
        {"alpha": True},
        {"dimension": True},
        {"potential": [{"weight": True, "center": 0.0, "sharpness": 1.0}]},
        {"potential": [{"weight": 1.0, "center": [False], "sharpness": 1.0}]},
        {"t_list": [0.1, True]},
        {"mc": {"n_paths": 1000, "seed": False}},
        {"mc": {"n_paths": 1000, "proposal": {"sigma": True}}},
        {"mc": {"n_paths": 1000, "proposal": {"center": [True]}}},
        {"validate": {"gamma": True}},
    ],
)
def test_json_booleans_are_not_numbers(tmp_path, capsys, extra):
    # bool is an int subclass in Python, so true would otherwise load as 1
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, extra))
    assert main(["coeffs", "--config", write_config(tmp_path, extra)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, field",
    [
        ({"potential": [{"weight": 1.0, "center": float("inf"), "sharpness": 1.0}]}, "potential[0].center"),
        ({"grid": {"half_extent": float("inf")}}, "half_extent"),
        ({"t_list": [0.1, float("inf")]}, "t_list"),
        # an int too large for a float once died in float() with an OverflowError traceback
        ({"potential": [{"weight": 10**400, "center": 0.0, "sharpness": 1.0}]}, "potential[0].weight"),
        ({"potential": [{"weight": 1.0, "center": 10**400, "sharpness": 1.0}]}, "potential[0].center"),
        ({"potential": [{"weight": 1.0, "center": [10**400], "sharpness": 1.0}]}, "potential[0].center"),
        ({"potential": [{"weight": 1.0, "center": 0.0, "sharpness": 10**400}]}, "potential[0].sharpness"),
        ({"alpha": 10**400}, "alpha"),
        ({"t_list": [0.1, 10**400]}, "t_list"),
        ({"grid": {"half_extent": 10**400}}, "half_extent"),
        ({"validate": {"gamma": 10**400}}, "gamma"),
    ],
)
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, extra, field):
    # json loads Infinity and NaN; each must stop at load, naming its field
    assert main(["coeffs", "--config", write_config(tmp_path, extra)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and field in err


def test_unknown_key_exit_code(tmp_path, capsys):
    code = main(["coeffs", "--config", write_config(tmp_path, {"bogus": 1})])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", [0.0, 2.5])
def test_alpha_outside_the_range_is_rejected_alike_everywhere(tmp_path, capsys, alpha):
    message = f"alpha must lie in (0, 2], got {alpha}"
    grid = SpectralGrid(1, 32, 8.0)
    spec = forward_transform(sample_on_grid(gaussian(), grid))
    calls = [
        lambda: coefficient_table(gaussian(), grid, alpha),
        lambda: apply_fractional_laplacian(spec, alpha),
        lambda: sample_increment(alpha, 1, 0.1, np.random.default_rng(0), size=1),
        lambda: estimate_heat_content(gaussian(), alpha, 0.1, McConfig(n_paths=1000)),
        lambda: moment_estimate(alpha, 0.5, 1.0, 1000, RngStream(0)),
        lambda: t2_exact(gaussian(), alpha, 0.1),
    ]
    for call in calls:
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message
    assert main(["coeffs", "--config", write_config(tmp_path, {"alpha": alpha})]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_alpha_near_two_is_accepted_by_every_sampler_entry_point():
    # alpha in (1.95, 2) was once refused by a second check in the samplers alone
    alpha = 1.97
    for d in (1, 2, 3):
        assert np.all(np.isfinite(sample_increment(alpha, d, 0.1, RngStream(0), size=100)))
    assert np.all(sample_subordinator(alpha / 2.0, 0.1, RngStream(0), size=100) > 0.0)
    assert moment_estimate(alpha, 0.5, 1.0, 1000, RngStream(0)).mean > 0.0
    assert estimate_heat_content(gaussian(), alpha, 0.1, McConfig(n_paths=1000)).mean < 0.0


@pytest.mark.parametrize("override", [["--seed", "-1"], ["--threads", "0"]])
def test_bad_override_exits_as_config_error(tmp_path, capsys, override):
    # the same values written into the config file are configuration errors too
    code = main(["mc", "--config", write_config(tmp_path, {"mc": {"n_paths": 100}}), *override])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    if override[0] == "--seed":
        # exit 1 would read as a failed sampler check
        assert main(["sampler-selftest", "--quick", *override]) == 2
        assert "config error" in capsys.readouterr().err


def test_coeffs_prints_exact_weights(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main(
        [
            "coeffs",
            "--config",
            write_config(tmp_path),
            "--weights",
            "--out",
            str(out_dir),
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "A(1,(1,)) = 1/6" in text
    assert "A(2,(2,)) = 1/12" in text
    assert "A(2,(1, 1)) = 1/60" in text
    assert "A(0,(0,)) = 1/2" in text
    doc = json.loads((out_dir / "coeffs.json").read_text())
    assert "C4" in doc["entries"] and "C(2,2)" in doc["entries"]
    assert {"n": 1, "composition": [1], "value": "1/6"} in doc["weights"]
    assert (out_dir / "coeffs.csv").read_text().startswith("label,value,route,grid")


def test_coeffs_runs_in_three_dimensions(tmp_path, capsys):
    # the table once listed the lattice C(1,2), C(2,2) and C(3,2) in every d, and
    # cnk_fourier has them only in d <= 2, so every d = 3 config exited 1
    potential = [{"weight": 1.0, "center": [0.0, 0.0, 0.0], "sharpness": 1.0}]
    out_dir = tmp_path / "out"
    code = main(["coeffs", "--config", write_config(tmp_path, {"dimension": 3, "potential": potential}), "--out", str(out_dir)])
    assert code == 0, capsys.readouterr().err
    entries = json.loads((out_dir / "coeffs.json").read_text())["entries"]
    assert sorted(entries) == sorted(["C1", "C2", "C3", "C4", "C5", "C4_sos", "C5_sos", "C(0,2)", "C(0,3)", "C(0,4)", "C(0,5)"])
    assert abs(entries["C4"]["value"] - entries["C4_sos"]["value"]) < 1e-10


def test_mc_runs_and_seed_override_changes_digest(tmp_path, capsys):
    config = write_config(tmp_path, {"mc": {"n_paths": 2000}, "t_list": [0.1]})
    docs = {}
    for name, extra in (("a", []), ("seed", ["--seed", "9"]), ("threads", ["--threads", "2"])):
        out = tmp_path / name
        assert main(["mc", "--config", config, "--out", str(out), "--format", "json", *extra]) == 0
        docs[name] = json.loads((out / "mc.json").read_text())
    assert docs["seed"]["config_digest"] != docs["a"]["config_digest"]
    assert docs["seed"]["estimates"][0]["mean"] != docs["a"]["estimates"][0]["mean"]
    # the thread count changes no drawn number, so it is not part of the digest
    assert docs["threads"] == docs["a"]
    assert not (tmp_path / "a" / "mc.csv").exists()  # json-only format requested


def test_validate_subcommand_passes(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {"mc": {"n_paths": 50_000}, "t_list": [0.05, 0.1], "validate": {"gamma": 0.5}},
    )
    out_dir = tmp_path / "val"
    code = main(["validate", "--config", config, "--out", str(out_dir)])
    assert code == 0
    text = capsys.readouterr().out
    assert "PASS" in text and "FAIL" not in text
    assert "0 failed" in text
    doc = json.loads((out_dir / "validate.json").read_text())
    assert all(c["passed"] is True for c in doc["checks"])
    assert all(isinstance(r["ok"], bool) for r in doc["positivity"])
    header, *rows = (out_dir / "validate.csv").read_text().strip().splitlines()
    assert header == "kind,name,passed,value,margin"
    assert len(rows) == len(doc["checks"]) + len(doc["positivity"])


def test_report_subcommand_writes_files(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {"mc": {"n_paths": 100_000}, "t_list": [0.1, 0.2, 0.4, 1.1]},
    )
    out_dir = tmp_path / "rep"
    code = main(["report", "--config", config, "--out", str(out_dir)])
    assert code == 0
    doc = json.loads((out_dir / "report.json").read_text())
    assert len(doc["rows"]) == 4
    csv_lines = (out_dir / "report.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 5
    assert "order fit" in capsys.readouterr().out


def test_mc_and_report_exit_zero_on_zero_weights(tmp_path, capsys):
    # every weight 0 is V = 0: the estimates are exactly 0, where the run once died
    # with a ZeroDivisionError from the polar T_3 rule's empty set of radii
    potential = [{"weight": 0.0, "center": 0.0, "sharpness": 1.0}, {"weight": 0, "center": 1.0, "sharpness": 2.0}]
    config = write_config(tmp_path, {"potential": potential, "mc": {"n_paths": 2000}})
    for command in ("mc", "report"):
        out = tmp_path / command
        assert main([command, "--config", config, "--out", str(out), "--format", "json"]) == 0, capsys.readouterr().err
        doc = json.loads((out / f"{command}.json").read_text())
        rows = doc["estimates"] if command == "mc" else doc["rows"]
        assert len(rows) == 4
        assert all(r["mean" if command == "mc" else "estimate"] == 0.0 and r["standard_error"] == 0.0 for r in rows)


def test_sampler_selftest_quick(capsys):
    assert main(["sampler-selftest", "--quick"]) == 0
    text = capsys.readouterr().out
    assert "0 failed" in text


def test_spelled_out_defaults_hash_like_the_minimal_config(tmp_path):
    minimal = load_config(write_config(tmp_path, name="minimal.json"))
    spelled = load_config(
        write_config(
            tmp_path,
            {
                "dimension": 1,
                "alpha": 1.5,
                "potential": [{"weight": 1, "center": [0], "sharpness": 1}],
                "grid": {"points_per_axis": 256, "half_extent": 16},
                "t_list": [0.2, 0.02, 0.1, 0.05],
                "mc": {"n_paths": 200000, "m_steps": 64, "seed": 0, "threads": 1, "proposal": None},
                "validate": {"n_max": 5, "gamma": None},
                "output": {"format": "both"},
            },
            name="spelled.json",
        )
    )
    assert spelled.t_list == minimal.t_list == (0.02, 0.05, 0.1, 0.2)
    assert config_digest(spelled) == config_digest(minimal)


@pytest.mark.parametrize(
    "extra",
    [
        {"alpha": 1.25},
        {"potential": [{"weight": 1.0, "center": 0.0, "sharpness": 1.5}]},
        {"grid": {"points_per_axis": 128}},
        {"grid": {"half_extent": 12.0}},
        {"t_list": [0.02, 0.05, 0.1]},
        {"mc": {"n_paths": 1000}},
        {"mc": {"m_steps": 32}},
        {"mc": {"seed": 1}},
        {"potential": [{"weight": -1.0, "center": 0.0, "sharpness": 1.0}]},
        {"potential": [{"weight": 1.0, "center": 0.5, "sharpness": 1.0}]},
        {"validate": {"n_max": 3}},
        {"validate": {"gamma": 0.4}},
    ],
)
def test_config_digest_changes_with_every_computed_value(tmp_path, extra):
    plain = load_config(write_config(tmp_path, name="plain.json"))
    changed = load_config(write_config(tmp_path, extra, name="changed.json"))
    assert config_digest(changed) != config_digest(plain)


# the README's example config, without the mc.proposal key it used to carry
README_CONFIG = {
    "dimension": 1,
    "alpha": 1.5,
    "potential": [{"weight": -1.0, "center": 0.0, "sharpness": 1.0}],
    "grid": {"points_per_axis": 256, "half_extent": 16.0},
    "t_list": [0.02, 0.05, 0.1, 0.2],
    "mc": {"n_paths": 200000, "m_steps": 64, "seed": 0, "threads": 1},
    "validate": {"n_max": 5, "gamma": 0.5},
    "output": {"directory": "out", "format": "both"},
}


def test_report_runs_near_alpha_two(tmp_path, capsys):
    # the README config at alpha = 1.99 once exited 1 with "alpha in (1.95, 2)"
    path = tmp_path / "near2.json"
    path.write_text(json.dumps(README_CONFIG | {"alpha": 1.99}))
    assert main(["report", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "alpha=1.99" in out and out.count("checks=ok") == 4


@pytest.mark.slow
def test_mc_proposal_is_accepted_and_ignored(tmp_path, capsys):
    # older configs name a start-point proposal; it still loads, changes no
    # digest and no number, and the CLI says once that it is ignored
    with_key = README_CONFIG | {"mc": README_CONFIG["mc"] | {"proposal": {"center": [0.0], "sigma": 2.0}}}
    outputs, errs = {}, {}
    for name, raw in (("plain", README_CONFIG), ("proposal", with_key)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / name
        assert main(["mc", "--config", str(path), "--out", str(out)]) == 0
        errs[name] = capsys.readouterr().err
        outputs[name] = [(out / f"mc.{ext}").read_bytes() for ext in ("json", "csv")]
    assert config_digest(load_config(str(tmp_path / "plain.json"))) == config_digest(
        load_config(str(tmp_path / "proposal.json"))
    )
    assert outputs["plain"] == outputs["proposal"]
    assert errs["plain"] == ""
    assert errs["proposal"].startswith("warning: config key 'mc.proposal' is ignored") and errs["proposal"].count("\n") == 1


def test_config_digest_ignores_output_routing(tmp_path):
    plain = load_config(write_config(tmp_path, {}, name="plain.json"))
    routed = load_config(
        write_config(
            tmp_path,
            {"output": {"directory": "elsewhere", "format": "json"}},
            name="routed.json",
        )
    )
    assert config_digest(routed) == config_digest(plain)


def test_overflowing_run_exits_one(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {
            "alpha": 2.0,
            "potential": [{"weight": -800.0, "center": 0.0, "sharpness": 1.0}],
            "t_list": [50.0],
            "mc": {"n_paths": 1000, "m_steps": 8},
        },
    )
    code = main(["mc", "--config", config])
    assert code == 1
    assert "non-finite" in capsys.readouterr().err


def test_no_arguments_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.fixture(scope="module")
def pipeline_runs(tmp_path_factory):
    """mc, validate and report on one config, with every estimator call recorded."""
    tmp = tmp_path_factory.mktemp("pipeline")
    config = write_config(
        tmp,
        {"mc": {"n_paths": 2000, "seed": 3}, "t_list": [0.2, 0.02, 0.1, 0.05], "validate": {"gamma": 0.5}},
    )
    real = montecarlo.estimate_heat_content
    runs = {}
    for command in ("mc", "validate", "report"):
        calls = []

        def counted(*args):
            ests = real(*args)
            calls.append([(t, est.mean, est.standard_error) for t, est in zip(args[2], ests)])
            return ests

        with pytest.MonkeyPatch.context() as mp:
            # the CLI may not bypass the validator's loop with an estimator of its own
            for module in (cli, validator):
                mp.setattr(module, "estimate_heat_content", counted, raising=False)
            main([command, "--config", config, "--out", str(tmp / command), "--format", "json"])
        runs[command] = (calls, json.loads((tmp / command / f"{command}.json").read_text()))
    return runs


def test_mc_validate_and_report_share_estimates(pipeline_runs):
    calls = {command: run[0] for command, run in pipeline_runs.items()}
    assert calls["mc"] == calls["validate"] == calls["report"]
    mc_rows = [(e["t"], e["mean"], e["standard_error"]) for e in pipeline_runs["mc"][1]["estimates"]]
    report_rows = [(r["t"], r["estimate"], r["standard_error"]) for r in pipeline_runs["report"][1]["rows"]]
    assert [mc_rows] == [report_rows] == calls["mc"]


def test_validate_makes_one_estimator_call_per_series(pipeline_runs):
    calls, _ = pipeline_runs["validate"]
    assert [[t for t, _, _ in series] for series in calls] == [[0.02, 0.05, 0.1, 0.2]]


def test_validate_renders_the_report_checks(pipeline_runs):
    validate_doc = pipeline_runs["validate"][1]
    report_doc = pipeline_runs["report"][1]
    assert validate_doc["se_mult"] == report_doc["se_mult"]
    report_checks = [c for row in report_doc["rows"] for c in row["checks"]]
    assert [(c["name"], c["passed"], c["margin"]) for c in validate_doc["checks"]] == [
        (c["name"], c["passed"], c["margin"]) for c in report_checks
    ]
    assert any(c["name"].startswith("second-order remainder") for c in validate_doc["checks"])
    assert len({doc["config_digest"] for _, doc in pipeline_runs.values()}) == 1
