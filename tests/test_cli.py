import json

import numpy as np
import pytest

from fracheat import (
    SpectralGrid,
    apply_fractional_laplacian,
    cli,
    coefficient_table,
    forward_transform,
    gaussian,
    montecarlo,
    sample_increment,
    sample_on_grid,
    validator,
)
from fracheat.cli import ConfigError, config_digest, load_config, main, resolve_config, resolved_dict

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
        lambda: sample_increment(alpha, 1, 0.1, np.random.default_rng(0)),
    ]
    for call in calls:
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message
    assert main(["coeffs", "--config", write_config(tmp_path, {"alpha": alpha})]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


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


def test_sampler_selftest_quick(capsys):
    assert main(["sampler-selftest", "--quick"]) == 0
    text = capsys.readouterr().out
    assert "0 failed" in text


def test_resolved_dict_round_trips(tmp_path):
    config = write_config(
        tmp_path,
        {
            "grid": {"points_per_axis": 128, "half_extent": 12.0},
            "t_list": [0.3, 0.1],
            "mc": {"n_paths": 5000, "proposal": {"sigma": 2.5}},
            "validate": {"n_max": 3, "gamma": 0.4},
            "output": {"format": "csv"},
        },
    )
    cfg = load_config(config)
    again = resolve_config(resolved_dict(cfg))
    assert config_digest(again) == config_digest(cfg)
    assert again.t_list == cfg.t_list == (0.1, 0.3)
    assert again.mc == cfg.mc


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
            est = real(*args)
            calls.append((args[2], est.mean, est.standard_error))
            return est

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
    assert mc_rows == report_rows == calls["mc"]


def test_validate_makes_one_estimator_call_per_time(pipeline_runs):
    calls, _ = pipeline_runs["validate"]
    assert [t for t, _, _ in calls] == [0.02, 0.05, 0.1, 0.2]


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
