import ast
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import fracheat

ROOT = Path(__file__).resolve().parent.parent


def test_all_names_resolve_and_none_is_a_module():
    assert len(fracheat.__all__) == len(set(fracheat.__all__))
    for name in fracheat.__all__:
        assert not isinstance(getattr(fracheat, name), types.ModuleType), name


def test_benchmark_tracer_finds_every_wrapped_name():
    # perfbench/rep.py wraps module-level names of fracheat by getattr and
    # reads the cache_info of the functions it returns; a rename or a dropped
    # lru_cache there would otherwise only show up in a traced benchmark run
    code = (
        "import fracheat.cli, rep, spans\n"
        "for fn in rep._install(spans.Tracer(), fracheat.cli).values(): fn.cache_info()"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "perfbench"]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_example_runs():
    # no other test runs the README's example, so an API change could break it unnoticed
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-c", blocks[0]], cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_no_source_file_imports_scipy():
    # scipy doubled the import time of the package and 40 MB of its resident memory
    pattern = re.compile(r"^\s*(?:from\s+scipy\b|import\s+(?:[\w.]+\s*,\s*)*scipy\b)", re.MULTILINE)
    offenders = [str(p.relative_to(ROOT)) for p in sorted((ROOT / "src").rglob("*.py")) if pattern.search(p.read_text())]
    assert offenders == []


def test_no_module_imports_a_name_it_does_not_use():
    # a name imported only for perfbench/rep.py to wrap hides an unused import from every
    # other check; these two are the ones the benchmark still pins where they are bound
    unused = set()
    for path in sorted((ROOT / "src" / "fracheat").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import):  # `import a.b` binds a
                names = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unused |= {f"{path.stem}.{name}" for name in names if name not in used}
    assert unused == {"montecarlo.sample_subordinator", "validator.moment_estimate"}


def test_only_the_cli_prints():
    # the library returns values and raises; writing to the terminal is the CLI's job
    def calls_print(path: Path) -> bool:
        return any(
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"
            for node in ast.walk(ast.parse(path.read_text()))
        )

    sources = sorted((ROOT / "src" / "fracheat").rglob("*.py"))
    assert any(p.name == "cli.py" and calls_print(p) for p in sources)
    assert [str(p.relative_to(ROOT)) for p in sources if p.name != "cli.py" and calls_print(p)] == []


def test_coeffs_and_report_run_without_scipy(tmp_path):
    # a late or lazy import would hide from the static check; a run of every
    # path a report takes (t2_exact and max_value in d = 1, l1_norm of a signed
    # d = 2 mixture) must leave no scipy module loaded
    configs = [
        {"dimension": 1, "alpha": 1.5,
         "potential": [{"weight": 0.8, "center": -0.5, "sharpness": 1.5}, {"weight": -0.3, "center": 0.7, "sharpness": 0.6}],
         "grid": {"points_per_axis": 128, "half_extent": 12.0}},
        {"dimension": 2, "alpha": 1.0,
         "potential": [{"weight": 1.0, "center": [0.0, 0.0], "sharpness": 1.0},
                       {"weight": -0.6, "center": [0.8, 0.3], "sharpness": 0.7}],
         "grid": {"points_per_axis": 32, "half_extent": 8.0}},
    ]
    for i, cfg in enumerate(configs):
        cfg.update(t_list=[0.05, 0.1], mc={"n_paths": 2000, "m_steps": 8, "seed": 3},
                   output={"directory": str(tmp_path / f"out{i}"), "format": "json"})
        (tmp_path / f"{i}.json").write_text(json.dumps(cfg))
    code = (
        "import sys, fracheat, fracheat.cli as cli\n"
        "for path in sys.argv[1:]:\n"
        "    assert cli.main(['coeffs', '--config', path, '--weights']) == 0\n"
        "    assert cli.main(['report', '--config', path]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH="src")
    paths = [str(tmp_path / f"{i}.json") for i in range(len(configs))]
    proc = subprocess.run([sys.executable, "-c", code, *paths], cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    for i in range(len(configs)):
        assert (tmp_path / f"out{i}" / "report.json").exists()
