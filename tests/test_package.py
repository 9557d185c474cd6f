import os
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
