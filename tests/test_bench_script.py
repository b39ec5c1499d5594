"""scripts/bench.py writes every run and fails when one of them is incorrect."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"


def _bench():
    spec = importlib.util.spec_from_file_location("_bench_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("incorrect", [None, ("evaluate", "0")])
def test_exit_code_follows_the_runs_correctness(tmp_path, monkeypatch, capsys, incorrect):
    bench = _bench()

    def fake_run(argv, **kwargs):
        # stands in for `bench.py --one WORKLOAD TRACE` in a child interpreter
        one = argv.index("--one")
        workload, trace = argv[one + 1 : one + 3]
        failures = {"curve3.se.64": "row off"} if (workload, trace) == incorrect else {}
        result = {"correct": not failures, "attempted": 4, "failed": len(failures),
                  "failures": failures}
        record = json.dumps({"env": {"workload": workload}, "result": result})
        return subprocess.CompletedProcess(argv, 0, stdout=record + "\n", stderr="")

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    out = tmp_path / "BENCH.json"
    code = bench.main(["--out", str(out)])
    assert len(json.loads(out.read_text(encoding="utf-8"))["runs"]) == 6
    err = capsys.readouterr().err
    if incorrect is None:
        assert code == 0 and "incorrect" not in err
    else:
        assert code == 1 and "bench: incorrect: evaluate trace=0: curve3.se.64" in err
