"""scripts/identity.py records the fixed set, and compare lists what moved."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "identity.py"


def _identity():
    spec = importlib.util.spec_from_file_location("_identity_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_quick_records_of_one_tree_read_0_moved(tmp_path, capsys):
    identity = _identity()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert identity.main(["record", str(a), "--quick", "--threads", "1,2"]) == 0
    assert identity.main(["record", str(b), "--quick", "--threads", "1,2"]) == 0
    runs = json.loads(a.read_text(encoding="utf-8"))["runs"]
    assert list(runs) == ["1", "2"]
    assert "solve/28GHz-N16/x1/opt_l2" in runs["1"]
    assert "cli/curve-se-28GHz-N4/curve.csv/row20/value" in runs["1"]
    capsys.readouterr()
    assert identity.main(["compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out == f"0 moved of {2 * len(runs['1'])} entries\n"


def test_compare_lists_each_moved_entry(tmp_path, capsys):
    def write(name, runs):
        path = tmp_path / name
        path.write_text(json.dumps({"schema": 1, "runs": runs}), encoding="utf-8")
        return str(path)

    a = write("a.json", {"1": {"r": "2.0", "h": "ab", "gone": "1"}})
    b = write("b.json", {"1": {"r": "2.5", "h": "ab", "new": "1"}})
    assert _identity().main(["compare", a, b]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "threads=1 r: 2.0 -> 2.5 (rel +0.25)",
        "threads=1 gone: 1 -> None",
        "threads=1 new: None -> 1",
        "3 moved of 4 entries",
    ]
