import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from hullprice.cli import main
from hullprice.model import instance_to_doc, save_instance
from hullprice.samples import demo_instance
from hullprice.ucdp import profit_max

ROOT = Path(__file__).resolve().parents[1]
BUNDLED = ROOT / "instances" / "demo_two_gen.json"


@pytest.fixture
def demo_path(tmp_path):
    path = tmp_path / "demo.json"
    save_instance(demo_instance(), path)
    return str(path)


class TestValidate:
    def test_clean_instance(self, demo_path, capsys):
        assert main(["validate", "--instance", demo_path]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        assert main(["validate", "--instance", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_field_is_usage_error(self, tmp_path, capsys):
        doc = instance_to_doc(demo_instance())
        doc["generators"][0]["fuel"] = "coal"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", "--instance", str(bad)]) == 2
        assert "fuel" in capsys.readouterr().err

    def test_domain_violation_is_failure(self, tmp_path, capsys):
        doc = instance_to_doc(demo_instance())
        doc["generators"][0]["ramp"] = -1.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", "--instance", str(bad)]) == 1
        assert "ramp" in capsys.readouterr().err

    def test_dominated_piece_is_reported(self, tmp_path, capsys):
        doc = instance_to_doc(demo_instance())
        doc["generators"][1]["cost"][0].append({"a": 4, "b": -100})
        path = tmp_path / "dominated.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", "--instance", str(path)]) == 0
        out, err = capsys.readouterr()
        assert out.strip() == "ok"
        assert err.splitlines() == [
            "warning: g2.cost[0]: removed 1 dominated piece(s) at "
            "positions [2]"]

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["validate", "--instance", missing]) == 2


class TestSolve:
    def test_pretty_output(self, demo_path, capsys):
        assert main(["solve", "--instance", demo_path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("objective: 835")
        assert "g2" in out

    def test_csv_output(self, demo_path, capsys):
        assert main(["solve", "--instance", demo_path,
                     "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("z_qip,835\n")
        assert "generator,period,u,v,x" in out

    def test_out_file_and_dump(self, demo_path, tmp_path, capsys):
        out = tmp_path / "solution.csv"
        dump = tmp_path / "system.lp"
        assert main(["solve", "--instance", demo_path, "--format", "csv",
                     "--out", str(out), "--dump-lp", str(dump)]) == 0
        assert out.read_text(encoding="utf-8").startswith("z_qip,835")
        assert "meuc:balance:t=1" in dump.read_text(encoding="utf-8") \
            .replace(" ", "")


class TestPrice:
    def test_missing_method_is_usage_error(self, demo_path):
        with pytest.raises(SystemExit) as exc:
            main(["price", "--instance", demo_path])
        assert exc.value.code == 2

    def test_csv_sections(self, demo_path, capsys):
        assert main(["price", "--instance", demo_path, "--method", "chp",
                     "--format", "csv"]) == 0
        out = capsys.readouterr().out
        blocks = out.split("\n\n")
        assert len(blocks) == 3
        assert blocks[0].startswith("method,period,price")
        assert "chp,1,1.7" in blocks[0]
        assert blocks[1].startswith("method,generator,")
        assert blocks[2].startswith("method,total_uplift,")
        assert "chp,7,835,828," in blocks[2]

    def test_csv_output_is_byte_stable(self, demo_path, capsys):
        argv = ["price", "--instance", demo_path, "--method", "2bin-lp",
                "--format", "csv"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_trace_file(self, demo_path, tmp_path, capsys):
        trace = tmp_path / "dp.csv"
        assert main(["price", "--instance", demo_path, "--method", "tlmp",
                     "--format", "csv", "--trace-dp", str(trace)]) == 0
        lines = trace.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "generator,state,t,value,choice"
        prices = tuple(float(line.split(",")[2])
                       for line in capsys.readouterr().out.splitlines()
                       if line.startswith("tlmp,") and line.count(",") == 2)
        assert len(prices) == 3
        roots = {row[0]: float(row[3]) for row in
                 (line.split(",") for line in lines[1:]) if row[1] == "root"}
        demo = demo_instance()
        assert sorted(roots) == [gen.id for gen in demo.generators]
        for gen in demo.generators:
            best, _ = profit_max(gen, prices)
            assert roots[gen.id] == pytest.approx(-best, abs=1e-9)


class TestCompare:
    def test_single_instance_csv(self, demo_path, capsys):
        assert main(["compare", "--instance", demo_path,
                     "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert "tlmp,35,835,835,0.8" in out
        assert "chp,7,835,828," in out

    def test_requires_instance_or_fuzz(self, capsys):
        assert main(["compare"]) == 2
        assert "required" in capsys.readouterr().err

    def test_fuzz_trials_pass(self, capsys):
        assert main(["compare", "--fuzz", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "3/3 trials passed" in out


def _run_console_script(exe, env=None):
    ok = subprocess.run([exe, "validate", "--instance", str(BUNDLED)],
                        capture_output=True, text=True, env=env)
    assert ok.returncode == 0, ok.stderr
    assert ok.stdout.strip() == "ok"
    # A wrapper that dropped main's return value would exit 0 here too.
    missing = subprocess.run(
        [exe, "validate", "--instance", str(BUNDLED.parent / "nope.json")],
        capture_output=True, text=True, env=env)
    assert missing.returncode == 2
    assert "error:" in missing.stderr


def test_console_script_installed(tmp_path):
    """The declared `hullprice` entry point works as a console script.

    The wrapper an installer would generate is written from
    `[project.scripts]` and run against the source tree; an installed
    `hullprice` on PATH is run as well.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "hullprice" in scripts, "no 'hullprice' in [project.scripts]"
    module, _, attr = scripts["hullprice"].partition(":")
    assert module and attr, f"bad entry point {scripts['hullprice']!r}"

    wrapper = tmp_path / "hullprice"
    wrapper.write_text(f"#!{sys.executable}\n"
                       f"import sys\n"
                       f"from {module} import {attr}\n"
                       f"sys.exit({attr}())\n", encoding="utf-8")
    wrapper.chmod(0o755)
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join(
        filter(None, [str(tmp_path), env.get("PATH")]))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    _run_console_script("hullprice", env)

    installed = shutil.which("hullprice")
    if installed:
        _run_console_script(installed)
