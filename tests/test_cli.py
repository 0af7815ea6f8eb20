"""Command-line surface: exit codes, artifacts, determinism."""

import json
import math
import os
import resource
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from axisym.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SINGULAR,
    EXIT_VERIFY_FAIL,
    main,
)
from axisym import dynamics
from axisym.catalog import SystemParams, build
from axisym.dynamics import STEP_BUDGET, detect_period

CP_PARAMS = "u1=1,u2=1.5,u3=0.5,bz=4"
OP_PARAMS = "u1=2,u2=1.5,u3=-1,bz=7,bp=4,bs=2"


def test_list_plain(capsys):
    assert main(["list"]) == EXIT_OK
    out = capsys.readouterr().out
    for sid in ("op_min", "cp_min", "max5", "max6", "linear_min",
                "linear_max", "family_circular_parabolic",
                "family_oblate_spheroidal", "family_prolate_spheroidal"):
        assert sid in out


def test_list_json(capsys):
    assert main(["list", "--json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["op_min"]["rank"] == 4
    assert data["max6"]["rank"] == 5


def test_list_single_system_shows_integral_order(capsys):
    assert main(["list", "max5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "2(n+2m)" in out
    assert "op_min" not in out


def test_list_unknown_system_is_config_error(capsys):
    assert main(["list", "nope"]) == EXIT_CONFIG


def test_verify_pass_writes_reports(tmp_path, capsys):
    code = main(["verify", "cp_min", "--params", CP_PARAMS,
                 "--samples", "200", "--out", str(tmp_path), "--json"])
    assert code == EXIT_OK
    reports = json.loads(capsys.readouterr().out)
    assert all(r["pass"] for r in reports)
    assert {"system_id", "check", "samples", "max_residual",
            "tolerance", "pass"} == set(reports[0])
    on_disk = json.loads((tmp_path / "cp_min_reports.json").read_text())
    assert on_disk == sorted(reports, key=lambda r: 0)  # same list, same order


def test_verify_mutate_negative_control_fails(capsys):
    code = main(["verify", "op_min", "--params", OP_PARAMS,
                 "--mutate", "u1=+0.001", "--samples", "200"])
    assert code == EXIT_VERIFY_FAIL
    assert "FAIL" in capsys.readouterr().out


def test_verify_mutate_works_on_a_parameter_left_at_zero(capsys):
    # u1 is not given, so it defaults to 0 and is absent from as_dict();
    # the control must still perturb it and fail, not die on a KeyError.
    code = main(["verify", "op_min", "--params", "u2=1.5,u3=-1,bz=7,bp=4,bs=2",
                 "--mutate", "u1=+0.001", "--samples", "200"])
    assert code == EXIT_VERIFY_FAIL
    out = capsys.readouterr().out
    assert "[FAIL] op_min {X1,H}=0" in out
    assert "[PASS] op_min {Y3,H}=0" in out


def test_verify_config_errors(capsys):
    assert main(["verify", "not_a_system"]) == EXIT_CONFIG
    assert main(["verify", "op_min", "--params", "u1=abc"]) == EXIT_CONFIG
    assert main(["verify", "op_min", "--params", "bogus=1"]) == EXIT_CONFIG
    assert main(["verify", "op_min", "--params", "u1=1"]) == EXIT_CONFIG  # incomplete
    assert main(["verify", "op_min", "--params", OP_PARAMS,
                 "--mutate", "zz=1"]) == EXIT_CONFIG
    for samples in ("0", "-3"):
        assert main(["verify", "op_min", "--params", OP_PARAMS,
                     "--samples", samples]) == EXIT_CONFIG
    # A negative seed is no Philox key.
    assert main(["verify", "linear_min", "--params", "u1=1,bz=2", "--seed", "-1"]) == EXIT_CONFIG
    assert main(["simulate", "linear_min", "--params", "u1=1,bz=2", "--seed", "-1"]) == EXIT_CONFIG
    # Parameters SystemParams rejects are configuration errors, not
    # failed checks (exit 1).
    for params in ("u2=1.5,bz=2,n=0,m=1", "u2=1.5,bz=2,n=2",
                   "u2=1.5,bz=2,n=2.5,m=1", "u2=1.5,bz=2,n=nan,m=1"):
        assert main(["verify", "max5", "--params", params]) == EXIT_CONFIG
    for params in ("u1=1,bz=nan", "u1=1,bz=inf", "u1=nan,bz=2"):
        assert main(["verify", "linear_min", "--params", params]) == EXIT_CONFIG
    # n = 3.5 is no system: the control must not run n = 3 and pass.
    assert main(["verify", "max5", "--params", "u2=1.5,bz=2,n=3,m=2",
                 "--mutate", "n=+0.5"]) == EXIT_CONFIG
    assert "must be integers" in capsys.readouterr().err


def test_verify_unallocatable_samples_is_config_error(capsys):
    # numpy refuses the 44 TiB sample set before allocating any of it; it
    # used to end in a traceback and exit 1, a failed verification.  The
    # address-space limit keeps that so where the kernel would overcommit.
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = 2 ** 40 if hard == resource.RLIM_INFINITY else min(2 ** 40, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    try:
        for extra in ([], ["--mutate", "u1=+0.001"]):
            assert main(["verify", "op_min", "--params", OP_PARAMS,
                         "--samples", str(10 ** 12), *extra]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert "--samples 1000000000000 is too large" in err and "43.7 TiB" in err
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def test_verify_mutate_rejects_parameters_the_system_lacks(capsys):
    # Mutating an absent parameter changes nothing, so the control would
    # pass vacuously.
    assert main(["verify", "linear_min", "--params", "u1=1,bz=2",
                 "--mutate", "u3=+0.001"]) == EXIT_CONFIG
    assert main(["verify", "op_min", "--params", OP_PARAMS,
                 "--mutate", "bq=+0.001"]) == EXIT_CONFIG
    assert "has no parameter 'bq'" in capsys.readouterr().err


def test_verify_mutate_rejects_a_delta_that_changes_nothing(capsys):
    # The control would compare the system with itself and pass.
    for system, params, mutate in (("op_min", OP_PARAMS, "u1=+0"),
                                   ("op_min", OP_PARAMS, "bz=1e-300"),
                                   ("linear_min", "u1=1,bz=2", "u3=-0")):
        assert main(["verify", system, "--params", params, "--mutate", mutate,
                     "--samples", "50"]) == EXIT_CONFIG
    assert "u3 = 0.0 is left unchanged by '-0'" in capsys.readouterr().err


def test_argparse_failures_map_to_config_error():
    assert main([]) == EXIT_CONFIG
    assert main(["figure", "seven"]) == EXIT_CONFIG


@pytest.mark.parametrize("params", ["u1=1,bz=nan", "u1=1,bz=inf", "u1=nan,bz=2"])
def test_simulate_non_finite_parameters_are_config_errors(params, capsys):
    # They used to run without end.
    assert main(["simulate", "linear_min", "--params", params,
                 "--t-end", "1"]) == EXIT_CONFIG
    assert "must be finite" in capsys.readouterr().err


def test_simulate_rejects_parameters_the_system_lacks(tmp_path, capsys):
    # u1 changed nothing in max5's H, yet the run recorded it and exited 0.
    assert main(["simulate", "max5", "--params", "u1=5,u2=1.5,bz=2,n=3,m=2",
                 "--t-end", "1", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "max5 has no parameter 'u1'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_simulate_writes_csv_and_meta(tmp_path, capsys):
    code = main(["simulate", "cp_min", "--params", CP_PARAMS,
                 "--ic", "1,-1,1,1,0,0", "--t-end", "5", "--tol", "1e-11",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    csv = tmp_path / "cp_min_trajectory.csv"
    meta = json.loads((tmp_path / "cp_min_trajectory_meta.json").read_text())
    header = csv.read_text().splitlines()[0]
    assert header == "t,x,y,z,px,py,pz,H,X1,X2,Y3"
    assert meta["columns"] == header.split(",")
    assert meta["system_id"] == "cp_min"
    assert meta["momenta"] == "canonical"
    assert meta["ic"] == [1.0, -1.0, 1.0, 1.0, 0.0, 0.0]
    assert meta["aborted"] is False
    assert meta["reason"] == "completed"
    assert meta["t_final"] == 5.0
    assert meta["nfev"] > 0 and meta["steps"] > 0
    assert meta["wall_s"] > 0.0
    assert all(abs(v) < 1e-8 for v in meta["drift"].values())


def test_simulate_is_bit_identical_across_reruns(tmp_path):
    args = ["simulate", "max5", "--params", "u2=1.5,bz=2,n=3,m=2",
            "--ic", "1,-1,1,1,0,0", "--t-end", "4", "--tol", "1e-11"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    assert (out1 / "max5_trajectory.csv").read_bytes() == \
        (out2 / "max5_trajectory.csv").read_bytes()


def test_simulate_singular_start_exits_3(tmp_path, capsys):
    code = main(["simulate", "op_min", "--params", OP_PARAMS,
                 "--ic", "0.01,0,1,0,0,0", "--t-end", "1",
                 "--out", str(tmp_path)])
    assert code == EXIT_SINGULAR


@pytest.mark.parametrize("pz", ["2e4", "1e160"])
def test_simulate_start_beyond_the_escape_bound_exits_3(tmp_path, capsys, pz):
    code = main(["simulate", "linear_min", "--params", "u1=1,bz=2",
                 "--ic", f"1,1,1,{pz},1,1", "--t-end", "1", "--out", str(tmp_path)])
    assert code == EXIT_SINGULAR
    assert "escape bound" in capsys.readouterr().err
    assert not (tmp_path / "linear_min_trajectory.csv").exists()


def test_simulate_singular_abort_mid_run_exits_3(tmp_path):
    # weak axis barrier: the inward launch crosses the guard radius
    code = main(["simulate", "linear_min", "--params", "u1=1e-4,bz=2",
                 "--ic", "1,0,0,-1.5,0,0", "--t-end", "5",
                 "--out", str(tmp_path)])
    assert code == EXIT_SINGULAR
    meta = json.loads((tmp_path / "linear_min_trajectory_meta.json").read_text())
    assert meta["aborted"] is True
    assert meta["reason"] == "axis_guard"
    assert meta["t_final"] < 5.0


def test_simulate_runaway_stops_on_h_drift(tmp_path, capsys):
    # The step size collapses as |q| grows, so this orbit never reaches
    # the escape bound; H drifts past its bound long before the step
    # budget is used up.
    code = main(["simulate", "cp_min", "--params", "u1=10,u2=1.5,u3=1,bz=2,bq=4",
                 "--ic", "0.745,1.77,-1.02,1.333,-0.125,0.935", "--t-end", "50",
                 "--detect-period", "--out", str(tmp_path)])
    assert code == EXIT_SINGULAR
    assert "(drift)" in capsys.readouterr().err
    meta = json.loads((tmp_path / "cp_min_trajectory_meta.json").read_text())
    assert meta["reason"] == "drift"
    assert meta["steps"] < STEP_BUDGET
    assert meta["t_final"] < 50.0
    assert meta["period_report"]["closed"] is False


def test_simulate_step_budget_scales_with_t_end(tmp_path, monkeypatch):
    # The budget covers 50 time units; a longer horizon gets a multiple.
    from axisym import cli

    monkeypatch.setattr(cli, "STEP_BUDGET", 20)
    for t_end, budget in (("50", 20), ("120", 60)):
        assert main(["simulate", "op_min", "--params", OP_PARAMS,
                     "--t-end", t_end, "--out", str(tmp_path)]) == EXIT_SINGULAR
        meta = json.loads((tmp_path / "op_min_trajectory_meta.json").read_text())
        assert meta["reason"] == "step_budget"
        assert meta["steps"] == budget


def test_simulate_kinetic_momenta_conversion(tmp_path):
    # A kinetic-momentum IC equals the canonical one shifted by the gauge;
    # both runs must produce the same trajectory.
    from axisym.autodiff import value
    from axisym.catalog import SystemParams, build

    spec = build("cp_min", SystemParams(u1=1, u2=1.5, u3=0.5, bz=4))
    q = [1.0, -1.0, 1.0]
    p_can = np.asarray([1.0, 0.0, 0.0])
    a = np.asarray([float(value(c)) for c in spec.A(q)])
    p_kin = p_can + a
    ic_kin = ",".join(repr(float(v)) for v in [*q, *p_kin])

    out1, out2 = tmp_path / "kin", tmp_path / "can"
    assert main(["simulate", "cp_min", "--params", CP_PARAMS,
                 "--ic", ic_kin, "--momenta", "kinetic", "--t-end", "2",
                 "--out", str(out1)]) == EXIT_OK
    assert main(["simulate", "cp_min", "--params", CP_PARAMS,
                 "--ic", "1,-1,1,1,0,0", "--t-end", "2",
                 "--out", str(out2)]) == EXIT_OK
    meta = json.loads((out1 / "cp_min_trajectory_meta.json").read_text())
    assert meta["momenta"] == "kinetic"
    assert np.allclose(meta["ic"], [1.0, -1.0, 1.0, 1.0, 0.0, 0.0])
    assert (out1 / "cp_min_trajectory.csv").read_bytes() == \
        (out2 / "cp_min_trajectory.csv").read_bytes()


def test_simulate_detect_period(tmp_path, monkeypatch):
    calls = []
    solve = dynamics.solve_ivp

    def counted(*args, **kwargs):
        calls.append(args[1])
        return solve(*args, **kwargs)

    monkeypatch.setattr(dynamics, "solve_ivp", counted)
    code = main(["simulate", "max5", "--params", "u2=1.5,bz=2,n=3,m=2",
                 "--ic", "1,-1,1,1,0,0", "--t-end", "30", "--tol", "1e-12",
                 "--detect-period", "--out", str(tmp_path)])
    assert code == EXIT_OK
    # The search reads the run the CSV was written from.
    assert len(calls) == 1
    meta = json.loads((tmp_path / "max5_trajectory_meta.json").read_text())
    rep = meta["period_report"]
    assert rep["closed"] is True
    assert rep["period"] == pytest.approx(8.0 * math.pi, rel=1e-4)
    spec = build("max5", SystemParams(u2=1.5, bz=2, n=3, m=2))
    assert rep == detect_period(spec, [1, -1, 1, 1, 0, 0], 30.0, tol=1e-12).as_dict()


def test_simulate_bad_tol_is_config_error():
    assert main(["simulate", "cp_min", "--params", CP_PARAMS,
                 "--tol", "1e-3"]) == EXIT_CONFIG


@pytest.mark.parametrize("t_end", ["0", "-1", "inf", "nan"])
def test_simulate_bad_t_end_is_config_error(t_end):
    assert main(["simulate", "cp_min", "--params", CP_PARAMS,
                 "--t-end", t_end]) == EXIT_CONFIG


def test_figure_emits_csv_svg_meta(tmp_path, capsys):
    code = main(["figure", "6", "--out", str(tmp_path), "--json"])
    assert code == EXIT_OK
    meta = json.loads(capsys.readouterr().out)
    assert meta["system_id"] == "max6"
    assert meta["period_report"]["closed"] is True
    assert meta["period_report"]["period"] == pytest.approx(
        8.0 * math.pi / 3.0, rel=1e-4)
    files = meta["files"][0]
    assert (tmp_path / "figure6_meta.json").exists()
    csv_lines = open(files["csv"]).read().splitlines()
    assert csv_lines[0] == "t,x,y,z,px,py,pz,H,X1,X2,Y3,Y4"
    assert len(files["svg"]) == 4
    for path in files["svg"]:
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")


def test_figure_bad_id_is_config_error():
    assert main(["figure", "7"]) == EXIT_CONFIG


@pytest.mark.parametrize("tol", ["1e-3", "1e-15", "nan"])
def test_figure_bad_tol_is_config_error_and_writes_nothing(tmp_path, tol):
    out = tmp_path / "fig"
    assert main(["figure", "6", "--tol", tol, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


FIGURE_AFTER_BUFFERED_OUTPUT = """
import atexit, runpy, sys

print("printed before the call")        # still in the buffer of a pipe
atexit.register(print, "printed at exit")
sys.argv = ["axisym", "figure", "4", "--json", "--out", sys.argv[1]]
runpy.run_module("axisym.cli", run_name="__main__")
"""


def test_figure_output_is_whole_after_buffered_text_and_atexit(tmp_path):
    # Figure 4 may search in a forked child: the child must neither flush
    # the text the parent has buffered nor run the parent's atexit handlers.
    src = str(Path(dynamics.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = tmp_path / "fig4"
    proc = subprocess.run([sys.executable, "-c", FIGURE_AFTER_BUFFERED_OUTPUT, str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == EXIT_OK, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines.count("printed before the call") == 1
    assert lines.count("printed at exit") == 1
    assert lines[0] == "printed before the call" and lines[-1] == "printed at exit"
    meta = json.loads("\n".join(lines[1:-1]))
    assert meta["figure"] == 4 and meta["period_report"]["closed"] is False
    assert (out / "figure4_meta.json").exists()
