"""Command-line surface: exit codes, artifacts, determinism."""

import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from axisym.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SINGULAR,
    EXIT_VERIFY_FAIL,
    main,
)
from axisym.dynamics import STEP_BUDGET

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


def test_verify_mutate_rejects_parameters_the_system_lacks(capsys):
    # Mutating an absent parameter changes nothing, so the control would
    # pass vacuously.
    assert main(["verify", "linear_min", "--params", "u1=1,bz=2",
                 "--mutate", "u3=+0.001"]) == EXIT_CONFIG
    assert main(["verify", "op_min", "--params", OP_PARAMS,
                 "--mutate", "bq=+0.001"]) == EXIT_CONFIG
    assert "has no parameter 'bq'" in capsys.readouterr().err


def test_argparse_failures_map_to_config_error():
    assert main([]) == EXIT_CONFIG
    assert main(["figure", "seven"]) == EXIT_CONFIG


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
    assert meta["rhs_backend"] == "generated"
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


def test_simulate_detect_period(tmp_path):
    code = main(["simulate", "max5", "--params", "u2=1.5,bz=2,n=3,m=2",
                 "--ic", "1,-1,1,1,0,0", "--t-end", "30", "--tol", "1e-12",
                 "--detect-period", "--out", str(tmp_path)])
    assert code == EXIT_OK
    meta = json.loads((tmp_path / "max5_trajectory_meta.json").read_text())
    rep = meta["period_report"]
    assert rep["closed"] is True
    assert rep["period"] == pytest.approx(8.0 * math.pi, rel=1e-4)


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
