"""Tests of the benchmark itself: its checkers can fail, its counts repeat.

Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py

The count test makes two traced passes of each workload (about two
minutes on a 2-core Xeon).
"""

import copy
import json
import math
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import probes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def failed_frac(checks):
    return sum(not ok for _, ok in checks) / len(checks)


# ------------------------------------------------------------ negative controls

def good_conserve_outputs():
    return {key: {"drifts": {"H": 1e-12, "X1": 1e-11, "attempts": 1}, "error": None}
            for key in workloads.CONFIGS}


def test_conserve_checker_fails_on_drift_one_bound_too_high():
    outputs = good_conserve_outputs()
    assert failed_frac(workloads.check_conserve(outputs)) == 0
    outputs["op_min"]["drifts"]["X1"] = 2 * workloads.drift_bound("X1")
    assert failed_frac(workloads.check_conserve(outputs)) > 0


def test_conserve_checker_fails_on_a_config_that_raised():
    outputs = good_conserve_outputs()
    outputs["max6"] = {"drifts": {}, "error": "RuntimeError('could not find')"}
    assert failed_frac(workloads.check_conserve(outputs)) > 0


def good_figure_metas(tmp_path):
    periods = {1: None, 2: 18.8497, 3: 8 * math.pi, 4: None, 5: 12.5664,
               6: 8 * math.pi / 3}
    metas = {}
    for fid, period in periods.items():
        columns = ["t", "x", "y", "z", "px", "py", "pz", "H"]
        csv_path = tmp_path / f"fig{fid}.csv"
        csv_path.write_text(",".join(columns) + "\n"
                            + "0,1,-1,1,1,0,0,0.5\n2.5,1,-1,1,1,0,0,0.5\n")
        svgs = []
        for view in ("xy", "xz", "yz", "3d"):
            svg = tmp_path / f"fig{fid}_{view}.svg"
            svg.write_text("<svg/>\n")
            svgs.append(str(svg))
        metas[fid] = {
            "period_report": {"closed": period is not None, "period": period},
            "files": [{"csv": str(csv_path), "svg": svgs, "columns": columns,
                       "t_end": 2.5}],
        }
    return metas


def test_figures_checker_fails_on_figure3_period_off_by_1e3(tmp_path):
    metas = good_figure_metas(tmp_path)
    assert failed_frac(workloads.check_figures(metas)) == 0
    bad = copy.deepcopy(metas)
    bad[3]["period_report"]["period"] *= 1 + 1e-3
    assert failed_frac(workloads.check_figures(bad)) > 0


def test_figures_checker_fails_when_csv_disagrees_with_meta(tmp_path):
    metas = good_figure_metas(tmp_path)
    metas[2]["files"][0]["columns"] = metas[2]["files"][0]["columns"] + ["X1"]
    assert failed_frac(workloads.check_figures(metas)) > 0
    metas = good_figure_metas(tmp_path)
    metas[5]["files"][0]["t_end"] = 3.0
    assert failed_frac(workloads.check_figures(metas)) > 0


def test_verify_checker_fails_when_a_control_passes():
    def check(items):
        return workloads.check_verify({"items": items, "known_defect_ratio": {"op_min": 0.01, "op_min_100k": 0.3}})

    items = [("verify.op_min.{X1,H}=0", True, False),
             ("verify.control.mutated_closure", False, True)]
    assert failed_frac(check(items)) == 0
    items[1] = ("verify.control.mutated_closure", True, True)
    assert failed_frac(check(items)) > 0
    items = [("verify.op_min.{X1,H}=0", False, False)]
    assert failed_frac(check(items)) > 0


def test_cli_checker_fails_on_mutate_run_reported_as_exit_0():
    results = [{"command": stem, "exit": code, "expected": code, "missing": []}
               for stem, _, code, _ in probes.CLI_COMMANDS]
    assert failed_frac(probes.check_cli(results)) == 0
    mutate = next(r for r in results if r["command"] == "verify_mutate")
    mutate["exit"] = 0
    assert failed_frac(probes.check_cli(results)) > 0


def test_cli_checker_fails_on_missing_output_file():
    results = [{"command": "figure6", "exit": 0, "expected": 0,
                "missing": ["fig6/figure6_meta.json"]}]
    assert failed_frac(probes.check_cli(results)) > 0


# ---------------------------------------------------------- definition, seeds

def test_per_layer_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == run.per_layer_units()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)


def test_second_seed_changes_conserve_draws():
    def first_draws(seed):
        ctx = workloads.new_conserve_ctx(seed, None)
        return {key: workloads.phase.sample_safe_states(rng, 3).tolist()
                for key, rng in ctx["rngs"].items()}

    assert first_draws(7) == first_draws(7)
    assert first_draws(7) != first_draws(8)
    # The replayed cp_min_bq draws do not depend on the run seed.
    a = workloads.phase.sample_safe_states(workloads.bq_rng(), 2)
    b = workloads.phase.sample_safe_states(workloads.bq_rng(), 2)
    assert a.tolist() == b.tolist()


# ------------------------------------------------------------------- counts

COUNT_PREFIXES = ("dynamics.rhs_calls.", "dynamics.attempts.",
                  "dynamics.rhs_calls_discarded", "figures.integrate_calls",
                  "io.csv_bytes")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly_for_one_seed(name, tmp_path):
    first, _, _, _ = run.traced_pass(name, 11, str(tmp_path / "a"))
    second, _, _, _ = run.traced_pass(name, 11, str(tmp_path / "b"))
    counts = {m: v for m, (v, _) in first.items() if m.startswith(COUNT_PREFIXES)}
    assert counts == {m: second[m][0] for m in counts}
    assert all(isinstance(v, int) for v in counts.values())
    if name == "conserve":
        # The replayed cp_min_bq step-budget discard is in every pass.
        assert counts["dynamics.attempts.cp_min_bq"] == 2
        assert counts["dynamics.rhs_calls_discarded"] > 500_000
    if name == "figures":
        assert counts["figures.integrate_calls"] == 10
        assert counts["io.csv_bytes"] > 0
