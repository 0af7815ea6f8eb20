"""Command-line interface: list, verify, simulate, figure.

Exit status contract: 0 all checks passed, 1 verification failure,
2 configuration error, 3 integration aborted (a singular start, a guard
region or the escape bound reached, H drifted past its bound, or the
step budget used up).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import io as aio
from .autodiff import value
from .catalog import BUILDERS, REFERENCE_STATE, SYSTEM_INFO, SystemParams, build
from .dynamics import STEP_BUDGET, TOL_MAX, TOL_MIN, integrate, search_period
from .figures import RECIPES, run_figure
from .phase import DEFAULT_SEED, DomainError, PhasePoint, make_rng
from .verify import is_integral, verify_system

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_SINGULAR = 3

_FAMILY_INFO = {
    f"family_{kind}": {
        "rank": 3,
        "parameters": ["beta1", "beta2", "rho1", "rho2 (callables)", *extra],
        "integrals": "X1, X2 (quadratic)",
        "description": f"{name} integrable family; "
                       "built from Python callables, not CLI-constructible",
    }
    for kind, name, extra in (("circular_parabolic", "parabolic-rotational", ()),
                              ("oblate_spheroidal", "oblate spheroidal", ("a",)),
                              ("prolate_spheroidal", "prolate spheroidal", ("a",)))
}


class ConfigError(Exception):
    pass


def _parse_params(text: str) -> SystemParams:
    kv = {}
    if text:
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ConfigError(f"malformed parameter {item!r} (expected key=value)")
            key, val = item.split("=", 1)
            key = key.strip()
            try:
                num = float(val)
            except ValueError:
                raise ConfigError(f"parameter {key}: {val!r} is not a number")
            kv[key] = num
    try:
        return SystemParams(**kv)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc))


def _parse_ic(text: str) -> np.ndarray:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != 6:
        raise ConfigError("--ic needs six comma-separated values x,y,z,px,py,pz")
    try:
        return np.asarray([float(p) for p in parts])
    except ValueError:
        raise ConfigError(f"--ic contains a non-numeric entry: {text!r}")


def _build_system(system_id: str, params: SystemParams):
    if system_id not in BUILDERS:
        raise ConfigError(
            f"unknown or non-constructible system {system_id!r}; "
            f"available: {', '.join(sorted(BUILDERS))}")
    try:
        return build(system_id, params)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"{system_id}: {exc}")


def _seed(text: str) -> int:
    """A ``--seed`` value: the key of the Philox sampler, a non-negative integer."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, not {seed}")
    return seed


def _check_tol(tol: float) -> None:
    if not (TOL_MIN <= tol <= TOL_MAX):    # NaN fails too
        raise ConfigError(f"--tol must lie in [{TOL_MIN}, {TOL_MAX}]")


def cmd_list(args) -> int:
    info = {**SYSTEM_INFO, **_FAMILY_INFO}
    if args.system:
        if args.system not in info:
            raise ConfigError(f"unknown system {args.system!r}")
        info = {args.system: info[args.system]}
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
        return EXIT_OK
    for sid in sorted(info):
        entry = info[sid]
        print(f"{sid}")
        print(f"  rank: {entry['rank']}")
        print(f"  parameters: {', '.join(entry['parameters'])}")
        print(f"  integrals: {entry['integrals']}")
        print(f"  {entry['description']}")
    return EXIT_OK


def _apply_mutation(params: SystemParams, mutate: str) -> SystemParams:
    """``params`` with one parameter shifted; building them rejects one the system lacks."""
    if "=" not in mutate:
        raise ConfigError("--mutate expects key=delta, e.g. u1=+0.001")
    key, delta = mutate.split("=", 1)
    key = key.strip()
    old = getattr(params, key, None)
    if old is None:
        raise ConfigError(f"--mutate: parameter {key!r} not set on this system")
    try:
        step = float(delta)
    except ValueError:
        raise ConfigError(f"--mutate: {delta!r} is not a number")
    if old + step == old:
        # The control would test the system against itself and pass.
        raise ConfigError(f"--mutate: {key} = {old} is left unchanged by {delta!r}")
    try:
        return dataclasses.replace(params, **{key: old + step})
    except ValueError as exc:
        raise ConfigError(f"--mutate: {exc}")


def cmd_verify(args) -> int:
    if args.samples < 1:
        raise ConfigError("--samples must be at least 1")
    params = _parse_params(args.params)
    spec = _build_system(args.system, params)
    try:
        if args.mutate:
            # Perturbation control: test the perturbed system's integrals
            # against the *original* Hamiltonian.  Conservation breaks, the
            # checks fail, and the command exits 1 — demonstrating that the
            # verification suite is sensitive to the catalog coefficients.
            mutated = _build_system(args.system, _apply_mutation(params, args.mutate))
            rng = make_rng(args.seed)
            reports = [is_integral(spec, g, samples=args.samples,
                                   tol=1e-10, rng=rng)
                       for g in mutated.integrals]
        else:
            reports = verify_system(spec, samples=args.samples, seed=args.seed)
    except MemoryError as exc:
        # numpy's message names the size it could not allocate.
        raise ConfigError(f"--samples {args.samples} is too large: {exc}")

    failed = [r for r in reports if not r.passed]

    if args.out:
        aio.ensure_dir(args.out)
        aio.write_reports(os.path.join(args.out, f"{args.system}_reports.json"),
                          reports)
    payload = [r.as_dict() for r in reports]
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            print(f"[{status}] {r.system_id} {r.check}: "
                  f"max residual {r.max_residual:.3e} (tol {r.tolerance:.1e}, "
                  f"{r.samples} samples)")
    return EXIT_OK if not failed else EXIT_VERIFY_FAIL


def cmd_simulate(args) -> int:
    params = _parse_params(args.params)
    spec = _build_system(args.system, params)
    ic = _parse_ic(args.ic) if args.ic else np.asarray(REFERENCE_STATE)
    if args.momenta == "kinetic":
        # Convert kinetic momenta to canonical ones in the spec gauge.
        a = np.asarray([float(value(c)) for c in spec.A(ic[:3])])
        ic = ic.copy()
        ic[3:] = ic[3:] - a
    _check_tol(args.tol)
    if not (0.0 < args.t_end < math.inf):
        raise ConfigError("--t-end must be a positive finite number")

    # STEP_BUDGET was sized for a horizon of 50; a longer regular orbit
    # needs proportionally more steps.
    budget = STEP_BUDGET * max(1, math.ceil(args.t_end / 50.0))
    try:
        traj = integrate(spec, PhasePoint.from_state(ic), args.t_end, tol=args.tol,
                         max_steps=budget)
    except DomainError as exc:
        print(f"singular abort: {exc}", file=sys.stderr)
        return EXIT_SINGULAR

    outdir = aio.ensure_dir(args.out or ".")
    stem = os.path.join(outdir, f"{args.system}_trajectory")
    labels = aio.write_trajectory_csv(stem + ".csv", traj.times, traj.states,
                                      traj.traces)
    meta = dict(traj.meta)
    meta.update({
        "momenta": args.momenta,
        "seed": args.seed,
        "ic": list(map(float, ic)),
        "columns": ["t", "x", "y", "z", "px", "py", "pz", *labels],
        "drift": {lbl: traj.drift(lbl) for lbl in traj.traces},
        "aborted": traj.aborted,
    })
    if args.detect_period:
        # An aborted run has no orbit to close: the search reports it open.
        meta["period_report"] = search_period(traj).as_dict()
    aio.write_meta(stem + "_meta.json", meta)
    if args.json:
        print(json.dumps(meta, indent=2, sort_keys=True, default=str))
    else:
        print(f"wrote {stem}.csv ({traj.times.size} rows)")
        if traj.aborted:
            print(f"integration aborted at t = {meta['t_final']:.6g} "
                  f"({meta['reason']})", file=sys.stderr)
    return EXIT_SINGULAR if traj.aborted else EXIT_OK


def cmd_figure(args) -> int:
    if args.figure_id not in RECIPES:
        raise ConfigError("figure id must be 1..6")
    _check_tol(args.tol)
    outdir = args.out or f"figure{args.figure_id}"
    meta = run_figure(args.figure_id, outdir, tol=args.tol)
    if args.json:
        print(json.dumps(meta, indent=2, sort_keys=True, default=str))
    else:
        rep = meta.get("period_report")
        if rep and rep.get("closed"):
            print(f"figure {args.figure_id}: closes near t = {rep['period']:.6g}")
        else:
            print(f"figure {args.figure_id}: no closure detected")
        for entry in meta["files"]:
            print(f"  {entry['csv']}")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="axisym",
        description="Axially symmetric magnetic Hamiltonian systems: "
                    "catalog, verification, integration, reference figures.")
    sub = p.add_subparsers(dest="command", required=True)

    lp = sub.add_parser("list", help="show the system catalog")
    lp.add_argument("system", nargs="?", help="restrict to one system id")
    lp.add_argument("--json", action="store_true")
    lp.set_defaults(fn=cmd_list)

    vp = sub.add_parser("verify", help="run the verification suites on a system")
    vp.add_argument("system")
    vp.add_argument("--params", default="", help="comma-separated key=value list")
    vp.add_argument("--samples", type=int, default=1000)
    vp.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    vp.add_argument("--mutate", help="negative control: perturb one parameter, e.g. u1=+0.001")
    vp.add_argument("--out", help="directory for report JSON")
    vp.add_argument("--json", action="store_true")
    vp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("simulate", help="integrate a trajectory and export CSV")
    sp.add_argument("system")
    sp.add_argument("--params", default="")
    sp.add_argument("--ic", help="x,y,z,px,py,pz")
    sp.add_argument("--t-end", type=float, default=50.0, dest="t_end")
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    sp.add_argument("--out", help="output directory")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--detect-period", action="store_true", dest="detect_period")
    sp.add_argument("--momenta", choices=("canonical", "kinetic"),
                    default="canonical")
    sp.set_defaults(fn=cmd_simulate)

    fp = sub.add_parser("figure", help="reproduce one reference figure (1-6)")
    fp.add_argument("figure_id", type=int)
    fp.add_argument("--tol", type=float, default=1e-12)
    fp.add_argument("--out", help="output directory")
    fp.add_argument("--json", action="store_true")
    fp.set_defaults(fn=cmd_figure)
    return p


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        print(f"singular abort: {exc}", file=sys.stderr)
        return EXIT_SINGULAR


if __name__ == "__main__":
    sys.exit(main())
