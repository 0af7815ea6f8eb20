"""Catalog systems: field/gauge consistency, integrals, special identities."""

import ast
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import axisym
from axisym import autodiff as ad
from axisym.catalog import (
    REFERENCE_STATE,
    BUILDERS,
    SYSTEM_INFO,
    SystemParams,
    build,
    build_cp_general,
    build_cp_raw,
    y4_explicit_max5,
    y4_explicit_max6,
)
from axisym.families import build_family
from axisym.phase import exterior_derivative, make_rng, sample_safe_states
from axisym.verify import poisson

from conftest import FAMILY_ARGS, PARAMS, SYSTEM_OF, chart_family


def _all_specs():
    return [(key, build(SYSTEM_OF[key], PARAMS[key])) for key in PARAMS]


@pytest.mark.parametrize("key", list(PARAMS))
def test_magnetic_field_is_exterior_derivative_of_gauge(key):
    spec = build(SYSTEM_OF[key], PARAMS[key])
    rng = make_rng(1)
    for state in sample_safe_states(rng, 20).T:
        q = tuple(state[:3])
        dA = [float(ad.value(c)) for c in exterior_derivative(spec.A, q)]
        B = [float(ad.value(c)) for c in spec.B(q)]
        assert np.allclose(dA, B, rtol=1e-10, atol=1e-10), key


@pytest.mark.parametrize("key", [*PARAMS, *FAMILY_ARGS])
def test_gauge_factor_generates_vector_potential(key):
    if key in FAMILY_ARGS:
        spec = build_family(chart_family(*FAMILY_ARGS[key]))
    else:
        spec = build(SYSTEM_OF[key], PARAMS[key])
    rng = make_rng(2)
    for state in sample_safe_states(rng, 20).T:
        x, y, z = state[:3]
        g = float(ad.value(spec.gauge_factor(x * x + y * y, z)))
        A = [float(ad.value(c)) for c in spec.A((x, y, z))]
        assert A == pytest.approx([-y * g, x * g, 0.0], rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("key", list(PARAMS))
def test_hamiltonian_is_kinetic_plus_potential(key):
    spec = build(SYSTEM_OF[key], PARAMS[key])
    rng = make_rng(3)
    for state in sample_safe_states(rng, 20).T:
        x, y, z, px, py, pz = state
        A = [float(ad.value(c)) for c in spec.A((x, y, z))]
        v = np.asarray([px + A[0], py + A[1], pz + A[2]])
        expected = 0.5 * v @ v + float(ad.value(spec.W(x, y, z)))
        assert spec.hamiltonian.eval(state) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("key", list(PARAMS))
def test_x2_is_canonical_angular_momentum(key):
    # In the axial gauge A = g (-y, x, 0), the axial integral reduces to
    # the plain canonical angular momentum x py - y px.
    spec = build(SYSTEM_OF[key], PARAMS[key])
    rng = make_rng(4)
    for state in sample_safe_states(rng, 20).T:
        x, y, _, px, py, _ = state
        assert spec.integral("X2").eval(state) == pytest.approx(
            x * py - y * px, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("key", list(PARAMS))
def test_integrals_commute_with_hamiltonian_spot_check(key):
    spec = build(SYSTEM_OF[key], PARAMS[key])
    states = sample_safe_states(make_rng(5), 50)
    cols = [states[i] for i in range(6)]
    for obs in spec.integrals:
        br = np.asarray(ad.value(poisson(obs, spec.hamiltonian, cols)))
        scale = 1e-6 if obs.label == "Y4" else 1e-9
        assert np.max(np.abs(br)) < scale, (key, obs.label)


def test_claimed_ranks_match_published_table():
    for key, spec in _all_specs():
        assert spec.claimed_rank == SYSTEM_INFO[spec.system_id]["rank"]
        assert len(spec.integrals) == spec.claimed_rank - 1


def test_linear_max_y3_y4_bracket_is_field_strength():
    spec = build("linear_max", PARAMS["linear_max"])
    states = sample_safe_states(make_rng(6), 30)
    cols = [states[i] for i in range(6)]
    br = np.asarray(ad.value(poisson(spec.integral("Y3"),
                                     spec.integral("Y4"), cols)))
    assert np.allclose(br, PARAMS["linear_max"].bz, rtol=1e-12)


def test_cp_translation_equivalence():
    # The general parabolic system with bl != 0, bq != 0 is the
    # normalized bq-branch translated along z: equations of motion agree
    # after the shift (constant potential offsets drop out).
    from axisym.dynamics import eom_rhs

    params = SystemParams(u1=1.2, u2=0.7, u3=0.9, bz=1.5, bq=2.0, bl=3.0)
    raw = build_cp_raw(params)
    norm = build_cp_general(params)
    shift = norm.meta["z_shift"]
    assert shift == pytest.approx(params.bl / (2.0 * params.bq))
    rng = make_rng(7)
    for state in sample_safe_states(rng, 10).T:
        shifted = state.copy()
        shifted[2] += shift
        assert np.allclose(eom_rhs(raw, shifted)[:2], eom_rhs(norm, state)[:2],
                           rtol=1e-10, atol=1e-10)
        assert np.allclose(eom_rhs(raw, shifted)[3:], eom_rhs(norm, state)[3:],
                           rtol=1e-10, atol=1e-10)
        # Hamiltonians differ by a state-independent constant
        d0 = raw.hamiltonian.eval(shifted) - norm.hamiltonian.eval(state)
        assert d0 == pytest.approx(
            raw.hamiltonian.eval(np.r_[1.0, 1.0, 1.0 + shift, 0, 0, 0])
            - norm.hamiltonian.eval(np.r_[1.0, 1.0, 1.0, 0, 0, 0]), rel=1e-9)


def test_cp_branches():
    assert build_cp_general(PARAMS["cp_min_bq"]).meta["branch"] == "bq"
    assert build_cp_general(PARAMS["cp_min_bz"]).meta["branch"] == "bz"
    assert build_cp_general(PARAMS["cp_min_bl"]).meta["branch"] == "bl"
    with pytest.raises(ValueError):
        build_cp_general(SystemParams(u1=1.0))


@pytest.mark.parametrize("kind,explicit", [
    ("max5", y4_explicit_max5),
    ("max6", y4_explicit_max6),
])
def test_y4_complex_form_matches_printed_polynomial(kind, explicit):
    params = SystemParams(u2=1.5 if kind == "max5" else 0.0, bz=2.0, n=1, m=1)
    spec = build(kind, params)
    poly = explicit(params)
    y4 = spec.integral("Y4")
    # One-time rescaling fixed at the reference state, then compared
    # across independent random states.
    ref = list(REFERENCE_STATE)
    ratio = poly.eval(ref) / y4.eval(ref)
    rng = make_rng(8)
    for state in sample_safe_states(rng, 50).T:
        a = poly.eval(state)
        b = y4.eval(state) * ratio
        assert abs(a - b) / max(1.0, abs(a)) < 1e-9, kind


def test_y4_explicit_requires_unit_resonance():
    with pytest.raises(ValueError):
        y4_explicit_max5(SystemParams(u2=1.0, bz=2.0, n=3, m=2))


def test_params_validation_and_reduction():
    p = SystemParams(bz=1.0, n=6, m=4)
    assert (p.n, p.m) == (3, 2)
    with pytest.raises(ValueError):
        SystemParams(n=2)
    with pytest.raises(ValueError):
        SystemParams(n=0, m=1)
    d = SystemParams(u1=1.0, bz=2.0, n=1, m=1).as_dict()
    assert d == {"u1": 1.0, "bz": 2.0, "n": 1, "m": 1}
    nan, inf = float("nan"), float("inf")
    for bad in ({"bz": nan}, {"bz": inf}, {"u1": -inf}, {"a": nan}, {"n": inf, "m": 1}):
        with pytest.raises(ValueError, match="finite"):
            SystemParams(**bad)
    for n, m in ((3.5, 2), (3, 2.5)):
        with pytest.raises(ValueError, match="integers"):
            SystemParams(bz=1.0, n=n, m=m)
    p = SystemParams(bz=1.0, n=6.0, m=4.0)
    assert (p.n, p.m) == (3, 2) and type(p.n) is int


def test_builder_preconditions():
    with pytest.raises(ValueError):
        build("linear_min", SystemParams(u1=1.0))
    with pytest.raises(ValueError):
        build("max5", SystemParams(u2=1.0, bz=2.0))
    with pytest.raises(ValueError):
        build("op_min", SystemParams(u1=1.0))
    with pytest.raises(KeyError):
        build("not_a_system", SystemParams())


# Each system with every parameter it has set, and each parameter a
# system could lack, set alone (the resonance indices as a pair).
OWN_PARAMS = {
    "linear_min": SystemParams(u1=1.0, bz=2.0),
    "linear_max": SystemParams(u1=1.0, bz=2.0),
    "op_min": PARAMS["op_min"],
    "cp_min": SystemParams(u1=10.0, u2=1.5, u3=1.0, bz=2.0, bq=4.0, bl=1.0),
    "cp_raw": SystemParams(u1=10.0, u2=1.5, u3=1.0, bz=2.0, bq=4.0, bl=1.0),
    "max5": PARAMS["max5"],
    "max6": PARAMS["max6"],
}
EXTRA_PARAMS = {
    **{key: {key: 0.5} for key in ("u1", "u2", "u3", "bz", "bp", "bs", "bq", "bl")},
    "a": {"a": 1.3},
    "n": {"n": 3, "m": 2},
}


@pytest.mark.parametrize("system_id", list(SYSTEM_INFO))
def test_build_takes_exactly_the_listed_parameters(system_id):
    own = OWN_PARAMS[system_id]
    listed = SYSTEM_INFO[system_id]["parameters"]
    assert sorted(own.as_dict()) == sorted(listed)
    build(system_id, own)      # the parameters it lacks are left at zero
    lacking = [key for key in EXTRA_PARAMS if key not in listed]
    assert "a" in lacking
    for key in lacking:
        # The builder itself checks, so a direct call records no such key.
        for make in (lambda p: build(system_id, p), BUILDERS[system_id]):
            with pytest.raises(ValueError, match=f"^{system_id} has no parameter '{key}'$"):
                make(dataclasses.replace(own, **EXTRA_PARAMS[key]))


def _system_id_comparisons(root: Path):
    """(file, line) of each ==, != or in against a catalog system-id literal."""
    found = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in node.ops):
                continue
            operands = []
            for side in (node.left, *node.comparators):
                is_seq = isinstance(side, (ast.Tuple, ast.List, ast.Set))
                operands += side.elts if is_seq else [side]
            if any(isinstance(o, ast.Constant) and o.value in BUILDERS for o in operands):
                found.append((path.name, node.lineno))
    return sorted(found)


def test_no_module_dispatches_on_a_system_id():
    # What differs between systems lives in their specs, built by the
    # catalog; a module that branches on an id string repeats it.
    assert _system_id_comparisons(Path(axisym.__file__).parent) == []


def _is_complex_arithmetic(node) -> bool:
    """A complex literal, an ``import cmath`` or a use of the name ``complex``."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, complex)
    if isinstance(node, ast.Import):
        return any(alias.name == "cmath" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.module == "cmath"
    return isinstance(node, ast.Name) and node.id == "complex"


def _complex_arithmetic(root: Path):
    """(file, line) of each node of complex arithmetic."""
    return sorted((path.name, node.lineno) for path in root.glob("*.py")
                  for node in ast.walk(ast.parse(path.read_text(), str(path)))
                  if _is_complex_arithmetic(node))


def test_no_module_uses_complex_numbers():
    # Every field is real straight-line code, so autodiff and the tape
    # carry one real arithmetic; Y4 holds its complex factors as (re, im).
    assert _complex_arithmetic(Path(axisym.__file__).parent) == []


def test_serialization_roundtrip():
    spec = build("max6", PARAMS["max6"])
    data = json.loads(spec.to_json())
    assert data["id"] == "max6"
    assert data["claimed_rank"] == 5
    assert data["params"]["bz"] == 3.0


def test_integral_lookup():
    spec = build("op_min", PARAMS["op_min"])
    assert spec.integral("Y3").label == "Y3"
    with pytest.raises(KeyError):
        spec.integral("Y9")
    labels = [o.label for o in spec.observables()]
    assert labels == ["H", "X1", "X2", "Y3"]
