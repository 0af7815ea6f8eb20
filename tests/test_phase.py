"""Phase-space primitives: points, observables, gauge invariance."""

import numpy as np
import pytest

from axisym import autodiff as ad
from axisym import phase
from axisym.phase import (
    CovectorField,
    DomainError,
    EvaluationError,
    Observable,
    PhasePoint,
    apply_gauge,
    exterior_derivative,
    gradient6,
    hamiltonian_observable,
    make_rng,
    sample_safe_states,
    SAFE_PMAX,
    SAFE_QMAX,
    SAFE_QMIN,
    SIGN_CHUNK,
)


def test_phase_point_construction_and_state_roundtrip():
    pt = PhasePoint.from_state([1, 2, 3, 4, 5, 6])
    assert np.allclose(pt.q, [1, 2, 3])
    assert np.allclose(pt.p, [4, 5, 6])
    assert np.allclose(pt.state, [1, 2, 3, 4, 5, 6])
    assert pt.r2 == pytest.approx(5.0)
    assert pt.R2 == pytest.approx(14.0)


def test_phase_point_rejects_bad_input():
    with pytest.raises(ValueError):
        PhasePoint(np.ones(2), np.ones(3))
    with pytest.raises(DomainError):
        PhasePoint.from_state([1, 2, np.nan, 0, 0, 0])


def test_sampling_stays_in_safe_box():
    rng = make_rng(7)
    states = sample_safe_states(rng, 500)
    assert states.shape == (6, 500)
    q = np.abs(states[:3])
    assert np.all(q >= SAFE_QMIN) and np.all(q <= SAFE_QMAX)
    assert np.all(np.abs(states[3:]) <= SAFE_PMAX)
    pts = [PhasePoint.from_state(s) for s in sample_safe_states(rng, 3).T]
    assert len(pts) == 3 and isinstance(pts[0], PhasePoint)


def test_rng_is_deterministic():
    a = sample_safe_states(make_rng(42), 10)
    b = sample_safe_states(make_rng(42), 10)
    assert np.array_equal(a, b)


def _reference_states(rng, n):
    """The sampler as first written, on whole temporary arrays."""
    mag = rng.uniform(SAFE_QMIN, SAFE_QMAX, size=(3, n))
    sign = rng.choice([-1.0, 1.0], size=(3, n))
    q = mag * sign
    p = rng.uniform(-SAFE_PMAX, SAFE_PMAX, size=(3, n))
    return np.vstack([q, p])


@pytest.mark.parametrize("n", [1, 5, 1000, 100_000])
def test_sampler_draws_the_reference_bytes(n):
    # Same values and the generator left in the same state, so every
    # caller (conservation_suite's draws included) sees the same states.
    for seed in (0, 7, 20260823, 0x5EED):
        a, b = make_rng(seed), make_rng(seed)
        got, want = sample_safe_states(a, n), _reference_states(b, n)
        assert got.shape == want.shape == (6, n) and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert a.random() == b.random()


def _one_sign_draw(rng, n):
    """The sampler with the signs of all 3 n positions in one draw."""
    out = np.empty((6, n))
    q, p = out[:3], out[3:]
    rng.random(out=q)
    q *= SAFE_QMAX - SAFE_QMIN
    q += SAFE_QMIN
    sign = rng.integers(0, 2, size=(3, n))
    q *= 2 * sign - 1
    rng.random(out=p)
    p *= 2.0 * SAFE_PMAX
    p -= SAFE_PMAX
    return out


# A small chunk, so that a draw of several chunks stays small.
_CHUNK = 4097


@pytest.mark.parametrize("n", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 1])
def test_signs_in_chunks_equal_one_draw(monkeypatch, n):
    # The 3 n signs end short of a chunk edge, on one and past one.
    monkeypatch.setattr(phase, "SIGN_CHUNK", _CHUNK)
    for seed in (0, 0x5EED):
        a, b = make_rng(seed), make_rng(seed)
        assert sample_safe_states(a, n).tobytes() == _one_sign_draw(b, n).tobytes()
        assert sample_safe_states(a, 7).tobytes() == _one_sign_draw(b, 7).tobytes()
        assert a.random() == b.random()


def test_signs_past_the_first_chunk_equal_one_draw():
    n = SIGN_CHUNK // 3 + 1          # one sign past the first chunk
    a, b = make_rng(11), make_rng(11)
    assert sample_safe_states(a, n).tobytes() == _one_sign_draw(b, n).tobytes()
    assert a.random() == b.random()


def test_gradient6_quadratic_form():
    def fn(state):
        x, y, z, px, py, pz = state
        return x * x * py + z * pz * pz

    g = gradient6(fn, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    assert [float(v) for v in g] == pytest.approx([10.0, 0.0, 36.0, 0.0, 1.0, 36.0])


def test_observable_eval_and_grad():
    obs = Observable(lambda s: s[0] ** 2 + s[3], label="f", momentum_order=1)
    pt = PhasePoint.from_state([2, 0, 0, 3, 0, 0])
    assert obs.eval(pt) == pytest.approx(7.0)
    assert np.allclose(obs.grad(pt), [4, 0, 0, 1, 0, 0])


def _overflow_nan(s):
    # inf - inf at s[0] = 1, reached through finite constants only.
    v = s[0] * 1e308 * 1e308
    return v - v


def test_observable_nonfinite_raises():
    obs = Observable(_overflow_nan, label="bad")
    with pytest.raises(EvaluationError):
        obs.eval(PhasePoint.from_state([1, 0, 0, 0, 0, 0]))


def test_exterior_derivative_constant_field():
    # A = bz/2 (-y, x, 0) has dA = (0, 0, bz).
    bz = 3.0
    A = CovectorField(lambda x, y, z: (-bz / 2.0 * y, bz / 2.0 * x, 0.0 * z))
    bx, by, bzv = exterior_derivative(A, (0.3, -1.2, 0.7))
    assert (bx, by, bzv) == pytest.approx((0.0, 0.0, bz))


def test_gauge_transformation_preserves_field():
    A = CovectorField(lambda x, y, z: (-y * z, x * z, x * y))
    F = lambda x, y, z: x * x * y + ad.sin(z)
    A2 = apply_gauge(A, F)
    q = (0.7, -0.4, 1.1)
    assert np.allclose(
        [float(c) for c in exterior_derivative(A, q)],
        [float(c) for c in exterior_derivative(A2, q)],
        atol=1e-12,
    )


def test_hamiltonian_observable_decomposition():
    A = CovectorField(lambda x, y, z: (-y, x, 0.0 * z))
    W = lambda x, y, z: x * x + z
    H = hamiltonian_observable(A, W)
    state = [1.0, 2.0, 3.0, 0.5, -0.5, 1.0]
    vx, vy, vz = 0.5 - 2.0, -0.5 + 1.0, 1.0
    expected = 0.5 * (vx * vx + vy * vy + vz * vz) + 1.0 + 3.0
    assert H.eval(state) == pytest.approx(expected)
    assert H.momentum_order == 2


def test_divergence_of_two_form_fields():
    from axisym.catalog import build
    from conftest import PARAMS

    spec = build("op_min", PARAMS["op_min"])
    for q in [(0.5, 0.6, 0.9), (1.2, -0.8, 1.4)]:
        assert spec.B.divergence(q) == pytest.approx(0.0, abs=1e-10)
