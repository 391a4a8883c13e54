import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprtraj import (
    ActionSample,
    Decomposition,
    LimitSeries,
    ModelParams,
    ParticlePositions,
    PolarForm,
    QuantumMassSample,
    Segment,
    TrajectoryEvent,
    TurningPoint,
    WedgeBounds,
    normalize_phase_shift,
    particle_positions,
    validate_params,
)

from conftest import make_params


def test_derived_quantities():
    p = validate_params(1.0, 1.0, 0.5, 0.0, math.pi / 2)
    assert p.M == 1.25
    assert p.E == pytest.approx(math.pi ** 2 / 10, rel=1e-15)
    assert p.tau == 0.0


def test_energy_invariant_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = make_params(alpha=rng.uniform(0.01, 2.0), k=rng.uniform(0.1, 20.0),
                        m=rng.uniform(0.1, 10.0), hbar=rng.uniform(0.1, 5.0))
        lhs = p.E
        rhs = p.hbar ** 2 * p.k ** 2 / (2.0 * p.m * (1.0 + p.alpha ** 2))
        assert lhs == pytest.approx(rhs, rel=1e-14)


@pytest.mark.parametrize("raw, expected", [
    (3 * math.pi / 2, -math.pi / 2),
    (math.pi, math.pi),
    (-math.pi, math.pi),
    (5 * math.pi / 2, math.pi / 2),
    (0.25, 0.25),
    (-7.0, -7.0 + 2 * math.pi),
])
def test_beta_normalization(raw, expected):
    assert normalize_phase_shift(raw) == pytest.approx(expected, abs=1e-12)
    p = validate_params(1.0, 1.0, 0.5, raw, math.pi / 2)
    assert -math.pi < p.beta <= math.pi


_PI_ULP = math.ulp(math.pi)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(beta=st.one_of(st.floats(-4.0, 4.0), st.floats(-10.0, 10.0), st.floats(-1e6, 1e6),
                      st.builds(lambda s, n: s * math.pi + n * _PI_ULP,
                                st.sampled_from([-3.0, -1.0, 1.0, 3.0]), st.integers(-8, 8))))
def test_beta_normalization_in_range_and_idempotent(beta):
    reduced = normalize_phase_shift(beta)
    assert -math.pi < reduced <= math.pi
    assert normalize_phase_shift(reduced) == reduced
    if -math.pi < beta <= math.pi:
        assert reduced == beta
    # wherever the plain reduction lands in range, the result is that reduction
    plain = beta - 2.0 * math.pi * math.ceil(beta / (2.0 * math.pi) - 0.5)
    if -math.pi < plain <= math.pi:
        assert reduced == plain


def test_beta_next_to_minus_pi_stays():
    # beta / (2 pi) - 0.5 rounds to -1.0 here, so the plain reduction gave 3.1415926535897936
    beta = -3.1415926535897927
    p = validate_params(1, 1, 0.5, beta, 1)
    assert p.beta == beta and p.replace(beta=p.beta).beta == beta


@pytest.mark.parametrize("field, args", [
    ("alpha", (1.0, 1.0, 0.0, 0.0, math.pi / 2)),
    ("alpha", (1.0, 1.0, -0.5, 0.0, math.pi / 2)),
    ("hbar", (0.0, 1.0, 0.5, 0.0, math.pi / 2)),
    ("m", (1.0, -1.0, 0.5, 0.0, math.pi / 2)),
    ("k", (1.0, 1.0, 0.5, 0.0, 0.0)),
    ("k", (1.0, 1.0, 0.5, 0.0, math.nan)),
])
def test_positivity_validation(field, args):
    with pytest.raises(ValueError, match=f"{field} must be positive"):
        validate_params(*args)


@pytest.mark.parametrize("field, value, message", [
    ("hbar", -1.0, "hbar must be positive, got -1.0"),
    ("m", 0.0, "m must be positive, got 0.0"),
    ("alpha", math.nan, "alpha must be positive, got nan"),
    ("alpha", math.inf, "alpha must be positive, got inf"),
    ("k", -math.inf, "k must be positive, got -inf"),
    ("beta", math.nan, "beta must be finite, got nan"),
    ("tau", -math.inf, "tau must be finite, got -inf"),
])
def test_model_params_constructor_validates(field, value, message):
    raw = dict(hbar=1.0, m=1.0, alpha=0.5, beta=0.0, k=1.0, tau=0.0)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ModelParams(**{**raw, field: value})
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        validate_params(**{**raw, field: value})
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ModelParams(**raw).replace(**{field: value})


def test_model_params_constructor_derives():
    p = ModelParams(hbar=1.0, m=1.0, alpha=0.5, beta=3 * math.pi / 2, k=math.pi / 2)
    assert p == validate_params(1.0, 1.0, 0.5, 3 * math.pi / 2, math.pi / 2)
    assert (p.M, p.beta, p.tau) == (1.25, normalize_phase_shift(3 * math.pi / 2), 0.0)
    for derived in ("E", "M"):
        with pytest.raises(TypeError, match=derived):
            ModelParams(1.0, 1.0, 0.5, 0.0, 1.0, **{derived: 1.0})
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.alpha = 0.7
    assert repr(p) == ("ModelParams(hbar=1.0, m=1.0, alpha=0.5, beta=-1.5707963267948966, "
                       "k=1.5707963267948966, E=0.9869604401089358, M=1.25, tau=0.0)")


def test_replace_validates_and_derives_again():
    p = make_params(alpha=0.5, beta=0.3, k=2.5, hbar=0.7, m=3.0, tau=1.5)
    with pytest.raises(ValueError, match="alpha must be positive, got -1"):
        p.replace(alpha=-1)
    with pytest.raises(TypeError, match="E"):
        p.replace(E=2.0)
    for changes in ({"alpha": 1 - 1e-9}, {"alpha": 1.0}, {"k": 0.1, "beta": 7.0}, {"m": 2.0},
                    {"hbar": 3.0, "tau": -2.0}, {}):
        q, fresh = p.replace(**changes), make_params(**{
            "alpha": p.alpha, "beta": p.beta, "k": p.k, "hbar": p.hbar, "m": p.m, "tau": p.tau,
            **changes})
        assert (q.E, q.M, q.c, q.beta) == (fresh.E, fresh.M, fresh.c, fresh.beta)
        assert q == fresh and repr(q) == repr(fresh)


_FIELDS = ["hbar", "m", "alpha", "beta", "k", "E", "M", "tau", "c"]


def _kernel_constants(p):
    """What a ModelParams holds beyond its dataclass fields."""
    return {name: value for name, value in vars(p).items() if name not in _FIELDS}


def test_kernel_constants_are_beta_free_and_unseen():
    from pathlib import Path

    from eprtraj.dataset import params_dict
    p = validate_params(1.0, 1.0, 0.5, 0.0, math.pi / 2)  # the params golden's defaults
    constants = _kernel_constants(p)
    assert constants and all(name.startswith("_") for name in constants)
    # free of beta: a curve's copy (trajectory.turning_points_by_beta) keeps them
    for beta in (-3.0, 1e-300, 2.9, 7.5, -math.pi):
        assert _kernel_constants(p.replace(beta=beta)) == constants
    assert [f.name for f in dataclasses.fields(ModelParams)] == _FIELDS
    assert repr(p) == ("ModelParams(hbar=1.0, m=1.0, alpha=0.5, beta=0.0, "
                       "k=1.5707963267948966, E=0.9869604401089358, M=1.25, tau=0.0)")
    q = p.replace()
    object.__setattr__(q, "_d_floor", -1.0)  # == and hash read the fields alone
    assert q == p and hash(q) == hash(p) and repr(q) == repr(p)
    golden = Path(__file__).parent / "golden" / "params.json"
    assert params_dict(p) == json.loads(golden.read_text())
    assert list(params_dict(p)) == ["hbar", "m", "alpha", "beta", "k", "E", "M", "tau"]


@pytest.mark.parametrize("args, message", [  # each message as the parent commit raised it
    ((0.0, 1.0, 0.5, 0.0, math.pi / 2), "hbar must be positive, got 0.0"),
    ((1.0, 1.0, math.nan, 0.0, math.pi / 2), "alpha must be positive, got nan"),
    ((1.0, 1.0, 0.5, math.inf, math.pi / 2), "beta must be finite, got inf"),
    ((1e-320, 1.0, 0.5, 0.0, math.pi / 2),  # eprtraj params --hbar 1e-320
     "c overflows for hbar=1e-320, m=1.0, alpha=0.5, k=1.5707963267948966"),
    ((1.0, math.nan, math.nan, math.nan, math.nan), "m must be positive, got nan"),
    ((1e300, 1e-300, 1.0, 0.0, 1e10), "E overflows for hbar=1e+300, m=1e-300, alpha=1.0, "
                                      "k=10000000000.0"),
    ((1.0, 1e308, 1e200, 0.0, 1.0), "M overflows for hbar=1.0, m=1e+308, alpha=1e+200, k=1.0"),
])
def test_rejections_keep_their_messages(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        validate_params(*args)


def test_extreme_accepted_input_keeps_its_overflow():
    # no new rejection: the constants are not checked, so 2 k is inf here, as the kernels'
    # 2.0 * k * x was, and every kernel meets the overflow where it met it before
    p = validate_params(1e-300, 1, 0.5, 0, 1e308)
    assert (p.E, p.M, p.c) == (0.0, 1.25, 7.5e-09)
    assert _kernel_constants(p) == {"_d_floor": 0.25, "_four_alpha": 2.0, "_two_k": math.inf,
                                    "_d_slope": -math.inf}


@pytest.mark.parametrize("record, text", [
    (TurningPoint(3.0, -1.0, "temporal_min"), "TurningPoint(x=3.0, t=-1.0, kind='temporal_min')"),
    (TurningPoint(1.0, 2.0, "temporal_max"), "TurningPoint(x=1.0, t=2.0, kind='temporal_max')"),
    (Segment(0.0, 1.0, "forward", 0),
     "Segment(x_start=0.0, x_end=1.0, direction='forward', branch_id=0)"),
    (WedgeBounds(0.5, 1.5), "WedgeBounds(t_lower=0.5, t_upper=1.5)"),
    (TrajectoryEvent("creation", 1.0, 2.0, (1, 2)),
     "TrajectoryEvent(kind='creation', x=1.0, t=2.0, branch_ids=(1, 2))"),
    (ActionSample(1.0, 0.5, 3.6, 1),
     "ActionSample(x=1.0, w_principal=0.5, w_unwrapped=3.6, sheet=1)"),
    (QuantumMassSample(1.0, -0.5, 2.0), "QuantumMassSample(x=1.0, q=-0.5, m_q=2.0)"),
    (Decomposition(1.0, -0.25, 0.5, 1.25),
     "Decomposition(c_p1=1.0, c_p2=-0.25, c_ent=0.5, total=1.25)"),
    (PolarForm(1.5, 0.0, 2.25), "PolarForm(amplitude=1.5, phase=0.0, amplitude_squared=2.25)"),
    (ParticlePositions(2.0, -0.5), "ParticlePositions(x1=2.0, x2=-0.5)"),
])
def test_records_are_immutable_values(record, text):
    assert repr(record) == text
    assert record == type(record)(*record) and hash(record) == hash(type(record)(*record))
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], 0.0)


def test_beta_must_be_finite():
    with pytest.raises(ValueError, match="beta"):
        validate_params(1.0, 1.0, 0.5, math.inf, 1.0)


def test_particle_positions_examples(ref_params):
    pos = particle_positions(2.0, ref_params)
    assert (pos.x1, pos.x2) == (2.0, -0.5)
    pos = particle_positions(3.0, make_params(alpha=1.0))
    assert (pos.x1, pos.x2) == (3.0, -3.0)
    pos = particle_positions(0.0, ref_params)
    assert (pos.x1, pos.x2) == (0.0, 0.0)


def test_relative_position_conserved():
    # x1 = -x2 / alpha^2; exact for dyadic alpha, to rounding otherwise
    rng = np.random.default_rng(3)
    for _ in range(300):
        alpha = rng.uniform(0.05, 1.5)
        p = make_params(alpha=alpha)
        x = rng.uniform(-20, 20)
        pos = particle_positions(x, p)
        assert -pos.x2 / alpha ** 2 == pytest.approx(pos.x1, rel=5e-16, abs=1e-300)
    for alpha in (0.5, 1.0, 0.25):
        p = make_params(alpha=alpha)
        pos = particle_positions(1.7, p)
        assert -pos.x2 / alpha ** 2 == pos.x1


def test_limit_series_validation():
    with pytest.raises(ValueError, match="empty"):
        LimitSeries((), "below")
    with pytest.raises(ValueError, match="side"):
        LimitSeries(((0.9, 1.0),), "sideways")
    with pytest.raises(ValueError, match="increasing"):
        LimitSeries(((0.9, 1.0), (0.8, 2.0)), "below")
    with pytest.raises(ValueError, match="decreasing"):
        LimitSeries(((1.1, 1.0), (1.2, 2.0)), "above")
    series = LimitSeries(((0.9, 1.0), (0.99, 2.0)), "below")
    assert series.alphas == (0.9, 0.99)
    assert series.values == (1.0, 2.0)
