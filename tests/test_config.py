import math
import re
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vmvp.config import (
    PhaseSpec,
    RunConfig,
    build_em_state,
    build_ensemble,
    build_initial_fields,
    load_config,
    resolve_config_path,
    save_config,
    schema_keys,
)
from vmvp.errors import ValidationError


# the least value each integer field accepts
INT_FLOORS = {
    "n_particles": 1, "w2_subsample": 1, "snapshot_every": 1, "ck_n_time": 1,
    "seed": 0, "cutoff": 0, "bootstrap_reps": 0, "ck_n_iters": 0,
}
BUNDLED = ("small2d", "sweep2d", "ck2d")
FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def sample_config(**kw):
    phases = [
        PhaseSpec(mu=0.5, rho_modes=[((0, 0), 1.0), ((1, 0), 0.04)], xi_modes=[(0, (0, 0), 0.25)]),
        PhaseSpec(mu=0.5, rho_modes=[((0, 0), 1.0), ((1, 0), 0.04)], xi_modes=[(0, (0, 0), -0.25)]),
    ]
    defaults = dict(dim=2, cutoff=6, eps_list=[0.2], t_final=0.01, dt=1e-3, phases=phases, n_particles=64)
    defaults.update(kw)
    return RunConfig(**defaults)


class TestValidation:
    def test_dt_must_divide_t(self):
        with pytest.raises(ValidationError, match="divide"):
            sample_config(t_final=0.0105)

    def test_eps_range(self):
        with pytest.raises(ValidationError, match="eps"):
            sample_config(eps_list=[1.5])

    def test_delta_ordering(self):
        with pytest.raises(ValidationError, match="delta"):
            sample_config(delta0=1.1, delta1=1.2)

    def test_mode_whitelist(self):
        with pytest.raises(ValidationError, match="mode"):
            sample_config(mode="bogus")

    @pytest.mark.parametrize("t_final,dt", [(math.inf, 1e-3), (math.nan, 1e-3), (0.01, 0.0), (0.01, -1e-3), (1e308, 1e-300)])
    def test_dt_and_t_final_finite_and_positive(self, t_final, dt):
        with pytest.raises(ValidationError, match="divide"):
            sample_config(t_final=t_final, dt=dt)

    @pytest.mark.parametrize("key,floor", sorted(INT_FLOORS.items()))
    def test_integer_floor(self, key, floor):
        sample_config(**{key: floor})
        with pytest.raises(ValidationError, match=key):
            sample_config(**{key: floor - 1})

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key,value", [
        *((k, "{}") for _, name, k in schema_keys() if FIELD_TYPES.get(name) == "float"),
        ("eps", "0.2, {}"), ("mu", "{}"),
        *((k, "\n\t0 1 0 {} 0.0") for k in ("e0_modes", "b0_modes", "rho_modes", "xi_modes")),
        ("xi_modes", "\n\t0 1 0 0.0 {}"),
    ])
    def test_non_finite_value_rejected(self, tmp_path, key, value, bad):
        (tmp_path / "cfg.cfg").write_text(with_value(SMALL2D, key, value.format(bad)), encoding="utf-8")
        with pytest.raises(ValidationError):
            load_config(tmp_path / "cfg.cfg")

    def test_kappa_formula(self):
        cfg = sample_config(alpha=0.9, moment_beta=0.1, gamma1=0.2, gamma2=0.15)
        assert cfg.kappa == pytest.approx(min(0.9 - (0.1 + 0.3), 1.0 - 0.35))


class TestRoundTrip:
    def test_lossless(self, tmp_path):
        cfg = sample_config(
            eps_list=[0.4, 0.2, 0.1],
            e0_modes=[(1, (1, 0), 0.125 + 0.0625j)],
            b0_modes=[(0, (0, 0), 0.05)],
            gamma=0.3,
            alpha=0.77,
        )
        p = tmp_path / "cfg.cfg"
        save_config(cfg, p)
        back = load_config(p)
        assert back == cfg

    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_regenerate_byte_for_byte(self, name, tmp_path):
        path = resolve_config_path(f"bundled/{name}")
        cfg = load_config(path)
        save_config(cfg, tmp_path / "cfg.cfg")
        assert (tmp_path / "cfg.cfg").read_bytes() == path.read_bytes()
        assert load_config(tmp_path / "cfg.cfg") == cfg

    def test_phase_order_survives_ten_phases(self, tmp_path):
        phases = [PhaseSpec(mu=(i + 1) / 66, rho_modes=[((0, 0), 1.0)], xi_modes=[]) for i in range(11)]
        save_config(sample_config(phases=phases), tmp_path / "cfg.cfg")
        assert load_config(tmp_path / "cfg.cfg").phases == phases

    def test_percent_in_a_value_saves_and_loads(self, tmp_path):
        cfg = sample_config(output_dir="out/100%")
        save_config(cfg, tmp_path / "cfg.cfg")
        assert load_config(tmp_path / "cfg.cfg") == cfg

    def test_interpolation_syntax_loads_literally(self, tmp_path):
        save_config(sample_config(), tmp_path / "cfg.cfg")
        text = (tmp_path / "cfg.cfg").read_text(encoding="utf-8")
        (tmp_path / "cfg.cfg").write_text(re.sub(r"(?m)^output_dir = .*$", "output_dir = run_%(dim)s", text), encoding="utf-8")
        assert load_config(tmp_path / "cfg.cfg").output_dir == "run_%(dim)s"

    def test_bundled_resolution(self):
        p = resolve_config_path("bundled/small2d")
        cfg = load_config(p)
        assert cfg.dim == 2 and cfg.cutoff == 8

    def test_unknown_bundled(self):
        with pytest.raises(ValidationError):
            resolve_config_path("bundled/nope")

    def test_missing_file(self):
        with pytest.raises(ValidationError):
            resolve_config_path("/does/not/exist.cfg")


class TestBuilders:
    def test_ensemble_and_em(self):
        cfg = sample_config()
        ens = build_ensemble(cfg, 0.2)
        assert ens.mu.size == 2 and ens.eps == 0.2
        em = build_em_state(cfg, 0.2)
        # well-prepared: transverse part vanishes
        assert np.abs(em.eps_adot.coeffs).max() < 1e-14

    def test_gamma_scaling(self):
        cfg = sample_config(e0_modes=[(1, (1, 0), 0.1)], gamma=1.0)
        _, e_small, _ = build_initial_fields(cfg, 0.1)
        _, e_big, _ = build_initial_fields(cfg, 0.2)
        # transverse amplitude scales as eps^-gamma
        idx = (1, cfg.cutoff + 1, cfg.cutoff)
        assert abs(e_small.coeffs[idx]) == pytest.approx(2 * abs(e_big.coeffs[idx]), rel=1e-12)

    def test_nontransverse_e0_rejected(self):
        cfg = sample_config(e0_modes=[(0, (1, 0), 0.1)])  # gradient-like mode
        with pytest.raises(ValidationError, match="transverse|divergence"):
            build_initial_fields(cfg, 0.2)


class TestSchema:
    def test_lists_every_field_but_phases_once(self):
        listed = [name for _, name, _ in schema_keys()]
        assert sorted(listed) == sorted(f.name for f in fields(RunConfig) if f.name != "phases")

    def test_file_keys_are_distinct(self):
        keys = [key for _, _, key in schema_keys()]
        assert len(set(keys)) == len(keys)


SMALL2D = resolve_config_path("bundled/small2d").read_text(encoding="utf-8")


def with_value(text: str, key: str, value: str) -> str:
    """Config text with one key's value, continuation lines included, replaced."""
    pattern = re.compile(rf"^{key} = .*(\n\t.*)*", re.M)
    assert pattern.search(text), key
    return pattern.sub(lambda _: f"{key} = {value}", text, count=1)


fuzz_values = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",))),
    st.integers().map(str),
    st.floats().map(repr),
)


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from([key for _, _, key in schema_keys()]), value=fuzz_values)
def test_any_single_value_loads_or_fails_validation(key, value):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cfg"
        path.write_text(with_value(SMALL2D, key, value), encoding="utf-8")
        try:
            load_config(path)
        except ValidationError:
            pass
