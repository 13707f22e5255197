"""Units, configuration containers, and the flat config file format."""

import io
import math

import pytest

from qionize.units import (
    C_UM_PER_S,
    HBAR_C_EV_UM,
    ConfigError,
    DomainError,
    ExperimentConfig,
    QuadratureSpec,
    Reduction,
    Regime,
    dump_config,
    energy_to_wavenumber,
    load_config,
)

# transition energies (eV) -> wavenumbers (1/um), frozen from E / (hbar c)
CHANNEL_WAVENUMBERS = {
    3.753293: 19.020678267107723,
    4.283461: 21.707426931684658,
    4.288194: 21.731412501220053,
    4.594759: 23.285001371834706,
}


def test_constants():
    assert HBAR_C_EV_UM == 0.19732698
    assert C_UM_PER_S == 2.99792458e14


def test_energy_to_wavenumber_channels():
    for energy, expected in CHANNEL_WAVENUMBERS.items():
        got = energy_to_wavenumber(energy)
        assert got == pytest.approx(expected, rel=1e-12)
    # the 4-decimal reference value for the lowest channel
    assert energy_to_wavenumber(3.753293) == pytest.approx(19.0208, rel=1e-4)


def test_energy_to_wavenumber_rejects_nonpositive():
    for bad in (0.0, -1.0):
        with pytest.raises(DomainError):
            energy_to_wavenumber(bad)


def test_config_defaults():
    cfg = ExperimentConfig()
    assert cfg.pump_waist_um == 50.0
    assert cfg.pump_waist_y_um is None
    assert cfg.pump_waist_y == 50.0  # defaults to the x waist
    assert cfg.crystal_length_um == 1.0
    assert cfg.filter_omega_um == 4.0e8
    assert cfg.filter_omega_y_um == 1.0e7
    assert cfg.channel_energy_ev == 3.753293
    assert cfg.regime is Regime.EXACT
    assert cfg.reduction is Reduction.REDUCED_2D
    assert cfg.k0 == pytest.approx(19.020678267107723, rel=1e-14)


def test_config_explicit_y_waist():
    cfg = ExperimentConfig(pump_waist_um=10.0, pump_waist_y_um=25.0)
    assert cfg.pump_waist_y == 25.0


def test_config_replace_returns_new_frozen_instance():
    cfg = ExperimentConfig()
    other = cfg.replace(crystal_length_um=2.0, regime=Regime.PARAXIAL)
    assert other.crystal_length_um == 2.0
    assert other.regime is Regime.PARAXIAL
    assert cfg.crystal_length_um == 1.0
    assert cfg.regime is Regime.EXACT
    with pytest.raises(Exception):
        cfg.crystal_length_um = 3.0  # frozen


def test_config_validation_names_offending_field():
    with pytest.raises(ConfigError, match="crystal_length"):
        ExperimentConfig(crystal_length_um=-1.0)
    with pytest.raises(ConfigError, match="pump_waist"):
        ExperimentConfig(pump_waist_um=0.0)
    with pytest.raises(ConfigError, match="filter_omega"):
        ExperimentConfig(filter_omega_um=-2.0)
    with pytest.raises(ConfigError, match="channel_energy"):
        ExperimentConfig(channel_energy_ev=0.0)
    with pytest.raises(ConfigError, match="crystal_length"):
        ExperimentConfig(crystal_length_um=math.inf)
    with pytest.raises(ConfigError, match="pump_waist_y"):
        ExperimentConfig(pump_waist_y_um=math.inf)
    with pytest.raises(ConfigError, match="filter_omega_y"):
        ExperimentConfig(filter_omega_y_um=math.inf)


def test_quadrature_spec_validation():
    with pytest.raises(ConfigError, match="rel_tol"):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ConfigError, match="abs_tol"):
        QuadratureSpec(abs_tol=-1e-3)
    with pytest.raises(ConfigError, match="max_evals"):
        QuadratureSpec(max_evals=0)
    with pytest.raises(ConfigError, match="rel_tol"):
        QuadratureSpec(rel_tol=math.inf)
    with pytest.raises(ConfigError, match="abs_tol"):
        QuadratureSpec(abs_tol=math.inf)
    with pytest.raises(ConfigError, match="max_evals"):
        QuadratureSpec(max_evals=math.inf)


def test_enum_string_values():
    assert Regime("exact") is Regime.EXACT
    assert Regime("paraxial") is Regime.PARAXIAL
    assert Reduction("reduced2d") is Reduction.REDUCED_2D
    assert Reduction("full6d") is Reduction.FULL_6D


CONFIG_TEXT = """
# comment line
pump_waist_um = 12.5
crystal_length_um = 3.0   # trailing comment
regime = paraxial
quadrature.rel_tol = 1e-5
quadrature.max_evals = 500000
"""


def test_load_config_from_file_object():
    cfg = load_config(io.StringIO(CONFIG_TEXT))
    assert cfg.pump_waist_um == 12.5
    assert cfg.crystal_length_um == 3.0
    assert cfg.regime is Regime.PARAXIAL
    assert cfg.quadrature.rel_tol == 1e-5
    assert cfg.quadrature.max_evals == 500000


def test_load_config_from_path(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(CONFIG_TEXT, encoding="utf-8")
    cfg = load_config(str(p))
    assert cfg.pump_waist_um == 12.5
    # a file that is not UTF-8 is refused with its path
    p.write_bytes(b"\xff" + CONFIG_TEXT.encode("utf-8"))
    with pytest.raises(ConfigError, match="not UTF-8") as info:
        load_config(str(p))
    assert str(p) in str(info.value)


def test_load_config_unknown_key_is_named():
    with pytest.raises(ConfigError, match="pump_wiast_um"):
        load_config(io.StringIO("pump_wiast_um = 3.0\n"))


def test_load_config_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(io.StringIO("pump_waist_um = 3\npump_waist_um = 4\n"))


def test_load_config_malformed_line_reports_location():
    with pytest.raises(ConfigError, match="key = value"):
        load_config(io.StringIO("pump_waist_um 3.0\n"))


def test_load_config_bad_number_names_key():
    with pytest.raises(ConfigError, match="crystal_length_um"):
        load_config(io.StringIO("crystal_length_um = tiny\n"))


def test_load_config_bad_enum_lists_choices():
    with pytest.raises(ConfigError, match="regime"):
        load_config(io.StringIO("regime = sideways\n"))


def test_dump_config_round_trips():
    cfg = ExperimentConfig(
        pump_waist_um=7.0,
        pump_waist_y_um=9.0,
        crystal_length_um=0.25,
        regime=Regime.PARAXIAL,
        reduction=Reduction.FULL_6D,
        quadrature=QuadratureSpec(rel_tol=1e-7, max_evals=123456),
    )
    text = dump_config(cfg)
    again = load_config(io.StringIO(text))
    assert again == cfg


# what dump_config wrote before quadrature.method and quadrature.seed were
# retired, for ExperimentConfig() and for the config of the round-trip test
OLD_DEFAULT_DUMP = """pump_waist_um = 50.0
crystal_length_um = 1.0
filter_omega_um = 400000000.0
filter_omega_y_um = 10000000.0
channel_energy_ev = 3.753293
regime = exact
reduction = reduced2d
quadrature.method = tensor_gauss
quadrature.rel_tol = 1e-06
quadrature.abs_tol = 1e-12
quadrature.max_evals = 10000000
quadrature.seed = 0
"""
OLD_ROUND_TRIP_DUMP = """pump_waist_um = 7.0
pump_waist_y_um = 9.0
crystal_length_um = 0.25
filter_omega_um = 400000000.0
filter_omega_y_um = 10000000.0
channel_energy_ev = 3.753293
regime = paraxial
reduction = full6d
quadrature.method = tensor_gauss
quadrature.rel_tol = 1e-07
quadrature.abs_tol = 1e-12
quadrature.max_evals = 123456
quadrature.seed = 5
"""


def test_old_dumps_with_retired_keys_still_load():
    assert load_config(io.StringIO(OLD_DEFAULT_DUMP)) == ExperimentConfig()
    assert load_config(io.StringIO(OLD_ROUND_TRIP_DUMP)) == ExperimentConfig(
        pump_waist_um=7.0,
        pump_waist_y_um=9.0,
        crystal_length_um=0.25,
        regime=Regime.PARAXIAL,
        reduction=Reduction.FULL_6D,
        quadrature=QuadratureSpec(rel_tol=1e-7, max_evals=123456),
    )
    assert "quadrature.method" not in dump_config(ExperimentConfig())
    assert "quadrature.seed" not in dump_config(ExperimentConfig())


def test_retired_keys_reject_bad_values():
    with pytest.raises(ConfigError, match="quadrature.method.*tensor_gauss"):
        load_config(io.StringIO(CONFIG_TEXT + "quadrature.method = adaptive_subdivision\n"))
    with pytest.raises(ConfigError, match="quadrature.seed must be an integer"):
        load_config(io.StringIO("quadrature.seed = x\n"))
