"""Property tests of the CLI and the flat config format (needs Hypothesis)."""

import io
import math
import warnings

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qionize.amplitude import AmplitudeKind
from qionize.cli import main
from qionize.oracle import MIN_SAMPLES
from qionize.sweep import preset_names
from qionize.units import (
    _FORMAT,
    _RETIRED,
    ConfigError,
    Reduction,
    Regime,
    dump_config,
    load_config,
)

# flag values for `qionize ratio`: ones the model accepts (finite lengths at
# or below 100 um, where the budget check comes early), floats it must
# reject, and text that is not a float
_VALID = (
    st.floats(min_value=0.0, max_value=100.0, exclude_min=True).map(repr),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).map(repr),
    st.sampled_from([r.value for r in Regime]),
)
_REJECTED = st.sampled_from(["0", "-0.0", "-1", "nan", "inf", "-inf", "1e400"])
_MALFORMED = st.sampled_from(["", " ", "abc", "1,5", "--", "-h", "0x1p3", "1e"]) | st.text(
    max_size=6
)


def _run_cli(argv, capsys):
    """Exit code, stdout and stderr of one CLI run.

    Warnings count as stderr: a terminal shows them there, while pytest
    would otherwise divert them into its own summary.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)


def _assert_exit_contract(code, err, argv):
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv
    assert (code == 0) is (err == ""), argv


@settings(
    max_examples=50,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
# about half the draws are all valid, so that runs reach the quadrature; the
# rest mix in floats the CLI must reject and text that is not a float
@given(
    flags=st.tuples(*_VALID)
    | st.tuples(*(valid | _REJECTED | _MALFORMED for valid in _VALID))
)
# I1^2 underflows to 0 in R's formula at this waist
@example(flags=("1.0", "6.066924617790604e+163", "exact"))
def test_cli_ratio_property_exit_codes(flags, tmp_path, capsys):
    # any flag values give exit 0, 1 or 2 and a message, never a traceback
    path = tmp_path / "budget.cfg"
    path.write_text("quadrature.max_evals = 100000\n")
    length, waist, regime = flags
    argv = ["ratio", "--config", str(path), f"--length={length}", f"--pump-waist={waist}",
            f"--regime={regime}"]
    code, _, err = _run_cli(argv, capsys)
    _assert_exit_contract(code, err, argv)


_KINDS = st.sampled_from([k.value for k in AmplitudeKind])


@settings(
    max_examples=50,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    flags=st.tuples(*_VALID, _KINDS)
    | st.tuples(*(valid | _REJECTED | _MALFORMED for valid in _VALID), _KINDS | _MALFORMED)
)
def test_cli_flux_property_exit_codes(flags, tmp_path, capsys):
    path = tmp_path / "budget.cfg"
    path.write_text("quadrature.max_evals = 100000\n")
    length, waist, regime, kind = flags
    argv = ["flux", "--config", str(path), f"--length={length}", f"--pump-waist={waist}",
            f"--regime={regime}", f"--kind={kind}"]
    code, _, err = _run_cli(argv, capsys)
    _assert_exit_contract(code, err, argv)


# amplitude-grid runs no quadrature, so any positive finite length is fair;
# --n stays small: 2 to 6 points per axis, below-minimum counts or bad text
_ANY_LENGTH = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).map(repr)
_GRID_N = st.integers(min_value=2, max_value=6).map(str)
_BAD_N = st.sampled_from(["1", "0", "-1"]) | _MALFORMED


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    flags=st.tuples(_ANY_LENGTH, _VALID[1], _VALID[2], _KINDS, _GRID_N)
    | st.tuples(
        _ANY_LENGTH | _REJECTED | _MALFORMED,
        _VALID[1] | _REJECTED | _MALFORMED,
        _VALID[2] | _MALFORMED,
        _KINDS | _MALFORMED,
        _GRID_N | _BAD_N,
    )
)
# the phase L * delta_kz / 2 and the pump exponent overflow at these inputs;
# the amplitude's limit there is exactly 0
@example(flags=("1e308", "1.0", "exact", "entangled", "2"))
@example(flags=("1.0", "1e200", "exact", "entangled", "2"))
def test_cli_amplitude_grid_property_exit_codes(flags, capsys):
    length, waist, regime, kind, n = flags
    argv = ["amplitude-grid", f"--length={length}", f"--pump-waist={waist}",
            f"--regime={regime}", f"--kind={kind}", f"--n={n}"]
    code, out, err = _run_cli(argv, capsys)
    _assert_exit_contract(code, err, argv)
    if code == 0:
        header, *rows = out.splitlines()
        assert header == "kix_per_um,ksx_per_um,amplitude", argv
        assert len(rows) == int(n) ** 2, argv
        cells = [float(cell) for row in rows for cell in row.split(",")]
        assert all(math.isfinite(cell) for cell in cells), argv


# oracle-check: one config and 1e5 to 2e5 samples keep a valid run near a
# second; rejected draws are counts below 1, samples below MIN_SAMPLES,
# negative values and text that is not an int
_ORACLE_VALID = (
    st.just("1"),
    st.integers(min_value=MIN_SAMPLES, max_value=2 * MIN_SAMPLES).map(str),
    st.integers().map(str),
)
_ORACLE_REJECTED = (
    st.integers(max_value=0).map(str),
    st.integers(max_value=MIN_SAMPLES - 1).map(str),
    st.integers(max_value=-1).map(str),
)


@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    flags=st.tuples(*_ORACLE_VALID)
    | st.tuples(
        *(
            valid | rejected | _MALFORMED
            for valid, rejected in zip(_ORACLE_VALID, _ORACLE_REJECTED)
        )
    )
)
# argparse stores [] for a flag value of "--"
@example(flags=("--", "100000", "0"))
@example(flags=("1", "--", "0"))
def test_cli_oracle_check_property_exit_codes(flags, capsys):
    configs, samples, seed = flags
    argv = ["oracle-check", f"--configs={configs}", f"--samples={samples}", f"--seed={seed}"]
    code, _, err = _run_cli(argv, capsys)
    _assert_exit_contract(code, err, argv)


_FORMATS = ("csv", "jsonl", "both")


def _sweep_would_run(preset, out, fmt, workers):
    # argparse reads --workers with int(); a run of a whole preset is
    # 1250 ratios, so the draws below keep only flag sets the CLI rejects
    try:
        workers_ok = workers is None or int(workers) >= 1
    except ValueError:
        workers_ok = False
    return preset in preset_names() and out and fmt in _FORMATS and workers_ok


@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    flags=st.tuples(
        st.sampled_from(preset_names()) | st.sampled_from(["fig2z", "FIG2A"]) | _MALFORMED,
        st.booleans(),
        st.sampled_from(_FORMATS) | st.sampled_from(["xml", "CSV"]) | _MALFORMED,
        st.none()
        | st.integers(min_value=1, max_value=4).map(str)
        | st.integers(max_value=0).map(str)
        | _MALFORMED,
    ).filter(lambda flags: not _sweep_would_run(*flags))
)
@example(flags=("fig2c", True, "csv", "--"))
def test_cli_sweep_property_rejects_bad_flags(flags, tmp_path, capsys):
    preset, with_out, fmt, workers = flags
    out = tmp_path / "sweep.csv"
    argv = ["sweep", f"--preset={preset}", f"--format={fmt}"]
    argv += [f"--out={out}"] if with_out else []
    argv += [f"--workers={workers}"] if workers is not None else []
    code, _, err = _run_cli(argv, capsys)
    _assert_exit_contract(code, err, argv)
    assert code == 1, argv
    assert not out.exists(), argv


_KEYS = sorted(_FORMAT) + sorted(_RETIRED)
_INTEGER_KEYS = ("quadrature.max_evals", "quadrature.seed")
_ENUM_VALUES = {
    "regime": [r.value for r in Regime],
    "reduction": [r.value for r in Reduction],
    "quadrature.method": ["tensor_gauss"],
}


def _accepted_value(key):
    if key in _ENUM_VALUES:
        return st.sampled_from(_ENUM_VALUES[key])
    if key in _INTEGER_KEYS:
        return st.integers(min_value=1, max_value=10**8).map(str)
    return st.floats(min_value=1e-6, max_value=1e6).map(repr)


# known keys, each at most once, with values their parsers accept
_ACCEPTED_TEXT = st.lists(st.sampled_from(_KEYS), unique=True, max_size=len(_KEYS)).flatmap(
    lambda keys: st.tuples(
        *(
            st.tuples(st.just(key), st.sampled_from(["=", " = "]), _accepted_value(key))
            for key in keys
        )
    )
)
_HOSTILE_VALUE = st.sampled_from(["nan", "1e400", "2.7", "1_0", "-1", "0", ""]) | st.text(
    max_size=8
)
# distinct known keys, each with a hostile value or one some parser accepts
_HOSTILE_LINES = st.lists(
    st.tuples(
        st.sampled_from(_KEYS),
        st.sampled_from(["=", " = "]),
        _HOSTILE_VALUE | st.sampled_from(_KEYS).flatmap(_accepted_value),
    ),
    max_size=5,
    unique_by=lambda line: line[0],
)
# at most one line with a random key or the separator ':'
_ODD_LINE = st.tuples(
    st.sampled_from(_KEYS) | st.text(max_size=12),
    st.sampled_from(["=", " = ", ":"]),
    _HOSTILE_VALUE,
)
_HOSTILE_TEXT = st.tuples(
    _HOSTILE_LINES, st.lists(_ODD_LINE, max_size=1), st.integers(min_value=0, max_value=5)
).map(lambda parts: parts[0][: parts[2]] + parts[1] + parts[0][parts[2] :])


def _load(lines):
    return load_config(io.StringIO("".join(f"{key}{sep}{value}\n" for key, sep, value in lines)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(lines=_ACCEPTED_TEXT)
def test_accepted_config_text_loads_and_round_trips(lines):
    cfg = _load(lines)
    assert load_config(io.StringIO(dump_config(cfg))) == cfg


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(lines=_HOSTILE_TEXT)
def test_hostile_config_text_loads_or_raises_config_error(lines):
    # never another exception; what loads round-trips
    try:
        cfg = _load(lines)
    except ConfigError:
        return
    assert load_config(io.StringIO(dump_config(cfg))) == cfg
