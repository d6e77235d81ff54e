import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcl import landau
from lcl.cli import DEFAULT_CONFIG, RunConfig, main


def _write_config(tmp_path, **overrides):
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


SMALL = {
    "q_list": [2, 4],
    "delta": 0.19,
}
ANISO_MODEL = {"kind": "anisotropic-long-range", "rho": 0.5, "epsilon": 0.3,
               "mode": 2, "amplitude": 1.0}


def test_config_validation_field_paths(tmp_path, capsys):
    bad = [
        ({"B": -1.0}, "config.B"),
        ({"q_list": [4, 2]}, "config.q_list"),
        ({"q_list": []}, "config.q_list"),
        ({"phi": {"center": 0.5}}, "config.phi"),
        ({"phi": {"center": 0.1, "half_width": 0.3}}, "config.phi"),
        ({"delta": 0.5}, "config.delta"),
        ({"seed": -3}, "config.seed"),
        ({"rho": 0.7}, "config.rho"),
        ({"model": {"kind": "isotropic-long-range"}}, "config.model"),
        ({"model": {"kind": "compact-gaussian-bump", "width": 0}}, "config.model"),
    ]
    for overrides, field in bad:
        path = _write_config(tmp_path, **overrides)
        code = main(["selfcheck", "--config", str(path), "--output", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert field in err, (overrides, err)


def test_bad_flag_values_name_the_flag(tmp_path, capsys):
    out = str(tmp_path / "o")
    assert main(["selfcheck", "--output", out, "--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err
    for jobs in ("0", "-3"):
        assert main(["selfcheck", "--output", out, "--jobs", jobs]) == 2
        assert "--jobs" in capsys.readouterr().err


def test_jobs_is_set_by_the_flag_alone(tmp_path, capsys, monkeypatch):
    # the environment sets nothing: the manifest records the one thread
    monkeypatch.setenv("LCL_JOBS", "two")
    out = tmp_path / "o"
    assert main(["selfcheck", "--output", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["jobs"] == 1


@pytest.mark.parametrize("overrides, field", [
    ({"model": {"kind": "isotropic-long-range", "rho": 0.5, "amplitude": 0.0}},
     "config.model.amplitude"),
    ({"model": {"kind": "compact-gaussian-bump", "width": 1.0}, "rho": 1.0},
     "config.rho"),
    ({"model": dict(ANISO_MODEL, amplitude=0.0)}, "config.model.amplitude"),
], ids=["zero-amplitude", "bump-rho-1", "non-radial-zero-amplitude"])
def test_symbol_check_refuses_configs_without_its_isotropic_model(tmp_path, capsys,
                                                                  overrides, field):
    # the first two used to end in a traceback: log(0) then a division by
    # zero, and an isotropic model of decay order 1; a non-radial config's
    # isotropic model takes the configured amplitude, so a zero one is refused
    path = _write_config(tmp_path, **overrides)
    code = main(["symbol-check", "--config", str(path), "--output", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"usage error: {field}: ") and "Traceback" not in err, err


def test_output_naming_a_file_is_a_usage_error(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    for out in (afile, afile / "sub"):
        assert main(["selfcheck", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: --output: ") and "Traceback" not in err, err
    path = _write_config(tmp_path, output_dir=str(afile))
    assert main(["selfcheck", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: config.output_dir: "), err
    assert afile.read_text() == ""


def test_config_rejects_non_numbers(tmp_path, capsys):
    iso = DEFAULT_CONFIG["model"]
    bad = [
        ({"model": {**iso, "amplitude": "big"}}, "config.model"),
        ({"model": {**ANISO_MODEL, "mode": 2.7}}, "config.model"),
        ({"model": {**iso, "rho": "0.5"}}, "config.model"),
        ({"B": True}, "config.B"),
        ({"rho": "0.5"}, "config.rho"),
        ({"q_list": [True]}, "config.q_list"),
        ({"seed": False}, "config.seed"),
        ({"delta": [0.1]}, "config.delta"),
        ({"phi": {"center": "0.5", "half_width": 0.3}}, "config.phi.center"),
        ({"phi": [0.5, 0.3]}, "config.phi"),
    ]
    for overrides, field in bad:
        path = _write_config(tmp_path, **overrides)
        code = main(["selfcheck", "--config", str(path), "--output", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert field in err and "Traceback" not in err, (overrides, err)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)
_FIELDS = ["", "model", "model.kind", "model.rho", "model.epsilon", "model.mode",
           "model.amplitude", "model.width", "B", "rho", "q_list", "q_list.0",
           "phi", "phi.center", "phi.half_width", "delta", "seed", "output_dir"]
_BASES = {
    "iso": DEFAULT_CONFIG,
    "aniso": {**DEFAULT_CONFIG, "model": ANISO_MODEL},
    "bump": {**DEFAULT_CONFIG, "model": {"kind": "compact-gaussian-bump", "width": 1.0}},
}


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(_BASES)), st.sampled_from(_FIELDS), _JSON_VALUES)
def test_config_fuzz_raises_only_config_errors(base, field, value):
    # any JSON value in any one field: the config parses or names its path
    obj = json.loads(json.dumps(_BASES[base]))
    if field:
        *parents, leaf = field.split(".")
        owner = obj
        for key in parents:
            owner = owner[key]
        owner[int(leaf) if isinstance(owner, list) else leaf] = value
    else:
        obj = value
    try:
        cfg = RunConfig.from_json(obj)
    except ValueError as exc:
        assert str(exc).startswith("config"), exc
    else:
        assert isinstance(cfg, RunConfig)


def test_spectrum_requires_q_from_list(tmp_path, capsys):
    path = _write_config(tmp_path, **SMALL)
    out = tmp_path / "out"
    code = main(["spectrum", "--config", str(path), "--output", str(out)])
    assert code == 2
    assert "q_list" in capsys.readouterr().err
    code = main(["spectrum", "--config", str(path), "--output", str(out), "--q", "2"])
    assert code == 0
    spec_csv = (out / "spectrum_q2.csv").read_text()
    assert spec_csv.splitlines()[0] == "index,eigenvalue,scaled"
    summary = json.loads((out / "block_q2.json").read_text())
    assert summary["bandwidth"] == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "spectrum"
    assert manifest["lambda_q"] == 5.0


def test_spectrum_anisotropic_block_summary(tmp_path):
    radial, aniso = tmp_path / "radial", tmp_path / "aniso"
    path = _write_config(tmp_path, **SMALL)
    assert main(["spectrum", "--config", str(path), "--output", str(radial), "--q", "2"]) == 0
    path = _write_config(tmp_path, model=ANISO_MODEL, q_list=[2], delta=0.47,
                         phi={"center": 0.65, "half_width": 0.15})
    assert main(["spectrum", "--config", str(path), "--output", str(aniso), "--q", "2"]) == 0
    block = json.loads((aniso / "block_q2.json").read_text())
    assert list(block) == list(json.loads((radial / "block_q2.json").read_text()))
    assert block["bandwidth"] == 2
    rows = (aniso / "spectrum_q2.csv").read_text().splitlines()
    assert len(rows) == block["dimension"] + 1
    manifest = json.loads((aniso / "manifest.json").read_text())
    assert manifest["tolerances"]["eig_residual_bound"] <= 1e-9
    assert manifest["outputs"] == ["block_q2.json", "spectrum_q2.csv"]


def test_epsilon_zero_config_runs_as_the_isotropic_model(tmp_path):
    # an anisotropic model with epsilon 0, given or omitted, is radial: every
    # subcommand writes the isotropic config's files, bit for bit, and only
    # the manifest, which records the config, tells them apart
    models = {"isotropic": {"kind": "isotropic-long-range", "rho": 0.5, "amplitude": 1.5},
              "epsilon-0": {**ANISO_MODEL, "epsilon": 0, "amplitude": 1.5},
              "no-epsilon": {"kind": "anisotropic-long-range", "rho": 0.5, "mode": 3,
                             "amplitude": 1.5}}
    for cmd in (["trace-sweep"], ["spectrum", "--q", "16"], ["measure"], ["symbol-check"]):
        files = {}
        for name, model in models.items():
            (tmp_path / name).mkdir(exist_ok=True)
            path = _write_config(tmp_path / name, model=model, q_list=[8, 16])
            out = tmp_path / name / cmd[0]
            assert main([*cmd, "--config", str(path), "--output", str(out)]) == 0, name
            files[name] = {p.name: p.read_bytes() for p in sorted(out.iterdir())
                           if p.name != "manifest.json"}
        assert files["isotropic"], cmd
        assert files["epsilon-0"] == files["isotropic"] == files["no-epsilon"], cmd


def test_spectrum_non_finite_entries_exit_1(tmp_path, capsys, monkeypatch):
    # the diagonal comes from the Laplace-transform kernel
    monkeypatch.setattr(landau, "laguerre_laplace",
                        lambda n, a, c: np.full((len(n), len(c)), np.nan))
    path = _write_config(tmp_path, **SMALL)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(path), "--output", str(out), "--q", "2"]) == 1
    err = capsys.readouterr().err
    assert "entry-quadrature" in err and "q=2" in err
    assert not (out / "block_q2.json").exists()


def test_spectrum_non_finite_band_exit_1(tmp_path, capsys, monkeypatch):
    # the anisotropic band stays on the batched quadrature: mode 2's profile
    # is NaN there, and the diagonal keeps its own
    modes = landau._mode_map
    monkeypatch.setattr(landau, "_mode_map",
                        lambda model: {**modes(model), 2: lambda r: np.full_like(r, np.nan)})
    path = _write_config(tmp_path, model=ANISO_MODEL, **SMALL)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(path), "--output", str(out), "--q", "2"]) == 1
    err = capsys.readouterr().err
    assert "entry-quadrature" in err and "q=2" in err and "j=2" in err
    assert not (out / "block_q2.json").exists()


def test_trace_sweep_reproducible_and_constant_rhs(tmp_path):
    path = _write_config(tmp_path, **SMALL)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["trace-sweep", "--config", str(path), "--output", str(out1)]) == 0
    assert main(["trace-sweep", "--config", str(path), "--output", str(out2),
                 "--jobs", "2"]) == 0
    csv1 = (out1 / "trace_sweep.csv").read_bytes()
    csv2 = (out2 / "trace_sweep.csv").read_bytes()
    assert csv1 == csv2
    lines = csv1.decode().splitlines()
    assert lines[0] == "q,lambda_q,k_max,lhs,rhs,rel_gap"
    rhs_vals = {line.split(",")[4] for line in lines[1:]}
    assert len(rhs_vals) == 1
    # --jobs selects nothing: the manifest records the one thread that ran
    manifest = (out1 / "manifest.json").read_bytes()
    assert manifest == (out2 / "manifest.json").read_bytes()
    assert json.loads(manifest)["jobs"] == 1


def test_manifest_round_trip(tmp_path):
    path = _write_config(tmp_path, **SMALL)
    out1 = tmp_path / "r1"
    assert main(["trace-sweep", "--config", str(path), "--output", str(out1)]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    relaunch = tmp_path / "relaunch.json"
    relaunch.write_text(json.dumps(manifest["config"]))
    out2 = tmp_path / "r2"
    assert main(["trace-sweep", "--config", str(relaunch), "--output", str(out2)]) == 0
    assert (out1 / "trace_sweep.csv").read_bytes() == (out2 / "trace_sweep.csv").read_bytes()


def test_measure_outputs_cross_checks(tmp_path):
    path = _write_config(tmp_path, **SMALL)
    out = tmp_path / "out"
    assert main(["measure", "--config", str(path), "--output", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tolerances"]["mu_cross_rel"] < 0.01
    assert manifest["tolerances"]["density_cross_rel"] < 0.01
    lines = (out / "measure.csv").read_text().splitlines()
    assert lines[0] == "quantity,method,value"
    assert len(lines) == 6


def test_measure_reproducible(tmp_path):
    # the test-09 anisotropic config: every output file of two runs is
    # byte-identical, Monte Carlo table lookups included
    path = _write_config(tmp_path, model=ANISO_MODEL, q_list=[8, 16, 32, 48],
                         phi={"center": 0.65, "half_width": 0.15}, delta=0.47)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        assert main(["measure", "--config", str(path), "--output", str(out)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    assert "measure.csv" in names
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    # grid-2d against Monte Carlo for mu, radial against Monte Carlo for the density
    tolerances = json.loads((out1 / "manifest.json").read_text())["tolerances"]
    assert tolerances["mu_cross_rel"] < 0.01
    assert tolerances["density_cross_rel"] < 0.01


def test_measure_rejects_bump_model(tmp_path, capsys):
    path = _write_config(tmp_path, q_list=[2],
                         model={"kind": "compact-gaussian-bump",
                                "amplitude": 1.0, "width": 1.0},
                         rho=0.5)
    code = main(["measure", "--config", str(path), "--output", str(tmp_path / "o")])
    assert code == 2
    assert "long-range" in capsys.readouterr().err


def test_symbol_check_outputs(tmp_path):
    path = _write_config(tmp_path, **SMALL)
    out = tmp_path / "out"
    assert main(["symbol-check", "--config", str(path), "--output", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert abs(manifest["tolerances"]["hs_slope"] + 0.75) < 0.1
    assert manifest["tolerances"]["hs_fourier_rel_gap"] < 0.01
    for name in ("hs_distance.csv", "gap_scan.csv", "i_rho.csv", "scaled_identity.csv"):
        assert (out / name).exists()
    ident = (out / "scaled_identity.csv").read_text().splitlines()
    assert ident[0] == "q,z1,z2,lhs,rhs,abs_diff"
    assert all(float(line.split(",")[-1]) < 1e-7 for line in ident[1:])


def test_symbol_check_hs_distance_scales_with_the_amplitude(tmp_path):
    # the isotropic model that stands in for a non-radial one takes the
    # configured amplitude: the distances double with it, the slope stays
    rows, slopes = {}, {}
    for amplitude in (1.0, 2.0):
        path = _write_config(tmp_path, **SMALL, model=dict(ANISO_MODEL, amplitude=amplitude))
        out = tmp_path / f"out{amplitude}"
        assert main(["symbol-check", "--config", str(path), "--output", str(out)]) == 0
        lines = (out / "hs_distance.csv").read_text().splitlines()[1:]
        rows[amplitude] = [float(line.split(",")[-1]) for line in lines]
        slopes[amplitude] = json.loads((out / "manifest.json").read_text())["tolerances"]["hs_slope"]
    assert len(rows[1.0]) == 4
    for one, two in zip(rows[1.0], rows[2.0]):
        assert abs(two - 2.0 * one) <= 1e-12 * one, (one, two)
    assert abs(slopes[2.0] - slopes[1.0]) <= 1e-12


def test_symbol_check_manifest_is_json_at_a_huge_amplitude(tmp_path, capsys):
    # |amplitude| used to be squared inside the Fourier-side sum, which
    # overflowed and wrote "hs_fourier_rel_gap": NaN, a token JSON does not have
    def no_constant(token):
        raise ValueError(f"manifest holds {token}")

    path = _write_config(tmp_path, model={"kind": "isotropic-long-range", "rho": 0.5,
                                          "amplitude": 1e300})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["symbol-check", "--config", str(path), "--output", str(out)])
    err = capsys.readouterr().err
    assert code == 0 and "Traceback" not in err, err
    manifest = json.loads((out / "manifest.json").read_text(), parse_constant=no_constant)
    assert manifest["tolerances"]["hs_fourier_rel_gap"] < 0.01


def test_selfcheck_passes(tmp_path, capsys):
    path = _write_config(tmp_path, **SMALL)
    out = tmp_path / "out"
    assert main(["selfcheck", "--config", str(path), "--output", str(out)]) == 0
    report = capsys.readouterr().out
    assert "[FAIL]" not in report
    manifest = json.loads((out / "manifest.json").read_text())
    assert all(c["passed"] for c in manifest["checks"])


def test_seed_override_changes_manifest(tmp_path):
    path = _write_config(tmp_path, **SMALL)
    out = tmp_path / "out"
    assert main(["trace-sweep", "--config", str(path), "--output", str(out),
                 "--seed", "77"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 77


def test_runconfig_defaults_parse():
    cfg = RunConfig.from_json(DEFAULT_CONFIG)
    assert cfg.B == 1.0
    assert cfg.phi.center == 0.5
    assert math.isclose(cfg.delta, 0.19)


_NO_MASKED_ARRAYS = """
import importlib, pkgutil, sys
import numpy as np
import lcl
for module in pkgutil.iter_modules(lcl.__path__):
    importlib.import_module("lcl." + module.name)
from lcl.landau import LandauConfig, radial_diagonal
from lcl.potentials import PotentialModel, mean_value_mode_profile
from lcl.specfun import bessel_j0
for call in (lambda: radial_diagonal(PotentialModel.isotropic(0.5), LandauConfig(1.0, 4, 8)),
             lambda: mean_value_mode_profile(0.5, 2, np.linspace(0.0, 3.0, 31)),
             lambda: bessel_j0(np.linspace(0.0, 100.0, 11))):
    call()
    print("numpy.ma" in sys.modules)
print("scipy" in sys.modules)
"""


def test_program_never_imports_numpy_ma():
    # numpy.ma comes in with the first np.unique call (about 15 ms and 1.7 MB
    # in every run); a fresh process, as the test session may hold it already.
    # The last line: no lcl module and none of these calls imports SciPy,
    # which is not a dependency
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", _NO_MASKED_ARRAYS], capture_output=True,
                         text=True, check=True, env={"PYTHONPATH": src})
    assert out.stdout.split() == ["False"] * 4, out.stderr
