import json
import math

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


def test_bad_flag_values_name_the_flag(tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "o")
    monkeypatch.setenv("LCL_JOBS", "two")
    assert main(["selfcheck", "--output", out]) == 2
    assert "LCL_JOBS" in capsys.readouterr().err
    monkeypatch.setenv("LCL_JOBS", "0")
    assert main(["selfcheck", "--output", out]) == 2
    assert "LCL_JOBS" in capsys.readouterr().err
    monkeypatch.delenv("LCL_JOBS")
    assert main(["selfcheck", "--output", out, "--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err
    for jobs in ("0", "-3"):
        assert main(["selfcheck", "--output", out, "--jobs", jobs]) == 2
        assert "--jobs" in capsys.readouterr().err


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


def test_spectrum_non_finite_entries_exit_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(landau, "_band_batch",
                        lambda vfun, B, n1, a1, n2, a2: np.full(len(a1), np.nan))
    path = _write_config(tmp_path, **SMALL)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(path), "--output", str(out), "--q", "2"]) == 1
    err = capsys.readouterr().err
    assert "entry-quadrature" in err and "q=2" in err
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
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["config"] == m2["config"]


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
