"""Command-line interface: exit codes, golden headers, determinism."""

import argparse
import contextlib
import io
import json
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from zrs import (BadParams, NonPositiveGram, ScattererSet, SingularMatrix, build_q,
                 build_weighted, check_admissibility, gamma_direct, generate_family,
                 smatrix, tail_bound, unitarity_defect_reduced)
from zrs import cli, krein, scattering
from zrs.cli import main
from zrs._blas import serial_blas
from zrs.krein import gamma_levels
from zrs.scattering import write_defect_csv, write_truncation_csv
from zrs.scatterers import _FAMILY_KEYS

from conftest import bordering_bound, count_linalg_calls, make_config, run_child

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

TWO_SCATTERERS = {
    "points": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
    "weights": [2.0, 2.0],
}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_validate_two_scatterers(tmp_path, capsys):
    cfg = write_config(tmp_path, TWO_SCATTERERS)
    rc = main(["validate", "--config", cfg])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["K0"] == pytest.approx(1.0)
    assert out["K1"] == pytest.approx(1.0)
    assert out["verdict"] == "pass"


@pytest.mark.parametrize("settings", [
    # argv after --config, and the truncation, b and n0 it asks for
    lambda n: ([], n, 25.0, None),
    lambda n: (["--lambda", "0.3"], n, 0.3, None),
    lambda n: (["--n0", str(n // 3)], n, 25.0, n // 3),
    lambda n: (["--n", str((n + 1) // 2), "--n0", "1", "--lambda", "40"],
               (n + 1) // 2, 40.0, 1),
], ids=["defaults", "lambda", "n0", "n-n0-lambda"])
@pytest.mark.parametrize("n", [1, 2, 50, 400])
@pytest.mark.parametrize("family", [
    {"kind": "cubic-lattice-ball", "params": {"spacing": 1.1, "weight": 0.9}},
    {"kind": "clustering", "params": {"p": 2, "q": 6}},
], ids=["lattice", "clustering"])
def test_validate_prints_the_json_of_the_report(tmp_path, capsys, family, n, settings):
    # the report's text is json.dumps(to_dict, indent=2) byte for byte,
    # the tail's lines included
    cfg = write_config(tmp_path, {"family": {**family, "N": n}})
    argv, m, b, n0 = settings(n)
    code = main(["validate", "--config", cfg, *argv])
    report = check_admissibility(
        generate_family(family["kind"], family["params"], n).prefix(m), b, n0=n0)
    assert capsys.readouterr().out == json.dumps(report.to_dict(), indent=2) + "\n"
    assert code == (0 if report.passed else 2)


def test_validate_clustering_pass_and_fail(tmp_path, capsys):
    good = write_config(tmp_path, {
        "family": {"kind": "clustering", "params": {"p": 2, "q": 6}, "N": 12}
    }, "good.json")
    assert main(["validate", "--config", good]) == 0
    capsys.readouterr()
    bad = write_config(tmp_path, {
        "family": {"kind": "clustering", "params": {"p": 2, "q": 3}, "N": 24}
    }, "bad.json")
    assert main(["validate", "--config", bad]) == 2


def test_malformed_json_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert main(["validate", "--config", str(path)]) == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_required_args():
    assert main(["validate"]) == 1
    assert main(["bogus-command", "--config", "x"]) == 1


def test_smatrix_csv_and_identity_limit(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "points": [[0.0, 0.0, 0.0]],
        "weights": [1e12],
    })
    out = tmp_path / "smatrix.csv"
    rc = main(["smatrix", "--config", cfg, "--lambda", "4", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# lambda=4 defect_reduced=")
    assert lines[1] == "theta,phi,theta_p,phi_p,re_s,im_s"
    # identity limit: all kernel-correction samples are ~0
    for row in lines[2:]:
        re_s, im_s = map(float, row.split(",")[4:])
        assert abs(complex(re_s, im_s)) < 1e-9


def test_smatrix_tail_failure_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "points": [[0, 0, 0], [0.4, 0, 0], [0, 0.5, 0]],
        "weights": [1.0, 1e-3, 2e-3],
    })
    rc = main(["smatrix", "--config", cfg, "--lambda", "4", "--n0", "1"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "lambda=4" in err  # offending spectral point is echoed


def test_sweep_csv_single_scatterer(tmp_path):
    cfg = write_config(tmp_path, {"points": [[0, 0, 0]], "weights": [1.0]})
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--config", cfg, "--interval", "1", "4",
               "--grid-points", "8", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda,defect_reduced,gamma_norm,gamma_cond,mu,increment"
    assert len(lines) == 9
    import numpy as np
    lams = [float(r.split(",")[0]) for r in lines[1:]]
    norms = [float(r.split(",")[2]) for r in lines[1:]]
    # scalar formula: |Gamma| = 1/|1 + i sqrt(lam)/(4 pi)|, decreasing in lam
    expect = [1 / abs(1 + 1j * np.sqrt(l) / (4 * np.pi)) for l in lams]
    assert np.allclose(norms, expect, rtol=1e-12)
    assert all(a >= b for a, b in zip(norms, norms[1:]))


def test_sweep_empty_interval_usage_error(tmp_path):
    cfg = write_config(tmp_path, {"points": [[0, 0, 0]], "weights": [1.0]})
    assert main(["sweep", "--config", cfg, "--interval", "4", "4"]) == 1
    assert main(["sweep", "--config", cfg]) == 1


def test_sweep_interval_checked_by_the_window_rule(tmp_path, capsys):
    cfg = write_config(tmp_path, TWO_SCATTERERS)
    assert main(["sweep", "--config", cfg, "--interval", "5", "1"]) == 1
    assert capsys.readouterr() == ("", "zrs: interval must satisfy 0 < a < b < inf\n")


def test_sweep_n_mode(tmp_path):
    cfg = write_config(tmp_path, {
        "family": {"kind": "clustering", "params": {"p": 2, "q": 6}, "N": 8},
    })
    out = tmp_path / "nsweep.csv"
    rc = main(["sweep", "--config", cfg, "--lambda", "4", "--n-sweep", "2,4,8",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n_low,n_high,gamma_diff"
    assert len(lines) == 3
    diffs = [float(r.split(",")[2]) for r in lines[1:]]
    # heavy-tail family: adding scatterers barely moves the head block
    assert diffs[0] < 1e-2 and diffs[1] < diffs[0]


@pytest.mark.parametrize("argv", [
    ["smatrix", "--lambda", "nan"],
    ["smatrix", "--lambda", "inf"],
    ["smatrix", "--lambda", "1e300"],
    ["sweep", "--interval", "1", "inf", "--grid-points", "4"],
    ["sweep", "--lambda", "nan", "--n-sweep", "1,2"],
    ["sweep", "--lambda", "-1", "--n-sweep", "1,2"],
    ["sweep", "--lambda", "0", "--n-sweep", "1,2"],
    ["validate", "--lambda", "nan"],
    ["validate", "--lambda", "inf"],
    ["sweep", "--interval", "1", "2", "--grid-points", "-3"],
    ["sweep", "--lambda", "4", "--n-sweep", "2,x"],
    ["sweep", "--lambda", "4", "--n", "1", "--n-sweep", "1,2"],
    ["smatrix", "--lambda", "4", "--seed", "-1"],
    ["smatrix", "--lambda", "4", "--seed=-1"],
])
def test_non_finite_or_huge_lambda_exit_1(tmp_path, capsys, argv):
    cfg = write_config(tmp_path, TWO_SCATTERERS)
    assert main([*argv, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("zrs: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["smatrix", "--lambda", "-1"],
    ["sweep", "--lambda", "-1", "--n-sweep", "1,2"],
    ["sweep", "--lambda", "0", "--n-sweep", "1,2"],
])
def test_non_positive_lambda_same_error_for_smatrix_and_n_sweep(tmp_path, capsys, argv):
    cfg = write_config(tmp_path, TWO_SCATTERERS)
    assert main([*argv, "--config", cfg]) == 1
    captured = capsys.readouterr()
    lam = float(argv[2])
    assert captured.err == f"zrs: lambda must be positive and finite, got {lam}\n"
    assert captured.out == ""


# an old config whose run setting has a bad value still fails on one line
# naming the key (run settings are flags, so the key itself is unknown)
@pytest.mark.parametrize("argv, key", [
    (["sweep", "--interval", "1", "2"], "grid_points"),
    (["validate"], "n0"),
    (["validate"], "b"),
    (["smatrix", "--lambda", "4"], "n0"),
])
def test_config_value_of_wrong_type_is_usage_error(tmp_path, capsys, argv, key):
    cfg = write_config(tmp_path, {**TWO_SCATTERERS, key: "x"})
    assert main([*argv, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("zrs: usage error: ") and f"{key!r}" in err
    assert "Traceback" not in err and len(err.splitlines()) == 1


# source and tolerances are removed keys: a value of any type is unknown
@pytest.mark.parametrize("key, value", [
    ("z", "x"),
    ("z1", [1.0, "a"]),
    ("z2", 5),
    ("source", [1.0, 2.0]),
    ("tolerances", {"hilbert": "x"}),
    ("tolerances", [1.0]),
])
def test_resolvent_config_of_wrong_type_is_usage_error(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, {**TWO_SCATTERERS, key: value})
    assert main(["resolvent", "--config", cfg]) == 1
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith("zrs: usage error: ") and f"config key {key!r}" in err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert captured.out == ""
    if key in ("source", "tolerances"):
        assert err == (f"zrs: usage error: unknown config key {key!r}; "
                       "expected points, weights, family, z, z1, z2\n")
    else:
        assert "unknown" not in err


def test_bad_scatterer_section_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "family": {"kind": "clustering", "params": {"p": 2, "q": 6}, "N": "x"}
    })
    assert main(["validate", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("zrs: bad value for family key 'N': ")
    assert "Traceback" not in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("explicit, named", [
    ({"points": [[0, 0, 0], [1, 0, 0]], "weights": [2, 2]}, "'points' and 'weights'"),
    ({"weights": [2, 2]}, "'weights'"),
], ids=["points-weights", "weights"])
def test_family_with_explicit_points_exit_1(tmp_path, capsys, explicit, named):
    family = {"kind": "uniform-line", "N": 3, "params": {}}
    cfg = write_config(tmp_path, dict(explicit, family=family))
    assert main(["validate", "--config", cfg]) == 1
    assert capsys.readouterr() == (
        "", f"zrs: scatterer config gives both 'family' and {named}; "
        "give a family or explicit points, not both\n")


@pytest.mark.parametrize("key, value, message", [
    ("N", 2.5, "bad value for family key 'N': 2.5"),
    ("strict", "no", "family key 'strict' must be true or false, got 'no'"),
], ids=["N", "strict"])
def test_family_value_of_wrong_kind_exit_1(tmp_path, capsys, key, value, message):
    family = {"kind": "clustering", "params": {"p": 2, "q": 3}, "N": 8, key: value}
    cfg = write_config(tmp_path, {"family": family})
    assert main(["validate", "--config", cfg]) == 1
    assert capsys.readouterr() == ("", f"zrs: {message}\n")


def test_family_integral_n_and_boolean_strict(tmp_path, capsys):
    family = {"kind": "clustering", "params": {"p": 2, "q": 3}, "N": 8}

    def validate(**extra):
        cfg = write_config(tmp_path, {"family": dict(family, **extra)})
        return main(["validate", "--config", cfg]), capsys.readouterr()

    plain = validate()
    assert plain[0] == 2
    assert validate(N=8.0) == plain
    assert validate(strict=False) == plain
    rc, (out, err) = validate(strict=True)
    assert rc == 1 and out == "" and "violate q > 2p+1" in err


# --n0 1 on this set exits 3 (TailNotContractive) when the settings are valid
TAIL_NOT_CONTRACTIVE = {
    "points": [[0, 0, 0], [0.4, 0, 0], [0, 0.5, 0]],
    "weights": [1.0, 1e-3, 2e-3],
}


# smatrix has no --seed (the quadrature defect draws with seed 0), so any
# seed is an unrecognized argument, rejected before the numerics, which
# exit 3 on TAIL_NOT_CONTRACTIVE
@pytest.mark.parametrize("source", ["flag", "flag_n0"])
def test_negative_seed_is_usage_error(tmp_path, capsys, source):
    data = TAIL_NOT_CONTRACTIVE if source == "flag_n0" else TWO_SCATTERERS
    cfg = write_config(tmp_path, data)
    argv = ["smatrix", "--config", cfg, "--lambda", "4"]
    if source == "flag_n0":
        argv += ["--n0", "1"]
        assert main(argv) == 3
        capsys.readouterr()
    for seed in ("0", "-1"):
        assert main([*argv, "--seed", seed]) == 1
        assert capsys.readouterr() == (
            "", f"zrs: usage error: unrecognized arguments: --seed {seed}\n")


@pytest.mark.parametrize("bad", [["--n", "3"], ["--grid-order", "0"]])
def test_smatrix_rejects_settings_before_building_gamma(tmp_path, capsys,
                                                        monkeypatch, bad):
    cfg = write_config(tmp_path, TWO_SCATTERERS)
    builds = []
    monkeypatch.setattr(scattering, "_gamma_from_q", lambda *a: builds.append(1))
    assert main(["smatrix", "--config", cfg, "--lambda", "4", *bad]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("zrs: ") and len(err.splitlines()) == 1
    assert builds == []


# (command argv, config entries, what the one-line message names); JSON
# true is no number even though float(True) and int(True) succeed.  The
# run settings (b to n_sweep) and the removed resolvent keys source and
# tolerances are unknown config keys whatever their value.
FAMILY = {"kind": "clustering", "params": {"p": 2, "q": 6}, "N": 4}
BOOLEAN_NUMBERS = {
    "b": (["validate"], {"b": True}, "config key 'b'"),
    "lambda": (["smatrix"], {"lambda": True}, "config key 'lambda'"),
    "n0": (["validate"], {"n0": True}, "config key 'n0'"),
    "grid_order": (["smatrix", "--lambda", "4"], {"grid_order": True},
                   "config key 'grid_order'"),
    "seed": (["smatrix", "--lambda", "4"], {"seed": False}, "config key 'seed'"),
    "grid_points": (["sweep", "--interval", "1", "2"], {"grid_points": True},
                    "config key 'grid_points'"),
    "interval": (["sweep"], {"interval": [True, 2]}, "config key 'interval'"),
    "n_sweep": (["sweep", "--lambda", "4"], {"n_sweep": True},
                "config key 'n_sweep'"),
    "z": (["resolvent"], {"z": [True, 0]}, "config key 'z'"),
    "z1": (["resolvent"], {"z1": [1, True]}, "config key 'z1'"),
    "z2": (["resolvent"], {"z2": [False, 1]}, "config key 'z2'"),
    "source": (["resolvent"], {"source": [0, True, 0]},
               "unknown config key 'source'"),
    "tolerances": (["resolvent"], {"tolerances": {"hilbert": True}},
                   "unknown config key 'tolerances'"),
    "family-N": (["validate"], {"family": dict(FAMILY, N=True)},
                 "family key 'N'"),
    "family-params": (["validate"],
                      {"family": dict(FAMILY, params={"p": True, "q": 6})},
                      "family parameter 'p'"),
    "points": (["validate"], {"points": [[0, 0, 0], [1, 0, True]]}, "points"),
    "weights": (["validate"], {"weights": [2.0, True]}, "weights"),
}


@pytest.mark.parametrize("argv, entries, names", list(BOOLEAN_NUMBERS.values()),
                         ids=list(BOOLEAN_NUMBERS))
def test_boolean_config_number_exit_1(tmp_path, capsys, argv, entries, names):
    data = {**TWO_SCATTERERS, **entries}
    if "family" in data:
        del data["points"], data["weights"]
    cfg = write_config(tmp_path, data)
    assert main([*argv, "--config", cfg]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("zrs: ") and names in err
    assert "Traceback" not in err and len(err.splitlines()) == 1


def test_smatrix_command_builds_gamma_once_and_takes_one_svd(tmp_path, capsys,
                                                              monkeypatch):
    s, cfg = _battery_config(tmp_path)
    builds = []
    real = scattering._gamma_from_q

    def counting_gamma_from_q(*args):
        builds.append(1)
        return real(*args)

    monkeypatch.setattr(scattering, "_gamma_from_q", counting_gamma_from_q)
    calls = count_linalg_calls(monkeypatch, "svd")
    assert main(["smatrix", "--config", cfg, "--lambda", "4"]) == 0
    # the SVD is the header's gamma_cond
    assert len(builds) == 1 and calls["svd"] == 1
    header = capsys.readouterr().out.splitlines()[0]
    assert f"defect_reduced={unitarity_defect_reduced(smatrix(4.0, s)):.17g} " in header


def _heavy_tail_config(tmp_path):
    """The battery's first N = 5 set with a heavy three-site tail, whose
    Schur route at split 2 succeeds."""
    s, _ = _battery_config(tmp_path)
    heavy = type(s)(s.points, s.weights * np.array([1, 1, 1e4, 1e4, 1e4]))
    return heavy, write_config(tmp_path, heavy.to_dict(), "heavy.json")


@pytest.mark.parametrize("route", [[], ["--n0", "2"]], ids=["direct", "schur"])
def test_smatrix_command_builds_q_once(tmp_path, capsys, monkeypatch, route):
    s, cfg = _heavy_tail_config(tmp_path)
    real = build_q
    lams = []

    def counting_build_q(z, sub):
        lams.append(z)
        return real(z, sub)

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("zrs") and getattr(mod, "build_q", None) is real:
            monkeypatch.setattr(mod, "build_q", counting_build_q)
    assert main(["smatrix", "--config", cfg, "--lambda", "7.3", *route]) == 0
    # Gamma and G_N (the defect's overlap) come from one Q
    assert lams == [7.3]


def test_smatrix_gram_failure_comes_after_gamma(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, TWO_SCATTERERS)
    seen = []
    real = scattering._gamma_from_q

    def gamma(*args):
        seen.append("gamma")
        return real(*args)

    def gram(*args):
        seen.append("gram")
        raise NonPositiveGram("least Gram eigenvalue -1 <= 0")

    monkeypatch.setattr(scattering, "_gamma_from_q", gamma)
    monkeypatch.setattr(scattering, "_gram_from_q", gram)
    assert main(["smatrix", "--config", cfg, "--lambda", "4"]) == 3
    assert seen == ["gamma", "gram"]
    assert capsys.readouterr() == (
        "", "zrs: numerical failure: least Gram eigenvalue -1 <= 0\n")


def test_smatrix_schur_header_measures_the_schur_gamma(tmp_path, capsys):
    heavy, cfg = _heavy_tail_config(tmp_path)
    assert main(["smatrix", "--config", cfg, "--lambda", "4", "--n0", "2"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    rep = smatrix(4.0, heavy, split=2)
    assert f"defect_reduced={unitarity_defect_reduced(rep):.17g} " in header
    assert f"gamma_cond={rep.gamma_cond:.17g}" in header


@pytest.mark.parametrize("lam", ["0.9", "4", "40"])
def test_smatrix_split_at_n_prints_the_direct_bytes(tmp_path, capsys, lam):
    # an empty tail has bound 0, and the Schur step inverts J + Qt whole
    for s, cfg in (_battery_config(tmp_path), _heavy_tail_config(tmp_path)):
        runs = []
        for route in ([], ["--n0", str(s.n)]):
            assert main(["smatrix", "--config", cfg, "--lambda", lam, *route]) == 0
            runs.append(capsys.readouterr())
        assert runs[0] == runs[1] and runs[0].err == ""


@pytest.mark.parametrize("argv, message", [
    (["--lambda", "-1", "--n0", "1"], "lambda must be positive and finite, got -1.0"),
    (["--lambda", "nan", "--n0", "1"], "lambda must be positive and finite, got nan"),
    (["--lambda", "4", "--n0", "0"], "split 0 outside 1..2"),
    (["--lambda", "4", "--n0", "3"], "n0 = 3 outside 0..2"),
])
def test_smatrix_split_settings_are_checked_by_the_tail_bound(tmp_path, capsys,
                                                              argv, message):
    cfg = write_config(tmp_path, TWO_SCATTERERS)
    assert main(["smatrix", "--config", cfg, *argv]) == 1
    assert capsys.readouterr() == ("", f"zrs: {message}\n")


# the flags each command reads besides --config and --out
FLAGS_READ = {
    "validate": {"--lambda", "--n", "--n0"},
    "smatrix": {"--lambda", "--n", "--n0", "--grid-order"},
    "sweep": {"--lambda", "--interval", "--n", "--grid-points", "--n-sweep"},
    "resolvent": {"--n"},
}
# a value for each flag, and for the removed --seed, which no command reads
FLAG_VALUES = {"--lambda": ["4"], "--interval": ["1", "2"], "--n": ["1"],
               "--n0": ["1"], "--grid-order": ["4"], "--grid-points": ["4"],
               "--seed": ["3"], "--n-sweep": ["1,2"]}
UNREAD = [(command, flag) for command, flags in FLAGS_READ.items()
          for flag in FLAG_VALUES if flag not in flags]
# the settings each command needs to run on TWO_SCATTERERS
BASE_ARGV = {"validate": [], "smatrix": ["--lambda", "4"],
             "sweep": ["--interval", "1", "2", "--grid-points", "2"],
             "resolvent": []}


def test_each_command_declares_only_the_flags_it_reads():
    sub, = (a for a in cli._build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    declared = {name: [a for a in parser._actions if a.dest != "help"]
                for name, parser in sub.choices.items()}
    for name, actions in declared.items():
        flags = {a.option_strings[0] for a in actions} - {"--config", "--out"}
        assert flags == FLAGS_READ[name]
    assert sum(map(len, declared.values())) == 21
    assert len(UNREAD) == 19


@pytest.mark.parametrize("command, flag", UNREAD)
def test_flag_the_command_does_not_read_is_usage_error(tmp_path, capsys,
                                                       command, flag):
    cfg = write_config(tmp_path, TWO_SCATTERERS)
    base = [command, "--config", cfg, *BASE_ARGV[command]]
    assert main(base) == 0
    capsys.readouterr()
    assert main([*base, flag, *FLAG_VALUES[flag]]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"zrs: usage error: unrecognized arguments: "
                   f"{' '.join([flag, *FLAG_VALUES[flag]])}\n")


# the run settings a config carried before they became flags only, and
# the resolvent inputs that became constants
RUN_SETTINGS = {"lambda": 4, "b": 25, "n0": 1, "interval": [1, 2],
                "grid_order": 4, "grid_points": 2, "seed": 0, "n_sweep": "1,2",
                "source": [1.0, 2.0, 3.0], "tolerances": {"boundary": 1e-30}}


@pytest.mark.parametrize("key", [*RUN_SETTINGS, "lamda"])
@pytest.mark.parametrize("command", BASE_ARGV)
def test_config_key_outside_the_scatterers_is_usage_error(tmp_path, capsys,
                                                          command, key):
    cfg = write_config(tmp_path, {**TWO_SCATTERERS, key: RUN_SETTINGS.get(key, 4)})
    assert main([command, "--config", cfg, *BASE_ARGV[command]]) == 1
    assert capsys.readouterr() == (
        "", f"zrs: usage error: unknown config key {key!r}; expected points, "
            "weights, family, z, z1, z2\n")


# a misspelled key inside a config: (config, the message's tail, the
# commands that read it); each ran on a default before it was named
TYPOS = {
    "family-param": (
        {"family": {"kind": "cubic-lattice-ball", "N": 8,
                    "params": {"spacng": 2.0}}},
        "unknown key 'spacng' in family params; expected spacing, weight",
        list(BASE_ARGV)),
    "family-key": (
        {"family": {"kind": "clustering", "N": 8, "params": {"p": 2, "q": 6},
                    "Strict": True}},
        "unknown key 'Strict' in family section; expected kind, N, params, strict",
        list(BASE_ARGV)),
    # the tolerances key itself is removed, so it is named before its entries
    "tolerance": (
        {**TWO_SCATTERERS, "tolerances": {"hilbrt": 1e-30}},
        "usage error: unknown config key 'tolerances'; expected points, "
        "weights, family, z, z1, z2",
        ["resolvent"]),
}


@pytest.mark.parametrize("data, message, commands", list(TYPOS.values()),
                         ids=list(TYPOS))
def test_misspelled_config_key_exits_1_naming_it(tmp_path, capsys, data, message,
                                                 commands):
    cfg = write_config(tmp_path, data)
    for command in commands:
        assert main([command, "--config", cfg, *BASE_ARGV[command]]) == 1
        assert capsys.readouterr() == ("", f"zrs: {message}\n")


def _readme_table(first_header):
    """The body rows, as lists of cells, of README's table whose first
    header cell is ``first_header``."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows, inside = [], False
    for line in readme.read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if not line.startswith("|"):
            inside = False
        elif cells[0] == first_header:
            inside = True
        elif inside and not set(cells[0]) <= set("- "):
            rows.append(cells)
    return rows


def test_readme_lists_the_flags_and_config_keys_the_cli_reads():
    flags = {row[0].strip("`"): tuple(re.findall(r"`(--[a-z0-9-]+)", row[1]))
             for row in _readme_table("command")}
    assert flags == cli._FLAGS
    keys = [key for row in _readme_table("config key")
            for key in re.findall(r"`([^`]+)`", row[0])]
    assert tuple(keys) == cli._CONFIG_KEYS


# the settings that no benchmark job sends, each with the reason it stays:
# (command, flag), ("config", key) or ("family", key)
KEPT_SETTINGS = {
    ("validate", "--lambda"): "a report for a window top b other than 25",
    ("validate", "--n0"): "a report for a head size other than N // 2",
    ("validate", "--n"): "a report on a truncation of the set",
    ("smatrix", "--n"): "the kernel of a truncation of the set",
    ("smatrix", "--grid-order"): "an explicit product-grid order beside the "
                                 "band-limit default",
    ("sweep", "--n"): "a sweep of a truncation of the set",
    ("resolvent", "--n"): "the identities on a truncation of the set",
    ("family", "strict"): "the exact rule q > 2p + 1, which validate's "
                          "partial-sum test cannot see",
}


def _benchmark_settings():
    """The settings the benchmark's CLI jobs send: flags, config keys and
    family keys of the warm-up and cycle 0 of every workload at seed 1."""
    sent = set()
    for name in workloads.WORKLOADS:
        for jobs, configs in (workloads.make_warmup(name, 1),
                              workloads.make_cycle(name, 1, 0)):
            for job in jobs:
                if not job.argv:  # a library call
                    continue
                sent.update((job.argv[0], a) for a in job.argv if a.startswith("--"))
                data = configs[job.config]
                sent.update(("config", key) for key in data)
                sent.update(("family", key) for key in data.get("family", ()))
    return sent


def test_every_setting_is_sent_by_the_benchmark_or_kept_for_a_reason():
    settings = ({(command, flag) for command, flags in cli._FLAGS.items()
                 for flag in flags}
                | {("config", key) for key in cli._CONFIG_KEYS}
                | {("family", key) for key in _FAMILY_KEYS})
    sent = _benchmark_settings()
    assert sorted(settings - sent - set(KEPT_SETTINGS)) == []
    # a kept setting that is sent, or gone, no longer needs its reason
    assert sorted(set(KEPT_SETTINGS) & sent) == []
    assert sorted(set(KEPT_SETTINGS) - settings) == []


def test_parser_built_once_per_process(tmp_path, capsys):
    cfg = write_config(tmp_path, TWO_SCATTERERS)
    cli._build_parser.cache_clear()
    for _ in range(3):
        assert main(["validate", "--config", cfg]) == 0
    assert main(["validate"]) == 1
    assert cli._build_parser.cache_info().misses == 1


def test_default_out_is_stdout_at_write_time(tmp_path, capsys):
    cfg = write_config(tmp_path, TWO_SCATTERERS)
    assert main(["validate", "--config", cfg]) == 0
    expected = capsys.readouterr().out
    bufs = [io.StringIO(), io.StringIO()]
    for buf in bufs:
        with contextlib.redirect_stdout(buf):
            assert main(["validate", "--config", cfg]) == 0
    assert [buf.getvalue() for buf in bufs] == [expected, expected]
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("bad", [
    ["--grid-points", "-3", "--n", "1"],
    ["--grid-points", "x"],
])
def test_usage_error_leaves_no_state_in_parser(tmp_path, capsys, bad):
    _, cfg = _battery_config(tmp_path)
    valid = ["sweep", "--config", cfg, "--interval", "1", "2"]
    cli._build_parser.cache_clear()
    assert main(valid) == 0
    expected = capsys.readouterr().out
    assert main([*valid, *bad]) == 1
    assert capsys.readouterr().err.startswith("zrs: usage error: ")
    assert main(valid) == 0
    assert capsys.readouterr().out == expected
    assert len(expected.splitlines()) == 33  # header and 32 default points


@pytest.mark.parametrize("n", ["0", "-1"])
def test_truncation_outside_set_is_rejected(tmp_path, capsys, n):
    cfg = write_config(tmp_path, TWO_SCATTERERS)
    assert main(["validate", "--config", cfg, "--n", n]) == 1
    assert capsys.readouterr().err == f"zrs: prefix length {n} outside 1..2\n"


def test_unwritable_out_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path, TWO_SCATTERERS)
    out = tmp_path / "missing" / "report.json"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("zrs: cannot write output: ") and "Traceback" not in err
    assert len(err.splitlines()) == 1


def _battery_config(tmp_path):
    """The first N = 5 configuration of the acceptance battery."""
    s = make_config(1005, 5)
    return s, write_config(tmp_path, s.to_dict())


def test_sweep_rows_match_defect_csv_and_gamma(tmp_path):
    s, cfg = _battery_config(tmp_path)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--interval", "0.7", "12",
                 "--grid-points", "9", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    lams = np.linspace(0.7, 12, 9)
    buf = io.StringIO()
    write_defect_csv(s, lams, buf)
    assert rows == buf.getvalue().splitlines()[1:]
    prev = None
    for lam, row in zip(lams, rows):
        vals = [float(v) for v in row.split(",")]
        gamma = gamma_direct(*build_weighted(s, build_q(lam, s)))
        assert vals[1] == unitarity_defect_reduced(smatrix(lam, s))
        assert vals[2] == np.linalg.norm(gamma, 2)
        assert vals[3] == np.linalg.cond(gamma)
        if prev is not None:
            assert vals[5] == np.linalg.norm(gamma - prev, 2)
        prev = gamma


def test_n_sweep_rows_match_truncation_csv_and_gamma_levels(tmp_path):
    s, cfg = _battery_config(tmp_path)
    out = tmp_path / "nsweep.csv"
    assert main(["sweep", "--config", cfg, "--lambda", "4", "--n-sweep", "2,5,3",
                 "--out", str(out)]) == 0
    buf = io.StringIO()
    write_truncation_csv(s, 4.0, [2, 5, 3], buf)
    assert out.read_text() == buf.getvalue()
    rows = out.read_text().splitlines()
    assert rows[0] == "n_low,n_high,gamma_diff"
    # on one BLAS thread, as the command runs
    with serial_blas():
        gammas = gamma_levels(*build_weighted(s, build_q(4.0, s)), [2, 5, 3])
        for row, (lo, hi) in zip(rows[1:], [(2, 5), (5, 3)], strict=True):
            m = min(lo, hi)
            want = np.linalg.norm(gammas[hi][:m, :m] - gammas[lo][:m, :m], 2)
            assert row.startswith(f"{lo},{hi},")
            assert float(row.split(",")[2]) == want


def test_n_sweep_needs_two_levels(tmp_path, capsys):
    cfg = write_config(tmp_path, {"family": FAMILY | {"N": 10}})
    # an empty list is an N-sweep too, not a lambda sweep without --interval
    for argv in (["--config", cfg, "--n-sweep", "4"],
                 ["--config", cfg, "--n-sweep", ","]):
        assert main(["sweep", *argv, "--lambda", "4"]) == 1
        assert capsys.readouterr() == ("", "zrs: N-sweep needs at least two truncations\n")
    with pytest.raises(BadParams, match="at least two"):
        write_truncation_csv(make_config(4, 3), 4.0, [], io.StringIO())


def test_n_sweep_levels_come_from_the_truncation(tmp_path, capsys):
    cfg = write_config(tmp_path, {"family": FAMILY | {"N": 10}})
    sweep = ["sweep", "--config", cfg, "--lambda", "4", "--n-sweep", "2,5"]
    assert main(sweep) == 0
    expected = capsys.readouterr().out
    assert main([*sweep, "--n", "5"]) == 0
    assert capsys.readouterr().out == expected
    assert main([*sweep, "--n", "3"]) == 1
    assert capsys.readouterr() == ("", "zrs: prefix length 5 outside 1..3\n")


def test_n_sweep_matches_per_prefix_gamma(tmp_path):
    s, cfg = _battery_config(tmp_path)
    out = tmp_path / "nsweep.csv"
    assert main(["sweep", "--config", cfg, "--lambda", "4", "--n-sweep", "2,5,3",
                 "--out", str(out)]) == 0
    gam = {n: gamma_direct(*build_weighted(s.prefix(n), build_q(4.0, s.prefix(n))))
           for n in (2, 3, 5)}
    diffs = [float(r.split(",")[2]) for r in out.read_text().splitlines()[1:]]
    want = [np.linalg.norm(gam[5][:2, :2] - gam[2], 2),
            np.linalg.norm(gam[5][:3, :3] - gam[3], 2)]
    # levels 3 and 5 are bordered up from level 2: each difference may move
    # by the round-off bounds of its two levels
    qt, j = build_weighted(s, build_q(4.0, s))
    slack = {n: bordering_bound(qt[:n, :n] + np.diag(j[:n]), g) for n, g in gam.items()}
    assert len(diffs) == 2
    for d, w, (lo, hi) in zip(diffs, want, [(2, 5), (5, 3)]):
        assert abs(d - w) <= slack[lo] + slack[hi]


@pytest.mark.parametrize("levels, first", [("5,2,3", 5), ("3,2,5", 3)])
def test_n_sweep_names_first_singular_level_in_argv_order(tmp_path, capsys, monkeypatch,
                                                          levels, first):
    _, cfg = _battery_config(tmp_path)
    # levels 3 and 5 fail the certificate, then the SVD check with an rcond
    # that names the level; level 2 passes
    real = krein._certified
    monkeypatch.setattr(krein, "_certified", lambda a, x: real(a, x) & (a.shape[-1] < 3))

    def singular(a, label, exc=SingularMatrix):
        rcond = a.shape[-1] * 1e-20
        raise exc(f"{label} is numerically singular (rcond {rcond:.2e})", rcond=rcond)

    monkeypatch.setattr(krein, "check_rcond", singular)
    assert main(["sweep", "--config", cfg, "--lambda", "4", "--n-sweep", levels]) == 3
    assert capsys.readouterr() == ("", "zrs: numerical failure: J + Qtilde is "
                                   f"numerically singular (rcond {first}.00e-20)\n")


def test_resolvent_at_positive_real_z_exits_1(tmp_path, capsys):
    two = {"points": [[0, 0, 0], [1, 0, 0]], "weights": [1.0, 2.0]}
    cfg = write_config(tmp_path, {**two, "z": [2, 0]})
    assert main(["resolvent", "--config", cfg]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "zrs: symmetry residual needs z off (0, inf), "
                          "got (2+0j)\n")


@pytest.mark.parametrize("points, z, message", [
    ([[0, 0, 0], [1, 0, 0]], [0, 1e15], "boundary fit is empty"),
    ([[0, 0, 0], [1, 0, 0]], [0, 1e17], "fit design condition inf"),
    ([[0, 0, 0], [1, 0, 0]], [-1e17, 0], "fit design condition inf"),
    # the fit radii scale with the separation
    ([[0, 0, 0], [1e154, 0, 0]], [0, 1], "fit design condition inf"),
])
def test_resolvent_fit_that_under_or_overflows_exits_3(tmp_path, capsys, points,
                                                       z, message):
    cfg = write_config(tmp_path, {"points": points, "weights": [2.0, 2.0], "z": z})
    assert main(["resolvent", "--config", cfg]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"zrs: numerical failure: {message}")
    assert err.count("\n") == 1


def test_k1_term_that_overflows_is_zero_without_warning(tmp_path, capsys):
    # eta^2 |w| = 2e308 is above the float range: the K1 term is its limit 0
    data = {"points": [[0, 0, 0], [1e154, 0, 0]], "weights": [2.0, 2.0]}
    cfg = write_config(tmp_path, data)
    s = ScattererSet(data["points"], data["weights"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", "--config", cfg]) == 0
        assert tail_bound(s, 1, 25.0) == 5.0 / (8.0 * np.pi)
        assert tail_bound(s, 0, abs(-4.0)) == 2.0 / (8.0 * np.pi)
    out = json.loads(capsys.readouterr().out)
    assert (out["K0"], out["K1"], out["tail"]) == (1.0, 0.0, [0.0, 0.0])


def test_validate_that_overflows_exits_1_and_smatrix_3(tmp_path, capsys):
    # the K0 and K1 terms are 1e300 and the tail bound overflows
    cfg = write_config(tmp_path, {"points": [[0, 0, 0], [1, 0, 0]],
                                  "weights": [1e-300, 1e-300]})
    assert main(["validate", "--config", cfg]) == 1
    assert capsys.readouterr() == (
        "", "zrs: admissibility value p_tail overflows to inf\n")
    assert main(["smatrix", "--config", cfg, "--lambda", "5", "--n0", "1"]) == 3
    assert capsys.readouterr() == (
        "", "zrs: numerical failure: lambda=5: tail bound p = inf >= 1\n")


@pytest.mark.parametrize("argv", [
    ["smatrix", "--lambda", "5"],
    ["smatrix", "--lambda", "5", "--n0", "1"],
    ["sweep", "--interval", "1", "9", "--grid-points", "3"],
    ["sweep", "--lambda", "5", "--n-sweep", "1,2"],
])
def test_subnormal_weight_exits_1_naming_the_overflow(tmp_path, capsys, argv):
    # Qt = Q / |w| overflows; validate names K0 on the same config, and the
    # resolvent route does not form Qt
    cfg = write_config(tmp_path, {"points": [[0, 0, 0], [1, 0, 0]],
                                  "weights": [5e-324, 1.0]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--config", cfg]) == 1
        assert capsys.readouterr() == (
            "", "zrs: weighted matrix Qtilde overflows (least |w| = 4.94066e-324)\n")
        assert main(["validate", "--config", cfg]) == 1
        assert capsys.readouterr() == (
            "", "zrs: admissibility value K0 overflows to inf\n")
        assert main(["resolvent", "--config", cfg]) == 0
    assert capsys.readouterr().err == ""


# weights whose overlap B = (16 pi^2 / sqrt(lam)) D^-1/2 G_N D^-1/2 overflows,
# or, in the last case, the quadrature defect's norms of functions in the
# span of the plane waves, which scale as 1/sqrt|w|; Qt does not overflow
OVERLAP_OVERFLOWS = {
    "two-sites": {"points": [[0, 0, 0], [10, 0, 0]], "weights": [1e-308, 1e-308]},
    "clustering-27": {"family": {"kind": "clustering", "N": 27, "params": {
        "p": -3.2577747906236976, "q": 1.8430980705772795,
        "w0": 7.582444187883444e-309}}},
    "clustering-15": {"family": {"kind": "clustering", "N": 15, "params": {
        "p": 0.17993963505631339, "q": -2.081051786705026,
        "w0": 5.9203753264245e-305}}},
}


@pytest.mark.parametrize("config, argv, err", [
    ("two-sites", ["sweep", "--interval", "1", "4", "--grid-points", "5"],
     "weighted overlap B overflows (least |w| = 1e-308)"),
    ("two-sites", ["smatrix", "--lambda", "3", "--grid-order", "8"],
     "weighted overlap B overflows (least |w| = 1e-308)"),
    ("clustering-27", ["sweep", "--interval", "1", "4", "--grid-points", "5"],
     "weighted overlap B overflows (least |w| = 7.58244e-309)"),
    ("clustering-15", ["smatrix", "--lambda", "3", "--grid-order", "8"],
     "quadrature defect overflows (least |w| = 2.11272e-307)"),
])
def test_overflowing_overlap_exits_1_naming_the_least_weight(tmp_path, capsys,
                                                             config, argv, err):
    cfg = write_config(tmp_path, OVERLAP_OVERFLOWS[config])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--config", cfg]) == 1
    assert capsys.readouterr() == ("", f"zrs: {err}\n")


def test_convergence_flags_of_terms_spanning_the_float_range(tmp_path, capsys):
    # the K0 terms run 1, ..., 1e-300 (site 5), ..., 1e300 (site 8): the
    # last is above the middle one, so neither flag holds
    cfg = write_config(tmp_path, {
        "points": [[m, 0, 0] for m in range(8)],
        "weights": [1, 1, 1, 1, 1e300, 1, 1, 1e-300]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", "--config", cfg, "--n0", "8"]) == 2
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert err == ""
    assert (report["k0_converges"], report["k1_converges"]) == (False, False)
    assert report["verdict"] == "fail"


@pytest.mark.parametrize("weight, argv", [
    # the Frobenius norm of J + Qt overflows and that of its inverse
    # underflows (of Q + 4 pi L and C for the large weight)
    (1e-300, ["smatrix", "--lambda", "5"]),
    (1e-300, ["sweep", "--interval", "1", "9", "--grid-points", "3"]),
    (1e-300, ["sweep", "--lambda", "5", "--n-sweep", "1,2"]),
    (1e300, ["resolvent"]),
])
def test_extreme_weights_run_without_warnings(tmp_path, capsys, weight, argv):
    cfg = write_config(tmp_path, {"points": [[0, 0, 0], [1, 0, 0]],
                                  "weights": [weight, weight]})
    assert main([*argv, "--config", cfg]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [
    ["validate"], ["smatrix", "--lambda", "4"], ["sweep", "--interval", "1", "2"],
    ["resolvent"],
])
def test_sites_beyond_the_float_range_exit_1(tmp_path, capsys, argv):
    cfg = write_config(tmp_path, {"points": [[0, 0, 0], [2e154, 0, 0]],
                                  "weights": [2.0, 2.0]})
    assert main([*argv, "--config", cfg]) == 1
    assert capsys.readouterr() == (
        "", "zrs: pairwise distances must be finite (points too far apart)\n")


def test_resolvent_pass_and_perturbed_fail(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, {"points": [[0, 0, 0]], "weights": [1.0]})
    rc = main(["resolvent", "--config", cfg])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["pass"]
    assert payload["hilbert_residual"] < 1e-10
    assert payload["symmetry_residual"] < 1e-12
    assert all(r < 1e-5 for r in payload["boundary_residuals"])
    assert payload["tolerances"] == {"hilbert": 1e-10, "symmetry": 1e-12,
                                     "boundary": 1e-5}
    # impossible tolerance forces the failure path
    monkeypatch.setitem(cli.TOLERANCES, "boundary", 1e-30)
    assert main(["resolvent", "--config", cfg]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert not payload["pass"] and payload["tolerances"]["boundary"] == 1e-30


def test_truncation_flag(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "family": {"kind": "clustering", "params": {"p": 2, "q": 6}, "N": 16}
    })
    assert main(["validate", "--config", cfg, "--n", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["tail"]) == 4


def test_smatrix_schur_route_success(tmp_path):
    # contractive tail (heavy tail weight): the split route must succeed
    cfg = write_config(tmp_path, {
        "points": [[0, 0, 0], [2.0, 0, 0]],
        "weights": [1.0, 5e4],
    })
    out = tmp_path / "schur.csv"
    assert main(["smatrix", "--config", cfg, "--lambda", "4", "--n0", "1",
                 "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert "defect_reduced=" in header


def test_deterministic_outputs(tmp_path):
    cfg = write_config(tmp_path, {
        "points": [[0, 0, 0], [0.7, 0, 0]],
        "weights": [1.0, -0.8],
    })
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["smatrix", "--config", cfg, "--lambda", "3",
                     "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def _entry_point_argv():
    """Command that runs the ``zrs`` script declared in pyproject.toml.

    It starts the ``[project.scripts]`` target the way pip's generated
    wrapper does, so the test needs neither an installed distribution nor
    a ``zrs`` executable on PATH.
    """
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        import tomli as tomllib
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["zrs"]
    module, func = target.split(":")
    code = ("import importlib, sys; sys.argv[0] = 'zrs'; "
            f"sys.exit(getattr(importlib.import_module({module!r}), {func!r})())")
    return [sys.executable, "-c", code]


def test_installed_entry_point(tmp_path):
    cfg = write_config(tmp_path, TWO_SCATTERERS)
    entry_point = _entry_point_argv()

    def run_zrs(*args):
        return run_child([*entry_point, *args], tmp_path)

    proc = run_zrs("validate", "--config", cfg)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "pass"
    # a usage error must reach the process exit status through run()
    proc = run_zrs("validate")
    assert proc.returncode == 1, proc.stderr


def test_python_dash_m(tmp_path):
    cfg = write_config(tmp_path, TWO_SCATTERERS)
    proc = run_child([sys.executable, "-m", "zrs", "validate", "--config", cfg],
                     tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "pass"
