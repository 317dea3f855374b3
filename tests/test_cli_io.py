import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torus_nls
from torus_nls.cli import cli_main
from torus_nls.config import (RunConfig, config_dict, load_config,
                              parse_config_text, save_config)
from torus_nls.errors import ConfigError
from torus_nls.io import (git_sha, load_field, provenance, save_field, settle_allocator,
                          summarize_reports, write_report, write_summary)
from torus_nls.lattice import SpectralField

from helpers import METRIC, random_field


# -------------------------------------------------------------------- config

def test_config_round_trip(tmp_path):
    cfg = RunConfig(theta2=np.sqrt(2.0), p=2.5, bandlimit=4, T=0.125,
                    profile="smooth", seed=99)
    path = tmp_path / "run.config"
    save_config(cfg, path)
    assert load_config(path) == cfg  # bit-exact, including the irrational theta


def test_config_parsing_errors():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("p = 2.0\nwobble = 3\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("p = fast\n")
    with pytest.raises(ConfigError, match="line 3"):
        parse_config_text("p = 2.0\n# comment\nno equals sign here\n")
    with pytest.raises(ConfigError):
        parse_config_text("sign = 0\n")
    with pytest.raises(ConfigError):
        load_config("/no/such/file.config")


def test_config_comments_and_defaults():
    cfg = parse_config_text("# header\np = 3.0  # trailing comment\n\n")
    assert cfg.p == 3.0
    assert cfg.bandlimit == RunConfig().bandlimit
    assert set(config_dict(cfg)) == {f for f in config_dict(RunConfig())}


# ------------------------------------------------------------------ field io

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 1e-5, 1e16, 0.1, 1.0 / 3.0]


def edge_field(M=2, seed=1):
    """Random finite bit patterns in every float slot, edge values up front."""
    nn = 2 * M + 1
    bits = np.random.default_rng(seed).integers(0, 2**64, size=2 * nn**3, dtype=np.uint64)
    floats = bits.view(np.float64).copy()
    floats[~np.isfinite(floats)] = 1.5
    floats[:len(EDGE_FLOATS)] = EDGE_FLOATS
    return SpectralField(METRIC, M, floats.view(np.complex128).reshape((nn,) * 3))


def test_field_round_trip_bit_exact(tmp_path):
    f = edge_field(2, seed=1)
    path = tmp_path / "u.field.json"
    save_field(f, path)
    g = load_field(path)
    assert np.array_equal(g.coeffs.view(np.uint64), f.coeffs.view(np.uint64))
    assert g.metric == f.metric and g.bandlimit == f.bandlimit


def test_field_written_by_json_dumps_still_loads(tmp_path):
    # the text form of earlier releases: json.dumps of [re, im] lists
    f = edge_field(2, seed=2)
    doc = {"metric": {"theta": list(f.metric.theta), "laplace_scale": f.metric.laplace_scale},
           "bandlimit": f.bandlimit,
           "coeffs": f.coeffs.view(np.float64).reshape(-1, 2).tolist()}
    path = tmp_path / "old.field.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    g = load_field(path)
    assert np.array_equal(g.coeffs.view(np.uint64), f.coeffs.view(np.uint64))
    assert g.metric == f.metric


def test_only_field_writers_load_orjson(tmp_path):
    cfg = _write_cfg(tmp_path)
    code = (
        "import sys, torus_nls.cli\n"
        "loaded = ['orjson' in sys.modules]\n"
        f"torus_nls.cli.cli_main(['--config', {str(cfg)!r}, 'verify', 'embedding_checks',"
        " '--trials', '1'])\n"
        "loaded.append('orjson' in sys.modules)\n"
        f"torus_nls.cli.cli_main(['field', 'random', '--out', {str(tmp_path / 'u.field.json')!r}])\n"
        "loaded.append('orjson' in sys.modules)\n"
        "print(loaded)\n"
    )
    src = str(Path(torus_nls.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True, timeout=120)
    assert done.stdout.strip().splitlines()[-1] == "[False, False, True]"


def test_field_load_errors(tmp_path):
    path = tmp_path / "bad.field.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_field(path)
    path.write_text(json.dumps({"metric": {"theta": [1, 1, 1],
                                           "laplace_scale": 1.0},
                                "coeffs": []}), encoding="utf-8")
    with pytest.raises(ConfigError, match="bandlimit"):
        load_field(path)
    doc = {"metric": {"theta": [1, 1, 1], "laplace_scale": 1.0},
           "bandlimit": 1, "coeffs": [[0.0, 0.0]] * 5}
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError, match="27"):
        load_field(path)


def test_git_sha_reads_the_checkout_without_starting_git(tmp_path):
    sha, other = "a" * 40, "b" * 40
    git = tmp_path / ".git"
    assert git_sha(tmp_path) is None  # not a checkout
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n", encoding="utf-8")
    assert git_sha(tmp_path) is None  # a branch with no commit yet
    (git / "packed-refs").write_text(f"# pack-refs with: peeled\n{other} refs/heads/dev\n"
                                     f"{sha} refs/heads/main\n^{other}\n", encoding="utf-8")
    assert git_sha(tmp_path) == sha
    (git / "refs" / "heads" / "main").write_text(f"{other}\n", encoding="utf-8")
    assert git_sha(tmp_path) == other  # the loose ref is the newer one
    (git / "HEAD").write_text(f"{sha}\n", encoding="utf-8")
    assert git_sha(tmp_path) == sha  # detached


# ------------------------------------------------------------------- reports

def _small_report(seed=0, trials=2):
    from torus_nls.harness import get_preset, run_estimate

    return run_estimate(get_preset("embedding_checks", seed=seed, trials=trials))


@pytest.fixture
def unsettled():
    """A process in which no CLI command has settled the allocator yet."""
    settle_allocator.cache_clear()
    yield
    settle_allocator.cache_clear()


def test_write_report_and_summarize(tmp_path, unsettled):
    report = _small_report()
    jpath, cpath = write_report(report, tmp_path, "embedding_checks")
    assert jpath.exists() and cpath.exists()
    doc = json.loads(jpath.read_text(encoding="utf-8"))
    assert doc["preset"] == "embedding_checks"
    assert doc["verdict"] in ("pass", "fail", "inconclusive")
    # a library-only run claims no allocator settings
    assert doc["provenance"] == {"torus_nls": torus_nls.__version__, "numpy": np.__version__,
                                 "git_sha": git_sha(Path(torus_nls.__file__).parents[2]),
                                 "allocator": None}
    rows = summarize_reports(tmp_path)
    assert len(rows) == len(report.ratios)
    out = tmp_path / "summary.csv"
    write_summary(rows, out)
    assert len(out.read_text(encoding="utf-8").strip().splitlines()) == len(rows) + 1


# ----------------------------------------------------------------------- cli

def _write_cfg(tmp_path, **overrides):
    values = dict(bandlimit=2, T=0.25, n_time=8, output_dir=str(tmp_path / "out"))
    cfg = RunConfig(**{**values, **overrides})
    path = tmp_path / "run.config"
    save_config(cfg, path)
    return path


def test_cli_field_and_norms(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "u.field.json"
    assert cli_main(["--config", str(cfg), "--seed", "4", "field", "random",
                     "--out", str(out)]) == 0
    assert out.exists()
    assert cli_main(["norms", "--field", str(out), "--norm", "hs", "--s", "0.5"]) == 0
    assert cli_main(["norms", "--field", str(out), "--norm", "lp", "--p", "4"]) == 0
    assert cli_main(["norms", "--field", str(out), "--norm", "y", "--s", "0"]) == 0
    assert cli_main(["norms", "--field", str(out), "--norm", "v2"]) == 0


def test_cli_solve(tmp_path):
    cfg = _write_cfg(tmp_path)
    assert cli_main(["--config", str(cfg), "solve"]) == 0
    outdir = tmp_path / "out"
    assert (outdir / "u0.field.json").exists()
    assert (outdir / "run.config").exists()
    diag = json.loads((outdir / "diagnostics.json").read_text(encoding="utf-8"))
    assert diag["iterations"] >= 1
    assert set(diag["provenance"]) == {"torus_nls", "numpy", "git_sha", "allocator", "orjson"}
    assert diag["provenance"]["allocator"] == settle_allocator()
    frames = sorted((outdir / "frames").glob("frame_*.field.json"))
    assert len(frames) == 8


def test_cli_log_level(tmp_path, caplog):
    # data too large for T = 4: find_T halves T and logs each halving at INFO
    cfg = _write_cfg(tmp_path, T=4.0, bandlimit=1, n_time=4)
    u0 = tmp_path / "u.field.json"
    assert cli_main(["--config", str(cfg), "--seed", "1", "field", "random",
                     "--amplitude", "3", "--out", str(u0)]) == 0
    solve = ["solve", "--find-T", "--u0", str(u0)]
    for level, shown in (("info", True), ("WARNING", False), ("INFO", True)):
        caplog.clear()
        assert cli_main(["--config", str(cfg), "--log-level", level, *solve]) == 0
        assert any("halving" in r.getMessage() for r in caplog.records) == shown
    assert cli_main(["--config", str(cfg), "--log-level", "LOUD", *solve]) == 2


def test_cli_verify_and_report(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert cli_main(["--config", str(cfg), "verify", "embedding_checks",
                     "--trials", "2"]) == 0
    captured = capsys.readouterr()
    assert "embedding_checks" in captured.out
    out = tmp_path / "summary.csv"
    assert cli_main(["report", "summarize", str(tmp_path / "out"),
                     "--out", str(out)]) == 0
    assert out.exists()


class _Mallopt:
    """glibc's mallopt as a fake: records its calls and returns `result`."""

    def __init__(self, result):
        self.result, self.calls = result, []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return self.result


def _fake_libc(monkeypatch, **symbols):
    import ctypes

    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(**symbols))


def _two_commands(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "u.field.json"
    assert cli_main(["--config", str(cfg), "field", "random", "--out", str(out)]) == 0
    assert cli_main(["norms", "--field", str(out), "--norm", "hs"]) == 0


def test_cli_settles_the_allocator_once_per_process(tmp_path, monkeypatch, unsettled):
    mallopt = _Mallopt(1)
    _fake_libc(monkeypatch, mallopt=mallopt)
    assert provenance()["allocator"] is None
    _two_commands(tmp_path)
    # the largest guarded grid, 132^3 complex128 = 36.8 MB, rounds up to 64 MiB
    assert mallopt.calls == [(-3, 1 << 26), (-1, 1 << 28)]
    assert provenance()["allocator"] == {"M_MMAP_THRESHOLD": 1 << 26,
                                         "M_TRIM_THRESHOLD": 1 << 28}


@pytest.mark.parametrize("symbols", [{}, {"mallopt": _Mallopt(0)}], ids=["missing", "refused"])
def test_cli_leaves_an_unwilling_allocator_alone(tmp_path, monkeypatch, unsettled, symbols):
    _fake_libc(monkeypatch, **symbols)
    _two_commands(tmp_path)
    assert provenance()["allocator"] is None
    assert all(len(mallopt.calls) == 2 for mallopt in symbols.values())


def test_cli_exit_codes(tmp_path):
    # unknown preset -> usage error
    assert cli_main(["verify", "definitely_not_a_preset", "--trials", "1"]) == 2
    # malformed config -> usage error
    bad = tmp_path / "bad.config"
    bad.write_text("wobble = 1\n", encoding="utf-8")
    out = tmp_path / "u.field.json"
    assert cli_main(["--config", str(bad), "field", "random", "--out", str(out)]) == 2
    # unknown subcommand -> argparse usage error
    assert cli_main(["frobnicate"]) == 2
    # missing field file -> usage error
    assert cli_main(["norms", "--field", str(tmp_path / "nope.json"),
                     "--norm", "hs"]) == 2


def test_cli_verify_exits_1_when_one_preset_fails(tmp_path, monkeypatch, capsys):
    # two cheap presets in the table: a growing ratio fails, a flat one passes
    from torus_nls.harness import presets

    spec = presets.get_preset("frac_product")
    monkeypatch.setattr(presets, "_PRESETS", {
        name: (evaluator, dataclasses.replace(spec, name=name)) for name, evaluator in (
            ("growing", lambda spec, env, N, rng: (N**2.0, 1.0)),
            ("flat", lambda spec, env, N, rng: (1.0, 1.0)))})
    cfg = _write_cfg(tmp_path)
    assert cli_main(["--config", str(cfg), "verify", "all", "--trials", "1"]) == 1
    out = capsys.readouterr().out
    assert "growing: fail" in out and "flat: pass" in out
    assert cli_main(["--config", str(cfg), "verify", "flat", "--trials", "1"]) == 0


def test_cli_verify_raises_the_T_guard(tmp_path):
    cfg = _write_cfg(tmp_path, T=2.0)
    argv = ["--config", str(cfg), "verify", "frac_product", "--trials", "1"]
    assert cli_main(argv) == 3
    assert cli_main(argv + ["--allow-large-T"]) == 0
    doc = json.loads((tmp_path / "out" / "frac_product.json").read_text(encoding="utf-8"))
    assert doc["environment"]["T"] == 2.0


def test_cli_verify_runs_each_preset_on_its_own_time_grid(tmp_path):
    # the config's n_time is the solve grid: verify neither guards nor reports it
    cfg = _write_cfg(tmp_path, n_time=600)
    assert cli_main(["--config", str(cfg), "verify", "frac_product", "--trials", "1"]) == 0
    assert cli_main(["--config", str(cfg), "verify", "strichartz_L6", "--trials", "1"]) in (0, 1)
    doc = json.loads((tmp_path / "out" / "strichartz_L6.json").read_text(encoding="utf-8"))
    assert dict(doc["spec"]["params"])["n_time"] == 12
    assert "n_time" not in doc["environment"]


@pytest.mark.parametrize("find_T", [False, True], ids=["solve", "find_T"])
def test_cli_solve_exits_3_when_F_overflows(tmp_path, capsys, find_T):
    # F of the first marched iterate (1e40 data) or of the datum (1e200) is not
    # finite; the exit is quiet, with no numpy RuntimeWarning on the way
    cfg = _write_cfg(tmp_path, p=2.0, bandlimit=2, n_time=4)
    for amplitude in (1e40, 1e200):
        c = np.zeros((5, 5, 5), dtype=complex)
        c[2, 2, 2] = c[3, 2, 2] = amplitude
        u0 = tmp_path / "u0.field.json"
        save_field(SpectralField(load_config(cfg).metric, 2, c), u0)
        argv = ["--config", str(cfg), "solve", "--u0", str(u0)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main(argv + ["--find-T"] * find_T) == 3
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert "RuntimeWarning" not in capsys.readouterr().err


def _field_doc(theta=(1.0, 1.0, 1.0), value=0.0):
    return {"metric": {"theta": list(theta), "laplace_scale": 1.0},
            "bandlimit": 0, "coeffs": [[value, 0.0]]}


@pytest.mark.parametrize("config, env_seed, argv, field", [
    ("", None, ["--seed", "-1", "field", "random", "--out", "OUT"], None),
    ("", "-1", ["field", "random", "--out", "OUT"], None),
    ("seed = -1", None, ["field", "random", "--out", "OUT"], None),
    ("n_time = 1", None, ["solve"], None),
    ("bandlimit = -1", None, ["solve"], None),
    ("", None, ["norms", "--field", "FIELD", "--norm", "hs"], _field_doc(theta=(1, -1, 1))),
    ("", None, ["norms", "--field", "FIELD", "--norm", "hs"], _field_doc(value=float("nan"))),
    ("p = 1.5", None, ["solve"], None),
    ("theta2 = 0", None, ["solve"], None),
    ("oversample = 1", None, ["solve"], None),
    ("n_time = 1", None, ["norms", "--field", "FIELD", "--norm", "y"], _field_doc()),
    ("", None, ["field", "shell", "--N", "64", "--out", "OUT"], None),
    ("", None, ["norms", "--field", "FIELD", "--norm", "lp", "--p", "0"], _field_doc()),
    ("", None, ["norms", "--field", "FIELD", "--norm", "lp", "--p", "-2"], _field_doc()),
    ("", None, ["field", "random", "--amplitude", "0", "--out", "OUT"], None),
    ("", None, ["verify", "frac_product", "--trials", "0"], None),
    ("", None, ["verify", "frac_product", "--trials", "1", "--slack", "-1"], None),
    ("T = nan", None, ["solve"], None),
    ("T = inf", None, ["solve"], None),
    ("laplace_scale = -1", None, ["solve"], None),
    ("laplace_scale = nan", None, ["solve"], None),
    ("theta1 = nan", None, ["solve"], None),
    ("theta1 = inf", None, ["solve"], None),
    ("p = nan", None, ["solve"], None),
    ("p = inf", None, ["solve"], None),
    ("T = nan", None, ["norms", "--field", "FIELD", "--norm", "y"], _field_doc()),
    ("", None, ["norms", "--field", "FIELD", "--norm", "lp", "--p", "nan"], _field_doc()),
    ("", None, ["norms", "--field", "FIELD", "--norm", "hs", "--s", "nan"], _field_doc()),
    ("", None, ["field", "random", "--amplitude", "nan", "--out", "OUT"], None),
    ("", None, ["verify", "frac_product", "--trials", "1", "--slack", "nan"], None),
    ("", None, ["field", "free-flow", "--t", "nan", "--out", "OUT"], None),
    ("", None, ["field", "random", "--out", "NO_DIR/v.field.json"], None),
    ("output_dir = TMP/run.config/out", None, ["solve"], None),
    ("", None, ["report", "summarize", "NO_DIR", "--out", "CSV"], None),
    ("", None, ["report", "summarize", "TMP", "--out", "CSV"], None),
    ("", None, ["solve", "--u0", "FIELD"], _field_doc()),
    ("bandlimit = 0\nlaplace_scale = 1.0", None, ["solve", "--u0", "FIELD"],
     _field_doc(theta=(1, 2, 1))),
    ("theta1 = nan", None, ["norms", "--field", "FIELD", "--norm", "hs"], _field_doc()),
    ("theta1 = nan", None, ["report", "summarize", "TMP", "--out", "CSV"], None),
], ids=["seed_flag", "seed_env", "seed_config", "n_time", "bandlimit", "field_theta",
        "field_nan", "p", "theta", "oversample", "norms_n_time", "field_N", "lp_p_zero",
        "lp_p_negative", "amplitude", "trials", "slack", "T_nan", "T_inf", "laplace_negative",
        "laplace_nan", "theta_nan", "theta_inf", "p_nan", "p_inf", "norms_T_nan", "lp_p_nan",
        "hs_s_nan", "amplitude_nan", "slack_nan", "free_flow_t_nan", "out_missing_dir",
        "output_dir_uncreatable", "report_missing_dir", "report_no_csv", "u0_bandlimit",
        "u0_theta", "norms_config_nan", "report_config_nan"])
def test_cli_malformed_input_exits_2(tmp_path, monkeypatch, capsys, config, env_seed, argv,
                                     field):
    cfg = tmp_path / "run.config"
    config = config.replace("TMP", str(tmp_path))
    cfg.write_text(f"output_dir = {tmp_path / 'out'}\n{config}\n", encoding="utf-8")
    if field is not None:
        (tmp_path / "u.field.json").write_text(json.dumps(field), encoding="utf-8")
    monkeypatch.delenv("TORUS_NLS_SEED", raising=False)
    if env_seed is not None:
        monkeypatch.setenv("TORUS_NLS_SEED", env_seed)
    argv = [a.replace("NO_DIR", str(tmp_path / "nope")) for a in argv]
    paths = {"OUT": str(tmp_path / "v.field.json"), "FIELD": str(tmp_path / "u.field.json"),
             "CSV": str(tmp_path / "summary.csv"), "TMP": str(tmp_path)}
    argv = [paths.get(a, a) for a in argv]
    assert cli_main(["--config", str(cfg), *argv]) == 2
    err = capsys.readouterr().err
    assert "error: " in err and "Traceback" not in err


@pytest.mark.parametrize("config, argv", [
    ("bandlimit = 100000", ["solve"]),
    ("n_time = 100000000", ["solve"]),
    ("oversample = 100000", ["solve"]),
    ("bandlimit = 100000", ["field", "random", "--out", "OUT"]),
    ("n_time = 100000000", ["norms", "--field", "FIELD", "--norm", "y"]),
    ("oversample = 100000", ["norms", "--field", "FIELD", "--norm", "lp"]),
    ("oversample = 100000", ["verify", "strichartz_L6", "--trials", "1"]),
], ids=["solve_bandlimit", "solve_n_time", "solve_oversample", "field_bandlimit",
        "norms_n_time", "norms_oversample", "verify_oversample"])
def test_cli_desk_guard_exits_3_before_allocating(tmp_path, capsys, config, argv):
    cfg = tmp_path / "run.config"
    cfg.write_text(f"output_dir = {tmp_path / 'out'}\n{config}\n", encoding="utf-8")
    (tmp_path / "u.field.json").write_text(json.dumps(_field_doc()), encoding="utf-8")
    paths = {"OUT": str(tmp_path / "v.field.json"), "FIELD": str(tmp_path / "u.field.json")}
    assert cli_main(["--config", str(cfg), *[paths.get(a, a) for a in argv]]) == 3
    err = capsys.readouterr().err
    assert "desk guard" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "v.field.json").exists()


# One hostile edit of a tiny valid run: a config key, an option or a path.
_REJECTED = ["nan", "inf", "-inf", "abc"]  # no parameter accepts these, but L^inf is a norm
_VALUES = _REJECTED + ["0", "-1", "1e300", str(2**64), "9" * 400]
_CONFIG_KEYS = ["theta1", "theta3", "laplace_scale", "p", "sign", "bandlimit", "T", "n_time",
                "oversample", "seed", "profile"]
_COMMANDS = [  # (argv, options the edit may set)
    (["solve"], []),
    (["solve", "--find-T", "--u0", "FIELD"], []),
    (["field", "free-flow", "--out", "OUT"], ["--N", "--amplitude", "--t"]),
    (["norms", "--field", "FIELD", "--norm", "hs"], ["--s"]),
    (["norms", "--field", "FIELD", "--norm", "lp"], ["--p"]),
    (["norms", "--field", "FIELD", "--norm", "y"], ["--s"]),
    (["norms", "--field", "FIELD", "--norm", "v2"], []),
    (["report", "summarize", "REPORTS", "--out", "CSV"], []),
]
_BAD_FIELD_DOCS = [
    [], "field", {"metric": 1, "bandlimit": 1, "coeffs": []},
    {"metric": {"theta": ["a", 1, 1], "laplace_scale": 1}, "bandlimit": 0, "coeffs": [[0, 0]]},
    {"metric": {"theta": [1, 1], "laplace_scale": 1}, "bandlimit": 0, "coeffs": [[0, 0]]},
    {**_field_doc(), "bandlimit": "one"}, {**_field_doc(), "bandlimit": 1e300},
    {**_field_doc(), "bandlimit": float("inf")}, {**_field_doc(), "coeffs": [[0, 0, 0]]},
    {**_field_doc(), "coeffs": [["a", 0]]}, {**_field_doc(), "coeffs": {"0": 1}},
]


@st.composite
def _hostile_runs(draw):
    argv, options = draw(st.sampled_from(_COMMANDS))
    where = draw(st.sampled_from(["path", "config"] + ["option"] * bool(options)))
    if where == "config":
        return argv, (draw(st.sampled_from(_CONFIG_KEYS)), draw(st.sampled_from(_VALUES)))
    if where == "option":
        option, value = draw(st.sampled_from(options)), draw(st.sampled_from(_VALUES))
        return argv + [option, value], ("option", option, value)
    if "FIELD" in argv:
        doc = draw(st.sampled_from(["missing", "truncated", *range(len(_BAD_FIELD_DOCS))]))
        return argv, ("FIELD", doc, draw(st.integers(0, 10**6)))
    # an output file in, a report directory that is, or an output_dir under, a missing directory
    return argv, (next((a for a in argv if a in ("OUT", "REPORTS")), "output_dir"), "missing", 0)


@settings(max_examples=60, deadline=None)
@given(_hostile_runs())
def test_cli_exit_codes_hold_for_hostile_input(run):
    # every outcome is an exit code of the contract, and a rejected value never exits 0
    argv, edit = run
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = {"bandlimit": "1", "n_time": "4", "T": "0.25", "output_dir": str(tmp / "out")}
        paths = {"FIELD": tmp / "u.field.json", "OUT": tmp / "v.field.json",
                 "REPORTS": tmp / "reports", "CSV": tmp / "summary.csv"}
        # a datum on the lattice of the config, so that solve --u0 accepts it
        save_field(SpectralField(RunConfig().metric, 1, 0.05 * random_field(1).coeffs),
                   paths["FIELD"])
        paths["REPORTS"].mkdir()
        (paths["REPORTS"] / "r.csv").write_text("preset,N,trial,lhs,rhs,ratio\nx,1,0,1,1,1\n",
                                                 encoding="utf-8")
        rejected = True
        if edit[0] == "output_dir":
            config["output_dir"] = str(tmp / "run.config" / "out")
        elif edit[0] in paths:
            name, how, cut = edit
            if how == "missing":
                paths[name] = tmp / "nope" / paths[name].name
            elif how == "truncated":
                text = paths[name].read_text(encoding="utf-8")
                paths[name].write_text(text[:cut % len(text)], encoding="utf-8")
            else:
                paths[name].write_text(json.dumps(_BAD_FIELD_DOCS[how]), encoding="utf-8")
        elif edit[0] == "option":
            rejected = edit[2] in _REJECTED and edit[1:] != ("--p", "inf")
        else:
            config[edit[0]] = edit[1]
            rejected = edit[1] in _REJECTED
        cfg = tmp / "run.config"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in config.items()), encoding="utf-8")
        argv = [str(paths.get(a, a)) for a in argv]
        code = cli_main(["--config", str(cfg), "--seed", "1", *argv])
    assert code in (0, 2, 3)
    assert not (rejected and code == 0), (argv, edit)


def test_cli_seed_precedence(tmp_path, monkeypatch):
    cfg = _write_cfg(tmp_path, seed=1)
    out_env = tmp_path / "env.field.json"
    out_flag = tmp_path / "flag.field.json"
    out_cfg = tmp_path / "cfg.field.json"
    monkeypatch.setenv("TORUS_NLS_SEED", "7")
    cli_main(["--config", str(cfg), "field", "random", "--out", str(out_env)])
    cli_main(["--config", str(cfg), "--seed", "7", "field", "random",
              "--out", str(out_flag)])
    monkeypatch.delenv("TORUS_NLS_SEED")
    cli_main(["--config", str(cfg), "field", "random", "--out", str(out_cfg)])
    env_f, flag_f, cfg_f = load_field(out_env), load_field(out_flag), load_field(out_cfg)
    # env seed 7 == flag seed 7, both differ from config seed 1
    assert np.array_equal(env_f.coeffs, flag_f.coeffs)
    assert not np.array_equal(env_f.coeffs, cfg_f.coeffs)
    monkeypatch.setenv("TORUS_NLS_SEED", "not-a-number")
    assert cli_main(["--config", str(cfg), "field", "random",
                     "--out", str(out_env)]) == 2
