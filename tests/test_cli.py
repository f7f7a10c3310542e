import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lpkit.zline as zline
from lpkit.cli import EXIT_EMPTY_MEET, EXIT_OK, EXIT_PRECONDITION, EXIT_SCHEMA, dumps, main
from lpkit.zline import LaurentPolynomial, cyclic_lower, fpz_norm, fpz_upper

from conftest import random_laurent


@pytest.fixture
def files(tmp_path):
    paths = {}

    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
        return str(p)

    write("xi.json", {"n": 2, "xi": [[1, 0], [0, 1]]})
    write("poly.json", {"terms": [{"m": 0, "a": [1, 0]}, {"m": 1, "a": [1, 0]}]})
    write("conf.json", {"finite": {"2": {"points": [0.0, 0.5], "arcs": [], "full": False}},
                        "infinity": "empty"})
    write("conf_arc.json", {"finite": {"2": {"points": [], "arcs": [[0.1, 0.15], [0.6, 0.65]],
                                              "full": False}}, "infinity": "empty"})
    write("conf_a.json", {"finite": {"1": {"points": [0.0], "arcs": [], "full": False}},
                          "infinity": "empty"})
    write("conf_b.json", {"finite": {"1": {"points": [0.5], "arcs": [], "full": False}},
                          "infinity": "empty"})
    write("v.json", {"weights": [1, 1],
                     "h": [[math.cos(0.4), math.sin(0.4)], [math.cos(0.4), -math.sin(0.4)]],
                     "T": [1, 0], "aperiodic": False})
    write("mat.json", {"weights": [1, 1],
                       "matrix": [[[0, 0], [1, 0]], [[0, 1], [0, 0]]]})
    write("bad.json", {"nonsense": True})
    paths["dir"] = str(tmp_path)
    return paths


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestNorm:
    def test_zn_exact_value(self, files, capsys, tmp_path):
        xi = tmp_path / "one_i.json"
        xi.write_text(json.dumps({"n": 2, "xi": [[1, 0], [0, 1]]}))
        rc, out, _ = run(capsys, "norm", "zn", "--p", "1", "--in", str(xi))
        assert rc == EXIT_OK
        payload = json.loads(out)
        assert payload["lower"] == pytest.approx(math.sqrt(2), rel=1e-15)
        assert payload["method"] == "exact-p1"
        assert payload["config"]["p"] == 1

    def test_z_l1_identity(self, files, capsys):
        rc, out, _ = run(capsys, "norm", "z", "--p", "1", "--in", files["poly.json"])
        payload = json.loads(out)
        assert rc == EXIT_OK
        assert payload["lower"] == 2.0 and payload["upper"] == 2.0

    def test_sigma(self, files, capsys):
        rc, out, _ = run(capsys, "norm", "sigma", "--p", "1", "--in", files["conf.json"],
                         "--poly", files["poly.json"])
        payload = json.loads(out)
        assert rc == EXIT_OK
        assert payload["lower"] == pytest.approx(2.0, abs=1e-9)

    def test_isometry_both_modes_overlap(self, files, capsys):
        rc, out, _ = run(capsys, "norm", "isometry", "--p", "3", "--mode", "both",
                         "--in", files["v.json"], "--poly", files["poly.json"],
                         "--seed", "7")
        payload = json.loads(out)
        assert rc == EXIT_OK
        assert payload["overlap"] is True
        assert "direct" in payload and "via_sigma" in payload

    def test_missing_seed_on_random_path(self, files, capsys):
        rc, _, err = run(capsys, "norm", "z", "--p", "1.5", "--in", files["poly.json"])
        assert rc == EXIT_SCHEMA and "seed" in err

    @pytest.mark.parametrize("p", ["0.5", "nan", "inf", "1e400", "-3"])
    def test_p_below_one_is_precondition(self, files, capsys, p):
        rc, _, _ = run(capsys, "norm", "zn", "--p", p, "--in", files["xi.json"])
        assert rc == EXIT_PRECONDITION

    def test_schema_violation(self, files, capsys):
        rc, _, _ = run(capsys, "norm", "zn", "--p", "1", "--in", files["bad.json"])
        assert rc == EXIT_SCHEMA

    @pytest.mark.parametrize("conf", ["conf.json", "conf_arc.json"])
    @pytest.mark.parametrize("resolution", ["nan", "inf", "-inf", "0", "1e-9"])
    def test_bad_resolution_is_precondition(self, files, capsys, conf, resolution):
        rc, out, err = run(capsys, "norm", "sigma", "--p", "3", "--seed", "0",
                           "--in", files[conf], "--poly", files["poly.json"],
                           f"--resolution={resolution}")
        assert rc == EXIT_PRECONDITION and out == ""
        assert "resolution must be finite and positive" in err

    def test_large_arc_order_is_precondition(self, files, capsys, tmp_path, monkeypatch):
        # under 60 bytes of config would otherwise confirm 257 tuples of order 257
        import lpkit.pnorm as pnorm_mod

        def refuse(*args, **kwargs):
            raise AssertionError("no ascent may run")

        monkeypatch.setattr(pnorm_mod, "boyd_lower", refuse)
        conf = tmp_path / "conf_257.json"
        conf.write_text(json.dumps({"finite": {"257": {"full": True}}}))
        rc, out, err = run(capsys, "norm", "sigma", "--p", "1.5", "--seed", "0",
                           "--in", str(conf), "--poly", files["poly.json"])
        assert rc == EXIT_PRECONDITION and out == ""
        assert "order at most 256" in err

    @pytest.mark.parametrize("option", ["--tol=nan", "--tol=inf", "--tol=-1",
                                        "--n-max=0", "--n-max=-3", "--n-max=1000000000"])
    def test_bad_tol_is_precondition(self, files, capsys, option):
        rc, out, err = run(capsys, "norm", "z", "--p", "1.5", "--seed", "0",
                           "--in", files["poly.json"], option)
        assert rc == EXIT_PRECONDITION and out == ""
        assert ("tol must be finite and positive" if option.startswith("--tol")
                else "n_max must be at most 16384" if option.endswith("000")
                else "n_max must be >= 1") in err

    def test_csv_one_bracket(self, files, capsys):
        args = ("norm", "z", "--p", "1.5", "--seed", "0", "--n-max", "8",
                "--in", files["poly.json"])
        rc, out, _ = run(capsys, *args)
        payload = json.loads(out)
        rc_csv, csv, _ = run(capsys, *args, "--format", "csv")
        assert rc == rc_csv == EXIT_OK
        row = f"{payload['lower']:.17g},{payload['upper']:.17g},{payload['method']}"
        assert csv == "lower,upper,method\n" + row + "\n"

    def test_csv_both_modes(self, files, capsys):
        args = ("norm", "isometry", "--p", "3", "--mode", "both", "--seed", "7",
                "--in", files["v.json"], "--poly", files["poly.json"])
        rc, out, _ = run(capsys, *args)
        payload = json.loads(out)
        rc_csv, csv, _ = run(capsys, *args, "--format", "csv")
        assert rc == rc_csv == EXIT_OK and payload["overlap"] is True
        row = ",".join(f"{payload[side][end]:.17g}" for side in ("direct", "via_sigma")
                       for end in ("lower", "upper"))
        assert csv == ("direct_lower,direct_upper,via_lower,via_upper,overlap\n"
                       + row + ",true\n")


class TestConfig:
    def test_saturate_adds_divisor_slot(self, files, capsys):
        rc, out, _ = run(capsys, "config", "saturate", "--in", files["conf.json"])
        payload = json.loads(out)
        assert rc == EXIT_OK
        assert set(payload["result"]["finite"]) == {"1", "2"}

    def test_classify_full_infinity(self, files, capsys, tmp_path):
        full = tmp_path / "full.json"
        full.write_text(json.dumps({"finite": {}, "infinity": "full"}))
        rc, out, _ = run(capsys, "config", "classify", "--p", "1", "--in", str(full))
        assert json.loads(out)["result"]["kind"] == "fpz"

    def test_equiv_with_saturation(self, files, capsys):
        rc, out, _ = run(capsys, "config", "equiv", "--in", files["conf.json"],
                         "--in", files["conf.json"])
        assert json.loads(out)["result"] is True

    def test_leq(self, files, capsys):
        rc, out, _ = run(capsys, "config", "leq", "--in", files["conf_a.json"],
                         "--in", files["conf.json"])
        payload = json.loads(out)
        assert payload["result"] is True

    def test_inf_empty_exit_code(self, files, capsys):
        rc, _, _ = run(capsys, "config", "inf", "--in", files["conf_a.json"],
                       "--in", files["conf_b.json"])
        assert rc == EXIT_EMPTY_MEET

    def test_sup(self, files, capsys):
        rc, out, _ = run(capsys, "config", "sup", "--in", files["conf_a.json"],
                         "--in", files["conf_b.json"])
        payload = json.loads(out)
        assert payload["result"]["finite"]["1"]["points"] == [0.0, 0.5]


class TestIsom:
    def test_decompose(self, files, capsys):
        rc, out, _ = run(capsys, "isom", "decompose", "--p", "3", "--in", files["mat.json"])
        payload = json.loads(out)
        assert rc == EXIT_OK
        assert payload["result"]["T"] == [1, 0]

    def test_decompose_rejects_hadamard(self, files, capsys, tmp_path):
        s = 1 / math.sqrt(2)
        bad = tmp_path / "had.json"
        bad.write_text(json.dumps({"weights": [1, 1],
                                   "matrix": [[[s, 0], [s, 0]], [[s, 0], [-s, 0]]]}))
        rc, _, err = run(capsys, "isom", "decompose", "--p", "1", "--in", str(bad))
        assert rc == EXIT_PRECONDITION

    def test_decompose_p2_refused(self, files, capsys):
        rc, _, _ = run(capsys, "isom", "decompose", "--p", "2", "--in", files["mat.json"])
        assert rc == EXIT_PRECONDITION

    def test_periods_trivialize_sigma(self, files, capsys):
        rc, out, _ = run(capsys, "isom", "periods", "--in", files["v.json"])
        assert json.loads(out)["result"]["slots"] == {"2": [0, 1]}
        rc, out, _ = run(capsys, "isom", "trivialize", "--in", files["v.json"])
        payload = json.loads(out)
        assert rc == EXIT_OK and "gauge" in payload["result"]
        rc, out, _ = run(capsys, "isom", "sigma", "--in", files["v.json"])
        assert json.loads(out)["result"]["finite"]["2"]["points"] == [0.0, 0.5]

    def test_csv_format_refused(self, files, capsys):
        rc, out, _ = run(capsys, "isom", "periods", "--in", files["v.json"], "--format", "json")
        assert rc == EXIT_OK and json.loads(out)["config"]["format"] == "json"
        rc, out, err = run(capsys, "isom", "periods", "--in", files["v.json"], "--format", "csv")
        assert rc == EXIT_SCHEMA and out == "" and "JSON only" in err


class TestSweep:
    def test_p_grid_monotone(self, files, capsys, tmp_path):
        xi = tmp_path / "one_i2.json"
        xi.write_text(json.dumps({"n": 2, "xi": [[1, 0], [0, 1]]}))
        rc, out, _ = run(capsys, "sweep", "--kind", "zn", "--in", str(xi),
                         "--p-grid", "1:2:0.25", "--seed", "0")
        assert rc == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "p,n,lower,upper,runtime_ms"
        lows = [float(row.split(",")[2]) for row in lines[1:]]
        assert all(a >= b - 1e-9 for a, b in zip(lows, lows[1:]))
        assert lows[-1] == pytest.approx(1.0, abs=1e-9)

    def test_n_grid_converges(self, files, capsys):
        rc, out, _ = run(capsys, "sweep", "--kind", "z", "--in", files["poly.json"],
                         "--n-grid", "2,4,8,16,32", "--p", "1", "--seed", "0")
        lines = out.strip().splitlines()
        lows = [float(row.split(",")[2]) for row in lines[1:]]
        assert all(a <= b + 1e-9 for a, b in zip(lows, lows[1:]))
        assert lows[-1] == pytest.approx(2.0, rel=1e-12)

    def test_n_grid_runs_no_fpz_ascent(self, files, capsys, monkeypatch):
        import lpkit.cli as cli

        def no_ascent(*args, **kwargs):
            raise AssertionError("the n-grid sweep needs only the upper bound")

        monkeypatch.setattr(cli, "fpz_norm", no_ascent)
        poly = LaurentPolynomial(((0, 1.0), (1, 1.0)))  # poly.json
        rc, out, _ = run(capsys, "sweep", "--kind", "z", "--in", files["poly.json"],
                         "--n-grid", "2,4", "--p", "1.5", "--seed", "0")
        assert rc == EXIT_OK
        uppers = {float(row.split(",")[3]) for row in out.strip().splitlines()[1:]}
        assert uppers == {fpz_upper(poly, 1.5)}

    def test_n_grid_takes_the_seed(self, capsys, tmp_path):
        # the benchmark's span-3 polynomial (corpus seed 1001), where the start
        # blocks of seeds 0 and 1 reach different lower bounds at n = 8
        f = random_laurent(np.random.default_rng(1001), span=3, n_terms=4)
        path = tmp_path / "poly3.json"
        path.write_text(json.dumps(f.to_json()))
        at_8 = {}
        for seed in (0, 1, 7):
            rc, out, _ = run(capsys, "sweep", "--kind", "z", "--in", str(path),
                             "--n-grid", "4,8", "--p", "1.5", "--seed", str(seed))
            assert rc == EXIT_OK
            for row in out.splitlines()[1:]:
                n, lower = int(row.split(",")[1]), float(row.split(",")[2])
                assert lower == cyclic_lower(f, n, 1.5, seed=seed)
                at_8[seed] = lower
        assert at_8[0] != at_8[1]

    def test_n_grid_cap(self, files, capsys, monkeypatch):
        # an order above 16384, the cap of norm z's --n-max, is refused before any
        # ascent; 16384 itself passes the check and reaches the ascent
        import lpkit.pnorm as pnorm_mod

        def refuse(*args, **kwargs):
            raise AssertionError("an ascent")

        monkeypatch.setattr(pnorm_mod, "boyd_lower", refuse)
        args = ("sweep", "--kind", "z", "--in", files["poly.json"], "--p", "1.5", "--seed", "0")
        rc, out, err = run(capsys, *args, "--n-grid", "16385")
        assert rc == EXIT_PRECONDITION and out == ""
        assert "n must satisfy 1 <= n <= 16384" in err
        with pytest.raises(AssertionError, match="an ascent"):
            run(capsys, *args, "--n-grid", "16384")

    @pytest.mark.parametrize("tol", ["0", "nan", "inf"])
    def test_n_grid_bad_tol(self, files, capsys, tol):
        rc, out, err = run(capsys, "sweep", "--kind", "z", "--in", files["poly.json"],
                           "--n-grid", "2,4", "--p", "1.5", f"--tol={tol}", "--seed", "0")
        assert rc == EXIT_PRECONDITION and out == ""
        assert "tol must be finite and positive" in err

    def test_json_format_refused(self, files, capsys):
        args = ("sweep", "--kind", "zn", "--in", files["xi.json"], "--p-grid", "1:2:0.5",
                "--seed", "0", "--format")
        rc, out, _ = run(capsys, *args, "csv")
        assert rc == EXIT_OK and out.startswith("p,n,lower,upper,runtime_ms\n")
        rc, out, err = run(capsys, *args, "json")
        assert rc == EXIT_SCHEMA and out == "" and "CSV only" in err

    def test_empty_grid(self, files, capsys):
        rc, _, _ = run(capsys, "sweep", "--kind", "zn", "--in", files["xi.json"],
                       "--p-grid", "2:1:0.5", "--seed", "0")
        assert rc == EXIT_SCHEMA

    @pytest.mark.parametrize("grid", ["1:inf:1", "1:nan:1", "1:1e9:1e-9"])
    def test_unbounded_grid_refused(self, files, capsys, monkeypatch, grid):
        import lpkit.cli as cli

        def refuse(*args):
            raise AssertionError("the grid must be refused before any point is built")

        # the parser rounds each point it builds; refusing that keeps a
        # regression from appending until memory runs out
        monkeypatch.setattr(cli, "round", refuse, raising=False)
        rc, out, err = run(capsys, "sweep", "--kind", "zn", "--in", files["xi.json"],
                           "--p-grid", grid, "--seed", "0")
        assert rc == EXIT_SCHEMA and out == "" and "--p-grid" in err

    def test_z_p_grid(self, files, capsys):
        rc, out, _ = run(capsys, "sweep", "--kind", "z", "--in", files["poly.json"],
                         "--p-grid", "1:2:0.5", "--n-max", "8", "--seed", "0")
        assert rc == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "p,n,lower,upper,runtime_ms" and len(lines) == 4
        poly = LaurentPolynomial(((0, 1.0), (1, 1.0)))  # poly.json
        for line, p in zip(lines[1:], (1.0, 1.5, 2.0)):
            est = fpz_norm(poly, p, n_max=8, seed=0)
            assert line == f"{p:.17g},8,{est.lower:.17g},{est.upper:.17g},0"

    def test_both_grids_rejected(self, files, capsys):
        rc, _, _ = run(capsys, "sweep", "--kind", "z", "--in", files["poly.json"],
                       "--p-grid", "1:2:0.5", "--n-grid", "2,4", "--seed", "0")
        assert rc == EXIT_SCHEMA


# command lines that name a missing or surplus option, and the message each refusal gives
_SCHEMA_REFUSALS = [
    (("norm", "sigma", "--p", "1", "--in", "conf.json"), "norm sigma needs --poly"),
    (("norm", "isometry", "--p", "1", "--in", "v.json"), "norm isometry needs --poly"),
    (("config", "leq", "--in", "conf.json"), "config leq needs exactly two --in files"),
    (("config", "equiv", "--in", "conf.json"), "config equiv needs exactly two --in files"),
    (("config", "saturate", "--in", "conf.json", "--in", "conf_a.json"),
     "config saturate needs exactly one --in file"),
    (("config", "classify", "--p", "3", "--in", "conf.json", "--in", "conf_a.json"),
     "config classify needs exactly one --in file"),
    (("config", "classify", "--in", "conf.json"), "config classify needs --p"),
    (("isom", "decompose", "--in", "mat.json"), "isom decompose needs --p"),
    (("sweep", "--kind", "zn", "--in", "xi.json", "--n-grid", "2,4", "--seed", "0"),
     "sweep zn varies p; use --p-grid"),
    (("sweep", "--kind", "z", "--in", "poly.json", "--n-grid", "2,4", "--seed", "0"),
     "sweep z over --n-grid needs --p"),
]


@pytest.mark.parametrize("argv,message", _SCHEMA_REFUSALS,
                         ids=[" ".join(argv[:2]) + f"-{i}"
                              for i, (argv, _) in enumerate(_SCHEMA_REFUSALS)])
def test_schema_refusal(files, capsys, argv, message):
    rc, out, err = run(capsys, *(files.get(a, a) for a in argv))
    assert rc == EXIT_SCHEMA and out == ""
    assert err == f"error: {message}\n"


_V = {"weights": [1, 1], "h": [[1, 0], [1, 0]], "T": [1, 0]}
_ARC = {"points": [], "arcs": [[0.1, 0.15], [0.6, 0.65]]}


# flags that are not JSON booleans (nor "full"/"empty" for infinity), integer fields that
# are booleans or fractions, real fields and angles that are booleans or strings, complex
# fields that are not [re, im] pairs, configurations that are not JSON objects and degree
# spans too wide to solve: each is refused, never read as some other value
@pytest.mark.parametrize("command,obj,message", [
    pytest.param("config classify --p 3", {"finite": {}, "infinity": "full", "maximal": "false"},
                 "'maximal' must be true or false, got 'false'", id="maximal-string"),
    pytest.param("config classify --p 3", {"finite": {}, "infinity": "full", "maximal": 0},
                 "'maximal' must be true or false, got 0", id="maximal-int"),
    pytest.param("config saturate", {"finite": {"2": _ARC}, "infinity": "Full"},
                 "'infinity' must be \"full\" or \"empty\", got 'Full'", id="infinity-case"),
    pytest.param("config saturate", {"finite": {"2": _ARC}, "infinity": True},
                 "'infinity' must be \"full\" or \"empty\", got True", id="infinity-bool"),
    pytest.param("config saturate", {"finite": {"2": {**_ARC, "full": "false"}}},
                 "'full' must be true or false, got 'false'", id="full-string"),
    pytest.param("isom sigma", {**_V, "aperiodic": "false"},
                 "'aperiodic' must be true or false, got 'false'", id="aperiodic-string"),
    pytest.param("isom periods", {**_V, "aperiodic": 1},
                 "'aperiodic' must be true or false, got 1", id="aperiodic-int"),
    pytest.param("config saturate", [], "bad configuration", id="config-list"),
    pytest.param("config saturate", {"finite": {"2": 5}}, "bad configuration", id="slot-int"),
    pytest.param("norm z --p 1", {"terms": [{"m": 0, "a": [1, 0]}, {"m": 1.5, "a": [1, 0]}]},
                 "'m' must be an integer, got 1.5", id="m-fraction"),
    pytest.param("config saturate", {"finite": {"1": {"points": [True]}}},
                 "an angle must be a number, got True", id="angle-bool"),
    pytest.param("norm zn --p 1", {"n": True, "xi": [[1, 0]]},
                 "'n' must be an integer, got True", id="n-bool"),
    pytest.param("isom periods", {**_V, "T": [1, 0.5]},
                 "'T[1]' must be an integer, got 0.5", id="T-fraction"),
    pytest.param("isom periods", {**_V, "T": [True, False]},
                 "'T[0]' must be an integer, got True", id="T-bool"),
    pytest.param("norm z --p 1", {"terms": [{"m": 0, "a": [True, False]}, {"m": 1, "a": [1, 0]}]},
                 "'a' must be a number, got True", id="a-bool"),
    pytest.param("norm z --p 1", {"terms": [{"m": 0, "a": [1, 0, 5]}]},
                 "'a' must be an [re, im] pair, got [1, 0, 5]", id="a-three"),
    pytest.param("norm z --p 1", {"terms": [{"m": 0, "a": [10**400, 0]}]},
                 "'a' must be a number, got 1000", id="a-huge-int"),
    pytest.param("norm zn --p 1", {"n": 1, "xi": [[True, False]]},
                 "'xi' must be a number, got True", id="xi-bool"),
    pytest.param("isom periods", {**_V, "weights": ["1", True]},
                 "'weights' must be a number, got '1'", id="weights-string"),
    pytest.param("isom periods", {**_V, "h": [[True, False], [1, 0]]},
                 "'h' must be a number, got True", id="h-bool"),
    pytest.param("config saturate", {"finite": {"1": {"points": ["0.25"]}}},
                 "an angle must be a number, got '0.25'", id="angle-string"),
    pytest.param("config saturate", {"finite": {"1": {"arcs": [["0.1", 0.2]]}}},
                 "an angle must be a number, got '0.1'", id="arc-end-string"),
    pytest.param("isom decompose --p 3", {"weights": [1], "matrix": [[[True, 0]]]},
                 "'matrix' must be a number, got True", id="matrix-bool"),
    # sup_exact's companion matrix is (2 span)^2: 5 s and 68 MB at span 512, 4x that at 1024
    pytest.param("norm z --p 1.5 --seed 0",
                 {"terms": [{"m": 0, "a": [1, 0]}, {"m": 1025, "a": [1, 0]}]},
                 "the degree span must be at most 1024, got 1025", id="span"),
    # raw text: json.load refuses an integer past Python's 4,300-digit conversion limit
    pytest.param("norm z --p 1", '{"terms": [{"m": 0, "a": [' + "1" * 5000 + ', 0]}]}',
                 "integer string conversion", id="a-5000-digits"),
])
def test_malformed_flags_are_schema_errors(capsys, tmp_path, monkeypatch, command, obj, message):
    def refuse(*args, **kwargs):
        raise AssertionError("solved a malformed input")

    monkeypatch.setattr(zline, "sup_exact", refuse)
    path = tmp_path / "in.json"
    raw = isinstance(obj, str)
    path.write_text(obj if raw else json.dumps(obj))
    rc, out, err = run(capsys, *command.split(), "--in", str(path))
    assert rc == EXIT_SCHEMA and out == ""
    assert err.startswith("error: cannot parse " if raw else "error: bad ") and message in err


def test_json_flags_read_as_booleans(capsys, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"finite": {"2": {**_ARC, "full": True}}, "maximal": False}))
    rc, out, _ = run(capsys, "config", "classify", "--p", "3", "--in", str(path))
    assert rc == EXIT_OK and json.loads(out)["result"] == {
        "kind": "continuous", "order": 2, "isometric_to_sup": False}
    path.write_text(json.dumps({**_V, "aperiodic": True}))
    rc, out, _ = run(capsys, "isom", "sigma", "--in", str(path))
    assert rc == EXIT_OK and json.loads(out)["result"]["infinity"] == "full"


def test_long_cycle_sigma_accepted(files, capsys, tmp_path):
    # the 25th roots of this phase snap to fractions, and a root and the exact
    # rotation of its neighbour can snap to unequal ones (729177/947092 against
    # 14826628/19257575); the slot must still read as rotation invariant
    phase = 2.0 * math.pi * 0.24778690982599533
    path = tmp_path / "cycle25.json"
    path.write_text(json.dumps({"weights": [1] * 25, "T": [(i + 1) % 25 for i in range(25)],
                                "h": [[math.cos(phase), math.sin(phase)]] + [[1, 0]] * 24}))
    rc, out, _ = run(capsys, "isom", "sigma", "--in", str(path))
    assert rc == EXIT_OK and len(json.loads(out)["result"]["finite"]["25"]["points"]) == 25
    rc, out, _ = run(capsys, "norm", "isometry", "--p", "1", "--mode", "both", "--in", str(path),
                     "--poly", files["poly.json"])
    assert rc == EXIT_OK and json.loads(out)["overlap"] is True


def test_integral_numbers_read_as_integers(capsys, tmp_path):
    # 2.0 is a JSON integer field's value 2, so it answers as the integer does
    path = tmp_path / "in.json"
    for command, obj, as_float in (
            ("norm z --p 1", {"terms": [{"m": 0, "a": [1, 0]}, {"m": 2, "a": [1, 0]}]},
             {"terms": [{"m": 0.0, "a": [1, 0]}, {"m": 2.0, "a": [1, 0]}]}),
            ("norm zn --p 1", {"n": 2, "xi": [[1, 0], [0, 1]]},
             {"n": 2.0, "xi": [[1, 0], [0, 1]]}),
            ("isom periods", _V, {**_V, "T": [1.0, 0.0]})):
        outs = []
        for data in (obj, as_float):
            path.write_text(json.dumps(data))
            rc, out, _ = run(capsys, *command.split(), "--in", str(path))
            assert rc == EXIT_OK
            outs.append(out)
        assert outs[0] == outs[1]


class TestDeterminism:
    def test_byte_identical_outputs(self, files, capsys):
        args = ("norm", "isometry", "--p", "3", "--mode", "both", "--in", files["v.json"],
                "--poly", files["poly.json"], "--seed", "11")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        args = ("sweep", "--kind", "zn", "--in", files["xi.json"],
                "--p-grid", "1:3:0.5", "--seed", "3")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_out_file(self, files, capsys, tmp_path):
        target = tmp_path / "result.json"
        rc, out, _ = run(capsys, "norm", "zn", "--p", "1", "--in", files["xi.json"],
                         "--out", str(target))
        assert rc == EXIT_OK and out == ""
        assert json.loads(target.read_text())["method"] == "exact-p1"

    def test_no_threads_knob(self, files, capsys, monkeypatch):
        args = ("norm", "isometry", "--p", "3", "--mode", "both", "--in", files["v.json"],
                "--poly", files["poly.json"], "--seed", "11")
        monkeypatch.delenv("LPKIT_THREADS", raising=False)
        _, out1, _ = run(capsys, *args)
        assert "threads_cap" not in json.loads(out1)["config"]
        monkeypatch.setenv("LPKIT_THREADS", "7")
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_dumps_17_digits(self):
        s = dumps({"x": 1 / 3, "y": [True, None, 7]})
        assert s == '{"x":0.33333333333333331,"y":[true,null,7]}'


def test_import_loads_no_scipy():
    # lpkit's only runtime dependency is numpy; each CLI call pays for every import
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, lpkit.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert proc.stdout.strip() == "[]"


def test_bench_tracer_sites_resolve(monkeypatch):
    # the benchmark's traced run patches every (module, attribute) site in
    # bench/tracing.py's SITES and stops at a missing one; a refactor that drops
    # a bound name fails here by name.  The file is loaded, never written to
    import importlib
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("lpkit_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    sites = [site for sites in tracing.SITES.values() for site in sites]
    assert sites
    missing = [(module, attr) for module, attr in sites
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
