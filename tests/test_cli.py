"""End-to-end command line behavior through dispatch().

Covers the documented exit-code contract (0 success, 1 domain error
with JSON on stderr, 2 usage error), environment-variable overrides
and their precedence below explicit flags, each global flag taken only
by the subcommands that read it (and the README table saying which),
format selection, the one output path every subcommand shares (csv only
for census, --out bytes equal to stdout bytes, one final newline), and
the byte-identical-output guarantee for repeated identical configs.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from rootcensus.cli import _GLOBAL_FLAGS, build_parser, dispatch


def _run(capsys, argv):
    code = dispatch(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def _run_json(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


# -- exit code contract ---------------------------------------------------------


def test_domain_error_exit_1_with_json_stderr(capsys):
    code, out, err = _run(capsys, ["roots", "--poly", "0,0"])
    assert code == 1
    blob = json.loads(err)
    assert blob["error"] == "ZeroPolynomial"
    assert blob["message"]


def test_usage_error_exit_2(capsys):
    assert dispatch(["roots"]) == 2  # --poly is required
    assert dispatch(["bogus-subcommand"]) == 2
    assert dispatch([]) == 2
    capsys.readouterr()


def test_bad_coefficient_string_exit_1(capsys):
    code, _, err = _run(capsys, ["classify", "--poly", "1,x,3"])
    assert code == 1
    assert json.loads(err)["error"] == "BadParameters"


# -- roots ------------------------------------------------------------------------


def test_roots_output_shape(capsys):
    blob = _run_json(capsys, ["roots", "--poly", "1,0,-2"])
    assert blob["status"] == "CERTIFIED"
    assert blob["config"]["format"] == "json"
    assert "version" in blob
    disks = blob["roots"]
    assert len(disks) == 2
    assert sorted(d["multiplicity"] for d in disks) == [1, 1]
    assert all(d["is_real"] for d in disks)
    res = sorted(d["center_re"] for d in disks)
    assert abs(res[0] + 2**0.5) < 1e-9 and abs(res[1] - 2**0.5) < 1e-9


def test_roots_beyond_the_double_range(capsys):
    # X^2 + 10^400 X + 1: roots near -10^400 and -10^-400, whose disk
    # values a double cannot hold, print as 17-digit decimal strings
    blob = _run_json(capsys, ["roots", "--poly", "1,%d,1" % 10**400])
    assert blob["status"] == "CERTIFIED"
    disks = sorted(blob["roots"], key=lambda d: float(d["center_re"]))
    assert [d["center_re"] for d in disks] == ["-1.0000000000000000E+400", "-1.0000000000000000E-400"]
    assert all(d["is_real"] and d["multiplicity"] == 1 for d in disks)


# -- classify --------------------------------------------------------------------------


def test_classify_profile_known(capsys):
    blob = _run_json(capsys, ["classify", "--poly", "1,0,1", "--profile"])
    assert blob["k_max"] == 2 and blob["k_min"] == 2
    assert blob["dominant"] is False


def test_classify_all_sections(capsys):
    blob = _run_json(capsys, ["classify", "--poly", "1,0,-5,0,4", "--all"])
    assert (blob["r"], blob["s"]) == (4, 0)
    assert blob["irreducible"] is False
    got = {(f["coeffs"], f["multiplicity"]) for f in blob["factors"]}
    assert got == {("1,-2", 1), ("1,-1", 1), ("1,1", 1), ("1,2", 1)}
    assert blob["multiplicative_relation"] is True  # 1*(-2) = (-1)*2


def test_classify_default_is_all(capsys):
    a = _run_json(capsys, ["classify", "--poly", "1,1,1"])
    b = _run_json(capsys, ["classify", "--poly", "1,1,1", "--all"])
    a.pop("runtime_seconds", None)
    b.pop("runtime_seconds", None)
    assert a == b


def test_classify_sn_verdicts(capsys):
    blob = _run_json(capsys, ["classify", "--poly", "1,0,-1,-1", "--sn"])
    assert blob["sn_verdict"] == "CERTIFIED_SN"
    assert blob["sn_witnesses"]
    blob = _run_json(capsys, ["classify", "--poly", "1,0,-1", "--sn"])
    assert blob["sn_verdict"] == "UNDECIDED"  # reducible: no certificate
    blob = _run_json(capsys, ["classify", "--poly", "2,2", "--sn"])
    assert (blob["sn_verdict"], blob["sn_witnesses"]) == ("CERTIFIED_SN", [])  # S_1


# -- census ------------------------------------------------------------------------------


def test_census_monic_known(capsys):
    blob = _run_json(
        capsys, ["census", "--n", "2", "--height", "1", "--monic", "--counters", "A"]
    )
    assert blob["counters"]["A"] == {"1": 4, "2": 5}
    assert blob["totals"] == 9


@pytest.mark.parametrize(
    "spelling,monic,family",
    [
        ("E", True, "E_upper"),
        ("e", True, "E_upper"),
        ("E_upper", False, "E_upper"),
        ("a", True, "A"),
        ("a*", False, "A*"),
        ("Astar", False, "A*"),
        ("dstar", False, "D*"),
        ("b*", False, "B*"),
        ("rho", True, "rho"),
        ("rho*", False, "rho*"),
        ("RHOstar", False, "rho*"),
    ],
    ids=["E", "e", "E_upper", "a", "a-asterisk", "Astar", "dstar", "b-asterisk", "rho",
         "rho-asterisk", "RHOstar"],
)
def test_census_counter_alias_E(capsys, spelling, monic, family):
    argv = ["census", "--n", "2", "--height", "1", "--counters", spelling]
    blob = _run_json(capsys, argv + (["--monic"] if monic else []))
    assert family in blob["counters"]
    assert len(blob["config"]["counters"]) == 1


def test_census_duplicate_counters_recorded_once(capsys):
    blob = _run_json(capsys, ["census", "--n", "2", "--height", "1", "--counters", "A*,a*,Astar"])
    assert blob["config"]["counters"] == ["A*"]
    assert blob["spec"]["counters"] == ["A*"]


def test_census_csv(capsys):
    code, out, _ = _run(
        capsys,
        ["census", "--n", "2", "--height", "1", "--monic", "--counters", "A",
         "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,H,family,label,count"
    assert '2,1,A,"1",4' in lines


def test_census_byte_identical_runs(capsys):
    argv = ["census", "--n", "2", "--height", "2", "--counters", "A*"]
    _, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    strip = lambda s: [l for l in s.split("\n") if "runtime_seconds" not in l]
    assert strip(out1) == strip(out2)


def test_census_out_file(capsys, tmp_path):
    path = tmp_path / "table.json"
    code, out, _ = _run(
        capsys,
        ["census", "--n", "2", "--height", "1", "--monic", "--counters", "A",
         "--out", str(path)],
    )
    assert code == 0 and out == ""
    blob = json.loads(path.read_text())
    assert blob["counters"]["A"] == {"1": 4, "2": 5}


# -- environment precedence -------------------------------------------------------------------


def test_env_sets_format(capsys, monkeypatch):
    monkeypatch.setenv("ROOTCENSUS_FORMAT", "csv")
    code, out, _ = _run(
        capsys, ["census", "--n", "2", "--height", "1", "--monic", "--counters", "A"]
    )
    assert code == 0
    assert out.startswith("n,H,family,label,count")


def test_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("ROOTCENSUS_FORMAT", "csv")
    blob = _run_json(
        capsys,
        ["census", "--n", "2", "--height", "1", "--monic", "--counters", "A",
         "--format", "json"],
    )
    assert blob["config"]["format"] == "json"


def test_env_seed_recorded_in_config(capsys, monkeypatch):
    monkeypatch.setenv("ROOTCENSUS_SEED", "99")
    blob = _run_json(
        capsys,
        ["generate", "--family", "theorem31", "--n", "2", "--height", "30",
         "--count", "5"],
    )
    assert blob["config"]["seed"] == 99


# -- generate -----------------------------------------------------------------------------------


def test_generate_theorem31_count(capsys):
    blob = _run_json(
        capsys,
        ["generate", "--family", "theorem31", "--n", "2", "--height", "100",
         "--count", "1000"],
    )
    assert blob["count"] == 380
    assert all("," in m for m in blob["members"])


def test_generate_text_format_is_plain_lines(capsys):
    code, out, _ = _run(
        capsys,
        ["generate", "--family", "theorem31", "--n", "2", "--height", "30",
         "--count", "4", "--format", "text"],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4
    for line in lines:
        parts = line.split(",")
        assert parts[0] == "1" and len(parts) == 3


def test_generate_near_target_with_validation(capsys):
    blob = _run_json(
        capsys,
        ["generate", "--family", "near-target", "--target", "0,1;0,-1",
         "--height", "40", "--count", "25", "--validate", "b*=2,2"],
    )
    assert blob["count"] == 25
    assert blob["validation"]["pass_fraction"] == 1.0


def test_generate_validate_predicates(capsys):
    blob = _run_json(
        capsys,
        ["generate", "--family", "a3star3", "--n", "3", "--height", "5",
         "--count", "20", "--validate", "k_max=3"],
    )
    assert blob["validation"]["pass_fraction"] == 1.0
    code, _, err = _run(
        capsys,
        ["generate", "--family", "a3star3", "--n", "3", "--height", "5",
         "--validate", "nonsense=1"],
    )
    assert code == 1
    assert json.loads(err)["error"] == "BadParameters"


def test_generate_validate_irreducible_reads_degree_cap(capsys):
    # degree 9 is above the default cap of 8; the first member is
    # irreducible and the second is not
    blob = _run_json(
        capsys,
        ["generate", "--family", "theorem31", "--n", "9", "--height", "4",
         "--count", "2", "--validate", "irreducible", "--degree-cap", "10"],
    )
    assert blob["config"]["degree_cap"] == 10
    assert blob["validation"]["pass_fraction"] == 0.5


def test_generate_near_target_needs_target(capsys):
    code, _, err = _run(
        capsys, ["generate", "--family", "near-target", "--height", "40"]
    )
    assert code == 1
    assert json.loads(err)["error"] == "BadParameters"


_A3STAR3 = ["generate", "--family", "a3star3", "--n", "3", "--height", "5", "--count", "3"]


@pytest.mark.parametrize(
    "argv",
    [
        _A3STAR3 + ["--validate", "k_max=abc"],
        _A3STAR3 + ["--validate", "b*=1,x"],
        _A3STAR3 + ["--validate", "r="],
        ["generate", "--family", "theorem31", "--n", "2", "--height", "5", "--count", "-1"],
        ["generate", "--family", "a3star3", "--height", "5", "--count", "-1"],
        ["generate", "--family", "x3plus8", "--height", "5", "--count", "-1"],
        ["generate", "--family", "near-target", "--target", "0,1;0,-1", "--height", "40",
         "--count", "-1"],
    ],
    ids=["k_max", "b*", "r", "count-theorem31", "count-a3star3", "count-x3plus8", "count-near-target"],
)
def test_generate_bad_numbers_are_domain_errors(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "BadParameters"


def test_unwritable_out_is_a_domain_error(capsys, tmp_path):
    path = tmp_path / "missing" / "o.json"
    code, out, err = _run(capsys, ["roots", "--poly", "1,0,-2", "--out", str(path)])
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "BadParameters"


def test_unwritable_checkpoint_is_a_domain_error(capsys, tmp_path):
    path = tmp_path / "missing" / "x.ckpt"
    code, out, err = _run(capsys, ["census", "--n", "2", "--height", "1", "--checkpoint", str(path)])
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "CheckpointCorrupt"


# -- fit ------------------------------------------------------------------------------------------


def test_fit_points(capsys):
    blob = _run_json(capsys, ["fit", "--points", "10:100,20:400,40:1600"])
    assert abs(blob["slope"] - 2.0) < 1e-9
    assert blob["residual"] < 1e-9
    assert len(blob["points"]) == 3


def test_fit_tables(capsys, tmp_path):
    paths = []
    for h in (1, 2, 3):
        code, out, _ = _run(
            capsys, ["census", "--n", "2", "--height", str(h), "--counters", "A*"]
        )
        assert code == 0
        p = tmp_path / ("t%d.json" % h)
        p.write_text(out)
        paths.append(str(p))
    blob = _run_json(
        capsys,
        ["fit", "--tables", *paths, "--family", "A*", "--label", "1"],
    )
    assert len(blob["points"]) == 3
    assert 2.0 < blob["slope"] < 3.5


def test_fit_too_few_points(capsys):
    # two points, or three at one height, which leave the slope undetermined
    for points in ("10:100,20:400", "2:1,2:2,2:3"):
        code, out, err = _run(capsys, ["fit", "--points", points])
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "InsufficientPoints"


# -- verify ------------------------------------------------------------------------------------------


def test_verify_single_criterion(capsys):
    blob = _run_json(capsys, ["verify", "--suite", "quick", "--criteria", "1"])
    assert len(blob["results"]) == 1
    assert blob["results"][0]["status"] == "PASS"
    assert blob["suite_exit"] == 0


def test_verify_text_format(capsys):
    code, out, _ = _run(
        capsys, ["verify", "--suite", "quick", "--criteria", "1,9", "--format", "text"]
    )
    assert code == 0
    assert "PASS" in out


# -- one output path -----------------------------------------------------------------------------------

_INVOCATIONS = {
    "roots": ["roots", "--poly", "1,0,-2"],
    "classify": ["classify", "--poly", "1,0,-5,0,4"],
    "census": ["census", "--n", "2", "--height", "1", "--monic", "--counters", "A"],
    "generate": ["generate", "--family", "theorem31", "--n", "2", "--height", "30",
                 "--count", "4", "--validate", "r=2"],
    "fit": ["fit", "--points", "10:100,20:400,40:1600"],
    "verify": ["verify", "--suite", "quick", "--criteria", "1"],
}


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
@pytest.mark.parametrize("subcommand", list(_INVOCATIONS))
def test_one_output_path(capsys, monkeypatch, tmp_path, subcommand, fmt):
    # runtimes read 0, so two runs of one invocation agree byte for byte
    monkeypatch.setattr(time, "perf_counter", lambda: 0.0)
    argv = _INVOCATIONS[subcommand] + ["--format", fmt]
    code, out, err = _run(capsys, argv)
    if fmt == "csv" and subcommand != "census":
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "BadParameters",
            "message": "%s output has no csv form; use json or text" % subcommand,
        }
        return
    assert (code, err) == (0, "")
    assert out.endswith("\n") and not out.endswith("\n\n")
    path = tmp_path / "out"
    assert _run(capsys, argv + ["--out", str(path)]) == (0, "", "")
    if fmt == "json":  # the echoed configuration names the output
        out = out.replace('"out": "-"', '"out": %s' % json.dumps(str(path)))
    assert path.read_bytes() == out.encode("utf-8")


@pytest.mark.parametrize(
    "argv",
    [
        ["roots", "--poly", "7"],  # degree 0
        ["classify", "--poly", "7"],
        ["generate", "--family", "theorem31", "--height", "4", "--count", "1000000"],  # no --n
        ["fit", "--points", "10:100"],  # too few points
        ["verify", "--criteria", "99"],  # no such criterion
    ],
    ids=lambda argv: argv[0],
)
def test_format_is_refused_first(capsys, argv):
    # an invocation wrong in two ways reports the csv refusal, before any work
    code, out, err = _run(capsys, argv + ["--format", "csv"])
    assert (code, out) == (1, "")
    assert json.loads(err)["message"] == "%s output has no csv form; use json or text" % argv[0]


# -- global flags only where read ------------------------------------------------------------------

# the global flags each subcommand reads besides --format and --out, and
# a value for each that differs from its default and suits every reader
_READS = {
    "roots": {"--precision-cap"},
    "classify": {"--degree-cap"},
    "census": {"--jobs", "--degree-cap"},
    "generate": {"--seed", "--degree-cap"},
    "fit": set(),
    "verify": {"--jobs"},
}
_VALUES = {"--jobs": 2, "--precision-cap": 256, "--degree-cap": 9, "--seed": 5}


@pytest.mark.parametrize("flag", list(_VALUES))
@pytest.mark.parametrize("subcommand", list(_INVOCATIONS))
def test_global_flag_only_where_read(capsys, monkeypatch, subcommand, flag):
    argv = _INVOCATIONS[subcommand]
    key = flag[2:].replace("-", "_")
    env = "ROOTCENSUS_" + key.upper()
    if flag in _READS[subcommand]:
        value = _VALUES[flag]
        assert _run_json(capsys, argv + [flag, str(value)])["config"][key] == value
        monkeypatch.setenv(env, str(value))
        assert _run_json(capsys, argv)["config"][key] == value
    else:
        code, out, err = _run(capsys, argv + [flag, "2"])
        assert (code, out) == (2, "")
        assert "unrecognized arguments: %s 2" % flag in err
        monkeypatch.setenv(env, "not-a-number")  # ignored, so never parsed
        assert key not in _run_json(capsys, argv)["config"]


def test_unread_flag_is_reported_by_the_subcommand(capsys):
    code, out, err = _run(capsys, ["roots", "--poly", "1,0,-2", "--seed", "3"])
    assert (code, out) == (2, "")
    # the usage shown is that of roots, with the flags roots does take
    assert err.startswith("usage: rootcensus roots ")
    assert "--precision-cap" in err
    assert err.rstrip("\n").endswith("rootcensus roots: error: unrecognized arguments: --seed 3")


def test_readme_flag_table_matches_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    documented = {name: set() for name in subparsers}
    for row in re.findall(r"^\| (`--.*?) \| (.*?) \|$", section, re.M):
        flags = re.findall(r"`(--[a-z-]+)`", row[0])
        readers = subparsers if row[1] == "every subcommand" else re.findall(r"`([a-z]+)`", row[1])
        for name in readers:
            documented[name].update(flags)
    table_flags = set().union(*documented.values())
    assert table_flags == {"--" + f.replace("_", "-") for f in _GLOBAL_FLAGS}
    registered = {
        name: {opt for a in p._actions for opt in a.option_strings} & table_flags
        for name, p in subparsers.items()
    }
    assert documented == registered


def test_readme_counter_table_matches_census():
    from rootcensus import census

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n### Census counters\n", 1)[1].split("\n### ", 1)[0]
    documented = {}
    for names, boxes in re.findall(r"^\| (`.*?) \| (.*?) \|", section, re.M):
        names, _, aliases = names.partition("(alias")
        names, boxes = re.findall(r"`([^`]+)`", names), boxes.split(" / ")
        assert len(names) == len(boxes), names
        for name, box in zip(names, boxes):
            documented[name] = (box, tuple(re.findall(r"`([^`]+)`", aliases)))
    box = {True: "monic", False: "full", None: "either"}
    assert documented == {name: (box[c.monic], c.aliases) for name, c in census._COUNTERS.items()}
    # the --engine auto paragraph names exactly the counters the vector
    # engine takes
    auto = re.search(r"`--engine auto` .*? vector engine for (.*?), the counters", section, re.S)
    vector = {
        name for name, c in census._COUNTERS.items()
        if census._vector_ok(census.CensusSpec(n=2, height=1, monic=c.monic is True, counters=(name,)))
    }
    assert set(re.findall(r"`([^`]+)`", auto.group(1))) == vector


# -- console script ------------------------------------------------------------------------------------


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "rootcensus.cli", "classify", "--poly", "1,0,1",
         "--profile"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["k_max"] == 2
