import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mumford_heat
from mumford_heat.cli import main
from mumford_heat.config import (ParseError, ValidationError, bundled_fixture,
                                 config_from_dict, emit_config, format_rational,
                                 parse_config, profile_dict)
from mumford_heat.heat import sample_paths
from mumford_heat.operator import generator_matrix, tail_bound
from mumford_heat.schottky import DomainInvalid, verify_fundamental_domain


@pytest.fixture(scope="module")
def tate_path():
    return bundled_fixture("tate-p3")


@pytest.fixture(scope="module")
def tate_run(tate_path):
    return parse_config(tate_path)


def test_bundled_fixture_parses(tate_run):
    assert tate_run.operator.group.genus == 1
    assert tate_run.operator.p == 3
    assert tate_run.operator.profile.total_mass == F(4, 3)
    assert tate_run.operator.mode == "ambient"


def test_genus2_fixture_parses():
    run = parse_config(bundled_fixture("genus2-p3"))
    assert run.operator.group.genus == 2
    assert run.operator.profile.total_mass == F(4, 9)
    assert run.operator.cutoff_len == 8


def test_round_trip(tate_run):
    again = config_from_dict(emit_config(tate_run))
    assert again.operator == tate_run.operator
    assert again.run == tate_run.run


def test_round_trip_keeps_both_cutoff_fields():
    raw = json.loads(bundled_fixture("genus2-p3").read_text())
    raw["operator"]["cutoff"] = {"len": 4, "tol": "1/100"}
    run = config_from_dict(raw)
    assert (run.operator.cutoff_len, run.operator.cutoff_tol) == (4, F(1, 100))
    assert emit_config(run)["operator"]["cutoff"] == {"len": 4, "tol": "1/100"}
    again = config_from_dict(emit_config(run))
    assert again.operator == run.operator
    assert again.run == run.run


def test_missing_file():
    with pytest.raises(ParseError):
        parse_config("/nonexistent/config.json")


def test_bad_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        parse_config(bad)


def test_growth_condition_violation(tate_path):
    raw = json.loads(bundled_fixture("genus2-p3").read_text())
    raw["operator"]["alpha_g"] = "1"
    with pytest.raises(ValidationError) as err:
        config_from_dict(raw)
    assert "growth condition" in str(err.value)


def test_irrational_zero_rejected(tate_path):
    raw = json.loads(tate_path.read_text())
    raw["measure"]["datum"]["factors"] = [
        {"coeffs": ["-3", "0", "1"], "multiplicity": 1}]
    with pytest.raises(ValidationError) as err:
        config_from_dict(raw)
    assert "rational points" in str(err.value)


def test_floats_rejected_in_rational_fields(tate_path):
    raw = json.loads(tate_path.read_text())
    raw["operator"]["alpha"] = 1.5
    with pytest.raises(ValidationError):
        config_from_dict(raw)


def test_corrupt_pairing_rejected(tate_path):
    raw = json.loads(tate_path.read_text())
    raw["group"]["holes"] = list(reversed(raw["group"]["holes"]))
    with pytest.raises(ValidationError):
        config_from_dict(raw)


class TestCli:
    def test_validate(self, tate_path, tmp_path):
        assert main(["validate", "-c", str(tate_path), "-o", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "validation.json").read_text())
        assert payload["domain"]["holes_disjoint"]
        assert payload["measure"]["total_mass"] == "4/3"
        assert payload["meta"]["config_hash"]

    def test_validation_exit_code(self, tate_path, tmp_path):
        raw = json.loads(tate_path.read_text())
        raw["operator"]["alpha_g"] = "-1"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["validate", "-c", str(bad), "-o", str(tmp_path)]) == 2

    def test_spectrum_contains_worked_value(self, tate_path, tmp_path):
        assert main(["spectrum", "-c", str(tate_path), "--level", "2",
                     "-o", str(tmp_path)]) == 0
        text = (tmp_path / "spectrum.csv").read_text()
        assert "15/26" in text
        assert "# config_hash=" in text and "# tail_bound=" in text
        header = [l for l in text.splitlines() if l.startswith("radius_exp")]
        assert header == ["radius_exp,density,lambda_formula,lambda_exact_lo,"
                          "lambda_exact_hi,multiplicity,n_witness_discs"]

    def test_cutoff_flag_replaces_the_config_cutoff(self, tmp_path):
        g2 = bundled_fixture("genus2-p3")  # its config pins "len": 8

        def validate(name, *flags):
            out = tmp_path / name
            assert main(["validate", "-c", str(g2), *flags, "-o", str(out)]) == 0
            return json.loads((out / "validation.json").read_text())

        tol = validate("tol", "--cutoff-tol", "1/100")
        assert tol["meta"]["cutoff_len"] == 6
        op = parse_config(g2).operator_config(cutoff_tol=F(1, 100))
        assert tail_bound(op, 6) <= F(1, 100) < tail_bound(op, 5)
        assert tol["config"]["operator"]["cutoff"] == {"len": 8}  # the file's
        both = validate("both", "--cutoff-len", "5", "--cutoff-tol", "1/100")
        assert both["meta"]["cutoff_len"] == 5

    def test_evolve_indicator(self, tate_path, tmp_path):
        assert main(["evolve", "-c", str(tate_path), "--initial", "indicator",
                     "-o", str(tmp_path)]) == 0
        lines = (tmp_path / "evolution.csv").read_text().splitlines()
        rows: dict[float, list[float]] = {}
        for line in lines[lines.index("t,state_index,value") + 1:]:
            t, _, value = line.split(",")
            rows.setdefault(float(t), []).append(float(value))
        start = parse_config(tate_path).run.start_state
        initial = rows.pop(0.0)
        assert initial == [float(i == start) for i in range(len(initial))]
        assert rows and all(0 <= v <= 1 for row in rows.values() for v in row)

    def test_sample_determinism(self, tate_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["sample", "-c", str(tate_path), "--paths", "200", "--seed", "42"]
        assert main(args + ["-o", str(out1)]) == 0
        assert main(args + ["-o", str(out2)]) == 0
        assert (out1 / "paths.csv").read_bytes() == (out2 / "paths.csv").read_bytes()
        different = main(["sample", "-c", str(tate_path), "--paths", "200",
                          "--seed", "43", "-o", str(out2)])
        assert different == 0
        assert (out1 / "paths.csv").read_bytes() != (out2 / "paths.csv").read_bytes()

    def test_paths_csv_matches_per_row_formatting(self, tate_path, tmp_path):
        # the per-row f-string writer that the columnar writer replaced
        n_paths, seed = 1500, 5  # more than one lockstep chunk
        assert main(["sample", "-c", str(tate_path), "--paths", str(n_paths),
                     "--seed", str(seed), "-o", str(tmp_path)]) == 0
        run = parse_config(tate_path)
        gen = generator_matrix(run.operator_config(), run.run.level)
        labels = [f"{i},{format_rational(d.center)},{d.radius_exp}"
                  for i, d in enumerate(gen.states)]
        oracle = []
        for path in sample_paths(gen, n_paths, max(run.run.times), seed,
                                 start_index=run.run.start_state):
            for t, s in zip((0.0, *path.jump_times.tolist()), path.states.tolist()):
                oracle.append(f"{path.path_index},{t!r},{labels[s]}")
        text = (tmp_path / "paths.csv").read_text()
        header, body = text.split("state_radius_exp\n")
        assert body == "\n".join(oracle) + "\n"
        assert header.count("\n") == 5

    def test_audit_artifacts(self, tate_path, tmp_path):
        assert main(["audit", "-c", str(tate_path), "--audit-samples", "300",
                     "-o", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "audit.json").read_text())
        names = {c["check"]: c for c in payload["checks"]}
        assert names["moebius_distance_product_identity"]["holds"]
        assert not names["disc_distance_word_shift"]["holds"]
        pair = [(i["lhs"], i["rhs"])
                for i in names["disc_distance_word_shift"]["examples"]]
        assert ("1/9", "1") in pair

    def test_evolve_and_resolvent(self, tate_path, tmp_path):
        assert main(["evolve", "-c", str(tate_path), "-o", str(tmp_path)]) == 0
        lines = (tmp_path / "evolution.csv").read_text().splitlines()
        assert "t,state_index,value" in lines
        assert main(["resolvent", "-c", str(tate_path), "--eta", "2",
                     "-o", str(tmp_path)]) == 0
        text = (tmp_path / "resolvent.csv").read_text()
        assert "# eta=2" in text

    def test_mode_flag_switches(self, tate_path, tmp_path):
        assert main(["spectrum", "-c", str(tate_path), "--level", "2",
                     "--mode", "transport", "-o", str(tmp_path)]) == 0
        assert "# mode=transport" in (tmp_path / "spectrum.csv").read_text()


BAD_INPUTS = [
    # (command, extra flags, run-section override, name in the message)
    ("sample", ["--paths", "0"], {}, "--paths"),
    ("sample", ["--paths", "-5"], {}, "--paths"),
    ("sample", [], {"paths": 0}, "run.paths"),
    ("sample", ["--seed", "-1"], {}, "--seed"),
    ("sample", [], {"seed": -3}, "run.seed"),
    ("resolvent", ["--eta", "abc"], {}, "--eta"),
    ("spectrum", ["--cutoff-tol", "xyz"], {}, "--cutoff-tol"),
    ("evolve", ["--t", "-1"], {}, "--t"),
    ("evolve", [], {"times": [0.0, -0.5]}, "run.times"),
    ("sample", [], {"paths": "abc"}, "run.paths"),
    ("sample", [], {"paths": 2.7}, "run.paths"),
    ("sample", [], {"seed": 1.5}, "run.seed"),
    ("spectrum", [], {"level": True}, "run.level"),
    ("sample", [], {"start_state": 99}, "run.start_state"),
    ("sample", [], {"start_state": -1}, "run.start_state"),
    ("sample", [], {"start_state": "0"}, "run.start_state"),
    ("resolvent", [], {"start_state": 99}, "run.start_state"),
    ("evolve", ["--initial", "indicator"], {"start_state": 99}, "run.start_state"),
    ("audit", ["--audit-samples", "0"], {}, "--audit-samples"),
    ("audit", ["--audit-samples", "-5"], {}, "--audit-samples"),
    ("spectrum", ["--cutoff-len", "-3"], {}, "--cutoff-len"),
    ("spectrum", ["--cutoff-len", "0"], {}, "--cutoff-len"),
    ("spectrum", ["--cutoff-tol", "0"], {}, "--cutoff-tol"),
    ("spectrum", ["--cutoff-tol=-1/2"], {}, "--cutoff-tol"),
    ("spectrum", ["--level", "0"], {}, "--level"),
    ("evolve", ["--level", "0"], {}, "--level"),
    ("sample", ["--level", "1"], {}, "--level"),
    ("resolvent", ["--level", "0"], {}, "--level"),
    ("validate", ["--level", "-2"], {}, "--level"),
    ("evolve", [], {"times": ["abc"]}, "run.times"),
    ("evolve", [], {"times": "2"}, "run.times"),
    ("evolve", [], {"times": [0.5, True]}, "run.times"),
    ("resolvent", [], {"times": 2}, "run.times"),
    ("evolve", ["--t", "nan"], {}, "--t"),
    ("evolve", ["--t", "0", "inf"], {}, "--t"),
    ("evolve", ["--t=-inf"], {}, "--t"),
    ("resolvent", [], {"eta": "0"}, "run.eta"),
    ("validate", [], {"eta": "-1/2"}, "run.eta"),
    ("resolvent", ["--eta", "-1"], {}, "--eta"),
    ("resolvent", ["--eta", ""], {}, "--eta"),
    # an override may name the bundled fixture it applies to (tate-p3 if
    # not): genus2-p3 has no admissible wavelet at level 2
    ("evolve", ["--level", "2"], {"fixture": "genus2-p3"}, "--level"),
    ("evolve", [], {"fixture": "genus2-p3", "level": 2}, "run.level"),
]


@pytest.mark.parametrize("command,flags,run_section,name", BAD_INPUTS)
def test_bad_inputs_exit_2(tmp_path, capsys, command, flags, run_section, name):
    run_section = dict(run_section)
    raw = json.loads(bundled_fixture(run_section.pop("fixture", "tate-p3")).read_text())
    raw["run"].update(run_section)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main([command, "-c", str(config), *flags, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("times", [[0.5, float("inf")], [float("nan")],
                                   [float("-inf"), 1.0], [10 ** 400]])
def test_run_times_must_be_finite(tate_path, times):
    # parsing only: an infinite t_max would never end the sample loop
    raw = json.loads(tate_path.read_text())
    raw["run"]["times"] = times
    with pytest.raises(ValidationError) as err:
        config_from_dict(json.loads(json.dumps(raw)))
    assert err.value.path == "run.times"


def test_integer_times_are_read_as_floats(tate_path):
    raw = json.loads(tate_path.read_text())
    raw["run"]["times"] = [0, 2, 0.5]
    assert config_from_dict(raw).run.times == (0.0, 2.0, 0.5)


def test_bad_run_eta_is_not_blamed_on_the_flag(tate_path, tmp_path, capsys):
    raw = json.loads(tate_path.read_text())
    raw["run"]["eta"] = "-1"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    assert main(["resolvent", "-c", str(config), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "run.eta" in err and "--eta" not in err


def test_resolvent_writes_plain_floats_for_irrational_rates(tate_path, tmp_path):
    raw = json.loads(tate_path.read_text())
    raw["operator"]["alpha"] = "1/2"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    assert main(["resolvent", "-c", str(config), "-o", str(tmp_path)]) == 0
    lines = (tmp_path / "resolvent.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    assert rows[0][-1] == "u" and len(rows) == 9
    assert all(float(row[-1]) > 0 for row in rows[1:])


GENUS0_SHA256 = {
    "validation.json": "1ee8d37c8bafa0380b02fbd44d0360c271832495f4bbd913bcf140c3076ca8ef",
    "spectrum.csv": "9eaa0f6ae83c43f485e1f42542457d5943a47c75a8dd558c665ca4c418574c29",
    "resolvent.csv": "62e270259ddd0adca8f1d41a226d2328201f673fb20a9ad53ce454686ce5790f",
}


def test_a_genus0_group_writes_a_zero_tail_bound(tate_path, tmp_path):
    # no words but the identity: every artifact says tail_bound=0, and the
    # exact ones keep their bytes
    raw = json.loads(tate_path.read_text())
    raw["group"] = {"generators": [], "outer": {"center": "0", "radius_exp": 0},
                    "holes": []}
    raw["measure"] = {"datum": {"scale": "1", "factors": []}, "resolution": 2}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        for command in ("validate", "spectrum", "evolve", "resolvent", "sample", "audit"):
            assert main([command, "-c", str(config), "-o", str(out)]) == 0, command
    meta = json.loads((out / "validation.json").read_text())["meta"]
    assert meta["tail_bound"] == "0"
    for name in ("spectrum.csv", "evolution.csv", "resolvent.csv"):
        assert "# tail_bound=0" in (out / name).read_text().splitlines()
    for name, digest in GENUS0_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_commands_do_not_import_scipy(tate_path, tmp_path):
    code = "\n".join([
        "import sys",
        "from mumford_heat.cli import main",
        "for command in ('validate', 'evolve', 'sample', 'resolvent'):",
        f"    argv = [command, '-c', {str(tate_path)!r}, '--level', '2',",
        f"            '-o', {str(tmp_path)!r}]",
        "    assert main(argv) == 0, command",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    src = str(Path(mumford_heat.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    result = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                            capture_output=True, text=True, check=True)
    assert result.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "sample-validation.json").exists()


BAD_FIELDS = [
    ("operator", {"cutoff": {"len": -3}}, "operator.cutoff.len"),
    ("operator", {"cutoff": {"len": 0}}, "operator.cutoff.len"),
    ("operator", {"cutoff": {"len": "8"}}, "operator.cutoff.len"),
    ("operator", {"cutoff": {"tol": "0"}}, "operator.cutoff.tol"),
    ("operator", {"cutoff": {"tol": "-1e-3"}}, "operator.cutoff.tol"),
    ("measure", {"resolution": "2"}, "measure.resolution"),
    ("measure", {"resolution": 2.0}, "measure.resolution"),
    ("group", {"holes": [{"center": "0", "radius_exp": 0, "complement": True},
                         {"center": "0", "radius_exp": "abc"}]},
     "group.holes[1].radius_exp"),
    ("group", {"outer": {"center": "0", "radius_exp": -0.5}},
     "group.outer.radius_exp"),
    ("group", {"outer": {"center": "0", "radius_exp": False}},
     "group.outer.radius_exp"),
    ("group", {"holes": [{"center": "0", "radius_exp": 0, "complement": "no"},
                         {"center": "0", "radius_exp": -2}]},
     "group.holes[0].complement"),
    ("group", {"holes": [{"center": "0", "radius_exp": 0, "complement": 1},
                         {"center": "0", "radius_exp": -2}]},
     "group.holes[0].complement"),
    ("measure", {"datum": {"factors": [{"root": "0", "multiplicity": "x"}]}},
     "measure.datum.factors[0].multiplicity"),
    ("measure", {"datum": {"factors": [{"root": "0", "multiplicity": -1.0}]}},
     "measure.datum.factors[0].multiplicity"),
    ("operator", {"alpha": "0"}, "operator.alpha"),
    ("operator", {"alpha": "-1"}, "operator.alpha"),
    ("operator", {"alpha_g": "0"}, "operator.alpha_g"),
    ("operator", {"alpha_g": "-3/2"}, "operator.alpha_g"),
]


@pytest.mark.parametrize("section,update,name", BAD_FIELDS)
def test_bad_config_fields_exit_2(tate_path, tmp_path, capsys, section, update,
                                  name):
    raw = json.loads(tate_path.read_text())
    raw[section].update(update)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["spectrum", "-c", str(config), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err
    assert not out.exists()


BAD_SHAPES = [
    # (dotted path, value put there, name in the message): a section or a
    # list of the wrong JSON type
    ("field", 5, "field"),
    ("group", 5, "group"),
    ("measure", 5, "measure"),
    ("operator", 5, "operator"),
    ("run", 5, "run"),
    ("operator.cutoff", 5, "operator.cutoff"),
    ("group.generators", 5, "group.generators"),
    ("group.holes", 5, "group.holes"),
    ("measure.datum", 5, "measure.datum"),
    ("measure.datum.factors", 5, "measure.datum.factors"),
    ("measure.datum.factors", [5], "measure.datum.factors[0]"),
    ("measure.datum.factors", [{"coeffs": 5}], "measure.datum.factors[0].coeffs"),
    ("measure", {"resolution": 2, "profile": 5}, "measure.profile"),
    ("measure", {"resolution": 2, "profile": {"pieces": 5}},
     "measure.profile.pieces"),
    ("measure", {"resolution": 2, "profile": {"zero_cores": 5}},
     "measure.profile.zero_cores"),
]


@pytest.mark.parametrize("path,value,name", BAD_SHAPES)
def test_bad_config_shapes_exit_2(tate_path, tmp_path, capsys, path, value,
                                  name):
    raw = json.loads(tate_path.read_text())
    *parents, key = path.split(".")
    target = raw
    for part in parents:
        target = target[part]
    target[key] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["validate", "-c", str(config), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err
    assert not out.exists()


def test_huge_field_p_is_not_prime(tate_path):
    raw = json.loads(tate_path.read_text())
    raw["field"]["p"] = 10 ** 400  # too large for a float square root
    with pytest.raises(ValidationError, match="not prime") as err:
        config_from_dict(raw)
    assert err.value.path == "field.p"


def _validate_with_p(tate_path, tmp_path, capsys, p):
    raw = json.loads(tate_path.read_text())
    raw["field"]["p"] = p
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    code = main(["validate", "-c", str(config), "-o", str(tmp_path / "out")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("p,message", [
    (561, "not prime"),                          # a Carmichael number
    (2 ** 61 + 1, "not prime"),
    (318665857834031151167461, "not prime"),     # fools the 12 bases <= 37
    (2 ** 89 - 1, "decided only below"),         # a prime above the limit
])
def test_field_p_rejected(tate_path, tmp_path, capsys, p, message):
    code, err = _validate_with_p(tate_path, tmp_path, capsys, p)
    assert code == 2 and "validation error: field.p:" in err and message in err


def test_large_prime_field_p_is_decided_quickly(tate_path, tmp_path, capsys):
    start = time.perf_counter()
    code, err = _validate_with_p(tate_path, tmp_path, capsys, 2 ** 61 - 1)
    assert time.perf_counter() - start < 1
    # a prime, so parsing reaches the group: 9 is a unit there, and z -> 9z
    # is not hyperbolic
    assert code == 2 and err.startswith("validation error: group:")


PROFILE_DISC_FIELDS = [
    # (list, disc, name in the message): the disc replaces the list's first entry
    ("pieces", {"center": "1", "radius_exp": "-1", "density": "1"},
     "measure.profile.pieces[0].radius_exp"),
    ("pieces", {"center": "1", "radius_exp": -1, "density": "1",
                "complement": "false"}, "measure.profile.pieces[0].complement"),
    ("zero_cores", {"center": "0", "radius_exp": 1.5},
     "measure.profile.zero_cores[0].radius_exp"),
]


@pytest.mark.parametrize("key,disc,name", PROFILE_DISC_FIELDS)
def test_bad_profile_disc_fields_exit_2(tate_run, tmp_path, capsys, key, disc,
                                        name):
    from mumford_heat.config import profile_dict
    raw = emit_config(tate_run)
    del raw["measure"]["datum"]
    raw["measure"]["profile"] = profile = profile_dict(tate_run.operator.profile)
    profile[key][:1] = [disc]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["spectrum", "-c", str(config), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err
    assert not out.exists()


def test_only_validate_runs_the_tile_certificate(tate_path, tmp_path, monkeypatch):
    """Parsing checks clauses (i) and (ii) only; ``validate`` writes the
    depth-4 certificate it runs."""
    import mumford_heat.cli as cli
    import mumford_heat.config as config
    depths = []

    def recording(group, depth=6, **kwargs):
        depths.append(depth)
        return verify_fundamental_domain(group, depth, **kwargs)

    monkeypatch.setattr(config, "verify_fundamental_domain", recording)
    monkeypatch.setattr(cli, "verify_fundamental_domain", recording)
    run = parse_config(tate_path)
    assert depths == [0] and not hasattr(run, "domain_report")
    assert main(["validate", "-c", str(tate_path), "-o", str(tmp_path)]) == 0
    assert depths == [0, 0, 4]
    report = verify_fundamental_domain(run.operator.group, depth=4)
    assert report.ok and report.tiles_checked == 8  # g and g^-1 to each power 1..4
    domain = json.loads((tmp_path / "validation.json").read_text())["domain"]
    assert domain == {
        "holes_disjoint": report.holes_disjoint,
        "pairing_onto_targets": report.pairing_ok,
        "tiles_checked": report.tiles_checked,
        "tiles_disjoint": report.tiles_disjoint,
        "details": list(report.details),
        "measure": format_rational(run.operator.domain.measure()),
    }


def test_a_tile_certificate_failure_in_validate_exits_2(tate_path, tmp_path, capsys,
                                                         monkeypatch):
    import mumford_heat.cli as cli

    def failing(group, depth=6, **kwargs):
        raise DomainInvalid("clause (iii): tile of GroupWord(g1) meets F")

    monkeypatch.setattr(cli, "verify_fundamental_domain", failing)
    assert main(["validate", "-c", str(tate_path), "-o", str(tmp_path / "out")]) == 2
    assert "group: clause (iii)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _resolution(value):
    def mutate(raw):
        raw["measure"]["resolution"] = value
    return mutate


def _only_piece(raw):
    del raw["measure"]["datum"]
    raw["measure"]["profile"] = {
        "pieces": [{"center": "3", "radius_exp": -2, "density": "1"}], "zero_cores": []}


def _factors(*factors):
    def mutate(raw):
        raw["measure"]["datum"]["factors"] = list(factors)
    return mutate


MEASURE_FAULTS = [
    # level-0 and level-1 discs cover 0 and 2/3 of mu(F) = 8/9, and 0 of 4/9
    ("tate-p3", _resolution(0), ("measure.resolution", "group.holes[1]")),
    ("tate-p3", _resolution(1), ("measure.resolution", "group.holes[1]")),
    ("genus2-p3", _resolution(0), ("measure.resolution", "group.holes[1]")),
    ("genus2-p3", _resolution(1), ("measure.resolution", "group.holes[2]")),
    ("genus2-p3", _only_piece, ("measure.profile.pieces",)),
    ("tate-p3", _factors({"root": "0", "multiplicity": -1}, {"root": "1", "multiplicity": -1}),
     ("measure.datum.factors[1]",)),
    ("tate-p3", _factors({"root": "1"}, {"root": "10"}), ("measure.resolution",)),
]


@pytest.mark.parametrize("fixture,mutate,names", MEASURE_FAULTS)
def test_measure_faults_exit_2(tmp_path, capsys, fixture, mutate, names):
    raw = json.loads(bundled_fixture(fixture).read_text())
    mutate(raw)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    for command in ("validate", "spectrum", "evolve", "resolvent", "sample", "audit"):
        assert main([command, "-c", str(config), "-o", str(out)]) == 2, command
        err = capsys.readouterr().err
        assert all(name in err for name in names) and "Traceback" not in err, err
        assert not out.exists()


def test_a_word_pole_in_a_quadrature_cell_exits_2(tate_path, tmp_path, capsys):
    # g(z) = 9z/(18z + 1): the pole 1/2 of g^-1 lies in the cell D(2, 3^-1)
    raw = json.loads(tate_path.read_text())
    raw["group"]["generators"] = [[["9", "0"], ["18", "1"]]]
    raw["measure"] = {"datum": {"scale": "1", "factors": []}, "resolution": 3}
    raw["operator"]["cutoff"] = {"len": 5}
    raw["run"].update(level=3, times=[0.0, 0.5])
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    for command in ("spectrum", "audit"):
        out = tmp_path / command
        assert main([command, "-c", str(config), "--audit-samples", "10", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert "group: " in err and "GroupWord(g1')" in err, err
        assert not out.exists()
    for command in ("validate", "evolve", "resolvent", "sample"):
        assert main([command, "-c", str(config), "--paths", "20",
                     "-o", str(tmp_path / command)]) == 0, command


def test_rates_beyond_the_float_range_exit_3(tate_run, tmp_path, capsys):
    # the exact resolvent takes a density of 10^1500, and writes values of
    # more than 4300 digits; the float layers cannot take it
    raw = emit_config(tate_run)
    del raw["measure"]["datum"]
    raw["measure"]["profile"] = profile = profile_dict(tate_run.operator.profile)
    profile["pieces"][0]["density"] = "1e1500"
    raw["operator"]["cutoff"] = {"len": 4}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    for command, code in (("evolve", 3), ("sample", 3), ("resolvent", 0)):
        out = tmp_path / command
        assert main([command, "-c", str(config), "-o", str(out)]) == code, command
        assert out.exists() == (code == 0)
    assert "numerical breakdown: " in capsys.readouterr().err
    u = (tmp_path / "resolvent" / "resolvent.csv").read_text().splitlines()[-1]
    assert len(u) > 4300


def test_a_drifting_transition_matrix_exits_3(tate_path, tmp_path, capsys):
    # rounding drift grows like r*t: 5.8e-9 at t = 1e7, over the 1e-9 bound
    out = tmp_path / "out"
    assert main(["evolve", "-c", str(tate_path), "--t", "1e7", "-o", str(out)]) == 3
    assert "numerical breakdown: row-sum drift" in capsys.readouterr().err
    assert not (out / "evolution.csv").exists()


def test_profile_based_config_round_trip(tate_run):
    raw = emit_config(tate_run)
    del raw["measure"]["datum"]
    from mumford_heat.config import profile_dict
    raw["measure"]["profile"] = profile_dict(tate_run.operator.profile)
    again = config_from_dict(raw)
    assert again.operator.profile == tate_run.operator.profile
    assert again.datum is None
    emitted = emit_config(again)
    assert emitted["measure"]["profile"] == raw["measure"]["profile"]
    assert config_from_dict(emitted).operator == again.operator


RUN_FIELDS = ("times", "eta", "paths", "seed", "level", "start_state")
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6),
    st.sampled_from(["1/3", "-1", "0", "2e-3", "1e400", "Infinity", "NaN"]))
TIMES = st.lists(st.one_of(st.floats(0, 1e12), st.integers(0, 10 ** 9)),
                 min_size=1, max_size=3)
RUN_VALUES = st.one_of(SCALARS, st.integers(0, 3), TIMES,
                       st.lists(SCALARS, max_size=3))


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from(RUN_FIELDS), value=RUN_VALUES)
def test_run_section_fuzz(tate_path, field, value):
    """One mutated run field: exit 0, 2 naming the field, or 3; never a
    traceback.  Levels stay at most 3 and no command samples, so every
    example is quick."""
    raw = json.loads(tate_path.read_text())
    raw["run"][field] = value
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(raw))
        for command in ("validate", "evolve", "resolvent"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "-c", str(config), "-o", str(Path(tmp) / "out")])
            assert code in (0, 2, 3), (command, code)
            if code == 2:
                assert f"run.{field}" in err.getvalue(), err.getvalue()


RATIONALS = st.sampled_from(["0", "1", "2", "3", "9", "10", "1/2", "2/3", "-1", "7/8"])
MEASURE_VALUES = st.one_of(SCALARS, RATIONALS, st.integers(-3, 3))


@st.composite
def measure_mutations(draw, raw, fixture):
    """One change to the measure section: its resolution (at most run.level),
    one datum factor, or one piece or zero core of the explicit profile."""
    msec = raw["measure"]
    kind = draw(st.sampled_from(["resolution", "factor", "profile"]))
    if kind == "resolution":
        msec["resolution"] = draw(st.one_of(st.integers(-2, raw["run"]["level"]),
                                            st.sampled_from(["2", 2.0, True, None])))
    elif kind == "factor":
        factors = msec["datum"]["factors"]
        if factors and draw(st.booleans()):
            factor = factors[draw(st.integers(0, len(factors) - 1))]
            key = draw(st.sampled_from(["root", "multiplicity", "coeffs"]))
            if draw(st.booleans()):
                factor[key] = draw(st.one_of(MEASURE_VALUES, st.lists(RATIONALS, max_size=3)))
            else:
                factor.pop(key, None)
        else:
            factors.append({"root": draw(RATIONALS),
                            "multiplicity": draw(st.integers(-2, 2))})
    else:
        profile = raw["measure"]["profile"] = profile_dict(parse_config(
            bundled_fixture(fixture)).operator.profile)
        del msec["datum"]
        group = draw(st.sampled_from(["pieces", "zero_cores"]))
        discs = profile[group]
        if discs and draw(st.booleans()):
            disc = discs[draw(st.integers(0, len(discs) - 1))]
            key = draw(st.sampled_from(["center", "radius_exp", "density", "complement"]))
            if draw(st.booleans()):
                disc[key] = draw(MEASURE_VALUES)
            else:
                disc.pop(key, None)
        elif discs and draw(st.booleans()):
            del discs[draw(st.integers(0, len(discs) - 1))]
        else:
            discs.append({"center": draw(RATIONALS), "radius_exp": draw(st.integers(-3, 0)),
                          "density": draw(RATIONALS)})
    return kind


@settings(max_examples=60, deadline=None)
@given(fixture=st.sampled_from(["tate-p3", "genus2-p3"]), data=st.data())
def test_measure_section_fuzz(fixture, data):
    """One mutated measure field: exit 0, 2 naming the measure or group
    section, or 3; never a traceback."""
    raw = json.loads(bundled_fixture(fixture).read_text())
    data.draw(measure_mutations(raw, fixture))
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(raw))
        for command in ("validate", "evolve", "resolvent", "audit"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "-c", str(config), "--audit-samples", "10",
                             "-o", str(Path(tmp) / "out")])
            assert code in (0, 2, 3), (command, code)
            if code == 2:
                assert "measure" in err.getvalue() or "group" in err.getvalue(), \
                    err.getvalue()


MATRICES = st.sampled_from([
    [["1", "2"], ["2", "4"]],            # singular
    [["1", "0"], ["0", "1"]],            # the identity
    [["3", "0"], ["0", "3"]],            # the identity after content reduction
    [["9", "0", "0"], ["0", "1", "0"]],  # wrong shapes
    [["9"], ["1"]], ["9", "0", "0", "1"], [], "9", None, 9])
GROUP_VALUES = st.one_of(SCALARS, st.integers(-6, 6),
                         st.sampled_from(["2", "1/9", "7/8", "-16", "10"]))
DISC_KEYS = st.sampled_from(["center", "radius_exp", "complement"])


@st.composite
def group_mutations(draw, group):
    """One change to the group section: a generator entry or matrix, a hole
    dropped, added or edited, or the outer disc edited or replaced."""
    kind = draw(st.sampled_from(["entry", "matrix", "drop", "extra", "hole",
                                 "outer", "outer_whole"]))
    holes = group["holes"]
    if kind == "entry":
        mat = group["generators"][draw(st.integers(0, len(group["generators"]) - 1))]
        mat[draw(st.integers(0, 1))][draw(st.integers(0, 1))] = draw(GROUP_VALUES)
    elif kind == "matrix":
        index = draw(st.integers(0, len(group["generators"]) - 1))
        group["generators"][index] = draw(MATRICES)
    elif kind == "drop":
        del holes[draw(st.integers(0, len(holes) - 1))]
    elif kind == "extra":
        holes.append({"center": draw(GROUP_VALUES), "radius_exp": draw(st.integers(-4, 1)),
                      "complement": draw(st.booleans())})
    elif kind == "hole":
        hole = holes[draw(st.integers(0, len(holes) - 1))]
        key = draw(DISC_KEYS)
        if draw(st.booleans()):
            hole[key] = draw(GROUP_VALUES)
        else:
            hole.pop(key, None)
    elif kind == "outer":
        group["outer"][draw(DISC_KEYS)] = draw(GROUP_VALUES)
    else:
        group["outer"] = draw(st.one_of(SCALARS, st.lists(SCALARS, max_size=2)))
    return kind


@settings(max_examples=80, deadline=None)
@given(fixture=st.sampled_from(["tate-p3", "genus2-p3"]), data=st.data())
def test_group_section_fuzz(fixture, data):
    """One mutated group field: ``validate`` exits 0, or 2 naming the group
    section and writing nothing; never a traceback."""
    raw = json.loads(bundled_fixture(fixture).read_text())
    data.draw(group_mutations(raw["group"]))
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(raw))
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["validate", "-c", str(config), "-o", str(out)])
        assert code in (0, 2), code
        if code == 2:
            assert "group" in err.getvalue(), err.getvalue()
            assert not out.exists()
        else:
            assert (out / "validation.json").exists()
