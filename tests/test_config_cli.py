import json
from fractions import Fraction as F

import pytest

from mumford_heat.cli import main
from mumford_heat.config import (ParseError, ValidationError, bundled_fixture,
                                 config_from_dict, emit_config, parse_config)


@pytest.fixture(scope="module")
def tate_path():
    return bundled_fixture("tate-p3")


@pytest.fixture(scope="module")
def tate_run(tate_path):
    return parse_config(tate_path)


def test_bundled_fixture_parses(tate_run):
    assert tate_run.group.genus == 1
    assert tate_run.group.p == 3
    assert tate_run.profile.total_mass == F(4, 3)
    assert tate_run.mode == "ambient"


def test_genus2_fixture_parses():
    run = parse_config(bundled_fixture("genus2-p3"))
    assert run.group.genus == 2
    assert run.profile.total_mass == F(4, 9)
    assert run.cutoff_len == 8


def test_round_trip(tate_run):
    again = config_from_dict(emit_config(tate_run))
    assert again.group == tate_run.group
    assert again.profile == tate_run.profile
    assert again.run == tate_run.run
    assert again.alpha == tate_run.alpha and again.alpha_g == tate_run.alpha_g


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
]


@pytest.mark.parametrize("command,flags,run_section,name", BAD_INPUTS)
def test_bad_inputs_exit_2(tate_path, tmp_path, capsys, command, flags,
                           run_section, name):
    raw = json.loads(tate_path.read_text())
    raw["run"].update(run_section)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main([command, "-c", str(config), *flags, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err
    assert not out.exists()


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
    raw["measure"]["profile"] = profile = profile_dict(tate_run.profile)
    profile[key][:1] = [disc]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["spectrum", "-c", str(config), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err
    assert not out.exists()


def test_level_function_rows_are_strict():
    from mumford_heat.config import level_function_from_dict
    row = {"center": "1", "radius_exp": "-2", "value": {"re": 1.0}}
    with pytest.raises(ValidationError) as err:
        level_function_from_dict({"level": 2, "values": [row]})
    assert err.value.path == "level_function.values.radius_exp"


def test_validate_writes_the_parse_time_domain_report(tate_path, tmp_path):
    run = parse_config(tate_path)
    assert run.domain_report.ok and run.domain_report.tiles_checked > 0
    assert main(["validate", "-c", str(tate_path), "-o", str(tmp_path)]) == 0
    domain = json.loads((tmp_path / "validation.json").read_text())["domain"]
    assert domain["tiles_checked"] == run.domain_report.tiles_checked
    assert domain["details"] == list(run.domain_report.details)


def test_profile_based_config_round_trip(tate_run):
    raw = emit_config(tate_run)
    del raw["measure"]["datum"]
    from mumford_heat.config import profile_dict
    raw["measure"]["profile"] = profile_dict(tate_run.profile)
    again = config_from_dict(raw)
    assert again.profile == tate_run.profile
    assert again.datum is None


def test_wavelet_and_level_function_interchange(tate_run):
    from mumford_heat.config import (level_function_dict,
                                     level_function_from_dict, wavelet_dict,
                                     wavelet_from_dict, exact_complex_dict)
    from mumford_heat.wavelets import (LevelFunction, Wavelet, state_discs,
                                       wavelet_eval)
    from mumford_heat.padic import Disc

    w = Wavelet(Disc(F(1), -1), 2, 3)
    assert wavelet_from_dict(wavelet_dict(w)) == w

    states = state_discs(tate_run.group.fundamental_domain(),
                         tate_run.profile, 2)
    u = LevelFunction.from_wavelet(w, 2, states, tate_run.profile, "haar")
    round_tripped = level_function_from_dict(json.loads(
        json.dumps(level_function_dict(u))))
    for (d, a), (_, b) in zip(round_tripped.values, u.values):
        assert abs(a - b) < 1e-15

    exact = {d: wavelet_eval(w, d.center, tate_run.profile, "haar")
             for d in states}
    payload = level_function_dict(u, exact_values=exact)
    assert exact_complex_dict(exact[states[0]])["magnitude_coeff"] == "1"
    assert payload["values"][0]["value"]["phase"].count("/") <= 1
    back = level_function_from_dict(payload)
    for (d, a), (_, b) in zip(back.values, u.values):
        assert abs(a - b) < 1e-15


def test_exact_level_function_round_trip_p5():
    from mumford_heat.config import level_function_dict, level_function_from_dict
    from mumford_heat.exactnum import ExactComplex
    from mumford_heat.padic import Disc
    from mumford_heat.wavelets import LevelFunction

    exact = {Disc(F(c), -1): ExactComplex(F(2, 3), F(5), 5, F(c, 5), F(-1, 2))
             for c in range(1, 5)}
    u = LevelFunction.from_mapping(1, {d: complex(v) for d, v in exact.items()})
    payload = json.loads(json.dumps(level_function_dict(u, exact_values=exact)))
    assert payload["p"] == 5
    back = level_function_from_dict(payload)
    for (_, a), (_, b) in zip(back.values, u.values):
        assert abs(a - b) < 1e-15
    del payload["p"]
    with pytest.raises(ValidationError) as err:
        level_function_from_dict(payload)
    assert err.value.path == "level_function.p"
