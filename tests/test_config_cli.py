import contextlib
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mumford_heat
from mumford_heat import audit, cli, heat
from mumford_heat.cli import main
from mumford_heat.config import (ParseError, ValidationError, bundled_fixture,
                                 config_from_dict, emit_config, format_rational,
                                 parse_config, profile_dict)
from mumford_heat.heat import sample_paths
from mumford_heat.operator import (MAX_CUTOFF, CoincidentPoints, GeneratorMatrix,
                                   generator_matrix, tail_bound)
from mumford_heat.padic import PoleHit
from mumford_heat.schottky import DomainInvalid, verify_fundamental_domain
from conftest import domain_ok


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

    # one path, exactly one PATH_CHUNK block, a partial second block, two
    # full blocks, three blocks (the last partial), twenty blocks
    @pytest.mark.parametrize("n_paths", [1, 1024, 1025, 1500, 2048, 3000, 20000])
    def test_paths_csv_matches_per_row_formatting(self, tate_path, tmp_path, n_paths,
                                                   monkeypatch):
        # the per-row f-string writer that the block writer replaced, and the
        # validation of the whole sample, against the command drawing,
        # counting and formatting in one, two and three ranges
        seed = 5
        run = parse_config(tate_path)
        gen = generator_matrix(run.operator_config(), run.run.level)
        labels = [f"{i},{format_rational(d.center)},{d.radius_exp}"
                  for i, d in enumerate(gen.states)]
        paths = sample_paths(gen, n_paths, max(run.run.times), seed,
                             start_index=run.run.start_state)
        oracle = []
        for path in paths:
            for t, s in zip((0.0, *path.jump_times.tolist()), path.states.tolist()):
                oracle.append(f"{path.path_index},{t!r},{labels[s]}")
        oracle = "\n".join(oracle) + "\n"
        checkpoints = [t for t in run.run.times if t > 0]
        report = heat.empirical_validation(gen, paths, checkpoints,
                                           start_index=run.run.start_state)
        artifacts = set()
        for cpus in (1, 2, 3):
            monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
            out = tmp_path / str(cpus)
            assert main(["sample", "-c", str(tate_path), "--paths", str(n_paths),
                         "--seed", str(seed), "-o", str(out)]) == 0
            text = (out / "paths.csv").read_text()
            header, body = text.split("state_radius_exp\n")
            assert body == oracle
            assert header.count("\n") == 5
            validation = json.loads((out / "sample-validation.json").read_text())
            assert validation["n_paths"] == n_paths
            assert [(c["t"], c["max_sigma"], c["worst_state"]) for c in validation["checkpoints"]] \
                == [(r.t, r.max_sigma, r.worst_state) for r in report.rows]
            artifacts.add(tuple(sorted((p.name, p.read_bytes()) for p in out.iterdir())))
        assert len(artifacts) == 1  # the bytes do not depend on the CPU count

    def test_sample_peak_memory_stays_below_twice_the_file(self, tate_path, tmp_path):
        # paths.csv goes out one block at a time, never as one whole-file string
        tracemalloc.start()
        try:
            assert main(["sample", "-c", str(tate_path), "--paths", "10000",
                         "--seed", "3", "-o", str(tmp_path)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * (tmp_path / "paths.csv").stat().st_size

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

    def test_audit_census_is_taken_at_the_level_flag(self, tate_path, tmp_path):
        # the config's run.level is 2, where the census reads dim=8
        assert main(["audit", "-c", str(tate_path), "--level", "3", "--audit-samples", "1",
                     "-o", str(tmp_path)]) == 0
        checks = {c["check"]: c for c in
                  json.loads((tmp_path / "audit.json").read_text())["checks"]}
        [gap] = checks["wavelet_completeness_gap"]["examples"]
        assert (gap["instance"], gap["lhs"], gap["rhs"]) == (
            "level=3", "dim=24", "constants+wavelets=21")

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


def _assert_no_child():
    # every child of this process has been waited for
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The number of os.fork calls, counted while the real fork still runs;
    paths.csv is split as if there were three usable CPUs."""
    calls = []
    real_fork = os.fork

    def counted():
        calls.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    return calls


def _tate_rows(n_paths):
    """``cli._sampled_rows`` as ``sample --paths n_paths --seed 5`` runs it on
    tate-p3."""
    run = parse_config(bundled_fixture("tate-p3"))
    gen = generator_matrix(run.operator_config(), run.run.level)
    t_max = max(run.run.times)

    def draw(ids):
        paths = sample_paths(gen, n_paths, t_max, 5, start_index=run.run.start_state,
                             paths=ids)
        return paths.counts([t for t in run.run.times if t > 0], gen.size), paths

    tails = [f",{i},{format_rational(d.center)},{d.radius_exp}\n"
             for i, d in enumerate(gen.states)]
    return cli._sampled_rows(draw, cli._ranges(n_paths), tails, [])


def _no_fork():
    raise AssertionError("os.fork called")


@pytest.mark.parametrize("fixture,flags", [
    ("tate-p3", ["--paths", "1024"]), ("tate-p3", []), ("genus2-p3", [])])
def test_one_block_starts_no_process(tmp_path, monkeypatch, fixture, flags):
    # both fixtures sample 1000 paths as configured: one PATH_CHUNK block
    monkeypatch.setattr(os, "fork", _no_fork)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    assert main(["sample", "-c", str(bundled_fixture(fixture)), *flags,
                 "-o", str(tmp_path)]) == 0
    # many blocks on one CPU start none either
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    assert main(["sample", "-c", str(bundled_fixture("tate-p3")), "--paths", "3000",
                 "-o", str(tmp_path / "one-cpu")]) == 0
    assert (tmp_path / "one-cpu" / "sample-validation.json").exists()


def test_a_refused_sample_starts_no_process(tate_path, tmp_path, monkeypatch, capsys):
    # the jump budget, --paths and --seed are checked before any worker forks
    monkeypatch.setattr(os, "fork", _no_fork)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    raw = json.loads(tate_path.read_text())
    raw["operator"]["alpha"] = "100"
    steep = tmp_path / "alpha-100.json"
    steep.write_text(json.dumps(raw))
    out = tmp_path / "out"
    for config, flags, code in [(steep, ["--paths", "20000"], 3),
                                (tate_path, ["--paths", "0"], 2),
                                (tate_path, ["--paths", "20000", "--seed", "-1"], 2)]:
        assert main(["sample", "-c", str(config), *flags, "-o", str(out)]) == code
        assert not out.exists()
    err = capsys.readouterr().err
    assert "past the budget" in err and "--paths" in err and "--seed" in err


def test_the_ranges_are_whole_blocks_of_about_equal_size(monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    chunk = cli.PATH_CHUNK
    assert cli._ranges(1) == [range(0, 1)]
    assert cli._ranges(chunk + 1) == [range(0, chunk), range(chunk, chunk + 1)]
    assert cli._ranges(20_000) == [range(0, 6 * chunk), range(6 * chunk, 13 * chunk),
                                   range(13 * chunk, 20_000)]


def test_sample_reaps_its_workers(tate_path, tmp_path, forks):
    assert main(["sample", "-c", str(tate_path), "--paths", "5000",
                 "-o", str(tmp_path)]) == 0
    assert len(forks) == 2
    _assert_no_child()


def test_rows_closed_early_reap_their_workers(forks):
    # each worker's range is far more than a pipe holds
    rows = _tate_rows(5000)
    assert next(rows)

    def hung(_signum, _frame):
        raise TimeoutError("closing the rows waits on a worker blocked on its pipe")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(10)
    try:
        start = time.perf_counter()
        rows.close()
        assert time.perf_counter() - start < 1
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(forks) == 2
    _assert_no_child()


def test_a_failed_worker_fails_the_command(tate_path, tmp_path, capsys, monkeypatch, forks):
    parent = os.getpid()
    real_blocks = cli._path_blocks

    def failing_in_a_worker(*args):
        if os.getpid() != parent:
            raise MemoryError
        return real_blocks(*args)

    monkeypatch.setattr(cli, "_path_blocks", failing_in_a_worker)
    assert main(["sample", "-c", str(tate_path), "--paths", "3000",
                 "-o", str(tmp_path)]) == 1
    assert "exited with status 1" in capsys.readouterr().err
    # no partial paths.csv, no temporary file and no sample-validation.json
    assert list(tmp_path.iterdir()) == []
    _assert_no_child()


def test_a_worker_killed_before_its_counts_fails_the_command(tate_path, tmp_path, capsys,
                                                              monkeypatch, forks):
    # the parent reads a short counts header, and the status names the signal
    parent = os.getpid()
    real_sample = cli.sample_paths

    def killed_in_a_worker(*args, **kwargs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real_sample(*args, **kwargs)

    monkeypatch.setattr(cli, "sample_paths", killed_in_a_worker)
    assert main(["sample", "-c", str(tate_path), "--paths", "3000",
                 "-o", str(tmp_path)]) == 1
    assert f"exited with status -{int(signal.SIGKILL)}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    _assert_no_child()


@pytest.mark.parametrize("fixture", ["tate-p3", "genus2-p3"])
@pytest.mark.parametrize("flags", [[], ["--mode", "transport"], ["--audit-samples", "1"]])
def test_audit_bytes_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch, forks, fixture,
                                                   flags):
    # check i runs in process i mod min(cpus, 7); without os.fork, in this one
    config = str(bundled_fixture(fixture))
    artifacts = set()
    for cpus in (1, 2, 3, 8):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        forks.clear()
        out = tmp_path / str(cpus)
        assert main(["audit", "-c", config, *flags, "-o", str(out)]) == 0
        assert len(forks) == min(cpus, 7) - 1
        _assert_no_child()
        artifacts.add((out / "audit.json").read_bytes())
    monkeypatch.delattr(os, "fork")
    assert main(["audit", "-c", config, *flags, "-o", str(tmp_path / "no-fork")]) == 0
    artifacts.add((tmp_path / "no-fork" / "audit.json").read_bytes())
    assert len(artifacts) == 1


def _audit_failure(config, out, capsys, monkeypatch, cpus):
    """(exit code, stderr) of ``audit`` on ``cpus`` usable CPUs."""
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    code = main(["audit", "-c", str(config), "-o", str(out)])
    _assert_no_child()
    return code, capsys.readouterr().err


def test_a_check_that_raises_in_a_worker_fails_as_in_one_process(tate_path, tmp_path, capsys,
                                                                 monkeypatch, forks):
    # on 3 CPUs check 1 runs in the first worker, check 2 in the second and
    # check 3 here; one process meets check 1 first, so its exception wins
    def raising(exc):
        def check(*args):
            raise exc
        return check

    monkeypatch.setattr(audit, "check_escape_distance_bound",
                        raising(PoleHit("pole hit at beta=GroupWord(g1), gamma=GroupWord()")))
    monkeypatch.setattr(audit, "check_distance_word_shift", raising(CoincidentPoints("second")))
    monkeypatch.setattr(audit, "check_density_transport", raising(ValueError("third")))
    one = _audit_failure(tate_path, tmp_path / "one", capsys, monkeypatch, 1)
    assert one == (2, "validation error: group: pole hit at beta=GroupWord(g1), "
                      "gamma=GroupWord()\n")
    assert forks == []
    assert _audit_failure(tate_path, tmp_path / "three", capsys, monkeypatch, 3) == one
    assert len(forks) == 2
    assert not (tmp_path / "one").exists() and not (tmp_path / "three").exists()


@pytest.mark.parametrize("death,status", [("killed", -int(signal.SIGKILL)),
                                          ("unpicklable", 1)])
def test_a_worker_that_dies_fails_the_audit(tate_path, tmp_path, capsys, monkeypatch, forks,
                                            death, status):
    # a worker killed mid-check, or one whose results cannot be sent, exits
    # non-zero; the command exits 1 and writes nothing
    parent = os.getpid()
    real_check = audit.check_escape_distance_bound

    def dying(*args):
        if os.getpid() != parent:
            if death == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            return lambda: None  # pickle refuses a lambda
        return real_check(*args)

    monkeypatch.setattr(audit, "check_escape_distance_bound", dying)
    out = tmp_path / "out"
    out.mkdir()
    code, err = _audit_failure(tate_path, out, capsys, monkeypatch, 2)
    assert (code, err) == (1, f"error: audit.json: the worker on checks 1, 3, 5 "
                              f"exited with status {status}\n")
    assert len(forks) == 1
    assert list(out.iterdir()) == []  # neither audit.json nor .audit.json.partial


@pytest.mark.parametrize("kind,reason", [
    ("directory", "unreadable: Is a directory"),
    ("not-utf8", "not UTF-8 text: invalid start byte at byte 11"),
    ("over-nested", "invalid JSON: nested too deeply")])
def test_an_unreadable_config_exits_2(tmp_path, capsys, kind, reason):
    config = tmp_path / kind
    if kind == "directory":
        config.mkdir()
    elif kind == "not-utf8":
        config.write_bytes(b'{"field": "\xff"}')
    else:
        config.write_text("[" * 100_000)
    assert main(["validate", "-c", str(config), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"validation error: {config}: {reason}\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("under", [False, True])
@pytest.mark.parametrize("command", ["validate", "spectrum", "evolve", "sample",
                                     "audit", "resolvent"])
def test_an_out_that_is_a_file_exits_2(tate_path, tmp_path, capsys, command, under):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken / "x" if under else taken
    assert main([command, "-c", str(tate_path), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "validation error: --out: " in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert taken.read_text() == "kept\n"


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
    # no cutoff length up to MAX_CUTOFF reaches this tolerance
    ("spectrum", ["--cutoff-tol", "1e-5000"], {}, "--cutoff-tol"),
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


def test_evolve_without_a_wavelet_names_the_remedy(tmp_path, capsys):
    # a Schottky figure over p = 2 of genus 3 whose domain, the discs
    # D(c, 2^-3) for c = 3, 4, 5, holds no admissible wavelet at level 3
    raw = json.loads(bundled_fixture("genus2-p3").read_text())
    raw["field"]["p"] = 2
    raw["group"]["generators"] = [[[str(a), str(b)], [str(c), str(d)]] for a, b, c, d
                                  in ((8, 7, 0, 1), (1, 96, 1, 0), (2, -108, 1, -6))]
    raw["group"]["holes"] = [{"center": "0", "radius_exp": 0, "complement": True}] + [
        {"center": str(c), "radius_exp": -3} for c in (0, 6, 7, 1, 2)]
    raw["measure"]["resolution"] = 3
    raw["operator"] = {"alpha": "1", "alpha_g": "3", "cutoff": {"len": 3}}
    config = tmp_path / "figure.json"
    config.write_text(json.dumps(raw))
    assert main(["evolve", "-c", str(config), "-o", str(tmp_path / "wavelet")]) == 2
    err = capsys.readouterr().err
    assert "run.level" in err and "use --initial indicator" in err
    assert not (tmp_path / "wavelet").exists()
    assert main(["evolve", "-c", str(config), "--initial", "indicator",
                 "-o", str(tmp_path / "indicator")]) == 0
    assert (tmp_path / "indicator" / "evolution.csv").exists()


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


def test_sample_on_a_one_state_level_writes_constant_paths(tate_path, tmp_path):
    # genus 0 at level 0: the one state D(0, 1) has no rate out and holds
    # for ever, so each path is one row at time 0, and its law is the point
    # mass there; as evolve and resolvent, sample exits 0, with no warning
    raw = json.loads(tate_path.read_text())
    raw["group"] = {"generators": [], "outer": {"center": "0", "radius_exp": 0},
                    "holes": []}
    raw["measure"] = {"datum": {"scale": "1", "factors": []}, "resolution": 0}
    raw["run"]["level"] = 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        assert main(["sample", "-c", str(config), "--paths", "5", "-o", str(out)]) == 0
    lines = (out / "paths.csv").read_text().splitlines()
    assert lines[-6:] == ["path_id,jump_time,state_index,state_center,state_radius_exp",
                          *(f"{j},0.0,0,0,0" for j in range(5))]
    report = json.loads((out / "sample-validation.json").read_text())
    assert report["passed"] and report["n_paths"] == 5
    assert [row["max_sigma"] for row in report["checkpoints"]] == [0.0] * 4


def test_commands_do_not_import_scipy(tate_path, tmp_path):
    code = "\n".join([
        "import sys",
        "from mumford_heat.cli import main",
        "for command in ('validate', 'evolve', 'sample', 'resolvent'):",
        f"    argv = [command, '-c', {str(tate_path)!r}, '--level', '2',",
        f"            '-o', {str(tmp_path)!r}]",
        "    assert main(argv) == 0, command",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))",
    ])
    src = str(Path(mumford_heat.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    result = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                            capture_output=True, text=True, check=True)
    assert result.stdout.splitlines()[-2:] == ["[]", "[]"]
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
    ("operator", {"cutoff": {"tol": "1e-5000"}}, "operator.cutoff.tol"),
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


@pytest.mark.parametrize("flags,cutoff,name", [
    (["--cutoff-tol", "1e-4000"], None, "--cutoff-tol"),
    (["--cutoff-len", str(MAX_CUTOFF + 1)], None, "--cutoff-len"),
    ([], {"tol": "1e-4000"}, "operator.cutoff.tol"),
    ([], {"len": MAX_CUTOFF + 1}, "operator.cutoff.len"),
], ids=["tol-flag", "len-flag", "tol-field", "len-field"])
def test_a_cutoff_past_the_cap_is_refused_within_a_second(tate_path, tmp_path, capsys,
                                                           flags, cutoff, name):
    # 1e-4000 needs L near 8 400, where spectrum would run for minutes
    raw = json.loads(tate_path.read_text())
    if cutoff is not None:
        raw["operator"]["cutoff"] = cutoff
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main(["spectrum", "-c", str(config), *flags, "-o", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command,flags,field", [
    ("resolvent", ["--eta", "1e10000000"], None),
    ("spectrum", ["--cutoff-tol", "1e-10000000"], None),
    ("validate", [], "1e10000000"),
], ids=["eta", "cutoff-tol", "density"])
def test_a_huge_decimal_exponent_is_refused_within_a_second(tate_run, tmp_path, capsys,
                                                            command, flags, field):
    # Fraction("1e10000000") builds 10^10000000 first, about 10 s; four
    # digits of exponent still admit the density 1e1500 of the test below
    raw = emit_config(tate_run)
    if field is not None:
        del raw["measure"]["datum"]
        raw["measure"]["profile"] = profile = profile_dict(tate_run.operator.profile)
        profile["pieces"][0]["density"] = field
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main([command, "-c", str(config), *flags, "-o", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    name = flags[0] if flags else "measure.profile.pieces[0].density"
    assert f"{name}: not an exact rational with a decimal exponent of at most 4 digits" in err
    assert "Traceback" not in err and not out.exists()


def test_a_sample_past_the_jump_budget_exits_3(tate_path, tmp_path, capsys):
    # at alpha = 100 the hold rates reach 4.8e47 at level 2: the sampler
    # would never finish, so it refuses before the first draw, as evolve
    # breaks down on the same config
    raw = json.loads(tate_path.read_text())
    raw["operator"]["alpha"] = "100"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    start = time.perf_counter()
    for command in ("sample", "evolve"):
        out = tmp_path / command
        assert main([command, "-c", str(config), "-o", str(out)]) == 3
        assert not out.exists()
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert f"past the budget of {heat.MAX_JUMPS:.0e}" in err and "Traceback" not in err


@pytest.mark.parametrize("command,alpha", [
    ("resolvent", "1"), ("evolve", "1"), ("sample", "1"), ("resolvent", "1/2"),
], ids=["resolvent-dense0", "evolve-dense1", "sample-dense2", "resolvent-alpha1/2-dense3"])
def test_commands_build_only_the_dense_forms_they_read(tate_path, tmp_path, monkeypatch,
                                                       command, alpha):
    # the resolvent (exact or float), the semigroup and the jump chain read
    # the generator's sibling densities, and none builds the dense rows
    raw = json.loads(tate_path.read_text())
    raw["operator"]["alpha"] = alpha
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    monkeypatch.setattr(GeneratorMatrix, "rows", property(
        lambda self: pytest.fail(f"{command} built GeneratorMatrix.rows")))
    assert main([command, "-c", str(config), "--level", "3", "--initial", "indicator",
                 "--paths", "50", "-o", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("command", ["evolve", "sample"])
@pytest.mark.parametrize("fixture", ["tate-p3", "genus2-p3"])
def test_the_semigroup_runs_on_the_cells_only(tmp_path, monkeypatch, fixture, command):
    # e^(tQ) is taken of the chain between the cells (4 on both fixtures),
    # never of the n x n generator
    path = bundled_fixture(fixture)
    gen = generator_matrix(parse_config(path).operator_config(), 3)
    cells = len(gen.tops)
    seen, honest = [], heat._semigroup
    monkeypatch.setattr(heat, "_semigroup", lambda q, t: seen.append(len(q)) or honest(q, t))
    assert main([command, "-c", str(path), "--level", "3", "--initial", "indicator",
                 "--paths", "50", "-o", str(tmp_path)]) == 0
    assert seen and max(seen) <= cells < gen.size


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
    """Parsing builds the group, which checks clauses (i) and (ii); only
    ``validate`` runs the tile certificate, at depth 4, and writes it."""
    import mumford_heat.cli as cli
    import mumford_heat.schottky as schottky
    depths = []

    def recording(group, depth=6):
        depths.append(depth)
        return verify_fundamental_domain(group, depth)

    monkeypatch.setattr(schottky, "verify_fundamental_domain", recording)
    monkeypatch.setattr(cli, "verify_fundamental_domain", recording)
    run = parse_config(tate_path)
    assert depths == [] and not hasattr(run, "domain_report")
    assert main(["validate", "-c", str(tate_path), "-o", str(tmp_path)]) == 0
    assert depths == [4]
    report = verify_fundamental_domain(run.operator.group, depth=4)
    assert domain_ok(report) and report.tiles_checked == 8  # g and g^-1 to each power 1..4
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

    def failing(group, depth=6):
        raise DomainInvalid("clause (iii): tile of GroupWord(g1) meets F")

    monkeypatch.setattr(cli, "verify_fundamental_domain", failing)
    assert main(["validate", "-c", str(tate_path), "-o", str(tmp_path / "out")]) == 2
    assert "group: clause (iii)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode,holds", [("ambient", False), ("transport", True)])
def test_audit_reports_a_chart_out_of_reach(tate_path, tmp_path, capsys, mode, holds):
    # the root 9 of the datum lies in the hole D(0, 3^-2), off F, but in the
    # image D(9, 3^-3) of the piece D(1, 3^-1) under the chart z -> 9z
    raw = json.loads(tate_path.read_text())
    raw["measure"]["datum"]["factors"].append({"root": "9", "multiplicity": 1})
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    assert main(["audit", "-c", str(config), "--mode", mode, "--audit-samples", "20",
                 "-o", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    checks = json.loads((tmp_path / "audit.json").read_text())["checks"]
    chart = next(c for c in checks if c["check"] == "chart_shift_invariance")
    assert chart["holds"] is holds and chart["instances_checked"] == 0
    assert chart["examples"] == [] and chart["note"].endswith(
        "chart piece D(9, 3^-3): root 9 lies in D(9, 3^-3)")


def _resolution(value):
    def mutate(raw):
        raw["measure"]["resolution"] = value
    return mutate


def _only_piece(raw):
    del raw["measure"]["datum"]
    raw["measure"]["profile"] = {
        "pieces": [{"center": "3", "radius_exp": -2, "density": "1"}], "zero_cores": []}


def _profile(resolution, level, pieces, cores=()):
    """An explicit profile of (centre, radius_exp, density) pieces and
    (centre, radius_exp) zero cores, at a resolution and run level."""
    def mutate(raw):
        raw["measure"] = {"resolution": resolution, "profile": {
            "pieces": [{"center": c, "radius_exp": r, "density": d} for c, r, d in pieces],
            "zero_cores": [{"center": c, "radius_exp": r} for c, r in cores]}}
        raw["run"]["level"] = level
    return mutate


# tate-p3's F, Z_3 minus D(0, 3^-2), as its own four pieces
TATE_PIECES = [("1", -1, "1"), ("2", -1, "1"), ("3", -2, "3"), ("6", -2, "3")]


def _factors(*factors):
    def mutate(raw):
        raw["measure"]["datum"]["factors"] = list(factors)
    return mutate


def _set(section, key, value):
    def mutate(raw):
        raw[section][key] = value
    return mutate


def _drop_datum(raw):
    del raw["measure"]["datum"]


def _first_hole_outside_the_outer_disc(raw):
    raw["group"]["holes"][1] = {"center": "1/3", "radius_exp": -1}


# (mutation of tate-p3, the config's root instead of it, the stderr prefix of
# exit 2; None for exit 0)
INPUT_BRANCHES = [
    (_factors({"coeffs": ["-9", "1"]}), None, None),
    (_factors({"coeffs": ["1", "0"]}), None, "measure.datum.factors[0]: "),
    (_factors({"coeffs": ["1"]}), None, "measure.datum.factors[0]: "),
    (lambda raw: raw["measure"]["datum"].update(scale="0"), None, "measure.datum: "),
    (_drop_datum, None, "measure: "),
    (_set("operator", "mode", "weird"), None, "operator.mode: "),
    (_set("field", "p", "3"), None, "field.p: "),
    (None, [], "config root must be an object"),
    (_first_hole_outside_the_outer_disc, None, "group: "),
]


@pytest.mark.parametrize("mutate,root,prefix", INPUT_BRANCHES,
                         ids=["coeffs-root-9", "coeffs-1-0", "coeffs-1", "scale-0",
                              "no-datum", "mode", "p-string", "root-list", "hole-outside"])
def test_input_branches(tate_path, tmp_path, capsys, mutate, root, prefix):
    raw = json.loads(tate_path.read_text())
    if mutate is not None:
        mutate(raw)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw if root is None else root))
    code = main(["validate", "-c", str(config), "-o", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if prefix is None:
        assert code == 0 and err == ""
        echo = json.loads((tmp_path / "out" / "validation.json").read_text())["config"]
        assert echo["measure"]["datum"]["factors"] == [{"multiplicity": 1, "root": "9"}]
        return
    assert code == 2 and err.startswith(f"validation error: {prefix}"), err
    assert not (tmp_path / "out").exists()
    if prefix == "group: ":
        # the group constructor names the clause
        assert "clause (i): hole 1 not inside the outer disc" in err


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
    # a piece or core finer than the resolution: a state could straddle
    # pieces (D(1, 3^-1) here, |omega|-mass 13/9) or hold a core
    ("tate-p3", _profile(1, 1, [("2", -1, "1"), ("3", -2, "3"), ("6", -2, "3"),
                                ("1", -2, "1"), ("4", -2, "5"), ("7", -2, "7")]),
     ("measure.profile.pieces[1]: radius_exp -2 is finer than the measure resolution 1",)),
    ("tate-p3", _profile(0, 0, TATE_PIECES), ("measure.profile.pieces[0]: ",)),
    ("tate-p3", _profile(1, 1, TATE_PIECES[:2], [("3", -2), ("6", -2)]),
     ("measure.profile.zero_cores[0]: ",)),
    # zero cores on all of F: no level has a state
    ("tate-p3", _factors({"root": "0", "multiplicity": -1},
                         *({"root": str(k)} for k in range(1, 9))),
     ("measure.datum.factors: the measure vanishes on all of F",)),
    ("tate-p3", _profile(2, 2, [], [(c, r) for c, r, _ in TATE_PIECES]),
     ("measure.profile.pieces: the measure vanishes on all of F",)),
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
        assert err == ("validation error: group: image of D(2, 3^-1) "
                       "under GroupWord(g1') wraps infinity\n"), err
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


OPERATOR_FIELDS = ("alpha", "alpha_g", "mode", "cutoff.len", "cutoff.tol", "unknown")
OPERATOR_VALUES = st.one_of(
    SCALARS, RATIONALS, st.integers(0, 12),
    st.sampled_from(["ambient", "transport", "1e-400", "100", "101", "100/99", "1/97"]),
    st.lists(SCALARS, max_size=2), st.dictionaries(st.text(max_size=3), SCALARS, max_size=2))


@settings(max_examples=60, deadline=None)
@given(fixture=st.sampled_from(["tate-p3", "genus2-p3"]),
       field=st.sampled_from(OPERATOR_FIELDS), value=OPERATOR_VALUES,
       unknown=st.sampled_from(["beta", "Alpha", "cutoff.extra"]))
def test_operator_section_fuzz(fixture, field, value, unknown):
    """One mutated operator field, or one unknown key in the section or its
    cutoff: ``validate`` and ``spectrum`` exit 0, or 2 naming the field and
    writing nothing; never a traceback."""
    raw = json.loads(bundled_fixture(fixture).read_text())
    osec = raw["operator"]
    if field == "unknown":
        field = unknown
    section, _, key = field.rpartition(".")
    (osec[section] if section else osec)[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(raw))
        for command in ("validate", "spectrum"):
            out = Path(tmp) / command
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "-c", str(config), "-o", str(out)])
            assert code in (0, 2), (command, code)
            if code == 2:
                assert f"operator.{field}" in err.getvalue(), err.getvalue()
                assert not out.exists()


BAD_WORDS = st.sampled_from(["x", "", "1.5", "-inf", "nan", "1e999"])
# per flag, its values: a valid run stays under a second (level <= 4, cutoff
# length <= 40, at most 2 000 audit samples and 3 000 paths); 10^7 paths
# trip the jump budget before any draw
FLAG_VALUES = {
    "--level": st.one_of(st.integers(-2, 4), BAD_WORDS),
    "--t": st.lists(st.one_of(st.sampled_from(["0", "0.25", "1", "3", "1e308", "-1"]),
                              BAD_WORDS), min_size=1, max_size=3),
    "--paths": st.one_of(st.integers(-2, 3_000), st.just(10 ** 7), BAD_WORDS),
    "--seed": st.one_of(st.integers(-2, 2 ** 70), BAD_WORDS),
    "--mode": st.sampled_from(["ambient", "transport", "both", ""]),
    "--cutoff-len": st.one_of(st.integers(-1, 40), st.just(1001), BAD_WORDS),
    "--cutoff-tol": st.one_of(st.sampled_from(["1e-12", "1/100", "1e-40", "2", "0", "-1/3",
                                               "1e-5000"]), BAD_WORDS),
    "--eta": st.one_of(st.sampled_from(["1", "1/3", "1e-3", "1e40", "0", "-1"]), BAD_WORDS),
    "--initial": st.sampled_from(["wavelet", "indicator", "gaussian"]),
    "--audit-samples": st.one_of(st.integers(-1, 2_000), BAD_WORDS),
}


@settings(max_examples=80, deadline=None)
@given(fixture=st.sampled_from(["tate-p3", "genus2-p3"]),
       command=st.sampled_from(sorted(cli.COMMANDS)),
       flag=st.sampled_from(sorted(FLAG_VALUES)), data=st.data())
def test_cli_flag_fuzz(fixture, command, flag, data):
    """One mutated flag on a bundled fixture, in process and on one CPU:
    the command exits 0, 2 or 3, or argparse exits 2; an exit 2 names the
    flag on stderr.  Never a traceback."""
    value = data.draw(FLAG_VALUES[flag])
    argv = [flag, *map(str, value)] if flag == "--t" else [f"{flag}={value}"]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_usable_cpus", lambda: 1)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main([command, "-c", str(bundled_fixture(fixture)), *argv,
                             "-o", str(Path(tmp) / "out")])
            except SystemExit as exc:  # argparse refuses the flag's text
                code = exc.code
        assert code in (0, 2, 3), (argv, code, err.getvalue())
        if code == 2:
            assert flag in err.getvalue(), (argv, err.getvalue())
