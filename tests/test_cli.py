import json
from fractions import Fraction

import pytest

from randgroups import cancellation
from randgroups.cancellation import satisfies_cprime
from randgroups.cli import main
from randgroups.words import Presentation, Word


def test_sample_check_wp_pipeline(tmp_path, capsys):
    pres = tmp_path / "pres.txt"
    # seed 306 gives a C'(1/6) one-relator presentation at rank 2, length 16
    assert main(["sample", "--rank", "2", "--density", "0", "--length", "16",
                 "--seed", "306", "--out", str(pres)]) == 0
    p = Presentation.load(pres)
    assert p.n_relators == 1 and p.length == 16

    assert main(["check", "--in", str(pres), "--lambda", "1/6"]) == 0
    out = capsys.readouterr().out
    assert "verdict: satisfied" in out

    assert main(["wp", "--in", str(pres), "--word", p.relators[0].text()]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["trivial"] is True
    assert len(data["trace"]) == 1

    assert main(["wp", "--in", str(pres), "--word", "ab"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["trivial"] is False


def test_check_searches_the_pieces_once(tmp_path, monkeypatch, capsys):
    # seed 0 at rank 2, length 24: its 48 grams force no piece of length
    # ceil(24/6) = 4, so only the kernel decides C'(1/6)
    pres = tmp_path / "pres.txt"
    main(["sample", "--rank", "2", "--density", "0", "--length", "24", "--seed", "0", "--out", str(pres)])
    p = Presentation.load(pres)
    verdicts = {lam: satisfies_cprime(p, Fraction(lam)) for lam in ("1/8", "1/6", "1/2")}
    assert set(verdicts.values()) == {True, False}
    calls = []
    readings = cancellation._readings
    monkeypatch.setattr(cancellation, "_readings", lambda p: calls.append(p) or readings(p))
    for lam, ok in verdicts.items():
        calls.clear()
        assert main(["check", "--in", str(pres), "--lambda", lam]) == 0
        assert f"verdict: {'satisfied' if ok else 'violated'}" in capsys.readouterr().out
        assert len(calls) == 1


def test_ball_command(tmp_path, capsys):
    pres = tmp_path / "pres.txt"
    main(["sample", "--rank", "3", "--density", "0", "--length", "10",
          "--seed", "53", "--out", str(pres)])
    report = tmp_path / "report.json"
    assert main(["ball", "--in", str(pres), "--radius", "4",
                 "--verify", "single-layer,digons", "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["vertices"] == 937
    assert data["violations"] == []
    assert "digon_count" in data and "max_divisor_len" in data
    # 937 vertices is the free rank-3 ball of radius 4: every pair has one geodesic
    assert data["multi_geodesic_pairs"] == 0
    with pytest.raises(SystemExit) as exc:
        main(["ball", "--in", str(pres), "--radius", "4", "--verify", "bogus"])
    assert exc.value.code == 2
    assert "error: unknown geometry checks ['bogus']" in capsys.readouterr().err


def test_sentence_command(tmp_path, capsys):
    pres = tmp_path / "pres.txt"
    main(["sample", "--rank", "2", "--density", "0", "--length", "16",
          "--seed", "306", "--out", str(pres)])
    sent = tmp_path / "comm.sent"
    sent.write_text("x y ~x ~y = 1\n")
    assert main(["sentence", "--in", str(pres), "--sentence", str(sent),
                 "--ball", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    [clause] = data["clauses"]
    assert clause["free_witness"] is not None
    assert clause["group_witness"] is not None


def test_bounds_command(capsys):
    assert main(["bounds", "--K", "10", "--r", "3", "--d", "1/16",
                 "--eps", "1/16", "--l", "50", "--q", "3"]) == 0
    out = capsys.readouterr().out
    assert "face_bound: 36" in out
    assert "advk_total_bound:" in out
    assert "ratio:" in out


def test_unify_command(tmp_path, capsys):
    system = tmp_path / "sys.txt"
    system.write_text("x x\n")
    lengths = tmp_path / "lens.txt"
    lengths.write_text("x = 2\n")
    boundary = tmp_path / "bound.txt"
    boundary.write_text("0 4\n")
    assert main(["unify", "--system", str(system), "--lengths", str(lengths),
                 "--boundary", str(boundary),
                 "--n-rel", "1", "--ell", "16", "--d", "1/4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["decoration_status"] == "decoration"
    assert data["degrees_of_freedom"] == 2
    assert data["prop_a_bound"] > 0
    # the system file takes # comments as the lengths and boundary files do
    system.write_text("x x   # x twice\n  # note\n")
    assert main(["unify", "--system", str(system), "--lengths", str(lengths),
                 "--boundary", str(boundary),
                 "--n-rel", "1", "--ell", "16", "--d", "1/4"]) == 0
    assert json.loads(capsys.readouterr().out) == data


def test_mc_command(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "model.rank = 2\nmodel.density = 0\nmodel.length_list = 20\n"
        "model.seed = 3\nexperiment.kind = cprime\nexperiment.trials = 5\n"
        "experiment.lambda = 1/8\n"
    )
    out = tmp_path / "rows.csv"
    assert main(["mc", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("ell,")
    assert len(lines) == 2


def test_mc_command_reports_bad_config(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("model.rank = 2\nmodel.density = 1/0\nmodel.length_list = 20\n")
    with pytest.raises(SystemExit) as exc:
        main(["mc", "--config", str(cfg), "--out", str(tmp_path / "rows.csv")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "randgroups: error: line 2: model.density: bad value '1/0' (zero denominator)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "which, text, message",
    [
        ("lengths", "x = 2\nx 2\n", "lens.txt: line 2: expected '<symbol> = <integer length>', got 'x 2'"),
        ("lengths", "# lengths\nx = two\n", "lens.txt: line 2: expected '<symbol> = <integer length>', got 'x = two'"),
        ("boundary", "0 2 3\n", "bound.txt: line 1: expected '<lo> <hi>' as two integers, got '0 2 3'"),
        ("system", "x y\n", "no length for symbol 'y'"),
    ],
    ids=["lengths-no-equals", "lengths-not-integer", "boundary-three-fields", "system-no-length"],
)
def test_unify_command_names_the_bad_line(tmp_path, capsys, which, text, message):
    files = {"system": "sys.txt", "lengths": "lens.txt", "boundary": "bound.txt"}
    contents = {"system": "x x\n", "lengths": "x = 2\n", "boundary": "0 4\n", which: text}
    args = ["unify"]
    for key, name in files.items():
        (tmp_path / name).write_text(contents[key])
        args += [f"--{key}", str(tmp_path / name)]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
