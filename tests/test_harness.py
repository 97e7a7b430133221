from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from randgroups.harness import (
    Budget,
    ExperimentConfig,
    ResultRow,
    run_experiment,
    emit,
    read_json_table,
    parse_config,
    CSV_HEADER,
)


def small_cprime_cfg():
    return ExperimentConfig(
        kind="cprime",
        rank=2,
        density=Fraction(0),
        length_list=(20, 30),
        seed=7,
        trials=12,
        lam=Fraction(1, 8),
    )


def test_cprime_rows_shape():
    rows = run_experiment(small_cprime_cfg())
    assert [r.ell for r in rows] == [20, 30]
    for r in rows:
        assert 0 <= r.success <= r.trials
        assert r.success + r.skips + r.failures == r.trials
        assert r.oracle is not None


def test_determinism_across_reruns(tmp_path):
    outputs = []
    for run in range(2):
        rows = run_experiment(small_cprime_cfg())
        path = tmp_path / f"out{run}.csv"
        emit(rows, "csv", path)
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


def test_trial_prefix_monotonicity():
    base = small_cprime_cfg()
    fewer = ExperimentConfig(
        kind="cprime", rank=2, density=Fraction(0), length_list=(20, 30),
        seed=7, trials=6, lam=Fraction(1, 8),
    )
    rows_full = run_experiment(base)
    rows_half = run_experiment(fewer)
    for a, b in zip(rows_half, rows_full):
        assert a.success <= b.success  # per-trial seeds are a prefix


def test_sentence_experiment_dichotomy_small():
    # rank 3, l = 20: the C'(1/6) gate admits most samples (6 of these 8)
    cfg = ExperimentConfig(
        kind="sentence",
        rank=3,
        density=Fraction(0),
        length_list=(20,),
        seed=306,
        trials=8,
        sentence_text="x y ~x ~y = 1",
        ball=1,
    )
    rows = run_experiment(cfg)
    [row] = rows
    # every C'(1/6)-verified trial refutes commutativity, matching the free group
    assert row.success >= 1
    assert row.success + row.skips == row.trials
    assert row.failures == 0


def test_sentence_experiment_control_no_relators():
    # density model needs relators; use the free control through rank-2 samples
    cfg = ExperimentConfig(
        kind="sentence",
        rank=3,
        density=Fraction(0),
        length_list=(20,),
        seed=306,
        trials=8,
        sentence_text="x x = 1 -> x = 1",
        ball=2,
    )
    [row] = run_experiment(cfg)
    # torsion-freeness is not refuted in the free group nor in the samples
    assert row.success >= 1
    assert row.failures == 0


def test_geometry_experiment_tiny():
    # rank 3, l = 10: C'(1/8) admits one of these 30 samples, and at
    # radius 5 >= l/2 its ball identifies vertices and holds digons
    cfg = ExperimentConfig(
        kind="geometry",
        rank=3,
        density=Fraction(0),
        length_list=(10,),
        seed=0,
        trials=30,
        ball=5,
        checks=("single-layer", "digons"),
    )
    [row] = run_experiment(cfg)
    assert row.success >= 1
    assert row.success + row.skips + row.failures == row.trials
    assert row.failures == 0


def test_geometry_scan_reports_violations_without_crashing():
    # a fabricated ball whose digon cells cannot bear the relator: the
    # scan must surface the violations through the report plumbing
    from randgroups.cayley import geometry_scan
    from test_cayley import three_geodesic_ball

    ball = three_geodesic_ball(16)
    rep = geometry_scan(ball, ("single-layer", "digons"))
    assert rep.pairs_checked > 0
    assert rep.digon_count >= 2
    assert rep.violations  # invalid synthetic cells are flagged
    # a misspelt check name must not scan nothing and pass
    with pytest.raises(ValueError):
        geometry_scan(ball, ("bogus",))
    with pytest.raises(ValueError):
        geometry_scan(ball, ("single-layr", "digons"))


def test_emit_csv_header_and_empty(tmp_path):
    path = tmp_path / "empty.csv"
    emit([], "csv", path)
    assert path.read_text() == CSV_HEADER + "\n"


def test_emit_json_round_trip(tmp_path):
    rows = run_experiment(small_cprime_cfg())
    path = tmp_path / "rows.json"
    emit(rows, "json", path)
    back = read_json_table(path)
    assert back == rows


def test_csv_numeric_fields(tmp_path):
    rows = run_experiment(small_cprime_cfg())
    path = tmp_path / "rows.csv"
    emit(rows, "csv", path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 9
        for cell in cells:
            if cell:
                float(cell)  # numeric, no quoting needed


def test_parse_config_round_trip():
    text = """
# demo config
model.rank = 2
model.density = 1/16
model.length_list = 40,80
model.seed = 11
experiment.kind = cprime
experiment.trials = 5
experiment.lambda = 1/8
budget.ball_vertices = 5000
"""
    cfg = parse_config(text)
    assert cfg.rank == 2
    assert cfg.density == Fraction(1, 16)
    assert cfg.length_list == (40, 80)
    assert cfg.trials == 5
    assert cfg.budget.ball_vertices == 5000


def test_parse_config_rejects_unknown_key():
    # also bad values: 1/0 divides by zero, and a misspelt check name
    # would check nothing and let every trial pass; each message names
    # the line, the key and what is wrong
    for line, message in (
        ("bogus.key = 1", "line 2: unknown key 'bogus.key'"),
        ("model.density = 1/0", "line 2: model.density: bad value '1/0' (zero denominator)"),
        ("experiment.lambda = 1/0", "line 2: experiment.lambda: bad value '1/0' (zero denominator)"),
        ("model.density = half", "line 2: model.density: bad value 'half' (not a fraction)"),
        ("experiment.trials = many", "line 2: experiment.trials: bad value 'many' (not an integer)"),
        (
            "model.length_list = 10,x",
            "line 2: model.length_list: bad value '10,x' (not a comma-separated list of integers)",
        ),
        ("budget.tuples = 1e3", "line 2: budget.tuples: bad value '1e3' (not an integer)"),
        (
            "experiment.checks = single-layr",
            "line 2: experiment.checks: bad value 'single-layr' (unknown geometry checks ['single-layr']",
        ),
        # a ball the kind cannot use fails when the config is built, not mid-run
        ("experiment.kind = geometry\nexperiment.ball = 0", "experiment.ball: bad value 0 (geometry needs ball >= 1)"),
        ("experiment.kind = sentence\nexperiment.ball = -1", "experiment.ball: bad value -1 (sentence needs ball >= 0)"),
        # so do an unknown kind and a rank without a nonabelian free group
        ("experiment.kind = nonsense", "experiment.kind: bad value 'nonsense' (known: cprime, sentence, geometry)"),
        ("model.rank = 1", "model.rank: bad value 1 (rank must be >= 2)"),
    ):
        with pytest.raises(ValueError) as exc:
            parse_config(f"experiment.kind = cprime\n{line}\n")
        assert str(exc.value).startswith(message)


def test_run_experiment_dispatch():
    rows = run_experiment(small_cprime_cfg())
    assert len(rows) == 2
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig(kind="nonsense"))


_config_keys = st.sampled_from(
    ["model.rank", "model.density", "model.length_list", "model.seed", "experiment.kind",
     "experiment.trials", "experiment.lambda", "experiment.sentence", "experiment.ball",
     "experiment.checks", "experiment.record_time", "budget.ball_vertices", "budget.tuples",
     "bogus.key", ""]
)
_config_values = st.sampled_from(
    ["0", "1", "-1", "3", "1/8", "1/0", "x", "", "10,20", "10,", "digons", "single-layr",
     "cprime", "sentence", "geometry", "nonsense", "true", "x y ~x ~y = 1", "= ="]
) | st.text(max_size=8)
_config_lines = st.builds(
    lambda k, v, sep: f"{k}{sep}{v}", _config_keys, _config_values, st.sampled_from([" = ", "=", " ", "#"])
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_config_lines, max_size=5).map("\n".join) | st.text(max_size=40))
def test_parse_config_raises_only_value_error(text):
    """Any text either parses or raises a ValueError subclass."""
    try:
        parse_config(text)
    except ValueError:
        pass
