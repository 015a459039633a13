"""The experiment driver ``jobs/run.py`` and the catalog's shape checks."""
import importlib.util
import json
import pathlib
from dataclasses import replace

import pytest

from repro.experiments.catalog import EXPERIMENTS

_ROOT = pathlib.Path(__file__).parents[1]
_spec = importlib.util.spec_from_file_location("run", _ROOT / "jobs" / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

# table1 takes no --queries, exp8 neither --scale nor --queries; every other
# experiment runs at test scale with two queries per cell.
_TEST_ARGS = {"table1": ["--scale", "test"], "exp8": []}
# Checks that hold at bench scale only: timing comparisons, and Exp-7's
# paths-to-edges ratio (4.7 on the two D8 θ=12 test-scale queries, not 5).
_BENCH_SHAPES = {"exp1", "exp5", "exp5-sweep", "exp6", "exp7"}


@pytest.fixture
def saved(tmp_path, monkeypatch):
    """Rows the driver saved for a name, read back from ``tmp_path``."""
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))

    def load(name):
        path = tmp_path / f"{EXPERIMENTS[name].results}.json"
        return json.loads(path.read_text())

    return load


@pytest.mark.parametrize("name", [n for n in EXPERIMENTS if n != "dataflow"])
def test_local_columns_are_row_keys(name, saved):
    argv = _TEST_ARGS.get(name, ["--scale", "test", "--queries", "2"])
    # A bench-scale shape may fail (exit 1) on two test-scale queries; every
    # other check must hold on the rows just made.
    assert run.main([name, "--local", *argv]) in (
        (0, 1) if name in _BENCH_SHAPES else (0,)
    )
    rows = saved(name)
    assert rows
    assert all(list(r) == list(EXPERIMENTS[name].columns) for r in rows)


def test_dataflow_on_spark(spark, saved):
    assert run.main(["dataflow", "--scale", "test", "--keys", "D8", "D9"]) == 0
    rows = saved("dataflow")
    assert [r["key"] for r in rows] == ["D8", "D9"]
    assert all(list(r) == EXPERIMENTS["dataflow"].columns for r in rows)


def test_keys_filter_a_theta_sweep(saved):
    argv = ["exp2", "--local", "--scale", "test", "--queries", "1", "--keys", "D1"]
    assert run.main(argv) == 0
    rows = saved("exp2")
    assert [(r["key"], r["theta"]) for r in rows] == [
        ("D1", 6), ("D1", 8), ("D1", 10), ("D1", 12)
    ]


def test_failed_check_exits_one(saved, monkeypatch, capsys):
    def never(rows):
        """a shape no rows show"""
        return False

    monkeypatch.setitem(
        run.EXPERIMENTS, "exp8", replace(EXPERIMENTS["exp8"], check=never)
    )
    assert run.main(["exp8"]) == 1
    assert "CHECK FAILED (exp8): a shape no rows show" in capsys.readouterr().out
    assert len(saved("exp8")) == 5  # results are saved before the check


def _ep(vug, dt="INF(1/25)", es=0.2, tg=0.3):
    return {"VUG_s": vug, "EPdtTSG_s": dt, "EPesTSG_s": es, "EPtgTSG_s": tg}


def _ratios(dt=0.01, es=0.02, tg=5.0, quick=5.0, tight=90.0):
    return {"dt_ours": dt, "es_ours": es, "tg_ours": tg,
            "quick_ours": quick, "tight_ours": tight}


def _exp5(n_faster, quick_ratio=5.0):
    return [{"tgTSG_s": 1.0, "QuickUBG_s": 0.5 if i < n_faster else 2.0,
             "quick_ratio": quick_ratio, "tight_ratio": 90.0} for i in range(10)]


def _cell(key, theta, **cols):
    return {"key": key, "theta": theta, **cols}


# Per checked experiment: rows that show the paper's shape, each at the edge
# of a tolerance, then copies broken in one clause each.
_SHAPES = {
    "table1": ([{"our_m": 200, "our_n": 60}],
               [[{"our_m": 199, "our_n": 60}], [{"our_m": 200, "our_n": 59}]]),
    "table2": ([_ratios(), _ratios(dt=0.02, tight=5.0)],
               [[_ratios(dt=0.03)], [_ratios(es=6.0)], [_ratios(tg=5.1)],
                [_ratios(tight=4.9)]]),
    "exp1": ([_ep(1.0), _ep(0.01, dt=0.01, es="INF(2/25)", tg="INF(3/25)")],
             [[_ep(1.01)], [_ep("INF(1/25)")]]),
    "exp4": ([{"total_s": 0.1, "eev_pct": 0.0}, {"total_s": 0.1, "eev_pct": 100.0}],
             [[{"total_s": 0.0, "eev_pct": 10.0}],
              [{"total_s": 0.1, "eev_pct": 100.5}]]),
    "exp5": (_exp5(7), [_exp5(6), _exp5(10, quick_ratio=90.1)]),
    "exp6": ([_cell("D8", 8, enum_inf=0, speedup=1.0),
              _cell("D8", 10, enum_inf=0, speedup=3.0),
              _cell("D8", 12, enum_inf=0, speedup=1.0)],
             [[_cell("D1", 10, enum_inf=5, speedup=9.0),
               _cell("D8", 8, enum_inf=5, speedup=9.0),
               _cell("D8", 12, enum_inf=0, speedup=2.9)]]),
    "exp7": ([_cell("D1", 6, tspg_edges=10, tspg_paths=10, paths_capped=0),
              _cell("D1", 10, tspg_edges=10, tspg_paths=51, paths_capped=0)],
             [[_cell("D1", 6, tspg_edges=10, tspg_paths=99, paths_capped=1),
               _cell("D1", 10, tspg_edges=10, tspg_paths=50, paths_capped=0)]]),
    "dataflow": ([{"matches_kernel": True}],
                 [[{"matches_kernel": True}, {"matches_kernel": False}]]),
}


@pytest.mark.parametrize("name", [n for n, e in EXPERIMENTS.items() if e.check])
def test_check_holds_on_the_shape_and_fails_on_each_break(name):
    check = EXPERIMENTS[name].check
    good, broken = _SHAPES[name.replace("-sweep", "")]
    assert check(good)
    for rows in broken:
        assert not check(rows), rows


def test_exp6_check_holds_without_a_dense_cell():
    assert EXPERIMENTS["exp6"].check([_cell("D1", 10, enum_inf=0, speedup=1.0)])


@pytest.mark.parametrize(
    "argv",
    [
        ["exp9"],
        ["exp5", "--sweep"],
        ["dataflow", "--local"],
        ["exp8", "--keys", "D1"],
        ["exp8", "--scale", "test"],
        ["table1", "--queries", "3"],
        ["exp6", "--keys", "D2"],
        ["exp2", "--keys", "D11"],
        ["table1", "--scale", "huge"],
    ],
)
def test_usage_errors_exit_nonzero_before_running(argv, saved, tmp_path):
    with pytest.raises(SystemExit) as e:
        run.main(argv)
    assert e.value.code == 2
    assert not list(tmp_path.iterdir())
