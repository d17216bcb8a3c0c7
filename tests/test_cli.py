import json
import threading
from pathlib import Path

import pytest

from fixtures import make_scsc_quadratic
from sapdplus import cli
from sapdplus.errors import ConfigurationError
from sapdplus.sapd import SapdParams, inner_draws
from sapdplus.vr import VrParams
from sapdplus.evaluation import moreau_stationarity


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def strip_wall(path):
    header, rows = read_rows(path)
    return header, [[c for i, c in enumerate(row) if i != 3] for row in rows]


class TestCheckParams:
    def test_canonical_feasible(self, capsys):
        code = cli.main(["check-params", "--gamma", "1", "--mu-y", "1",
                         "--eps", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "theta = 0.75" in out
        assert "n_inner = 21" in out
        assert "feasible = True" in out

    def test_deterministic_floors_zero(self, capsys):
        cli.main(["check-params", "--eps", "0.1"])
        out = capsys.readouterr().out
        assert "theta_dbar_1 = 0" in out
        assert "theta_dbar_2 = 0" in out

    def test_manual_theta_below_bound_fails(self, capsys):
        code = cli.main(["check-params", "--theta", "0.5"])
        out = capsys.readouterr().out
        assert code == 1
        assert "feasible = False" in out

    def test_manual_theta_at_bound_passes(self):
        assert cli.main(["check-params", "--theta", "0.75"]) == 0

    def test_vr_schedule(self, capsys):
        code = cli.main(["check-params", "--vr", "--q", "1", "--b-x", "4",
                         "--b-y", "4", "--delta-x", "1", "--eps", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "b = 14400" in out  # ceil(144 * 1 / 0.01)


class TestConfigFile:
    def test_parse_and_override(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("# comment\nproblem = quadratic\nseed = 9\n"
                            "reps = 2  # trailing comment\n")
        file_values = cli.parse_config_file(cfg_file)
        cfg = cli.RunConfig.from_sources(file_values, {"seed": 11})
        assert cfg.problem == "quadratic"
        assert cfg.seed == 11  # flag wins
        assert cfg.reps == 2

    def test_malformed_line(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("problem quadratic\n")
        with pytest.raises(Exception):
            cli.parse_config_file(bad)

    @pytest.mark.parametrize("typos,named", [
        pytest.param("n_sample = 50\nnoise_xx = 3\n", "n_sample", id="both"),
        pytest.param("noise_xx = 3\n", "noise_xx", id="noise")])
    def test_unknown_key_is_named(self, tmp_path, capsys, typos, named):
        # misspelt keys were once kept aside and ignored: the first config
        # ran with the default n_samples = 1000 and no noise
        out = tmp_path / "typo.csv"
        cfg_file = tmp_path / "typo.cfg"
        cfg_file.write_text(f"problem = dro\nt_outer = 1\nout = {out}\n{typos}")
        assert cli.main(["solve", "--config", str(cfg_file)]) == 2
        assert capsys.readouterr().err == (
            f"sapdplus: error: unknown config key '{named}'\n")
        assert not out.exists()

    def test_bad_config_value_exits_like_a_bad_flag(self, tmp_path, capsys):
        # a ConfigurationError once escaped main as a traceback with exit
        # code 1, the key named only on its last line
        out = tmp_path / "reps.csv"
        cfg_file = tmp_path / "reps.cfg"
        cfg_file.write_text(f"problem = quadratic\nreps = 2.7\nout = {out}\n")
        assert cli.main(["solve", "--config", str(cfg_file)]) == 2
        assert capsys.readouterr().err == (
            "sapdplus: error: config key 'reps': '2.7' is not an integer\n")
        assert not out.exists()


    @pytest.mark.parametrize("key,val,why", [
        ("reps", "2.7", "not an integer"), ("n_samples", "50.9", "not an integer"),
        ("reps", "two", "not a number"), ("eps", "small", "not a number")])
    def test_malformed_number_is_named(self, key, val, why):
        # integer keys were read as int(float(val)): reps = 2.7 ran 2 reps,
        # and a non-number escaped as a bare ValueError
        with pytest.raises(ConfigurationError,
                           match=f"config key '{key}': '{val}' is {why}"):
            cli.RunConfig.from_sources({key: val}, {})

    def test_integral_spellings_are_taken(self):
        # meta files and hand-written configs spell integers several ways;
        # an int is taken exactly, not through a float
        cfg = cli.RunConfig.from_sources(
            {"reps": "2", "n_samples": "50.0", "budget_calls": "1e3"},
            {"seed": 2**63 + 1})
        assert (cfg.reps, cfg.n_samples, cfg.budget_calls, cfg.seed) == (
            2, 50, 1000, 2**63 + 1)


class TestSolve:
    def quad_args(self, tmp_path, name, extra=()):
        out = tmp_path / name
        return ["solve", "--problem", "quadratic", "--schedule", "theory",
                "--eps", "0.05", "--t-outer", "6", "--reps", "2",
                "--seed", "100", "--out", str(out), *extra], out

    def test_unknown_problem_exits_like_a_bad_flag(self, tmp_path, capsys):
        out = tmp_path / "nope.csv"
        assert cli.main(["solve", "--problem", "nope", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "sapdplus: error: unknown problem 'nope'\n"
        assert not out.exists()

    def test_csv_schema_and_monotone_calls(self, tmp_path):
        args, out = self.quad_args(tmp_path, "a.csv")
        assert cli.main(args) == 0
        header, rows = read_rows(out)
        assert header == "rep,stage,oracle_calls,wall_ms,objective,stationarity"
        reps = {row[0] for row in rows}
        assert reps == {"0", "1"}
        for rep in reps:
            calls = [int(r[2]) for r in rows if r[0] == rep]
            assert calls == sorted(calls)
            assert all(b > a for a, b in zip(calls, calls[1:]))

    def test_same_seed_identical_modulo_wall(self, tmp_path):
        args1, out1 = self.quad_args(tmp_path, "b1.csv")
        args2, out2 = self.quad_args(tmp_path, "b2.csv")
        cli.main(args1)
        cli.main(args2)
        assert strip_wall(out1) == strip_wall(out2)

    def test_metadata_replay(self, tmp_path):
        args, out = self.quad_args(tmp_path, "c.csv")
        cli.main(args)
        meta = dict(
            line.split(" = ", 1)
            for line in (tmp_path / "c.csv.meta.txt").read_text().splitlines()
            if " = " in line and not line.startswith(("schedule_params",
                                                      "certificate",
                                                      "resolved", "note"))
        )
        replay_out = tmp_path / "replay.csv"
        meta["out"] = str(replay_out)
        cfg_file = tmp_path / "replay.cfg"
        cfg_file.write_text("\n".join(f"{k} = {v}" for k, v in meta.items()))
        assert cli.main(["solve", "--config", str(cfg_file)]) == 0
        assert strip_wall(out) == strip_wall(replay_out)

    @pytest.mark.parametrize("overrides,cls", [
        pytest.param(dict(problem="quadratic", schedule="theory"), SapdParams,
                     id="plain"),
        pytest.param(dict(problem="dro", n_samples=60, n_features=5,
                          algo="sapd-plus-vr", schedule="manual", tau=0.05,
                          sigma=0.05, theta=1.0, n_inner=7, b=20, b_x=5, b_y=5,
                          q=3), VrParams, id="vr")])
    def test_schedule_params_replayable(self, tmp_path, overrides, cls):
        # the meta line is JSON of the parameter fields; floats round-trip exactly
        out = tmp_path / "p.csv"
        run = dict(overrides, t_outer=2, seed=4, out=str(out))
        assert cli.cmd_solve(run) == 0
        cfg = cli.RunConfig.from_sources({}, run)
        p, _, _, _, meta = cli._build_problem(cfg)
        params = cli._resolve_schedule(cfg, p, meta)[0]
        line = next(line for line in Path(str(out) + ".meta.txt").read_text().splitlines()
                    if line.startswith("schedule_params = "))
        replayed = cls(**json.loads(line.split(" = ", 1)[1]))
        assert replayed == params
        assert replayed.tau.hex() == params.tau.hex()

    @pytest.mark.parametrize("extra", [
        pytest.param(dict(algo="sapd-plus", theta=0.5), id="plain"),
        pytest.param(dict(algo="sapd-plus-vr", theta=1.0, b=20, b_x=3, b_y=2, q=4),
                     id="vr")])
    def test_budget_cap_counts_stage_draws(self, tmp_path, extra):
        # the cap divides the budget by the draws one stage reports
        run = dict(problem="dro", n_samples=50, n_features=4, batch=5,
                   schedule="manual", tau=0.05, sigma=0.05, n_inner=11, seed=1,
                   out=str(tmp_path / "b.csv"), **extra)
        cli.cmd_solve(dict(run, t_outer=1))
        per_stage = int(read_rows(tmp_path / "b.csv")[1][-1][2])
        cli.cmd_solve(dict(run, t_outer=100, budget_calls=3 * per_stage + per_stage // 2))
        last = read_rows(tmp_path / "b.csv")[1][-1]
        assert (int(last[1]), int(last[2])) == (3, 3 * per_stage)

    def test_stationarity_column(self, tmp_path):
        args, out = self.quad_args(tmp_path, "d.csv",
                                   extra=("--stat-every", "2"))
        cli.main(args)
        _, rows = read_rows(out)
        stats = [r[5] for r in rows if r[5]]
        assert stats  # at least one stationarity estimate recorded

    def test_dro_smoke_decreasing_objective(self, tmp_path):
        out = tmp_path / "dro.csv"
        code = cli.main([
            "solve", "--problem", "dro", "--data", "synthetic",
            "--schedule", "theory", "--algo", "sapd-plus",
            "--eps", "0.05", "--batch", "10", "--epochs", "20",
            "--reps", "1", "--seed", "0", "--out", str(out),
        ])
        assert code == 0
        _, rows = read_rows(out)
        objs = [float(r[4]) for r in rows]
        assert len(objs) >= 3
        assert objs[-1] < objs[0]

    def test_reps_run_serially_in_rep_order(self, tmp_path, monkeypatch):
        seen = []
        run_rep = cli._run_single_rep

        def spy(rep, *args):
            seen.append((rep, threading.get_ident()))
            return run_rep(rep, *args)

        monkeypatch.setattr(cli, "_run_single_rep", spy)
        args, _ = self.quad_args(tmp_path, "e.csv", extra=("--reps", "3"))
        assert cli.main(args) == 0
        assert seen == [(rep, threading.get_ident()) for rep in range(3)]

    @pytest.mark.parametrize("algo,manual,stages", [
        pytest.param("sapd-plus", {}, [0, 1, 2, 3, 4], id="sapd-plus"),
        # 28 steps of 2 calls, one record per (n + m) // 2 = 7 steps
        pytest.param("sgda-baseline", dict(tau=0.05, sigma=0.05, budget_calls=56),
                     [0, 7, 14, 21, 28], id="sgda-baseline")])
    def test_wall_ms_stamped_before_objective(self, monkeypatch, algo, manual, stages):
        # on a fake clock only the objective takes time (1 s per call), so a
        # stamp taken as each stage record is produced reads 0 on every row
        cfg = cli.RunConfig(problem="quadratic", algo=algo, t_outer=4, seed=3, **manual)
        p, fs, objective, epoch_size, meta = cli._build_problem(cfg)
        params, t_outer, _, vr_flag = cli._resolve_schedule(cfg, p, meta)
        now = [100.0]
        monkeypatch.setattr(cli.time, "perf_counter", lambda: now[0])

        def slow_objective(x):
            now[0] += 1.0
            return objective(x)

        rows, note = cli._run_single_rep(0, cfg, p, fs, slow_objective, params,
                                         t_outer, vr_flag, epoch_size)
        assert note == ""
        assert [row[1] for row in rows] == stages
        assert [row[3] for row in rows] == ["0.000"] * 5

    @pytest.mark.parametrize("problem", ["quadratic", "bilinear"])
    def test_start_far_from_stationary(self, problem):
        # the quadratic and bilinear minimizers sit at x = 0; the default
        # run must start at least 10 eps away from stationarity
        cfg = cli.RunConfig(problem=problem)
        p = cli._build_problem(cfg)[0]
        x0, _ = cli._start_point(cfg, p)
        assert moreau_stationarity(p, x0).value >= 10 * cfg.eps

    def test_bench_runs_config_list(self, tmp_path):
        cfg_file = tmp_path / "one.cfg"
        out = tmp_path / "bench.csv"
        cfg_file.write_text(
            "problem = quadratic\nschedule = theory\neps = 0.05\n"
            f"t_outer = 3\nreps = 1\nseed = 5\nout = {out}\n")
        assert cli.main(["bench", "--configs", str(cfg_file)]) == 0
        assert out.exists()


class TestSgdaBaseline:
    """sgda-baseline on the CLI's own path, a sapd_run with theta = 0."""

    @staticmethod
    def run(step, budget_calls):
        qs = make_scsc_quadratic([[1.0]], [[1.0]], mu_y=1.0, gamma=1.0)
        cfg = cli.RunConfig(algo="sgda-baseline", tau=step, sigma=step,
                            budget_calls=budget_calls)
        xs = []

        def objective(x):
            xs.append(float(x[0]))
            return 0.0

        # epoch_size = 2 draws: one row per iteration
        rows, note = cli._run_single_rep(0, cfg, qs.problem, None, objective, None,
                                         1, False, 2)
        return rows, note, xs

    def test_small_steps_contract(self):
        rows, note, xs = self.run(0.05, 400)
        assert note == "" and len(rows) == 201
        assert abs(xs[-1]) < abs(xs[0]) == 1.0

    def test_large_step_divergence_guard(self):
        # numeric sweep: find a step that makes the alternating map expand
        diverging_step = None
        for step in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
            x, y = 1.0, 0.0
            grew = False
            for _ in range(500):
                y = y + step * (x - y)
                x = x - step * (x + y)
                if abs(x) + abs(y) > 1e12:
                    grew = True
                    break
            if grew:
                diverging_step = step
                break
        assert diverging_step is not None
        rows, note, _ = self.run(diverging_step, 4000)
        assert rows == []
        assert note.startswith("rep 0 diverged: iterate norm above guard")

    def test_oracle_accounting(self):
        rows, note, _ = self.run(0.05, 74)
        sgda = SapdParams(0.05, 0.05, theta=0.0, rho=1.0, alpha=0.0, mu_x=0.0,
                          n_inner=37)
        assert [row[1] for row in rows] == list(range(38))
        assert [row[2] for row in rows] == [0] + [inner_draws(sgda, k, 1)
                                                 for k in range(1, 38)]
        assert rows[-1][2] == 2 * 37 + 1
