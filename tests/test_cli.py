import threading

import numpy as np
import pytest

from sapdplus import cli, datasets
from sapdplus.errors import DivergenceError
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


class TestSolve:
    def quad_args(self, tmp_path, name, extra=()):
        out = tmp_path / name
        return ["solve", "--problem", "quadratic", "--schedule", "theory",
                "--eps", "0.05", "--t-outer", "6", "--reps", "2",
                "--seed", "100", "--out", str(out), *extra], out

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
    def setup_problem(self):
        rng = np.random.default_rng(0)
        qs = datasets.make_scsc_quadratic([[1.0]], [[1.0]], mu_y=1.0, gamma=1.0)
        return qs, rng

    def test_small_steps_contract(self):
        qs, rng = self.setup_problem()
        records = cli.sgda_baseline_run(qs.problem, 200, 0.05, 0.05, rng,
                                        x0=np.array([1.0]), y0=np.array([1.0]))
        d0 = np.hypot(*records[0][2:4])
        dT = np.hypot(float(records[-1][2][0]), float(records[-1][3][0]))
        d_first = np.hypot(1.0, 1.0)
        assert dT < d_first

    def test_large_step_divergence_guard(self):
        qs, rng = self.setup_problem()
        # numeric sweep: find a step that makes the alternating map expand
        diverging_step = None
        for step in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
            x, y = 1.0, 1.0
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
        with pytest.raises(DivergenceError):
            cli.sgda_baseline_run(qs.problem, 2000, diverging_step,
                                  diverging_step, rng, x0=np.array([1.0]),
                                  y0=np.array([1.0]))

    def test_oracle_accounting(self):
        qs, rng = self.setup_problem()
        records = cli.sgda_baseline_run(qs.problem, 37, 0.05, 0.05, rng)
        assert records[-1][1] == 2 * 37
