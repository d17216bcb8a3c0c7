import contextlib
import io
import json
import threading
from dataclasses import asdict, fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import make_scsc_quadratic
from sapdplus import cli, datasets
from sapdplus.errors import ConfigurationError
from sapdplus.params import inner_iterations, step_rule
from sapdplus.sapd import SapdParams
from sapdplus.vr import VrParams
from sapdplus.evaluation import moreau_stationarity


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def read_meta(out):
    """The key = value lines of a trace's meta file."""
    text = Path(str(out) + ".meta.txt").read_text()
    return dict(line.split(" = ", 1) for line in text.splitlines())


def sgda_params(step, n_inner):
    """The tuple cmd_solve builds for sgda-baseline."""
    return SapdParams(step, step, theta=0.0, rho=1.0, alpha=0.0, mu_x=0.0,
                      n_inner=n_inner)


def strip_wall(path):
    header, rows = read_rows(path)
    return header, [[c for i, c in enumerate(row) if i != 3] for row in rows]


def read_by(slots):
    """The keys of cli._CHECKED that a row of one of these slots reads."""
    return [key for key in cli._CHECKED
            if any(key in keys for slot in slots for keys in cli._READS[slot].values())]


# LIBSVM files of 3 samples in 3 features, written where a test runs
DATA_FILES = {"tiny.svm": "+1 1:0.5 2:-1 3:0.2\n-1 1:-0.3 2:0.8\n+1 2:0.4 3:-0.9\n",
              "other.svm": "-1 1:0.9 3:0.1\n+1 1:0.2 2:0.6\n-1 2:-0.7 3:0.5\n"}
# a base run of each problem: its config lines, and the part that a refusal
# names for a key its run does not read when that is not its problem
BASES = {
    "quadratic": ("t_outer = 2\n", {}),
    "bilinear": ("problem = bilinear\nschedule = manual\ntheta = 0.5\ntau = 0.05\n"
                 "sigma = 0.05\nn_inner = 20\nt_outer = 2\n", {}),
    "dro": ("problem = dro\nbatch = 2\nt_outer = 2\n", {}),
    "dro-file": ("problem = dro\ndata = tiny.svm\nbatch = 2\nt_outer = 2\n",
                 dict.fromkeys(("n_samples", "n_features", "instance_seed"),
                               "the data file 'tiny.svm'"))}


def write_base(base, extra=""):
    """Writes run.cfg of a base run, and the data files, in the working
    directory."""
    for name, text in DATA_FILES.items():
        Path(name).write_text(text)
    Path("run.cfg").write_text(BASES[base][0] + extra)


def test_every_key_is_read_by_every_solve_or_has_a_row():
    # twelve instance keys once had no rule: a DRO run on a data file took
    # n_samples = 50 without a word, and listed it in its meta file
    every_solve = {"problem", "algo", "seed", "reps", "out", "epochs", "budget_calls"}
    in_rows = set(read_by(cli._READS))
    assert not every_solve & in_rows
    assert every_solve | in_rows == {f.name for f in fields(cli.RunConfig)}
    assert in_rows == set(cli._CHECKED)


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
        code = cli.main(["check-params", "--schedule", "manual", "--theta", "0.5"])
        out = capsys.readouterr().out
        assert code == 1
        assert "feasible = False" in out

    def test_negative_mu_x_exits_2(self, capsys):
        # a negative mu_x once fell back to gamma: the same schedule as with
        # no --mu-x, and exit 0
        assert cli.main(["check-params", "--schedule", "manual", "--theta", "0.8",
                         "--mu-x", "-1"]) == 2
        assert capsys.readouterr() == ("", "sapdplus: error: mu_x must be nonnegative\n")

    def test_manual_theta_at_bound_passes(self):
        assert cli.main(["check-params", "--schedule", "manual", "--theta", "0.75"]) == 0

    def test_vr_schedule(self, capsys):
        code = cli.main(["check-params", "--algo", "sapd-plus-vr", "--q", "1", "--b-x", "4",
                         "--b-y", "4", "--delta-x", "1", "--eps", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "b = 14400" in out  # ceil(144 * 1 / 0.01)

    def test_manual_theta_one_needs_the_whole_tuple(self, capsys):
        # tau = (1 - theta)/mu_x and its sigma twin vanish at theta = 1, and
        # the N rule has no value there: alpha = 1/sigma once raised
        # ZeroDivisionError
        assert cli.main(["check-params", "--schedule", "manual", "--theta", "1"]) == 2
        assert capsys.readouterr().err == (
            "sapdplus: error: manual schedule at theta = 1 needs tau, sigma and n_inner\n")

    def test_a_tiny_root_argument_keeps_its_momentum_bound(self, capsys):
        # r = 4 l_yx^2 mu_x/(beta l'_xx^2 mu_y) is 3.4e-19 here, so
        # sqrt(1 + r) - 1 rounded to 0 and theta_bar_1 to 1: exit 2 with
        # "momentum lower bound 1 >= 1" where the bound is 0.5
        code = cli.main(["check-params", "--l-xx", "1.2491757621697956e-07",
                         "--l-xy", "0.0016085483073303454", "--l-yx", "6.087981446433789e-08",
                         "--l-yy", "7.575884987978469e-08", "--gamma", "762127.1569356823",
                         "--mu-y", "750.2544361222878"])
        out = capsys.readouterr().out
        assert code == 0
        assert "theta = 0.5\n" in out
        assert "n_inner = 10\n" in out
        assert "feasible = True\n" in out


class TestOneSchedulePath:
    """solve and check-params resolve their schedule in one place."""

    SMALL_DRO = dict(problem="dro", n_samples=60, n_features=5)

    @pytest.mark.parametrize("instance,schedule", [
        pytest.param(dict(problem="quadratic"), dict(eps=0.05), id="theory"),
        pytest.param(SMALL_DRO, dict(algo="sapd-plus-vr", eps=0.05, b_x=1, b_y=1, zeta=0.5),
                     id="theory-vr"),
        pytest.param(dict(problem="quadratic"), dict(schedule="manual", theta=0.8),
                     id="manual"),
        # check-params once had no --n-inner, so it could not name this tuple
        pytest.param(SMALL_DRO, dict(algo="sapd-plus-vr", schedule="manual", tau=0.05,
                                     sigma=0.05, n_inner=20), id="manual-vr"),
        # no eps: check-params once defaulted to 0.1 against solve's 0.05,
        # which moves theta-double-bar, and so tau, sigma and N, when noisy
        pytest.param(dict(problem="quadratic", noise_x=0.1, noise_y=0.1), {},
                     id="theory-default-eps")])
    def test_check_params_prints_what_solve_runs(self, tmp_path, monkeypatch, capsys,
                                                 instance, schedule):
        # the same schedule keys and values go to both subcommands; check-params
        # once spelled them --vr and "--theta given"; no rep runs, so the meta
        # file keeps the schedule's own stage count
        monkeypatch.setattr(cli, "_run_single_rep", lambda *args: ([], ""))
        out = tmp_path / "s.csv"
        assert cli.cmd_solve(dict(instance, **schedule, out=str(out))) == 0
        capsys.readouterr()
        meta = read_meta(out)
        ran = json.loads(meta["schedule_params"])
        cert = float(meta["certificate_min_eigenvalue"])
        p = cli._build_problem(cli.RunConfig(**instance))[0]
        s, c, nz = p.smoothness, p.convexity, p.noise
        constants = dict(l_xx=s.l_xx, l_xy=s.l_xy, l_yx=s.l_yx, l_yy=s.l_yy,
                         gamma=c.gamma, mu_y=c.mu_y, delta_x=nz.delta_x,
                         delta_y=nz.delta_y)
        argv = [a for k, v in dict(constants, **schedule).items()
                for a in (f"--{k.replace('_', '-')}", str(v))]
        assert cli.main(["check-params", *argv]) == 0
        shown = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
        assert [shown[k] for k in ("tau", "sigma", "n_inner", "lmi_min_eigenvalue")] == [
            f"{ran['tau']:.12g}", f"{ran['sigma']:.12g}", str(ran["n_inner"]),
            f"{cert:.12g}"]
        assert {k: shown[k] for k in ran} == {
            k: f"{v:.12g}" if isinstance(v, float) else str(v) for k, v in ran.items()}
        assert shown["t_outer"] == meta["resolved_t_outer"]
        assert shown["feasible"] == meta["certificate_feasible"] == "True"

    @pytest.mark.parametrize("given", [{}, dict(tau=0.1), dict(sigma=0.3, n_inner=4)])
    def test_manual_takes_the_step_rule_for_what_is_unset(self, given):
        cfg = cli.RunConfig(problem="quadratic", schedule="manual", theta=0.8, **given)
        p = cli._build_problem(cfg)[0]
        s, c = p.smoothness, p.convexity
        params, t_outer, _, theory = cli._resolve_schedule(cfg, s, c, p.noise)
        assert params == step_rule(0.8, c.gamma, s, c, **given)
        if not given:
            assert (params.tau, params.sigma) == ((1 - 0.8) / c.gamma,
                                                  (1 - 0.8) / (c.mu_y * 0.8))
            assert params.n_inner == inner_iterations(0.8)
        assert (t_outer, theory) == (1, None)

    # a base request of each kind: its instance (config lines), its flags
    # and its name in a refusal
    REQUESTS = {
        "theory": ("", [], "the sapd-plus theory schedule"),
        "theory-vr": ("problem = dro\nn_samples = 60\nn_features = 5\n",
                      ["--algo", "sapd-plus-vr", "--b-x", "1", "--b-y", "1", "--zeta", "0.5"],
                      "the sapd-plus-vr theory schedule"),
        "manual": ("", ["--schedule", "manual", "--theta", "0.8"],
                   "the sapd-plus manual schedule"),
        "manual-vr": ("problem = dro\nn_samples = 60\nn_features = 5\n",
                      ["--algo", "sapd-plus-vr", "--schedule", "manual", "--tau", "0.05",
                       "--sigma", "0.05", "--n-inner", "20"],
                      "the sapd-plus-vr manual schedule"),
        "sgda-baseline": ("", ["--algo", "sgda-baseline", "--tau", "0.05", "--sigma", "0.05"],
                          "sgda-baseline")}
    # for each checked key, a valid value away from its default and from
    # what every base request runs
    OTHER = dict(tau=0.01, sigma=0.02, theta=0.7, n_inner=13, mu_x=2.5, t_outer=3,
                 gap0=2.0, zeta=0.7, b=37, q=3, b_x=4, b_y=5)

    @pytest.mark.parametrize("key", read_by(["request"]))
    @pytest.mark.parametrize("request_kind", REQUESTS)
    def test_a_set_key_changes_the_run_or_exits_2(self, tmp_path, monkeypatch, capsys,
                                                  request_kind, key):
        # each key once fell silent on some request: solve ran the schedule
        # it would have run without it and listed the value in its meta file
        monkeypatch.setattr(cli, "_run_single_rep", lambda *args: ([], ""))
        monkeypatch.chdir(tmp_path)
        config, flags, name = self.REQUESTS[request_kind]
        val = self.OTHER[key]
        Path("run.cfg").write_text(config)

        def record(out, *extra):
            code = cli.main(["solve", "--config", "run.cfg", "--out", out, *flags, *extra])
            if code != 0:
                return code
            meta = read_meta(out)
            return meta["schedule_params"], meta.get("resolved_t_outer")

        assert record("base.csv") != 2
        capsys.readouterr()
        # the theory b of the noiseless DRO instance is 1, below these
        warns = request_kind == "theory-vr" and key in ("b_x", "b_y")
        with (pytest.warns(UserWarning, match="large batch b below") if warns
              else contextlib.nullcontext()):
            got = record("set.csv", f"--{key.replace('_', '-')}", str(val))
        if got == 2:
            assert capsys.readouterr().err == (
                f"sapdplus: error: {key} = {val} is not read by {name}\n")
            assert not Path("set.csv").exists()
        else:
            assert got != record("base.csv")

    # for each key of the problem, data and oracle rows, a valid value away
    # from its default and from what every base run runs
    INSTANCE_OTHER = dict(n=4, m=3, gamma=0.5, mu_y=0.25, instance_seed=8, noise_x=0.01,
                          noise_y=0.01, data="other.svm", dro_alpha=5.0, eta1=0.01,
                          eta2=0.01, n_samples=40, n_features=3, batch=3)

    @pytest.mark.parametrize("key", read_by(["problem", "data", "oracles"]))
    @pytest.mark.parametrize("base", BASES)
    def test_a_set_instance_key_changes_the_trace_or_exits_2(self, tmp_path, monkeypatch,
                                                             capsys, base, key):
        # each key but noise_x and noise_y once fell silent on some problem,
        # and those two exited 2 with a message of their own
        monkeypatch.chdir(tmp_path)
        val = self.INSTANCE_OTHER[key]
        write_base(base)
        assert cli.main(["solve", "--config", "run.cfg", "--out", "base.csv"]) == 0
        write_base(base, f"{key} = {val}\n")
        capsys.readouterr()
        code = cli.main(["solve", "--config", "run.cfg", "--out", "set.csv"])
        if code == 2:
            name = BASES[base][1].get(key, f"the {base.split('-')[0]} problem")
            assert capsys.readouterr().err == (
                f"sapdplus: error: {key} = {val} is not read by {name}\n")
            assert not Path("set.csv").exists()
        else:
            assert code == 0
            assert strip_wall(Path("set.csv")) != strip_wall(Path("base.csv"))

    @pytest.mark.parametrize("argv,err", [
        # each once printed what bare check-params prints
        pytest.param(["--tau", "0.01"],
                     "tau = 0.01 is not read by the sapd-plus theory schedule", id="tau"),
        pytest.param(["--q", "3", "--b-x", "7", "--zeta", "2"],
                     "zeta = 2.0 is not read by the sapd-plus theory schedule", id="vr-keys"),
        # "--vr --theta 0.5" once certified a plain tuple
        pytest.param(["--algo", "sapd-plus-vr", "--schedule", "manual", "--theta", "0.5",
                      "--tau", "0.1", "--sigma", "0.1", "--n-inner", "5"],
                     "theta = 0.5 is not read by the sapd-plus-vr manual schedule",
                     id="vr-theta"),
        pytest.param(["--algo", "sgda-baseline", "--tau", "0.1", "--sigma", "0.1"],
                     "sgda-baseline has no certificate", id="sgda-baseline"),
        # each once ended in a traceback with exit 1: an InfeasibleScheduleError,
        # and a ZeroDivisionError where beta l'_xx^2 mu_y underflowed
        pytest.param(["--delta-y", "1e6", "--eps", "1e-9"],
                     "momentum theta, the largest lower bound, is not below 1: "
                     "degenerate constants", id="noise-floor-1"),
        pytest.param(["--mu-y", "1e-300"],
                     "momentum lower bound theta_bar_1 is not finite: degenerate constants",
                     id="mu-y-underflow"),
        # a ZeroDivisionError traceback in the VR batch floor, exit 1
        pytest.param(["--algo", "sapd-plus-vr", "--eps", "0"], "eps must be positive",
                     id="vr-eps-0"),
        # each once printed the schedule of eps = 0.05, or of T = 1, and exited 0
        pytest.param(["--algo", "sapd-plus-vr", "--eps", "-0.05"], "eps must be positive",
                     id="vr-eps-negative"),
        pytest.param(["--algo", "sapd-plus-vr", "--gap0", "-1"], "gap0 must be nonnegative",
                     id="vr-gap0-negative"),
        # the problem constants were argparse floats, with no range rule
        pytest.param(["--l-xy", "0"], "l_xy must be positive", id="l-xy-0"),
        pytest.param(["--l-xx", "abc"], "config key 'l_xx': 'abc' is not a number",
                     id="l-xx-text"),
        # each once ended in a traceback with exit 1: a ZeroDivisionError, an
        # OverflowError or a bare RuntimeError ("internal consistency failure")
        pytest.param(["--eps", "1e-300"],
                     "stage count T at eps = 1e-300 is not finite: degenerate constants",
                     id="eps-1e-300"),
        *(pytest.param([flag, "1e300"], "momentum lower bound theta_bar_1 is not finite: "
                       "degenerate constants", id=f"{flag[2:]}-1e300")
          for flag in ("--l-xx", "--l-yx", "--gamma")),
        pytest.param(["--mu-y", "1e-12"], "the closed-form schedule does not certify "
                     "(min eigenvalue -8.890e-05): degenerate constants", id="mu-y-1e-12"),
        pytest.param(["--algo", "sapd-plus-vr", "--q", "1000000000000000000000000"],
                     "the VR schedule does not certify (min eigenvalue -7.321e-01): "
                     "degenerate constants", id="vr-q-1e24",
                     marks=pytest.mark.filterwarnings("ignore:large batch b below"))])
    def test_check_params_refuses_what_it_cannot_certify(self, capsys, argv, err):
        assert cli.main(["check-params", *argv]) == 2
        assert capsys.readouterr() == ("", f"sapdplus: error: {err}\n")

    @pytest.mark.parametrize("argv,want", [
        pytest.param([], ["t_outer = 1"], id="sapd-plus"),
        pytest.param(["--algo", "sapd-plus-vr"], ["b = 1", "t_outer = 1"], id="vr",
                     marks=pytest.mark.filterwarnings("ignore:large batch b below"))])
    def test_a_large_eps_gives_the_rules_limits(self, capsys, argv, want):
        # eps^2 overflows: Python's epsilon**2 raised OverflowError, which the
        # count refused as "T (or b) ... is not finite", exit 2
        assert cli.main(["check-params", "--eps", "1e200", *argv]) == 0
        out = capsys.readouterr().out.splitlines()
        assert all(line in out for line in want)

    @pytest.mark.parametrize("argv,problem", [
        pytest.param(["--theta", "0.5", "--tau", "1e-320"], "quadratic", id="plain"),
        pytest.param(["--algo", "sapd-plus-vr", "--tau", "1e-320", "--sigma", "1e-320",
                      "--n-inner", "3"], "dro", id="vr")])
    def test_manual_tuple_beyond_the_floats_is_not_certified(self, tmp_path, capsys, argv,
                                                             problem):
        # 1/tau overflows; eigvalsh once raised LinAlgError on the inf entry,
        # a traceback with exit 1
        assert cli.main(["check-params", "--schedule", "manual", *argv]) == 1
        out = capsys.readouterr().out
        assert "lmi_min_eigenvalue = -inf\nfeasible = False\n" in out
        trace = tmp_path / "t.csv"
        assert cli.main(["solve", "--problem", problem, "--schedule", "manual", *argv,
                         "--t-outer", "1", "--out", str(trace)]) == 0
        assert capsys.readouterr().err == (
            "warning: manual schedule is not certified (min eigenvalue -inf); proceeding\n")
        assert read_meta(trace)["certificate_feasible"] == "False"

    def test_sgda_baseline_meta_records_what_ran(self, tmp_path):
        # the meta file once recorded the plain theory schedule, its
        # certificate and its T, none of which sgda-baseline runs
        out = tmp_path / "g.csv"
        assert cli.main(["solve", "--algo", "sgda-baseline", "--tau", "0.05",
                         "--sigma", "0.05", "--budget-calls", "56", "--out", str(out)]) == 0
        meta = read_meta(out)
        assert json.loads(meta["schedule_params"]) == asdict(sgda_params(0.05, 28))
        assert not {"theta_bounds", "certificate_min_eigenvalue", "certificate_feasible",
                    "resolved_t_outer"} & meta.keys()
        assert read_rows(out)[1][-1][1] == "28"

    @pytest.mark.parametrize("key,val", [("schedule", "bogus"), ("eps", "0.3"),
                                         ("stat_every", "1"), ("record_every", "5")])
    def test_sgda_baseline_refuses_the_keys_of_staged_runs(self, tmp_path, capsys, key,
                                                           val):
        # each once ran the rows of the run without it, and the meta file
        # listed its value
        out = tmp_path / "g.csv"
        assert cli.main(["solve", "--algo", "sgda-baseline", "--tau", "0.05", "--sigma",
                         "0.05", "--budget-calls", "200", f"--{key.replace('_', '-')}", val,
                         "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"sapdplus: error: {key} = {val} is not read by sgda-baseline\n")
        assert not out.exists()

    def test_sgda_baseline_runs_on_bilinear(self, tmp_path, capsys):
        # it once resolved the theory schedule of the merely concave toy and
        # exited 2 with "mu_y = 0: merely-concave problems take the
        # smoothing path"
        out = tmp_path / "bl.csv"
        assert cli.main(["solve", "--problem", "bilinear", "--algo", "sgda-baseline",
                         "--tau", "0.05", "--sigma", "0.05", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert read_rows(out)[1][-1][1] == "5000"  # 10,000 draws of 2

    @pytest.mark.parametrize("argv,config,err", [
        # an unknown algo once ran plain SAPD+ and exited 0
        pytest.param(["--algo", "sapd-vr"], "", "unknown algo 'sapd-vr'", id="algo"),
        # noise the oracles do not draw once moved N from 132 to 42,857
        pytest.param(["--problem", "dro"], "noise_y = 0.5\n",
                     "noise_y = 0.5 is not read by the dro problem", id="dro-noise"),
        pytest.param(["--problem", "bilinear"], "noise_x = 0.1\n",
                     "noise_x = 0.1 is not read by the bilinear problem",
                     id="bilinear-noise"),
        # a VR trace at batch 50 was once the trace at batch 1
        pytest.param(["--problem", "dro", "--algo", "sapd-plus-vr", "--t-outer", "1",
                      "--batch", "50"], "n_samples = 60\nn_features = 5\n",
                     "batch = 50 is not read by the sapd-plus-vr theory schedule",
                     id="vr-batch"),
        # the budget was once budget_calls alone, and the meta file listed
        # epochs = 2.0 beside it
        pytest.param(["--epochs", "2", "--budget-calls", "100000"], "",
                     "epochs = 2.0 and budget_calls = 100000 both set the budget: set one",
                     id="epochs-and-budget"),
        # once an InfeasibleScheduleError traceback with exit 1
        pytest.param(["--eps", "1e-7"], "noise_x = 1\nnoise_y = 1\n",
                     "momentum theta, the largest lower bound, is not below 1: "
                     "degenerate constants", id="noise-floor-1"),
        # a missing path with ':' was once parsed as LIBSVM text, and text
        # as a one-sample dataset
        pytest.param(["--problem", "dro", "--data", "run:1.svm"], "",
                     "cannot read data file 'run:1.svm': No such file or directory",
                     id="colon-path"),
        pytest.param(["--problem", "dro", "--data", "+1 1:0.5"], "",
                     "cannot read data file '+1 1:0.5': No such file or directory",
                     id="text-data"),
        pytest.param(["--schedule", "manual", "--theta", "1", "--tau", "0.1"], "",
                     "manual schedule at theta = 1 needs tau, sigma and n_inner",
                     id="theta-one"),
        pytest.param(["--schedule", "manual", "--theta", "0.5", "--tau", "-0.1"], "",
                     "tau must be nonnegative", id="negative-tau"),
        pytest.param(["--schedule", "manual"], "",
                     "manual schedule needs theta in (0, 1]", id="no-theta"),
        pytest.param(["--problem", "dro", "--algo", "sapd-plus-vr", "--schedule", "manual",
                      "--tau", "0.05", "--sigma", "0.05"], "",
                     "manual VR schedule needs tau, sigma, n_inner", id="vr-no-n"),
        # no reps once wrote a header-only trace and exited 0
        pytest.param(["--reps", "0"], "", "reps must be >= 1", id="reps-0"),
        pytest.param(["--reps", "-1"], "", "reps must be >= 1", id="reps-negative"),
        # a dro batch of 0 once named neither batch nor the value, and the
        # quadratic problem took it without a word
        pytest.param(["--problem", "dro", "--batch", "0"], "", "batch must be >= 1",
                     id="dro-batch-0"),
        pytest.param(["--batch", "-1"], "", "batch must be >= 1", id="batch-negative"),
        pytest.param([], "batch = 0\n", "batch must be >= 1", id="batch-0-in-file"),
        # a ZeroDivisionError traceback in the VR batch floor, exit 1
        pytest.param(["--problem", "dro", "--algo", "sapd-plus-vr", "--eps", "0"], "",
                     "eps must be positive", id="vr-eps-0"),
        # ran to the end against a target that could never be met
        pytest.param(["--schedule", "manual", "--theta", "0.9", "--eps", "0",
                      "--stat-every", "1"], "", "eps must be positive", id="manual-eps-0"),
        # numpy's "negative dimensions" traceback, exit 1
        pytest.param([], "problem = dro\nn_samples = -5\n", "n_samples must be >= 1",
                     id="n-samples-negative"),
        # each once exited 2 with "gamma must be finite and positive", a key
        # that the user never set
        pytest.param([], "problem = dro\ndro_alpha = -1\n", "dro_alpha must be positive",
                     id="dro-alpha-negative"),
        pytest.param([], "problem = dro\neta1 = 0\n", "eta1 must be positive",
                     id="eta1-0")])
    def test_exits_2_naming_the_fault(self, tmp_path, monkeypatch, capsys, argv,
                                      config, err):
        monkeypatch.chdir(tmp_path)
        Path("run.cfg").write_text(config)
        assert cli.main(["solve", "--config", "run.cfg", "--out", "t.csv", *argv]) == 2
        assert capsys.readouterr().err == f"sapdplus: error: {err}\n"
        assert not Path("t.csv").exists()

    @pytest.mark.parametrize("config,argv,key", [
        # each value once selected the default its 0 stands for and exited 0:
        # the theory T (38,401 stages), a noiseless run, the theory b, gamma
        # for mu_x, 1/n^2 for eta2, one stage for a negative budget
        pytest.param("", ["--t-outer", "-1"], "t_outer", id="t_outer"),
        pytest.param("noise_x = -0.5\n", [], "noise_x", id="noise_x"),
        pytest.param("noise_y = -0.5\n", [], "noise_y", id="noise_y"),
        pytest.param("problem = dro\nalgo = sapd-plus-vr\n", ["--b", "-5"], "b", id="b"),
        pytest.param("schedule = manual\ntheta = 0.8\nmu_x = -1\n", [], "mu_x", id="mu_x"),
        pytest.param("problem = dro\neta2 = -1\n", [], "eta2", id="eta2"),
        pytest.param("", ["--budget-calls", "-100"], "budget_calls", id="budget_calls"),
        pytest.param("", ["--epochs", "-1"], "epochs", id="epochs"),
        pytest.param("", ["--stat-every", "-1"], "stat_every", id="stat_every"),
        # a negative seed once ended in numpy's ValueError traceback, exit 1
        pytest.param("", ["--seed", "-1"], "seed", id="seed"),
        pytest.param("instance_seed = -1\n", [], "instance_seed", id="instance_seed")])
    def test_negative_unset_value_exits_2(self, tmp_path, monkeypatch, capsys,
                                          config, argv, key):
        monkeypatch.chdir(tmp_path)
        Path("run.cfg").write_text(config)
        assert cli.main(["solve", "--config", "run.cfg", "--out", "t.csv", *argv]) == 2
        assert capsys.readouterr().err == f"sapdplus: error: {key} must be nonnegative\n"
        assert not Path("t.csv").exists()
        assert not Path("t.csv.meta.txt").exists()


def numeric(keys):
    return [key for key in keys if isinstance(getattr(cli.RunConfig(), key), (int, float))]


NUMERIC_SOLVE_KEYS = numeric(cli._SOLVE_KEYS)
CHECK_CONSTANT_FLAGS = ["l_xx", "l_xy", "l_yx", "l_yy", "gamma", "mu_y",
                        "delta_x", "delta_y"]


class TestNonFinite:
    """nan and inf are refused before anything runs or is written: a NaN
    constant once printed feasible = True, and --gap0 nan or a manual --tau
    nan ended in a numpy traceback."""

    @pytest.mark.parametrize("val", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", NUMERIC_SOLVE_KEYS)
    def test_solve_exits_2(self, tmp_path, capsys, key, val):
        out = tmp_path / "t.csv"
        argv = ["solve", "--schedule", "manual", "--theta", "0.5", "--tau", "0.1",
                "--sigma", "0.1", "--out", str(out), f"--{key.replace('_', '-')}={val}"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"sapdplus: error: config key {key!r}: {val!r} is not finite\n")
        assert not out.exists()

    @pytest.mark.parametrize("val", ["nan", "inf"])
    @pytest.mark.parametrize("key", numeric(cli._SCHEDULE_KEYS) + CHECK_CONSTANT_FLAGS)
    def test_check_params_exits_2(self, capsys, key, val):
        assert cli.main(["check-params", f"--{key.replace('_', '-')}={val}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("sapdplus: error: ")
        assert "finite" in captured.err


NUMERIC_FIELDS = [f.name for f in fields(cli.RunConfig) if isinstance(f.default, (int, float))]


def refusal(key):
    """The error line for a number of key below what the number rule allows;
    a check-params constant, which is not a RunConfig field, is a float."""
    integer = isinstance(getattr(cli.RunConfig, key, 1.0), int)
    rule = (">= 1" if integer else "positive") if key in cli._POSITIVE else "nonnegative"
    return f"sapdplus: error: {key} must be {rule}\n"


class TestNumberRule:
    """_number range-checks every number that solve and check-params take:
    none is negative, and the keys of _POSITIVE are > 0."""

    # a base request of each kind for check-params
    REQUESTS = {
        "theory": [],
        "theory-vr": ["--algo", "sapd-plus-vr"],
        "manual": ["--schedule", "manual", "--theta", "0.8"],
        "manual-vr": ["--algo", "sapd-plus-vr", "--schedule", "manual", "--tau", "0.05",
                      "--sigma", "0.05", "--n-inner", "20"]}

    @pytest.mark.filterwarnings("ignore:large batch b below")
    @pytest.mark.parametrize("val", ["-1", "0", "0.5", "1", "3"])
    @pytest.mark.parametrize("key", numeric(cli._SCHEDULE_KEYS) + CHECK_CONSTANT_FLAGS)
    @pytest.mark.parametrize("request_kind", REQUESTS)
    def test_check_params_grid_returns(self, capsys, request_kind, key, val):
        # VR theory at eps 0 once raised ZeroDivisionError, and eps -1 and VR
        # gap0 -1 printed a schedule with exit 0
        code = cli.main(["check-params", *self.REQUESTS[request_kind],
                         f"--{key.replace('_', '-')}", val])
        captured = capsys.readouterr()
        assert code in (0, 1, 2)
        if val == "-1":
            assert (code, captured) == (2, ("", refusal(key)))

    @pytest.mark.parametrize("val", ["-1", "0"])
    @pytest.mark.parametrize("key", NUMERIC_FIELDS)
    def test_a_field_below_the_rule_exits_2_naming_it(self, tmp_path, monkeypatch, capsys,
                                                      key, val):
        # negative instance keys, and a 0 of several, once ended in a numpy
        # traceback or a message that named another key
        if val == "0" and key not in cli._POSITIVE:
            assert getattr(cli.RunConfig.from_sources({key: val}, {}), key) == 0
            return
        monkeypatch.chdir(tmp_path)
        Path("run.cfg").write_text(f"{key} = {val}\n")
        assert cli.main(["solve", "--config", "run.cfg", "--out", "t.csv"]) == 2
        assert capsys.readouterr() == ("", refusal(key))
        assert not Path("t.csv").exists()

    def test_defaults_pass_the_rule(self):
        assert cli._POSITIVE <= set(NUMERIC_FIELDS) | set(cli._CONSTANTS)
        for key in NUMERIC_FIELDS:
            default = getattr(cli.RunConfig, key)
            assert cli._number(key, default, isinstance(default, int)) == default
        for key, default in cli._CONSTANTS.items():
            assert cli._number(key, default, False) == default


def log_uniform(key):
    """Numbers 10^e for e uniform in [-300, 300], and 0 where the number rule
    takes it."""
    values = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
    return values if key in cli._POSITIVE else st.one_of(st.just(0.0), values)


@pytest.mark.filterwarnings("ignore:large batch b below")
@pytest.mark.parametrize("request_kind", TestNumberRule.REQUESTS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_check_params_returns_for_every_number_it_takes(request_kind, data):
    # finite extremes the number rule takes once ended in ZeroDivisionError,
    # OverflowError, LinAlgError or RuntimeError tracebacks with exit 1
    keys = CHECK_CONSTANT_FLAGS + ["eps"] + (["gap0"] if "manual" not in request_kind
                                             else [])
    argv = ["check-params", *TestNumberRule.REQUESTS[request_kind]]
    for key in keys:
        argv += [f"--{key.replace('_', '-')}", repr(data.draw(log_uniform(key), label=key))]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert (code == 2) == err.getvalue().startswith("sapdplus: error: ")


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


class TestOneWayIn:
    """A solve flag is read as the same text in a config file is."""

    @pytest.mark.parametrize("key,text,base,value", [
        # argparse once refused both flags: "invalid int value"
        pytest.param("t_outer", "1e0", "", "1", id="t_outer"),
        pytest.param("reps", "2.0", "t_outer = 1\n", "2", id="reps")])
    def test_flag_reads_as_file_text(self, tmp_path, monkeypatch, key, text, base, value):
        monkeypatch.chdir(tmp_path)
        metas = []
        for as_flag in (True, False):
            Path("run.cfg").write_text(base + ("" if as_flag else f"{key} = {text}\n"))
            flag = [f"--{key.replace('_', '-')}", text] if as_flag else []
            assert cli.main(["solve", "--config", "run.cfg", "--out", f"{as_flag}.csv",
                             *flag]) == 0
            metas.append({k: v for k, v in read_meta(f"{as_flag}.csv").items()
                          if k != "out"})
        assert metas[0] == metas[1]
        assert metas[0][key] == value

    def test_bad_flag_reads_as_bad_file_text(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("run.cfg").write_text("reps = 2.7\n")
        for argv in (["--reps", "2.7"], ["--config", "run.cfg"]):
            assert cli.main(["solve", "--out", "t.csv", *argv]) == 2
            assert capsys.readouterr().err == (
                "sapdplus: error: config key 'reps': '2.7' is not an integer\n")
        assert not Path("t.csv").exists()


class TestSolve:
    def quad_args(self, tmp_path, name, extra=()):
        out = tmp_path / name
        return ["solve", "--problem", "quadratic", "--schedule", "theory",
                "--eps", "0.05", "--t-outer", "6", "--reps", "2",
                "--seed", "100", "--out", str(out), *extra], out

    def test_eps_whose_stage_count_leaves_the_floats_exits_2(self, tmp_path, capsys):
        # eps^2 underflows to 0: T once ended in a ZeroDivisionError traceback
        out = tmp_path / "t.csv"
        assert cli.main(["solve", "--eps", "1e-300", "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "sapdplus: error: stage count T at eps = 1e-300 "
                                           "is not finite: degenerate constants\n")
        assert list(tmp_path.iterdir()) == []

    def test_unknown_problem_exits_like_a_bad_flag(self, tmp_path, capsys):
        out = tmp_path / "nope.csv"
        assert cli.main(["solve", "--problem", "nope", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "sapdplus: error: unknown problem 'nope'\n"
        assert not out.exists()

    def test_missing_data_file_exits_like_a_bad_flag(self, tmp_path, capsys):
        # a missing --data file once ended in a FileNotFoundError traceback
        # with exit code 1
        out, data = tmp_path / "dro.csv", tmp_path / "missing" / "data.svm"
        assert cli.main(["solve", "--problem", "dro", "--data", str(data),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"sapdplus: error: cannot read data file {str(data)!r}: "
            "No such file or directory\n")
        assert not out.exists()

    def test_unwritable_out_exits_2_before_the_first_rep(self, tmp_path, monkeypatch,
                                                          capsys):
        # the output directory was once made after every rep had run, and a
        # regular file in its place ended in a FileExistsError traceback
        calls = []
        monkeypatch.setattr(cli, "_run_single_rep",
                            lambda *args: calls.append(args) or ([], ""))
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "x.csv"
        assert cli.main(["solve", "--problem", "dro", "--batch", "10", "--reps", "2",
                         "--t-outer", "5", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"sapdplus: error: cannot write {out}: ")
        assert calls == []

    @pytest.mark.parametrize("taken", ["dir", "dir.meta.txt"])
    def test_out_that_is_a_directory_exits_2_before_the_first_rep(
            self, tmp_path, monkeypatch, capsys, taken):
        # the trace and meta files were once opened after every rep had run
        calls = []
        monkeypatch.setattr(cli, "_run_single_rep",
                            lambda *args: calls.append(args) or ([], ""))
        args, _ = self.quad_args(tmp_path, "dir", extra=("--reps", "1"))
        (tmp_path / taken).mkdir()
        assert cli.main(args) == 2
        assert capsys.readouterr().err == (
            f"sapdplus: error: cannot write {tmp_path / taken}: Is a directory\n")
        assert calls == []

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

    @pytest.mark.parametrize("base", BASES)
    def test_metadata_replay(self, tmp_path, monkeypatch, base):
        # every key of a meta file that solve wrote is read or at its default
        monkeypatch.chdir(tmp_path)
        write_base(base, "reps = 2\nseed = 100\n")
        assert cli.main(["solve", "--config", "run.cfg", "--out", "c.csv"]) == 0
        meta = dict(
            line.split(" = ", 1)
            for line in Path("c.csv.meta.txt").read_text().splitlines()
            if " = " in line and not line.startswith(("schedule_params",
                                                      "certificate",
                                                      "resolved", "note"))
        )
        meta["out"] = "replay.csv"
        Path("replay.cfg").write_text("\n".join(f"{k} = {v}" for k, v in meta.items()))
        assert cli.main(["solve", "--config", "replay.cfg"]) == 0
        assert strip_wall(Path("c.csv")) == strip_wall(Path("replay.csv"))

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
        p = cli._build_problem(cfg)[0]
        params = cli._resolve_schedule(cfg, p.smoothness, p.convexity, p.noise)[0]
        line = next(line for line in Path(str(out) + ".meta.txt").read_text().splitlines()
                    if line.startswith("schedule_params = "))
        replayed = cls(**json.loads(line.split(" = ", 1)[1]))
        assert replayed == params
        assert replayed.tau.hex() == params.tau.hex()

    @pytest.mark.parametrize("extra", [
        pytest.param(dict(algo="sapd-plus", theta=0.5, batch=5), id="plain"),
        pytest.param(dict(algo="sapd-plus-vr", theta=1.0, b=20, b_x=3, b_y=2, q=4),
                     id="vr")])
    def test_budget_cap_counts_stage_draws(self, tmp_path, extra):
        # the cap divides the budget by the draws one stage reports
        run = dict(problem="dro", n_samples=50, n_features=4,
                   schedule="manual", tau=0.05, sigma=0.05, n_inner=11, seed=1,
                   out=str(tmp_path / "b.csv"), **extra)
        cli.cmd_solve(dict(run, t_outer=1))
        per_stage = int(read_rows(tmp_path / "b.csv")[1][-1][2])
        cli.cmd_solve(dict(run, t_outer=100, budget_calls=3 * per_stage + per_stage // 2))
        last = read_rows(tmp_path / "b.csv")[1][-1]
        assert (int(last[1]), int(last[2])) == (3, 3 * per_stage)
        # the meta file once kept the uncapped t_outer = 100
        assert read_meta(tmp_path / "b.csv")["resolved_t_outer"] == "3"

    @pytest.mark.parametrize("extra", [
        pytest.param(dict(algo="sapd-plus", theta=0.5, batch=5), id="plain"),
        pytest.param(dict(algo="sapd-plus-vr", theta=1.0, b=20, b_x=3, b_y=2, q=4),
                     id="vr")])
    def test_budget_below_one_stage_exits_2(self, tmp_path, extra):
        # the cap was once max(1, budget // per_stage): one stage ran anyway,
        # past the budget
        run = dict(problem="dro", n_samples=50, n_features=4,
                   schedule="manual", tau=0.05, sigma=0.05, n_inner=11, seed=1,
                   out=str(tmp_path / "b.csv"), **extra)
        cli.cmd_solve(dict(run, t_outer=1))
        per_stage = int(read_rows(tmp_path / "b.csv")[1][-1][2])
        out = tmp_path / "short.csv"
        with pytest.raises(ConfigurationError, match=(
                f"a budget of {per_stage - 1} draws cannot pay for one stage, "
                f"which draws {per_stage}")):
            cli.cmd_solve(dict(run, out=str(out), budget_calls=per_stage - 1))
        assert not out.exists()
        cli.cmd_solve(dict(run, out=str(out), budget_calls=per_stage))
        assert read_meta(out)["resolved_t_outer"] == "1"

    def test_record_every_flag(self, tmp_path):
        # a row every K stages plus the last stage, for every rep
        args, out = self.quad_args(tmp_path, "r.csv",
                                   extra=("--t-outer", "7", "--record-every", "3"))
        assert cli.main(args) == 0
        _, rows = read_rows(out)
        assert [(r[0], r[1]) for r in rows] == [
            (rep, stage) for rep in ("0", "1") for stage in ("0", "3", "6", "7")]

    def test_record_every_zero_exits_like_a_bad_flag(self, tmp_path, capsys):
        # the outputs were once opened before the check, which truncated an
        # existing trace and left an empty meta file beside it
        args, out = self.quad_args(tmp_path, "z.csv", extra=("--record-every", "0"))
        out.write_text("an earlier trace\n")
        assert cli.main(args) == 2
        assert capsys.readouterr().err == "sapdplus: error: record_every must be >= 1\n"
        assert out.read_text() == "an earlier trace\n"
        assert not Path(str(out) + ".meta.txt").exists()

    def test_stationarity_column(self, tmp_path):
        args, out = self.quad_args(tmp_path, "d.csv",
                                   extra=("--stat-every", "2"))
        cli.main(args)
        _, rows = read_rows(out)
        stats = [r[5] for r in rows if r[5]]
        assert stats  # at least one stationarity estimate recorded

    def test_stationarity_column_on_the_nested_path(self, tmp_path):
        # mu_y = 0: each estimate is evaluation's nested SAPD prox solve, not
        # the accelerated certificate path the quadratic takes
        out = tmp_path / "n.csv"
        assert cli.main(["solve", "--problem", "bilinear", "--schedule", "manual",
                         "--theta", "0.5", "--tau", "0.05", "--sigma", "0.05",
                         "--n-inner", "50", "--t-outer", "3", "--stat-every", "1",
                         "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert [r[1] for r in rows] == ["0", "1", "2"]  # stops at stage 2 of 3
        stats = [float(r[5]) for r in rows[1:]]
        assert stats[0] > cli.RunConfig.eps >= stats[1]

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

    @pytest.mark.parametrize("algo,stages", [
        pytest.param("sapd-plus", [0, 1, 2, 3, 4], id="sapd-plus"),
        # 28 steps of 2 calls, one record per (n + m) // 2 = 7 steps
        pytest.param("sgda-baseline", [0, 7, 14, 21, 28], id="sgda-baseline")])
    def test_wall_ms_stamped_before_objective(self, monkeypatch, algo, stages):
        # on a fake clock only the objective takes time (1 s per call), so a
        # stamp taken as each stage record is kept reads 0 on every row
        cfg = cli.RunConfig(problem="quadratic", algo=algo, t_outer=4, seed=3)
        p, fs, objective, epoch_size, _ = cli._build_problem(cfg)
        if algo == "sgda-baseline":
            params, t_outer = sgda_params(0.05, 28), None
        else:
            params, t_outer = cli._resolve_schedule(cfg, p.smoothness, p.convexity,
                                                    p.noise)[:2]
        now = [100.0]
        monkeypatch.setattr(cli.time, "perf_counter", lambda: now[0])

        def slow_objective(x):
            now[0] += 1.0
            return objective(x)

        rows, note = cli._run_single_rep(0, cfg, p, fs, slow_objective, params,
                                         t_outer, epoch_size)
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


class TestLockstep:
    """`solve --reps` on DRO runs its reps as one replica stack, with the
    trace and meta file of the reps run one by one, except wall_ms."""

    ARGS = ("solve", "--problem", "dro", "--batch", "10", "--reps", "4", "--t-outer", "5",
            "--seed", "3", "--out", "trace.csv")

    @staticmethod
    def solve(where, monkeypatch, extra=(), wrap=False):
        """Run ARGS in the directory `where`; returns (trace lines without
        wall_ms, meta text, the reps _run_single_rep ran, in call order).
        wrap passes build_dro's sgrad_x through a plain function, as a
        timing shim does."""
        where.mkdir()
        seen = []
        run_rep, build = cli._run_single_rep, datasets.build_dro

        def spy(rep, *args):
            seen.append(rep)
            return run_rep(rep, *args)

        def build_wrapped(*args, **kwargs):
            inst = build(*args, **kwargs)
            sgrad_x = inst.problem.sgrad_x
            return replace(inst, problem=replace(
                inst.problem, sgrad_x=lambda x, y, idx: sgrad_x(x, y, idx)))

        with monkeypatch.context() as m:
            m.chdir(where)
            m.setattr(cli, "_run_single_rep", spy)
            if wrap:
                m.setattr(datasets, "build_dro", build_wrapped)
            assert cli.main([*TestLockstep.ARGS, *extra]) == 0
        header, rows = strip_wall(where / "trace.csv")
        return [header] + rows, (where / "trace.csv.meta.txt").read_text(), seen

    @pytest.mark.parametrize("extra", [
        pytest.param((), id="fixed-t"),
        # the reps meet the target at stages 2, 4, never and 4
        pytest.param(("--stat-every", "2", "--eps", "1.4e-5"), id="stat-every-2"),
        pytest.param(("--record-every", "3"), id="record-every-3")])
    def test_lockstep_matches_the_reps_one_by_one(self, tmp_path, monkeypatch, extra):
        *lockstep, seen = self.solve(tmp_path / "lockstep", monkeypatch, extra)
        assert seen == []
        *serial, seen = self.solve(tmp_path / "serial", monkeypatch, extra, wrap=True)
        assert seen == [0, 1, 2, 3]
        assert lockstep == serial
        if "--stat-every" in extra:
            last = {row[0]: row[1] for row in serial[0][1:]}
            assert last == {"0": "2", "1": "4", "2": "5", "3": "4"}

    def test_unmarked_oracle_runs_the_reps_one_by_one(self, tmp_path, monkeypatch):
        # a wrapper that does not carry the replica_safe mark, as perfbench's
        # traced run wraps every oracle, falls back to _run_single_rep
        monkeypatch.setattr(cli, "sapd_plus_lockstep", None)
        _, _, seen = self.solve(tmp_path / "serial", monkeypatch, ("--t-outer", "1"),
                                wrap=True)
        assert seen == [0, 1, 2, 3]


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
        rows, note = cli._run_single_rep(0, cfg, qs.problem, None, objective,
                                         sgda_params(step, budget_calls // 2), None, 2)
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
        sgda = sgda_params(0.05, 37)
        assert [row[1] for row in rows] == list(range(38))
        assert [row[2] for row in rows] == [0] + [sgda.draws(k, 1)
                                                 for k in range(1, 38)]
        assert rows[-1][2] == 2 * 37 + 1
