import json

import numpy as np
import pytest

from robusteig import solvers
from robusteig.cli import RANK_SOLVERS, main

from conftest import SEVEN_NODE_EDGES, _stress_realized_dense


@pytest.fixture()
def seven_node_file(tmp_path):
    path = tmp_path / "7node.tsv"
    lines = ["n=7"] + [f"{s}\t{d}" for s, d in SEVEN_NODE_EDGES]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse_csv_scores(out):
    lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
    assert lines[0].startswith("node,")
    rows = [l.split(",") for l in lines[1:]]
    return {int(r[0]): [float(v) for v in r[1:]] for r in rows}


class TestRank:
    def test_regularized_power_stops_after_four_updates(self, capsys, seven_node_file):
        code, out = run_cli(capsys, "rank", "--input", seven_node_file,
                            "--solver", "algorithm1", "--epsilon", "1",
                            "--pair", "l2l2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        history = doc["phi_history"]
        assert [k for k, _ in history] == [0, 1, 2, 3, 4]
        assert history[4][1] > history[3][1]
        assert doc["stop_reason"] == "phi_increase"
        assert doc["iterations_used"] == 4

    def test_model1_averaged_power_recovers_exact_scores(self, capsys):
        code, out = run_cli(capsys, "rank", "--model", "model1", "--n", "2",
                            "--solver", "power-avg", "--tol", "1e-8")
        assert code == 0
        scores = parse_csv_scores(out)
        expected = [0.125, 0.1875, 0.1875, 0.5]
        for node, value in enumerate(expected):
            assert scores[node][0] == pytest.approx(value, abs=1e-7)

    def test_pagerank_matches_the_linear_solve(self, capsys, seven_node_file):
        code, out = run_cli(capsys, "rank", "--input", seven_node_file,
                            "--solver", "pagerank", "--alpha", "0.85",
                            "--tol", "1e-12")
        assert code == 0
        scores = parse_csv_scores(out)
        from conftest import SEVEN_NODE_DENSE
        expected = np.linalg.solve(np.eye(7) - 0.85 * SEVEN_NODE_DENSE,
                                   0.15 * np.ones(7) / 7)
        for node in range(7):
            assert scores[node][0] == pytest.approx(expected[node], abs=1e-10)

    def test_top_k_table_is_sorted(self, capsys, seven_node_file):
        code, out = run_cli(capsys, "rank", "--input", seven_node_file,
                            "--solver", "pagerank", "--top-k", "3")
        assert code == 0
        lines = out.strip().splitlines()[1:]
        assert len(lines) == 3
        values = [float(l.split(",")[1]) for l in lines]
        assert values == sorted(values, reverse=True)

    def test_scores_sum_to_one(self, capsys, seven_node_file):
        for solver in ("pagerank", "algorithm1", "robust-exact", "nominal"):
            code, out = run_cli(capsys, "rank", "--input", seven_node_file,
                                "--solver", solver, "--tol", "1e-6")
            assert code == 0
            total = sum(v[0] for v in parse_csv_scores(out).values())
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_identical_configs_produce_identical_bytes(self, capsys, seven_node_file):
        args = ("rank", "--input", seven_node_file, "--solver", "robust-exact",
                "--epsilon", "1", "--seed", "5", "--format", "json")
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second

    def test_robust_l1g1_on_the_periodic_grid_is_the_certified_nominal_vector(self, capsys):
        code, out = run_cli(capsys, "rank", "--model", "model2", "--n", "20",
                            "--solver", "robust-exact", "--pair", "l1g1",
                            "--col-budget", "inv-degree", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["stop_reason"] == "nominal"
        assert doc["objective"]["total"] == pytest.approx(1 / 39, rel=1e-6)
        assert doc["phi_history"] == [[0, doc["objective"]["total"]]]

    def test_robust_l1g1_on_seven_node_keeps_its_bytes(self, capsys, monkeypatch,
                                                      seven_node_file):
        # a reducible P: the nominal pre-check declines before any matvec
        args = ("rank", "--input", seven_node_file, "--solver", "robust-exact",
                "--pair", "l1g1", "--col-budget", "uniform:0.3", "--format", "json")
        code, out = run_cli(capsys, *args)
        assert code == 0 and json.loads(out)["stop_reason"] != "nominal"
        monkeypatch.setattr(solvers, "_nominal_certificate", lambda *a: None)
        assert run_cli(capsys, *args) == (code, out)

    def test_robust_l1g1_on_seven_node_is_the_lp_optimum(self, capsys, seven_node_file):
        args = ("rank", "--input", seven_node_file, "--solver", "robust-exact",
                "--pair", "l1g1", "--col-budget", "uniform:0.3", "--format", "json")
        code, out = run_cli(capsys, *args)
        assert code == 0
        doc = json.loads(out)
        assert doc["stop_reason"] == "lp"
        assert doc["objective"]["total"] == pytest.approx(20 / 69, abs=1e-9)
        assert run_cli(capsys, *args) == (code, out)

    def test_json_top_k_lists_the_largest_scores(self, capsys, seven_node_file):
        code, out = run_cli(capsys, "rank", "--input", seven_node_file,
                            "--solver", "pagerank", "--format", "json", "--top-k", "2")
        assert code == 0
        doc = json.loads(out)
        order = np.argsort(-np.array(doc["scores"]), kind="stable")[:2]
        assert doc["top"] == [[int(i), doc["scores"][i]] for i in order]
        assert doc["top"][0][1] >= doc["top"][1][1]

    def test_nominal_default_tol_ends_and_repeats_bytes(self, capsys):
        # the default --tol 1e-10 once meant 2e10 matvecs on this 900-node grid
        args = ("rank", "--model", "model1", "--n", "30", "--solver", "nominal")
        code, first = run_cli(capsys, *args)
        assert code == 0
        _, second = run_cli(capsys, *args)
        assert first == second

    @pytest.mark.parametrize("tol", ["3"])
    def test_nominal_tol_of_two_or_more_scores_uniformly(self, capsys, tol):
        # every simplex vector has residual <= 2
        code, out = run_cli(capsys, "rank", "--model", "model2", "--n", "3",
                            "--solver", "nominal", "--tol", tol)
        assert code == 0
        assert [s[0] for s in parse_csv_scores(out).values()] == [1 / 9] * 9

    def test_budgets_that_make_the_l1g1_penalty_linear_warn_on_stderr(
            self, capsys, seven_node_file):
        # eps/n budgets sum to 1, so g1 is sum_j c_j x_j, a constant on the simplex
        args = ("rank", "--input", seven_node_file, "--solver", "nominal",
                "--pair", "l1g1", "--format", "json")
        assert main(list(args)) == 0
        default = capsys.readouterr()
        assert "warning" in default.err and "l1g1" in default.err
        assert len(default.err.splitlines()) == 1
        assert main([*args, "--col-budget", "uniform:0.3"]) == 0
        robust = capsys.readouterr()
        assert robust.err == ""

    @pytest.mark.parametrize("solver", ["algorithm1", "pagerank"])
    def test_l2g2_weights_that_fill_the_ball_up_to_rounding(self, capsys, solver):
        # 400 * 0.05^2 is 1 up to rounding: g2 is the box value, not an error
        code = main(["rank", "--model", "model2", "--n", "20", "--pair", "l2g2",
                     "--col-budget", "uniform:0.05", "--solver", solver])
        captured = capsys.readouterr()
        assert code == 0
        assert "warning" in captured.err and "l2g2" in captured.err
        assert sum(scores[0] for scores in parse_csv_scores(captured.out).values()) == \
            pytest.approx(1.0, abs=1e-9)


class TestCompare:
    def test_seven_node_nominal_vs_damped_and_robust(self, capsys, seven_node_file):
        code, out = run_cli(capsys, "compare", "--input", seven_node_file,
                            "--solvers", "nominal,pagerank,robust-exact",
                            "--alpha", "0.85", "--epsilon", "1", "--tol", "1e-8")
        assert code == 0
        scores = parse_csv_scores(out)
        nominal = np.array([scores[i][0] for i in range(7)])
        np.testing.assert_allclose(nominal, [0, 0, 0, 0, 0, 0.5, 0.5], atol=1e-5)
        # the damped and robust scores sit far from the nominal eigenvector
        pr = np.array([scores[i][1] for i in range(7)])
        rb = np.array([scores[i][2] for i in range(7)])
        assert np.abs(nominal - pr).sum() > 0.5
        assert np.abs(nominal - rb).sum() > 0.5
        # the footer carries the same distances
        footer = [l for l in out.splitlines() if l.startswith("# l1,")]
        assert len(footer) == 3

    def test_identity_graph_gives_identical_columns(self, capsys, tmp_path):
        path = tmp_path / "id3.tsv"
        path.write_text("n=3\n0\t0\n1\t1\n2\t2\n")
        code, out = run_cli(capsys, "compare", "--input", str(path),
                            "--solvers", "nominal,pagerank", "--tol", "1e-8")
        assert code == 0
        scores = parse_csv_scores(out)
        for node in range(3):
            for value in scores[node]:
                assert value == pytest.approx(1 / 3, abs=1e-6)

    def test_diagonal_extraction_on_a_model(self, capsys):
        code, out = run_cli(capsys, "compare", "--model", "model1", "--n", "5",
                            "--solvers", "nominal,pagerank", "--tol", "1e-5",
                            "--extract", "diagonal", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["nodes"] == [0, 6, 12, 18, 24]
        nominal = doc["scores"]["nominal"]
        assert all(b > a for a, b in zip(nominal, nominal[1:]))

    def test_last_row_extraction_on_a_model(self, capsys):
        code, out = run_cli(capsys, "compare", "--model", "model1", "--n", "4",
                            "--solvers", "nominal,pagerank", "--tol", "1e-5",
                            "--extract", "last-row", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["nodes"] == [12, 13, 14, 15]
        nominal = doc["scores"]["nominal"]
        assert all(b > a for a, b in zip(nominal, nominal[1:]))

    def test_extract_without_model_is_a_config_error(self, capsys, seven_node_file):
        code, _ = run_cli(capsys, "compare", "--input", seven_node_file,
                          "--solvers", "nominal,pagerank", "--extract", "diagonal")
        assert code == 1

    def test_identical_configs_produce_identical_bytes(self, capsys, seven_node_file):
        args = ("compare", "--input", seven_node_file,
                "--solvers", "pagerank,robust-exact", "--tol", "1e-8")
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second

    def test_phi_values_reported_per_solver(self, capsys, seven_node_file):
        code, out = run_cli(capsys, "compare", "--input", seven_node_file,
                            "--solvers", "pagerank,robust-exact",
                            "--format", "json", "--tol", "1e-8")
        assert code == 0
        doc = json.loads(out)
        assert set(doc["phi"]) == {"pagerank", "robust-exact"}
        assert doc["phi"]["robust-exact"] <= doc["phi"]["pagerank"]

    def test_unknown_solver_in_the_list_is_a_config_error(self, capsys, seven_node_file):
        code = main(["compare", "--input", seven_node_file, "--solvers", "nominal,bogus"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "robusteig: error: unknown solver 'bogus'\n"

    def test_solver_listed_twice_is_a_config_error(self, capsys):
        # the columns, phi lines and l1 pairs are keyed by name
        code = main(["compare", "--model", "model2", "--n", "3",
                     "--solvers", "nominal,pagerank,nominal"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "robusteig: error: solver 'nominal' listed twice\n"

    def test_distinct_names_sharing_a_solver_accepted(self, capsys):
        code, out = run_cli(capsys, "compare", "--model", "model2", "--n", "3",
                            "--solvers", "power-avg,nominal")
        assert code == 0
        assert out.splitlines()[0] == "node,power-avg,nominal"
        assert "# l1,power-avg,nominal,0\n" in out

    def test_single_solver_rejected(self, capsys, seven_node_file):
        code, _ = run_cli(capsys, "compare", "--input", seven_node_file,
                          "--solvers", "pagerank")
        assert code == 1


class TestStress:
    def test_bound_dominates_sampled_residuals(self, capsys, seven_node_file):
        code, out = run_cli(capsys, "stress", "--input", seven_node_file,
                            "--solver", "robust-exact", "--set", "xif",
                            "--samples", "100", "--seed", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["bound_satisfied"]
        assert doc["max_realized"] <= doc["upper_bound"]
        assert doc["all_samples_feasible"]

    def test_tiny_budget_reproduces_the_nominal_residual(self, capsys, seven_node_file):
        code, out = run_cli(capsys, "stress", "--input", seven_node_file,
                            "--solver", "pagerank", "--set", "xi2",
                            "--epsilon", "1e-12", "--samples", "50",
                            "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["max_realized"] == pytest.approx(doc["upper_bound"], abs=1e-9)

    def test_inverse_degree_budgets_stay_stochastic(self, capsys, seven_node_file):
        code, out = run_cli(capsys, "stress", "--input", seven_node_file,
                            "--solver", "pagerank", "--set", "xi1",
                            "--col-budget", "inv-degree", "--samples", "100",
                            "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["bound_satisfied"]

    def test_csv_output_lists_samples(self, capsys, seven_node_file):
        code, out = run_cli(capsys, "stress", "--input", seven_node_file,
                            "--set", "xif", "--samples", "10")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "sample,realized"
        assert sum(1 for l in lines if not l.startswith(("sample", "#"))) == 10
        assert any(l.startswith("# bound_satisfied,True") for l in lines)


    @pytest.mark.parametrize("fmt", ("json", "csv"))
    @pytest.mark.parametrize("xi_set", ("xi1", "xi2", "xif", "xif-ball"))
    def test_same_stdout_as_the_dense_stress_loop(self, capsys, seven_node_file,
                                                  monkeypatch, xi_set, fmt):
        from robusteig import cli
        argv = ("stress", "--input", seven_node_file, "--solver", "pagerank",
                "--set", xi_set, "--col-budget", "inv-degree", "--samples", "25",
                "--seed", "3", "--format", fmt)
        code, out = run_cli(capsys, *argv)
        monkeypatch.setattr(cli.perturbation, "sampled_residuals", _stress_realized_dense)
        want_code, want = run_cli(capsys, *argv)
        assert code == want_code == 0
        assert out == want


class TestExitCodes:
    def test_missing_input_file(self, capsys):
        code, _ = run_cli(capsys, "rank", "--input", "/nonexistent/graph.tsv")
        assert code == 2

    def test_unparseable_input_file(self, capsys, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0\tx\n")
        code, _ = run_cli(capsys, "rank", "--input", str(path))
        assert code == 2

    def test_input_file_not_utf8_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.tsv"
        path.write_bytes(b"n=3\r\n0\t1\n# caf\xe9\n1\t2\n")
        code = main(["rank", "--input", str(path)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"robusteig: error: cannot read {path}: line 3: not valid UTF-8\n")

    def test_missing_source_is_a_config_error(self, capsys):
        code, _ = run_cli(capsys, "rank")
        assert code == 1

    def test_both_sources_is_a_config_error(self, capsys, seven_node_file):
        code, _ = run_cli(capsys, "rank", "--input", seven_node_file,
                          "--model", "model1", "--n", "3")
        assert code == 1

    def test_bad_model_size_is_a_config_error(self, capsys):
        code, _ = run_cli(capsys, "rank", "--model", "model1", "--n", "1")
        assert code == 1

    def test_bad_flag_value_is_a_config_error(self, capsys, seven_node_file):
        code, _ = run_cli(capsys, "rank", "--input", seven_node_file,
                          "--col-budget", "triangular:3")
        assert code == 1

    def test_model_without_size_is_a_config_error(self, capsys):
        assert main(["rank", "--model", "model1"]) == 1
        assert capsys.readouterr().err == "robusteig: error: --model requires --n\n"

    def test_uniform_budget_that_is_not_a_number_is_a_config_error(self, capsys,
                                                                    seven_node_file):
        assert main(["rank", "--input", seven_node_file, "--col-budget", "uniform:abc"]) == 1
        assert "bad --col-budget value 'uniform:abc'" in capsys.readouterr().err

    def test_bad_epsilon_is_a_config_error(self, capsys, seven_node_file):
        code, _ = run_cli(capsys, "rank", "--input", seven_node_file,
                          "--epsilon", "-1")
        assert code == 1

    @pytest.mark.parametrize("pair", ["l1g1", "l2g2", "l2l2"])
    @pytest.mark.parametrize("flags, message", [
        (("--col-budget", "uniform:inf"), "column budgets must be finite and > 0, got inf"),
        (("--col-budget", "uniform:nan"), "column budgets must be finite and > 0, got nan"),
        (("--epsilon", "inf"), "epsilon must be finite and > 0, got inf"),
        (("--epsilon", "nan"), "epsilon must be finite and > 0, got nan"),
    ], ids=["inf-budget", "nan-budget", "inf-epsilon", "nan-epsilon"])
    def test_non_finite_budget_or_epsilon_is_a_config_error(self, capsys, pair, flags,
                                                            message):
        code = main(["rank", "--model", "model2", "--n", "3", "--format", "json",
                     "--pair", pair, *flags])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"robusteig: error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["rank", "--pair", "l1g1"], ["rank", "--pair", "l2g2"], ["rank", "--pair", "l2l2"],
        ["stress", "--pair", "l2l2", "--set", "xi1", "--samples", "2"],
    ], ids=["l1g1", "l2g2", "l2l2", "stress-xi1"])
    def test_weights_that_overflow_are_a_config_error(self, capsys, argv):
        code = main([*argv, "--model", "model2", "--n", "3",
                     "--col-budget", "uniform:1e308", "--epsilon", "1e-10"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == ("robusteig: error: all weights c_j = eps_j / eps "
                                "must be finite and > 0\n")

    def test_solver_failure_exits_three(self, capsys, seven_node_file, monkeypatch):
        def explode(*args, **kwargs):
            raise RuntimeError("no convergence")

        monkeypatch.setattr(solvers, "pagerank", explode)
        code = main(["rank", "--input", seven_node_file, "--solver", "pagerank"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "robusteig: solver error: no convergence\n"

    @pytest.mark.parametrize("solver", RANK_SOLVERS)
    @pytest.mark.parametrize("flag, value, message", [
        ("--alpha", "1.5", "alpha must be in (0, 1), got 1.5"),
        ("--tol", "0", "tol must be > 0, got 0.0"),
        ("--max-iter", "0", "max_iter must be >= 1, got 0"),
    ])
    def test_bad_solver_setting_is_a_config_error(self, capsys, seven_node_file, solver,
                                                  flag, value, message):
        # checked for every solver, also those that do not read the flag
        code = main(["rank", "--input", seven_node_file, "--solver", solver, flag, value])
        assert code == 1
        assert capsys.readouterr().err == f"robusteig: error: {message}\n"

    @pytest.mark.parametrize("solver", RANK_SOLVERS)
    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tol_is_a_config_error(self, capsys, solver, tol):
        # --tol inf once exited 0 and wrote "tol": Infinity, which is not JSON
        code = main(["rank", "--model", "model2", "--n", "3", "--solver", solver,
                     "--tol", tol, "--format", "json"])
        captured = capsys.readouterr()
        want = "tol must be finite, got inf" if tol == "inf" else "tol must be > 0, got nan"
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"robusteig: error: {want}\n"

    @pytest.mark.parametrize("command, flag", [("rank", "--top-k"), ("compare", "--top-k"),
                                               ("stress", "--samples")])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_count_below_one_is_a_config_error(self, capsys, seven_node_file, command, flag,
                                               value):
        code = main([command, "--input", seven_node_file, flag, value])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"robusteig: error: {flag} must be >= 1, got {value}\n"

    def test_unknown_flag_exits_one(self, capsys, seven_node_file):
        with pytest.raises(SystemExit) as exc:
            main(["rank", "--input", seven_node_file, "--frobnicate"])
        assert exc.value.code == 1

    def test_infeasible_perturbation_exits_four(self, capsys, seven_node_file, monkeypatch):
        from robusteig import cli, perturbation

        def explode(*args, **kwargs):
            raise perturbation.InfeasiblePerturbationError("no feasible draw")

        monkeypatch.setattr(cli.perturbation, "sample_perturbation", explode)
        code, _ = run_cli(capsys, "stress", "--input", seven_node_file,
                          "--set", "xif", "--samples", "3")
        assert code == 4


class TestSuggestEpsilon:
    def test_flag_overrides_the_epsilon_value(self, capsys, seven_node_file):
        code, out = run_cli(capsys, "rank", "--input", seven_node_file,
                            "--solver", "algorithm1", "--format", "json",
                            "--suggest-epsilon", "0.5", "20")
        assert code == 0
        doc = json.loads(out)
        # sqrt(0.5 * 7) / 20
        expected = (0.5 * 7) ** 0.5 / 20
        penalty = doc["objective"]["penalty_term"]
        scores = np.array(doc["scores"])
        assert penalty == pytest.approx(expected * np.linalg.norm(scores), rel=1e-9)

    def test_bad_heuristic_arguments_exit_one(self, capsys, seven_node_file):
        code, _ = run_cli(capsys, "rank", "--input", seven_node_file,
                          "--suggest-epsilon", "1.5", "20")
        assert code == 1


def test_console_entry_point_runs():
    import subprocess
    import sys
    result = subprocess.run([sys.executable, "-m", "robusteig.cli", "rank",
                             "--model", "model2", "--n", "2",
                             "--solver", "power-avg", "--tol", "1e-6"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.startswith("node,score")
