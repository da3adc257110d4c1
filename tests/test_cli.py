"""End-to-end command-line runs, in process via main(argv)."""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import types

import numpy as np
import pytest

import artifact_digest
import gtplateau
import gtplateau.cli as cli
import gtplateau.pso as pso
from gtplateau.cli import MAX_NET_SCALE, NOT_IMPLEMENTED_NOTE, main
from gtplateau.basis import BasisSpec
from gtplateau.coons import TbPatch, solve_tb_interior
from gtplateau.io import load_net, save_net, write_obj
from gtplateau.numerics import gauss_legendre_rule
from gtplateau.patch import ControlNet, Patch, SurfaceShape, area, tessellate
from hybrid_definition import tb_components
from laplacian_reference import defect_objective

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
WAVE = str(FIXTURES / "wave_boundary.json")
DOME = str(FIXTURES / "dome_boundary.json")
COLUMNS = str(FIXTURES / "columns_known.json")
SADDLE = str(FIXTURES / "saddle_boundary.json")


def read_summary(out: pathlib.Path) -> dict:
    return json.loads((out / "summary.json").read_text())


#: What every solved surface reports, in this order.
REPORTED = ["energy", "area", "system_condition_hint"]


def assert_reported(result: dict) -> None:
    """A solved surface's result carries ``REPORTED``, one after another."""
    keys = list(result)
    start = keys.index("energy")
    assert keys[start:start + len(REPORTED)] == REPORTED


def read_history(path: pathlib.Path) -> np.ndarray:
    rows = path.read_text().splitlines()[1:]
    return np.array([float(row.split(",")[1]) for row in rows])


def flat_complete_net() -> ControlNet:
    i = np.arange(4.0) / 3.0
    points = np.stack(
        np.broadcast_arrays(i[:, None], i[None, :], np.zeros((1, 1))), axis=-1
    )
    return ControlNet(points=points)


class TestSolve:
    def test_bernstein_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["solve", WAVE, "--basis", "bernstein", "--out", str(out)]) == 0
        for name in ("net.json", "surface.obj", "curvature.csv", "summary.json"):
            assert (out / name).exists(), name
        summary = read_summary(out)
        results = summary["results"]
        assert results["route"] == "gram"
        assert results["solved_points"] == 4
        assert results["discrepancy"] is False
        assert abs(results["energy"] - 39.220659340659346) < 1e-9
        assert abs(results["area"] - 38.84292521991595) < 1e-9
        assert summary["settings"]["basis"] == "bernstein"
        assert summary["settings"]["alpha"] is None
        assert "route=gram" in capsys.readouterr().out
        assert load_net(out / "net.json").is_complete

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
    def test_artifacts_get_the_umask_mode(self, tmp_path, umask):
        """Each artifact gets the mode ``open(path, "w")`` gives a new file, 0o666 & ~umask."""
        out = tmp_path / "run"
        saved = os.umask(umask)
        try:
            assert main(["solve", WAVE, "--tess", "4", "--out", str(out)]) == 0
            (tmp_path / "plain.txt").write_text("plain\n")
        finally:
            os.umask(saved)
        modes = {path.name: path.stat().st_mode & 0o777 for path in out.iterdir()}
        assert sorted(modes) == ["curvature.csv", "net.json", "summary.json", "surface.obj"]
        assert set(modes.values()) == {0o666 & ~umask} == {(tmp_path / "plain.txt").stat().st_mode & 0o777}

    def test_reference_miss_writes_report(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(
            ["solve", WAVE, "--basis", "bernstein", "--out", str(out),
             "--reference-area", "38.0"]
        )
        assert rc == 0
        report = json.loads((out / "discrepancy_report.json").read_text())
        assert set(report) == {
            "area", "energy", "quadrature_order", "reference_area", "relative_error"
        }
        assert report["quadrature_order"] == 32
        assert abs(report["relative_error"] - abs(report["area"] - 38.0) / 38.0) < 1e-15
        assert read_summary(out)["results"]["discrepancy"] is True
        assert "discrepancy_report.json" in capsys.readouterr().out

    def test_reference_hit_stays_quiet(self, tmp_path):
        out = tmp_path / "run"
        rc = main(
            ["solve", WAVE, "--alpha", "0.8706,0.8706,0.8706,0.8706",
             "--out", str(out), "--reference-area", "37.4396"]
        )
        assert rc == 0
        assert not (out / "discrepancy_report.json").exists()
        results = read_summary(out)["results"]
        assert results["discrepancy"] is False
        assert abs(results["area"] - 37.61689526994261) < 1e-9

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--reference-area", "0"),
            ("--reference-area", "nan"),
            ("--reference-area", "-38"),
            ("--reference-area", "inf"),
            ("--reference-rel-tol", "-0.01"),
            ("--reference-rel-tol", "0"),
            ("--reference-rel-tol", "nan"),
        ],
    )
    def test_reference_flags_validated(self, tmp_path, capsys, flag, value):
        out = tmp_path / "run"
        argv = ["solve", WAVE, "--out", str(out), "--reference-area", "38.0"]
        rc = main(argv + [f"{flag}={value}"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "invalid input" in err and flag in err
        assert not out.exists()

    def test_complete_net_is_reported_not_solved(self, tmp_path):
        net_file = tmp_path / "flat.json"
        save_net(flat_complete_net(), net_file)
        out = tmp_path / "run"
        rc = main(["solve", str(net_file), "--basis", "bernstein", "--out", str(out)])
        assert rc == 0
        results = read_summary(out)["results"]
        assert results["route"] == "none (net already complete)"
        assert results["solved_points"] == 0
        assert results["system_condition_hint"] is None
        assert abs(results["energy"] - 1.0) < 1e-12 and abs(results["area"] - 1.0) < 1e-12

    def test_emitted_net_reproduces_the_numbers(self, tmp_path):
        alpha = "0.8706,0.8706,0.8706,0.8706"
        first = tmp_path / "first"
        main(["solve", WAVE, "--alpha", alpha, "--out", str(first)])
        second = tmp_path / "second"
        rc = main(["solve", str(first / "net.json"), "--alpha", alpha, "--out", str(second)])
        assert rc == 0
        a = read_summary(first)["results"]
        b = read_summary(second)["results"]
        # emitted nets keep the free mask, so the follow-up run solves again
        assert b["route"] == "gram" and b["solved_points"] == 4
        assert abs(a["energy"] - b["energy"]) < 1e-12
        assert abs(a["area"] - b["area"]) < 1e-12

    def test_summary_bytes_reproducible(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["solve", WAVE, "--basis", "bernstein", "--out", str(out_a)])
        main(["solve", WAVE, "--basis", "bernstein", "--out", str(out_b)])
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
        assert (out_a / "surface.obj").read_bytes() == (out_b / "surface.obj").read_bytes()


class TestOptimize:
    ARGS = ["--swarm", "6", "--iters", "3", "--seed", "0", "--threads", "1", "--tess", "4"]

    def test_two_runs(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["optimize", WAVE, "--runs", "2", "--out", str(out)] + self.ARGS)
        assert rc == 0
        for r in range(2):
            history = read_history(out / f"convergence_{r:02d}.csv")
            assert history.shape == (4,)
            assert np.all(np.diff(history) <= 0.0)
        summary = read_summary(out)
        runs = summary["results"]["runs"]
        assert [row["run"] for row in runs] == [0, 1]
        assert [row["seed"] for row in runs] == [0, 1]
        assert all(row["evaluations"] == 6 * 4 for row in runs)
        best = summary["results"]
        least = min(row["energy"] for row in runs)
        tied = [row["run"] for row in runs if row["energy"] <= least + cli._BEST_RUN_RTOL * least]
        assert best["best_run"] == tied[0]
        assert_reported(best)
        assert [best[key] for key in REPORTED] == [runs[best["best_run"]][key] for key in REPORTED]
        for row in runs:
            assert_reported(row)
            assert row["system_condition_hint"] >= 1.0
            # the winner is the swarm's own extremal, not a second solve
            assert row["energy"] == read_history(out / f"convergence_{row['run']:02d}.csv")[-1]
            assert all(0.5 <= x <= 3.5 for x in row["alpha"])
            assert row["area"] <= row["energy"] + 1e-9
        assert summary["settings"]["runs"] == 2
        assert (out / "net.json").exists() and (out / "surface.obj").exists()

    @pytest.mark.parametrize(
        "energies, best",
        [
            ((38.428812781904995, 38.42881278190499), 0),  # one ulp apart: tied, the first wins
            ((38.42881278190499, 38.428812781904995), 0),
            ((2.0, 1.0, 1.0), 1),
            ((1.0 + 1e-11, 1.0), 1),
        ],
    )
    def test_best_run_ignores_rounding_ties(self, monkeypatch, energies, best):
        class Family:
            def minimize(self, config):
                return types.SimpleNamespace(energy=energies[config.seed])

        monkeypatch.setattr("gtplateau.cli.reduced_functional_family", lambda net, rule: Family())
        config = pso.PsoConfig(swarm_size=2, max_iters=0, seed=0)
        runs, r_best = cli._swarm_runs(None, None, config, len(energies))
        assert [run.energy for run in runs] == list(energies)
        assert r_best == best

    def test_winner_is_not_solved_again(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the swarm's winner was solved a second time")

        monkeypatch.setattr("gtplateau.cli.solve_interior", refuse)
        assert main(["optimize", WAVE, "--out", str(tmp_path / "run")] + self.ARGS) == 0

    def test_zero_runs_rejected(self, tmp_path, capsys):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main(["optimize", WAVE, "--runs", "0", "--out", str(out)] + self.ARGS)
        assert exc.value.code == 2
        assert not out.exists()
        assert "argument --runs: --runs must be >= 1, got 0" in capsys.readouterr().err

    def test_complete_net_rejected(self, tmp_path):
        net_file = tmp_path / "flat.json"
        save_net(flat_complete_net(), net_file)
        rc = main(["optimize", str(net_file), "--out", str(tmp_path / "o")] + self.ARGS)
        assert rc == 2

    def test_identical_seeds_identical_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        monkeypatch.setenv("GT_PLATEAU_THREADS", "2")
        args = ["optimize", WAVE, "--runs", "1", "--swarm", "6", "--iters", "3",
                "--seed", "5", "--tess", "4"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        for name in ("convergence_00.csv", "net.json", "summary.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


class TestBackToBackCalls:
    """One process reuses one parser: no call may see another's flags."""

    PLAIN = ["optimize", WAVE, "--swarm", "4", "--iters", "2", "--tess", "4"]

    def test_calls_share_no_defaults_or_state(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        assert main(self.PLAIN + ["--out", str(tmp_path / "first")]) == 0
        flagged = ["optimize", DOME, "--runs", "2", "--seed", "7", "--swarm", "5", "--iters", "3",
                   "--quad", "16", "--bounds", "1,2", "--threads", "2", "--inertia", "0.5",
                   "--tess", "2", "--out", str(tmp_path / "flagged")]
        assert main(flagged) == 0
        assert main(["solve", WAVE, "--basis", "bernstein", "--alpha", "1,1,1,1", "--tess", "3",
                     "--reference-area", "38.0", "--out", str(tmp_path / "solve")]) == 0
        assert main(["compare", DOME, "--runs", "0", "--alpha", "1,3,1,3",
                     "--out", str(tmp_path / "compare")]) == 0
        with pytest.raises(SystemExit):
            main(["optimize", WAVE, "--swarm", "0", "--out", str(tmp_path / "bad")])
        assert main(self.PLAIN + ["--out", str(tmp_path / "again")]) == 0
        for name in ("summary.json", "net.json", "convergence_00.csv", "surface.obj"):
            assert (tmp_path / "first" / name).read_bytes() == (tmp_path / "again" / name).read_bytes()
        settings = read_summary(tmp_path / "again")["settings"]
        assert (settings["quadrature_order"], settings["runs"], settings["seed"]) == (32, 1, 0)
        assert (settings["bounds"], settings["threads"], settings["inertia"]) == ([0.5, 3.5], None, 0.7)
        solve = read_summary(tmp_path / "solve")["settings"]
        assert (solve["quadrature_order"], solve["alpha"]) == (32, None)
        capsys.readouterr()


class TestParallelReplay:
    @pytest.mark.parametrize(
        "argv, names",
        [
            (["optimize", WAVE, "--runs", "2", "--swarm", "7", "--iters", "4", "--tess", "4"],
             ("convergence_00.csv", "convergence_01.csv", "net.json", "summary.json")),
            (["coons", DOME, "--swarm", "7", "--iters", "4", "--tess", "4"],
             ("convergence.csv", "net.json", "summary.json")),
        ],
    )
    def test_thread_count_does_not_change_bytes(self, tmp_path, monkeypatch, argv, names):
        # 7 particles: 2 workers get chunks of 4 and 3, one worker gets the whole stack
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        monkeypatch.setattr(pso, "POOL_MIN_SWARM_S", 0.0)  # a pool however cheap the swarm
        outs = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("GT_PLATEAU_THREADS", threads)
            outs[threads] = tmp_path / f"threads-{threads}"
            assert main(argv + ["--seed", "9", "--out", str(outs[threads])]) == 0
        for name in names:
            assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes(), name

    def test_criterion_10_command_with_the_pool_forced(self, tmp_path, monkeypatch):
        # acceptance criterion 10's swarm is too cheap to engage the pool; here
        # every iteration runs in it and must replay a sequential run's bytes
        built = []

        class CountedPool(pso.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        monkeypatch.setattr(pso, "POOL_MIN_SWARM_S", 0.0)
        monkeypatch.setattr(pso, "ThreadPoolExecutor", CountedPool)
        args = ["optimize", WAVE, "--runs", "2", "--swarm", "12", "--iters", "5", "--seed", "3", "--tess", "4"]
        outs = {}
        for threads in ("2", "1"):
            monkeypatch.setenv("GT_PLATEAU_THREADS", threads)
            outs[threads] = tmp_path / f"threads-{threads}"
            assert main(args + ["--out", str(outs[threads])]) == 0
        assert built == [2, 2]
        for name in ("convergence_00.csv", "convergence_01.csv", "net.json", "summary.json"):
            assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes(), name


class TestHarmonic:
    def test_columns_case_certified(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["harmonic", COLUMNS, "--out", str(out)]) == 0
        results = read_summary(out)["results"]
        assert results["certified"] is True
        assert results["laplacian_defect"] < results["certificate_bound"]
        assert results["reconstructed_points"] == 8
        assert load_net(out / "net.json").is_complete
        assert "certified=True" in capsys.readouterr().out

    def test_tuning_beats_coarse_grid(self, tmp_path):
        out = tmp_path / "run"
        rc = main(
            ["harmonic", COLUMNS, "--out", str(out), "--tune-alpha",
             "--swarm", "16", "--iters", "10", "--seed", "0", "--threads", "1"]
        )
        assert rc == 0
        results = read_summary(out)["results"]
        tuned = results["tuned_defect"]
        assert abs(tuned - 3.1150937162957506) / 3.1150937162957506 < 1e-9
        assert results["evaluations"] == 16 * 11
        assert all(0.5 <= x <= 3.5 for x in results["alpha"])
        history = read_history(out / "convergence.csv")
        assert np.all(np.diff(history) <= 0.0) and history[-1] == tuned

        # the swarm must at least match a coarse 5x5 grid over (a, a, b, b)
        net = load_net(out / "net.json")
        rule = gauss_legendre_rule(32)
        grid = np.linspace(0.5, 3.5, 5)
        coarse = min(
            defect_objective(net, SurfaceShape(a, a, b, b), rule)
            for a in grid
            for b in grid
        )
        assert tuned <= coarse

    def test_thread_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        # 7 particles: 2 workers get chunks of 4 and 3, one worker gets the whole stack
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        monkeypatch.setattr(pso, "POOL_MIN_SWARM_S", 0.0)  # a pool however cheap the swarm
        outs = {}
        for threads in ("1", "2"):
            outs[threads] = tmp_path / f"threads-{threads}"
            argv = ["harmonic", WAVE, "--tune-alpha", "--swarm", "7", "--iters", "4",
                    "--seed", "9", "--threads", threads, "--out", str(outs[threads])]
            assert main(argv) == 0
        for name in ("convergence.csv", "net.json"):
            assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes(), name
        one, two = read_summary(outs["1"]), read_summary(outs["2"])
        assert (one["settings"].pop("threads"), two["settings"].pop("threads")) == (1, 2)
        assert one == two

    def test_rank_deficient_data_fails_cleanly(self, tmp_path):
        points = np.full((4, 4, 3), np.nan)
        for i in (0, -1):
            for j in (0, -1):
                points[i, j] = (float(i), float(j), 1.0)
        net_file = tmp_path / "corners.json"
        save_net(ControlNet(points=points), net_file)
        rc = main(["harmonic", str(net_file), "--out", str(tmp_path / "o")])
        assert rc == 3


class TestCoons:
    def test_artifacts_and_energy(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(
            ["coons", WAVE, "--out", str(out), "--swarm", "6", "--iters", "4",
             "--seed", "3", "--threads", "1", "--tess", "8"]
        )
        assert rc == 0
        for name in (
            "convergence.csv", "net.json", "surface.obj", "r1.obj", "r2.obj",
            "curvature.csv", "summary.json",
        ):
            assert (out / name).exists(), name
        results = read_summary(out)["results"]
        assert abs(results["energy"] - 39.22525274076327) / 39.22525274076327 < 1e-9
        assert all(0.5 <= x <= 3.5 for x in results["alpha"])
        history = read_history(out / "convergence.csv")
        assert np.all(np.diff(history) <= 0.0)
        assert results["energy"] == history[-1]
        assert_reported(results)
        assert list(results)[-1] == "evaluations"
        printed = capsys.readouterr().out
        assert "coons: alpha=" in printed and f" area={results['area']:.6f}" in printed

    @pytest.mark.parametrize("fixture", [WAVE, SADDLE], ids=["wave", "saddle"])
    def test_area_is_the_written_surfaces(self, tmp_path, capsys, fixture):
        """The reported area is the hybrid's ``area`` of the written net at the
        reported shape vector on the command's rule, bit for bit, at most the energy."""
        out = tmp_path / "run"
        rc = main(["coons", fixture, "--out", str(out), "--swarm", "6", "--iters", "2",
                   "--threads", "1", "--tess", "2", "--quad", "20"])
        assert rc == 0
        summary = read_summary(out)
        results = summary["results"]
        surface = TbPatch(load_net(out / "net.json"), SurfaceShape(*results["alpha"]))
        assert results["area"] == area(surface, gauss_legendre_rule(summary["settings"]["quadrature_order"]))
        assert results["area"] <= results["energy"] + 1e-9
        assert f"energy={results['energy']:.6f} area={results['area']:.6f}\n" in capsys.readouterr().out

    def test_any_boundary_degree(self, tmp_path):
        # the (5, 4) saddle: the surface and both mixed-basis meshes at the net's degrees
        out = tmp_path / "run"
        rc = main(["coons", SADDLE, "--out", str(out), "--swarm", "6", "--iters", "2",
                   "--threads", "1", "--tess", "3"])
        assert rc == 0
        net, written = load_net(SADDLE), load_net(out / "net.json")
        assert written.points.shape == (6, 5, 3) and written.is_complete
        np.testing.assert_array_equal(written.points[net.fixed], net.points[net.fixed])
        for name in ("surface.obj", "r1.obj", "r2.obj"):
            vertices = [line for line in (out / name).read_text().splitlines() if line.startswith("v ")]
            assert len(vertices) == 16, name

    @pytest.mark.parametrize("fixture", [WAVE, SADDLE], ids=["wave", "saddle"])
    def test_component_meshes(self, tmp_path, fixture):
        """r1.obj and r2.obj hold R1 and R2 of the written net and shape at the
        grid points, byte for byte as the reference route, ``tessellate``, writes them."""
        out, tess = tmp_path / "run", 5
        rc = main(["coons", fixture, "--out", str(out), "--swarm", "6", "--iters", "2",
                   "--threads", "1", "--tess", str(tess)])
        assert rc == 0
        net = load_net(out / "net.json")
        shape = SurfaceShape.from_iterable(read_summary(out)["results"]["alpha"])
        m, n = net.degree_u, net.degree_v
        gu, gv = shape.basis_specs(m, n)
        params = np.linspace(0.0, 1.0, tess + 1)
        expected = np.array([[tb_components(net, shape, u, v)[:2] for v in params] for u in params])
        for k, (name, bu, bv) in enumerate(
            (("r1.obj", BasisSpec.bernstein(m), gv), ("r2.obj", gu, BasisSpec.bernstein(n)))
        ):
            text = (out / name).read_text().splitlines()
            vertices = np.array([[float(x) for x in line.split()[1:]] for line in text if line.startswith("v ")])
            np.testing.assert_allclose(vertices, expected[:, :, k].reshape(-1, 3), rtol=0, atol=1e-12 * net.scale())
            reference = tmp_path / f"reference-{name}"
            write_obj(reference, *tessellate(Patch(basis_u=bu, basis_v=bv, net=net), tess))
            assert (out / name).read_bytes() == reference.read_bytes(), name

    @pytest.mark.parametrize("fixture", [WAVE, DOME, SADDLE], ids=["wave", "dome", "saddle"])
    def test_single_solve_reproduces_the_written_net(self, tmp_path, fixture):
        """The library's single-shape solve at the reported shape vector is the
        written net, bit for bit: both read the one cached family of forms."""
        out = tmp_path / "run"
        rc = main(["coons", fixture, "--out", str(out), "--swarm", "6", "--iters", "3",
                   "--threads", "1", "--tess", "2"])
        assert rc == 0
        shape = SurfaceShape(*read_summary(out)["results"]["alpha"])
        solved = solve_tb_interior(load_net(fixture), shape, gauss_legendre_rule(32))
        assert solved.points.tobytes() == load_net(out / "net.json").points.tobytes()

    def test_linear_direction_refused(self, tmp_path, capsys):
        net_file, out = tmp_path / "strip.json", tmp_path / "run"
        points = np.zeros((2, 4, 3))
        points[..., 0], points[..., 1] = np.arange(2)[:, None], np.arange(4)[None, :]
        save_net(ControlNet(points=points), net_file)
        assert main(["coons", str(net_file), "--swarm", "3", "--iters", "1", "--out", str(out)]) == 2
        assert not out.exists()
        assert "GT degree must be >= 2" in capsys.readouterr().err


class TestCompare:
    ARGS = ["--swarm", "6", "--iters", "3", "--seed", "0", "--threads", "1"]

    def test_table_rows(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["compare", WAVE, "--runs", "1", "--out", str(out)] + self.ARGS)
        assert rc == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        assert lines[0] == "method,alpha1,alpha2,beta1,beta2,energy,area,note"
        methods = [line.split(",")[0] for line in lines[1:]]
        assert methods == [
            "gt-optimized", "gt-fixed-alpha", "bernstein-dirichlet",
            "quasi-harmonic", "bending-energy",
        ]
        rows = read_summary(out)["results"]["rows"]
        for row in rows:
            assert_reported(row)
            if row["note"] == NOT_IMPLEMENTED_NOTE:
                assert [row[key] for key in REPORTED] == [None, None, None]
            else:
                assert row["area"] <= row["energy"] + 1e-9
                assert row["system_condition_hint"] >= 1.0
        markdown = (out / "comparison.md").read_text()
        assert "| gt-fixed-alpha |" in markdown
        assert NOT_IMPLEMENTED_NOTE in markdown
        assert markdown in capsys.readouterr().out

    def test_zero_runs_drop_optimized_row(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["compare", WAVE, "--runs", "0", "--out", str(out)] + self.ARGS)
        assert rc == 0
        summary = read_summary(out)
        assert summary["results"]["optimized_row_included"] is False
        methods = [row["method"] for row in summary["results"]["rows"]]
        assert "gt-optimized" not in methods


class TestBasisEval:
    def test_stdout_table(self, capsys):
        rc = main(["basis", "eval", "--basis", "bernstein", "--degree", "2", "--samples", "3"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (
            "t,value_0,value_1,value_2,d1_0,d1_1,d1_2,d2_0,d2_1,d2_2"
        )
        assert len(lines) == 4
        mid = lines[2].split(",")
        assert mid[:4] == ["0.5", "0.25", "0.5", "0.25"]

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "basis.csv"
        rc = main(["basis", "eval", "--degree", "3", "--theta", "1.5,2.5",
                   "--samples", "5", "--out", str(target)])
        assert rc == 0
        assert target.exists()
        assert len(target.read_text().splitlines()) == 6
        assert "wrote 5 samples" in capsys.readouterr().out

    def test_bad_theta_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["basis", "eval", "--theta", "1,2,3"])
        assert exc.value.code == 2

    def test_theta_outside_domain_rejected(self, capsys):
        assert main(["basis", "eval", "--theta", "0.1,2.0"]) == 2
        assert "theta1 must lie in" in capsys.readouterr().err

    def test_sample_floor(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["basis", "eval", "--samples", "1"])
        assert exc.value.code == 2
        assert "argument --samples: --samples must be >= 2, got 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "basis, degree, samples",
        [("gt", "3", "1000000000000"), ("bernstein", "3", "322639"), ("gt", "1029", "1357"), ("gt", "1031", "2000")],
    )
    def test_table_size_refused_before_any_table(self, tmp_path, capsys, monkeypatch, basis, degree, samples):
        def refuse(*args):
            raise AssertionError("a table was built before its size was checked")

        monkeypatch.setattr("gtplateau.basis._bernstein_values", refuse)
        target = tmp_path / "basis.csv"
        assert main(["basis", "eval", "--basis", basis, "--degree", degree, "--samples", samples,
                     "--out", str(target)]) == 2
        assert not target.exists()
        cells = int(samples) * (3 * (int(degree) + 1) + 1)
        assert cells > cli._MAX_TABLE_CELLS
        assert (f"invalid input: --samples {samples} at degree {degree} is {cells} table cells, "
                f"over {cli._MAX_TABLE_CELLS}") in capsys.readouterr().err

    def test_table_size_counts_every_column(self, tmp_path, monkeypatch):
        # t and the values and both derivatives of degree + 1 functions: 13 cells a row at degree 3
        monkeypatch.setattr(cli, "_MAX_TABLE_CELLS", 13 * 5)
        target = tmp_path / "basis.csv"
        argv = ["basis", "eval", "--degree", "3", "--out", str(target), "--samples"]
        assert main(argv + ["6"]) == 2
        assert not target.exists()
        assert main(argv + ["5"]) == 0
        assert len(target.read_text().splitlines()) == 6

    def test_degree_past_double_range(self, capsys):
        assert main(["basis", "eval", "--basis", "bernstein", "--degree", "1030", "--samples", "3"]) == 2
        assert "invalid input: Bernstein degree must be <= 1029, got 1030" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "basis, degree, family", [("gt", "1032", "GT"), ("gt", "4000", "GT"), ("bernstein", "20000", "Bernstein")]
    )
    def test_degree_refused_before_any_table(self, capsys, monkeypatch, basis, degree, family):
        def refuse(*args):
            raise AssertionError("a table was built before the degree was checked")

        monkeypatch.setattr("gtplateau.basis._bernstein_values", refuse)
        assert main(["basis", "eval", "--basis", basis, "--degree", degree]) == 2
        high = {"GT": 1031, "Bernstein": 1029}[family]
        assert f"invalid input: {family} degree must be <= {high}, got {degree}" in capsys.readouterr().err


#: Every command that reads GT_PLATEAU_THREADS, including those that run no swarm.
THREAD_VARIABLE_ARGV = [
    ["harmonic", COLUMNS, "--tune-alpha", "--swarm", "3", "--iters", "1"],
    ["coons", WAVE, "--swarm", "3", "--iters", "1", "--tess", "4"],
    ["compare", WAVE, "--runs", "0"],
    ["compare", "{complete}", "--runs", "2"],
    ["harmonic", COLUMNS],
    ["optimize", WAVE, "--swarm", "3", "--iters", "1", "--tess", "4"],
]


@pytest.mark.parametrize(
    "text, message",
    [("0", "--n must be >= 1, got 0"), ("6", "--n must be <= 5, got 6"), ("2.0", "--n needs an integer, got '2.0'"),
     ("True", "--n needs an integer, got 'True'")],
)
def test_int_flag_shares_the_library_check(text, message):
    parse = cli._int_in_range("--n", 1, 5)
    assert parse(" 3 ") == 3 and type(parse("5")) is int
    with pytest.raises(argparse.ArgumentTypeError) as exc:
        parse(text)
    assert str(exc.value) == message


class TestExitCodes:
    def test_missing_file(self, tmp_path):
        assert main(["solve", str(tmp_path / "absent.json"), "--out", str(tmp_path)]) == 4

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["solve", str(bad), "--out", str(tmp_path / "o")]) == 4

    def test_unreadable_net_file(self, tmp_path, capsys, malformed_net_file):
        out = tmp_path / "o"
        assert main(["solve", str(malformed_net_file), "--out", str(out)]) == 4
        assert not out.exists()
        assert malformed_net_file.name in capsys.readouterr().err

    def test_singular_system(self, tmp_path):
        assert main(["solve", WAVE, "--quad", "1", "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize(
        "command", ["solve", "optimize", "compare", "coons", "harmonic", "solve-complete"]
    )
    @pytest.mark.parametrize("quad", ["1", "2", "3"])
    def test_quadrature_below_degree_refused(self, tmp_path, capsys, command, quad):
        # a bicubic net needs 4 nodes; fewer leave the value Gram matrices singular
        # and integrate neither a complete net's energy nor the harmonic certificate
        out, net = tmp_path / "o", WAVE
        if command == "solve-complete":
            command, net = "solve", str(tmp_path / "flat.json")
            save_net(flat_complete_net(), net)
        argv = [command, net, "--quad", quad, "--out", str(out)]
        if command != "solve":
            argv += ["--swarm", "3", "--iters", "1", "--threads", "1"]
        assert main(argv) == 3
        assert not out.exists()
        assert "is below 4, the fewest nodes that resolve the bases [bases:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", WAVE, "--tess", "0"],
            ["optimize", WAVE, "--tess", "0"],
            ["coons", WAVE, "--tess", "-3"],
            ["compare", WAVE, "--runs", "-2"],
            ["optimize", WAVE, "--runs", "-1"],
            ["solve", WAVE, "--tess", "1.5"],
            ["harmonic", COLUMNS, "--swarm", "0", "--tune-alpha"],
            ["harmonic", COLUMNS, "--iters", "-1", "--tune-alpha"],
            ["harmonic", COLUMNS, "--threads", "0", "--tune-alpha"],
            ["harmonic", COLUMNS, "--bounds", "0.2,3.0", "--tune-alpha"],
            ["optimize", WAVE, "--swarm", "0"],
            ["optimize", WAVE, "--threads", "0"],
            ["coons", WAVE, "--bounds", "0.2,3.0"],
            ["coons", WAVE, "--iters", "-1"],
            ["compare", WAVE, "--bounds", "1.0,3.6"],
            ["compare", WAVE, "--bounds", "3.0,1.0"],
            ["solve", WAVE, "--tess", "2049"],
            ["optimize", WAVE, "--tess", "1000000"],
            ["coons", WAVE, "--tess", "2049"],
            ["optimize", WAVE, "--threads", "65"],
            ["coons", WAVE, "--threads", "100000"],
            ["compare", WAVE, "--threads", "65"],
            ["harmonic", COLUMNS, "--threads", "100000", "--tune-alpha"],
        ],
    )
    def test_counts_checked_before_any_file_is_written(self, tmp_path, capsys, argv):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()
        assert f"argument {argv[2]}: {argv[2]} " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "tune, flag, value",
        [
            pytest.param(tune, flag, value, id=f"{prefix}{flag}-{value}")
            for tune, prefix in ((["--tune-alpha"], ""), ([], "untuned-"))
            for flag, value in (
                ("--inertia", "1.5"), ("--inertia", "nan"), ("--c1", "0"), ("--c2", "inf"),
                ("--seed", "-1"), ("--seed", "-3"),
            )
        ],
    )
    def test_harmonic_swarm_settings_checked_before_writing(self, tmp_path, tune, flag, value):
        out = tmp_path / "run"
        assert main(["harmonic", COLUMNS, *tune, flag, value, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--inertia", "nan"), ("--inertia", "1.5"), ("--c1", "inf"), ("--c2", "0"), ("--seed", "-3")],
    )
    @pytest.mark.parametrize("runs, complete", [("0", False), ("2", True)], ids=["runs-0", "complete-net"])
    def test_compare_swarm_settings_checked_before_writing(self, tmp_path, flag, value, runs, complete):
        # no swarm runs in either case, but summary.json would echo every setting
        net = WAVE
        if complete:
            net = str(tmp_path / "complete.json")
            save_net(flat_complete_net(), net)
        out = tmp_path / "run"
        assert main(["compare", net, "--runs", runs, flag, value, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "stamp, argv",
        [
            ("abc", ["solve", WAVE, "--tess", "4"]),
            ("99999999999999999999", ["solve", WAVE, "--tess", "4"]),
            ("-99999999999999", ["solve", WAVE, "--tess", "4"]),
            ("abc", ["optimize", WAVE, "--swarm", "3", "--iters", "1", "--tess", "4"]),
            ("abc", ["harmonic", COLUMNS, "--tune-alpha", "--swarm", "3", "--iters", "1"]),
            ("abc", ["coons", WAVE, "--swarm", "3", "--iters", "1", "--tess", "4"]),
            ("abc", ["compare", WAVE, "--runs", "0"]),
        ],
    )
    def test_bad_epoch_checked_before_writing(self, tmp_path, monkeypatch, capsys, stamp, argv):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", stamp)
        out = tmp_path / "run"
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"SOURCE_DATE_EPOCH must be an integer number of seconds in the datetime range, got '{stamp}'" in err

    @pytest.mark.parametrize("argv", THREAD_VARIABLE_ARGV)
    def test_bad_thread_variable_checked_before_writing(self, tmp_path, monkeypatch, argv):
        complete = tmp_path / "complete.json"
        save_net(flat_complete_net(), complete)
        monkeypatch.setenv("GT_PLATEAU_THREADS", "abc")
        out = tmp_path / "run"
        assert main([arg.format(complete=complete) for arg in argv] + ["--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", THREAD_VARIABLE_ARGV)
    def test_thread_variable_past_the_cap_checked_before_any_pool(self, tmp_path, monkeypatch, capsys, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("a thread pool was built")

        monkeypatch.setattr(pso, "ThreadPoolExecutor", refuse)
        complete = tmp_path / "complete.json"
        save_net(flat_complete_net(), complete)
        monkeypatch.setenv("GT_PLATEAU_THREADS", str(pso.MAX_THREADS + 1))
        out = tmp_path / "run"
        assert main([arg.format(complete=complete) for arg in argv] + ["--out", str(out)]) == 2
        assert not out.exists()
        assert f"GT_PLATEAU_THREADS must be <= {pso.MAX_THREADS}, got {pso.MAX_THREADS + 1}" in capsys.readouterr().err

    def test_non_finite_point_is_a_file_error(self, tmp_path, capsys):
        payload = json.loads(pathlib.Path(WAVE).read_text())
        payload["points"][1][2] = [2, 2, float("nan")]
        net_file = tmp_path / "nan.json"
        net_file.write_text(json.dumps(payload))  # json writes the float as NaN
        out = tmp_path / "run"
        assert main(["solve", str(net_file), "--out", str(out)]) == 4
        assert not out.exists()
        assert "point [1][2] must be null or a list of 3 finite numbers" in capsys.readouterr().err

    def test_alpha_outside_domain(self, tmp_path, capsys):
        for command, alpha, message in (
            ("solve", "0.1,2,2,2", "alpha1 must lie in [0.5, 3.5], got 0.1"),
            ("solve", "2,9,2,2", "alpha2 must lie in [0.5, 3.5], got 9.0"),
            ("compare", "2,2,2,9", "beta2 must lie in [0.5, 3.5], got 9.0"),
        ):
            with pytest.raises(SystemExit) as exc:
                main([command, WAVE, "--alpha", alpha, "--out", str(tmp_path)])
            assert exc.value.code == 2
            assert f"argument --alpha: {message}" in capsys.readouterr().err


def scaled_wave(directory: pathlib.Path, factor: float) -> str:
    """The wave fixture with every known coordinate times ``factor``, as a file."""
    payload = json.loads(pathlib.Path(WAVE).read_text())
    payload["points"] = [[None if p is None else [factor * x for x in p] for p in row] for row in payload["points"]]
    path = directory / f"wave-{factor:g}.json"
    path.write_text(json.dumps(payload))
    return str(path)


NET_COMMANDS = [
    ["solve", "--tess", "4"],
    ["optimize", "--swarm", "4", "--iters", "2", "--tess", "4"],
    ["coons", "--swarm", "4", "--iters", "2", "--tess", "4"],
    ["compare", "--swarm", "4", "--iters", "2"],
    ["harmonic", "--tune-alpha", "--swarm", "4", "--iters", "2"],
]


class TestCoordinateBound:
    """Nets past MAX_NET_SCALE (the wave's largest coordinate is 6) are refused
    before --out exists; below it every reported number is finite."""

    @pytest.mark.parametrize("factor", [1e154, 1e99])
    @pytest.mark.parametrize("argv", NET_COMMANDS, ids=lambda argv: argv[0])
    def test_past_the_bound_writes_nothing(self, tmp_path, capsys, argv, factor):
        out = tmp_path / "run"
        assert main([argv[0], scaled_wave(tmp_path, factor), *argv[1:], "--out", str(out)]) == 2
        assert not out.exists()
        assert f"exceeds the supported {MAX_NET_SCALE:g}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", NET_COMMANDS, ids=lambda argv: argv[0])
    def test_below_the_bound_every_number_is_finite(self, tmp_path, argv):
        out = tmp_path / "run"
        assert main([argv[0], scaled_wave(tmp_path, 1e69), *argv[1:], "--out", str(out)]) == 0

        def refuse(constant):  # json.dumps writes inf and nan as these bare names
            raise AssertionError(f"summary.json holds {constant}")

        results = json.loads((out / "summary.json").read_text(), parse_constant=refuse)["results"]
        values = [row["energy"] for row in results.get("rows", [results]) if row.get("energy") is not None]
        values += [results["laplacian_defect"]] if "laplacian_defect" in results else []
        assert values and all(value > 1e138 for value in values)  # squares of 6e69, all finite


class TestDependencies:
    def test_runs_without_scipy(self, tmp_path):
        # scipy blocked from import: the CLI must import and solve with numpy alone
        script = (
            "import sys; sys.modules['scipy'] = None; "
            "import gtplateau.cli; "
            "sys.exit(gtplateau.cli.main(sys.argv[1:]))"
        )
        src = str(pathlib.Path(gtplateau.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ))
        out = tmp_path / "run"
        proc = subprocess.run(
            [sys.executable, "-c", script, "solve", WAVE, "--tess", "4", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "route=gram" in proc.stdout
        assert read_summary(out)["results"]["route"] == "gram"


class TestArtifactDigest:
    def test_repeats_and_threads_agree(self, tmp_path, monkeypatch):
        built = []

        class CountedPool(pso.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(pso, "ThreadPoolExecutor", CountedPool)
        gate = pso.POOL_MIN_SWARM_S
        labels = ("solve-gt/wave_boundary", "coons/wave_boundary")
        first, second = (artifact_digest.digest(tmp_path / run, labels) for run in ("a", "b"))
        assert first == second
        assert built == [2, 2]  # the 2-thread coons swarm of each digest ran in its pool
        assert pso.POOL_MIN_SWARM_S == gate  # and the forced gate did not leak
        assert artifact_digest.check(first, labels) == []
        names = [line.split("  threads-1/")[1] for line in first if "  threads-1/" in line]
        solve = [f"solve-gt/wave_boundary/{name}" for name in ("curvature.csv", "net.json", "summary.json")]
        assert names[:3] == solve and len(names) == 17 and "coons/wave_boundary/r1.obj" in names

    @pytest.mark.parametrize("doctored", [None, "one hash", "no saddle run", "no r1.obj"])
    def test_check_entry_refuses_a_doctored_digest(self, tmp_path, doctored):
        """``--check`` on a sound digest of every command, then with one 2-thread
        file hash changed, then with the (5, 4) saddle run left out, then with
        the wave's r1.obj gone at both thread counts."""
        zero = hashlib.sha256(b"0").hexdigest()
        lines = [
            f"{digest}  threads-{t}/{label}/{name}"
            for t in artifact_digest.THREADS
            for label in artifact_digest.COMMANDS
            for name, digest in (
                *((name, hashlib.sha256(f"{label}/{name}".encode()).hexdigest())
                  for name in artifact_digest.ARTIFACTS[label.split("/")[0]]),
                (":stdout", zero), (":stderr", zero), (":exit", zero),
            )
        ]
        if doctored == "one hash":
            lines[-4] = "f" * 64 + lines[-4][64:]
        elif doctored == "no saddle run":
            lines = [line for line in lines if "/coons/saddle_boundary/" not in line]
        elif doctored == "no r1.obj":
            lines = [line for line in lines if not line.endswith("/coons/wave_boundary/r1.obj")]
        (tmp_path / "digest.txt").write_text("\n".join(lines) + "\n")
        argv = [sys.executable, artifact_digest.__file__, "--check", str(tmp_path / "digest.txt")]
        run = subprocess.run(argv, capture_output=True, text=True, timeout=60)
        problem = {
            None: "thread counts (1, 2) agree",
            "one hash": "the thread counts (1, 2) give different lines",
            "no saddle run": "no run of coons/saddle_boundary",
            "no r1.obj": "coons/wave_boundary wrote no r1.obj",
        }[doctored]
        assert (run.returncode, problem in run.stdout + run.stderr) == (int(doctored is not None), True)
