import argparse
import dataclasses
import inspect
import json
import logging
import os
import platform
import re

import numpy as np
import pytest

import berrri

from berrri import Hyperparameters, SimConfig, fit, run_permutation_fdr, simulate
from berrri import io
from berrri.cli import run
from berrri.errors import ValidationError


def write_matrix(path, values, row_ids, col_ids):
    io.save_matrix(path, np.asarray(values, dtype=float), row_ids, col_ids)
    return path


def _no_fit(*args, **kwargs):
    raise AssertionError("fit ran before the arguments were checked")


class TestLoadMatrix:
    def test_well_formed_roundtrip_ids(self, tmp_path):
        path = write_matrix(tmp_path / "m.tsv", [[0, 1], [2, 0]], ["a", "b"], ["s1", "s2"])
        loaded = io.load_matrix(path, "genotype")
        assert loaded.row_ids == ("a", "b") and loaded.col_ids == ("s1", "s2")
        assert (loaded.values == [[0, 1], [2, 0]]).all()

    def test_genotype_value_three_rejected_with_location(self, tmp_path):
        path = write_matrix(tmp_path / "m.tsv", [[0, 3]], ["r0"], ["s1", "s2"])
        with pytest.raises(ValidationError, match=r"3\.0.*row 'r0'.*column 's2'"):
            io.load_matrix(path, "genotype")

    def test_malformed_cell_cites_coordinates(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("id\tc1\tc2\nr1\t1.0\toops\n")
        with pytest.raises(ValidationError, match=r"row 'r1'.*column 'c2'.*'oops'"):
            io.load_matrix(path, "trait")

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("id\tc1\tc2\nr1\t1.0\n")
        with pytest.raises(ValidationError, match="line 2 has 2 fields"):
            io.load_matrix(path, "trait")

    def test_a_quoted_tab_splits_the_cell(self, tmp_path):
        # a cell is the text between two tabs: quotes do not join cells
        path = tmp_path / "m.tsv"
        path.write_text('id\t"rs\t1"\trs2\na\t0\t1\n')
        with pytest.raises(ValidationError, match="line 2 has 3 fields, expected 4"):
            io.load_matrix(path, "genotype")

    def test_quotes_are_part_of_an_id(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text('id\t"rs1"\trs2\n"a"\t0\t1\n')
        loaded = io.load_matrix(path, "genotype")
        assert loaded.col_ids == ('"rs1"', "rs2") and loaded.row_ids == ('"a"',)
        again = write_matrix(tmp_path / "again.tsv", loaded.values, loaded.row_ids, loaded.col_ids)
        assert again.read_text() == path.read_text()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="no such file"):
            io.load_matrix(tmp_path / "absent.tsv", "trait")

    @pytest.mark.parametrize("text, message", [
        ("", "empty file"),
        ("id\n", "header row has no column IDs"),
        ("id\tc1\tc2\n", "no data rows"),
        ("id\tc1\tc2\nr1\t1.0\t2.0\nr2\t3.0\tinf\n", "non-finite trait value at row 'r2', column 'c2'"),
        ("id\tc1\tc2\nr1\tnan\t2.0\n", "non-finite trait value at row 'r1', column 'c1'"),
    ])
    def test_malformed_file_rejected_naming_the_file(self, tmp_path, text, message):
        path = tmp_path / "m.tsv"
        path.write_text(text)
        with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}: {message}')}$"):
            io.load_matrix(path, "trait")

    def test_write_read_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(20, 30)) * 10.0 ** rng.integers(-8, 8, size=(20, 30))
        ids = [f"r{i}" for i in range(20)], [f"c{j}" for j in range(30)]
        path = write_matrix(tmp_path / "m.tsv", values, *ids)
        loaded = io.load_matrix(path, "trait")
        assert (loaded.values == values).all()


class TestLoadDataset:
    def test_row_count_mismatch_names_both(self, tmp_path):
        gx = write_matrix(tmp_path / "x.tsv", [[0], [1]], ["a", "b"], ["s"])
        gy = write_matrix(tmp_path / "y.tsv", [[1.0]], ["a"], ["t"])
        with pytest.raises(ValidationError, match="2 individuals.*1"):
            io.load_dataset(gx, gy)

    def test_individual_mismatch_names_line_and_both_ids(self, tmp_path):
        gx = write_matrix(tmp_path / "x.tsv", [[0], [1], [2]], ["ind0", "ind1", "ind2"], ["s"])
        gy = write_matrix(tmp_path / "y.tsv", [[1.0], [2.0], [3.0]], ["ind2", "ind0", "ind1"], ["t"])
        with pytest.raises(ValidationError, match=r"line 2: .*'ind0'.*'ind2'"):
            io.load_dataset(gx, gy)
        gz = write_matrix(tmp_path / "z.tsv", [[1.0], [2.0], [3.0]], ["ind0", "ind1", "x"], ["t"])
        with pytest.raises(ValidationError, match=r"line 4: .*'ind2'.*'x'"):
            io.load_dataset(gx, gz)

    def test_positions_attached(self, tmp_path):
        gx = write_matrix(tmp_path / "x.tsv", [[0, 1]], ["a"], ["s1", "s2"])
        gy = write_matrix(tmp_path / "y.tsv", [[1.0]], ["a"], ["t1"])
        (tmp_path / "sp.tsv").write_text("s1\t100\ns2\t250\n")
        (tmp_path / "tp.tsv").write_text("t1\t900\n")
        data = io.load_dataset(gx, gy, tmp_path / "sp.tsv", tmp_path / "tp.tsv")
        assert (data.snp_positions == [100.0, 250.0]).all()
        assert (data.trait_positions == [900.0]).all()

    def test_missing_position_named(self, tmp_path):
        gx = write_matrix(tmp_path / "x.tsv", [[0, 1]], ["a"], ["s1", "s2"])
        gy = write_matrix(tmp_path / "y.tsv", [[1.0]], ["a"], ["t1"])
        (tmp_path / "sp.tsv").write_text("s1\t100\n")
        with pytest.raises(ValidationError, match="s2"):
            io.load_dataset(gx, gy, tmp_path / "sp.tsv")

    def test_repeated_column_id_names_both_columns(self, tmp_path):
        gx = tmp_path / "x.tsv"
        gx.write_text("id\ts1\ts1\na\t0\t1\n")
        gy = write_matrix(tmp_path / "y.tsv", [[1.0]], ["a"], ["t1"])
        with pytest.raises(ValidationError, match=r"x\.tsv: column ID 's1' appears twice, in columns 2 and 3"):
            io.load_dataset(gx, gy)

    def test_repeated_position_id_names_both_lines(self, tmp_path):
        gx = write_matrix(tmp_path / "x.tsv", [[0, 1]], ["a"], ["s1", "s2"])
        gy = write_matrix(tmp_path / "y.tsv", [[1.0]], ["a"], ["t1"])
        (tmp_path / "sp.tsv").write_text("s1\t100\ns2\t250\ns1\t900\n")
        with pytest.raises(ValidationError, match=r"sp\.tsv: ID 's1' appears twice, on lines 1 and 3"):
            io.load_dataset(gx, gy, tmp_path / "sp.tsv")

    def test_repeated_row_id_names_both_lines(self, tmp_path):
        gx = write_matrix(tmp_path / "x.tsv", [[0], [1]], ["ind0", "ind0"], ["s1"])
        gy = write_matrix(tmp_path / "y.tsv", [[1.0], [2.0]], ["ind0", "ind0"], ["t1"])
        with pytest.raises(ValidationError, match=r"x\.tsv: row ID 'ind0' appears twice, on lines 2 and 3"):
            io.load_dataset(gx, gy)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_position_names_its_line(self, tmp_path, text):
        gx = write_matrix(tmp_path / "x.tsv", [[0, 1]], ["a"], ["s1", "s2"])
        gy = write_matrix(tmp_path / "y.tsv", [[1.0]], ["a"], ["t1"])
        (tmp_path / "sp.tsv").write_text(f"s1\t100\ns2\t{text}\n")
        with pytest.raises(ValidationError, match=rf"sp\.tsv: non-finite position at line 2: '{text}'"):
            io.load_dataset(gx, gy, tmp_path / "sp.tsv")

    @pytest.mark.parametrize("text, message", [
        ("s1\t100\ns2\t250\t7\n", "line 2 has 3 fields, expected 2"),
        ("s1\t100\ns2\n", "line 2 has 1 fields, expected 2"),
        ("s1\t100\ns2\t25o\n", "malformed position at line 2: '25o'"),
    ])
    def test_malformed_position_file_names_its_line(self, tmp_path, text, message):
        gx = write_matrix(tmp_path / "x.tsv", [[0, 1]], ["a"], ["s1", "s2"])
        gy = write_matrix(tmp_path / "y.tsv", [[1.0]], ["a"], ["t1"])
        positions = tmp_path / "sp.tsv"
        positions.write_text(text)
        with pytest.raises(ValidationError, match=f"^{re.escape(f'{positions}: {message}')}$"):
            io.load_dataset(gx, gy, positions)


class TestSaveResults:
    def _fitted(self, with_positions=False):
        cfg = SimConfig(n_individuals=30, n_snps=8, n_traits=4, k_true=2, seed=0)
        data, _ = simulate(cfg)
        if with_positions:
            from berrri import Dataset

            data = Dataset(
                X=data.X,
                Y=data.Y,
                snp_ids=data.snp_ids,
                trait_ids=data.trait_ids,
                snp_positions=np.arange(8) * 1000.0,
                trait_positions=np.arange(4) * 5000.0 + 100.0,
            )
        hp = Hyperparameters(k_max=3, seed=0, burn_in=10, check_interval=10, max_iter=60)
        state, report = fit(data, hp)
        return data, state, report

    def test_deterministic_bytes(self, tmp_path):
        data, state, report = self._fitted()
        p1 = io.save_results(tmp_path / "a", data, state, report, config={"x": 1})
        p2 = io.save_results(tmp_path / "b", data, state, report, config={"x": 1})
        for name in p1:
            assert p1[name].read_bytes() == p2[name].read_bytes(), name

    def test_manifest_consistency(self, tmp_path):
        data, state, report = self._fitted()
        paths = io.save_results(tmp_path / "r", data, state, report)
        manifest = io.load_manifest(paths["manifest"])
        assert manifest["format_version"] == io.FORMAT_VERSION
        assert manifest["iterations"] == report.iterations
        assert manifest["elbo_decreases"] == report.elbo_decreases == 0
        assert manifest["checks"][-1]["p_values"] == report.checks[-1].p_values
        assert manifest["checks"][-1]["t_stats"] == report.checks[-1].t_stats
        assert manifest["versions"] == {
            "berrri": berrri.__version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        }
        flagged = sum(
            int(line.split("\t")[4])
            for line in paths["vmap"].read_text().splitlines()[1:]
        )
        assert manifest["n_discoveries"] == flagged

    def test_reload_and_rethreshold_reproduces_discoveries(self, tmp_path):
        from berrri import AssociationScores

        data, state, report = self._fitted()
        threshold = float(np.quantile(np.abs(state.eta @ state.phi), 0.8))
        scores = AssociationScores(fdr_target=0.1, threshold=threshold)
        paths = io.save_results(tmp_path / "r", data, state, report, scores=scores)
        reloaded = io.load_matrix(paths["vmap_matrix"], "trait")
        again = reloaded.values >= scores.threshold
        assert (again == scores.discoveries(state)).all()
        flagged = np.array([
            int(line.split("\t")[4])
            for line in paths["vmap"].read_text().splitlines()[1:]
        ]).reshape(8, 4)
        assert (flagged.astype(bool) == scores.discoveries(state)).all()

    def test_score_tables_and_flags_describe_the_state(self, tmp_path):
        from berrri import AssociationScores

        data, state, report = self._fitted()
        magnitude = np.abs(state.eta @ state.phi)
        threshold = float(np.quantile(magnitude, 0.7))
        scores = AssociationScores(fdr_target=0.1, threshold=threshold)
        paths = io.save_results(tmp_path / "r", data, state, report, scores=scores)
        assert np.array_equal(io.load_matrix(paths["vmap_matrix"], "trait").values, magnitude)
        rows = [line.split("\t") for line in paths["vmap"].read_text().splitlines()[1:]]
        assert np.array_equal(np.array([float(r[3]) for r in rows]).reshape(8, 4), magnitude)
        flagged = np.array([int(r[4]) for r in rows]).reshape(8, 4).astype(bool)
        assert (flagged == (magnitude >= threshold)).all() and flagged.any()
        assert io.load_manifest(paths["manifest"])["n_discoveries"] == int(flagged.sum())

    def test_integer_ids_are_written_as_text(self, tmp_path):
        from berrri import Dataset

        fitted, state, report = self._fitted()
        data = Dataset(X=fitted.X, Y=fitted.Y, snp_ids=range(8), trait_ids=range(10, 14))
        paths = io.save_results(tmp_path / "r", data, state, report)
        reloaded = io.load_matrix(paths["vmap_matrix"], "trait")
        assert reloaded.row_ids == tuple(map(str, range(8)))
        assert reloaded.col_ids == tuple(map(str, range(10, 14)))

    def test_distance_column_present_with_positions(self, tmp_path):
        data, state, report = self._fitted(with_positions=True)
        paths = io.save_results(tmp_path / "r", data, state, report)
        header, first = paths["vmap"].read_text().splitlines()[:2]
        assert header.split("\t")[-1] == "distance"
        assert float(first.split("\t")[-1]) == abs(0.0 - 100.0)

    def test_unwritable_directory_fails_before_write(self, tmp_path):
        blocked = tmp_path / "occupied"
        blocked.write_text("a file, not a directory")
        data, state, report = self._fitted()
        with pytest.raises(ValidationError, match="not writable"):
            io.save_results(blocked, data, state, report)
        assert blocked.read_text() == "a file, not a directory"

    @pytest.mark.skipif(os.geteuid() == 0, reason="root ignores mode bits")
    def test_readonly_directory_fails_before_write(self, tmp_path):
        target = tmp_path / "ro"
        target.mkdir()
        os.chmod(target, 0o555)
        data, state, report = self._fitted()
        try:
            with pytest.raises(ValidationError, match="not writable"):
                io.save_results(target, data, state, report)
            assert list(target.iterdir()) == []
        finally:
            os.chmod(target, 0o755)


class TestCli:
    def _simulate(self, tmp_path, **extra):
        args = [
            "simulate", "--out-dir", str(tmp_path / "sim"), "--individuals", "30",
            "--snps", "8", "--traits", "4", "--k-true", "2", "--seed", "5",
        ]
        for key, value in extra.items():
            args += [key, str(value)]
        assert run(args) == 0
        return tmp_path / "sim"

    def test_pipeline_simulate_fit_eval(self, tmp_path):
        sim = self._simulate(tmp_path)
        fit_dir = tmp_path / "fit"
        assert run([
            "fit", "--genotypes", str(sim / "genotypes.tsv"), "--traits", str(sim / "traits.tsv"),
            "--out-dir", str(fit_dir), "--k-max", "3", "--burn-in", "10",
            "--check-interval", "10", "--max-iter", "60", "--seed", "1",
        ]) == 0
        ev = tmp_path / "ev"
        assert run([
            "eval", "--out-dir", str(ev),
            "--scores", str(fit_dir / "vmap_matrix.tsv"), "--mask", str(sim / "mask.tsv"),
            "--rss", "insample", str(sim / "traits.tsv"), str(sim / "traits.tsv"),
        ]) == 0
        metrics = dict(
            line.split("\t") for line in (ev / "metrics.tsv").read_text().splitlines()[1:]
        )
        assert float(metrics["rss_insample"]) == 0.0
        assert "pr_auc" in metrics

    def test_eval_reads_a_cell_of_any_length(self, tmp_path):
        long_id = "s" * 200_000
        scores = write_matrix(tmp_path / "scores.tsv", [[0.9, 0.1]], [long_id], ["t0", "t1"])
        mask = write_matrix(tmp_path / "mask.tsv", [[1, 0]], [long_id], ["t0", "t1"])
        out = tmp_path / "eval"
        assert run(["eval", "--scores", str(scores), "--mask", str(mask), "--out-dir", str(out)]) == 0
        assert io.load_manifest(out / "manifest.json")["metrics"]["pr_auc"] == 1.0

    def test_eval_rejects_pairs_whose_ids_differ(self, tmp_path, capsys):
        scores = write_matrix(tmp_path / "s.tsv", [[0.9, 0.1], [0.2, 0.8]], ["q0", "q1"], ["p0", "p1"])
        mask = write_matrix(tmp_path / "m.tsv", [[1, 0], [0, 1]], ["q0", "q1"], ["p0", "p1"])
        swapped = write_matrix(tmp_path / "w.tsv", [[0, 1], [1, 0]], ["q1", "q0"], ["p0", "p1"])
        for out, mask_file, status in (("ok", mask, 0), ("bad", swapped, 1)):
            argv = ["eval", "--out-dir", str(tmp_path / out), "--scores", str(scores), "--mask", str(mask_file)]
            assert run(argv) == status
        err = capsys.readouterr().err
        assert f"row 1: {scores} has 'q0', {swapped} has 'q1'" in err
        renamed = write_matrix(tmp_path / "r.tsv", [[0.9, 0.1], [0.2, 0.8]], ["q0", "q1"], ["p0", "px"])
        status = run([
            "eval", "--out-dir", str(tmp_path / "rss"), "--rss", "x", str(scores), str(renamed),
        ])
        assert status == 1
        assert f"column 2: {scores} has 'p1', {renamed} has 'px'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [0.7, 2.0, -1.0])
    def test_eval_rejects_a_mask_cell_other_than_0_or_1(self, tmp_path, capsys, value):
        scores = write_matrix(tmp_path / "s.tsv", [[0.9, 0.1], [0.2, 0.8]], ["q0", "q1"], ["p0", "p1"])
        mask = write_matrix(tmp_path / "m.tsv", [[1, 0], [0, value]], ["q0", "q1"], ["p0", "p1"])
        argv = ["eval", "--out-dir", str(tmp_path / "ev"), "--scores", str(scores), "--mask", str(mask)]
        assert run(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {mask}: mask value {value!r} at row 'q1', column 'p1' is not 0 or 1\n"
        )
        assert not (tmp_path / "ev" / "metrics.tsv").exists()

    @pytest.mark.parametrize("flags, message", [
        ([], "eval needs --scores/--mask and/or --rss entries"),
        (["--scores", "s.tsv"], "--scores and --mask must be given together"),
        (["--mask", "m.tsv", "--rss", "x", "t.tsv", "p.tsv"], "--scores and --mask must be given together"),
    ])
    def test_eval_flag_pairing_checked_before_any_output(self, tmp_path, capsys, flags, message):
        assert run(["eval", "--out-dir", str(tmp_path / "ev"), *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "ev").exists()

    def test_unknown_flag_exits_nonzero_with_usage(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["fit", "--does-not-exist"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_mismatched_row_counts_named(self, tmp_path, capsys):
        gx = write_matrix(tmp_path / "x.tsv", [[0], [1]], ["a", "b"], ["s"])
        gy = write_matrix(tmp_path / "y.tsv", [[1.0]], ["a"], ["t"])
        status = run([
            "fit", "--genotypes", str(gx), "--traits", str(gy),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert status == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "2 individuals" in err and "1" in err

    def test_bad_fdr_target_fails_before_fitting(self, tmp_path, monkeypatch, capsys):
        sim = self._simulate(tmp_path)
        monkeypatch.setattr(berrri.associate, "fit", _no_fit)
        status = run([
            "fdr", "--genotypes", str(sim / "genotypes.tsv"), "--traits", str(sim / "traits.tsv"),
            "--out-dir", str(tmp_path / "fdr"), "--fdr-target", "1.5",
        ])
        assert status == 1
        assert "fdr_target must lie in (0, 1)" in capsys.readouterr().err

    def test_unwritable_out_dir_fails_before_fitting(self, tmp_path, monkeypatch, capsys):
        sim = self._simulate(tmp_path)
        monkeypatch.setattr(berrri.associate, "fit", _no_fit)
        monkeypatch.setattr(berrri.cli, "fit", _no_fit)
        (tmp_path / "blocker").write_text("a file, not a directory\n")
        inputs = ["--genotypes", str(sim / "genotypes.tsv"), "--traits", str(sim / "traits.tsv")]
        for command in ("fit", "fdr"):
            status = run([command, *inputs, "--out-dir", str(tmp_path / "blocker" / "out")])
            assert status == 1
            assert "is not writable" in capsys.readouterr().err

    def test_env_var_supplies_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BERRRI_OUTPUT_DIR", str(tmp_path / "envsim"))
        assert run([
            "simulate", "--individuals", "20", "--snps", "6", "--traits", "3",
            "--k-true", "2", "--seed", "2",
        ]) == 0
        assert (tmp_path / "envsim" / "genotypes.tsv").is_file()

    def test_missing_out_dir_is_an_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("BERRRI_OUTPUT_DIR", raising=False)
        assert run(["simulate"]) == 1
        assert "out-dir" in capsys.readouterr().err

    def test_inputs_never_mutated(self, tmp_path):
        sim = self._simulate(tmp_path)
        before = {p.name: p.read_bytes() for p in sim.iterdir()}
        run([
            "fit", "--genotypes", str(sim / "genotypes.tsv"), "--traits", str(sim / "traits.tsv"),
            "--out-dir", str(tmp_path / "fit2"), "--k-max", "2", "--burn-in", "5",
            "--check-interval", "10", "--max-iter", "30",
        ])
        after = {p.name: p.read_bytes() for p in sim.iterdir()}
        assert before == after

    def test_fdr_subcommand_writes_null_scores(self, tmp_path):
        sim = self._simulate(tmp_path)
        out = tmp_path / "fdr"
        flags = [
            "--genotypes", str(sim / "genotypes.tsv"), "--traits", str(sim / "traits.tsv"),
            "--k-max", "2", "--burn-in", "10", "--check-interval", "10", "--max-iter", "40",
        ]
        assert run(["fdr", "--out-dir", str(out), *flags, "--n-permutations", "2"]) == 0
        null = (out / "null_scores.tsv").read_text().splitlines()
        assert null[0] == "null_score" and len(null) == 1 + 2 * 8 * 4
        manifest = io.load_manifest(out / "manifest.json")
        assert manifest["n_permutations"] == 2
        assert manifest["fdr_target"] == pytest.approx(0.1)
        perms = manifest["permutation_fits"]
        assert len(perms) == 2
        for entry in perms:
            assert set(entry) == {
                "iterations", "converged", "final_elbo", "elbo_decreases", "elbo_trace", "checks",
            }
            assert 0 < entry["iterations"] <= 40 and isinstance(entry["converged"], bool)
            assert entry["elbo_decreases"] == 0
        # every fit's record is its report's summary, the real fit's at the top level
        data = io.load_dataset(sim / "genotypes.tsv", sim / "traits.tsv")
        hp = Hyperparameters(k_max=2, burn_in=10, check_interval=10, max_iter=40)
        scores, _, _ = run_permutation_fdr(data, hp, n_permutations=2)
        assert perms == [json.loads(json.dumps(r.summary())) for r in scores.permutation_reports]
        top = json.loads(json.dumps(fit(data, hp)[1].summary()))
        assert {key: manifest[key] for key in top} == top
        # the real fit inside fdr is the fit `berrri fit` runs, byte for byte
        assert run(["fit", "--out-dir", str(tmp_path / "fit"), *flags]) == 0
        for name in ("vmap_matrix.tsv", "factors.tsv", "loadings.tsv"):
            assert (out / name).read_bytes() == (tmp_path / "fit" / name).read_bytes(), name
        scores = [line.split("\t")[:4] for line in (out / "vmap.tsv").read_text().splitlines()]
        fitted = [line.split("\t")[:4] for line in (tmp_path / "fit" / "vmap.tsv").read_text().splitlines()]
        assert scores == fitted

    def test_fdr_logs_the_fit_line_then_the_threshold_line(self, tmp_path, caplog):
        sim = self._simulate(tmp_path)
        out = tmp_path / "fdr"
        with caplog.at_level(logging.INFO, logger="berrri"):
            assert run([
                "fdr", "--genotypes", str(sim / "genotypes.tsv"), "--traits", str(sim / "traits.tsv"),
                "--out-dir", str(out), "--k-max", "2", "--burn-in", "10", "--check-interval", "10",
                "--max-iter", "40", "--n-permutations", "1",
            ]) == 0
        lines = [r.getMessage() for r in caplog.records if r.module == "cli"]
        assert len(lines) == 2
        assert lines[0].startswith("fit ") and lines[0].endswith(f"-> {out / 'manifest.json'}")
        manifest = io.load_manifest(out / "manifest.json")
        threshold = "none" if manifest["threshold"] is None else f"{manifest['threshold']:.6g}"
        assert lines[1] == (
            f"fdr threshold={threshold} discoveries={manifest['n_discoveries']} -> {out / 'manifest.json'}"
        )

    def test_default_flags_fit_the_library_model(self, tmp_path):
        from berrri.cli import _hp_from_args, build_parser

        args = build_parser().parse_args(["fit", "--genotypes", "x", "--traits", "y"])
        assert _hp_from_args(args) == Hyperparameters()
        sim = tmp_path / "sim"
        assert run([
            "simulate", "--out-dir", str(sim), "--individuals", "60", "--snps", "12",
            "--traits", "6", "--k-true", "2", "--seed", "5",
        ]) == 0
        assert run([
            "fit", "--genotypes", str(sim / "genotypes.tsv"), "--traits", str(sim / "traits.tsv"),
            "--out-dir", str(tmp_path / "fit"),
        ]) == 0
        manifest = io.load_manifest(tmp_path / "fit" / "manifest.json")
        assert manifest["converged"]
        assert manifest["iterations"] < Hyperparameters().max_iter

    def test_simulate_flags_are_the_sim_config_fields(self):
        from berrri.cli import build_parser

        dests = set(vars(build_parser().parse_args(["simulate"])))
        assert dests - {"subcommand", "out_dir", "genotypes"} == {f.name for f in dataclasses.fields(SimConfig)}

    def test_flags_track_the_library_and_manifests_record_every_flag(self, tmp_path):
        from berrri.associate import run_permutation_fdr
        from berrri.cli import build_parser

        parser = build_parser()
        inputs = ["--genotypes", "x", "--traits", "y"]
        sim = {f.name: f.default for f in dataclasses.fields(SimConfig)}
        hyper = {f.name: f.default for f in dataclasses.fields(Hyperparameters)}
        fdr = {
            name: param.default for name, param in inspect.signature(run_permutation_fdr).parameters.items()
            if param.default is not param.empty
        }
        assert sim.items() <= vars(parser.parse_args(["simulate"])).items()
        assert hyper.items() <= vars(parser.parse_args(["fit", *inputs])).items()
        assert {**hyper, **fdr}.items() <= vars(parser.parse_args(["fdr", *inputs])).items()

        small = ["--k-max", "2", "--burn-in", "5", "--check-interval", "10", "--max-iter", "20"]
        assert run(["simulate", "--out-dir", str(tmp_path / "simulate")]) == 0
        data = ["--genotypes", str(tmp_path / "simulate" / "genotypes.tsv"),
                "--traits", str(tmp_path / "simulate" / "traits.tsv")]
        assert run(["fit", "--out-dir", str(tmp_path / "fit"), *data, *small]) == 0
        assert run(["fdr", "--out-dir", str(tmp_path / "fdr"), *data, *small, "--n-permutations", "1"]) == 0
        assert run([
            "eval", "--out-dir", str(tmp_path / "eval"),
            "--scores", str(tmp_path / "fit" / "vmap_matrix.tsv"),
            "--mask", str(tmp_path / "simulate" / "mask.tsv"),
        ]) == 0
        options = {
            command: io.load_manifest(tmp_path / command / "manifest.json")["config"]["options"]
            for command in ("simulate", "fit", "fdr", "eval")
        }
        assert options["simulate"] == {**sim, "genotypes": None}

        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for command, sub in subparsers.choices.items():
            flags = {a.dest for a in sub._actions if a.dest not in ("help", "out_dir")}
            assert set(options[command]) == flags, command
