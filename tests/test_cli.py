"""Command line behaviour: config validation, dispatch, output formats.

Everything runs through `main(argv)` so the exit-code contract is exercised
exactly as a shell would see it.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

import recolat
from recolat.cli import ConfigError, main, parse_config
from recolat.forward import backward_from_forward
from recolat.partitions import Partition


BASE = {
    "mode": "discrete",
    "sites": [2, 2],
    "locations": ["left", "right"],
    "recombination": [
        {"blocks": [[1, 2]], "p": 0.6},
        {"blocks": [[1], [2]], "p": 0.4},
    ],
    "migration": {"backward": [[0.8, 0.2], [0.3, 0.7]]},
    "initial": {
        "left": {"dense": [0.4, 0.1, 0.2, 0.3]},
        "right": {"product": [[0.5, 0.5], [0.25, 0.75]]},
    },
    "t": 5,
    "seed": 7,
    "replicates": 400,
}

REMARK = {
    "mode": "discrete",
    "sites": [2, 2, 2, 2],
    "locations": ["left", "right"],
    "recombination": [
        {"blocks": [[1], [2], [3], [4]], "p": 0.5},
        {"blocks": [[1, 2], [3, 4]], "p": 0.1},
        {"blocks": [[1, 2, 3, 4]], "p": 0.4},
    ],
    "migration": {"backward": [[0.7, 0.3], [0.4, 0.6]]},
    "initial": {
        "left": {"product": [[0.5, 0.5]] * 4},
        "right": {"product": [[0.3, 0.7]] * 4},
    },
    "t": 4,
}

CT = {
    "mode": "continuous",
    "sites": [2, 2],
    "locations": ["a", "b"],
    "recombination": [{"blocks": [[1], [2]], "p": 1.3}],
    "migration": {"backward": [[-0.5, 0.5], [0.2, -0.2]]},
    "initial": [
        {"dense": [0.4, 0.1, 0.2, 0.3]},
        {"dense": [0.25, 0.25, 0.25, 0.25]},
    ],
    "t": 1.5,
    "dt": 0.01,
}


HUGE = "expected a finite number, got an integer too large for a float"


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(args):
    """Invoke main() capturing streams; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def csv_values(text):
    """Map index -> (value, stderr-or-None) from a CSV result."""
    rows = {}
    for line in text.strip().splitlines()[1:]:
        quantity, rest = line.split(",", 1)
        *index_parts, value, stderr = rest.rsplit(",", 2)
        index = ",".join(index_parts).strip('"')
        rows[(quantity, index)] = (float(value), float(stderr) if stderr else None)
    return rows


class TestParseConfig:
    def test_minimal_doc_parses(self):
        config = parse_config(copy.deepcopy(BASE))
        assert config.location_names == ["left", "right"]
        assert np.array_equal(config.model.migration, BASE["migration"]["backward"])
        assert config.model.recomb == {Partition([[0, 1]]): 0.6, Partition([[0], [1]]): 0.4}
        np.testing.assert_array_equal(
            config.initial.stack(), [[0.4, 0.1, 0.2, 0.3], [0.125, 0.375, 0.125, 0.375]]
        )
        assert (config.t, config.seed, config.replicates, config.dt) == (5, 7, 400, None)

    def test_forward_input_form_parses_to_backward(self):
        doc = copy.deepcopy(BASE)
        doc["migration"] = {
            "forward": [[0.9, 0.1], [0.2, 0.8]],
            "sizes": [2.0, 1.0],
        }
        config = parse_config(doc)
        want = backward_from_forward([[0.9, 0.1], [0.2, 0.8]], [2.0, 1.0])
        assert np.array_equal(config.model.migration, want)
        assert config.model.recomb == parse_config(copy.deepcopy(BASE)).model.recomb

    def test_location_count_generates_names(self):
        doc = copy.deepcopy(BASE)
        doc["locations"] = 2
        doc["initial"] = [BASE["initial"]["left"], BASE["initial"]["right"]]
        config = parse_config(doc)
        assert config.location_names == ["0", "1"]

    def test_product_initial_matches_dense_tensor(self):
        doc = copy.deepcopy(BASE)
        dense = [0.125, 0.375, 0.125, 0.375]  # (0.5,0.5) x (0.25,0.75)
        doc["initial"] = {
            "left": {"product": [[0.5, 0.5], [0.25, 0.75]]},
            "right": {"dense": dense},
        }
        config = parse_config(doc)
        np.testing.assert_allclose(config.initial[0].weights, dense, atol=1e-15)

    def test_missing_probability_names_the_field(self):
        doc = copy.deepcopy(BASE)
        del doc["recombination"][1]["p"]
        with pytest.raises(ConfigError, match=r"recombination\[1\]\.p"):
            parse_config(doc)

    @pytest.mark.parametrize(
        "mutate, path",
        [
            (lambda d: d.pop("sites"), r"^sites"),
            (lambda d: d.__setitem__("mode", "sometimes"), r"^mode"),
            (lambda d: d["recombination"][0].__setitem__("blocks", [[1], [1, 2]]),
             r"recombination\[0\]\.blocks"),
            (lambda d: d["recombination"][0].__setitem__("p", -0.2),
             r"recombination\[0\]\.p"),
            (lambda d: d["migration"].__setitem__("forward", [[1.0]]),
             r"migration"),
            (lambda d: d["initial"].pop("right"), r"initial"),
            (lambda d: d["initial"]["left"].__setitem__("product", [[0.5, 0.5]]),
             r"initial\.left"),
            (lambda d: d.__setitem__("t", -1), r"^t"),
            (lambda d: d.__setitem__("locations", ["left", "left"]), r"locations"),
            (lambda d: d.update(mode="continuous", migration={"backward": [[0.1, -0.1], [0.2, -0.2]]}),
             r"^migration"),
            (lambda d: d.__setitem__("seed", 2**64), r"^seed: must be <="),
            # location 1 samples under seed + 1 = 2**64
            (lambda d: d.__setitem__("seed", 2**64 - 1), r"^seed: must be <= 18446744073709551614"),
            (lambda d: d.__setitem__("replicates", float("nan")), r"^replicates: expected a finite"),
        ],
    )
    def test_errors_carry_field_paths(self, mutate, path):
        doc = copy.deepcopy(BASE)
        mutate(doc)
        with pytest.raises(ConfigError, match=path):
            parse_config(doc)

    @pytest.mark.parametrize(
        "doc, argv, message",
        [
            (BASE, ["simulate", "--seed", "-1"], "seed: must be >= 0, got -1"),
            (BASE, ["simulate", "--seed", str(2**64)], "seed: must be <="),
            (BASE, ["simulate", "--seed", str(2**64 - 1)], "seed: must be <="),
            (BASE, ["simulate", "--replicates", "0"], "replicates: must be >= 1, got 0"),
            (BASE, ["iterate", "--t", "-1"], "t: must be >= 0, got -1"),
            (CT, ["ct-integrate", "--dt", "0"], "dt: must be positive"),
            (CT, ["ct-integrate", "--t", "-1"], "t: must be >= 0.0, got -1"),
            (CT, ["ct-solve", "--t", "nan"], "t: expected a finite number"),
        ],
    )
    def test_flag_overrides_carry_field_paths(self, tmp_path, doc, argv, message):
        # flags go through the same field checks as the config document
        path = write_config(tmp_path, doc)
        code, out, err = run_cli([argv[0], "--config", path, *argv[1:]])
        assert code == 1 and out == ""
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "blocks, path, message",
        [
            ([[1], [1, 2]], "recombination[1].blocks[1]", "site 1 appears twice"),
            ([[1, 3]], "recombination[1].blocks[0]", "site 3 is not in 1..2"),
            ([[1], [True]], "recombination[1].blocks[1]", "site True is not in 1..2"),
            ([], "recombination[1].blocks", "expected a non-empty list of blocks"),
            ("1,2", "recombination[1].blocks", "expected a non-empty list of blocks"),
            ([1, 2], "recombination[1].blocks[0]", "expected a non-empty list of sites"),
            ([[1], []], "recombination[1].blocks[1]", "expected a non-empty list of sites"),
        ],
    )
    def test_block_faults_name_the_block(self, tmp_path, blocks, path, message):
        doc = copy.deepcopy(BASE)
        doc["recombination"][1]["blocks"] = blocks
        with pytest.raises(ConfigError) as caught:
            parse_config(copy.deepcopy(doc))
        assert caught.value.path == path
        code, out, err = run_cli(["iterate", "--config", write_config(tmp_path, doc)])
        assert (code, out, err) == (1, "", f"error: {path}: {message}\n")

    @pytest.mark.parametrize(
        "mutate, path, message",
        [
            (lambda d: d["migration"]["backward"][1].__setitem__(0, "0.3"),
             "migration.backward[1][0]", "expected a number, got '0.3'"),
            (lambda d: d["migration"]["backward"][0].__setitem__(1, True),
             "migration.backward[0][1]", "expected a number, got True"),
            (lambda d: d["migration"]["backward"][1].__setitem__(0, float("nan")),
             "migration.backward[1][0]", "expected a finite number, got nan"),
            (lambda d: d.__setitem__(
                "migration", {"forward": [[0.9, float("inf")], [0.2, 0.8]], "sizes": [2, 1]}),
             "migration.forward[0][1]", "expected a finite number, got inf"),
            (lambda d: d["initial"]["left"]["dense"].__setitem__(0, float("nan")),
             "initial.left.dense[0]", "expected a finite number, got nan"),
            (lambda d: d["initial"]["left"]["dense"].__setitem__(2, "0.2"),
             "initial.left.dense[2]", "expected a number, got '0.2'"),
            (lambda d: d["initial"]["right"]["product"][1].__setitem__(0, float("nan")),
             "initial.right.product[1][0]", "expected a finite number, got nan"),
            (lambda d: d["initial"]["right"]["product"][0].__setitem__(1, True),
             "initial.right.product[0][1]", "expected a number, got True"),
            (lambda d: d["initial"]["right"]["product"].__setitem__(0, 0.5),
             "initial.right.product[0]", "expected a list of numbers"),
            # json reads these literals as ints that float() cannot convert
            (lambda d: d["migration"]["backward"][0].__setitem__(1, 10**400),
             "migration.backward[0][1]", HUGE),
            (lambda d: d["recombination"][1].__setitem__("p", 10**400),
             "recombination[1].p", HUGE),
            (lambda d: d["initial"]["left"]["dense"].__setitem__(2, 10**400),
             "initial.left.dense[2]", HUGE),
        ],
    )
    @pytest.mark.parametrize("command", ["iterate", "linear", "limit", "qld"])
    def test_number_faults_name_the_entry(self, tmp_path, mutate, path, message, command):
        # strings and booleans used to be cast to numbers, and NaN literals
        # (which json accepts) to print nan rows or LAPACK noise, all with exit 0
        doc = copy.deepcopy(BASE)
        mutate(doc)
        with pytest.raises(ConfigError) as caught:
            parse_config(copy.deepcopy(doc))
        assert caught.value.path == path
        code, out, err = run_cli([command, "--config", write_config(tmp_path, doc)])
        assert (code, out, err) == (1, "", f"error: {path}: {message}\n")

    @pytest.mark.parametrize("field, command", [("t", "ct-solve"), ("dt", "ct-integrate")])
    def test_continuous_horizons_beyond_float_range(self, tmp_path, field, command):
        doc = {**CT, field: 10**400}
        with pytest.raises(ConfigError) as caught:
            parse_config(copy.deepcopy(doc))
        assert caught.value.path == field
        code, out, err = run_cli([command, "--config", write_config(tmp_path, doc)])
        assert (code, out, err) == (1, "", f"error: {field}: {HUGE}\n")

    def test_huge_location_count_fails_on_the_migration_matrix(self, tmp_path):
        # a count used to build one name per location before any other
        # check, so this one took all memory and died with a MemoryError
        doc = {**BASE, "locations": 10**12}
        src = os.path.dirname(os.path.dirname(recolat.__file__))
        script = "import sys; from recolat.cli import main; sys.exit(main(sys.argv[1:]))"
        limit = 1 << 30

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        done = subprocess.run(
            [sys.executable, "-c", script, "iterate", "--config", write_config(tmp_path, doc)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
            timeout=120, preexec_fn=cap_address_space,
        )
        message = "error: migration.backward: expected a 1000000000000x1000000000000 matrix\n"
        assert (done.returncode, done.stdout, done.stderr) == (1, "", message)

    def test_forward_needs_sizes(self):
        doc = copy.deepcopy(BASE)
        doc["migration"] = {"forward": [[0.9, 0.1], [0.2, 0.8]]}
        with pytest.raises(ConfigError, match=r"migration\.sizes"):
            parse_config(doc)

    def test_forward_rejected_in_continuous_mode(self):
        doc = copy.deepcopy(CT)
        doc["migration"] = {"forward": [[0.9, 0.1], [0.2, 0.8]], "sizes": [1, 1]}
        with pytest.raises(ConfigError, match="generator under 'backward'"):
            parse_config(doc)

    def test_duplicate_partitions_accumulate(self):
        doc = copy.deepcopy(BASE)
        doc["recombination"] = [
            {"blocks": [[1, 2]], "p": 0.3},
            {"blocks": [[1, 2]], "p": 0.3},
            {"blocks": [[1], [2]], "p": 0.4},
        ]
        config = parse_config(doc)
        from recolat.partitions import coarsest

        assert config.model.recomb[coarsest(range(2))] == pytest.approx(0.6)


class TestCommands:
    def test_iterate_vs_linear_byte_compatible_after_rounding(self, tmp_path):
        path = write_config(tmp_path, BASE)
        _, out_iter, _ = run_cli(["iterate", "--config", path])
        _, out_lin, _ = run_cli(["linear", "--config", path])

        def rounded(text):
            lines = [text.splitlines()[0]]
            for line in text.strip().splitlines()[1:]:
                head, value, stderr = line.rsplit(",", 2)
                lines.append(f"{head},{round(float(value), 10)},{stderr}")
            return "\n".join(lines).encode()

        assert rounded(out_iter) == rounded(out_lin)
        # quantity labels differ by design; values coincide
        a = {k[1]: v for k, v in csv_values(out_iter).items()}
        b = {k[1]: v for k, v in csv_values(out_lin).items()}
        assert a.keys() == b.keys()
        for key in a:
            assert a[key][0] == pytest.approx(b[key][0], abs=1e-10)

    def test_simulate_reports_stderr_and_brackets_exact(self, tmp_path):
        path = write_config(tmp_path, {**copy.deepcopy(BASE), "replicates": 5000})
        code, out_sim, _ = run_cli(["simulate", "--config", path])
        assert code == 0
        _, out_lin, _ = run_cli(["linear", "--config", path])
        exact = {k[1]: v[0] for k, v in csv_values(out_lin).items()}
        for (quantity, index), (value, stderr) in csv_values(out_sim).items():
            assert quantity == "mu_hat"
            assert stderr is not None and stderr > 0
            assert abs(value - exact[index]) < 4.5 * stderr

    def test_one_replicate_writes_no_stderr(self, tmp_path):
        # one replicate has no standard error; NaN is not JSON, so the rows
        # carry none in either format
        argv = ["simulate", "--config", write_config(tmp_path, BASE), "--replicates", "1"]

        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        code, out, _ = run_cli(argv + ["--format", "json"])
        rows = json.loads(out, parse_constant=refuse)["rows"]
        assert code == 0 and len(rows) == 8
        assert all("stderr" not in row and 0 <= row["value"] <= 1 for row in rows)
        code, out, _ = run_cli(argv + ["--format", "csv"])
        assert code == 0 and "nan" not in out
        values = csv_values(out)
        assert len(values) == 8 and all(stderr is None for _, stderr in values.values())

    def test_limit_rows_location_independent(self, tmp_path):
        path = write_config(tmp_path, BASE)
        code, out, _ = run_cli(["limit", "--config", path])
        assert code == 0
        rows = csv_values(out)
        for (quantity, index), (value, _) in rows.items():
            seq = index.split(":", 1)[1]
            assert value == rows[("mu_inf", f"right:{seq}")][0]

    def test_qld_reference_model_csv(self, tmp_path):
        # the fastest-escaping coarse states keep half their mass per step,
        # beating the whole-set sojourn 0.4; exact values frozen from the
        # rational-arithmetic oracle in test_asymptotics
        path = write_config(tmp_path, REMARK)
        code, out, _ = run_cli(["qld", "--config", path])
        assert code == 0
        rows = csv_values(out)
        assert rows[("eta", "")][0] == 0.5
        assert rows[("P_qlim", "1,2|3|4")][0] == pytest.approx(0.5, abs=1e-12)
        assert rows[("P_qlim", "1|2|3,4")][0] == pytest.approx(0.5, abs=1e-12)

    def test_qld_json_document_shape(self, tmp_path):
        path = write_config(tmp_path, REMARK)
        code, out, _ = run_cli(["qld", "--config", path, "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["command", "eta", "F", "P_qlim", "labelled_qlim", "q"]
        assert doc["command"] == "qld"
        assert doc["eta"] == 0.5
        assert sorted(doc["F"]) == [[[1], [2], [3, 4]], [[1, 2], [3], [4]]]
        assert sum(doc["P_qlim"]) == pytest.approx(1.0, abs=1e-12)
        assert sum(item["p"] for item in doc["labelled_qlim"]) == pytest.approx(
            1.0, abs=1e-12
        )
        assert sum(doc["q"]) == pytest.approx(1.0, abs=1e-12)

    def test_whole_set_sojourn_visible_in_export(self, tmp_path):
        path = write_config(tmp_path, REMARK)
        code, out, _ = run_cli(
            ["export-T", "--config", path, "--matrix", "Tul", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        states = [tuple(tuple(b) for b in s) for s in doc["states"]]
        whole = states.index((tuple([1, 2, 3, 4]),))
        paired = states.index(((1, 2), (3, 4)))
        assert doc["matrix"][whole][whole] == 0.4
        assert doc["matrix"][paired][paired] == 0.25

    def test_export_labelled_matrix_stochastic(self, tmp_path):
        path = write_config(tmp_path, BASE)
        code, out, _ = run_cli(
            ["export-T", "--config", path, "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        matrix = np.asarray(doc["matrix"])
        assert doc["matrix_kind"] == "T"
        assert len(doc["states"]) == matrix.shape[0] == matrix.shape[1]
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-12)
        # CSV form lists only the nonzero entries
        _, out_csv, _ = run_cli(["export-T", "--config", path])
        assert len(out_csv.strip().splitlines()) - 1 == int((matrix != 0).sum())

    def test_forward_and_backward_inputs_agree_downstream(self, tmp_path):
        backward = copy.deepcopy(BASE)
        # stationary sizes for forward [[0.9,0.1],[0.2,0.8]] are (2,1)
        forward = copy.deepcopy(BASE)
        forward["migration"] = {
            "forward": [[0.9, 0.1], [0.2, 0.8]],
            "sizes": [2.0, 1.0],
        }
        fwd = np.array([[0.9, 0.1], [0.2, 0.8]])
        sizes = np.array([2.0, 1.0])
        backward["migration"] = {
            "backward": (fwd * sizes[:, None] / (fwd * sizes[:, None]).sum(axis=0)).T.tolist()
        }
        pb = write_config(tmp_path, backward, "b.json")
        pf = write_config(tmp_path, forward, "f.json")
        _, out_b, _ = run_cli(["iterate", "--config", pb])
        _, out_f, _ = run_cli(["iterate", "--config", pf])
        assert out_b == out_f

    def test_ct_solve_and_integrate_agree(self, tmp_path):
        path = write_config(tmp_path, CT)
        code_s, out_s, _ = run_cli(["ct-solve", "--config", path])
        code_i, out_i, _ = run_cli(["ct-integrate", "--config", path])
        assert code_s == 0 and code_i == 0
        solved = csv_values(out_s)
        stepped = csv_values(out_i)
        drift = stepped.pop(("max_drift", ""))
        assert drift[0] < 1e-10
        for (quantity, index), (value, _) in stepped.items():
            assert value == pytest.approx(solved[("omega", index)][0], abs=1e-8)

    def test_ct_integrate_needs_dt(self, tmp_path):
        doc = {k: v for k, v in CT.items() if k != "dt"}
        path = write_config(tmp_path, doc)
        code, _, err = run_cli(["ct-integrate", "--config", path])
        assert code == 1 and "dt" in err
        code, out, _ = run_cli(["ct-integrate", "--config", path, "--dt", "0.02"])
        assert code == 0 and "max_drift" in out

    def test_out_flag_writes_file(self, tmp_path):
        path = write_config(tmp_path, BASE)
        target = tmp_path / "result.csv"
        code, out, _ = run_cli(["iterate", "--config", path, "--out", str(target)])
        assert code == 0 and out == ""
        _, direct, _ = run_cli(["iterate", "--config", path])
        assert target.read_text() == direct

    def test_json_payload_names_command(self, tmp_path):
        path = write_config(tmp_path, BASE)
        code, out, _ = run_cli(["iterate", "--config", path, "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "iterate"
        assert all(set(row) == {"quantity", "index", "value"} for row in doc["rows"])
        total = sum(r["value"] for r in doc["rows"])
        assert total == pytest.approx(2.0, abs=1e-12)  # one unit mass per location

    def test_flag_overrides(self, tmp_path):
        doc = {k: v for k, v in BASE.items() if k not in ("t", "seed", "replicates")}
        path = write_config(tmp_path, doc)
        code, _, err = run_cli(["iterate", "--config", path])
        assert code == 1 and "t: required" in err
        code, out, _ = run_cli(["iterate", "--config", path, "--t", "5"])
        assert code == 0
        _, reference, _ = run_cli(["iterate", "--config", write_config(tmp_path, BASE, "r.json")])
        assert out == reference
        code, _, err = run_cli(["iterate", "--config", path, "--t", "2.5"])
        assert code == 1 and "integer" in err
        code, out1, _ = run_cli(
            ["simulate", "--config", path, "--t", "2", "--seed", "3", "--replicates", "200"]
        )
        code2, out2, _ = run_cli(
            ["simulate", "--config", path, "--t", "2", "--seed", "3", "--replicates", "200"]
        )
        assert code == code2 == 0 and out1 == out2


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        path = write_config(tmp_path, BASE)
        assert run_cli(["iterate", "--config", path])[0] == 0

    def test_validation_failure_is_one(self, tmp_path):
        doc = copy.deepcopy(BASE)
        doc["migration"] = {"backward": [[0.8, 0.1], [0.3, 0.7]]}  # rows not stochastic
        path = write_config(tmp_path, doc)
        code, _, err = run_cli(["iterate", "--config", path])
        assert code == 1
        assert err.startswith("error:")

    def test_mode_mismatch_is_one(self, tmp_path):
        path = write_config(tmp_path, CT)
        code, _, err = run_cli(["iterate", "--config", path])
        assert code == 1 and "mode" in err

    def test_unknown_command_is_usage_error(self, tmp_path):
        path = write_config(tmp_path, BASE)
        code, _, err = run_cli(["frobnicate", "--config", path])
        assert code == 2

    def test_missing_config_flag_is_usage_error(self):
        assert run_cli(["iterate"])[0] == 2

    def test_unreadable_config_is_one(self, tmp_path):
        code, _, err = run_cli(["iterate", "--config", str(tmp_path / "nope.json")])
        assert code == 1 and "cannot read config" in err

    def test_invalid_json_is_one(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(["iterate", "--config", str(path)])
        assert code == 1 and "not valid JSON" in err

    def test_huge_integer_is_one_line(self, tmp_path):
        # Python refuses to convert an integer literal this long with a plain
        # ValueError, which used to escape as a traceback
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(BASE).replace('"t": 5', '"t": ' + "9" * 5000))
        code, out, err = run_cli(["iterate", "--config", str(path)])
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: config is not valid JSON: ")

    def test_limit_surfaces_module_errors(self, tmp_path):
        doc = copy.deepcopy(BASE)
        doc["migration"] = {"backward": [[0.0, 1.0], [1.0, 0.0]]}  # period 2
        path = write_config(tmp_path, doc)
        code, _, err = run_cli(["limit", "--config", path])
        assert code == 1 and "primitive" in err

    def test_import_loads_no_scipy(self):
        # every command pays for the package import; scipy loads only in the
        # routes that exponentiate a matrix
        src = os.path.dirname(os.path.dirname(recolat.__file__))
        script = (
            "import sys, recolat, recolat.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")

    def test_small_ct_solve_loads_no_sparse_scipy(self, tmp_path):
        # below the size threshold the dual route forms the dense exponential,
        # and only the row-propagating branch loads scipy.sparse
        path = write_config(tmp_path, CT)
        src = os.path.dirname(os.path.dirname(recolat.__file__))
        script = (
            "import contextlib, io, sys\n"
            "from recolat.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['ct-solve', '--config', sys.argv[1]])\n"
            "print(code, 'scipy.linalg' in sys.modules, 'scipy.sparse' in sys.modules)"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, path], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "0 True False\n", "")

    def test_calls_in_one_process_match_calls_alone(self, tmp_path, monkeypatch):
        # one process may serve many commands; none may leak into the next
        monkeypatch.setenv("COLUMNS", "80")
        path = write_config(tmp_path, BASE)
        calls = [
            ["frobnicate", "--config", path],
            ["--help"],
            ["simulate", "--help"],
            ["simulate", "--config", path, "--replicates", "50", "--format", "json"],
        ]
        src = os.path.dirname(os.path.dirname(recolat.__file__))
        env = {**os.environ, "PYTHONPATH": src, "COLUMNS": "80"}
        script = "import sys; from recolat.cli import main; sys.exit(main(sys.argv[1:]))"
        for argv in calls:
            alone = subprocess.run(
                [sys.executable, "-c", script, *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert run_cli(argv) == (alone.returncode, alone.stdout, alone.stderr), argv
