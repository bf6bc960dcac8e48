import json
import math
from pathlib import Path

import pytest

from cuspinv.cli import main


FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def files(tmp_path):
    def density(terms):
        return {"terms": [{"c": c, "e": list(e)} for e, c in terms.items()]}

    paths = {}
    paths["f1"] = tmp_path / "f1.json"
    paths["f1"].write_text(json.dumps(density({(0, 0, 0): 1.0})))
    paths["fy3"] = tmp_path / "fy3.json"
    paths["fy3"].write_text(json.dumps(density({(0, 3, 0): 1.0})))
    paths["local"] = tmp_path / "local.json"
    paths["local"].write_text(
        json.dumps({"kind": "cusp_local", "density": density({(0, 0, 0): 1.0}), "x0": 1.0})
    )
    paths["local2"] = tmp_path / "local2.json"
    paths["local2"].write_text(
        json.dumps({"kind": "cusp_local", "density": density({(0, 0, 0): 2.0}), "x0": 1.0})
    )
    paths["compact"] = tmp_path / "compact.json"
    paths["compact"].write_text(
        json.dumps({"kind": "cusp_compact", "density": density({(0, 0, 0): 1.0}), "x0": 0.25})
    )
    paths["bad"] = tmp_path / "bad.json"
    paths["bad"].write_text("{not json")
    paths["tmp"] = tmp_path
    return paths


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecompose:
    def test_unit_density(self, files, capsys):
        code, out, _ = _run(
            capsys, ["decompose", "--density", str(files["f1"]), "--no-cross-check"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["alpha"][0] == 1.0
        assert all(v == 0.0 for v in data["beta"])

    def test_y_cubed(self, files, capsys):
        code, out, _ = _run(
            capsys, ["decompose", "--density", str(files["fy3"]), "--no-cross-check"]
        )
        data = json.loads(out)
        assert data["alpha"] == [0.0, 0.4]
        assert data["beta"] == [0.0]

    def test_config_overrides_flags(self, files, capsys):
        cfg = files["tmp"] / "cfg.json"
        cfg.write_text(json.dumps({"density": str(files["fy3"])}))
        code, out, _ = _run(
            capsys,
            [
                "--config",
                str(cfg),
                "decompose",
                "--density",
                str(files["f1"]),
                "--no-cross-check",
            ],
        )
        assert code == 0
        assert json.loads(out)["alpha"] == [0.0, 0.4]

    def test_cross_check_summary(self, files, capsys):
        code, out, _ = _run(capsys, ["decompose", "--density", str(files["f1"])])
        data = json.loads(out)
        cc = data["cross_check"]
        assert abs(cc["a0_fit"] - cc["a0_algebraic"]) < 1e-4

    def test_malformed_input_exit_2(self, files, capsys):
        code, out, err = _run(capsys, ["decompose", "--density", str(files["bad"])])
        assert code == 2
        assert "input error" in err
        assert out == ""

    def test_non_integer_exponent_exit_2(self, files, capsys):
        # [1.5, 0, 0] was read as [1, 0, 0]
        path = files["tmp"] / "half.json"
        path.write_text(json.dumps({"terms": [{"c": 1.0, "e": [1.5, 0, 0]}]}))
        code, out, err = _run(capsys, ["decompose", "--density", str(path)])
        assert code == 2
        assert "bad density file" in err
        assert out == ""

    def test_non_finite_coefficient_exit_2(self, files, capsys):
        path = files["tmp"] / "nan.json"
        path.write_text(json.dumps({"terms": [{"c": math.nan, "e": [0, 1, 0]}]}))
        code, out, err = _run(capsys, ["decompose", "--density", str(path)])
        assert code == 2
        assert "non-finite" in err
        assert out == ""


class TestActions:
    ARGS = ["--grid", "3x3", "--h-range", "-0.003", "0.003", "--l-range", "-0.05", "0.01"]

    def test_csv_header(self, files, capsys):
        code, out, _ = _run(capsys, ["actions", "--model", str(files["compact"])] + self.ARGS)
        assert code == 0
        assert out.splitlines()[0] == "H,lambda,stratum,Pi,Pi_circ,I,I_circ,I_mu"

    def test_stratum_filter(self, files, capsys):
        _, out, _ = _run(
            capsys,
            ["actions", "--model", str(files["compact"]), "--stratum", "narrow"] + self.ARGS,
        )
        rows = out.strip().splitlines()[1:]
        assert rows
        assert all(r.split(",")[2] == "narrow" for r in rows)

    def test_I_column_equals_lambda(self, files, capsys):
        _, out, _ = _run(capsys, ["actions", "--model", str(files["compact"])] + self.ARGS)
        for row in out.strip().splitlines()[1:]:
            parts = row.split(",")
            if parts[5]:
                assert float(parts[5]) == float(parts[1])

    def test_byte_determinism(self, files, capsys):
        _, out1, _ = _run(capsys, ["actions", "--model", str(files["compact"])] + self.ARGS)
        _, out2, _ = _run(capsys, ["actions", "--model", str(files["compact"])] + self.ARGS)
        assert out1 == out2

    def test_json_format(self, files, capsys):
        _, out, _ = _run(
            capsys,
            ["actions", "--model", str(files["compact"]), "--format", "json"] + self.ARGS,
        )
        data = json.loads(out)
        assert data["mu_shift"] == 0
        assert len(data["rows"]) == 9

    def test_output_file(self, files, capsys):
        dest = files["tmp"] / "chart.csv"
        code, out, _ = _run(
            capsys,
            ["actions", "--model", str(files["compact"]), "--out", str(dest)] + self.ARGS,
        )
        assert code == 0
        assert out == ""
        assert dest.read_text().startswith("H,lambda")

    def test_empty_grid_exit_2(self, files, capsys):
        code, out, err = _run(
            capsys, ["actions", "--model", str(files["compact"]), "--grid", "0x3"]
        )
        assert code == 2
        assert "input error" in err
        assert out == ""

    @pytest.mark.parametrize(
        "c, x0", [(math.nan, 0.25), (math.inf, 0.25), (1.0, math.nan), (1.0, math.inf)]
    )
    def test_non_finite_model_exit_2(self, files, capsys, c, x0):
        path = files["tmp"] / "nonfinite.json"
        model = {"kind": "cusp_compact", "density": {"terms": [{"c": c, "e": [0, 0, 0]}]}}
        path.write_text(json.dumps(dict(model, x0=x0)))
        code, out, err = _run(capsys, ["actions", "--model", str(path)] + self.ARGS)
        assert code == 2
        assert "input error" in err
        assert out == ""


class TestConfig:
    def _run_config(self, files, capsys, config, extra=()):
        cfg = files["tmp"] / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = ["--config", str(cfg), "actions", "--model", str(files["compact"])]
        return _run(capsys, argv + TestActions.ARGS + list(extra))

    def test_wrong_type_exit_2(self, files, capsys):
        code, out, err = self._run_config(files, capsys, {"grid": 5})
        assert code == 2
        assert "input error" in err
        assert out == ""

    def test_non_option_keys_exit_2(self, files, capsys):
        for config in ({"func": "x"}, {"command": "lattice"}, {"colour": "red"}):
            code, out, err = self._run_config(files, capsys, config)
            assert code == 2
            assert out == ""

    def test_values_converted_by_option_type(self, files, capsys):
        code, out, _ = self._run_config(
            files, capsys, {"mu-shift": "1", "l_range": ["-0.05", 0.01], "format": "json"}
        )
        assert code == 0
        data = json.loads(out)
        assert data["mu_shift"] == 1
        assert data["rows"][0]["lambda"] == -0.05

    def test_bad_values_exit_2(self, files, capsys):
        for config in ({"mu_shift": 1.5}, {"h_range": [0.0]}, {"format": "xml"}, {"out": True}):
            code, out, _ = self._run_config(files, capsys, config)
            assert code == 2
            assert out == ""


class TestCompare:
    def test_self_comparison(self, files, capsys):
        code, out, _ = _run(
            capsys, ["compare", "--sys1", str(files["local"]), "--sys2", str(files["local"])]
        )
        assert code == 0
        assert json.loads(out)["equivalent"] is True

    def test_scaled_density_not_equivalent(self, files, capsys):
        _, out, _ = _run(
            capsys, ["compare", "--sys1", str(files["local"]), "--sys2", str(files["local2"])]
        )
        assert json.loads(out)["equivalent"] is False

    def test_non_finite_base_map_exit_2(self, files, capsys):
        phi = files["tmp"] / "phi.json"
        phi.write_text(
            json.dumps(
                {
                    "Ht": {"terms": [{"c": 1.0, "e": [1, 0]}, {"c": math.nan, "e": [0, 0]}]},
                    "Ft": {"terms": [{"c": 1.0, "e": [0, 1]}]},
                }
            )
        )
        argv = ["compare", "--sys1", str(files["local"]), "--sys2", str(files["local"])]
        code, out, err = _run(capsys, argv + ["--phi", str(phi)])
        assert code == 2
        assert "non-finite" in err
        assert out == ""

    @pytest.mark.parametrize(
        "name, phi, sys2",
        [
            # the identity in the file format: every residual vanishes
            ("identity", {"Ht": [(1.0, [1, 0])], "Ft": [(1.0, [0, 1])]}, "local"),
            # (H + F^2, -F) sends the swallow tail to lambda > 0: no branch to match
            ("flip", {"Ht": [(1.0, [1, 0]), (1.0, [0, 2])], "Ft": [(-1.0, [0, 1])]}, "local2"),
        ],
    )
    def test_base_map_file_output_pinned(self, files, capsys, name, phi, sys2):
        path = files["tmp"] / "phi.json"
        path.write_text(
            json.dumps(
                {k: {"terms": [{"c": c, "e": e} for c, e in v]} for k, v in phi.items()}
            )
        )
        argv = ["compare", "--sys1", str(files["local"]), "--sys2", str(files[sys2])]
        code, out, _ = _run(capsys, argv + ["--phi", str(path)])
        assert code == 0
        assert out == (FIXTURES / f"compare_phi_{name}.json").read_text()

    @pytest.mark.parametrize("e", [[1, 0, 0], [1], [1.5, 0], [1.0, 0], ["1", 0], 1])
    def test_base_map_exponents_not_two_integers_exit_2(self, files, capsys, e):
        phi = files["tmp"] / "phi.json"
        phi.write_text(
            json.dumps(
                {
                    "Ht": {"terms": [{"c": 1.0, "e": e}]},
                    "Ft": {"terms": [{"c": 1.0, "e": [0, 1]}]},
                }
            )
        )
        argv = ["compare", "--sys1", str(files["local"]), "--sys2", str(files["local"])]
        code, out, err = _run(capsys, argv + ["--phi", str(phi)])
        assert code == 2
        assert "bad base-map file" in err
        assert out == ""

    def test_vanishing_density_exit_1(self, files, capsys):
        # f = y vanishes at the orbit: f dx^dy is not symplectic there, no verdict
        model = files["tmp"] / "fy.json"
        density = {"terms": [{"c": 1.0, "e": [0, 1, 0]}]}
        model.write_text(json.dumps({"kind": "cusp_local", "density": density, "x0": 1.0}))
        code, out, err = _run(capsys, ["compare", "--sys1", str(model), "--sys2", str(model)])
        assert code == 1
        assert "density vanishes at the orbit" in err
        assert out == ""

    def test_compact_self_comparison_reports_k(self, files, capsys):
        _, out, _ = _run(
            capsys,
            ["compare", "--sys1", str(files["compact"]), "--sys2", str(files["compact"])],
        )
        data = json.loads(out)
        assert data["equivalent"] is True
        assert data["k"] == 0
        assert out == (FIXTURES / "compare_compact_self.json").read_text()


class TestInvariants:
    def test_unit_density_zero_canonical_f(self, files, capsys):
        code, out, _ = _run(capsys, ["invariants", "--sys", str(files["local"])])
        assert code == 0
        data = json.loads(out)
        assert all(abs(v) < 1e-9 for v in data["one_dof"]["canonical_f"])
        assert all(h > 0 for _, h in data["h_samples"])

    @pytest.mark.parametrize("kind", ["cusp_local", "cusp_compact"])
    def test_vanishing_density_exit_1(self, files, capsys, kind):
        # f = y vanishes at the orbit: no invariants, where the compact fit
        # once printed alpha0 ~ 1e-14 and a canonical_f of size 1e49
        model = files["tmp"] / "fy.json"
        density = {"terms": [{"c": 1.0, "e": [0, 1, 0]}]}
        model.write_text(json.dumps({"kind": kind, "density": density, "x0": 0.25}))
        code, out, err = _run(capsys, ["invariants", "--sys", str(model)])
        assert code == 1
        assert "density vanishes at the orbit" in err
        assert out == ""


class TestLattice:
    def test_verification_with_half_vector(self, files, capsys):
        code, out, _ = _run(
            capsys,
            [
                "lattice",
                "--sys",
                str(files["compact"]),
                "--at",
                "0.0",
                "-0.05",
                "--stratum",
                "narrow",
                "--verify",
            ],
        )
        assert code == 0
        data = json.loads(out)
        checks = data["verification"]
        assert checks[0]["returned"] and checks[1]["returned"]
        assert not checks[2]["returned"]  # half of the second basis vector

    def test_basis_shape(self, files, capsys):
        _, out, _ = _run(
            capsys, ["lattice", "--sys", str(files["compact"]), "--at", "0.05", "0.02", "--stratum", "wide"]
        )
        data = json.loads(out)
        assert abs(data["basis"][0][1] - 2 * math.pi) < 1e-12

    def test_exponent_form_negative_lambda(self, files, capsys):
        outs = []
        for lam in ("-5e-05", "-0.00005"):
            argv = ["lattice", "--sys", str(files["compact"]), "--at", "0.01", lam]
            code, out, _ = _run(capsys, argv + ["--stratum", "wide"])
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]


class TestTransport:
    def test_points_roundtrip(self, files, capsys):
        pts = files["tmp"] / "pts.json"
        pts.write_text(json.dumps([[0.028, -0.4805, -0.3]]))
        code, out, _ = _run(
            capsys,
            [
                "transport",
                "--sys1",
                str(files["local"]),
                "--sys2",
                str(files["local"]),
                "--points",
                str(pts),
            ],
        )
        assert code == 0
        data = json.loads(out)
        entry = data["points"][0]
        assert abs(entry["xy_residual"]) < 1e-6
        assert entry["fiber_drift"] < 1e-9

    def test_vanishing_density_exit_1(self, files, capsys):
        # f = y vanishes at the point; the flows stop there instead of looping on NaN
        model = files["tmp"] / "fy.json"
        density = {"terms": [{"c": 1.0, "e": [0, 1, 0]}]}
        model.write_text(json.dumps({"kind": "cusp_local", "density": density, "x0": 1.0}))
        pts = files["tmp"] / "pts.json"
        pts.write_text(json.dumps([[0.3, 0.0, 0.0]]))
        code, _, err = _run(
            capsys,
            ["transport", "--sys1", str(model), "--sys2", str(model), "--points", str(pts)],
        )
        assert code == 1
        assert "density vanishes" in err

    def test_bad_points_exit_2(self, files, capsys):
        pts = files["tmp"] / "pts.json"
        pts.write_text(json.dumps([[0.1]]))
        code, _, err = _run(
            capsys,
            [
                "transport",
                "--sys1",
                str(files["local"]),
                "--sys2",
                str(files["local"]),
                "--points",
                str(pts),
            ],
        )
        assert code == 2
        assert "input error" in err
