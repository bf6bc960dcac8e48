import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cuspinv import flows
from cuspinv.cli import build_parser, main
from cuspinv.model import Density

from oracles import mp_log_coeff, mp_separatrix_action


FIXTURES = Path(__file__).parent / "fixtures"

#: the local-model densities whose `invariants` output is pinned in FIXTURES
PINNED_LOCAL_DENSITIES = [
    ("one", {(0, 0, 0): 1.0}),
    (
        "perturbed",
        {
            (0, 0, 0): 1.2,
            (0, 1, 0): 0.13,
            (2, 0, 0): -0.07,
            (1, 1, 0): 0.05,
            (0, 2, 0): 0.11,
            (0, 3, 0): -0.02,
            (0, 0, 1): 0.15,
        },
    ),
]


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

    @pytest.mark.parametrize("option", ["--h-range", "--l-range"])
    def test_range_keeps_its_signed_zero_start(self, files, capsys, option):
        # linspace's first value is start + 0 * step, 0.0 for a start of -0.0
        ranges = {"--h-range": ["0.0", "0.003"], "--l-range": ["0.0", "0.01"]}
        ranges[option][0] = "-0.0"
        argv = ["actions", "--model", str(files["compact"]), "--grid", "2x2"]
        _, out, _ = _run(capsys, argv + [a for k, v in ranges.items() for a in (k, *v)])
        column = 0 if option == "--h-range" else 1
        firsts = [line.split(",")[column] for line in out.splitlines()[1:]]
        assert firsts == (["-0", "0.003"] * 2 if column == 0 else ["-0", "-0", "0.01", "0.01"])

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

    def test_rejected_calls_leave_the_parser_usable(self, files, capsys):
        # the parser is built once per process; a call that exits 2 must not
        # change what the next call reads
        argv = ["actions", "--model", str(files["compact"])] + TestActions.ARGS
        _, want, _ = _run(capsys, argv)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--mu-shift", "one"])
        assert exc.value.code == 2 and "invalid int value" in capsys.readouterr().err
        assert _run(capsys, argv) == (0, want, "")
        assert self._run_config(files, capsys, {"colour": "red"})[0] == 2
        assert _run(capsys, argv) == (0, want, "")

    def test_configs_do_not_leak_into_later_calls(self, files, capsys):
        argv = ["actions", "--model", str(files["compact"])] + TestActions.ARGS
        _, plain, _ = _run(capsys, argv)
        code, out, _ = self._run_config(files, capsys, {"mu-shift": 1})
        assert code == 0 and out.startswith("H,lambda") and out != plain
        code, out, _ = self._run_config(files, capsys, {"format": "json"})
        assert code == 0 and json.loads(out)["mu_shift"] == 0
        assert _run(capsys, argv) == (0, plain, "")


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

    @pytest.mark.parametrize("name, terms", PINNED_LOCAL_DENSITIES)
    def test_local_output_pinned(self, files, capsys, name, terms):
        # the exact route reproduces the local model's report: every field
        # byte for byte except canonical_f, which goes through float pow and
        # reversion
        model = files["tmp"] / f"local_{name}.json"
        density = {"terms": [{"c": c, "e": list(e)} for e, c in terms.items()]}
        model.write_text(json.dumps({"kind": "cusp_local", "density": density, "x0": 1.0}))
        code, out, _ = _run(capsys, ["invariants", "--sys", str(model)])
        assert code == 0
        got = json.loads(out)
        want = json.loads((FIXTURES / f"invariants_local_{name}.json").read_text())
        for key in ("h_samples", "log_coeffs", "orientation"):
            assert json.dumps(got[key]) == json.dumps(want[key])
        for key in ("alpha", "beta"):
            assert json.dumps(got["one_dof"][key]) == json.dumps(want["one_dof"][key])
        for g, w in zip(got["one_dof"]["canonical_f"], want["one_dof"]["canonical_f"], strict=True):
            assert abs(g - w) <= max(1e-13 * abs(w), 1e-15)

    @pytest.mark.parametrize("name, terms", PINNED_LOCAL_DENSITIES)
    def test_pinned_h_samples_match_mpmath(self, name, terms):
        want = json.loads((FIXTURES / f"invariants_local_{name}.json").read_text())
        for lam, h in want["h_samples"]:
            ref = mp_separatrix_action(Density(terms), lam)
            assert abs(h - ref) <= 2e-15 * ref

    @pytest.mark.parametrize("name, terms", PINNED_LOCAL_DENSITIES)
    def test_pinned_log_coeffs_match_mpmath(self, name, terms):
        want = json.loads((FIXTURES / f"invariants_local_{name}.json").read_text())
        for lam, alpha in want["log_coeffs"]:
            ref = mp_log_coeff(Density(terms), lam)
            assert abs(alpha - ref) <= 1e-12 * abs(ref)

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

    def test_verify_makes_one_flow(self, files, capsys, monkeypatch):
        # the T/2 and T images come from one H-flow; the 2 pi F-turn needs none
        from cuspinv import flows
        from cuspinv.model import FibrationModel

        calls = []
        real = flows._solve
        monkeypatch.setattr(flows, "_solve", lambda *a, **k: calls.append(1) or real(*a, **k))
        argv = ["lattice", "--sys", str(files["compact"]), "--at", "0.0", "-0.05", "--verify"]
        code, out, _ = _run(capsys, argv)
        assert code == 0 and len(calls) == 1
        data = json.loads(out)
        sm = flows.SymplecticModel(FibrationModel.from_json(files["compact"].read_text()))
        for check in data["verification"]:
            alone = flows.verify_lattice(sm, data["start_point"], check["t1"], check["t2"])
            assert abs(check["distance"] - alone) < 1e-9

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

    @pytest.mark.parametrize(
        "model, stratum",
        [("local", "wide"), ("compact", "narrow")],  # no wide stratum; off the swallow tail
    )
    def test_point_off_its_stratum_exit_2(self, files, capsys, model, stratum):
        argv = ["lattice", "--sys", str(files[model]), "--at", "0.05", "0.02"]
        code, out, err = _run(capsys, argv + ["--stratum", stratum])
        assert code == 2 and out == ""
        assert f"is off the {stratum} stratum" in err

    @pytest.mark.parametrize("at", [("-0.2", "0.0"), ("-0.11", "-0.3"), ("-0.08", "-0.05")])
    def test_compact_point_without_a_wide_oval_exit_2(self, files, capsys, at):
        # below the deep well, on empty levels: the diagram calls them outside
        argv = ["lattice", "--sys", str(files["compact"]), "--at", *at, "--stratum", "wide"]
        code, out, err = _run(capsys, argv)
        assert code == 2 and out == ""
        assert f"(H, lambda) = ({float(at[0])}, {float(at[1])}) is off the wide stratum" in err

    def test_compact_wide_point_still_answers(self, files, capsys):
        from cuspinv import flows
        from cuspinv.cli import _json_dumps
        from cuspinv.model import FibrationModel

        argv = ["lattice", "--sys", str(files["compact"]), "--at", "0.05", "0.02", "--stratum", "wide"]
        code, out, _ = _run(capsys, argv)
        sm = flows.SymplecticModel(FibrationModel.from_json(files["compact"].read_text()))
        assert code == 0
        assert out == _json_dumps(flows.period_lattice(sm, 0.05, 0.02, "wide").to_json())
        assert json.loads(out)["basis"] == [[0.0, 2 * math.pi], [5.689387203340221, 1.481674307985012]]

    def test_stratum_read_off_the_level_of_the_lattice(self, files, capsys):
        # at lambda in (-1/4, -0.13) the deep well's value W(d) lies above the
        # elliptic minimum W(e); for H between them the level has only the
        # oval around e, which is wide: the stratum is what the builders build
        from cuspinv import flows
        from cuspinv.cli import _json_dumps
        from cuspinv.model import FibrationModel

        argv = ["lattice", "--sys", str(files["compact"]), "--at", "0.01065", "-0.1994"]
        code, out, err = _run(capsys, argv + ["--stratum", "narrow"])
        assert code == 2 and out == ""
        assert "(H, lambda) = (0.01065, -0.1994) is off the narrow stratum" in err
        code, out, _ = _run(capsys, argv + ["--stratum", "wide"])
        sm = flows.SymplecticModel(FibrationModel.from_json(files["compact"].read_text()))
        assert code == 0
        assert out == _json_dumps(flows.period_lattice(sm, 0.01065, -0.1994, "wide").to_json())

    def test_stratum_checked_beyond_the_domain_radius(self, files, capsys):
        # |(H, lambda)| = 0.2 lies past the diagram's default radius 0.08, on
        # the narrow stratum of the unbounded local model
        argv = ["lattice", "--sys", str(files["local"]), "--at", "0.0", "-0.2"]
        code, out, _ = _run(capsys, argv + ["--stratum", "narrow"])
        assert code == 0
        assert json.loads(out)["basis"][0][1] == 2 * math.pi


#: the supported names of ``import cuspinv``, sorted
PUBLIC_API = """
ActionChart ActionChartRow BifurcationDiagram BrieskornPair CUSP_COMPACT CUSP_LOCAL
CanonicalBaseTransform DEFAULT_ORDER Density EquivalenceVerdict FibrationModel FitReport
IDENTITY_BASE_MAP InvariantReport NODE ONE_DOF OnSigmaError OneDofVerdict ParabolicVerdict
PeriodLattice PuiseuxTriple RescaleMap StratumError SymplecticModel TruncatedSeries action_chart
base_change_parabolic_test bifurcation_diagram canonicalize_base cusp_compact_model
cusp_local_model cusp_torus_equivalent fit_puiseux hyperbolic_log_coeff
invariant_report is_parabolic loop_action loop_period model_pair node_complex_period node_model
node_passage normalize_invariant one_dof_equivalent one_dof_model oval_bounds parabolic_equivalent
passage_time period_lattice phi_r_apply phi_r_invert puiseux_constants pullback_residual reduce
separatrix_action trajectory_csv transport_map verify_lattice verify_node_log_identity
verify_relations verify_relations_numeric wide_action
""".split()


#: one request of each subcommand and a pushed-forward density, in a fresh
#: process; argv[1] "block" makes every scipy import fail first.  Prints the
#: exit code and stdout of each request, the density's value and whether scipy
#: was loaded, as JSON
_NUMPY_ONLY_RUN = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    class Block:
        def find_spec(self, name, path=None, target=None):
            if name.partition(".")[0] == "scipy":
                raise ImportError(f"{name} is blocked")
    sys.meta_path.insert(0, Block())
from cuspinv import cli
from cuspinv.equivalence import RescaleMap
from cuspinv.model import Density
from cuspinv.series import TruncatedSeries
out = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()) as text:
        out.append([cli.main(argv), text.getvalue()])
rmap = RescaleMap(TruncatedSeries([1.0, 0.5], order=4))
out.append(repr(rmap.pushforward_density(Density({(0, 0, 0): 1, (0, 1, 0): 1}))(0.3, 0.7)))
print(json.dumps([out, "scipy" in sys.modules]))
"""


def test_import_leaves_scipy_out(files):
    # numpy is the only run-time dependency: importing the package loads no
    # scipy and generates no flow step, and with scipy imports made to fail
    # every subcommand and the rescaling's inverse answer as they do with
    # scipy importable, neither loading it; the package exports the pinned
    # API, each name defined
    code = (
        "import sys, cuspinv, cuspinv.cli; print('scipy' in sys.modules); "
        "print(' '.join(sorted(cuspinv.__all__))); "
        "print(all(hasattr(cuspinv, n) for n in cuspinv.__all__)); "
        "from cuspinv import flows; print(flows._step.cache_info().currsize)"
    )
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0
    scipy_loaded, names, defined, generated = out.stdout.splitlines()
    assert scipy_loaded == "False"
    assert generated == "0"
    assert names.split() == PUBLIC_API
    assert defined == "True"

    pts = files["tmp"] / "pts.json"
    pts.write_text(json.dumps([[0.028, -0.4805, -0.3]]))
    f = {k: str(v) for k, v in files.items()}
    requests = [
        ["decompose", "--density", f["f1"]],
        ["actions", "--model", f["compact"], "--grid", "3x3"],
        ["compare", "--sys1", f["local"], "--sys2", f["local2"]],
        ["invariants", "--sys", f["compact"]],
        ["lattice", "--sys", f["compact"], "--at", "0.0", "-0.05", "--verify"],
        ["transport", "--sys1", f["local"], "--sys2", f["local2"], "--points", str(pts)],
    ]
    runs = {}
    for mode in ("block", "open"):
        argv = [sys.executable, "-c", _NUMPY_ONLY_RUN, mode, json.dumps(requests)]
        run = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert run.returncode == 0, run.stderr
        runs[mode], scipy_loaded = json.loads(run.stdout)
        assert scipy_loaded is False
    *answers, value = runs["block"]
    assert [code for code, _ in answers] == [0] * len(requests)
    assert all(text for _, text in answers) and math.isfinite(float(value))
    assert runs["block"] == runs["open"]


class TestTransport:
    def test_points_roundtrip(self, files, capsys):
        # the second point a stencil step and a bit more from N1 = {x = 1}
        pts = files["tmp"] / "pts.json"
        pts.write_text(json.dumps([[0.028, -0.4805, -0.3], [1.0 - 2e-5, -1.0844460694249132, -0.3]]))
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
        for entry in json.loads(out)["points"]:
            assert abs(entry["xy_residual"]) < 1e-6
            assert entry["fiber_drift"] < 1e-9

    def test_empty_points_file(self, files, capsys):
        pts = files["tmp"] / "pts.json"
        pts.write_text("[]")
        argv = ["transport", "--sys1", str(files["local"]), "--sys2", str(files["local"])]
        code, out, _ = _run(capsys, argv + ["--points", str(pts)])
        assert (code, json.loads(out)) == (0, {"points": []})

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

    @pytest.mark.parametrize(
        "point, reason",
        [
            # x > x0: the point lies before N1 = {x = x0} on its passage
            ([1.5, -0.5, -0.3], "before the section N1"),
            # on N1 or within the residual's stencil step of it, its stencil
            # point x + h lies before N1 (this said "off the map's domain")
            ([1.0, -1.0844460694249132, -0.3], f"within the stencil step {flows.STENCIL_H} of N1"),
            ([1.0 - 5e-6, -1.0844460694249132, -0.3], f"within the stencil step {flows.STENCIL_H} of N1"),
        ],
        ids=["before", "on", "near"],
    )
    def test_point_before_the_section_exit_2(self, files, capsys, point, reason):
        pts = files["tmp"] / "pts.json"
        pts.write_text(json.dumps([[0.028, -0.4805, -0.3], point]))
        argv = ["transport", "--sys1", str(files["local"]), "--sys2", str(files["local"])]
        code, out, err = _run(capsys, argv + ["--points", str(pts)])
        assert code == 2 and out == ""
        assert reason in err and "domain" not in err

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


#: sha256 of stdout, byte for byte, of the default 7x7 charts, the 21x21
#: charts of the benchmark's window, charts filtered to one stratum (one with
#: a mu shift), lattice verifications, invariant reports,
#: verdicts on two different systems, also under the base maps (H + 0.01, F)
#: and (1.05 H, F), and transports; {name} stands for a model, base-map or
#: points file
PINNED_DIGESTS = [
    (
        "actions --model {local}",
        "a3543c4e58688e794a047c92d74cdf5b335a4fdf6cbaee8f0b7092114efee4bf",
    ),
    (
        "actions --model {compact}",
        "c58591daed0c7d54ab36cdfe80168c351e00cccb8221aa003d772a3adf6467bb",
    ),
    (
        "actions --model {local} --format json",
        "ce972dd88b620b48cab0838a639722d99cb2c2acc9bb056c04e3e0df30fa257c",
    ),
    (
        "actions --model {compact} --format json",
        "438ecaa2a3a1e5fb7686284fba41d513aa89f8beca200a8afefa905f58fb24ed",
    ),
    (
        "actions --model {local} --grid 21x21 --h-range -0.01 0.01 --l-range -0.06 0.02",
        "3aa151aec9e765e84f0ae96a94b0996d89c06f1df4ce2c76872b17cbffaac77b",
    ),
    (
        "actions --model {compact} --grid 21x21 --h-range -0.01 0.01 --l-range -0.06 0.02",
        "581677b35acf5fcf8d7b0a912c47cb184bc51eda48beaa4e44c667356cf67441",
    ),
    (
        "actions --model {local} --grid 21x21 --h-range -0.01 0.01 --l-range -0.06 0.02 --format json",
        "7eb624d8ceaadd431dcc42851719d263ba825c22b621b1e4c283fb1b75d07581",
    ),
    (
        "actions --model {compact} --grid 21x21 --h-range -0.01 0.01 --l-range -0.06 0.02 --format json",
        "770d37e2d6ccf5b2bb03e2037de638f59c691280a5d98374e33e4a17ab3df8d4",
    ),
    (
        "actions --model {compact} --stratum wide --mu-shift 1 --format json",
        "beef636e500adabf5fe5e990480610931f3bae2471a08b1f818b8ccbbd448d7d",
    ),
    (
        "actions --model {local} --stratum narrow",
        "c4fd37ce9db50cdb1ee6b03bbbaba710a175e6beec1e8c174b5a1a3cbc916b43",
    ),
    (
        "lattice --sys {local} --at 0.0 -0.05 --verify",
        "4057b63d4cd32af389f0e32d0db08e363d4f8b9a57447d06bd176ef5911b3816",
    ),
    (
        "lattice --sys {compact} --at 0.0 -0.05 --verify",
        "53cd2ef1ec13eb9a79b17e3afaee6a71267cf733cd2e07fabcde71149ff40132",
    ),
    (
        "lattice --sys {compact} --at 0.05 0.02 --stratum wide --verify",
        "44ac26be05985562d37d3e043255fda1c8eb6bec70afaeced5b64b5474296abf",
    ),
    (
        "invariants --sys {compact}",
        "16d16cd32ff0fe2bb8c7a70d31182a0c155ead97e07291d0c697484ccb528e66",
    ),
    (
        "invariants --sys {local_p}",
        "5a5e1e1ab3b734cc52a0c9bdbd6fc6bcc9522983b8492a1214aeaa9fffc052cb",
    ),
    (
        "invariants --sys {compact_p}",
        "d9a51b0b9d6c0d1ea861e428637db27b6f1588b4cda25d0848ee953986bd49b0",
    ),
    (
        "decompose --density {f1}",
        "c226b7ade038b35cec9b599701a641e74567f9df1cdcae468c67487de9568420",
    ),
    (
        "compare --sys1 {local} --sys2 {local_p}",
        "dc15f7d143ed6e62d67a65e0c76c0826462a2f073a9c2a563bfa8a3a9421825f",
    ),
    (
        "compare --sys1 {compact} --sys2 {compact_p}",
        "b42824036c9806cbecc58f116a0421323fd836d73c385bed2f7ca3ffe1f78457",
    ),
    (
        "compare --sys1 {local} --sys2 {local_p} --phi {shift}",
        "ae2179c49abf9963d084c276a37b94ec9c60bb12c278ddc73146207cb865df64",
    ),
    (
        "compare --sys1 {compact} --sys2 {compact_p} --phi {scale}",
        "65dc907a9991735d097db8de5e41f741a18e7ee5359f3c8f4ea2e45010096ba3",
    ),
    (
        "transport --sys1 {local} --sys2 {local_p} --points {pts_local}",
        "6bfec9504c4c065e89aca4d0f969ec6451465bd3eaf5b032c93a6bac9cebb131",
    ),
    (
        "transport --sys1 {compact} --sys2 {compact_p} --points {pts_compact}",
        "429361d2da2a043ccb534a6ae11efec32cfd6393e0d88c85505c4a596ff27a92",
    ),
]


@pytest.mark.parametrize("command, digest", PINNED_DIGESTS)
def test_output_digest_pinned(files, capsys, command, digest):
    def model(kind, terms, x0):
        density = {"terms": [{"c": c, "e": list(e)} for e, c in terms.items()]}
        return {"kind": kind, "density": density, "x0": x0}

    extra = {
        "local_p": model(
            "cusp_local", {(0, 0, 0): 1.2, (0, 1, 0): 0.13, (1, 1, 0): 0.05, (0, 0, 1): 0.15}, 1.0
        ),
        "compact_p": model("cusp_compact", {(0, 0, 0): 1.0, (0, 1, 0): 0.2, (2, 0, 0): 0.1}, 0.25),
        "pts_local": [[0.028, -0.4805, -0.3], [-0.2, 0.1, -0.02, 0.5]],
        "pts_compact": [[0.1, -0.2, -0.03], [-0.05, 0.1, 0.01]],
        "shift": _phi({(1, 0): 1, (0, 0): 0.01}, {(0, 1): 1}),
        "scale": _phi({(1, 0): 1.05}, {(0, 1): 1}),
    }
    paths = {k: str(v) for k, v in files.items()}
    for name, data in extra.items():
        paths[name] = str(files["tmp"] / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(data))
    # the commands that read the level tables run cold, then warm
    runs = 2 if command.split()[0] in ("actions", "invariants", "compare", "decompose") else 1
    for _ in range(runs):
        code, out, _ = _run(capsys, command.format(**paths).split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def _phi(h_terms: dict, f_terms: dict) -> dict:
    """A base-map file's data, (H~, F~) from their {(i, j): c} terms in (H, F)."""
    pairs = (("Ht", h_terms), ("Ft", f_terms))
    return {key: {"terms": [{"c": c, "e": list(e)} for e, c in t.items()]} for key, t in pairs}


def _exit(capsys, argv):
    """(exit code, stdout, stderr), an argparse rejection included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


#: the model kinds without a bifurcation diagram
NON_CUSP = ("one_dof", "node")


class TestBadInput:
    def test_nan_tolerance_exit_2(self, files, capsys):
        # compared against itself, every residual is 0.0, yet 0.0 <= nan is false
        argv = ["compare", "--sys1", str(files["local"]), "--sys2", str(files["local"])]
        code, out, err = _exit(capsys, argv + ["--tol", "nan"])
        assert code == 2 and out == "" and "not a finite number" in err

    def test_negative_tolerance_exit_2(self, files, capsys):
        argv = ["lattice", "--sys", str(files["compact"]), "--at", "0.0", "-0.05", "--verify"]
        code, out, err = _exit(capsys, argv + ["--tol", "-1e-6"])
        assert code == 2 and out == "" and "negative" in err

    def test_empty_k_range_exit_2(self, files, capsys):
        argv = ["compare", "--sys1", str(files["compact"]), "--sys2", str(files["compact"])]
        code, out, err = _exit(capsys, argv + ["--k-range", "3", "-3"])
        assert code == 2 and out == "" and "k-range" in err

    def test_nan_h_range_exit_2(self, files, capsys):
        argv = ["actions", "--model", str(files["compact"]), "--h-range", "nan", "0.01"]
        code, out, err = _exit(capsys, argv)
        assert code == 2 and out == "" and "not a finite number" in err

    def test_nan_base_point_exit_2(self, files, capsys):
        argv = ["lattice", "--sys", str(files["compact"]), "--at", "nan", "-0.05"]
        code, out, err = _exit(capsys, argv)
        assert code == 2 and out == "" and "not a finite number" in err

    @pytest.mark.parametrize(
        "kind, entry",
        [
            ("density", {"c": True, "e": [0, 0, 0]}),  # was read as 1
            ("density", {"c": "1.0", "e": [0, 0, 0]}),
            ("density", {"c": 1.0, "e": [0, True, 0]}),  # was read as y
            ("model", {"x0": True}),  # was read as 1.0
            ("model", {"x0": "0.5"}),  # was read as 0.5
            ("model", {"x0": None}),
            ("base-map", {"c": True, "e": [1, 0]}),
            ("base-map", {"c": 1.0, "e": [True, 0]}),
        ],
        ids=["c-true", "c-string", "e-true", "x0-true", "x0-string", "x0-null", "phi-c", "phi-e"],
    )
    def test_entry_that_is_no_number_exit_2(self, files, capsys, kind, entry):
        # JSON's true is no 1 and "0.5" no 0.5: each is rejected as the
        # transport points' are, not converted
        path = files["tmp"] / "entry.json"
        if kind == "density":
            path.write_text(json.dumps({"terms": [entry]}))
            argv = ["decompose", "--density", str(path), "--no-cross-check"]
        elif kind == "model":
            density = {"terms": [{"c": 1.0, "e": [0, 0, 0]}]}
            path.write_text(json.dumps({"kind": "cusp_compact", "density": density, **entry}))
            argv = ["actions", "--model", str(path), "--grid", "2x2"]
        else:
            phi = _phi({}, {(0, 1): 1.0})
            phi["Ht"]["terms"] = [entry]
            path.write_text(json.dumps(phi))
            argv = ["compare", "--sys1", str(files["local"]), "--sys2", str(files["local"])]
            argv += ["--phi", str(path)]
        code, out, err = _exit(capsys, argv)
        assert code == 2 and out == "" and f"bad {kind} file" in err and "not a number" in err

    @pytest.mark.parametrize(
        "command, where, named",
        [
            ("decompose", "density c", "coefficient at (0, 0, 0)"),
            ("actions", "model x0", "x0 1000"),
            ("invariants", "model c", "coefficient at (0, 1, 0)"),
            ("actions", "model c", "coefficient at (0, 1, 0)"),
            ("lattice", "model c", "coefficient at (0, 1, 0)"),
            ("transport", "point", "[0.028, 1000"),
            ("compare", "base-map c", "coefficient at (0, 1, 0)"),
            ("actions", "model list", "not [1, 2]"),
        ],
        ids=["density-c", "x0", "invariants-c", "actions-c", "lattice-c", "point", "phi-c", "list"],
    )
    def test_entry_beyond_float_range_exit_2(self, files, capsys, command, where, named):
        # a 400-digit integer is valid JSON that no float holds; it was read,
        # and the computation failed on it (exit 1), as on a model that is a list
        big, path = 10**400, files["tmp"] / "big.json"
        one = {"c": 1.0, "e": [0, 0, 0]}
        model = {"kind": "cusp_compact", "density": {"terms": [one]}, "x0": 0.25}
        local = str(files["local"])
        if where == "density c":
            path.write_text(json.dumps({"terms": [{"c": big, "e": [0, 0, 0]}]}))
            argv = ["--density", str(path)]
        elif where == "point":
            path.write_text(json.dumps([[0.028, big, -0.3]]))
            argv = ["--sys1", local, "--sys2", local, "--points", str(path)]
        elif where == "base-map c":
            path.write_text(json.dumps(_phi({(1, 0): 1.0}, {(0, 1): big})))
            argv = ["--sys1", local, "--sys2", local, "--phi", str(path)]
        else:
            big_c = {"terms": [one, {"c": big, "e": [0, 1, 0]}]}
            data = {"model x0": {**model, "x0": big}, "model c": {**model, "density": big_c},
                    "model list": [1, 2]}[where]
            path.write_text(json.dumps(data))
            flag = "--model" if command == "actions" else "--sys"
            argv = [flag, str(path)] + (["--at", "0.0", "-0.05"] if command == "lattice" else [])
        code, out, err = _exit(capsys, [command, *argv])
        assert code == 2 and out == "" and "input error" in err and named in err

    @pytest.mark.parametrize(
        "point",
        [
            ["0.028", -0.4805, -0.3],
            [math.nan, -0.4805, -0.3],
            [0.028, -0.4805, -0.3, math.inf],
            [True, -0.4805, -0.3],
            [0.028, -0.4805, -0.3, 0.0, 7.0],  # an entry after phi
        ],
    )
    def test_bad_transport_point_exit_2(self, files, capsys, point):
        pts = files["tmp"] / "pts.json"
        pts.write_text(json.dumps([[0.028, -0.4805, -0.3], point]))
        argv = ["transport", "--sys1", str(files["local"]), "--sys2", str(files["local"])]
        code, out, err = _exit(capsys, argv + ["--points", str(pts)])
        assert code == 2 and out == "" and "bad points file" in err

    def test_transport_point_off_the_map_exit_2(self, files, capsys):
        # on a narrow oval, whose trajectory never meets N1: the level solve of
        # the section times says so before any flow (this exited 1)
        pts = files["tmp"] / "pts.json"
        pts.write_text(json.dumps([[0.03546709477020782, 0.12357542579213215, -0.05584939778186999]]))
        argv = ["transport", "--sys1", str(files["local"]), "--sys2", str(files["local"])]
        code, out, err = _exit(capsys, argv + ["--points", str(pts)])
        assert code == 2 and out == "" and "off the map's domain" in err
        assert "does not reach the section" in err
        # f = y vanishes on the trajectory: a computation failure, still 1
        model = files["tmp"] / "fy.json"
        density = {"terms": [{"c": 1.0, "e": [0, 1, 0]}]}
        model.write_text(json.dumps({"kind": "cusp_local", "density": density, "x0": 1.0}))
        pts.write_text(json.dumps([[0.3, 0.2, 0.0]]))
        argv = ["transport", "--sys1", str(model), "--sys2", str(model), "--points", str(pts)]
        code, out, err = _exit(capsys, argv)
        assert code == 1 and out == "" and "density vanishes on the trajectory" in err

    def test_unwritable_out_exit_2(self, files, capsys):
        dest = files["tmp"] / "missing" / "chart.csv"
        argv = ["actions", "--model", str(files["compact"]), "--out", str(dest)]
        code, out, err = _exit(capsys, argv + TestActions.ARGS)
        assert code == 2 and out == "" and "cannot write" in err

    @pytest.mark.parametrize(
        "command, kind",
        [
            *((c, k) for c in ("actions", "compare", "invariants", "lattice") for k in NON_CUSP),
            ("transport", "node"),
        ],
    )
    def test_unsupported_model_kind_exit_2(self, files, capsys, command, kind):
        model = files["tmp"] / f"{kind}.json"
        density = {"terms": [{"c": 1.0, "e": [0, 0, 0]}]}
        model.write_text(json.dumps({"kind": kind, "density": density, "x0": 1.0}))
        pts = files["tmp"] / "pts.json"
        pts.write_text(json.dumps([[0.3, 0.9, 0.0]]))
        argv = {
            "actions": ["--model", str(model)],
            "compare": ["--sys1", str(files["local"]), "--sys2", str(model)],
            "invariants": ["--sys", str(model)],
            "lattice": ["--sys", str(model), "--at", "0.0", "-0.05"],
            "transport": ["--sys1", str(model), "--sys2", str(model), "--points", str(pts)],
        }[command]
        code, out, err = _exit(capsys, [command, *argv])
        assert code == 2 and out == "" and repr(kind) in err

    def test_transport_on_one_dof(self, files, capsys):
        model = files["tmp"] / "one_dof.json"
        density = {"terms": [{"c": 1.0, "e": [0, 0, 0]}, {"c": 0.2, "e": [0, 1, 0]}]}
        model.write_text(json.dumps({"kind": "one_dof", "density": density, "x0": 1.0}))
        pts = files["tmp"] / "pts.json"
        pts.write_text(json.dumps([[0.3, 0.9, 0.0]]))
        argv = ["transport", "--sys1", str(model), "--sys2", str(model), "--points", str(pts)]
        code, out, _ = _exit(capsys, argv)
        assert code == 0
        assert abs(json.loads(out)["points"][0]["xy_residual"]) < 1e-6


def _numeric_options():
    """(command, option) of every subcommand option whose type reads a number."""
    (commands,) = [a for a in build_parser()._actions if a.dest == "command"]
    return [
        (name, a.option_strings[0])
        for name, sub in commands.choices.items()
        for a in sub._actions
        if a.option_strings and a.type is not None and isinstance(a.type("1"), (int, float))
    ]


def test_numeric_options_found():
    expected = {
        ("actions", "--h-range"), ("actions", "--l-range"), ("actions", "--mu-shift"),
        ("compare", "--k-range"), ("compare", "--tol"),
        ("lattice", "--at"), ("lattice", "--mu-shift"), ("lattice", "--tol"),
    }
    assert expected <= set(_numeric_options())


@pytest.mark.parametrize("command, option", _numeric_options())
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_numeric_option_rejects_non_finite(tmp_path, capsys, command, option, value):
    # every numeric option, as a flag and as a --config entry, with valid input files
    density = {"terms": [{"c": 1.0, "e": [0, 0, 0]}]}
    paths = {}
    for name, data in (
        ("density", density),
        ("points", [[0.028, -0.4805, -0.3]]),
        ("model", {"kind": "cusp_local", "density": density}),
    ):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(data))
    (commands,) = [a for a in build_parser()._actions if a.dest == "command"]
    actions = {a.option_strings[0]: a for a in commands.choices[command]._actions}
    required = []
    for name, a in actions.items():
        if a.required and a.type:
            required += [name, *["0.0"] * (a.nargs or 1)]
        elif a.required:  # --density, --points or a model file
            required += [name, str(paths.get(name.strip("-"), paths["model"]))]
    n = actions[option].nargs
    code, out, err = _exit(capsys, [command, *required, option, *[value] * (n or 1)])
    assert (code, out) == (2, "") and option in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({actions[option].dest: [float(value)] * n if n else float(value)}))
    code, out, err = _exit(capsys, ["--config", str(cfg), command, *required])
    assert (code, out) == (2, "") and actions[option].dest in err


#: (stacked root solves, level-integral engine calls) of one request, cold
#: and then warm: the same command run twice in one process.  One solve per
#: dependency step, a diagram query's lambdas and a batch's levels each within
#: one.  The levels of the fixed sample grids depend on the model kind alone
#: and are solved once per process (the ``equivalence`` tables): cold, a
#: decompose solves its passage levels, an invariant report the saddles of
#: both lambda grids, then the lobes, and a verdict d1's branch values, then
#: sys1's narrow and wide levels with the branch values at its Sigma samples.
#: sys2's are keyed by the images of phi, so under the identity map sys2 of
#: sys1's kind reads sys1's.  A chart's levels and strata depend on its window
#: alone (``quadrature._chart_table``).  Every grid keeps its monomials'
#: values, and a request sums those of f's terms (``quadrature._sums``): a
#: request's new monomials are integrated cold in one engine call, and warm
#: nothing is solved or integrated.  A transport solves per system its levels
#: with the zeros of f on them
SOLVES_PER_REQUEST = [
    ("decompose --density {f1}", (1, 1), (0, 0)),
    ("actions --model {compact}", (1, 1), (0, 0)),
    (
        "actions --model {compact} --grid 21x21 --h-range -0.01 0.01 --l-range -0.06 0.02",
        (1, 1),
        (0, 0),
    ),
    ("invariants --sys {local}", (2, 1), (0, 0)),
    ("invariants --sys {compact}", (2, 1), (0, 0)),
    ("compare --sys1 {local} --sys2 {local2}", (2, 1), (0, 0)),
    ("compare --sys1 {compact} --sys2 {compact}", (2, 1), (0, 0)),
    ("lattice --sys {compact} --at 0.0 -0.05 --verify", (1, 1), (1, 1)),
    ("lattice --sys {compact} --at 0.05 0.02 --stratum wide --verify", (1, 1), (1, 1)),
    ("transport --sys1 {local} --sys2 {local2} --points {pts}", (2, 2), (2, 2)),
]


@pytest.mark.parametrize(
    "command, cold, warm", SOLVES_PER_REQUEST, ids=[c for c, *_ in SOLVES_PER_REQUEST]
)
def test_solves_per_request_pinned(files, capsys, monkeypatch, command, cold, warm):
    from cuspinv import model as model_module
    from cuspinv import quadrature

    counts = {"_stacked_roots": 0, "_level_integrals": 0}
    for name, home in (("_stacked_roots", model_module), ("_level_integrals", quadrature)):
        real = getattr(home, name)

        def counted(*args, real=real, name=name):
            counts[name] += 1
            return real(*args)

        # every module of the package that holds the function by name
        for module in [m for key, m in sys.modules.items() if key.startswith("cuspinv")]:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    pts = files["tmp"] / "pts.json"
    pts.write_text(json.dumps([[0.028, -0.4805, -0.3], [-0.2, 0.1, -0.02, 0.5]]))
    paths = {k: str(v) for k, v in files.items()} | {"pts": str(pts)}
    for pinned in (cold, warm):
        counts.update(dict.fromkeys(counts, 0))
        code, _, _ = _run(capsys, command.format(**paths).split())
        assert code == 0
        assert (counts["_stacked_roots"], counts["_level_integrals"]) == pinned
