"""The repro-eval command-line interface."""

import builtins
import hashlib
import math

import pytest

from repro.cli import build_parser, main

#: SHA-256 of each paper command's stdout at its default arguments.  A
#: change to any printed number or to the table layout moves it.
PAPER_ARTIFACTS = {
    "table1":
        "16eb118b311471ac08ffc88b8d029397230024d64f8db8232aec28c1d6476283",
    "fig10":
        "abad2428f912a032f65f03cad4ba8806ceb396cfbe42cbcfe6817e2c10b4f614",
    "fig11":
        "254b63e663287ae7b385d0a05060626412e9a6489e0964a77a5c47cfd3b68f9e",
    "fig12":
        "1177ee9cd8460f7d1938ce3ffc11e8ead4628510f76542f80160a88ba015de3e",
    "fig13":
        "e33a4c51e1d5edf0a78e86a51763624a5fad7ad5d6fd5a6fbd0d656307c085b6",
    "vbr":
        "dc3c86f7e25697a4ec2c0599d37e3b695c8f0a522e5157b782d39f3db22ba90c",
}


#: SHA-256 of ``repro-eval churn ... --json``.  The report's float totals
#: are summed left to right, so the digests hold on every interpreter,
#: including those whose built-in ``sum()`` compensates float rounding
#: (Python 3.12 and later).
CHURN_JSON = {
    "k-alternate":
        ("83e8f2936b1f04b7e9af2e3b028a73337b40018bc41797dbb4279a6a83162c3d",
         ["--loads", "1", "2", "3", "--policy", "k-alternate"]),
    "first-path-plane":
        ("24925af95b1e5aa5b181f1e2c1b446b530bfeba6810d18e3c623444578acd955",
         ["--loads", "1", "2", "4", "--policy", "first-path",
          "--setup-latency", "2", "--reservation-ttl", "40"]),
    "k-alternate-plane":
        ("1adfdbcfaaac7b6063b854df6a1fe9debced00c65cffba74f3827188f35af03b",
         ["--loads", "1", "2", "4", "--policy", "k-alternate",
          "--setup-latency", "2", "--reservation-ttl", "40"]),
}


def run(capsys, *argv):
    code = main(list(argv))
    assert code == 0
    return capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_defaults(self):
        args = build_parser().parse_args(["fig10"])
        assert args.ring_nodes == 16
        assert 0.75 in args.loads

    @pytest.mark.parametrize("argv", [
        ["fig10", "--terminals", "0"],
        ["fig11", "--fractions", "1.5"],
        ["failover", "--ring-nodes", "2"],
        ["churn", "--nodes", "0"],
        ["churn", "--policy", "k-alternate", "--k", "0"],
        ["churn", "--setup-latency", "nan"],
        ["churn", "--setup-latency", "inf"],
        ["churn", "--reservation-ttl", "nan"],
        ["churn", "--reservation-ttl", "0"],
        ["obs", "--ring-nodes", "0"],
    ], ids=lambda argv: "_".join(argv).replace("--", ""))
    def test_rejected_argument_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("repro-eval: error: ")


class TestCommands:
    def test_table1(self, capsys):
        out = run(capsys, "table1")
        assert "high speed" in out
        assert "32.8" in out

    def test_table1_csv(self, capsys):
        out = run(capsys, "--csv", "table1")
        assert out.splitlines()[0].startswith("class,")
        assert "high speed,1,1,4" in out

    def test_fig10_small(self, capsys):
        out = run(capsys, "fig10", "--loads", "0.25", "0.75",
                  "--terminals", "1")
        assert "N=1" in out
        assert "Figure 10" in out

    def test_fig10_shows_rejection(self, capsys):
        out = run(capsys, "fig10", "--loads", "0.99", "--terminals", "16")
        assert "rejected" in out

    def test_fig11_small(self, capsys):
        out = run(capsys, "fig11", "--fractions", "0", "0.5",
                  "--terminals", "4", "--ring-nodes", "8",
                  "--tolerance", "0.05")
        assert "Figure 11" in out

    def test_fig12_small(self, capsys):
        out = run(capsys, "fig12", "--fractions", "0.5",
                  "--terminals", "4", "--ring-nodes", "8",
                  "--tolerance", "0.05")
        assert "2 priorities" in out

    def test_fig13_small(self, capsys):
        out = run(capsys, "fig13", "--fractions", "0.5",
                  "--terminals", "4", "--ring-nodes", "8",
                  "--tolerance", "0.05")
        assert "soft CAC" in out

    def test_vbr(self, capsys):
        out = run(capsys, "vbr", "--mbs", "1", "16")
        assert "VBR feasibility" in out

    def test_failover(self, capsys):
        out = run(capsys, "failover", "--terminals", "1",
                  "--ring-nodes", "8")
        assert "after_wrap" in out

    @pytest.mark.parametrize("command", list(PAPER_ARTIFACTS))
    def test_paper_artifact_is_byte_identical(self, capsys, command):
        out = run(capsys, command)
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == PAPER_ARTIFACTS[command]

    def test_csv_mode_has_no_table_art(self, capsys):
        out = run(capsys, "--csv", "vbr", "--mbs", "1")
        assert "|" not in out
        assert out.startswith("mbs_per_node,max_load")


class TestVersionFlag:
    def test_version_prints_package_version(self, capsys):
        from repro import __version__
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro-eval {__version__}"

    def test_help_documents_version(self):
        assert "--version" in build_parser().format_help()


class TestChurnCommand:
    ARGS = ["churn", "--loads", "1", "3", "--events", "300",
            "--nodes", "6", "--seed", "5"]

    def test_table_output(self, capsys):
        out = run(capsys, *self.ARGS)
        assert "blocking vs offered load" in out
        assert "seed 5" in out
        assert "carried_erlangs" in out

    def test_csv_output(self, capsys):
        out = run(capsys, "--csv", *self.ARGS)
        assert out.startswith("offered_load,arrivals,blocked,blocking")

    def test_json_output_carries_digests(self, capsys):
        import json
        payload = json.loads(run(capsys, *self.ARGS, "--json"))
        assert payload["seed"] == 5
        assert len(payload["points"]) == 2
        for point in payload["points"]:
            assert len(point["digests"]) == 1
            assert len(point["digests"][0]) == 64

    def test_seeded_runs_reproduce(self, capsys):
        import json
        first = json.loads(run(capsys, *self.ARGS, "--json"))
        second = json.loads(run(capsys, *self.ARGS, "--json"))
        assert first == second

    def test_policy_choices_are_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["churn", "--policy", "random-walk"])

    def test_seed_defaults_to_zero(self):
        assert build_parser().parse_args(["churn"]).seed == 0

    def test_setup_latency_flags_reach_the_report(self, capsys):
        import json
        payload = json.loads(run(
            capsys, "churn", "--loads", "1", "--events", "300",
            "--nodes", "6", "--seed", "5",
            "--setup-latency", "2", "--reservation-ttl", "40", "--json"))
        assert payload["setup_latency"] == 2.0
        assert payload["reservation_ttl"] == 40.0

    @pytest.mark.parametrize("run_name", list(CHURN_JSON))
    def test_json_is_byte_identical(self, capsys, run_name):
        digest, argv = CHURN_JSON[run_name]
        out = run(capsys, "churn", *argv, "--events", "800", "--seed", "7",
                  "--json")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("run_name", list(CHURN_JSON))
    def test_json_does_not_depend_on_how_sum_rounds(self, capsys,
                                                    monkeypatch, run_name):
        """Built-in ``sum()`` replaced by an exactly rounded float sum
        (Python 3.12 compensates, which moves the same last bits) leaves
        the report unchanged: no float total comes from it."""
        builtin_sum = builtins.sum

        def exact_sum(values, start=0):
            values = list(values)
            if any(isinstance(value, float) for value in values):
                return math.fsum([start, *values])
            return builtin_sum(values, start)

        monkeypatch.setattr(builtins, "sum", exact_sum)
        digest, argv = CHURN_JSON[run_name]
        out = run(capsys, "churn", *argv, "--events", "800", "--seed", "7",
                  "--json")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_setup_latency_changes_the_trajectory(self, capsys):
        import json
        instant = json.loads(run(capsys, *self.ARGS, "--json"))
        latent = json.loads(run(
            capsys, *self.ARGS, "--setup-latency", "2",
            "--reservation-ttl", "40", "--json"))
        assert instant["setup_latency"] == 0.0
        assert instant["reservation_ttl"] is None
        assert [p["digests"] for p in latent["points"]] != \
               [p["digests"] for p in instant["points"]]


class TestObsCommand:
    def test_table_output(self, capsys):
        out = run(capsys, "obs")
        assert "12 connections established" in out
        assert "cac_checks_total" in out

    def test_prom_output_is_exposition_format(self, capsys):
        out = run(capsys, "obs", "--prom")
        assert "# TYPE cac_checks_total counter" in out
        assert 'cac_checks_total{switch="ring0"} 9' in out
        assert "signaling_hop_rtt_bucket" in out

    def test_json_output_is_jsonl(self, capsys):
        import json
        out = run(capsys, "obs", "--json")
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert any(r["name"] == "network_setups_total" for r in records)

    def test_spans_output(self, capsys):
        out = run(capsys, "obs", "--spans")
        assert "admission.setup" in out
        assert "admission.hop" in out

    def test_json_and_prom_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs", "--json", "--prom"])

    def test_observability_is_restored_after_the_run(self, capsys):
        from repro import obs
        run(capsys, "obs")
        assert not obs.enabled()
