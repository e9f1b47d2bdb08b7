"""Unit tests for every repro.analysis rule, plus suppressions/baseline.

Each rule gets at least one fixture snippet that must trigger it and one
that must not, so rule regressions are caught at the rule level rather
than by the whole-tree self-check.
"""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis import Analyzer, Baseline, all_rules, get_rule
from repro.analysis.importgraph import ImportGraph, module_name_for
from repro.analysis.registry import select_rules
from repro.analysis.suppressions import suppressed_rules


def run_source(tmp_path, source, select=None, name="snippet.py"):
    """Analyze one loose file containing *source* with the given rules."""
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    analyzer = Analyzer(rules=select_rules(select) if select else None, root=tmp_path)
    return analyzer.run([path])


def run_tree(tmp_path, files, select=None):
    """Analyze a fake package tree: {relative path: source}."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        parent = path.parent
        while parent != tmp_path:
            init = parent / "__init__.py"
            if not init.exists():
                init.write_text("")
            parent = parent.parent
    analyzer = Analyzer(rules=select_rules(select) if select else None, root=tmp_path)
    return analyzer.run([tmp_path])


def rule_ids(result):
    return [f.rule_id for f in result.findings]


class TestSEC001ConstantTime:
    def test_digest_equality_triggers(self, tmp_path):
        result = run_source(
            tmp_path,
            """
            def verify(mac, expected_mac):
                if mac == expected_mac:
                    return True
            """,
            select=["SEC001"],
        )
        assert rule_ids(result) == ["SEC001"]

    def test_attribute_and_notequal_trigger(self, tmp_path):
        result = run_source(
            tmp_path,
            """
            def check(entry, prev):
                return entry.prev_digest != prev
            """,
            select=["SEC001"],
        )
        assert rule_ids(result) == ["SEC001"]

    def test_constant_time_eq_is_clean(self, tmp_path):
        result = run_source(
            tmp_path,
            """
            from repro.crypto import constant_time_eq

            def verify(mac, expected_mac):
                return constant_time_eq(mac, expected_mac)
            """,
            select=["SEC001"],
        )
        assert result.clean

    def test_innocent_names_are_clean(self, tmp_path):
        result = run_source(
            tmp_path,
            """
            def route(tag, key, count):
                return tag == 3 or key == "users" or count != 0
            """,
            select=["SEC001"],
        )
        assert result.clean


class TestSEC002Randomness:
    def test_import_random_triggers(self, tmp_path):
        result = run_source(tmp_path, "import random\n", select=["SEC002"])
        assert rule_ids(result) == ["SEC002"]

    def test_from_random_triggers(self, tmp_path):
        result = run_source(
            tmp_path, "from random import randint\n", select=["SEC002"]
        )
        assert rule_ids(result) == ["SEC002"]

    def test_os_urandom_call_triggers(self, tmp_path):
        result = run_source(
            tmp_path,
            """
            import os

            def nonce():
                return os.urandom(16)
            """,
            select=["SEC002"],
        )
        assert rule_ids(result) == ["SEC002"]

    def test_wallclock_seed_triggers(self, tmp_path):
        result = run_source(
            tmp_path,
            """
            import time
            from repro.crypto import Rng

            def make_rng():
                return Rng(time.time())
            """,
            select=["SEC002"],
        )
        assert rule_ids(result) == ["SEC002"]

    def test_drbg_usage_is_clean(self, tmp_path):
        result = run_source(
            tmp_path,
            """
            from repro.crypto import Rng

            def make_rng(seed):
                return Rng(seed).bytes(16)
            """,
            select=["SEC002"],
        )
        assert result.clean


class TestSEC003DangerousConstructs:
    def test_import_pickle_triggers(self, tmp_path):
        result = run_source(tmp_path, "import pickle\n", select=["SEC003"])
        assert rule_ids(result) == ["SEC003"]

    def test_eval_and_exec_trigger(self, tmp_path):
        result = run_source(
            tmp_path,
            """
            def run(expr):
                exec(expr)
                return eval(expr)
            """,
            select=["SEC003"],
        )
        assert rule_ids(result) == ["SEC003", "SEC003"]

    def test_method_named_eval_is_clean(self, tmp_path):
        result = run_source(
            tmp_path,
            """
            def interpret(node, ctx):
                return node.eval(ctx)
            """,
            select=["SEC003"],
        )
        assert result.clean


class TestSEC004BroadExcept:
    def test_except_exception_pass_triggers(self, tmp_path):
        result = run_source(
            tmp_path,
            """
            def read(pager, page):
                try:
                    return pager.read(page)
                except Exception:
                    pass
            """,
            select=["SEC004"],
        )
        assert rule_ids(result) == ["SEC004"]

    def test_bare_except_triggers(self, tmp_path):
        result = run_source(
            tmp_path,
            """
            def read(pager, page):
                try:
                    return pager.read(page)
                except:
                    return None
            """,
            select=["SEC004"],
        )
        assert rule_ids(result) == ["SEC004"]

    def test_reraise_is_clean(self, tmp_path):
        result = run_source(
            tmp_path,
            """
            def read(pager, page):
                try:
                    return pager.read(page)
                except Exception:
                    pager.close()
                    raise
            """,
            select=["SEC004"],
        )
        assert result.clean

    def test_narrow_except_is_clean(self, tmp_path):
        result = run_source(
            tmp_path,
            """
            def read(mapping, name):
                try:
                    return mapping[name]
                except KeyError:
                    return None
            """,
            select=["SEC004"],
        )
        assert result.clean


class TestSEC005HardcodedSecret:
    def test_bytes_key_assignment_triggers(self, tmp_path):
        result = run_source(
            tmp_path, 'MASTER_KEY = b"0123456789abcdef"\n', select=["SEC005"]
        )
        assert rule_ids(result) == ["SEC005"]

    def test_tokenish_string_triggers(self, tmp_path):
        result = run_source(
            tmp_path,
            'api_token = "ZGVhZGJlZWY0Y2FmZTEyMw=="\n',
            select=["SEC005"],
        )
        assert rule_ids(result) == ["SEC005"]

    def test_keyword_argument_triggers(self, tmp_path):
        result = run_source(
            tmp_path,
            """
            def setup(cipher):
                return cipher(key=b"hunter2hunter2hunter2")
            """,
            select=["SEC005"],
        )
        assert rule_ids(result) == ["SEC005"]

    def test_derived_key_and_plain_names_are_clean(self, tmp_path):
        result = run_source(
            tmp_path,
            """
            CATALOG_META_KEY = "sql_catalog"

            def setup(hkdf, master):
                page_key = hkdf(master, b"page")
                return page_key
            """,
            select=["SEC005"],
        )
        assert result.clean


class TestARCH001Layering:
    def test_crypto_importing_monitor_triggers(self, tmp_path):
        result = run_tree(
            tmp_path,
            {"repro/crypto/bad.py": "from ..monitor import TrustedMonitor\n"},
            select=["ARCH001"],
        )
        assert rule_ids(result) == ["ARCH001"]
        assert "may not import 'repro.monitor'" in result.findings[0].message

    def test_sql_importing_tee_triggers(self, tmp_path):
        result = run_tree(
            tmp_path,
            {"repro/sql/bad.py": "import repro.tee.sgx\n"},
            select=["ARCH001"],
        )
        assert rule_ids(result) == ["ARCH001"]

    def test_allowed_edges_are_clean(self, tmp_path):
        result = run_tree(
            tmp_path,
            {
                "repro/storage/ok.py": "from ..crypto import hmac_sha256\n",
                "repro/core/ok.py": "from ..monitor import TrustedMonitor\n",
            },
            select=["ARCH001"],
        )
        assert result.clean

    def test_loose_script_is_exempt(self, tmp_path):
        result = run_source(
            tmp_path, "from repro.monitor import TrustedMonitor\n", select=["ARCH001"]
        )
        assert result.clean

    @pytest.mark.parametrize("package", ["stream", "oblivious"])
    def test_shard_importing_ship_machinery_triggers(self, tmp_path, package):
        # The ship producers live only in core's split path; a shard
        # module importing them would fork a second copy.
        result = run_tree(
            tmp_path,
            {"repro/shard/x.py": f"from ..{package} import pack_frame\n"},
            select=["ARCH001"],
        )
        assert rule_ids(result) == ["ARCH001"]
        assert f"may not import 'repro.{package}'" in result.findings[0].message


class TestARCH002EnclaveBoundary:
    def test_untrusted_import_of_securepager_triggers(self, tmp_path):
        result = run_tree(
            tmp_path,
            {"repro/gdpr/bad.py": "from ..storage import SecurePager\n"},
            select=["ARCH002"],
        )
        assert rule_ids(result) == ["ARCH002"]

    def test_untrusted_name_use_triggers(self, tmp_path):
        result = run_tree(
            tmp_path,
            {
                "repro/sql/bad.py": """
                def attach(device):
                    return device.enclave.Enclave
                """
            },
            select=["ARCH002"],
        )
        assert rule_ids(result) == ["ARCH002"]

    def test_trusted_layer_is_allowed(self, tmp_path):
        result = run_tree(
            tmp_path,
            {
                "repro/core/ok.py": "from ..storage import SecurePager\n",
                "repro/gdpr/ok.py": "from ..storage import BlockDevice, Pager\n",
            },
            select=["ARCH002"],
        )
        assert result.clean


class TestARCH003AuditedMutation:
    def test_unaudited_mutation_triggers(self, tmp_path):
        result = run_tree(
            tmp_path,
            {
                "repro/monitor/bad.py": """
                class ShadowMonitor:
                    def register_node(self, node):
                        self._nodes[node.id] = node
                """
            },
            select=["ARCH003"],
        )
        assert rule_ids(result) == ["ARCH003"]

    def test_audited_mutation_is_clean(self, tmp_path):
        result = run_tree(
            tmp_path,
            {
                "repro/monitor/ok.py": """
                class GoodMonitor:
                    def register_node(self, node):
                        self._nodes[node.id] = node
                        self._audit("register_node", node.id)

                    def host_node(self, node_id):
                        return self._nodes[node_id]
                """
            },
            select=["ARCH003"],
        )
        assert result.clean

    def test_non_monitor_class_is_exempt(self, tmp_path):
        result = run_tree(
            tmp_path,
            {
                "repro/monitor/keys.py": """
                class KeyManager:
                    def revoke(self, session_id):
                        del self._sessions[session_id]
                """
            },
            select=["ARCH003"],
        )
        assert result.clean


class TestARCH004TelemetryIsolation:
    def test_telemetry_importing_crypto_triggers(self, tmp_path):
        result = run_tree(
            tmp_path,
            {"repro/telemetry/bad.py": "from ..crypto import hmac_sha256\n"},
            select=["ARCH004"],
        )
        assert rule_ids(result) == ["ARCH004"]
        assert "may not import 'repro.crypto'" in result.findings[0].message

    def test_telemetry_importing_tee_triggers(self, tmp_path):
        result = run_tree(
            tmp_path,
            {"repro/telemetry/bad.py": "import repro.tee.sgx\n"},
            select=["ARCH004"],
        )
        assert rule_ids(result) == ["ARCH004"]

    def test_telemetry_touching_key_material_triggers(self, tmp_path):
        result = run_tree(
            tmp_path,
            {
                "repro/telemetry/bad.py": """
                def leak(span, pager):
                    span.attributes["key"] = pager._enc_key
                """
            },
            select=["ARCH004"],
        )
        assert rule_ids(result) == ["ARCH004"]
        assert "_enc_key" in result.findings[0].message

    def test_digest_and_count_attributes_are_clean(self, tmp_path):
        result = run_tree(
            tmp_path,
            {
                "repro/telemetry/ok.py": """
                from ..sim import SimClock

                def annotate(span, entry):
                    span.audit.append(
                        {"sequence": entry.sequence, "digest": entry.digest().hex()}
                    )
                """
            },
            select=["ARCH004"],
        )
        assert result.clean

    def test_other_packages_are_exempt(self, tmp_path):
        result = run_tree(
            tmp_path,
            {
                "repro/storage/ok.py": """
                from ..crypto import hkdf

                def keys(master_key):
                    return hkdf(master_key, b"page-encryption", 32)
                """
            },
            select=["ARCH004"],
        )
        assert result.clean


class TestARCH005StreamSurface:
    def test_stream_importing_planner_triggers(self, tmp_path):
        result = run_tree(
            tmp_path,
            {"repro/stream/bad.py": "from ..sql.planner import Planner\n"},
            select=["ARCH005"],
        )
        assert rule_ids(result) == ["ARCH005"]
        assert "repro.sql.records" in result.findings[0].message

    def test_stream_importing_sql_package_root_triggers(self, tmp_path):
        result = run_tree(
            tmp_path,
            {"repro/stream/bad.py": "from ..sql import Database\n"},
            select=["ARCH005"],
        )
        assert rule_ids(result) == ["ARCH005"]

    def test_records_import_is_clean(self, tmp_path):
        result = run_tree(
            tmp_path,
            {
                "repro/stream/ok.py": """
                from ..sql.records import encode_batch

                def size(rows):
                    return len(encode_batch(rows))
                """
            },
            select=["ARCH005"],
        )
        assert result.clean

    def test_other_packages_are_exempt(self, tmp_path):
        result = run_tree(
            tmp_path,
            {"repro/core/ok.py": "from ..sql.planner import Planner\n"},
            select=["ARCH005"],
        )
        assert result.clean


class TestARCH006StatsSurface:
    def test_stats_importing_stores_triggers(self, tmp_path):
        result = run_tree(
            tmp_path,
            {"repro/stats/bad.py": "from ..sql.stores import PagedStore\n"},
            select=["ARCH006"],
        )
        assert rule_ids(result) == ["ARCH006"]
        assert "repro.sql.values" in result.findings[0].message

    def test_stats_importing_sql_package_root_triggers(self, tmp_path):
        result = run_tree(
            tmp_path,
            {"repro/stats/bad.py": "from ..sql import Database\n"},
            select=["ARCH006"],
        )
        assert rule_ids(result) == ["ARCH006"]

    def test_values_import_is_clean(self, tmp_path):
        result = run_tree(
            tmp_path,
            {
                "repro/stats/ok.py": """
                from ..sql.values import sql_le

                def ordered(lo, hi):
                    return sql_le(lo, hi)
                """
            },
            select=["ARCH006"],
        )
        assert result.clean

    def test_other_packages_are_exempt(self, tmp_path):
        result = run_tree(
            tmp_path,
            {"repro/core/ok.py": "from ..sql.stores import PagedStore\n"},
            select=["ARCH006"],
        )
        assert result.clean


class TestARCH009VectorConfinement:
    def test_vector_importing_stores_triggers(self, tmp_path):
        result = run_tree(
            tmp_path,
            {"repro/sql/vector/bad.py": "from ..stores import PagedStore\n"},
            select=["ARCH009"],
        )
        assert rule_ids(result) == ["ARCH009"]
        assert "repro.sql.records" in result.findings[0].message

    def test_vector_importing_operators_triggers(self, tmp_path):
        result = run_tree(
            tmp_path,
            {"repro/sql/vector/__init__.py": "from ..operators import Operator\n"},
            select=["ARCH009"],
        )
        assert rule_ids(result) == ["ARCH009"]

    def test_allowed_surface_is_clean(self, tmp_path):
        result = run_tree(
            tmp_path,
            {
                "repro/sql/vector/__init__.py": """
                from ...errors import ExecutionError
                from ...sim import Meter
                from ..records import encode_batch
                from ..values import is_true
                """
            },
            select=["ARCH009"],
        )
        assert result.clean

    def test_other_sql_modules_are_exempt(self, tmp_path):
        result = run_tree(
            tmp_path,
            {"repro/sql/vexec.py": "from .operators import Operator\n"},
            select=["ARCH009"],
        )
        assert result.clean


class TestARCH010ShardConfinement:
    def test_shard_importing_planner_triggers(self, tmp_path):
        result = run_tree(
            tmp_path,
            {"repro/shard/bad.py": "from ..sql.planner import Planner\n"},
            select=["ARCH010"],
        )
        assert rule_ids(result) == ["ARCH010"]
        assert "repro.sql.records" in result.findings[0].message

    def test_shard_importing_sql_package_root_triggers(self, tmp_path):
        result = run_tree(
            tmp_path,
            {"repro/shard/bad.py": "from ..sql import Database\n"},
            select=["ARCH010"],
        )
        assert rule_ids(result) == ["ARCH010"]

    def test_wire_format_imports_are_clean(self, tmp_path):
        result = run_tree(
            tmp_path,
            {
                "repro/shard/ok.py": """
                from ..sql.records import encode_row
                from ..sql.values import sql_le

                def size(row):
                    return len(encode_row(row))
                """
            },
            select=["ARCH010"],
        )
        assert result.clean

    def test_key_material_reference_triggers(self, tmp_path):
        result = run_tree(
            tmp_path,
            {
                "repro/shard/bad.py": """
                def steal(engine):
                    return engine.pager.master_key
                """
            },
            select=["ARCH010"],
        )
        assert rule_ids(result) == ["ARCH010"]
        assert "key material" in result.findings[0].message

    def test_other_packages_are_exempt(self, tmp_path):
        result = run_tree(
            tmp_path,
            {"repro/core/ok.py": "from ..sql.planner import Planner\n"},
            select=["ARCH010"],
        )
        assert result.clean


class TestSuppressions:
    def test_disable_comment_suppresses(self, tmp_path):
        result = run_source(
            tmp_path,
            """
            import pickle  # lint: disable=SEC003
            """,
            select=["SEC003"],
        )
        assert result.clean
        assert [f.rule_id for f in result.suppressed] == ["SEC003"]

    def test_disable_all_suppresses_everything(self, tmp_path):
        result = run_source(
            tmp_path,
            """
            import pickle  # lint: disable=all
            """,
            select=["SEC003"],
        )
        assert result.clean and len(result.suppressed) == 1

    def test_unrelated_disable_does_not_suppress(self, tmp_path):
        result = run_source(
            tmp_path,
            """
            import pickle  # lint: disable=SEC001
            """,
            select=["SEC003"],
        )
        assert rule_ids(result) == ["SEC003"]

    def test_comment_parser(self):
        assert suppressed_rules("x = 1  # lint: disable=SEC001, ARCH002") == {
            "SEC001",
            "ARCH002",
        }
        assert suppressed_rules("x = 1  # just a comment") == frozenset()


class TestBaseline:
    def test_baseline_grandfathers_known_findings(self, tmp_path):
        source = "import pickle\n"
        first = run_source(tmp_path, source, select=["SEC003"])
        assert rule_ids(first) == ["SEC003"]

        baseline = Baseline.from_findings(first.findings)
        baseline_path = tmp_path / "baseline.json"
        baseline.dump(baseline_path)

        analyzer = Analyzer(rules=select_rules(["SEC003"]), root=tmp_path)
        second = analyzer.run(
            [tmp_path / "snippet.py"], baseline=Baseline.load(baseline_path)
        )
        assert second.clean
        assert [f.rule_id for f in second.grandfathered] == ["SEC003"]

    def test_new_findings_still_reported(self, tmp_path):
        first = run_source(tmp_path, "import pickle\n", select=["SEC003"])
        baseline = Baseline.from_findings(first.findings)

        (tmp_path / "snippet.py").write_text("import pickle\neval('1')\n")
        analyzer = Analyzer(rules=select_rules(["SEC003"]), root=tmp_path)
        second = analyzer.run([tmp_path / "snippet.py"], baseline=baseline)
        assert len(second.grandfathered) == 1
        assert len(second.findings) == 1
        assert "eval" in second.findings[0].message

    def test_baseline_survives_line_drift(self, tmp_path):
        first = run_source(tmp_path, "import pickle\n", select=["SEC003"])
        baseline = Baseline.from_findings(first.findings)

        (tmp_path / "snippet.py").write_text("\n\n\nimport pickle\n")
        analyzer = Analyzer(rules=select_rules(["SEC003"]), root=tmp_path)
        second = analyzer.run([tmp_path / "snippet.py"], baseline=baseline)
        assert second.clean and len(second.grandfathered) == 1

    def test_rejects_unknown_version(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(ValueError):
            Baseline.load(bad)


class TestFramework:
    def test_all_builtin_rules_registered(self):
        ids = [rule.rule_id for rule in all_rules()]
        assert ids == [
            "ARCH001",
            "ARCH002",
            "ARCH003",
            "ARCH004",
            "ARCH005",
            "ARCH006",
            "ARCH007",
            "ARCH008",
            "ARCH009",
            "ARCH010",
            "FLOW001",
            "SEC001",
            "SEC002",
            "SEC003",
            "SEC004",
            "SEC005",
            "TAINT001",
            "TAINT002",
            "TAINT003",
        ]

    def test_unknown_rule_rejected(self):
        with pytest.raises(KeyError):
            get_rule("SEC999")

    def test_syntax_error_becomes_parse_finding(self, tmp_path):
        result = run_source(tmp_path, "def broken(:\n")
        assert rule_ids(result) == ["PARSE"]

    def test_module_name_resolution(self, tmp_path):
        (tmp_path / "repro" / "storage").mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (tmp_path / "repro" / "storage" / "__init__.py").write_text("")
        target = tmp_path / "repro" / "storage" / "merkle.py"
        target.write_text("")
        assert module_name_for(target) == "repro.storage.merkle"
        assert (
            module_name_for(tmp_path / "repro" / "storage" / "__init__.py")
            == "repro.storage"
        )

    def test_relative_import_resolution(self):
        import ast as ast_mod

        graph = ImportGraph()
        tree = ast_mod.parse("from ..crypto import hmac_sha256\nfrom . import pager\n")
        graph.add_module("repro.storage.merkle", tree)
        targets = {record.module for record in graph.imports_of("repro.storage.merkle")}
        assert targets == {"repro.crypto", "repro.storage"}
        assert graph.imported_subpackages("repro.storage.merkle") == {
            "crypto",
            "storage",
        }


class TestCLI:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        from repro.analysis.cli import main

        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main([str(tmp_path / "ok.py"), "--fail-on-findings"]) == 0

    def test_findings_gate_only_with_flag(self, tmp_path, capsys):
        from repro.analysis.cli import main

        bad = tmp_path / "bad.py"
        bad.write_text("import pickle\n")
        assert main([str(bad)]) == 0
        assert main([str(bad), "--fail-on-findings"]) == 1
        out = capsys.readouterr().out
        assert "SEC003" in out

    def test_json_format(self, tmp_path, capsys):
        from repro.analysis.cli import main

        bad = tmp_path / "bad.py"
        bad.write_text("import pickle\n")
        assert main([str(bad), "--format=json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "SEC003"

    def test_write_then_use_baseline(self, tmp_path, capsys):
        from repro.analysis.cli import main

        bad = tmp_path / "bad.py"
        bad.write_text("import pickle\n")
        baseline = tmp_path / "baseline.json"
        assert main([str(bad), "--write-baseline", str(baseline)]) == 0
        assert (
            main([str(bad), "--baseline", str(baseline), "--fail-on-findings"]) == 0
        )

    def test_select_unknown_rule_is_usage_error(self, tmp_path, capsys):
        from repro.analysis.cli import main

        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main([str(tmp_path / "ok.py"), "--select", "NOPE01"]) == 2

    def test_list_rules(self, capsys):
        from repro.analysis.cli import main

        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("SEC001", "SEC005", "ARCH003"):
            assert rule_id in out
