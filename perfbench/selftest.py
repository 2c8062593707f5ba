"""Shows that the output checks reject corrupted outputs.

    python3 perfbench/selftest.py

Each test feeds one check a correct output, which it must accept, and
the same output with one deliberate fault, which it must reject.
"""

from __future__ import annotations

import random
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
import worker  # noqa: E402

from vecuforge.executor import StateTransport  # noqa: E402
from vecuforge.frames import Frame, parse_line  # noqa: E402
from vecuforge.fuzz_engine import FuzzConfig, minimize, run_campaign  # noqa: E402
from vecuforge.script_registry import ScriptRegistry  # noqa: E402
from vecuforge.tcg import SutDatabase, generate_cases, load_sutdb  # noqa: E402
from vecuforge.scenario_dsl import parse_scenario  # noqa: E402
from vecuforge.vocabulary import PATTERNS  # noqa: E402


class ChecksRejectCorruptOutputs(unittest.TestCase):
    def test_fingerprint_with_a_moved_service(self):
        expected = oracles.expected_surface(True)
        self.assertIn("10", expected["supported_services"])
        self.assertEqual(oracles.check_fingerprint(dict(expected), expected), [])
        # 0x10 reported as 0x11: the late-reply misattribution of arrival-order probing.
        moved = dict(expected)
        moved["supported_services"] = sorted(
            "11" if s == "10" else s for s in expected["supported_services"])
        moved["banners"] = {("11" if s == "10" else s): b for s, b in expected["banners"].items()}
        self.assertNotEqual(oracles.check_fingerprint(moved, expected), [])

    def test_covering_array_with_a_row_dropped(self):
        registry = ScriptRegistry(worker.SAMPLES / "scripts", PATTERNS)
        for text, domains, t in worker.ca_scenarios(random.Random(7)):
            sutdb = SutDatabase(sut_id="CA", dictionaries={"bus": "can0"},
                                domains={f"D_{n}": v for n, v in domains.items()})
            scenario = parse_scenario(text)
            rows = [c.input_data["bindings"] for c in generate_cases(scenario, sutdb, registry, t=t)]
            self.assertEqual(oracles.check_coverage(rows, domains, t), [])
            self.assertEqual(oracles.check_roundtrip(scenario), [])
            # The last row always covers a tuple no earlier row did.
            self.assertNotEqual(oracles.check_coverage(rows[:-1], domains, t), [])
            stray = dict(rows[0], **{sorted(domains)[0]: "0xzz"})
            self.assertNotEqual(oracles.check_coverage(rows + [stray], domains, t), [])

    def test_minimised_trigger_with_its_length_byte_repaired(self):
        sutdb = load_sutdb(worker.SAMPLES / "sutdb.json")
        corpus = tuple(parse_line(line) for line in sutdb.dictionaries["fuzz_corpus"])
        transport = StateTransport(oracles.fresh_ecu(True))
        result = run_campaign(FuzzConfig(seed=1, budget=2000, corpus=corpus), transport)
        self.assertTrue(result.findings)
        for finding in result.findings[:5]:
            m = minimize(finding, transport).minimized_input
            self.assertEqual(oracles.check_trigger(finding.trigger_input), [])
            self.assertEqual(oracles.check_minimized(m), [])
            repaired = Frame(m.id, bytes([len(m.data) - 1]) + m.data[1:])
            self.assertNotEqual(oracles.check_minimized(repaired), [])
        self.assertNotEqual(oracles.check_minimized(Frame(0x7DF, bytes([0x05, 0x00, 0x00]))), [])

    def test_control_run_with_one_fail_verdict(self):
        cases = list(oracles.DEFECT_CASES.values()) + ["func-pos-req-tc-sessbypass-if-can-000"]
        self.assertEqual([p for c in cases for p in oracles.check_verdict(c, "pass", False)], [])
        verdicts = dict.fromkeys(cases, "pass")
        verdicts[cases[1]] = "fail"
        problems = [p for c, v in verdicts.items() for p in oracles.check_verdict(c, v, False)]
        self.assertEqual(len(problems), 1)

    def test_seeded_run_with_a_defect_missed(self):
        for case in oracles.DEFECT_CASES.values():
            self.assertEqual(oracles.check_verdict(case, "fail", True), [])
            self.assertNotEqual(oracles.check_verdict(case, "pass", True), [])
        self.assertNotEqual(oracles.check_verdict("func-pos-req-tc-sessbypass-if-can-000", "fail", True), [])

    def test_cleanup_not_verified(self):
        ok = {"case_ref": "c", "restored": True, "verified": True, "detail": ""}
        self.assertEqual(oracles.check_cleanup(ok), [])
        self.assertNotEqual(oracles.check_cleanup(dict(ok, verified=False)), [])


if __name__ == "__main__":
    unittest.main()
