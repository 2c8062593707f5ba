"""The standard vocabulary: one table per concept.

Scenarios and case files are validated against these tables and the
executor evaluates them, so each name is defined once, here. The script
registry maps the patterns to concrete scripts. ``MATCHERS`` maps a matcher to the
reply-payload prefix it accepts for a given service; ``None`` means the
matcher is met only when no frame came back. ``CONDITIONS`` maps an
oracle condition to its predicate over the facts that
``executor._CaseRun.facts`` records for a case. ``SEEDKEY_ALGORITHMS``
maps a SUT database's ``seedkey_algorithm`` to the tester's derivation of
a security-access key from a seed and a key constant. The SUT derives
its keys with its own code: a tester that ran the SUT's code could never
see that code wrong.
"""

PATTERNS = frozenset(
    {
        "SEND_CAN_MSG",
        "TESTER_PRESENT",
        "SET_SESSION",
        "SECURITY_ACCESS",
        "SECURITY_ACCESS_WEAK",
        "WRITE_DATA",
        "FUZZ_CAMPAIGN",
        "VULN_SCAN",
    }
)

MATCHERS = {
    "RESPONSE": lambda service: bytes([(service + 0x40) & 0xFF]),
    "NEG_RESPONSE": lambda service: bytes([0x7F, service]),
    "NO_RESPONSE": None,
}

CONDITIONS = {
    "all_expectations_met": lambda f: all(m is True for m in f["expectations"]),
    "any_expectation_missed": lambda f: any(m is not True for m in f["expectations"]),
    "sut.alive": lambda f: f["final_probe_alive"] and f["fuzz_findings"] == 0,
    "sut.crashed": lambda f: f["fuzz_findings"] > 0 or not f["final_probe_alive"],
    "unlock.achieved": lambda f: f["unlock_achieved"],
    "write.accepted": lambda f: f["write_accepted"],
    "scan.findings": lambda f: f["scan_ran"] and f["scan_findings"] > 0,
    "scan.clean": lambda f: f["scan_ran"] and f["scan_findings"] == 0,
}

PRECONDITIONS = frozenset({"sut_alive", "env_ready"})

SEEDKEY_ALGORITHMS = {
    "add_xor": lambda seed, const: (((seed[0] + 0x3B) & 0xFF) ^ const,
                                    ((seed[1] + 0xC7) & 0xFF) ^ const),
    "weak_xor": lambda seed, const: (seed[0] ^ const, seed[1] ^ const),
}
