"""Automated security testing pipeline for a CAN-connected ECU.

The package walks the whole chain: describe the item under test,
fingerprint the real surface, rate threats by risk, plan test methods,
phrase scenarios in a small DSL, expand them into concrete cases, run
them against a bundled virtual ECU and fold the results into a report.
"""

__version__ = "0.1.0"
