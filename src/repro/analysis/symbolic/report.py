"""Assemble the ``scheme-report.json`` artifact.

``repro lint --scheme-report scheme-report.json`` publishes one
machine-readable record of the whole verification story: the symbolic
pass (what was checked, what was convicted, per-class verdicts), the
seeded fuzzing session, and the bridge verdicts joining the two.  CI
uploads it so a reviewer can read off *why* a scheme was accepted.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.analysis.symbolic.fuzz import SchemeBridge


def build_scheme_report(bridge: SchemeBridge) -> Dict[str, Any]:
    """The scheme-report document for one verified project."""
    verification = bridge.verification
    fuzz = bridge.fuzz
    return {
        "version": 1,
        "ok": verification.ok and not fuzz.witnesses,
        "static": {
            "checks": verification.checks,
            "findings": [finding.to_json() for finding in verification.findings],
            "interval_classes": list(verification.interval_classes),
            "schemes": list(verification.schemes),
            "notes": list(verification.notes),
        },
        "fuzz": {
            "seed": fuzz.seed,
            "rounds": fuzz.rounds,
            "checks": fuzz.checks,
            "witnesses": [witness.to_json() for witness in fuzz.witnesses],
        },
        "bridge": {
            "confirmed": [
                {
                    "rule": site[0],
                    "path": site[1],
                    "class": site[2],
                    "method": site[3],
                    "witness": witness.to_json(),
                }
                for site, witness in bridge.confirmed
            ],
            "unwitnessed": [
                {"rule": site[0], "path": site[1], "class": site[2],
                 "method": site[3]}
                for site in bridge.unwitnessed
            ],
            "statically_invisible": [
                witness.to_json() for witness in bridge.invisible
            ],
        },
    }


def render_scheme_report(bridge: SchemeBridge) -> str:
    """The JSON text written to ``--scheme-report``."""
    return json.dumps(build_scheme_report(bridge), indent=2)
