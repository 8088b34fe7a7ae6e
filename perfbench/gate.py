"""Correctness gate applied to every pipeline run the benchmark makes.

A run fails when `run_pipeline` raises, when an expected artifact is
missing, when `report.json` does not validate against the package's schema,
or when the sha256 of the report without its timings differs from the hash
pinned for the workload and input seed in `pins.json`. A run on an input
with no pinned hash fails too: a hash the code under test made itself could
not catch a wrong report.
"""

import hashlib
import json
from pathlib import Path

import jsonschema

from env import SRC

PINS = Path(__file__).resolve().parent / "pins.json"
SCHEMA = SRC / "genecluster" / "report_schema.json"


def load_pins(path=PINS):
    return json.loads(path.read_text()) if path.is_file() else {}


def report_hash(report_dict):
    """sha256 of a report with its timings removed, in the report's own layout."""
    body = {k: v for k, v in report_dict.items() if k != "timings"}
    text = json.dumps(body, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


class Gate:
    def __init__(self, workload, pins):
        self.artifacts = workload.artifacts()
        self.pins = pins.get(workload.name, {})
        self.hashes = {}  # input seed -> report hash of its latest run
        self.validator = jsonschema.Draft7Validator(json.loads(SCHEMA.read_text()))
        self.reasons = {}

    def check(self, out_dir, input_seed):
        """Return the report hash of a finished run, or None after recording why it failed."""
        out_dir = Path(out_dir)
        missing = [a for a in self.artifacts if not (out_dir / a).is_file()]
        if missing:
            return self.fail(f"missing artifacts: {', '.join(missing)}")
        report = json.loads((out_dir / "report.json").read_text())
        error = jsonschema.exceptions.best_match(self.validator.iter_errors(report))
        if error is not None:
            return self.fail(f"report.json fails the schema: {error.message}")
        digest = self.hashes[input_seed] = report_hash(report)
        pinned = self.pins.get(str(input_seed))
        if pinned is None:
            return self.fail(f"no pinned report hash for input seed {input_seed}")
        if digest != pinned:
            return self.fail("report hash differs from the pinned hash")
        return digest

    def fail(self, reason):
        self.reasons[reason] = self.reasons.get(reason, 0) + 1
        return None
