"""Tests for tools/trace_validate.py.

Accepts a well-formed trace and rejects each class of schema violation
the bench `--timeline` contract pins. Everything runs in-process against
synthetic traces — no bench binaries needed.
"""

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import trace_validate  # noqa: E402


def run_tool(module, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = module.main(argv)
    return code, out.getvalue()


class TraceValidate(unittest.TestCase):
    @staticmethod
    def trace(events):
        return {"traceEvents": events}

    @staticmethod
    def event(name, ph, ts=None, pid=1, tid=1):
        out = {"name": name, "ph": ph, "pid": pid, "tid": tid, "cat": "span"}
        if ts is not None:
            out["ts"] = ts
        return out

    def test_valid_nested_trace_passes(self):
        doc = self.trace([
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": "mfbo"}},
            self.event("outer", "B", 0.0),
            self.event("inner", "B", 5.0),
            self.event("inner", "E", 9.0),
            self.event("outer", "E", 12.0),
        ])
        self.assertEqual(trace_validate.validate(doc, []), [])
        self.assertEqual(trace_validate.validate(doc, ["outer"]), [])

    def test_each_violation_class_is_rejected(self):
        cases = {
            "not an object": ["not", "a", "dict"],
            "empty traceEvents": self.trace([]),
            "unbalanced B": self.trace([self.event("a", "B", 0.0)]),
            "E without B": self.trace([self.event("a", "E", 0.0)]),
            "name mismatch": self.trace([
                self.event("a", "B", 0.0),
                self.event("b", "E", 1.0),
            ]),
            "backwards ts": self.trace([
                self.event("a", "B", 5.0),
                self.event("a", "E", 1.0),
            ]),
            "bad phase": self.trace([self.event("a", "Q", 0.0)]),
            "missing ts": self.trace([
                self.event("a", "B"),
                self.event("a", "E", 1.0),
            ]),
        }
        for label, doc in cases.items():
            with self.subTest(case=label):
                self.assertNotEqual(trace_validate.validate(doc, []), [])

    def test_require_span_flags_absent_phase(self):
        doc = self.trace([
            self.event("outer", "B", 0.0),
            self.event("outer", "E", 1.0),
        ])
        problems = trace_validate.validate(doc, ["mfbo"])
        self.assertTrue(any("mfbo" in p for p in problems))

    def test_cli_accept_and_reject(self):
        with tempfile.TemporaryDirectory() as tmp:
            good = Path(tmp) / "good.json"
            good.write_text(json.dumps(self.trace([
                self.event("outer", "B", 0.0),
                self.event("outer", "E", 1.0),
            ])))
            bad = Path(tmp) / "bad.json"
            bad.write_text(json.dumps(self.trace([
                self.event("outer", "B", 0.0),
            ])))
            code, _ = run_tool(trace_validate, [str(good), "--quiet"])
            self.assertEqual(code, 0)
            with contextlib.redirect_stderr(io.StringIO()):
                code, _ = run_tool(trace_validate, [str(bad)])
            self.assertEqual(code, 1)
            with contextlib.redirect_stderr(io.StringIO()):
                code = trace_validate.main([str(Path(tmp) / "missing.json")])
            self.assertEqual(code, 2)


if __name__ == "__main__":
    unittest.main(verbosity=2)
