"""The verdict checker fails an operation when one label is flipped."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from e2elib.verdicts import Checker  # noqa: E402
from e2elib.workloads import Tally  # noqa: E402

RULES = {
    "battery": ["use-after-free", "double-lock"],
    "kinds": {"RS-UAF-001": "use-after-free", "RS-DL-001": "double-lock"},
}


def manifest(flip=None):
    cases = [
        {"file": "uaf_bug_0.mir", "detector": "use-after-free",
         "positive": True},
        {"file": "uaf_ok_0.mir", "detector": "use-after-free",
         "positive": False},
        {"file": "clean_0.mir", "detector": "*", "positive": False},
    ]
    for c in cases:
        if c["file"] == flip:
            c["positive"] = not c["positive"]
    return {"version": 1, "cases": cases}


def finding(rule, kind):
    return {"rule": rule, "kind": kind}


# What a correct `check --json` run reports for the manifest above.
REPORT = {"files": [
    {"path": "corpus/uaf_bug_0.mir",
     "findings": [finding("RS-UAF-001", "use-after-free")]},
    {"path": "corpus/uaf_ok_0.mir", "findings": []},
    {"path": "corpus/clean_0.mir", "findings": []},
]}


def error_rate(checker, reports):
    """Scores operations the way check_loop does: an operation fails when
    any file's verdict disagrees with its label."""
    t = Tally()
    for report in reports:
        wrong = bool(checker.check_report(report))
        t.record(1.0, 0 if wrong else 3, wrong, wrong)
    return t.failed / t.attempted


class CheckerTest(unittest.TestCase):
    def test_correct_report_agrees(self):
        self.assertEqual(Checker(manifest(), RULES).check_report(REPORT), [])

    def test_flipped_label_fails_the_operation(self):
        for name in ("uaf_bug_0.mir", "uaf_ok_0.mir", "clean_0.mir"):
            checker = Checker(manifest(flip=name), RULES)
            self.assertEqual(checker.check_report(REPORT), [name])
            self.assertEqual(error_rate(checker, [REPORT] * 4), 1.0)
        self.assertEqual(error_rate(Checker(manifest(), RULES), [REPORT] * 4),
                         0.0)

    def test_planted_wrong_verdict_raises_error_rate(self):
        wrong = {"files": [dict(f) for f in REPORT["files"]]}
        wrong["files"][2] = {"path": "corpus/clean_0.mir",
                             "findings": [finding("RS-DL-001",
                                                  "double-lock")]}
        checker = Checker(manifest(), RULES)
        self.assertEqual(error_rate(checker, [REPORT, REPORT, wrong, REPORT]),
                         0.25)

    def test_missing_file_is_a_wrong_verdict(self):
        short = {"files": REPORT["files"][:2]}
        self.assertEqual(Checker(manifest(), RULES).check_report(short),
                         ["clean_0.mir"])

    def test_publish_matches_by_rule_id(self):
        checker = Checker(manifest(), RULES)
        self.assertTrue(checker.check_publish(
            "uaf_bug_0.mir", {"diagnostics": [{"code": "RS-UAF-001"}]}))
        self.assertFalse(checker.check_publish(
            "uaf_bug_0.mir", {"diagnostics": []}))
        self.assertFalse(checker.check_publish(
            "clean_0.mir", {"diagnostics": [{"code": "RS-DL-001"}]}))


if __name__ == "__main__":
    unittest.main()
