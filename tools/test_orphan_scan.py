#!/usr/bin/env python3
"""Unit tests for orphan_scan.py's allow-list parsing and diff logic.

Canned symbol lists stand in for the build, so these run in milliseconds
under `python3 -m unittest` (the check_bench_regression_unittest ctest
entry discovers every tools/test_*.py).
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import orphan_scan as scan  # noqa: E402

LIBRARY = {"a::used()", "a::kept_for_tests()", "a::forgotten()"}
LINKED = {"a::used()", "main", "std::vector<int>::push_back(int&&)"}
ALLOWED = {"a::kept_for_tests()": "reference: a_test",
           "a::forgotten()": "diagnostic: a_sweep_test"}


class CheckTest(unittest.TestCase):
    def test_clean_tree_passes(self):
        self.assertEqual(scan.check(LIBRARY, LINKED, ALLOWED), [])

    def test_unlisted_orphan_fails(self):
        allowed = {"a::kept_for_tests()": "reference: a_test"}
        failures = scan.check(LIBRARY, LINKED, allowed)
        self.assertEqual(len(failures), 1)
        self.assertIn("orphan: a::forgotten()", failures[0])

    def test_entry_linked_again_is_stale(self):
        failures = scan.check(LIBRARY, LINKED | {"a::forgotten()"}, ALLOWED)
        self.assertEqual(len(failures), 1)
        self.assertIn("a::forgotten() is linked again", failures[0])

    def test_entry_that_no_longer_exists_is_stale(self):
        failures = scan.check(LIBRARY - {"a::forgotten()"}, LINKED, ALLOWED)
        self.assertEqual(len(failures), 1)
        self.assertIn("a::forgotten() no longer exists", failures[0])


class ParseAllowlistTest(unittest.TestCase):
    def test_entries_comments_and_blank_lines(self):
        text = ("# header comment\n\n"
                "a::f(int) # reference: a_test compares against it\n"
                "a::g() const  #  diagnostic: printed on failure\n")
        self.assertEqual(scan.parse_allowlist(text), {
            "a::f(int)": "reference: a_test compares against it",
            "a::g() const": "diagnostic: printed on failure"})

    def test_abi_tags_are_dropped(self):
        self.assertEqual(
            scan.parse_allowlist("a::f[abi:cxx11](int) # reference: x\n"),
            {"a::f(int)": "reference: x"})
        self.assertEqual(scan.untagged("a::g[abi:cxx11][abi:v2]() const"),
                         "a::g() const")

    def test_entry_without_a_reason_is_rejected(self):
        for line in ("a::f()", "a::f() #", "a::f() # reference:",
                     "a::f() # public API"):
            with self.assertRaises(ValueError, msg=line):
                scan.parse_allowlist(line)

    def test_duplicate_entry_is_rejected(self):
        with self.assertRaises(ValueError):
            scan.parse_allowlist("a::f() # reference: x\n"
                                 "a::f() # reference: y\n")


if __name__ == "__main__":
    unittest.main()
