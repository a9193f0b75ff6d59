"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s e2ebench/tests
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import benchlib  # noqa: E402
import run  # noqa: E402

# A `gprof -b -p` flat profile in the shape the -pg driver produces,
# including rows without call counts (functions gprof sampled but whose
# calls mcount did not see).
CANNED_PROFILE = """\
Flat profile:

Each sample counts as 0.01 seconds.
  %   cumulative   self              self     total
 time   seconds   seconds    calls  ms/call  ms/call  name
 36.00      1.80     1.80   812345     0.00     0.00  pfs::DiskArm::pick_next(unsigned long)
 10.00      2.30     0.50  5000000     0.00     0.00  std::_Hashtable<iosrv::BlockKey, std::pair<iosrv::BlockKey const, std::_List_iterator<iosrv::BlockKey> >, std::allocator<std::pair<iosrv::BlockKey const, std::_List_iterator<iosrv::BlockKey> > >, std::__detail::_Select1st, std::equal_to<iosrv::BlockKey>, iosrv::BlockKeyHash, std::__detail::_Mod_range_hashing, std::__detail::_Default_ranged_hash, std::__detail::_Prime_rehash_policy, std::__detail::_Hashtable_traits<true, false, true> >::find(iosrv::BlockKey const&)
  8.00      2.70     0.40  4000000     0.00     0.00  void std::deque<mprt::Message, std::allocator<mprt::Message> >::_M_push_back_aux<mprt::Message>(mprt::Message&&)
  6.00      3.00     0.30                             simkit::Engine::step()
  5.00      3.25     0.25   100000     0.00     0.00  pario::TwoPhase::read(pario::TwoPhase::read(mprt::Comm&, pfs::StripedFs&, unsigned int, std::vector<pario::Extent, std::allocator<pario::Extent> >)::_ZN5pario8TwoPhase4readERN4mprt4CommERN3pfs9StripedFsEjSt6vectorINS_6ExtentESaIS8_EE.Frame*) [clone .actor]
  4.00      3.45     0.20   200000     0.00     0.00  sched::(anonymous namespace)::run_job(sched::Job const&)
  3.00      3.60     0.15   300000     0.00     0.00  simkit::Task<void> mprt::Comm::send(int, int, unsigned long)
  2.00      3.70     0.10       10     0.00     0.00  (anonymous namespace)::stream_sim(bool, unsigned long, bool, metrics::Registry*, (anonymous namespace)::Record&)
  1.00      3.75     0.05       20     0.00     0.00  main
  1.00      3.80     0.05   300000     0.00     0.00  std::vector<int, std::allocator<int> >::_M_realloc_insert<int const&>(__gnu_cxx::__normal_iterator<int*, std::vector<int, std::allocator<int> > >, int const&)
  1.00      3.85     0.05   300000     0.00     0.00  iosrv::ArcPolicy::operator()(iosrv::BlockKey const&) const
  1.00      3.90     0.05   300000     0.00     0.00  bool simkit::operator<<simkit::Event>(simkit::Event const&, simkit::Event const&)
"""


class FoldTest(unittest.TestCase):
    def test_parses_rows_with_and_without_calls(self):
        rows = benchlib.parse_flat_profile(CANNED_PROFILE)
        self.assertEqual(len(rows), 12)
        self.assertEqual(rows[3], (0.30, "simkit::Engine::step()"))

    def test_module_of(self):
        cases = {
            "pfs::DiskArm::pick_next(unsigned long)": "pfs",
            # std:: templates go to the namespace of their argument.
            "std::_Hashtable<iosrv::BlockKey, std::pair<iosrv::BlockKey "
            "const, int> >::find(iosrv::BlockKey const&)": "iosrv",
            "void std::deque<mprt::Message, std::allocator<mprt::Message> "
            ">::_M_push_back_aux<mprt::Message>(mprt::Message&&)": "mprt",
            # The return type is not the function's namespace.
            "simkit::Task<void> mprt::Comm::send(int, int, unsigned long)":
                "mprt",
            # Coroutine actor clones, whose parameter list names a frame.
            "pario::TwoPhase::read(pario::TwoPhase::read(mprt::Comm&)::"
            "_ZN5pario8Frame*) [clone .actor]": "pario",
            "simkit::Engine::run(unsigned long) [clone .cold]": "simkit",
            # An anonymous namespace counts for the namespace around it.
            "sched::(anonymous namespace)::run_job(sched::Job const&)":
                "sched",
            # Parameters do not attribute a symbol.
            "(anonymous namespace)::stream_sim(bool, metrics::Registry*)":
                benchlib.OTHER,
            "std::vector<int, std::allocator<int> >::_M_realloc_insert"
            "<int const&>(int const&)": benchlib.OTHER,
            "main": benchlib.OTHER,
            "__gnu_cxx::__normal_iterator<pfs::Piece*, int>::operator++()":
                "pfs",
            "iosrv::ArcPolicy::operator()(iosrv::BlockKey const&) const":
                "iosrv",
            "bool simkit::operator<<simkit::Event>(simkit::Event const&, "
            "simkit::Event const&)": "simkit",
            "operator new(unsigned long)": benchlib.OTHER,
            # A namespace name inside an identifier is not a namespace.
            "mysimkit::f()": benchlib.OTHER,
        }
        for symbol, module in cases.items():
            with self.subTest(symbol=symbol):
                self.assertEqual(benchlib.module_of(symbol), module)

    def test_fold_profile(self):
        folded = benchlib.fold_profile(CANNED_PROFILE)
        self.assertEqual(set(folded),
                         set(benchlib.MODULES) | {benchlib.OTHER})
        self.assertAlmostEqual(folded["pfs"], 1.80)
        self.assertAlmostEqual(folded["iosrv"], 0.55)
        self.assertAlmostEqual(folded["mprt"], 0.55)
        self.assertAlmostEqual(folded["simkit"], 0.35)
        self.assertAlmostEqual(folded["pario"], 0.25)
        self.assertAlmostEqual(folded["sched"], 0.20)
        self.assertAlmostEqual(folded[benchlib.OTHER], 0.20)
        self.assertAlmostEqual(sum(folded.values()), 3.90)


class NameTest(unittest.TestCase):
    def test_valid_metric_names(self):
        for name in ("wall_s", "pfs.disk.queue_wait_s.p50", "a-b_c.d",
                     "9lives", "x" * 64):
            with self.subTest(name=name):
                self.assertTrue(benchlib.valid_metric_name(name))

    def test_invalid_metric_names(self):
        for name in ("", ".hidden", "_x", "-x", "a b", "a/b", "a:b",
                     "pfs.cache.hit%", "x" * 65, "naïve", None):
            with self.subTest(name=name):
                self.assertFalse(benchlib.valid_metric_name(name))

    def test_units(self):
        for unit in ("s", "ms", "1/s", "count", "%", "sim_s", "MB"):
            self.assertTrue(benchlib.valid_unit(unit))
        for unit in ("", "a b", "x" * 17):
            self.assertFalse(benchlib.valid_unit(unit))


class StatsTest(unittest.TestCase):
    def test_ratio_with_zero_base(self):
        self.assertEqual(benchlib.ratio(5, 0), 0.0)
        self.assertEqual(benchlib.ratio(0, 0), 0.0)
        self.assertEqual(benchlib.ratio(3, 4), 0.75)

    def test_median(self):
        self.assertEqual(benchlib.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(benchlib.median([4.0, 1.0, 2.0, 3.0]), 2.5)
        with self.assertRaises(ValueError):
            benchlib.median([])

    def test_trimmed_mean(self):
        # The fastest and the slowest value are left out.
        self.assertEqual(benchlib.trimmed_mean([9.0, 1.0, 2.0, 4.0]), 3.0)
        self.assertEqual(benchlib.trimmed_mean([5.0, 1.0, 3.0]), 3.0)
        # Fewer than three values are all kept.
        self.assertEqual(benchlib.trimmed_mean([1.0, 2.0]), 1.5)
        self.assertEqual(benchlib.trimmed_mean([2.5]), 2.5)
        with self.assertRaises(ValueError):
            benchlib.trimmed_mean([])

    def test_quartiles(self):
        # statistics.quantiles' default (exclusive) method.
        self.assertEqual(benchlib.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
                         (2.75, 5.5, 8.25))
        self.assertEqual(benchlib.quartiles([7.0]), (7.0, 7.0, 7.0))
        with self.assertRaises(ValueError):
            benchlib.quartiles([])


class DriverFailureTest(unittest.TestCase):
    """A driver that crashes or fails its checks is counted, not raised."""

    def fake_driver(self, script: str) -> Path:
        d = tempfile.TemporaryDirectory()
        self.addCleanup(d.cleanup)
        path = Path(d.name) / "driver"
        path.write_text("#!/bin/sh\n" + script)
        path.chmod(0o755)
        return path

    def test_crashing_driver(self):
        res = run.timed_run(self.fake_driver("exit 3\n"), "stream_cache", 1, 0)
        self.assertEqual((res["attempted"], res["failed"]), (1, 1))
        self.assertIn("driver exited 3", res["errors"][0])
        self.assertEqual(res["wall_s"], 0.0)

    def test_failed_checks(self):
        sim = ('{"kind":"sim","setup_s":1e-4,"spans":{"run_s":2.5},'
               '"exact":{"events":7},"errors":["a check"]}')
        setup = '{"kind":"setup","setup_s":2e-4,"errors":[]}'
        # The host ran at half the reference speed.
        probe = f'{{"kind":"probe","probe_s":{2 * run.PROBE_REF_S}}}'
        driver = self.fake_driver(
            f'case "$*" in *--setup-only*) echo \'{setup}\';;\n'
            f'--probe) echo \'{probe}\';;\n'
            f'*) echo \'{sim}\'; echo \'{{"kind":"end","peak_rss_mb":3}}\';;'
            "\nesac\n")
        res = run.timed_run(driver, "stream_cache", 1, 0)
        self.assertEqual((res["attempted"], res["failed"]), (1, 1))
        self.assertEqual(res["errors"], ["a check"])
        self.assertEqual(res["raw_wall_s"], 2.5)
        self.assertAlmostEqual(res["wall_s"], 1.25)
        self.assertEqual(res["raw_setup_s"], 2e-4)
        self.assertAlmostEqual(res["setup_s"], 1e-4)

    def test_failing_probe(self):
        sim = ('{"kind":"sim","setup_s":1e-4,"spans":{"run_s":2.5},'
               '"exact":{"events":7},"errors":[]}')
        driver = self.fake_driver(
            'case "$*" in --probe) exit 4;;\n'
            f'*) echo \'{sim}\'; echo \'{{"kind":"end","peak_rss_mb":3}}\';;'
            "\nesac\n")
        res = run.timed_run(driver, "stream_cache", 1, 0)
        self.assertEqual((res["attempted"], res["failed"]), (2, 1))
        self.assertIn("driver exited 4", res["errors"][0])

    def test_bad_record(self):
        res = run.timed_run(self.fake_driver("echo '{\"kind\":'\n"),
                            "stream_cache", 1, 0)
        self.assertEqual((res["attempted"], res["failed"]), (1, 1))


class BenchmarkJsonTest(unittest.TestCase):
    """BENCHMARK.json and run.py describe the same metrics."""

    def setUp(self):
        self.spec = json.loads(
            (HERE.parent.parent / "BENCHMARK.json").read_text())

    def test_workloads(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))

    def test_end_to_end(self):
        self.assertEqual({m["name"]: m["unit"]
                          for m in self.spec["end_to_end"]}, run.END_TO_END)

    def test_per_layer(self):
        self.assertEqual({m["name"]: m["unit"]
                          for m in self.spec["per_layer"]}, run.PER_LAYER)

    def test_names(self):
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertTrue(benchlib.valid_metric_name(m["name"]), m)
            self.assertTrue(benchlib.valid_unit(m["unit"]), m)


if __name__ == "__main__":
    unittest.main()
