"""Tests for the benchmark's own logic.

    python3 perfbench/test_perfbench.py

The seed tests build the Release driver (as run.py does) if it is missing.
"""

import copy
import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import gprof_layers  # noqa: E402
import run  # noqa: E402

FUNCTION_HANDLER = (
    "std::_Function_handler<void (spider::net::Frame const&, "
    "spider::phy::RxInfo const&), spider::core::ClientDevice::ClientDevice("
    "spider::phy::Medium&, spider::net::MacAddress, "
    "spider::core::ClientDeviceConfig)::{lambda(spider::net::Frame const&, "
    "spider::phy::RxInfo const&)#1}>::_M_invoke(std::_Any_data const&, "
    "spider::net::Frame const&, spider::phy::RxInfo const&)")
HEAP_SPILL = (
    "spider::sim::SmallFn::heap_ops<spider::backhaul::WiredLink::send("
    "spider::net::TcpSegment)::{lambda()#1}>()::{lambda(void*)#2}::_FUN(void*)")

FLAT_PROFILE = f"""Flat profile:

Each sample counts as 0.01 seconds.
  %   cumulative   self              self     total
 time   seconds   seconds    calls  ms/call  ms/call  name
 30.34      0.54     0.54  5925809     0.00     0.00  spider::phy::Medium::deliver(spider::phy::Medium::PendingTx const&)
  9.55      0.71     0.17 12293795     0.00     0.00  spider::sim::TimerWheel::refill_from_overflow()
  7.30      0.84     0.13    51361     0.00     0.00  std::mersenne_twister_engine<unsigned long, 64ul>::_M_gen_rand()
  1.12      0.86     0.02   531496     0.00     0.00  {FUNCTION_HANDLER}
  0.56      0.87     0.01                             spider::phy::RadioGrid::gather(spider::phy::Vec2, double, unsigned int*, unsigned long&) const
  0.56      0.88     0.01                             _init
  0.00      0.88     0.00   880238     0.00     0.00  {HEAP_SPILL}
  0.00      0.88     0.00     1000     0.00     0.00  spider::phy::RadioGrid::gather(spider::phy::Vec2, double, unsigned int*, unsigned long&) const
"""


class GrouperTest(unittest.TestCase):
    def test_plain_member_function(self):
        self.assertEqual(gprof_layers.layer_of(
            "spider::phy::Medium::deliver(spider::phy::Medium::PendingTx "
            "const&)"), "phy")

    def test_function_thunk_counts_for_its_functor_not_its_signature(self):
        self.assertEqual(gprof_layers.layer_of(FUNCTION_HANDLER), "core")

    def test_smallfn_thunk_counts_for_the_scheduler(self):
        self.assertEqual(gprof_layers.layer_of(HEAP_SPILL), "sim")

    def test_lambda_inside_anonymous_namespace(self):
        self.assertEqual(gprof_layers.layer_of(
            "spider::model::(anonymous namespace)::max_feasible_fraction("
            "spider::model::OptimizerParams const&, double)::{lambda(double)#1}"
            "::operator()(double) const"), "model")

    def test_template_over_a_simulator_type(self):
        self.assertEqual(gprof_layers.layer_of(
            "void std::vector<spider::mobility::ApDescriptor, "
            "std::allocator<spider::mobility::ApDescriptor> >::"
            "_M_realloc_insert<spider::mobility::ApDescriptor const&>("
            "__gnu_cxx::__normal_iterator<spider::mobility::ApDescriptor*>, "
            "spider::mobility::ApDescriptor const&)"), "mobility")

    def test_check_namespace_is_core(self):
        self.assertEqual(gprof_layers.layer_of(
            "spider::check::detail::Failure::~Failure()"), "core")

    def test_unclaimed_symbols_are_other(self):
        for name in ("_init", "main",
                     "std::mersenne_twister_engine<unsigned long>::_M_gen_rand()",
                     "perfbench::(anonymous namespace)::run(int, char**)",
                     "spiderman::Web::spin()"):
            self.assertEqual(gprof_layers.layer_of(name), "other", name)

    def test_short_name_drops_parameters_and_const(self):
        self.assertEqual(gprof_layers.short_name(
            "spider::phy::RadioGrid::gather(spider::phy::Vec2, double, "
            "unsigned int*, unsigned long&) const"),
            "spider::phy::RadioGrid::gather")
        self.assertEqual(gprof_layers.short_name(HEAP_SPILL),
                         "spider::sim::SmallFn::heap_ops<spider::backhaul::"
                         "WiredLink::send::{lambda#1}>::{lambda#2}::_FUN")

    def test_flat_profile_rows_and_layer_totals(self):
        rows = gprof_layers.parse_flat_profile(FLAT_PROFILE)
        self.assertEqual(len(rows), 8)
        self.assertEqual(rows[0], (
            "spider::phy::Medium::deliver(spider::phy::Medium::PendingTx "
            "const&)", 0.54, 5925809))
        self.assertIsNone(rows[4][2])
        totals = gprof_layers.self_seconds_by_layer(rows)
        self.assertAlmostEqual(totals["phy"], 0.55)
        self.assertAlmostEqual(totals["sim"], 0.17)
        self.assertAlmostEqual(totals["core"], 0.02)
        self.assertAlmostEqual(totals["other"], 0.14)
        self.assertAlmostEqual(sum(totals.values()), 0.88)
        self.assertEqual(gprof_layers.calls_of(
            rows, lambda n: n == "spider::phy::RadioGrid::gather"), 1000)


def world_record(**overrides):
    rec = {"label": "amherst.ch1-multi", "seed": 1, "digest": "0x1",
           "check_failures": 0, "throughput_kBps": 100.0,
           "connectivity": 0.5, "bytes": 30000000, "joins": 10,
           "join_attempts": 30, "associations": 20, "radios": 61,
           "duration_s": 300.0, "events": 500000, "frames_sent": 250000,
           "frames_delivered": 400000, "frames_lost": 80000}
    rec.update(overrides)
    return rec


REFERENCE = {"model.s0-r50": 14.4017333984375}


def solve_record(speed):
    return {"label": "model.s0-r50", "scenario": 0, "range_m": 50,
            "dividing_speed": speed}


class CheckerTest(unittest.TestCase):
    def test_sound_world_passes(self):
        self.assertEqual(checks.world_problems(world_record()), [])

    def test_corrupted_worlds_fail(self):
        corruptions = {
            "invariant": {"check_failures": 2},
            "non-finite": {"throughput_kBps": "nan"},
            "missing": {"events": None},
            "more joins than attempts": {"joins": 31, "associations": 31},
            "more associations than attempts": {"associations": 31},
            "receptions exceed sent times receivers":
                {"frames_delivered": 15000001 - 80000},
            "throughput vs bytes": {"throughput_kBps": 101.0},
            "connectivity": {"connectivity": 1.5},
            "idle world": {"events": 0},
        }
        for what, fields in corruptions.items():
            with self.subTest(what):
                self.assertNotEqual(
                    checks.world_problems(world_record(**fields)), [])

    def test_solve_within_tolerance_passes(self):
        self.assertEqual(
            checks.solve_problems(solve_record(14.4017333984375 + 0.04),
                                  REFERENCE), [])

    def test_shifted_reference_fails(self):
        shifted = {"model.s0-r50": 14.4017333984375 + 0.06}
        self.assertNotEqual(
            checks.solve_problems(solve_record(14.4017333984375), shifted), [])
        self.assertNotEqual(
            checks.solve_problems(solve_record(14.4017333984375), {}), [])

    def test_check_run_counts_operations(self):
        result = {"ops_per_batch": 2, "batch_digests": ["0xa", "0xa", "0xa"],
                  "records": [world_record(), world_record()]}
        self.assertEqual(checks.check_run(result, {}), (6, 0, []))
        bad = copy.deepcopy(result)
        bad["records"][1]["check_failures"] = 1
        self.assertEqual(checks.check_run(bad, {})[:2], (6, 1))
        replay = copy.deepcopy(result)
        replay["batch_digests"][2] = "0xb"
        self.assertEqual(checks.check_run(replay, {})[:2], (6, 2))

    def test_recorded_reference_covers_every_solve(self):
        reference = run.load_reference()
        self.assertEqual(len(reference), 6)


class EstimatorTest(unittest.TestCase):
    def test_fastest_sum_sums_each_operations_fastest_repeat(self):
        rounds = [[1.0, 2.0, 3.0], [1.5, 1.0, 2.5]]
        self.assertAlmostEqual(run.fastest_sum(rounds), 1.0 + 1.0 + 2.5)
        self.assertAlmostEqual(run.batch_seconds({"op_run_s": rounds}), 4.5)


def traced_result(counters):
    return {"counters": counters, "batch_cpu_s": [1.0],
            "op_run_s": [[0.5]], "allocations": 10}


class ProfiledCountTest(unittest.TestCase):
    COUNTERS = {"sim.events_fired": 100, "phy.frames_delivered": 50,
                "phy.client_rx": 20, "phy.deliveries_grid": 50}

    def test_counts_present_in_the_profile_pass(self):
        metrics, problems = run.per_layer(
            traced_result({"sim.events_fired": 100, "phy.deliveries_grid": 50}),
            traced_result({}), FLAT_PROFILE, batches=1)
        self.assertEqual(metrics["phy.gather_calls"], (1000, "count"))
        self.assertEqual(metrics["backhaul.heap_spills"], (880238, "count"))
        # FLAT_PROFILE has no beacon_tick or move_radios.
        self.assertEqual(len(problems), 2, problems)
        self.assertTrue(problems[0].startswith("mac.beacons reads 0"))

    def test_missing_symbol_fails_only_when_its_work_ran(self):
        no_gather = FLAT_PROFILE.replace("RadioGrid::gather", "RadioGrid::g")
        _, problems = run.per_layer(traced_result(self.COUNTERS),
                                    traced_result({}), no_gather, batches=1)
        self.assertTrue(any(p.startswith("phy.gather_calls") for p in problems))
        _, problems = run.per_layer(traced_result({}), traced_result({}),
                                    no_gather, batches=1)
        self.assertEqual(problems, [])

    def test_ap_receptions_come_from_the_client_radios(self):
        metrics, _ = run.per_layer(traced_result(self.COUNTERS),
                                   traced_result({}), FLAT_PROFILE, batches=1)
        self.assertEqual(metrics["mac.ap_rx"], (30, "count"))
        self.assertAlmostEqual(metrics["phy.client_rx_ratio"][0], 0.4)


class GeneratedConfigTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build("release", gprof=False)

    def configs(self, workload, seed):
        out = subprocess.run(
            [str(self.binary), "--workload", workload, "--seed", str(seed),
             "--list-configs"], capture_output=True, text=True, check=True)
        return json.loads(out.stdout)["configs"]

    def test_same_seed_same_configs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload):
                self.assertEqual(self.configs(workload, 11),
                                 self.configs(workload, 11))

    def test_other_seed_other_configs(self):
        for workload in ("drive", "lab", "fleet"):
            with self.subTest(workload):
                self.assertNotEqual(self.configs(workload, 11),
                                    self.configs(workload, 12))


if __name__ == "__main__":
    unittest.main()
