"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The layer classifier, profile parser and run accounting are checked on
fixed inputs. The digest test builds the optimized tree (as run.py does)
and runs imc10_a2a at seed 1 once, about 4 s after the build.
"""

import unittest

import layers
import run


class ClassifierTest(unittest.TestCase):
    def setUp(self):
        self.c = layers.Classifier()

    def check(self, symbol, layer):
        self.assertEqual(self.c.classify(symbol), layer, symbol)

    def test_wrapped_lambda_goes_to_its_enclosing_function(self):
        self.check("UniqueFunction<…>::invoke_inline<dcpim::net::Port::"
                   "try_transmit()::{lambda()#1}>", "net.port")
        self.check("void dcpim::UniqueFunction<void ()>::invoke_inline<"
                   "dcpim::net::Port::try_transmit()::{lambda()#1}>(void*)",
                   "net.port")

    def test_container_goes_to_its_element_type(self):
        self.check("std::_Hashtable<…dcpim::net::FlowRxState…>::find",
                   "net.host")
        self.check("std::_Hashtable<unsigned long, std::pair<unsigned long "
                   "const, dcpim::net::FlowRxState>, std::allocator<std::pair"
                   "<unsigned long const, dcpim::net::FlowRxState> > >::find("
                   "unsigned long const&)", "net.host")

    def test_audit_probe_helpers_are_audit(self):
        self.check("dcpim::harness::(anonymous namespace)::"
                   "check_flow_conservation", "audit")
        self.check("dcpim::harness::install_standard_probes(dcpim::sim::"
                   "Auditor&, dcpim::net::Network&)", "audit")
        self.check("dcpim::sim::Auditor::sweep(dcpim::TimePoint)", "audit")
        self.check("dcpim::core::DcpimHost::audit_matching(std::vector<int>&)"
                   " const", "audit")

    def test_default_names_are_not_faults(self):
        self.check("dcpim::harness::(anonymous namespace)::default_lb_policy("
                   "dcpim::harness::Protocol)", "harness")
        self.check("dcpim::harness::default_bucket_edges(dcpim::Bytes)",
                   "harness")

    def test_fault_injection_is_faults(self):
        self.check("std::_Function_handler<void (dcpim::net::Packet const&), "
                   "dcpim::harness::FaultInjector::install_gray_observers()::"
                   "{lambda(dcpim::net::Packet const&)#2}>::_M_invoke(std::"
                   "_Any_data const&, dcpim::net::Packet const&)", "faults")
        self.check("dcpim::sim::fault::parse_fault_spec(std::string const&)",
                   "faults")

    def test_modules_and_fallbacks(self):
        self.check("dcpim::sim::Simulator::heap_pop()", "sim")
        self.check("dcpim::net::Switch::select_egress(dcpim::net::Packet "
                   "const&)", "net.switch")
        self.check("dcpim::net::Network::create_flow(int, int, dcpim::Bytes, "
                   "dcpim::TimePoint)", "net.other")
        self.check("dcpim::proto::NdpHost::on_packet(std::unique_ptr<dcpim::"
                   "net::Packet, dcpim::net::PacketDeleter>)", "proto")
        self.check("dcpim::UniqueFunction<void ()>::reset()", "util")
        self.check("std::__cxx11::to_string(int)", "other")
        self.check("(anonymous namespace)::load_cell(std::string const&)",
                   "other")


class FlatProfileTest(unittest.TestCase):
    TEXT = """Flat profile:

Each sample counts as 0.01 seconds.
  %   cumulative   self              self     total
 time   seconds   seconds    calls   s/call   s/call  name
 25.42      0.90     0.90 16994604     0.00     0.00  dcpim::sim::Simulator::heap_pop()
  5.65      1.75     0.20  5500777     0.00     0.00  dcpim::net::Switch::select_egress(dcpim::net::Packet const&)
  0.85      3.14     0.03                             dcpim::net::Device::on_port_added(dcpim::net::Port&)
"""

    def test_rows_and_roll_up(self):
        rows = layers.parse_flat_profile(self.TEXT)
        self.assertEqual(len(rows), 3)
        self.assertEqual(rows[2], (0.03, 0, "dcpim::net::Device::on_port_added"
                                   "(dcpim::net::Port&)"))
        self_s, calls, hot = layers.roll_up(rows)
        self.assertAlmostEqual(self_s["sim"], 0.90)
        self.assertEqual(calls["net.switch"], 5500777)
        self.assertEqual(hot["sim.heap_pop.calls"], 16994604)
        self.assertEqual(hot["net.switch.select_egress.calls"], 5500777)
        self.assertEqual(hot["core.on_packet.calls"], 0)


class CheckRunsTest(unittest.TestCase):
    @staticmethod
    def runs(*seed_digests):
        return [{"seed": s, "digest": d, "audit_violations": 0}
                for s, d in seed_digests]

    def test_draws_are_distinct_and_start_at_the_seed(self):
        seeds = run.draw_seeds(7)
        self.assertEqual(len(set(seeds)), run.DRAWS)
        self.assertEqual(seeds[0], 7)
        self.assertFalse(set(seeds) & set(run.draw_seeds(8)))

    def test_default_seed_compares_each_draw_with_its_pin(self):
        pins = run.pinned_digests("imc10_a2a", run.DEFAULT_SEED)
        first, second = run.draw_seeds(run.DEFAULT_SEED)[:2]
        self.assertNotEqual(pins[first], pins[second])
        runs = self.runs((first, pins[first]), (second, pins[second]),
                         (second, pins[first]))
        self.assertEqual(run.check_runs("imc10_a2a", run.DEFAULT_SEED, 0,
                                        runs), (3, 1))

    def test_other_seeds_must_repeat_within_each_draw(self):
        self.assertEqual(run.pinned_digests("imc10_a2a", 7), {})
        runs = self.runs((7, "a"), (9, "b"), (7, "a"), (9, "c"))
        self.assertEqual(run.check_runs("imc10_a2a", 7, 0, runs), (4, 1))

    def test_a_crash_fails_one_more_run(self):
        self.assertEqual(run.check_runs("dense_tm", 7, -1,
                                        self.runs((7, "a"))), (2, 1))


class DigestTest(unittest.TestCase):
    def test_default_cell_matches_pin_and_legacy_fingerprint(self):
        run.build()
        code, rec, stderr = run.drive("release", "imc10_a2a",
                                      [run.DEFAULT_SEED], 0, 1, 1)
        self.assertEqual(code, 0, stderr)
        r = rec["run"][0]
        self.assertEqual(r["digest"], run.pinned_digests(
            "imc10_a2a", run.DEFAULT_SEED)[run.DEFAULT_SEED])
        # BENCH_7.json's dcPIM fig3a_default fingerprint: the outcome digest
        # and the old execution-inclusive fingerprint name the same run.
        self.assertEqual(r["legacy"], "aafa5b73b4b9dc42")
        # The set-up stops before the first event, which is due at t = 0.
        self.assertEqual([s["events"] for s in rec["setup"]], [0])


if __name__ == "__main__":
    unittest.main()
