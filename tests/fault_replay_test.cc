// Deterministic fault replay: the same seed and the same FaultPlan must
// reproduce the run exactly — sample-for-sample traces, identical
// counters and fault logs, and byte-identical CSV report output.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/factories.h"
#include "exp/probes.h"
#include "exp/report.h"
#include "fault/fault_injector.h"
#include "fault/invariant_monitor.h"
#include "sim/simulator.h"
#include "topo/abr_network.h"

namespace phantom {
namespace {

using sim::Rate;
using sim::Simulator;
using sim::Time;
using topo::AbrNetwork;

struct RunOutput {
  std::vector<sim::Sample> share;
  std::vector<sim::Sample> queue;
  std::vector<std::uint64_t> delivered;
  std::uint64_t lost = 0;
  std::vector<std::string> fault_log;
  std::size_t violations = 0;
};

fault::FaultPlan make_plan() {
  return fault::FaultPlan{}
      .outage(fault::dest(0), Time::ms(80), Time::ms(30))
      .burst(fault::dest(0), Time::ms(150), Time::ms(100), 0.1, 0.3, 0.5)
      .rm_fault(fault::dest(0), Time::ms(200), Time::ms(60), 0.2, 0.4)
      .restart(fault::dest(0), Time::ms(280))
      .leave(1, Time::ms(120))
      .join(1, Time::ms(220));
}

RunOutput run_once(std::uint64_t seed) {
  Simulator sim{seed};
  AbrNetwork net{sim, exp::make_factory(exp::Algorithm::kPhantom)};
  const auto sw = net.add_switch("sw");
  const auto dest = net.add_destination(sw, {});
  for (int i = 0; i < 3; ++i) net.add_session(sw, {}, dest);

  fault::FaultInjector injector{sim, net};
  injector.apply(make_plan());
  fault::InvariantMonitor monitor{sim, net};
  exp::Sampler share{sim, exp::fair_share_of(net.dest_port(dest).controller())};
  exp::Sampler queue{sim, exp::queue_length_of(net.dest_port(dest))};
  net.start_all(Time::zero(), Time::zero());
  sim.run_until(Time::ms(350));
  monitor.check_now();

  RunOutput out;
  out.share = share.samples();
  out.queue = queue.samples();
  for (std::size_t s = 0; s < net.num_sessions(); ++s) {
    out.delivered.push_back(net.delivered_cells(s));
  }
  out.lost = net.total_cells_lost();
  for (const auto& f : injector.log()) {
    out.fault_log.push_back(f.time.to_string() + " " + f.description);
  }
  out.violations = monitor.violations().size();
  return out;
}

[[nodiscard]] std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(FaultReplayTest, SameSeedSamePlanIsByteIdentical) {
  const RunOutput a = run_once(1234);
  const RunOutput b = run_once(1234);

  EXPECT_EQ(a.share, b.share);
  EXPECT_EQ(a.queue, b.queue);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.lost, b.lost);
  EXPECT_EQ(a.fault_log, b.fault_log);
  EXPECT_EQ(a.violations, 0u);
  EXPECT_EQ(b.violations, 0u);
  EXPECT_GT(a.lost, 0u);  // the faults actually did something

  // The written report artifacts are byte-identical too.
  const std::string dir = ::testing::TempDir();
  ASSERT_TRUE(exp::write_series_csv(dir + "/replay_a.csv", a.share, 1e-6));
  ASSERT_TRUE(exp::write_series_csv(dir + "/replay_b.csv", b.share, 1e-6));
  const std::string bytes_a = slurp(dir + "/replay_a.csv");
  EXPECT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, slurp(dir + "/replay_b.csv"));
}

TEST(FaultReplayTest, DifferentSeedsDivergeUnderRandomFaults) {
  // Sanity check that the replay test has teeth: the burst/RM faults
  // draw from the seeded RNG, so different seeds must produce different
  // loss patterns.
  const RunOutput a = run_once(1);
  const RunOutput b = run_once(2);
  EXPECT_NE(a.lost, b.lost);
}

}  // namespace
}  // namespace phantom
