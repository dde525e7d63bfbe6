// The PR's headline resilience claim, as a test: under a *total*
// backward-RM blackhole every algorithm's network keeps all invariants
// green, compliant sources walk themselves down to ICR (the Crm/CDF
// decrease with the ADTF backstop), and once the feedback path heals
// the loop reconverges to its pre-fault operating point within the
// recovery budget the fault-injection PR established (250 ms).
#include <gtest/gtest.h>

#include <string>

#include "exp/factories.h"
#include "exp/probes.h"
#include "fault/fault_injector.h"
#include "fault/invariant_monitor.h"
#include "sim/simulator.h"
#include "stats/recovery.h"
#include "topo/abr_network.h"

namespace phantom {
namespace {

using sim::Rate;
using sim::Simulator;
using sim::Time;
using topo::AbrNetwork;
using topo::TrunkOptions;

constexpr int kSessions = 4;
const Time kBlackholeAt = Time::ms(250);
const Time kBlackholeLen = Time::ms(200);
const Time kEnd = Time::ms(800);
// PR-1's reconvergence budget for single-fault recovery.
const Time kRecoveryBudget = Time::ms(250);

class SelfHealResilienceTest : public testing::TestWithParam<exp::Algorithm> {};

TEST_P(SelfHealResilienceTest, TotalFeedbackLossDecaysToIcrAndReconverges) {
  Simulator sim{1};
  AbrNetwork net{sim, exp::make_factory(GetParam())};
  const auto sw = net.add_switch("sw");
  const auto dest = net.add_destination(sw, {});
  for (int i = 0; i < kSessions; ++i) net.add_session(sw, {}, dest);
  net.enable_reaping();

  fault::FaultInjector injector{sim, net};
  injector.apply(fault::FaultPlan{}.rm_blackhole(fault::dest(0), kBlackholeAt,
                                                 kBlackholeLen, 1.0));
  fault::InvariantMonitor monitor{sim, net};
  exp::Sampler share{sim, exp::fair_share_of(net.dest_port(dest).controller())};

  net.start_all(Time::zero(), Time::zero());

  // Just before the blackhole ends: every source has gone Crm forward
  // RM cells without an answer and must have decayed to the ICR floor —
  // none of them is still blasting at the stale pre-fault rate.
  sim.run_until(kBlackholeAt + kBlackholeLen - Time::ms(1));
  const double icr_mbps =
      net.source(0).params().icr.mbits_per_sec();
  for (std::size_t s = 0; s < net.num_sessions(); ++s) {
    const auto& src = net.source(s);
    EXPECT_GT(src.frms_since_brm(),
              static_cast<std::uint64_t>(src.params().crm))
        << "session " << s << " still getting feedback through a 100% "
        << "backward blackhole";
    EXPECT_LE(src.acr().mbits_per_sec(), icr_mbps * 1.01)
        << "session " << s << " holds a stale rate";
  }

  sim.run_until(kEnd);
  monitor.check_now();
  for (const auto& v : monitor.violations()) {
    ADD_FAILURE() << v.invariant << ": " << v.detail;
  }

  // Post-restore reconvergence, judged the way the chaos oracle judges
  // it: the 10 ms-smoothed share re-enters the pre-fault band (15%) and
  // stays there. APRC's instantaneous estimate oscillates by design, so
  // the raw trace would never hold a band even fault-free.
  const double target =
      stats::mean_in_window(share.samples(), Time::ms(150),
                            kBlackholeAt);
  ASSERT_GT(target, 0.0);
  const auto smoothed =
      stats::smooth_series(share.samples(), Time::ms(10));
  const auto reconverge = stats::time_to_reconverge(
      smoothed, kBlackholeAt + kBlackholeLen, target, 0.15);
  ASSERT_TRUE(reconverge.has_value())
      << exp::to_string(GetParam()) << " never reconverged after the "
      << "feedback path healed";
  EXPECT_LE(*reconverge, kRecoveryBudget);
}

TEST_P(SelfHealResilienceTest, DecayAblationTripsStaleRateInvariant) {
  // The --no-feedback-decay counterfactual: identical fault, decay off.
  // Sources freeze at their stale ACR and the monitor must say so —
  // the invariant is judged from the TM 4.0 protocol state, not from
  // the (disabled) decay machinery.
  Simulator sim{1};
  AbrNetwork net{sim, exp::make_factory(GetParam())};
  const auto sw = net.add_switch("sw");
  const auto dest = net.add_destination(sw, {});
  atm::AbrParams params;
  params.feedback_decay = false;
  for (int i = 0; i < kSessions; ++i) net.add_session(sw, {}, dest, params);

  fault::FaultInjector injector{sim, net};
  injector.apply(fault::FaultPlan{}.rm_blackhole(fault::dest(0), kBlackholeAt,
                                                 kBlackholeLen, 1.0));
  fault::InvariantMonitor monitor{sim, net};
  net.start_all(Time::zero(), Time::zero());
  sim.run_until(kBlackholeAt + kBlackholeLen - Time::ms(1));
  monitor.check_now();

  bool stale = false;
  for (const auto& v : monitor.violations()) {
    stale |= v.invariant == "stale-rate";
  }
  EXPECT_TRUE(stale) << "ablated sources held stale rates through a total "
                     << "blackhole without tripping the invariant";
}

std::string selfheal_name(const testing::TestParamInfo<exp::Algorithm>& info) {
  return exp::to_string(info.param);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, SelfHealResilienceTest,
                         testing::Values(exp::Algorithm::kPhantom,
                                         exp::Algorithm::kEprca,
                                         exp::Algorithm::kAprc,
                                         exp::Algorithm::kCapc,
                                         exp::Algorithm::kErica),
                         selfheal_name);

}  // namespace
}  // namespace phantom
