// reset() on every algorithm must restore a controller to the state a
// freshly constructed one has: after a warm-up history and a reset, the
// observable rate outputs (ER written into backward RM cells and the
// fair-share estimate) must exactly match a brand-new controller fed
// the identical post-reset sequence. This is what makes the restart
// fault meaningful — a "restarted" controller that secretly remembers
// (or forgets to re-arm) learned state would corrupt every recovery
// measurement built on it.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "atm/cell.h"
#include "exp/factories.h"
#include "obs/event_log.h"
#include "sim/simulator.h"

namespace phantom {
namespace {

using sim::Rate;
using sim::Time;

/// One scripted step of controller input: some data cells, a forward RM
/// carrying a CCR, and a backward RM probe whose resulting ER is the
/// observable output.
struct Step {
  int data_cells;
  double ccr_mbps;
  std::size_t queue_len;
};

const std::vector<Step>& script() {
  static const std::vector<Step> steps = {
      {40, 150.0, 0},  {80, 120.0, 5},   {120, 90.0, 40}, {200, 60.0, 120},
      {30, 45.0, 260}, {10, 30.0, 90},   {60, 75.0, 15},  {90, 110.0, 2},
      {150, 95.0, 55}, {20, 140.0, 400},
  };
  return steps;
}

/// Feeds one step and returns the ER the controller wrote into the
/// backward RM probe.
double feed(atm::PortController& c, const Step& s, int vc) {
  for (int i = 0; i < s.data_cells; ++i) {
    c.on_cell_accepted(atm::Cell::data(vc), s.queue_len + 1);
  }
  atm::Cell frm =
      atm::Cell::forward_rm(vc, Rate::mbps(s.ccr_mbps), Rate::mbps(365));
  c.on_forward_rm(frm, s.queue_len);
  atm::Cell brm = frm;
  brm.kind = atm::CellKind::kBackwardRm;
  c.on_backward_rm(brm, s.queue_len);
  return brm.er.bits_per_sec();
}

class ControllerResetTest : public testing::TestWithParam<exp::Algorithm> {};

TEST_P(ControllerResetTest, ResetEqualsFreshlyConstructed) {
  const auto factory = exp::make_factory(GetParam());
  sim::Simulator sim;
  const Rate link = Rate::mbps(150);
  auto warmed = factory(sim, link);

  // Warm-up: 20 ms of scripted, bursty history (all five algorithms run
  // a 1 ms measurement interval, so this spans 20 ticks).
  int vc = 0;
  for (std::int64_t t = 0; t < 40; ++t) {
    sim.run_until(Time::us(500) * t + Time::us(250));
    (void)feed(*warmed, script()[static_cast<std::size_t>(t) % script().size()],
               vc);
    vc = (vc + 1) % 3;
  }
  sim.run_until(Time::ms(20));  // every interval tick through 20 ms has run

  // The moment under test: restart the warmed controller and construct
  // a pristine one at the same instant (same interval-timer phase).
  warmed->reset();
  auto fresh = factory(sim, link);

  // Identical post-reset input to both; outputs must match exactly at
  // every probe, including across interval ticks.
  for (std::int64_t t = 0; t < 40; ++t) {
    sim.run_until(Time::ms(20) + Time::us(500) * t + Time::us(250));
    const Step& s =
        script()[static_cast<std::size_t>(t * 3 + 1) % script().size()];
    const double er_warmed = feed(*warmed, s, vc);
    const double er_fresh = feed(*fresh, s, vc);
    EXPECT_DOUBLE_EQ(er_warmed, er_fresh) << "probe " << t << " at "
                                          << sim.now().to_string();
    EXPECT_DOUBLE_EQ(warmed->fair_share().bits_per_sec(),
                     fresh->fair_share().bits_per_sec())
        << "probe " << t;
    EXPECT_EQ(warmed->mark_efci(s.queue_len), fresh->mark_efci(s.queue_len))
        << "probe " << t;
    vc = (vc + 2) % 3;
  }
}

std::string reset_name(const testing::TestParamInfo<exp::Algorithm>& info) {
  return exp::to_string(info.param);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, ControllerResetTest,
                         testing::Values(exp::Algorithm::kPhantom,
                                         exp::Algorithm::kEprca,
                                         exp::Algorithm::kAprc,
                                         exp::Algorithm::kCapc,
                                         exp::Algorithm::kErica),
                         reset_name);

/// Every fair-share change, reset() and warm-start seed included, lands
/// both in the attached history and in the event log as a kRateUpdate,
/// so a trace shows why rates moved after a restart.
class ControllerHistoryTest : public testing::TestWithParam<exp::Algorithm> {
 protected:
  /// Checks that the history's last sample and the log's last
  /// kRateUpdate both carry the controller's current fair share, and
  /// that the history holds one sample (the attach-time value) more
  /// than the log holds rate updates.
  void expect_recorded_now(const std::string& when) {
    const double share = ctl->fair_share().bits_per_sec();
    ASSERT_FALSE(history.empty()) << when;
    EXPECT_EQ(history.back(), (sim::Sample{sim.now(), share})) << when;
    if constexpr (obs::kObsEnabled) {
      std::size_t updates = 0;
      obs::Event last;
      log.for_each([&](const obs::Event& e) {
        if (e.kind != obs::EventKind::kRateUpdate) return;
        ++updates;
        last = e;
      });
      ASSERT_GT(updates, 0u) << when;
      EXPECT_EQ(last.time, sim.now()) << when;
      EXPECT_DOUBLE_EQ(last.a, ctl->fair_share().mbits_per_sec()) << when;
      EXPECT_EQ(history.size(), updates + 1) << when;
    }
  }

  sim::Simulator sim;
  obs::EventLog log;
  std::vector<sim::Sample> history;
  std::unique_ptr<atm::PortController> ctl;
};

TEST_P(ControllerHistoryTest, ResetAndWarmSeedRecordTheNewRate) {
  ctl = exp::make_factory(GetParam())(sim, Rate::mbps(150));
  ctl->set_event_log(&log, 0, 0);
  ctl->set_fair_share_history(&history, sim.now());
  ASSERT_EQ(history.size(), 1u);

  // Warm-up history that moves every estimate off its boot value.
  int vc = 0;
  for (std::int64_t t = 0; t < 40; ++t) {
    sim.run_until(Time::us(500) * t + Time::us(250));
    (void)feed(*ctl, script()[static_cast<std::size_t>(t) % script().size()],
               vc);
    vc = (vc + 1) % 3;
  }

  ctl->reset();
  expect_recorded_now("after reset()");

  // A warm restart, then one instant's worth of FRMs at a CCR far from
  // the boot value: the window fills and the seed is installed at once.
  sim.run_until(sim.now() + Time::us(100));
  ctl->warm_restart();
  const atm::WarmStartAudit* audit = ctl->warm_audit();
  ASSERT_NE(audit, nullptr);
  for (std::uint64_t i = 0; i < atm::WarmStartWindow::kMaxSamples; ++i) {
    atm::Cell frm = atm::Cell::forward_rm(0, Rate::mbps(60), Rate::mbps(365));
    ctl->on_forward_rm(frm, 0);
  }
  ASSERT_FALSE(audit->window_open);
  EXPECT_DOUBLE_EQ(audit->seeded_bps, ctl->fair_share().bits_per_sec());
  expect_recorded_now("after the warm-start seed");
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, ControllerHistoryTest,
                         testing::Values(exp::Algorithm::kPhantom,
                                         exp::Algorithm::kEprca,
                                         exp::Algorithm::kAprc,
                                         exp::Algorithm::kCapc,
                                         exp::Algorithm::kErica),
                         reset_name);

}  // namespace
}  // namespace phantom
