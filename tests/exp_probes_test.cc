#include "exp/probes.h"

#include <gtest/gtest.h>

#include <cmath>

#include "exp/factories.h"
#include "sim/simulator.h"
#include "topo/abr_network.h"

namespace phantom::exp {
namespace {

using sim::Rate;
using sim::Simulator;
using sim::Time;

struct Fixture {
  Simulator sim;
  topo::AbrNetwork net{sim, make_factory(Algorithm::kPhantom)};
  topo::AbrNetwork::SwitchId sw;
  topo::AbrNetwork::DestId dest;

  Fixture() {
    sw = net.add_switch("sw");
    dest = net.add_destination(sw, {});
    net.add_session(sw, {}, dest);
    net.add_session(sw, {}, dest);
  }
};

TEST(GoodputProbeTest, MeasuresDeltaSinceMark) {
  Fixture f;
  f.net.start_all(Time::zero(), Time::zero());
  f.sim.run_until(Time::ms(100));
  GoodputProbe probe{f.sim, f.net};
  probe.mark();
  f.sim.run_until(Time::ms(200));
  const auto rates = probe.rates_mbps();
  ASSERT_EQ(rates.size(), 2u);
  // Roughly at the fair share, and definitely excluding the first
  // 100 ms (a cumulative measure would be biased low by the ramp; at
  // ~47.5 the window measure sits well above a 0-200 ms average of the
  // early ramp for session 1... just check a sane band).
  for (const double r : rates) {
    EXPECT_GT(r, 30.0);
    EXPECT_LT(r, 60.0);
  }
  EXPECT_NEAR(probe.total_mbps(), rates[0] + rates[1], 1e-9);
}

TEST(GoodputProbeTest, RemarkRestartsTheWindow) {
  Fixture f;
  f.net.start_all(Time::zero(), Time::zero());
  GoodputProbe probe{f.sim, f.net};
  probe.mark();
  f.sim.run_until(Time::ms(100));
  const double first = probe.total_mbps();
  probe.mark();  // restart
  f.sim.run_until(Time::ms(101));
  const double second = probe.total_mbps();
  EXPECT_GT(first, 0.0);
  // The new 1 ms window contains far fewer cells than the 100 ms one,
  // but expressed as a *rate* both are of the same order; just verify
  // the re-mark did reset the baseline (no cumulative carryover).
  EXPECT_LT(std::abs(second - first), 100.0);
}

TEST(GoodputProbeTest, ZeroWindowYieldsZeroRates) {
  Fixture f;
  GoodputProbe probe{f.sim, f.net};
  probe.mark();
  for (const double r : probe.rates_mbps()) EXPECT_DOUBLE_EQ(r, 0.0);
}

TEST(GoodputProbeTest, ConstructionOpensTheWindow) {
  Fixture f;
  GoodputProbe probe{f.sim, f.net};  // never marked
  f.net.start_all(Time::zero(), Time::zero());
  f.sim.run_until(Time::ms(100));
  for (const double r : probe.rates_mbps()) {
    EXPECT_GT(r, 0.0);
    EXPECT_LE(r, 150.0);
  }
}

TEST(GoodputProbeTest, SessionAddedAfterMarkCountsFromZero) {
  Fixture f;
  f.net.start_all(Time::zero(), Time::zero());
  GoodputProbe probe{f.sim, f.net};
  f.sim.run_until(Time::ms(50));
  probe.mark();
  const auto added = f.net.try_add_session(f.sw, {}, f.dest);
  ASSERT_TRUE(added.admitted);
  f.net.source(added.session).start(f.sim.now());
  f.sim.run_until(Time::ms(150));
  const auto rates = probe.rates_mbps();
  ASSERT_EQ(rates.size(), 3u);
  EXPECT_GT(rates[2], 0.0);
  for (const double r : rates) {
    EXPECT_TRUE(std::isfinite(r));
    EXPECT_LE(r, 150.0);  // the link rate
  }
}

TEST(SamplerTest, SamplesOnConfiguredPeriod) {
  Fixture f;
  Sampler sampler{f.sim, queue_length_of(f.net.dest_port(f.dest)),
                  Time::ms(1)};
  f.net.start_all(Time::zero(), Time::zero());
  f.sim.run_until(Time::ms(50));
  // One sample at t=0 plus one per ms.
  EXPECT_GE(sampler.samples().size(), 50u);
  EXPECT_LE(sampler.samples().size(), 52u);
  EXPECT_EQ(sampler.samples()[0].time, Time::zero());
  EXPECT_EQ(sampler.samples()[1].time, Time::ms(1));
}

TEST(SamplerTest, TracksControllerEstimate) {
  Fixture f;
  Sampler sampler{f.sim,
                  fair_share_of(f.net.dest_port(f.dest).controller()),
                  Time::ms(1)};
  f.net.start_all(Time::zero(), Time::zero());
  f.sim.run_until(Time::ms(300));
  ASSERT_GT(sampler.samples().size(), 100u);
  // Converged near u*C/3 by the end.
  EXPECT_NEAR(sampler.samples().back().value / 1e6, 47.5, 3.0);
  // First sample is the initial MACR (8.5).
  EXPECT_NEAR(sampler.samples()[0].value / 1e6, 8.5, 0.1);
}

}  // namespace
}  // namespace phantom::exp
