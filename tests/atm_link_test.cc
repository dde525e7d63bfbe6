// atm::Link as a delay line: cells on the wire wait in a ring inside the
// shared LinkState and leave it, oldest first, on lane events.
#include "atm/link.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "atm/cell.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace phantom::atm {
namespace {

using sim::Rate;
using sim::Simulator;
using sim::Time;

struct Recorder final : CellSink {
  void receive_cell(Cell cell) override { cells.push_back(cell); }
  std::vector<Cell> cells;
};

TEST(DelayLineLinkTest, RingMatchesInFlightAfterEveryEventUnderFaults) {
  Simulator sim{11};
  Recorder sink;
  Link link{sim, Time::us(1), sink};
  LinkState& st = *link.state();

  // A cell every 100 ns for 40 us, every fourth one an RM cell, while
  // the fault model cycles through outage, Gilbert–Elliott burst loss,
  // RM-targeted loss and RM corruption.
  int sent = 0;
  std::function<void()> feed = [&] {
    Cell cell = sent % 4 == 0 ? Cell::forward_rm(1, Rate::mbps(50),
                                                 Rate::mbps(100))
                              : Cell::data(1);
    ++sent;
    link.deliver(cell);
    if (sim.now() < Time::us(40)) sim.schedule(Time::ns(100), feed);
  };
  sim.schedule(Time::zero(), feed);
  sim.schedule_at(Time::us(5), [&] { st.down = true; });
  sim.schedule_at(Time::us(7), [&] { st.down = false; });
  sim.schedule_at(Time::us(10), [&] {
    st.burst_enabled = true;
    st.burst_p_good_bad = 0.3;
    st.burst_p_bad_good = 0.3;
    st.burst_loss_bad = 0.8;
  });
  sim.schedule_at(Time::us(18), [&] { st.burst_enabled = false; });
  sim.schedule_at(Time::us(20), [&] { st.rm_loss = 0.5; });
  sim.schedule_at(Time::us(26), [&] { st.rm_loss = 0.0; });
  sim.schedule_at(Time::us(28), [&] { st.rm_corrupt = 1.0; });
  sim.schedule_at(Time::us(34), [&] { st.rm_corrupt = 0.0; });

  std::uint64_t checked = 0;
  sim::RunGuard guard;
  guard.progress_every = 1;
  guard.on_progress = [&](std::uint64_t) {
    ++checked;
    ASSERT_EQ(st.delay_line_cells(), st.in_flight()) << "at " << sim.now().to_string();
  };
  EXPECT_EQ(sim.run_guarded(guard), sim::RunOutcome::kDrained);

  EXPECT_GT(checked, 400u);
  EXPECT_EQ(st.delay_line_cells(), 0u);
  EXPECT_EQ(st.in_flight(), 0u);
  EXPECT_EQ(st.offered, static_cast<std::uint64_t>(sent));
  EXPECT_EQ(st.delivered, sink.cells.size());
  // Every fault actually fired, so the check above covered each path.
  EXPECT_GT(st.lost_outage, 0u);
  EXPECT_GT(st.lost_burst, 0u);
  EXPECT_GT(st.lost_rm, 0u);
  EXPECT_GT(st.corrupted_rm, 0u);
}

TEST(DelayLineLinkTest, CorruptedRmCopyIsTheOneDelivered) {
  Simulator sim{3};
  Recorder sink;
  Link link{sim, Time::us(2), sink};
  link.state()->rm_corrupt = 1.0;
  const Cell sent = Cell::forward_rm(4, Rate::mbps(50), Rate::mbps(100));
  link.deliver(sent);
  link.deliver(Cell::data(4));  // data cells pass untouched
  sim.run();
  ASSERT_EQ(sink.cells.size(), 2u);
  EXPECT_EQ(link.state()->corrupted_rm, 1u);
  // The uniform ER draw over [0, 200 Mb/s] cannot land exactly on 100.
  EXPECT_NE(sink.cells[0].er, sent.er);
  EXPECT_EQ(sink.cells[0].vc, 4);
  EXPECT_EQ(sink.cells[1].kind, CellKind::kData);
}

TEST(DelayLineLinkTest, CellsLeaveInOrderAfterTheDelay) {
  Simulator sim;
  struct Stamped final : CellSink {
    explicit Stamped(const Simulator& s) : sim{&s} {}
    void receive_cell(Cell cell) override {
      vcs.push_back(cell.vc);
      at.push_back(sim->now());
    }
    const Simulator* sim;
    std::vector<int> vcs;
    std::vector<Time> at;
  } sink{sim};
  Link link{sim, Time::us(3), sink};
  EXPECT_EQ(link.delay(), Time::us(3));
  for (int i = 0; i < 5; ++i) {
    sim.schedule(Time::us(i), [&link, i] { link.deliver(Cell::data(i)); });
  }
  sim.run();
  ASSERT_EQ(sink.vcs.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(sink.vcs[i], static_cast<int>(i));
    EXPECT_EQ(sink.at[i], Time::us(static_cast<std::int64_t>(i) + 3));
  }
}

TEST(DelayLineLinkTest, DestroyingOneCopyStillDeliversInFlightCells) {
  Simulator sim;
  Recorder sink;
  auto original = std::make_unique<Link>(sim, Time::us(1), sink);
  const Link copy = *original;
  for (int i = 0; i < 3; ++i) original->deliver(Cell::data(i));
  original.reset();
  EXPECT_EQ(copy.state()->in_flight(), 3u);
  sim.run();
  EXPECT_EQ(sink.cells.size(), 3u);
  EXPECT_EQ(copy.cells_delivered(), 3u);
}

TEST(DelayLineLinkTest, DestroyingEveryCopyStillDeliversInFlightCells) {
  // The simulator retains the link state, so the delivery events never
  // reach a dead ring.
  Simulator sim;
  Recorder sink;
  {
    Link link{sim, Time::us(1), sink};
    link.deliver(Cell::data(7));
    link.deliver(Cell::data(8));
  }
  sim.run();
  ASSERT_EQ(sink.cells.size(), 2u);
  EXPECT_EQ(sink.cells[0].vc, 7);
  EXPECT_EQ(sink.cells[1].vc, 8);
}

TEST(DelayLineLinkTest, DestroyingSimulatorWithCellsInFlightIsClean) {
  // Both destruction orders, with cells still on the wire: the sanitizer
  // builds catch a leak or a touch of freed memory here.
  Recorder sink;
  {
    auto sim = std::make_unique<Simulator>();
    Link link{*sim, Time::ms(1), sink};
    for (int i = 0; i < 100; ++i) link.deliver(Cell::data(i));
    sim->run_until(Time::us(10));
    sim.reset();  // the link outlives its simulator, unused
  }
  {
    auto sim = std::make_unique<Simulator>();
    auto link = std::make_unique<Link>(*sim, Time::ms(1), sink);
    for (int i = 0; i < 100; ++i) link->deliver(Cell::data(i));
    link.reset();
    sim.reset();
  }
  EXPECT_TRUE(sink.cells.empty());
}

}  // namespace
}  // namespace phantom::atm
