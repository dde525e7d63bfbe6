// Propagation-delay pipe between network elements.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "atm/cell.h"
#include "sim/ring.h"
#include "sim/simulator.h"

namespace phantom::atm {

/// Fault model and cumulative statistics of one physical link hop.
///
/// Every copy of a Link shares one LinkState (links are value types, so
/// without sharing each holder's copy would keep private counters and
/// aggregate loss totals would be wrong). The fault subsystem
/// (fault::FaultInjector) mutates the model fields mid-run: outages,
/// Gilbert–Elliott loss bursts and RM-cell-targeted faults. The cells
/// on the wire live here too, beside the counters that account for
/// them.
struct LinkState {
  // --- fault model (mutable at runtime) ---
  bool down = false;  ///< outage: every cell offered is dropped
  double loss = 0.0;  ///< independent per-cell loss probability

  /// Gilbert–Elliott two-state burst-loss model: the chain steps once
  /// per offered cell between Good and Bad, each state with its own
  /// loss probability. Captures the correlated loss runs that
  /// independent Bernoulli loss cannot produce.
  bool burst_enabled = false;
  bool burst_bad = false;         ///< current chain state
  double burst_p_good_bad = 0.0;  ///< P(Good -> Bad) per cell
  double burst_p_bad_good = 0.0;  ///< P(Bad -> Good) per cell
  double burst_loss_good = 0.0;   ///< loss probability while Good
  double burst_loss_bad = 0.0;    ///< loss probability while Bad

  /// RM-cell-only faults: the control loop's feedback path fails while
  /// data cells flow untouched (lost RM cells stall feedback; corrupted
  /// ones carry garbage ER/CI the sources must survive).
  double rm_loss = 0.0;     ///< extra loss applied to RM cells only
  double rm_corrupt = 0.0;  ///< probability an RM cell's fields are scrambled

  // --- cumulative statistics (shared across all copies) ---
  std::uint64_t offered = 0;       ///< deliver() calls
  std::uint64_t delivered = 0;     ///< handed to the sink
  std::uint64_t lost_random = 0;   ///< independent Bernoulli loss
  std::uint64_t lost_outage = 0;   ///< dropped while down
  std::uint64_t lost_burst = 0;    ///< Gilbert–Elliott loss
  std::uint64_t lost_rm = 0;       ///< RM-targeted loss
  std::uint64_t corrupted_rm = 0;  ///< RM cells delivered with scrambled fields

  [[nodiscard]] std::uint64_t lost() const {
    return lost_random + lost_outage + lost_burst + lost_rm;
  }
  /// Cells scheduled for delivery but still propagating.
  [[nodiscard]] std::uint64_t in_flight() const {
    return offered - delivered - lost();
  }
  /// Cells held in the delay line; always equal to in_flight().
  [[nodiscard]] std::size_t delay_line_cells() const { return line_.size(); }

 private:
  friend class Link;

  /// The delivery event: the head of the delay line has propagated.
  void arrive() {
    const Cell cell = line_.front();
    line_.pop_front();
    ++delivered;
    sink_->receive_cell(cell);
  }

  CellSink* sink_ = nullptr;
  /// Cells on the wire, oldest first. The link's delay is constant, so
  /// cells leave in the order they entered and each delivery event
  /// takes the head.
  sim::Ring<Cell> line_;
};

/// Unidirectional link: delivers cells to `sink` after a fixed
/// propagation delay. Serialization (transmission) time is modelled by
/// the OutputPort feeding the link, so Link itself is pure latency; this
/// matches the classic DES decomposition and lets sources with their own
/// pacing connect directly.
///
/// A constant delay makes the link a FIFO delay line: cells on the wire
/// wait in a ring inside LinkState, and each hop schedules a one-pointer
/// delivery event on the simulator's lane for the delay, which pops the
/// ring's head when it fires (DESIGN.md §11).
///
/// Links are value types; all copies share one LinkState, so loss
/// accounting stays aggregate and fault transitions applied through any
/// copy (or through a retained state() handle) affect the physical hop.
/// The simulator retains the LinkState too, so cells in flight are
/// delivered even if every copy of the Link is gone.
class Link {
 public:
  Link(sim::Simulator& sim, sim::Time delay, CellSink& sink,
       double loss_probability = 0.0)
      : sim_{&sim},
        lane_{sim.lane(delay)},
        state_{std::make_shared<LinkState>()} {
    assert(loss_probability >= 0.0 && loss_probability <= 1.0);
    state_->loss = loss_probability;
    state_->sink_ = &sink;
    sim.retain(state_);
  }

  void deliver(Cell cell) {
    LinkState& st = *state_;
    ++st.offered;
    if (st.down) {
      ++st.lost_outage;
      return;
    }
    // Each random draw is gated on its feature being enabled so that
    // runs without faults consume exactly the same rng stream as before
    // the fault subsystem existed (seed-for-seed reproducibility).
    if (st.burst_enabled) {
      const double p_flip =
          st.burst_bad ? st.burst_p_bad_good : st.burst_p_good_bad;
      if (p_flip > 0.0 && sim_->rng().bernoulli(p_flip)) {
        st.burst_bad = !st.burst_bad;
      }
      const double p_loss = st.burst_bad ? st.burst_loss_bad : st.burst_loss_good;
      if (p_loss > 0.0 && sim_->rng().bernoulli(p_loss)) {
        ++st.lost_burst;
        return;
      }
    }
    if (st.loss > 0.0 && sim_->rng().bernoulli(st.loss)) {
      ++st.lost_random;
      return;
    }
    if (cell.is_rm()) {
      if (st.rm_loss > 0.0 && sim_->rng().bernoulli(st.rm_loss)) {
        ++st.lost_rm;
        return;
      }
      if (st.rm_corrupt > 0.0 && sim_->rng().bernoulli(st.rm_corrupt)) {
        corrupt_rm(cell);
      }
    }
    st.line_.push_back(cell);
    sim_->schedule(lane_, sim::bind_member<&LinkState::arrive>(&st));
  }

  [[nodiscard]] sim::Time delay() const { return lane_.delay(); }
  [[nodiscard]] std::uint64_t cells_lost() const { return state_->lost(); }
  [[nodiscard]] std::uint64_t cells_delivered() const {
    return state_->delivered;
  }

  /// Shared fault/statistics block; retain it to drive faults or read
  /// aggregate counters after the Link value has been copied around.
  [[nodiscard]] const std::shared_ptr<LinkState>& state() const {
    return state_;
  }

 private:
  void corrupt_rm(Cell& cell) {
    ++state_->corrupted_rm;
    // Scramble the feedback fields: ER anywhere in [0, 2x its value]
    // (an *increase* exercises the source's PCR clamp) and CI flipped
    // half the time.
    cell.er = sim::Rate::bps(
        sim_->rng().uniform(0.0, 2.0 * cell.er.bits_per_sec() + 1.0));
    if (sim_->rng().bernoulli(0.5)) cell.ci = !cell.ci;
  }

  sim::Simulator* sim_;
  sim::Lane lane_;
  std::shared_ptr<LinkState> state_;
};

}  // namespace phantom::atm
