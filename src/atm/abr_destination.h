// ABR destination end system: RM-cell turnaround + EFCI latching.
#pragma once

#include <cstdint>
#include <vector>

#include "atm/cell.h"
#include "atm/link.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace phantom::atm {

/// Destination end system. Forward RM cells are turned around as
/// backward RM cells onto the reverse path. Per TM 4.0, the destination
/// latches the EFCI state of the most recent data cell of each VC and
/// copies it into the CI bit of the next turned-around RM cell — this is
/// the path by which EFCI marking at switches reaches the source.
///
/// Per-VC state here is fine: a destination only tracks its *own*
/// sessions; the constant-space requirement applies to switch ports.
/// The state lives in a dense table indexed by VC id, so a cell with a
/// negative id (Cell::vc unset) throws std::invalid_argument.
class AbrDestination final : public CellSink {
 public:
  AbrDestination(sim::Simulator& sim, Link to_network)
      : sim_{&sim}, link_{to_network} {
    (void)sim_;
  }

  AbrDestination(const AbrDestination&) = delete;
  AbrDestination& operator=(const AbrDestination&) = delete;

  void receive_cell(Cell cell) override;

  [[nodiscard]] std::uint64_t data_cells_received(int vc) const {
    const VcState* st = find_vc(vc);
    return st == nullptr ? 0 : st->data_cells;
  }
  [[nodiscard]] std::uint64_t total_data_cells() const { return total_data_; }
  [[nodiscard]] std::uint64_t rm_cells_turned() const { return rm_turned_; }

  /// AAL5 frame accounting (cells arrive in order on a VC, so a frame
  /// closes when its EOM cell arrives or when the next frame's first
  /// cell does): a frame is good only if the EOM arrived and every one
  /// of its `frame_len` cells did. A switch dropping mid-frame without
  /// PPD corrupts the frame even though most of its cells consumed link
  /// capacity — the frame-level goodput the overload figures plot.
  [[nodiscard]] std::uint64_t frames_good(int vc) const {
    const VcState* st = find_vc(vc);
    return st == nullptr ? 0 : st->frames_good;
  }
  [[nodiscard]] std::uint64_t frames_corrupted(int vc) const {
    const VcState* st = find_vc(vc);
    return st == nullptr ? 0 : st->frames_corrupted;
  }
  [[nodiscard]] std::uint64_t total_frames_good() const {
    return total_frames_good_;
  }
  [[nodiscard]] std::uint64_t total_frames_corrupted() const {
    return total_frames_corrupted_;
  }
  /// Reverse access link carrying turned-around RM cells back into the
  /// network (shared fault state, see LinkState).
  [[nodiscard]] Link& link() { return link_; }
  [[nodiscard]] const Link& link() const { return link_; }

  /// Attaches a histogram (nullptr detaches) that observes the
  /// end-to-end delay in ms of every later data cell — the paper's
  /// "moderate queue" claim, expressed in time. A destination with no
  /// histogram attached records no distribution. The histogram must
  /// outlive the attachment.
  void set_delay_sink(obs::Histogram* hist) { delays_ = hist; }

  /// Mean end-to-end delay (ms) of a VC's data cells; zero for unknown VCs.
  [[nodiscard]] double mean_delay_ms(int vc) const {
    const VcState* st = find_vc(vc);
    return st == nullptr || st->data_cells == 0
               ? 0.0
               : st->delay_sum_ms / static_cast<double>(st->data_cells);
  }

 private:
  struct VcState {
    bool efci_latched = false;
    std::uint64_t data_cells = 0;
    double delay_sum_ms = 0.0;
    bool frame_open = false;        // cells of cur_frame_id seen, no EOM yet
    std::uint32_t cur_frame_id = 0;
    std::uint32_t cur_frame_cells = 0;
    std::uint64_t frames_good = 0;
    std::uint64_t frames_corrupted = 0;
  };

  void account_frame(VcState& st, const Cell& cell);
  [[nodiscard]] const VcState* find_vc(int vc) const {
    const auto i = static_cast<std::size_t>(vc);  // negative -> huge
    return i < per_vc_.size() ? &per_vc_[i] : nullptr;
  }
  /// The VC's state, growing the table to reach it.
  [[nodiscard]] VcState& vc_state(int vc);

  sim::Simulator* sim_;
  Link link_;
  std::vector<VcState> per_vc_;  // indexed by VC id
  std::uint64_t total_data_ = 0;
  std::uint64_t rm_turned_ = 0;
  std::uint64_t total_frames_good_ = 0;
  std::uint64_t total_frames_corrupted_ = 0;
  obs::Histogram* delays_ = nullptr;
};

}  // namespace phantom::atm
