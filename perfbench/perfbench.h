// The benchmark's workloads and what one pass of them measures.
//
// Everything is observed from outside the simulator: host time comes
// from spans the benchmark opens around calls into public functions
// (and around every PortController / QueuePolicy hook, through
// decorating factories, when a pass is traced); simulated outputs come
// from public accessors.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace phantom::perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Calls into one hook and the host time they took.
struct HookStats {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;

  void add(const HookStats& o) {
    calls += o.calls;
    ns += o.ns;
  }
};

/// The PortController hooks a traced pass times.
struct CoreHooks {
  HookStats cell_accepted, cell_dropped, cell_transmitted, forward_rm,
      backward_rm, mark_efci;

  [[nodiscard]] HookStats total() const {
    HookStats t;
    for (const HookStats* h : {&cell_accepted, &cell_dropped,
                               &cell_transmitted, &forward_rm, &backward_rm,
                               &mark_efci}) {
      t.add(*h);
    }
    return t;
  }
  void add(const CoreHooks& o) {
    cell_accepted.add(o.cell_accepted);
    cell_dropped.add(o.cell_dropped);
    cell_transmitted.add(o.cell_transmitted);
    forward_rm.add(o.forward_rm);
    backward_rm.add(o.backward_rm);
    mark_efci.add(o.mark_efci);
  }
};

/// FNV-1a (64-bit) over the simulated statistics of a pass: any change
/// to a simulated number changes it, host timing never does.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);
  void add(std::string_view s);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Switch-side counters summed over every ATM simulation of a pass.
struct AtmCounters {
  std::uint64_t link_offered = 0;  ///< LinkState::offered, all hops
  std::uint64_t link_lost = 0;
  std::uint64_t port_accepted = 0;
  std::uint64_t port_dropped = 0;
  std::uint64_t rm_sanitized = 0;
  std::uint64_t unrouted = 0;
  std::uint64_t policer_dropped = 0;
  std::uint64_t epd_frames = 0;
  std::uint64_t shed_cells = 0;
  std::uint64_t cac_refused = 0;
  std::uint64_t vcs_reaped = 0;
};

/// What one pass of a workload measured. A pass runs every simulation
/// of the workload once; an operation is one simulation.
struct Pass {
  // Host time.
  double run_s = 0.0;    ///< simulating, topology build excluded
  double setup_s = 0.0;  ///< building topologies, arming faults/monitors
  std::uint64_t topologies = 0;

  // Simulated outputs.
  std::uint64_t cells = 0;  ///< delivered data cells (TCP: segments)
  double rate_error = 0.0;  ///< worst |goodput - reference| / reference
  double max_queue = 0.0;   ///< worst bottleneck queue high-water
  Digest digest;

  // Operations.
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< failed output checks, first few

  // Layers.
  std::uint64_t events = 0;
  std::uint64_t event_cells = 0;  ///< `cells` of the simulations in `events`
  std::uint64_t peak_pending = 0;
  AtmCounters atm;
  CoreHooks core;      ///< traced passes only
  HookStats policy;    ///< traced passes only
  std::uint64_t tcp_drops = 0;
  double trial_setup_s = 0.0, trial_run_s = 0.0, baseline_s = 0.0;
  std::uint64_t trials = 0, baselines = 0;
  std::map<std::string, std::uint64_t> verdicts;

  /// Records a failed operation.
  void fail(std::string why);
};

/// Host time one hook span adds to what it records (two clock reads),
/// measured on this host; subtracted from hook timings.
[[nodiscard]] double span_overhead_ns();

/// The three workloads. `seed` generates the inputs; `traced` times
/// every controller / queue-policy hook (simulated results unchanged).
[[nodiscard]] Pass run_abr_scale(std::uint64_t seed, bool traced);
[[nodiscard]] Pass run_chaos_armored(std::uint64_t seed);
[[nodiscard]] Pass run_tcp_mechanisms(std::uint64_t seed, bool traced);

/// The optional layers of the fault-free chaos_armored scenario.
struct ArmorLayers {
  bool policing = true;
  bool overload = true;
  bool reaper = true;
  bool eventlog = true;
  bool monitor = true;
};

/// One run of the fault-free chaos_armored scenario with `layers`
/// attached — the armor-tax table's unit of work.
[[nodiscard]] Pass run_armored_scenario(std::uint64_t seed,
                                        const ArmorLayers& layers,
                                        bool traced);

}  // namespace phantom::perfbench
