// perfbench: runs one workload for a fixed time and prints one JSON
// line with its metrics, the output check and the run manifest.
//
//   perfbench --workload abr_scale|chaos_armored|tcp_mechanisms
//             --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with nothing but the spans
// around simulations; --trace 1 interleaves untraced passes with
// traced ones (every controller / queue-policy hook timed) and reports
// the per-layer metrics. run.py builds this binary and formats its
// output; see README.md for the metric definitions.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "build_info.h"
#include "obs/event_log.h"
#include "perfbench.h"
#include "sim/simulator.h"

namespace phantom::perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = val;
      continue;
    }
    if (key == "--seed") {
      o.seed = std::strtoull(val, &end, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(val, &end);
    } else if (key == "--trace") {
      o.trace = std::strtol(val, &end, 10) != 0;
    } else {
      return false;
    }
    if (end == val || *end != '\0') return false;
  }
  return argc % 2 == 1 && o.seconds > 0.0 &&
         (o.workload == "abr_scale" || o.workload == "chaos_armored" ||
          o.workload == "tcp_mechanisms");
}

// ---------------------------------------------------------------------
// Summaries.

struct Summary {
  double median = 0.0, q1 = 0.0, q3 = 0.0;
  std::size_t n = 0;
};

[[nodiscard]] double quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

[[nodiscard]] Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.median = quantile(v, 0.5);
  s.q1 = quantile(v, 0.25);
  s.q3 = quantile(v, 0.75);
  return s;
}

template <class F>
[[nodiscard]] Summary over(const std::vector<Pass>& passes, F f) {
  std::vector<double> v;
  for (const Pass& p : passes) v.push_back(f(p));
  return summarize(std::move(v));
}

[[nodiscard]] double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

[[nodiscard]] double ns_per_cell(const Pass& p) {
  return ratio(p.run_s * 1e9, static_cast<double>(p.cells));
}

/// Median over `passes` of `seconds` per `count`, in ms.
[[nodiscard]] double ms_per(const std::vector<Pass>& passes,
                            double Pass::*seconds, std::uint64_t Pass::*count) {
  return over(passes, [&](const Pass& p) {
           return ratio(p.*seconds * 1e3, static_cast<double>(p.*count));
         })
      .median;
}

/// Host ns inside `h`'s hooks, less the clock reads of its spans.
[[nodiscard]] double hook_ns(const HookStats& h, double span_overhead_ns) {
  return std::max(0.0, static_cast<double>(h.ns) -
                           static_cast<double>(h.calls) * span_overhead_ns);
}

// ---------------------------------------------------------------------
// JSON output.

class Json {
 public:
  void open(char c) {
    value();
    out_ += c;
    first_ = true;
  }
  void close(char c) {
    out_ += c;
    first_ = false;
  }
  void key(const std::string& k) {
    value();
    quote(k);
    out_ += ':';
    first_ = true;
  }
  void str(const std::string& s) {
    value();
    quote(s);
  }
  void num(double v) {
    value();
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ += buf;
  }
  void boolean(bool b) {
    value();
    out_ += b ? "true" : "false";
  }
  [[nodiscard]] const std::string& text() const { return out_; }

 private:
  void value() {
    if (!first_) out_ += ',';
    first_ = false;
  }
  void quote(const std::string& s) {
    out_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out_ += buf;
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }
  std::string out_;
  bool first_ = true;
};

/// Metrics in print order: name -> (value, unit), with optional spread.
struct Metric {
  std::string name;
  double value;
  std::string unit;
  Summary spread;
};

// ---------------------------------------------------------------------
// Measurement.

using PassFn = std::function<Pass(bool traced)>;

struct Run {
  std::vector<Pass> untraced;  ///< timed passes (the warm-up excluded)
  std::vector<Pass> traced;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  std::uint64_t digest = 0;
  bool have_digest = false;

  /// Counts `p`'s operations and checks its simulated results against
  /// every earlier pass with the same `what`.
  void absorb(const Pass& p, std::uint64_t& reference, bool& have,
              const std::string& what) {
    attempted += p.ops;
    failed += p.failed;
    for (const std::string& e : p.errors) {
      if (errors.size() < 8) errors.push_back(e);
    }
    if (!have) {
      reference = p.digest.value();
      have = true;
    } else if (p.digest.value() != reference) {
      ++failed;
      if (errors.size() < 8) errors.push_back("sim_digest of " + what +
                       " differs between repetitions or between traced and "
                       "untraced passes");
    }
  }
  void absorb(const Pass& p) { absorb(p, digest, have_digest, "the workload"); }
};

[[nodiscard]] double elapsed_s(std::int64_t since) {
  return static_cast<double>(now_ns() - since) * 1e-9;
}

/// Untraced passes for the whole budget (at least `min_passes`), after
/// one warm-up pass.
void measure_untraced(const PassFn& fn, double seconds,
                      std::size_t min_passes, Run& run) {
  run.absorb(fn(false));
  const std::int64_t start = now_ns();
  while (run.untraced.size() < min_passes || elapsed_s(start) < seconds) {
    run.untraced.push_back(fn(false));
    run.absorb(run.untraced.back());
  }
}

/// Untraced and traced passes, alternating, after one warm-up pass.
void measure_interleaved(const PassFn& fn, double seconds, Run& run) {
  run.absorb(fn(false));
  const std::int64_t start = now_ns();
  while (run.traced.size() < 2 || elapsed_s(start) < seconds) {
    run.untraced.push_back(fn(false));
    run.absorb(run.untraced.back());
    run.traced.push_back(fn(true));
    run.absorb(run.traced.back());
  }
}

/// The armor-tax table: the fault-free chaos_armored scenario with all
/// layers on, with each layer left off in turn, and traced with all
/// layers on. Rounds run the variants back to back, and a layer's tax is
/// the median over rounds of the paired difference, so the host's slow
/// speed drift cancels.
struct ArmorTable {
  static constexpr const char* kLayers[] = {"policing", "overload", "reaper",
                                            "eventlog", "monitor"};
  std::vector<Pass> all_on, traced;
  std::vector<Pass> without[5];

  [[nodiscard]] double tax_ns_per_cell(int layer) const {
    std::vector<double> diffs;
    for (std::size_t r = 0; r < all_on.size(); ++r) {
      diffs.push_back(ns_per_cell(all_on[r]) - ns_per_cell(without[layer][r]));
    }
    return summarize(std::move(diffs)).median;
  }
};

void measure_armor(std::uint64_t seed, double seconds, Run& run,
                   ArmorTable& table) {
  std::uint64_t ref_on = 0, ref_off[5] = {};
  bool have_on = false, have_off[5] = {};
  const auto round = [&](ArmorTable& into) {
    into.all_on.push_back(run_armored_scenario(seed, {}, false));
    run.absorb(into.all_on.back(), ref_on, have_on, "the armored scenario");
    for (int l = 0; l < 5; ++l) {
      ArmorLayers layers;
      bool* off[] = {&layers.policing, &layers.overload, &layers.reaper,
                     &layers.eventlog, &layers.monitor};
      *off[l] = false;
      into.without[l].push_back(run_armored_scenario(seed, layers, false));
      run.absorb(into.without[l].back(), ref_off[l], have_off[l],
                 std::string{"the armored scenario without "} +
                     ArmorTable::kLayers[l]);
    }
    into.traced.push_back(run_armored_scenario(seed, {}, true));
    run.absorb(into.traced.back(), ref_on, have_on, "the armored scenario");
  };
  ArmorTable warm_up;
  round(warm_up);
  const std::int64_t start = now_ns();
  while (table.all_on.size() < 3 || elapsed_s(start) < seconds) round(table);
}

// ---------------------------------------------------------------------
// Metrics.

/// This process's resident-set high-water in MB. ru_maxrss would do,
/// but Linux carries it across execve, so it would report the parent
/// process's footprint; VmHWM covers only this program's image.
[[nodiscard]] double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  long kib = 0;
  if (f != nullptr) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
  }
  if (kib <= 0) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    kib = ru.ru_maxrss;
  }
  return static_cast<double>(kib) / 1024.0;
}

std::vector<Metric> end_to_end(const Run& run) {
  const std::vector<Pass>& u = run.untraced;
  const Pass& last = u.back();
  const Summary wall = over(u, [](const Pass& p) { return p.run_s; });
  const Summary setup = over(u, [](const Pass& p) { return p.setup_s; });
  const Summary npc = over(u, ns_per_cell);
  return {
      {"wall_s", wall.median, "s", wall},
      {"setup_s", setup.median, "s", setup},
      {"ns_per_cell", npc.median, "ns", npc},
      {"peak_rss_mb", peak_rss_mb(), "MB", {}},
      {"ops_failed_frac",
       ratio(static_cast<double>(run.failed), static_cast<double>(run.attempted)),
       "fraction", {}},
      {"rate_error", last.rate_error, "fraction", {}},
      {"max_queue_cells", last.max_queue, "cells", {}},
  };
}

/// Per-layer metrics. On chaos_armored the sim.self / core.* / obs
/// figures come from the fault-free armored scenario (`armor`): a
/// wrapping controller inside chaos::run_trial cannot be handed the
/// trial's event log, so it would change the chaos report.
std::vector<Metric> per_layer(const Run& run, const ArmorTable* armor,
                              std::uint64_t heap_fallbacks,
                              double span_overhead) {
  const Pass& c = run.untraced.back();  // counts: identical every pass
  const std::vector<Pass>& traced = armor ? armor->traced : run.traced;
  const std::vector<Pass>& plain = armor ? armor->all_on : run.untraced;
  const double cells = static_cast<double>(c.cells);
  const auto per_cell = [&](double v) { return ratio(v, cells); };

  CoreHooks core;
  HookStats policy;
  for (const Pass& p : traced) {
    core.add(p.core);
    policy.add(p.policy);
  }
  const Pass& t = traced.back();
  const auto ns_per_call = [&](const HookStats& h) {
    return ratio(hook_ns(h, span_overhead), static_cast<double>(h.calls));
  };
  // Hook time comes from traced passes, less the spans' own clock reads;
  // the sim.run time it is a share of comes from untraced ones.
  const double plain_run_ns =
      over(plain, [](const Pass& p) { return p.run_s; }).median * 1e9;
  const double core_ns =
      over(traced, [&](const Pass& p) {
        return hook_ns(p.core.total(), span_overhead);
      }).median;
  const double policy_ns =
      over(traced, [&](const Pass& p) {
        return hook_ns(p.policy, span_overhead);
      }).median;
  const double overhead =
      ratio(over(traced, [](const Pass& p) { return p.run_s; }).median * 1e9,
            plain_run_ns) -
      1.0;
  const bool tcp = c.atm.link_offered == 0;
  const double events_per_cell = ratio(static_cast<double>(c.events),
                                       static_cast<double>(c.event_cells));

  std::vector<Metric> m = {
      {"sim.events", static_cast<double>(c.events), "events", {}},
      {"sim.events_per_cell", events_per_cell, "events/cell", {}},
      {"sim.peak_pending", static_cast<double>(c.peak_pending), "events", {}},
      {"sim.heap_fallbacks", static_cast<double>(heap_fallbacks), "count", {}},
      {"sim.self_ns_per_event",
       ratio(plain_run_ns - core_ns - policy_ns, static_cast<double>(t.events)),
       "ns", {}},
      {"atm.link.hops_per_cell", per_cell(static_cast<double>(c.atm.link_offered)),
       "hops/cell", {}},
      {"atm.link.cells_lost", static_cast<double>(c.atm.link_lost), "cells", {}},
      {"atm.port.cells_accepted", static_cast<double>(c.atm.port_accepted),
       "cells", {}},
      {"atm.port.cells_dropped", static_cast<double>(c.atm.port_dropped),
       "cells", {}},
      {"atm.switch.rm_sanitized", static_cast<double>(c.atm.rm_sanitized),
       "cells", {}},
      {"atm.switch.unrouted", static_cast<double>(c.atm.unrouted), "cells", {}},
      {"atm.policer.dropped", static_cast<double>(c.atm.policer_dropped),
       "cells", {}},
      {"atm.buffer.epd_frames", static_cast<double>(c.atm.epd_frames),
       "frames", {}},
      {"atm.buffer.shed_cells", static_cast<double>(c.atm.shed_cells), "cells",
       {}},
      {"atm.cac.refused", static_cast<double>(c.atm.cac_refused), "setups", {}},
      {"atm.reaper.vcs_reaped", static_cast<double>(c.atm.vcs_reaped), "vcs",
       {}},
      {"core.hook_calls_per_cell",
       ratio(static_cast<double>(t.core.total().calls),
             static_cast<double>(t.cells)),
       "calls/cell", {}},
      {"core.on_cell_accepted.ns_per_call", ns_per_call(core.cell_accepted),
       "ns", {}},
      {"core.on_cell_transmitted.ns_per_call",
       ns_per_call(core.cell_transmitted), "ns", {}},
      {"core.on_forward_rm.ns_per_call", ns_per_call(core.forward_rm), "ns", {}},
      {"core.on_backward_rm.ns_per_call", ns_per_call(core.backward_rm), "ns",
       {}},
      {"core.share", ratio(core_ns, plain_run_ns), "fraction", {}},
      {"tcp.policy.calls", static_cast<double>(t.policy.calls), "calls", {}},
      {"tcp.policy.ns_per_call", ns_per_call(policy), "ns", {}},
      {"tcp.segments_delivered", tcp ? cells : 0.0, "segments", {}},
      {"tcp.events_per_segment", tcp ? events_per_cell : 0.0,
       "events/segment", {}},
      {"tcp.drops", static_cast<double>(c.tcp_drops), "packets", {}},
      {"topo.build_ms", ms_per(run.untraced, &Pass::setup_s, &Pass::topologies),
       "ms", {}},
      {"chaos.trial_setup_ms",
       ms_per(run.untraced, &Pass::trial_setup_s, &Pass::trials), "ms", {}},
      {"chaos.trial_run_ms",
       ms_per(run.untraced, &Pass::trial_run_s, &Pass::trials), "ms", {}},
      {"chaos.baseline_ms",
       ms_per(run.untraced, &Pass::baseline_s, &Pass::baselines), "ms", {}},
  };
  for (const char* v : {"pass", "watchdog", "invariant", "no-reconverge",
                        "differential", "crash", "process-crash"}) {
    const auto it = c.verdicts.find(v);
    m.push_back({std::string{"chaos.verdicts."} + v,
                 it == c.verdicts.end() ? 0.0 : static_cast<double>(it->second),
                 "trials",
                 {}});
  }
  m.push_back({"obs.trace_overhead_frac", overhead, "fraction", {}});
  for (int l = 0; l < 5; ++l) {
    m.push_back({std::string{"armor."} + ArmorTable::kLayers[l] + ".ns_per_cell",
                 armor != nullptr ? armor->tax_ns_per_cell(l) : 0.0, "ns", {}});
  }
  return m;
}

// ---------------------------------------------------------------------
// Manifest.

[[nodiscard]] std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  for (unsigned int leaf = 0; leaf < 3; ++leaf) {
    if (__get_cpuid(0x80000002U + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                    &regs[4 * leaf + 2], &regs[4 * leaf + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s = brand;
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
#else
  return "unknown";
#endif
}

void write_metrics(Json& j, const std::vector<Metric>& ms) {
  j.open('{');
  for (const Metric& m : ms) {
    j.key(m.name);
    j.open('{');
    j.key("value");
    j.num(m.value);
    j.key("unit");
    j.str(m.unit);
    if (m.spread.n > 0) {
      j.key("q1");
      j.num(m.spread.q1);
      j.key("q3");
      j.num(m.spread.q3);
      j.key("n");
      j.num(static_cast<double>(m.spread.n));
    }
    j.close('}');
  }
  j.close('}');
}

}  // namespace
}  // namespace phantom::perfbench

int main(int argc, char** argv) {
  using namespace phantom::perfbench;
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload abr_scale|chaos_armored|"
                 "tcp_mechanisms --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  const std::uint64_t seed = opt.seed;
  PassFn fn;
  if (opt.workload == "abr_scale") {
    fn = [seed](bool traced) { return run_abr_scale(seed, traced); };
  } else if (opt.workload == "chaos_armored") {
    fn = [seed](bool) { return run_chaos_armored(seed); };
  } else {
    fn = [seed](bool traced) { return run_tcp_mechanisms(seed, traced); };
  }

  phantom::sim::EventQueue::Callback::reset_heap_fallbacks();
  Run run;
  ArmorTable armor;
  const bool chaos = opt.workload == "chaos_armored";
  if (!opt.trace) {
    measure_untraced(fn, opt.seconds, 3, run);
  } else if (chaos) {
    measure_untraced(fn, opt.seconds * 0.5, 1, run);
    measure_armor(seed, opt.seconds * 0.5, run, armor);
  } else {
    measure_interleaved(fn, opt.seconds, run);
  }
  const std::uint64_t heap_fallbacks =
      phantom::sim::EventQueue::Callback::heap_fallbacks();

  Json j;
  j.open('{');
  j.key("workload");
  j.str(opt.workload);
  j.key("seed");
  j.num(static_cast<double>(seed));
  j.key("trace");
  j.boolean(opt.trace);
  j.key("passes");
  j.num(static_cast<double>(run.untraced.size() + run.traced.size()));
  j.key("attempted");
  j.num(static_cast<double>(run.attempted));
  j.key("failed");
  j.num(static_cast<double>(run.failed));
  j.key("correct");
  j.boolean(run.failed == 0 && run.errors.empty());
  j.key("errors");
  j.open('[');
  for (const std::string& e : run.errors) j.str(e);
  j.close(']');
  char digest[24];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(run.digest));
  j.key("sim_digest");
  j.str(digest);
  j.key("manifest");
  j.open('{');
  j.key("compiler");
  j.str(PERFBENCH_COMPILER);
  j.key("cxx_flags");
  j.str(PERFBENCH_CXX_FLAGS);
  j.key("build_type");
  j.str(PERFBENCH_BUILD_TYPE);
  j.key("phantom_disable_obs");
  j.boolean(!phantom::obs::kObsEnabled);
  j.key("cpu_model");
  j.str(cpu_model());
  j.key("cores");
  j.num(static_cast<double>(std::thread::hardware_concurrency()));
  j.key("seed");
  j.num(static_cast<double>(seed));
  j.close('}');
  j.key("end_to_end");
  write_metrics(j, end_to_end(run));
  if (opt.trace) {
    j.key("per_layer");
    write_metrics(j, per_layer(run, chaos ? &armor : nullptr, heap_fallbacks,
                               span_overhead_ns()));
  }
  j.close('}');
  std::printf("%s\n", j.text().c_str());
  return 0;
}
