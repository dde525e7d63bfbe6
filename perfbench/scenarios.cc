// The benchmark's workloads, built from the simulator's public API.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "atm/port_controller.h"
#include "chaos/generator.h"
#include "chaos/runner.h"
#include "chaos/scenario.h"
#include "chaos/search.h"
#include "chaos/shrinker.h"
#include "chaos/triage.h"
#include "core/phantom_config.h"
#include "exp/factories.h"
#include "exp/probes.h"
#include "fault/invariant_monitor.h"
#include "obs/event_log.h"
#include "perfbench.h"
#include "sim/simulator.h"
#include "tcp/phantom_policies.h"
#include "tcp/tcp_network.h"
#include "topo/abr_network.h"

namespace phantom::perfbench {

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
}

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void Digest::add(std::string_view s) {
  add(static_cast<std::uint64_t>(s.size()));
  for (const char c : s) byte(static_cast<unsigned char>(c));
}

void Pass::fail(std::string why) {
  ++failed;
  if (errors.size() < 8) errors.push_back(std::move(why));
}

namespace {

using sim::Rate;
using sim::Time;

// ---------------------------------------------------------------------
// Spans around hooks.

/// Adds the enclosing scope's duration, as one call, to `stats`.
class Span {
 public:
  explicit Span(HookStats& stats) : stats_{stats}, start_{now_ns()} {}
  ~Span() {
    stats_.ns += now_ns() - start_;
    ++stats_.calls;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  HookStats& stats_;
  std::int64_t start_;
};

/// Forwards every PortController call to the wrapped controller and
/// times the per-cell hooks. PortController::set_event_log is not
/// virtual, so whoever attaches an event log must hand it to inner()
/// too (forward_event_log), or the controller's kRateUpdate records go
/// missing.
class TimedController final : public atm::PortController {
 public:
  TimedController(std::unique_ptr<atm::PortController> inner,
                  CoreHooks& hooks)
      : inner_{std::move(inner)}, hooks_{&hooks} {}

  void on_cell_accepted(const atm::Cell& cell, std::size_t q) override {
    const Span s{hooks_->cell_accepted};
    inner_->on_cell_accepted(cell, q);
  }
  void on_cell_dropped(const atm::Cell& cell) override {
    const Span s{hooks_->cell_dropped};
    inner_->on_cell_dropped(cell);
  }
  void on_cell_transmitted(const atm::Cell& cell) override {
    const Span s{hooks_->cell_transmitted};
    inner_->on_cell_transmitted(cell);
  }
  void on_forward_rm(atm::Cell& cell, std::size_t q) override {
    const Span s{hooks_->forward_rm};
    inner_->on_forward_rm(cell, q);
  }
  void on_backward_rm(atm::Cell& cell, std::size_t q) override {
    const Span s{hooks_->backward_rm};
    inner_->on_backward_rm(cell, q);
  }
  [[nodiscard]] bool mark_efci(std::size_t q) const override {
    const Span s{hooks_->mark_efci};
    return inner_->mark_efci(q);
  }
  void reset() override { inner_->reset(); }
  void warm_restart() override { inner_->warm_restart(); }
  [[nodiscard]] const atm::WarmStartAudit* warm_audit() const override {
    return inner_->warm_audit();
  }
  void vc_expired(int vc) override { inner_->vc_expired(vc); }
  [[nodiscard]] Rate fair_share() const override {
    return inner_->fair_share();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void register_metrics(obs::Registry& reg,
                        const std::string& prefix) override {
    inner_->register_metrics(reg, prefix);
  }

  [[nodiscard]] atm::PortController& inner() { return *inner_; }

 private:
  std::unique_ptr<atm::PortController> inner_;
  CoreHooks* hooks_;
};

[[nodiscard]] topo::ControllerFactory timed(topo::ControllerFactory inner,
                                            CoreHooks& hooks) {
  return [inner = std::move(inner), &hooks](sim::Simulator& sim, Rate rate) {
    return std::make_unique<TimedController>(inner(sim, rate), hooks);
  };
}

/// Hands `log` to the controllers TimedController wraps in `net`.
void forward_event_log(topo::AbrNetwork& net, obs::EventLog* log) {
  for (std::size_t w = 0; w < net.num_switches(); ++w) {
    atm::Switch& sw = net.node(w);
    for (std::size_t p = 0; p < sw.num_ports(); ++p) {
      auto* t = dynamic_cast<TimedController*>(&sw.port(p).controller());
      if (t != nullptr) {
        t->inner().set_event_log(log, static_cast<int>(w),
                                 static_cast<int>(p));
      }
    }
  }
}

/// Forwards to the wrapped queue policy, timing every call into it.
class TimedPolicy final : public tcp::QueuePolicy {
 public:
  TimedPolicy(std::unique_ptr<tcp::QueuePolicy> inner, HookStats& stats)
      : inner_{std::move(inner)}, stats_{&stats} {}

  tcp::Verdict on_arrival(const tcp::Packet& packet, std::size_t queue_len,
                          std::size_t queue_limit) override {
    const Span s{*stats_};
    return inner_->on_arrival(packet, queue_len, queue_limit);
  }
  void on_overflow(const tcp::Packet& packet) override {
    const Span s{*stats_};
    inner_->on_overflow(packet);
  }
  [[nodiscard]] Rate fair_share() const override {
    return inner_->fair_share();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<tcp::QueuePolicy> inner_;
  HookStats* stats_;
};

/// A null `inner` is drop-tail, as it is for TcpTrunkOptions::policy.
[[nodiscard]] tcp::PolicyFactory timed(tcp::PolicyFactory inner,
                                       HookStats& stats) {
  return [inner = std::move(inner), &stats](sim::Simulator& sim, Rate rate) {
    std::unique_ptr<tcp::QueuePolicy> policy =
        inner ? inner(sim, rate) : std::make_unique<tcp::DropTailPolicy>();
    return std::make_unique<TimedPolicy>(std::move(policy), stats);
  };
}

// ---------------------------------------------------------------------
// Inputs from the seed.

[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The plan-generator seed phantom_chaos derives for trial `t`, so a
/// slice replays under `phantom_chaos --seed=<seed>`.
[[nodiscard]] std::uint64_t trial_gen_seed(std::uint64_t master, int t) {
  return splitmix64(master ^ (0x6368616f73ULL + static_cast<std::uint64_t>(t)));
}

[[nodiscard]] double worst_relative_error(const std::vector<double>& got,
                                          const std::vector<double>& want) {
  double worst = 0.0;
  for (std::size_t i = 0; i < got.size() && i < want.size(); ++i) {
    if (want[i] > 0.0) {
      worst = std::max(worst, std::abs(got[i] - want[i]) / want[i]);
    }
  }
  return worst;
}

// ---------------------------------------------------------------------
// ATM observation and output check.

/// Adds an ATM simulation's counters to `pass` and checks its outputs: the InvariantMonitor's cell-conservation ledger (created =
/// absorbed + queued + dropped at ports + lost on links + in flight +
/// policed) and no unrouted cell. Returns the complaint, empty if none.
std::string observe_atm(sim::Simulator& sim, topo::AbrNetwork& net,
                        Pass& pass) {
  Digest& d = pass.digest;
  AtmCounters& a = pass.atm;
  std::uint64_t created = 0, absorbed = 0, delivered = 0;
  for (std::size_t s = 0; s < net.num_sessions(); ++s) {
    const atm::AbrSource& src = net.source(s);
    created += src.data_cells_sent() + src.rm_cells_sent();
    absorbed += src.brm_cells_received();
    delivered += net.delivered_cells(s);
    d.add(src.data_cells_sent());
    d.add(src.rm_cells_sent());
    d.add(src.brm_cells_received());
    d.add(net.delivered_cells(s));
    d.add(src.acr().bits_per_sec());
  }
  for (std::size_t c = 0; c < net.num_cbr_sessions(); ++c) {
    created += net.cbr_source(c).cells_sent();
    d.add(net.cbr_source(c).cells_sent());
  }
  for (std::size_t i = 0; i < net.num_destinations(); ++i) {
    const atm::AbrDestination& dst = net.destination(i);
    created += dst.rm_cells_turned();
    absorbed += dst.total_data_cells() + dst.rm_cells_turned();
    d.add(dst.total_data_cells());
    d.add(dst.rm_cells_turned());
    d.add(dst.total_frames_good());
    d.add(dst.total_frames_corrupted());
  }
  std::uint64_t queued = 0, dropped = 0, unrouted = 0;
  for (std::size_t w = 0; w < net.num_switches(); ++w) {
    const atm::Switch& sw = net.node(w);
    unrouted += sw.unrouted_cells();
    a.rm_sanitized += sw.rm_cells_sanitized();
    d.add(sw.unrouted_cells());
    d.add(sw.rm_cells_sanitized());
    for (std::size_t p = 0; p < sw.num_ports(); ++p) {
      const atm::OutputPort& port = sw.port(p);
      queued += port.queue_length();
      dropped += port.cells_dropped();
      a.port_accepted += port.cells_accepted();
      d.add(static_cast<std::uint64_t>(port.queue_length()));
      d.add(port.cells_dropped());
      d.add(port.cells_accepted());
      d.add(port.cells_transmitted());
      d.add(static_cast<std::uint64_t>(port.max_queue_length()));
      d.add(port.controller().fair_share().bits_per_sec());
    }
  }
  std::uint64_t lost = 0, in_flight = 0;
  for (const auto& st : net.link_states()) {
    lost += st->lost();
    in_flight += st->in_flight();
    a.link_offered += st->offered;
    d.add(st->offered);
    d.add(st->delivered);
    d.add(st->lost());
  }
  const std::uint64_t policed = net.policer_dropped_cells();
  a.unrouted += unrouted;
  a.port_dropped += dropped;
  a.link_lost += lost;
  a.policer_dropped += policed;
  a.epd_frames += net.epd_frames_discarded();
  a.shed_cells += net.cells_shed();
  a.cac_refused += net.cac_totals().refused_total();
  a.vcs_reaped += net.vcs_reaped();
  d.add(policed);
  d.add(net.epd_frames_discarded());
  d.add(net.cells_shed());
  d.add(net.cac_totals().refused_total());
  d.add(net.vcs_reaped());
  d.add(static_cast<std::uint64_t>(sim.peak_pending_count()));
  pass.cells += delivered;
  pass.peak_pending = std::max<std::uint64_t>(pass.peak_pending,
                                              sim.peak_pending_count());

  const std::uint64_t accounted =
      absorbed + unrouted + queued + dropped + lost + in_flight + policed;
  if (created != accounted) {
    return "cell conservation: created " + std::to_string(created) +
           " != accounted " + std::to_string(accounted);
  }
  if (unrouted != 0) return std::to_string(unrouted) + " unrouted cells";
  return {};
}

/// Counts a finished simulation's events against the cells it delivered
/// (Simulator::events_executed() only advances when a run call returns).
void count_events(const sim::Simulator& sim, std::uint64_t cells_before,
                  Pass& pass) {
  pass.events += sim.events_executed();
  pass.event_cells += pass.cells - cells_before;
  pass.digest.add(sim.events_executed());
}

// ---------------------------------------------------------------------
// abr_scale: the bench_tab_scale sweep.

struct ScaleRow {
  int n;
  double air_mbps;
  double floor_fraction;
};

constexpr ScaleRow kScaleRows[] = {
    {2, 4.25, 0.01},  {5, 4.25, 0.01},  {10, 4.25, 0.01}, {20, 4.25, 0.01},
    {30, 4.25, 0.01}, {30, 0.5, 0.02},  {50, 4.25, 0.01}, {50, 0.5, 0.02},
};

void run_scale_row(const ScaleRow& row, std::uint64_t seed, bool traced,
                   Pass& pass) {
  ++pass.ops;
  const std::string label = "abr_scale n=" + std::to_string(row.n) +
                            " air=" + std::to_string(row.air_mbps);
  try {
    const std::int64_t t0 = now_ns();
    sim::Simulator sim{seed};
    core::PhantomConfig cfg;
    cfg.min_macr_fraction = row.floor_fraction;
    topo::ControllerFactory factory = exp::make_phantom_factory(cfg);
    if (traced) factory = timed(std::move(factory), pass.core);
    topo::AbrNetwork net{sim, std::move(factory)};
    const auto sw = net.add_switch("sw");
    const auto dest = net.add_destination(sw, {});
    atm::AbrParams params;
    params.air_nrm = Rate::mbps(row.air_mbps);
    for (int i = 0; i < row.n; ++i) net.add_session(sw, {}, dest, params);
    exp::GoodputProbe probe{sim, net};
    net.start_all(Time::zero(), Time::ms(1));
    const std::int64_t t1 = now_ns();
    sim.run_until(Time::ms(600));
    probe.mark();
    sim.run_until(Time::ms(1000));
    const std::int64_t t2 = now_ns();
    pass.setup_s += static_cast<double>(t1 - t0) * 1e-9;
    pass.run_s += static_cast<double>(t2 - t1) * 1e-9;
    ++pass.topologies;

    const std::vector<double> rates = probe.rates_mbps();
    std::vector<double> reference;
    for (const Rate r : net.reference_rates(true, cfg.utilization)) {
      reference.push_back(r.mbits_per_sec());
    }
    for (const double r : rates) pass.digest.add(r);
    pass.rate_error =
        std::max(pass.rate_error, worst_relative_error(rates, reference));
    pass.max_queue = std::max(
        pass.max_queue,
        static_cast<double>(net.dest_port(dest).max_queue_length()));
    const std::uint64_t cells_before = pass.cells;
    const std::string err = observe_atm(sim, net, pass);
    count_events(sim, cells_before, pass);
    if (!err.empty()) pass.fail(label + ": " + err);
  } catch (const std::exception& e) {
    pass.fail(label + " threw: " + e.what());
  }
}

// ---------------------------------------------------------------------
// chaos_armored: an in-process chaos slice with every optional layer on.

constexpr int kChaosSessions = 4;  // parking lot: 3 hops
constexpr int kChaosTrials = 20;
constexpr int kChaosMaxFailures = 3;
/// Shrink budget per failure, so a failing seed costs bounded time.
constexpr int kChaosShrinkProbes = 24;
constexpr std::size_t kFlightRingCapacity = 1024;  // as chaos::run_trial

[[nodiscard]] chaos::ScenarioSpec armored_spec(bool overload) {
  chaos::ScenarioSpec spec;
  spec.kind = chaos::ScenarioSpec::Kind::kParking;
  spec.algorithm = exp::Algorithm::kPhantom;
  spec.sessions = kChaosSessions;
  spec.overload = overload;
  return spec;
}

[[nodiscard]] atm::PolicerConfig drop_policing() {
  atm::PolicerConfig pc;
  pc.action = atm::PolicingAction::kDrop;
  return pc;
}

/// Goodput of every session over [horizon / 2, horizon] against the
/// phantom-augmented max-min reference, read by events the benchmark
/// schedules (they only read counters, so the run is unchanged).
struct FidelityProbe {
  Time mark_at;
  std::vector<std::uint64_t> base;

  void arm(sim::Simulator& sim, topo::AbrNetwork& net, Time horizon) {
    mark_at = horizon / 2;
    sim.schedule_at(mark_at, [this, &net] {
      base.clear();
      for (std::size_t s = 0; s < net.num_sessions(); ++s) {
        base.push_back(net.delivered_cells(s));
      }
    });
  }

  /// Call at the horizon; folds the error into `pass`.
  void read(sim::Simulator& sim, topo::AbrNetwork& net, Pass& pass) const {
    const double secs = (sim.now() - mark_at).seconds();
    std::vector<double> rates;
    for (std::size_t s = 0; s < base.size(); ++s) {
      rates.push_back(static_cast<double>(net.delivered_cells(s) - base[s]) *
                      static_cast<double>(atm::kCellBits) / secs / 1e6);
      pass.digest.add(rates.back());
    }
    std::vector<double> reference;
    for (const Rate r : net.reference_rates(true, 0.95)) {
      reference.push_back(r.mbits_per_sec());
    }
    pass.rate_error =
        std::max(pass.rate_error, worst_relative_error(rates, reference));
  }
};

/// Runs the search slice, timing every chaos::run_baseline / run_trial
/// call; the TrialOptions::prepare hook marks where its setup ends.
class ChaosSlice {
 public:
  ChaosSlice(std::uint64_t seed, Pass& pass)
      : seed_{seed}, pass_{pass}, spec_{armored_spec(true)} {
    options_.prepare = [this](sim::Simulator& sim, topo::AbrNetwork& net) {
      prepare(sim, net);
    };
  }

  void run() {
    chaos::SearchOptions opt;
    opt.trials = kChaosTrials;
    opt.seed = seed_;
    opt.max_failures = kChaosMaxFailures;
    opt.gen.misbehave = true;
    opt.gen.overload = true;
    opt.shrinker.max_probes = kChaosShrinkProbes;
    chaos::SearchReport report;
    report.spec = spec_;
    report.options = opt;

    chaos::Baseline baseline;
    bool have_baseline = false;
    const double host_before = pass_.setup_s + pass_.run_s;
    call(/*fidelity=*/true, [&] {
      baseline = chaos::run_baseline(spec_, seed_, options_);
      have_baseline = true;
      return chaos::Verdict::kPass;
    });
    pass_.baseline_s += pass_.setup_s + pass_.run_s - host_before;
    ++pass_.baselines;
    if (!have_baseline) return;
    report.baseline_share_mbps = baseline.settled_share_bps * 1e-6;

    const auto trial = [&](const fault::FaultPlan& plan) {
      chaos::TrialResult r;
      call(/*fidelity=*/false, [&] {
        r = chaos::run_trial(spec_, seed_, plan, options_, &baseline);
        pass_.digest.add(r.settled_share_mbps);
        pass_.digest.add(r.peak_queue_cells);
        pass_.digest.add(r.events);
        if (observed_) {
          pass_.events += r.events;
          pass_.event_cells += observed_cells_;
        }
        return r.verdict;
      });
      return r;
    };

    int failures = 0;
    for (int t = 0; t < opt.trials && failures < opt.max_failures; ++t) {
      sim::Rng gen_rng{trial_gen_seed(seed_, t)};
      const fault::FaultPlan plan =
          chaos::generate_plan(gen_rng, spec_, opt.gen);
      const double setup_before = pass_.setup_s, run_before = pass_.run_s;
      const chaos::TrialResult r = trial(plan);
      pass_.trial_setup_s += pass_.setup_s - setup_before;
      pass_.trial_run_s += pass_.run_s - run_before;
      ++pass_.trials;
      ++pass_.verdicts[chaos::to_string(r.verdict)];
      ++report.trials_run;
      if (!r.failed()) {
        ++report.passed;
        continue;
      }
      ++failures;
      chaos::Failure f;
      f.trial = t;
      f.plan = plan;
      f.result = r;
      const chaos::ShrinkResult s = chaos::shrink(
          plan,
          [&](const fault::FaultPlan& candidate) {
            return trial(candidate).verdict == r.verdict;
          },
          opt.shrinker);
      f.shrunk_plan = s.plan;
      f.shrink_probes = s.probes;
      f.shrunk_result = trial(f.shrunk_plan);
      report.failures.push_back(std::move(f));
    }
    std::vector<std::tuple<int, const chaos::TrialResult*,
                           const fault::FaultPlan*>>
        failing;
    for (const chaos::Failure& f : report.failures) {
      failing.emplace_back(f.trial, &f.result, &f.plan);
    }
    report.classes = chaos::triage_failures(failing);
    pass_.digest.add(report.to_json());
  }

 private:
  /// One simulation: times it, counts the operation, and judges it.
  /// `sim` returns the trial's verdict; watchdog trips and crashes are
  /// failed operations, every other verdict is an output.
  template <class Sim>
  void call(bool fidelity, Sim&& sim) {
    ++pass_.ops;
    measure_fidelity_ = fidelity;
    observed_ = false;
    error_.clear();
    setup_end_ns_ = 0;
    const std::int64_t start = now_ns();
    std::string failure;
    try {
      const chaos::Verdict v = sim();
      if (v == chaos::Verdict::kWatchdog || v == chaos::Verdict::kCrash) {
        failure = std::string{"verdict "} + chaos::to_string(v);
      }
    } catch (const std::exception& e) {
      failure = std::string{"threw: "} + e.what();
    }
    const std::int64_t end = now_ns();
    const std::int64_t setup_end = setup_end_ns_ != 0 ? setup_end_ns_ : end;
    pass_.setup_s += static_cast<double>(setup_end - start) * 1e-9;
    pass_.run_s += static_cast<double>(end - setup_end) * 1e-9;
    ++pass_.topologies;
    if (failure.empty() && !observed_) failure = "horizon not reached";
    if (failure.empty()) failure = error_;
    if (!failure.empty()) pass_.fail("chaos_armored: " + failure);
  }

  void prepare(sim::Simulator& sim, topo::AbrNetwork& net) {
    net.enable_policing(drop_policing());
    net.enable_reaping();
    if (measure_fidelity_) fidelity_.arm(sim, net, spec_.horizon);
    sim.schedule_at(spec_.horizon, [this, &sim, &net] {
      observed_ = true;
      const std::uint64_t cells_before = pass_.cells;
      error_ = observe_atm(sim, net, pass_);
      observed_cells_ = pass_.cells - cells_before;
      if (measure_fidelity_) {
        fidelity_.read(sim, net, pass_);
        pass_.max_queue = std::max(
            pass_.max_queue,
            static_cast<double>(net.trunk_port(0).max_queue_length()));
      }
    });
    setup_end_ns_ = now_ns();
  }

  std::uint64_t seed_;
  Pass& pass_;
  chaos::ScenarioSpec spec_;
  chaos::TrialOptions options_;
  FidelityProbe fidelity_;
  bool measure_fidelity_ = false;
  bool observed_ = false;
  std::uint64_t observed_cells_ = 0;
  std::string error_;
  std::int64_t setup_end_ns_ = 0;
};

// ---------------------------------------------------------------------
// tcp_mechanisms: the bench_fig_tcp_mechanisms scenarios.

constexpr double kUf = tcp::kTcpUtilizationFactor;
constexpr std::size_t kTcpQueueLimit = 60;

[[nodiscard]] tcp::PolicyFactory mechanism(const std::string& kind) {
  if (kind == "discard") {
    return [](sim::Simulator& sim, Rate rate) {
      return std::make_unique<tcp::SelectiveDiscardPolicy>(sim, rate, kUf);
    };
  }
  if (kind == "sel-red") {
    return [](sim::Simulator& sim, Rate rate) {
      return std::make_unique<tcp::SelectiveRedPolicy>(sim, rate, kUf);
    };
  }
  if (kind == "quench") {
    return [](sim::Simulator& sim, Rate rate) {
      return std::make_unique<tcp::SelectiveQuenchPolicy>(sim, rate, kUf,
                                                          Time::ms(10));
    };
  }
  if (kind == "efci") {
    return [](sim::Simulator& sim, Rate rate) {
      return std::make_unique<tcp::EfciMarkPolicy>(sim, rate, kUf);
    };
  }
  return nullptr;  // drop-tail
}

/// Reads a finished TCP simulation into `pass`: goodput over [settle,
/// end] against an equal split, the policed ports' queues and drops,
/// and the output check (every flow progressed; no receiver ahead of
/// what was sent, no sender acked beyond what was received; queues
/// within their limits). Returns the complaint, empty if none.
std::string observe_tcp(sim::Simulator& sim, tcp::TcpNetwork& net,
                        const std::vector<std::int64_t>& settled_bytes,
                        Time window,
                        const std::vector<tcp::PacketPort*>& policed,
                        Pass& pass) {
  Digest& d = pass.digest;
  const std::int64_t mss = tcp::RenoConfig{}.mss;
  std::vector<double> mbps;
  std::string err;
  for (std::size_t f = 0; f < net.num_flows(); ++f) {
    const tcp::TcpSender& src = net.source(f);
    const std::int64_t got = net.delivered_bytes(f);
    mbps.push_back(static_cast<double>(got - settled_bytes[f]) * 8.0 /
                   window.seconds() / 1e6);
    pass.cells += static_cast<std::uint64_t>(got / mss);
    d.add(static_cast<std::uint64_t>(got));
    d.add(src.packets_sent());
    d.add(src.fast_retransmits());
    d.add(src.timeouts());
    d.add(src.quenches_received());
    d.add(src.cwnd_bytes());
    if (got <= 0 || src.bytes_acked() > got ||
        got > static_cast<std::int64_t>(src.packets_sent()) * mss) {
      err = "flow " + std::to_string(f) + ": delivered " +
            std::to_string(got) + " B, acked " +
            std::to_string(src.bytes_acked()) + " B, sent " +
            std::to_string(src.packets_sent()) + " segments";
    }
  }
  double mean = 0.0;
  for (const double m : mbps) mean += m / static_cast<double>(mbps.size());
  pass.rate_error = std::max(
      pass.rate_error,
      worst_relative_error(mbps, std::vector<double>(mbps.size(), mean)));
  for (const tcp::PacketPort* port : policed) {
    pass.tcp_drops += port->packets_dropped();
    pass.max_queue =
        std::max(pass.max_queue, static_cast<double>(port->max_queue_length()));
    d.add(port->packets_dropped());
    d.add(port->packets_transmitted());
    d.add(static_cast<std::uint64_t>(port->max_queue_length()));
    if (port->max_queue_length() > kTcpQueueLimit) {
      err = "queue high-water " + std::to_string(port->max_queue_length()) +
            " above its limit";
    }
  }
  pass.peak_pending =
      std::max<std::uint64_t>(pass.peak_pending, sim.peak_pending_count());
  return err;
}

[[nodiscard]] std::vector<std::int64_t> delivered(const tcp::TcpNetwork& net) {
  std::vector<std::int64_t> out;
  for (std::size_t f = 0; f < net.num_flows(); ++f) {
    out.push_back(net.delivered_bytes(f));
  }
  return out;
}

/// Four Reno flows (access delays 3/6/12/24 ms) through one 10 Mb/s
/// bottleneck running `kind`; goodput over [3 s, 12 s].
void run_tcp_bottleneck(const std::string& kind, std::uint64_t seed,
                        bool traced, Pass& pass) {
  ++pass.ops;
  try {
    const std::int64_t t0 = now_ns();
    sim::Simulator sim{seed};
    tcp::TcpNetwork net{sim};
    const auto r = net.add_router("r0");
    tcp::TcpTrunkOptions opts;
    opts.queue_limit = kTcpQueueLimit;
    opts.policy = mechanism(kind);
    if (traced) opts.policy = timed(std::move(opts.policy), pass.policy);
    const auto s = net.add_sink_node(r, opts);
    const Time delays[] = {Time::ms(3), Time::ms(6), Time::ms(12),
                           Time::ms(24)};
    for (const Time d : delays) {
      net.add_flow(r, {}, s, tcp::RenoConfig{}, Rate::mbps(100), d);
    }
    net.start_all(Time::zero(), Time::ms(73));
    const Time settle = Time::sec(3), horizon = Time::sec(12);
    double queue_sum = 0.0;
    std::uint64_t samples = 0;
    std::function<void()> sample = [&] {
      queue_sum += static_cast<double>(net.sink_port(s).queue_length());
      ++samples;
      sim.schedule(Time::ms(5), sample);
    };
    const std::int64_t t1 = now_ns();
    sim.run_until(settle);
    const std::vector<std::int64_t> base = delivered(net);
    sim.schedule(Time::zero(), sample);
    sim.run_until(horizon);
    const std::int64_t t2 = now_ns();
    pass.setup_s += static_cast<double>(t1 - t0) * 1e-9;
    pass.run_s += static_cast<double>(t2 - t1) * 1e-9;
    ++pass.topologies;
    pass.digest.add(queue_sum / static_cast<double>(samples));
    const std::uint64_t cells_before = pass.cells;
    const std::string err = observe_tcp(sim, net, base, horizon - settle,
                                        {&net.sink_port(s)}, pass);
    count_events(sim, cells_before, pass);
    if (!err.empty()) pass.fail("tcp " + kind + ": " + err);
  } catch (const std::exception& e) {
    pass.fail("tcp " + kind + " threw: " + e.what());
  }
}

/// The three-router beat-down chain: one 3-hop flow against a local
/// flow per hop; goodput over [3 s, 12 s].
void run_tcp_chain(const std::string& kind, std::uint64_t seed, bool traced,
                   Pass& pass) {
  ++pass.ops;
  try {
    const std::int64_t t0 = now_ns();
    sim::Simulator sim{seed};
    tcp::TcpNetwork net{sim};
    const auto r0 = net.add_router("r0");
    const auto r1 = net.add_router("r1");
    const auto r2 = net.add_router("r2");
    tcp::PolicyFactory policy = mechanism(kind);
    if (traced) policy = timed(std::move(policy), pass.policy);
    tcp::TcpTrunkOptions hop;
    hop.queue_limit = kTcpQueueLimit;
    hop.delay = Time::ms(3);
    hop.policy = policy;
    const auto t01 = net.add_trunk(r0, r1, hop);
    const auto t12 = net.add_trunk(r1, r2, hop);
    const auto s_end = net.add_sink_node(r2, hop);
    tcp::TcpTrunkOptions stub;
    stub.rate = Rate::mbps(100);
    stub.queue_limit = 1000;
    const auto s1 = net.add_sink_node(r1, stub);
    const auto s2 = net.add_sink_node(r2, stub);
    net.add_flow(r0, {t01, t12}, s_end);
    net.add_flow(r0, {t01}, s1);
    net.add_flow(r1, {t12}, s2);
    net.add_flow(r2, {}, s_end);
    net.start_all(Time::zero(), Time::ms(73));
    const Time settle = Time::sec(3), horizon = Time::sec(12);
    const std::int64_t t1 = now_ns();
    sim.run_until(settle);
    const std::vector<std::int64_t> base = delivered(net);
    sim.run_until(horizon);
    const std::int64_t t2 = now_ns();
    pass.setup_s += static_cast<double>(t1 - t0) * 1e-9;
    pass.run_s += static_cast<double>(t2 - t1) * 1e-9;
    ++pass.topologies;
    const std::uint64_t cells_before = pass.cells;
    const std::string err = observe_tcp(
        sim, net, base, horizon - settle,
        {&net.trunk_port(t01), &net.trunk_port(t12), &net.sink_port(s_end)},
        pass);
    count_events(sim, cells_before, pass);
    if (!err.empty()) pass.fail("tcp chain " + kind + ": " + err);
  } catch (const std::exception& e) {
    pass.fail("tcp chain " + kind + " threw: " + e.what());
  }
}

}  // namespace

double span_overhead_ns() {
  std::vector<double> batches;
  for (int b = 0; b < 7; ++b) {
    HookStats h;
    for (int i = 0; i < 20'000; ++i) {
      const Span s{h};
    }
    batches.push_back(static_cast<double>(h.ns) / static_cast<double>(h.calls));
  }
  std::sort(batches.begin(), batches.end());
  return batches[batches.size() / 2];
}

Pass run_abr_scale(std::uint64_t seed, bool traced) {
  Pass pass;
  for (const ScaleRow& row : kScaleRows) run_scale_row(row, seed, traced, pass);
  return pass;
}

Pass run_chaos_armored(std::uint64_t seed) {
  Pass pass;
  ChaosSlice{seed, pass}.run();
  return pass;
}

Pass run_tcp_mechanisms(std::uint64_t seed, bool traced) {
  Pass pass;
  for (const char* kind : {"droptail", "discard", "sel-red", "quench", "efci"}) {
    run_tcp_bottleneck(kind, seed, traced, pass);
  }
  for (const char* kind : {"droptail", "discard"}) {
    run_tcp_chain(kind, seed, traced, pass);
  }
  return pass;
}

Pass run_armored_scenario(std::uint64_t seed, const ArmorLayers& layers,
                          bool traced) {
  Pass pass;
  ++pass.ops;
  try {
    const std::int64_t t0 = now_ns();
    const chaos::ScenarioSpec spec = armored_spec(layers.overload);
    sim::Simulator sim{seed};
    std::optional<obs::EventLog> log;  // outlives the network using it
    topo::ControllerFactory factory = spec.factory();
    if (traced) factory = timed(std::move(factory), pass.core);
    topo::AbrNetwork net{sim, std::move(factory)};
    atm::OutputPort& bottleneck = chaos::build_topology(spec, net);
    if (layers.eventlog) {
      log.emplace(kFlightRingCapacity);
      net.attach_event_log(&*log);
      forward_event_log(net, &*log);
    }
    std::optional<fault::InvariantMonitor> monitor;
    if (layers.monitor) monitor.emplace(sim, net);
    if (layers.policing) net.enable_policing(drop_policing());
    if (layers.reaper) net.enable_reaping();
    FidelityProbe fidelity;
    fidelity.arm(sim, net, spec.horizon);
    net.start_all(Time::zero(), Time::zero());
    const std::int64_t t1 = now_ns();
    sim.run_until(spec.horizon);
    const std::int64_t t2 = now_ns();
    pass.setup_s = static_cast<double>(t1 - t0) * 1e-9;
    pass.run_s = static_cast<double>(t2 - t1) * 1e-9;
    pass.topologies = 1;
    fidelity.read(sim, net, pass);
    pass.max_queue = static_cast<double>(bottleneck.max_queue_length());
    std::string err = observe_atm(sim, net, pass);
    count_events(sim, 0, pass);
    if (monitor && !monitor->violations().empty()) {
      const fault::InvariantViolation& v = monitor->violations().front();
      err = "invariant " + v.invariant + ": " + v.detail;
    }
    if (log) pass.digest.add(log->recorded());
    if (!err.empty()) pass.fail("armored scenario: " + err);
  } catch (const std::exception& e) {
    pass.fail(std::string{"armored scenario threw: "} + e.what());
  }
  return pass;
}

}  // namespace phantom::perfbench
