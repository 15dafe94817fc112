// perfbench runner: runs one repetition of one benchmark workload and prints
// one JSON object describing it on stdout.
//
//   jitgc_perfbench --workload=<name> --seed=<n> --mode=<plain|traced|fillcheck>
//   jitgc_perfbench --describe      (build type, compiler, array pool size)
//
// Modes
//   plain      The untraced run: the simulator exactly as a `--metrics` user
//              drives it (in-memory JsonlMetricsSink attached). Reports
//              setup, measured-phase, whole-run and CPU time, peak RSS, and
//              the run's `run` JSONL record.
//   traced     The run with timing decorators at the seams the simulator
//              already calls through (WorkloadGenerator::next,
//              BgcPolicy::on_interval, MetricsSink), followed by standalone
//              drives of public layer functions on inputs that reproduce the
//              run's own (fill replica, GC steps + victim selection on the
//              post-fill device, page-cache replay of the recorded
//              buffered-write stream, snapshot save/restore).
//   fillcheck  Proves the standalone fill replica is exact: its serialized
//              state must equal the simulator's own post-precondition state.
//
// Nothing here changes the simulator: every number is taken from outside,
// by timing calls into a layer's public functions. perfbench/run.py runs the
// repetitions, checks the simulated output and prints the metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "array/array_simulator.h"
#include "array/ssd_array.h"
#include "common/binary_io.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "host/frontend/frontend.h"
#include "host/page_cache.h"
#include "sim/cli_options.h"
#include "sim/experiment.h"
#include "sim/metrics_sink.h"
#include "sim/simulator.h"
#include "sim/snapshot.h"
#include "workload/specs.h"
#include "workload/synthetic.h"

namespace jitgc::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

// -- Workload table ------------------------------------------------------------

enum class Shape { kSingle, kTenants, kArray };

struct WorkloadDef {
  const char* name;
  Shape shape;
  double sim_seconds;  ///< measured-run length, simulated seconds
};

constexpr WorkloadDef kWorkloads[] = {
    {"ycsb-buffered", Shape::kSingle, 900.0},
    {"oltp-tenants", Shape::kTenants, 900.0},
    {"array-fill", Shape::kArray, 1000.0},
};

/// Array pool size for `array-fill` (the run's and the fill replica's).
constexpr std::size_t kArrayThreads = 2;
constexpr std::uint32_t kArrayDevices = 8;

const WorkloadDef* find_workload(const std::string& name) {
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

sim::SimConfig single_config(const WorkloadDef& w, std::uint64_t seed, double sim_seconds) {
  sim::SimConfig c = sim::default_sim_config(seed);
  c.duration = seconds(sim_seconds);
  if (w.shape == Shape::kTenants) {
    // TPC-C (99.9 % direct writes) beside YCSB-B (95 % reads), both closed
    // loop: direct writes and reads share the device, the page cache idles.
    frontend::TenantSpec tpcc;
    tpcc.mix = "tpcc";
    tpcc.closed_loop = true;
    frontend::TenantSpec ycsb_b;
    ycsb_b.mix = "ycsb-b";
    ycsb_b.closed_loop = true;
    c.frontend.tenants = {tpcc, ycsb_b};
  }
  return c;
}

array::ArraySimConfig array_config(std::uint64_t seed, double sim_seconds) {
  const sim::SimConfig base = sim::default_sim_config(seed);
  array::ArraySimConfig c;
  c.ssd = base.ssd;
  c.ssd.ftl.geometry.blocks_per_plane = 1024;  // 4 GiB per device
  c.duration = seconds(sim_seconds);
  c.flush_period = base.cache.flush_period;
  c.seed = seed;
  c.step_threads = kArrayThreads;
  c.array.devices = kArrayDevices;
  c.array.gc_mode = array::ArrayGcMode::kStaggered;
  return c;
}

wl::WorkloadSpec array_spec() {
  // Open-loop YCSB below the array's sustainable service rate (the same
  // scaling as bench/sim_throughput's array cell).
  wl::WorkloadSpec spec = wl::ycsb_spec();
  spec.ops_per_sec *= 0.30;
  return spec;
}

// -- Seam decorators -------------------------------------------------------------

/// Count and total host time of the calls through one seam.
struct SeamTimer {
  std::uint64_t calls = 0;
  double total_s = 0.0;
};

/// Marks the end of set-up: the first next() the run loop makes.
struct SetupProbe {
  /// Calls before arming are set-up work (the front-end stages each
  /// tenant's first op in its constructor).
  bool armed = false;
  std::optional<Clock::time_point> first_next;

  void on_next() {
    if (armed && !first_next) first_next = Clock::now();
  }
};

/// One page-cache operation seen by the generator (a buffered write, or a
/// trim, which discards cached pages), with the flusher interval it was
/// issued in (the page-cache replay's time base).
struct CacheOp {
  Lba lba = 0;
  std::uint32_t pages = 0;
  bool trim = false;
  std::uint64_t interval = 0;
};

/// What the page cache did at one flusher tick, read by the policy
/// decorator (the policy runs right after the flusher).
struct TickRecord {
  std::uint64_t pages_flushed = 0;  ///< the cache's cumulative writeback count
  bool sip_commit = false;          ///< the simulator committed a SIP checkpoint
};

struct Trace {
  SeamTimer next;
  SeamTimer policy;
  SeamTimer metrics;
  std::uint64_t metrics_records = 0;
  /// One entry per flusher tick; its size is the open interval's index.
  std::vector<TickRecord> ticks;
  std::vector<CacheOp> cache_ops;
};

/// WorkloadGenerator decorator: stamps the end of set-up and, when traced,
/// times every next() and records the page-cache operation stream.
class ObservedGenerator final : public wl::WorkloadGenerator {
 public:
  ObservedGenerator(std::unique_ptr<wl::WorkloadGenerator> inner, SetupProbe& probe,
                    Trace* trace, Lba lba_offset)
      : inner_(std::move(inner)), probe_(probe), trace_(trace), lba_offset_(lba_offset) {}

  std::string name() const override { return inner_->name(); }
  Lba footprint_pages() const override { return inner_->footprint_pages(); }
  Lba working_set_pages() const override { return inner_->working_set_pages(); }

  std::optional<wl::AppOp> next() override {
    probe_.on_next();
    if (trace_ == nullptr) return inner_->next();
    const auto start = Clock::now();
    std::optional<wl::AppOp> op = inner_->next();
    trace_->next.total_s += seconds_between(start, Clock::now());
    ++trace_->next.calls;
    if (op && ((op->type == wl::OpType::kWrite && !op->direct) ||
               op->type == wl::OpType::kTrim)) {
      trace_->cache_ops.push_back({op->lba + lba_offset_, op->pages,
                                   op->type == wl::OpType::kTrim, trace_->ticks.size()});
    }
    return op;
  }

 private:
  std::unique_ptr<wl::WorkloadGenerator> inner_;
  SetupProbe& probe_;
  Trace* trace_;
  Lba lba_offset_;
};

/// BgcPolicy decorator: times on_interval (predictors + JIT manager) and
/// records what the page cache did at the tick.
class TimedPolicy final : public core::BgcPolicy {
 public:
  TimedPolicy(core::BgcPolicy& inner, Trace& trace) : inner_(inner), trace_(trace) {}

  std::string name() const override { return inner_.name(); }
  bool wants_sip_filter() const override { return inner_.wants_sip_filter(); }
  std::uint32_t custom_commands_per_interval() const override {
    return inner_.custom_commands_per_interval();
  }
  core::PolicyDecision on_interval(const core::PolicyContext& ctx) override {
    const auto start = Clock::now();
    core::PolicyDecision d = inner_.on_interval(ctx);
    trace_.policy.total_s += seconds_between(start, Clock::now());
    ++trace_.policy.calls;
    trace_.ticks.push_back({ctx.page_cache->pages_flushed(),
                            inner_.wants_sip_filter() && d.sip_is_delta});
    return d;
  }

 private:
  core::BgcPolicy& inner_;
  Trace& trace_;
};

/// MetricsSink decorator: times every record the simulator emits.
class TimedSink final : public sim::MetricsSink {
 public:
  TimedSink(sim::MetricsSink& inner, Trace& trace) : inner_(inner), trace_(trace) {}

  void on_interval(const sim::IntervalRecord& r) override {
    timed([&] { inner_.on_interval(r); });
  }
  void on_tenant_interval(const sim::TenantIntervalRecord& r) override {
    timed([&] { inner_.on_tenant_interval(r); });
  }
  void on_fault(const sim::FaultRecord& r) override {
    timed([&] { inner_.on_fault(r); });
  }
  void on_array_interval(const sim::ArrayIntervalRecord& r) override {
    timed([&] { inner_.on_array_interval(r); });
  }
  void on_device_interval(const sim::DeviceIntervalRecord& r) override {
    timed([&] { inner_.on_device_interval(r); });
  }
  void on_rebuild_progress(const sim::RebuildProgressRecord& r) override {
    timed([&] { inner_.on_rebuild_progress(r); });
  }
  void on_array_state(const sim::ArrayStateRecord& r) override {
    timed([&] { inner_.on_array_state(r); });
  }
  void on_recovery(const sim::RecoveryRecord& r) override {
    timed([&] { inner_.on_recovery(r); });
  }
  void on_run_end(const sim::SimReport& r) override {
    timed([&] { inner_.on_run_end(r); });
  }

 private:
  template <typename F>
  void timed(F&& f) {
    const auto start = Clock::now();
    f();
    trace_.metrics.total_s += seconds_between(start, Clock::now());
    ++trace_.metrics.calls;
    ++trace_.metrics_records;
  }

  sim::MetricsSink& inner_;
  Trace& trace_;
};

// -- JSON output -----------------------------------------------------------------

class JsonObject {
 public:
  JsonObject& num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  JsonObject& count(const char* key, std::uint64_t v) { return raw(key, std::to_string(v)); }
  JsonObject& str(const char* key, const std::string& v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    return raw(key, quoted + "\"");
  }
  /// `json` must already be valid JSON (an embedded record).
  JsonObject& raw(const char* key, const std::string& json) {
    out_ += out_.empty() ? "{" : ",";
    out_ += "\"";
    out_ += key;
    out_ += "\":";
    out_ += json;
    return *this;
  }
  std::string done() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  std::string out_;
};

/// The `run` record the in-memory JSONL sink captured (its last line).
std::string run_record_of(const std::string& jsonl) {
  std::string last;
  std::istringstream in(jsonl);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) last = line;
  }
  if (last.rfind("{\"type\":\"run\"", 0) != 0) {
    throw std::runtime_error("metrics sink produced no trailing run record");
  }
  return last;
}

// -- One simulator run -------------------------------------------------------------

/// What a (plain or traced) run measured, plus the state the standalone
/// drives reproduce.
struct RunResult {
  double ctor_s = 0.0;      ///< simulator constructor
  double setup_s = 0.0;     ///< constructor start -> first run-loop next()
  double measured_s = 0.0;  ///< first run-loop next() -> run() returned
  double wall_s = 0.0;      ///< constructor start -> run() returned
  double cpu_s = 0.0;
  sim::SimReport report;
  std::string run_record;
  std::uint64_t metrics_bytes = 0;
  Lba footprint = 0;
  Lba working_set = 0;
  bool wants_sip = false;
  /// Per-device FTL counter at the end of the run; the fill replica's
  /// post-fill value is its measured-phase baseline.
  std::vector<std::uint64_t> final_candidates_visited;
  std::uint64_t pages_flushed = 0;
  std::uint64_t absorbed_overwrites = 0;
};

/// Builds tenant generators exactly as the CLI's synthetic-mix factory does,
/// wrapped in the observing decorator.
frontend::GeneratorFactory observed_factory(SetupProbe& probe, Trace* trace, Lba user_pages,
                                            std::uint32_t tenants) {
  const Lba share = user_pages / tenants;
  return [&probe, trace, share](const frontend::TenantSpec& spec, std::uint32_t tenant,
                                Lba partition_pages,
                                std::uint64_t seed) -> std::unique_ptr<wl::WorkloadGenerator> {
    const auto bench = sim::find_benchmark_spec(spec.mix);
    if (!bench) throw std::runtime_error("unknown tenant mix: " + spec.mix);
    return std::make_unique<ObservedGenerator>(
        std::make_unique<wl::SyntheticWorkload>(*bench, partition_pages, seed), probe, trace,
        static_cast<Lba>(tenant) * share);
  };
}

/// A single-SSD workload's generator and JIT-GC policy (the front-end and
/// MultiStreamJitPolicy for tenants), with generators observed.
struct SingleWorkload {
  std::unique_ptr<wl::WorkloadGenerator> gen;
  std::unique_ptr<core::BgcPolicy> policy;
};

SingleWorkload make_single_workload(const WorkloadDef& w, const sim::SimConfig& config,
                                    Lba user_pages, SetupProbe& probe, Trace* trace) {
  SingleWorkload out;
  if (w.shape == Shape::kTenants) {
    const auto tenants = static_cast<std::uint32_t>(config.frontend.tenants.size());
    auto fe = std::make_unique<frontend::HostFrontend>(
        config.frontend, user_pages, config.ssd.ftl.geometry.page_size, config.seed,
        observed_factory(probe, trace, user_pages, tenants));
    out.policy = sim::make_policy(sim::PolicyKind::kJit, config, 1.0, sim::PolicyOverrides{},
                                  fe.get());
    out.gen = std::move(fe);
  } else {
    out.gen = std::make_unique<ObservedGenerator>(
        std::make_unique<wl::SyntheticWorkload>(wl::ycsb_spec(), user_pages, config.seed),
        probe, trace, 0);
    out.policy = sim::make_policy(sim::PolicyKind::kJit, config);
  }
  return out;
}

/// Closes a run's books once run() returned: times, CPU, the JSONL output.
void finish_run(RunResult& res, Clock::time_point start, double cpu_start,
                const SetupProbe& probe, const std::string& jsonl) {
  const auto end = Clock::now();
  res.cpu_s = cpu_seconds() - cpu_start;
  res.wall_s = seconds_between(start, end);
  const Clock::time_point first = probe.first_next.value_or(end);
  res.setup_s = seconds_between(start, first);
  res.measured_s = seconds_between(first, end);
  res.metrics_bytes = jsonl.size();
  res.run_record = run_record_of(jsonl);
}

RunResult run_single(const WorkloadDef& w, std::uint64_t seed, double sim_seconds,
                     SetupProbe& probe, Trace* trace) {
  RunResult res;
  const sim::SimConfig config = single_config(w, seed, sim_seconds);
  const double cpu_start = cpu_seconds();
  const auto start = Clock::now();
  sim::Simulator simulator(config);
  res.ctor_s = seconds_between(start, Clock::now());
  auto [gen, policy] =
      make_single_workload(w, config, simulator.ssd().ftl().user_pages(), probe, trace);
  probe.armed = true;
  res.footprint = gen->footprint_pages();
  res.working_set = gen->working_set_pages();
  res.wants_sip = policy->wants_sip_filter();

  std::ostringstream jsonl;
  sim::JsonlMetricsSink sink(jsonl, /*run_index=*/0, seed, /*emit_intervals=*/true);
  std::optional<TimedPolicy> timed_policy;
  std::optional<TimedSink> timed_sink;
  core::BgcPolicy* run_policy = policy.get();
  sim::MetricsSink* run_sink = &sink;
  if (trace != nullptr) {
    run_policy = &timed_policy.emplace(*policy, *trace);
    run_sink = &timed_sink.emplace(sink, *trace);
  }
  simulator.set_metrics_sink(run_sink);

  res.report = simulator.run(*gen, *run_policy);
  finish_run(res, start, cpu_start, probe, jsonl.str());
  res.final_candidates_visited = {simulator.ssd().ftl().stats().victim_candidates_visited};
  res.pages_flushed = simulator.page_cache().pages_flushed();
  res.absorbed_overwrites = simulator.page_cache().absorbed_overwrites();
  return res;
}

RunResult run_array(std::uint64_t seed, double sim_seconds, SetupProbe& probe, Trace* trace) {
  RunResult res;
  const array::ArraySimConfig config = array_config(seed, sim_seconds);
  const double cpu_start = cpu_seconds();
  const auto start = Clock::now();
  array::ArraySimulator simulator(config);
  res.ctor_s = seconds_between(start, Clock::now());
  ObservedGenerator gen(std::make_unique<wl::SyntheticWorkload>(
                            array_spec(), simulator.ssd_array().user_pages(), seed),
                        probe, trace, 0);
  probe.armed = true;
  res.footprint = gen.footprint_pages();
  res.working_set = gen.working_set_pages();

  std::ostringstream jsonl;
  sim::JsonlMetricsSink sink(jsonl, /*run_index=*/0, seed, /*emit_intervals=*/true);
  std::optional<TimedSink> timed_sink;
  sim::MetricsSink* run_sink = &sink;
  if (trace != nullptr) run_sink = &timed_sink.emplace(sink, *trace);
  simulator.set_metrics_sink(run_sink);

  res.report = simulator.run(gen);
  finish_run(res, start, cpu_start, probe, jsonl.str());
  const array::SsdArray& arr = simulator.ssd_array();
  for (std::uint32_t d = 0; d < arr.total_device_count(); ++d) {
    res.final_candidates_visited.push_back(arr.device(d).ftl().stats().victim_candidates_visited);
  }
  return res;
}

RunResult run_workload(const WorkloadDef& w, std::uint64_t seed, SetupProbe& probe,
                       Trace* trace) {
  return w.shape == Shape::kArray ? run_array(seed, w.sim_seconds, probe, trace)
                                  : run_single(w, seed, w.sim_seconds, probe, trace);
}

// -- Standalone drives -------------------------------------------------------------

/// The FTL fast-path bundle both simulators apply to every device. (No
/// workload enables fault injection, so the per-device fault seed the
/// simulators derive never matters; fillcheck would catch it if one did.)
sim::SsdConfig tuned(sim::SsdConfig ssd) {
  ssd.ftl.deferred_index_maintenance = true;
  ssd.ftl.flat_nand_layout = true;
  return ssd;
}

/// Post-fill replica: the device(s) after the same fill + scramble loop and
/// RNG the simulator's preconditioning runs, driven through Ftl::write.
struct FillReplica {
  std::vector<std::unique_ptr<sim::Ssd>> devices;
  double fill_s = 0.0;
  std::uint64_t writes = 0;
  std::uint64_t programs = 0;
  std::uint64_t erases = 0;
  std::uint64_t gc_cycles = 0;
  std::vector<std::uint64_t> candidates_visited;  ///< per device, post-fill
};

void tally_fill(FillReplica& rep) {
  for (const auto& d : rep.devices) {
    rep.writes += d->ftl().stats().host_pages_written;
    rep.programs += d->ftl().nand().stats().page_programs;
    rep.erases += d->ftl().nand().stats().block_erases;
    rep.gc_cycles += d->ftl().stats().gc_cycles;
    rep.candidates_visited.push_back(d->ftl().stats().victim_candidates_visited);
  }
}

/// Simulator::precondition, replayed on a fresh sim::Ssd.
FillReplica replicate_single_fill(const sim::SimConfig& config, Lba footprint_pages,
                                  Lba working_set_pages, bool wants_sip) {
  FillReplica rep;
  rep.devices.push_back(std::make_unique<sim::Ssd>(tuned(config.ssd)));
  sim::Ssd& ssd = *rep.devices.front();
  ssd.set_sip_filter_enabled(wants_sip);  // Simulator::run sets it before the fill
  ftl::Ftl& ftl = ssd.mutable_ftl();

  const auto start = Clock::now();
  const Lba footprint = std::min<Lba>(footprint_pages, ftl.user_pages());
  for (Lba lba = 0; lba < footprint; ++lba) ftl.write(lba);
  const Lba ws = std::min<Lba>(working_set_pages, footprint);
  if (ws > 0) {
    Rng rng(config.seed ^ 0xA6E5C0DE);
    const auto overwrites = static_cast<std::uint64_t>(config.precondition_overwrite_factor *
                                                       static_cast<double>(ws));
    for (std::uint64_t i = 0; i < overwrites; ++i) ftl.write(rng.uniform(ws));
  }
  rep.fill_s = seconds_between(start, Clock::now());
  tally_fill(rep);
  return rep;
}

/// Pages of the striped prefix [0, prefix) that land on device `d` of `n`
/// (the array's RAID-0 fill share).
Lba prefix_pages_on_device(Lba prefix, std::uint32_t d, std::uint32_t n, Lba chunk) {
  const Lba full_chunks = prefix / chunk;
  const Lba tail = prefix % chunk;
  Lba pages = (full_chunks / n) * chunk;
  const auto extra = static_cast<std::uint32_t>(full_chunks % n);
  if (d < extra) pages += chunk;
  if (d == extra) pages += tail;
  return pages;
}

/// ArraySimulator::precondition (RAID-0), replayed on fresh devices over a
/// pool of the run's size.
FillReplica replicate_array_fill(const array::ArraySimConfig& config, Lba footprint_pages,
                                 Lba working_set_pages) {
  FillReplica rep;
  const std::uint32_t n = config.array.devices;
  for (std::uint32_t d = 0; d < n; ++d) {
    rep.devices.push_back(std::make_unique<sim::Ssd>(tuned(config.ssd)));
  }
  const Lba user_pages = rep.devices.front()->ftl().user_pages() * n;
  const Lba footprint = std::min<Lba>(footprint_pages, user_pages);
  const Lba ws = std::min<Lba>(working_set_pages, footprint);
  const Lba chunk = config.array.stripe_chunk_pages;

  ThreadPool pool(config.step_threads);
  const auto start = Clock::now();
  pool.parallel_for(n, [&](std::size_t d) {
    ftl::Ftl& ftl = rep.devices[d]->mutable_ftl();
    const auto dev = static_cast<std::uint32_t>(d);
    const Lba fill = prefix_pages_on_device(footprint, dev, n, chunk);
    for (Lba lba = 0; lba < fill; ++lba) ftl.write(lba);
    const Lba ws_d = prefix_pages_on_device(ws, dev, n, chunk);
    if (ws_d > 0) {
      Rng rng(derive_seed(config.seed ^ 0xA6E5C0DE, d));
      const auto overwrites = static_cast<std::uint64_t>(config.precondition_overwrite_factor *
                                                         static_cast<double>(ws_d));
      for (std::uint64_t i = 0; i < overwrites; ++i) ftl.write(rng.uniform(ws_d));
    }
    const Bytes free_now = ftl.free_bytes_for_writes();
    if (free_now < ftl.op_capacity()) {
      ftl.background_reclaim((ftl.op_capacity() - free_now) / ftl.page_size());
    }
  });
  rep.fill_s = seconds_between(start, Clock::now());
  tally_fill(rep);
  return rep;
}

std::string serialize(const sim::Ssd& ssd) {
  BinaryWriter w;
  ssd.save_state(w);
  return w.take();
}

struct SnapshotDrive {
  double save_s = 0.0;
  double restore_s = 0.0;
  std::uint64_t bytes = 0;
};

/// Ssd::save_state / restore_state over every replica device (an array
/// snapshot is the concatenation of its per-slot device states). Restores
/// land on freshly constructed devices; only the restore itself is timed.
SnapshotDrive drive_snapshot(const FillReplica& rep, bool wants_sip) {
  SnapshotDrive out;
  for (const auto& dev : rep.devices) {
    auto t0 = Clock::now();
    const std::string blob = serialize(*dev);
    out.save_s += seconds_between(t0, Clock::now());
    out.bytes += blob.size();

    sim::Ssd fresh(dev->config());
    fresh.set_sip_filter_enabled(wants_sip);
    t0 = Clock::now();
    BinaryReader r(blob);
    fresh.restore_state(r);
    r.expect_end();
    out.restore_s += seconds_between(t0, Clock::now());
  }
  return out;
}

struct GcDrive {
  double step_s = 0.0;
  std::uint64_t migrated = 0;
  double select_s = 0.0;
  std::uint64_t selects = 0;
  std::uint64_t candidates = 0;
};

/// Victim selection + background GC steps on the post-fill device: each
/// round times one Ftl::select_victim_indexed query, then collects one
/// victim through Ssd::bgc_collect_step.
GcDrive drive_gc(sim::Ssd& ssd) {
  constexpr std::uint64_t kVictims = 2000;
  constexpr std::uint32_t kStepPages = 64;  // the simulator's urgent-reclaim step size
  GcDrive out;
  for (std::uint64_t v = 0; v < kVictims; ++v) {
    std::uint64_t visited = 0;
    auto t0 = Clock::now();
    const ftl::Ftl::VictimChoice choice = ssd.ftl().select_victim_indexed(&visited);
    out.select_s += seconds_between(t0, Clock::now());
    ++out.selects;
    out.candidates += visited;
    if (choice.block == ftl::Ftl::kNoBlock) break;

    t0 = Clock::now();
    ftl::Ftl::GcStep step;
    do {
      step = ssd.bgc_collect_step(kStepPages);
      out.migrated += step.migrated;
    } while (step.progressed && !step.erased);
    out.step_s += seconds_between(t0, Clock::now());
    if (!step.progressed) break;
  }
  return out;
}

/// Replays the run's recorded page-cache operation stream through a fresh
/// host::PageCache. The operations of flusher interval k are spread evenly
/// over it (the generator does not see simulated time), then the interval
/// closes with a flusher tick. Each tick writes back only as many pages as
/// the run's cache did at that tick, which the simulator limits to what the
/// device can absorb, and commits a SIP checkpoint only where the run did.
/// Dirty-limit throttling evicts like the simulator does. Returns host
/// seconds.
double drive_page_cache(const sim::SimConfig& config, const std::vector<CacheOp>& stream,
                        const std::vector<TickRecord>& ticks, bool wants_sip) {
  host::PageCache cache(config.cache);
  if (wants_sip) cache.enable_sip_tracking();
  const TimeUs p = config.cache.flush_period;
  const Bytes page = config.cache.page_size;
  std::size_t i = 0;
  const auto start = Clock::now();
  for (std::uint64_t k = 0; k <= ticks.size(); ++k) {
    std::size_t end = i;
    while (end < stream.size() && stream[end].interval == k) ++end;
    const auto n = static_cast<TimeUs>(end - i);
    for (TimeUs j = 0; i < end; ++i, ++j) {
      const CacheOp& op = stream[i];
      if (op.trim) {
        cache.discard(op.lba, op.pages);
        continue;
      }
      const TimeUs t = static_cast<TimeUs>(k) * p + (j + 1) * p / (n + 1);
      if (cache.dirty_bytes() + static_cast<Bytes>(op.pages) * page > config.cache.capacity) {
        cache.evict_oldest(op.pages);
      }
      for (std::uint32_t q = 0; q < op.pages; ++q) cache.write(op.lba + q, t);
    }
    if (k < ticks.size()) {
      const TickRecord& tick = ticks[k];
      const std::uint64_t done = cache.pages_flushed();
      cache.flusher_tick(static_cast<TimeUs>(k + 1) * p,
                         tick.pages_flushed > done ? tick.pages_flushed - done : 0);
      if (tick.sip_commit) cache.commit_sip_checkpoint();
    }
  }
  return seconds_between(start, Clock::now());
}

// -- Modes ---------------------------------------------------------------------------

/// Appends the fields every run reports; the embedded `run` record comes
/// last, so its raw bytes are the tail of the output line.
JsonObject& base_fields(JsonObject& o, const RunResult& r) {
  return o.num("setup_s", r.setup_s)
      .num("measured_s", r.measured_s)
      .num("wall_s", r.wall_s)
      .num("cpu_s", r.cpu_s)
      .num("peak_rss_mb", peak_rss_mb())
      .count("ops", r.report.ops_completed)
      .count("host_pages_written", r.report.device_pages_written)
      .count("nand_programs", r.report.nand_programs)
      .count("pages_migrated", r.report.pages_migrated)
      .count("metrics_bytes", r.metrics_bytes)
      .raw("run_record", r.run_record);
}

int mode_plain(const WorkloadDef& w, std::uint64_t seed) {
  SetupProbe probe;
  const RunResult r = run_workload(w, seed, probe, nullptr);
  JsonObject o;
  std::printf("%s\n", base_fields(o, r).done().c_str());
  return 0;
}

int mode_traced(const WorkloadDef& w, std::uint64_t seed) {
  SetupProbe probe;
  Trace trace;
  const RunResult r = run_workload(w, seed, probe, &trace);

  // Standalone drives on inputs reproducing the run's own.
  const bool array = w.shape == Shape::kArray;
  const sim::SimConfig single = single_config(w, seed, w.sim_seconds);
  FillReplica fill = array ? replicate_array_fill(array_config(seed, w.sim_seconds), r.footprint,
                                                  r.working_set)
                           : replicate_single_fill(single, r.footprint, r.working_set,
                                                   r.wants_sip);
  const SnapshotDrive snap = drive_snapshot(fill, r.wants_sip);
  const GcDrive gc = drive_gc(*fill.devices.front());
  const double page_cache_s =
      array ? 0.0 : drive_page_cache(single, trace.cache_ops, trace.ticks, r.wants_sip);

  // The replica's post-fill counters are the run's measured-phase baseline.
  std::uint64_t run_visited = 0;
  for (std::size_t d = 0; d < fill.candidates_visited.size(); ++d) {
    run_visited += r.final_candidates_visited.at(d) - fill.candidates_visited[d];
  }
  const sim::SimReport& rep = r.report;
  const auto tenant_ops = [&](std::size_t t) {
    return t < rep.tenants.size() ? rep.tenants[t].ops : 0;
  };

  JsonObject o;
  o.num("sim.ctor_s", r.ctor_s)
      .num("sim.fill_s", fill.fill_s)
      .num("ftl.fill_pages_per_s", static_cast<double>(fill.writes) / fill.fill_s)
      .count("ftl.fill_writes", fill.writes)
      .count("nand.fill_programs", fill.programs)
      .count("nand.fill_erases", fill.erases)
      .count("ftl.fill_gc_cycles", fill.gc_cycles)
      .num("workload.next_s", trace.next.total_s)
      .count("workload.next_calls", trace.next.calls)
      .num("core.policy_s", trace.policy.total_s)
      .count("core.policy_calls", trace.policy.calls)
      .num("host.page_cache_s", page_cache_s)
      .count("host.pages_flushed", r.pages_flushed)
      .count("host.absorbed_overwrites", r.absorbed_overwrites)
      .num("ftl.gc_step_pages_per_s",
           gc.step_s > 0.0 ? static_cast<double>(gc.migrated) / gc.step_s : 0.0)
      .num("ftl.victim_select_us", gc.selects ? gc.select_s * 1e6 / gc.selects : 0.0)
      .num("ftl.victim_candidates_per_select",
           gc.selects ? static_cast<double>(gc.candidates) / gc.selects : 0.0)
      .num("sim.metrics_s", trace.metrics.total_s)
      .count("sim.metrics_records", trace.metrics_records)
      .num("sim.run_self_s",
           r.measured_s - trace.next.total_s - trace.policy.total_s - trace.metrics.total_s)
      .num("sim.snapshot_save_s", snap.save_s)
      .num("sim.snapshot_restore_s", snap.restore_s)
      .count("sim.snapshot_bytes", snap.bytes)
      .count("sim.ops", rep.ops_completed)
      .count("nand.programs", rep.nand_programs)
      .count("nand.erases", rep.nand_erases)
      .count("ftl.gc_migrations", rep.pages_migrated)
      .count("ftl.fgc_cycles", rep.fgc_cycles)
      .count("ftl.bgc_cycles", rep.bgc_cycles)
      .count("ftl.victim_selections", rep.victim_selections)
      .count("ftl.victim_candidates_visited", run_visited)
      .count("frontend.tenant0.ops", tenant_ops(0))
      .count("frontend.tenant1.ops", tenant_ops(1));
  base_fields(o, r);
  std::printf("%s\n", o.done().c_str());
  return 0;
}

/// Fill-replica exactness: the replica's serialized state must equal the
/// simulator's own post-precondition state. Single SSD: the snapshot the run
/// publishes to an attached in-memory SnapshotCache, fetched by its
/// precondition fingerprint. Array: every device of a zero-length run (the
/// array fingerprint is internal to ArraySimulator).
int mode_fillcheck(const WorkloadDef& w, std::uint64_t seed) {
  std::vector<std::string> expected;
  FillReplica fill;
  if (w.shape == Shape::kArray) {
    const array::ArraySimConfig config = array_config(seed, 0.0);
    array::ArraySimulator simulator(config);
    wl::SyntheticWorkload gen(array_spec(), simulator.ssd_array().user_pages(), seed);
    simulator.run(gen);
    const array::SsdArray& arr = simulator.ssd_array();
    for (std::uint32_t s = 0; s < arr.device_count(); ++s) {
      expected.push_back(serialize(arr.device(arr.slot_device(s))));
    }
    fill = replicate_array_fill(config, gen.footprint_pages(), gen.working_set_pages());
  } else {
    // A one-tick run: preconditioning is all that matters here.
    const sim::SimConfig config = single_config(w, seed, 5.0);
    SetupProbe probe;
    sim::SnapshotCache cache;
    sim::Simulator simulator(config);
    const Lba user_pages = simulator.ssd().ftl().user_pages();
    auto [gen, policy] = make_single_workload(w, config, user_pages, probe, nullptr);
    simulator.set_snapshot_cache(&cache);
    simulator.run(*gen, *policy);
    const Lba footprint = std::min<Lba>(gen->footprint_pages(), user_pages);
    const Lba ws = std::min<Lba>(gen->working_set_pages(), footprint);
    const sim::SnapshotCache::Blob blob =
        cache.find(sim::precondition_fingerprint(config, footprint, ws));
    if (blob == nullptr) throw std::runtime_error("no snapshot under the run's fingerprint");
    expected.push_back(*blob);
    fill = replicate_single_fill(config, gen->footprint_pages(), gen->working_set_pages(),
                                 policy->wants_sip_filter());
  }
  bool identical = expected.size() == fill.devices.size();
  std::uint64_t bytes = 0;
  for (std::size_t d = 0; identical && d < expected.size(); ++d) {
    identical = serialize(*fill.devices[d]) == expected[d];
    bytes += expected[d].size();
  }
  std::printf("%s\n", JsonObject()
                          .raw("identical", identical ? "true" : "false")
                          .count("devices", expected.size())
                          .count("bytes", bytes)
                          .done()
                          .c_str());
  return identical ? 0 : 1;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "jitgc_perfbench: %s\nusage: jitgc_perfbench --workload=<name> --seed=<n> "
               "--mode=<plain|traced|fillcheck>\n",
               why);
  return 2;
}

int run_main(int argc, char** argv) {
  std::string workload;
  std::string mode = "plain";
  std::uint64_t seed = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") {
      workload = value;
    } else if (key == "--mode") {
      mode = value;
    } else if (key == "--seed") {
      seed = std::stoull(value);
    } else if (key == "--describe") {
      std::printf("%s\n", JsonObject()
                              .str("build_type", JITGC_PERFBENCH_BUILD_TYPE)
                              .str("compiler", JITGC_PERFBENCH_COMPILER)
                              .count("array_pool_threads", kArrayThreads)
                              .done()
                              .c_str());
      return 0;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  const WorkloadDef* w = find_workload(workload);
  if (w == nullptr) return usage(("unknown workload '" + workload + "'").c_str());
  if (mode == "plain") return mode_plain(*w, seed);
  if (mode == "traced") return mode_traced(*w, seed);
  if (mode == "fillcheck") return mode_fillcheck(*w, seed);
  return usage(("unknown mode '" + mode + "'").c_str());
}

}  // namespace
}  // namespace jitgc::perfbench

int main(int argc, char** argv) {
  try {
    return jitgc::perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "jitgc_perfbench: %s\n", e.what());
    return 1;
  }
}
