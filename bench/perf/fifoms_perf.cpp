// fifoms_perf: runs one workload of the repository benchmark and prints
// its raw samples as one JSON object; run.py builds this binary, turns
// the samples into the metrics and checks them (README.md).
//
//   fifoms_perf --workload W --seed S --seconds T --trace 0|1 [--quick]
//
// A run is one warm-up rep, traced, that is not timed: it fills caches
// and supplies the slot and copy counts, which the digest check makes
// those of every rep.  Then untraced reps for T seconds (at least five),
// or with --trace 1 untraced reps for T/2 and traced reps for T/2 (at
// least three each), plus for the sweep one pass on a single thread.
// Every rep is checked; a failed check is reported, never hidden.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "io/cli.hpp"
#include "io/json.hpp"
#include "workloads.hpp"

namespace {

using namespace fifoms;
using namespace fifoms::perf;

constexpr int kMaxSweepThreads = 4;

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::string compiler_id() {
#if defined(__clang__)
  return std::string("Clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("GNU ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Peak resident set in KiB since the last reset_peak_rss().  VmHWM, not
/// getrusage's ru_maxrss: Linux carries ru_maxrss across exec, so a
/// small workload would report its launcher's footprint.
std::int64_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stoll(line.substr(6));
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

/// Restart the peak at the current resident set (Linux 4.0 and later),
/// so each rep reports its own peak; the sweep's peak depends on which
/// cells happen to run together, so one process-wide peak is noisy.
/// Where the reset is refused every rep reports the peak so far.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

std::vector<double> walls(const std::vector<RepResult>& reps) {
  std::vector<double> out;
  for (const RepResult& rep : reps)
    out.push_back(static_cast<double>(rep.wall_ns()));
  return out;
}

/// Runs reps until `seconds` have passed and at least `min_reps` ran.
template <class RunRep>
std::vector<RepResult> run_for(double seconds, int min_reps, RunRep run_rep) {
  std::vector<RepResult> reps;
  const std::int64_t start = now_ns();
  while (static_cast<int>(reps.size()) < min_reps ||
         static_cast<double>(now_ns() - start) < seconds * 1e9)
    reps.push_back(run_rep());
  return reps;
}

void write_per_layer(JsonWriter& json, const std::string& workload,
                     const Ledger& l, double overhead, double speedup) {
  const auto total = [&l](Span span) {
    return static_cast<double>(l.spans[span].total_ns);
  };
  const double slots = std::max<double>(1, static_cast<double>(l.slots));
  const double wall = std::max<double>(1, static_cast<double>(l.wall_ns));
  const double traffic = total(kTraffic);
  const double inject = total(kInject);
  const double metrics = total(kOnInject) + total(kMetrics);
  const double stability = total(kStability);
  const double sched = total(kSched);
  const double self = total(kSwitchSelf);
  const double snapshot = total(kEncode) + total(kSave);
  // On the fabric the switch's own work outside its elements' schedulers
  // is the relay; elsewhere it is crossbar, transmit and purge.
  const bool fabric = workload == "clos64";
  const auto per_call_us = [&l](Span span) {
    const SpanStats& s = l.spans[span];
    return s.count == 0 ? 0.0
                        : static_cast<double>(s.total_ns) /
                              static_cast<double>(s.count) / 1e3;
  };
  const auto ratio = [](double num, std::uint64_t den) {
    return den == 0 ? 0.0 : num / static_cast<double>(den);
  };

  const std::vector<std::pair<const char*, double>> metrics_out = {
      {"trace.overhead", overhead},
      {"trace.coverage", (traffic + inject + metrics + stability + sched +
                          self + snapshot) /
                             wall},
      {"sim.slot_ns_p50", l.spans[kSlot].hist.quantile(0.5)},
      {"sim.slot_ns_p99", l.spans[kSlot].hist.quantile(0.99)},
      {"traffic.ns_per_slot", traffic / slots},
      {"traffic.share", traffic / wall},
      {"traffic.arrivals_per_slot", static_cast<double>(l.arrivals) / slots},
      {"fabric.inject_ns_per_slot", inject / slots},
      {"fabric.inject_share", inject / wall},
      {"sim.metrics_ns_per_slot", metrics / slots},
      {"sim.metrics_share", metrics / wall},
      {"sim.stability_ns_per_slot", stability / slots},
      {"sim.driver_ns_per_slot", (traffic + metrics + stability) / slots},
      {"sched.ns_per_slot", sched / slots},
      {"sched.share", sched / wall},
      {"sched.p99_ns", l.spans[kSched].hist.quantile(0.99)},
      {"sched.rounds_per_slot",
       ratio(static_cast<double>(l.rounds), l.sched_calls)},
      {"sched.copies_per_grant",
       ratio(static_cast<double>(l.copies_granted), l.grants)},
      {"sim.switch_self_ns_per_slot", fabric ? 0.0 : self / slots},
      {"sim.switch_self_share", fabric ? 0.0 : self / wall},
      {"net.relay_ns_per_slot", fabric ? self / slots : 0.0},
      {"net.relay_share", fabric ? self / wall : 0.0},
      {"net.forwarded_per_slot", static_cast<double>(l.forwarded) / slots},
      {"net.pauses_per_slot", static_cast<double>(l.pauses) / slots},
      {"snapshot.encode_us", per_call_us(kEncode)},
      {"snapshot.save_us", per_call_us(kSave)},
      {"snapshot.restore_us", per_call_us(kRestore)},
      {"snapshot.bytes", static_cast<double>(l.snapshot_bytes)},
      {"snapshot.share", snapshot / wall},
      {"pool.busy_frac",
       l.pool_capacity_ns == 0
           ? 0.0
           : static_cast<double>(l.wall_ns) /
                 static_cast<double>(l.pool_capacity_ns)},
      {"sweep.parallel_speedup", speedup},
      {"sweep.cell_ms_p50", median(l.cell_ms)},
      {"sweep.cell_ms_max",
       l.cell_ms.empty()
           ? 0.0
           : *std::max_element(l.cell_ms.begin(), l.cell_ms.end())},
      {"sweep.unstable_cells",
       ratio(static_cast<double>(l.unstable_cells), l.runs)},
  };
  json.key("per_layer");
  json.begin_object();
  for (const auto& [name, value] : metrics_out) {
    json.key(name);
    json.value(value);
  }
  json.end_object();

  static const char* const kSpanNames[kSpanCount] = {
      "traffic", "inject",    "on_inject", "sched", "switch_self", "metrics",
      "stability", "slot",    "encode",    "save",  "restore"};
  json.key("spans");
  json.begin_object();
  for (int span = 0; span < kSpanCount; ++span) {
    const SpanStats& s = l.spans[static_cast<std::size_t>(span)];
    json.key(kSpanNames[span]);
    json.begin_object();
    json.key("count");
    json.value(static_cast<std::int64_t>(s.count));
    json.key("self_ns");
    json.value(s.total_ns);
    json.key("p50_ns");
    json.value(s.hist.quantile(0.5));
    json.key("p99_ns");
    json.value(s.hist.quantile(0.99));
    json.end_object();
  }
  json.end_object();
}

void write_reps(JsonWriter& json, const char* key,
                const std::vector<RepResult>& reps) {
  json.key(key);
  json.begin_array();
  for (const RepResult& rep : reps) {
    json.begin_object();
    json.key("setup_ns");
    json.value(rep.setup_ns);
    json.key("peak_rss_kb");
    json.value(rep.peak_rss_kb);
    json.key("chunks_ns");
    json.begin_array();
    for (const std::int64_t ns : rep.chunks_ns) json.value(ns);
    json.end_array();
    json.end_object();
  }
  json.end_array();
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser parser("fifoms_perf",
                   "one workload of the repository benchmark (run.py "
                   "drives it; see README.md)");
  parser.add_string("workload", "", "fig4-sweep|fifoms256|clos64|storm-ckpt");
  parser.add_int("seed", 1, "benchmark seed");
  parser.add_double("seconds", 10.0, "measuring time");
  parser.add_int("trace", 0, "1 = also run traced reps");
  parser.add_bool("quick", false, "1/20 of every input, one rep of each kind");
  parser.add_string("work-dir", "build/perf/work", "checkpoint directory");
  if (!parser.parse(argc, argv)) return 2;

  const std::string name = parser.get_string("workload");
  const auto& names = workload_names();
  const auto found = std::find(names.begin(), names.end(), name);
  const std::int64_t trace = parser.get_int("trace");
  const double seconds = parser.get_double("seconds");
  if (found == names.end() || (trace != 0 && trace != 1) || seconds < 0) {
    parser.print_usage();
    return 2;
  }
  const bool quick = parser.get_bool("quick");
  const auto seed = static_cast<std::uint64_t>(parser.get_int("seed"));
  const auto index = static_cast<std::uint64_t>(found - names.begin());
  const std::uint64_t workload_seed = derive_seed(seed, index, 0);
  const int threads = std::min(usable_cpus(), kMaxSweepThreads);
  const std::string work_dir = parser.get_string("work-dir");
  const auto workload =
      make_workload(name, workload_seed, quick, threads, work_dir);

  Ledger warmup_ledger;
  const RepResult warmup = workload->run_traced(warmup_ledger);
  const double budget = trace == 1 ? seconds / 2 : seconds;
  const int min_reps = quick ? 1 : (trace == 1 ? 3 : 5);
  std::vector<RepResult> reps = run_for(budget, min_reps, [&] {
    reset_peak_rss();
    RepResult rep = workload->run();
    rep.peak_rss_kb = peak_rss_kb();
    return rep;
  });
  Ledger ledger;
  std::vector<RepResult> traced;
  std::vector<RepResult> serial;
  if (trace == 1) {
    traced = run_for(budget, min_reps,
                     [&] { return workload->run_traced(ledger); });
    if (name == "fig4-sweep" && threads > 1)
      serial.push_back(
          make_workload(name, workload_seed, quick, 1, work_dir)->run());
  }

  std::vector<std::string> failures;
  int attempted = 0;
  int failed = 0;
  for (const auto* group : {&reps, &traced, &serial}) {
    for (const RepResult& rep : *group) {
      ++attempted;
      std::vector<std::string> broken = rep.failures;
      if (rep.digest != warmup.digest)
        broken.push_back("statistics differ from the warm-up rep's");
      if (!broken.empty()) ++failed;
      failures.insert(failures.end(), broken.begin(), broken.end());
    }
  }
  ++attempted;
  if (!warmup.failures.empty()) ++failed;
  failures.insert(failures.end(), warmup.failures.begin(),
                  warmup.failures.end());

  JsonWriter json;
  json.begin_object();
  json.key("workload");
  json.value(name);
  json.key("seed");
  json.value(static_cast<std::int64_t>(seed));
  json.key("threads");
  json.value(name == "fig4-sweep" ? threads : 1);
  json.key("quick");
  json.value(quick);
  json.key("compiler");
  json.value(compiler_id());
  json.key("build_type");
  json.value(FIFOMS_PERF_BUILD_TYPE);
  json.key("fifoms_audit");
  json.value(FIFOMS_AUDIT);
  json.key("slots");
  json.value(static_cast<std::int64_t>(warmup.slots));
  json.key("copies");
  json.value(static_cast<std::int64_t>(warmup.copies));
  write_reps(json, "reps", reps);
  write_reps(json, "traced_reps", traced);
  json.key("attempted");
  json.value(attempted);
  json.key("failed");
  json.value(failed);
  json.key("failures");
  json.begin_array();
  for (const std::string& failure : failures) json.value(failure);
  json.end_array();
  if (trace == 1) {
    const double untraced = median(walls(reps));
    const double overhead =
        untraced > 0 ? median(walls(traced)) / untraced - 1.0 : 0.0;
    const double speedup =
        serial.empty() || untraced <= 0
            ? 0.0
            : static_cast<double>(serial.front().wall_ns()) / untraced;
    write_per_layer(json, name, ledger, overhead, speedup);
  }
  json.end_object();
  std::printf("%s\n", json.str().c_str());
  return 0;
}
