// The per-layer ledger of a traced fifoms_perf run (README.md, "Traced
// run").
//
// Spans are timed from the benchmark's own code, around calls into the
// library's public functions, and aggregated in memory: per span kind a
// count, the total nanoseconds and a log-linear histogram.  Every span
// records SELF time — a parent span (SwitchModel::step) is stored minus
// the children timed inside it (VoqScheduler::schedule) — so the spans of
// one slot partition it and their sum can be checked against wall time.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

namespace fifoms::perf {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Histogram with 8 buckets per power of two (about 9 % resolution), so
/// tail quantiles of per-slot span times cost a fixed 4 KiB per span.
class LogHistogram {
 public:
  void add(std::int64_t ns);
  void merge(const LogHistogram& other);
  /// Midpoint of the bucket holding quantile `q`; 0 when empty.
  double quantile(double q) const;

 private:
  static constexpr int kSubBits = 3;
  std::array<std::uint64_t, 64 << kSubBits> buckets_{};
  std::uint64_t count_ = 0;
};

enum Span : int {
  kTraffic,     ///< TrafficModel::arrival/last_priority for every input
  kInject,      ///< SwitchModel::inject for every arrival
  kOnInject,    ///< MetricsCollector::on_inject for every accepted packet
  kSched,       ///< VoqScheduler::schedule (one span per call)
  kSwitchSelf,  ///< SwitchModel::step minus the kSched spans inside it
  kMetrics,     ///< MetricsCollector::on_slot_end
  kStability,   ///< StabilityMonitor::check
  kSlot,        ///< one whole slot (the sum of the spans above)
  kEncode,      ///< Simulator::save_state into a Writer
  kSave,        ///< CheckpointStore::save (frame, write, fsync, rename)
  kRestore,     ///< CheckpointStore::load_latest + Simulator::load_state
  kSpanCount,
};

struct SpanStats {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  LogHistogram hist;

  void add(std::int64_t ns) {
    ++count;
    total_ns += ns;
    hist.add(ns);
  }
  void merge(const SpanStats& other);
};

struct Ledger {
  std::array<SpanStats, kSpanCount> spans;
  std::uint64_t runs = 0;
  /// Wall time the traced runs took (summed over a sweep's cells); shares
  /// are fractions of it.
  std::int64_t wall_ns = 0;
  /// Sweep only: wall time x pool threads, the capacity the cells filled.
  std::int64_t pool_capacity_ns = 0;
  std::uint64_t unstable_cells = 0;
  std::uint64_t slots = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t copies_in = 0;  ///< copies of accepted packets
  std::uint64_t copies_out = 0;
  std::uint64_t copies_purged = 0;
  std::uint64_t sched_calls = 0;
  std::uint64_t rounds = 0;
  std::uint64_t grants = 0;          ///< inputs granted, summed over calls
  std::uint64_t copies_granted = 0;  ///< matched (input, output) pairs
  std::uint64_t forwarded = 0;       ///< copies that crossed a fabric link
  std::uint64_t pauses = 0;          ///< fabric wires paused by backpressure
  std::uint64_t snapshot_bytes = 0;  ///< payload bytes of the last checkpoint
  std::vector<double> cell_ms;       ///< sweep cell durations
  /// Scratch: schedule() time inside the step() now running, so the
  /// caller can store step() as self time.
  std::int64_t sched_in_step_ns = 0;

  void merge(const Ledger& other);
};

}  // namespace fifoms::perf
