#include "ledger.hpp"

#include <algorithm>
#include <bit>

namespace fifoms::perf {

namespace {

constexpr int kSub = 1 << 3;

// Values below kSub get a bucket each; above, bucket (msb, next 3 bits).
int bucket_of(std::uint64_t v) {
  if (v < kSub) return static_cast<int>(v);
  const int msb = std::bit_width(v) - 1;
  const auto sub = static_cast<int>((v >> (msb - 3)) & (kSub - 1));
  return (msb - 2) * kSub + sub;
}

double bucket_mid(int index) {
  if (index < kSub) return index;
  const int msb = index / kSub + 2;
  const int sub = index % kSub;
  const double low = static_cast<double>(
      static_cast<std::uint64_t>(kSub + sub) << (msb - 3));
  return low + static_cast<double>(std::uint64_t{1} << (msb - 3)) / 2.0;
}

}  // namespace

void LogHistogram::add(std::int64_t ns) {
  ++buckets_[static_cast<std::size_t>(
      bucket_of(static_cast<std::uint64_t>(std::max<std::int64_t>(ns, 0))))];
  ++count_;
}

void LogHistogram::merge(const LogHistogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i)
    buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LogHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::max(1.0, q * static_cast<double>(count_) + 0.5));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) return bucket_mid(static_cast<int>(i));
  }
  return bucket_mid(static_cast<int>(buckets_.size()) - 1);
}

void SpanStats::merge(const SpanStats& other) {
  count += other.count;
  total_ns += other.total_ns;
  hist.merge(other.hist);
}

void Ledger::merge(const Ledger& other) {
  for (std::size_t i = 0; i < spans.size(); ++i) spans[i].merge(other.spans[i]);
  runs += other.runs;
  wall_ns += other.wall_ns;
  pool_capacity_ns += other.pool_capacity_ns;
  unstable_cells += other.unstable_cells;
  slots += other.slots;
  arrivals += other.arrivals;
  copies_in += other.copies_in;
  copies_out += other.copies_out;
  copies_purged += other.copies_purged;
  sched_calls += other.sched_calls;
  rounds += other.rounds;
  grants += other.grants;
  copies_granted += other.copies_granted;
  forwarded += other.forwarded;
  pauses += other.pauses;
  snapshot_bytes = std::max(snapshot_bytes, other.snapshot_bytes);
  cell_ms.insert(cell_ms.end(), other.cell_ms.begin(), other.cell_ms.end());
}

}  // namespace fifoms::perf
