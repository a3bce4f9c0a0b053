// The four workloads of the repository benchmark (README.md lists each
// with the reason it was chosen).  All are closed batch runs: a rep
// simulates a fixed input and the benchmark times how long it takes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ledger.hpp"

namespace fifoms::perf {

/// One rep.  Slots and copies are filled only where the rep can count
/// them without per-slot cost; the digest equality the benchmark
/// checks makes the traced warm-up's counts those of every rep.
struct RepResult {
  std::int64_t setup_ns = 0;  ///< rep start to the first simulated slot
  /// First simulated slot to the end, cut into chunks of equal input:
  /// every rep of a run simulates the same input, so chunk i is the
  /// same work in every rep and run.py can take medians chunk by chunk.
  std::vector<std::int64_t> chunks_ns;
  std::uint64_t slots = 0;    ///< simulated slots executed
  std::uint64_t copies = 0;   ///< copies delivered
  std::uint64_t digest = 0;   ///< hash of the statistics the run reports
  std::vector<std::string> failures;  ///< broken invariants
  std::int64_t peak_rss_kb = 0;  ///< set by the caller that timed the rep

  std::int64_t wall_ns() const;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One rep with tracing off.
  virtual RepResult run() = 0;
  /// One rep with every layer timed into `ledger`.
  virtual RepResult run_traced(Ledger& ledger) = 0;
};

/// Workload names in index order (the index keys the workload seed).
const std::vector<std::string>& workload_names();

/// `seed` is the workload's own seed; `quick` runs 1/20 of the input;
/// `threads` is the sweep's pool size; checkpoints go under `work_dir`.
/// Returns nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool quick,
                                        int threads,
                                        const std::string& work_dir);

}  // namespace fifoms::perf
