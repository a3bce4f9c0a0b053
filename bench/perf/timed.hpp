// Decorators that time the library's layers from outside (README.md,
// "Traced run").  Both forward every virtual, snapshot state included, so
// a decorated model is the same model: the digest check in fifoms_perf
// compares every traced run with its untraced twin.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/sync.hpp"
#include "ledger.hpp"
#include "sched/voq_scheduler.hpp"
#include "sim/switch_model.hpp"

namespace fifoms::perf {

/// Times every schedule() call as a kSched span and reads the rounds,
/// grants and copies of the matching it produced.
class TimedScheduler final : public VoqScheduler {
 public:
  TimedScheduler(std::unique_ptr<VoqScheduler> inner, Ledger& ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}

  std::string_view name() const override { return inner_->name(); }
  void reset(int num_inputs, int num_outputs) override {
    inner_->reset(num_inputs, num_outputs);
  }
  using VoqScheduler::schedule;
  void schedule(std::span<const McVoqInput> inputs, SlotTime now,
                SlotMatching& matching, Rng& rng,
                const ScheduleConstraints& constraints) override;
  void save_state(snapshot::Writer& out) const override {
    inner_->save_state(out);
  }
  void load_state(snapshot::Reader& in) override { inner_->load_state(in); }

 private:
  std::unique_ptr<VoqScheduler> inner_;
  Ledger& ledger_;
};

/// "copies_offered == copies_delivered + copies_purged + queued", with
/// `queued` counted from the model's own structures, or the reason it
/// does not hold (also when the model is one this benchmark cannot
/// inspect).
std::optional<std::string> conservation_failure(const SwitchModel& sw,
                                                std::uint64_t offered,
                                                std::uint64_t delivered,
                                                std::uint64_t purged);

/// Where the TimedSwitches of a sweep hand their ledgers when their cell
/// ends; cells run on several pool threads.
struct LedgerSink {
  Mutex mutex;
  Ledger ledger FIFOMS_GUARDED_BY(mutex);
  std::vector<std::string> failures FIFOMS_GUARDED_BY(mutex);
};

/// Wraps a model driven by Simulator::step and splits each slot into
/// spans from the calls the driver makes in a fixed order: inject() per
/// arrival, step(), then total_buffered() from the stability check.
/// The gap before step() minus the inject() spans is kTraffic (it also
/// holds on_inject and the fault advance), step() is kSwitchSelf plus
/// the kSched spans of a TimedScheduler writing to ledger(), the gap to
/// total_buffered() is kMetrics and total_buffered() itself kStability.
class TimedSwitch final : public SwitchModel {
 public:
  using Builder = std::function<std::unique_ptr<SwitchModel>(Ledger&)>;

  /// `build` receives the ledger so it can hand it to a TimedScheduler.
  /// With a sink, the destructor checks conservation and merges the
  /// ledger, with the wrapper's lifetime as one cell duration.
  explicit TimedSwitch(const Builder& build, LedgerSink* sink = nullptr);
  ~TimedSwitch() override;

  TimedSwitch(const TimedSwitch&) = delete;
  TimedSwitch& operator=(const TimedSwitch&) = delete;

  std::string_view name() const override { return inner_->name(); }
  int num_inputs() const override { return inner_->num_inputs(); }
  int num_outputs() const override { return inner_->num_outputs(); }
  bool inject(const Packet& packet) override;
  std::uint64_t dropped_packets() const override {
    return inner_->dropped_packets();
  }
  void step(SlotTime now, Rng& rng, SlotResult& result) override;
  std::size_t occupancy(PortId port) const override {
    return inner_->occupancy(port);
  }
  int occupancy_ports() const override { return inner_->occupancy_ports(); }
  std::size_t total_buffered() const override;
  void clear() override { inner_->clear(); }
  void set_fault_state(const fault::FaultState* faults) override {
    inner_->set_fault_state(faults);
  }
  void save_state(snapshot::Writer& out) const override {
    inner_->save_state(out);
  }
  void load_state(snapshot::Reader& in) override { inner_->load_state(in); }

  const SwitchModel& inner() const { return *inner_; }
  const Ledger& ledger() const { return ledger_; }
  /// Start the next slot's clock now: time spent between slots (a
  /// checkpoint) is not slot time.
  void mark_boundary() { boundary_ns_ = now_ns(); }

 private:
  // The stability monitor reaches total_buffered() through a const
  // reference, so the slot clock it closes is mutable.
  mutable Ledger ledger_;
  std::unique_ptr<SwitchModel> inner_;
  LedgerSink* sink_;
  std::int64_t created_ns_;
  mutable std::int64_t boundary_ns_ = -1;  ///< end of the previous slot
  std::int64_t inject_ns_ = 0;             ///< inject() time this slot
  std::int64_t step_end_ns_ = -1;
};

}  // namespace fifoms::perf
