#include "timed.hpp"

#include "net/network_fabric.hpp"
#include "sim/oq_switch.hpp"
#include "sim/single_fifo_switch.hpp"
#include "sim/voq_switch.hpp"

namespace fifoms::perf {

void TimedScheduler::schedule(std::span<const McVoqInput> inputs,
                              SlotTime now, SlotMatching& matching, Rng& rng,
                              const ScheduleConstraints& constraints) {
  const std::int64_t start = now_ns();
  inner_->schedule(inputs, now, matching, rng, constraints);
  const std::int64_t ns = now_ns() - start;
  ledger_.sched_in_step_ns += ns;
  ledger_.spans[kSched].add(ns);
  ++ledger_.sched_calls;
  ledger_.rounds += static_cast<std::uint64_t>(matching.rounds);
  ledger_.grants += static_cast<std::uint64_t>(matching.matched_inputs());
  ledger_.copies_granted +=
      static_cast<std::uint64_t>(matching.matched_pairs());
}

namespace {

/// Copies still queued inside a model, counted from its own structures;
/// nullopt for a model this benchmark does not know how to inspect.
std::optional<std::uint64_t> queued_copies(const SwitchModel& sw) {
  std::uint64_t queued = 0;
  if (const auto* timed = dynamic_cast<const TimedSwitch*>(&sw))
    return queued_copies(timed->inner());
  if (const auto* voq = dynamic_cast<const VoqSwitch*>(&sw)) {
    for (PortId p = 0; p < voq->num_inputs(); ++p)
      queued += voq->input(p).address_cell_count();
    return queued;
  }
  if (const auto* fifo = dynamic_cast<const SingleFifoSwitch*>(&sw)) {
    for (PortId p = 0; p < fifo->num_inputs(); ++p)
      for (const FifoCell& cell : fifo->input(p).cells())
        queued += static_cast<std::uint64_t>(cell.remaining.count());
    return queued;
  }
  if (const auto* oq = dynamic_cast<const OqSwitch*>(&sw))
    return oq->total_buffered();
  if (const auto* fabric = dynamic_cast<const net::NetworkFabric*>(&sw)) {
    // The fabric keeps a running count; cross-check it against its queues.
    if (fabric->queued_external_copies() != fabric->pending_copies())
      return std::nullopt;
    return fabric->pending_copies();
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::string> conservation_failure(const SwitchModel& sw,
                                                std::uint64_t offered,
                                                std::uint64_t delivered,
                                                std::uint64_t purged) {
  const std::optional<std::uint64_t> queued = queued_copies(sw);
  std::string why(sw.name());
  if (!queued) {
    why += ": queued copies unknown or inconsistent";
    return why;
  }
  if (offered == delivered + purged + *queued) return std::nullopt;
  why += ": copies offered ";
  why += std::to_string(offered);
  why += " != delivered ";
  why += std::to_string(delivered);
  why += " + purged ";
  why += std::to_string(purged);
  why += " + queued ";
  why += std::to_string(*queued);
  return why;
}

TimedSwitch::TimedSwitch(const Builder& build, LedgerSink* sink)
    : inner_(build(ledger_)), sink_(sink), created_ns_(now_ns()) {}

TimedSwitch::~TimedSwitch() {
  if (sink_ == nullptr) return;
  ledger_.wall_ns = now_ns() - created_ns_;
  ledger_.cell_ms.push_back(static_cast<double>(ledger_.wall_ns) / 1e6);
  const std::optional<std::string> failure = conservation_failure(
      *inner_, ledger_.copies_in, ledger_.copies_out, ledger_.copies_purged);
  MutexLock lock(sink_->mutex);
  sink_->ledger.merge(ledger_);
  if (failure) sink_->failures.push_back(*failure);
}

bool TimedSwitch::inject(const Packet& packet) {
  const std::int64_t start = now_ns();
  if (boundary_ns_ < 0) boundary_ns_ = start;
  const bool accepted = inner_->inject(packet);
  inject_ns_ += now_ns() - start;
  ++ledger_.arrivals;
  if (accepted)
    ledger_.copies_in += static_cast<std::uint64_t>(packet.fanout());
  return accepted;
}

void TimedSwitch::step(SlotTime now, Rng& rng, SlotResult& result) {
  const std::int64_t start = now_ns();
  if (boundary_ns_ < 0) boundary_ns_ = start;
  ledger_.sched_in_step_ns = 0;
  inner_->step(now, rng, result);
  const std::int64_t end = now_ns();
  ledger_.spans[kTraffic].add(start - boundary_ns_ - inject_ns_);
  ledger_.spans[kInject].add(inject_ns_);
  ledger_.spans[kSwitchSelf].add(end - start - ledger_.sched_in_step_ns);
  inject_ns_ = 0;
  step_end_ns_ = end;
  ++ledger_.slots;
  ledger_.copies_out += result.deliveries.size();
  ledger_.copies_purged += result.purged.size();
}

std::size_t TimedSwitch::total_buffered() const {
  const std::int64_t start = now_ns();
  const std::size_t buffered = inner_->total_buffered();
  const std::int64_t end = now_ns();
  if (step_end_ns_ >= 0) {
    ledger_.spans[kMetrics].add(start - step_end_ns_);
    ledger_.spans[kStability].add(end - start);
    ledger_.spans[kSlot].add(end - boundary_ns_);
  }
  boundary_ns_ = end;
  return buffered;
}

}  // namespace fifoms::perf
