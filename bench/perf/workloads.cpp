#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <filesystem>
#include <numeric>
#include <optional>

#include "core/fifoms.hpp"
#include "net/network_fabric.hpp"
#include "sched/islip.hpp"
#include "sim/experiment.hpp"
#include "sim/voq_switch.hpp"
#include "snapshot/recovery.hpp"
#include "snapshot/snapshot.hpp"
#include "soak_scenarios.hpp"
#include "timed.hpp"
#include "traffic/bernoulli.hpp"

namespace fifoms::perf {

namespace {

// Bernoulli multicast with b = 0.2, the traffic of the paper's Fig. 4.
constexpr double kMulticastB = 0.2;
// quick mode runs every workload at 1/kQuickDivisor of its input.
constexpr SlotTime kQuickDivisor = 20;

std::unique_ptr<TrafficModel> bernoulli(int ports, double load) {
  return std::make_unique<BernoulliTraffic>(
      ports, BernoulliTraffic::p_for_load(load, kMulticastB, ports),
      kMulticastB);
}

std::unique_ptr<VoqScheduler> timed_if(std::unique_ptr<VoqScheduler> sched,
                                       Ledger* ledger) {
  if (ledger == nullptr) return sched;
  return std::make_unique<TimedScheduler>(std::move(sched), *ledger);
}

class Digest {
 public:
  void add(std::uint64_t word) {
    acc_ = snapshot::mix_fingerprint(acc_, word);
  }
  void add(std::int64_t word) { add(static_cast<std::uint64_t>(word)); }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  std::uint64_t value() const { return acc_; }

 private:
  std::uint64_t acc_ = 0;
};

std::uint64_t digest_of(const SimResult& r) {
  Digest d;
  d.add(r.total_slots);
  d.add(r.unstable_at);
  for (const std::uint64_t count :
       {r.packets_offered, r.packets_delivered, r.copies_offered,
        r.copies_delivered, r.copies_purged, r.packets_dropped,
        r.packets_suppressed, r.fault_events_applied,
        std::uint64_t{r.in_flight_at_end}, std::uint64_t{r.queue_max}})
    d.add(count);
  for (const double mean :
       {r.input_delay.mean(), r.output_delay.mean(), r.output_delay_p99,
        r.queue_mean.mean(), r.rounds_all.mean()})
    d.add(mean);
  return d.value();
}

std::uint64_t digest_of(const std::vector<PointSummary>& points) {
  Digest d;
  for (const PointSummary& p : points) {
    for (const char c : p.algorithm) d.add(std::uint64_t{std::uint8_t(c)});
    for (const int count : {p.replications, p.unstable_count, p.failed_count,
                            p.truncated_count})
      d.add(std::int64_t{count});
    for (const double value :
         {p.load, p.input_delay, p.output_delay, p.output_delay_p99,
          p.queue_mean, p.queue_max, p.rounds_busy, p.rounds_all, p.throughput,
          p.input_delay_se, p.output_delay_se})
      d.add(value);
  }
  return d.value();
}

/// Counts, digest and conservation check of one finished run.
RepResult rep_of(const SimResult& result, const SwitchModel& sw) {
  RepResult rep;
  rep.slots = static_cast<std::uint64_t>(result.total_slots);
  rep.copies = result.copies_delivered;
  rep.digest = digest_of(result);
  if (auto failure = conservation_failure(sw, result.copies_offered,
                                          result.copies_delivered,
                                          result.copies_purged))
    rep.failures.push_back(std::move(*failure));
  return rep;
}

/// Simulator::run re-composed with each phase of a slot batched over all
/// inputs and timed as one span: arrivals, inject, on_inject, step,
/// on_slot_end, stability.  Seeds, packet ids and warm-up follow the
/// Simulator exactly (no fault plan), so the statistics are bit-identical
/// to Simulator::run's — the digest check holds it to that.
SimResult run_phased(SwitchModel& sw, TrafficModel& traffic,
                     const SimConfig& config, Ledger& ledger) {
  Rng traffic_rng(derive_seed(config.seed, /*stream=*/1, 0));
  Rng sched_rng(derive_seed(config.seed, /*stream=*/2, 0));
  traffic.reset(traffic_rng);
  const auto warmup_end = static_cast<SlotTime>(
      static_cast<double>(config.total_slots) * config.warmup_fraction);
  MetricsCollector metrics(warmup_end, sw.occupancy_ports());
  StabilityMonitor stability(config.stability);

  const int num_inputs = sw.num_inputs();
  std::vector<Packet> arrivals;
  arrivals.reserve(static_cast<std::size_t>(num_inputs));
  std::vector<char> accepted(static_cast<std::size_t>(num_inputs));
  SlotResult result;
  PacketId next_id = 0;
  SlotTime now = 0;
  const std::int64_t start = now_ns();
  for (; now < config.total_slots && !stability.unstable(); ++now) {
    const std::int64_t t0 = now_ns();
    arrivals.clear();
    for (PortId input = 0; input < num_inputs; ++input) {
      const PortSet destinations = traffic.arrival(input, now, traffic_rng);
      if (destinations.empty()) continue;
      arrivals.push_back(Packet{.id = next_id++,
                                .input = input,
                                .arrival = now,
                                .destinations = destinations,
                                .priority = traffic.last_priority()});
    }
    const std::int64_t t1 = now_ns();
    for (std::size_t i = 0; i < arrivals.size(); ++i)
      accepted[i] = sw.inject(arrivals[i]) ? 1 : 0;
    const std::int64_t t2 = now_ns();
    for (std::size_t i = 0; i < arrivals.size(); ++i)
      if (accepted[i] != 0) metrics.on_inject(arrivals[i]);
    const std::int64_t t3 = now_ns();
    result.clear();
    ledger.sched_in_step_ns = 0;
    sw.step(now, sched_rng, result);
    const std::int64_t t4 = now_ns();
    metrics.on_slot_end(sw, result, now);
    const std::int64_t t5 = now_ns();
    stability.check(sw, now);
    const std::int64_t t6 = now_ns();

    ledger.spans[kTraffic].add(t1 - t0);
    ledger.spans[kInject].add(t2 - t1);
    ledger.spans[kOnInject].add(t3 - t2);
    ledger.spans[kSwitchSelf].add(t4 - t3 - ledger.sched_in_step_ns);
    ledger.spans[kMetrics].add(t5 - t4);
    ledger.spans[kStability].add(t6 - t5);
    ledger.spans[kSlot].add(t6 - t0);
    ledger.arrivals += arrivals.size();
  }
  ledger.wall_ns += now_ns() - start;
  ledger.slots += static_cast<std::uint64_t>(now);
  ++ledger.runs;

  // The fields digest_of() reads, as Simulator::report fills them.
  SimResult report;
  report.total_slots = now;
  report.unstable_at = stability.unstable_at();
  report.input_delay = metrics.input_delay();
  report.output_delay = metrics.output_delay();
  report.output_delay_p99 = metrics.output_delay_p99().value();
  report.queue_mean = metrics.queue_mean();
  report.queue_max = metrics.queue_max();
  report.rounds_all = metrics.rounds_all();
  report.packets_offered = metrics.packets_offered();
  report.packets_delivered = metrics.packets_delivered();
  report.packets_dropped = sw.dropped_packets();
  report.copies_offered = metrics.copies_offered();
  report.copies_delivered = metrics.copies_delivered();
  report.copies_purged = metrics.copies_purged();
  report.in_flight_at_end = metrics.in_flight();
  return report;
}

/// One switch model fed by Bernoulli traffic under Simulator::run; the
/// traced rep runs the same model through run_phased.
class SingleModelWorkload final : public Workload {
 public:
  static constexpr SlotTime kChunks = 32;

  using Build = std::function<std::unique_ptr<SwitchModel>(Ledger*)>;

  SingleModelWorkload(Build build, int ports, double load, SlotTime slots,
                      std::uint64_t seed)
      : build_(std::move(build)), ports_(ports), load_(load) {
    config_.total_slots = slots;
    config_.seed = seed;
  }

  /// Simulator::run as its documented composition, prepare() + step()
  /// until done() + finalize(), with a clock read every chunk of slots.
  RepResult run() override {
    const std::int64_t t0 = now_ns();
    const std::unique_ptr<SwitchModel> sw = build_(nullptr);
    const std::unique_ptr<TrafficModel> traffic = bernoulli(ports_, load_);
    Simulator simulator(*sw, *traffic, config_);
    simulator.prepare();
    std::int64_t mark = now_ns();
    const std::int64_t setup_ns = mark - t0;
    std::vector<std::int64_t> chunks_ns;
    const SlotTime chunk = std::max<SlotTime>(1, config_.total_slots / kChunks);
    while (!simulator.done()) {
      for (SlotTime k = 0; k < chunk && !simulator.done(); ++k)
        simulator.step();
      const std::int64_t t = now_ns();
      chunks_ns.push_back(t - mark);
      mark = t;
    }
    const SimResult result = simulator.finalize();
    RepResult rep = rep_of(result, *sw);
    rep.setup_ns = setup_ns;
    rep.chunks_ns = std::move(chunks_ns);
    return rep;
  }

  RepResult run_traced(Ledger& ledger) override {
    const std::unique_ptr<SwitchModel> sw = build_(&ledger);
    const std::unique_ptr<TrafficModel> traffic = bernoulli(ports_, load_);
    const std::int64_t wall_before = ledger.wall_ns;
    const SimResult result = run_phased(*sw, *traffic, config_, ledger);
    if (const auto* fabric = dynamic_cast<const net::NetworkFabric*>(&*sw)) {
      ledger.forwarded += fabric->forwarded_cells();
      ledger.pauses += fabric->pauses_applied();
    }
    RepResult rep = rep_of(result, *sw);
    rep.chunks_ns = {ledger.wall_ns - wall_before};
    return rep;
  }

 private:
  Build build_;
  int ports_;
  double load_;
  SimConfig config_;
};

using MakeSwitch = std::function<std::unique_ptr<SwitchModel>(int)>;

/// `make` with its product wrapped in a TimedSwitch reporting to `sink`.
MakeSwitch timed(MakeSwitch make, LedgerSink& sink) {
  return [make = std::move(make),
          &sink](int ports) -> std::unique_ptr<SwitchModel> {
    return std::make_unique<TimedSwitch>(
        [&make, ports](Ledger&) { return make(ports); }, &sink);
  };
}

/// A VoqSwitch around a TimedScheduler, wrapped in a TimedSwitch.
template <class Scheduler>
MakeSwitch timed_voq(LedgerSink& sink) {
  return [&sink](int ports) -> std::unique_ptr<SwitchModel> {
    return std::make_unique<TimedSwitch>(
        [ports](Ledger& ledger) -> std::unique_ptr<SwitchModel> {
          return std::make_unique<VoqSwitch>(
              ports, timed_if(std::make_unique<Scheduler>(), &ledger));
        },
        &sink);
  };
}

/// Fig. 4's sweep: standard_lineup() at N=16 over fig4's loads.
class SweepWorkload final : public Workload {
 public:
  SweepWorkload(SlotTime slots, std::uint64_t seed, int threads) {
    config_.num_ports = 16;
    config_.loads = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95};
    config_.slots = slots;
    config_.replications = 2;
    config_.master_seed = seed;
    config_.threads = threads;
  }

  RepResult run() override { return sweep(standard_lineup(), nullptr); }

  RepResult run_traced(Ledger& ledger) override {
    LedgerSink sink;
    // standard_lineup() is FIFOMS, TATRA, iSLIP, OQFIFO; its two
    // VoqSwitch members are rebuilt around a TimedScheduler, which the
    // digest check proves is the same switch.
    std::vector<SwitchFactory> lineup = standard_lineup();
    lineup[0].make = timed_voq<FifomsScheduler>(sink);
    lineup[1].make = timed(std::move(lineup[1].make), sink);
    lineup[2].make = timed_voq<IslipScheduler>(sink);
    lineup[3].make = timed(std::move(lineup[3].make), sink);
    RepResult rep = sweep(std::move(lineup), &ledger);
    MutexLock lock(sink.mutex);
    ledger.merge(sink.ledger);
    ++ledger.runs;
    ledger.pool_capacity_ns += rep.wall_ns() * config_.threads;
    rep.slots = sink.ledger.slots;
    rep.copies = sink.ledger.copies_out;
    for (std::string& failure : sink.failures)
      rep.failures.push_back(std::move(failure));
    return rep;
  }

 private:
  /// Runs the sweep; setup ends when the first make() returns, recorded
  /// by a wrapper that costs nothing per slot.
  RepResult sweep(std::vector<SwitchFactory> lineup, Ledger* ledger) {
    const std::int64_t t0 = now_ns();
    std::atomic<std::int64_t> first_made{-1};
    for (SwitchFactory& factory : lineup) {
      factory.make = [make = std::move(factory.make),
                      &first_made](int ports) {
        std::unique_ptr<SwitchModel> sw = make(ports);
        std::int64_t unset = -1;
        first_made.compare_exchange_strong(unset, now_ns());
        return sw;
      };
    }
    const std::vector<PointSummary> points = run_sweep(
        config_, lineup, [ports = config_.num_ports](double load) {
          return bernoulli(ports, load);
        });
    const std::int64_t t2 = now_ns();

    RepResult rep;
    rep.setup_ns = first_made.load() - t0;
    rep.chunks_ns = {t2 - first_made.load()};
    rep.digest = digest_of(points);
    for (const PointSummary& point : points) {
      if (point.failed_count > 0)
        rep.failures.push_back(point.algorithm + ": quarantined cells");
      if (ledger != nullptr)
        ledger->unstable_cells +=
            static_cast<std::uint64_t>(point.unstable_count);
    }
    return rep;
  }

  SweepConfig config_;
};

/// fifoms_soak's storm scenario under checkpointing.
class StormWorkload final : public Workload {
 public:
  static constexpr const char* kScenario = "fault-storm/burst-0.8";
  static constexpr StrandedCellPolicy kPolicy = StrandedCellPolicy::kPurge;
  static constexpr int kPorts = 32;
  static constexpr int kKeep = 2;
  static constexpr const char* kStem = "storm";

  StormWorkload(SlotTime slots, SlotTime checkpoint_every, std::uint64_t seed,
                std::filesystem::path dir)
      : slots_(slots),
        checkpoint_every_(checkpoint_every),
        seed_(seed),
        dir_(std::move(dir)) {}

  RepResult run() override {
    std::filesystem::remove_all(dir_);
    const std::int64_t t0 = now_ns();
    soak::SoakSetup setup = make_setup();
    Simulator simulator(*setup.sw, *setup.traffic, config_for(setup));
    snapshot::RecoveryOptions options;
    options.checkpoint_every = checkpoint_every_;
    options.dir = dir_.string();
    options.stem = kStem;
    options.keep = kKeep;
    options.resume = false;
    // Every checkpoint closes a chunk: the same slots in every rep.
    std::vector<std::int64_t> chunks_ns;
    std::int64_t mark = 0;
    options.on_checkpoint = [&chunks_ns, &mark](std::uint64_t, std::size_t) {
      const std::int64_t t = now_ns();
      chunks_ns.push_back(t - mark);
      mark = t;
    };
    snapshot::RecoveryRunner runner(simulator, std::move(options));
    mark = now_ns();
    const std::int64_t setup_ns = mark - t0;
    const snapshot::RecoveryReport report = runner.run();
    chunks_ns.push_back(now_ns() - mark);

    RepResult rep = rep_of(report.result, *setup.sw);
    if (!report.completed)
      rep.failures.push_back("storm run did not complete: " + report.error);
    rep.setup_ns = setup_ns;
    rep.chunks_ns = std::move(chunks_ns);
    check_restore(runner.store(), rep, nullptr);
    return rep;
  }

  RepResult run_traced(Ledger& ledger) override {
    std::filesystem::remove_all(dir_);
    soak::SoakSetup setup = make_setup();
    VoqSwitch::Options options;
    options.stranded_policy = setup.policy;
    TimedSwitch sw([&options](Ledger& l) -> std::unique_ptr<SwitchModel> {
      return std::make_unique<VoqSwitch>(
          kPorts, timed_if(std::make_unique<FifomsScheduler>(), &l), options);
    });
    Simulator simulator(sw, *setup.traffic, config_for(setup));
    snapshot::CheckpointStore store(dir_, kStem, simulator.state_fingerprint(),
                                    kKeep);

    // RecoveryRunner's loop, with each checkpoint's encode and save timed.
    const std::int64_t start = now_ns();
    simulator.prepare();
    while (!simulator.done()) {
      simulator.step();
      const SlotTime now = simulator.now();
      if (now % checkpoint_every_ != 0) continue;
      const std::int64_t t0 = now_ns();
      snapshot::Writer writer;
      simulator.save_state(writer);
      const std::int64_t t1 = now_ns();
      store.save(static_cast<std::uint64_t>(now), writer.bytes());
      ledger.spans[kEncode].add(t1 - t0);
      ledger.spans[kSave].add(now_ns() - t1);
      ledger.snapshot_bytes = writer.size();
      sw.mark_boundary();
    }
    const SimResult result = simulator.finalize();
    const std::int64_t wall = now_ns() - start;

    ledger.merge(sw.ledger());
    ledger.wall_ns += wall;
    ++ledger.runs;
    RepResult rep = rep_of(result, sw);
    rep.chunks_ns = {wall};
    check_restore(store, rep, &ledger);
    return rep;
  }

 private:
  soak::SoakSetup make_setup() const {
    return soak::make_soak_setup(kScenario, kPolicy, kPorts, slots_, seed_);
  }

  SimConfig config_for(const soak::SoakSetup& setup) const {
    SimConfig config;
    config.total_slots = slots_;
    config.warmup_fraction = 0.25;  // fifoms_soak's warm-up
    config.seed = seed_;
    config.fault_plan = &setup.plan;
    return config;
  }

  /// Restore the newest checkpoint into a fresh simulator and re-encode
  /// it: the bytes must be the stored payload, and its epoch the last
  /// checkpointed slot.  Times load_latest + load_state into `ledger`.
  void check_restore(const snapshot::CheckpointStore& store, RepResult& rep,
                     Ledger* ledger) const {
    soak::SoakSetup fresh = make_setup();
    Simulator simulator(*fresh.sw, *fresh.traffic, config_for(fresh));
    try {
      const std::int64_t t0 = now_ns();
      const std::optional<snapshot::LoadedCheckpoint> loaded =
          store.load_latest();
      if (!loaded) {
        rep.failures.push_back("no checkpoint to restore");
        return;
      }
      snapshot::Reader reader(loaded->payload);
      simulator.load_state(reader);
      reader.expect_end();
      if (ledger != nullptr) ledger->spans[kRestore].add(now_ns() - t0);

      snapshot::Writer writer;
      simulator.save_state(writer);
      const std::span<const std::uint8_t> bytes = writer.bytes();
      if (!std::equal(bytes.begin(), bytes.end(), loaded->payload.begin(),
                      loaded->payload.end()))
        rep.failures.push_back("re-encoded checkpoint differs from stored");
      const auto every = static_cast<std::uint64_t>(checkpoint_every_);
      if (loaded->epoch != rep.slots / every * every)
        rep.failures.push_back("newest checkpoint is not the last epoch");
    } catch (const snapshot::SnapshotError& e) {
      rep.failures.push_back(std::string("restore failed: ") + e.what());
    }
  }

  SlotTime slots_;
  SlotTime checkpoint_every_;
  std::uint64_t seed_;
  std::filesystem::path dir_;
};

}  // namespace

std::int64_t RepResult::wall_ns() const {
  return std::accumulate(chunks_ns.begin(), chunks_ns.end(), std::int64_t{0});
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fig4-sweep", "fifoms256",
                                                 "clos64", "storm-ckpt"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool quick,
                                        int threads,
                                        const std::string& work_dir) {
  const SlotTime divisor = quick ? kQuickDivisor : 1;
  if (name == "fig4-sweep")
    return std::make_unique<SweepWorkload>(20'000 / divisor, seed, threads);
  if (name == "fifoms256") {
    return std::make_unique<SingleModelWorkload>(
        [](Ledger* ledger) -> std::unique_ptr<SwitchModel> {
          return std::make_unique<VoqSwitch>(
              256, timed_if(std::make_unique<FifomsScheduler>(), ledger));
        },
        256, 0.8, 20'000 / divisor, seed);
  }
  if (name == "clos64") {
    return std::make_unique<SingleModelWorkload>(
        [](Ledger* ledger) -> std::unique_ptr<SwitchModel> {
          return std::make_unique<net::NetworkFabric>(
              net::Topology::clos3(8), [ledger] {
                return timed_if(std::make_unique<FifomsScheduler>(), ledger);
              });
        },
        64, 0.8, 40'000 / divisor, seed);
  }
  if (name == "storm-ckpt") {
    return std::make_unique<StormWorkload>(
        120'000 / divisor, 2'000 / divisor, seed,
        std::filesystem::path(work_dir) / "storm-ckpt");
  }
  return nullptr;
}

}  // namespace fifoms::perf
