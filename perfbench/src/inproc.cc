// The two in-process workloads, each on the thread host backend
// (typhoon::Cluster):
//
//  * local_openloop — 1 host, spout -> sink, unreliable, offered open loop
//    at a fixed rate far below capacity. Every tuple carries its due time;
//    the sink measures latency from it, so a stalled generator or a parked
//    worker shows as latency, not as a lighter load.
//  * ack_pipeline — 2 hosts, spout -> relay x2 -> sink with the acker, the
//    spout at full speed and closed-loop through max_pending. User code is
//    trivial, so the reliable framework path (per-tuple execute, one ack
//    message per execute, the acker's XOR table, tunnel crossings) is what
//    is measured.
#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "coordinator/coordinator.h"
#include "stream/acker.h"
#include "stream/api.h"
#include "stream/topology.h"
#include "stream/worker.h"
#include "typhoon/cluster.h"

namespace perfbench {
namespace {

using typhoon::stream::Bolt;
using typhoon::stream::Emitter;
using typhoon::stream::Spout;
using typhoon::stream::Tuple;
using typhoon::stream::TupleMeta;

constexpr double kOpenLoopRate = 200000.0;  // tuples/s offered
constexpr double kWarmupS = 0.5;
// Upper estimate of ack_pipeline's acked trees/s, for reservations only.
constexpr double kMaxClosedLoopRate = 1.5e6;
constexpr auto kDrainTimeout = std::chrono::seconds(20);
constexpr const char* kTopo = "perfbench";
// Every node either topology may have, the acker included.
constexpr const char* kNodes[] = {"src", "relay", "sink",
                                  typhoon::stream::kAckerNodeName};

std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t SeqHash(std::uint32_t seed, std::int64_t seq) {
  return Mix64((static_cast<std::uint64_t>(seed) << 40) ^
               static_cast<std::uint64_t>(seq));
}

// 64 seeded printable strings; payloads are prefixes of them, so the sink
// can check every byte it receives against the generator.
std::shared_ptr<const std::vector<std::string>> PayloadPool(
    std::uint32_t seed) {
  auto pool = std::make_shared<std::vector<std::string>>();
  for (std::uint64_t i = 0; i < 64; ++i) {
    std::string s(128, 'a');
    for (std::uint64_t j = 0; j < s.size(); ++j) {
      s[j] = static_cast<char>('a' + Mix64(seed * 1000003ull + i * 131 + j) % 26);
    }
    pool->push_back(std::move(s));
  }
  return pool;
}

// Open-loop payload: 16..128 bytes, length and content picked per seq.
std::string_view OpenLoopPayload(const std::vector<std::string>& pool,
                                 std::uint32_t seed, std::int64_t seq) {
  static constexpr std::size_t kLens[] = {16, 32, 64, 128};
  const std::uint64_t h = SeqHash(seed, seq);
  return std::string_view(pool[(h >> 8) % pool.size()]).substr(0, kLens[h % 4]);
}

// ack_pipeline tuple: (seq, 48-byte string, i64 tag).
std::string_view AckPayload(const std::vector<std::string>& pool,
                            std::uint32_t seed, std::int64_t seq) {
  return std::string_view(pool[SeqHash(seed, seq) % pool.size()]).substr(0, 48);
}
std::int64_t AckTag(std::uint32_t seed, std::int64_t seq) {
  return static_cast<std::int64_t>(SeqHash(seed, seq) >> 1);
}

// State shared between the benchmark thread and its spout/bolts. Vectors
// are written by one worker thread each and read by the benchmark only
// after the cluster has stopped (its workers joined).
struct PipeState {
  std::uint32_t seed = 0;
  std::shared_ptr<const std::vector<std::string>> pool;
  bool open_loop = false;

  std::atomic<bool> emitting{true};
  std::atomic<bool> recording{false};
  std::atomic<bool> traced{false};

  // spout side
  std::atomic<std::int64_t> emitted{0};
  std::atomic<std::int64_t> acked{0};
  std::atomic<std::int64_t> failed{0};
  std::vector<double> ack_latency_ms;
  std::vector<std::int64_t> ack_end_ns;  // when each ack landed
  std::vector<double> generator_lag_ms;

  // sink side
  std::atomic<std::int64_t> sink_received{0};
  std::atomic<std::int64_t> first_ns{0};
  std::vector<std::uint8_t> seen;  // deliveries per seq, saturating at 2
  std::int64_t dups = 0;
  std::int64_t corrupt = 0;
  std::vector<double> sink_latency_ms;
  std::vector<std::int64_t> sink_end_ns;  // when each sample was taken

  // user-code execute time, summed over the benchmark's bolts while traced
  std::atomic<std::int64_t> exec_ns{0};
  std::atomic<std::int64_t> exec_count{0};
};

class OpenLoopSpout final : public Spout {
 public:
  explicit OpenLoopSpout(std::shared_ptr<PipeState> st) : st_(std::move(st)) {}

  bool next(Emitter& out) override {
    if (!st_->emitting.load(std::memory_order_relaxed)) return false;
    const std::int64_t now = NowNs();
    if (!sched_) sched_.emplace(now, kOpenLoopRate);
    const std::uint64_t due = sched_->due_count(now);
    if (sent_ >= due) return false;
    const bool rec = st_->recording.load(std::memory_order_relaxed);
    const std::uint64_t n = std::min<std::uint64_t>(due - sent_, 256);
    for (std::uint64_t i = 0; i < n; ++i, ++sent_) {
      const auto seq = static_cast<std::int64_t>(sent_);
      const std::int64_t due_ns = sched_->due_ns(sent_);
      if (rec) {
        st_->generator_lag_ms.push_back(
            static_cast<double>(sched_->lateness_ns(sent_, now)) / 1e6);
      }
      out.emit(Tuple{seq, due_ns,
                     std::string(OpenLoopPayload(*st_->pool, st_->seed, seq))});
    }
    st_->emitted.store(static_cast<std::int64_t>(sent_),
                       std::memory_order_release);
    return true;
  }

 private:
  std::shared_ptr<PipeState> st_;
  std::optional<OpenLoopSchedule> sched_;
  std::uint64_t sent_ = 0;
};

class MaxRateSpout final : public Spout {
 public:
  explicit MaxRateSpout(std::shared_ptr<PipeState> st) : st_(std::move(st)) {}

  bool next(Emitter& out) override {
    if (!st_->emitting.load(std::memory_order_relaxed)) return false;
    for (int i = 0; i < 16; ++i, ++seq_) {
      out.emit(Tuple{seq_, std::string(AckPayload(*st_->pool, st_->seed, seq_)),
                     AckTag(st_->seed, seq_)});
    }
    st_->emitted.store(seq_, std::memory_order_release);
    return true;
  }
  void ack(std::uint64_t, std::int64_t latency_us) override {
    if (st_->recording.load(std::memory_order_relaxed)) {
      st_->ack_latency_ms.push_back(static_cast<double>(latency_us) / 1e3);
      st_->ack_end_ns.push_back(NowNs());
    }
    st_->acked.fetch_add(1, std::memory_order_release);
  }
  void fail(std::uint64_t) override {
    st_->failed.fetch_add(1, std::memory_order_release);
  }

 private:
  std::shared_ptr<PipeState> st_;
  std::int64_t seq_ = 0;
};

// Times its own execute body while the run is traced: the benchmark's
// span around user code.
class TimedBolt : public Bolt {
 public:
  explicit TimedBolt(std::shared_ptr<PipeState> st) : st_(std::move(st)) {}

  void execute(const Tuple& input, const TupleMeta& meta,
               Emitter& out) final {
    if (!st_->traced.load(std::memory_order_relaxed)) {
      body(input, meta, out);
      return;
    }
    const std::int64_t t0 = NowNs();
    body(input, meta, out);
    st_->exec_ns.fetch_add(NowNs() - t0, std::memory_order_relaxed);
    st_->exec_count.fetch_add(1, std::memory_order_relaxed);
  }

 protected:
  virtual void body(const Tuple& input, const TupleMeta& meta,
                    Emitter& out) = 0;
  std::shared_ptr<PipeState> st_;
};

class RelayBolt final : public TimedBolt {
 public:
  using TimedBolt::TimedBolt;

 protected:
  void body(const Tuple& input, const TupleMeta&, Emitter& out) override {
    out.emit(Tuple(input));
  }
};

// Checks every tuple against the generator and counts deliveries per seq.
class CheckingSink final : public TimedBolt {
 public:
  using TimedBolt::TimedBolt;

 protected:
  void body(const Tuple& t, const TupleMeta&, Emitter&) override {
    const std::int64_t now = NowNs();
    std::int64_t zero = 0;
    st_->first_ns.compare_exchange_strong(zero, now, std::memory_order_relaxed);
    const std::int64_t seq = t.i64(0);
    bool ok = seq >= 0 && t.size() == 3;
    if (ok && st_->open_loop) {
      ok = t.str(2) == OpenLoopPayload(*st_->pool, st_->seed, seq);
      if (ok && st_->recording.load(std::memory_order_relaxed)) {
        st_->sink_latency_ms.push_back(static_cast<double>(now - t.i64(1)) /
                                       1e6);
        st_->sink_end_ns.push_back(now);
      }
    } else if (ok) {
      ok = t.str(1) == AckPayload(*st_->pool, st_->seed, seq) &&
           t.i64(2) == AckTag(st_->seed, seq);
    }
    if (!ok) {
      ++st_->corrupt;
    } else {
      const auto i = static_cast<std::size_t>(seq);
      if (i >= st_->seen.size()) {
        st_->seen.resize(std::max<std::size_t>(i + 1, st_->seen.size() * 2));
      }
      if (st_->seen[i] > 0) ++st_->dups;
      if (st_->seen[i] < 2) ++st_->seen[i];
    }
    st_->sink_received.fetch_add(1, std::memory_order_release);
  }
};

// Outside-in readings of one cluster at one instant.
struct Snapshot {
  std::int64_t t_ns = 0;
  double cpu_s = 0.0;
  std::int64_t units = 0;
  std::int64_t worker_received = 0;
  std::int64_t acker_received = 0;
  std::int64_t app_received = 0;
  std::uint64_t tunnel_bytes = 0;
  std::uint64_t switch_packets = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::int64_t coord_puts = 0;
  MachineTicks ticks;
};

Snapshot Take(typhoon::Cluster& cluster, const PipeState& st,
              const std::atomic<std::int64_t>& puts) {
  Snapshot s;
  s.t_ns = NowNs();
  s.cpu_s = SelfCpuSeconds();
  s.units = st.open_loop ? st.sink_received.load() : st.acked.load();
  for (const char* node : kNodes) {
    for (typhoon::stream::Worker* w : cluster.workers_of_node(kTopo, node)) {
      const std::int64_t r = w->received();
      s.worker_received += r;
      if (std::string_view(node) == typhoon::stream::kAckerNodeName) {
        s.acker_received += r;
      } else if (std::string_view(node) != "src") {
        s.app_received += r;
      }
    }
  }
  const auto hosts = cluster.hosts();
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const typhoon::switchd::SoftSwitch* sw = cluster.switch_at(hosts[i]);
    s.switch_packets += sw->packets_forwarded();
    s.cache_hits += sw->cache_hits();
    s.cache_misses += sw->cache_misses();
    for (std::size_t j = i + 1; j < hosts.size(); ++j) {
      const auto [a, b] = cluster.tunnel_between(hosts[i], hosts[j]);
      if (a != nullptr) s.tunnel_bytes += a->bytes_sent();
      if (b != nullptr) s.tunnel_bytes += b->bytes_sent();
    }
  }
  s.coord_puts = puts.load();
  s.ticks = ReadMachineTicks();
  return s;
}

bool WaitFor(const std::function<bool()>& pred,
             std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

RoundResult RunRound(const Options& opts, double window_s, bool traced,
                     bool open_loop) {
  RoundResult out;
  auto st = std::make_shared<PipeState>();
  st->seed = opts.seed;
  st->pool = PayloadPool(opts.seed);
  st->open_loop = open_loop;
  st->traced.store(traced);
  // Allocate and touch every per-tuple vector up front: a reallocation or
  // a burst of page faults inside a worker thread stalls it and would show
  // as latency.
  const double rate = open_loop ? kOpenLoopRate : kMaxClosedLoopRate;
  st->seen.resize(static_cast<std::size_t>(rate * (window_s + kWarmupS + 2)));
  const auto prefault = [](auto& v, std::size_t n) {
    v.resize(n);
    v.clear();
  };
  const auto samples = static_cast<std::size_t>(rate * (window_s + 1));
  prefault(open_loop ? st->sink_latency_ms : st->ack_latency_ms, samples);
  prefault(open_loop ? st->sink_end_ns : st->ack_end_ns, samples);
  if (open_loop) prefault(st->generator_lag_ms, samples);

  const std::int64_t t0 = NowNs();
  typhoon::ClusterConfig cfg;
  cfg.num_hosts = open_loop ? 1 : 2;
  typhoon::Cluster cluster(cfg);
  cluster.start();
  out.bootstrap_ms = static_cast<double>(NowNs() - t0) / 1e6;

  // Every coordinator write (heartbeats, stats, state) during the window.
  std::atomic<std::int64_t> puts{0};
  const auto watch = cluster.coord().watch(
      "/",
      [&puts](const std::string&, typhoon::coordinator::WatchEvent ev,
              const typhoon::common::Bytes&) {
        if (ev == typhoon::coordinator::WatchEvent::kCreated ||
            ev == typhoon::coordinator::WatchEvent::kDataChanged) {
          puts.fetch_add(1, std::memory_order_relaxed);
        }
      },
      /*prefix=*/true);

  typhoon::stream::TopologyBuilder b(kTopo);
  typhoon::stream::SubmitOptions so;
  so.trace_sample_every = traced ? 64 : 0;
  if (open_loop) {
    const auto src = b.add_spout(
        "src", [st] { return std::make_unique<OpenLoopSpout>(st); });
    const auto sink = b.add_bolt(
        "sink", [st] { return std::make_unique<CheckingSink>(st); }, 1);
    b.shuffle(src, sink);
  } else {
    const auto src = b.add_spout(
        "src", [st] { return std::make_unique<MaxRateSpout>(st); });
    const auto relay = b.add_bolt(
        "relay", [st] { return std::make_unique<RelayBolt>(st); }, 2);
    const auto sink = b.add_bolt(
        "sink", [st] { return std::make_unique<CheckingSink>(st); }, 1);
    b.shuffle(src, relay);
    b.shuffle(relay, sink);
    so.reliable = true;
    so.max_pending = 2048;
  }
  const auto id = cluster.submit(b.build().value(), so);
  if (!id.ok()) {
    out.mismatch = "submit failed: " + id.status().str();
    cluster.coord().unwatch(watch);
    cluster.stop();
    return out;
  }
  if (!WaitFor([&] { return st->first_ns.load() != 0; },
               std::chrono::seconds(20))) {
    out.mismatch = "no tuple reached the sink";
    cluster.coord().unwatch(watch);
    cluster.stop();
    return out;
  }
  out.setup_s = static_cast<double>(st->first_ns.load() - t0) / 1e9;

  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupS));
  auto& collector = cluster.observability().collector();
  StealMonitor monitor;
  const Snapshot a = Take(cluster, *st, puts);
  const double monitor_a = monitor.cpu_seconds();
  st->recording.store(true);
  std::vector<double> depth;
  std::uint64_t ticks = 0;
  const std::int64_t end_ns =
      a.t_ns + static_cast<std::int64_t>(window_s * 1e9);
  while (NowNs() < end_ns) {
    std::this_thread::sleep_for(std::chrono::milliseconds(traced ? 5 : 20));
    if (!traced) continue;
    ++ticks;
    for (const char* node : kNodes) {
      for (typhoon::stream::Worker* w : cluster.workers_of_node(kTopo, node)) {
        depth.push_back(static_cast<double>(w->metrics().value("queue_depth")));
      }
    }
    if (ticks % 5 == 0) collector.collect();
  }
  st->recording.store(false);
  const Snapshot z = Take(cluster, *st, puts);
  const double monitor_cpu_s = monitor.cpu_seconds() - monitor_a;
  const std::vector<Span> stalls = monitor.stop();

  const double secs = static_cast<double>(z.t_ns - a.t_ns) / 1e9;
  const auto units = static_cast<double>(z.units - a.units);
  out.throughput_tps = units / secs;
  out.steal_share = StealShare(a.ticks, z.ticks);
  out.foreign_share = ForeignShare(a.ticks, z.ticks, z.cpu_s - a.cpu_s,
                                   ClockTicksPerSecond());
  // The steal monitor's thread is the benchmark's, not Typhoon's.
  out.cpu_us_per_tuple =
      units > 0 ? (z.cpu_s - a.cpu_s - monitor_cpu_s) * 1e6 / units : 0.0;
  if (units > 0) {
    out.counts.transfers_per_unit =
        static_cast<double>(z.worker_received - a.worker_received) / units;
    out.counts.ack_msgs_per_unit =
        static_cast<double>(z.acker_received - a.acker_received) / units;
    out.counts.app_executes_per_unit =
        static_cast<double>(z.app_received - a.app_received) / units;
    out.counts.tunnel_bytes_per_unit =
        static_cast<double>(z.tunnel_bytes - a.tunnel_bytes) / units;
    out.counts.switch_packets_per_unit =
        static_cast<double>(z.switch_packets - a.switch_packets) / units;
    out.counts.coord_puts_per_unit =
        static_cast<double>(z.coord_puts - a.coord_puts) / units;
  }

  if (traced) {
    collector.collect();
    std::uint64_t rx_drops = 0;
    for (typhoon::HostId h : cluster.hosts()) {
      for (const auto& ps : cluster.switch_at(h)->port_stats()) {
        rx_drops += ps.tx_dropped;
      }
    }
    const double lookups =
        static_cast<double>((z.cache_hits - a.cache_hits) +
                            (z.cache_misses - a.cache_misses));
    const std::int64_t execs = st->exec_count.load();
    out.layer = {
        {"stream.execute_app_ns",
         execs > 0 ? static_cast<double>(st->exec_ns.load()) /
                         static_cast<double>(execs)
                   : 0.0,
         "ns"},
        {"stream.queue_depth_p99", PercentileOf(depth, 0.99).value, "count"},
        {"switchd.cache_hit_rate",
         lookups > 0 ? static_cast<double>(z.cache_hits - a.cache_hits) /
                           lookups
                     : 0.0,
         "ratio"},
        {"switchd.rx_drops", static_cast<double>(rx_drops), "count"},
        {"coordinator.puts_per_s",
         static_cast<double>(z.coord_puts - a.coord_puts) / secs, "1/s"},
    };
    for (Metric& m : TraceStageMetrics(collector, a.t_ns / 1000)) {
      out.layer.push_back(m);
    }
  }

  // Stop offering load and let every tuple in flight land, then check the
  // sink saw each sequence number exactly once.
  st->emitting.store(false);
  const bool drained = WaitFor(
      [&] {
        const std::int64_t e = st->emitted.load(std::memory_order_acquire);
        return open_loop
                   ? st->sink_received.load(std::memory_order_acquire) >= e
                   : st->acked.load(std::memory_order_acquire) +
                             st->failed.load(std::memory_order_acquire) >=
                         e;
      },
      kDrainTimeout);
  cluster.coord().unwatch(watch);
  cluster.stop();

  const std::int64_t emitted = st->emitted.load();
  std::int64_t delivered = 0;
  std::int64_t missing = 0;
  for (std::int64_t i = 0; i < emitted; ++i) {
    if (static_cast<std::size_t>(i) < st->seen.size() && st->seen[i] > 0) {
      ++delivered;
    } else {
      ++missing;
    }
  }
  out.attempted = emitted;
  out.failed = st->failed.load() + missing;
  out.delivered_ratio =
      emitted > 0 ? static_cast<double>(delivered) / static_cast<double>(emitted)
                  : 0.0;
  out.exact = drained && missing == 0 && st->dups == 0 && st->corrupt == 0 &&
              st->failed.load() == 0 && emitted > 0;
  if (!out.exact) {
    out.mismatch = "drained=" + std::to_string(drained) +
                   " missing=" + std::to_string(missing) +
                   " dups=" + std::to_string(st->dups) +
                   " corrupt=" + std::to_string(st->corrupt) +
                   " failed=" + std::to_string(st->failed.load());
  }
  // A tuple in flight while the hypervisor held a CPU measured the host:
  // its sample is left out, and the number left out is reported.
  const std::vector<double>& lat =
      open_loop ? st->sink_latency_ms : st->ack_latency_ms;
  const std::vector<std::int64_t>& end =
      open_loop ? st->sink_end_ns : st->ack_end_ns;
  out.latency_ms.reserve(lat.size());
  for (std::size_t i = 0; i < lat.size() && i < end.size(); ++i) {
    const auto start = end[i] - static_cast<std::int64_t>(lat[i] * 1e6);
    if (!Overlaps(stalls, start, end[i])) out.latency_ms.push_back(lat[i]);
  }
  out.latency_censored = lat.size() - out.latency_ms.size();
  out.generator_lag_ms = std::move(st->generator_lag_ms);
  return out;
}

}  // namespace

std::vector<Metric> TraceStageMetrics(
    const typhoon::trace::TraceCollector& collector, std::int64_t since_us) {
  // The collector's own stage gaps, recomputed from its completed chains:
  // each span's gap to the one before it, keyed by the later span's stage.
  std::map<std::string, std::vector<double>> gaps;
  for (const typhoon::trace::HopChain& c : collector.snapshot()) {
    if (!c.complete || c.spans.front().t_us < since_us) continue;
    for (std::size_t i = 1; i < c.spans.size(); ++i) {
      gaps[typhoon::trace::StageName(c.spans[i].stage)].push_back(
          static_cast<double>(std::max<std::int64_t>(
              0, c.spans[i].t_us - c.spans[i - 1].t_us)));
    }
  }
  return {
      {"trace.emit_wait_p50_us", GroupedMedian(gaps["switch_in"]), "us"},
      {"trace.switch_residency_p50_us", GroupedMedian(gaps["switch_out"]),
       "us"},
      {"trace.tunnel_flight_p50_us", GroupedMedian(gaps["tunnel_rx"]), "us"},
      {"trace.rx_wait_p50_us", GroupedMedian(gaps["deserialize"]), "us"},
      {"trace.execute_p50_us", GroupedMedian(gaps["execute"]), "us"},
  };
}

RoundResult RunLocalOpenLoop(const Options& opts, double window_s,
                             bool traced) {
  return RunRound(opts, window_s, traced, /*open_loop=*/true);
}

RoundResult RunAckPipeline(const Options& opts, double window_s, bool traced) {
  return RunRound(opts, window_s, traced, /*open_loop=*/false);
}

std::vector<Tuple> OpenLoopMix(std::uint32_t seed, std::size_t n) {
  const auto pool = PayloadPool(seed);
  std::vector<Tuple> mix;
  mix.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto seq = static_cast<std::int64_t>(i);
    mix.push_back(Tuple{seq, NowNs(),
                        std::string(OpenLoopPayload(*pool, seed, seq))});
  }
  return mix;
}

std::vector<Tuple> AckPipelineMix(std::uint32_t seed, std::size_t n) {
  const auto pool = PayloadPool(seed);
  std::vector<Tuple> mix;
  mix.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto seq = static_cast<std::int64_t>(i);
    mix.push_back(Tuple{seq, std::string(AckPayload(*pool, seed, seq)),
                        AckTag(seed, seq)});
  }
  return mix;
}

}  // namespace perfbench
