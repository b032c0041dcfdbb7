// wordcount_proc: the catalog word count (proc::BuildWordCount) on three
// real typhoon_hostd children over TCP socket tunnels, reliable, closed
// loop through max_pending. The only workload that crosses process
// boundaries and real sockets: hostd bootstrap, the control channels,
// RemoteSwitch/RemoteCoordinator, socket tunnel I/O.
//
// Everything is read from outside the children: the coordinator znodes
// they mirror into the parent (sink result blobs, worker heartbeat and
// stats records) and /proc/<pid>/stat for their CPU time.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "coordinator/coordinator.h"
#include "stream/acker.h"
#include "typhoon/proc_apps.h"
#include "typhoon/process_cluster.h"

namespace perfbench {
namespace {

using typhoon::WorkerId;
using typhoon::proc::WordCountParams;

// Sentences per measured second at the reference rate (~0.8M word
// occurrences/s on a 4-thread box). It sizes the first round's stream;
// every later round is sized from the sentence rate the round before it
// measured, so that the middle [kLo, kHi] share of occurrences takes the
// requested window whatever the machine's speed.
constexpr double kSentencesPerSecond = 100000.0;
constexpr double kLo = 0.15;
constexpr double kHi = 0.85;
constexpr auto kConvergeTimeout = std::chrono::seconds(90);
constexpr auto kBootstrapTimeout = std::chrono::seconds(3);
constexpr int kBootstrapAttempts = 3;
constexpr const char* kTopo = "perfbench_wc";

// One stats record a child worker mirrored into the parent coordinator.
// Workers write heartbeat (a timestamp), then emitted, received and
// queue_depth, so each counter is paired with the heartbeat before it.
struct StatEvent {
  WorkerId worker = 0;
  double t_s = 0.0;  // the worker's heartbeat time for this record
  enum Kind { kEmitted, kReceived, kQueueDepth } kind = kEmitted;
  double value = 0.0;
};

class StatsTap {
 public:
  // Called from the coordinator's watch dispatch.
  void on_put(const std::string& path, const typhoon::common::Bytes& data) {
    puts_.fetch_add(1, std::memory_order_relaxed);
    // /workers/<topo>/w<id>/heartbeat | /workers/<topo>/w<id>/stats/<m>
    static const std::string kPrefix = std::string("/workers/") + kTopo + "/w";
    if (!path.starts_with(kPrefix)) return;
    const std::size_t slash = path.find('/', kPrefix.size());
    if (slash == std::string::npos) return;
    const auto worker = static_cast<WorkerId>(
        std::strtoull(path.c_str() + kPrefix.size(), nullptr, 10));
    const std::string rest = path.substr(slash + 1);
    const double v = std::strtod(
        std::string(data.begin(), data.end()).c_str(), nullptr);
    std::lock_guard lk(mu_);
    if (rest == "heartbeat") {
      hb_[worker] = v / 1e6;
      return;
    }
    StatEvent e;
    e.worker = worker;
    e.t_s = hb_[worker];
    e.value = v;
    if (rest == "stats/emitted") {
      e.kind = StatEvent::kEmitted;
    } else if (rest == "stats/received") {
      e.kind = StatEvent::kReceived;
    } else if (rest == "stats/queue_depth") {
      e.kind = StatEvent::kQueueDepth;
    } else {
      return;
    }
    events_.push_back(e);
  }

  void on_result(const typhoon::common::Bytes& data) {
    const double unique = std::strtod(
        std::string(data.begin(), data.end()).c_str(), nullptr);
    std::lock_guard lk(mu_);
    results_.push_back({static_cast<double>(NowNs()) / 1e9, unique});
  }

  std::vector<StatEvent> events() const {
    std::lock_guard lk(mu_);
    return events_;
  }
  std::vector<CurvePoint> results() const {
    std::lock_guard lk(mu_);
    return results_;
  }
  double last_unique() const {
    std::lock_guard lk(mu_);
    return results_.empty() ? 0.0 : results_.back().count;
  }
  std::int64_t puts() const { return puts_.load(); }

 private:
  mutable std::mutex mu_;
  std::map<WorkerId, double> hb_;
  std::vector<StatEvent> events_;
  std::vector<CurvePoint> results_;  // parent arrival time, unique count
  std::atomic<std::int64_t> puts_{0};
};

std::vector<CurvePoint> Curve(const std::vector<StatEvent>& events,
                              WorkerId worker, StatEvent::Kind kind) {
  std::vector<CurvePoint> out;
  for (const StatEvent& e : events) {
    if (e.worker == worker && e.kind == kind) out.push_back({e.t_s, e.value});
  }
  return out;
}

// CPU seconds of this process and of each child, at one instant.
struct CpuSample {
  double t_s = 0.0;
  double unique = 0.0;
  double self = 0.0;
  std::vector<double> children;
  std::int64_t puts = 0;  // coordinator writes so far
  MachineTicks ticks;
};

CpuSample SampleCpu(const typhoon::proc::ProcessCluster& pc,
                    const StatsTap& tap) {
  CpuSample s;
  s.t_s = static_cast<double>(NowNs()) / 1e9;
  s.unique = tap.last_unique();
  s.puts = tap.puts();
  s.self = SelfCpuSeconds();
  s.ticks = ReadMachineTicks();
  for (typhoon::HostId h : pc.hosts()) {
    s.children.push_back(std::max(0.0, PidCpuSeconds(pc.host_pid(h))));
  }
  return s;
}

double Total(const CpuSample& s) {
  double t = s.self;
  for (double c : s.children) t += c;
  return t;
}

}  // namespace

RoundResult RunWordCountProc(const Options& opts, double window_s,
                             bool traced) {
  RoundResult out;
  WordCountParams p;
  p.topology = kTopo;
  p.seed = opts.seed;
  static double sentence_rate = kSentencesPerSecond;
  p.sentences =
      static_cast<std::int64_t>(sentence_rate * window_s / (kHi - kLo));
  // The reference is computed before the cluster exists, outside every
  // timed span.
  const auto want_counts = typhoon::proc::ExpectedCounts(p);
  double want_unique = 0.0;
  for (const auto& [word, n] : want_counts) {
    want_unique += static_cast<double>(n);
  }

  StatsTap tap;
  const std::int64_t t0 = NowNs();
  typhoon::proc::ProcessClusterConfig cfg;
  cfg.num_hosts = 3;
  cfg.transport = typhoon::proc::ProcTransport::kSocket;
  cfg.hostd_path = opts.hostd;
  // A healthy bootstrap takes milliseconds. About one start in a hundred
  // loses a bootstrap message and never completes; it is retried here, and
  // the failed attempt stays inside this round's setup time.
  cfg.bootstrap_timeout = kBootstrapTimeout;
  std::unique_ptr<typhoon::proc::ProcessCluster> cluster;
  for (int attempt = 1;; ++attempt) {
    cluster = std::make_unique<typhoon::proc::ProcessCluster>(cfg);
    const auto st = cluster->start();
    if (st.ok()) break;
    std::printf("cluster start failed (attempt %d): %s\n", attempt,
                st.message().c_str());
    if (attempt == kBootstrapAttempts) {
      out.mismatch = "cluster start failed: " + st.message();
      return out;
    }
    ++out.bootstrap_retries;
  }
  typhoon::proc::ProcessCluster& pc = *cluster;
  out.bootstrap_ms = static_cast<double>(NowNs() - t0) / 1e6;

  auto& coord = pc.coordinator();
  const auto w_all = coord.watch(
      "/",
      [&tap](const std::string& path, typhoon::coordinator::WatchEvent ev,
             const typhoon::common::Bytes& data) {
        if (ev == typhoon::coordinator::WatchEvent::kCreated ||
            ev == typhoon::coordinator::WatchEvent::kDataChanged) {
          tap.on_put(path, data);
        }
      },
      /*prefix=*/true);
  const auto w_res = coord.watch(
      typhoon::proc::ResultsPath(kTopo),
      [&tap](const std::string&, typhoon::coordinator::WatchEvent ev,
             const typhoon::common::Bytes& data) {
        if (ev != typhoon::coordinator::WatchEvent::kDeleted) {
          tap.on_result(data);
        }
      });
  const auto finish = [&] {
    coord.unwatch(w_all);
    coord.unwatch(w_res);
    pc.stop();
  };

  typhoon::stream::SubmitOptions so;
  so.reliable = true;
  so.max_pending = 2048;
  so.trace_sample_every = traced ? 64 : 0;
  const auto id = pc.submit_wordcount(p, so);
  if (!id.ok()) {
    out.mismatch = "submit failed: " + id.status().message();
    finish();
    return out;
  }
  const auto phys = pc.manager()->physical(kTopo);
  const auto spec = pc.manager()->spec(kTopo);
  if (!phys.ok() || !spec.ok()) {
    out.mismatch = "no physical plan for the word count";
    finish();
    return out;
  }
  const auto workers_of = [&](const char* node) {
    std::vector<typhoon::stream::PhysicalWorker> ws;
    if (const auto* n = spec.value().node_by_name(node)) {
      ws = phys.value().workers_of(n->id);
    }
    return ws;
  };
  const auto spouts = workers_of("spout");
  const auto splits = workers_of("split");
  const auto sinks = workers_of("count");
  const auto ackers = workers_of(typhoon::stream::kAckerNodeName);
  if (spouts.size() != 1 || sinks.size() != 1 || ackers.size() != 1 ||
      splits.empty()) {
    out.mismatch = "unexpected word-count placement";
    finish();
    return out;
  }

  // Sample CPU (and the newest published count) until the counts converge.
  std::vector<CpuSample> cpu;
  const auto deadline = std::chrono::steady_clock::now() + kConvergeTimeout;
  while (tap.last_unique() < want_unique &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    cpu.push_back(SampleCpu(pc, tap));
  }
  const auto final_results = pc.results(kTopo);
  const std::vector<StatEvent> events = tap.events();
  finish();

  // Correctness: the deduplicated counts equal the parameter-derived
  // reference exactly.
  out.exact = final_results.ok() &&
              static_cast<double>(final_results.value().first) == want_unique &&
              final_results.value().second == want_counts;
  if (!out.exact) {
    out.mismatch = final_results.ok()
                       ? "counts differ: unique " +
                             std::to_string(final_results.value().first) +
                             " of " + std::to_string(want_unique)
                       : "no results published";
  }
  const double final_unique =
      final_results.ok() ? static_cast<double>(final_results.value().first)
                         : 0.0;
  out.delivered_ratio = final_unique / want_unique;

  // Setup: cluster construction to the first heartbeat showing the sink
  // holding a tuple (both on the machine-wide monotonic clock).
  for (const StatEvent& e : events) {
    if (e.worker == sinks[0].id && e.kind == StatEvent::kReceived &&
        e.value > 0) {
      out.setup_s = e.t_s - static_cast<double>(t0) / 1e9;
      break;
    }
  }

  // Throughput over the middle of the run, from successive published sink
  // counts as they arrive in the parent.
  const std::vector<CurvePoint> res = tap.results();
  out.throughput_tps =
      WindowRate(res, kLo * want_unique, kHi * want_unique);
  const double t_a = CrossingTime(res, kLo * want_unique);
  const double t_b = CrossingTime(res, kHi * want_unique);

  // CPU over the same window: the first samples at or past each bound.
  const CpuSample* ca = nullptr;
  const CpuSample* cb = nullptr;
  for (const CpuSample& s : cpu) {
    if (ca == nullptr && s.unique >= kLo * want_unique) ca = &s;
    if (cb == nullptr && s.unique >= kHi * want_unique) cb = &s;
  }
  if (ca == nullptr || cb == nullptr || cb->unique <= ca->unique ||
      out.throughput_tps <= 0.0) {
    out.exact = false;
    out.mismatch += " (no measurable window)";
    return out;
  }
  out.steal_share = StealShare(ca->ticks, cb->ticks);
  double max_share = 0.0;
  const auto window_puts = static_cast<double>(cb->puts - ca->puts);
  {
    const double total = Total(*cb) - Total(*ca);
    out.foreign_share =
        ForeignShare(ca->ticks, cb->ticks, total, ClockTicksPerSecond());
    out.cpu_us_per_tuple = total * 1e6 / (cb->unique - ca->unique);
    for (std::size_t i = 0; i < ca->children.size(); ++i) {
      const double share = (cb->children[i] - ca->children[i]) / total;
      max_share = std::max(max_share, share);
    }
  }

  const double sentences = static_cast<double>(p.sentences);
  sentence_rate = out.throughput_tps * sentences / want_unique;

  // Latency: spout emit -> tree completion, read as the virtual delay
  // between the spout's emitted and completed (received) counters. The
  // spout reports them about 40 times a second, so every heartbeat while
  // it was emitting is a sample, not only those of the throughput window.
  const auto spout_emitted =
      Curve(events, spouts[0].id, StatEvent::kEmitted);
  const auto spout_done = Curve(events, spouts[0].id, StatEvent::kReceived);
  // The cluster may stop before the spout reports its last emit.
  const double emit_end = CrossingTime(spout_emitted, sentences);
  for (double d : VirtualDelays(
           spout_emitted, spout_done, CrossingTime(spout_emitted, 1.0),
           emit_end >= 0.0 ? emit_end : std::numeric_limits<double>::max())) {
    out.latency_ms.push_back(d * 1e3);
  }

  // Failures in sentences: every spout fail() replays its sentence, so
  // emits beyond the input are failures; a count short of the reference
  // adds the sentences it is missing.
  const double emitted =
      spout_emitted.empty() ? 0.0 : spout_emitted.back().count;
  out.attempted = p.sentences;
  out.failed = static_cast<std::int64_t>(
      std::max(0.0, emitted - sentences) +
      std::ceil(sentences * (1.0 - out.delivered_ratio)));

  // How often each layer ran per word occurrence, from the mirrored
  // per-worker counters over the window.
  const double occ = (kHi - kLo) * want_unique;
  const auto delta = [&](WorkerId w) {
    const auto c = Curve(events, w, StatEvent::kReceived);
    return ValueAt(c, t_b) - ValueAt(c, t_a);
  };
  double all_received = 0.0;
  double app_received = 0.0;
  for (const auto* group : {&spouts, &splits, &sinks, &ackers}) {
    for (const auto& w : *group) {
      const double d = delta(w.id);
      all_received += d;
      if (group == &splits || group == &sinks) app_received += d;
    }
  }
  const double trees = delta(spouts[0].id);
  const double acker_msgs = delta(ackers[0].id);
  if (occ > 0.0) {
    out.counts.transfers_per_unit = all_received / occ;
    out.counts.app_executes_per_unit = app_received / occ;
    out.counts.ack_msgs_per_unit = acker_msgs / occ;
    out.counts.coord_puts_per_unit = window_puts / (cb->unique - ca->unique);
    // Cross-host transfers per occurrence, from the placement: shuffle
    // spreads the spout's sentences and the splits' words evenly, every
    // executed tuple sends one ack and each tree one completion.
    const auto off = [&](typhoon::HostId h) {
      double n = 0.0;
      for (const auto& w : splits) n += w.host != h ? 1.0 : 0.0;
      return n / static_cast<double>(splits.size());
    };
    const typhoon::HostId hs = spouts[0].host;
    const typhoon::HostId hc = sinks[0].host;
    const typhoon::HostId ha = ackers[0].host;
    const double per_sentence = trees / occ;
    const double cross =
        per_sentence * off(hs) + off(hc) +                    // data
        per_sentence * (hs != ha ? 2.0 : 0.0) +               // init+done
        per_sentence * off(ha) + (hc != ha ? 1.0 : 0.0);      // acks
    out.counts.cross_host_tuples_per_unit = cross;
  }

  if (traced) {
    std::vector<double> depth;
    for (const StatEvent& e : events) {
      if (e.kind == StatEvent::kQueueDepth && e.t_s >= t_a && e.t_s <= t_b) {
        depth.push_back(e.value);
      }
    }
    out.layer = {
        {"stream.ack_msgs_per_tuple", trees > 0 ? acker_msgs / trees : 0.0,
         "count"},
        {"stream.queue_depth_p99", PercentileOf(depth, 0.99).value, "count"},
        {"coordinator.puts_per_s", window_puts / (cb->t_s - ca->t_s), "1/s"},
        {"typhoon.hostd_cpu_share_max", max_share, "ratio"},
    };
  }
  return out;
}

std::vector<typhoon::stream::Tuple> WordCountMix(std::uint32_t seed,
                                                 std::size_t n) {
  // The two tuple shapes of the word count, in stream proportion: each
  // sentence followed by its words (with their occurrence ids).
  std::vector<typhoon::stream::Tuple> mix;
  mix.reserve(n);
  for (std::int64_t seq = 0; mix.size() < n; ++seq) {
    const std::string& s = typhoon::proc::SentenceAt(seed, seq);
    mix.push_back(typhoon::stream::Tuple{s, seq});
    std::int64_t index = 0;
    std::size_t pos = 0;
    while (pos < s.size() && mix.size() < n) {
      const std::size_t end = std::min(s.find(' ', pos), s.size());
      mix.push_back(typhoon::stream::Tuple{s.substr(pos, end - pos),
                                           seq * 32 + index});
      ++index;
      pos = end + 1;
    }
  }
  return mix;
}

}  // namespace perfbench
