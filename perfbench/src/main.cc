// typhoon_perfbench — one workload per run; see perfbench/README.md.
//
//   typhoon_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     --hostd <typhoon_hostd> [--source-sha <sha>]
//
// --trace 0 runs seven fresh clusters of the workload with tracing off,
// each for seconds/7, and reports the end-to-end metrics: medians over the
// seven, latency percentiles over their pooled samples. A round during
// which the hypervisor or other programs took CPU time is rejected and run
// again. --trace 1 runs one untraced and one traced cluster of the same
// workload for seconds/7 each, replays every layer in isolation on the
// workload's tuple mix, and reports the per-layer ledger with its
// waterfall. The last stdout line is the result JSON; the exit code is
// non-zero when a correctness gate fails.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

constexpr int kRounds = 7;
// Host interference, read from outside the program in /proc/stat: the
// share of the machine's CPU time the hypervisor stole or other programs
// used during a round's window. A round above kMaxInterference measured
// its neighbours as much as Typhoon, so it is run again after a pause and
// the less disturbed of the two attempts is kept, up to kMaxRejected
// re-runs a run. Past that budget the least disturbed attempt stands, and
// the report says so.
constexpr double kMaxInterference = 0.01;
constexpr int kMaxRejected = 4;
constexpr auto kRejectPause = std::chrono::seconds(1);

double Interference(const RoundResult& r) {
  return r.steal_share + r.foreign_share;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kAll = {
      {"wordcount_proc", false, RunWordCountProc, WordCountMix},
      {"ack_pipeline", false, RunAckPipeline, AckPipelineMix},
      {"local_openloop", true, RunLocalOpenLoop, OpenLoopMix},
  };
  return kAll;
}

// The per-layer ledger, in report order.
const std::vector<std::pair<const char*, const char*>>& LayerMetricNames() {
  static const std::vector<std::pair<const char*, const char*>> kNames = {
      {"stream.serialize_ns", "ns"},
      {"stream.deserialize_ns", "ns"},
      {"stream.transport_ns", "ns"},
      {"stream.heap_allocs_per_tuple", "count"},
      {"stream.acker_ns", "ns"},
      {"stream.ack_msgs_per_tuple", "count"},
      {"stream.execute_app_ns", "ns"},
      {"stream.queue_depth_p99", "count"},
      {"net.pool_hit_rate", "ratio"},
      {"net.rx_bytes_copied_per_tuple", "B"},
      {"net.packetize_ns", "ns"},
      {"net.tuples_per_packet", "count"},
      {"net.depacketize_ns", "ns"},
      {"net.tunnel_mem_ns", "ns"},
      {"net.tunnel_socket_ns", "ns"},
      {"net.tunnel_socket_syscalls_per_frame", "count"},
      {"switchd.forward_ns", "ns"},
      {"switchd.fanout4_ns", "ns"},
      {"switchd.cache_hit_rate", "ratio"},
      {"switchd.rx_drops", "count"},
      {"coordinator.put_ns", "ns"},
      {"coordinator.puts_per_s", "1/s"},
      {"trace.emit_wait_p50_us", "us"},
      {"trace.switch_residency_p50_us", "us"},
      {"trace.tunnel_flight_p50_us", "us"},
      {"trace.rx_wait_p50_us", "us"},
      {"trace.execute_p50_us", "us"},
      {"typhoon.hostd_cpu_share_max", "ratio"},
      {"typhoon.bootstrap_ms", "ms"},
      {"bench.generator_lag_p99_ms", "ms"},
      {"bench.unattributed_share", "ratio"},
      {"bench.tracing_overhead", "ratio"},
  };
  return kNames;
}

std::string Json(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string ResultJson(bool correct, std::int64_t attempted,
                       std::int64_t failed, const std::vector<Metric>& ms) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + Json(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  s += "}}";
  return s;
}

void PrintMetrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

// The run's latency percentiles: every kept round's samples pooled.
struct LatencySummary {
  Percentile p50;
  Percentile p99;
  std::size_t censored = 0;  // samples left out for host stalls
};

LatencySummary SummarizeLatency(const std::vector<RoundResult>& rounds) {
  std::vector<double> pooled;
  LatencySummary s;
  for (const RoundResult& r : rounds) {
    pooled.insert(pooled.end(), r.latency_ms.begin(), r.latency_ms.end());
    s.censored += r.latency_censored;
  }
  s.p50 = PercentileOf(pooled, 0.5);
  s.p99 = PercentileOf(pooled, 0.99);
  return s;
}

void PrintProvenance(const Options& o, const std::string& sha, int rounds,
                     const LatencySummary& lat) {
  std::printf(
      "provenance: {\"hardware_threads\": %u, \"build_type\": \"%s\", "
      "\"source_sha\": \"%s\", \"workload\": \"%s\", \"seed\": %u, "
      "\"run_seconds\": %g, \"rounds\": %d, \"trace\": %d, "
      "\"latency_samples\": %zu, \"latency_censored\": %zu, "
      "\"p50_beyond\": %zu, \"p99_beyond\": %zu, \"p99_supported\": %s}\n",
      HardwareThreads(), PERFBENCH_BUILD_TYPE, sha.c_str(),
      o.workload.c_str(), o.seed, o.seconds, rounds, o.trace ? 1 : 0,
      lat.p50.samples, lat.censored, lat.p50.beyond, lat.p99.beyond,
      lat.p99.supported() ? "true" : "false");
}

double GeneratorLagP99(std::vector<RoundResult>& rounds) {
  double worst = 0.0;
  for (RoundResult& r : rounds) {
    worst = std::max(worst, PercentileOf(r.generator_lag_ms, 0.99).value);
  }
  return worst;
}

Waterfall Ledger(const RoundResult& plain, const ReplayResults& rp) {
  const LayerCounts& c = plain.counts;
  const double tpp = std::max(1.0, rp.tuples_per_packet);
  const bool proc = c.cross_host_tuples_per_unit > 0.0;
  const double packets = proc ? (c.transfers_per_unit +
                                 c.cross_host_tuples_per_unit) / tpp
                              : c.switch_packets_per_unit;
  std::vector<LayerCost> layers = {
      {"stream codec (serialize+deserialize)",
       rp.serialize_ns + rp.deserialize_ns, c.transfers_per_unit},
      {"net packetizer (packetize+depacketize)",
       rp.packetize_ns + rp.depacketize_ns, c.transfers_per_unit},
      {"switchd forward", rp.forward_ns, packets},
      // Tunnel cost scales with the bytes a frame carries (copy and
      // checksum), so it is charged per byte: live frames are smaller
      // than the replay's full 100-tuple packets.
      proc ? LayerCost{"net socket tunnel", rp.tunnel_socket_ns / rp.frame_bytes,
                       c.cross_host_tuples_per_unit * rp.frame_bytes / tpp}
           : LayerCost{"net in-memory tunnel", rp.tunnel_mem_ns / rp.frame_bytes,
                       c.tunnel_bytes_per_unit},
      {"stream acker", rp.acker_ns, c.ack_msgs_per_unit},
      {"stream user execute", rp.execute_app_ns, c.app_executes_per_unit},
      {"coordinator put", rp.coord_put_ns, c.coord_puts_per_unit},
  };
  return BuildWaterfall(layers, plain.cpu_us_per_tuple * 1e3);
}

void PrintWaterfall(const Waterfall& w) {
  std::printf("waterfall (ns of CPU per end-to-end unit):\n");
  for (const Waterfall::Row& r : w.rows) {
    std::printf("  %-42s %10.1f  %6.1f%%\n", r.name.c_str(), r.ns_per_unit,
                r.share * 100.0);
  }
  std::printf("  %-42s %10.1f  %6.1f%%\n", "sum of layers", w.attributed_ns,
              w.end_to_end_ns > 0 ? w.attributed_ns / w.end_to_end_ns * 100
                                  : 0.0);
  std::printf("  %-42s %10.1f\n", "end to end (cpu_us_per_tuple)",
              w.end_to_end_ns);
  std::printf("  %-42s %10.1f%%\n", "unattributed",
              w.unattributed_share * 100.0);
}

double CensoredShare(std::size_t kept, std::size_t censored) {
  return kept + censored > 0 ? static_cast<double>(censored) /
                                   static_cast<double>(kept + censored)
                             : 0.0;
}

void PrintRound(const char* what, std::size_t i, const RoundResult& r) {
  std::vector<double> lat = r.latency_ms;
  const double p50 = PercentileOf(lat, 0.5).value;
  const double p99 = PercentileOf(lat, 0.99).value;
  std::printf("%s %zu: throughput %.0f/s cpu %.4f us p50 %.4f ms p99 %.4f ms "
              "(%zu samples) setup %.4f s bootstrap %.1f ms (%d retried) "
              "steal %.2f%% foreign %.2f%% censored %.2f%%\n",
              what, i, r.throughput_tps, r.cpu_us_per_tuple, p50, p99,
              lat.size(), r.setup_s, r.bootstrap_ms, r.bootstrap_retries,
              r.steal_share * 100.0, r.foreign_share * 100.0,
              CensoredShare(lat.size(), r.latency_censored) * 100.0);
}

int Run(const Options& o, const WorkloadSpec& spec, const std::string& sha) {
  // --trace 0 keeps kRounds untraced rounds; --trace 1 one untraced and
  // one traced round.
  const std::size_t want = o.trace ? 2 : kRounds;
  std::vector<RoundResult> rounds;
  int rejected = 0;
  bool disturbed_kept = false;
  while (rounds.size() < want) {
    const bool traced = o.trace && rounds.size() == 1;
    const auto run_round = [&] {
      return spec.run_round(o, o.seconds / kRounds, traced);
    };
    RoundResult best = run_round();
    while (best.exact && Interference(best) > kMaxInterference &&
           rejected < kMaxRejected) {
      std::this_thread::sleep_for(kRejectPause);
      RoundResult again = run_round();
      // A failed attempt is kept, so that it fails the run.
      if (!again.exact || Interference(again) < Interference(best)) {
        std::swap(best, again);
      }
      PrintRound("rejected round", static_cast<std::size_t>(rejected), again);
      ++rejected;
    }
    disturbed_kept = disturbed_kept ||
                     (best.exact && Interference(best) > kMaxInterference);
    PrintRound("round", rounds.size(), best);
    rounds.push_back(std::move(best));
    if (!rounds.back().exact) break;
  }
  std::printf("host interference: %d round(s) rejected for steal + foreign "
              "CPU above %.1f%%%s\n",
              rejected, kMaxInterference * 100.0,
              disturbed_kept ? "; budget spent, disturbed rounds kept" : "");

  RunChecks checks;
  checks.exact = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  for (const RoundResult& r : rounds) {
    checks.exact = checks.exact && r.exact;
    if (!r.exact) std::printf("round failed: %s\n", r.mismatch.c_str());
    attempted += r.attempted;
    failed += r.failed;
  }
  checks.open_loop = spec.open_loop;
  checks.generator_lag_limit_ms = kGeneratorLagLimitMs;
  checks.generator_lag_p99_ms = spec.open_loop ? GeneratorLagP99(rounds) : 0.0;

  const auto median_of = [&](double RoundResult::*field) {
    std::vector<double> v;
    for (const RoundResult& r : rounds) v.push_back(r.*field);
    return Median(v);
  };

  std::vector<Metric> metrics;
  LatencySummary lat;
  if (!o.trace) {
    lat = SummarizeLatency(rounds);
    metrics = {
        {"throughput_tps", median_of(&RoundResult::throughput_tps),
         "tuples/s"},
        {"latency_p50_ms", lat.p50.value, "ms"},
        {"latency_p99_ms", lat.p99.value, "ms"},
        {"cpu_us_per_tuple", median_of(&RoundResult::cpu_us_per_tuple),
         "us"},
        {"delivered_ratio", median_of(&RoundResult::delivered_ratio),
         "ratio"},
        {"exact", checks.exact ? 1.0 : 0.0, "0/1"},
        {"setup_s", median_of(&RoundResult::setup_s), "s"},
    };
    if (spec.open_loop) {
      std::printf("generator lag p99 %.4f ms (limit %.1f ms)\n",
                  checks.generator_lag_p99_ms, kGeneratorLagLimitMs);
    }
    std::printf("failed_ratio %.6g (%lld failed of %lld attempted)\n",
                attempted > 0 ? static_cast<double>(failed) /
                                    static_cast<double>(attempted)
                              : 0.0,
                static_cast<long long>(failed),
                static_cast<long long>(attempted));
  } else if (rounds.size() == 2) {
    std::vector<RoundResult> plain(rounds.begin(), rounds.begin() + 1);
    lat = SummarizeLatency(plain);
    const RoundResult& untraced = rounds[0];
    const RoundResult& traced = rounds[1];
    const ReplayResults rp = RunReplays(spec, o.seed);
    std::map<std::string, double> v;
    for (const Metric& m : rp.metrics) v[m.name] = m.value;
    // Live readings of the traced round take precedence over replays.
    for (const Metric& m : traced.layer) v[m.name] = m.value;
    v.try_emplace("stream.ack_msgs_per_tuple",
                  untraced.counts.ack_msgs_per_unit);
    ReplayResults costed = rp;
    costed.execute_app_ns = v["stream.execute_app_ns"];
    v["typhoon.bootstrap_ms"] = untraced.bootstrap_ms;
    v["bench.generator_lag_p99_ms"] = checks.generator_lag_p99_ms;
    const Waterfall w = Ledger(untraced, costed);
    v["bench.unattributed_share"] = w.unattributed_share;
    v["bench.tracing_overhead"] =
        untraced.cpu_us_per_tuple > 0
            ? traced.cpu_us_per_tuple / untraced.cpu_us_per_tuple - 1.0
            : 0.0;
    std::string missing;
    for (const auto& [name, unit] : LayerMetricNames()) {
      const auto it = v.find(name);
      if (it == v.end()) missing += std::string(" ") + name;
      metrics.push_back({name, it == v.end() ? 0.0 : it->second, unit});
    }
    std::printf("per-layer counts per unit: transfers %.3f, switch packets "
                "%.4f, tunnel bytes %.1f, cross-host tuples %.3f, acker "
                "msgs %.3f, user executes %.3f, coordinator puts %.5f\n",
                untraced.counts.transfers_per_unit,
                untraced.counts.switch_packets_per_unit,
                untraced.counts.tunnel_bytes_per_unit,
                untraced.counts.cross_host_tuples_per_unit,
                untraced.counts.ack_msgs_per_unit,
                untraced.counts.app_executes_per_unit,
                untraced.counts.coord_puts_per_unit);
    std::printf("cpu_us_per_tuple untraced %.4f, traced %.4f\n",
                untraced.cpu_us_per_tuple, traced.cpu_us_per_tuple);
    if (!missing.empty()) {
      std::printf("not observable on this workload (reported as 0):%s\n",
                  missing.c_str());
    }
    PrintWaterfall(w);
  }

  PrintProvenance(o, sha, static_cast<int>(rounds.size()), lat);
  PrintMetrics(metrics);
  const std::vector<std::string> failures = GateFailures(checks);
  for (const std::string& f : failures) std::printf("FAILED: %s\n", f.c_str());
  const bool correct = failures.empty();
  std::printf("%s\n", ResultJson(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options o;
  std::string sha = "unknown";
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--seed") {
      o.seed = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (k == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      o.trace = std::strcmp(v, "1") == 0;
      have_trace = true;
    } else if (k == "--hostd") {
      o.hostd = v;
    } else if (k == "--source-sha") {
      sha = v;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", k.c_str());
      return 2;
    }
  }
  const perfbench::WorkloadSpec* spec = nullptr;
  for (const auto& w : perfbench::Workloads()) {
    if (w.name == o.workload) spec = &w;
  }
  if (spec == nullptr || !have_trace || !(o.seconds > 0)) {
    std::fprintf(stderr,
                 "usage: typhoon_perfbench --workload "
                 "wordcount_proc|ack_pipeline|local_openloop --seed N "
                 "--seconds S --trace 0|1 --hostd PATH [--source-sha SHA]\n");
    return 2;
  }
  return perfbench::Run(o, *spec, sha);
}
