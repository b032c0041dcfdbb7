// Shared types of the Typhoon benchmark binary (see perfbench/README.md).
//
// A run measures one workload. With tracing off it reports the end-to-end
// metrics; with tracing on it reports the per-layer ledger: counters read
// from outside the program during a traced run of the same workload,
// isolated replays of each layer on the workload's own seeded tuple mix,
// and the waterfall that reconciles the two.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "stats.h"
#include "stream/tuple.h"
#include "trace/collector.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint32_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string hostd;  // typhoon_hostd binary (wordcount_proc)
};

// A named value with its unit, as it lands in the result JSON.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// How often each layer runs per end-to-end unit of a workload, counted
// from outside during the run. Feeds the waterfall.
struct LayerCounts {
  double transfers_per_unit = 0.0;      // tuple deliveries between workers
  double ack_msgs_per_unit = 0.0;       // acker executes
  double app_executes_per_unit = 0.0;   // user bolt executes
  double coord_puts_per_unit = 0.0;     // coordinator writes
  // In-process runs count switch packets and in-memory tunnel bytes
  // directly. A process run cannot see its children's switches and
  // socket tunnels, so it counts tuples that cross hosts (from the worker
  // placement) and the ledger turns them into packets and bytes.
  double switch_packets_per_unit = 0.0;
  double tunnel_bytes_per_unit = 0.0;
  double cross_host_tuples_per_unit = 0.0;
};

// One measured window of a workload (one fresh cluster).
struct RoundResult {
  bool exact = false;
  std::string mismatch;  // first reference mismatch, when !exact
  std::int64_t attempted = 0;  // tuples (or sentences) the spout sent
  std::int64_t failed = 0;     // spout fail() calls + undelivered
  double setup_s = 0.0;
  double bootstrap_ms = 0.0;   // until the cluster's start() returned
  int bootstrap_retries = 0;   // failed cluster starts before this one
  double throughput_tps = 0.0;
  double cpu_us_per_tuple = 0.0;
  double delivered_ratio = 0.0;
  // Share of the machine's CPU time the hypervisor stole during the
  // measured window: interference from outside the program.
  double steal_share = 0.0;
  // Share of the machine's CPU time other programs used in that window.
  double foreign_share = 0.0;
  // Latency samples left out because the tuple was in flight while the
  // hypervisor held a CPU (in-process workloads).
  std::size_t latency_censored = 0;
  std::vector<double> latency_ms;        // window samples
  std::vector<double> generator_lag_ms;  // open loop only
  LayerCounts counts;
  std::vector<Metric> layer;  // outside-in per-layer readings (traced runs)
};

struct WorkloadSpec {
  std::string name;
  bool open_loop = false;
  // One round: a fresh cluster measured for `window_s`; `traced` turns on
  // span sampling and the outside-in per-layer readings.
  RoundResult (*run_round)(const Options& opts, double window_s, bool traced);
  // The workload's seeded tuple mix, for the isolated layer replays.
  std::vector<typhoon::stream::Tuple> (*tuple_mix)(std::uint32_t seed,
                                                   std::size_t n);
};

// Open-loop generator limit: a run whose generator ran later than this at
// p99 did not offer the load it claims, so it fails. Well above the few
// milliseconds a preempted virtual CPU costs.
inline constexpr double kGeneratorLagLimitMs = 50.0;

// ---- workloads (inproc.cc, proc.cc) ----
RoundResult RunLocalOpenLoop(const Options& opts, double window_s,
                             bool traced);
RoundResult RunAckPipeline(const Options& opts, double window_s, bool traced);
RoundResult RunWordCountProc(const Options& opts, double window_s,
                             bool traced);
std::vector<typhoon::stream::Tuple> OpenLoopMix(std::uint32_t seed,
                                                std::size_t n);
std::vector<typhoon::stream::Tuple> AckPipelineMix(std::uint32_t seed,
                                                   std::size_t n);
std::vector<typhoon::stream::Tuple> WordCountMix(std::uint32_t seed,
                                                 std::size_t n);

// Median stage gaps (us) of the completed chains a traced run collected
// that started at or after `since_us` (common::NowMicros time): the
// trace.* rows of the ledger (inproc.cc).
std::vector<Metric> TraceStageMetrics(
    const typhoon::trace::TraceCollector& collector, std::int64_t since_us);

// ---- isolated layer replays (replays.cc) ----
struct ReplayResults {
  std::vector<Metric> metrics;
  // ns per operation, for the waterfall
  double serialize_ns = 0, deserialize_ns = 0, packetize_ns = 0,
         depacketize_ns = 0, tuples_per_packet = 1, forward_ns = 0,
         frame_bytes = 1, tunnel_mem_ns = 0, tunnel_socket_ns = 0,
         acker_ns = 0,
         execute_app_ns = 0, coord_put_ns = 0;
};
ReplayResults RunReplays(const WorkloadSpec& spec, std::uint32_t seed);

// ---- process and machine facts (sysinfo.cc) ----
double SelfCpuSeconds();
// utime + stime of another process from /proc/<pid>/stat; < 0 on error.
double PidCpuSeconds(int pid);
// The machine-wide CPU ticks of /proc/stat, and every CPU's steal
// counter when asked; zeros when unreadable.
MachineTicks ReadMachineTicks(std::vector<std::uint64_t>* cpu_steal = nullptr);
double ClockTicksPerSecond();
double ThreadCpuSeconds();  // of the calling thread

// Samples every CPU's steal counter every 2 ms on a thread of its own,
// from construction until stop(), which returns the spans during which
// the hypervisor held a CPU (StallSpans). cpu_seconds() is the sampling
// thread's own CPU time, so that measured CPU can leave it out.
class StealMonitor {
 public:
  StealMonitor();
  ~StealMonitor();
  StealMonitor(const StealMonitor&) = delete;
  StealMonitor& operator=(const StealMonitor&) = delete;

  std::vector<Span> stop();
  double cpu_seconds() const { return cpu_s_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<double> cpu_s_{0.0};
  std::vector<StealSample> samples_;  // written by the thread until joined
  std::thread thread_;
};
std::int64_t NowNs();
unsigned HardwareThreads();

// ---- heap allocation accounting (alloc_hook.cc) ----
// Counts operator-new calls from every thread while enabled; disabled it
// costs one relaxed load per allocation.
void SetAllocCounting(bool on);
std::uint64_t AllocCount();

}  // namespace perfbench
