// Arithmetic behind every number the benchmark reports: percentiles with
// their sample support, the open-loop send schedule, rates and delays read
// off sampled cumulative counters, the per-layer waterfall, the machine's
// stolen CPU time, and the gate that fails a run. Kept free of Typhoon
// types so it is unit-tested alone (perfbench/tests/test_stats.cc).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// A percentile of a sample, with the support the report needs: how many
// samples it rests on and how many lie strictly beyond it. A tail
// percentile counts as supported only with at least kMinBeyond samples
// beyond it.
inline constexpr std::size_t kMinBeyond = 10;

struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
  [[nodiscard]] bool supported() const { return beyond >= kMinBeyond; }
};

// q in [0, 1]; linear interpolation between closest ranks (rank q*(n-1)).
// Sorts `samples` in place. An empty sample yields value 0, samples 0.
Percentile PercentileOf(std::vector<double>& samples, double q);

// Median of a small set of per-round values (copy; order kept).
double Median(std::vector<double> values);

// Median of whole-number samples (microsecond span gaps), interpolated
// inside the unit-wide bin that holds it: m - 0.5 + (n/2 - below) / at,
// where m is the middle value, `below` the samples under it and `at` the
// samples equal to it. Unlike the plain median it moves with the counts,
// not in whole steps. 0 for an empty sample. Sorts in place.
double GroupedMedian(std::vector<double>& whole_samples);

// Open-loop generator: tuple k is due at start + k / rate, whatever the
// system does. Lateness is measured from the due time, so a stall delays
// every tuple that fell due during it.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(std::int64_t start_ns, double rate_per_s)
      : start_ns_(start_ns), ns_per_tuple_(1e9 / rate_per_s) {}

  [[nodiscard]] std::int64_t due_ns(std::uint64_t k) const;
  // Number of tuples due at or before now_ns (tuples 0 .. n-1).
  [[nodiscard]] std::uint64_t due_count(std::int64_t now_ns) const;
  // How late a tuple sent at now_ns runs; zero or more when sent on or
  // after its due time.
  [[nodiscard]] std::int64_t lateness_ns(std::uint64_t k,
                                         std::int64_t now_ns) const {
    return now_ns - due_ns(k);
  }

 private:
  std::int64_t start_ns_;
  double ns_per_tuple_;
};

// One observation of a monotone cumulative counter.
struct CurvePoint {
  double t_s = 0.0;
  double count = 0.0;
};

// Rate between the first points at or above lo_count and hi_count
// (counts per second); 0 when either is never reached or no time passed.
double WindowRate(const std::vector<CurvePoint>& curve, double lo_count,
                  double hi_count);

// First time (linear interpolation between neighbouring points) at which a
// monotone curve reaches `count`; negative when it never does.
double CrossingTime(const std::vector<CurvePoint>& curve, double count);

// Value of a monotone curve at time t (linear interpolation, clamped to
// the first and last points); 0 for an empty curve.
double ValueAt(const std::vector<CurvePoint>& curve, double t_s);

// Virtual delay: for each input point inside [t_lo, t_hi], the time the
// output curve took to reach the input's count. With FIFO-like flow this
// is the sojourn time of the item at that position.
std::vector<double> VirtualDelays(const std::vector<CurvePoint>& input,
                                  const std::vector<CurvePoint>& output,
                                  double t_lo, double t_hi);

// Per-layer waterfall: each layer's isolated cost times how often it runs
// per end-to-end unit, summed and set against the measured end-to-end
// cost per unit. The gap is what no layer replay explains.
struct LayerCost {
  std::string name;
  double ns_per_op = 0.0;
  double ops_per_unit = 0.0;
};

struct Waterfall {
  struct Row {
    std::string name;
    double ns_per_unit = 0.0;
    double share = 0.0;  // of the end-to-end cost
  };
  std::vector<Row> rows;
  double attributed_ns = 0.0;
  double end_to_end_ns = 0.0;
  double unattributed_share = 0.0;  // 1 - attributed / end-to-end
};

Waterfall BuildWaterfall(const std::vector<LayerCost>& layers,
                         double end_to_end_ns_per_unit);

// Whole-machine CPU time in clock ticks, from the first line of
// /proc/stat: the columns up to steal summed, the idle time (idle and
// iowait), and the steal column alone (time the hypervisor ran something
// else while a virtual CPU of this machine was ready to run).
struct MachineTicks {
  std::uint64_t total = 0;
  std::uint64_t idle = 0;
  std::uint64_t steal = 0;
};

// Parses "cpu  user nice system idle iowait irq softirq steal ..." (the
// machine; *cpu = -1) or "cpuN ..." (one CPU; *cpu = N). False for any
// other line.
bool ParseCpuLine(const std::string& line, int* cpu, MachineTicks* out);

// Share of the machine's CPU time stolen between two readings; 0 when no
// tick passed.
double StealShare(const MachineTicks& from, const MachineTicks& to);

// Share of the machine's CPU time between two readings that was busy but
// not spent by the benchmark's own processes (`own_cpu_s` seconds at
// `ticks_per_s`): other programs on the same machine. 0 when no tick
// passed.
double ForeignShare(const MachineTicks& from, const MachineTicks& to,
                    double own_cpu_s, double ticks_per_s);

// Every CPU's steal counter (clock ticks) at one instant.
struct StealSample {
  std::int64_t t_ns = 0;
  std::vector<std::uint64_t> steal;
};

// A closed span of steady-clock time.
struct Span {
  std::int64_t lo_ns = 0;
  std::int64_t hi_ns = 0;
};

// The spans during which the hypervisor held one of the machine's CPUs,
// read off successive steal samples. A counter that grew by k ticks
// between samples at t0 < t1 was stolen for up to k + 1 ticks (the
// counter truncates) ending by t1: the span [t0 - (k + 1) tick, t1].
// Sorted, overlapping spans merged.
std::vector<Span> StallSpans(const std::vector<StealSample>& samples,
                             std::int64_t tick_ns);

// Whether [lo_ns, hi_ns] overlaps one of the sorted, disjoint spans.
bool Overlaps(const std::vector<Span>& spans, std::int64_t lo_ns,
              std::int64_t hi_ns);

// What makes a run fail, whatever its numbers: outputs that do not match
// the reference, or an open-loop generator that fell behind its schedule
// by more than the limit (its latencies would then describe a lighter
// load than the one offered).
struct RunChecks {
  bool exact = false;
  bool open_loop = false;
  double generator_lag_p99_ms = 0.0;
  double generator_lag_limit_ms = 0.0;
};

std::vector<std::string> GateFailures(const RunChecks& checks);

}  // namespace perfbench
