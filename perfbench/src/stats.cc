#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

Percentile PercentileOf(std::vector<double>& samples, double q) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  const double rank = std::clamp(q, 0.0, 1.0) *
                      static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  p.value = samples[lo] + (samples[hi] - samples[lo]) * frac;
  p.beyond = static_cast<std::size_t>(
      samples.end() -
      std::upper_bound(samples.begin(), samples.end(), p.value));
  return p;
}

double Median(std::vector<double> values) {
  return PercentileOf(values, 0.5).value;
}

double GroupedMedian(std::vector<double>& whole_samples) {
  if (whole_samples.empty()) return 0.0;
  std::sort(whole_samples.begin(), whole_samples.end());
  const double m = whole_samples[(whole_samples.size() - 1) / 2];
  const auto lo =
      std::lower_bound(whole_samples.begin(), whole_samples.end(), m);
  const auto hi = std::upper_bound(lo, whole_samples.end(), m);
  const auto below = static_cast<double>(lo - whole_samples.begin());
  const auto at = static_cast<double>(hi - lo);
  return m - 0.5 +
         (static_cast<double>(whole_samples.size()) / 2.0 - below) / at;
}

std::int64_t OpenLoopSchedule::due_ns(std::uint64_t k) const {
  return start_ns_ +
         static_cast<std::int64_t>(static_cast<double>(k) * ns_per_tuple_);
}

std::uint64_t OpenLoopSchedule::due_count(std::int64_t now_ns) const {
  if (now_ns < start_ns_) return 0;
  auto n = static_cast<std::uint64_t>(
      static_cast<double>(now_ns - start_ns_) / ns_per_tuple_);
  // Floating-point rounding may put the boundary tuple on either side;
  // settle it against due_ns itself so the two never disagree.
  while (due_ns(n) <= now_ns) ++n;
  while (n > 0 && due_ns(n - 1) > now_ns) --n;
  return n;
}

double WindowRate(const std::vector<CurvePoint>& curve, double lo_count,
                  double hi_count) {
  const CurvePoint* lo = nullptr;
  const CurvePoint* hi = nullptr;
  for (const CurvePoint& p : curve) {
    if (lo == nullptr && p.count >= lo_count) lo = &p;
    if (hi == nullptr && p.count >= hi_count) hi = &p;
  }
  if (lo == nullptr || hi == nullptr || hi->t_s <= lo->t_s) return 0.0;
  return (hi->count - lo->count) / (hi->t_s - lo->t_s);
}

double CrossingTime(const std::vector<CurvePoint>& curve, double count) {
  for (std::size_t i = 0; i < curve.size(); ++i) {
    if (curve[i].count < count) continue;
    if (i == 0) return curve[0].t_s;
    const CurvePoint& a = curve[i - 1];
    const CurvePoint& b = curve[i];
    if (b.count <= a.count) return b.t_s;
    return a.t_s + (b.t_s - a.t_s) * (count - a.count) / (b.count - a.count);
  }
  return -1.0;
}

double ValueAt(const std::vector<CurvePoint>& curve, double t_s) {
  if (curve.empty()) return 0.0;
  if (t_s <= curve.front().t_s) return curve.front().count;
  for (std::size_t i = 1; i < curve.size(); ++i) {
    const CurvePoint& a = curve[i - 1];
    const CurvePoint& b = curve[i];
    if (t_s > b.t_s) continue;
    if (b.t_s <= a.t_s) return b.count;
    return a.count + (b.count - a.count) * (t_s - a.t_s) / (b.t_s - a.t_s);
  }
  return curve.back().count;
}

std::vector<double> VirtualDelays(const std::vector<CurvePoint>& input,
                                  const std::vector<CurvePoint>& output,
                                  double t_lo, double t_hi) {
  std::vector<double> out;
  for (const CurvePoint& p : input) {
    if (p.t_s < t_lo || p.t_s > t_hi) continue;
    const double t = CrossingTime(output, p.count);
    if (t >= 0.0) out.push_back(std::max(0.0, t - p.t_s));
  }
  return out;
}

Waterfall BuildWaterfall(const std::vector<LayerCost>& layers,
                         double end_to_end_ns_per_unit) {
  Waterfall w;
  w.end_to_end_ns = end_to_end_ns_per_unit;
  for (const LayerCost& l : layers) {
    Waterfall::Row r;
    r.name = l.name;
    r.ns_per_unit = l.ns_per_op * l.ops_per_unit;
    w.attributed_ns += r.ns_per_unit;
    w.rows.push_back(r);
  }
  for (Waterfall::Row& r : w.rows) {
    r.share = end_to_end_ns_per_unit > 0.0
                  ? r.ns_per_unit / end_to_end_ns_per_unit
                  : 0.0;
  }
  w.unattributed_share = end_to_end_ns_per_unit > 0.0
                             ? 1.0 - w.attributed_ns / end_to_end_ns_per_unit
                             : 0.0;
  return w;
}

bool ParseCpuLine(const std::string& line, int* cpu, MachineTicks* out) {
  if (line.rfind("cpu", 0) != 0 || line.size() < 4) return false;
  std::istringstream in(line.substr(3));
  if (line[3] == ' ') {
    *cpu = -1;
  } else if (!(in >> *cpu) || *cpu < 0) {
    return false;
  }
  MachineTicks t;
  std::uint64_t v = 0;
  int column = 0;
  // Columns 0..7 end with steal; guest time (8, 9) is already counted in
  // user time.
  while (column < 8 && in >> v) {
    t.total += v;
    if (column == 3 || column == 4) t.idle += v;
    if (column == 7) t.steal = v;
    ++column;
  }
  if (column < 8) return false;
  *out = t;
  return true;
}

double StealShare(const MachineTicks& from, const MachineTicks& to) {
  if (to.total <= from.total) return 0.0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

double ForeignShare(const MachineTicks& from, const MachineTicks& to,
                    double own_cpu_s, double ticks_per_s) {
  if (to.total <= from.total) return 0.0;
  const double busy = static_cast<double>((to.total - from.total) -
                                          (to.idle - from.idle) -
                                          (to.steal - from.steal));
  return std::max(0.0, busy - own_cpu_s * ticks_per_s) /
         static_cast<double>(to.total - from.total);
}

std::vector<Span> StallSpans(const std::vector<StealSample>& samples,
                             std::int64_t tick_ns) {
  std::vector<Span> spans;
  for (std::size_t i = 1; i < samples.size(); ++i) {
    const StealSample& a = samples[i - 1];
    const StealSample& b = samples[i];
    std::uint64_t k = 0;
    for (std::size_t c = 0; c < a.steal.size() && c < b.steal.size(); ++c) {
      if (b.steal[c] > a.steal[c]) k = std::max(k, b.steal[c] - a.steal[c]);
    }
    if (k == 0) continue;
    spans.push_back(
        {a.t_ns - static_cast<std::int64_t>(k + 1) * tick_ns, b.t_ns});
  }
  std::sort(spans.begin(), spans.end(),
            [](const Span& x, const Span& y) { return x.lo_ns < y.lo_ns; });
  std::vector<Span> merged;
  for (const Span& sp : spans) {
    if (!merged.empty() && sp.lo_ns <= merged.back().hi_ns) {
      merged.back().hi_ns = std::max(merged.back().hi_ns, sp.hi_ns);
    } else {
      merged.push_back(sp);
    }
  }
  return merged;
}

bool Overlaps(const std::vector<Span>& spans, std::int64_t lo_ns,
              std::int64_t hi_ns) {
  // The first span ending at or after lo_ns is the only candidate.
  const auto it = std::lower_bound(
      spans.begin(), spans.end(), lo_ns,
      [](const Span& sp, std::int64_t t) { return sp.hi_ns < t; });
  return it != spans.end() && it->lo_ns <= hi_ns;
}

std::vector<std::string> GateFailures(const RunChecks& checks) {
  std::vector<std::string> out;
  if (!checks.exact) {
    out.emplace_back("outputs differ from the reference (exact = 0)");
  }
  if (checks.open_loop &&
      !(checks.generator_lag_p99_ms <= checks.generator_lag_limit_ms)) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "generator lag p99 %.3f ms exceeds its %.3f ms limit",
                  checks.generator_lag_p99_ms, checks.generator_lag_limit_ms);
    out.emplace_back(buf);
  }
  return out;
}

}  // namespace perfbench
