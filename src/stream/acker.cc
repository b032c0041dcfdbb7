#include "stream/acker.h"

#include <algorithm>

#include "common/bytes.h"

namespace typhoon::stream {

namespace {
std::int64_t AsI64(std::uint64_t v) { return static_cast<std::int64_t>(v); }
std::uint64_t AsU64(std::int64_t v) { return static_cast<std::uint64_t>(v); }

constexpr std::size_t kEntryBytes = 1 + 8 + 8;  // kind, root, xor
constexpr std::size_t kRootBytes = 8;

bool HasKind(const Tuple& t, AckKind kind) {
  return t.size() >= 1 && t.at(0).is_i64() &&
         static_cast<AckKind>(t.i64(0)) == kind;
}

// The packed-bytes field of a batch message, or empty when absent.
std::span<const std::uint8_t> BatchBody(const Tuple& t, std::size_t index,
                                        std::size_t record) {
  if (t.size() <= index || !t.at(index).is_bytes()) return {};
  const auto body = t.bytes(index);
  if (body.size() % record != 0) return {};
  return body;
}
}  // namespace

Tuple MakeAckInit(std::uint64_t root, std::uint64_t xor_val,
                  WorkerId spout_worker) {
  return Tuple{static_cast<std::int64_t>(AckKind::kInit), AsI64(root),
               AsI64(xor_val), AsI64(spout_worker)};
}

Tuple MakeAck(std::uint64_t root, std::uint64_t xor_val) {
  return Tuple{static_cast<std::int64_t>(AckKind::kAck), AsI64(root),
               AsI64(xor_val)};
}

Tuple MakeAckComplete(std::uint64_t root) {
  return Tuple{static_cast<std::int64_t>(AckKind::kComplete), AsI64(root)};
}

Tuple MakeAckBatch(WorkerId spout_worker, std::span<const AckEntry> entries) {
  common::Bytes body;
  body.reserve(entries.size() * kEntryBytes);
  common::BufWriter w(body);
  for (const AckEntry& e : entries) {
    w.u8(static_cast<std::uint8_t>(e.kind));
    w.u64(e.root);
    w.u64(e.xor_val);
  }
  Tuple t;
  t.reserve(3);
  t.push(static_cast<std::int64_t>(AckKind::kBatch));
  t.push(AsI64(spout_worker));
  t.push(Value(body));
  return t;
}

Tuple MakeAckCompleteBatch(std::span<const std::uint64_t> roots) {
  common::Bytes body;
  body.reserve(roots.size() * kRootBytes);
  common::BufWriter w(body);
  for (std::uint64_t r : roots) w.u64(r);
  Tuple t;
  t.reserve(2);
  t.push(static_cast<std::int64_t>(AckKind::kCompleteBatch));
  t.push(Value(body));
  return t;
}

void AppendAckEntry(std::vector<AckEntry>& batch, AckKind kind,
                    std::uint64_t root, std::uint64_t xor_val) {
  if (!batch.empty() && batch.back().root == root &&
      batch.back().kind == kind) {
    batch.back().xor_val ^= xor_val;
    return;
  }
  batch.push_back({kind, root, xor_val});
}

bool DecodeAckBatch(const Tuple& t, WorkerId& spout_worker,
                    std::vector<AckEntry>& out) {
  out.clear();
  if (!HasKind(t, AckKind::kBatch) || t.size() < 3 || !t.at(1).is_i64()) {
    return false;
  }
  const auto body = BatchBody(t, 2, kEntryBytes);
  if (body.empty()) return false;
  spout_worker = AsU64(t.i64(1));
  out.reserve(body.size() / kEntryBytes);
  common::BufReader r(body);
  AckEntry e;
  std::uint8_t kind = 0;
  while (r.u8(kind) && r.u64(e.root) && r.u64(e.xor_val)) {
    e.kind = static_cast<AckKind>(kind);
    if (e.kind != AckKind::kInit && e.kind != AckKind::kAck) {
      out.clear();
      return false;
    }
    out.push_back(e);
  }
  return true;
}

bool DecodeAckCompleteBatch(const Tuple& t, std::vector<std::uint64_t>& out) {
  out.clear();
  if (!HasKind(t, AckKind::kCompleteBatch)) return false;
  const auto body = BatchBody(t, 1, kRootBytes);
  if (body.empty()) return false;
  out.reserve(body.size() / kRootBytes);
  common::BufReader r(body);
  std::uint64_t root = 0;
  while (r.u64(root)) out.push_back(root);
  return true;
}

std::size_t AckMessageCount(const Tuple& t) {
  if (HasKind(t, AckKind::kBatch)) {
    return std::max<std::size_t>(1, BatchBody(t, 2, kEntryBytes).size() /
                                        kEntryBytes);
  }
  if (HasKind(t, AckKind::kCompleteBatch)) {
    return std::max<std::size_t>(1, BatchBody(t, 1, kRootBytes).size() /
                                        kRootBytes);
  }
  return 1;
}

void AckerBolt::prepare(const WorkerContext&) {
  last_sweep_ = common::Now();
}

void AckerBolt::sweep(common::TimePoint now) {
  std::erase_if(trees_, [&](const auto& kv) {
    return now - kv.second.first_seen > tree_timeout_;
  });
}

WorkerId AckerBolt::apply(AckKind kind, std::uint64_t root,
                          std::uint64_t xor_val, WorkerId spout,
                          common::TimePoint& now) {
  Tree& tree = trees_[root];
  if (tree.first_seen == common::TimePoint{}) {
    if (now == common::TimePoint{}) now = common::Now();
    tree.first_seen = now;
  }
  tree.value ^= xor_val;
  if (kind == AckKind::kInit) {
    tree.spout = spout;
    tree.init_seen = true;
  }
  if (!tree.init_seen || tree.value != 0) return 0;
  const WorkerId done = tree.spout;
  trees_.erase(root);
  return done;
}

void AckerBolt::count_and_sweep(std::size_t messages) {
  executes_ += messages;
  if (executes_ < 1024) return;
  executes_ = 0;
  const common::TimePoint now = common::Now();
  if (now - last_sweep_ > std::chrono::seconds(5)) {
    last_sweep_ = now;
    sweep(now);
  }
}

void AckerBolt::execute(const Tuple& input, const TupleMeta&, Emitter& out) {
  if (input.size() < 2) return;
  const auto kind = static_cast<AckKind>(input.i64(0));
  if (kind == AckKind::kBatch) {
    execute_batch(input, out);
    return;
  }
  const std::uint64_t root = AsU64(input.i64(1));
  WorkerId done = 0;
  common::TimePoint now{};  // read once, and only for a new tree
  switch (kind) {
    case AckKind::kInit:
      if (input.size() < 4) return;
      done = apply(kind, root, AsU64(input.i64(2)), AsU64(input.i64(3)), now);
      break;
    case AckKind::kAck:
      if (input.size() < 3) return;
      done = apply(kind, root, AsU64(input.i64(2)), 0, now);
      break;
    default:
      return;  // completions are not addressed to ackers
  }
  if (done != 0) out.emit_direct(done, kAckStream, MakeAckComplete(root));
  count_and_sweep(1);
}

// Entries apply in order, exactly as the equivalent single messages would;
// the trees they complete are answered with one kCompleteBatch per spout.
void AckerBolt::execute_batch(const Tuple& input, Emitter& out) {
  WorkerId spout = 0;
  if (!DecodeAckBatch(input, spout, entries_)) return;
  common::TimePoint now{};
  completed_.clear();
  for (const AckEntry& e : entries_) {
    const WorkerId done = apply(e.kind, e.root, e.xor_val,
                                e.kind == AckKind::kInit ? spout : 0, now);
    if (done != 0) completed_.emplace_back(done, e.root);
  }
  std::stable_sort(completed_.begin(), completed_.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  for (std::size_t i = 0; i < completed_.size();) {
    const WorkerId dst = completed_[i].first;
    roots_.clear();
    for (; i < completed_.size() && completed_[i].first == dst; ++i) {
      roots_.push_back(completed_[i].second);
    }
    out.emit_direct(dst, kAckStream, MakeAckCompleteBatch(roots_));
  }
  count_and_sweep(entries_.size());
}

}  // namespace typhoon::stream
