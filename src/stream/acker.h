// Guaranteed processing (Sec 6.1 "Tuple forwarding with reliability
// guarantee"): Storm-style acker workers track XOR-folded tuple trees and
// notify source workers on completion; unfinished trees time out and fail.
//
// Ack algebra (adapted for broadcast payload identity): when a worker emits
// a tuple copy with edge id e to destination d, the pending contribution is
// mix(e, d). The receiving worker contributes mix(e, self). Because the
// sender knows its destination set even for an all-grouping broadcast, a
// single destination-independent payload still acks correctly at every
// replica — N copies contribute N distinct mix values.
//
// Workers do not send one ack message per execute: they accumulate the
// (root, xor) entries of one loop iteration (a poll burst plus a spout
// turn) and send them as one kBatch message, which the acker applies entry
// by entry and answers with one kCompleteBatch per spout (DESIGN.md Sec 4).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/hash.h"
#include "stream/api.h"

namespace typhoon::stream {

// Mix an edge id with the receiving worker id (see header comment).
inline std::uint64_t AckContribution(std::uint64_t edge_id, WorkerId dst) {
  return common::HashCombine(edge_id, dst);
}

// Ack message layout on kAckStream (plain data tuples):
//   [i64 kInit][i64 root][i64 xor][i64 spout_worker]
//   [i64 kAck][i64 root][i64 xor]
//   [i64 kComplete][i64 root]
//   [i64 kBatch][i64 spout_worker][bytes k x {u8 kind, u64 root, u64 xor}]
//   [i64 kCompleteBatch][bytes k x {u64 root}]
// Batch entries are kInit or kAck; the batch's spout_worker is the one
// every kInit entry registers (the sending worker).
enum class AckKind : std::int64_t {
  kInit = 0,           // spout registered a new tuple tree
  kAck = 1,            // bolt processed one hop
  kComplete = 2,       // acker -> spout: tree fully processed
  kBatch = 3,          // worker -> acker: k init/ack entries
  kCompleteBatch = 4,  // acker -> spout: k trees fully processed
};

// One entry of a kBatch message.
struct AckEntry {
  AckKind kind = AckKind::kAck;  // kInit or kAck
  std::uint64_t root = 0;
  std::uint64_t xor_val = 0;

  friend bool operator==(const AckEntry&, const AckEntry&) = default;
};

Tuple MakeAckInit(std::uint64_t root, std::uint64_t xor_val,
                  WorkerId spout_worker);
Tuple MakeAck(std::uint64_t root, std::uint64_t xor_val);
Tuple MakeAckComplete(std::uint64_t root);
Tuple MakeAckBatch(WorkerId spout_worker, std::span<const AckEntry> entries);
Tuple MakeAckCompleteBatch(std::span<const std::uint64_t> roots);

// Append one entry to a batch under construction. An entry with the same
// kind and root as the last one XORs into it instead of growing the batch.
void AppendAckEntry(std::vector<AckEntry>& batch, AckKind kind,
                    std::uint64_t root, std::uint64_t xor_val);

// Batch decoders: false (and `out` cleared) unless `t` is a well-formed
// message of that kind.
bool DecodeAckBatch(const Tuple& t, WorkerId& spout_worker,
                    std::vector<AckEntry>& out);
bool DecodeAckCompleteBatch(const Tuple& t, std::vector<std::uint64_t>& out);

// Logical ack messages one kAckStream tuple carries: k for a batch of k
// entries (or roots), 1 otherwise. Worker `received`/`emitted` counters
// add this, so they count entries, not frames.
std::size_t AckMessageCount(const Tuple& t);

// The acker node's computation logic, deployed like any bolt under the
// reserved node name kAckerNodeName.
class AckerBolt : public Bolt {
 public:
  void prepare(const WorkerContext& ctx) override;
  void execute(const Tuple& input, const TupleMeta& meta,
               Emitter& out) override;

  [[nodiscard]] std::size_t pending() const { return trees_.size(); }

 private:
  struct Tree {
    std::uint64_t value = 0;
    WorkerId spout = 0;
    bool init_seen = false;
    common::TimePoint first_seen;
  };

  // Fold one init/ack into its tree. Returns the spout to notify when the
  // tree completed (the tree is then erased), 0 otherwise. `now` stamps a
  // new tree; it is read from the clock on first need if still zero.
  WorkerId apply(AckKind kind, std::uint64_t root, std::uint64_t xor_val,
                 WorkerId spout, common::TimePoint& now);
  void execute_batch(const Tuple& input, Emitter& out);
  // Sweeps timed-out trees at most every 5 s, checked every 1024 messages.
  void count_and_sweep(std::size_t messages);
  void sweep(common::TimePoint now);

  std::unordered_map<std::uint64_t, Tree> trees_;
  common::TimePoint last_sweep_;
  std::chrono::milliseconds tree_timeout_{30000};
  std::uint64_t executes_ = 0;  // messages since the last sweep check
  // Buffers reused across batches.
  std::vector<AckEntry> entries_;
  std::vector<std::pair<WorkerId, std::uint64_t>> completed_;
  std::vector<std::uint64_t> roots_;
};

inline constexpr const char* kAckerNodeName = "__acker";

}  // namespace typhoon::stream
