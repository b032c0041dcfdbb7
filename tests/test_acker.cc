// AckerBolt algebra: XOR-folded tuple trees with the mix(edge, dst)
// contribution scheme that keeps broadcast payloads destination-independent
// (see acker.h header comment).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <utility>

#include "stream/acker.h"

namespace typhoon::stream {
namespace {

// Captures direct emissions (acker completions go to spout workers).
class CaptureEmitter : public Emitter {
 public:
  void emit(Tuple) override {}
  void emit(StreamId, Tuple) override {}
  void emit_direct(WorkerId dst, StreamId stream, Tuple t) override {
    completions.push_back({dst, stream, std::move(t)});
  }
  struct Item {
    WorkerId dst;
    StreamId stream;
    Tuple tuple;
  };
  std::vector<Item> completions;
};

TupleMeta Meta() { return {}; }

// The roots of a kComplete or kCompleteBatch tuple.
std::vector<std::uint64_t> Roots(const Tuple& t) {
  std::vector<std::uint64_t> roots;
  if (DecodeAckCompleteBatch(t, roots)) return roots;
  return {static_cast<std::uint64_t>(t.i64(1))};
}

TEST(Acker, SingleHopTreeCompletes) {
  AckerBolt acker;
  CaptureEmitter out;
  acker.prepare({});

  // Spout 100 emits tuple (root=1, edge=7) to worker 200.
  const std::uint64_t root = 1;
  const std::uint64_t c = AckContribution(7, 200);
  acker.execute(MakeAckInit(root, c, 100), Meta(), out);
  EXPECT_TRUE(out.completions.empty());
  EXPECT_EQ(acker.pending(), 1u);

  // Worker 200 consumes it and emits nothing.
  acker.execute(MakeAck(root, AckContribution(7, 200)), Meta(), out);
  ASSERT_EQ(out.completions.size(), 1u);
  EXPECT_EQ(out.completions[0].dst, 100u);
  EXPECT_EQ(out.completions[0].stream, kAckStream);
  EXPECT_EQ(static_cast<AckKind>(out.completions[0].tuple.i64(0)),
            AckKind::kComplete);
  EXPECT_EQ(out.completions[0].tuple.i64(1), 1);
  EXPECT_EQ(acker.pending(), 0u);
}

TEST(Acker, MultiHopTreeNeedsEveryAck) {
  AckerBolt acker;
  CaptureEmitter out;
  const std::uint64_t root = 42;

  // Spout -> A (edge e1); A -> B (edge e2); B emits nothing.
  const std::uint64_t e1 = 0x1111;
  const std::uint64_t e2 = 0x2222;
  const WorkerId a = 201;
  const WorkerId b = 202;

  acker.execute(MakeAckInit(root, AckContribution(e1, a), 100), Meta(), out);
  // A acks consumption of e1 and registers child e2 -> b.
  acker.execute(
      MakeAck(root, AckContribution(e1, a) ^ AckContribution(e2, b)), Meta(),
      out);
  EXPECT_TRUE(out.completions.empty());
  // B acks consumption of e2.
  acker.execute(MakeAck(root, AckContribution(e2, b)), Meta(), out);
  ASSERT_EQ(out.completions.size(), 1u);
}

TEST(Acker, BroadcastFanoutAcksPerReplica) {
  AckerBolt acker;
  CaptureEmitter out;
  const std::uint64_t root = 7;
  const std::uint64_t e = 0xabcd;  // one edge id, identical payloads
  const std::vector<WorkerId> dests{301, 302, 303, 304};

  std::uint64_t init = 0;
  for (WorkerId d : dests) init ^= AckContribution(e, d);
  acker.execute(MakeAckInit(root, init, 100), Meta(), out);

  for (std::size_t i = 0; i < dests.size(); ++i) {
    EXPECT_TRUE(out.completions.empty()) << "completed after " << i;
    acker.execute(MakeAck(root, AckContribution(e, dests[i])), Meta(), out);
  }
  ASSERT_EQ(out.completions.size(), 1u);
}

TEST(Acker, OutOfOrderAckBeforeInitStillCompletes) {
  AckerBolt acker;
  CaptureEmitter out;
  const std::uint64_t root = 9;
  const std::uint64_t c = AckContribution(5, 200);

  acker.execute(MakeAck(root, c), Meta(), out);  // ack arrives first
  EXPECT_TRUE(out.completions.empty());
  acker.execute(MakeAckInit(root, c, 100), Meta(), out);
  ASSERT_EQ(out.completions.size(), 1u);
}

TEST(Acker, IndependentTreesDoNotInterfere) {
  AckerBolt acker;
  CaptureEmitter out;
  acker.execute(MakeAckInit(1, AckContribution(10, 200), 100), Meta(), out);
  acker.execute(MakeAckInit(2, AckContribution(20, 200), 101), Meta(), out);
  EXPECT_EQ(acker.pending(), 2u);

  acker.execute(MakeAck(2, AckContribution(20, 200)), Meta(), out);
  ASSERT_EQ(out.completions.size(), 1u);
  EXPECT_EQ(out.completions[0].dst, 101u);
  EXPECT_EQ(acker.pending(), 1u);
}

TEST(Acker, IgnoresMalformedTuples) {
  AckerBolt acker;
  CaptureEmitter out;
  acker.execute(Tuple{}, Meta(), out);
  acker.execute(Tuple{std::int64_t{0}}, Meta(), out);  // too short for INIT
  acker.execute(Tuple{std::int64_t{99}, std::int64_t{1}}, Meta(), out);
  EXPECT_TRUE(out.completions.empty());
}

TEST(Acker, ContributionMixDistinguishesReplicas) {
  // The broadcast fix: same edge, different destination => different
  // contribution, so N identical payloads don't XOR-cancel.
  EXPECT_NE(AckContribution(5, 1), AckContribution(5, 2));
  EXPECT_NE(AckContribution(5, 1), AckContribution(6, 1));
  EXPECT_EQ(AckContribution(5, 1), AckContribution(5, 1));
  EXPECT_EQ(AckContribution(5, 1) ^ AckContribution(5, 1), 0u);
}

TEST(AckBatch, EncodeDecodeRoundTrip) {
  const std::vector<AckEntry> entries{{AckKind::kInit, 1, 0xa},
                                      {AckKind::kAck, 2, 0xb},
                                      {AckKind::kAck, ~0ull, 0}};
  const Tuple t = MakeAckBatch(100, entries);
  EXPECT_EQ(AckMessageCount(t), 3u);
  WorkerId spout = 0;
  std::vector<AckEntry> got;
  ASSERT_TRUE(DecodeAckBatch(t, spout, got));
  EXPECT_EQ(spout, 100u);
  EXPECT_EQ(got, entries);

  const std::vector<std::uint64_t> roots{5, 6, 7, 8};
  const Tuple c = MakeAckCompleteBatch(roots);
  EXPECT_EQ(AckMessageCount(c), 4u);
  EXPECT_EQ(Roots(c), roots);

  // Single messages count one; the batch decoders reject them.
  std::vector<std::uint64_t> none;
  EXPECT_EQ(AckMessageCount(MakeAck(1, 2)), 1u);
  EXPECT_EQ(AckMessageCount(MakeAckComplete(1)), 1u);
  EXPECT_FALSE(DecodeAckBatch(MakeAck(1, 2), spout, got));
  EXPECT_FALSE(DecodeAckCompleteBatch(MakeAckComplete(1), none));
}

TEST(AckBatch, AppendFoldsConsecutiveEntriesOfOneRoot) {
  std::vector<AckEntry> batch;
  AppendAckEntry(batch, AckKind::kAck, 1, 0x1);
  AppendAckEntry(batch, AckKind::kAck, 1, 0x2);  // folds: same root, kind
  AppendAckEntry(batch, AckKind::kInit, 1, 0x4);  // new entry: other kind
  AppendAckEntry(batch, AckKind::kAck, 2, 0x8);
  AppendAckEntry(batch, AckKind::kAck, 1, 0x10);  // not consecutive
  const std::vector<AckEntry> want{{AckKind::kAck, 1, 0x3},
                                   {AckKind::kInit, 1, 0x4},
                                   {AckKind::kAck, 2, 0x8},
                                   {AckKind::kAck, 1, 0x10}};
  EXPECT_EQ(batch, want);
}

TEST(AckBatch, MalformedBatchesAreIgnored) {
  AckerBolt acker;
  CaptureEmitter out;
  acker.prepare({});
  // Body not a whole number of entries, unknown entry kind, missing body.
  acker.execute(Tuple{std::int64_t{3}, std::int64_t{100},
                      Value(std::string_view("xyz"))},
                Meta(), out);
  Tuple bad = MakeAckBatch(100, std::vector<AckEntry>{{AckKind::kInit, 1, 0}});
  common::Bytes body(bad.bytes(2).begin(), bad.bytes(2).end());
  body[0] = 9;
  acker.execute(Tuple{std::int64_t{3}, std::int64_t{100}, Value(body)}, Meta(),
                out);
  acker.execute(Tuple{std::int64_t{3}, std::int64_t{100}}, Meta(), out);
  EXPECT_TRUE(out.completions.empty());
  EXPECT_EQ(acker.pending(), 0u);
}

TEST(AckBatch, BatchMixingInitAndAckEntries) {
  AckerBolt acker;
  CaptureEmitter out;
  acker.prepare({});
  const std::uint64_t c1 = AckContribution(11, 200);
  const std::uint64_t c2 = AckContribution(22, 200);
  // Tree 1 is registered and fully acked inside one batch; tree 2 is only
  // registered.
  const std::vector<AckEntry> batch{{AckKind::kInit, 1, c1},
                                    {AckKind::kInit, 2, c2},
                                    {AckKind::kAck, 1, c1}};
  acker.execute(MakeAckBatch(100, batch), Meta(), out);
  ASSERT_EQ(out.completions.size(), 1u);
  EXPECT_EQ(out.completions[0].dst, 100u);
  EXPECT_EQ(out.completions[0].stream, kAckStream);
  EXPECT_EQ(static_cast<AckKind>(out.completions[0].tuple.i64(0)),
            AckKind::kCompleteBatch);
  EXPECT_EQ(Roots(out.completions[0].tuple), std::vector<std::uint64_t>{1});
  EXPECT_EQ(acker.pending(), 1u);

  // A single-message ack still finishes a tree a batch registered, and is
  // answered with a single kComplete.
  acker.execute(MakeAck(2, c2), Meta(), out);
  ASSERT_EQ(out.completions.size(), 2u);
  EXPECT_EQ(static_cast<AckKind>(out.completions[1].tuple.i64(0)),
            AckKind::kComplete);
  EXPECT_EQ(acker.pending(), 0u);
}

TEST(AckBatch, AckBatchBeforeInitBatchStillCompletes) {
  AckerBolt acker;
  CaptureEmitter out;
  acker.prepare({});
  std::vector<AckEntry> inits;
  std::vector<AckEntry> acks;
  for (std::uint64_t root = 1; root <= 3; ++root) {
    const std::uint64_t c = AckContribution(root * 7, 200);
    inits.push_back({AckKind::kInit, root, c});
    acks.push_back({AckKind::kAck, root, c});
  }
  acker.execute(MakeAckBatch(200, acks), Meta(), out);  // acks arrive first
  EXPECT_TRUE(out.completions.empty());
  EXPECT_EQ(acker.pending(), 3u);
  acker.execute(MakeAckBatch(100, inits), Meta(), out);
  ASSERT_EQ(out.completions.size(), 1u);
  EXPECT_EQ(out.completions[0].dst, 100u);
  EXPECT_EQ(Roots(out.completions[0].tuple),
            (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(acker.pending(), 0u);
}

TEST(AckBatch, CompletionsGroupedIntoOneBatchPerSpout) {
  AckerBolt acker;
  CaptureEmitter out;
  acker.prepare({});
  auto c = [](std::uint64_t root) { return AckContribution(root, 300); };
  acker.execute(MakeAckBatch(100, std::vector<AckEntry>{
                                      {AckKind::kInit, 1, c(1)},
                                      {AckKind::kInit, 2, c(2)}}),
                Meta(), out);
  acker.execute(MakeAckBatch(101, std::vector<AckEntry>{
                                      {AckKind::kInit, 3, c(3)},
                                      {AckKind::kInit, 4, c(4)}}),
                Meta(), out);
  EXPECT_TRUE(out.completions.empty());
  // One bolt burst acks all four trees, interleaving the two spouts.
  acker.execute(MakeAckBatch(300, std::vector<AckEntry>{
                                      {AckKind::kAck, 3, c(3)},
                                      {AckKind::kAck, 1, c(1)},
                                      {AckKind::kAck, 4, c(4)},
                                      {AckKind::kAck, 2, c(2)}}),
                Meta(), out);
  ASSERT_EQ(out.completions.size(), 2u);
  std::map<WorkerId, std::vector<std::uint64_t>> by_spout;
  for (const auto& item : out.completions) {
    EXPECT_TRUE(by_spout.emplace(item.dst, Roots(item.tuple)).second)
        << "two complete batches for spout " << item.dst;
  }
  EXPECT_EQ(by_spout[100], (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(by_spout[101], (std::vector<std::uint64_t>{3, 4}));
  EXPECT_EQ(acker.pending(), 0u);
}

// One ack message in the single-message format, with its sending spout
// (for inits), so batches can be cut to carry one spout each.
struct Msg {
  AckKind kind;
  std::uint64_t root;
  std::uint64_t xor_val;
  WorkerId spout;
};

// Seeded random tuple trees: every tree gets an init and one ack per
// consumed copy; each consuming worker may register children. Some trees
// lose one ack and must stay pending.
std::vector<Msg> RandomTrees(std::uint32_t seed, int trees) {
  std::mt19937_64 rng(seed);
  std::vector<Msg> msgs;
  for (int t = 0; t < trees; ++t) {
    const std::uint64_t root = rng() | 1;
    const WorkerId spout = 100 + static_cast<WorkerId>(rng() % 3);
    // Pending copies: (edge, dst) the tree still has to see acked.
    std::vector<std::pair<std::uint64_t, WorkerId>> frontier;
    std::uint64_t init = 0;
    for (int i = 0, n = 1 + static_cast<int>(rng() % 3); i < n; ++i) {
      frontier.emplace_back(rng(), 200 + static_cast<WorkerId>(rng() % 8));
      init ^= AckContribution(frontier.back().first, frontier.back().second);
    }
    msgs.push_back({AckKind::kInit, root, init, spout});
    const bool drop_one = rng() % 10 == 0;
    bool dropped = false;
    for (int hops = 0; !frontier.empty(); ++hops) {
      const auto [edge, dst] = frontier.back();
      frontier.pop_back();
      std::uint64_t ack = AckContribution(edge, dst);
      const int children = hops < 6 ? static_cast<int>(rng() % 3) : 0;
      for (int i = 0; i < children; ++i) {
        frontier.emplace_back(rng(), 200 + static_cast<WorkerId>(rng() % 8));
        ack ^= AckContribution(frontier.back().first, frontier.back().second);
      }
      if (drop_one && !dropped) {
        dropped = true;
        continue;
      }
      msgs.push_back({AckKind::kAck, root, ack, 0});
    }
  }
  return msgs;
}

TEST(AckBatch, BatchPathMatchesSingleMessagePath) {
  for (std::uint32_t seed : {1u, 2u, 3u}) {
    std::vector<Msg> msgs = RandomTrees(seed, 1000);
    std::mt19937_64 rng(seed * 7919);
    std::shuffle(msgs.begin(), msgs.end(), rng);

    // Reference: every message on its own.
    AckerBolt single;
    CaptureEmitter single_out;
    single.prepare({});
    for (const Msg& m : msgs) {
      single.execute(m.kind == AckKind::kInit
                         ? MakeAckInit(m.root, m.xor_val, m.spout)
                         : MakeAck(m.root, m.xor_val),
                     Meta(), single_out);
    }

    // Batches of random length, cut wherever an init from another spout
    // would join (a batch registers its inits for one spout).
    AckerBolt batched;
    CaptureEmitter batched_out;
    batched.prepare({});
    std::vector<AckEntry> batch;
    WorkerId batch_spout = 0;
    std::size_t cut = 0;
    const auto send = [&] {
      if (batch.empty()) return;
      batched.execute(MakeAckBatch(batch_spout, batch), Meta(), batched_out);
      batch.clear();
      batch_spout = 0;
    };
    for (const Msg& m : msgs) {
      if (cut == 0) {
        send();
        cut = 1 + rng() % 64;
      }
      if (m.kind == AckKind::kInit) {
        if (batch_spout != 0 && batch_spout != m.spout) send();
        batch_spout = m.spout;
      }
      AppendAckEntry(batch, m.kind, m.root, m.xor_val);
      --cut;
    }
    send();

    std::set<std::pair<WorkerId, std::uint64_t>> want;
    std::set<std::pair<WorkerId, std::uint64_t>> got;
    for (const auto& item : single_out.completions) {
      for (std::uint64_t r : Roots(item.tuple)) want.emplace(item.dst, r);
    }
    for (const auto& item : batched_out.completions) {
      for (std::uint64_t r : Roots(item.tuple)) got.emplace(item.dst, r);
    }
    EXPECT_GT(want.size(), 800u) << seed;
    EXPECT_LT(want.size(), 1000u) << seed;  // the dropped acks stay pending
    EXPECT_EQ(got, want) << seed;
    EXPECT_EQ(batched.pending(), single.pending()) << seed;
  }
}

}  // namespace
}  // namespace typhoon::stream
