#include "typhoon/proc_apps.h"

#include <chrono>
#include <deque>
#include <thread>
#include <set>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "stream/acker.h"
#include "stream/api.h"

namespace typhoon::proc {

namespace {

const std::vector<std::string>& SentenceTable() {
  static const std::vector<std::string> kSentences = {
      "the quick brown fox jumps over the lazy dog",
      "a stream processing framework routes data tuples",
      "typhoon integrates sdn into stream processing",
      "the lazy dog sleeps while the fox runs",
      "packets cross the software switch in bursts",
      "flow rules steer every tuple to its worker",
  };
  return kSentences;
}

// Words per sentence never reach 32, so seq*32+index is a unique
// occurrence id (mirrors the in-process chaos components).
constexpr std::int64_t kOccStride = 32;

std::size_t SentenceIndex(std::uint32_t seed, std::int64_t seq) {
  // Small LCG keyed by (seed, seq): deterministic, cheap, and identically
  // computable by parent-side expectation code.
  std::uint64_t x = (static_cast<std::uint64_t>(seed) << 32) ^
                    static_cast<std::uint64_t>(seq);
  x = x * 6364136223846793005ull + 1442695040888963407ull;
  return static_cast<std::size_t>((x >> 33) % SentenceTable().size());
}

// Each table entry's words, tokenised once.
const std::vector<std::vector<std::string>>& SentenceWords() {
  static const std::vector<std::vector<std::string>> kWords = [] {
    std::vector<std::vector<std::string>> words;
    for (const std::string& sentence : SentenceTable()) {
      std::istringstream is(sentence);
      std::string word;
      words.emplace_back();
      while (is >> word) words.back().push_back(word);
    }
    return words;
  }();
  return kWords;
}

// How many of the seqs [0, sentences) pick each table entry: the
// expectations cost one hash per sentence and no tokenising.
std::vector<std::int64_t> SentenceHistogram(const WordCountParams& p) {
  std::vector<std::int64_t> picks(SentenceTable().size(), 0);
  for (std::int64_t seq = 0; seq < p.sentences; ++seq) {
    ++picks[SentenceIndex(p.seed, seq)];
  }
  return picks;
}

// Replayable seeded sentence source: at-least-once with replay-on-fail.
class ProcSentenceSpout : public stream::Spout {
 public:
  ProcSentenceSpout(const WordCountParams& p) : p_(p) {}

  bool next(stream::Emitter& out) override {
    if (p_.emit_delay_us > 0 &&
        (next_seq_ < p_.sentences || !replay_.empty())) {
      std::this_thread::sleep_for(std::chrono::microseconds(p_.emit_delay_us));
    }
    int emitted = 0;
    while (!replay_.empty() && emitted < p_.spout_batch) {
      const std::int64_t seq = replay_.front();
      replay_.pop_front();
      current_seq_ = seq;
      out.emit(stream::Tuple{SentenceAt(p_.seed, seq), seq});
      ++emitted;
    }
    while (next_seq_ < p_.sentences && emitted < p_.spout_batch) {
      current_seq_ = next_seq_;
      out.emit(stream::Tuple{SentenceAt(p_.seed, next_seq_), next_seq_});
      ++next_seq_;
      ++emitted;
    }
    return emitted > 0;
  }

  void anchored(std::uint64_t root) override { in_flight_[root] = current_seq_; }
  void ack(std::uint64_t root, std::int64_t) override {
    in_flight_.erase(root);
  }
  void fail(std::uint64_t root) override {
    auto it = in_flight_.find(root);
    if (it == in_flight_.end()) return;
    replay_.push_back(it->second);
    in_flight_.erase(it);
  }

 private:
  WordCountParams p_;
  std::int64_t next_seq_ = 0;
  std::int64_t current_seq_ = 0;
  std::deque<std::int64_t> replay_;
  std::unordered_map<std::uint64_t, std::int64_t> in_flight_;
};

// Stateless split emitting (word, occurrence-id) for downstream dedup.
class ProcSplitBolt : public stream::Bolt {
 public:
  void execute(const stream::Tuple& input, const stream::TupleMeta&,
               stream::Emitter& out) override {
    const std::string sentence(input.str(0));
    const std::int64_t seq = input.i64(1);
    std::istringstream is(sentence);
    std::string word;
    std::int64_t index = 0;
    while (is >> word) {
      out.emit(stream::Tuple{word, seq * kOccStride + index});
      ++index;
    }
  }
};

// Dedup counting sink publishing exact counts into the coordinator.
class ProcCountSink : public stream::Bolt {
 public:
  ProcCountSink(const WordCountParams& p, coordinator::Coordinator* coord)
      : p_(p), coord_(coord), expected_(ExpectedUnique(p)) {}

  void execute(const stream::Tuple& input, const stream::TupleMeta&,
               stream::Emitter&) override {
    const std::int64_t occ = input.i64(1);
    if (!seen_.insert(occ).second) return;  // replayed occurrence
    ++counts_[std::string(input.str(0))];
    ++unique_;
    const auto now = std::chrono::steady_clock::now();
    if (unique_ == expected_ || now - last_publish_ > kPublishInterval) {
      publish();
      last_publish_ = now;
    }
  }

  void close() override { publish(); }

 private:
  static constexpr std::chrono::milliseconds kPublishInterval{50};

  void publish() {
    if (coord_ == nullptr) return;
    std::ostringstream os;
    os << unique_ << "\n";
    for (const auto& [word, count] : counts_) {
      os << word << " " << count << "\n";
    }
    (void)coord_->put_str(ResultsPath(p_.topology), os.str());
  }

  WordCountParams p_;
  coordinator::Coordinator* coord_;
  std::int64_t expected_;
  std::set<std::int64_t> seen_;
  std::map<std::string, std::int64_t> counts_;
  std::int64_t unique_ = 0;
  std::chrono::steady_clock::time_point last_publish_ =
      std::chrono::steady_clock::now();
};

}  // namespace

std::string EncodeParams(const WordCountParams& p) {
  std::ostringstream os;
  os << "app=wordcount;sentences=" << p.sentences << ";seed=" << p.seed
     << ";splits=" << p.splits << ";batch=" << p.spout_batch
     << ";delay_us=" << p.emit_delay_us;
  return os.str();
}

bool DecodeParams(const std::string& topology, const std::string& spec,
                  WordCountParams& out) {
  out = {};
  out.topology = topology;
  bool is_wordcount = false;
  std::istringstream is(spec);
  std::string kv;
  while (std::getline(is, kv, ';')) {
    const auto eq = kv.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = kv.substr(0, eq);
    const std::string val = kv.substr(eq + 1);
    try {
      if (key == "app") {
        is_wordcount = val == "wordcount";
      } else if (key == "sentences") {
        out.sentences = std::stoll(val);
      } else if (key == "seed") {
        out.seed = static_cast<std::uint32_t>(std::stoul(val));
      } else if (key == "splits") {
        out.splits = std::stoi(val);
      } else if (key == "batch") {
        out.spout_batch = std::stoi(val);
      } else if (key == "delay_us") {
        out.emit_delay_us = std::stoll(val);
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return is_wordcount && out.sentences > 0 && out.splits > 0 &&
         out.spout_batch > 0 && out.emit_delay_us >= 0;
}

const std::string& SentenceAt(std::uint32_t seed, std::int64_t seq) {
  return SentenceTable()[SentenceIndex(seed, seq)];
}

std::map<std::string, std::int64_t> ExpectedCounts(const WordCountParams& p) {
  const std::vector<std::int64_t> picks = SentenceHistogram(p);
  std::map<std::string, std::int64_t> counts;
  for (std::size_t i = 0; i < picks.size(); ++i) {
    if (picks[i] == 0) continue;  // no zero-count words for unpicked entries
    for (const std::string& word : SentenceWords()[i]) counts[word] += picks[i];
  }
  return counts;
}

std::int64_t ExpectedUnique(const WordCountParams& p) {
  const std::vector<std::int64_t> picks = SentenceHistogram(p);
  std::int64_t total = 0;
  for (std::size_t i = 0; i < picks.size(); ++i) {
    total += picks[i] * static_cast<std::int64_t>(SentenceWords()[i].size());
  }
  return total;
}

std::string ResultsPath(const std::string& topology) {
  return "/proc/results/" + topology;
}

bool ParseResults(const std::string& blob, std::int64_t& unique,
                  std::map<std::string, std::int64_t>& counts) {
  unique = 0;
  counts.clear();
  std::istringstream is(blob);
  std::string line;
  if (!std::getline(is, line)) return false;
  try {
    unique = std::stoll(line);
  } catch (const std::exception&) {
    return false;
  }
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const auto sp = line.rfind(' ');
    if (sp == std::string::npos) return false;
    try {
      counts[line.substr(0, sp)] = std::stoll(line.substr(sp + 1));
    } catch (const std::exception&) {
      return false;
    }
  }
  return true;
}

common::Result<stream::LogicalTopology> BuildWordCount(
    const WordCountParams& p, coordinator::Coordinator* coord) {
  stream::TopologyBuilder b(p.topology);
  const auto spout = b.add_spout(
      "spout", [p] { return std::make_unique<ProcSentenceSpout>(p); });
  const auto split = b.add_bolt(
      "split", [] { return std::make_unique<ProcSplitBolt>(); }, p.splits);
  const auto count = b.add_bolt(
      "count", [p, coord] { return std::make_unique<ProcCountSink>(p, coord); },
      1);
  b.shuffle(spout, split);
  b.global(split, count);
  return b.build();
}

common::Status RegisterWordCount(stream::AppRegistry& registry,
                                 const WordCountParams& p,
                                 coordinator::Coordinator* coord) {
  auto topo = BuildWordCount(p, coord);
  if (!topo.ok()) return topo.status();
  registry.register_app(topo.value());
  // Reliable submissions deploy an acker node; its factory is registered
  // by the manager on the submitting side only, so mirror it here.
  registry.add_bolt(p.topology, stream::kAckerNodeName,
                    [] { return std::make_unique<stream::AckerBolt>(); });
  return common::Status::Ok();
}

common::Status RegisterFromCatalog(stream::AppRegistry& registry,
                                   const std::string& topology,
                                   const std::string& spec,
                                   coordinator::Coordinator* coord) {
  WordCountParams p;
  if (!DecodeParams(topology, spec, p)) {
    return common::InvalidArgument("unknown proc app spec: " + spec);
  }
  return RegisterWordCount(registry, p, coord);
}

}  // namespace typhoon::proc
