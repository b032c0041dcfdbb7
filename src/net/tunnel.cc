#include "net/tunnel.h"

#include <iterator>
#include <optional>
#include <span>
#include <vector>

#include "common/hash.h"

namespace typhoon::net {

namespace {

constexpr std::size_t kChecksumBytes = kFrameChecksumBytes;

void AppendChecksum(common::Bytes& frame, std::uint64_t sum) {
  for (std::size_t i = 0; i < kChecksumBytes; ++i) {
    frame.push_back(static_cast<std::uint8_t>(sum >> (i * 8)));
  }
}

// Verify the trailer over a borrowed frame view without mutating it.
// Returns the body span (trailer stripped) or an empty optional on mismatch.
std::optional<std::span<const std::uint8_t>> VerifyChecksumView(
    std::span<const std::uint8_t> frame) {
  if (frame.size() < kChecksumBytes) return std::nullopt;
  const std::size_t body = frame.size() - kChecksumBytes;
  std::uint64_t stored = 0;
  for (std::size_t i = 0; i < kChecksumBytes; ++i) {
    stored |= static_cast<std::uint64_t>(frame[body + i]) << (i * 8);
  }
  if (common::Fnv1a(frame.first(body)) != stored) return std::nullopt;
  return frame.first(body);
}

}  // namespace

std::uint64_t FrameChecksum(const Packet& p) {
  std::uint8_t hdr[Packet::kHeaderWireSize];
  EncodeFrameHeader(p, hdr);
  return common::Fnv1a(
      std::span<const std::uint8_t>(p.payload.data(), p.payload.size()),
      common::Fnv1a(std::span<const std::uint8_t>(hdr, sizeof hdr)));
}

TunnelEndpoint::~TunnelEndpoint() = default;

bool TunnelEndpoint::send(const Packet& p) {
  common::Bytes frame;
  frame.reserve(p.wire_size() + kChecksumBytes);
  EncodeFrame(p, frame);
  // bytes_sent counts marshalled frame bytes; the checksum trailer is link
  // overhead, excluded so throughput probes keep their pre-trailer meaning.
  const std::size_t body_bytes = frame.size();
  AppendChecksum(frame, common::Fnv1a(std::span<const std::uint8_t>(frame)));

  bool ok = false;
  bool handled = false;
  if (impaired_.load(std::memory_order_acquire)) {
    std::lock_guard lk(impair_mu_);
    if (shaper_ != nullptr) {
      // The corrupt action flips one wire byte; the receiver's checksum
      // turns it into a counted drop rather than a garbage packet.
      std::vector<common::Bytes> out;
      shaper_->admit(std::move(frame), out,
                     [](common::Bytes& f, std::uint32_t offset,
                        std::uint8_t mask) {
                       if (!f.empty()) f[offset % f.size()] ^= mask;
                     });
      ok = true;
      for (common::Bytes& f : out) ok = wire_push(std::move(f)) && ok;
      wire_fire_tx_notify();
      handled = true;
    }
  }
  if (!handled) {
    ok = wire_push(std::move(frame));
    wire_fire_tx_notify();
  }
  // A frame counts as sent once it is handed to the wire — including
  // frames the wire shaper then drops (link loss), but not frames a
  // closed tunnel rejected, which would skew accounting against delivery.
  if (ok) {
    sent_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(body_bytes, std::memory_order_relaxed);
  }
  return ok;
}

std::size_t TunnelEndpoint::try_send_burst(std::span<const PacketPtr> pkts) {
  if (pkts.empty()) return 0;
  if (impaired_.load(std::memory_order_acquire)) {
    // Impaired links keep the per-frame path so the shaper's deterministic
    // draw schedule (one admit per frame) is byte-identical with and
    // without bursting.
    std::size_t n = 0;
    for (const PacketPtr& p : pkts) {
      if (!send(*p)) break;
      ++n;
    }
    return n;
  }
  std::vector<TxFrameInfo> info;
  info.reserve(pkts.size());
  for (const PacketPtr& p : pkts) {
    info.push_back(TxFrameInfo{static_cast<std::uint32_t>(p->wire_size()),
                               FrameChecksum(*p)});
  }
  const std::size_t pushed =
      wire_try_push_pkts(pkts, std::span<const TxFrameInfo>(info));
  std::size_t body_bytes_total = 0;
  for (std::size_t i = 0; i < pushed; ++i) body_bytes_total += info[i].body_len;
  bytes_.fetch_add(body_bytes_total, std::memory_order_relaxed);
  sent_.fetch_add(pushed, std::memory_order_relaxed);
  if (pushed != 0) wire_fire_tx_notify();
  return pushed;
}

std::size_t TunnelEndpoint::try_recv_burst(std::span<Packet*> out) {
  if (out.empty()) return 0;
  // The transport lends spans into its RX rings/slabs; verify and decode in
  // place, making the payload copy into the caller's pooled packet the only
  // copy on the RX path.
  view_scratch_.clear();
  const std::size_t got = wire_pop_views(view_scratch_, out.size());
  std::size_t n = 0;
  for (std::size_t i = 0; i < got; ++i) {
    // Corrupt frames are counted link drops; the decode slot is reused for
    // the next frame so the caller still gets a dense prefix.
    const auto body = VerifyChecksumView(view_scratch_[i].bytes);
    if (!body) {
      corrupt_rx_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (DecodeFrameInto(*body, *out[n])) ++n;
  }
  view_scratch_.clear();
  wire_release_views();
  return n;
}

faultinject::Impairment* TunnelEndpoint::set_impairment(
    const faultinject::ImpairmentConfig& cfg) {
  std::lock_guard lk(impair_mu_);
  shaper_ = std::make_unique<faultinject::Shaper<common::Bytes>>(cfg);
  impaired_.store(true, std::memory_order_release);
  return &shaper_->impairment();
}

void TunnelEndpoint::clear_impairment() {
  // Detach under the lock, flush outside it: the held frames may meet a
  // full ring, and a switch shard blocked on impair_mu_ meanwhile would
  // stop draining the reverse tunnel that frees it.
  std::unique_ptr<faultinject::Shaper<common::Bytes>> shaper;
  {
    std::lock_guard lk(impair_mu_);
    impaired_.store(false, std::memory_order_release);
    shaper = std::move(shaper_);
  }
  if (shaper == nullptr) return;
  std::vector<common::Bytes> held;
  shaper->flush(held);
  // Held frames were counted as sent on admission, so each one a closed
  // wire rejects is counted out as a drop rather than vanishing.
  for (common::Bytes& f : held) {
    if (!wire_push(std::move(f))) count_peer_drops(1);
  }
  if (!held.empty()) wire_fire_tx_notify();
}

faultinject::Impairment* TunnelEndpoint::impairment() {
  std::lock_guard lk(impair_mu_);
  return shaper_ == nullptr ? nullptr : &shaper_->impairment();
}

void TunnelEndpoint::close() {
  // Close first so the impairment flush meets a closed wire and fails fast
  // instead of waiting on a ring nobody will drain.
  wire_close();
  clear_impairment();
}

// ---- InMemoryTunnel -------------------------------------------------------

bool InMemoryTunnel::wire_push(common::Bytes frame) {
  return tx_->q.push(std::move(frame));
}

std::size_t InMemoryTunnel::wire_try_push_pkts(
    std::span<const PacketPtr> pkts, std::span<const TxFrameInfo> info) {
  std::vector<common::Bytes> frames;
  frames.reserve(pkts.size());
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    common::Bytes frame;
    frame.reserve(info[i].body_len + kChecksumBytes);
    EncodeFrame(*pkts[i], frame);
    AppendChecksum(frame, info[i].checksum);
    frames.push_back(std::move(frame));
  }
  return tx_->q.try_push_bulk(frames.begin(), frames.size());
}

std::size_t InMemoryTunnel::wire_pop_views(std::vector<FrameView>& out,
                                           std::size_t max) {
  rx_lent_.clear();
  const std::size_t n = rx_->q.pop_bulk(std::back_inserter(rx_lent_), max);
  for (const common::Bytes& f : rx_lent_) out.push_back(FrameView{f});
  return n;
}

void InMemoryTunnel::wire_release_views() { rx_lent_.clear(); }

std::size_t InMemoryTunnel::wire_rx_depth() const { return rx_->q.size(); }

void InMemoryTunnel::wire_close() {
  tx_->q.close();
  rx_->q.close();
}

void InMemoryTunnel::wire_fire_tx_notify() { tx_->notify.fire(); }

void InMemoryTunnel::wire_set_rx_notify(std::function<void()> fn) {
  rx_->notify.set(std::move(fn));
}

std::pair<std::shared_ptr<TunnelEndpoint>, std::shared_ptr<TunnelEndpoint>>
CreateTunnel(std::size_t capacity) {
  auto a_to_b = std::make_shared<InMemoryTunnel::Channel>(capacity);
  auto b_to_a = std::make_shared<InMemoryTunnel::Channel>(capacity);
  std::shared_ptr<TunnelEndpoint> a(new InMemoryTunnel(a_to_b, b_to_a));
  std::shared_ptr<TunnelEndpoint> b(new InMemoryTunnel(b_to_a, a_to_b));
  return {a, b};
}

}  // namespace typhoon::net
