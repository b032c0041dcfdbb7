// Host-level TCP tunnel analog (Sec 3.3.1): a reliable, in-order, framed
// byte channel between two hosts. Workers never own connections; the per-
// host switch forwards remote-bound packets into the tunnel designated by a
// set_tun_dst action, and the peer's switch re-injects them into its pipeline
// (Table 3, remote transfer rules).
//
// Frames are serialized to bytes on send and parsed on receive, preserving
// the real marshaling cost of crossing a host boundary. Every frame carries
// an FNV-1a checksum trailer; a frame that fails verification on receive is
// dropped and counted (`rx_corrupt_drops`) instead of surfacing garbage —
// the wire can be corrupted by an attached fault-injection Impairment.
//
// Three I/O calls: try_send_burst hands a burst of refcounted packets to
// the wire under one ring-lock round (the DPDK tx-burst analog), send is
// the blocking per-frame fallback for a tail the ring rejected, and
// try_recv_burst drains up to N frames as borrowed views, verifying and
// decoding them into caller-provided pooled packets (rx-burst). Send may be
// called from several switch shards concurrently (frame counters are
// atomics); burst receive is single-consumer — the one shard that owns
// this tunnel's RX polling.
//
// TunnelEndpoint is a transport-agnostic base: framing, checksums, the
// impairment shaper, and all counters live here, above a small wire
// contract (`wire_*`: a blocking frame push, a packet burst push, a
// lend/release pair of RX views, depth, close, and notify hooks).
// Transports only move opaque checksummed frames:
//   - InMemoryTunnel (this header + CreateTunnel): a pair of in-process
//     frame rings — the single-process deployment.
//   - SocketTunnel (net/socket_tunnel.h): a real TCP connection between
//     host processes.
//   - ShmRingTunnel (net/shm_ring_tunnel.h): shared-memory SPSC byte rings
//     for same-machine host-process pairs.
// Because everything above the wire is shared, the three transports are
// behaviourally equivalent by construction (locked down by the seeded
// transport-equivalence property test in tests/test_net.cc).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "common/mpmc_queue.h"
#include "faultinject/impairment.h"
#include "net/packet.h"

namespace typhoon::net {

// Width of the FNV-1a checksum trailer appended to every wire frame.
// Transports framing records from packets (wire_try_push_pkts) need the
// trailer width to size their records; the checksum value itself rides in
// TxFrameInfo.
inline constexpr std::size_t kFrameChecksumBytes = 8;

// Checksum of a packet's encoded frame ([header][payload]) computed without
// materializing the frame: FNV-1a chained header-then-payload. Byte-
// identical to hashing EncodeFrame's output.
std::uint64_t FrameChecksum(const Packet& p);

// Per-frame metadata precomputed by the burst sender and handed to the
// wire alongside the packets, so transports can frame records ([len]
// [header][payload][checksum]) from iovecs without re-hashing.
struct TxFrameInfo {
  std::uint32_t body_len = 0;     // header + payload, excluding trailer
  std::uint64_t checksum = 0;     // FrameChecksum of the packet
};

// Borrowed view of one received wire frame ([header][payload][checksum]),
// valid until the next wire_release_views() on the same endpoint.
struct FrameView {
  std::span<const std::uint8_t> bytes;
};

class TunnelEndpoint {
 public:
  virtual ~TunnelEndpoint();

  TunnelEndpoint(const TunnelEndpoint&) = delete;
  TunnelEndpoint& operator=(const TunnelEndpoint&) = delete;

  // ---- the three I/O calls -----------------------------------------------

  // Blocking send (TCP back-pressure semantics): the fallback for a burst
  // tail the non-blocking path rejected. False once closed.
  bool send(const Packet& p);
  // Non-blocking burst send (the DPDK tx-burst analog): hands refcounted
  // packets plus their precomputed framing metadata to the wire in order,
  // stopping at the first rejection (full ring). Returns the number
  // accepted; the unsent tail `pkts[n..]` stays with the caller (retry,
  // hold, or fall back to the blocking send). A transport with a vectored
  // TX path (socket, shm) frames records straight from the packets without
  // copying the payload into an intermediate frame buffer.
  std::size_t try_send_burst(std::span<const PacketPtr> pkts);
  // Non-blocking burst receive (rx-burst): borrows up to out.size() frames
  // from the wire as views, verifies each checksum, and decodes into the
  // caller's packets (payload capacity reused). Returns the number decoded;
  // corrupt frames are counted and skipped, never surfaced. Single
  // consumer: only the owning poller may call this.
  std::size_t try_recv_burst(std::span<Packet*> out);

  // Frames queued toward this endpoint, not yet received. Used by pollers
  // deciding whether to park.
  [[nodiscard]] std::size_t rx_queue_depth() const { return wire_rx_depth(); }

  // Register a callback fired after frames become available toward this
  // endpoint (once per send / per burst / per RX pump round). Lets a parked
  // receiver wake without polling; pass nullptr to clear.
  void set_rx_notify(std::function<void()> fn) {
    wire_set_rx_notify(std::move(fn));
  }

  // Close the wire. Frames an impairment still holds back are counted out
  // as peer_drops (a torn-down link loses them); never blocks.
  void close();
  [[nodiscard]] std::uint64_t frames_sent() const {
    return sent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bytes_sent() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  // Frames discarded on receive because their checksum failed.
  [[nodiscard]] std::uint64_t rx_corrupt_drops() const {
    return corrupt_rx_.load(std::memory_order_relaxed);
  }
  // Frames accepted by send()/try_send_burst() but discarded before they
  // reached the peer: the peer was gone (connection down / process dead),
  // or the endpoint closed while an impairment still held them back. The
  // in-memory transport's peer cannot vanish, so only the second applies.
  [[nodiscard]] std::uint64_t peer_drops() const {
    return peer_drops_.load(std::memory_order_relaxed);
  }

  // Attach a deterministic impairment stage to this endpoint's transmit
  // side (frames admitted on send may be dropped, duplicated, reordered,
  // delayed, or corrupted before reaching the peer). Returns the decision
  // engine for counter/fingerprint probes; the pointer stays valid until
  // clear_impairment() or endpoint destruction. Thread-safe.
  faultinject::Impairment* set_impairment(
      const faultinject::ImpairmentConfig& cfg);
  // Detach the impairment and hand its held-back frames to the wire,
  // waiting for ring space like send() does (never while holding the
  // impairment lock, so concurrent senders keep making progress).
  void clear_impairment();
  [[nodiscard]] faultinject::Impairment* impairment();

 protected:
  TunnelEndpoint() = default;

  // ---- the wire contract, implemented per transport ----------------------
  // Eight primitives: two pushes, a lend/release pair for receive, the RX
  // depth, close, and the two notify hooks. Transports move frames
  // verbatim and never verify or decode them.

  // Blocking enqueue of one opaque checksummed frame ([header][payload]
  // [checksum]) — the blocking send and impairment-shaper output. False
  // once the wire is closed.
  virtual bool wire_push(common::Bytes frame) = 0;
  // Non-blocking bulk enqueue of refcounted packets plus their framing
  // metadata (info[i] describes pkts[i]). Returns the accepted prefix
  // length; the tail stays with the caller.
  virtual std::size_t wire_try_push_pkts(std::span<const PacketPtr> pkts,
                                         std::span<const TxFrameInfo> info) = 0;
  // Lend up to `max` received frames as borrowed views appended to `out`,
  // valid until the matching wire_release_views(); returns the count.
  // Single consumer, and the two calls pair up with no other RX call in
  // between.
  virtual std::size_t wire_pop_views(std::vector<FrameView>& out,
                                     std::size_t max) = 0;
  virtual void wire_release_views() = 0;
  // Frames queued toward this endpoint, not yet popped.
  [[nodiscard]] virtual std::size_t wire_rx_depth() const = 0;
  // Tear the wire down; all subsequent pushes fail fast.
  virtual void wire_close() = 0;
  // Fired once after a send/burst handed frames to the wire. The in-memory
  // transport pokes the peer's rx-notify hook here; transports with their
  // own RX pump (socket/shm) fire the local hook from the pump instead.
  virtual void wire_fire_tx_notify() {}
  // Receiver-side notify hook. The default implementation stores the hook
  // endpoint-locally (for transports whose RX pump fires it); InMemoryTunnel
  // overrides it to store the hook on the shared channel, where the peer's
  // sender fires it directly.
  virtual void wire_set_rx_notify(std::function<void()> fn) {
    rx_hook_.set(std::move(fn));
  }

  // Sender-side wake-up hook machinery, shared by transports.
  struct NotifyHook {
    std::mutex mu;
    std::function<void()> fn;        // guarded by mu
    std::atomic<bool> armed{false};  // cheap gate for the hot path

    void set(std::function<void()> f) {
      std::lock_guard lk(mu);
      fn = std::move(f);
      armed.store(fn != nullptr, std::memory_order_release);
    }
    void fire() {
      if (!armed.load(std::memory_order_acquire)) return;
      std::lock_guard lk(mu);
      if (fn) fn();
    }
  };

  // For transports that discard queued frames when the peer vanishes.
  void count_peer_drops(std::uint64_t n) {
    peer_drops_.fetch_add(n, std::memory_order_relaxed);
  }

  NotifyHook rx_hook_;

 private:
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> corrupt_rx_{0};
  std::atomic<std::uint64_t> peer_drops_{0};

  // Single-consumer scratch for try_recv_burst's borrowed views.
  std::vector<FrameView> view_scratch_;

  // Wire shaper, present only while impaired. The flag keeps the unimpaired
  // send path lock-free; the mutex covers attach/detach racing the sender.
  std::mutex impair_mu_;
  std::unique_ptr<faultinject::Shaper<common::Bytes>> shaper_;
  std::atomic<bool> impaired_{false};
};

// The in-process transport: two MPMC frame rings shared by the endpoint
// pair, with the receiver's wake-up hook living on the ring so the sender
// can fire it directly after enqueueing.
class InMemoryTunnel final : public TunnelEndpoint {
 protected:
  bool wire_push(common::Bytes frame) override;
  // Encodes each checksummed frame and bulk-pushes the bytes, so the
  // in-process tunnel still pays the marshalling cost of a host crossing.
  std::size_t wire_try_push_pkts(std::span<const PacketPtr> pkts,
                                 std::span<const TxFrameInfo> info) override;
  // Pops frames into a held scratch vector and lends spans over them.
  std::size_t wire_pop_views(std::vector<FrameView>& out,
                             std::size_t max) override;
  void wire_release_views() override;
  [[nodiscard]] std::size_t wire_rx_depth() const override;
  void wire_close() override;
  void wire_fire_tx_notify() override;
  void wire_set_rx_notify(std::function<void()> fn) override;

 private:
  friend std::pair<std::shared_ptr<TunnelEndpoint>,
                   std::shared_ptr<TunnelEndpoint>>
  CreateTunnel(std::size_t capacity);

  // One direction of the wire: the frame queue plus the receiver-side
  // wake-up hook fired by the sender after enqueueing.
  struct Channel {
    explicit Channel(std::size_t cap) : q(cap) {}
    common::MpmcQueue<common::Bytes> q;
    NotifyHook notify;
  };

  InMemoryTunnel(std::shared_ptr<Channel> tx, std::shared_ptr<Channel> rx)
      : tx_(std::move(tx)), rx_(std::move(rx)) {}

  std::shared_ptr<Channel> tx_;
  std::shared_ptr<Channel> rx_;
  // Frames lent out by wire_pop_views (single consumer).
  std::vector<common::Bytes> rx_lent_;
};

// Create a bidirectional in-memory tunnel; returns the two endpoints.
std::pair<std::shared_ptr<TunnelEndpoint>, std::shared_ptr<TunnelEndpoint>>
CreateTunnel(std::size_t capacity = 4096);

}  // namespace typhoon::net
