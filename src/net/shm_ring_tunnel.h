// ShmRingTunnel — the TunnelEndpoint transport for same-machine host-process
// pairs (DESIGN.md Sec 17): two lock-free SPSC byte rings in a POSIX shared
// memory segment, one per direction, carrying length-prefixed frame records
// ([u32 len LE][frame bytes], wrapping at the ring edge).
//
// Segment layout (see ShmSegmentHeader): a magic/capacity header, two ring
// headers (cache-line aligned producer/consumer cursors, a queued-frame
// count, and a closed flag), then the two data regions back to back. The
// parent process creates the segment before spawning the two host
// processes; each host attaches as side A or B (A transmits on ring 0,
// B on ring 1) and the parent unlinks the name at teardown, so the segment
// dies with its last mapping even after a SIGKILL.
//
// Cross-process rules: exactly one producer process and one consumer
// process per ring (the byte cursors are the SPSC handshake); within a
// process, local mutexes serialize the multi-shard senders and harness
// pollers, preserving TunnelEndpoint's concurrency contract. There is no
// cross-process wakeup — a parked receiver rides its poll backstop (the
// switch parks at most 10 ms) — and a full ring holds the producer briefly
// (back-pressure), then counts the frame out as a peer drop: with the
// consumer process gone, that is the RTO analog of SocketTunnel's
// disconnected-drop behavior.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "net/tunnel.h"

namespace typhoon::net {

struct ShmRingTunnelConfig {
  // How long a push waits out a full ring before counting the frame as a
  // peer drop (the consumer process is wedged or dead).
  std::chrono::milliseconds push_patience{200};
};

class ShmRingTunnel final : public TunnelEndpoint {
 public:
  enum class Side : std::uint8_t { kA = 0, kB = 1 };

  // Create and initialize the named segment (fails if it already exists or
  // on any shm error). `ring_capacity` is the per-direction data size in
  // bytes, rounded up to a power of two.
  static bool CreateSegment(const std::string& name, std::size_t ring_capacity);
  // Remove the name; live mappings keep working until unmapped.
  static void UnlinkSegment(const std::string& name);

  // Map the named segment and return an endpoint for one side. Null on
  // error (missing segment, bad magic).
  static std::shared_ptr<ShmRingTunnel> Attach(const std::string& name,
                                               Side side,
                                               ShmRingTunnelConfig cfg = {});

  ~ShmRingTunnel() override;

  // Payload bytes copied into wrap-around scratch on the view RX path (a
  // record straddling the ring edge cannot be lent as one span).
  [[nodiscard]] std::uint64_t rx_wrap_bytes_copied() const {
    return rx_wrap_copied_.load(std::memory_order_relaxed);
  }

 protected:
  bool wire_push(common::Bytes frame) override;
  std::size_t wire_try_push_pkts(std::span<const PacketPtr> pkts,
                                 std::span<const TxFrameInfo> info) override;
  std::size_t wire_pop_views(std::vector<FrameView>& out,
                             std::size_t max) override;
  void wire_release_views() override;
  [[nodiscard]] std::size_t wire_rx_depth() const override;
  void wire_close() override;

 private:
  struct Ring;           // shared-memory ring header (defined in the .cc)
  struct SegmentHeader;  // shared-memory segment header

  ShmRingTunnel(void* map, std::size_t map_bytes, Side side,
                ShmRingTunnelConfig cfg);

  // Copy one frame into the TX ring; false when full. Caller holds tx_mu_.
  bool ring_write(const common::Bytes& frame);

  [[nodiscard]] Ring* tx_ring() const;
  [[nodiscard]] Ring* rx_ring() const;
  [[nodiscard]] std::uint8_t* ring_data(int index) const;

  void* map_ = nullptr;
  std::size_t map_bytes_ = 0;
  SegmentHeader* hdr_ = nullptr;
  Side side_;
  ShmRingTunnelConfig cfg_;

  // In-process concurrency guards over the cross-process SPSC rings.
  std::mutex tx_mu_;
  std::mutex rx_mu_;

  // View RX state (single consumer; guarded by rx_mu_ inside each call).
  // Records lent out by wire_pop_views stay in the ring — head advances
  // only in wire_release_views, so the spans stay valid in between.
  std::uint64_t view_head_advance_ = 0;
  std::uint32_t view_count_ = 0;
  std::vector<common::Bytes> wrap_bufs_;  // scratch for edge-straddling recs
  std::size_t wrap_used_ = 0;
  std::atomic<std::uint64_t> rx_wrap_copied_{0};
};

}  // namespace typhoon::net
