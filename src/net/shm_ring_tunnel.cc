#include "net/shm_ring_tunnel.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <new>
#include <thread>

#include "common/log.h"

namespace typhoon::net {

namespace {

constexpr std::uint32_t kShmMagic = 0x54595253;  // "TYRS"

std::size_t RoundUpPow2(std::size_t v) {
  std::size_t p = 64;
  while (p < v) p <<= 1;
  return p;
}

// Copy into / out of a power-of-two ring at a monotonic byte cursor,
// wrapping at the ring edge.
void RingPut(std::uint8_t* data, std::size_t cap, std::uint64_t pos,
             const std::uint8_t* src, std::size_t n) {
  const std::size_t off = pos & (cap - 1);
  const std::size_t first = std::min(n, cap - off);
  std::memcpy(data + off, src, first);
  if (first < n) std::memcpy(data, src + first, n - first);
}

void RingGet(const std::uint8_t* data, std::size_t cap, std::uint64_t pos,
             std::uint8_t* dst, std::size_t n) {
  const std::size_t off = pos & (cap - 1);
  const std::size_t first = std::min(n, cap - off);
  std::memcpy(dst, data + off, first);
  if (first < n) std::memcpy(dst + first, data, n - first);
}

void PutLen(std::uint8_t* data, std::size_t cap, std::uint64_t pos,
            std::uint32_t len) {
  const std::uint8_t len_le[4] = {
      static_cast<std::uint8_t>(len), static_cast<std::uint8_t>(len >> 8),
      static_cast<std::uint8_t>(len >> 16),
      static_cast<std::uint8_t>(len >> 24)};
  RingPut(data, cap, pos, len_le, sizeof len_le);
}

}  // namespace

// One direction of the wire. `tail` is the producer's byte cursor, `head`
// the consumer's; both grow monotonically and are reduced mod capacity at
// access time, so `tail - head` is always the queued byte count. Cursor
// stores use release ordering so the data copied before the bump is visible
// to the other process's acquire load.
struct alignas(64) ShmRingTunnel::Ring {
  std::atomic<std::uint64_t> tail;
  std::atomic<std::uint64_t> head;
  std::atomic<std::uint32_t> frames;
  std::atomic<std::uint32_t> closed;
};

struct ShmRingTunnel::SegmentHeader {
  std::uint32_t magic;
  std::uint32_t capacity;  // per-ring data bytes (power of two)
  Ring ring[2];            // ring[0]: A→B, ring[1]: B→A
  // Data regions follow: ring 0 at offset sizeof(SegmentHeader), ring 1
  // right after it.
};

bool ShmRingTunnel::CreateSegment(const std::string& name,
                                  std::size_t ring_capacity) {
  const std::size_t cap = RoundUpPow2(ring_capacity);
  const std::size_t total = sizeof(SegmentHeader) + 2 * cap;
  const int fd = shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  if (fd < 0) {
    LOG_WARN("shmring") << "shm_open(" << name << ") failed: " << errno;
    return false;
  }
  if (ftruncate(fd, static_cast<off_t>(total)) != 0) {
    ::close(fd);
    shm_unlink(name.c_str());
    return false;
  }
  void* map = mmap(nullptr, total, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    shm_unlink(name.c_str());
    return false;
  }
  auto* hdr = new (map) SegmentHeader{};
  hdr->capacity = static_cast<std::uint32_t>(cap);
  for (Ring& r : hdr->ring) {
    r.tail.store(0, std::memory_order_relaxed);
    r.head.store(0, std::memory_order_relaxed);
    r.frames.store(0, std::memory_order_relaxed);
    r.closed.store(0, std::memory_order_relaxed);
  }
  // Publish the magic last: an attacher that sees it sees an initialized
  // segment.
  reinterpret_cast<std::atomic<std::uint32_t>*>(&hdr->magic)
      ->store(kShmMagic, std::memory_order_release);
  munmap(map, total);
  return true;
}

void ShmRingTunnel::UnlinkSegment(const std::string& name) {
  shm_unlink(name.c_str());
}

std::shared_ptr<ShmRingTunnel> ShmRingTunnel::Attach(const std::string& name,
                                                     Side side,
                                                     ShmRingTunnelConfig cfg) {
  const int fd = shm_open(name.c_str(), O_RDWR, 0600);
  if (fd < 0) return nullptr;
  struct stat st{};
  if (fstat(fd, &st) != 0 || st.st_size <
                                 static_cast<off_t>(sizeof(SegmentHeader))) {
    ::close(fd);
    return nullptr;
  }
  const auto total = static_cast<std::size_t>(st.st_size);
  void* map = mmap(nullptr, total, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) return nullptr;
  auto* hdr = static_cast<SegmentHeader*>(map);
  if (reinterpret_cast<std::atomic<std::uint32_t>*>(&hdr->magic)
          ->load(std::memory_order_acquire) != kShmMagic) {
    munmap(map, total);
    return nullptr;
  }
  return std::shared_ptr<ShmRingTunnel>(
      new ShmRingTunnel(map, total, side, cfg));
}

ShmRingTunnel::ShmRingTunnel(void* map, std::size_t map_bytes, Side side,
                             ShmRingTunnelConfig cfg)
    : map_(map),
      map_bytes_(map_bytes),
      hdr_(static_cast<SegmentHeader*>(map)),
      side_(side),
      cfg_(cfg) {}

ShmRingTunnel::~ShmRingTunnel() {
  close();
  if (map_ != nullptr) munmap(map_, map_bytes_);
}

ShmRingTunnel::Ring* ShmRingTunnel::tx_ring() const {
  return &hdr_->ring[side_ == Side::kA ? 0 : 1];
}

ShmRingTunnel::Ring* ShmRingTunnel::rx_ring() const {
  return &hdr_->ring[side_ == Side::kA ? 1 : 0];
}

std::uint8_t* ShmRingTunnel::ring_data(int index) const {
  auto* base = static_cast<std::uint8_t*>(map_) + sizeof(SegmentHeader);
  return base + static_cast<std::size_t>(index) * hdr_->capacity;
}

bool ShmRingTunnel::ring_write(const common::Bytes& frame) {
  Ring* r = tx_ring();
  const std::size_t cap = hdr_->capacity;
  const std::size_t need = 4 + frame.size();
  if (need > cap) return false;  // oversized: cannot ever fit
  const std::uint64_t tail = r->tail.load(std::memory_order_relaxed);
  const std::uint64_t head = r->head.load(std::memory_order_acquire);
  if (cap - (tail - head) < need) return false;  // full

  std::uint8_t* data = ring_data(side_ == Side::kA ? 0 : 1);
  PutLen(data, cap, tail, static_cast<std::uint32_t>(frame.size()));
  if (!frame.empty()) RingPut(data, cap, tail + 4, frame.data(), frame.size());
  r->tail.store(tail + need, std::memory_order_release);
  r->frames.fetch_add(1, std::memory_order_release);
  return true;
}

bool ShmRingTunnel::wire_push(common::Bytes frame) {
  Ring* r = tx_ring();
  const auto deadline = std::chrono::steady_clock::now() + cfg_.push_patience;
  for (;;) {
    if (r->closed.load(std::memory_order_acquire) != 0) return false;
    {
      std::lock_guard lk(tx_mu_);
      if (ring_write(frame)) return true;
    }
    // Full ring: brief back-pressure, then a counted drop — the consumer
    // process is wedged or dead and blocking forever would wedge the
    // sending switch shard with it.
    if (std::chrono::steady_clock::now() >= deadline) {
      count_peer_drops(1);
      return true;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

std::size_t ShmRingTunnel::wire_try_push_pkts(
    std::span<const PacketPtr> pkts, std::span<const TxFrameInfo> info) {
  if (tx_ring()->closed.load(std::memory_order_acquire) != 0) return 0;
  std::lock_guard lk(tx_mu_);
  // Burst reserve/commit: one head load bounds the space, the records are
  // encoded ([len][hdr][payload][csum]) straight into the mapped ring
  // against a local cursor — no intermediate frame buffer — and one tail
  // store + one frame-count add publish the whole burst.
  Ring* r = tx_ring();
  const std::size_t cap = hdr_->capacity;
  const std::uint64_t head = r->head.load(std::memory_order_acquire);
  std::uint64_t tail = r->tail.load(std::memory_order_relaxed);
  std::uint8_t* data = ring_data(side_ == Side::kA ? 0 : 1);
  std::size_t n = 0;
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    const std::uint32_t flen =
        info[i].body_len + static_cast<std::uint32_t>(kFrameChecksumBytes);
    const std::size_t need = 4 + static_cast<std::size_t>(flen);
    if (need > cap || cap - (tail - head) < need) break;
    PutLen(data, cap, tail, flen);
    std::uint8_t hdr_buf[Packet::kHeaderWireSize];
    EncodeFrameHeader(*pkts[i], hdr_buf);
    RingPut(data, cap, tail + 4, hdr_buf, sizeof(hdr_buf));
    const common::Bytes& pay = pkts[i]->payload;
    if (!pay.empty()) {
      RingPut(data, cap, tail + 4 + sizeof(hdr_buf), pay.data(), pay.size());
    }
    std::uint8_t csum[kFrameChecksumBytes];
    for (std::size_t b = 0; b < kFrameChecksumBytes; ++b) {
      csum[b] = static_cast<std::uint8_t>(info[i].checksum >> (b * 8));
    }
    RingPut(data, cap, tail + 4 + sizeof(hdr_buf) + pay.size(), csum,
            sizeof(csum));
    tail += need;
    ++n;
  }
  if (n != 0) {
    r->tail.store(tail, std::memory_order_release);
    r->frames.fetch_add(static_cast<std::uint32_t>(n),
                        std::memory_order_release);
  }
  return n;
}

std::size_t ShmRingTunnel::wire_pop_views(std::vector<FrameView>& out,
                                          std::size_t max) {
  std::lock_guard lk(rx_mu_);
  Ring* r = rx_ring();
  const std::size_t cap = hdr_->capacity;
  const std::uint64_t head = r->head.load(std::memory_order_relaxed);
  const std::uint64_t tail = r->tail.load(std::memory_order_acquire);
  const std::uint8_t* data = ring_data(side_ == Side::kA ? 1 : 0);
  // Walk records in place. Contiguous records are lent as spans straight
  // into the mapped ring — the producer cannot overwrite them because the
  // head cursor advances only in wire_release_views. Records straddling
  // the ring edge are stitched into reusable scratch (counted).
  std::uint64_t pos = head;
  std::size_t n = 0;
  wrap_used_ = 0;
  while (n < max && tail - pos >= 4) {
    std::uint8_t len_le[4];
    RingGet(data, cap, pos, len_le, 4);
    const std::uint32_t len = static_cast<std::uint32_t>(len_le[0]) |
                              (static_cast<std::uint32_t>(len_le[1]) << 8) |
                              (static_cast<std::uint32_t>(len_le[2]) << 16) |
                              (static_cast<std::uint32_t>(len_le[3]) << 24);
    if (len > cap || tail - pos < 4 + static_cast<std::uint64_t>(len)) break;
    const std::size_t off = (pos + 4) & (cap - 1);
    if (off + len <= cap) {
      out.push_back(FrameView{std::span<const std::uint8_t>(data + off, len)});
    } else {
      if (wrap_used_ == wrap_bufs_.size()) wrap_bufs_.emplace_back();
      common::Bytes& buf = wrap_bufs_[wrap_used_++];
      buf.resize(len);
      RingGet(data, cap, pos + 4, buf.data(), len);
      rx_wrap_copied_.fetch_add(len, std::memory_order_relaxed);
      out.push_back(
          FrameView{std::span<const std::uint8_t>(buf.data(), buf.size())});
    }
    pos += 4 + len;
    ++n;
  }
  view_head_advance_ = pos;
  view_count_ = static_cast<std::uint32_t>(n);
  return n;
}

void ShmRingTunnel::wire_release_views() {
  std::lock_guard lk(rx_mu_);
  if (view_count_ == 0) return;
  Ring* r = rx_ring();
  r->head.store(view_head_advance_, std::memory_order_release);
  r->frames.fetch_sub(view_count_, std::memory_order_release);
  view_count_ = 0;
  wrap_used_ = 0;
}

std::size_t ShmRingTunnel::wire_rx_depth() const {
  return rx_ring()->frames.load(std::memory_order_acquire);
}

void ShmRingTunnel::wire_close() {
  // Close both directions, like the in-memory transport: the peer's pushes
  // and our pops both fail fast once either side closes.
  hdr_->ring[0].closed.store(1, std::memory_order_release);
  hdr_->ring[1].closed.store(1, std::memory_order_release);
}

}  // namespace typhoon::net
