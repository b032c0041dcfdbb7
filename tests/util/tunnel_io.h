// Single-frame receive helpers for tunnel tests, built on the tunnel's one
// receive path (TunnelEndpoint::try_recv_burst). Production pollers drain
// bursts; tests that reason frame by frame use these instead.
#pragma once

#include <chrono>
#include <optional>
#include <span>
#include <thread>

#include "net/tunnel.h"

namespace typhoon::testutil {

// Non-blocking receive of one decoded frame. Corrupt frames are counted
// (rx_corrupt_drops) and skipped, so nullopt means no intact frame is
// queued — a mangled frame is never mistaken for an empty queue.
inline std::optional<net::Packet> TryRecv(net::TunnelEndpoint& ep) {
  net::Packet p;
  net::Packet* slot = &p;
  do {
    if (ep.try_recv_burst(std::span<net::Packet*>(&slot, 1)) == 1) return p;
  } while (ep.rx_queue_depth() != 0);
  return std::nullopt;
}

// Receive one frame, polling until it arrives or `timeout` passes.
inline std::optional<net::Packet> RecvFor(net::TunnelEndpoint& ep,
                                          std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    if (auto p = TryRecv(ep)) return p;
    if (std::chrono::steady_clock::now() >= deadline) return std::nullopt;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

}  // namespace typhoon::testutil
