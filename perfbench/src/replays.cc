// Isolated layer replays: each layer's public entry points driven on the
// workload's own seeded tuple mix, after a warm-up pass, timed in five
// repetitions of at least kRepNs each and reported as the median cost per
// operation. These are the "time busy" numbers of the ledger; the live
// run supplies how often each layer runs per end-to-end unit.
#include <algorithm>
#include <atomic>
#include <functional>
#include <span>
#include <thread>
#include <vector>

#include "bench.h"
#include "coordinator/coordinator.h"
#include "net/packet_pool.h"
#include "net/packetizer.h"
#include "net/socket_tunnel.h"
#include "net/tunnel.h"
#include "openflow/flow.h"
#include "stream/acker.h"
#include "stream/transport_typhoon.h"
#include "switchd/soft_switch.h"
#include "typhoon/proc_apps.h"

namespace perfbench {
namespace {

using namespace typhoon;

constexpr std::size_t kMixSize = 4096;
constexpr std::int64_t kRepNs = 30'000'000;

// Median ns per operation of `pass`, which returns the operations it ran.
double NsPerOp(const std::function<std::size_t()>& pass) {
  pass();  // warm-up: pools, caches, high-water reservations
  std::vector<double> reps;
  for (int r = 0; r < 5; ++r) {
    std::size_t ops = 0;
    const std::int64_t t0 = NowNs();
    std::int64_t t1 = t0;
    do {
      ops += pass();
      t1 = NowNs();
    } while (t1 - t0 < kRepNs);
    reps.push_back(static_cast<double>(t1 - t0) / static_cast<double>(ops));
  }
  return Median(reps);
}

// Keeps replay results observable so the optimizer cannot drop the work.
std::atomic<std::uint64_t> g_sink{0};

openflow::FlowRule ExactRule(PortId in_port, WorkerAddress src,
                             WorkerAddress dst,
                             std::vector<openflow::FlowAction> actions) {
  openflow::FlowRule r;
  r.match.in_port = in_port;
  r.match.dl_src = src.packed();
  r.match.dl_dst = dst.packed();
  r.match.ether_type = net::kTyphoonEtherType;
  r.actions = openflow::SharedActions(std::move(actions));
  return r;
}

class CountingEmitter final : public stream::Emitter {
 public:
  void emit(stream::Tuple) override { ++n; }
  void emit(StreamId, stream::Tuple) override { ++n; }
  void emit_direct(WorkerId, StreamId, stream::Tuple) override { ++n; }
  std::uint64_t n = 0;
};

// Send `packets` through `src` round-robin and drain every sink until all
// copies arrived; returns the input packets sent.
std::size_t SwitchPass(switchd::PortHandle& src,
                       const std::vector<std::shared_ptr<switchd::PortHandle>>& sinks,
                       const std::vector<net::PacketPtr>& packets,
                       std::size_t copies) {
  std::vector<net::PacketPtr> got;
  got.reserve(256);
  std::size_t want = 0;
  std::size_t have = 0;
  const auto drain = [&] {
    for (const auto& s : sinks) {
      got.clear();
      have += s->recv_bulk(got, 256);
    }
  };
  for (const net::PacketPtr& p : packets) {
    while (!src.send(p)) drain();
    want += copies;
    if (want - have > 512) drain();
  }
  while (have < want) {
    drain();
    if (have < want) std::this_thread::yield();
  }
  return packets.size();
}

}  // namespace

ReplayResults RunReplays(const WorkloadSpec& spec, std::uint32_t seed) {
  ReplayResults r;
  const std::vector<stream::Tuple> mix = spec.tuple_mix(seed, kMixSize);
  const WorkerAddress a1{1, 1};
  const WorkerAddress a2{1, 2};

  // ---- stream: tuple codec ----
  common::Bytes scratch;
  r.serialize_ns = NsPerOp([&] {
    std::uint64_t bytes = 0;
    for (std::size_t i = 0; i < mix.size(); ++i) {
      stream::SerializeTyphoonInto(mix[i], i, i, scratch);
      bytes += scratch.size();
    }
    g_sink += bytes;
    return mix.size();
  });
  std::vector<common::Bytes> wire;
  wire.reserve(mix.size());
  for (std::size_t i = 0; i < mix.size(); ++i) {
    wire.push_back(stream::SerializeTyphoon(mix[i], i, i));
  }
  r.deserialize_ns = NsPerOp([&] {
    std::uint64_t fields = 0;
    stream::Tuple t;
    std::uint64_t root = 0;
    std::uint64_t edge = 0;
    for (const common::Bytes& b : wire) {
      if (stream::DeserializeTyphoonBorrowed(b, t, root, edge)) {
        fields += t.size();
      }
    }
    g_sink += fields;
    return wire.size();
  });

  // ---- net: packetizer / depacketizer ----
  net::PacketizerConfig pcfg;
  pcfg.batch_tuples = 100;  // SubmitOptions::batch_size default
  std::vector<net::PacketPtr> packets;
  net::Packetizer pk(a1, pcfg,
                     [&packets](net::PacketPtr p) { packets.push_back(std::move(p)); });
  net::TupleRecord rec;
  rec.src = a1;
  rec.dst = a2;
  rec.stream_id = stream::kDefaultStream;
  const auto packetize_all = [&] {
    packets.clear();
    for (const common::Bytes& b : wire) {
      rec.data = b;
      pk.add(rec);
    }
    pk.flush();
    return wire.size();
  };
  // Copying the record bytes is the transport's own serialize-into-scratch
  // step, timed apart so it is not charged to the packetizer.
  const double copy_ns = NsPerOp([&] {
    for (const common::Bytes& b : wire) rec.data = b;
    g_sink += rec.data.size();
    return wire.size();
  });
  r.packetize_ns = std::max(0.0, NsPerOp(packetize_all) - copy_ns);
  packetize_all();
  r.tuples_per_packet =
      static_cast<double>(wire.size()) / static_cast<double>(packets.size());
  double payload_bytes = 0.0;
  for (const net::PacketPtr& p : packets) {
    payload_bytes += static_cast<double>(p->payload.size());
  }
  r.frame_bytes = payload_bytes / static_cast<double>(packets.size());
  std::size_t records = 0;
  net::Depacketizer dp([&records](net::TupleRecord) { ++records; });
  r.depacketize_ns = NsPerOp([&] {
    for (const net::PacketPtr& p : packets) dp.consume(p);
    return wire.size();
  });
  g_sink += records;

  // ---- switchd: forward and 4-way fan-out ----
  {
    switchd::SoftSwitchConfig scfg;
    scfg.host = 1;
    switchd::SoftSwitch sw(scfg);
    sw.start();
    auto src = sw.attach_port();
    auto dst = sw.attach_port();
    sw.handle_flow_mod({openflow::FlowModCommand::kAdd,
                        ExactRule(src->id(), a1, a2,
                                  {openflow::ActionOutput{dst->id()}})});
    r.forward_ns = NsPerOp([&] { return SwitchPass(*src, {dst}, packets, 1); });

    const WorkerAddress a3{1, 3};
    std::vector<std::shared_ptr<switchd::PortHandle>> fan;
    std::vector<openflow::FlowAction> actions;
    for (int i = 0; i < 4; ++i) {
      fan.push_back(sw.attach_port());
      actions.push_back(openflow::ActionOutput{fan.back()->id()});
    }
    sw.handle_flow_mod({openflow::FlowModCommand::kAdd,
                        ExactRule(src->id(), a1, a3, std::move(actions))});
    std::vector<net::PacketPtr> fan_packets;
    for (const net::PacketPtr& p : packets) {
      net::Packet copy = *p;
      copy.dst = a3;
      fan_packets.push_back(net::MakePacket(std::move(copy)));
    }
    const double fan_ns =
        NsPerOp([&] { return SwitchPass(*src, fan, fan_packets, 4); });
    const std::uint64_t hits = sw.cache_hits();
    const std::uint64_t misses = sw.cache_misses();
    sw.stop();
    r.metrics.push_back({"switchd.forward_ns", r.forward_ns, "ns"});
    r.metrics.push_back({"switchd.fanout4_ns", fan_ns, "ns"});
    r.metrics.push_back(
        {"switchd.cache_hit_rate",
         hits + misses > 0 ? static_cast<double>(hits) /
                                 static_cast<double>(hits + misses)
                           : 0.0,
         "ratio"});
  }

  // ---- net: in-memory and loopback-socket tunnels, per frame ----
  {
    auto [ta, tb] = net::CreateTunnel(4096);
    auto pool = net::PacketPool::Create();
    std::vector<net::Packet*> slots;
    for (int i = 0; i < 64; ++i) slots.push_back(pool->acquire_raw());
    r.tunnel_mem_ns = NsPerOp([&] {
      std::size_t moved = 0;
      for (std::size_t off = 0; off < packets.size(); off += 64) {
        const auto burst = std::span<const net::PacketPtr>(packets).subspan(
            off, std::min<std::size_t>(64, packets.size() - off));
        std::size_t sent = 0;
        while (sent < burst.size()) {
          sent += ta->try_send_burst(burst.subspan(sent));
          moved += tb->try_recv_burst(std::span<net::Packet*>(slots));
        }
      }
      while (moved < packets.size()) {
        moved += tb->try_recv_burst(std::span<net::Packet*>(slots));
      }
      return packets.size();
    });
    for (net::Packet* s : slots) net::PacketPtr::adopt(s);
  }
  {
    net::SocketTunnelConfig cfg;
    cfg.capacity = 8192;
    net::SocketTunnelListener listener(2);
    double sock_ns = 0.0;
    double syscalls = 0.0;
    if (listener.bind(0)) {
      auto rx = listener.expect_peer(1, cfg);
      listener.start();
      auto tx = net::SocketTunnel::Connect("127.0.0.1", listener.port(), 1, 2,
                                           cfg);
      std::atomic<std::uint64_t> received{0};
      std::atomic<bool> stop{false};
      std::thread sink([&] {
        auto pool = net::PacketPool::Create();
        std::vector<net::Packet*> slots;
        for (int i = 0; i < 256; ++i) slots.push_back(pool->acquire_raw());
        while (!stop.load(std::memory_order_relaxed)) {
          const std::size_t n =
              rx->try_recv_burst(std::span<net::Packet*>(slots));
          if (n == 0) {
            std::this_thread::yield();
            continue;
          }
          received.fetch_add(n, std::memory_order_release);
        }
        for (net::Packet* s : slots) net::PacketPtr::adopt(s);
      });
      std::uint64_t sent = 0;
      const auto pump = [&] {
        for (std::size_t off = 0; off < packets.size();) {
          const std::size_t k = tx->try_send_burst(
              std::span<const net::PacketPtr>(packets).subspan(off));
          off += k;
          if (k == 0) std::this_thread::yield();
        }
        sent += packets.size();
        while (received.load(std::memory_order_acquire) < sent) {
          std::this_thread::yield();
        }
        return packets.size();
      };
      pump();  // connects, then warms the slabs
      const auto st0 = tx->io_stats();
      const auto sr0 = rx->io_stats();
      const std::uint64_t sent0 = sent;
      sock_ns = NsPerOp(pump);
      const auto st1 = tx->io_stats();
      const auto sr1 = rx->io_stats();
      syscalls =
          static_cast<double>((st1.sendmsg_calls - st0.sendmsg_calls) +
                              (st1.poll_calls - st0.poll_calls) +
                              (st1.wake_writes - st0.wake_writes) +
                              (sr1.read_calls - sr0.read_calls) +
                              (sr1.poll_calls - sr0.poll_calls) +
                              (sr1.wake_writes - sr0.wake_writes)) /
          static_cast<double>(sent - sent0);
      stop.store(true);
      sink.join();
      tx->close();
      rx->close();
      listener.stop();
    }
    r.tunnel_socket_ns = sock_ns;
    r.metrics.push_back({"net.tunnel_socket_ns", sock_ns, "ns"});
    r.metrics.push_back(
        {"net.tunnel_socket_syscalls_per_frame", syscalls, "count"});
    r.metrics.push_back({"net.tunnel_mem_ns", r.tunnel_mem_ns, "ns"});
  }

  // ---- stream: transport send -> flush -> switch -> poll ----
  {
    switchd::SoftSwitchConfig scfg;
    scfg.host = 1;
    switchd::SoftSwitch sw(scfg);
    sw.start();
    auto port1 = sw.attach_port(101);
    auto port2 = sw.attach_port(102);
    stream::TyphoonTransport t1(a1, port1, pcfg);
    stream::TyphoonTransport t2(a2, port2, pcfg);
    sw.handle_flow_mod({openflow::FlowModCommand::kAdd,
                        ExactRule(101, a1, a2,
                                  {openflow::ActionOutput{PortId{102}}})});
    const std::vector<WorkerId> dests{2};
    std::vector<stream::ReceivedItem> got;
    got.reserve(128);
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
    const auto pump = [&] {
      for (std::size_t i = 0; i < mix.size(); ++i) {
        t1.send(mix[i], stream::kDefaultStream, sent, 1, dests, false);
        ++sent;
        if (i % 256 == 255) {
          t1.flush();
          for (;;) {
            got.clear();
            if (t2.poll(got, 64) == 0) break;
            received += got.size();
          }
        }
      }
      t1.flush();
      while (received < sent) {
        got.clear();
        if (t2.poll(got, 64) == 0) {
          std::this_thread::yield();
          continue;
        }
        received += got.size();
      }
      return mix.size();
    };
    const double transport_ns = NsPerOp(pump);
    const stream::TransportIoStats tx0 = t1.io_stats();
    const stream::TransportIoStats rx0 = t2.io_stats();
    const std::uint64_t before = sent;
    SetAllocCounting(true);
    const std::uint64_t allocs0 = AllocCount();
    pump();
    const std::uint64_t allocs = AllocCount() - allocs0;
    SetAllocCounting(false);
    const auto n = static_cast<double>(sent - before);
    const stream::TransportIoStats tx1 = t1.io_stats();
    const stream::TransportIoStats rx1 = t2.io_stats();
    const auto pool_hits = static_cast<double>(tx1.pool_hits - tx0.pool_hits);
    const auto pool_all =
        pool_hits + static_cast<double>(tx1.pool_misses - tx0.pool_misses);
    sw.stop();
    r.metrics.push_back({"stream.transport_ns", transport_ns, "ns"});
    r.metrics.push_back(
        {"stream.heap_allocs_per_tuple", static_cast<double>(allocs) / n,
         "count"});
    r.metrics.push_back(
        {"net.pool_hit_rate", pool_all > 0 ? pool_hits / pool_all : 0.0,
         "ratio"});
    r.metrics.push_back(
        {"net.rx_bytes_copied_per_tuple",
         static_cast<double>(rx1.bytes_copied_rx - rx0.bytes_copied_rx) / n,
         "B"});
  }

  // ---- stream: acker, per ack message ----
  {
    // One tree per root: init, then the two acks that zero its XOR.
    std::vector<stream::Tuple> msgs;
    for (std::uint64_t root = 1; root <= kMixSize / 3; ++root) {
      const std::uint64_t x = root * 0x9e3779b97f4a7c15ull;
      const std::uint64_t y = root * 0xc2b2ae3d27d4eb4full;
      msgs.push_back(stream::MakeAckInit(root, x ^ y, 7));
      msgs.push_back(stream::MakeAck(root, x));
      msgs.push_back(stream::MakeAck(root, y));
    }
    stream::AckerBolt acker;
    acker.prepare(stream::WorkerContext{});
    CountingEmitter em;
    stream::TupleMeta meta;
    meta.stream = stream::kAckStream;
    r.acker_ns = NsPerOp([&] {
      for (const stream::Tuple& m : msgs) acker.execute(m, meta, em);
      return msgs.size();
    });
    g_sink += em.n;
  }

  // ---- coordinator: the heartbeat-shaped put ----
  {
    coordinator::Coordinator coord;
    std::vector<std::string> paths;
    for (int w = 0; w < 8; ++w) {
      for (const char* m : {"heartbeat", "stats/emitted", "stats/received",
                            "stats/queue_depth"}) {
        paths.push_back("/workers/perfbench/w" + std::to_string(w) + "/" + m);
      }
    }
    std::int64_t v = 0;
    r.coord_put_ns = NsPerOp([&] {
      for (const std::string& p : paths) {
        (void)coord.put_str(p, std::to_string(++v));
      }
      return paths.size();
    });
  }

  // ---- user code of the catalog word count (its bolts live in the
  // children, so the replay is the only view of them) ----
  if (spec.name == "wordcount_proc") {
    proc::WordCountParams p;
    p.seed = seed;
    auto topo = proc::BuildWordCount(p, nullptr);
    if (topo.ok()) {
      auto split = topo.value().node_by_name("split")->bolt();
      auto count = topo.value().node_by_name("count")->bolt();
      CountingEmitter em;
      stream::TupleMeta meta;
      std::int64_t pass_no = 0;
      r.execute_app_ns = NsPerOp([&] {
        // Fresh occurrence ids each pass, so the dedup sink counts them.
        ++pass_no;
        for (const stream::Tuple& t : mix) {
          if (t.size() == 2 && t.str(0).find(' ') != std::string_view::npos) {
            split->execute(t, meta, em);
          } else {
            count->execute(stream::Tuple{std::string(t.str(0)),
                                         t.i64(1) + pass_no * (1ll << 40)},
                           meta, em);
          }
        }
        return mix.size();
      });
      g_sink += em.n;
      r.metrics.push_back({"stream.execute_app_ns", r.execute_app_ns, "ns"});
    }
  }

  r.metrics.push_back({"stream.serialize_ns", r.serialize_ns, "ns"});
  r.metrics.push_back({"stream.deserialize_ns", r.deserialize_ns, "ns"});
  r.metrics.push_back({"net.packetize_ns", r.packetize_ns, "ns"});
  r.metrics.push_back({"net.depacketize_ns", r.depacketize_ns, "ns"});
  r.metrics.push_back({"net.tuples_per_packet", r.tuples_per_packet, "count"});
  r.metrics.push_back({"stream.acker_ns", r.acker_ns, "ns"});
  r.metrics.push_back({"coordinator.put_ns", r.coord_put_ns, "ns"});
  return r;
}

}  // namespace perfbench
