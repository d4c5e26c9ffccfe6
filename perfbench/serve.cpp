// The `serve` workload: the fig4 milc trace, partitioned by channel, streamed
// through tile::FrontTier over a 4-channel Topology by one client thread
// that drives four socketpair connections as fast as the sockets accept.
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <ctime>
#include <exception>
#include <thread>

#include "mem/geometry.hpp"
#include "sys/presets.hpp"
#include "tile/frame.hpp"
#include "tile/front.hpp"
#include "tile/topology.hpp"
#include "trace/generator.hpp"
#include "trace/spec_profiles.hpp"
#include "workloads.hpp"

namespace fgbench {

using namespace fgnvm;

namespace {

using Clock = std::chrono::steady_clock;

constexpr unsigned kClients = 4;
/// Every R/W request frame is a 4-byte length prefix plus 25 payload bytes.
constexpr std::size_t kReqFrameBytes = 4 + 25;
/// A session that has not ended by then has hung; it fails.
constexpr double kSessionTimeoutS = 60.0;

double thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

/// Everything one session observed.
struct Session {
  double secs = 0.0;
  std::uint64_t answered = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<double> latency_us;
  double front_cpu_ns = 0.0;
  std::uint64_t park_ns = 0;  ///< sum of the clients' 'S' frames
  tile::FrontTier::Totals totals;
  std::vector<tile::ShardMetrics> shards;
};

class Serve final : public Workload {
 public:
  explicit Serve(const Options& opt)
      : opt_(opt), ops_(scaled(kOps, opt.scale)) {}

  void setup() override {
    trace::WorkloadProfile p = trace::spec2006_profile("milc");
    p.seed = reseed(p.seed, opt_.seed);
    trace_ = trace::generate_trace(p, ops_);
    cfg_ = sys::fgnvm_config(4, 4);
    cfg_.geometry.channels = 4;
    cfg_.geometry.validate();
    // Channel-ownership partition: client (ch % clients) carries every
    // record of channel ch in trace order, so each channel sees exactly the
    // trace's subsequence whatever the client interleaving.
    const mem::AddressDecoder dec(cfg_.geometry, cfg_.mapping);
    streams_.assign(kClients, {});
    tags_.assign(kClients, {});
    is_read_.assign(trace_.records.size(), 0);
    for (std::size_t i = 0; i < trace_.records.size(); ++i) {
      const trace::TraceRecord& rec = trace_.records[i];
      const unsigned owner =
          static_cast<unsigned>(dec.decode(rec.addr).channel % kClients);
      tile::Request req;
      req.kind = rec.op == OpType::kRead ? tile::ReqFrame::kRead
                                         : tile::ReqFrame::kWrite;
      req.addr = rec.addr;
      req.tag = i;
      tile::encode_request(req, streams_[owner]);
      tags_[owner].push_back(i);
      is_read_[i] = rec.op == OpType::kRead;
    }
    tcfg_.shards = workers();
    tcfg_.worker_threads = true;
    tile::Topology topo(cfg_, tcfg_);
    tile::FrontTier front(topo);
  }

  void reference(bool corrupt_ref) override {
    tile::TopologyConfig ref_cfg;
    ref_cfg.shards = 1;
    ref_cfg.worker_threads = false;
    ref_ = tile::run_sharded(trace_, cfg_, ref_cfg).run;
    if (corrupt_ref) ref_.mem_cycles += 1;
  }

  Rep run() override {
    Session s = session();
    Rep rep;
    rep.secs = s.secs;
    rep.ops = trace_.records.size();
    rep.failed = s.failed;
    rep.errors = std::move(s.errors);
    rep.latency_us = std::move(s.latency_us);
    return rep;
  }

  TracedRep traced() override {
    const Session s = session();
    if (s.failed != 0) {
      throw FidelityError("traced serve session failed its output check: " +
                          (s.errors.empty() ? std::string("?") : s.errors[0]));
    }
    TracedRep out;
    out.secs = s.secs;
    out.counts_repeat = false;  // shard and front counters follow thread timing
    const double ops = static_cast<double>(trace_.records.size());
    double worker_ns = 0.0, empty = 0.0, cmds = 0.0, stalls = 0.0,
           spins = 0.0, advances = 0.0;
    for (const tile::ShardMetrics& m : s.shards) {
      worker_ns += m.cpu_seconds * 1e9;
      empty += static_cast<double>(m.ingress_empty);
      cmds += static_cast<double>(m.cmds);
      stalls += static_cast<double>(m.egress_stalls);
      spins += static_cast<double>(m.idle_spins);
      advances += static_cast<double>(m.advance_calls);
    }
    out.metrics = {
        {"tile.worker_cpu_ns_per_op", worker_ns / ops},
        {"tile.ingress_empty_frac",
         empty + cmds > 0 ? empty / (empty + cmds) : 0.0},
        {"tile.egress_stalls_per_op", stalls / ops},
        {"tile.idle_spins_per_op", spins / ops},
        {"tile.advance_calls_per_op", advances / ops},
        {"front.cpu_ns_per_frame",
         s.front_cpu_ns / static_cast<double>(s.totals.frames_in)},
        {"front.busy_frames_per_op",
         static_cast<double>(s.totals.busy_frames) / ops},
        {"front.parks_per_op", static_cast<double>(s.totals.parks) / ops},
        {"front.park_ns_per_op", static_cast<double>(s.park_ns) / ops},
    };
    return out;
  }

  std::vector<Metric> sim_metrics() const override { return {}; }

  std::string describe() const override {
    return "milc x " + std::to_string(ops_) + " frames over " +
           std::to_string(kClients) +
           " socketpairs from one client thread, fgnvm 4x4, 4 channels, " +
           std::to_string(workers()) + " worker shard(s), tile::FrontTier";
  }

 private:
  static constexpr std::uint64_t kOps = 20000;

  /// Client + front + workers stay within the host's cores.
  static std::uint64_t workers() {
    const unsigned n = std::thread::hardware_concurrency();
    return std::clamp<std::uint64_t>(n > 2 ? n - 2 : 1, 1, 4);
  }

  Session session();

  Options opt_;
  std::uint64_t ops_;
  trace::Trace trace_;
  sys::SystemConfig cfg_;
  tile::TopologyConfig tcfg_;
  std::vector<std::vector<std::uint8_t>> streams_;
  std::vector<std::vector<std::uint64_t>> tags_;  ///< frame index -> tag
  std::vector<std::uint8_t> is_read_;
  sim::RunResult ref_;
};

/// One client connection's state.
struct Conn {
  int fd = -1;
  std::vector<std::uint8_t> out;  ///< request frames, then control frames
  std::size_t req_bytes = 0;      ///< bytes of R/W frames at the front of out
  std::size_t sent = 0;
  bool sent_ping = false, sent_flush = false, sent_quit = false;
  bool closed = false;
  tile::FrameReader reader;
};

Session Serve::session() {
  Session s;
  const auto fail = [&](std::uint64_t n, const std::string& what) {
    s.failed += n;
    if (s.errors.size() < 8) s.errors.push_back(what);
  };
  const std::size_t n = trace_.records.size();
  std::vector<std::int64_t> sent_at(n, -1);  // ns since t0, -1 = unsent
  std::vector<std::uint8_t> answered(n, 0);

  tile::Topology topo(cfg_, tcfg_);
  topo.start();
  tile::FrontTier::Config fcfg;
  fcfg.exit_when_idle = true;
  tile::FrontTier front(topo, fcfg);
  std::vector<Conn> conns(kClients);
  for (unsigned c = 0; c < kClients; ++c) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      for (unsigned k = 0; k < c; ++k) ::close(conns[k].fd);
      throw std::runtime_error(std::string("socketpair: ") +
                               std::strerror(errno));
    }
    front.add_client(sv[0]);
    ::fcntl(sv[1], F_SETFL, ::fcntl(sv[1], F_GETFL) | O_NONBLOCK);
    conns[c].fd = sv[1];
    conns[c].out = streams_[c];
    conns[c].req_bytes = streams_[c].size();
  }

  std::exception_ptr server_error;
  std::thread server([&] {
    try {
      const double cpu0 = thread_cpu_ns();
      front.run();
      s.front_cpu_ns = thread_cpu_ns() - cpu0;
    } catch (...) {
      server_error = std::current_exception();
    }
  });
  // Joins the server on every path out of this function, exceptions too.
  struct Joiner {
    std::thread& server;
    tile::FrontTier& front;
    ~Joiner() {
      if (server.joinable()) {
        front.stop();
        server.join();
      }
    }
  } joiner{server, front};

  unsigned pongs = 0;
  bool flushed = false;
  std::uint64_t flush_cycles = 0;
  std::vector<std::uint8_t> payload;
  std::uint8_t rbuf[1 << 16];
  pollfd pfds[kClients];
  const auto t0 = Clock::now();
  const auto since_t0 = [&] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                t0)
        .count();
  };
  bool timed_out = false;
  while (true) {
    unsigned open = 0;
    for (unsigned c = 0; c < kClients; ++c) {
      Conn& k = conns[c];
      if (k.closed) {
        pfds[c] = pollfd{-1, 0, 0};  // poll ignores negative fds
        continue;
      }
      ++open;
      if (k.sent == k.out.size()) {
        // Fence: ping once the stream is out; client 0 flushes once every
        // pong proved all requests were admitted; everyone quits after the
        // flush (the admission-barrier protocol of fgnvm_serve --selftest).
        tile::Request r;
        if (!k.sent_ping) {
          r.kind = tile::ReqFrame::kPing;
          tile::encode_request(r, k.out);
          k.sent_ping = true;
        } else if (c == 0 && !k.sent_flush && pongs == kClients) {
          r.kind = tile::ReqFrame::kFlush;
          tile::encode_request(r, k.out);
          k.sent_flush = true;
        } else if (!k.sent_quit && flushed) {
          r.kind = tile::ReqFrame::kQuit;
          tile::encode_request(r, k.out);
          k.sent_quit = true;
        }
      }
      pfds[c] = pollfd{k.fd, POLLIN, 0};
      if (k.sent < k.out.size()) pfds[c].events |= POLLOUT;
    }
    if (open == 0) break;
    if (std::chrono::duration<double>(Clock::now() - t0).count() >
        kSessionTimeoutS) {
      timed_out = true;
      break;
    }
    const int pr = ::poll(pfds, kClients, 100);
    if (pr < 0) {
      if (errno == EINTR) continue;
      fail(n, std::string("poll: ") + std::strerror(errno));
      break;
    }
    for (unsigned c = 0; c < kClients && pr > 0; ++c) {
      Conn& k = conns[c];
      if (k.closed) continue;
      if ((pfds[c].revents & POLLOUT) && k.sent < k.out.size()) {
        const ssize_t w = ::send(k.fd, k.out.data() + k.sent,
                                 k.out.size() - k.sent,
                                 MSG_DONTWAIT | MSG_NOSIGNAL);
        if (w > 0) {
          const std::size_t before = k.sent;
          k.sent += static_cast<std::size_t>(w);
          // Frames completed by this send count as sent now.
          const std::int64_t at = since_t0();
          const std::size_t upto =
              std::min(k.sent, k.req_bytes) / kReqFrameBytes;
          for (std::size_t f = before / kReqFrameBytes; f < upto; ++f) {
            sent_at[tags_[c][f]] = at;
          }
        } else if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR) {
          fail(0, std::string("send: ") + std::strerror(errno));
        }
      }
      if (!(pfds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      const ssize_t r = ::read(k.fd, rbuf, sizeof(rbuf));
      if (r < 0) {
        if (errno != EINTR && errno != EAGAIN) {
          fail(0, std::string("read: ") + std::strerror(errno));
          k.closed = true;
        }
        continue;
      }
      if (r == 0) {  // the server closes after the 'S' frame
        k.closed = true;
        continue;
      }
      const std::int64_t at = since_t0();
      k.reader.feed(rbuf, static_cast<std::size_t>(r));
      while (k.reader.next(payload)) {
        const auto resp = tile::decode_response(payload.data(), payload.size());
        if (!resp) {
          fail(1, "malformed response frame");
          continue;
        }
        switch (resp->kind) {
          case tile::RespFrame::kWriteAck:
          case tile::RespFrame::kReadDone: {
            const std::uint64_t tag = resp->tag;
            const bool want_read =
                resp->kind == tile::RespFrame::kReadDone;
            if (tag >= n || answered[tag] || sent_at[tag] < 0 ||
                static_cast<bool>(is_read_[tag]) != want_read) {
              fail(1, "unexpected reply for tag " + std::to_string(tag));
              break;
            }
            answered[tag] = 1;
            ++s.answered;
            s.latency_us.push_back(static_cast<double>(at - sent_at[tag]) *
                                   1e-3);
            break;
          }
          case tile::RespFrame::kPong:
            ++pongs;
            break;
          case tile::RespFrame::kFlushDone:
            flushed = true;
            flush_cycles = resp->mem_cycles;
            break;
          case tile::RespFrame::kStats:
            s.park_ns += resp->stats.park_ns;
            break;
          case tile::RespFrame::kBusy:
            break;
          case tile::RespFrame::kError:
            fail(1, "error frame: " + resp->error);
            break;
        }
      }
    }
  }
  s.secs = std::chrono::duration<double>(Clock::now() - t0).count();
  for (Conn& k : conns) ::close(k.fd);
  if (timed_out) {
    fail(0, "session timed out");
    front.stop();
  }
  server.join();
  if (server_error) std::rethrow_exception(server_error);

  const sim::RunResult served = topo.finish(trace_.name);
  s.totals = front.totals();
  s.shards = topo.shard_metrics();
  const std::uint64_t unanswered = n - s.answered;
  if (unanswered != 0) {
    fail(unanswered, std::to_string(unanswered) + " frames unanswered");
  }
  if (flush_cycles != served.mem_cycles) {
    fail(n, "flush reported " + std::to_string(flush_cycles) +
                " cycles, finish reported " +
                std::to_string(served.mem_cycles));
  }
  const std::string diff = sim::diff_results(served, ref_);
  if (!diff.empty()) {
    fail(n, "served run diverged from the serial run_sharded reference: " +
                diff);
  }
  s.failed = std::min<std::uint64_t>(s.failed, n);
  return s;
}

}  // namespace

std::unique_ptr<Workload> make_serve_workload(const Options& opt) {
  return std::make_unique<Serve>(opt);
}

}  // namespace fgbench
