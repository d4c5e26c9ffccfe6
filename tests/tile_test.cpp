// Tile runtime tests (DESIGN.md §14).
//
//  * TileSpscRing        — single-threaded ring semantics: wrap, full/empty,
//                          monotone sequence publication, flow control.
//  * TileSpscRingStress  — 2-thread producer/consumer; run under TSan by the
//                          CI thread-sanitizer job (ctest -R "Sweep|Tile").
//  * TileSharded         — sharded runs are byte-identical to the serial
//                          inline reference at shard counts 1/2/4, threaded
//                          and serial, across two presets.
//  * TileAnchor          — single-channel tile semantics coincide with
//                          sim::run_memory_only's submission/tick schedule.
//  * TileThreadCount     — sim::clamp_thread_count validation.
//  * TileFrame           — fgnvm_serve wire codec roundtrip, framing, and
//                          decode_batch (zero-copy views, chop fuzz,
//                          oversized rejection mid-batch).
//  * TileFrontMultiClient— N concurrent socketpair clients against a live
//                          FrontTier with randomized frame splits: per-client
//                          completion routing, QoS stats isolation, merged
//                          state diffed against the serial single-stream
//                          reference; plus a tiny-ring backpressure case
//                          (parks > 0, still diff-clean).
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/sweep.hpp"
#include "mem/geometry.hpp"
#include "sim/runner.hpp"
#include "sys/memory_system.hpp"
#include "sys/presets.hpp"
#include "tile/frame.hpp"
#include "tile/front.hpp"
#include "tile/spsc_ring.hpp"
#include "tile/topology.hpp"
#include "trace/generator.hpp"
#include "trace/spec_profiles.hpp"

namespace {

using namespace fgnvm;

// ---------------------------------------------------------------- SpscRing

TEST(TileSpscRing, RejectsBadCapacity) {
  EXPECT_THROW(tile::SpscRing<int>(0), std::invalid_argument);
  EXPECT_THROW(tile::SpscRing<int>(1), std::invalid_argument);
  EXPECT_THROW(tile::SpscRing<int>(3), std::invalid_argument);
  EXPECT_THROW(tile::SpscRing<int>(100), std::invalid_argument);
  EXPECT_NO_THROW(tile::SpscRing<int>(2));
  EXPECT_NO_THROW(tile::SpscRing<int>(128));
}

TEST(TileSpscRing, FullAndEmpty) {
  tile::SpscRing<int> ring(4);
  int v = 0;
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.try_pop(v));
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_FALSE(ring.try_push(99));  // full: consumer has not acknowledged
  EXPECT_TRUE(ring.try_pop(v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(ring.try_push(4));  // fseq progress freed one slot
  for (int want = 1; want <= 4; ++want) {
    EXPECT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, want);
  }
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.try_pop(v));
}

TEST(TileSpscRing, WrapsManyTimes) {
  tile::SpscRing<std::uint64_t> ring(8);
  std::uint64_t v = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(ring.try_push(i));
    ASSERT_TRUE(ring.try_pop(v));
    ASSERT_EQ(v, i);
  }
  EXPECT_EQ(ring.published(), 1000u);
  EXPECT_EQ(ring.consumed(), 1000u);
}

TEST(TileSpscRing, SequenceNumbersAreMonotonePublication) {
  tile::SpscRing<int> ring(4);
  EXPECT_EQ(ring.published(), 0u);
  EXPECT_EQ(ring.consumed(), 0u);
  ring.try_push(1);
  ring.try_push(2);
  EXPECT_EQ(ring.published(), 2u);
  EXPECT_EQ(ring.consumed(), 0u);
  int v = 0;
  ring.try_pop(v);
  EXPECT_EQ(ring.published(), 2u);
  EXPECT_EQ(ring.consumed(), 1u);
  EXPECT_EQ(ring.size(), 1u);
}

TEST(TileSpscRingStress, TwoThreadHandoff) {
  // Every item crosses threads through the ring exactly once; the consumer
  // verifies FIFO order. The CI TSan job proves the acquire/release pairing
  // (any missing edge is a data race on the slot array).
  constexpr std::uint64_t kItems = 200'000;
  tile::SpscRing<std::uint64_t> ring(64);
  std::uint64_t sum = 0;
  std::thread consumer([&] {
    std::uint64_t expect = 0, v = 0;
    while (expect < kItems) {
      if (ring.try_pop(v)) {
        ASSERT_EQ(v, expect);
        sum += v;
        ++expect;
      } else {
        std::this_thread::yield();
      }
    }
  });
  for (std::uint64_t i = 0; i < kItems; ++i) {
    while (!ring.try_push(i)) std::this_thread::yield();
  }
  consumer.join();
  EXPECT_EQ(sum, kItems * (kItems - 1) / 2);
  EXPECT_EQ(ring.published(), kItems);
  EXPECT_EQ(ring.consumed(), kItems);
}

// ------------------------------------------------------- sharded equivalence

sys::SystemConfig with_channels(sys::SystemConfig cfg,
                                std::uint64_t channels) {
  cfg.geometry.channels = channels;
  cfg.geometry.validate();
  return cfg;
}

trace::Trace mixed_trace(std::uint64_t ops) {
  return trace::generate_trace(trace::spec2006_profile("omnetpp"), ops);
}

trace::Trace read_heavy_trace(std::uint64_t ops) {
  return trace::generate_trace(trace::spec2006_profile("milc"), ops);
}

TEST(TileSharded, BitIdenticalAcrossShardCounts) {
  const std::vector<std::pair<std::string, sys::SystemConfig>> presets = {
      {"fgnvm_4x4_ch4", with_channels(sys::fgnvm_config(4, 4), 4)},
      {"dram_ch4", with_channels(sys::dram_config(), 4)},
  };
  for (const auto& [name, cfg] : presets) {
    for (const trace::Trace& tr : {read_heavy_trace(1500), mixed_trace(1500)}) {
      tile::TopologyConfig ref_cfg;
      ref_cfg.shards = 1;
      ref_cfg.worker_threads = false;
      const tile::ShardedRunResult ref = tile::run_sharded(tr, cfg, ref_cfg);
      EXPECT_GT(ref.run.mem_cycles, 0u);
      EXPECT_EQ(ref.run.reads + ref.run.writes, tr.records.size());

      for (const std::uint64_t shards : {1u, 2u, 4u}) {
        for (const bool threaded : {false, true}) {
          tile::TopologyConfig tcfg;
          tcfg.shards = shards;
          tcfg.worker_threads = threaded;
          const tile::ShardedRunResult got = tile::run_sharded(tr, cfg, tcfg);
          EXPECT_EQ(tile::diff_sharded(got, ref), "")
              << name << " / " << tr.name << " shards=" << shards
              << (threaded ? " threaded" : " serial");
        }
      }
    }
  }
}

TEST(TileSharded, CompletionStreamIsDeterministic) {
  const sys::SystemConfig cfg = with_channels(sys::fgnvm_config(4, 4), 4);
  const trace::Trace tr = read_heavy_trace(800);
  tile::TopologyConfig tcfg;
  tcfg.shards = 4;
  tcfg.worker_threads = true;
  const tile::ShardedRunResult a = tile::run_sharded(tr, cfg, tcfg);
  const tile::ShardedRunResult b = tile::run_sharded(tr, cfg, tcfg);
  ASSERT_EQ(a.completions.size(), b.completions.size());
  for (std::size_t i = 0; i < a.completions.size(); ++i) {
    EXPECT_EQ(a.completions[i], b.completions[i]) << "index " << i;
  }
  // The merged stream is channel-major.
  for (std::size_t i = 1; i < a.completions.size(); ++i) {
    EXPECT_LE(a.completions[i - 1].channel, a.completions[i].channel);
  }
}

TEST(TileSharded, ShardCountClampsToChannels) {
  const sys::SystemConfig cfg = with_channels(sys::fgnvm_config(4, 4), 2);
  tile::TopologyConfig tcfg;
  tcfg.shards = 8;  // more shards than channels
  tcfg.worker_threads = false;
  tile::Topology topo(cfg, tcfg);
  EXPECT_EQ(topo.shards(), 2u);
  EXPECT_EQ(topo.channels(), 2u);
}

TEST(TileSharded, MetricsAccountForAllTraffic) {
  const sys::SystemConfig cfg = with_channels(sys::fgnvm_config(4, 4), 4);
  const trace::Trace tr = mixed_trace(1000);
  tile::TopologyConfig tcfg;
  tcfg.shards = 2;
  tcfg.worker_threads = true;
  const tile::ShardedRunResult res = tile::run_sharded(tr, cfg, tcfg);
  ASSERT_EQ(res.shards.size(), 2u);
  std::uint64_t ops = 0, reads = 0, writes = 0, completions = 0;
  for (const tile::ShardMetrics& m : res.shards) {
    ops += m.ops;
    reads += m.reads;
    writes += m.writes;
    completions += m.completions;
  }
  EXPECT_EQ(ops, tr.records.size());
  EXPECT_EQ(reads, res.run.reads);
  EXPECT_EQ(writes, res.run.writes);
  EXPECT_EQ(completions, res.completions.size());
}

TEST(TileSharded, ThreadedDestructionWithoutFinishDoesNotHang) {
  // Regression: destroying a threaded topology without finish() used to
  // join() workers that could be blocked publishing into a full egress
  // ring with nobody left to drain it (e.g. unpolled completions beyond
  // ring_capacity, or exception unwind out of flush()). The destructor now
  // request_stop()s every shard, which turns a blocked push_evt into a
  // drop, so this must terminate.
  const sys::SystemConfig cfg = with_channels(sys::fgnvm_config(4, 4), 2);
  const trace::Trace tr = read_heavy_trace(256);
  tile::TopologyConfig tcfg;
  tcfg.shards = 2;
  tcfg.worker_threads = true;
  tcfg.ring_capacity = 8;  // tiny rings: completions overrun egress fast
  tile::Topology topo(cfg, tcfg);
  topo.start();
  for (std::size_t i = 0; i < tr.records.size(); ++i) {
    topo.submit(tr.records[i].addr, tr.records[i].op,
                static_cast<std::uint64_t>(i));
  }
  // Give the workers time to drain their ingress backlog and wedge against
  // the (never again drained) egress rings, then destroy: no poll, no
  // flush, no finish.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

// ------------------------------------------------------ single-channel anchor

TEST(TileAnchor, SingleChannelMatchesRunMemoryOnly) {
  // With one channel, the tile per-channel clock semantics reduce to
  // run_memory_only's submission/tick schedule: submissions happen at the
  // first cycle the channel accepts, the chain runs the same event-skipping
  // ticks, and the final drain ends at the same cycle. Every stat must be
  // bit-identical.
  const std::vector<std::pair<std::string, sys::SystemConfig>> presets = {
      {"baseline", sys::baseline_config()},
      {"fgnvm_4x4", sys::fgnvm_config(4, 4)},
      {"fgnvm_4x4_multi_issue", sys::fgnvm_config(4, 4, true)},
      {"dram", sys::dram_config()},
  };
  for (const auto& [name, cfg] : presets) {
    for (const trace::Trace& tr : {read_heavy_trace(1200), mixed_trace(1200)}) {
      const sim::RunResult want = sim::run_memory_only(tr, cfg);
      tile::TopologyConfig tcfg;
      tcfg.shards = 1;
      tcfg.worker_threads = false;
      const tile::ShardedRunResult got = tile::run_sharded(tr, cfg, tcfg);
      EXPECT_EQ(sim::diff_results(got.run, want), "")
          << name << " / " << tr.name;
    }
  }
}

// ---------------------------------------------------------- thread counts

TEST(TileThreadCount, ClampsInvalidValues) {
  EXPECT_EQ(sim::clamp_thread_count(1, "test"), 1u);
  EXPECT_EQ(sim::clamp_thread_count(0, "test"), 1u);  // warns, falls back
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const std::uint64_t ceiling = 4ULL * hw;
  EXPECT_EQ(sim::clamp_thread_count(ceiling, "test"), ceiling);
  EXPECT_EQ(sim::clamp_thread_count(ceiling + 1, "test"), ceiling);
  EXPECT_EQ(sim::clamp_thread_count(1'000'000, "test"), ceiling);
}

// ----------------------------------------------------------------- frames

TEST(TileFrame, RequestRoundtrip) {
  const tile::Request cases[] = {
      {tile::ReqFrame::kRead, 0xdeadbeef1234ull, 42, 7},
      {tile::ReqFrame::kWrite, 0x1000, 0xffffffffffffffffull, 0},
      {tile::ReqFrame::kFlush, 0, 9, 0},
      {tile::ReqFrame::kPing, 0, 0xfe, 0},
      {tile::ReqFrame::kQuit, 0, 0, 0},
  };
  for (const tile::Request& req : cases) {
    std::vector<std::uint8_t> bytes;
    tile::encode_request(req, bytes);
    tile::FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(reader.next(payload));
    const auto got = tile::decode_request(payload.data(), payload.size());
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->kind, req.kind);
    if (req.kind == tile::ReqFrame::kRead ||
        req.kind == tile::ReqFrame::kWrite) {
      EXPECT_EQ(got->addr, req.addr);
      EXPECT_EQ(got->not_before, req.not_before);
    }
    if (req.kind != tile::ReqFrame::kQuit) {
      EXPECT_EQ(got->tag, req.tag);
    }
    EXPECT_FALSE(reader.next(payload));  // exactly one frame
  }
}

TEST(TileFrame, ResponseRoundtrip) {
  tile::Response resp;
  resp.kind = tile::RespFrame::kReadDone;
  resp.tag = 7;
  resp.id = 123;
  resp.submitted = 1000;
  resp.completed = 1525;
  resp.channel = 3;
  std::vector<std::uint8_t> bytes;
  tile::encode_response(resp, bytes);

  tile::Response err;
  err.kind = tile::RespFrame::kError;
  err.tag = 8;
  err.error = "bad frame";
  tile::encode_response(err, bytes);

  tile::FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(reader.next(payload));
  auto got = tile::decode_response(payload.data(), payload.size());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->kind, tile::RespFrame::kReadDone);
  EXPECT_EQ(got->id, 123u);
  EXPECT_EQ(got->submitted, 1000u);
  EXPECT_EQ(got->completed, 1525u);
  EXPECT_EQ(got->channel, 3u);
  ASSERT_TRUE(reader.next(payload));
  got = tile::decode_response(payload.data(), payload.size());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->kind, tile::RespFrame::kError);
  EXPECT_EQ(got->error, "bad frame");
}

TEST(TileFrame, ReaderHandlesArbitrarySplits) {
  // A stream of frames fed one byte at a time must come out intact.
  std::vector<std::uint8_t> bytes;
  for (std::uint64_t i = 0; i < 20; ++i) {
    tile::Request req;
    req.kind = i % 3 == 0 ? tile::ReqFrame::kWrite : tile::ReqFrame::kRead;
    req.addr = i * 64;
    req.tag = i;
    tile::encode_request(req, bytes);
  }
  tile::FrameReader reader;
  std::vector<std::uint8_t> payload;
  std::uint64_t frames = 0;
  for (const std::uint8_t b : bytes) {
    reader.feed(&b, 1);
    while (reader.next(payload)) {
      const auto got = tile::decode_request(payload.data(), payload.size());
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->tag, frames);
      EXPECT_EQ(got->addr, frames * 64);
      ++frames;
    }
  }
  EXPECT_EQ(frames, 20u);
}

TEST(TileFrame, ReaderReclaimsConsumedBytesMidStream) {
  // Regression: compact() used to reclaim only once every byte was
  // consumed, so a long-lived stream whose feed boundaries keep landing
  // mid-frame retained every consumed byte. Feed ~58 KB of frames in
  // chunks coprime with the frame size (boundaries never align) and check
  // the buffer stays bounded by the unconsumed tail, not by total bytes
  // ever received.
  std::vector<std::uint8_t> bytes;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    tile::Request req;
    req.kind = tile::ReqFrame::kRead;
    req.addr = i;
    req.tag = i;
    tile::encode_request(req, bytes);
  }
  tile::FrameReader reader;
  std::vector<std::uint8_t> payload;
  std::uint64_t frames = 0;
  std::size_t off = 0;
  const std::size_t chunk = 37;  // read frames are 29 bytes on the wire
  while (off < bytes.size()) {
    const std::size_t n = std::min(chunk, bytes.size() - off);
    reader.feed(bytes.data() + off, n);
    off += n;
    while (reader.next(payload)) ++frames;
    EXPECT_LT(reader.buffered_bytes(), 256u);
  }
  EXPECT_EQ(frames, 2000u);
}

TEST(TileFrame, RejectsMalformedAndOversized) {
  EXPECT_FALSE(tile::decode_request(nullptr, 0).has_value());
  const std::uint8_t junk[] = {'Z', 1, 2, 3};
  EXPECT_FALSE(tile::decode_request(junk, sizeof(junk)).has_value());
  const std::uint8_t truncated[] = {'R', 1, 2};
  EXPECT_FALSE(tile::decode_request(truncated, sizeof(truncated)).has_value());

  tile::FrameReader reader(/*max_frame=*/64);
  const std::uint8_t huge_len[] = {0xff, 0xff, 0xff, 0x7f};
  reader.feed(huge_len, sizeof(huge_len));
  std::vector<std::uint8_t> payload;
  EXPECT_THROW(reader.next(payload), std::runtime_error);
}

// ------------------------------------------------------- batched ring ops

TEST(TileSpscRing, BatchedPushAdmitsPrefixWhenFull) {
  tile::SpscRing<int> ring(8);
  const int items[6] = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(ring.try_push_n(items, 6), 6u);
  EXPECT_EQ(ring.published(), 6u);  // one batch = one publication point
  // Only 2 slots remain: the batch admits a prefix, never a hole.
  EXPECT_EQ(ring.try_push_n(items, 6), 2u);
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_EQ(ring.try_push_n(items, 6), 0u);  // full: nothing admitted

  int out[8] = {};
  EXPECT_EQ(ring.try_pop_n(out, 8), 8u);
  const int want[8] = {0, 1, 2, 3, 4, 5, 0, 1};
  for (int i = 0; i < 8; ++i) EXPECT_EQ(out[i], want[i]);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.try_pop_n(out, 8), 0u);
}

TEST(TileSpscRing, BatchedOpsInterleaveWithSingles) {
  // Batched and single push/pop share the same sequence space; mixing them
  // must preserve FIFO order exactly.
  tile::SpscRing<std::uint64_t> ring(16);
  std::uint64_t next_in = 0, next_out = 0;
  std::mt19937 rng(7);
  std::uint64_t batch[8];
  std::uint64_t out[8];
  while (next_out < 5000) {
    if (rng() % 2 == 0) {
      const std::size_t n = 1 + rng() % 8;
      for (std::size_t i = 0; i < n; ++i) batch[i] = next_in + i;
      next_in += ring.try_push_n(batch, n);
    } else if (ring.try_push(next_in)) {
      ++next_in;
    }
    if (rng() % 2 == 0) {
      const std::size_t n = ring.try_pop_n(out, 1 + rng() % 8);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], next_out);
        ++next_out;
      }
    } else if (ring.try_pop(out[0])) {
      ASSERT_EQ(out[0], next_out);
      ++next_out;
    }
  }
  EXPECT_EQ(ring.published() - ring.consumed(), next_in - next_out);
}

TEST(TileSpscRingStress, TwoThreadBatchedHandoff) {
  // Same FIFO-across-threads proof as TwoThreadHandoff, but both sides use
  // the batched calls (one release store per batch). TSan checks that the
  // single tail publication still orders every slot write in the batch.
  constexpr std::uint64_t kItems = 200'000;
  tile::SpscRing<std::uint64_t> ring(64);
  std::uint64_t sum = 0;
  std::thread consumer([&] {
    std::uint64_t expect = 0;
    std::uint64_t out[32];
    while (expect < kItems) {
      const std::size_t n = ring.try_pop_n(out, 32);
      if (n == 0) {
        std::this_thread::yield();
        continue;
      }
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], expect);
        sum += out[i];
        ++expect;
      }
    }
  });
  std::mt19937 rng(3);
  std::uint64_t batch[32];
  std::uint64_t next = 0;
  while (next < kItems) {
    std::size_t n = 1 + rng() % 32;
    if (n > kItems - next) n = static_cast<std::size_t>(kItems - next);
    for (std::size_t i = 0; i < n; ++i) batch[i] = next + i;
    std::size_t done = 0;
    while (done < n) {
      const std::size_t pushed = ring.try_push_n(batch + done, n - done);
      if (pushed == 0) std::this_thread::yield();
      done += pushed;
    }
    next += n;
  }
  consumer.join();
  EXPECT_EQ(sum, kItems * (kItems - 1) / 2);
  EXPECT_EQ(ring.published(), kItems);
  EXPECT_EQ(ring.consumed(), kItems);
}

// ------------------------------------------------------------ decode_batch

TEST(TileFrame, BusyAndStatsRoundtrip) {
  std::vector<std::uint8_t> bytes;
  tile::Response busy;
  busy.kind = tile::RespFrame::kBusy;
  busy.tag = 0xb0b0;
  busy.free_slots = 3;
  tile::encode_response(busy, bytes);

  tile::Response pong;
  pong.kind = tile::RespFrame::kPong;
  pong.tag = 0xfe;
  tile::encode_response(pong, bytes);

  tile::Response stats;
  stats.kind = tile::RespFrame::kStats;
  stats.stats.requests = 100;
  stats.stats.reads = 70;
  stats.stats.writes = 30;
  stats.stats.completions = 70;
  stats.stats.bytes_in = 2900;
  stats.stats.bytes_out = 3100;
  stats.stats.p50_read_latency = 120;
  stats.stats.p99_read_latency = 900;
  stats.stats.park_ns = 12345;
  tile::encode_response(stats, bytes);

  tile::FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  std::vector<tile::FrameView> views;
  ASSERT_EQ(reader.decode_batch(views), 3u);

  const auto b = tile::decode_response(views[0].data, views[0].len);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->kind, tile::RespFrame::kBusy);
  EXPECT_EQ(b->tag, 0xb0b0u);
  EXPECT_EQ(b->free_slots, 3u);

  const auto p = tile::decode_response(views[1].data, views[1].len);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->kind, tile::RespFrame::kPong);
  EXPECT_EQ(p->tag, 0xfeu);

  const auto s = tile::decode_response(views[2].data, views[2].len);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->kind, tile::RespFrame::kStats);
  EXPECT_EQ(s->stats.requests, 100u);
  EXPECT_EQ(s->stats.reads, 70u);
  EXPECT_EQ(s->stats.writes, 30u);
  EXPECT_EQ(s->stats.completions, 70u);
  EXPECT_EQ(s->stats.bytes_in, 2900u);
  EXPECT_EQ(s->stats.bytes_out, 3100u);
  EXPECT_EQ(s->stats.p50_read_latency, 120u);
  EXPECT_EQ(s->stats.p99_read_latency, 900u);
  EXPECT_EQ(s->stats.park_ns, 12345u);

  // Truncated payloads of all three kinds must decode to nullopt.
  EXPECT_FALSE(tile::decode_response(views[0].data, views[0].len - 1));
  EXPECT_FALSE(tile::decode_response(views[1].data, views[1].len - 1));
  EXPECT_FALSE(tile::decode_response(views[2].data, views[2].len - 1));
}

TEST(TileFrame, DecodeBatchFuzzRandomChops) {
  // Feed a long request stream in random-size chops and drain with
  // decode_batch after every feed. Whatever the chop points, the
  // concatenated batches must yield every frame once, in order, with
  // payloads intact (views are read against the expected encoding).
  for (unsigned round = 0; round < 8; ++round) {
    std::mt19937 rng(1000 + round);
    std::vector<std::uint8_t> bytes;
    const std::uint64_t frames = 500 + rng() % 500;
    for (std::uint64_t i = 0; i < frames; ++i) {
      tile::Request req;
      switch (rng() % 5) {
        case 0: req.kind = tile::ReqFrame::kRead; break;
        case 1: req.kind = tile::ReqFrame::kWrite; break;
        case 2: req.kind = tile::ReqFrame::kFlush; break;
        case 3: req.kind = tile::ReqFrame::kPing; break;
        default: req.kind = tile::ReqFrame::kQuit; break;
      }
      req.addr = rng();
      req.tag = i;
      req.not_before = rng() % 1024;
      tile::encode_request(req, bytes);
    }
    // Reference split of the same stream, one frame at a time.
    std::vector<std::vector<std::uint8_t>> expect;
    {
      tile::FrameReader ref;
      ref.feed(bytes.data(), bytes.size());
      std::vector<std::uint8_t> payload;
      while (ref.next(payload)) expect.push_back(payload);
    }
    ASSERT_EQ(expect.size(), frames);

    tile::FrameReader reader;
    std::vector<tile::FrameView> views;
    std::size_t off = 0, seen = 0;
    while (off < bytes.size()) {
      std::size_t chunk = 1 + rng() % 37;
      if (chunk > bytes.size() - off) chunk = bytes.size() - off;
      reader.feed(bytes.data() + off, chunk);
      off += chunk;
      reader.decode_batch(views);
      for (const tile::FrameView& v : views) {
        ASSERT_LT(seen, expect.size());
        ASSERT_EQ(v.len, expect[seen].size());
        ASSERT_EQ(std::memcmp(v.data, expect[seen].data(), v.len), 0);
        ++seen;
      }
    }
    EXPECT_EQ(seen, frames);
    EXPECT_LT(reader.buffered_bytes(), 256u);  // compaction still bounded
  }
}

TEST(TileFrame, DecodeBatchRejectsOversizedMidBatch) {
  // Two good frames, then a hostile length prefix, then another good frame.
  // decode_batch must surface the good frames *before* the bad prefix (the
  // front tier acks them) and then throw; the views already emitted stay
  // valid because only feed() moves the buffer.
  std::vector<std::uint8_t> bytes;
  for (std::uint64_t i = 0; i < 2; ++i) {
    tile::Request req;
    req.kind = tile::ReqFrame::kRead;
    req.addr = 0x1000 + i;
    req.tag = i;
    tile::encode_request(req, bytes);
  }
  tile::wire::put_u32(bytes, 0x7fffffff);  // oversized length prefix
  {
    tile::Request req;
    req.kind = tile::ReqFrame::kQuit;
    tile::encode_request(req, bytes);
  }

  tile::FrameReader reader(/*max_frame=*/1024);
  reader.feed(bytes.data(), bytes.size());
  std::vector<tile::FrameView> views;
  bool threw = false;
  try {
    reader.decode_batch(views);
  } catch (const std::runtime_error&) {
    threw = true;
  }
  EXPECT_TRUE(threw);
  ASSERT_EQ(views.size(), 2u);
  for (std::uint64_t i = 0; i < 2; ++i) {
    const auto got = tile::decode_request(views[i].data, views[i].len);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->addr, 0x1000 + i);
    EXPECT_EQ(got->tag, i);
  }
}

// ----------------------------------------------------- multi-client front

/// What one harness client observed on the wire (no gtest assertions in
/// client threads — errors are collected and asserted on the main thread).
struct FrontOutcome {
  std::uint64_t write_acks = 0;
  std::uint64_t read_done = 0;
  std::uint64_t busy_frames = 0;
  std::uint64_t flush_cycles = 0;  // designated client only
  bool got_stats = false;
  tile::ClientStatsWire stats;
  bool ok = true;
  std::string err;
};

/// One harness client: streams its partition in randomized chunks while
/// draining responses, then fences with a 'P' ping (the pong proves every
/// request was admitted into the shard rings, not just written to the
/// socket). The designated client issues the single global flush only once
/// every client's pong arrived; everyone quits only after the flush
/// completed (a flush overtaking still-buffered traffic would perturb the
/// channel clocks and break byte-identity with the single-stream reference).
void front_client_body(int fd, const std::vector<std::uint8_t>& stream,
                       bool designated, unsigned seed, unsigned nclients,
                       std::size_t chunk_max, std::atomic<unsigned>& admitted,
                       std::atomic<bool>& flushed, FrontOutcome& res) {
  std::mt19937 rng(seed);
  tile::FrameReader reader;
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> pending = stream;
  std::size_t sent = 0;
  bool sent_ping = false, sent_flush = false, sent_quit = false;
  std::uint8_t rbuf[4096];
  const auto fail = [&](const std::string& what) {
    res.ok = false;
    res.err = what;
  };

  while (res.ok) {
    if (sent == pending.size()) {
      if (!sent_ping) {
        tile::Request p;
        p.kind = tile::ReqFrame::kPing;
        p.tag = 0xfeu;
        tile::encode_request(p, pending);
        sent_ping = true;
      } else if (designated && !sent_flush &&
                 admitted.load(std::memory_order_acquire) == nclients) {
        tile::Request f;
        f.kind = tile::ReqFrame::kFlush;
        f.tag = 0xf1u;
        tile::encode_request(f, pending);
        sent_flush = true;
      } else if (!sent_quit && flushed.load(std::memory_order_acquire)) {
        tile::Request q;
        q.kind = tile::ReqFrame::kQuit;
        tile::encode_request(q, pending);
        sent_quit = true;
      }
    }
    pollfd pfd{fd, POLLIN, 0};
    if (sent < pending.size()) pfd.events |= POLLOUT;
    const int pr = ::poll(&pfd, 1, 20);
    if (pr < 0) {
      if (errno == EINTR) continue;
      fail(std::string("poll: ") + std::strerror(errno));
      break;
    }
    if (pr == 0) continue;  // timeout: re-check the flush/quit conditions
    if ((pfd.revents & POLLOUT) && sent < pending.size()) {
      std::size_t chunk = 1 + rng() % chunk_max;
      if (chunk > pending.size() - sent) chunk = pending.size() - sent;
      const ssize_t n = ::send(fd, pending.data() + sent, chunk, MSG_DONTWAIT);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
      } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                 errno != EINTR) {
        fail(std::string("send: ") + std::strerror(errno));
        break;
      }
    }
    if (!(pfd.revents & (POLLIN | POLLHUP | POLLERR))) continue;
    const ssize_t n = ::read(fd, rbuf, sizeof(rbuf));
    if (n < 0) {
      if (errno == EINTR) continue;
      fail(std::string("read: ") + std::strerror(errno));
      break;
    }
    if (n == 0) {
      if (!res.got_stats) fail("connection closed before the stats frame");
      break;
    }
    reader.feed(rbuf, static_cast<std::size_t>(n));
    while (reader.next(payload)) {
      const auto resp = tile::decode_response(payload.data(), payload.size());
      if (!resp) {
        fail("malformed response frame");
        break;
      }
      switch (resp->kind) {
        case tile::RespFrame::kWriteAck: ++res.write_acks; break;
        case tile::RespFrame::kReadDone: ++res.read_done; break;
        case tile::RespFrame::kBusy: ++res.busy_frames; break;
        case tile::RespFrame::kPong:
          admitted.fetch_add(1, std::memory_order_acq_rel);
          break;
        case tile::RespFrame::kFlushDone:
          res.flush_cycles = resp->mem_cycles;
          flushed.store(true, std::memory_order_release);
          break;
        case tile::RespFrame::kStats:
          res.got_stats = true;
          res.stats = resp->stats;
          break;
        case tile::RespFrame::kError:
          fail("server error frame: " + resp->error);
          break;
      }
    }
  }
}

struct FrontHarnessResult {
  std::vector<FrontOutcome> outcomes;
  std::vector<std::uint64_t> want_reads, want_writes;
  sim::RunResult served;
  tile::ShardedRunResult ref;
  tile::FrontTier::Totals totals;
};

/// Runs `nclients` concurrent socketpair clients against a live FrontTier
/// and diffs the final merged state against the serial single-stream
/// reference. Traffic is partitioned by channel ownership (client owns the
/// channels with ch % nclients == client), so each channel sees the master
/// trace's exact per-channel subsequence whatever the client interleaving.
FrontHarnessResult run_front_harness(std::uint64_t shards,
                                     bool worker_threads,
                                     std::size_t ring_capacity,
                                     unsigned nclients, std::uint64_t ops,
                                     std::size_t chunk_max) {
  FrontHarnessResult r;
  const sys::SystemConfig cfg = with_channels(
      sys::fgnvm_config(8, 32), std::max<std::uint64_t>(4, nclients));

  trace::WorkloadProfile profile;
  profile.name = "front_harness";
  profile.write_fraction = 0.3;
  profile.seed = 23;
  const trace::Trace tr = trace::generate_trace(profile, ops);

  const mem::AddressDecoder decoder(cfg.geometry, cfg.mapping);
  std::vector<std::vector<std::uint8_t>> streams(nclients);
  r.want_reads.assign(nclients, 0);
  r.want_writes.assign(nclients, 0);
  for (std::size_t i = 0; i < tr.records.size(); ++i) {
    const auto& rec = tr.records[i];
    const unsigned owner =
        static_cast<unsigned>(decoder.decode(rec.addr).channel % nclients);
    tile::Request req;
    req.kind = rec.op == OpType::kRead ? tile::ReqFrame::kRead
                                       : tile::ReqFrame::kWrite;
    req.addr = rec.addr;
    req.tag = i;
    tile::encode_request(req, streams[owner]);
    ++(rec.op == OpType::kRead ? r.want_reads : r.want_writes)[owner];
  }

  tile::TopologyConfig tcfg;
  tcfg.shards = shards;
  tcfg.worker_threads = worker_threads;
  tcfg.ring_capacity = ring_capacity;
  tile::Topology topo(cfg, tcfg);
  topo.start();

  tile::FrontTier::Config fcfg;
  fcfg.exit_when_idle = true;
  tile::FrontTier front(topo, fcfg);

  std::vector<int> client_fds(nclients, -1);
  for (unsigned c = 0; c < nclients; ++c) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      throw std::runtime_error("socketpair failed");
    }
    front.add_client(sv[0]);
    client_fds[c] = sv[1];
  }

  std::thread server([&] { front.run(); });
  std::atomic<unsigned> admitted{0};
  std::atomic<bool> flushed{false};
  r.outcomes.resize(nclients);
  std::vector<std::thread> client_threads;
  client_threads.reserve(nclients);
  for (unsigned c = 0; c < nclients; ++c) {
    client_threads.emplace_back([&, c] {
      front_client_body(client_fds[c], streams[c], /*designated=*/c == 0,
                        /*seed=*/777u + c, nclients, chunk_max, admitted,
                        flushed, r.outcomes[c]);
    });
  }
  for (auto& th : client_threads) th.join();
  bool all_ok = true;
  for (unsigned c = 0; c < nclients; ++c) {
    if (!r.outcomes[c].ok) all_ok = false;
    ::close(client_fds[c]);
  }
  if (!all_ok) front.stop();  // a dead client may leave the tier serving
  server.join();

  r.totals = front.totals();
  r.served = topo.finish(tr.name);

  tile::TopologyConfig ref_cfg;
  ref_cfg.shards = 1;
  ref_cfg.worker_threads = false;
  r.ref = tile::run_sharded(tr, cfg, ref_cfg);
  return r;
}

/// Shared assertions: clean clients, exact per-client completion routing,
/// QoS stats isolation, and a clean diff against the serial reference.
void check_front_harness(const FrontHarnessResult& r) {
  for (std::size_t c = 0; c < r.outcomes.size(); ++c) {
    const FrontOutcome& o = r.outcomes[c];
    ASSERT_TRUE(o.ok) << "client " << c << ": " << o.err;
    // Routing: every completion went to the socket that issued the read.
    EXPECT_EQ(o.read_done, r.want_reads[c]) << "client " << c;
    EXPECT_EQ(o.write_acks, r.want_writes[c]) << "client " << c;
    // QoS isolation: the S frame accounts for exactly this client's
    // traffic, not the merged stream.
    ASSERT_TRUE(o.got_stats) << "client " << c;
    EXPECT_EQ(o.stats.requests, r.want_reads[c] + r.want_writes[c]);
    EXPECT_EQ(o.stats.reads, r.want_reads[c]);
    EXPECT_EQ(o.stats.writes, r.want_writes[c]);
    EXPECT_EQ(o.stats.completions, r.want_reads[c]);
    if (r.want_reads[c] > 0) {
      EXPECT_GT(o.stats.p99_read_latency, 0u);
      EXPECT_LE(o.stats.p50_read_latency, o.stats.p99_read_latency);
    }
  }
  EXPECT_EQ(r.outcomes[0].flush_cycles, r.served.mem_cycles);
  EXPECT_EQ(sim::diff_results(r.served, r.ref.run), "");
  EXPECT_EQ(r.totals.clients_served, r.outcomes.size());
  EXPECT_EQ(r.totals.protocol_errors, 0u);
  EXPECT_EQ(r.totals.completions_dropped, 0u);
}

TEST(TileFrontMultiClient, EightClientsThreadedRoutesAndDiffsClean) {
  check_front_harness(
      run_front_harness(/*shards=*/4, /*worker_threads=*/true,
                        /*ring_capacity=*/1024, /*nclients=*/8,
                        /*ops=*/2000, /*chunk_max=*/256));
}

TEST(TileFrontMultiClient, EightClientsSerialInlineShards) {
  check_front_harness(
      run_front_harness(/*shards=*/2, /*worker_threads=*/false,
                        /*ring_capacity=*/1024, /*nclients=*/8,
                        /*ops=*/1500, /*chunk_max=*/256));
}

TEST(TileFrontMultiClient, BackpressureParksAndStaysDiffClean) {
  // Tiny rings + large client chunks: a single recv() decodes a batch far
  // larger than a ring, so the tier must park the client, emit 'B', and
  // re-admit the held tail in order. One client keeps the global flush
  // strictly after every admission (its own stream is processed in order),
  // so the run stays byte-identical to the reference under backpressure.
  // Serial shards make the parks deterministic: rings drain only via the
  // event loop's pump, so an over-ring batch always rejects its tail.
  const FrontHarnessResult r =
      run_front_harness(/*shards=*/2, /*worker_threads=*/false,
                        /*ring_capacity=*/8, /*nclients=*/1,
                        /*ops=*/1500, /*chunk_max=*/4096);
  check_front_harness(r);
  EXPECT_GT(r.totals.parks, 0u);
  // At most (exactly) one 'B' frame per park episode, delivered to the
  // one client that was parked.
  EXPECT_EQ(r.totals.busy_frames, r.totals.parks);
  EXPECT_EQ(r.outcomes[0].busy_frames, r.totals.busy_frames);
}

}  // namespace
