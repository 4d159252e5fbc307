// Determinism matrix for the parallel live-analysis pipeline: a session
// running its consumers on drain workers (-pipeline parallel) must produce
// byte-identical tool state to the serial reference dispatch — for every
// tool combination, on every workload, under injected guest traps, and with
// the ring squeezed down to one single-event batch (pure backpressure).
// The pipeline is only allowed to change *when* accounting runs, never what
// it accumulates.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gprofsim/gprof_tool.hpp"
#include "quad/quad_tool.hpp"
#include "session/session.hpp"
#include "support/metrics.hpp"
#include "support/paged_memory.hpp"
#include "support/spsc_ring.hpp"
#include "trace/trace.hpp"
#include "tquad/tquad_tool.hpp"
#include "vm/machine.hpp"
#include "workloads/registry.hpp"
#include "workloads/workloads.hpp"

#include "session_tool_compare.hpp"

namespace tq::session {
namespace {

constexpr std::uint64_t kSlice = 1000;
constexpr std::uint64_t kSamplePeriod = 700;

/// Which consumers ride the session (bit i of the matrix loop).
struct ToolMask {
  bool tquad = false;
  bool quad = false;
  bool gprof = false;
  bool trace = false;
};

constexpr ToolMask kAllTools{true, true, true, true};

PipelineOptions parallel_options(unsigned workers, std::size_t batch_events = 256,
                                 std::size_t ring_batches = 2,
                                 unsigned access_shards = 0) {
  PipelineOptions options;
  options.mode = PipelineMode::kParallel;
  options.workers = workers;
  options.batch_events = batch_events;
  // Above the default ceiling (the starting size), so the forced grow and
  // cycle schedules of the tier-1 stress legs still resize every lane.
  options.batch_events_max = 8 * batch_events;
  options.ring_batches = ring_batches;
  options.access_shards = access_shards;
  return options;
}

/// Pin the transport exactly at the configured sizes: no batch resizing
/// (min == max == start, so every controller policy — including one forced
/// via TQ_PIPELINE_FORCE_ADAPTIVE — is a clamped no-op) and no ring growth.
/// The backpressure-torture tests need this: their point is a ring that
/// stays squeezed.
PipelineOptions pin_transport(PipelineOptions options) {
  options.batch_events_min = options.batch_events;
  options.batch_events_max = options.batch_events;
  options.ring_batches_max = options.ring_batches;
  return options;
}

/// Scoped removal of TQ_PIPELINE_FORCE_ADAPTIVE, for tests that assert the
/// stats of one specific controller schedule (tier1 replays this whole
/// binary with the knob set; those runs must not flip a pinned schedule).
class ForceAdaptiveEnvGuard {
 public:
  ForceAdaptiveEnvGuard() {
    const char* value = std::getenv(kName);
    if (value != nullptr) {
      saved_ = value;
      had_value_ = true;
    }
    ::unsetenv(kName);
  }
  ~ForceAdaptiveEnvGuard() {
    if (had_value_) ::setenv(kName, saved_.c_str(), 1);
  }

 private:
  static constexpr const char* kName = "TQ_PIPELINE_FORCE_ADAPTIVE";
  std::string saved_;
  bool had_value_ = false;
};

/// One session plus the masked subset of consumers.
struct SessionRun {
  SessionRun(const vm::Program& program, const SessionConfig& config, ToolMask mask)
      : session(program, config) {
    if (mask.tquad) {
      tquad_tool.emplace(program,
                         tquad::Options{.slice_interval = kSlice,
                                        .library_policy = config.library_policy});
      session.add_consumer(*tquad_tool);
    }
    if (mask.quad) {
      quad_tool.emplace(program, quad::QuadOptions{config.library_policy});
      session.add_consumer(*quad_tool);
    }
    if (mask.gprof) {
      gprof::Options options;
      options.sample_period = kSamplePeriod;
      options.library_policy = config.library_policy;
      gprof_tool.emplace(program, options);
      session.add_consumer(*gprof_tool);
    }
    if (mask.trace) {
      recorder.emplace(program, config.library_policy, trace::TraceFormat::kV2);
      session.add_consumer(*recorder);
    }
  }

  ProfileSession session;
  std::optional<tquad::TQuadTool> tquad_tool;
  std::optional<quad::QuadTool> quad_tool;
  std::optional<gprof::GprofTool> gprof_tool;
  std::optional<trace::TraceRecorder> recorder;
};

/// Compare every tool the parallel run carried against the serial reference.
/// `serial_trace` is the reference trace taken once (take_encoded consumes).
void expect_matches_serial(SessionRun& serial, const std::vector<std::uint8_t>& serial_trace,
                           SessionRun& parallel, ToolMask mask) {
  if (mask.tquad) {
    testutil::expect_tquad_equal(*serial.tquad_tool, *parallel.tquad_tool);
  }
  if (mask.quad) {
    testutil::expect_quad_equal(*serial.quad_tool, *parallel.quad_tool);
  }
  if (mask.gprof) {
    testutil::expect_gprof_equal(*serial.gprof_tool, *parallel.gprof_tool);
  }
  if (mask.trace) {
    EXPECT_EQ(serial_trace, parallel.recorder->take_encoded());
  }
}

/// One fresh guest execution's inputs, built from the workload registry.
/// Each Instance is single-shot: the host accumulates guest output.
workloads::Instance make_guest(const std::string& name) {
  return workloads::find_workload(name).build();
}

/// Serial all-tools reference for one workload, run once per test.
struct Reference {
  explicit Reference(const std::string& name) : guest(make_guest(name)) {
    run.emplace(guest.program, SessionConfig{}, kAllTools);
    outcome = run->session.run_live(guest.host);
    trace = run->recorder->take_encoded();
  }

  workloads::Instance guest;
  std::optional<SessionRun> run;
  vm::RunOutcome outcome;
  std::vector<std::uint8_t> trace;
};

// ---------------------------------------------------------------------------
// Full tool-combination matrix: 15 non-empty consumer subsets per workload,
// one test per registered memory shape.

class PipelineMatrixZoo : public ::testing::TestWithParam<std::string> {};

TEST_P(PipelineMatrixZoo, ParallelEqualsSerial) {
  Reference ref(GetParam());
  for (unsigned bits = 1; bits < 16; ++bits) {
    const ToolMask mask{(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0,
                        (bits & 8) != 0};
    SCOPED_TRACE("tool mask bits=" + std::to_string(bits));
    workloads::Instance guest = make_guest(GetParam());
    ASSERT_EQ(ref.guest.program.serialize(), guest.program.serialize());
    SessionConfig config;
    config.pipeline = parallel_options(/*workers=*/3, /*batch_events=*/256,
                                       /*ring_batches=*/2, /*access_shards=*/3);
    SessionRun run(guest.program, config, mask);
    const vm::RunOutcome outcome = run.session.run_live(guest.host);
    EXPECT_EQ(outcome.status, ref.outcome.status);
    EXPECT_EQ(outcome.retired, ref.outcome.retired);
    EXPECT_GT(run.session.pipeline_stats().batches_published, 0u);
    expect_matches_serial(*ref.run, ref.trace, run, mask);
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, PipelineMatrixZoo,
                         ::testing::ValuesIn(workloads::workload_names()),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// Fault-tolerance parity: a guest trap mid-run must drain the rings and
// leave exactly the serial trapped run's state (the PR 3 PARTIAL contract
// survives the thread hop).

class PipelineFaultZoo : public ::testing::TestWithParam<std::string> {};

TEST_P(PipelineFaultZoo, TrapParityUnderParallelDispatch) {
  workloads::Instance probe = make_guest(GetParam());
  vm::Machine machine(probe.program, probe.host);
  const std::uint64_t total = machine.run().retired;
  ASSERT_GT(total, 2u);
  const std::uint64_t cut = total / 2;

  SessionConfig fault_config;
  fault_config.fault_plan.trap_at_retired = cut;

  workloads::Instance serial_guest = make_guest(GetParam());
  SessionRun serial(serial_guest.program, fault_config, kAllTools);
  const vm::RunOutcome serial_outcome = serial.session.run_live(serial_guest.host);
  ASSERT_EQ(serial_outcome.status, vm::RunStatus::kTrapped);
  ASSERT_EQ(serial_outcome.retired, cut);
  const std::vector<std::uint8_t> serial_trace = serial.recorder->take_encoded();

  workloads::Instance parallel_guest = make_guest(GetParam());
  SessionConfig parallel_config = fault_config;
  parallel_config.pipeline = parallel_options(/*workers=*/3, /*batch_events=*/64,
                                              /*ring_batches=*/2,
                                              /*access_shards=*/2);
  SessionRun parallel(parallel_guest.program, parallel_config, kAllTools);
  const vm::RunOutcome outcome = parallel.session.run_live(parallel_guest.host);
  ASSERT_EQ(outcome.status, vm::RunStatus::kTrapped);
  ASSERT_EQ(outcome.retired, cut);

  // The drain barrier ran before on_finish: every tool saw the trap outcome.
  EXPECT_EQ(parallel.tquad_tool->outcome().status, vm::RunStatus::kTrapped);
  EXPECT_EQ(parallel.quad_tool->outcome().status, vm::RunStatus::kTrapped);
  EXPECT_EQ(parallel.gprof_tool->outcome().status, vm::RunStatus::kTrapped);

  expect_matches_serial(serial, serial_trace, parallel, kAllTools);
}

INSTANTIATE_TEST_SUITE_P(Zoo, PipelineFaultZoo,
                         ::testing::ValuesIn(workloads::workload_names()),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// Backpressure torture: ring capacity 1 batch of 1 event makes the VM thread
// block on nearly every publish. Throughput dies; the reports must not care.

class PipelineBackpressureZoo : public ::testing::TestWithParam<std::string> {};

TEST_P(PipelineBackpressureZoo, CapacityOneParity) {
  Reference ref(GetParam());
  workloads::Instance guest = make_guest(GetParam());
  SessionConfig config;
  config.pipeline = pin_transport(parallel_options(
      /*workers=*/2, /*batch_events=*/1, /*ring_batches=*/1,
      /*access_shards=*/2));
  SessionRun run(guest.program, config, kAllTools);
  const vm::RunOutcome outcome = run.session.run_live(guest.host);
  EXPECT_EQ(outcome.status, ref.outcome.status);
  EXPECT_EQ(outcome.retired, ref.outcome.retired);
  expect_matches_serial(*ref.run, ref.trace, run, kAllTools);

  // Single-event batches in depth-1 rings: the publisher must have hit a
  // full ring at least once on any workload with thousands of events.
  const PipelineStats stats = run.session.pipeline_stats();
  EXPECT_GT(stats.batches_published, 0u);
  EXPECT_GT(stats.backpressure_waits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Zoo, PipelineBackpressureZoo,
                         ::testing::ValuesIn(workloads::workload_names()),
                         [](const auto& info) { return info.param; });

// Backpressure under a trap: the abort/drain path with a full ring is the
// nastiest corner (publisher mid-push when the guest faults).
TEST(PipelineBackpressure, HistogramFaultCapacityOne) {
  workloads::Instance probe = make_guest("histogram");
  vm::Machine machine(probe.program, probe.host);
  const std::uint64_t cut = machine.run().retired / 2;
  ASSERT_GT(cut, 0u);

  SessionConfig fault_config;
  fault_config.fault_plan.trap_at_retired = cut;
  workloads::Instance serial_guest = make_guest("histogram");
  SessionRun serial(serial_guest.program, fault_config, kAllTools);
  ASSERT_EQ(serial.session.run_live(serial_guest.host).status,
            vm::RunStatus::kTrapped);
  const std::vector<std::uint8_t> serial_trace = serial.recorder->take_encoded();

  SessionConfig parallel_config = fault_config;
  parallel_config.pipeline = pin_transport(parallel_options(
      /*workers=*/2, /*batch_events=*/1, /*ring_batches=*/1,
      /*access_shards=*/2));
  workloads::Instance parallel_guest = make_guest("histogram");
  SessionRun parallel(parallel_guest.program, parallel_config, kAllTools);
  const vm::RunOutcome outcome = parallel.session.run_live(parallel_guest.host);
  ASSERT_EQ(outcome.status, vm::RunStatus::kTrapped);
  ASSERT_EQ(outcome.retired, cut);
  expect_matches_serial(serial, serial_trace, parallel, kAllTools);
}

// ---------------------------------------------------------------------------
// QUAD shard sweep: every shard count must merge back to the serial answer
// (matmul naive has the richest producer/consumer binding structure).

TEST(PipelineShards, MatmulShardSweep) {
  Reference ref("matmul_naive");
  for (unsigned shards = 1; shards <= 4; ++shards) {
    SCOPED_TRACE("access_shards=" + std::to_string(shards));
    workloads::Instance guest = make_guest("matmul_naive");
    SessionConfig config;
    config.pipeline = parallel_options(/*workers=*/2, /*batch_events=*/128,
                                       /*ring_batches=*/2, shards);
    SessionRun run(guest.program, config, kAllTools);
    run.session.run_live(guest.host);
    expect_matches_serial(*ref.run, ref.trace, run, kAllTools);
  }
}

// Worker-count sweep, including more workers than lanes (the pipeline clamps)
// and the auto (0 = hardware concurrency) setting.
TEST(PipelineShards, WorkerSweep) {
  Reference ref("histogram");
  for (unsigned workers : {0u, 1u, 2u, 8u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    workloads::Instance guest = make_guest("histogram");
    SessionConfig config;
    config.pipeline = parallel_options(workers);
    SessionRun run(guest.program, config, kAllTools);
    run.session.run_live(guest.host);
    expect_matches_serial(*ref.run, ref.trace, run, kAllTools);
  }
}

// ---------------------------------------------------------------------------
// Direct unit for the sharded-consumer contract: feeding QuadTool's shard
// facet a split page-crossing access (count_access on the first piece only)
// and merging must equal the serial on_access of the unsplit access.

TEST(PipelineShards, QuadShardedFacetSplitAccess) {
  static const auto artifacts = workloads::build_stream(16, 1);
  const vm::Program& program = artifacts.program;
  constexpr std::uint64_t kPage = 1ull << PagedMemory::kPageBits;
  constexpr unsigned kShards = 3;

  quad::QuadTool serial(program);
  quad::QuadTool sharded(program);
  EXPECT_EQ(sharded.shard_count(), 1u);
  sharded.prepare_shards(kShards);
  EXPECT_EQ(sharded.shard_count(), kShards);

  const auto shard_of = [](std::uint64_t ea) {
    return static_cast<unsigned>((ea >> PagedMemory::kPageBits) % kShards);
  };
  const auto feed = [&](AccessEvent event) {
    serial.on_access(event);
    // Mirror the router: split per page, count_access on the first piece.
    std::uint64_t cursor = event.ea;
    std::uint32_t remaining = event.size;
    bool first = true;
    while (remaining > 0) {
      const std::uint64_t page_end =
          ((cursor >> PagedMemory::kPageBits) + 1) << PagedMemory::kPageBits;
      AccessEvent piece = event;
      piece.ea = cursor;
      piece.size = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(remaining, page_end - cursor));
      sharded.apply_access_shard(shard_of(cursor), piece, first);
      first = false;
      cursor += piece.size;
      remaining -= piece.size;
    }
  };

  // Writer kernel 0 produces across a page boundary; reader kernel 1
  // consumes the same bytes (also split), creating a 0→1 binding whose byte
  // and unique-address counts must survive the split + merge exactly.
  AccessEvent write;
  write.func = 0;
  write.kernel = 0;
  write.ea = 3 * kPage - 4;
  write.size = 8;  // crosses from page 2 into page 3
  write.is_read = false;
  feed(write);

  AccessEvent read = write;
  read.func = 1;
  read.kernel = 1;
  read.is_read = true;
  feed(read);

  // Same-page accesses land whole in their shard.
  AccessEvent aligned = write;
  aligned.ea = 7 * kPage + 64;
  aligned.size = 8;
  feed(aligned);
  AccessEvent aligned_read = aligned;
  aligned_read.kernel = 1;
  aligned_read.func = 1;
  aligned_read.is_read = true;
  feed(aligned_read);

  sharded.merge_shards();
  EXPECT_EQ(sharded.shard_count(), 1u);
  testutil::expect_quad_equal(serial, sharded);
  EXPECT_EQ(serial.binding_bytes(0, 1), 16u);
  EXPECT_EQ(sharded.binding_bytes(0, 1), 16u);
}

// ---------------------------------------------------------------------------
// Replay through the parallel pipeline: a recorded trace replayed with
// parallel dispatch equals the live serial run that produced it.

// ---------------------------------------------------------------------------
// Push racing close is a defined outcome (drop + count), not an abort. This
// is the TSan regression for the teardown path: a producer hammering the
// ring while another thread closes it must terminate with every accepted
// value delivered and every rejected one counted.

TEST(PipelineShutdown, PushRacingCloseStress) {
  for (int round = 0; round < 50; ++round) {
    SpscRing<int> ring(2);
    std::atomic<std::uint64_t> accepted{0};
    std::thread producer([&] {
      for (int i = 0; i < 1000; ++i) {
        if (ring.push(i)) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        } else {
          return;  // closed under us: stop publishing, nothing lost silently
        }
      }
    });
    std::thread consumer([&] {
      int out = 0;
      std::uint64_t popped = 0;
      while (!ring.done()) {
        if (ring.try_pop(out)) {
          ++popped;
        } else {
          std::this_thread::yield();
        }
      }
      // Every accepted push is eventually popped; pops never exceed accepts.
      EXPECT_LE(popped, 1000u);
    });
    ring.close();  // race the close against both sides
    producer.join();
    consumer.join();
    EXPECT_EQ(ring.pushes(), accepted.load());
    EXPECT_LE(ring.dropped_after_close(), 1u);  // at most the racing push
  }
}

// A producer parked on a full ring during close must wake and report the
// drop instead of deadlocking (the latent teardown hang this PR fixes).
TEST(PipelineShutdown, CloseReleasesBlockedPublisher) {
  SpscRing<int> ring(1);
  ASSERT_TRUE(ring.push(0));
  std::thread producer([&] { EXPECT_FALSE(ring.push(1)); });
  while (ring.push_waits() == 0) std::this_thread::yield();
  ring.close();
  producer.join();
  EXPECT_EQ(ring.stats().dropped_after_close, 1u);
}

// ---------------------------------------------------------------------------
// Metrics parity: attaching a registry must not change any tool state, and
// the drain-barrier fold must account for every published batch.

TEST(PipelineMetrics, RegistryAttachedKeepsParityAndCountsBatches) {
  Reference ref("histogram");
  workloads::Instance guest = make_guest("histogram");
  metrics::Registry registry;
  SessionConfig config;
  config.metrics = &registry;
  config.pipeline = parallel_options(/*workers=*/2, /*batch_events=*/64,
                                     /*ring_batches=*/2, /*access_shards=*/2);
  SessionRun run(guest.program, config, kAllTools);
  const vm::RunOutcome outcome = run.session.run_live(guest.host);
  EXPECT_EQ(outcome.retired, ref.outcome.retired);
  expect_matches_serial(*ref.run, ref.trace, run, kAllTools);

  const metrics::Snapshot snap = registry.snapshot();
  const auto counter = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [key, value] : snap.counters) {
      if (key == name) return value;
    }
    ADD_FAILURE() << "missing counter " << name;
    return 0;
  };
  EXPECT_EQ(counter("pipeline.batches_published"),
            run.session.pipeline_stats().batches_published);
  // Every flush consults the freelist exactly once (hit or miss) before its
  // push is accepted, so on a clean run the two sides tie out.
  EXPECT_EQ(counter("pipeline.freelist.hits") +
                counter("pipeline.freelist.misses"),
            counter("pipeline.batches_published"));
  // The adaptive counters are always published, even when zero.
  EXPECT_EQ(counter("pipeline.batch.grows"),
            run.session.pipeline_stats().batch_grows);
  EXPECT_EQ(counter("pipeline.batch.shrinks"),
            run.session.pipeline_stats().batch_shrinks);
  EXPECT_EQ(counter("pipeline.ring.capacity_grows"),
            run.session.pipeline_stats().ring_capacity_grows);
  EXPECT_EQ(counter("session.events.access"),
            run.session.attribution().event_counts().accesses);
  EXPECT_GT(counter("session.events.tick"), 0u);
  // Workers folded their sinks at the drain barrier: the per-worker batch
  // histogram saw every drained batch.
  bool found_hist = false;
  for (const auto& [key, hist] : snap.histograms) {
    if (key == "pipeline.worker.batch_events") {
      found_hist = true;
      EXPECT_GT(hist.count(), 0u);
    }
  }
  EXPECT_TRUE(found_hist);
}

// ---------------------------------------------------------------------------
// Adaptivity invariance: the batch controller may resize lanes however it
// likes — reports must stay byte-identical to serial. Forced schedules pin
// each controller branch so the assertions are deterministic; the EnvGuard
// keeps an outer TQ_PIPELINE_FORCE_ADAPTIVE (tier1 stress legs) from
// flipping the schedule under us.

TEST(PipelineAdaptive, ForcedGrowKeepsParityAndGrows) {
  ForceAdaptiveEnvGuard guard;
  Reference ref("histogram");
  workloads::Instance guest = make_guest("histogram");
  SessionConfig config;
  config.pipeline = parallel_options(/*workers=*/2, /*batch_events=*/8,
                                     /*ring_batches=*/2, /*access_shards=*/2);
  config.pipeline.adaptive = AdaptiveBatch::kForceGrow;
  config.pipeline.batch_events_max = 1024;
  SessionRun run(guest.program, config, kAllTools);
  const vm::RunOutcome outcome = run.session.run_live(guest.host);
  EXPECT_EQ(outcome.retired, ref.outcome.retired);
  expect_matches_serial(*ref.run, ref.trace, run, kAllTools);

  const PipelineStats stats = run.session.pipeline_stats();
  EXPECT_GT(stats.batch_grows, 0u);
  EXPECT_EQ(stats.batch_shrinks, 0u);
  // Recycled buffers come back through the freelist once the lanes warm up.
  EXPECT_GT(stats.freelist_hits, 0u);
}

TEST(PipelineAdaptive, ForcedShrinkKeepsParityAndShrinks) {
  ForceAdaptiveEnvGuard guard;
  Reference ref("histogram");
  workloads::Instance guest = make_guest("histogram");
  SessionConfig config;
  config.pipeline = parallel_options(/*workers=*/2, /*batch_events=*/256,
                                     /*ring_batches=*/2, /*access_shards=*/2);
  config.pipeline.adaptive = AdaptiveBatch::kForceShrink;
  SessionRun run(guest.program, config, kAllTools);
  const vm::RunOutcome outcome = run.session.run_live(guest.host);
  EXPECT_EQ(outcome.retired, ref.outcome.retired);
  expect_matches_serial(*ref.run, ref.trace, run, kAllTools);

  const PipelineStats stats = run.session.pipeline_stats();
  EXPECT_GT(stats.batch_shrinks, 0u);
  EXPECT_EQ(stats.batch_grows, 0u);
}

// By default the starting batch size is also the ceiling: a lane's buffers
// never outgrow it, so the run's peak memory does not depend on how deep
// the schedule queued batches. Even the forced grow schedule stays put.
TEST(PipelineAdaptive, DefaultCeilingIsTheStartingSize) {
  ForceAdaptiveEnvGuard guard;
  Reference ref("histogram");
  workloads::Instance guest = make_guest("histogram");
  SessionConfig config;
  config.pipeline.mode = PipelineMode::kParallel;
  config.pipeline.workers = 2;
  config.pipeline.batch_events = 64;
  config.pipeline.adaptive = AdaptiveBatch::kForceGrow;
  SessionRun run(guest.program, config, kAllTools);
  const vm::RunOutcome outcome = run.session.run_live(guest.host);
  EXPECT_EQ(outcome.retired, ref.outcome.retired);
  expect_matches_serial(*ref.run, ref.trace, run, kAllTools);

  const PipelineStats stats = run.session.pipeline_stats();
  EXPECT_GT(stats.batches_published, 0u);
  EXPECT_EQ(stats.batch_grows, 0u);
}

class PipelineAdaptiveZoo : public ::testing::TestWithParam<std::string> {};

// The nastiest transport: every lane cycling its batch size through the
// whole [min, max] range over a capacity-1 ring that is pinned so the
// auto-tuner cannot relieve the pressure. Pure adaptivity + backpressure.
TEST_P(PipelineAdaptiveZoo, ForcedCycleCapacityOneParity) {
  ForceAdaptiveEnvGuard guard;
  Reference ref(GetParam());
  workloads::Instance guest = make_guest(GetParam());
  SessionConfig config;
  config.pipeline = parallel_options(/*workers=*/2, /*batch_events=*/16,
                                     /*ring_batches=*/1, /*access_shards=*/2);
  config.pipeline.adaptive = AdaptiveBatch::kForceCycle;
  config.pipeline.batch_events_min = 1;
  config.pipeline.batch_events_max = 64;
  config.pipeline.ring_batches_max = 1;  // pin: no capacity relief
  SessionRun run(guest.program, config, kAllTools);
  const vm::RunOutcome outcome = run.session.run_live(guest.host);
  EXPECT_EQ(outcome.retired, ref.outcome.retired);
  expect_matches_serial(*ref.run, ref.trace, run, kAllTools);

  const PipelineStats stats = run.session.pipeline_stats();
  EXPECT_GT(stats.batch_grows, 0u);
  EXPECT_GT(stats.batch_shrinks, 0u);
  EXPECT_EQ(stats.ring_capacity_grows, 0u);
}

INSTANTIATE_TEST_SUITE_P(Zoo, PipelineAdaptiveZoo,
                         ::testing::ValuesIn(workloads::workload_names()),
                         [](const auto& info) { return info.param; });

TEST(PipelineReplay, StreamReplayParallel) {
  Reference ref("stream");

  SessionConfig config;
  config.pipeline = parallel_options(/*workers=*/3, /*batch_events=*/32,
                                     /*ring_batches=*/2, /*access_shards=*/3);
  SessionRun replayed(ref.guest.program, config, kAllTools);
  const vm::RunOutcome outcome = replayed.session.replay(ref.trace);
  EXPECT_EQ(outcome.retired, ref.outcome.retired);
  expect_matches_serial(*ref.run, ref.trace, replayed, kAllTools);
}

}  // namespace
}  // namespace tq::session
