// Stretch delivery against one-event-at-a-time delivery.
//
// KernelAttribution writes each run of access records under a stretch
// header; tQUAD and QUAD account a whole stretch at once
// (on_access_stretch), gprof skips it whole, and the parallel pipeline's
// shard readers walk the same headers. Each case feeds one scripted raw
// event stream — a stretch crossing a slice boundary, a prefetch, a
// zero-size access and a wide access (size > kMaxInlineSize) inside
// stretches, an unattributed stretch, and untracked library calls — through
// a KernelAttribution at several batch sizes, serial and parallel. Every
// tool must equal a twin fed the same attributed events one at a time
// through its on_* hooks, and every batch must be well formed.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "gasm/builder.hpp"
#include "session/attribution.hpp"
#include "session/pipeline.hpp"
#include "session_tool_compare.hpp"

namespace tq::session {
namespace {

using tquad::LibraryPolicy;

constexpr std::uint32_t kMain = 0;
constexpr std::uint32_t kKernA = 1;
constexpr std::uint32_t kKernB = 2;
constexpr std::uint32_t kLib = 3;
constexpr std::uint64_t kBuffer = vm::kGlobalBase;
constexpr std::uint64_t kWideAt = vm::kGlobalBase + 0x10'0000;
constexpr std::uint64_t kStackAt = vm::kStackBase - 0x100;

vm::Program make_program() {
  gasm::ProgramBuilder prog;
  prog.begin_function("main").halt();
  prog.begin_function("kern_a").ret();
  prog.begin_function("kern_b").ret();
  prog.begin_function("lib_copy", vm::ImageKind::kLibrary).ret();
  return prog.build("main");
}

/// One raw event, as an engine hands it to its vm::EventSink.
struct Step {
  enum Kind { kEnterStep, kTickStep, kAccessStep, kRetStep } kind;
  std::uint32_t func = 0;
  std::uint64_t retired = 0;  ///< a tick span's first instruction
  std::uint64_t count = 0;    ///< a tick span's length
  std::uint64_t ea = 0;
  std::uint32_t size = 0;
  bool is_read = false;
  bool is_stack = false;
  bool is_prefetch = false;
};

/// Builds a raw stream with a running retired counter.
class Script {
 public:
  void enter(std::uint32_t func) {
    steps_.push_back({.kind = Step::kEnterStep, .func = func, .retired = now_});
  }
  void ret(std::uint32_t func) {
    steps_.push_back({.kind = Step::kRetStep, .func = func, .retired = now_});
  }
  void ticks(std::uint32_t func, std::uint64_t count) {
    steps_.push_back({.kind = Step::kTickStep, .func = func, .retired = now_, .count = count});
    now_ += count;
  }
  /// One instruction of `func` with one access.
  void access(std::uint32_t func, std::uint64_t ea, std::uint32_t size, bool is_read,
              bool is_stack = false, bool is_prefetch = false) {
    steps_.push_back({.kind = Step::kAccessStep,
                      .func = func,
                      .retired = now_,
                      .ea = ea,
                      .size = size,
                      .is_read = is_read,
                      .is_stack = is_stack,
                      .is_prefetch = is_prefetch});
    ticks(func, 1);
  }
  const std::vector<Step>& steps() const { return steps_; }
  std::uint64_t retired() const { return now_; }

 private:
  std::vector<Step> steps_;
  std::uint64_t now_ = 0;
};

/// The edge-case stream. The slice is testutil::kSlice (1000).
Script edge_cases() {
  Script s;
  s.enter(kMain);
  s.ticks(kMain, 980);
  // A long stretch that crosses the slice boundary at 1000, with a
  // prefetch, a zero-size access and stack accesses inside it.
  for (std::uint32_t i = 0; i < 40; ++i) {
    const bool prefetch = i == 7;
    s.access(kMain, kBuffer + 8 * (i % 16), i == 12 ? 0 : 8, i % 3 != 0 || prefetch,
             i % 5 == 0 && !prefetch, prefetch);
  }
  // A producer, with a wide write in the middle of its stretch.
  s.enter(kKernA);
  for (std::uint32_t i = 0; i < 6; ++i) s.access(kKernA, kBuffer + 8 * i, 8, false);
  s.access(kKernA, kWideAt, kMaxInlineSize + 1, false);
  for (std::uint32_t i = 0; i < 6; ++i) s.access(kKernA, kStackAt + 4 * i, 4, i % 2 == 0, true);
  s.ret(kKernA);
  // A consumer of kern_a's bytes, calling an untracked library routine in
  // the middle of its reads: under kExclude the library's accesses form an
  // unattributed stretch, under kAttributeToCaller the top stays kern_b.
  s.enter(kKernB);
  for (std::uint32_t i = 0; i < 3; ++i) s.access(kKernB, kBuffer + 8 * i, 8, true);
  s.enter(kLib);
  for (std::uint32_t i = 0; i < 4; ++i) s.access(kLib, kBuffer + 64 + 8 * i, 8, i % 2 == 0);
  s.ticks(kLib, 5);
  s.ret(kLib);
  for (std::uint32_t i = 3; i < 6; ++i) s.access(kKernB, kBuffer + 8 * i, 8, true);
  s.access(kKernB, kWideAt + 4096, 4096, true);
  s.ret(kKernB);
  s.access(kMain, kBuffer, 16, true);
  return s;
}

vm::RunOutcome halted(std::uint64_t retired) {
  vm::RunOutcome outcome;
  outcome.retired = retired;
  return outcome;
}

/// Feed `script` into `attribution` and finish the run.
void play(const Script& script, KernelAttribution& attribution) {
  for (const Step& step : script.steps()) {
    switch (step.kind) {
      case Step::kEnterStep:
        attribution.on_enter(step.func, step.retired);
        break;
      case Step::kTickStep:
        attribution.on_tick_span(step.func, step.retired, step.count, step.count);
        break;
      case Step::kAccessStep:
        attribution.on_access(step.func, 0, step.retired, step.ea, step.size, step.is_read,
                              step.is_stack, step.is_prefetch);
        break;
      case Step::kRetStep:
        attribution.on_ret(step.func, 0, step.retired);
        break;
    }
  }
  attribution.input_finish(halted(script.retired()));
}

/// Every attributed event, in stream order, through the per-event hooks
/// (the default on_batch, so each access arrives through on_access).
class EventLog : public AnalysisConsumer {
 public:
  using Event = std::variant<EnterEvent, TickRunEvent, AccessEvent, RetEvent, std::uint64_t>;
  std::vector<Event> events;

  void on_kernel_enter(const EnterEvent& event) override { events.emplace_back(event); }
  void on_tick_run(const TickRunEvent& run) override { events.emplace_back(run); }
  void on_access(const AccessEvent& event) override { events.emplace_back(event); }
  void on_kernel_ret(const RetEvent& event) override { events.emplace_back(event); }
  void on_session_end(std::uint64_t total) override { events.emplace_back(total); }
};

/// Checks each batch's layout: access records only inside stretches, a
/// stretch's records all carry its kernel, no stretch is empty or runs past
/// the batch, and at most `batch_events` events per batch. Keeps each
/// stretch's kernel and access count.
class StretchCheck final : public AnalysisConsumer {
 public:
  struct Stretch {
    std::uint32_t kernel;
    std::size_t accesses;
  };
  explicit StretchCheck(std::size_t batch_events) : batch_events_(batch_events) {}

  std::vector<Stretch> stretches;

  unsigned event_interests() const override { return kAccessInterest; }
  void on_batch(unsigned, const Batch& batch) override {
    const Record* const begin = batch.records.get();
    const Record* const end = begin + batch.size;
    std::size_t events = 0;
    for (const Record* r = begin; r != end; ++r) {
      switch (r->tag & kKindMask) {
        case kStretch: {
          ASSERT_GT(r->b, 0u) << "empty stretch";
          ASSERT_LE(r->b, static_cast<std::size_t>(end - r - 1)) << "stretch past the batch";
          Stretch stretch{r->kernel, 0};
          for_each_access(stretch_of(r), [&](const Record& access, std::uint32_t) {
            EXPECT_EQ(access.tag & kKindMask, kAccess);
            EXPECT_EQ(access.kernel, r->kernel);
            ++stretch.accesses;
          });
          events += stretch.accesses;
          stretches.push_back(stretch);
          r += r->b;
          break;
        }
        case kAccess:
          ADD_FAILURE() << "access record outside a stretch";
          break;
        case kExtension:
          EXPECT_TRUE(r != begin && has(r[-1], kWide)) << "stray extension record";
          break;
        default:
          ++events;
      }
    }
    EXPECT_LE(events, batch_events_);
  }

 private:
  std::size_t batch_events_;
};

/// The three profilers under one policy.
struct Tools {
  Tools(const vm::Program& program, LibraryPolicy policy)
      : tquad(program, {.slice_interval = testutil::kSlice, .library_policy = policy}),
        quad(program, quad::QuadOptions{policy}),
        gprof(program, {.sample_period = 7, .library_policy = policy}) {}

  /// Feed the logged events one at a time through every tool's hooks.
  void replay(const EventLog& log, const vm::RunOutcome& outcome) {
    for (const EventLog::Event& event : log.events) {
      for (AnalysisConsumer* tool : consumers()) {
        if (const auto* e = std::get_if<EnterEvent>(&event)) tool->on_kernel_enter(*e);
        if (const auto* e = std::get_if<TickRunEvent>(&event)) tool->on_tick_run(*e);
        if (const auto* e = std::get_if<AccessEvent>(&event)) tool->on_access(*e);
        if (const auto* e = std::get_if<RetEvent>(&event)) tool->on_kernel_ret(*e);
        if (const auto* e = std::get_if<std::uint64_t>(&event)) tool->on_session_end(*e);
      }
    }
    for (AnalysisConsumer* tool : consumers()) tool->on_finish(outcome);
  }

  std::vector<AnalysisConsumer*> consumers() { return {&tquad, &quad, &gprof}; }

  tquad::TQuadTool tquad;
  quad::QuadTool quad;
  gprof::GprofTool gprof;
};

/// The accesses the log must hold: the script's, each under the kernel a
/// reference call stack fed the same entries and returns puts on top.
void expect_log_matches_script(const EventLog& log, const Script& script,
                               const vm::Program& program, LibraryPolicy policy) {
  tquad::CallStack stack(program, policy);
  std::vector<AccessEvent> logged;
  for (const EventLog::Event& event : log.events) {
    if (const auto* e = std::get_if<AccessEvent>(&event)) logged.push_back(*e);
  }
  std::size_t next = 0;
  for (const Step& step : script.steps()) {
    if (step.kind == Step::kEnterStep) stack.on_enter(step.func);
    if (step.kind == Step::kRetStep) stack.on_ret(step.func);
    if (step.kind != Step::kAccessStep) continue;
    ASSERT_LT(next, logged.size());
    const AccessEvent& got = logged[next++];
    EXPECT_EQ(got.kernel, stack.top());
    EXPECT_EQ(got.func, step.func);
    EXPECT_EQ(got.retired, step.retired);
    EXPECT_EQ(got.ea, step.ea);
    EXPECT_EQ(got.size, step.size);
    EXPECT_EQ(got.is_read, step.is_read);
    EXPECT_EQ(got.is_stack, step.is_stack);
    EXPECT_EQ(got.is_prefetch, step.is_prefetch);
  }
  EXPECT_EQ(next, logged.size());
}

const char* policy_name(LibraryPolicy policy) {
  switch (policy) {
    case LibraryPolicy::kExclude: return "exclude";
    case LibraryPolicy::kAttributeToCaller: return "caller";
    case LibraryPolicy::kTrack: return "track";
  }
  return "?";
}

TEST(SessionStretch, StretchDeliveryEqualsOneEventAtATime) {
  const vm::Program program = make_program();
  const Script script = edge_cases();
  const vm::RunOutcome outcome = halted(script.retired());
  for (const LibraryPolicy policy :
       {LibraryPolicy::kExclude, LibraryPolicy::kAttributeToCaller, LibraryPolicy::kTrack}) {
    for (const std::size_t batch_events : {1u, 2u, 3u, 4096u}) {
      for (const bool parallel : {false, true}) {
        SCOPED_TRACE(std::string("policy=") + policy_name(policy) +
                     " batch_events=" + std::to_string(batch_events) +
                     (parallel ? " parallel:2" : " serial"));
        KernelAttribution attribution(program, policy, batch_events);
        EventLog log;
        StretchCheck check(batch_events);
        Tools stretched(program, policy);
        attribution.add_consumer(log);
        attribution.add_consumer(check);
        PipelineOptions options{.mode = PipelineMode::kParallel,
                                .workers = 2,
                                .batch_events = batch_events,
                                .ring_batches = 2};
        std::optional<ParallelPipeline> pipeline;
        const std::vector<AnalysisConsumer*> tools = stretched.consumers();
        if (parallel) {
          pipeline.emplace(options);
          pipeline->attach(tools, attribution);
        } else {
          for (AnalysisConsumer* tool : tools) attribution.add_consumer(*tool);
        }
        play(script, attribution);

        expect_log_matches_script(log, script, program, policy);
        Tools one_at_a_time(program, policy);
        one_at_a_time.replay(log, outcome);
        testutil::expect_tquad_equal(one_at_a_time.tquad, stretched.tquad);
        testutil::expect_quad_equal(one_at_a_time.quad, stretched.quad);
        testutil::expect_quad_cost_equal(one_at_a_time.quad, stretched.quad);
        testutil::expect_gprof_equal(one_at_a_time.gprof, stretched.gprof);
        if (parallel) {
          EXPECT_EQ(stretched.quad.shard_count(), 1u);  // merged at the drain
        }
      }
    }
  }
}

TEST(SessionStretch, StretchesCrossTheSliceBoundaryAndCountEveryByte) {
  // The first stretch of the script spans slices 0 and 1 of main's series;
  // one batch holds it whole.
  const vm::Program program = make_program();
  const Script script = edge_cases();
  KernelAttribution attribution(program, LibraryPolicy::kExclude);
  StretchCheck check(4096);
  Tools tools(program, LibraryPolicy::kExclude);
  attribution.add_consumer(check);
  attribution.add_consumer(tools.tquad);
  play(script, attribution);
  ASSERT_FALSE(check.stretches.empty());
  EXPECT_EQ(check.stretches.front().kernel, kMain);
  EXPECT_EQ(check.stretches.front().accesses, 40u);
  const tquad::KernelBandwidth& main = tools.tquad.bandwidth().kernel(kMain);
  ASSERT_EQ(main.series.size(), 2u);
  EXPECT_EQ(main.series[0].slice, 0u);
  EXPECT_EQ(main.series[1].slice, 1u);
  // 40 accesses of 8 bytes, less the zero-size one and the prefetch, plus
  // the final 16-byte read (in slice 1).
  EXPECT_EQ(main.totals.read_incl + main.totals.write_incl, 38u * 8 + 16);
  // kern_a's wide write counts whole.
  EXPECT_EQ(tools.tquad.bandwidth().kernel(kKernA).totals.write_incl,
            6u * 8 + kMaxInlineSize + 1 + 3 * 4);
}

TEST(SessionStretch, EveryEntryAndReturnClosesTheStretch) {
  // With only accesses subscribed, nothing else is encoded, so each stretch
  // boundary below comes from the entry or return alone, even where the top
  // stays the same.
  const vm::Program program = make_program();
  Script s;
  s.enter(kMain);
  s.access(kMain, kBuffer, 8, true);
  s.access(kMain, kBuffer + 8, 8, true);
  s.enter(kLib);
  s.access(kLib, kBuffer + 16, 8, false);
  s.ret(kLib);
  s.access(kMain, kBuffer + 24, 8, true);
  for (const LibraryPolicy policy :
       {LibraryPolicy::kExclude, LibraryPolicy::kAttributeToCaller, LibraryPolicy::kTrack}) {
    SCOPED_TRACE(policy_name(policy));
    KernelAttribution attribution(program, policy);
    StretchCheck check(4096);
    attribution.add_consumer(check);
    play(s, attribution);
    const std::uint32_t lib_top = policy == LibraryPolicy::kExclude ? tquad::kNoKernel
                                  : policy == LibraryPolicy::kTrack ? kLib
                                                                    : kMain;
    ASSERT_EQ(check.stretches.size(), 3u);
    EXPECT_EQ(check.stretches[0].kernel, kMain);
    EXPECT_EQ(check.stretches[0].accesses, 2u);
    EXPECT_EQ(check.stretches[1].kernel, lib_top);
    EXPECT_EQ(check.stretches[1].accesses, 1u);
    EXPECT_EQ(check.stretches[2].kernel, kMain);
    EXPECT_EQ(check.stretches[2].accesses, 1u);
  }
}

TEST(SessionStretch, BatchesHoldTheSameEventsWithOrWithoutStretches) {
  // Headers are no events: a batch closes after batch_events events either
  // way, so the number of batches equals ceil(events / batch_events).
  const vm::Program program = make_program();
  const Script script = edge_cases();
  for (const std::size_t batch_events : {1u, 2u, 3u, 7u}) {
    SCOPED_TRACE("batch_events=" + std::to_string(batch_events));
    KernelAttribution attribution(program, LibraryPolicy::kExclude, batch_events);
    EventLog log;
    std::size_t batches = 0;
    class Counter final : public AnalysisConsumer {
     public:
      explicit Counter(std::size_t& batches) : batches_(batches) {}
      unsigned event_interests() const override { return kAllEvents; }
      void on_batch(unsigned, const Batch&) override { ++batches_; }

     private:
      std::size_t& batches_;
    } counter(batches);
    attribution.add_consumer(log);
    attribution.add_consumer(counter);
    play(script, attribution);
    EXPECT_EQ(batches, (log.events.size() + batch_events - 1) / batch_events);
  }
}

}  // namespace
}  // namespace tq::session
