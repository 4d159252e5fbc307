// The QUAD memory-access-pattern analyser as a ProfileSession consumer.
//
// QUAD (reference [4] of the tQUAD paper) reveals quantitative data
// communication between kernels: for every kernel it reports
//   IN       — total bytes the kernel read,
//   IN UnMA  — distinct byte addresses it read,
//   OUT      — total bytes *any* kernel read from locations this kernel had
//              previously written,
//   OUT UnMA — distinct byte addresses it wrote,
// and a producer→consumer binding matrix (the QDU graph).
//
// Table II of the tQUAD paper reports all four counters twice — with stack
// accesses excluded and included. This implementation tracks both
// classifications in one run. A single shadow memory serves both: a
// stack-classified access can only involve stack addresses, which the
// excluded mode ignores on both the produce and consume side.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "quad/shadow.hpp"
#include "session/events.hpp"
#include "support/address_set.hpp"
#include "tquad/callstack.hpp"

namespace tq::metrics {
class Registry;
}  // namespace tq::metrics

namespace tq::quad {

/// Table II counters for one kernel under one stack classification.
struct KernelCounters {
  std::uint64_t in_bytes = 0;
  std::uint64_t out_bytes = 0;
  AddressSet in_unma;
  AddressSet out_unma;
};

/// Cost-model parameters for the QUAD-instrumented profile (Table III).
/// The paper profiles the Pin+QUAD+application process with gprof; we model
/// the same measurement by charging each kernel the cost of the analysis
/// work its instructions trigger: stack accesses are discarded cheaply in
/// the instrumentation stub, global accesses pay the full tracing routine
/// (Section V-B: "the instrumentation routine simply discards the local
/// stack area accesses and only upon detection of a non-local memory access,
/// an analysis routine is called").
struct CostModel {
  std::uint64_t per_instruction = 1;   ///< base execution cost
  std::uint64_t per_memory_stub = 3;   ///< intercept+classify every access
  std::uint64_t per_global_trace = 12; ///< analysis-routine invocation
  std::uint64_t per_global_byte = 2;   ///< shadow/UnMA work per byte
  /// Kernels whose global working set (IN+OUT UnMA, stack excluded) fits in
  /// this many bytes keep the analysis structures cache-resident, so their
  /// tracing cost is discounted. This models the paper's own explanation of
  /// Table III: "bitrev only uses around one tenth of a KB as buffer,
  /// whereas DelayLine_processChunk accesses about 180 KB of memory
  /// locations" — which is why bitrev's share collapses under
  /// instrumentation while byte-dense large-footprint kernels balloon.
  std::uint64_t hot_set_bytes = 4096;
  double hot_discount = 0.1;  ///< trace/byte cost multiplier for hot kernels
};

/// One producer→consumer edge of the QDU graph. The paper reads buffer
/// sizes off these edges ("the small number of Unique Memory Addresses
/// (UnMAs) used as output buffers compared to the huge amount of data
/// produced — hundreds of addresses per GBs"), so each edge carries the
/// distinct transfer addresses alongside the byte volume.
struct Binding {
  std::uint32_t producer = 0;
  std::uint32_t consumer = 0;
  std::uint64_t bytes = 0;
  std::uint64_t unma = 0;  ///< distinct addresses the transfer flowed through
};

/// Options for QuadTool.
struct QuadOptions {
  tquad::LibraryPolicy library_policy = tquad::LibraryPolicy::kExclude;
};

/// The QUAD tool. Register with ProfileSession::add_consumer before the run
/// (use the same library policy as the session); query afterwards.
class QuadTool final : public session::AnalysisConsumer,
                       public session::ShardedAccessConsumer {
 public:
  using Options = QuadOptions;

  QuadTool(const vm::Program& program, Options options = {});

  QuadTool(const QuadTool&) = delete;
  QuadTool& operator=(const QuadTool&) = delete;

  std::size_t kernel_count() const noexcept { return state_.kernels.size(); }
  const std::string& kernel_name(std::uint32_t kernel) const {
    return program_.functions()[kernel].name;
  }
  bool reported(std::uint32_t kernel) const noexcept { return tracked_[kernel]; }

  /// Counters with stack accesses included / excluded.
  const KernelCounters& including_stack(std::uint32_t kernel) const {
    TQUAD_CHECK(kernel < kernel_count(), "kernel id out of range");
    return state_.kernels[kernel].incl;
  }
  const KernelCounters& excluding_stack(std::uint32_t kernel) const {
    TQUAD_CHECK(kernel < kernel_count(), "kernel id out of range");
    return state_.kernels[kernel].excl;
  }

  /// Producer→consumer bindings (stack-included classification), sorted by
  /// descending bytes. Unattributed producers are omitted.
  std::vector<Binding> bindings() const;

  /// Bytes flowing from `producer` to `consumer` (stack included).
  std::uint64_t binding_bytes(std::uint32_t producer, std::uint32_t consumer) const;

  /// Per-kernel dynamic instruction count (for the cost model).
  std::uint64_t instructions(std::uint32_t kernel) const {
    TQUAD_CHECK(kernel < instrs_.size(), "kernel id out of range");
    return instrs_[kernel];
  }
  std::uint64_t calls(std::uint32_t kernel) const {
    TQUAD_CHECK(kernel < calls_.size(), "kernel id out of range");
    return calls_[kernel];
  }

  /// Modelled cost of running this kernel under QUAD instrumentation.
  std::uint64_t instrumented_cost(std::uint32_t kernel, const CostModel& model) const;

  /// Render the QDU graph in Graphviz DOT (edges labelled with bytes).
  std::string qdu_graph_dot() const;

  // session::AnalysisConsumer. No return accounting; QUAD never traces
  // prefetch touches.
  unsigned event_interests() const override {
    return kEnterInterest | kTickInterest | kAccessInterest;
  }
  void on_kernel_enter(const session::EnterEvent& event) override;
  void on_tick_run(const session::TickRunEvent& run) override;
  void on_access(const session::AccessEvent& event) override;
  /// The accesses of one stretch, with the kernel's state looked up once.
  void on_access_stretch(std::uint32_t kernel, std::span<const session::Record> records);
  void on_finish(const vm::RunOutcome& outcome) override { outcome_ = outcome; }
  void on_batch(unsigned interests, const session::Batch& batch) override {
    session::deliver(*this, interests, batch);
  }

  // session::ShardedAccessConsumer (parallel pipeline): the per-address
  // state partitions by page, so access accounting scales across workers
  // while enter/tick counters stay on a separate control lane.
  session::ShardedAccessConsumer* sharded_access() override { return this; }
  void prepare_shards(unsigned shards) override;
  void apply_access_shard(unsigned shard, const session::AccessEvent& event,
                          bool count_access) override;
  void merge_shards() override;

  /// Shards the last prepare_shards() created (1 when never sharded);
  /// test introspection.
  unsigned shard_count() const noexcept {
    return static_cast<unsigned>(shards_.size()) + 1;
  }

  /// How the observed run ended (kHalted for a clean run).
  /// A trapped/truncated outcome means the profile is a valid prefix.
  const vm::RunOutcome& outcome() const noexcept { return outcome_; }

  /// Self-observability: shadow-memory footprint and total UnMA set sizes
  /// into `registry` under quad.* names. Call after the run (post merge).
  void publish_metrics(metrics::Registry& registry) const;

 private:
  /// One producer->consumer edge of the binding store.
  struct Edge {
    std::uint32_t key = 0;  ///< edge_key(producer, consumer)
    std::uint64_t bytes = 0;
    AddressSet unma;
  };

  /// The binding store: edges in first-touch order behind an open-addressing
  /// index (load at most 1/2). The kernel count may reach 65533, so a dense
  /// K x K table is out of the question.
  class EdgeTable {
   public:
    /// The edge for `key`, created empty on first use. The reference lives
    /// until the next insertion. A repeat of the last key skips the probe:
    /// a reader draining one producer's words asks for the same edge on
    /// every access.
    Edge& at(std::uint32_t key) {
      if (key != last_key_) {
        last_index_ = index_of(key);
        last_key_ = key;
      }
      return edges_[last_index_];
    }
    const Edge* find(std::uint32_t key) const noexcept;
    std::vector<Edge>& edges() noexcept { return edges_; }
    const std::vector<Edge>& edges() const noexcept { return edges_; }

   private:
    static constexpr std::uint32_t kNoKey = ~0u;  ///< producer kNoProducer: no edge

    std::size_t home(std::uint32_t key) const noexcept {
      return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> shift_);
    }
    /// Probe for `key`, appending its edge on first use; its index in edges_.
    std::uint32_t index_of(std::uint32_t key);
    void grow();

    std::vector<Edge> edges_;
    std::vector<std::uint32_t> slots_;  ///< edge index + 1; 0 marks empty
    unsigned shift_ = 64;               ///< 64 - log2(slots_.size())
    /// at()'s memo of its last edge. An index, not a pointer: edges_ may
    /// reallocate, but it never reorders (grow() re-places slots only), so
    /// the index stays valid across appends, growth and merge_shards.
    std::uint32_t last_key_ = kNoKey;
    std::uint32_t last_index_ = 0;
  };

  static std::uint32_t edge_key(std::uint32_t producer, std::uint32_t consumer) {
    return producer << 16 | consumer;
  }

  /// One kernel's address-keyed counters: Table II under both stack
  /// classifications, and the global-access cost counters.
  struct KernelState {
    KernelCounters incl;
    KernelCounters excl;
    std::uint64_t global_accesses = 0;
    std::uint64_t global_bytes = 0;
  };

  /// Every piece of state keyed (directly or transitively) by guest address:
  /// the shadow memory, the per-kernel counters, and the binding store. The
  /// serial path owns exactly one (state_); the parallel pipeline replicates
  /// it per address shard and folds the replicas back in merge_shards(). A
  /// shadow cell's memo speaks about the sets of the state that owns its
  /// page.
  struct AddressState {
    ShadowMemory shadow;
    std::vector<KernelState> kernels;
    EdgeTable edges;
  };

  // Per-address accounting of one access by `kernel` (whose counters are
  // `self`, resolved by the caller) into one shard's state. `count_access`
  // is false for the continuation pieces of a page-split access, so the
  // per-access counter increments exactly once per original access. An
  // access inside one aligned word always bumps the byte counters but
  // skips the UnMA inserts its shadow cell proves redundant
  // (ShadowMemory::read_word and mark_word); every other access takes the
  // byte-run path, which only ever clears cell memos.
  static void account(AddressState& state, KernelState& self, std::uint32_t kernel,
                      std::uint64_t ea, std::uint32_t size, bool is_read,
                      bool stack_area, bool count_access);
  static void account_read(AddressState& state, KernelState& self, std::uint32_t reader,
                           std::uint64_t ea, std::uint32_t size,
                           bool stack_area, bool count_access);
  static void account_write(AddressState& state, KernelState& self, std::uint32_t writer,
                            std::uint64_t ea, std::uint32_t size,
                            bool stack_area, bool count_access);

  const vm::Program& program_;
  std::vector<bool> tracked_;  ///< reported() table under the library policy
  AddressState state_;      ///< serial accounting, and shard 0 in parallel mode
  std::vector<std::unique_ptr<AddressState>> shards_;  ///< shards 1..N-1
  std::vector<std::uint64_t> instrs_;
  std::vector<std::uint64_t> calls_;
  std::vector<std::uint64_t> mem_refs_;
  vm::RunOutcome outcome_;
};

}  // namespace tq::quad
