#include "quad/quad_tool.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

#include "support/metrics.hpp"

namespace tq::quad {

QuadTool::QuadTool(const vm::Program& program, Options options)
    : program_(program),
      tracked_(tquad::tracked_functions(program, options.library_policy)) {
  const std::size_t n = program.functions().size();
  TQUAD_CHECK(n < kMixed, "too many functions for 16-bit producer ids");
  state_.kernels.resize(n);
  instrs_.assign(n, 0);
  calls_.assign(n, 0);
  mem_refs_.assign(n, 0);
}

// ---- binding store ---------------------------------------------------------------

std::uint32_t QuadTool::EdgeTable::index_of(std::uint32_t key) {
  std::size_t i = 0;
  if (!slots_.empty()) {
    for (i = home(key); slots_[i] != 0; i = (i + 1) & (slots_.size() - 1)) {
      if (edges_[slots_[i] - 1].key == key) return slots_[i] - 1;
    }
  }
  edges_.emplace_back().key = key;
  if (2 * edges_.size() > slots_.size()) {
    grow();  // re-places every edge, the new one included
  } else {
    slots_[i] = static_cast<std::uint32_t>(edges_.size());
  }
  return static_cast<std::uint32_t>(edges_.size() - 1);
}

const QuadTool::Edge* QuadTool::EdgeTable::find(std::uint32_t key) const noexcept {
  if (slots_.empty()) return nullptr;
  for (std::size_t i = home(key); slots_[i] != 0; i = (i + 1) & (slots_.size() - 1)) {
    if (edges_[slots_[i] - 1].key == key) return &edges_[slots_[i] - 1];
  }
  return nullptr;
}

void QuadTool::EdgeTable::grow() {
  const std::size_t capacity = slots_.empty() ? 16 : 2 * slots_.size();
  slots_.assign(capacity, 0);
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    std::size_t i = home(edges_[e].key);
    while (slots_[i] != 0) i = (i + 1) & (capacity - 1);
    slots_[i] = static_cast<std::uint32_t>(e + 1);
  }
}

// ---- per-access accounting -------------------------------------------------------

void QuadTool::account(AddressState& state, KernelState& self, std::uint32_t kernel,
                       std::uint64_t ea, std::uint32_t size, bool is_read,
                       bool stack_area, bool count_access) {
  if (is_read) {
    account_read(state, self, kernel, ea, size, stack_area, count_access);
  } else {
    account_write(state, self, kernel, ea, size, stack_area, count_access);
  }
}

void QuadTool::account_read(AddressState& state, KernelState& self, std::uint32_t reader,
                            std::uint64_t ea, std::uint32_t size,
                            bool stack_area, bool count_access) {
  // Stack-included counters always accrue.
  KernelCounters& incl = self.incl;
  KernelCounters& excl = self.excl;
  incl.in_bytes += size;
  if (!stack_area) {
    excl.in_bytes += size;
    if (count_access) ++self.global_accesses;
    self.global_bytes += size;
  }

  // A read inside one word of one producer: the cell's memo says whether
  // the UnMA bits it would set are set already.
  if (ShadowMemory::in_one_word(ea, size)) {
    const auto word = state.shadow.read_word(ea, size, static_cast<ProducerId>(reader),
                                             !stack_area);
    if (word.producer != kMixed) {
      Edge* edge = nullptr;
      if (word.producer != kNoProducer) {
        KernelState& producer = state.kernels[word.producer];
        producer.incl.out_bytes += size;
        if (!stack_area) producer.excl.out_bytes += size;
        edge = &state.edges.at(edge_key(word.producer, reader));
        edge->bytes += size;
      }
      if (!word.known) {
        incl.in_unma.insert_range(ea, size);
        if (!stack_area) excl.in_unma.insert_range(ea, size);
        if (edge != nullptr) edge->unma.insert_range(ea, size);
      }
      return;
    }
  }

  incl.in_unma.insert_range(ea, size);
  if (!stack_area) excl.in_unma.insert_range(ea, size);
  // Attribute OUT bytes to producers and record the binding (bytes plus the
  // distinct transfer addresses, the QDU edge annotations).
  std::uint64_t cursor = ea;
  state.shadow.for_each_producer(
      ea, size, [&](ProducerId producer, std::uint32_t run) {
        if (producer != kNoProducer) {
          state.kernels[producer].incl.out_bytes += run;
          if (!stack_area) state.kernels[producer].excl.out_bytes += run;
          Edge& edge = state.edges.at(edge_key(producer, reader));
          edge.bytes += run;
          edge.unma.insert_range(cursor, run);
        }
        cursor += run;
      });
}

void QuadTool::account_write(AddressState& state, KernelState& self, std::uint32_t writer,
                             std::uint64_t ea, std::uint32_t size,
                             bool stack_area, bool count_access) {
  KernelCounters& incl = self.incl;
  KernelCounters& excl = self.excl;
  if (!stack_area) {
    if (count_access) ++self.global_accesses;
    self.global_bytes += size;
  }
  const auto producer = static_cast<ProducerId>(writer);
  if (ShadowMemory::in_one_word(ea, size)) {
    const unsigned known = state.shadow.mark_word(ea, size, producer, !stack_area);
    if ((known & ShadowMemory::kOutInclKnown) == 0) incl.out_unma.insert_range(ea, size);
    if (!stack_area && (known & ShadowMemory::kOutExclKnown) == 0) {
      excl.out_unma.insert_range(ea, size);
    }
    return;
  }
  incl.out_unma.insert_range(ea, size);
  if (!stack_area) excl.out_unma.insert_range(ea, size);
  state.shadow.mark_write(ea, size, producer);
}

void QuadTool::on_kernel_enter(const session::EnterEvent& event) {
  if (event.tracked) ++calls_[event.func];
}

void QuadTool::on_tick_run(const session::TickRunEvent& run) {
  if (run.kernel == tquad::kNoKernel) return;
  instrs_[run.kernel] += run.count;
  mem_refs_[run.kernel] += run.mem_count;
}

void QuadTool::on_access(const session::AccessEvent& event) {
  QuadTool::apply_access_shard(0, event, true);  // serial: shard 0 is state_
}

void QuadTool::on_access_stretch(std::uint32_t kernel,
                                 std::span<const session::Record> records) {
  if (kernel == tquad::kNoKernel) return;
  KernelState& self = state_.kernels[kernel];
  session::for_each_access(records, [&](const session::Record& r, std::uint32_t size) {
    if (session::has(r, session::kPrefetch)) return;  // QUAD never traces prefetch touches
    account(state_, self, kernel, r.b, size, session::has(r, session::kRead),
            session::has(r, session::kStack), true);
  });
}

// ---- sharded access accounting (parallel pipeline) ------------------------------

void QuadTool::prepare_shards(unsigned shards) {
  TQUAD_CHECK(shards >= 1, "prepare_shards needs at least one shard");
  TQUAD_CHECK(shards_.empty(), "prepare_shards called twice");
  // Shard 0 aliases state_ directly; only the extra shards replicate it.
  shards_.reserve(shards - 1);
  for (unsigned s = 1; s < shards; ++s) {
    auto state = std::make_unique<AddressState>();
    state->kernels.resize(kernel_count());
    shards_.push_back(std::move(state));
  }
}

void QuadTool::apply_access_shard(unsigned shard,
                                  const session::AccessEvent& event,
                                  bool count_access) {
  if (event.is_prefetch) return;  // QUAD never traces prefetch touches
  if (event.kernel == tquad::kNoKernel) return;
  TQUAD_DCHECK(shard < shards_.size() + 1, "shard id out of range");
  AddressState& state = shard == 0 ? state_ : *shards_[shard - 1];
  account(state, state.kernels[event.kernel], event.kernel, event.ea, event.size,
          event.is_read, event.is_stack, count_access);
}

void QuadTool::merge_shards() {
  for (auto& shard : shards_) {
    state_.shadow.adopt_disjoint(std::move(shard->shadow));
    for (std::size_t k = 0; k < state_.kernels.size(); ++k) {
      KernelState& mine = state_.kernels[k];
      KernelState& theirs = shard->kernels[k];
      for (const bool incl : {true, false}) {
        KernelCounters& to = incl ? mine.incl : mine.excl;
        KernelCounters& from = incl ? theirs.incl : theirs.excl;
        to.in_bytes += from.in_bytes;
        to.out_bytes += from.out_bytes;
        to.in_unma.merge(std::move(from.in_unma));
        to.out_unma.merge(std::move(from.out_unma));
      }
      mine.global_accesses += theirs.global_accesses;
      mine.global_bytes += theirs.global_bytes;
    }
    for (Edge& edge : shard->edges.edges()) {
      Edge& mine = state_.edges.at(edge.key);
      mine.bytes += edge.bytes;
      mine.unma.merge(std::move(edge.unma));
    }
  }
  shards_.clear();
}

std::vector<Binding> QuadTool::bindings() const {
  std::vector<Binding> edges;
  edges.reserve(state_.edges.edges().size());
  for (const Edge& edge : state_.edges.edges()) {
    edges.push_back(Binding{edge.key >> 16, edge.key & 0xffff, edge.bytes, edge.unma.count()});
  }
  // Key order first: the unstable sort below then breaks byte ties the
  // same way on every run, serial or sharded.
  std::sort(edges.begin(), edges.end(), [](const Binding& a, const Binding& b) {
    return edge_key(a.producer, a.consumer) < edge_key(b.producer, b.consumer);
  });
  std::sort(edges.begin(), edges.end(), [](const Binding& a, const Binding& b) {
    return a.bytes > b.bytes;
  });
  return edges;
}

std::uint64_t QuadTool::binding_bytes(std::uint32_t producer,
                                      std::uint32_t consumer) const {
  if (producer >= kMixed || consumer >= kMixed) return 0;
  const Edge* edge = state_.edges.find(edge_key(producer, consumer));
  return edge == nullptr ? 0 : edge->bytes;
}

std::uint64_t QuadTool::instrumented_cost(std::uint32_t kernel,
                                          const CostModel& model) const {
  TQUAD_CHECK(kernel < instrs_.size(), "kernel id out of range");
  const KernelState& state = state_.kernels[kernel];
  const std::uint64_t working_set =
      state.excl.in_unma.count() + state.excl.out_unma.count();
  const double trace_scale =
      working_set <= model.hot_set_bytes ? model.hot_discount : 1.0;
  const double trace_cost =
      trace_scale * (static_cast<double>(state.global_accesses * model.per_global_trace) +
                     static_cast<double>(state.global_bytes * model.per_global_byte));
  return instrs_[kernel] * model.per_instruction +
         mem_refs_[kernel] * model.per_memory_stub +
         static_cast<std::uint64_t>(trace_cost);
}

void QuadTool::publish_metrics(metrics::Registry& registry) const {
  registry.set_gauge("quad.shadow.pages", state_.shadow.resident_pages());
  registry.set_gauge("quad.shadow.bytes", state_.shadow.resident_bytes());
  std::uint64_t in_incl = 0, out_incl = 0, in_excl = 0, out_excl = 0;
  for (const KernelState& kernel : state_.kernels) {
    in_incl += kernel.incl.in_unma.count();
    out_incl += kernel.incl.out_unma.count();
    in_excl += kernel.excl.in_unma.count();
    out_excl += kernel.excl.out_unma.count();
  }
  registry.set_gauge("quad.unma.in_incl", in_incl);
  registry.set_gauge("quad.unma.out_incl", out_incl);
  registry.set_gauge("quad.unma.in_excl", in_excl);
  registry.set_gauge("quad.unma.out_excl", out_excl);
  registry.set_gauge("quad.bindings", bindings().size());
}

std::string QuadTool::qdu_graph_dot() const {
  std::ostringstream out;
  out << "digraph QDU {\n  rankdir=LR;\n  node [shape=box];\n";
  std::vector<bool> mentioned(kernel_count(), false);
  const auto edges = bindings();
  for (const Binding& edge : edges) {
    mentioned[edge.producer] = true;
    mentioned[edge.consumer] = true;
  }
  for (std::uint32_t k = 0; k < kernel_count(); ++k) {
    if (mentioned[k]) {
      out << "  f" << k << " [label=\"" << kernel_name(k) << "\"];\n";
    }
  }
  for (const Binding& edge : edges) {
    out << "  f" << edge.producer << " -> f" << edge.consumer << " [label=\""
        << edge.bytes << " B / " << edge.unma << " addr\"];\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace tq::quad
