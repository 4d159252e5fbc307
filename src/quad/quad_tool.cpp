#include "quad/quad_tool.hpp"

#include <algorithm>
#include <sstream>

#include "support/metrics.hpp"

namespace tq::quad {

QuadTool::QuadTool(const vm::Program& program, Options options)
    : program_(program),
      tracked_(tquad::tracked_functions(program, options.library_policy)) {
  const std::size_t n = program.functions().size();
  TQUAD_CHECK(n < kNoProducer, "too many functions for 16-bit producer ids");
  state_.init(n);
  instrs_.assign(n, 0);
  calls_.assign(n, 0);
  mem_refs_.assign(n, 0);
}

void QuadTool::account_read(AddressState& state, std::uint32_t reader,
                            std::uint64_t ea, std::uint32_t size,
                            bool stack_area, bool count_access) {
  // Stack-included counters always accrue.
  KernelCounters& incl = state.incl[reader];
  incl.in_bytes += size;
  incl.in_unma.insert_range(ea, size);
  if (!stack_area) {
    KernelCounters& excl = state.excl[reader];
    excl.in_bytes += size;
    excl.in_unma.insert_range(ea, size);
    if (count_access) ++state.global_accesses[reader];
    state.global_bytes[reader] += size;
  }

  // Attribute OUT bytes to producers and record the binding (bytes plus the
  // distinct transfer addresses, the QDU edge annotations).
  std::uint64_t cursor = ea;
  state.shadow.for_each_producer(
      ea, size, [&](ProducerId producer, std::uint32_t run) {
        if (producer != kNoProducer) {
          state.incl[producer].out_bytes += run;
          if (!stack_area) state.excl[producer].out_bytes += run;
          const std::pair<std::uint32_t, std::uint32_t> key{producer, reader};
          if (state.last_edge_key != key) {
            state.last_edge = &state.bindings[key];
            state.last_edge_key = key;
          }
          state.last_edge->bytes += run;
          state.last_edge->unma.insert_range(cursor, run);
        }
        cursor += run;
      });
}

void QuadTool::account_write(AddressState& state, std::uint32_t writer,
                             std::uint64_t ea, std::uint32_t size,
                             bool stack_area, bool count_access) {
  KernelCounters& incl = state.incl[writer];
  incl.out_unma.insert_range(ea, size);
  if (!stack_area) {
    KernelCounters& excl = state.excl[writer];
    excl.out_unma.insert_range(ea, size);
    if (count_access) ++state.global_accesses[writer];
    state.global_bytes[writer] += size;
  }
  state.shadow.mark_write(ea, size, static_cast<ProducerId>(writer));
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

// ---- sharded access accounting (parallel pipeline) ------------------------------

void QuadTool::prepare_shards(unsigned shards) {
  TQUAD_CHECK(shards >= 1, "prepare_shards needs at least one shard");
  TQUAD_CHECK(shards_.empty(), "prepare_shards called twice");
  // Shard 0 aliases state_ directly; only the extra shards replicate it.
  shards_.reserve(shards - 1);
  for (unsigned s = 1; s < shards; ++s) {
    auto state = std::make_unique<AddressState>();
    state->init(kernel_count());
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
  if (event.is_read) {
    account_read(state, event.kernel, event.ea, event.size, event.is_stack,
                 count_access);
  } else {
    account_write(state, event.kernel, event.ea, event.size, event.is_stack,
                  count_access);
  }
}

void QuadTool::merge_shards() {
  for (auto& shard : shards_) {
    state_.shadow.adopt_disjoint(std::move(shard->shadow));
    for (std::size_t k = 0; k < state_.incl.size(); ++k) {
      state_.incl[k].in_bytes += shard->incl[k].in_bytes;
      state_.incl[k].out_bytes += shard->incl[k].out_bytes;
      state_.incl[k].in_unma.merge(std::move(shard->incl[k].in_unma));
      state_.incl[k].out_unma.merge(std::move(shard->incl[k].out_unma));
      state_.excl[k].in_bytes += shard->excl[k].in_bytes;
      state_.excl[k].out_bytes += shard->excl[k].out_bytes;
      state_.excl[k].in_unma.merge(std::move(shard->excl[k].in_unma));
      state_.excl[k].out_unma.merge(std::move(shard->excl[k].out_unma));
      state_.global_accesses[k] += shard->global_accesses[k];
      state_.global_bytes[k] += shard->global_bytes[k];
    }
    for (auto& [key, accum] : shard->bindings) {
      BindingAccum& edge = state_.bindings[key];
      edge.bytes += accum.bytes;
      edge.unma.merge(std::move(accum.unma));
    }
  }
  shards_.clear();
}

std::vector<Binding> QuadTool::bindings() const {
  std::vector<Binding> edges;
  edges.reserve(state_.bindings.size());
  for (const auto& [key, accum] : state_.bindings) {
    edges.push_back(Binding{key.first, key.second, accum.bytes, accum.unma.count()});
  }
  std::sort(edges.begin(), edges.end(), [](const Binding& a, const Binding& b) {
    return a.bytes > b.bytes;
  });
  return edges;
}

std::uint64_t QuadTool::binding_bytes(std::uint32_t producer,
                                      std::uint32_t consumer) const {
  auto it = state_.bindings.find({producer, consumer});
  return it == state_.bindings.end() ? 0 : it->second.bytes;
}

std::uint64_t QuadTool::instrumented_cost(std::uint32_t kernel,
                                          const CostModel& model) const {
  TQUAD_CHECK(kernel < instrs_.size(), "kernel id out of range");
  const std::uint64_t working_set = state_.excl[kernel].in_unma.count() +
                                    state_.excl[kernel].out_unma.count();
  const double trace_scale =
      working_set <= model.hot_set_bytes ? model.hot_discount : 1.0;
  const double trace_cost =
      trace_scale * (static_cast<double>(state_.global_accesses[kernel] *
                                         model.per_global_trace) +
                     static_cast<double>(state_.global_bytes[kernel] *
                                         model.per_global_byte));
  return instrs_[kernel] * model.per_instruction +
         mem_refs_[kernel] * model.per_memory_stub +
         static_cast<std::uint64_t>(trace_cost);
}

void QuadTool::publish_metrics(metrics::Registry& registry) const {
  registry.set_gauge("quad.shadow.pages", state_.shadow.resident_pages());
  registry.set_gauge("quad.shadow.bytes", state_.shadow.resident_bytes());
  std::uint64_t in_incl = 0, out_incl = 0, in_excl = 0, out_excl = 0;
  for (std::size_t k = 0; k < state_.incl.size(); ++k) {
    in_incl += state_.incl[k].in_unma.count();
    out_incl += state_.incl[k].out_unma.count();
    in_excl += state_.excl[k].in_unma.count();
    out_excl += state_.excl[k].out_unma.count();
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
