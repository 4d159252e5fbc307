#include "trace/trace.hpp"

#include <cstdio>
#include <exception>

#include "support/metrics.hpp"
#include "trace/trace_v2.hpp"

namespace tq::trace {

// ---- TraceRecorder --------------------------------------------------------------

TraceRecorder::TraceRecorder(const vm::Program& program,
                             tquad::LibraryPolicy /*policy*/, TraceFormat /*format*/)
    : writer_(std::make_unique<TraceV2Writer>(
          static_cast<std::uint32_t>(program.functions().size()))) {}

TraceRecorder::~TraceRecorder() {
  // Never throw out of a destructor (the recorder may be unwinding with the
  // rest of a failed session): contain a failing final flush and report it.
  try {
    finalize();
  } catch (const std::exception& err) {
    std::fprintf(stderr, "TraceRecorder: finalize failed: %s\n", err.what());
  } catch (...) {
    std::fprintf(stderr, "TraceRecorder: finalize failed\n");
  }
}

void TraceRecorder::on_finish(const vm::RunOutcome& outcome) {
  (void)outcome;  // total_retired already arrived via on_session_end
  finalize();
}

void TraceRecorder::finalize() {
  if (finalized_) return;
  finalized_ = true;
  encoded_ = writer_->finish(total_retired_);
  encoded_bytes_ = encoded_.size();
  blocks_written_ = writer_->block_count();
}

void TraceRecorder::push(const Record& record) {
  last_retired_ = record.retired;
  ++records_written_;
  writer_->add(record);
}

namespace {

std::uint16_t kernel16(std::uint32_t kernel) noexcept {
  return kernel == tquad::kNoKernel ? kNoKernel16
                                    : static_cast<std::uint16_t>(kernel);
}

}  // namespace

void TraceRecorder::on_kernel_enter(const session::EnterEvent& event) {
  Record record{};
  record.retired = last_retired_;
  record.ea = event.func;
  record.kernel = kernel16(event.kernel);
  record.func = static_cast<std::uint16_t>(event.func);
  record.kind = EventKind::kEnter;
  push(record);
}

void TraceRecorder::on_access(const session::AccessEvent& event) {
  Record record{};
  record.retired = event.retired;
  record.ea = event.ea;
  record.pc = event.pc;
  record.kernel = kernel16(event.kernel);
  record.func = static_cast<std::uint16_t>(event.func);
  record.kind = event.is_read ? EventKind::kRead : EventKind::kWrite;
  record.size = static_cast<std::uint8_t>(event.size);
  if (event.is_stack) record.flags |= kFlagStackArea;
  if (event.is_prefetch) record.flags |= kFlagPrefetch;
  push(record);
}

void TraceRecorder::on_kernel_ret(const session::RetEvent& event) {
  Record record{};
  record.retired = event.retired;
  record.pc = event.pc;
  record.kernel = kernel16(event.kernel);
  record.func = static_cast<std::uint16_t>(event.func);
  record.kind = EventKind::kRet;
  push(record);
}

void TraceRecorder::on_session_end(std::uint64_t total_retired) {
  total_retired_ = total_retired;
}

std::vector<std::uint8_t> TraceRecorder::take_encoded() {
  finalize();
  return std::move(encoded_);
}

void TraceRecorder::publish_metrics(metrics::Registry& registry) const {
  registry.add("trace.write.records", records_written_);
  registry.add("trace.write.bytes", encoded_bytes_);
  const std::uint64_t raw = records_written_ * kRecordDiskBytes;
  registry.add("trace.write.raw_bytes", raw);
  if (encoded_bytes_ > 0) {
    registry.set_gauge("trace.write.compression_ratio_x1000",
                       raw * 1000 / encoded_bytes_);
  }
  registry.add("trace.write.crc_blocks", blocks_written_);
}

}  // namespace tq::trace
