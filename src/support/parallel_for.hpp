// Block-parallel loop for the offline (trace-replay) analyses.
//
// The online profiling path is inherently sequential — the guest retires one
// instruction at a time — but offline aggregation over a recorded trace
// shards cleanly. parallel_for_blocks() splits an index range into
// contiguous blocks, one thread each, so per-block accumulators never
// contend (CP.31: pass data by value / avoid sharing).
#pragma once

#include <cstdint>
#include <functional>

namespace tq {

/// How many blocks parallel_for_blocks() cuts [begin, end) into:
/// min(threads, end - begin), so 0 for an empty range. Callers size their
/// per-block accumulators with it.
unsigned parallel_blocks(unsigned threads, std::uint64_t begin, std::uint64_t end);

/// Split [begin, end) into parallel_blocks(threads, begin, end) contiguous
/// blocks and run `body(block_begin, block_end, block_index)` for each on a
/// thread of its own, blocking until all blocks complete. `threads` must be
/// positive. If bodies throw, the exception of the lowest-indexed failing
/// block is rethrown once every thread has joined.
void parallel_for_blocks(
    unsigned threads, std::uint64_t begin, std::uint64_t end,
    const std::function<void(std::uint64_t, std::uint64_t, unsigned)>& body);

}  // namespace tq
