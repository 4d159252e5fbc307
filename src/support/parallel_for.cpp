#include "support/parallel_for.hpp"

#include <algorithm>
#include <exception>
#include <thread>
#include <vector>

#include "support/check.hpp"

namespace tq {

unsigned parallel_blocks(unsigned threads, std::uint64_t begin, std::uint64_t end) {
  if (begin >= end) return 0;
  return static_cast<unsigned>(std::min<std::uint64_t>(threads, end - begin));
}

void parallel_for_blocks(
    unsigned threads, std::uint64_t begin, std::uint64_t end,
    const std::function<void(std::uint64_t, std::uint64_t, unsigned)>& body) {
  TQUAD_CHECK(threads > 0, "parallel_for_blocks needs at least one thread");
  const unsigned blocks = parallel_blocks(threads, begin, end);
  if (blocks == 0) return;
  const std::uint64_t per_block = (end - begin) / blocks;
  const std::uint64_t remainder = (end - begin) % blocks;
  std::vector<std::exception_ptr> errors(blocks);
  {
    // jthreads join as the vector dies, also if starting one of them throws.
    std::vector<std::jthread> workers;
    workers.reserve(blocks);
    std::uint64_t cursor = begin;
    for (unsigned b = 0; b < blocks; ++b) {
      const std::uint64_t block_begin = cursor;
      cursor += per_block + (b < remainder ? 1 : 0);
      workers.emplace_back([&body, &errors, block_begin, block_end = cursor, b] {
        try {
          body(block_begin, block_end, b);
        } catch (...) {
          errors[b] = std::current_exception();
        }
      });
    }
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace tq
