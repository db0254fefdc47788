// Replaces the global allocation functions so the harness can count heap
// allocations per thread exactly (models.heap_allocs_per_request). The
// array and aligned forms of libstdc++ forward to these.

#include <cstdlib>
#include <new>

#include "env.h"

namespace {
thread_local int64_t t_alloc_count = 0;
}  // namespace

int64_t perfbench::ThreadAllocCount() { return t_alloc_count; }

void* operator new(std::size_t size) {
  ++t_alloc_count;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
