#include "common/mark_set.h"

#include <memory>

namespace graphgen {

namespace {

// The calling thread's lendable sets: sets[0, depth) are on loan, in
// lease order. Held by pointer so lent sets stay put when the pool grows.
struct MarkSetPool {
  std::vector<std::unique_ptr<MarkSet>> sets;
  size_t depth = 0;
};

thread_local MarkSetPool pool;

}  // namespace

MarkSetLease::MarkSetLease(size_t n) {
  if (pool.depth == pool.sets.size()) {
    pool.sets.push_back(std::make_unique<MarkSet>());
  }
  set_ = pool.sets[pool.depth++].get();
  set_->Grow(n);
  set_->Clear();
}

// Leases are scoped objects that can neither be copied nor moved, so they
// end in the reverse order of their start.
MarkSetLease::~MarkSetLease() { --pool.depth; }

}  // namespace graphgen
