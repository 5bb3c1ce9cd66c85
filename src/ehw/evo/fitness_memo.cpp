#include "ehw/evo/fitness_memo.hpp"

#include "ehw/obs/trace.hpp"

namespace ehw::evo {

bool FitnessMemo::lookup(std::uint64_t key, Fitness* fitness) {
  EHW_TRACE_SPAN("memo_lookup");
  return LruCache::lookup(key, fitness);
}

}  // namespace ehw::evo
