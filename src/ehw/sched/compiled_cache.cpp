#include "ehw/sched/compiled_cache.hpp"

namespace ehw::sched {

std::shared_ptr<const pe::CompiledArray> CompiledArrayCache::get_or_compile(
    std::uint64_t key, const CompileFn& compile, bool* was_hit) {
  if (capacity_ == 0) {
    {
      std::lock_guard lock(mutex_);
      ++stats_.misses;
    }
    if (was_hit != nullptr) *was_hit = false;
    return std::make_shared<const pe::CompiledArray>(compile());
  }

  {
    std::lock_guard lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      if (was_hit != nullptr) *was_hit = true;
      return it->second.value;
    }
    ++stats_.misses;
  }
  if (was_hit != nullptr) *was_hit = false;

  // Compile outside the lock: a miss must not serialize other missions.
  auto value = std::make_shared<const pe::CompiledArray>(compile());

  std::lock_guard lock(mutex_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // A concurrent miss inserted first; adopt its (behaviourally
    // identical) instance so everyone shares one copy.
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return it->second.value;
  }
  lru_.push_front(key);
  index_.emplace(key, Entry{value, lru_.begin()});
  while (index_.size() > capacity_) {
    index_.erase(lru_.back());
    lru_.pop_back();
    ++stats_.evictions;
  }
  return value;
}

std::size_t CompiledArrayCache::size() const {
  std::lock_guard lock(mutex_);
  return index_.size();
}

CacheStats CompiledArrayCache::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

void CompiledArrayCache::clear() {
  std::lock_guard lock(mutex_);
  index_.clear();
  lru_.clear();
}

}  // namespace ehw::sched
