#include "amr/CommCache.hpp"

#include <cassert>

namespace crocco::amr {

namespace {
std::uint64_t mix64(std::uint64_t x, std::uint64_t v) {
    x += 0x9e3779b97f4a7c15ull + v;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}
} // namespace

std::uint64_t hashShifts(const std::vector<IntVect>& shifts) {
    std::uint64_t h = 0x2545f4914f6cdd1dull;
    for (const IntVect& s : shifts)
        for (int d = 0; d < SpaceDim; ++d)
            h = mix64(h, static_cast<std::uint64_t>(
                             static_cast<std::int64_t>(s[d]) + (1ll << 32)));
    return h;
}

void CommPattern::indexByDst() {
    dstStart.assign(static_cast<std::size_t>(dstSize) + 1, 0);
    for (std::size_t c = 0; c < copies.size(); ++c) {
        assert(c == 0 || copies[c - 1].dstFab <= copies[c].dstFab);
        ++dstStart[static_cast<std::size_t>(copies[c].dstFab) + 1];
    }
    for (std::size_t f = 1; f < dstStart.size(); ++f)
        dstStart[f] += dstStart[f - 1];
}

std::size_t CommCache::KeyHash::operator()(const Key& k) const {
    std::uint64_t h = mix64(k.srcId, k.dstId);
    h = mix64(h, static_cast<std::uint64_t>(k.dstNGrow));
    h = mix64(h, static_cast<std::uint64_t>(k.srcNGrow));
    h = mix64(h, k.shiftsHash);
    h = mix64(h, static_cast<std::uint64_t>(k.kind));
    return static_cast<std::size_t>(h);
}

CommCache& CommCache::instance() {
    static CommCache cache;
    return cache;
}

void CommCache::touch(std::list<Entry>::iterator it) {
    lru_.splice(lru_.begin(), lru_, it);
}

const CommPattern* CommCache::lookup(const Key& k, int srcSize, int dstSize) {
    auto it = map_.find(k);
    if (it == map_.end()) {
        ++stats_.misses;
        return nullptr;
    }
    const CommPattern& p = it->second->second;
    if (p.srcSize != srcSize || p.dstSize != dstSize) {
        // Id collision (or a BoxArray id reused across incompatible
        // layouts): never replay a suspect pattern.
        lru_.erase(it->second);
        map_.erase(it);
        ++stats_.misses;
        return nullptr;
    }
    touch(it->second);
    ++stats_.hits;
    return &lru_.front().second;
}

const CommPattern& CommCache::insert(const Key& k, CommPattern pattern) {
    if (capacity_ == 0) {
        static thread_local CommPattern scratch;
        scratch = std::move(pattern);
        return scratch;
    }
    auto it = map_.find(k);
    if (it != map_.end()) {
        it->second->second = std::move(pattern);
        touch(it->second);
        return lru_.front().second;
    }
    lru_.emplace_front(k, std::move(pattern));
    map_.emplace(k, lru_.begin());
    while (map_.size() > capacity_) {
        map_.erase(lru_.back().first);
        lru_.pop_back();
        ++stats_.evictions;
    }
    return lru_.front().second;
}

void CommCache::setCapacity(std::size_t cap) {
    capacity_ = cap;
    while (map_.size() > capacity_) {
        map_.erase(lru_.back().first);
        lru_.pop_back();
        ++stats_.evictions;
    }
}

void CommCache::invalidate(std::uint64_t baId) {
    if (baId == 0) return;
    for (auto it = lru_.begin(); it != lru_.end();) {
        if (it->first.srcId == baId || it->first.dstId == baId) {
            map_.erase(it->first);
            it = lru_.erase(it);
            ++stats_.invalidations;
        } else {
            ++it;
        }
    }
}

void CommCache::noteCommSize(int nranks) {
    if (nranks == commSize_) return;
    if (commSize_ != 0) {
        // Communicator changed size (rank death + shrink): every cached
        // pattern was recorded under the old rank numbering's hierarchy.
        stats_.invalidations += static_cast<std::int64_t>(map_.size());
        clear();
    }
    commSize_ = nranks;
}

void CommCache::clear() {
    lru_.clear();
    map_.clear();
}

} // namespace crocco::amr
