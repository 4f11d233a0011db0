#include "amr/BoxArray.hpp"
#include <algorithm>
#include <atomic>

#include <cassert>

namespace crocco::amr {

std::uint64_t BoxArray::nextId() {
    static std::atomic<std::uint64_t> counter{0};
    return ++counter;
}

std::uint64_t BoxArray::deriveId(std::uint64_t parent, std::uint32_t op,
                                 const IntVect& ratio) {
    if (parent == 0) return 0;
    // splitmix64 over (parent, op, ratio): the same parent coarsened by the
    // same ratio always yields the same derived id, so the scratch BoxArrays
    // FillPatch rebuilds every call key to the same comm-cache entries.
    std::uint64_t x = parent;
    auto mix = [&x](std::uint64_t v) {
        x += 0x9e3779b97f4a7c15ull + v;
        std::uint64_t z = x;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        x = z ^ (z >> 31);
    };
    mix(op);
    for (int d = 0; d < SpaceDim; ++d)
        mix(static_cast<std::uint64_t>(ratio[d]));
    return x != 0 ? x : 1;
}

BoxArray::BoxArray(std::vector<Box> boxes)
    : boxes_(std::move(boxes)), id_(nextId()),
      hash_(std::make_shared<HashSlot>()) {
    for ([[maybe_unused]] const Box& b : boxes_) assert(b.ok());
}

BoxArray::BoxArray(const Box& single)
    : boxes_{single}, id_(nextId()), hash_(std::make_shared<HashSlot>()) {
    assert(single.ok());
}

std::int64_t BoxArray::numPts() const { return totalPts(boxes_); }

Box BoxArray::minimalBox() const {
    Box mb;
    for (const Box& b : boxes_) mb = Box::bboxUnion(mb, b);
    return mb;
}

const BoxArray::Hash& BoxArray::hash() const {
    std::call_once(hash_->once, [this] {
        Hash& h = hash_->hash;
        IntVect maxSize(1);
        for (const Box& b : boxes_)
            maxSize = IntVect::componentMax(maxSize, b.size());
        h.bucketSize = maxSize;
        for (int i = 0; i < size(); ++i) {
            // A box spans at most 2 buckets per dimension when buckets are
            // at least as large as the box.
            const Box cb = boxes_[i].coarsen(maxSize);
            forEachCell(cb, [&](int bi, int bj, int bk) {
                h.buckets[IntVect{bi, bj, bk}].push_back(i);
            });
        }
    });
    return hash_->hash;
}

std::vector<std::pair<int, Box>> BoxArray::intersections(const Box& b) const {
    std::vector<std::pair<int, Box>> out;
    if (boxes_.empty() || !b.ok()) return out;
    const Hash& h = hash();
    const Box cb = b.coarsen(h.bucketSize);
    // Candidate gather + sort/unique keeps the query O(candidates), not
    // O(total boxes) — this is the hot path of ghost-exchange pattern
    // extraction on 10^5-box layouts.
    std::vector<int> candidates;
    forEachCell(cb, [&](int bi, int bj, int bk) {
        auto it = h.buckets.find(IntVect{bi, bj, bk});
        if (it == h.buckets.end()) return;
        candidates.insert(candidates.end(), it->second.begin(), it->second.end());
    });
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    for (int idx : candidates) {
        const Box isect = boxes_[idx] & b;
        if (isect.ok()) out.emplace_back(idx, isect);
    }
    return out;
}

bool BoxArray::intersects(const Box& b) const { return !intersections(b).empty(); }

bool BoxArray::contains(const Box& b) const {
    if (!b.ok()) return true;
    std::vector<Box> covers;
    for (const auto& [idx, isect] : intersections(b)) covers.push_back(isect);
    return fullyCovered(b, covers);
}

bool BoxArray::contains(const IntVect& p) const {
    return contains(Box(p, p));
}

std::vector<Box> BoxArray::complementIn(const Box& b) const {
    std::vector<Box> covers;
    for (const auto& [idx, isect] : intersections(b)) covers.push_back(isect);
    return boxDiff(b, covers);
}

BoxArray BoxArray::coarsen(const IntVect& ratio) const {
    std::vector<Box> out;
    out.reserve(boxes_.size());
    for (const Box& b : boxes_) out.push_back(b.coarsen(ratio));
    BoxArray ba(std::move(out));
    ba.id_ = deriveId(id_, 1, ratio);
    return ba;
}

BoxArray BoxArray::refine(const IntVect& ratio) const {
    std::vector<Box> out;
    out.reserve(boxes_.size());
    for (const Box& b : boxes_) out.push_back(b.refine(ratio));
    BoxArray ba(std::move(out));
    ba.id_ = deriveId(id_, 2, ratio);
    return ba;
}

bool BoxArray::coarsenable(const IntVect& ratio) const {
    for (const Box& b : boxes_)
        if (!b.coarsenable(ratio)) return false;
    return true;
}

} // namespace crocco::amr
