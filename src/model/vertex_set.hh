/**
 * @file
 * The vertex set a snapshot plan recomputes at one GCN layer or runs
 * the RNN on.
 *
 * A full recompute touches every vertex, so most plan sets are either
 * "all n vertices" or a list that many plans repeat: MEGA's layers
 * share one set, Race/DiTile siblings share their layer sets, and a
 * prefix-extended plan set shares its prefix's. A VertexSet therefore
 * takes one of two forms:
 *
 *  - all(n): the ids 0..n-1, held as the bound n alone;
 *  - a list: one shared, immutable vector of strictly ascending ids,
 *    none of which covers [0, n) (such a list is made all(n) when it
 *    is built, so each set has exactly one form).
 *
 * Copying a set shares its storage. Equality compares content, so a
 * list equals all(n) exactly when it holds 0..n-1.
 */

#ifndef DITILE_MODEL_VERTEX_SET_HH
#define DITILE_MODEL_VERTEX_SET_HH

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace ditile::model {

class VertexSet
{
  public:
    /** The empty set (a list, not all(0)). */
    VertexSet() : ids_(noIds()) {}

    /** Every vertex of an n-vertex snapshot. */
    static VertexSet all(VertexId n) { return VertexSet(Bound{n}); }

    /** `ids`, strictly ascending in [0, n) (asserted); all(n) when
     *  they cover the range. */
    VertexSet(std::vector<VertexId> ids, VertexId n)
    {
        DITILE_ASSERT(ids.empty() || (ids.front() >= 0 && ids.back() < n),
                      "vertex id out of range");
        for (std::size_t i = 1; i < ids.size(); ++i)
            DITILE_ASSERT(ids[i - 1] < ids[i], "ids not strictly ascending");
        if (ids.size() == static_cast<std::size_t>(n)) {
            bound_ = n;
            return;
        }
        ids_ = ids.empty()
            ? noIds()
            : std::make_shared<const std::vector<VertexId>>(std::move(ids));
    }

    std::size_t
    size() const
    {
        return ids_ ? ids_->size() : static_cast<std::size_t>(bound_);
    }

    bool empty() const { return size() == 0; }

    /** Whether this is all(n): it holds no ids. */
    bool isAll() const { return !ids_; }

    /** The shared id list, or nullptr for all(n). */
    const std::vector<VertexId> *ids() const { return ids_.get(); }

    /** fn(v) for each id in ascending order, with one form test per
     *  call rather than per id (the Stage-1 loops). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        if (ids_) {
            for (const VertexId v : *ids_)
                fn(v);
        } else {
            for (VertexId v = 0; v < bound_; ++v)
                fn(v);
        }
    }

    friend bool
    operator==(const VertexSet &a, const VertexSet &b)
    {
        if (a.size() != b.size())
            return false;
        if (a.ids_ == b.ids_)
            return true; // Shared list, or all(n) of equal n.
        if (!a.ids_ || !b.ids_) {
            // Strictly ascending, so n ids from 0 to n-1 are 0..n-1.
            const auto &list = a.ids_ ? *a.ids_ : *b.ids_;
            return list.empty() ||
                (list.front() == 0 &&
                 list.back() == static_cast<VertexId>(list.size()) - 1);
        }
        return *a.ids_ == *b.ids_;
    }

  private:
    struct Bound
    {
        VertexId n;
    };

    explicit VertexSet(Bound bound) : bound_(bound.n) {}

    /** The one empty list every empty set shares. */
    static const std::shared_ptr<const std::vector<VertexId>> &
    noIds()
    {
        static const auto empty =
            std::make_shared<const std::vector<VertexId>>();
        return empty;
    }

    std::shared_ptr<const std::vector<VertexId>> ids_;
    VertexId bound_ = 0; ///< all(n): n. Unused by a list.
};

} // namespace ditile::model

#endif // DITILE_MODEL_VERTEX_SET_HH
