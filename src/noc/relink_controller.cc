/**
 * @file
 * Re-Link controller implementation.
 */

#include "noc/relink_controller.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ditile::noc {

RelinkController::RelinkController(int rows,
                                   std::vector<int> candidate_spans)
    : rows_(rows), candidates_(std::move(candidate_spans))
{
    DITILE_ASSERT(rows_ >= 1);
    if (std::find(candidates_.begin(), candidates_.end(), 1) ==
        candidates_.end()) {
        candidates_.push_back(1);
    }
    std::sort(candidates_.begin(), candidates_.end());
    candidates_.erase(std::unique(candidates_.begin(),
                                  candidates_.end()),
                      candidates_.end());
    DITILE_ASSERT(candidates_.front() >= 1);
}

int
RelinkController::stopsForDistance(int distance, int span)
{
    DITILE_ASSERT(distance >= 0 && span >= 1);
    if (distance == 0)
        return 0;
    // The ring stops every `span` hops; the final hop always stops.
    // Mirrors RingRoutes' stop placement: intermediate stops at
    // multiples of span that are not the last hop, plus the arrival.
    return (distance - 1) / span + 1;
}

RelinkDecision
RelinkController::decide(const std::vector<int> &vertical_distances,
                         Cycle router_latency,
                         double stuck_open_fraction)
{
    const double stuck = std::clamp(stuck_open_fraction, 0.0, 1.0);
    RelinkDecision decision;
    decision.span = currentSpan_;

    // Nothing to route: keep the engaged configuration for free.
    const bool any_traffic = std::any_of(
        vertical_distances.begin(), vertical_distances.end(),
        [](int d) { return d > 0; });
    if (!any_traffic)
        return decision;

    double best = -1.0;
    for (int span : candidates_) {
        // Expected head latency per message: one cycle per hop plus
        // the router pipeline at every stop (the cut-through model in
        // network.cc makes serialization span-independent for equal
        // paths, so stops are the differentiator).
        double total = 0.0;
        std::size_t counted = 0;
        for (int d : vertical_distances) {
            if (d <= 0)
                continue;
            ++counted;
            // Columns with a stuck-open bypass run at span 1 no matter
            // what is engaged; weight their latency accordingly.
            const double stops = stuck *
                    static_cast<double>(stopsForDistance(d, 1)) +
                (1.0 - stuck) *
                    static_cast<double>(stopsForDistance(d, span));
            total += static_cast<double>(d) +
                stops * static_cast<double>(router_latency);
        }
        const double score = counted
            ? total / static_cast<double>(counted) : 0.0;
        if (best < 0.0 || score < best ||
            (score == best && span < decision.span)) {
            best = score;
            decision.span = span;
        }
    }
    decision.expectedLatency = std::max(0.0, best);

    if (decision.span != currentSpan_) {
        // One toggle per bypass segment along every vertical ring
        // whose configuration changes.
        const auto segments = static_cast<std::uint64_t>(
            std::max(1, rows_ / std::max(decision.span,
                                         currentSpan_)));
        decision.reconfigEvents = segments;
        totalEvents_ += segments;
        currentSpan_ = decision.span;
    }
    return decision;
}

} // namespace ditile::noc
