/**
 * @file
 * Sentinel implementation (the decision logic is header-inline; this
 * file holds the reporting helpers).
 */

#include "guard/guard.hh"

#include <algorithm>
#include <sstream>

namespace hc::guard {

GuardStats
Sentinel::totals() const
{
    GuardStats total;
    for (const ChannelGuard &guard : guards_) {
        const GuardStats &s = guard.stats();
        total.quarantines += s.quarantines;
        total.restores += s.restores;
        total.probes += s.probes;
        total.probeFailures += s.probeFailures;
        total.sheds += s.sheds;
        total.abandons += s.abandons;
        total.discards += s.discards;
        total.reclaimedReady += s.reclaimedReady;
        total.reclaimedServing += s.reclaimedServing;
        total.reclaimedPublishing += s.reclaimedPublishing;
        total.zombieRetires += s.zombieRetires;
        total.staleCompletions += s.staleCompletions;
        total.respawns += s.respawns;
        total.fallbackStreakMax =
            std::max(total.fallbackStreakMax, s.fallbackStreakMax);
        total.adaptiveBudgetMax =
            std::max(total.adaptiveBudgetMax, s.adaptiveBudgetMax);
        total.degradedCycles += s.degradedCycles;
    }
    return total;
}

std::string
Sentinel::summaryJson() const
{
    const GuardStats t = totals();
    std::ostringstream out;
    out << "{\"channels\":" << guards_.size()
        << ",\"quarantines\":" << t.quarantines
        << ",\"restores\":" << t.restores
        << ",\"probes\":" << t.probes
        << ",\"probe_failures\":" << t.probeFailures
        << ",\"sheds\":" << t.sheds
        << ",\"abandons\":" << t.abandons
        << ",\"discards\":" << t.discards
        << ",\"reclaimed_ready\":" << t.reclaimedReady
        << ",\"reclaimed_serving\":" << t.reclaimedServing
        << ",\"reclaimed_publishing\":" << t.reclaimedPublishing
        << ",\"zombie_retires\":" << t.zombieRetires
        << ",\"stale_completions\":" << t.staleCompletions
        << ",\"respawns\":" << t.respawns
        << ",\"fallback_streak_max\":" << t.fallbackStreakMax
        << ",\"adaptive_budget_max\":" << t.adaptiveBudgetMax
        << ",\"degraded_cycles\":" << t.degradedCycles << "}";
    return out.str();
}

} // namespace hc::guard
