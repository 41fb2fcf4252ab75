/**
 * @file
 * Sentinel: self-healing supervision for the hot-call plane.
 *
 * The paper's timeout fallback (Section 4.2) keeps calls *correct*
 * when a responder stops answering, but it is not *cheap*: every call
 * on a dead channel burns the full spin budget before taking the SDK
 * path, forever. Sentinel closes the loop — detect, degrade
 * gracefully, heal:
 *
 *  - responder liveness: responders stamp a heartbeat on every poll
 *    and every served slot; a channel whose responders have not
 *    progressed within a bounded window is treated as suspect, which
 *    arms the reclamation deadlines below and (on quarantine entry)
 *    triggers a respawn of the wedged responder fiber,
 *  - stuck-request reclamation: a published request no responder ever
 *    committed to is abandoned past a latency-derived deadline and
 *    reissued on the SDK path (HotQueue slots are retired through a
 *    Zombie state so the ring keeps rotating around the hole),
 *  - channel quarantine with hysteresis: after K *consecutive*
 *    fallbacks the channel degrades — callers route straight to the
 *    SDK with zero spin waste — and a cycle-scheduled probe (with
 *    exponential backoff) restores the fast path once a responder
 *    answers, so a fallback storm costs O(K) timeouts, not O(calls),
 *  - adaptive timeout budgets: the fixed `timeoutTries` becomes the
 *    *floor* of a budget derived from an EWMA/deviation estimator
 *    over observed channel latencies (clamped to a configured
 *    ceiling), shared by HotCallService and HotQueue through the
 *    unified TimeoutPolicy.
 *
 * Determinism contract (same discipline as FaultLine/FastPath): the
 * guard draws nothing from any RNG, charges no simulated time, and
 * touches no simulated memory on the healthy path. Every intervention
 * is gated on conditions a quiet run never produces — a fallback, a
 * responder past its liveness window, a deadline expiry — so with
 * Sentinel on but quiet the pinned golden digests are unchanged, and
 * with it off the code collapses to null-pointer tests.
 */

#ifndef HC_GUARD_GUARD_HH
#define HC_GUARD_GUARD_HH

#include <cstdint>
#include <deque>
#include <string>

#include "support/units.hh"

namespace hc::guard {

/** Approximate cost of one failed claim attempt (PAUSE plus mean poll
 *  jitter), used to convert the latency estimate into an attempt
 *  budget. */
constexpr Cycles kAttemptCost = 46;
/** Safety factor applied to the estimated latency upper bound when
 *  deriving the adaptive attempt budget. */
constexpr double kBudgetHeadroom = 2.0;
/** Clamp bounds of the abandon deadline for a published request no
 *  responder has committed to (unserved). */
constexpr Cycles kMinUnservedWait = 30'000;
constexpr Cycles kMaxUnservedWait = 2'000'000;
/** Safety factor applied to the latency upper bound when deriving the
 *  unserved-request abandon deadline. */
constexpr double kWaitHeadroom = 8.0;

/**
 * The unified timeout policy shared by HotCallService, HotQueue and
 * the porting layer (previously each carried its own `timeoutTries`
 * copy). The fixed fields reproduce the paper's behaviour; the rest
 * parameterize Sentinel's adaptive budget and reclaim deadlines and
 * are inert while the guard is off.
 */
struct TimeoutPolicy {
    /** Claim attempts before falling back to the SDK call. The paper
     *  uses 10 and reports it never expired. With Sentinel on this is
     *  the *floor* of the adaptive budget. */
    int timeoutTries = 10;
    /** Ceiling of the adaptive budget (attempts per call). */
    int maxTimeoutTries = 256;
    /** Deadline for a HotQueue slot stuck Publishing (claimed but
     *  never published): past it the head scan retires the slot so
     *  the ring keeps rotating. Generous — legitimate marshalling of
     *  large payloads must never trip it. */
    Cycles publishLeash = 1'000'000;
    /** Deadline for a HotQueue slot grabbed by a responder that never
     *  started executing it (crashed mid-batch). Dispatched handlers
     *  are never reclaimed — in-flight execution always completes. */
    Cycles servingLeash = 4'000'000;
};

/** Sentinel tunables (mem::MachineConfig::guard). */
struct GuardConfig {
    /** Off: no Sentinel, bit-identical to the unguarded plane on
     *  quiet runs. */
    bool enabled = true;
    /** Consecutive fallbacks before the channel is quarantined. */
    int quarantineAfter = 8;
    /** Cycles between quarantine probes (first probe interval). */
    Cycles probeInterval = 250'000;
    /** Probe interval multiplier after each failed probe (hysteresis:
     *  a dead channel is probed ever more rarely, so flapping faults
     *  cannot make the guard oscillate at call rate). */
    double probeBackoff = 2.0;
    /** Ceiling of the backed-off probe interval. */
    Cycles probeIntervalMax = 4'000'000;
    /** A channel whose responders have all been silent for this many
     *  cycles is suspect: adaptive budgets and reclaim deadlines arm,
     *  and quarantine entry may respawn the responder. */
    Cycles livenessWindow = 150'000;
    /** Respawn a wedged responder fiber on quarantine entry. */
    bool respawn = true;
    /** Total respawn budget per channel (runaway guard brake). */
    int maxRespawns = 4;
};

/** Per-channel supervision counters (ChannelGuard::stats()). */
struct GuardStats {
    std::uint64_t quarantines = 0; //!< degraded-mode entries
    std::uint64_t restores = 0;    //!< probe-confirmed recoveries
    std::uint64_t probes = 0;      //!< probe calls launched
    std::uint64_t probeFailures = 0;
    std::uint64_t sheds = 0;       //!< degraded calls routed to SDK
    std::uint64_t abandons = 0;    //!< unserved requests abandoned
    std::uint64_t discards = 0;    //!< stale requests dropped by a
                                   //!< responder (single-line channel)
    std::uint64_t reclaimedReady = 0;      //!< slots retired from Ready
    std::uint64_t reclaimedServing = 0;    //!< ... from Serving
    std::uint64_t reclaimedPublishing = 0; //!< ... from Publishing
    std::uint64_t zombieRetires = 0;   //!< Zombie slots returned Free
    std::uint64_t staleCompletions = 0; //!< server found slot reclaimed
    std::uint64_t respawns = 0;    //!< responder fibers respawned
    std::uint64_t fallbackStreakMax = 0; //!< longest consecutive run
    std::uint64_t adaptiveBudgetMax = 0; //!< attempt-budget high water
    Cycles degradedCycles = 0;     //!< closed time spent quarantined
};

/**
 * RFC6298-style EWMA mean/deviation estimator over channel latencies.
 * Pure arithmetic on observed samples — no RNG, no time charges — so
 * it is deterministic by construction.
 */
class LatencyEstimator
{
  public:
    /** Fold one latency sample (cycles) into the estimate. */
    void observe(Cycles sample)
    {
        const double s = static_cast<double>(sample);
        if (count_ == 0) {
            mean_ = s;
            dev_ = s / 2.0;
        } else {
            const double err = s > mean_ ? s - mean_ : mean_ - s;
            dev_ += (err - dev_) / 4.0;
            mean_ += (s - mean_) / 8.0;
        }
        ++count_;
    }

    bool primed() const { return count_ > 0; }
    double mean() const { return mean_; }
    double deviation() const { return dev_; }

    /** @return the mean + 4 deviations upper bound (cycles). */
    Cycles upperBound() const
    {
        return static_cast<Cycles>(mean_ + 4.0 * dev_);
    }

  private:
    double mean_ = 0.0;
    double dev_ = 0.0;
    std::uint64_t count_ = 0;
};

/**
 * Supervision state of one channel (a HotCallService or a HotQueue).
 * The channel drives it from its own call/serve paths and owns every
 * simulated side effect (line touches, respawns, SDK reissues); the
 * guard only decides and counts, so it can never perturb a run on its
 * own.
 *
 * State machine: Healthy -> (K consecutive fallbacks) -> Quarantined
 * -> (scheduled probe succeeds) -> Healthy. While quarantined, calls
 * shed straight to the SDK except for one in-flight probe per
 * backoff interval.
 */
class ChannelGuard
{
  public:
    /** How a call should be routed right now. */
    enum class Route {
        Fast,  //!< ride the channel (the ordinary path)
        Probe, //!< quarantined: this call probes the fast path
        Shed,  //!< quarantined: go straight to the SDK, zero spin
    };

    ChannelGuard(const GuardConfig &config, const TimeoutPolicy &policy,
                 std::string name)
        : config_(config), policy_(policy), name_(std::move(name))
    {
    }

    // ------------------------------------------------------------------
    // Requester side.
    // ------------------------------------------------------------------

    /** Route the call starting at @p now (claims the probe slot when
     *  one is due — the caller must then report the probe outcome). */
    Route route(Cycles now)
    {
        if (!degraded_)
            return Route::Fast;
        if (!probeInFlight_ && now >= nextProbeAt_) {
            probeInFlight_ = true;
            ++stats_.probes;
            return Route::Probe;
        }
        return Route::Shed;
    }

    /**
     * Claim attempts this call may spend. The configured floor while
     * the channel looks healthy (bit-identical to the fixed budget);
     * once a fallback streak is open or the responders look late, the
     * latency estimate widens the budget so transient stalls are
     * ridden out instead of amplified into fallback storms.
     */
    int attemptBudget(Cycles now)
    {
        const int floor = policy_.timeoutTries;
        if ((consecFallbacks_ == 0 && !responderLate(now)) ||
            !latency_.primed())
            return floor;
        const double want = static_cast<double>(latency_.upperBound()) *
                            kBudgetHeadroom /
                            static_cast<double>(kAttemptCost);
        int budget = static_cast<int>(want) + 1;
        if (budget < floor)
            budget = floor;
        if (budget > policy_.maxTimeoutTries)
            budget = policy_.maxTimeoutTries;
        if (static_cast<std::uint64_t>(budget) >
            stats_.adaptiveBudgetMax)
            stats_.adaptiveBudgetMax =
                static_cast<std::uint64_t>(budget);
        return budget;
    }

    /** Abandon deadline for a published-but-uncommitted request. */
    Cycles unservedDeadline() const
    {
        if (!latency_.primed())
            return kMinUnservedWait;
        const Cycles want = static_cast<Cycles>(
            static_cast<double>(latency_.upperBound()) * kWaitHeadroom);
        if (want < kMinUnservedWait)
            return kMinUnservedWait;
        if (want > kMaxUnservedWait)
            return kMaxUnservedWait;
        return want;
    }

    Cycles publishLeash() const { return policy_.publishLeash; }
    Cycles servingLeash() const { return policy_.servingLeash; }

    /** @return true when no responder has progressed within the
     *  liveness window (arms deadlines and respawn). */
    bool responderLate(Cycles now) const
    {
        return everBeat_ && now - lastBeat_ > config_.livenessWindow;
    }

    bool degraded() const { return degraded_; }

    // ------------------------------------------------------------------
    // Outcome reports (requester side).
    // ------------------------------------------------------------------

    /** The call completed via the channel after @p attempts failed
     *  claim attempts, in @p latency cycles end to end. */
    void onSuccess(Cycles now, Cycles latency, int attempts, bool probe)
    {
        (void)attempts;
        latency_.observe(latency);
        consecFallbacks_ = 0;
        if (probe)
            probeInFlight_ = false;
        if (degraded_) {
            // The fast path answered (a probe, or a straggler that
            // was already in flight at quarantine entry): restore.
            degraded_ = false;
            ++stats_.restores;
            stats_.degradedCycles += now - degradedSince_;
        }
    }

    /**
     * The call left on the SDK path (budget expired or the request
     * was abandoned/reclaimed). @return true when this fallback
     * crossed the streak threshold into quarantine — the channel may
     * then respawn its responder.
     */
    bool onFallback(Cycles now, bool probe)
    {
        ++consecFallbacks_;
        if (static_cast<std::uint64_t>(consecFallbacks_) >
            stats_.fallbackStreakMax)
            stats_.fallbackStreakMax =
                static_cast<std::uint64_t>(consecFallbacks_);
        if (probe) {
            // Failed probe: stay quarantined, back the interval off.
            probeInFlight_ = false;
            ++stats_.probeFailures;
            probeGap_ = static_cast<Cycles>(
                static_cast<double>(probeGap_) * config_.probeBackoff);
            if (probeGap_ > config_.probeIntervalMax)
                probeGap_ = config_.probeIntervalMax;
            nextProbeAt_ = now + probeGap_;
            return false;
        }
        if (!degraded_ &&
            consecFallbacks_ >= config_.quarantineAfter) {
            degraded_ = true;
            degradedSince_ = now;
            ++stats_.quarantines;
            probeGap_ = config_.probeInterval;
            nextProbeAt_ = now + probeGap_;
            return true;
        }
        return false;
    }

    /** A degraded call was shed straight to the SDK. */
    void onShed(Cycles /*now*/) { ++stats_.sheds; }

    /** Consume one respawn slot. @return false once the budget is
     *  spent (the channel stays quarantined on probes alone). */
    bool respawnAllowed()
    {
        if (respawnsUsed_ >= config_.maxRespawns)
            return false;
        ++respawnsUsed_;
        ++stats_.respawns;
        return true;
    }

    // ------------------------------------------------------------------
    // Responder side.
    // ------------------------------------------------------------------

    /** Stamp responder progress (every poll and every served slot). */
    void heartbeat(Cycles now)
    {
        lastBeat_ = now;
        everBeat_ = true;
    }

    // ------------------------------------------------------------------
    // Event counters (the channel owns the actual transitions).
    // ------------------------------------------------------------------

    void noteAbandon() { ++stats_.abandons; }
    void noteDiscard() { ++stats_.discards; }
    void noteReclaimReady() { ++stats_.reclaimedReady; }
    void noteReclaimServing() { ++stats_.reclaimedServing; }
    void noteReclaimPublishing() { ++stats_.reclaimedPublishing; }
    void noteZombieRetire() { ++stats_.zombieRetires; }
    void noteStaleCompletion() { ++stats_.staleCompletions; }

    /** Total quarantined time including a still-open interval. */
    Cycles degradedCycles(Cycles now) const
    {
        Cycles total = stats_.degradedCycles;
        if (degraded_ && now > degradedSince_)
            total += now - degradedSince_;
        return total;
    }

    /** Close an open degraded interval (channel stop()). */
    void flush(Cycles now)
    {
        if (degraded_) {
            stats_.degradedCycles += now - degradedSince_;
            degradedSince_ = now;
        }
    }

    const GuardStats &stats() const { return stats_; }
    const TimeoutPolicy &policy() const { return policy_; }
    const GuardConfig &config() const { return config_; }
    const std::string &name() const { return name_; }

  private:
    const GuardConfig &config_;
    TimeoutPolicy policy_;
    std::string name_;

    bool degraded_ = false;
    Cycles degradedSince_ = 0;
    int consecFallbacks_ = 0;
    bool probeInFlight_ = false;
    Cycles nextProbeAt_ = 0;
    Cycles probeGap_ = 0;
    int respawnsUsed_ = 0;

    Cycles lastBeat_ = 0;
    bool everBeat_ = false;

    LatencyEstimator latency_;
    GuardStats stats_;
};

/**
 * The per-Machine supervisor: owns one ChannelGuard per adopted
 * channel. Lives alongside SimCheck and FaultLine in mem::Machine;
 * channels reach it through Machine::guard() (null when Sentinel is
 * off, so every hook is a pointer test on ordinary runs).
 */
class Sentinel
{
  public:
    explicit Sentinel(GuardConfig config) : config_(std::move(config))
    {
    }

    Sentinel(const Sentinel &) = delete;
    Sentinel &operator=(const Sentinel &) = delete;

    /** Register a channel; the returned guard is stable for the
     *  Sentinel's lifetime (channels must not outlive the Machine,
     *  which they cannot — they hold it by reference). */
    ChannelGuard &adopt(std::string name, const TimeoutPolicy &policy)
    {
        guards_.emplace_back(config_, policy, std::move(name));
        return guards_.back();
    }

    const GuardConfig &config() const { return config_; }

    /** Aggregate counters across every adopted channel. */
    GuardStats totals() const;

    /** One-line JSON summary (campaign/bench artifacts). */
    std::string summaryJson() const;

  private:
    GuardConfig config_;
    std::deque<ChannelGuard> guards_; //!< deque: stable references
};

} // namespace hc::guard

#endif // HC_GUARD_GUARD_HH
