/**
 * @file
 * HotQueue: a multi-slot HotCall channel drained by an adaptive
 * responder pool.
 *
 * The paper's Figure-9 channel (hotcall.hh) holds ONE in-flight
 * request behind one lock word, so concurrent requesters serialize on
 * a single cache line and throughput flatlines past one app thread.
 * HotQueue generalizes the channel into a ring buffer:
 *
 *  - N slots, each on its own simulated cache line so concurrent
 *    producers do not false-share; the producer cursor (tail) and
 *    consumer cursor (head) live on two further separate lines,
 *  - a pool of responder threads drains the ring; a responder that
 *    finds k pending slots serves all k before re-polling (batching,
 *    in the spirit of "Speeding up enclave transitions for
 *    IO-intensive applications": the head-line coherence transfer is
 *    amortized over the whole batch),
 *  - the pool is sized adaptively, following "SGX Switchless Calls
 *    Made Configless": slot occupancy is tracked over a sliding
 *    window of responder polls, surplus responders park on a condvar
 *    when occupancy is low, and requesters that find the ring full
 *    (or take the timeout fallback) wake parked responders,
 *  - per-queue statistics (queue-depth histogram, batch-size
 *    histogram, scale events) are kept via support/stats.
 *
 * Like HotCallService, a HotQueue exists in both directions and
 * shares everything but its protocol with it (the Channel core,
 * channel.hh).
 */

#ifndef HC_HOTCALLS_HOTQUEUE_HH
#define HC_HOTCALLS_HOTQUEUE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "hotcalls/hotcall.hh"
#include "support/stats.hh"

namespace hc::hotcalls {

/** Park a surplus responder when the fraction of its occupancy
 *  window's TIME it spent serving batches drops below this. */
constexpr double kScaleDownOccupancy = 0.2;

/** HotQueue tunables (ChannelConfig::arenaBytes is per slot). */
struct HotQueueConfig : ChannelConfig {
    /** Ring capacity: concurrent in-flight requests. */
    int numSlots = 4;
    /** Responders that always keep polling (never park); >= 1. */
    int minResponders = 1;
    /** One pool member per core; size = maximum pool size. */
    std::vector<CoreId> responderCores = {2};
    /** Sliding occupancy window, in responder polls. */
    std::uint64_t scaleWindowPolls = 256;
    /** Queue depth at which an enqueue wakes a parked responder;
     *  0 = auto (half the slots, at least 2). */
    int scaleUpDepth = 0;
};

/** Run statistics of a HotQueue. */
struct HotQueueStats : ChannelStats {
    Histogram depth{64};     //!< pending entries at each enqueue
    Histogram batchSize{64}; //!< slots served per batch
};

/** The multi-slot channel plus its responder pool. */
class HotQueue : public Channel
{
  public:
    /**
     * @param runtime  enclave runtime whose edge functions are served
     * @param kind     HotEcall or HotOcall
     * @param config   tunables (responderCores sizes the pool)
     */
    HotQueue(sdk::EnclaveRuntime &runtime, Kind kind,
             HotQueueConfig config = {});

    ~HotQueue() override { stop(); }

    /** Spawn the responder pool (must be called before call()).
     *  Responders beyond minResponders park immediately and are woken
     *  on demand. */
    void start() override;

    using Channel::call;
    std::uint64_t call(int id, const edl::Args &args) override;

    const HotQueueStats &stats() const { return stats_; }

    /** @return responders currently polling (not parked). */
    int activeResponders() const
    {
        return static_cast<int>(responders_.size()) - parked_;
    }

  private:
    /** Lifecycle of one ring slot. */
    enum class SlotState {
        Free,       //!< claimable by a requester
        Publishing, //!< claimed; request being marshalled
        Ready,      //!< published; awaiting a responder
        Serving,    //!< grabbed by a responder
        Done,       //!< executed; awaiting harvest by the requester
        Zombie,     //!< reclaimed by Sentinel; awaiting retirement
    };

    /** One ring entry; control state rides its own cache line (its
     *  FastPath staging is the core's staging slot of the same
     *  index). */
    struct Slot {
        Addr line = 0;
        SlotState state = SlotState::Free;
        Request *request = nullptr; //!< call_ID and the *data pointer
        // Sentinel reclamation state (inert while the guard is off).
        std::uint64_t epoch = 0; //!< bumped at claim and at reclaim:
                                 //!< a mismatch tells publisher or
                                 //!< server the slot was taken away
        Cycles claimedAt = 0;    //!< Publishing-leash anchor
        Cycles servingSince = 0; //!< Serving-leash anchor
        bool dispatched = false; //!< server started executing (a
                                 //!< dispatched handler is never
                                 //!< reclaimed — it always completes)
        bool ownerless = false;  //!< Zombie nobody will retire except
                                 //!< the head scan (Ready-reclaim)
    };

    /** The responder thread body (pool member @p index; respawned
     *  members carry index -1: they never start parked). Its idle
     *  polling is a sim::Spin; the fiber grabs, serves and parks. */
    void responderLoop(int index);

    /** A slot taken for serving, with the epoch it was taken at. */
    struct Grab {
        std::size_t idx;
        std::uint64_t epoch;
    };

    /** Once a poll saw pending entries: serve up to numSlots of them,
     *  collected in @p batch (the calling responder's scratch, cleared
     *  here: responders share the queue and a batch spans
     *  suspensions). @return slots served. */
    int tryServeBatch(std::vector<Grab> &batch);

    /** Publisher side: @return true when the head scan retired slot
     *  @p index (claimed at @p epoch) out from under a stalled
     *  publisher — the claim is void, the Zombie retired. */
    bool claimVoided(std::size_t index, std::uint64_t epoch);

    /** Requester side: @return true when published slot @p index
     *  (claimed at @p epoch, waited on since @p wait_start) is stuck
     *  Ready or undispatched Serving past its deadline. */
    bool reclaimDue(std::size_t index, std::uint64_t epoch,
                    Cycles wait_start) const;

    /** @return the earliest clock reclaimDue() could hold for the same
     *  slot, epoch and wait (sim::kNever when it cannot). */
    Cycles reclaimFrom(std::size_t index, std::uint64_t epoch,
                       Cycles wait_start) const;

    /** Retire stuck slot @p index (reclaimDue() just held) to an
     *  ownerless Zombie; its call reissues on the SDK path. */
    void reclaim(std::size_t index);

    /** Return a Zombie slot to Free (fields cleared, line touched). */
    void retireZombie(std::size_t index);

    /** Spawn a replacement responder (the wedged one keeps its fiber —
     *  it exits on stop) on a core that can take it. */
    void respawn() override;

    void wakeResponders() override;

    /** Park the calling responder; re-checks conditions under the
     *  pool mutex and counts a scale-down when @p scale_event.
     *  @return true when it actually parked. */
    bool parkResponder(bool scale_event);

    /** Wake one parked responder, if any; counts a scale-up when
     *  @p scale_event. @return true when a responder was actually
     *  signalled — callers limit themselves to one successful
     *  scale-up wake per logical call, so a call that burns several
     *  claim attempts back-to-back cannot inflate the scale
     *  statistics (or thrash the pool) once per attempt. */
    bool wakeOneResponder(bool scale_event);

    /** Priced accesses to the simulated control lines. */
    void touchSlot(std::size_t index, bool write)
    {
        machine_.memory().accessWord(slots_[index].line, write);
    }
    void touchHead(bool write)
    {
        machine_.memory().accessWord(headLine_, write);
    }
    void touchTail(bool write)
    {
        machine_.memory().accessWord(tailLine_, write);
    }

    /** @return unserved (pre-grab) entries in the ring. */
    std::uint64_t pending() const { return tail_ - head_; }

    HotQueueConfig config_;
    HotQueueStats stats_;

    // ------------------------------------------------------------------
    // The ring. Functional state lives host-side; every protocol
    // access prices the corresponding simulated cache line, so the
    // coherence model sees one line per slot plus the two cursor
    // lines (no false sharing between producers).
    // ------------------------------------------------------------------

    std::vector<Slot> slots_;
    Addr headLine_ = 0; //!< consumer cursor line
    Addr tailLine_ = 0; //!< producer cursor line
    std::uint64_t head_ = 0;
    std::uint64_t tail_ = 0;

    sdk::SgxThreadMutex poolMutex_; //!< guards parking handoff
    sdk::SgxThreadCond poolCond_;
    int parked_ = 0;

    /** Shadow state machine when the Machine's checker is on. */
    std::unique_ptr<check::HotQueueProtocol> protocol_;
};

} // namespace hc::hotcalls

#endif // HC_HOTCALLS_HOTQUEUE_HH
