/**
 * @file
 * HotCalls: the paper's fast enclave interface (Section 4).
 *
 * Instead of paying an 8,200-17,000-cycle secure context switch per
 * call, a *requester* and a *responder* communicate through a shared
 * cache line in unencrypted memory, synchronized by a spin lock. The
 * responder is a dedicated "on call" thread continuously polling the
 * line (with PAUSE between attempts); the requester takes the lock,
 * checks that the responder is free, publishes the call id and data
 * pointer, signals "go", and spins on "done".
 *
 * Two services exist:
 *  - HotOcall: the enclave is the requester, an untrusted thread is
 *    the responder (replacing SDK ocalls). Marshalling runs in the
 *    trusted requester — *the same edger8r-generated code* the SDK
 *    uses (Sections 4.2, 5) — so the security properties carry over.
 *  - HotEcall: the untrusted side is the requester; the responder is
 *    a thread parked inside the enclave via a single conventional
 *    ecall, polling the shared line from enclave mode.
 *
 * Practical considerations from Section 4.2 are implemented:
 * PAUSE-based self-contention avoidance, a lock-acquire timeout with
 * fallback to the conventional SDK call (both in the Channel core,
 * channel.hh), and an idle-sleep mode in which the responder parks on
 * a condition variable and the requester wakes it before publishing.
 */

#ifndef HC_HOTCALLS_HOTCALL_HH
#define HC_HOTCALLS_HOTCALL_HH

#include <cstdint>
#include <memory>

#include "hotcalls/channel.hh"
#include "sdk/thread_sync.hh"

namespace hc::hotcalls {

/** Single-line tunables (paper Section 4.2). */
struct HotCallConfig : ChannelConfig {
    /** Enable responder idle sleep on a condition variable. */
    bool responderSleep = false;
    /** Empty polls before the responder goes to sleep. */
    std::uint64_t idlePollsBeforeSleep = 100'000;
};

/**
 * One HotCall service: the paper's Figure-9 shared line plus its
 * responder thread.
 */
class HotCallService : public Channel
{
  public:
    /**
     * @param runtime         enclave runtime whose edge functions are
     *                        served
     * @param kind            HotEcall or HotOcall
     * @param responder_core  logical core the On Call thread occupies
     * @param config          tunables
     */
    HotCallService(sdk::EnclaveRuntime &runtime, Kind kind,
                   CoreId responder_core, HotCallConfig config = {});

    ~HotCallService() override { stop(); }

    /** Spawn the responder thread (must be called before call()). */
    void start() override;

    using Channel::call;
    std::uint64_t call(int id, const edl::Args &args) override;

    const ChannelStats &stats() const { return stats_; }

  private:
    /** The responder thread body (@p epoch: retirement generation —
     *  the loop exits once a respawn supersedes it). Its idle polling
     *  is a sim::Spin; the fiber serves, sleeps and takes faults. */
    void responderLoop(std::uint64_t epoch);

    /** Serve (or discard, when abandoned) the request the responder
     *  found published, holding the lock. */
    void serveRequest();

    /** Retire the wedged responder fiber and spawn a replacement on
     *  the same core. */
    void respawn() override;

    void wakeResponders() override;

    /** Drain a still-poisoned line: every responder that could have
     *  discarded the abandoned request has exited. */
    void afterJoin() override;

    /** One priced access to the shared channel line. */
    void touchChannel(bool write)
    {
        machine_.memory().accessWord(channelLine_, write);
    }

    /** The same access, priced but not charged (a Spin step). */
    Cycles probeChannel(bool write)
    {
        return probeLine(channelLine_, write);
    }

    /** Take the spin-lock word; release it without (release()) or with
     *  its RFO on the line (unlock()). */
    void lock();
    void release();
    void unlock()
    {
        release();
        touchChannel(true);
    }

    /** Drop an abandoned request without serving it. */
    void discard();

    CoreId responderCore_;
    HotCallConfig config_;
    ChannelStats stats_;

    // ------------------------------------------------------------------
    // The shared channel, as in the paper's Figure 9. All control
    // fields live on one simulated cache line in untrusted memory
    // (touchChannel prices every access); the host-side fields below
    // carry the functional state. Completion is signalled by the
    // responder clearing the busy/"go" flag after executing the call.
    // ------------------------------------------------------------------

    Addr channelLine_ = 0;
    bool lockWord_ = false;    //!< the sgx_spin_lock word
    bool go_ = false;          //!< responder busy / request published
    bool sleeping_ = false;    //!< responder parked on the condvar
    /** Sentinel protocol extensions, conceptually on the same line.
     *  served: the responder committed to the published request (set
     *  host-atomically with its go_ re-check, so a request is either
     *  discarded or served, never both). abandoned: the publisher
     *  gave up waiting; the channel stays poisoned (go_ held) until a
     *  responder discards the stale request. */
    bool requestServed_ = false;
    bool abandoned_ = false;
    Request *request_ = nullptr; //!< call_ID and the *data pointer
    /** FastPath staging claimed: set and cleared by the requester that
     *  staged into it, so a second requester cannot recycle the staging
     *  before the first has copied its results back out (the busy flag
     *  alone drops too early: when the responder finishes, not when
     *  the requester is done harvesting). */
    bool slotBusy_ = false;

    sdk::SgxThreadMutex sleepMutex_;
    sdk::SgxThreadCond sleepCond_;

    /** Bumped by each respawn: superseded fibers exit at their next
     *  retirement check and are joined at stop(). */
    std::uint64_t responderEpoch_ = 0;

    /** Shadow state machine when the Machine's checker is on. */
    std::unique_ptr<check::HotCallProtocol> protocol_;
};

} // namespace hc::hotcalls

#endif // HC_HOTCALLS_HOTCALL_HH
