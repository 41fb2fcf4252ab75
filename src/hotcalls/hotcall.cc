/**
 * @file
 * HotCallService implementation: the Figure-9 line protocol.
 */

#include "hotcalls/hotcall.hh"

namespace hc::hotcalls {

HotCallService::HotCallService(sdk::EnclaveRuntime &runtime, Kind kind,
                               CoreId responder_core,
                               HotCallConfig config)
    : Channel(runtime, kind), responderCore_(responder_core),
      config_(config), sleepMutex_(machine_), sleepCond_(machine_)
{
    const char *name = kind == Kind::HotEcall ? "hot-ecall" : "hot-ocall";
    bind(config_, stats_, name);
    // One 64-byte line in untrusted memory holds the whole protocol
    // state (spin-lock word, busy flag, call_ID, *data), so a single
    // coherence transfer moves it between requester and responder.
    channelLine_ = allocLine();
    if (auto *ck = machine_.check())
        protocol_ = std::make_unique<check::HotCallProtocol>(*ck, name);
    allocStaging(1);
}

void
HotCallService::start()
{
    hc_assert(responders_.empty());
    const std::uint64_t epoch = responderEpoch_;
    responders_.push_back(machine_.engine().spawn(
        kind_ == Kind::HotEcall ? "hot-ecall-responder"
                                : "hot-ocall-responder",
        responderCore_, [this, epoch] { responderLoop(epoch); }));
}

void
HotCallService::respawn()
{
    if (!guard_->respawnAllowed())
        return;
    // Retire the wedged fiber — it exits at its next retirement check
    // and is joined at stop(), after the live one — and put a fresh
    // responder on the same core. The quarantine probe confirms the
    // recovery.
    const std::uint64_t epoch = ++responderEpoch_;
    responders_.push_back(responders_.front());
    responders_.front() = machine_.engine().spawn(
        std::string(kind_ == Kind::HotEcall ? "hot-ecall-responder-r"
                                            : "hot-ocall-responder-r") +
            std::to_string(epoch),
        responderCore_, [this, epoch] { responderLoop(epoch); });
}

void
HotCallService::wakeResponders()
{
    // The sleeping_ flag is handed over under sleepMutex_: the
    // responder only commits to wait() while holding the mutex, so
    // checking the flag inside it cannot race with a responder that
    // is about to park (which would miss this signal).
    sleepMutex_.lock();
    if (sleeping_)
        sleepCond_.signal();
    sleepMutex_.unlock();
}

void
HotCallService::afterJoin()
{
    if (!abandoned_)
        return;
    // The supervisor performs the teardown discard itself.
    discard();
    touchChannel(true);
}

void
HotCallService::lock()
{
    lockWord_ = true;
    if (protocol_)
        protocol_->onLock();
}

void
HotCallService::release()
{
    lockWord_ = false;
    if (protocol_)
        protocol_->onUnlock();
}

void
HotCallService::discard()
{
    go_ = false;
    abandoned_ = false;
    if (protocol_)
        protocol_->onDiscard();
    guard_->noteDiscard();
}

std::uint64_t
HotCallService::call(int id, const edl::Args &args)
{
    Admission adm;
    if (!admit(id, args, adm))
        return sdkCall(id, args);
    auto &engine = machine_.engine();
    auto *injector = machine_.fault();
    for (int attempt = 0; attempt < adm.budget; ++attempt) {
        if (injector &&
            injector->fire(fault::Site::RequesterAttempt)) {
            // Forced expiry: behave exactly as if the channel were
            // busy for this attempt.
            ++stats_.timeoutAttempts;
            engine.advance(sdk::kPauseCycles +
                           injector->delay(fault::Site::RequesterAttempt));
            continue;
        }
        // Take the spin-lock (one RFO on the channel line).
        touchChannel(true);
        if (lockWord_) {
            ++stats_.timeoutAttempts;
            pause();
            continue;
        }
        lock();

        // Is the responder free? Under FastPath the channel staging
        // must also be free (slotBusy_).
        touchChannel(false);
        if (go_ || slotBusy_) {
            ++stats_.timeoutAttempts;
            unlock();
            pause();
            continue;
        }

        // The responder is ours. Marshal the data, publish *data and
        // call_ID, then signal "go" and release the lock.
        Request req;
        stage(req, id, args, stagingSlot(0));
        slotBusy_ = req.fast != nullptr; // claimed under the lock
        request_ = &req;
        touchChannel(true); // publish *data and call_ID
        go_ = true;
        requestServed_ = false;
        if (protocol_)
            protocol_->onPublish();
        touchChannel(true); // mark the responder busy ("go")

        if (sleeping_) {
            // Responder parked: wake it before waiting (Section 4.2,
            // "Conserving resources at idle times"). The flag handoff
            // happens under sleepMutex_: the responder re-checks the
            // busy flag inside the mutex before parking, so either we
            // see sleeping_ here and signal, or the responder sees
            // our published request and never parks.
            sleepMutex_.lock();
            if (sleeping_) {
                ++stats_.wakeups;
                sleepCond_.signal();
            }
            sleepMutex_.unlock();
        }

        unlock();
        engine.advance(sdk::kPauseCycles); // PAUSE after release

        // Wait for completion: the responder clears the busy flag
        // once it has executed the call and filled the response.
        const WaitEnd end = awaitCompletion(
            channelLine_, [&] { return !go_; },
            [&](Cycles wait_start) {
                return guard_ && !requestServed_ &&
                       machine_.now() - wait_start >
                           guard_->unservedDeadline() &&
                       guard_->responderLate(machine_.now());
            },
            [&](Cycles wait_start) {
                return guard_ && !requestServed_
                           ? wait_start + guard_->unservedDeadline() + 1
                           : sim::kNever;
            });
        if (end == WaitEnd::Aborted) {
            // The responder is stranded: nothing will harvest on our
            // behalf, so release the staging claim.
            slotBusy_ = false;
            return 0;
        }
        if (end == WaitEnd::Stuck) {
            // Abandon: no live responder ever committed to the
            // published request, and none has shown a heartbeat within
            // the liveness window. Poison the channel (go_ stays up so
            // no requester can claim it; the next responder to see it
            // discards without serving — the served/abandoned handoff
            // is host-atomic, so the request is either discarded or
            // served, never both) and reissue the call on the SDK
            // path. A discarding responder never reads the staging:
            // release it.
            abandoned_ = true;
            touchChannel(true);
            if (protocol_)
                protocol_->onAbandon();
            guard_->noteAbandon();
            slotBusy_ = false;
            return fallback(id, args, adm);
        }
        countSuccess(adm, attempt);

        // Note: the shared request pointer is NOT cleared here. Once
        // the busy flag dropped, another requester may already have
        // taken the lock and published its own request; scribbling
        // the channel without holding the lock would race with it.
        // (slotBusy_ is ours alone to clear: requesters only set it
        // after observing it clear under the lock.)
        if (!req.fast)
            return finish(req);
        const std::uint64_t retval = finishFast(req);
        slotBusy_ = false;
        touchChannel(true);
        return retval;
    }

    // Timeout expired: fall back to the conventional SDK call
    // (Section 4.2, "Preventing starvation").
    return fallback(id, args, adm);
}

void
HotCallService::serveRequest()
{
    touchChannel(false); // read call_ID and *data
    if (guard_ && abandoned_) {
        // The publisher gave up on this request and reissued it on the
        // SDK path; its staging is gone. Discard: drop the poison
        // marker and the busy flag together without dereferencing the
        // stale request pointer.
        discard();
        unlock(); // channel clean again
        return;
    }
    // Commit host-atomically with the abandoned_ check above (no
    // advance in between): the publisher only abandons while
    // !requestServed_, so a request is either discarded or served,
    // never both.
    requestServed_ = true;
    if (protocol_)
        protocol_->onServe();
    unlock(); // release before executing
    serve(*request_, stagingSlot(0));
    go_ = false;
    if (protocol_)
        protocol_->onComplete();
    touchChannel(true); // busy cleared (completion)
    afterServe();
}

void
HotCallService::responderLoop(std::uint64_t epoch)
{
    auto &engine = machine_.engine();
    // A HotEcall responder parks inside the enclave with one
    // conventional ecall and keeps polling from enclave mode.
    sgx::Tcs *tcs = nullptr;
    if (kind_ == Kind::HotEcall &&
        !(tcs = enterEnclave([&] { return epoch != responderEpoch_; })))
        return;

    // The poll loop as spin phases, each ending in its priced access
    // or PAUSE. It ends where the fiber has work: a published request,
    // the idle sleep, an injected fault, or the loop's exit.
    enum class Phase { Rest, Poll, Probe, Lock, Go, Pause };
    enum class Exit { Stop, Serve, Sleep, Wedge, Oversleep };
    struct Poll final : sim::Spin {
        HotCallService &svc;
        const std::uint64_t epoch;
        fault::FaultInjector *const injector;
        Phase phase = Phase::Poll;
        Exit exit = Exit::Stop;
        std::uint64_t idlePolls = 0;
        std::uint64_t useBase = 0; //!< see Channel::declareSteady()

        Poll(HotCallService &s, std::uint64_t e)
            : svc(s), epoch(e), injector(s.machine_.fault())
        {
        }

        Cycles end(Exit why)
        {
            exit = why;
            return sim::kSpinDone;
        }

        Cycles pause()
        {
            phase = Phase::Rest;
            return svc.pauseCycles();
        }

        Cycles step() override
        {
            switch (phase) {
              case Phase::Rest: // after a PAUSE: conserve the core?
                if (svc.config_.responderSleep &&
                    idlePolls > svc.config_.idlePollsBeforeSleep &&
                    !svc.stopRequested_)
                    return end(Exit::Sleep);
                [[fallthrough]];
              case Phase::Poll:
                if (svc.stopRequested_ || epoch != svc.responderEpoch_)
                    return end(Exit::Stop);
                ++svc.stats_.responderPolls;
                if (svc.guard_)
                    svc.guard_->heartbeat(svc.machine_.now());
                if (injector) {
                    if (injector->fire(fault::Site::ResponderNeverWake))
                        return end(Exit::Wedge);
                    if (injector->fire(fault::Site::ResponderOversleep))
                        return end(Exit::Oversleep);
                }
                [[fallthrough]];
              case Phase::Probe: // try the lock
                phase = Phase::Lock;
                return svc.probeChannel(true);
              case Phase::Lock:
                if (svc.lockWord_)
                    return pause(); // taken: PAUSE and retry
                svc.lock();
                phase = Phase::Go;
                return svc.probeChannel(false); // the busy/"go" flag
              case Phase::Go:
                if (svc.go_)
                    return end(Exit::Serve);
                ++idlePolls;
                svc.release();
                phase = Phase::Pause;
                return svc.probeChannel(true); // the unlock's RFO
              case Phase::Pause:
                return pause();
            }
            return end(Exit::Stop);
        }

        // An empty poll: the head (Rest or Poll) probes for the lock,
        // Lock takes it and probes "go", Go finds no request, releases
        // and probes the unlock's RFO, Pause PAUSEs. Only a requester's
        // fiber publishes or takes the lock, so the line stays this
        // way until the batch ends. With idle sleep on, heads stop
        // short of the sleep threshold, whose check belongs to step().
        bool steady(sim::Steady &s) override
        {
            if (svc.stopRequested_ || epoch != svc.responderEpoch_ ||
                svc.go_)
                return false;
            std::uint64_t idle = idlePolls; // at the next head
            switch (phase) {
              case Phase::Rest:
              case Phase::Poll:
                s.at = 0;
                break;
              case Phase::Lock:
                s.at = 1;
                ++idle;
                break;
              case Phase::Go: // we hold the lock
                s.at = 2;
                ++idle;
                break;
              case Phase::Pause:
                s.at = 3;
                break;
              case Phase::Probe: // after an oversleep: not a whole head
                return false;
            }
            if (s.at != 2 && svc.lockWord_)
                return false;
            s.probes = 3;
            if (svc.config_.responderSleep) {
                const std::uint64_t threshold =
                    svc.config_.idlePollsBeforeSleep;
                s.heads = idle <= threshold ? threshold - idle + 1 : 0;
            }
            return svc.declareSteady(svc.channelLine_, s, useBase);
        }

        void advanceSteady(const sim::SteadyRun &run) override
        {
            if (const std::uint64_t heads = run.ran(0)) {
                svc.stats_.responderPolls += heads;
                if (svc.guard_)
                    svc.guard_->heartbeat(run.lastHead);
            }
            idlePolls += run.ran(2);
            static constexpr Phase kAt[] = {Phase::Rest, Phase::Lock,
                                            Phase::Go, Phase::Pause};
            phase = kAt[run.at()];
            // Held from the Lock step to the Go step's release. No
            // shadow to tell: SimCheck runs never batch.
            svc.lockWord_ = run.at() == 2;
            svc.replaySteady(svc.channelLine_, run.ran(0) + run.ran(2) > 0,
                             run, useBase);
        }
    };

    Poll poll(*this, epoch);
    for (engine.spin(poll); poll.exit != Exit::Stop; engine.spin(poll)) {
        switch (poll.exit) {
          case Exit::Serve:
            poll.idlePolls = 0;
            serveRequest();
            poll.phase = Phase::Pause;
            break;
          case Exit::Sleep:
            // Conserve the core: park on the condition variable until
            // a requester (or stop()) signals. Commit to parking only
            // under sleepMutex_, re-checking the busy flag and the
            // stop request inside it: a requester publishes first and
            // checks sleeping_ afterwards (under the same mutex), so
            // a request that raced our decision to park is seen here
            // and served instead of slept through.
            sleepMutex_.lock();
            touchChannel(false);
            if (!go_ && !stopRequested_) {
                ++stats_.responderSleeps;
                sleeping_ = true;
                touchChannel(true);
                sleepCond_.wait(sleepMutex_);
                sleeping_ = false;
                touchChannel(true);
            }
            sleepMutex_.unlock();
            poll.idlePolls = 0;
            poll.phase = Phase::Poll;
            break;
          case Exit::Wedge:
            // Park for good: requesters see a saturated channel until
            // the channel (or the engine) stops — or, under Sentinel,
            // until a respawn retires this fiber. Stepped so the
            // stopAtCycle backstop can still fire.
            while (!stopRequested_ && !engine.stopRequested() &&
                   epoch == responderEpoch_) {
                poll.injector->pollStop();
                engine.advance(sdk::kPauseCycles * 16);
                engine.yield();
            }
            poll.phase = Phase::Poll;
            break;
          case Exit::Oversleep:
            engine.advance(
                poll.injector->delay(fault::Site::ResponderOversleep));
            poll.phase = Phase::Probe;
            break;
          case Exit::Stop:
            break;
        }
    }

    if (tcs)
        leaveEnclave(tcs);
}

} // namespace hc::hotcalls
