/**
 * @file
 * HotQueue implementation: the slot-ring protocol.
 *
 * Functional ring state lives host-side; every protocol step prices
 * the simulated line it would touch (slot lines, cursor lines), so
 * the coherence model charges producers and consumers exactly as a
 * real multi-line channel would. Mutations of the functional state
 * are grouped so no virtual time is charged between a validity check
 * and the matching update — at simulation level each claim/grab is
 * atomic, mirroring the cmpxchg a native implementation would use.
 */

#include "hotcalls/hotqueue.hh"

#include <algorithm>

namespace hc::hotcalls {

HotQueue::HotQueue(sdk::EnclaveRuntime &runtime, Kind kind,
                   HotQueueConfig config)
    : Channel(runtime, kind), config_(std::move(config)),
      poolMutex_(machine_), poolCond_(machine_)
{
    const char *name = kind == Kind::HotEcall ? "hotq-ecall" : "hotq-ocall";
    bind(config_, stats_, name);
    config_.numSlots = std::max(config_.numSlots, 1);
    if (config_.responderCores.empty())
        config_.responderCores = {2};
    config_.minResponders = std::clamp(
        config_.minResponders, 1,
        static_cast<int>(config_.responderCores.size()));
    if (config_.scaleUpDepth <= 0)
        config_.scaleUpDepth = std::max(2, config_.numSlots / 2);

    // One 64-byte line per slot plus one per cursor: producers on
    // different slots do not false-share, and the producer cursor
    // does not bounce with the consumer cursor.
    slots_.resize(static_cast<std::size_t>(config_.numSlots));
    for (auto &slot : slots_)
        slot.line = allocLine();
    headLine_ = allocLine();
    tailLine_ = allocLine();
    if (auto *ck = machine_.check()) {
        // The shadow validates the slot lifecycle, the cursor
        // invariant and every staging recycle.
        protocol_ = std::make_unique<check::HotQueueProtocol>(
            *ck, name, config_.numSlots);
    }
    allocStaging(slots_.size(), protocol_.get());
}

void
HotQueue::start()
{
    hc_assert(responders_.empty());
    const char *base = kind_ == Kind::HotEcall ? "hotq-ecall-resp"
                                               : "hotq-ocall-resp";
    for (std::size_t i = 0; i < config_.responderCores.size(); ++i) {
        const int index = static_cast<int>(i);
        responders_.push_back(machine_.engine().spawn(
            base + std::to_string(i), config_.responderCores[i],
            [this, index] { responderLoop(index); }));
    }
}

void
HotQueue::wakeResponders()
{
    // Wake every parked responder so it can observe the stop request;
    // the handoff happens under poolMutex_ (a responder only commits
    // to wait() while holding it).
    poolMutex_.lock();
    poolCond_.broadcast();
    poolMutex_.unlock();
}

std::uint64_t
HotQueue::call(int id, const edl::Args &args)
{
    Admission adm;
    if (!admit(id, args, adm))
        return sdkCall(id, args);
    auto &engine = machine_.engine();
    auto *injector = machine_.fault();
    // At most one *successful* scale-up wake per logical call: a call
    // that burns several failed claim attempts back-to-back used to
    // signal (and count a scale-up) once per attempt, inflating the
    // scale statistics and thrashing the parked pool.
    bool scale_woken = false;
    for (int attempt = 0; attempt < adm.budget; ++attempt) {
        if (injector &&
            injector->fire(fault::Site::RequesterAttempt)) {
            // Forced expiry: behave exactly as if the claim failed.
            ++stats_.timeoutAttempts;
            if (!scale_woken)
                scale_woken = wakeOneResponder(true);
            engine.advance(sdk::kPauseCycles +
                           injector->delay(fault::Site::RequesterAttempt));
            continue;
        }
        // Probe the producer cursor and the slot it points at.
        touchTail(false);
        const std::uint64_t ticket = tail_;
        const std::size_t idx = ticket % slots_.size();
        Slot &slot = slots_[idx];
        touchSlot(idx, false);
        // Re-validate after the priced probes (another producer may
        // have claimed meanwhile), then claim with no time charged in
        // between — the simulation-level equivalent of cmpxchg.
        if (guard_ && tail_ == ticket &&
            slot.state == SlotState::Zombie && slot.ownerless) {
            // Reclamation debris parked at the producer cursor: a
            // Serving-reclaim whose server wedged for good (the head
            // scan only clears Zombies it has not passed yet). The
            // epoch bump at reclaim already voided the wedge's grab,
            // so the claimer retires the hole and claims the slot.
            retireZombie(idx);
        }
        if (tail_ != ticket || slot.state != SlotState::Free) {
            // Ring full or claim lost: more load than the active
            // pool drains; try to grow it (once per logical call).
            ++stats_.timeoutAttempts;
            if (!scale_woken)
                scale_woken = wakeOneResponder(true);
            pause();
            continue;
        }
        slot.state = SlotState::Publishing;
        const std::uint64_t my_epoch = ++slot.epoch;
        slot.claimedAt = machine_.now();
        tail_ = ticket + 1;
        if (protocol_) {
            protocol_->onClaim(static_cast<int>(idx));
            protocol_->onCursors(head_, tail_);
        }
        stats_.depth.add(pending());
        touchTail(true); // publish the cursor

        if (injector &&
            injector->fire(fault::Site::SlotAbortPublishing)) {
            // Abort the run with this slot mid-Publishing: teardown
            // must cope with a claimed-but-never-published entry.
            injector->requestStop();
            ++stats_.aborts;
            return 0;
        }
        if (injector && injector->fire(fault::Site::PublisherStall)) {
            // The publisher wedges mid-marshalling: the slot sits in
            // Publishing long enough for the head scan's publish
            // leash to retire it out from under us.
            engine.advance(injector->delay(fault::Site::PublisherStall));
        }

        // Marshal into the claimed slot. Under FastPath the staging
        // goes into the slot's recycled arenas instead of fresh
        // allocations; recycling is legal exactly here — the slot is
        // ours while Publishing. A stall or the marshalling advances
        // may outlast the publish leash, which voids the claim.
        Request req;
        if (claimVoided(idx, my_epoch))
            return fallback(id, args, adm);
        stage(req, id, args, stagingSlot(idx));
        if (claimVoided(idx, my_epoch))
            return fallback(id, args, adm);
        slot.request = &req;
        slot.state = SlotState::Ready;
        if (protocol_)
            protocol_->onPublish(static_cast<int>(idx));
        touchSlot(idx, true); // publish *data, call_ID, ready flag

        // More backlog than the active responders drain promptly:
        // wake a parked pool member (configless-style scale-up),
        // unless this call already grew the pool.
        if (pending() >= static_cast<std::uint64_t>(config_.scaleUpDepth) &&
            !scale_woken)
            scale_woken = wakeOneResponder(true);

        // Wait for completion: a responder marks the slot done once
        // it has executed the call and filled the response.
        const WaitEnd end = awaitCompletion(
            slot.line, [&] { return slot.state == SlotState::Done; },
            [&](Cycles wait_start) {
                return guard_ && reclaimDue(idx, my_epoch, wait_start);
            },
            [&](Cycles wait_start) {
                return guard_ ? reclaimFrom(idx, my_epoch, wait_start)
                              : sim::kNever;
            });
        if (end == WaitEnd::Aborted)
            return 0;
        if (end == WaitEnd::Stuck) {
            reclaim(idx);
            return fallback(id, args, adm);
        }
        // A fast call copies its results out of the slot staging
        // BEFORE the slot is released: the arenas (and the recycled
        // scratch) belong to the slot's next claimant the moment it
        // goes Free. The legacy path keeps its original order (its
        // heap staging is private to this call).
        const std::uint64_t fast_retval = req.fast ? finishFast(req) : 0;

        // Harvest, then release the slot to the next producer.
        slot.request = nullptr;
        slot.state = SlotState::Free;
        if (protocol_)
            protocol_->onHarvest(static_cast<int>(idx));
        touchSlot(idx, true);
        countSuccess(adm, attempt);
        return req.fast ? fast_retval : finish(req);
    }

    // The ring stayed full for the whole claim budget: fall back to
    // the conventional SDK call (starvation prevention, Section 4.2)
    // and make sure the pool scales up for the next burst — unless
    // one of the failed attempts above already woke a responder.
    countFallback(adm);
    if (!scale_woken)
        wakeOneResponder(true);
    return sdkCall(id, args);
}

bool
HotQueue::claimVoided(std::size_t index, std::uint64_t epoch)
{
    Slot &slot = slots_[index];
    if (!guard_ || slot.epoch == epoch)
        return false;
    // The publisher is the retired slot's only retirer.
    if (slot.state == SlotState::Zombie)
        retireZombie(index);
    return true;
}

bool
HotQueue::reclaimDue(std::size_t index, std::uint64_t epoch,
                     Cycles wait_start) const
{
    const Slot &slot = slots_[index];
    if (slot.epoch != epoch)
        return false;
    const Cycles now = machine_.now();
    // Ready-reclaim: published, but no responder ever grabbed it and
    // none shows a heartbeat within the liveness window.
    if (slot.state == SlotState::Ready)
        return now - wait_start > guard_->unservedDeadline() &&
               guard_->responderLate(now);
    // Serving-reclaim: grabbed, but the server never started executing
    // it (wedged mid-batch; a dispatched handler always completes, so
    // only undispatched grabs are reclaimable).
    return slot.state == SlotState::Serving && !slot.dispatched &&
           now - slot.servingSince > guard_->servingLeash();
}

Cycles
HotQueue::reclaimFrom(std::size_t index, std::uint64_t epoch,
                      Cycles wait_start) const
{
    // reclaimDue()'s deadlines as clocks: `now - anchor > span` first
    // holds at anchor + span + 1. A dispatched slot always completes.
    const Slot &slot = slots_[index];
    if (slot.epoch != epoch)
        return sim::kNever;
    if (slot.state == SlotState::Ready)
        return wait_start + guard_->unservedDeadline() + 1;
    if (slot.state == SlotState::Serving && !slot.dispatched)
        return slot.servingSince + guard_->servingLeash() + 1;
    return sim::kNever;
}

void
HotQueue::reclaim(std::size_t index)
{
    Slot &slot = slots_[index];
    const bool ready = slot.state == SlotState::Ready;
    // Retire the request to an ownerless Zombie and reissue it on the
    // SDK path. The epoch bump voids a wedged server's grab, and a
    // resumed server only epoch-checks (never writes): the head scan
    // retires a Ready Zombie when the consumer cursor reaches it; a
    // Serving one sits behind the head, so the server's stale-epoch
    // path retires it if it resumes, and a later claimer if the wedge
    // is permanent — otherwise the hole would block the producer
    // cursor forever once the ring wraps to it.
    ++slot.epoch;
    slot.state = SlotState::Zombie;
    slot.ownerless = true;
    slot.request = nullptr;
    if (ready) {
        if (protocol_)
            protocol_->onReclaimReady(static_cast<int>(index));
        guard_->noteReclaimReady();
    } else {
        if (protocol_)
            protocol_->onReclaimServing(static_cast<int>(index));
        guard_->noteReclaimServing();
    }
    touchSlot(index, true);
}

void
HotQueue::retireZombie(std::size_t index)
{
    Slot &slot = slots_[index];
    slot.state = SlotState::Free;
    slot.request = nullptr;
    slot.dispatched = false;
    slot.ownerless = false;
    if (protocol_)
        protocol_->onZombieRetire(static_cast<int>(index));
    if (guard_)
        guard_->noteZombieRetire();
    touchSlot(index, true);
}

int
HotQueue::tryServeBatch(std::vector<Grab> &batch)
{
    auto &engine = machine_.engine();

    // Grab every contiguous Ready slot from the head in one go (no
    // time charged mid-grab on the healthy path: the acquisition is
    // atomic). Entries still Publishing stay for a later poll — FIFO
    // order holds. Under Sentinel the scan also clears reclamation
    // debris at the head: ownerless Zombies (Ready-reclaims — a
    // Serving-reclaim is also ownerless, but it sits behind the head
    // and is retired by the stale-epoch path or a wrapping claimer)
    // and Publishing slots wedged past the
    // publish leash; each retirement prices its slot line, and every
    // iteration re-reads the cursors/states, so the interleaving the
    // charge allows stays consistent.
    batch.clear();
    bool head_moved = false;
    while (static_cast<int>(batch.size()) < config_.numSlots &&
           head_ != tail_) {
        const std::size_t idx = head_ % slots_.size();
        Slot &slot = slots_[idx];
        if (guard_ && slot.state == SlotState::Zombie) {
            if (!slot.ownerless)
                break; // its publisher retires it; wait
            retireZombie(idx);
            ++head_;
            head_moved = true;
            continue;
        }
        if (guard_ && slot.state == SlotState::Publishing &&
            machine_.now() - slot.claimedAt >
                guard_->publishLeash()) {
            // The publisher wedged mid-marshalling: retire the slot
            // out from under it so the ring keeps rotating. The
            // publisher's epoch check turns its claim into an SDK
            // fallback and retires the Zombie.
            ++slot.epoch;
            slot.state = SlotState::Zombie;
            slot.ownerless = false;
            if (protocol_)
                protocol_->onReclaimPublishing(static_cast<int>(idx));
            guard_->noteReclaimPublishing();
            touchSlot(idx, true);
            ++head_;
            head_moved = true;
            continue;
        }
        if (slot.state != SlotState::Ready)
            break;
        slot.state = SlotState::Serving;
        slot.servingSince = machine_.now();
        slot.dispatched = false;
        batch.push_back({idx, slot.epoch});
        ++head_;
        if (protocol_)
            protocol_->onGrab(static_cast<int>(idx));
    }
    if (batch.empty() && !head_moved)
        return 0;
    if (protocol_)
        protocol_->onCursors(head_, tail_);
    touchHead(true); // cursor advance: one transfer for the batch
    if (batch.empty())
        return 0;
    ++stats_.batches;
    stats_.batchSize.add(batch.size());

    // Serve the whole batch before re-polling: the channel-line
    // coherence transfers above amortize over all k entries.
    auto *injector = machine_.fault();
    for (const Grab &grab : batch) {
        const std::size_t idx = grab.idx;
        Slot &slot = slots_[idx];
        touchSlot(idx, false); // read call_ID and *data
        if (injector &&
            injector->fire(fault::Site::SlotAbortServing)) {
            // Abort the run with this slot mid-Serving: the requester
            // spinning on it takes the abort exit, teardown copes
            // with a grabbed-but-never-completed entry.
            injector->requestStop();
            return static_cast<int>(batch.size());
        }
        if (injector && guard_ &&
            injector->fire(fault::Site::ResponderNeverWake)) {
            // Wedge for good with the rest of the batch undispatched:
            // requesters reclaim their Serving slots past the leash,
            // Sentinel quarantines and respawns. Stepped so the
            // stopAtCycle backstop can still fire.
            while (!stopRequested_ && !engine.stopRequested()) {
                injector->pollStop();
                engine.advance(sdk::kPauseCycles * 16);
                engine.yield();
            }
            return static_cast<int>(batch.size());
        }
        // The epoch check and the dispatch commit are host-atomic (no
        // advance in between): a slot reclaimed while queued behind a
        // long batch is skipped as stale — its logical call already
        // left on the SDK path and its request pointer dangles — and
        // once dispatched the requester never reclaims it.
        if (guard_ && slot.epoch != grab.epoch) {
            guard_->noteStaleCompletion();
            if (slot.state == SlotState::Zombie)
                retireZombie(idx);
            continue;
        }
        slot.dispatched = true;
        serve(*slot.request, stagingSlot(idx));
        slot.state = SlotState::Done;
        if (protocol_)
            protocol_->onComplete(static_cast<int>(idx));
        touchSlot(idx, true); // publish completion
        afterServe();
    }
    return static_cast<int>(batch.size());
}

bool
HotQueue::parkResponder(bool scale_event)
{
    poolMutex_.lock();
    // Re-check under the mutex: requesters enqueue before deciding
    // whether to wake, so a pending entry (or a stop request) we
    // would sleep through is visible here.
    if (stopRequested_ || pending() > 0 ||
        activeResponders() <= config_.minResponders) {
        poolMutex_.unlock();
        return false;
    }
    if (scale_event)
        ++stats_.scaleDowns;
    ++parked_;
    poolCond_.wait(poolMutex_);
    --parked_;
    poolMutex_.unlock();
    return true;
}

bool
HotQueue::wakeOneResponder(bool scale_event)
{
    if (parked_ == 0)
        return false;
    bool signalled = false;
    poolMutex_.lock();
    if (parked_ > 0) {
        poolCond_.signal();
        ++stats_.wakeups;
        if (scale_event)
            ++stats_.scaleUps;
        signalled = true;
    }
    poolMutex_.unlock();
    return signalled;
}

void
HotQueue::respawn()
{
    // The wedged fibers keep their pool entries (they exit on stop);
    // put a fresh responder on the next core in the rotation. The
    // quarantine probe confirms the recovery.
    const std::size_t i = responders_.size();
    const auto &cores = config_.responderCores;
    CoreId core = cores[i % cores.size()];
    if (kind_ == Kind::HotEcall) {
        // The simulator allows one in-enclave fiber per core, and a
        // wedged trusted responder never eexits: the replacement must
        // land on a configured core currently outside the enclave.
        auto &platform = runtime_.platform();
        const auto outside =
            std::find_if(cores.begin(), cores.end(), [&](CoreId c) {
                return !platform.inEnclave(c);
            });
        if (outside == cores.end())
            return; // every configured core is wedged inside
        core = *outside;
    }
    if (!guard_->respawnAllowed())
        return;
    responders_.push_back(machine_.engine().spawn(
        std::string(kind_ == Kind::HotEcall ? "hotq-ecall-resp-r"
                                            : "hotq-ocall-resp-r") +
            std::to_string(i),
        core, [this] { responderLoop(-1); }));
}

void
HotQueue::responderLoop(int index)
{
    auto &engine = machine_.engine();
    // A HotEcall responder parks inside the enclave with one
    // conventional ecall each and keeps polling from enclave mode.
    sgx::Tcs *tcs = nullptr;
    if (kind_ == Kind::HotEcall &&
        !(tcs = enterEnclave([] { return false; })))
        return;

    // Surplus pool members start parked; requesters wake them when
    // the backlog grows (not a scale-down event). Sentinel respawns
    // (index -1) replace a wedged worker: they start polling at once.
    if (index >= config_.minResponders)
        parkResponder(false);

    // The poll loop as spin phases: one producer-cursor read per poll,
    // PAUSE when nothing is pending, then the scale-down window. It
    // ends where the fiber has work: pending entries to grab, a surplus
    // responder to park, an injected cursor stall, or the loop's exit.
    //
    // The window measures occupancy in busy TIME, not busy polls: idle
    // polls are far shorter than served batches, so a poll-count
    // fraction would look idle even on a saturated ring.
    enum class Phase { Poll, Probe, Tail, Pause, Window };
    enum class Exit { Stop, Grab, Park, Stall };
    struct Poll final : sim::Spin {
        HotQueue &queue;
        fault::FaultInjector *const injector;
        Phase phase = Phase::Poll;
        Exit exit = Exit::Stop;
        Cycles pollStart = 0;
        std::uint64_t windowPolls = 0;
        Cycles windowBusy = 0;
        Cycles windowStart;
        std::uint64_t useBase = 0; //!< see Channel::declareSteady()

        explicit Poll(HotQueue &q)
            : queue(q), injector(q.machine_.fault()),
              windowStart(q.machine_.now())
        {
        }

        Cycles end(Exit why)
        {
            exit = why;
            return sim::kSpinDone;
        }

        Cycles step() override
        {
            switch (phase) {
              case Phase::Window: // after a PAUSE or a batch
                if (windowPolls >= queue.config_.scaleWindowPolls) {
                    const Cycles elapsed =
                        queue.machine_.now() - windowStart;
                    const double busy_frac =
                        elapsed > 0 ? static_cast<double>(windowBusy) /
                                          static_cast<double>(elapsed)
                                    : 0.0;
                    windowPolls = 0;
                    windowBusy = 0;
                    // Occupancy stayed low for a whole window: this
                    // responder is surplus; park until load returns.
                    if (busy_frac < kScaleDownOccupancy &&
                        queue.activeResponders() >
                            queue.config_.minResponders)
                        return end(Exit::Park);
                    // Fresh window.
                    windowStart = queue.machine_.now();
                }
                [[fallthrough]];
              case Phase::Poll:
                if (queue.stopRequested_)
                    return end(Exit::Stop);
                ++queue.stats_.responderPolls;
                if (queue.guard_)
                    queue.guard_->heartbeat(queue.machine_.now());
                if (injector && injector->fire(fault::Site::CursorStall))
                    return end(Exit::Stall);
                [[fallthrough]];
              case Phase::Probe:
                pollStart = queue.machine_.now();
                phase = Phase::Tail;
                return queue.probeLine(queue.tailLine_, false);
              case Phase::Tail:
                if (queue.pending() > 0)
                    return end(Exit::Grab);
                ++windowPolls;
                [[fallthrough]];
              case Phase::Pause:
                phase = Phase::Window;
                return queue.pauseCycles();
            }
            return end(Exit::Stop);
        }

        // An empty poll: the head (Window or Poll) probes the producer
        // cursor, the Tail step finds nothing pending and PAUSEs. Only
        // a requester's fiber publishes, so nothing is pending until
        // the batch ends. Heads stop short of a full scale-down window,
        // whose check belongs to step().
        bool steady(sim::Steady &s) override
        {
            if (queue.stopRequested_ || queue.pending() > 0)
                return false;
            std::uint64_t seen = windowPolls; // at the next head
            switch (phase) {
              case Phase::Window:
              case Phase::Poll:
                s.at = 0;
                break;
              case Phase::Tail:
                s.at = 1;
                ++seen;
                break;
              default: // Probe skips the head's counting, Pause the Tail's
                return false;
            }
            const std::uint64_t window = queue.config_.scaleWindowPolls;
            s.heads = seen < window ? window - seen : 0;
            return queue.declareSteady(queue.tailLine_, s, useBase);
        }

        void advanceSteady(const sim::SteadyRun &run) override
        {
            if (const std::uint64_t heads = run.ran(0)) {
                queue.stats_.responderPolls += heads;
                if (queue.guard_)
                    queue.guard_->heartbeat(run.lastHead);
                pollStart = run.lastHead;
            }
            windowPolls += run.ran(1);
            phase = run.at() == 0 ? Phase::Window : Phase::Tail;
            queue.replaySteady(queue.tailLine_, false, run, useBase);
        }
    };

    std::vector<Grab> batch; // reused by every poll
    batch.reserve(static_cast<std::size_t>(config_.numSlots));
    Poll poll(*this);
    for (engine.spin(poll); poll.exit != Exit::Stop; engine.spin(poll)) {
        switch (poll.exit) {
          case Exit::Grab: {
            const int served = tryServeBatch(batch);
            ++poll.windowPolls;
            if (served > 0)
                poll.windowBusy += machine_.now() - poll.pollStart;
            poll.phase = served > 0 ? Phase::Window : Phase::Pause;
            break;
          }
          case Exit::Park:
            parkResponder(true);
            // Fresh window — never spanning time spent parked.
            poll.windowStart = machine_.now();
            poll.phase = Phase::Poll;
            break;
          case Exit::Stall:
            // The consumer cursor goes quiet for a while: the ring
            // fills, requesters hit the claim timeout and fall back.
            engine.advance(poll.injector->delay(fault::Site::CursorStall));
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
