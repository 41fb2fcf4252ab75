/**
 * @file
 * Engine implementation.
 */

#include "sim/engine.hh"

#include <algorithm>

#include "support/logging.hh"

namespace hc::sim {

namespace {

/// Engine owning the fiber currently executing on this host thread.
thread_local Engine *g_current_engine = nullptr;

} // anonymous namespace

Thread::Thread(Engine &engine, std::string name, CoreId core,
               std::function<void()> body, std::uint64_t id)
    : engine_(engine), name_(std::move(name)), core_(core), id_(id)
{
    fiber_ = std::make_unique<Fiber>([this, body = std::move(body)] {
        // First dispatched during teardown: nothing ran, nothing to
        // unwind.
        if (engine_.unwinding())
            return;
        try {
            body();
        } catch (const ForcedUnwind &) {
            // Teardown collapsed this stack; locals are destroyed and
            // the fiber finishes normally.
        }
    });
}

Engine::Engine(Config config) : config_(config), rng_(config.seed)
{
    hc_assert(config_.numCores > 0);
    cores_.resize(static_cast<std::size_t>(config_.numCores));
    lanes_.reserve(cores_.size());
    if (config_.interruptMeanCycles > 0) {
        for (auto &core : cores_) {
            core.nextInterrupt = static_cast<Cycles>(
                rng_.nextExponential(config_.interruptMeanCycles));
        }
    }
}

Engine::~Engine()
{
    // Backstop for engines used without a Machine; Machine unwinds
    // earlier, while resources the fibers reference are still alive.
    unwindStranded();
}

void
Engine::unwindStranded()
{
    if (liveThreads_ == 0)
        return;
    hc_assert(!inRun_);
    unwinding_ = true;
    timedWaiters_.clear(); // hasTimeout_ is force-cleared below
    Engine *prev_engine = g_current_engine;
    g_current_engine = this;
    for (auto &thread : threads_) {
        Thread *t = thread.get();
        if (t->state_ == ThreadState::Done || t->fiber_->finished())
            continue;
        // Forget the wait queue WITHOUT touching it: queues owned by
        // objects declared after the machine are already destroyed by
        // the time teardown unwinds the threads parked on them.
        t->waitingOn_ = nullptr;
        t->hasTimeout_ = false;
        t->spin_ = nullptr;
        running_ = t;
        t->fiber_->switchTo();
        running_ = nullptr;
        hc_assert(t->fiber_->finished());
        t->state_ = ThreadState::Done;
        --liveThreads_;
        if (observer_)
            observer_->onThreadExit(t);
    }
    g_current_engine = prev_engine;
    unwinding_ = false;
}

Engine *
Engine::current()
{
    return g_current_engine;
}

Thread *
Engine::spawn(std::string name, CoreId core, std::function<void()> body)
{
    hc_assert(!stepping_);
    hc_assert(core >= 0 && core < numCores());
    std::unique_ptr<Thread> thread(new Thread(
        *this, std::move(name), core, std::move(body), nextThreadId_++));
    Thread *raw = thread.get();
    threads_.push_back(std::move(thread));
    ++liveThreads_;
    if (observer_)
        observer_->onSpawn(running_, raw);
    makeReady(raw, running_ ? now() : 0);
    return raw;
}

void
Engine::makeReady(Thread *thread, Cycles when)
{
    thread->state_ = ThreadState::Ready;
    thread->readyTime_ = when;
    Core &core = cores_[static_cast<std::size_t>(thread->core_)];
    // Strict `<`: an earlier arrival keeps a tie (FIFO).
    if (!core.first || when < core.firstTime) {
        core.candidate = static_cast<std::uint32_t>(core.ready.size());
        core.first = thread;
        core.firstTime = when;
    }
    core.ready.push_back(thread);
    core.lane = core.ready.size() == 1 && thread->spin_;
    // A new candidate may precede the running thread's horizon.
    if (running_)
        nextEventTime_ = std::min(nextEventTime_, when);
}

void
Engine::popCandidate(Core &core)
{
    auto &ready = core.ready;
    ready.erase(ready.begin() +
                static_cast<std::ptrdiff_t>(core.candidate));
    core.first = nullptr;
    core.lane = false;
    if (ready.empty())
        return;
    // Earliest eligibility, first arrival on ties.
    core.candidate = 0;
    for (std::uint32_t i = 1; i < ready.size(); ++i) {
        if (ready[i]->readyTime_ < ready[core.candidate]->readyTime_)
            core.candidate = i;
    }
    core.first = ready[core.candidate];
    core.firstTime = core.first->readyTime_;
    core.lane = ready.size() == 1 && core.first->spin_;
}

Engine::Selection
Engine::selectNext()
{
    // Globally minimal runnable candidate among non-lanes; `<` keeps
    // the first core on ties. Candidate times of every losing core
    // accumulate into other_min so a post-dispatch horizon refresh
    // only has to rescan the winning core. (Locals, not sel's fields:
    // the lane stores could alias those and keep them in memory.)
    lanes_.clear();
    Thread *best = nullptr;
    Cycles best_time = kNever;
    std::size_t best_core = 0;
    Cycles other_min = kNever;
    for (std::size_t c = 0; c < cores_.size(); ++c) {
        const Core &core = cores_[c];
        if (!core.first)
            continue;
        const Cycles t = std::max(core.clock, core.firstTime);
        if (core.lane) {
            lanes_.push_back({c, t});
        } else if (t < best_time) {
            other_min = std::min(other_min, best_time);
            best_time = t;
            best = core.first;
            best_core = c;
        } else {
            other_min = std::min(other_min, t);
        }
    }
    Selection sel;
    sel.thread = best;
    sel.time = best_time;
    sel.coreIdx = best_core;
    sel.otherMin = other_min;
    // Earliest pending waitUntil() deadline; ties resolve by spawn id
    // so the result matches a scan of threads_ in spawn order.
    for (Thread *t : timedWaiters_) {
        if (t->timeoutAt_ < sel.timeoutTime ||
            (t->timeoutAt_ == sel.timeoutTime &&
             t->id_ < sel.timeoutThread->id_)) {
            sel.timeoutTime = t->timeoutAt_;
            sel.timeoutThread = t;
        }
    }
    return sel;
}

void
Engine::dispatch(const Selection &sel)
{
    Core &core = cores_[sel.coreIdx];
    popCandidate(core);
    core.clock = sel.time;
    sel.thread->state_ = ThreadState::Running;
    running_ = sel.thread;
    // Refresh the horizon: only the winning core changed (candidate
    // removed, clock moved); every other core's candidate and the
    // timeout minimum were already gathered by selectNext().
    Cycles next = std::min(sel.otherMin, sel.timeoutTime);
    if (core.first)
        next = std::min(next, std::max(core.clock, core.firstTime));
    nextEventTime_ = next;
}

void
Engine::dropTimedWaiter(Thread *thread)
{
    timedWaiters_.erase(std::find(timedWaiters_.begin(),
                                  timedWaiters_.end(), thread));
}

void
Engine::run()
{
    hc_assert(!inRun_);
    inRun_ = true;
    Engine *prev_engine = g_current_engine;
    g_current_engine = this;

    while (!stopRequested_ && liveThreads_ > 0) {
        Selection sel = selectNext();
        Thread *next = launch(sel);
        if (!next) {
            // An inline spinner may have been running.
            running_ = nullptr;
            if (stopRequested_)
                continue;
            if (!sel.timeoutThread) {
                std::string live;
                for (const auto &thread : threads_) {
                    if (thread->state_ != ThreadState::Done)
                        live += " " + thread->name_;
                }
                fatal("simulation deadlock: no runnable thread among:%s",
                      live.c_str());
            }
            // Fire the expired waitUntil() timeout that precedes every
            // runnable candidate: once its deadline is the global
            // minimum, no earlier notify can still happen.
            Thread *timeout_thread = sel.timeoutThread;
            // Expire the wait: detach from its queue and make it ready.
            WaitQueue *queue = timeout_thread->waitingOn_;
            hc_assert(queue);
            auto &waiters = queue->waiters_;
            waiters.erase(std::find(waiters.begin(), waiters.end(),
                                    timeout_thread));
            timeout_thread->waitingOn_ = nullptr;
            timeout_thread->hasTimeout_ = false;
            dropTimedWaiter(timeout_thread);
            timeout_thread->timedOut_ = true;
            // Expiry creates no ordering edge (nobody notified), but
            // observers that count scheduling perturbations (the
            // fault-injection layer) still want to see it.
            if (observer_)
                observer_->onTimeout(timeout_thread);
            makeReady(timeout_thread, sel.timeoutTime);
            continue;
        }

        next->fiber_->switchTo();
        // One swap in and one back; handoffs in between are counted
        // by reschedule().
        fiberSwitches_ += 2;

        // Control is back from the thread that ran last — after
        // handoffs, not necessarily the one dispatched above. It
        // exited, or reschedule() left a stop, a timeout expiry or a
        // deadlock to this loop.
        Thread *last = running_;
        running_ = nullptr;
        if (last->fiber_->finished() ||
            last->state_ == ThreadState::Done) {
            last->state_ = ThreadState::Done;
            --liveThreads_;
            if (observer_)
                observer_->onThreadExit(last);
        }
    }

    g_current_engine = prev_engine;
    inRun_ = false;
}

Cycles
Engine::coreNow(CoreId core) const
{
    hc_assert(core >= 0 && core < numCores());
    return cores_[static_cast<std::size_t>(core)].clock;
}

Thread *
Engine::launch(Selection &sel)
{
    if (!lanes_.empty())
        return stepSpinners(sel);
    if (!sel.thread || sel.expiresTimeout())
        return nullptr;
    dispatch(sel);
    return sel.thread;
}

Thread *
Engine::stepSpinners(Selection &other)
{
    // Every loop is asked afresh: steps elsewhere may have changed it.
    if (batches_.size() < lanes_.size())
        batches_.resize(lanes_.size());
    for (std::size_t i = 0; i < lanes_.size(); ++i)
        batches_[i].ask = LaneBatch::Ask::Unasked;
    for (;;) {
        // selectNext()'s rule over lanes and the other candidate. The
        // rest bound the lane's run.
        Cycles rest;
        const std::size_t index = pickLane(rest);
        Lane *lane = &lanes_[index];
        if (other.timeoutThread &&
            other.timeoutTime < std::min(lane->time, other.time))
            return nullptr; // run() expires the timeout
        if (precedes(other, *lane)) {
            other.otherMin = std::min(other.otherMin, lane->time);
            dispatch(other);
            return other.thread;
        }

        // A declared idle iteration runs in batch. When the declaration
        // does not cover the lane's next step (a head or cycle limit, or
        // an interrupt in reach), that one step runs here.
        LaneBatch &batch = batches_[index];
        if (batch.ask == LaneBatch::Ask::Unasked)
            declare(*lane, batch);
        bool one_step = false;
        if (batch.ask == LaneBatch::Ask::Steady) {
            if (runSteady(other))
                continue;
            one_step = true;
        }

        // Run the lane's spinner until its clock reaches the next
        // event. It stays queued on its otherwise empty core, so only
        // its time moves; dispatch() would pop and re-push it.
        Core &core = cores_[lane->coreIdx];
        Thread *spinner = core.first;
        core.clock = lane->time;
        spinner->state_ = ThreadState::Running;
        running_ = spinner;
        const Cycles horizon =
            std::min({rest, other.time, other.timeoutTime});
        nextEventTime_ = horizon;
        for (;;) {
            const Cycles cycles = step(*spinner->spin_);
            ++inlineSteps_;
            if (cycles == kSpinDone) {
                // Dispatched after all: off the ready queue. spin()
                // returns on resumption.
                core.ready.clear();
                core.first = nullptr;
                core.lane = false;
                spinner->spin_ = nullptr;
                return spinner;
            }
            // advance(cycles), minus the suspension.
            core.clock += cycles;
            if (core.clock >= core.nextInterrupt)
                deliverInterrupts(core);
            // After its one step the lane may batch again, unless the
            // step (or an interrupt handler) requested a stop: the
            // fiber would run on to the next event and see it there.
            if ((one_step && !stopRequested_) || core.clock >= horizon)
                break;
        }
        batch.ask = LaneBatch::Ask::Unasked; // it stepped: ask again
        // Ready again at its clock, as advance() would make it.
        spinner->state_ = ThreadState::Ready;
        spinner->readyTime_ = core.clock;
        core.firstTime = core.clock;
        lane->time = core.clock;
        if (stopRequested_)
            return nullptr;
    }
}

std::size_t
Engine::pickLane(Cycles &rest) const
{
    // Lanes are in core order, so `<` keeps the lower core on ties.
    std::size_t pick = 0;
    rest = kNever;
    for (std::size_t i = 1; i < lanes_.size(); ++i) {
        if (lanes_[i].time < lanes_[pick].time) {
            rest = std::min(rest, lanes_[pick].time);
            pick = i;
        } else {
            rest = std::min(rest, lanes_[i].time);
        }
    }
    return pick;
}

bool
Engine::declare(Lane &lane, LaneBatch &batch)
{
    Thread *spinner = cores_[lane.coreIdx].first;
    Steady &s = batch.steady;
    s = Steady{};
    running_ = spinner;
    stepping_ = true;
    const bool steady = spinner->spin_->steady(s);
    stepping_ = false;
    if (!steady) {
        batch.ask = LaneBatch::Ask::Declined;
        return false;
    }
    hc_assert(s.probes >= 1 && s.at >= 0 && s.at <= s.probes);
    batch.span = static_cast<Cycles>(s.probes) * s.probeCycles;
    // An iteration that costs nothing would never move the clock.
    hc_assert(batch.span + s.pauseCycles > 0);
    batch.ask = LaneBatch::Ask::Steady;
    batch.run = SteadyRun{s.probes + 1, s.at, 0, 0, 0};
    // No step may start at the limit or reach the interrupt, and the
    // PAUSE is a segment's last and latest-ending step.
    const Cycles interrupt = cores_[lane.coreIdx].nextInterrupt;
    const Cycles widest = s.pauseCycles + s.pauseJitter;
    batch.below =
        std::min(s.limit, interrupt > widest ? interrupt - widest : 0);
    // Segment k starts head number k + 1, or k past a first segment
    // that starts beyond its head.
    batch.heads =
        s.heads + (s.at != 0 &&
                   s.heads != std::numeric_limits<std::uint64_t>::max());
    batch.pauses.clear();
    batch.start = lane.time;
    lane.time += static_cast<Cycles>(s.probes - s.at) * s.probeCycles;
    return true;
}

bool
Engine::runSteady(const Selection &other)
{
    // The batch ends at one key: a step at (clock, core) runs while it
    // precedes (end_time, end_core). A timed waiter's deadline ends it
    // after every core's steps at that clock. When the end is a lane's
    // own uncovered step, that lane runs its segment's first end_steps
    // steps, which also holds for probes of no cycles at that clock.
    Cycles end_time = other.time;
    std::size_t end_core = other.coreIdx;
    if (other.timeoutTime < end_time) {
        end_time = other.timeoutTime;
        end_core = cores_.size();
    }
    const std::size_t n = lanes_.size();
    std::size_t end_lane = n; // none
    int end_steps = 0;
    const auto precedes_end = [&](Cycles t, std::size_t core) {
        return t < end_time || (t == end_time && core < end_core);
    };
    // A new segment of lane i: the first step it does not cover, if
    // any, may end the batch. Checked once, against its bounds.
    const auto check = [&](std::size_t i) {
        const LaneBatch &batch = batches_[i];
        if (lanes_[i].time < batch.below &&
            batch.pauses.size() < batch.heads)
            return;
        const int step = uncoveredStep(i);
        const Cycles t = batch.start +
                         static_cast<Cycles>(step) * batch.steady.probeCycles;
        if (precedes_end(t, lanes_[i].coreIdx)) {
            end_time = t;
            end_core = lanes_[i].coreIdx;
            end_lane = i;
            end_steps = step;
        }
    };
    const auto decline = [&](std::size_t i) {
        if (precedes_end(lanes_[i].time, lanes_[i].coreIdx)) {
            end_time = lanes_[i].time;
            end_core = lanes_[i].coreIdx;
            end_lane = n;
        }
    };
    for (std::size_t i = 0; i < n; ++i) {
        if (batches_[i].ask == LaneBatch::Ask::Steady)
            check(i);
        else if (batches_[i].ask == LaneBatch::Ask::Declined)
            decline(i);
    }

    // Pick the lane whose next PAUSE, or first step while unasked,
    // comes first (lanes are in core order: `<` keeps the lower core).
    // Its probes before that PAUSE run unseen: they draw nothing.
    Rng rng = rng_;
    for (;;) {
        std::size_t i = 0;
        for (std::size_t j = 1; j < n; ++j) {
            if (lanes_[j].time < lanes_[i].time)
                i = j;
        }
        Lane &lane = lanes_[i];
        if (!precedes_end(lane.time, lane.coreIdx))
            break;
        LaneBatch &batch = batches_[i];
        if (batch.ask == LaneBatch::Ask::Unasked) {
            rng_ = rng; // its loop sees the engine as the steps left it
            if (declare(lane, batch))
                check(i);
            else
                decline(i);
            rng = rng_;
            continue;
        }
        const Steady &s = batch.steady;
        batch.pauses.push_back(lane.time);
        batch.start =
            lane.time + s.pauseCycles + rng.nextBelow(s.pauseJitter + 1);
        lane.time = batch.start + batch.span;
        check(i);
    }
    rng_ = rng;

    // Where each declared lane stopped: the probes of its segment that
    // precede the end, its steps, its last head and its last probe.
    std::uint64_t probes = 0; // the batch's, every lane
    for (std::size_t i = 0; i < n; ++i) {
        LaneBatch &batch = batches_[i];
        batch.probesRun = 0;
        if (batch.ask != LaneBatch::Ask::Steady)
            continue;
        const Steady &s = batch.steady;
        SteadyRun &run = batch.run;
        const Cycles pc = s.probeCycles;
        const std::uint64_t k = batch.pauses.size();
        const int count = s.probes - (k == 0 ? s.at : 0);
        int tail = end_steps;
        if (i != end_lane) {
            // A probe at clock t on this core runs while t < bound.
            const Cycles bound =
                end_time + (lanes_[i].coreIdx < end_core && end_time != kNever);
            tail = 0;
            Cycles t = batch.start;
            for (int step = 0; step < count; ++step, t += pc)
                tail += t < bound;
        }
        batch.tail = tail;
        const auto probes_per = static_cast<std::uint64_t>(s.probes);
        const auto at = static_cast<std::uint64_t>(s.at);
        run.steps = (k == 0 ? 0 : k * (probes_per + 1) - at) +
                    static_cast<std::uint64_t>(tail);
        batch.probesRun =
            (k == 0 ? 0 : k * probes_per - at) + static_cast<std::uint64_t>(tail);
        probes += batch.probesRun;
        if (tail > 0 && count == s.probes)
            run.lastHead = batch.start; // this segment's head ran
        else if (k > 1 || (k == 1 && s.at == 0))
            run.lastHead = batch.pauses[k - 1] - batch.span;
        if (batch.probesRun > 0)
            batch.lastProbeClock =
                tail > 0 ? batch.start + static_cast<Cycles>(tail - 1) * pc
                         : batch.pauses.back() - pc;
        lanes_[i].time = batch.start + static_cast<Cycles>(tail) * pc;
    }

    // Hand each loop what ran, with its last probe's place: the batch's
    // probes less those after it, on lanes whose last probe is later.
    // Declined lanes stay declined (nothing ran that could change
    // them); the rest are asked again, since their loops move on.
    bool ran = false;
    for (std::size_t i = 0; i < n; ++i) {
        LaneBatch &batch = batches_[i];
        if (batch.ask != LaneBatch::Ask::Steady)
            continue;
        batch.ask = LaneBatch::Ask::Unasked;
        SteadyRun &run = batch.run;
        if (run.steps == 0)
            continue;
        ran = true;
        const Lane &lane = lanes_[i];
        if (batch.probesRun > 0) {
            run.lastProbe = probes;
            for (std::size_t j = 0; j < n; ++j) {
                const LaneBatch &other = batches_[j];
                if (other.probesRun > 0 &&
                    (other.lastProbeClock > batch.lastProbeClock ||
                     (other.lastProbeClock == batch.lastProbeClock && j > i)))
                    run.lastProbe -=
                        probesAfter(j, batch.lastProbeClock, lane.coreIdx);
            }
        }
        Core &core = cores_[lane.coreIdx];
        Thread *spinner = core.first;
        // Ready again at its clock, as the step path leaves it.
        core.clock = lane.time;
        core.firstTime = lane.time;
        spinner->readyTime_ = lane.time;
        inlineSteps_ += run.steps;
        steadySteps_ += run.steps;
        running_ = spinner;
        stepping_ = true;
        spinner->spin_->advanceSteady(run);
        stepping_ = false;
    }
    return ran;
}

int
Engine::uncoveredStep(std::size_t i) const
{
    const LaneBatch &batch = batches_[i];
    const Steady &s = batch.steady;
    const bool first = batch.pauses.empty();
    const int count = s.probes - (first ? s.at : 0);
    const Cycles interrupt = cores_[lanes_[i].coreIdx].nextInterrupt;
    // A head past the count, a probe at the limit or reaching the
    // interrupt; else the PAUSE, the only step left.
    const bool head = !first || s.at == 0;
    if (head && batch.pauses.size() >= batch.heads)
        return 0;
    Cycles t = batch.start;
    for (int step = 0; step < count; ++step, t += s.probeCycles) {
        if (t >= s.limit || t + s.probeCycles >= interrupt)
            return step;
    }
    return count;
}

std::uint64_t
Engine::probesAfter(std::size_t i, Cycles t, std::size_t core) const
{
    const LaneBatch &batch = batches_[i];
    const Cycles pc = batch.steady.probeCycles;
    // A probe at clock u on this core comes after (t, core) when
    // u >= from.
    const Cycles from = t + (lanes_[i].coreIdx < core);
    const auto after = [from, pc](Cycles u, int probes) {
        int count = 0;
        for (int step = 0; step < probes; ++step, u += pc)
            count += u >= from;
        return count;
    };
    // Latest first: the current segment's probes, then each PAUSE's,
    // until a segment's first probe does not come after.
    int count = after(batch.start, batch.tail);
    std::uint64_t total = static_cast<std::uint64_t>(count);
    if (count < batch.tail)
        return total;
    for (std::size_t k = batch.pauses.size(); k-- > 0;) {
        const int probes = batch.steady.probes - (k == 0 ? batch.steady.at : 0);
        count = after(batch.pauses[k] - static_cast<Cycles>(probes) * pc,
                      probes);
        total += static_cast<std::uint64_t>(count);
        if (count < probes)
            break;
    }
    return total;
}

void
Engine::reschedule()
{
    Thread *self = running_;
    // The loop in run() re-checks stopRequested_ before dispatching
    // anyone, and is the only place that expires timeouts and reports
    // deadlock; only a plain dispatch happens here. Either way the
    // decision is selectNext() on the same state.
    Thread *next = nullptr;
    if (!stopRequested_) {
        Selection sel = selectNext();
        next = launch(sel);
    }
    if (next == self)
        return; // re-picked: keep running, no swap
    if (next) {
        ++fiberSwitches_;
        self->fiber_->handoff(*next->fiber_);
    } else {
        // run() reads running_ as the thread that switched back; an
        // inline spinner may have been running since.
        running_ = self;
        self->fiber_->switchBack();
    }
    // Resumed by whoever dispatched us (bookkeeping already done) —
    // unless teardown resumed us solely to collapse this stack.
    if (unwinding_)
        throw ForcedUnwind{};
}

void
Engine::deliverInterrupts(Core &core)
{
    Thread *self = running_;
    while (core.clock >= core.nextInterrupt) {
        ++interruptCount_;
        const Cycles at = core.nextInterrupt;
        Cycles handler_cycles = 0;
        if (interruptHandler_)
            handler_cycles = interruptHandler_(self->core_, at);
        core.clock += handler_cycles;
        // Re-arm from the handler's completion time: a handler that
        // outlasts the mean inter-arrival must not create an
        // unbounded interrupt storm.
        core.nextInterrupt =
            std::max(at, core.clock) +
            std::max<Cycles>(
                1, static_cast<Cycles>(rng_.nextExponential(
                       config_.interruptMeanCycles)));
    }
}

void
Engine::advance(Cycles cycles)
{
    hc_assert(!stepping_);
    // Destructors running during a forced unwind must not suspend:
    // a second ForcedUnwind mid-unwind would std::terminate.
    if (unwinding_)
        return;
    Thread *self = running_;
    hc_assert(self);
    Core &core = cores_[static_cast<std::size_t>(self->core_)];
    core.clock += cycles;
    if (core.clock >= core.nextInterrupt)
        deliverInterrupts(core);
    if (core.clock >= nextEventTime_) {
        // Another event precedes (or ties) our clock: interleave. We
        // stay ready at our current time.
        makeReady(self, core.clock);
        reschedule();
    }
}

void
Engine::yield()
{
    hc_assert(!stepping_);
    if (unwinding_)
        return;
    Thread *self = running_;
    hc_assert(self);
    Core &core = cores_[static_cast<std::size_t>(self->core_)];
    if (core.ready.empty())
        return;
    makeReady(self, core.clock);
    reschedule();
}

void
Engine::sleepUntil(Cycles when)
{
    hc_assert(!stepping_);
    if (unwinding_)
        return;
    Thread *self = running_;
    hc_assert(self);
    makeReady(self, std::max(when, now()));
    reschedule();
}

void
Engine::wait(WaitQueue &queue)
{
    hc_assert(!stepping_);
    if (unwinding_)
        return;
    Thread *self = running_;
    hc_assert(self);
    self->state_ = ThreadState::Blocked;
    self->waitingOn_ = &queue;
    self->hasTimeout_ = false;
    self->timedOut_ = false;
    queue.waiters_.push_back(self);
    reschedule();
}

bool
Engine::waitUntil(WaitQueue &queue, Cycles deadline)
{
    hc_assert(!stepping_);
    if (unwinding_)
        return false; // report as a timeout
    Thread *self = running_;
    hc_assert(self);
    self->state_ = ThreadState::Blocked;
    self->waitingOn_ = &queue;
    self->hasTimeout_ = true;
    self->timeoutAt_ = std::max(deadline, now());
    self->timedOut_ = false;
    queue.waiters_.push_back(self);
    timedWaiters_.push_back(self);
    reschedule();
    return !self->timedOut_;
}

void
Engine::notifyOne(WaitQueue &queue)
{
    hc_assert(!stepping_);
    if (queue.waiters_.empty())
        return;
    Thread *woken = queue.waiters_.front();
    queue.waiters_.pop_front();
    woken->waitingOn_ = nullptr;
    if (woken->hasTimeout_) {
        woken->hasTimeout_ = false;
        dropTimedWaiter(woken);
    }
    woken->timedOut_ = false;
    if (observer_)
        observer_->onWake(running_, woken);
    makeReady(woken, now());
}

void
Engine::notifyAll(WaitQueue &queue)
{
    hc_assert(!stepping_);
    while (!queue.waiters_.empty())
        notifyOne(queue);
}

void
Engine::spin(Spin &loop)
{
    Thread *self = running_;
    hc_assert(self && !self->spin_);
    self->spin_ = &loop;
    // While we are parked in advance(), the scheduler may step the
    // loop inline; it clears spin_ when one of those steps ends it.
    for (Cycles c; self->spin_ && (c = step(loop)) != kSpinDone;)
        advance(c);
    self->spin_ = nullptr;
}

void
Engine::exitThread()
{
    Thread *self = running_;
    hc_assert(self);
    self->state_ = ThreadState::Done;
    self->fiber_->switchBack();
    panic("exited thread resumed");
}

void
Engine::setInterruptHandler(InterruptHandler handler)
{
    interruptHandler_ = std::move(handler);
}

Cycles
now()
{
    Engine *engine = Engine::current();
    hc_assert(engine);
    return engine->now();
}

void
advance(Cycles cycles)
{
    Engine *engine = Engine::current();
    hc_assert(engine);
    engine->advance(cycles);
}

void
yield()
{
    Engine *engine = Engine::current();
    hc_assert(engine);
    engine->yield();
}

} // namespace hc::sim
