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

constexpr Cycles kNever = std::numeric_limits<Cycles>::max();

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
    if (core.ready.empty() ||
        when < core.ready[core.candidate]->readyTime_)
        core.candidate = core.ready.size();
    core.ready.push_back(thread);
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
    // Earliest eligibility, first arrival on ties.
    core.candidate = 0;
    for (std::size_t i = 1; i < ready.size(); ++i) {
        if (ready[i]->readyTime_ < ready[core.candidate]->readyTime_)
            core.candidate = i;
    }
}

Engine::Selection
Engine::selectNext() const
{
    Selection sel;
    // Globally minimal runnable candidate; `<` keeps the first core
    // on ties. Candidate times of every losing core accumulate into
    // otherMin so a post-dispatch horizon refresh only has to rescan
    // the winning core.
    for (std::size_t c = 0; c < cores_.size(); ++c) {
        const Core &core = cores_[c];
        if (core.ready.empty())
            continue;
        Thread *th = core.ready[core.candidate];
        const Cycles t = std::max(core.clock, th->readyTime_);
        if (t < sel.time) {
            if (sel.thread)
                sel.otherMin = std::min(sel.otherMin, sel.time);
            sel.time = t;
            sel.thread = th;
            sel.coreIdx = c;
        } else {
            sel.otherMin = std::min(sel.otherMin, t);
        }
    }
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
    if (!core.ready.empty()) {
        next = std::min(next, std::max(core.clock,
                                       core.ready[core.candidate]
                                           ->readyTime_));
    }
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
        const Selection sel = selectNext();

        // Fire any expired waitUntil() timeout that precedes every
        // runnable candidate: once its deadline is the global minimum,
        // no earlier notify can still happen.
        if (sel.expiresTimeout()) {
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

        if (!sel.thread) {
            std::string live;
            for (const auto &thread : threads_) {
                if (thread->state_ != ThreadState::Done)
                    live += " " + thread->name_;
            }
            fatal("simulation deadlock: no runnable thread among:%s",
                  live.c_str());
        }

        dispatch(sel);
        sel.thread->fiber_->switchTo();
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

void
Engine::reschedule()
{
    Thread *self = running_;
    // The loop in run() re-checks stopRequested_ before dispatching
    // anyone, and is the only place that expires timeouts and reports
    // deadlock; only a plain dispatch happens here. Either way the
    // decision is selectNext() on the same state.
    const Selection sel =
        stopRequested_ ? Selection{} : selectNext();
    if (sel.thread && !sel.expiresTimeout()) {
        dispatch(sel);
        if (sel.thread == self)
            return; // re-picked: keep running, no swap
        ++fiberSwitches_;
        self->fiber_->handoff(*sel.thread->fiber_);
    } else {
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
    while (!queue.waiters_.empty())
        notifyOne(queue);
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
