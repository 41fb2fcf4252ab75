/**
 * @file
 * Channel core implementation.
 */

#include "hotcalls/channel.hh"

namespace hc::hotcalls {

namespace {

/** @return @p bytes rounded up to whole cache lines (0 stays 0). */
std::uint64_t
roundUpToLines(std::uint64_t bytes)
{
    return (bytes + kCacheLineSize - 1) / kCacheLineSize *
           kCacheLineSize;
}

} // anonymous namespace

Channel::Channel(sdk::EnclaveRuntime &runtime, Kind kind)
    : runtime_(runtime), machine_(runtime.platform().machine()),
      kind_(kind)
{
}

Channel::~Channel()
{
    // Once Engine::run() has returned no fiber can ever execute again,
    // so even a stranded (not Done) responder cannot touch the lines
    // anymore: free them (the arenas free themselves). Inside a
    // still-running simulation a responder that could not be joined
    // (e.g. blocked inside a handler that never returns) may still
    // hold the lines and serve out of the staging, so both are leaked,
    // with SimCheck on or off: later allocations land at the same
    // addresses either way.
    bool all_done = true;
    for (sim::Thread *responder : responders_)
        all_done &= responder->state() == sim::ThreadState::Done;
    if (all_done || machine_.engine().currentThread() == nullptr) {
        for (Addr line : lines_)
            machine_.space().free(line);
        return;
    }
    auto *ck = machine_.check();
    const char *why = "hot channel line held by an unjoinable responder";
    for (Addr line : lines_) {
        if (ck)
            ck->registerDeliberateLeak(line, why);
    }
    for (StagingSlot &slot : staging_) {
        for (auto *arena : {slot.inlineArena.get(), slot.arena.get()}) {
            if (!arena || !arena->base())
                continue;
            if (ck)
                ck->registerDeliberateLeak(arena->base(), why);
            arena->leak();
        }
    }
}

void
Channel::bind(const ChannelConfig &config, ChannelStats &stats,
              const char *name)
{
    knobs_ = &config;
    counters_ = &stats;
    if (auto *sentinel = machine_.guard())
        guard_ = &sentinel->adopt(name, config.timeout);
}

Addr
Channel::allocLine()
{
    const Addr line =
        machine_.space().allocUntrusted(kCacheLineSize, kCacheLineSize);
    lines_.push_back(line);
    // A protocol line is the protocol's atomic: its accesses order,
    // they do not race.
    if (auto *ck = machine_.check())
        ck->registerSyncWord(line);
    return line;
}

void
Channel::allocStaging(std::size_t count, check::HotQueueProtocol *shadow)
{
    if (!knobs_->fastPath)
        return;
    const bool is_ocall = kind_ == Kind::HotOcall;
    const std::uint64_t inline_bytes =
        is_ocall ? roundUpToLines(knobs_->inlinePayloadBytes) : 0;
    auto *ck = machine_.check();
    staging_.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
        StagingSlot &slot = staging_[i];
        if (inline_bytes > 0) {
            slot.inlineArena = std::make_unique<mem::StagingArena>(
                machine_, mem::Domain::Untrusted, inline_bytes);
        }
        if (knobs_->arenaBytes > 0) {
            slot.arena = std::make_unique<mem::StagingArena>(
                machine_,
                is_ocall ? mem::Domain::Untrusted : mem::Domain::Epc,
                knobs_->arenaBytes);
        }
        slot.staging.inlineArena = slot.inlineArena.get();
        slot.staging.spill = slot.arena.get();
        slot.shadow = shadow;
        slot.index = static_cast<int>(i);
        for (auto *arena : {slot.inlineArena.get(), slot.arena.get()}) {
            if (!ck || !arena)
                continue;
            // Arena lines order payload handoff, they do not race.
            for (std::uint64_t l = 0; l < arena->lineCount(); ++l)
                ck->registerSyncWord(arena->base() + l * kCacheLineSize);
        }
    }
}

void
Channel::stop()
{
    if (stopped_)
        return;
    stopRequested_ = true;
    // Outside the simulation nothing can still run, so there is no
    // join to wait for.
    auto *engine = sim::Engine::current();
    if (engine && engine->currentThread()) {
        wakeResponders();
        // The lines must stay alive until the last responder has left
        // its loop. The wait is bounded per responder: one stuck in a
        // blocking handler (whose wakeup will never come) must not
        // livelock teardown.
        constexpr Cycles kJoinGrace = 2'000'000;
        constexpr Cycles kJoinStep = 500;
        for (sim::Thread *responder : responders_) {
            for (Cycles waited = 0;
                 responder->state() != sim::ThreadState::Done &&
                 !engine->stopRequested() && waited < kJoinGrace;
                 waited += kJoinStep) {
                engine->advance(kJoinStep);
            }
            if (responder->state() == sim::ThreadState::Done) {
                if (auto *ck = machine_.check())
                    ck->joinEdge(responder);
            }
        }
        afterJoin();
    }
    if (guard_) {
        guard_->flush(machine_.now());
        counters_->degradedCycles = guard_->degradedCycles(machine_.now());
    }
    stopped_ = true;
}

std::uint64_t
Channel::call(const std::string &name, const edl::Args &args)
{
    return call(kind_ == Kind::HotOcall ? runtime_.ocallId(name)
                                        : runtime_.ecallId(name),
                args);
}

bool
Channel::marshal(StagingSlot *slot, const edl::CallPlan &plan,
                 const edl::Args &args, edl::StagedCall &own)
{
    auto &marshaller = runtime_.marshaller();
    // Scalar-only functions stage nothing: the SDK placement is
    // already copy-free and charge-free for them, so the fast plane
    // only engages when payload moves.
    if (!slot || !plan.anyCopy) {
        marshaller.stage(plan, args, nullptr, own);
        return false;
    }
    if (slot->shadow)
        slot->shadow->onArenaRecycle(slot->index);
    marshaller.stage(plan, args, &slot->staging, slot->scratch);
    countStaged(slot->staging);
    return true;
}

void
Channel::stage(Request &req, int id, const edl::Args &args,
               StagingSlot *slot)
{
    req.id = id;
    req.ecall.args = &args;
    if (kind_ == Kind::HotEcall ||
        !marshal(slot, runtime_.ocallPlan(id), args, req.staged))
        return;
    if (slot->staging.usedSpill)
        touchArena(*slot, true); // hand the payload lines over
    req.fast = slot;
}

std::uint64_t
Channel::finishFast(Request &req)
{
    StagingSlot &slot = *req.fast;
    if (slot.staging.usedSpill)
        touchArena(slot, false); // read the results back
    runtime_.marshaller().finish(slot.scratch);
    return slot.scratch.retval();
}

std::uint64_t
Channel::finish(Request &req)
{
    if (kind_ == Kind::HotEcall)
        return req.ecall.retval;
    // Back "inside": copy out-buffers into the enclave.
    runtime_.marshaller().finish(req.staged);
    return req.staged.retval();
}

void
Channel::serve(Request &req, StagingSlot *slot)
{
    const Cycles start = machine_.now();
    machine_.engine().advance(kResponderFixed);

    if (kind_ == Kind::HotOcall) {
        const bool arena_handoff =
            req.fast && req.fast->staging.usedSpill;
        if (arena_handoff)
            touchArena(*req.fast, false); // pull the spilled payload
        runtime_.dispatchOcallDirect(
            req.id, req.fast ? req.fast->scratch : req.staged);
        if (arena_handoff)
            touchArena(*req.fast, true); // results written back
    } else {
        // Under FastPath the staging goes into the slot's recycled EPC
        // arena, which the protocol lends this responder until the
        // completion.
        edl::StagedCall own;
        edl::StagedCall &call =
            marshal(slot, runtime_.ecallPlan(req.id), *req.ecall.args, own)
                ? slot->scratch
                : own;
        runtime_.dispatchEcallDirect(req.id, call);
        runtime_.marshaller().finish(call);
        req.ecall.retval = call.retval();
    }

    counters_->responderBusyCycles += machine_.now() - start;
}

void
Channel::countStaged(const edl::FastStaging &staging)
{
    ++counters_->fastCalls;
    if (staging.usedInline)
        ++counters_->inlineStaged;
    if (staging.usedSpill)
        ++counters_->arenaStaged;
    if (staging.usedHeap)
        ++counters_->heapStaged;
}

} // namespace hc::hotcalls
