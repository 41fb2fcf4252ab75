/**
 * @file
 * Machine implementation.
 */

#include "mem/machine.hh"

#include <algorithm>

#include "fault/fault.hh"
#include "support/env.hh"
#include "support/logging.hh"

namespace hc::mem {

Machine::Machine(MachineConfig config)
    : config_(config), engine_(config.engine),
      space_(kUntrustedMemory, config.mem.epcVirtualSize),
      memory_(engine_, space_, config.mem, config.engine.seed ^ 0x5367)
{
    check::CheckConfig cc = config_.check;
    if (!cc.enabled && envFlagOr("HC_CHECK", false)) {
        // Environment-driven runs (HC_CHECK=1 ctest ...) fail loudly;
        // explicit configuration (seeded-violation tests) wins and
        // keeps its record-only default.
        cc.enabled = true;
        cc.panicOnViolation = true;
    }
    if (cc.enabled) {
        check_ = std::make_unique<check::SimCheck>(engine_, cc);
        engine_.setObserver(check_.get());
        memory_.setCheck(check_.get());
        space_.setFreeHook([this](Addr addr, std::uint64_t size) {
            check_->onFree(addr, size);
        });
    }
    if (config_.guard.enabled)
        guard_ = std::make_unique<guard::Sentinel>(config_.guard);
}

Machine::~Machine()
{
    // Collapse fibers stranded by an aborted run while the address
    // space is still alive: their stack-held RAII allocations free
    // themselves, so the audit below sees the true leak set.
    engine_.unwindStranded();
    auditLeaksNow();
    // Detach before members are torn down (check_ dies before the
    // engine field would otherwise keep calling it).
    engine_.setObserver(nullptr);
    memory_.setCheck(nullptr);
    space_.setFreeHook(nullptr);
}

void
Machine::installFault(fault::FaultInjector *injector)
{
    fault_ = injector;
    if (injector) {
        injector->setNext(check_.get());
        engine_.setObserver(injector);
    } else {
        engine_.setObserver(check_.get());
    }
}

void
Machine::auditLeaksNow()
{
    if (!check_)
        return;
    if (engine_.stopRequested() && engine_.liveThreads() > 0) {
        // stop() strands still-live fibers mid-execution; their
        // stack-held allocations (staging buffers, sockets) can never
        // be released, so the audit would flag unavoidable noise.
        trace("leak audit skipped: run aborted with %llu live threads",
              static_cast<unsigned long long>(engine_.liveThreads()));
        return;
    }
    std::vector<check::SimCheck::LeakItem> live;
    for (const auto &[addr, bytes] : space_.untrusted().live())
        live.push_back({addr, bytes, "untrusted"});
    for (const auto &[addr, bytes] : space_.epc().live())
        live.push_back({addr, bytes, "epc"});
    // Deterministic report order regardless of hash-map iteration.
    std::sort(live.begin(), live.end(),
              [](const auto &a, const auto &b) {
                  return a.addr < b.addr;
              });
    check_->auditLeaks(live);
}

} // namespace hc::mem
