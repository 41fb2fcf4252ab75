/**
 * @file
 * Machine: the simulated platform bundle.
 *
 * One Machine mirrors the paper's test box: an 8-logical-core 4 GHz
 * CPU (sim::Engine), its address space with a 93 MiB EPC, and the
 * timed memory system (LLC + MEE). Higher layers (SGX, SDK, OS, apps)
 * take a Machine by reference.
 */

#ifndef HC_MEM_MACHINE_HH
#define HC_MEM_MACHINE_HH

#include <cstdint>
#include <memory>

#include "check/check.hh"
#include "guard/guard.hh"
#include "mem/address_space.hh"
#include "mem/cost_params.hh"
#include "mem/memory.hh"
#include "sim/engine.hh"

namespace hc::fault {
class FaultInjector;
}

namespace hc::mem {

/** Untrusted (non-EPC) virtual memory of every machine. */
constexpr std::uint64_t kUntrustedMemory = 4096_MiB;

/** Configuration of a simulated machine. */
struct MachineConfig {
    sim::Engine::Config engine;
    CostParams mem;
    /** SimCheck correctness layer (src/check). Off by default; the
     *  HC_CHECK environment variable enables it (with
     *  panic-on-violation) unless the config enables it explicitly. */
    check::CheckConfig check;
    /** Sentinel supervision layer (src/guard). On by default
     *  (guard.enabled); quiet runs stay bit-identical with it on or
     *  off. */
    guard::GuardConfig guard;
};

/** The simulated platform: cores + address space + memory system. */
class Machine
{
  public:
    explicit Machine(MachineConfig config = {});
    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    sim::Engine &engine() { return engine_; }
    AddressSpace &space() { return space_; }
    MemoryModel &memory() { return memory_; }
    const CostParams &memParams() const { return config_.mem; }
    const MachineConfig &config() const { return config_; }

    /** @return the SimCheck layer, or null when checking is off. */
    check::SimCheck *check() { return check_.get(); }

    /** @return the Sentinel supervisor, or null when the guard is
     *  off. Channels adopt themselves into it at construction. */
    guard::Sentinel *guard() { return guard_.get(); }

    /**
     * Install (or, with null, remove) a fault injector. The injector
     * takes over the engine's observer slot, decorating SimCheck when
     * that layer is on, and becomes visible to the instrumented fault
     * sites through fault(). The injector must outlive the
     * installation (remove it before destroying it); campaigns use a
     * scope guard for that.
     */
    void installFault(fault::FaultInjector *injector);

    /** @return the installed fault injector, or null (ordinary runs:
     *  every fault site is a single null test). */
    fault::FaultInjector *fault() { return fault_; }

    /** Run the unfreed-allocation audit now (it also runs once at
     *  destruction). No-op when checking is off. */
    void auditLeaksNow();

    /** @return the calling fiber's core (0 outside the simulation). */
    CoreId currentCore() const { return memory_.currentCore(); }

    /** @return the calling fiber's core clock. */
    Cycles now() const { return engine_.now(); }

  private:
    MachineConfig config_;
    sim::Engine engine_;
    AddressSpace space_;
    MemoryModel memory_;
    std::unique_ptr<check::SimCheck> check_;
    std::unique_ptr<guard::Sentinel> guard_;
    fault::FaultInjector *fault_ = nullptr;
};

} // namespace hc::mem

#endif // HC_MEM_MACHINE_HH
