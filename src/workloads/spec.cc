/**
 * @file
 * SPEC-like kernel implementations.
 */

#include "workloads/spec.hh"

#include <numeric>
#include <vector>

#include "support/logging.hh"
#include "support/rng.hh"

namespace hc::workloads {

namespace {

/** RAII region allocation in a domain. */
class Region
{
  public:
    Region(mem::Machine &machine, mem::Domain domain,
           std::uint64_t bytes)
        : machine_(machine)
    {
        addr_ = (domain == mem::Domain::Epc)
                    ? machine.space().allocEpc(bytes, kPageSize)
                    : machine.space().allocUntrusted(bytes, kPageSize);
    }
    ~Region() { machine_.space().free(addr_); }

    Addr addr() const { return addr_; }

  private:
    mem::Machine &machine_;
    Addr addr_;
};

} // anonymous namespace

Cycles
runMcf(mem::Machine &machine, mem::Domain domain,
       const SpecConfig &config)
{
    auto &engine = machine.engine();
    auto &memory = machine.memory();
    Region region(machine, domain, config.mcfBytes);

    // Build a single-cycle random permutation over the arc records
    // (64 B each): a pointer chase with no spatial locality, the mcf
    // signature.
    const std::uint64_t nodes = config.mcfBytes / kCacheLineSize;
    std::vector<std::uint32_t> next(nodes);
    std::iota(next.begin(), next.end(), 0u);
    Rng rng(0x6d6366); // "mcf"
    for (std::uint64_t i = nodes - 1; i > 0; --i) {
        const std::uint64_t j = rng.nextBelow(i + 1);
        std::swap(next[i], next[j]);
    }

    const Cycles start = machine.now();
    std::uint64_t node = 0;
    for (std::uint64_t step = 0; step < config.mcfSteps; ++step) {
        memory.accessWord(region.addr() + static_cast<Addr>(node) *
                                              kCacheLineSize,
                          /*write=*/(step & 7) == 0);
        engine.advance(config.mcfCompute);
        node = next[node];
    }
    return machine.now() - start;
}

Cycles
runLibquantum(mem::Machine &machine, mem::Domain domain,
              const SpecConfig &config)
{
    auto &engine = machine.engine();
    auto &memory = machine.memory();
    Region region(machine, domain, config.libqBytes);

    // Repeated streaming sweeps applying a gate to every amplitude:
    // read-modify-write over the whole register, in 1 MiB chunks.
    // Each chunk is one bulk-span readBuffer/writeBuffer pair (the
    // span path batches the per-line probes); the chunk size is
    // part of the modelled access pattern — every chunk op rounds
    // its fractional per-line costs once, so re-chunking would move
    // Fig 8 outputs.
    const std::uint64_t chunk = 1_MiB;
    const Cycles start = machine.now();
    for (int sweep = 0; sweep < config.libqSweeps; ++sweep) {
        for (std::uint64_t off = 0; off < config.libqBytes;
             off += chunk) {
            const std::uint64_t len =
                std::min(chunk, config.libqBytes - off);
            memory.readBuffer(region.addr() + off, len);
            memory.writeBuffer(region.addr() + off, len);
            engine.advance(config.libqComputePerLine *
                           (len / kCacheLineSize));
        }
    }
    return machine.now() - start;
}

Cycles
runAstar(mem::Machine &machine, mem::Domain domain,
         const SpecConfig &config)
{
    auto &engine = machine.engine();
    auto &memory = machine.memory();
    Region region(machine, domain, config.astarBytes);

    // Grid search: expansions jump within a bounded neighborhood
    // (spatial locality) with occasional long hops to the open list.
    const std::uint64_t lines = config.astarBytes / kCacheLineSize;
    Rng rng(0x617374); // "ast"
    std::uint64_t pos = lines / 2;
    const Cycles start = machine.now();
    for (std::uint64_t step = 0; step < config.astarSteps; ++step) {
        // Visit the current cell and two neighbors.
        for (int n = 0; n < 3; ++n) {
            const std::int64_t delta = rng.nextRange(-32, 32);
            std::uint64_t cell =
                (pos + static_cast<std::uint64_t>(
                           static_cast<std::int64_t>(lines) + delta)) %
                lines;
            memory.accessWord(region.addr() +
                                  static_cast<Addr>(cell) *
                                      kCacheLineSize,
                              n == 0);
        }
        engine.advance(config.astarCompute);
        if (rng.chance(0.02)) {
            // Open-list pop: jump somewhere far.
            pos = rng.nextBelow(lines);
        } else {
            pos = (pos + 1) % lines;
        }
    }
    return machine.now() - start;
}

} // namespace hc::workloads
