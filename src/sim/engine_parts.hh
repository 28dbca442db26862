/**
 * @file
 * The pieces the decoded engine's two loops share: the sequential
 * simulateTrace(DecodedTrace, ...) (sim/decoded.cc) and the sharded
 * runShard() (sim/job.cc). Private to those two files; the loops
 * themselves stay separate so neither hot path pays for the other.
 */

#ifndef DIRSIM_SIM_ENGINE_PARTS_HH
#define DIRSIM_SIM_ENGINE_PARTS_HH

#include "sim/decoded.hh"

namespace dirsim
{

/**
 * Fatal unless @p config's block size is valid and its block size
 * and sharing model equal the ones @p decoded was decoded under (the
 * densification would not match).
 */
void checkDecodedGeometry(const DecodedTrace &decoded,
                          const SimConfig &config);

/** A protocol's counters at the end of the warm-up window. */
struct WarmupSnapshot
{
    EventCounts events;
    OpCounts ops;
    Histogram cleanWriteHolders;

    void take(const CoherenceProtocol &protocol)
    {
        events = protocol.events();
        ops = protocol.ops();
        cleanWriteHolders = protocol.cleanWriteHolders();
    }
};

/**
 * Where a warm-up of N records ends in a decoded stream: after @p
 * instrs of the instructions just before data reference @p ref (ref
 * == dataRefs: inside the trailing run). Both loops resolve the
 * global record index once, then snapshot when they reach ref.
 */
struct WarmupPoint
{
    /** ref of a run without warm-up: no data ref ever matches it. */
    static constexpr std::uint64_t none = ~std::uint64_t{0};

    std::uint64_t ref = none;
    std::uint64_t instrs = 0;
};

/**
 * Resolve a warm-up of @p warmup_refs records (0 = none) in @p
 * decoded. Fatal when the warm-up consumes the whole trace — the
 * message the record-at-a-time loop gave after running it.
 */
WarmupPoint locateWarmup(const DecodedTrace &decoded,
                         std::uint64_t warmup_refs);

/**
 * The measured window of a finished run of @p decoded: @p protocol's
 * totals minus @p warmup, labelled with the scheme and trace. Phases
 * are the caller's.
 */
SimResult measuredResult(const DecodedTrace &decoded,
                         const CoherenceProtocol &protocol,
                         const WarmupSnapshot &warmup);

} // namespace dirsim

#endif // DIRSIM_SIM_ENGINE_PARTS_HH
