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
 * The measured window of a finished run of @p decoded: @p protocol's
 * totals minus @p warmup, labelled with the scheme and trace. Phases
 * are the caller's.
 */
SimResult measuredResult(const DecodedTrace &decoded,
                         const CoherenceProtocol &protocol,
                         const WarmupSnapshot &warmup);

} // namespace dirsim

#endif // DIRSIM_SIM_ENGINE_PARTS_HH
