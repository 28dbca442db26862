/**
 * @file
 * Decode-once reference streams.
 *
 * A grid run feeds the same trace to many schemes. The raw trace is
 * the wrong representation to replay: every cell re-hashes addresses
 * into block numbers, re-discovers first references, and re-maps pids
 * onto caches — identical work per cell. DecodedTrace performs that
 * work exactly once: a single pass over a Trace or TraceSource emits
 * a compact structure-of-arrays stream of the *data* references (op
 * kind + first-ref flag, densified block index, dense cache id, and
 * the length of the instruction run just before the reference) plus
 * the exact block, cache, and reference counts a simulation needs.
 * Instruction fetches never cause coherence traffic, so they survive
 * only as run lengths: the engine adds each run to the Instr count
 * before the reference that follows it, which keeps every counter,
 * the warm-up boundary, and every traced reference ordinal exact.
 *
 * The densified block index is the key enabler: with blocks numbered
 * 0..blockCount-1 in order of first appearance, every per-block store
 * of the engine is a flat array (CoherenceProtocol::reserveBlocks),
 * so the per-reference hot path performs no hashing at all.
 * denseToBlock[] retains the original block numbers for trace-sink
 * labeling and for finite caches (whose set indexing needs real
 * addresses).
 *
 * simulateTrace(DecodedTrace, ...) is the engine: every other entry
 * point decodes and runs it. Its results are pinned by the committed
 * golden cell records (tests/golden/).
 */

#ifndef DIRSIM_SIM_DECODED_HH
#define DIRSIM_SIM_DECODED_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "trace/source.hh"
#include "trace/trace.hh"

namespace dirsim
{

/** DecodedTrace::ops encoding: low bits = kind, bit 4 = first ref. */
constexpr std::uint8_t decodedOpRead = 1;
constexpr std::uint8_t decodedOpWrite = 2;
constexpr std::uint8_t decodedOpKindMask = 0x03;
constexpr std::uint8_t decodedOpFirstRef = 0x10;

/**
 * DecodedTrace::instrRuns value meaning "65535 or more instructions":
 * the exact count is in DecodedTrace::longInstrRuns.
 */
constexpr std::uint16_t instrRunEscape = 0xffff;

/**
 * A trace decoded into simulation operands (see the file comment).
 *
 * The four per-reference arrays hold one entry per data reference,
 * index-aligned, in source order; instructions exist only as run
 * lengths (instrRuns, longInstrRuns, trailingInstrs). The struct is
 * immutable after decoding and safe to share read-only across
 * concurrent simulations (the runner decodes each trace once per
 * grid).
 */
struct DecodedTrace
{
    std::string name; ///< workload name (trace/file header)

    /** decodedOpRead/Write plus the decodedOpFirstRef flag. */
    std::vector<std::uint8_t> ops;
    /** Densified block index (first-appearance order over data refs). */
    std::vector<std::uint32_t> blocks;
    /** Dense cache id (first-appearance order over data refs). */
    std::vector<CacheId> caches;
    /**
     * Instructions between the previous data reference (or the start
     * of the trace) and this one; instrRunEscape for a run of 65535 or
     * more, whose length is in longInstrRuns.
     */
    std::vector<std::uint16_t> instrRuns;

    /** An escaped instrRuns entry: the data ref and its run length. */
    struct LongInstrRun
    {
        std::uint64_t ref;
        std::uint64_t instrs;
    };
    /** The escaped runs, in ascending ref order. */
    std::vector<LongInstrRun> longInstrRuns;
    /** Instructions after the last data reference. */
    std::uint64_t trailingInstrs = 0;

    /** Dense block index -> original block number. */
    std::vector<BlockNum> denseToBlock;

    /** The geometry the stream was decoded under. */
    unsigned blockBytes = 0;
    SharingModel sharing = SharingModel::ByProcess;

    /**
     * Caches a simulation of this trace must build: distinct pids
     * over all records (ByProcess) or observed CPUs, falling back to
     * the header CPU count (ByProcessor) — the same rule as
     * cachesNeeded(const Trace &, SharingModel).
     */
    unsigned cachesNeeded = 0;
    /**
     * Distinct pids/CPUs over data records only — the cache ids the
     * stream actually uses (<= cachesNeeded; instruction-only
     * processes consume no cache).
     */
    unsigned cachesUsed = 0;
    /** Data references in the stream (reads + writes). */
    std::uint64_t dataRefs = 0;
    /** Instruction records in the stream. */
    std::uint64_t instrs = 0;

    /** Total records (instructions included). */
    std::uint64_t numRecords() const { return dataRefs + instrs; }

    /** Instructions just before data reference @p ref. */
    std::uint64_t instrsBefore(std::uint64_t ref) const
    {
        const std::uint16_t run = instrRuns[ref];
        return run != instrRunEscape ? run : longInstrRun(ref);
    }

    /** Distinct blocks the data references touch. */
    std::uint32_t blockCount() const
    {
        return static_cast<std::uint32_t>(denseToBlock.size());
    }

    /** Heap bytes held by the record arrays (for diagnostics). */
    std::uint64_t memoryBytes() const;

  private:
    /** The escaped run of data reference @p ref (out of line: rare). */
    std::uint64_t longInstrRun(std::uint64_t ref) const;
};

/**
 * Decode an in-memory trace under @p block_bytes / @p sharing.
 * The trace may be empty (simulating the result then fails exactly
 * like simulating the empty trace itself).
 */
DecodedTrace decodeTrace(const Trace &trace, unsigned block_bytes,
                         SharingModel sharing);

/** Streaming variant: decode @p source to exhaustion. */
DecodedTrace decodeTrace(TraceSource &source, unsigned block_bytes,
                         SharingModel sharing);

/**
 * Decode a trace file in a single streaming read — this both sizes
 * the coherence domain and captures the records, so runGrid() over
 * TraceRef::file inputs reads each file once per decoded (block
 * size, sharing) stream.
 *
 * @throws UsageError when the file cannot be opened or is malformed;
 *         the message starts with "trace file '<path>': " (see
 *         openTraceSource())
 */
DecodedTrace decodeTraceFile(const std::string &path,
                             unsigned block_bytes,
                             SharingModel sharing);

/**
 * Run a decoded stream through a fresh @p protocol.
 *
 * The protocol is sized for the stream's blocks
 * (CoherenceProtocol::reserveBlocks, labelled with denseToBlock so
 * finite caches place blocks by their real addresses) and fed
 * densified indices — the hash-free hot path.
 *
 * config.blockBytes and config.sharing must equal the decode-time
 * values (fatal otherwise: the densification would not match).
 *
 * @throws UsageError as simulateTrace(Trace, ...) does for
 *         finite-cache misconfiguration
 */
SimResult simulateTrace(const DecodedTrace &decoded,
                        CoherenceProtocol &protocol,
                        const SimConfig &config = {});

/**
 * Build the scheme sized from the decoded stream (honoring
 * SimConfig::finiteCache), then simulate — the decoded counterpart
 * of simulateTrace(Trace, SchemeSpec, ...).
 */
SimResult simulateTrace(const DecodedTrace &decoded,
                        const SchemeSpec &scheme,
                        const SimConfig &config = {});

} // namespace dirsim

#endif // DIRSIM_SIM_DECODED_HH
