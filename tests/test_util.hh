/**
 * @file
 * Shared helpers for the dirsim test suite.
 */

#ifndef DIRSIM_TESTS_TEST_UTIL_HH
#define DIRSIM_TESTS_TEST_UTIL_HH

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "protocols/protocol.hh"
#include "protocols/registry.hh"
#include "sim/experiment.hh"
#include "trace/trace.hh"

namespace dirsim::test
{

/**
 * Block indices the helpers below reserve: enough for every block
 * number the scenario tests use directly.
 */
inline constexpr std::uint32_t testBlocks = 1024;

/**
 * A protocol or directory reserved for testBlocks blocks on
 * construction (its reserveBlocks()), so scenario tests can drive it
 * with small block numbers as indices: `Reserved<Dir1NB> p(4);`.
 */
template <typename Protocol>
class Reserved : public Protocol
{
  public:
    template <typename... Args>
    explicit Reserved(Args &&...args)
        : Protocol(std::forward<Args>(args)...)
    {
        this->reserveBlocks(testBlocks);
    }
};

/** @p protocol reserved for testBlocks blocks; see Reserved. */
inline std::unique_ptr<CoherenceProtocol>
reserved(std::unique_ptr<CoherenceProtocol> protocol)
{
    protocol->reserveBlocks(testBlocks);
    return protocol;
}

/** Per-scheme results of runGrid() over named schemes and in-memory
 *  traces, with the default options. */
inline std::vector<SchemeResults>
schemeGrid(const std::vector<std::string> &schemes,
           const std::vector<Trace> &traces)
{
    return runGrid(parseSchemes(schemes), TraceRef::of(traces)).schemes;
}

/** runGrid() of named schemes on @p jobs workers, with one shard and
 *  no cell cache unless @p options says otherwise. */
inline GridResult
gridOnJobs(unsigned jobs, const std::vector<std::string> &schemes,
           const std::vector<TraceRef> &inputs,
           const SimConfig &sim = {}, const JobOptions &options = {})
{
    RunOptions run;
    run.jobs = jobs;
    return runGrid(parseSchemes(schemes), inputs, sim, options, run);
}

/** Build a record tersely. */
inline TraceRecord
rec(CpuId cpu, ProcId pid, RefType type, Addr addr,
    std::uint8_t flags = flagNone)
{
    TraceRecord record;
    record.cpu = cpu;
    record.pid = pid;
    record.type = type;
    record.addr = addr;
    record.flags = flags;
    return record;
}

inline TraceRecord
read(ProcId pid, Addr addr, std::uint8_t flags = flagNone)
{
    return rec(static_cast<CpuId>(pid % 4), pid, RefType::Read, addr,
               flags);
}

inline TraceRecord
write(ProcId pid, Addr addr, std::uint8_t flags = flagNone)
{
    return rec(static_cast<CpuId>(pid % 4), pid, RefType::Write, addr,
               flags);
}

inline TraceRecord
instr(ProcId pid, Addr addr)
{
    return rec(static_cast<CpuId>(pid % 4), pid, RefType::Instr, addr);
}

/** Build a trace from a record list. */
inline Trace
makeTrace(std::initializer_list<TraceRecord> records,
          const std::string &name = "test", unsigned cpus = 4)
{
    Trace trace(name, cpus);
    for (const auto &record : records)
        trace.append(record);
    return trace;
}

} // namespace dirsim::test

#endif // DIRSIM_TESTS_TEST_UTIL_HH
