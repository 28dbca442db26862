/**
 * @file
 * Environment-variable parsing shared by the DIRSIM_* configuration
 * knobs (sim/suite.hh, sim/simulator.hh, sim/job.hh).
 */

#ifndef DIRSIM_COMMON_ENV_HH
#define DIRSIM_COMMON_ENV_HH

#include <cstdint>
#include <optional>
#include <string>

namespace dirsim
{

/** Raw value of @p name; nullopt when unset or empty. */
std::optional<std::string> envString(const char *name);

/**
 * Unsigned integer override: @p fallback when @p name is unset or
 * empty, its parsed value otherwise.
 *
 * @throws UsageError when the value is not a number
 */
std::uint64_t envU64(const char *name, std::uint64_t fallback);

/** envU64() narrowed to unsigned; rejects values that do not fit. */
unsigned envUnsigned(const char *name, unsigned fallback);

} // namespace dirsim

#endif // DIRSIM_COMMON_ENV_HH
