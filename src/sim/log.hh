/**
 * @file
 * Minimal gem5-style logging and error-reporting helpers.
 *
 * fatal() is for user errors (bad configuration); panic() is for
 * internal invariant violations. Both terminate. inform()/warn() are
 * status messages that never stop execution.
 */

#ifndef KELP_SIM_LOG_HH
#define KELP_SIM_LOG_HH

#include <cstdint>
#include <sstream>
#include <string>

namespace kelp {
namespace sim {

/** Verbosity levels for status messages. */
enum class LogLevel { Quiet = 0, Warn = 1, Inform = 2, Debug = 3 };

/** Get the process-wide log level (default: Warn). */
LogLevel logLevel();

/** Set the process-wide log level. */
void setLogLevel(LogLevel level);

namespace detail {

void emit(LogLevel level, const std::string &tag, const std::string &msg);

[[noreturn]] void die(const std::string &tag, const std::string &msg,
                      bool is_panic);

template <typename... Args>
std::string
format(Args &&...args)
{
    std::ostringstream os;
    ((os << args), ...);
    return os.str();
}

} // namespace detail

/** Informative status message (shown at Inform level and above). */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::emit(LogLevel::Inform, "info",
                 detail::format(std::forward<Args>(args)...));
}

/** Warning about questionable but survivable conditions. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::emit(LogLevel::Warn, "warn",
                 detail::format(std::forward<Args>(args)...));
}

/** Debug-level trace message. */
template <typename... Args>
void
debug(Args &&...args)
{
    detail::emit(LogLevel::Debug, "debug",
                 detail::format(std::forward<Args>(args)...));
}

/** Terminate due to a user/configuration error. */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::die("fatal", detail::format(std::forward<Args>(args)...),
                false);
}

/** Terminate due to an internal library bug. */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::die("panic", detail::format(std::forward<Args>(args)...),
                true);
}

/** panic() unless the given condition holds. */
#define KELP_ASSERT(cond, ...)                                          \
    do {                                                                \
        if (!(cond)) {                                                  \
            ::kelp::sim::panic("assertion failed: " #cond " ",          \
                               ##__VA_ARGS__);                          \
        }                                                               \
    } while (0)

/**
 * Contract-violation handling mode.
 *
 * Fatal: a violated contract panics (abort), so debug builds and
 * death tests pinpoint the offending call stack immediately.
 *
 * Count: a violated contract increments a process-wide counter and
 * execution continues. Release builds default to this so a production
 * run degrades (and reports the count through kelpsim telemetry)
 * instead of crashing; the counter makes the violation visible to CI
 * and to operators either way.
 */
enum class ContractMode { Fatal, Count };

/** Current mode (default: Fatal unless NDEBUG, then Count). */
ContractMode contractMode();

/** Override the mode (tests exercise both paths in any build). */
void setContractMode(ContractMode mode);

/** Contract violations recorded since start/reset (Count mode). */
uint64_t contractViolations();

/** Reset the violation counter (test isolation). */
void resetContractViolations();

/**
 * Contract violations recorded by the *calling thread* since it
 * started (Count mode). The process-wide counter above is useless for
 * attributing violations to one run when pool workers execute several
 * runs concurrently; a worker that brackets a run with two reads of
 * this counter gets an exact per-run delta regardless of what the
 * other workers are doing. Never reset: callers difference it.
 */
uint64_t contractViolationsHere();

namespace detail {

void contractViolated(const char *kind, const char *cond,
                      const char *file, int line,
                      const std::string &msg);

} // namespace detail

/**
 * Contract macros: machine-checked statements of the invariants the
 * controllers otherwise assume informally. KELP_EXPECTS states a
 * precondition at function entry, KELP_ENSURES a postcondition before
 * return, KELP_INVARIANT a mid-flight structural invariant. All three
 * share the same handling (contractMode() above); the distinction is
 * documentation and shows up in the violation report.
 */
#define KELP_CONTRACT_CHECK_(kind, cond, ...)                           \
    do {                                                                \
        if (!(cond)) {                                                  \
            ::kelp::sim::detail::contractViolated(                      \
                kind, #cond, __FILE__, __LINE__,                        \
                ::kelp::sim::detail::format(__VA_ARGS__));              \
        }                                                               \
    } while (0)

#define KELP_EXPECTS(cond, ...)                                         \
    KELP_CONTRACT_CHECK_("precondition", cond, ##__VA_ARGS__)
#define KELP_ENSURES(cond, ...)                                         \
    KELP_CONTRACT_CHECK_("postcondition", cond, ##__VA_ARGS__)
#define KELP_INVARIANT(cond, ...)                                       \
    KELP_CONTRACT_CHECK_("invariant", cond, ##__VA_ARGS__)

} // namespace sim
} // namespace kelp

#endif // KELP_SIM_LOG_HH
