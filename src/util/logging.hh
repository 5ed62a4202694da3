/**
 * @file
 * Error-reporting helpers in the spirit of gem5's logging.hh.
 *
 * fatal() terminates on user error (bad configuration, bad input
 * file); panic() terminates on an internal invariant violation.
 * warn() and inform() print to stderr and continue. A configuration
 * error a caller can recover from is thrown as a ConfigError instead.
 */

#ifndef BPSIM_UTIL_LOGGING_HH
#define BPSIM_UTIL_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace bpsim
{

/** Severity of a log message. */
enum class LogLevel
{
    Inform,
    Warn,
    Fatal,
    Panic,
};

namespace detail
{

/**
 * Emits one log record; Fatal exits with status 1, Panic aborts.
 *
 * @param level severity class of the record
 * @param where "file:line" of the call site
 * @param message fully formatted message text
 */
[[noreturn]] void terminate(LogLevel level, const char *where,
                            const std::string &message);

void emit(LogLevel level, const char *where, const std::string &message);

/** Builds "file:line" strings for the logging macros. */
std::string location(const char *file, int line);

} // namespace detail

/**
 * An out-of-range or malformed configuration. Predictor constructors
 * and the predictor registry throw it; tryMakePredictor() turns it
 * into a per-job error and makePredictor() into fatal().
 */
struct ConfigError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Global verbosity switch: when false, inform() output is dropped. */
void setVerbose(bool verbose);
bool verbose();

} // namespace bpsim

/** Report a user-caused unrecoverable condition and exit(1). */
#define BPSIM_FATAL(msg)                                                  \
    do {                                                                  \
        std::ostringstream bpsim_oss_;                                    \
        bpsim_oss_ << msg;                                                \
        ::bpsim::detail::terminate(                                       \
            ::bpsim::LogLevel::Fatal,                                     \
            ::bpsim::detail::location(__FILE__, __LINE__).c_str(),        \
            bpsim_oss_.str());                                            \
    } while (0)

/** Throw a ConfigError with a streamed message. */
#define BPSIM_CONFIG_ERROR(msg)                                           \
    do {                                                                  \
        std::ostringstream bpsim_oss_;                                    \
        bpsim_oss_ << msg;                                                \
        throw ::bpsim::ConfigError(bpsim_oss_.str());                     \
    } while (0)

/** Report an internal invariant violation and abort(). */
#define BPSIM_PANIC(msg)                                                  \
    do {                                                                  \
        std::ostringstream bpsim_oss_;                                    \
        bpsim_oss_ << msg;                                                \
        ::bpsim::detail::terminate(                                       \
            ::bpsim::LogLevel::Panic,                                     \
            ::bpsim::detail::location(__FILE__, __LINE__).c_str(),        \
            bpsim_oss_.str());                                            \
    } while (0)

/** Warn about a suspicious but survivable condition. */
#define BPSIM_WARN(msg)                                                   \
    do {                                                                  \
        std::ostringstream bpsim_oss_;                                    \
        bpsim_oss_ << msg;                                                \
        ::bpsim::detail::emit(                                            \
            ::bpsim::LogLevel::Warn,                                      \
            ::bpsim::detail::location(__FILE__, __LINE__).c_str(),        \
            bpsim_oss_.str());                                            \
    } while (0)

/** Status message, suppressed unless verbose mode is on. */
#define BPSIM_INFORM(msg)                                                 \
    do {                                                                  \
        if (::bpsim::verbose()) {                                         \
            std::ostringstream bpsim_oss_;                                \
            bpsim_oss_ << msg;                                            \
            ::bpsim::detail::emit(                                        \
                ::bpsim::LogLevel::Inform,                                \
                ::bpsim::detail::location(__FILE__, __LINE__).c_str(),    \
                bpsim_oss_.str());                                        \
        }                                                                 \
    } while (0)

#endif // BPSIM_UTIL_LOGGING_HH
