/**
 * @file
 * Error and status reporting in the gem5 idiom.
 *
 * mcd_panic aborts on invariant violations (simulator bugs, or bad
 * input past the edge that validated it). mcd_fatal exits nonzero at
 * the CLI edge and on deployment faults; parse and validate paths
 * return errors as values instead. warn/inform do not stop.
 */

#ifndef MCD_COMMON_LOGGING_HH
#define MCD_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <string>

namespace mcd
{

namespace logging_detail
{

[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/** Minimal printf-style formatter returning a std::string. */
std::string format(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace logging_detail

/** Errors as values: `return failWith(error, "...");` stores the
 *  message (when `error` is non-null) and returns false. */
inline bool
failWith(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
    return false;
}

/** Abort on an internal invariant violation (a simulator bug). */
#define mcd_panic(...)                                                       \
    ::mcd::logging_detail::panicImpl(                                        \
        __FILE__, __LINE__, ::mcd::logging_detail::format(__VA_ARGS__))

/** Exit on a CLI-edge user error or a deployment fault. */
#define mcd_fatal(...)                                                       \
    ::mcd::logging_detail::fatalImpl(                                        \
        __FILE__, __LINE__, ::mcd::logging_detail::format(__VA_ARGS__))

/** Report a suspicious-but-survivable condition. */
#define mcd_warn(...)                                                        \
    ::mcd::logging_detail::warnImpl(::mcd::logging_detail::format(__VA_ARGS__))

/** Report normal status. */
#define mcd_inform(...)                                                      \
    ::mcd::logging_detail::informImpl(                                       \
        ::mcd::logging_detail::format(__VA_ARGS__))

} // namespace mcd

#endif // MCD_COMMON_LOGGING_HH
