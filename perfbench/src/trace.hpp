/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * Spans are recorded by the benchmark around its calls into the
 * program (compile, engine set-up, encrypt, each layer, decrypt, submit,
 * explore, ...), never inside src/. Each span has a name, a start and
 * end on the steady clock, the id of the span that caused it and the
 * id of the request it belongs to. They stay in memory until the run
 * ends and are then written out as one JSON document.
 */
#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "report.hpp"

namespace perfbench {

/** One recorded span; times are nanoseconds since the tracer origin. */
struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int32_t parent = -1;  ///< index of the causing span, -1 = root
    std::uint64_t request = 0; ///< request (or design pass) id

    double seconds() const { return double(endNs - startNs) * 1e-9; }
};

/**
 * Thread-safe span store. While disabled every call is a no-op that
 * returns -1, so the untraced and traced phases share one code path.
 */
class Tracer
{
  public:
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Open a span now; close it with end(). @return its id. */
    std::int32_t begin(std::string name, std::int32_t parent = -1,
                       std::uint64_t request = 0);

    /** Close span @p id now (no-op for -1). */
    void end(std::int32_t id);

    /** Record a span whose interval is already known. */
    std::int32_t record(std::string name, Clock::time_point start,
                        Clock::time_point end, std::int32_t parent = -1,
                        std::uint64_t request = 0);

    /** Copy of every recorded span. */
    std::vector<Span> spans() const;

    /** Durations in seconds of every span named @p name. */
    std::vector<double> durations(std::string_view name) const;

    /**
     * Write {"identity": .., "spans": [..]} to @p path.
     * @return false when the file cannot be written.
     */
    bool write(const std::string &path,
               const std::string &identityJson) const;

  private:
    std::int64_t sinceOrigin(Clock::time_point t) const;

    const Clock::time_point origin_ = Clock::now();
    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;
    std::vector<Span> spans_; ///< guarded by mutex_
};

/** Opens a span on construction and closes it on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, std::string name, std::int32_t parent = -1,
               std::uint64_t request = 0)
        : tracer_(tracer),
          id_(tracer.begin(std::move(name), parent, request))
    {}
    ~ScopedSpan() { tracer_.end(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::int32_t id() const { return id_; }

  private:
    Tracer &tracer_;
    std::int32_t id_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HPP
