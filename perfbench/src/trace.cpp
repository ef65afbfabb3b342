#include "trace.hpp"

#include <filesystem>
#include <fstream>

namespace perfbench {

std::int64_t
Tracer::sinceOrigin(Clock::time_point t) const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
}

std::int32_t
Tracer::begin(std::string name, std::int32_t parent, std::uint64_t request)
{
    if (!enabled_)
        return -1;
    const auto now = sinceOrigin(Clock::now());
    std::scoped_lock lock(mutex_);
    spans_.push_back({std::move(name), now, now, parent, request});
    return static_cast<std::int32_t>(spans_.size() - 1);
}

void
Tracer::end(std::int32_t id)
{
    if (id < 0)
        return;
    const auto now = sinceOrigin(Clock::now());
    std::scoped_lock lock(mutex_);
    spans_[static_cast<std::size_t>(id)].endNs = now;
}

std::int32_t
Tracer::record(std::string name, Clock::time_point start,
               Clock::time_point end, std::int32_t parent,
               std::uint64_t request)
{
    if (!enabled_)
        return -1;
    std::scoped_lock lock(mutex_);
    spans_.push_back({std::move(name), sinceOrigin(start),
                      sinceOrigin(end), parent, request});
    return static_cast<std::int32_t>(spans_.size() - 1);
}

std::vector<Span>
Tracer::spans() const
{
    std::scoped_lock lock(mutex_);
    return spans_;
}

std::vector<double>
Tracer::durations(std::string_view name) const
{
    std::vector<double> out;
    std::scoped_lock lock(mutex_);
    for (const auto &span : spans_)
        if (span.name == name)
            out.push_back(span.seconds());
    return out;
}

bool
Tracer::write(const std::string &path, const std::string &identityJson) const
{
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path(), ec);
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"identity\": " << identityJson << ",\n\"spans\": [\n";
    std::scoped_lock lock(mutex_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const auto &s = spans_[i];
        out << (i ? ",\n" : "") << "{\"id\": " << i << ", \"name\": \""
            << s.name << "\", \"start_ns\": " << s.startNs
            << ", \"end_ns\": " << s.endNs << ", \"parent\": " << s.parent
            << ", \"request\": " << s.request << "}";
    }
    out << "\n]}\n";
    return bool(out);
}

} // namespace perfbench
