#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iomanip>

namespace e2e {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

SpanLog::SpanLog(size_t keep)
    : epoch_(std::chrono::steady_clock::now()), keep_(keep)
{
}

double
SpanLog::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

uint64_t
SpanLog::newRoot()
{
    std::lock_guard<std::mutex> lock(mu_);
    return nextRoot_++;
}

uint32_t
SpanLog::tidLocked()
{
    const auto id = std::this_thread::get_id();
    const auto it = tids_.find(id);
    if (it != tids_.end())
        return it->second;
    const uint32_t tid = static_cast<uint32_t>(tids_.size()) + 1;
    tids_.emplace(id, tid);
    return tid;
}

void
SpanLog::open(const char *name, uint64_t root, const std::string &label)
{
    const double start = nowUs();
    std::lock_guard<std::mutex> lock(mu_);
    stacks_[tidLocked()].push_back(Open{name, root, label, start, 0.0});
}

void
SpanLog::close(const SpanArgs &args, const SpanArgs &carve)
{
    const double end = nowUs();
    std::lock_guard<std::mutex> lock(mu_);
    const uint32_t tid = tidLocked();
    std::vector<Open> &stack = stacks_[tid];
    if (stack.empty())
        return;
    Open top = std::move(stack.back());
    stack.pop_back();
    const double dur = end - top.startUs;
    if (!stack.empty())
        stack.back().childUs += dur;
    finishLocked(Event{top.name, top.root, top.label, top.startUs, dur, tid,
                       args},
                 std::max(0.0, dur - top.childUs), carve);
}

void
SpanLog::complete(const char *name, uint64_t root, const std::string &label,
                  double startUs, double durUs, const SpanArgs &args)
{
    std::lock_guard<std::mutex> lock(mu_);
    finishLocked(Event{name, root, label, startUs, durUs, tidLocked(), args},
                 durUs, {});
}

void
SpanLog::finishLocked(Event ev, double selfUs, const SpanArgs &carve)
{
    double carved = 0.0;
    for (const auto &c : carve)
        carved += std::max(0.0, c.second);
    const double scale = carved > selfUs && carved > 0.0 ? selfUs / carved
                                                         : 1.0;
    for (const auto &c : carve) {
        const double us = std::max(0.0, c.second) * scale;
        Row &row = table_[c.first];
        row.selfUs += us;
        ++row.count;
        byLabel_[{c.first, ev.label}] += us;
        selfUs -= us;
    }
    Row &row = table_[ev.name];
    row.selfUs += selfUs;
    ++row.count;
    byLabel_[{ev.name, ev.label}] += selfUs;
    if (keptByName_[ev.name]++ < keep_)
        kept_.push_back(std::move(ev));
    else
        ++dropped_;
}

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    if (!out)
        return false;
    out << std::fixed << std::setprecision(3);
    out << "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"dropped_spans\": "
        << dropped_ << "}, \"traceEvents\": [\n";
    for (size_t i = 0; i < kept_.size(); ++i) {
        const Event &ev = kept_[i];
        out << "{\"name\": \"" << ev.name
            << "\", \"cat\": \"e2e\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
            << ev.tid << ", \"ts\": " << ev.startUs << ", \"dur\": "
            << ev.durUs << ", \"args\": {\"query_id\": " << ev.root;
        if (!ev.label.empty())
            out << ", \"label\": \"" << jsonEscape(ev.label) << "\"";
        for (const auto &a : ev.args)
            out << ", \"" << jsonEscape(a.first) << "\": " << a.second;
        out << "}}" << (i + 1 < kept_.size() ? "," : "") << "\n";
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

void
SpanLog::printTable(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<std::string, Row>> rows(table_.begin(),
                                                   table_.end());
    std::sort(rows.begin(), rows.end(), [](const auto &a, const auto &b) {
        return a.second.selfUs > b.second.selfUs;
    });
    double total = 0.0;
    for (const auto &r : rows)
        total += r.second.selfUs;

    const auto flags = os.flags();
    os << std::fixed;
    os << "per-layer self time (traced pass)\n";
    os << "  " << std::left << std::setw(30) << "layer" << std::right
       << std::setw(10) << "count" << std::setw(14) << "self ms"
       << std::setw(9) << "share" << "\n";
    for (const auto &r : rows) {
        os << "  " << std::left << std::setw(30) << r.first << std::right
           << std::setw(10) << r.second.count << std::setw(14)
           << std::setprecision(3) << r.second.selfUs / 1e3 << std::setw(8)
           << std::setprecision(1)
           << (total > 0.0 ? 100.0 * r.second.selfUs / total : 0.0)
           << "%\n";
    }

    std::vector<std::pair<std::pair<std::string, std::string>, double>> top(
        byLabel_.begin(), byLabel_.end());
    std::sort(top.begin(), top.end(),
              [](const auto &a, const auto &b) { return a.second > b.second; });
    os << "largest self time by (layer, query)\n";
    for (size_t i = 0; i < top.size() && i < 5; ++i) {
        os << "  " << std::left << std::setw(30) << top[i].first.first
           << std::setw(30)
           << (top[i].first.second.empty() ? "-" : top[i].first.second)
           << std::right << std::setw(14) << std::setprecision(3)
           << top[i].second / 1e3 << " ms\n";
    }
    if (dropped_ > 0)
        os << "  (" << dropped_
           << " spans counted in the table but not kept in the trace file)\n";
    os.flags(flags);
}

} // namespace e2e
