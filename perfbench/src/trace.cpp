#include "trace.hpp"

#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int Tracer::open(std::string name, Clock::time_point start) {
  if (!enabled_) return -1;
  Record record;
  record.name = std::move(name);
  record.start_s = seconds_between(origin_, start);
  record.parent = open_.empty() ? -1 : open_.back();
  records_.push_back(std::move(record));
  open_.push_back(int(records_.size()) - 1);
  return open_.back();
}

void Tracer::close(int id, Clock::time_point end) {
  if (id < 0) return;
  records_[std::size_t(id)].end_s = seconds_between(origin_, end);
  open_.pop_back();  // Span is RAII, so spans close in stack order
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<double> self(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i)
    self[i] = records_[i].end_s - records_[i].start_s;
  for (const auto& r : records_)
    if (r.parent >= 0) self[std::size_t(r.parent)] -= r.end_s - r.start_s;
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < records_.size(); ++i)
    by_name[records_[i].name] += self[i];
  return by_name;
}

bool Tracer::write_chrome_trace(const std::string& path,
                                const std::string& process_name) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
         "\"args\":{\"name\":\""
      << json_escape(process_name) << " (host clock)\"}}";
  char buf[128];
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const auto& r = records_[i];
    std::snprintf(buf, sizeof(buf), "%.3f,\"dur\":%.3f", r.start_s * 1e6,
                  (r.end_s - r.start_s) * 1e6);
    out << ",\n{\"name\":\"" << json_escape(r.name)
        << "\",\"cat\":\"host\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << buf
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << r.parent << "}}";
  }
  out << "\n]}\n";
  return bool(out);
}

}  // namespace perfbench
