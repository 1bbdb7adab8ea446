#include "bench.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

namespace {

std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

std::string number(double value) {
  if (!std::isfinite(value)) return "null";  // JSON has no inf/nan
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

Line::Line(std::string_view type) : text_("{\"type\": " + quoted(type)) {}

Line::~Line() {
  text_ += "}\n";
  std::fputs(text_.c_str(), stdout);
}

void Line::key(std::string_view k) {
  text_ += ", ";
  text_ += quoted(k);
  text_ += ": ";
}

Line& Line::str(std::string_view k, std::string_view value) {
  key(k);
  text_ += quoted(value);
  return *this;
}

Line& Line::num(std::string_view k, double value) {
  key(k);
  text_ += number(value);
  return *this;
}

Line& Line::count(std::string_view k, std::uint64_t value) {
  key(k);
  text_ += std::to_string(value);
  return *this;
}

Line& Line::flag(std::string_view k, bool value) {
  key(k);
  text_ += value ? "true" : "false";
  return *this;
}

std::uint64_t fnv1a_doubles(const std::vector<double>& values, std::uint64_t h) {
  for (const double v : values) {
    char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    h = lens::io::fnv1a(std::string_view(bytes, sizeof bytes), h);
  }
  return h;
}

std::string hex64(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

void check(std::string_view name, bool ok, std::string_view detail) {
  Line("check").str("name", name).flag("ok", ok).str("detail", detail);
}

void digest(std::string_view name, std::uint64_t value, std::uint64_t expected_at_default,
            std::uint64_t seed) {
  Line("digest").str("name", name).str("value", hex64(value)).count("seed", seed);
  if (seed == kDefaultSeed) {
    check(std::string("digest.") + std::string(name), value == expected_at_default,
          "got " + hex64(value) + ", recorded " + hex64(expected_at_default));
  }
}

void counter(std::string_view name, double value) {
  Line("counter").str("name", name).num("value", value);
}

void rep_line(const char* phase, bool warmup, double seconds, double units) {
  Line("rep").str("phase", phase).flag("warmup", warmup).num("seconds", seconds).num("units",
                                                                                     units);
}

lens::perf::RooflinePredictor train_predictor(const lens::perf::DeviceProfile& profile) {
  return lens::perf::RooflinePredictor::train(lens::perf::DeviceSimulator(profile),
                                              {.samples_per_kind = 400, .seed = 11});
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

int Tracer::intern(const char* name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  names_.emplace_back(name);
  return static_cast<int>(names_.size() - 1);
}

int Tracer::begin(const char* name) {
  Span span;
  span.name = intern(name);
  span.parent = stack_.empty() ? -1 : stack_.back();
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(span);
  stack_.push_back(id);
  spans_[static_cast<std::size_t>(id)].start = Clock::now();
  return id;
}

void Tracer::end(int id) {
  spans_[static_cast<std::size_t>(id)].end = Clock::now();
  stack_.pop_back();
}

void Tracer::emit() const {
  // Compact text lines (a traced search records ~80k spans):
  //   span <id> <parent> <name> <start_s> <end_s>
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::printf("span %zu %d %s %.9f %.9f\n", i, s.parent,
                names_[static_cast<std::size_t>(s.name)].c_str(),
                seconds_between(origin_, s.start), seconds_between(origin_, s.end));
  }
}

}  // namespace perfbench
