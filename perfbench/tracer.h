// Span recorder for the benchmark driver.
//
// Spans are taken in the driver's own code, around its calls into the
// specnoc layers: name, layer, start, end and the span that caused it. They
// are kept in memory and written once, as Chrome/Perfetto trace-event JSON,
// when the run ends. The driver records spans in every run because they are
// also its stopwatch (setup and simulate time are sums of spans); a traced
// run differs only in the observers it attaches to the simulation.
#pragma once

#include <chrono>
#include <cstddef>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/error.h"
#include "util/json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;   ///< e.g. "core.build"
  std::string layer;  ///< the specnoc layer the span times, or "bench"
  double start_s = 0.0;  ///< seconds since the tracer's origin
  double end_s = 0.0;
  int parent = -1;  ///< index of the enclosing span, -1 for a root

  double duration() const { return end_s - start_s; }
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  /// Opens a span nested in the innermost open one; returns its index.
  int open(std::string name, std::string layer) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), std::move(layer), now(), 0.0, parent});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }

  void close(int id) {
    if (stack_.empty() || stack_.back() != id) {
      throw specnoc::ConfigError("perfbench: span closed out of order");
    }
    stack_.pop_back();
    spans_[static_cast<std::size_t>(id)].end_s = now();
  }

  /// Records a span whose bounds were measured elsewhere (a batch cell
  /// timed by the runner's own telemetry).
  int add(std::string name, std::string layer, double start_s, double end_s,
          int parent) {
    spans_.push_back(
        {std::move(name), std::move(layer), start_s, end_s, parent});
    return static_cast<int>(spans_.size() - 1);
  }

  Span& span(int id) { return spans_[static_cast<std::size_t>(id)]; }
  const std::vector<Span>& spans() const { return spans_; }

  /// RAII guard for one span.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::string layer)
        : tracer_(tracer),
          id_(tracer.open(std::move(name), std::move(layer))) {}
    ~Scope() { tracer_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    Tracer& tracer_;
    int id_;
  };

  /// Summed duration of spans named `name` among spans [first, size()).
  double total(const std::string& name, std::size_t first = 0) const {
    double sum = 0.0;
    for (std::size_t i = first; i < spans_.size(); ++i) {
      if (spans_[i].name == name) sum += spans_[i].duration();
    }
    return sum;
  }

  /// Self time of each span in [first, size()): its duration minus the
  /// part its direct children cover. Children never overlap each other (the
  /// driver is single-threaded), so that part is the sum of their
  /// durations. Indexed by span id; spans before `first` read 0.
  std::vector<double> self_times(std::size_t first) const {
    std::vector<double> self(spans_.size(), 0.0);
    for (std::size_t i = first; i < spans_.size(); ++i) {
      self[i] += spans_[i].duration();
      if (spans_[i].parent >= 0) {
        self[static_cast<std::size_t>(spans_[i].parent)] -=
            spans_[i].duration();
      }
    }
    return self;
  }

  /// Summed self time per layer over spans [first, size()).
  std::map<std::string, double> self_time_by_layer(std::size_t first) const {
    const std::vector<double> self = self_times(first);
    std::map<std::string, double> by_layer;
    for (std::size_t i = first; i < spans_.size(); ++i) {
      by_layer[spans_[i].layer] += self[i];
    }
    return by_layer;
  }

  /// Summed self time of spans named `name` among spans [first, size()).
  double self_total(const std::string& name, std::size_t first) const {
    const std::vector<double> self = self_times(first);
    double sum = 0.0;
    for (std::size_t i = first; i < spans_.size(); ++i) {
      if (spans_[i].name == name) sum += self[i];
    }
    return sum;
  }

  /// Writes every span as a Chrome trace-event ("X") record; the parent
  /// link rides in args so a viewer can rebuild the causal tree.
  void write_chrome_json(const std::string& path) const {
    using specnoc::util::Json;
    Json events = Json::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Json event = Json::object();
      event.set("name", s.name);
      event.set("cat", s.layer);
      event.set("ph", "X");
      event.set("ts", s.start_s * 1e6);
      event.set("dur", s.duration() * 1e6);
      event.set("pid", 1);
      event.set("tid", 1);
      Json args = Json::object();
      args.set("id", static_cast<std::uint64_t>(i));
      args.set("parent", static_cast<std::int64_t>(s.parent));
      event.set("args", std::move(args));
      events.push_back(std::move(event));
    }
    Json doc = Json::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ms");
    std::ofstream out(path, std::ios::trunc);
    out << specnoc::util::json_write(doc) << "\n";
    if (!out) {
      throw specnoc::ConfigError("perfbench: cannot write trace '" + path +
                                 "'");
    }
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace perfbench
