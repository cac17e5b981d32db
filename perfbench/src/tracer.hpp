// The benchmark's own spans (host clock), recorded around its calls into
// each powerlin layer. Spans are kept in memory — name, start, end, the
// span that was open on the same thread when it began — and written out
// as a Chrome trace_event file when the run ends. A disabled tracer
// records nothing, which is what untraced runs measure with.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  // 0 = no enclosing span
    std::string name;
    double start_s = 0.0;  // seconds since the tracer was created
    double end_s = 0.0;
    double seconds() const { return end_s - start_s; }
  };

  /// Closes its span on destruction.
  class Scope {
   public:
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

    /// Closes the span now and returns its duration (0 when disabled).
    double close();

   private:
    friend class Tracer;
    Scope(Tracer* tracer, std::uint32_t id, std::uint32_t parent,
          std::string name);

    Tracer* tracer_;
    std::uint32_t id_;
    std::uint32_t parent_;
    std::string name_;
    double start_s_ = 0.0;
    double seconds_ = 0.0;
    bool open_ = true;
  };

  explicit Tracer(bool enabled);

  /// Opens a span (a no-op scope when disabled).
  Scope span(std::string name);

  /// Durations of every closed span called `name`, in closing order.
  std::vector<double> durations(std::string_view name) const;

  /// Sum of durations(name).
  double total(std::string_view name) const;

  /// Writes every span as Chrome trace_event JSON.
  void write(const std::string& path) const;

 private:
  double now_s() const;
  void record(Span span);

  bool enabled_;
  double origin_s_;
  mutable std::mutex mutex_;
  std::uint32_t next_id_ = 1;  // guarded by mutex_
  std::vector<Span> spans_;    // guarded by mutex_
};

}  // namespace perfbench
