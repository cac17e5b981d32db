#include "tracer.hpp"

#include <chrono>
#include <fstream>

#include "support/error.hpp"
#include "support/json.hpp"

namespace perfbench {
namespace {

double steady_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The innermost open span of this thread (0 = none).
thread_local std::uint32_t t_open_span = 0;

}  // namespace

Tracer::Scope::Scope(Tracer* tracer, std::uint32_t id, std::uint32_t parent,
                     std::string name)
    : tracer_(tracer), id_(id), parent_(parent), name_(std::move(name)) {
  if (tracer_ != nullptr) {
    start_s_ = tracer_->now_s();
    t_open_span = id_;
  }
}

Tracer::Scope::~Scope() { close(); }

double Tracer::Scope::close() {
  if (!open_) return seconds_;
  open_ = false;
  if (tracer_ == nullptr) return 0.0;
  const double end_s = tracer_->now_s();
  seconds_ = end_s - start_s_;
  t_open_span = parent_;
  tracer_->record(Span{id_, parent_, std::move(name_), start_s_, end_s});
  return seconds_;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_s_(steady_now_s()) {}

double Tracer::now_s() const { return steady_now_s() - origin_s_; }

Tracer::Scope Tracer::span(std::string name) {
  if (!enabled_) return Scope(nullptr, 0, 0, {});
  std::uint32_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = next_id_++;
  }
  return Scope(this, id, t_open_span, std::move(name));
}

void Tracer::record(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.seconds());
  }
  return out;
}

double Tracer::total(std::string_view name) const {
  double sum = 0.0;
  for (double d : durations(name)) sum += d;
  return sum;
}

void Tracer::write(const std::string& path) const {
  namespace json = plin::json;
  json::Array events;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    events.reserve(spans_.size());
    for (const Span& s : spans_) {
      json::Value args = json::make_object();
      args.set("id", static_cast<double>(s.id));
      args.set("parent", static_cast<double>(s.parent));
      json::Value event = json::make_object();
      event.set("name", s.name);
      event.set("ph", "X");
      event.set("ts", s.start_s * 1e6);
      event.set("dur", s.seconds() * 1e6);
      event.set("pid", 1);
      event.set("tid", 1);
      event.set("args", std::move(args));
      events.push_back(std::move(event));
    }
  }
  json::Value root = json::make_object();
  root.set("traceEvents", json::Value(std::move(events)));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << json::serialize(root) << "\n";
  if (!out) throw plin::IoError("cannot write trace " + path);
}

}  // namespace perfbench
