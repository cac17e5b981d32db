// Plumbing shared by the perf harnesses (bench_scale, bench_serve): flag
// parsing, the JSON report, pass/fail gates and the checked-in baselines
// under bench/baselines/.
//
// A harness parses its flags with parse_flags, fills the object from
// new_report and writes it with write_report, and records every pass/fail
// condition on one Gates, whose exit_code() is the process exit status.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include "hwmodel/placement.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/stopwatch.hpp"
#include "xmpi/runtime.hpp"

namespace plin::bench {

// ---- flags -----------------------------------------------------------------

/// Parses argv, accepting only the `known` flags and no positional
/// argument. A bad command line prints the error and exits 2, so a
/// mistyped --check cannot silently skip every gate.
inline CliArgs parse_flags(int argc, const char* const* argv,
                           std::initializer_list<std::string_view> known) {
  CliArgs args(argc, argv);
  try {
    args.require_known(known);
    if (!args.positional().empty()) {
      throw InvalidArgument("unexpected argument '" +
                            args.positional().front() + "'");
    }
    // CliArgs reads "--smoke x" as smoke=x, which get_bool takes as false:
    // a switch must carry a boolean word, or the argument after it was a
    // stray positional.
    for (const char* name : {"smoke", "check", "help"}) {
      const std::string value = args.get(name, "true");
      if (value != "true" && value != "false" && value != "1" &&
          value != "0" && value != "yes" && value != "no" && value != "on" &&
          value != "off") {
        throw InvalidArgument("unexpected argument '" + value + "'");
      }
    }
  } catch (const Error& error) {
    std::cerr << "error: " << error.what() << "\nflags:";
    for (const std::string_view flag : known) std::cerr << " --" << flag;
    std::cerr << "\n";
    std::exit(2);
  }
  return args;
}

// ---- gates -----------------------------------------------------------------

/// Joins `parts` the way an ostream prints them (doubles as %.6g, so NaN
/// and infinity print instead of throwing); for gate messages.
template <typename... Parts>
std::string describe(const Parts&... parts) {
  std::ostringstream text;
  (text << ... << parts);
  return text.str();
}

/// The pass/fail gates of one harness run.
class Gates {
 public:
  explicit Gates(std::ostream& log = std::cout) : log_(&log) {}

  /// Records one gate and prints `check: <name>=pass|FAIL`, followed by
  /// `detail` when it fails. Returns `ok`.
  bool record(const std::string& name, bool ok,
              const std::string& detail = "") {
    *log_ << "check: " << name << "=" << (ok ? "pass" : "FAIL");
    if (!ok && !detail.empty()) *log_ << " (" << detail << ")";
    *log_ << "\n";
    passed_ = passed_ && ok;
    return ok;
  }

  /// Process exit status: 0 when every gate passed, 1 otherwise.
  int exit_code() const { return passed_ ? 0 : 1; }

 private:
  std::ostream* log_;
  bool passed_ = true;
};

// ---- report ----------------------------------------------------------------

/// An empty report carrying the common header.
inline json::Value new_report(std::string schema, bool smoke) {
  json::Value report = json::make_object();
  report.set("schema", std::move(schema));
  report.set("mode", smoke ? "smoke" : "full");
  return report;
}

namespace detail {

/// Copy of `value` with every non-finite number (which JSON cannot hold)
/// replaced by null and reported as a failed `finite:<field>` gate.
inline json::Value finite_copy(const json::Value& value,
                               const std::string& field, Gates& gates) {
  switch (value.kind()) {
    case json::Kind::kNumber:
      if (std::isfinite(value.as_number())) return value;
      gates.record("finite:" + field, false, describe(value.as_number()));
      return nullptr;
    case json::Kind::kArray: {
      json::Array out;
      const json::Array& in = value.as_array();
      for (std::size_t i = 0; i < in.size(); ++i) {
        out.push_back(finite_copy(in[i], describe(field, "[", i, "]"), gates));
      }
      return out;
    }
    case json::Kind::kObject: {
      json::Object out;
      for (const auto& [key, member] : value.as_object()) {
        out.emplace_back(
            key, finite_copy(member, field.empty() ? key : field + "." + key,
                             gates));
      }
      return out;
    }
    default:
      return value;
  }
}

}  // namespace detail

/// Writes `report` to `path` with json::serialize. A non-finite number is
/// written as null and fails its `finite:<field>` gate; a file that cannot
/// be written fails the `report` gate.
inline bool write_report(const std::string& path, const json::Value& report,
                         Gates& gates) {
  const std::string text =
      json::serialize(detail::finite_copy(report, "", gates)) + "\n";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!gates.record("report", static_cast<bool>(out.flush()),
                    "cannot write " + path)) {
    return false;
  }
  std::cout << "wrote " << path << "\n";
  return true;
}

// ---- baseline --------------------------------------------------------------

/// How far a measured value may sit from its baseline.
struct Tolerance {
  double rel = 0.0;      ///< allowed |value - base| / |base|; 0 is exact
  bool ceiling = false;  ///< one-sided: only value > (1 + rel) * base fails
};

inline constexpr Tolerance kExact{};
/// Two-sided relative band: |value - base| <= rel * |base|.
inline constexpr Tolerance within(double rel) { return {rel, false}; }
/// One-sided ceiling: value <= (1 + rel) * base.
inline constexpr Tolerance at_most(double rel) { return {rel, true}; }

/// A checked-in report that a run is compared against.
class Baseline {
 public:
  /// Loads `path` with json::parse. An unreadable or malformed file fails
  /// the `baseline` gate, and every later lookup fails as well.
  Baseline(const std::string& path, Gates& gates) : gates_(gates) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    try {
      if (!in) throw Error("cannot read " + path);
      root_ = json::parse(text.str());
    } catch (const Error& error) {
      gates_.record("baseline", false, error.what());
    }
  }

  /// The number at `key`, where dots separate nested keys
  /// ("load.requests"). A missing or non-numeric field fails the gate
  /// `baseline:<key>`, whose message names the field, and gives nullopt.
  std::optional<double> number(const std::string& key) {
    const json::Value* value = root_ ? &*root_ : nullptr;
    for (std::size_t begin = 0; value != nullptr;) {
      const std::size_t dot = std::min(key.find('.', begin), key.size());
      value = value->find(std::string_view(key).substr(begin, dot - begin));
      if (dot == key.size()) break;
      begin = dot + 1;
    }
    if (value == nullptr || value->kind() != json::Kind::kNumber) {
      gates_.record("baseline:" + key, false,
                    "no numeric field '" + key + "' in the baseline");
      return std::nullopt;
    }
    return value->as_number();
  }

  /// Gates `measured` against the baseline field `key` within `tol`, as
  /// the gate `baseline:<key>`. A non-finite measured value fails.
  bool compare(const std::string& key, double measured, Tolerance tol) {
    const std::optional<double> base = number(key);
    if (!base) return false;
    const double allowed = tol.rel * std::fabs(*base);
    const bool ok =
        std::isfinite(measured) &&
        (tol.ceiling ? measured <= (1.0 + tol.rel) * *base
                     : std::fabs(measured - *base) <= allowed);
    return gates_.record("baseline:" + key, ok,
                         describe(measured, " vs baseline ", *base));
  }

 private:
  Gates& gates_;
  std::optional<json::Value> root_;
};

// ---- timing ----------------------------------------------------------------

/// Host seconds one call of `body` takes.
template <typename F>
double seconds_of(F&& body) {
  const Stopwatch wall;
  body();
  return wall.elapsed_s();
}

/// Fully loaded mini-cluster nodes (2 sockets x 8 cores), just enough of
/// them to hold `ranks` (1296 ranks is 81 nodes, the paper's largest
/// campaign scale).
inline xmpi::RunConfig full_load_config(int ranks) {
  constexpr int kCoresPerSocket = 8;
  const int nodes = (ranks + 2 * kCoresPerSocket - 1) / (2 * kCoresPerSocket);
  xmpi::RunConfig config;
  config.machine = hw::mini_cluster(std::max(nodes, 1), kCoresPerSocket);
  config.placement =
      hw::make_placement(ranks, hw::LoadLayout::kFullLoad, config.machine);
  return config;
}

}  // namespace plin::bench
