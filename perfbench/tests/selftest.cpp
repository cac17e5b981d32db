// Self-tests of the benchmark's own machinery: the declared metric names,
// the percentile helper's samples-beyond rule, the result-line guard, and
// the oracle's verdicts on doctored results.
//
//   plbench_selftest <path to BENCHMARK.json>
//
// (registered with ctest as perfbench.selftest). That every workload
// prints every metric it declares is checked by tests/test_emit.py, which
// runs the real binary.
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "oracle.hpp"
#include "support/json.hpp"

namespace {

using namespace perfbench;
namespace json = plin::json;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

template <typename F>
bool throws(F&& f) {
  try {
    f();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

bool valid_unit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (char c : unit) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '/' ||
                    c == '%' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

void test_declared_names(const json::Value& benchmark) {
  std::set<std::string> seen;
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDecl& d : *list) {
      expect(valid_metric_name(d.name), std::string("bad name ") + d.name);
      expect(std::string(d.name).size() <= 64, std::string("long ") + d.name);
      expect(valid_unit(d.unit), std::string("bad unit ") + d.unit);
      expect(seen.insert(d.name).second, std::string("dup ") + d.name);
    }
  }
  expect(!valid_metric_name("latency p50"), "space accepted in a name");
  expect(!valid_metric_name(""), "empty name accepted");

  // BENCHMARK.json declares exactly the compiled-in metrics, in order.
  auto same = [&](const char* section, const std::vector<MetricDecl>& decl) {
    const json::Array& listed = benchmark.at(section).as_array();
    expect(listed.size() == decl.size(),
           std::string(section) + ": count differs from the binary");
    for (std::size_t i = 0; i < std::min(listed.size(), decl.size()); ++i) {
      expect(listed[i].at("name").as_string() == decl[i].name &&
                 listed[i].at("unit").as_string() == decl[i].unit,
             std::string(section) + ": entry " + std::to_string(i) +
                 " differs from " + decl[i].name);
    }
  };
  same("end_to_end", end_to_end_metrics());
  same("per_layer", per_layer_metrics());
}

void test_percentile_rule() {
  std::vector<double> samples;
  for (int i = 1; i <= 999; ++i) samples.push_back(i);
  expect(!supported_percentile(samples, 0.99).has_value(),
         "p99 of 999 samples has only 9 beyond it but was reported");
  samples.push_back(1000);
  const auto p99 = supported_percentile(samples, 0.99);
  expect(p99.has_value() && *p99 == 990.0, "p99 of 1..1000 is not 990");
  expect(!supported_percentile({5, 1, 4, 2, 3}, 0.99).has_value(),
         "p99 of five samples was reported");
  expect(median({5, 1, 4, 2, 3}) == 3.0, "odd-count median");
  expect(median({4, 1, 3, 2}) == 2.5, "even-count median");
  expect(supported_percentile({1, 2, 3}, 0.5, 1).value_or(-1) == 2.0,
         "p50 of three with one beyond");
  expect(!supported_percentile({1, 2, 3}, 0.5, 2).has_value(),
         "p50 of three cannot have two beyond");
}

void test_metric_set() {
  MetricSet set(end_to_end_metrics());
  expect(throws([&] { set.set("no_such_metric", 1.0); }),
         "undeclared metric accepted");
  set.set("setup_s", 1.0);
  expect(throws([&] { set.set("setup_s", 2.0); }), "repeated metric accepted");
  expect(throws([&] { (void)set.to_json(); }),
         "incomplete metric set serialized");
  for (const MetricDecl& d : end_to_end_metrics()) {
    if (std::string(d.name) != "setup_s") set.set(d.name, 2.0);
  }
  expect(set.missing().empty(), "complete set reports missing metrics");
  const json::Value line = json::parse(result_line(true, 3, 0, set));
  expect(line.as_object().size() == 4 && line.at("attempted").as_number() == 3,
         "result line keys");
  MetricSet bad(end_to_end_metrics());
  for (const MetricDecl& d : end_to_end_metrics()) {
    bad.set(d.name, std::numeric_limits<double>::quiet_NaN());
  }
  expect(throws([&] { (void)bad.to_json(); }), "NaN metric serialized");
}

JobObservation good_dense() {
  JobObservation obs;
  obs.label = "scalapack n=3072";
  obs.residual = 3e-17;
  obs.model_s = 0.5;
  obs.model_j = 120.0;
  obs.rapl_counters = 8;
  return obs;
}

void test_job_oracle() {
  expect(check_job(good_dense()).empty(), "a good dense job was rejected");

  JobObservation tiny = good_dense();
  tiny.residual = 1e-18;  // prints as 0.00e-15; still a pass
  tiny.model_j = 0.0;     // sub-millisecond jobs legitimately read 0 J
  expect(check_job(tiny).empty(), "tiny residual / zero joules rejected");

  JobObservation over = good_dense();
  over.residual = 2e-10;
  expect(!check_job(over).empty(), "fp64 residual over 1e-10 accepted");
  over.residual = std::numeric_limits<double>::quiet_NaN();
  expect(!check_job(over).empty(), "NaN residual accepted");

  JobObservation mixed = good_dense();
  mixed.mixed = true;
  mixed.residual = 5e-10;
  mixed.refine_iters = 3;
  expect(check_job(mixed).empty(), "mixed residual under 1e-9 rejected");
  mixed.fell_back = true;
  expect(!check_job(mixed).empty(), "mixed fallback accepted");

  JobObservation cg = good_dense();
  cg.is_cg = true;
  cg.cg_iters = 0;
  cg.nnz = 5000;
  expect(!check_job(cg).empty(), "cg without iterations accepted");
  cg.cg_iters = 400;
  expect(check_job(cg).empty(), "a good cg job was rejected");

  JobObservation threw = good_dense();
  threw.error = "campaign: cg did not converge";
  expect(!check_job(threw).empty(), "a thrown job accepted");

  JobObservation again = good_dense();
  expect(check_repeat(good_dense(), again).empty(), "identical repeat");
  again.model_s = std::nextafter(again.model_s, 1.0);  // one ulp
  expect(!check_repeat(good_dense(), again).empty(),
         "a one-ulp duration change kept the digest");
  again = good_dense();
  again.cg_iters = 1;
  expect(good_dense().digest() != again.digest(), "iterations not digested");
  again = good_dense();
  again.nnz = 1;
  expect(!check_repeat(good_dense(), again).empty(), "nnz not digested");

  // RAPL-path joules: 240 W mean power -> 0.24 J update window + 16 units.
  const double resolution = good_dense().rapl_resolution_j();
  expect(std::abs(resolution - (0.24 + 16.0 / 16384.0)) < 1e-12,
         "RAPL resolution formula");
  again = good_dense();
  again.model_j += 2.0 / 16384.0;  // two energy units: within resolution
  expect(check_repeat(good_dense(), again).empty(),
         "a repeat within the RAPL resolution was rejected");
  again.model_j = good_dense().model_j + 1.0;  // far beyond it
  expect(!check_repeat(good_dense(), again).empty(),
         "a joule change beyond the RAPL resolution was accepted");
}

void test_serve_oracle() {
  auto reply = [](const std::string& key, const std::string& status,
                  const std::string& via, std::uint64_t hash) {
    ReplyObservation r;
    r.key = key;
    r.ok = true;
    r.status = status;
    r.via = via;
    r.record_hash = hash;
    return r;
  };
  std::vector<ReplyObservation> replies = {
      reply("a", "done", "queued", 11), reply("a", "cached", "", 11),
      reply("b", "queued", "", 0), reply("b", "done", "coalesced", 22)};
  replies[2].waited = false;
  plin::serve::EngineStats stats;
  stats.executed = 2;
  std::size_t bad = 0;
  expect(check_serve(replies, stats, 2, &bad).empty() && bad == 0,
         "a good serve session was rejected");

  std::vector<ReplyObservation> doctored = replies;
  doctored[1].record_hash = 12;  // cached record differs from the execution
  expect(!check_serve(doctored, stats, 2, &bad).empty() && bad == 1,
         "a cached reply with a different record was accepted");

  doctored = replies;
  doctored[3].ok = false;
  expect(!check_serve(doctored, stats, 2, &bad).empty() && bad == 1,
         "a failed reply was accepted");

  expect(!check_serve(replies, stats, 3, &bad).empty(),
         "executed != unique keys accepted");
  plin::serve::EngineStats rejected = stats;
  rejected.rejected = 1;
  expect(!check_serve(replies, rejected, 2, &bad).empty(),
         "a rejected submit accepted");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: plbench_selftest <BENCHMARK.json>\n";
    return 2;
  }
  std::ifstream in(argv[1], std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  if (!in) {
    std::cerr << "cannot read " << argv[1] << "\n";
    return 2;
  }
  test_declared_names(json::parse(text.str()));
  test_percentile_rule();
  test_metric_set();
  test_job_oracle();
  test_serve_oracle();
  if (failures != 0) {
    std::cerr << failures << " self-test failure(s)\n";
    return 1;
  }
  std::cout << "perfbench self-tests passed\n";
  return 0;
}
