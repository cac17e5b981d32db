// ResultStore — persistent, resumable, content-addressed storage for
// campaign results.
//
// Layout under the store directory:
//   journal.jsonl    append-only journal, one JobRecord JSON per line; the
//                    single source of truth on open()
//   records/<key>.json   per-job mirror of the same JSON (for humans and
//                    external tooling; never read back)
//
// Crash safety: put() appends "record\n" and flushes before returning, so
// a killed campaign loses at most the line being written. open() replays
// the journal; a torn final line (no newline, or truncated JSON) is
// detected and dropped, anything torn *before* the final line is corruption
// and throws. Records whose stored key no longer matches their spec (a
// format-version bump) are skipped — they simply become cache misses.
//
// Thread safety: put() and lookups are mutex-guarded; the serve engine's
// workers write concurrently.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "batch/record.hpp"

namespace plin::batch {

/// Cache-effectiveness counters. The store *is* a cache (identical specs
/// dedupe against it); these counters are what makes that effectiveness
/// observable — the campaign summary, `powerlin_report --store` and the
/// serve daemon's /stats endpoint all render this struct.
///
/// hits/misses count probe() calls only (the cache-decision points: the
/// serve scheduler's submit and the campaign's past-budget probe).
/// contains()/lookup() stay count-free so
/// report generation does not pollute the counters.
struct StoreStats {
  std::uint64_t hits = 0;      // probe() found a completed record
  std::uint64_t misses = 0;    // probe() found nothing
  std::uint64_t inserts = 0;   // put() journaled a record this process
  std::uint64_t replayed = 0;  // records recovered from the journal on open
  /// Journal lines whose key overwrote an earlier line on replay. Always 0
  /// under the dedupe contract (a completed job is journaled exactly once);
  /// the serve kill-and-restart CI proof asserts exactly that.
  std::uint64_t duplicate_keys = 0;
  std::uint64_t skipped_stale = 0;
  bool torn_tail = false;

  double hit_ratio() const {
    const std::uint64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / total : 0.0;
  }
};

class ResultStore {
 public:
  /// Opens (creating if needed) the store at `dir` and replays the journal.
  explicit ResultStore(std::string dir);

  const std::string& dir() const { return dir_; }

  bool contains(const std::string& key) const;

  /// Copy of the record under `key`; throws if absent (check contains()).
  JobRecord lookup(const std::string& key) const;

  /// Cache-decision lookup: like contains()+lookup() in one call, but
  /// counted into stats().hits / stats().misses. The serve scheduler and
  /// the campaign probe; the report layer uses the count-free accessors.
  std::optional<JobRecord> probe(const std::string& key);

  /// Journals and indexes one completed job. Re-putting a key overwrites
  /// (last write wins on replay, matching the in-memory index).
  void put(const JobRecord& record);

  std::size_t size() const;

  /// True when open() dropped a torn trailing journal line (i.e. this
  /// store survived a mid-write crash).
  bool recovered_torn_tail() const { return torn_tail_; }

  /// Number of records open() skipped because their key no longer matches
  /// their spec (stale format version).
  std::size_t skipped_stale() const { return skipped_stale_; }

  /// Snapshot of the cache counters (thread-safe).
  StoreStats stats() const;

  /// Copies of every record, key-ordered (the std::map iteration order) —
  /// the record inventory `powerlin_report --store` renders.
  std::vector<JobRecord> all_records() const;

 private:
  void replay_journal();

  std::string dir_;
  std::ofstream journal_;
  std::map<std::string, JobRecord> records_;
  bool torn_tail_ = false;
  std::size_t skipped_stale_ = 0;
  std::size_t replayed_ = 0;
  std::size_t duplicate_keys_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t inserts_ = 0;
  mutable std::mutex mutex_;
};

}  // namespace plin::batch
