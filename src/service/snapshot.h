// Immutable catalog snapshots and the builder that produces them.
//
// The estimation service never mutates a catalog in place. Instead, every
// mutation (load a table, ANALYZE, replace statistics) builds a NEW catalog
// — sharing the previous snapshot's table payloads, which are
// shared_ptr<const Table> — seals it, wraps it in a CatalogSnapshot and
// atomically publishes that. Readers that grabbed the previous snapshot
// keep a shared_ptr to it and continue unperturbed; the last reference
// frees it. This is the Glue-style "compute per-table artifacts once,
// reuse across queries" lifecycle: a table's digest is the reuse unit.
// Every table gets one digest (service/fingerprint.h's TableDigest) when
// the snapshot is built, and the service cache keys results by the digests
// of the tables a query reads, so a republish that leaves those digests
// equal leaves the query's cached analysis and plan in place.
//
// Invariants:
//   * A CatalogSnapshot's catalog is sealed (Catalog::Seal) before the
//     snapshot is constructed — enforced with JOINEST_DCHECK. Every
//     mutating Catalog entry point DCHECK-fails on a sealed catalog, so
//     "ANALYZE under a live reader" cannot be written by construction.
//   * Versions are assigned by the publisher (Database) and strictly
//     increase; version 0 is the empty bootstrap snapshot.
//   * Table ids are stable across derived snapshots: the builder preserves
//     registration order, so a QuerySpec resolved against version v remains
//     valid against any later version (new tables only append). A spec is
//     nonetheless always *executed* against the snapshot it was prepared
//     with, pinning statistics and data consistently.

#ifndef JOINEST_SERVICE_SNAPSHOT_H_
#define JOINEST_SERVICE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/analyze.h"
#include "storage/catalog.h"

namespace joinest {

class SnapshotBuilder;

class CatalogSnapshot {
 public:
  // The sealed, deeply immutable catalog (tables + statistics).
  const Catalog& catalog() const { return catalog_; }
  // Publisher-assigned, strictly increasing.
  uint64_t version() const { return version_; }
  // Digest of table `table_id`'s name, schema and statistics: everything
  // Estimate and Optimize read about it. Two snapshots whose digests agree
  // on the tables a query reads produce identical estimates and plans for
  // it under identical options. Computed once, when the snapshot is built.
  uint64_t table_digest(int table_id) const;
  // Indexed by catalog id.
  const std::vector<uint64_t>& table_digests() const { return table_digests_; }

  std::string DebugString() const;

 private:
  friend class SnapshotBuilder;
  CatalogSnapshot(Catalog catalog, uint64_t version);

  Catalog catalog_;
  uint64_t version_ = 0;
  std::vector<uint64_t> table_digests_;
};

// Accumulates catalog mutations, then freezes the result into a snapshot.
// Single-threaded use; the Database serialises builders behind its writer
// mutex. Table payloads carried over from `base` are shared, not copied.
class SnapshotBuilder {
 public:
  // Starts from an empty catalog.
  SnapshotBuilder() = default;
  // Starts from the contents of an existing snapshot (tables shared).
  explicit SnapshotBuilder(const CatalogSnapshot& base);

  // Registers a new table, analysing it with `options`.
  StatusOr<int> AddTable(const std::string& name, Table table,
                         const AnalyzeOptions& options);
  // Registers a new table with caller-supplied statistics.
  StatusOr<int> AddTableWithStats(const std::string& name, Table table,
                                  TableStats stats);
  // Moves every entry of `source` in (tables shared from its entries).
  // Fails on a name collision; earlier entries stay imported.
  Status ImportTables(const Catalog& source);

  // Re-collects statistics for one table / every table.
  Status Reanalyze(int table_id, const AnalyzeOptions& options);
  Status ReanalyzeAll(const AnalyzeOptions& options);
  // Replaces one table's statistics wholesale.
  Status SetStats(int table_id, TableStats stats);

  StatusOr<int> ResolveTable(const std::string& name) const;
  int num_tables() const { return catalog_.num_tables(); }

  // Seals the catalog and wraps it into a snapshot carrying `version`.
  // The builder is spent afterwards (its catalog has been moved out).
  std::shared_ptr<const CatalogSnapshot> Build(uint64_t version) &&;

 private:
  Catalog catalog_;
};

}  // namespace joinest

#endif  // JOINEST_SERVICE_SNAPSHOT_H_
