#include "service/snapshot.h"

#include <sstream>
#include <utility>

#include "common/check.h"
#include "service/fingerprint.h"
#include "types/schema.h"

namespace joinest {

CatalogSnapshot::CatalogSnapshot(Catalog catalog, uint64_t version)
    : catalog_(std::move(catalog)), version_(version) {
  // Published snapshots are deeply immutable: the catalog must have been
  // sealed by the builder before it got here.
  JOINEST_DCHECK(catalog_.sealed())
      << "CatalogSnapshot over an unsealed catalog";
  table_digests_.reserve(static_cast<size_t>(catalog_.num_tables()));
  for (int t = 0; t < catalog_.num_tables(); ++t) {
    table_digests_.push_back(TableDigest(catalog_.table_name(t),
                                         catalog_.table(t).schema(),
                                         catalog_.stats(t)));
  }
}

uint64_t CatalogSnapshot::table_digest(int table_id) const {
  JOINEST_CHECK_GE(table_id, 0);
  JOINEST_CHECK_LT(table_id, catalog_.num_tables());
  return table_digests_[static_cast<size_t>(table_id)];
}

std::string CatalogSnapshot::DebugString() const {
  std::ostringstream os;
  os << "snapshot v" << version_ << ": " << catalog_.num_tables()
     << " table(s)";
  for (int t = 0; t < catalog_.num_tables(); ++t) {
    os << "\n  " << catalog_.table_name(t) << ": "
       << catalog_.stats(t).row_count << " rows, "
       << catalog_.table(t).num_columns() << " column(s), "
       << StatsSourceName(catalog_.stats(t).source) << " stats (digest "
       << std::hex << table_digests_[static_cast<size_t>(t)] << std::dec
       << ")";
  }
  return os.str();
}

SnapshotBuilder::SnapshotBuilder(const CatalogSnapshot& base) {
  const Status status = ImportTables(base.catalog());
  JOINEST_CHECK(status.ok()) << status;  // Base snapshots have unique names.
}

StatusOr<int> SnapshotBuilder::AddTable(const std::string& name, Table table,
                                        const AnalyzeOptions& options) {
  return catalog_.AddTable(name, std::move(table), options);
}

StatusOr<int> SnapshotBuilder::AddTableWithStats(const std::string& name,
                                                 Table table,
                                                 TableStats stats) {
  return catalog_.AddTableWithStats(name, std::move(table), std::move(stats));
}

Status SnapshotBuilder::ImportTables(const Catalog& source) {
  for (int t = 0; t < source.num_tables(); ++t) {
    JOINEST_ASSIGN_OR_RETURN(
        [[maybe_unused]] int id,
        catalog_.AddSharedTable(source.table_name(t), source.table_ptr(t),
                                source.stats(t)));
  }
  return Status::OK();
}

Status SnapshotBuilder::Reanalyze(int table_id,
                                  const AnalyzeOptions& options) {
  return catalog_.Reanalyze(table_id, options);
}

Status SnapshotBuilder::ReanalyzeAll(const AnalyzeOptions& options) {
  return catalog_.ReanalyzeAll(options);
}

Status SnapshotBuilder::SetStats(int table_id, TableStats stats) {
  return catalog_.SetStats(table_id, std::move(stats));
}

StatusOr<int> SnapshotBuilder::ResolveTable(const std::string& name) const {
  return catalog_.ResolveTable(name);
}

std::shared_ptr<const CatalogSnapshot> SnapshotBuilder::Build(
    uint64_t version) && {
  catalog_.Seal();
  // make_shared needs a public constructor; the snapshot's is private to
  // this builder, so allocate directly.
  return std::shared_ptr<const CatalogSnapshot>(
      new CatalogSnapshot(std::move(catalog_), version));
}

}  // namespace joinest
