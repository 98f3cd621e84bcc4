#include "service/dynamic_service.h"

#include <algorithm>
#include <utility>

#include "common/timer.h"

namespace gbda {

Result<std::unique_ptr<DynamicGbdaService>> DynamicGbdaService::Create(
    GraphDatabase db, const GbdaIndexOptions& index_options,
    const DynamicServiceOptions& options) {
  if (db.has_tombstones()) {
    return Status::InvalidArgument(
        "dynamic service: the initial database must be tombstone-free");
  }
  Result<GbdaIndex> master = GbdaIndex::Build(db, index_options);
  if (!master.ok()) return master.status();
  // Build copies everything it needs out of `db`, so moving it afterwards
  // is safe; from here on the service owns the only mutable handle.
  return std::unique_ptr<DynamicGbdaService>(new DynamicGbdaService(
      std::move(db), std::move(*master), index_options, options));
}

DynamicGbdaService::DynamicGbdaService(GraphDatabase db, GbdaIndex master,
                                       const GbdaIndexOptions& index_options,
                                       const DynamicServiceOptions& options)
    : GbdaService(options.service),
      index_options_(index_options),
      gbd_refit_fraction_(options.gbd_refit_fraction),
      db_(std::move(db)),
      master_(std::move(master)) {
  profiles_.reserve(db_.size());
  for (size_t id = 0; id < db_.size(); ++id) {
    profiles_.push_back(
        std::make_shared<const FilterProfile>(BuildFilterProfile(db_.graph(id))));
  }
  MutexLock lock(&write_mutex_);
  Republish();
}

Status DynamicGbdaService::ValidateLabels(const Graph& g) const {
  const size_t num_vertex_ids = db_.vertex_labels().size();
  const size_t num_edge_ids = db_.edge_labels().size();
  for (uint32_t v = 0; v < g.num_vertices(); ++v) {
    if (g.VertexLabel(v) >= num_vertex_ids) {
      return Status::InvalidArgument(
          "AddGraph: unknown vertex label id " +
          std::to_string(g.VertexLabel(v)) +
          " (intern labels through the service first)");
    }
    for (const AdjEdge& e : g.Neighbors(v)) {
      if (e.label >= num_edge_ids) {
        return Status::InvalidArgument(
            "AddGraph: unknown edge label id " + std::to_string(e.label) +
            " (intern labels through the service first)");
      }
    }
  }
  return Status::OK();
}

void DynamicGbdaService::Republish(bool force_refit) {
  WallTimer rebuild_timer;

  // The model label universe may have grown (interned labels, new graphs);
  // explicit option overrides stay pinned, as in Build.
  const int64_t lv =
      index_options_.model_vertex_labels > 0
          ? index_options_.model_vertex_labels
          : static_cast<int64_t>(db_.vertex_labels().num_real_labels());
  const int64_t le =
      index_options_.model_edge_labels > 0
          ? index_options_.model_edge_labels
          : static_cast<int64_t>(db_.edge_labels().num_real_labels());
  master_.RefreshModelLabels(lv, le);

  // Lambda2 staleness policy (see DynamicServiceOptions). A refit that
  // cannot run (fit failure, or fewer than the two live graphs a fit
  // needs) keeps the previous prior: availability over freshness,
  // surfaced through dynamic_stats().gbd_refit_failures and the
  // still-nonzero SnapshotInfo::gbd_staleness.
  bool refit_failed = false;
  bool refit_done = false;
  if (master_.gbd_staleness() > 0 &&
      (force_refit || gbd_refit_fraction_ <= 0.0 ||
       master_.GbdStalenessFraction() > gbd_refit_fraction_)) {
    if (master_.num_live() >= 2) {
      Status refit = master_.RefitGbdPrior();
      refit_done = refit.ok();
      refit_failed = !refit.ok();
    } else {
      refit_failed = true;
    }
  }

  auto snap = std::make_shared<Snapshot>();
  snap->generation = ++generation_;
  snap->index =
      std::make_shared<GbdaIndex>(master_.CompactView(&snap->stable_ids));
  snap->graphs.reserve(snap->stable_ids.size());
  std::vector<std::shared_ptr<const FilterProfile>> dense_profiles;
  dense_profiles.reserve(snap->stable_ids.size());
  for (size_t id : snap->stable_ids) {
    snap->graphs.push_back(&db_.graph(id));
    dense_profiles.push_back(profiles_[id]);
  }
  snap->prefilter = std::make_shared<const Prefilter>(std::move(dense_profiles));
  const double swap_seconds = Publish(std::move(snap));
  const double rebuild_seconds = rebuild_timer.Seconds() - swap_seconds;

  MutexLock lock(&stats_mutex_);
  ++dynamic_stats_.snapshots_published;
  if (refit_done) ++dynamic_stats_.gbd_refits;
  if (refit_failed) ++dynamic_stats_.gbd_refit_failures;
  dynamic_stats_.last_rebuild_seconds = rebuild_seconds;
  dynamic_stats_.total_rebuild_seconds += rebuild_seconds;
  dynamic_stats_.max_rebuild_seconds =
      std::max(dynamic_stats_.max_rebuild_seconds, rebuild_seconds);
  dynamic_stats_.last_swap_seconds = swap_seconds;
  dynamic_stats_.total_swap_seconds += swap_seconds;
  dynamic_stats_.max_swap_seconds =
      std::max(dynamic_stats_.max_swap_seconds, swap_seconds);
}

Result<size_t> DynamicGbdaService::AddGraph(Graph g, SnapshotInfo* published) {
  Result<std::vector<size_t>> ids = AddGraphs({std::move(g)}, published);
  if (!ids.ok()) return ids.status();
  return (*ids)[0];
}

Result<std::vector<size_t>> DynamicGbdaService::AddGraphs(
    std::vector<Graph> graphs, SnapshotInfo* published) {
  if (graphs.empty()) {
    if (published != nullptr) *published = snapshot_info();  // no commit
    return std::vector<size_t>{};
  }
  MutexLock lock(&write_mutex_);
  for (const Graph& g : graphs) {
    Status labels = ValidateLabels(g);
    if (!labels.ok()) return labels;
  }
  std::vector<size_t> ids;
  ids.reserve(graphs.size());
  for (Graph& g : graphs) {
    const size_t id = db_.Add(std::move(g));
    const Graph& stored = db_.graph(id);
    master_.AddGraph(stored);
    profiles_.push_back(
        std::make_shared<const FilterProfile>(BuildFilterProfile(stored)));
    ids.push_back(id);
  }
  {
    MutexLock stats_lock(&stats_mutex_);
    dynamic_stats_.graphs_added += ids.size();
  }
  Republish();
  if (published != nullptr) *published = snapshot_info();
  return ids;
}

Status DynamicGbdaService::RemoveGraphs(const std::vector<size_t>& ids,
                                        SnapshotInfo* published) {
  if (ids.empty()) {
    if (published != nullptr) *published = snapshot_info();
    return Status::OK();
  }
  MutexLock lock(&write_mutex_);
  Status removed = db_.RemoveGraphs(ids);
  if (!removed.ok()) return removed;  // validated up front: no-op on failure
  Status index_removed = master_.RemoveGraphs(ids);
  if (!index_removed.ok()) return index_removed;  // unreachable: db agreed
  {
    MutexLock stats_lock(&stats_mutex_);
    dynamic_stats_.graphs_removed += ids.size();
  }
  Republish();
  if (published != nullptr) *published = snapshot_info();
  return Status::OK();
}

LabelId DynamicGbdaService::InternVertexLabel(const std::string& name) {
  MutexLock lock(&write_mutex_);
  return db_.vertex_labels().Intern(name);
}

LabelId DynamicGbdaService::InternEdgeLabel(const std::string& name) {
  MutexLock lock(&write_mutex_);
  return db_.edge_labels().Intern(name);
}

Status DynamicGbdaService::Flush(SnapshotInfo* published) {
  MutexLock lock(&write_mutex_);
  Republish(/*force_refit=*/true);
  if (published != nullptr) *published = snapshot_info();
  // The snapshot is published either way (availability), but a caller
  // flushing to guarantee a fresh Lambda2 must hear when the refit could
  // not run (degenerate corpus or fit failure).
  if (master_.gbd_staleness() > 0) {
    return Status::FailedPrecondition(
        "Flush: Lambda2 refit could not run (need >= 2 live graphs and a "
        "fit-able corpus); snapshot published with the stale prior");
  }
  return Status::OK();
}

DynamicServiceStats DynamicGbdaService::dynamic_stats() const {
  MutexLock lock(&stats_mutex_);
  return dynamic_stats_;
}

void DynamicGbdaService::ResetStats() {
  GbdaService::ResetStats();
  MutexLock lock(&stats_mutex_);
  dynamic_stats_ = DynamicServiceStats();
}

}  // namespace gbda
