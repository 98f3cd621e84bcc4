// gbda_indexctl — operator tooling for GBDA index artifacts, all in the v3
// arena format (docs/ARCHITECTURE.md, "Storage engine"; quickstart in
// README.md).
//
//   gbda_indexctl build   --db=<transactions.txt> --out=<artifact>
//                         [--tau-max=N] [--sample-pairs=N] [--seed=N]
//                         [--eager-all-sizes] [--ann] [--ann-degree=N]
//                         [--ann-window=N] [--ann-alpha=F] [--ann-seed=N]
//       Runs the offline stage over a transaction-format database file and
//       writes the artifact; --ann (or any --ann-* knob) adds the proximity
//       graph section.
//
//   gbda_indexctl graph   --in=<artifact> --out=<artifact>
//                         [--ann-degree=N] [--ann-window=N]
//                         [--ann-alpha=F] [--ann-seed=N]
//       Builds the proximity graph for approximate candidate navigation
//       over the artifact's branch fingerprints and writes a copy carrying
//       it as the optional ann_graph section (src/ann). The canonical
//       sections are byte-identical to the input's, so exhaustive queries
//       through the output are bit-identical to the input.
//
//   gbda_indexctl inspect <artifact>
//       Prints a JSON summary (header fields, section table, candidate
//       columns, ann_graph details when present).
//
//   gbda_indexctl verify <artifact>
//       Full integrity check: structural validation plus every per-section
//       CRC32, trailing optional sections such as ann_graph included. Exits
//       non-zero on the first failure, printing the offending section and
//       byte offset.
//
// Numeric flags must be whole, in-range numbers; anything else prints the
// usage and exits 2. build and graph write crash-safely: the artifact goes
// to <out>.tmp, is fsynced, then renamed over <out>. A crash leaves either
// the old <out> or the complete new one, and --out may name the --in file.
#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>

#include "ann/proximity_graph.h"
#include "common/string_util.h"
#include "core/gbda_index.h"
#include "graph/graph_io.h"
#include "storage/index_arena.h"
#include "storage/index_view.h"

using namespace gbda;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  gbda_indexctl build   --db=<transactions.txt> --out=<path>\n"
               "                        [--tau-max=N] [--sample-pairs=N]"
               " [--seed=N] [--eager-all-sizes]\n"
               "                        [--ann] [--ann-degree=N]"
               " [--ann-window=N] [--ann-alpha=F] [--ann-seed=N]\n"
               "  gbda_indexctl graph   --in=<path> --out=<path>"
               " [--ann-degree=N] [--ann-window=N]\n"
               "                        [--ann-alpha=F] [--ann-seed=N]\n"
               "  gbda_indexctl inspect <path>\n"
               "  gbda_indexctl verify  <path>\n");
  return 2;
}

bool FlagValue(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "gbda_indexctl: %s\n", status.ToString().c_str());
  return 1;
}

Status ErrnoStatus(const std::string& what, const std::string& path) {
  return Status::IOError(what + " " + path + ": " + std::strerror(errno));
}

/// fsyncs the file or directory at `path`.
Status SyncPath(const std::string& path, int flags) {
  const int fd = ::open(path.c_str(), flags);
  if (fd < 0) return ErrnoStatus("cannot open for fsync:", path);
  const int rc = ::fsync(fd);
  Status status = rc == 0 ? Status::OK() : ErrnoStatus("fsync failed:", path);
  ::close(fd);
  return status;
}

/// Runs `write` on <path>.tmp, fsyncs it and renames it over `path` (then
/// fsyncs the directory, so the rename itself survives a crash). Readers
/// and crashes see the old file or the whole new one, and an input mapped
/// from `path` keeps its old inode until it is unmapped.
Status WriteAtomically(const std::string& path,
                       const std::function<Status(const std::string&)>& write) {
  const std::string tmp = path + ".tmp";
  Status status = write(tmp);
  if (status.ok()) status = SyncPath(tmp, O_WRONLY);
  if (status.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    status = ErrnoStatus("cannot rename " + tmp + " over", path);
  }
  if (!status.ok()) {
    std::remove(tmp.c_str());
    return status;
  }
  const size_t slash = path.find_last_of('/');
  return SyncPath(slash == std::string::npos ? "." : path.substr(0, slash + 1),
                  O_RDONLY | O_DIRECTORY);
}

/// Writes the arena crash-safely (WriteAtomically); `graph` becomes its
/// ann_graph section.
Status WriteArtifact(const IndexReader& index, const std::string& path,
                     const ProximityGraph* graph = nullptr) {
  return WriteAtomically(path, [&](const std::string& tmp) {
    return WriteArenaFile(index, tmp, graph);
  });
}

/// Parses the shared --ann-* knobs. Returns false when `arg` is not one of
/// them; sets *bad when it is one but its value does not parse.
bool AnnFlagValue(const char* arg, AnnBuildParams* params, bool* bad) {
  std::string v;
  if (FlagValue(arg, "--ann-degree", &v)) {
    *bad = !ParseNumber(v, &params->graph_degree);
  } else if (FlagValue(arg, "--ann-window", &v)) {
    *bad = !ParseNumber(v, &params->build_window);
  } else if (FlagValue(arg, "--ann-alpha", &v)) {
    *bad = !ParseNumber(v, &params->alpha);
  } else if (FlagValue(arg, "--ann-seed", &v)) {
    *bad = !ParseNumber(v, &params->seed);
  } else {
    return false;
  }
  return true;
}

int RunBuild(int argc, char** argv) {
  std::string db_path, out_path, v;
  GbdaIndexOptions options;
  bool with_ann = false;
  AnnBuildParams ann_params;
  for (int i = 2; i < argc; ++i) {
    bool bad = false;
    if (FlagValue(argv[i], "--db", &v)) {
      db_path = v;
    } else if (FlagValue(argv[i], "--out", &v)) {
      out_path = v;
    } else if (FlagValue(argv[i], "--tau-max", &v)) {
      bad = !ParseNumber(v, &options.tau_max);
    } else if (FlagValue(argv[i], "--sample-pairs", &v)) {
      bad = !ParseNumber(v, &options.gbd_prior.num_sample_pairs);
    } else if (FlagValue(argv[i], "--seed", &v)) {
      bad = !ParseNumber(v, &options.seed);
    } else if (std::strcmp(argv[i], "--eager-all-sizes") == 0) {
      options.eager_all_sizes = true;
    } else if (std::strcmp(argv[i], "--ann") == 0) {
      with_ann = true;
    } else if (AnnFlagValue(argv[i], &ann_params, &bad)) {
      with_ann = true;  // an --ann-* knob implies --ann
    } else {
      return Usage();
    }
    if (bad) return Usage();
  }
  if (db_path.empty() || out_path.empty()) return Usage();

  Result<GraphDatabase> db = ReadTransactionFile(db_path);
  if (!db.ok()) return Fail(db.status());
  Result<GbdaIndex> index = GbdaIndex::Build(*db, options);
  if (!index.ok()) return Fail(index.status());
  if (!with_ann) {
    Status written = WriteArtifact(*index, out_path);
    if (!written.ok()) return Fail(written);
    std::printf("built v3 artifact %s: %zu graphs, tau_max=%lld\n",
                out_path.c_str(), index->num_graphs(),
                static_cast<long long>(index->tau_max()));
    return 0;
  }
  Result<ProximityGraph> graph =
      BuildProximityGraph(FingerprintStore::FromIndex(*index), ann_params);
  if (!graph.ok()) return Fail(graph.status());
  Status written = WriteArtifact(*index, out_path, &*graph);
  if (!written.ok()) return Fail(written);
  std::printf(
      "built v3 artifact %s: %zu graphs, tau_max=%lld, ann_graph "
      "(degree<=%u, %llu edges)\n",
      out_path.c_str(), index->num_graphs(),
      static_cast<long long>(index->tau_max()), graph->degree_bound,
      static_cast<unsigned long long>(graph->neighbors.size()));
  return 0;
}

int RunGraph(int argc, char** argv) {
  std::string in_path, out_path, v;
  AnnBuildParams ann_params;
  for (int i = 2; i < argc; ++i) {
    bool bad = false;
    if (FlagValue(argv[i], "--in", &v)) {
      in_path = v;
    } else if (FlagValue(argv[i], "--out", &v)) {
      out_path = v;
    } else if (!AnnFlagValue(argv[i], &ann_params, &bad)) {
      return Usage();
    }
    if (bad) return Usage();
  }
  if (in_path.empty() || out_path.empty()) return Usage();

  Result<GbdaIndexView> view = GbdaIndexView::Open(in_path);
  if (!view.ok()) return Fail(view.status());
  Result<ProximityGraph> graph =
      BuildProximityGraph(FingerprintStore::FromIndex(*view), ann_params);
  if (!graph.ok()) return Fail(graph.status());
  Status written = WriteArtifact(*view, out_path, &*graph);
  if (!written.ok()) return Fail(written);
  std::printf(
      "wrote %s: %zu graphs with ann_graph (degree<=%u, %llu edges, "
      "entry=%u)\n",
      out_path.c_str(), view->num_graphs(), graph->degree_bound,
      static_cast<unsigned long long>(graph->neighbors.size()),
      graph->entry_point);
  return 0;
}

int RunInspect(const std::string& path) {
  Result<MappedFile> mapped = MappedFile::OpenReadOnly(path, false);
  if (!mapped.ok()) return Fail(mapped.status());
  Result<ArenaInfo> info = ParseArenaHeader(
      std::string_view(mapped->data(), mapped->size()), path);
  if (!info.ok()) return Fail(info.status());
  const GbdaIndexOptions& options = info->options;
  std::printf(
      "{\n"
      "  \"format\": \"v3\",\n"
      "  \"file_bytes\": %llu,\n"
      "  \"num_graphs\": %llu,\n"
      "  \"tau_max\": %lld,\n"
      "  \"num_vertex_labels\": %lld,\n"
      "  \"num_edge_labels\": %lld,\n"
      "  \"avg_vertices\": %.6f,\n"
      "  \"sample_pairs\": %llu,\n"
      "  \"seed\": %llu,\n"
      "  \"total_branches\": %llu,\n"
      "  \"total_labels\": %llu,\n"
      "  \"sections\": [\n",
      static_cast<unsigned long long>(info->file_bytes),
      static_cast<unsigned long long>(info->num_graphs),
      static_cast<long long>(options.tau_max),
      static_cast<long long>(info->num_vertex_labels),
      static_cast<long long>(info->num_edge_labels), info->avg_vertices,
      static_cast<unsigned long long>(options.gbd_prior.num_sample_pairs),
      static_cast<unsigned long long>(options.seed),
      static_cast<unsigned long long>(info->total_branches),
      static_cast<unsigned long long>(info->total_labels));
  for (size_t s = 0; s < info->sections.size(); ++s) {
    const ArenaSectionInfo& sec = info->sections[s];
    std::printf(
        "    {\"name\": \"%s\", \"offset\": %llu, \"length\": %llu, "
        "\"align\": %llu, \"crc32\": \"%08x\"}%s\n",
        ArenaSectionName(sec.id), static_cast<unsigned long long>(sec.offset),
        static_cast<unsigned long long>(sec.length),
        static_cast<unsigned long long>(sec.offset % kArenaSectionAlign == 0
                                            ? kArenaSectionAlign
                                            : sec.offset & ~(sec.offset - 1)),
        sec.crc32, s + 1 < info->sections.size() ? "," : "");
  }
  std::printf("  ]");
  const ArenaSectionInfo* uniq = info->FindSection(kSecFpUnique);
  std::printf(
      ",\n  \"columns\": {\"graph_sizes\": true, \"fp_keys\": true, "
      "\"exactness_directory\": %s, \"num_distinct_fingerprints\": %llu}",
      uniq != nullptr ? "true" : "false",
      static_cast<unsigned long long>(uniq != nullptr ? uniq->length / 8 : 0));
  if (const ArenaSectionInfo* sec = info->FindSection(kSecAnnGraph)) {
    Result<ProximityGraphRef> graph = ParseProximityGraphSection(
        mapped->data() + sec->offset, static_cast<size_t>(sec->length),
        info->num_graphs, path + " [ann_graph]");
    if (graph.ok()) {
      std::printf(
          ",\n  \"ann_graph\": {\"nodes\": %llu, \"edges\": %llu, "
          "\"degree_bound\": %u, \"entry_point\": %u}",
          static_cast<unsigned long long>(graph->num_nodes),
          static_cast<unsigned long long>(graph->num_edges),
          graph->degree_bound, graph->entry_point);
    } else {
      std::printf(",\n  \"ann_graph\": {\"error\": \"%s\"}",
                  graph.status().ToString().c_str());
    }
  }
  std::printf("\n}\n");
  return 0;
}

int RunVerify(const std::string& path) {
  GbdaIndexView::OpenOptions options;
  options.verify_checksums = true;
  options.prefetch = true;
  Result<GbdaIndexView> view = GbdaIndexView::Open(path, options);
  if (!view.ok()) return Fail(view.status());
  std::printf("%s: OK (v3 arena, %zu graphs, %llu branches)\n", path.c_str(),
              view->num_graphs(),
              static_cast<unsigned long long>(view->total_branches()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "build") return RunBuild(argc, argv);
  if (command == "graph") return RunGraph(argc, argv);
  if (command == "inspect" && argc == 3) return RunInspect(argv[2]);
  if (command == "verify" && argc == 3) return RunVerify(argv[2]);
  return Usage();
}
