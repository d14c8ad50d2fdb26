// paxml_site: one deployed site of a multi-process paxml engine.
//
//   $ paxml_site DATADIR --site N --sites K --placement 0,1,1,2,...
//                [--host 127.0.0.1] [--port P] [--threads T] [--memo]
//                [--compress]
//
// Serves either workload family: a directory written by SaveDocument (XML
// fragments; every machine of a deployment holds the same directory;
// loading only a site's own fragments is a ROADMAP follow-on) or one
// written by SaveGraph (a partitioned digraph, detected by its graph.paxg
// store file). Reconstructs the cluster the client describes — K sites,
// the given fragment->site placement, which must match the client's bit
// for bit — and serves its site's share of every announced evaluation over
// TCP (runtime/socket_server.h); the workload registry (core/workload.h)
// resolves each announced RunSpec to the right family's program, and a
// client evaluating the other family is rejected with a workload-mismatch
// error.
//
// After binding it prints one line to stdout:
//
//   PAXML_SITE LISTENING <port>
//
// so a parent that spawned it with --port 0 can read the ephemeral port.
// It then serves until killed; a client disconnect drops that client's
// runs and the next client is accepted.
//
// A client's Hello may ask for intra-site parallel delivery (the
// site_threads transport knob); the server then fans a round's
// per-fragment mail out on a worker pool — RunStats stay bit-identical to
// the serial order (runtime/site_driver.h). --threads T caps what a client
// may request on this machine (default: honor the client).
//
// --memo turns on the fragment-stage memo (serving/fragment_memo.h): the
// server keeps a process-wide store of per-fragment partial answers keyed
// by (query fingerprint, fragment, step), so repeated queries — across
// runs and client connections — replay recorded replies instead of
// re-evaluating. Answers and accounted RunStats are unchanged; each
// round's savings travel back in the RoundDone record.
//
// --compress lets the server accept a client's frame-compression offer
// (TransportOptions::compress_min_bytes on the client side): frames at or
// above the client's threshold travel as lz4-compressed kFrameZ records in
// both directions. Logical accounting is unchanged — only wire bytes
// shrink. Without the flag every offer is declined and connections run raw
// frames.
//
// --rounds R caps how many independent runs' rounds one connection may
// deliver concurrently when a client's Hello asks for cross-run fan-out
// (the peer_concurrent_rounds transport knob; default: honor the client,
// bounded at 16). Each run's RunStats stay exactly its solo RunStats —
// only independent runs overlap.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/workload_data.h"
#include "core/workload.h"
#include "fragment/storage.h"
#include "graph/store.h"
#include "runtime/socket_server.h"
#include "serving/fragment_memo.h"
#include "sim/cluster.h"

using namespace paxml;

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: paxml_site DATADIR --site N --sites K "
               "--placement 0,1,... [--host H] [--port P] [--threads T] "
               "[--memo] [--compress] [--rounds R]\n");
}

/// Loads whichever workload the directory holds: a graph store when its
/// marker file is present, XML fragments otherwise.
Result<std::shared_ptr<const WorkloadData>> LoadWorkload(
    const std::string& dir) {
  if (IsGraphStoreDir(dir)) {
    PAXML_ASSIGN_OR_RETURN(std::shared_ptr<const GraphFragmentStore> store,
                           LoadGraph(dir));
    return std::shared_ptr<const WorkloadData>(std::move(store));
  }
  PAXML_ASSIGN_OR_RETURN(FragmentedDocument doc, LoadDocument(dir));
  return std::shared_ptr<const WorkloadData>(
      std::make_shared<FragmentedDocument>(std::move(doc)));
}

bool ParsePlacement(const char* text, std::vector<SiteId>* out) {
  out->clear();
  const char* p = text;
  while (*p != '\0') {
    char* end = nullptr;
    const long v = std::strtol(p, &end, 10);
    if (end == p) return false;
    out->push_back(static_cast<SiteId>(v));
    p = end;
    if (*p == ',') ++p;
  }
  return !out->empty();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string dir = argv[1];
  SiteId site = kNullSite;
  size_t site_count = 0;
  std::vector<SiteId> placement;
  std::string host = "127.0.0.1";
  int port = 0;
  size_t max_threads = 0;  // 0 = honor the client's Hello
  bool memo = false;
  bool compress = false;
  size_t max_rounds = 0;  // 0 = honor the client's Hello

  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--site") == 0 && i + 1 < argc) {
      site = static_cast<SiteId>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--sites") == 0 && i + 1 < argc) {
      site_count = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--placement") == 0 && i + 1 < argc) {
      if (!ParsePlacement(argv[++i], &placement)) {
        Usage();
        return 2;
      }
    } else if (std::strcmp(argv[i], "--host") == 0 && i + 1 < argc) {
      host = argv[++i];
    } else if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      max_threads = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--memo") == 0) {
      memo = true;
    } else if (std::strcmp(argv[i], "--compress") == 0) {
      compress = true;
    } else if (std::strcmp(argv[i], "--rounds") == 0 && i + 1 < argc) {
      max_rounds = static_cast<size_t>(std::atoll(argv[++i]));
    } else {
      Usage();
      return 2;
    }
  }
  if (site == kNullSite || site_count == 0 || placement.empty()) {
    Usage();
    return 2;
  }

  auto data_r = LoadWorkload(dir);
  if (!data_r.ok()) {
    std::fprintf(stderr, "paxml_site: load error: %s\n",
                 data_r.status().ToString().c_str());
    return 1;
  }
  std::shared_ptr<const WorkloadData> data = std::move(data_r).ValueOrDie();
  if (placement.size() != data->fragment_count()) {
    std::fprintf(stderr,
                 "paxml_site: placement names %zu fragments, directory holds "
                 "%zu\n",
                 placement.size(), data->fragment_count());
    return 1;
  }

  // The cluster here only describes placement; delivery happens on the
  // SiteServer's per-connection pool when a client's Hello asks for
  // site_threads > 1, so the cluster's own transport pool stays off.
  ClusterOptions cluster_options;
  cluster_options.parallel_execution = false;
  Cluster cluster(data, site_count, cluster_options);
  for (size_t f = 0; f < placement.size(); ++f) {
    Status st = cluster.Place(static_cast<FragmentId>(f), placement[f]);
    if (!st.ok()) {
      std::fprintf(stderr, "paxml_site: bad placement: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }

  SiteServer server(&cluster, site, MakeSiteProgramFactory(&cluster),
                    max_threads,
                    memo ? std::make_shared<FragmentMemo>() : nullptr,
                    compress, max_rounds);
  auto bound = server.Listen(host, port);
  if (!bound.ok()) {
    std::fprintf(stderr, "paxml_site: %s\n", bound.status().ToString().c_str());
    return 1;
  }
  std::printf("PAXML_SITE LISTENING %d\n", *bound);
  std::fflush(stdout);

  Status status = server.Serve();
  if (!status.ok()) {
    std::fprintf(stderr, "paxml_site: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
