// The served stack (a net::Server, optional Storage and
// router::Router, all in-process) and the one-thread wire generator
// that drives it.
#pragma once

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "net/server.h"
#include "router/router.h"
#include "storage/storage.h"

namespace perfbench {

/// Storage of `spec`'s mechanism in `dir`, with the workloads' WAL
/// fsync policy (kWalFsync).
itree::storage::StorageConfig storage_config(const Spec& spec,
                                             const std::string& dir);
/// Path of the newest snapshot image in `dir`.
std::string latest_snapshot(const std::string& dir);
/// Recreates `dir` as a snapshot-only data directory holding every
/// campaign, written by Storage itself.
void seed_data_dir(const itree::Mechanism& mechanism, const Spec& spec,
                   const std::string& dir, const std::vector<Preload>& trees);

/// Where a stack's campaigns come from at start-up.
struct PreloadSource {
  /// Seed from these trees (timed as set-up): in memory through
  /// RecordingService::restore_snapshot, durable through a Storage
  /// snapshot the server then recovers.
  const std::vector<Preload>* trees = nullptr;
  /// Or adopt from this prepared data directory's snapshot image.
  std::string image_dir;
};

/// The server (and router) running on their own threads; the destructor
/// drains and joins them.
class WireStack {
 public:
  WireStack(const itree::Mechanism& mechanism, const Spec& spec,
            const StackConfig& config, const std::string& dir,
            const PreloadSource& preload);
  ~WireStack();
  WireStack(const WireStack&) = delete;
  WireStack& operator=(const WireStack&) = delete;

  /// The port clients dial: the router's when routed, else the server's.
  std::uint16_t port() const;
  itree::net::Server& server() { return *server_; }
  itree::router::RouterCounters router_counters() const;
  bool routed() const { return router_ != nullptr; }

  /// Drains and joins everything (idempotent).
  void stop();

 private:
  std::unique_ptr<itree::net::Server> server_;
  std::unique_ptr<itree::router::Router> router_;
  std::vector<std::thread> threads_;
  bool stopped_ = false;
};

/// What one pass of wire traffic measured.
struct WireResult {
  Sampler write_us;    ///< batch submit -> ack
  Sampler read_us;     ///< closed loop: send -> reply; open: due -> reply
  Sampler lateness_us; ///< generator send delay (open: vs schedule)
  double events = 0;
  double reads = 0;
  double wall_s = 0;
  double gen_cpu_s = 0;
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::vector<std::string> failures;
};

/// Drives `streams` (one per campaign) through the stack from the
/// calling thread: one writer connection per campaign with
/// traffic.window frames in flight, closed-loop reads after each batch,
/// or an open-loop reader connection. With more than one reactor,
/// connections are re-dialled until each writer sits on the
/// reactor that owns campaign 0 and the reader on another, so every run
/// forwards the same share of requests. Spans (when non-null) wrap every
/// request.
WireResult drive(WireStack& stack, const Spec& spec, const Traffic& traffic,
                 const std::vector<Stream>& streams, Spans* spans);

/// Reads each campaign's full reward vector and audit over the wire and
/// checks them against the in-process reference (untimed).
void verify_final_state(WireStack& stack, const Spec& spec,
                        const Expected& expected,
                        std::vector<std::string>* failures);

}  // namespace perfbench
