// The in-process ledger legs: each calls one library layer directly
// (tree, incremental engine, RewardService, recovered RecordingService,
// Storage).
#pragma once

#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

/// Per-layer numbers of the in-process ledger legs, all replaying the
/// same stream prefix of campaign 0 from the same snapshot image.
struct InProcessLedger {
  double tree_adopt_s = 0;  ///< wall time, like recover_s
  Sampler tree_append_ns;  ///< per event, bare Tree
  Sampler core_event_ns;   ///< per event, incremental engine
  double core_walk_depth_mean = 0;
  Sampler service_batch_us;
  Sampler service_read_ns;
  double recover_s = 0;
  double first_write_ms = 0;
  Sampler recording_batch_us;
  Sampler storage_batch_us;   ///< Storage::apply x batch + commit()
  Sampler storage_commit_us;  ///< commit() alone
  Sampler fsync_batch_us;     ///< the same with fsync=always
  double fsyncs_per_event = 0;  ///< with fsync=always
  double commits_per_event = 0;
  double wal_bytes_per_event = 0;
  std::vector<std::string> failures;
};

void run_inprocess_legs(const itree::Mechanism& mechanism, const Spec& spec,
                        const std::string& image_dir, const Stream& stream,
                        InProcessLedger* out, Spans* spans);

}  // namespace perfbench
