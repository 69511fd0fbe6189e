// Shared pieces of the benchmark program: workload specs, the seeded
// stream generator, latency/throughput samplers, the span recorder and
// the result printer. See perfbench/README.md for what each workload
// measures and why.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/mechanism.h"
#include "net/protocol.h"
#include "server/event.h"
#include "storage/wal.h"
#include "tree/tree.h"

namespace perfbench {

using itree::NodeId;
using itree::net::BatchEvent;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline double now_s() { return static_cast<double>(now_ns()) * 1e-9; }
/// CPU time of the calling thread, in ns: in-process ledger legs are
/// timed with it, because on a shared VM it excludes hypervisor steal.
std::int64_t cpu_ns();

/// Topology of the served stack behind the wire.
struct StackConfig {
  std::size_t reactors = 1;  ///< reactors of the net::Server
  bool durable = false;      ///< Storage (WAL + group commit) behind the server
  bool routed = false;       ///< a 1-reactor router::Router in front
};

/// Traffic shape of the wire generator (one thread, one writer
/// connection per campaign).
struct Traffic {
  std::size_t window = 1;           ///< EVENT_BATCH frames in flight per writer
  std::size_t reads_per_batch = 0;  ///< closed loop: point reads after each batch
  double open_read_rate = 0.0;      ///< >0: open-loop reader connection, reads/s
};

/// WAL policy of every Storage the workloads open (see README: the
/// shared disk's fsync latency swings 2-3x between minutes). The
/// ledger's fsync=always leg passes its own policy.
inline constexpr itree::storage::FsyncPolicy kWalFsync =
    itree::storage::FsyncPolicy::kNever;

struct Spec {
  std::string name;
  std::string mechanism;        ///< core/factory.h name
  std::size_t campaigns = 1;
  std::size_t preload = 0;      ///< participants per campaign before the stream
  std::size_t batch = 64;       ///< events per batch
  double join_share = 0.5;      ///< the rest are purchases
  std::size_t batches = 0;      ///< batches per campaign per pass
  StackConfig stack;
  Traffic traffic;
  std::size_t ledger_batches = 0;  ///< stream prefix replayed per ledger leg
};

/// Builds the spec of `workload`. A pass replays a fixed stream, never
/// sized by measured speed, so every commit replays exactly the same
/// events from the same start state; --seconds only sets how many passes
/// a run makes. `tiny` is the smoke scale (--smoke only). Throws
/// std::invalid_argument for an unknown workload.
Spec make_spec(const std::string& workload, bool tiny);

/// Participants 1..n of one campaign, random-recursive forest with 10%
/// root joins (participant u = i + 1 has parent parents[i]).
struct Preload {
  std::vector<NodeId> parents;
  std::vector<double> contributions;
  itree::Tree tree() const;
};
Preload make_preload(const Spec& spec, std::uint64_t seed,
                     std::size_t campaign);

/// One campaign's event stream for a pass: `batches` batches of
/// spec.batch events (joins with uniform referrers, purchases of
/// uniform participants), the participant id each join must receive,
/// and the point-read targets, drawn from the preloaded ids.
struct Stream {
  std::size_t batch = 0;
  std::vector<BatchEvent> events;
  std::vector<NodeId> expected_ids;  ///< per event; 0 for purchases
  std::vector<NodeId> reads;
  std::size_t batch_count() const { return events.size() / batch; }
};
Stream make_stream(const Spec& spec, std::uint64_t seed, std::size_t campaign,
                   std::size_t batches);

inline itree::Event to_event(const BatchEvent& e) {
  if (e.kind == BatchEvent::kJoin) {
    return itree::JoinEvent{static_cast<NodeId>(e.node), e.amount};
  }
  return itree::ContributeEvent{static_cast<NodeId>(e.node), e.amount};
}

/// FNV-1a over the bit patterns of rewards[1..] and the vector size:
/// bit-exact equality of two reward vectors.
std::uint64_t digest(const std::vector<double>& rewards);
std::string hex(std::uint64_t value);

/// What the untimed prepare step computed in-process on a fresh
/// RewardService: per campaign digest, node count and audit.
struct Expected {
  std::vector<std::uint64_t> digests;
  std::vector<std::size_t> nodes;
};
void write_expected(const std::string& path, const Expected& expected);
Expected read_expected(const std::string& path);

/// Latency samples of one metric.
class Sampler {
 public:
  void add(double value) { values_.push_back(value); }
  void append(const Sampler& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double quantile(double q) const;
  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

 private:
  std::vector<double> values_;
};

/// Spans recorded from outside the program, around each public call:
/// (layer, start, end, parent span, request id). Kept in memory and
/// written as CSV at exit.
class Spans {
 public:
  static constexpr std::uint32_t kNone = ~0u;
  std::uint32_t open(const char* layer, std::uint32_t parent,
                     std::uint64_t request);
  void close(std::uint32_t span) { spans_[span].end = now_ns(); }
  std::size_t size() const { return spans_.size(); }
  void write_csv(const std::string& path) const;

 private:
  struct Span {
    const char* layer;
    std::uint32_t parent;
    std::uint64_t request;
    std::int64_t start;
    std::int64_t end;
  };
  std::vector<Span> spans_;
};

/// RAII span; a null recorder makes it free.
class SpanGuard {
 public:
  SpanGuard(Spans* spans, const char* layer,
            std::uint32_t parent = Spans::kNone, std::uint64_t request = 0)
      : spans_(spans),
        id_(spans ? spans->open(layer, parent, request) : Spans::kNone) {}
  ~SpanGuard() {
    if (spans_ != nullptr) spans_->close(id_);
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;
  std::uint32_t id() const { return id_; }

 private:
  Spans* spans_;
  std::uint32_t id_;
};

/// Everything one run measured, printed as one JSON line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples = 0);
  void info(const std::string& key, const std::string& value) {
    info_[key] = value;
  }
  void count_ops(std::uint64_t attempted, std::uint64_t ok) {
    attempted_ += attempted;
    ok_ += ok;
  }
  void fail(const std::string& why);
  bool correct() const { return failures_.empty(); }
  std::string json() const;

 private:
  struct Metric {
    double value;
    std::string unit;
    std::size_t samples;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> info_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t ok_ = 0;
};

/// Share of the CPUs' time above which a pass counts as hit by
/// hypervisor steal. Passes with 0.5-1.5% steal had read p99s 1.3-4x
/// those of steal-free passes of the same run.
inline constexpr double kQuietSteal = 0.0025;
/// Timed passes per run: new ones start until the quiet ones' streams
/// took --seconds of wall time or the run has spent kBudgetPerSecond x
/// --seconds, at least kMinPasses and at most kMaxPasses of them.
inline constexpr std::size_t kMinPasses = 4;
inline constexpr std::size_t kMaxPasses = 400;
inline constexpr double kBudgetPerSecond = 2.5;
/// Steal time of the whole machine so far (/proc/stat), in CPU-seconds;
/// 0 where the kernel does not report it.
double steal_s();
/// CPUs online, the denominator of a steal share.
double online_cpus();
/// High-water mark of this process's resident set (VmHWM), in MiB.
double peak_rss_mb();
/// CPU seconds used by the calling thread (excludes hypervisor steal).
double thread_cpu_s();
/// Total bytes of the WAL segment files in `dir`.
std::uint64_t wal_bytes(const std::string& dir);
/// Deletes WAL segments from `dir`, restoring a snapshot-only data dir
/// after a leg appended to it.
void remove_wal(const std::string& dir);

}  // namespace perfbench
