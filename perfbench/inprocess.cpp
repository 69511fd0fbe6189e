#include "inprocess.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "core/incremental.h"
#include "core/tdrm.h"
#include "server/event_log.h"
#include "server/reward_service.h"
#include "storage/snapshot.h"
#include "storage/storage.h"
#include "wire.h"

namespace perfbench {

namespace {

/// Applies batch `b` of `stream` through `apply(event) -> optional id`
/// and checks every assigned id against the generator's prediction.
template <typename Apply>
bool apply_batch(const Stream& stream, std::size_t b, Apply&& apply,
                 std::vector<std::string>* failures, Spans* spans,
                 std::uint32_t parent) {
  bool good = true;
  for (std::size_t k = b * stream.batch; k < (b + 1) * stream.batch; ++k) {
    std::optional<NodeId> id;
    {
      SpanGuard span(spans, "apply", parent, k);
      id = apply(to_event(stream.events[k]));
    }
    const NodeId want = stream.expected_ids[k];
    if ((want == 0) != !id.has_value() || (id && *id != want)) {
      good = false;
    }
  }
  if (!good && failures->size() < 10) {
    failures->push_back("batch " + std::to_string(b) +
                        ": assigned ids differ from the prediction");
  }
  return good;
}

/// Targets of the point reads that follow batch `b` in the in-process
/// legs, taken from the stream's read pool.
NodeId read_target(const Stream& stream, std::size_t b, std::size_t r,
                   std::size_t per_batch) {
  const std::size_t i = b * per_batch + r;
  return stream.reads[i % stream.reads.size()];
}

constexpr std::size_t kLedgerReadGroup = 64;

itree::storage::SnapshotData load_image(const std::string& dir) {
  return itree::storage::MappedSnapshot(latest_snapshot(dir)).materialize();
}

}  // namespace

namespace {

/// The incremental engine a RewardService would pick for `mechanism`,
/// driven directly.
template <typename Engine>
void core_leg(Engine& engine, itree::storage::CampaignSnapshot&& snap,
              const Stream& stream, InProcessLedger* out, Spans* spans) {
  engine.adopt_tree(std::move(snap.tree));
  engine.import_aggregates(snap.aggregates);
  double depth_sum = 0.0;
  for (std::size_t b = 0; b < stream.batch_count(); ++b) {
    const std::int64_t tb = cpu_ns();
    {
      SpanGuard span(spans, "core.batch", Spans::kNone, b);
      engine.begin_batch();
      for (std::size_t k = b * stream.batch; k < (b + 1) * stream.batch; ++k) {
        const BatchEvent& e = stream.events[k];
        if (e.kind == BatchEvent::kJoin) {
          engine.add_leaf(static_cast<NodeId>(e.node), e.amount);
        } else {
          engine.add_contribution(static_cast<NodeId>(e.node), e.amount);
        }
      }
      engine.flush_batch();
    }
    const std::int64_t te = cpu_ns();
    if (b > 0) {
      out->core_event_ns.add(static_cast<double>(te - tb) /
                             static_cast<double>(stream.batch));
    }
    for (std::size_t k = b * stream.batch; k < (b + 1) * stream.batch; ++k) {
      const NodeId u = stream.expected_ids[k] != 0
                           ? stream.expected_ids[k]
                           : static_cast<NodeId>(stream.events[k].node);
      depth_sum += static_cast<double>(engine.tree().depth(u));
    }
  }
  out->core_walk_depth_mean =
      depth_sum / static_cast<double>(stream.events.size());
}

}  // namespace

void run_inprocess_legs(const itree::Mechanism& mechanism, const Spec& spec,
                        const std::string& image_dir, const Stream& stream,
                        InProcessLedger* out, Spans* spans) {
  const std::size_t batches = stream.batch_count();
  const std::size_t reads_per_batch = kLedgerReadGroup;

  {  // tree: bare arena appends after a mapped v5 adoption
    const double t0 = now_s();
    auto image = load_image(image_dir);
    out->tree_adopt_s = now_s() - t0;
    itree::Tree tree = std::move(image.campaigns[0].tree);
    for (std::size_t b = 0; b < batches; ++b) {
      const std::int64_t tb = cpu_ns();
      {
        SpanGuard span(spans, "tree.batch", Spans::kNone, b);
        for (std::size_t k = b * stream.batch; k < (b + 1) * stream.batch; ++k) {
          const BatchEvent& e = stream.events[k];
          const auto u = static_cast<NodeId>(e.node);
          if (e.kind == BatchEvent::kJoin) {
            if (tree.add_node(u, e.amount) != stream.expected_ids[k]) {
              out->failures.push_back("tree leg: id mismatch");
            }
          } else {
            tree.set_contribution(u, tree.contribution(u) + e.amount);
          }
        }
      }
      if (b > 0) {
        out->tree_append_ns.add(static_cast<double>(cpu_ns() - tb) /
                                static_cast<double>(stream.batch));
      }
    }
  }

  {  // core: the incremental engine alone
    auto image = load_image(image_dir);
    if (const auto* tdrm = dynamic_cast<const itree::Tdrm*>(&mechanism)) {
      itree::IncrementalRctState engine(tdrm->params(), mechanism.phi());
      core_leg(engine, std::move(image.campaigns[0]), stream, out, spans);
    } else {
      const auto support = mechanism.aggregate_support();
      itree::IncrementalSubtreeState engine(
          itree::IncrementalSubtreeState::Config{support.decay,
                                                 support.binary_depth});
      core_leg(engine, std::move(image.campaigns[0]), stream, out, spans);
    }
  }

  {  // server: RewardService batches and point reads
    auto image = load_image(image_dir);
    auto& snap = image.campaigns[0];
    itree::RewardService service(mechanism);
    service.adopt_snapshot(std::move(snap.tree), snap.events_applied,
                           snap.aggregates);
    double sink = 0.0;
    for (std::size_t b = 0; b < batches; ++b) {
      std::int64_t tb = cpu_ns();
      {
        SpanGuard span(spans, "service.batch", Spans::kNone, b);
        service.begin_batch();
        apply_batch(
            stream, b, [&](const itree::Event& e) { return service.apply(e); },
            &out->failures, nullptr, Spans::kNone);
        service.flush_batch();
      }
      std::int64_t te = cpu_ns();
      if (b > 0) out->service_batch_us.add(static_cast<double>(te - tb) * 1e-3);
      tb = cpu_ns();
      {
        SpanGuard span(spans, "service.reads", Spans::kNone, b);
        for (std::size_t r = 0; r < reads_per_batch; ++r) {
          sink += service.reward(read_target(stream, b, r, reads_per_batch));
        }
      }
      te = cpu_ns();
      if (b > 0) {
        out->service_read_ns.add(static_cast<double>(te - tb) /
                                 static_cast<double>(reads_per_batch));
      }
    }
    if (!std::isfinite(sink)) out->failures.push_back("service leg: bad reads");
  }

  {  // server: the recovered RecordingService (EventLog on top)
    const double t0 = now_s();
    auto recovered =
        itree::storage::recover_campaigns(mechanism, spec.campaigns, image_dir);
    out->recover_s = now_s() - t0;
    itree::RecordingService& service = *recovered.campaigns[0];
    for (std::size_t b = 0; b < batches; ++b) {
      const std::int64_t tb = cpu_ns();
      {
        SpanGuard span(spans, "recording.batch", Spans::kNone, b);
        service.begin_batch();
        apply_batch(
            stream, b, [&](const itree::Event& e) { return service.apply(e); },
            &out->failures, nullptr, Spans::kNone);
        service.flush_batch();
      }
      const double us = static_cast<double>(cpu_ns() - tb) * 1e-3;
      if (b == 0) {
        out->first_write_ms = us * 1e-3;
      } else {
        out->recording_batch_us.add(us);
      }
    }
  }

  // storage: Storage::apply x batch + group commit, under the
  // workload's policy (the ledger's accounting) and under fsync=always
  // (what a durable ack costs on this filesystem).
  auto storage_leg = [&](itree::storage::FsyncPolicy policy, Sampler* batch_us,
                         Sampler* commit_us) {
    auto config = storage_config(spec, image_dir);
    config.fsync = policy;
    itree::storage::Storage storage(mechanism, spec.campaigns, config);
    const auto fsyncs0 = storage.wal_fsyncs();
    const auto commits0 = storage.counters().commits;
    const auto bytes0 = wal_bytes(image_dir);
    for (std::size_t b = 0; b < batches; ++b) {
      const std::int64_t tb = now_ns();
      std::int64_t tc = 0;
      {
        SpanGuard span(spans, "storage.batch", Spans::kNone, b);
        apply_batch(
            stream, b,
            [&](const itree::Event& e) { return storage.apply(0, e); },
            &out->failures, nullptr, Spans::kNone);
        tc = now_ns();
        SpanGuard commit(spans, "storage.commit", span.id(), b);
        storage.commit();
      }
      const std::int64_t te = now_ns();
      batch_us->add(static_cast<double>(te - tb) * 1e-3);
      if (commit_us) commit_us->add(static_cast<double>(te - tc) * 1e-3);
    }
    const auto events = static_cast<double>(stream.events.size());
    out->fsyncs_per_event =
        static_cast<double>(storage.wal_fsyncs() - fsyncs0) / events;
    out->commits_per_event =
        static_cast<double>(storage.counters().commits - commits0) / events;
    out->wal_bytes_per_event =
        static_cast<double>(wal_bytes(image_dir) - bytes0) / events;
  };
  storage_leg(kWalFsync, &out->storage_batch_us, &out->storage_commit_us);
  remove_wal(image_dir);
  storage_leg(itree::storage::FsyncPolicy::kAlways, &out->fsync_batch_us,
              nullptr);
  remove_wal(image_dir);
}

}  // namespace perfbench
