// perfbench — the benchmark's measuring program.
//
//   perfbench prepare --workload W --seed N --seconds S --work DIR [--tiny]
//   perfbench run     --workload W --seed N --seconds S --work DIR
//                            --trace 0|1 [--tiny]
//
// `prepare` (untimed) applies the seeded stream in-process to a fresh
// RewardService and records the final rewards digest each workload's
// served state must reproduce. `run` measures: with --trace 0 the
// end-to-end metrics, with --trace 1 the layer ledger. Either prints one
// JSON line and exits 1 when a correctness check failed. --tiny is the
// scale of `run.py --smoke`. perfbench/run.py wraps both.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "core/factory.h"
#include "inprocess.h"
#include "server/reward_service.h"
#include "storage/storage.h"
#include "wire.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string work;
  bool tiny = false;
};

Args parse(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("usage: perfbench prepare|run ...");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") a.seed = std::stoull(value);
    else if (flag == "--seconds") a.seconds = std::stod(value);
    else if (flag == "--trace") a.trace = std::stoi(value);
    else if (flag == "--work") a.work = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (a.workload.empty() || a.work.empty()) {
    throw std::invalid_argument("--workload and --work are required");
  }
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

std::string expected_path(const Args& a) { return a.work + "/expected.txt"; }

int prepare(const Args& a, const Spec& spec, const itree::Mechanism& mechanism) {
  fs::create_directories(a.work);
  Expected expected;
  for (std::size_t c = 0; c < spec.campaigns; ++c) {
    const Preload preload = make_preload(spec, a.seed, c);
    const itree::Tree tree = preload.tree();
    itree::RewardService reference(mechanism);
    reference.restore_snapshot(tree, tree.participant_count());
    const Stream stream = make_stream(spec, a.seed, c, spec.batches);
    for (std::size_t b = 0; b < stream.batch_count(); ++b) {
      reference.begin_batch();
      for (std::size_t k = b * stream.batch; k < (b + 1) * stream.batch; ++k) {
        const auto id = reference.apply(to_event(stream.events[k]));
        if (id.value_or(0) != stream.expected_ids[k]) {
          throw std::runtime_error("reference: join id prediction broken");
        }
      }
      reference.flush_batch();
    }
    const auto& rewards = reference.rewards();
    expected.digests.push_back(digest(rewards));
    expected.nodes.push_back(rewards.size());
  }
  write_expected(expected_path(a), expected);
  return 0;
}

std::vector<Stream> streams_for(const Args& a, const Spec& spec,
                                std::size_t batches) {
  std::vector<Stream> streams;
  for (std::size_t c = 0; c < spec.campaigns; ++c) {
    streams.push_back(make_stream(spec, a.seed, c, batches));
  }
  return streams;
}

std::vector<Preload> preloads_for(const Args& a, const Spec& spec) {
  std::vector<Preload> preloads;
  for (std::size_t c = 0; c < spec.campaigns; ++c) {
    preloads.push_back(make_preload(spec, a.seed, c));
  }
  return preloads;
}

/// What the end-to-end passes measured.
struct EndToEnd {
  std::vector<WireResult> passes;  ///< timed passes, warm-up excluded
  std::vector<double> steal;       ///< per timed pass: steal_share()
  std::vector<std::size_t> kept;   ///< the passes the statistics use
  std::vector<double> setup_s;     ///< wall seconds per pass, warm-up included
  double peak_rss_mb = 0;  ///< VmHWM after the warm-up pass's stream
  WireResult warm_up;
};

/// Runs one warm-up pass, then timed passes, each from a fresh stack:
/// set-up (preload plus server start), the timed stream, then
/// the untimed digest and audit gate. A pass is quiet when at most
/// kQuietSteal of the CPUs' time was stolen by the hypervisor during
/// its stream. Timed passes start until the quiet ones' streams took
/// `seconds` of wall time, or kBudgetPerSecond x `seconds` have passed,
/// with at least `min_passes` and at most kMaxPasses of them. The quiet
/// passes are reported, or the `min_passes` with the least steal when
/// fewer were quiet. Steal is a signal the program does not control:
/// passes are never ranked by the program's own speed.
void end_to_end(const Args& a, const Spec& spec, const itree::Mechanism& mechanism,
                double seconds, std::size_t min_passes, Spans* spans,
                EndToEnd* out) {
  const Expected expected = read_expected(expected_path(a));
  const std::vector<Stream> streams = streams_for(a, spec, spec.batches);
  const std::vector<Preload> preloads = preloads_for(a, spec);
  const double started = now_s();
  double quiet_s = 0;
  std::size_t quiet = 0;
  for (std::size_t p = 0; p <= kMaxPasses; ++p) {
    const bool warm_up = p == 0;
    if (!warm_up && out->passes.size() >= min_passes &&
        (quiet_s >= seconds || now_s() - started >= kBudgetPerSecond * seconds)) {
      break;
    }
    const double t0 = now_s();
    WireStack stack(mechanism, spec, spec.stack, a.work + "/stack",
                    PreloadSource{&preloads, ""});
    out->setup_s.push_back(now_s() - t0);
    const double steal0 = steal_s();
    const double t1 = now_s();
    WireResult w = drive(stack, spec, spec.traffic, streams,
                         warm_up ? nullptr : spans);
    const double steal = (steal_s() - steal0) / ((now_s() - t1) * online_cpus());
    if (warm_up) out->peak_rss_mb = peak_rss_mb();
    verify_final_state(stack, spec, expected, &w.failures);
    stack.stop();
    if (warm_up) {
      out->warm_up = std::move(w);
      continue;
    }
    if (steal <= kQuietSteal) {
      ++quiet;
      quiet_s += w.wall_s;
    }
    out->passes.push_back(std::move(w));
    out->steal.push_back(steal);
  }
  std::vector<std::size_t> order(out->passes.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return out->steal[x] < out->steal[y];
  });
  order.resize(std::min(order.size(), std::max(quiet, min_passes)));
  std::sort(order.begin(), order.end());
  out->kept = order;
}

std::vector<const WireResult*> all_passes(const EndToEnd& e) {
  std::vector<const WireResult*> all{&e.warm_up};
  for (const WireResult& w : e.passes) all.push_back(&w);
  return all;
}

/// Every pass, the warm-up included, counts for correctness and
/// ok_ratio, reported or not.
void settle(Report* report, const EndToEnd& e) {
  for (const WireResult* w : all_passes(e)) {
    report->count_ops(w->attempted, w->ok);
    for (const auto& f : w->failures) report->fail(f);
  }
}

/// The samples of `field` over every kept pass.
Sampler pooled(const EndToEnd& e, Sampler WireResult::*field) {
  Sampler all;
  for (const std::size_t p : e.kept) all.append(e.passes[p].*field);
  return all;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double rate(const WireResult& w, double WireResult::*count) {
  return w.wall_s > 0 ? w.*count / w.wall_s : 0.0;
}

/// Completions per wall second over all kept passes together.
double pass_rate(const EndToEnd& e, double WireResult::*count) {
  double done = 0, wall_s = 0;
  for (const std::size_t p : e.kept) {
    done += e.passes[p].*count;
    wall_s += e.passes[p].wall_s;
  }
  return wall_s > 0 ? done / wall_s : 0.0;
}

int run_end_to_end(const Args& a, const Spec& spec,
                   const itree::Mechanism& mechanism, Report* report) {
  EndToEnd e;
  end_to_end(a, spec, mechanism, a.seconds, kMinPasses, nullptr, &e);
  settle(report, e);
  const Sampler write_us = pooled(e, &WireResult::write_us);
  const Sampler read_us = pooled(e, &WireResult::read_us);
  std::uint64_t attempted = 0, ok = 0;
  for (const WireResult* w : all_passes(e)) {
    attempted += w->attempted;
    ok += w->ok;
  }
  for (std::size_t p = 0; p < e.passes.size(); ++p) {
    const WireResult& w = e.passes[p];
    const bool kept =
        std::find(e.kept.begin(), e.kept.end(), p) != e.kept.end();
    std::fprintf(stderr,
                 "pass %zu%s: steal %.2f%% | setup %.3f s | %.0f events/s, "
                 "write p50 %.1f p99 %.1f us | %.0f reads/s, read p50 %.1f "
                 "p99 %.1f us\n",
                 p + 1, kept ? " (kept)" : "", 100 * e.steal[p], e.setup_s[p + 1],
                 rate(w, &WireResult::events),
                 w.write_us.quantile(0.5), w.write_us.quantile(0.99),
                 rate(w, &WireResult::reads), w.read_us.quantile(0.5),
                 w.read_us.quantile(0.99));
  }
  report->metric("setup_s", median(e.setup_s), "s", e.setup_s.size());
  double kept_steal = 0;
  for (const std::size_t p : e.kept) kept_steal = std::max(kept_steal, e.steal[p]);
  report->info("passes_timed", std::to_string(e.passes.size()));
  report->info("passes_kept", std::to_string(e.kept.size()));
  report->info("steal_share_kept_max", std::to_string(kept_steal));
  report->metric("write_events_per_s", pass_rate(e, &WireResult::events), "1/s",
                 e.kept.size());
  report->metric("write_p50_us", write_us.quantile(0.5), "us", write_us.count());
  report->metric("write_p99_us", write_us.quantile(0.99), "us", write_us.count());
  report->metric("read_p50_us", read_us.quantile(0.5), "us", read_us.count());
  report->metric("read_p90_us", read_us.quantile(0.90), "us", read_us.count());
  // Printed, not bounded: see the README on read tails.
  report->metric("read_p99_us", read_us.quantile(0.99), "us", read_us.count());
  report->metric("read_ops_per_s", pass_rate(e, &WireResult::reads), "1/s",
                 e.kept.size());
  report->metric("peak_rss_mb", e.peak_rss_mb, "MiB");
  report->metric("ok_ratio",
                 attempted ? static_cast<double>(ok) /
                                 static_cast<double>(attempted)
                           : 0.0,
                 "ratio", attempted);
  return 0;
}

/// One wire leg of the ledger over the stream prefix, closed loop with
/// one request in flight so each RTT is a layer's unqueued cost.
struct WireLeg {
  WireResult result;
  itree::net::ServerCounters server;
  itree::router::RouterCounters router;
};

WireLeg wire_leg(const itree::Mechanism& mechanism, const Spec& spec,
                 const StackConfig& config, const std::string& image_dir,
                 const std::string& dir, const std::vector<Stream>& streams,
                 Spans* spans) {
  WireLeg leg;
  WireStack stack(mechanism, spec, config, dir, PreloadSource{nullptr, image_dir});
  const auto before = stack.server().counters();
  const auto router_before = stack.router_counters();
  Traffic traffic;
  traffic.window = 1;
  traffic.reads_per_batch = 8;
  leg.result = drive(stack, spec, traffic, streams, spans);
  const auto after = stack.server().counters();
  const auto router_after = stack.router_counters();
  leg.server.requests_served = after.requests_served - before.requests_served;
  leg.server.requests_forwarded =
      after.requests_forwarded - before.requests_forwarded;
  leg.server.backpressure_stalls =
      after.backpressure_stalls - before.backpressure_stalls;
  leg.server.events_batched = after.events_batched - before.events_batched;
  leg.server.batch_flushes = after.batch_flushes - before.batch_flushes;
  leg.router.requests_routed =
      router_after.requests_routed - router_before.requests_routed;
  leg.router.backpressure_stalls =
      router_after.backpressure_stalls - router_before.backpressure_stalls;
  stack.stop();
  return leg;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

int run_ledger(const Args& a, const Spec& spec, const itree::Mechanism& mechanism,
               Report* report) {
  Spans spans;
  // Tracing overhead: the same end-to-end pass untraced, then traced,
  // each after its own warm-up pass.
  EndToEnd plain, traced;
  end_to_end(a, spec, mechanism, 0.0, 1, nullptr, &plain);
  end_to_end(a, spec, mechanism, 0.0, 1, &spans, &traced);
  settle(report, plain);
  settle(report, traced);

  const std::string image_dir = a.work + "/image";
  seed_data_dir(mechanism, spec, image_dir, preloads_for(a, spec));
  const std::vector<Stream> streams =
      streams_for(a, spec, spec.ledger_batches);
  InProcessLedger in;
  run_inprocess_legs(mechanism, spec, image_dir, streams[0], &in, &spans);
  for (const auto& f : in.failures) report->fail(f);

  StackConfig memory = spec.stack;
  memory.durable = false;
  memory.routed = false;
  StackConfig durable = memory;
  durable.durable = true;
  StackConfig routed = memory;
  routed.routed = true;
  const WireLeg net = wire_leg(mechanism, spec, memory, image_dir,
                               a.work + "/leg", streams, &spans);
  const WireLeg disk = wire_leg(mechanism, spec, durable, image_dir,
                                a.work + "/leg", streams, &spans);
  const WireLeg hop = wire_leg(mechanism, spec, routed, image_dir,
                               a.work + "/leg", streams, &spans);
  for (const WireLeg* leg : {&net, &disk, &hop}) {
    report->count_ops(leg->result.attempted, leg->result.ok);
    for (const auto& f : leg->result.failures) report->fail(f);
  }

  const double net_write = net.result.write_us.quantile(0.5);
  const double net_read = net.result.read_us.quantile(0.5);
  const double hop_write = hop.result.write_us.quantile(0.5);
  const double hop_read = hop.result.read_us.quantile(0.5);
  const double service_batch = in.service_batch_us.quantile(0.5);

  report->metric("tree.adopt_s", in.tree_adopt_s, "s");
  report->metric("tree.append_ns_p50", in.tree_append_ns.quantile(0.5), "ns",
                 in.tree_append_ns.count());
  report->metric("core.event_ns_p50", in.core_event_ns.quantile(0.5), "ns",
                 in.core_event_ns.count());
  report->metric("core.walk_depth_mean", in.core_walk_depth_mean, "count");
  report->metric("server.batch_us_p50", service_batch, "us",
                 in.service_batch_us.count());
  report->metric("server.recording_batch_us_p50",
                 in.recording_batch_us.quantile(0.5), "us",
                 in.recording_batch_us.count());
  report->metric("server.read_ns_p50", in.service_read_ns.quantile(0.5), "ns",
                 in.service_read_ns.count());
  report->metric("server.recover_s", in.recover_s, "s");
  report->metric("server.first_write_ms", in.first_write_ms, "ms");
  report->metric("storage.batch_us_p50", in.storage_batch_us.quantile(0.5), "us",
                 in.storage_batch_us.count());
  report->metric("storage.batch_us_p99", in.storage_batch_us.quantile(0.99),
                 "us", in.storage_batch_us.count());
  report->metric("storage.commit_us_p99", in.storage_commit_us.quantile(0.99),
                 "us", in.storage_commit_us.count());
  report->metric("storage.fsync_batch_us_p50", in.fsync_batch_us.quantile(0.5),
                 "us", in.fsync_batch_us.count());
  report->metric("storage.fsyncs_per_event", in.fsyncs_per_event, "count");
  report->metric("storage.commits_per_event", in.commits_per_event, "count");
  report->metric("storage.wal_bytes_per_event", in.wal_bytes_per_event, "B");
  report->metric("net.batch_rtt_us_p50", net_write, "us",
                 net.result.write_us.count());
  report->metric("net.read_rtt_us_p50", net_read, "us",
                 net.result.read_us.count());
  report->metric("net.durable_batch_rtt_us_p50",
                 disk.result.write_us.quantile(0.5), "us",
                 disk.result.write_us.count());
  report->metric("net.events_per_flush",
                 ratio(static_cast<double>(net.server.events_batched),
                       static_cast<double>(net.server.batch_flushes)),
                 "count");
  report->metric("net.forwarded_share",
                 ratio(static_cast<double>(net.server.requests_forwarded),
                       static_cast<double>(net.server.requests_served)),
                 "ratio");
  report->metric("net.backpressure_stalls",
                 static_cast<double>(net.server.backpressure_stalls), "count");
  report->metric("router.hop_us_p50", hop_read - net_read, "us",
                 hop.result.read_us.count());
  report->metric("router.hop_write_us_p50", hop_write - net_write, "us",
                 hop.result.write_us.count());
  report->metric("router.routed_per_request",
                 ratio(static_cast<double>(hop.router.requests_routed),
                       static_cast<double>(hop.result.attempted)),
                 "count");
  report->metric("router.backpressure_stalls",
                 static_cast<double>(hop.router.backpressure_stalls), "count");
  const WireResult& plain_pass = plain.passes.front();
  report->metric("gen.lateness_us_p99", plain_pass.lateness_us.quantile(0.99),
                 "us", plain_pass.lateness_us.count());
  report->metric("gen.cpu_share", ratio(plain_pass.gen_cpu_s, plain_pass.wall_s),
                 "ratio");

  const double e2e_write = plain_pass.write_us.quantile(0.5);
  const double e2e_read = plain_pass.read_us.quantile(0.5);
  report->metric("trace.overhead_share",
                 ratio(traced.passes.front().write_us.quantile(0.5), e2e_write) -
                     1.0,
                 "ratio");
  report->metric("trace.spans", static_cast<double>(spans.size()), "count");

  // The ledger: which legs the end-to-end p50 is made of, and what is
  // left unexplained. Each wire leg adds its own cost on top of the
  // service (or storage) batch.
  const double storage_batch = in.storage_batch_us.quantile(0.5);
  const double net_cost = net_write - service_batch;
  const double base = spec.stack.durable ? storage_batch : service_batch;
  const double write_accounted =
      base + net_cost + (spec.stack.routed ? hop_write - net_write : 0.0);
  const double read_accounted = spec.stack.routed ? hop_read : net_read;
  report->metric("ledger.write_accounted_us", write_accounted, "us");
  report->metric("ledger.write_unexplained_us", e2e_write - write_accounted, "us");
  report->metric("ledger.read_accounted_us", read_accounted, "us");
  report->metric("ledger.read_unexplained_us", e2e_read - read_accounted, "us");

  std::fprintf(stderr,
               "ledger %s (p50s): tree %.0f ns/ev | core %.0f ns/ev | service "
               "batch %.1f us, read %.0f ns | recording batch %.1f us | storage "
               "batch %.1f us | wire batch %.1f us, read %.1f us | durable wire "
               "batch %.1f us | routed batch %.1f us, read %.1f us | e2e write "
               "%.1f us (unexplained %.1f), read %.2f us (unexplained %.2f)\n",
               spec.name.c_str(), in.tree_append_ns.quantile(0.5),
               in.core_event_ns.quantile(0.5), service_batch,
               in.service_read_ns.quantile(0.5),
               in.recording_batch_us.quantile(0.5), storage_batch, net_write,
               net_read, disk.result.write_us.quantile(0.5), hop_write, hop_read,
               e2e_write, e2e_write - write_accounted, e2e_read,
               e2e_read - read_accounted);
  spans.write_csv(a.work + "/spans.csv");
  return 0;
}

int main_impl(int argc, char** argv) {
  const Args a = parse(argc, argv);
  const Spec spec = make_spec(a.workload, a.tiny);
  const auto mechanism = itree::make_mechanism(spec.mechanism);
  if (a.mode == "prepare") return prepare(a, spec, *mechanism);
  if (a.mode != "run") throw std::invalid_argument("unknown mode " + a.mode);
  Report report;
  report.info("mechanism", mechanism->display_name());
  report.info("build_type", PERFBENCH_BUILD_TYPE);
  report.info("compiler", PERFBENCH_COMPILER);
  report.info("campaigns", std::to_string(spec.campaigns));
  report.info("fsync_policy", itree::storage::to_string(kWalFsync));
  report.info("preload_per_campaign", std::to_string(spec.preload));
  report.info("batches_per_campaign_per_pass", std::to_string(spec.batches));
  const Expected expected = read_expected(expected_path(a));
  std::string end_nodes;
  for (const auto n : expected.nodes) {
    if (!end_nodes.empty()) end_nodes += ',';
    end_nodes += std::to_string(n - 1);
  }
  report.info("participants_end_per_campaign", end_nodes);
  if (a.trace) {
    run_ledger(a, spec, *mechanism, &report);
  } else {
    run_end_to_end(a, spec, *mechanism, &report);
  }
  std::cout << report.json() << std::endl;
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
}
