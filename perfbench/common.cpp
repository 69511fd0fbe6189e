#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "util/rng.h"

namespace perfbench {

Spec make_spec(const std::string& workload, bool tiny) {
  Spec s;
  s.name = workload;
  // Both workloads: a 2-reactor net::Server with a Storage WAL behind
  // it, 2 campaigns x 200k preloaded, one closed-loop writer connection
  // per campaign, and a third connection sending open-loop point reads
  // at 5k/s.
  s.campaigns = 2;
  s.preload = tiny ? 5000 : 200000;
  s.join_share = 0.3;
  s.stack = {2, true, false};
  s.ledger_batches = tiny ? 20 : 500;
  if (workload == "ingest_durable") {
    // TDRM, 64-event batches: the RCT-chain engine and the WAL
    // encode/CRC/write/group-commit path dominate.
    s.mechanism = "tdrm";
    s.batch = 64;
    s.batches = tiny ? 30 : 3000;
    s.traffic = {4, 0, 5000.0};
  } else if (workload == "ingest_small_batches") {
    // Geometric, 16-event batches: four times the frames per event, so
    // per-frame protocol, reactor and commit cost weigh more.
    s.mechanism = "geometric";
    s.batch = 16;
    s.batches = tiny ? 60 : 12000;
    s.traffic = {8, 0, 5000.0};
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  return s;
}

itree::Tree Preload::tree() const {
  return itree::Tree::from_arrays(parents, contributions);
}

Preload make_preload(const Spec& spec, std::uint64_t seed,
                     std::size_t campaign) {
  itree::Rng rng(itree::Rng::derive_seed(seed, 1000 + campaign));
  Preload p;
  p.parents.resize(spec.preload);
  p.contributions.resize(spec.preload);
  for (std::size_t i = 0; i < spec.preload; ++i) {
    const auto u = static_cast<std::int64_t>(i + 1);
    p.parents[i] = (u == 1 || rng.bernoulli(0.1))
                       ? itree::kRoot
                       : static_cast<NodeId>(rng.uniform_int(1, u - 1));
    p.contributions[i] = rng.uniform(0.5, 2.0);
  }
  return p;
}

Stream make_stream(const Spec& spec, std::uint64_t seed, std::size_t campaign,
                   std::size_t batches) {
  itree::Rng rng(itree::Rng::derive_seed(seed, 2000 + campaign));
  Stream s;
  s.batch = spec.batch;
  s.events.reserve(batches * spec.batch);
  s.expected_ids.reserve(batches * spec.batch);
  auto participants = static_cast<std::int64_t>(spec.preload);
  for (std::size_t b = 0; b < batches; ++b) {
    for (std::size_t i = 0; i < spec.batch; ++i) {
      const auto node = static_cast<NodeId>(rng.uniform_int(1, participants));
      if (rng.bernoulli(spec.join_share)) {
        s.events.push_back({BatchEvent::kJoin, node, rng.uniform(0.5, 2.0)});
        s.expected_ids.push_back(static_cast<NodeId>(++participants));
      } else {
        s.events.push_back(
            {BatchEvent::kContribute, node, rng.uniform(0.1, 1.0)});
        s.expected_ids.push_back(0);
      }
    }
  }
  // Read pool: preloaded ids only, so a read never races the writer
  // connection that creates its target. Sized far beyond any pass (the
  // open-loop reader stops when the writers finish).
  itree::Rng read_rng(itree::Rng::derive_seed(seed, 3000 + campaign));
  const auto pool = static_cast<std::size_t>(spec.traffic.open_read_rate * 120);
  s.reads.reserve(pool);
  for (std::size_t r = 0; r < pool; ++r) {
    s.reads.push_back(static_cast<NodeId>(
        read_rng.uniform_int(1, static_cast<std::int64_t>(spec.preload))));
  }
  return s;
}

std::uint64_t digest(const std::vector<double>& rewards) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  mix(rewards.size());
  for (std::size_t i = 1; i < rewards.size(); ++i) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(double));
    std::memcpy(&bits, &rewards[i], sizeof(bits));
    mix(bits);
  }
  return h;
}

std::string hex(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

void write_expected(const std::string& path, const Expected& expected) {
  std::ofstream out(path);
  for (std::size_t c = 0; c < expected.digests.size(); ++c) {
    out << hex(expected.digests[c]) << ' ' << expected.nodes[c] << '\n';
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

Expected read_expected(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("missing " + path + " (run prepare first)");
  Expected e;
  std::string digest_hex;
  std::size_t nodes = 0;
  while (in >> digest_hex >> nodes) {
    e.digests.push_back(std::stoull(digest_hex, nullptr, 16));
    e.nodes.push_back(nodes);
  }
  return e;
}

double Sampler::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> v = values_;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t k = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

std::uint32_t Spans::open(const char* layer, std::uint32_t parent,
                          std::uint64_t request) {
  spans_.push_back({layer, parent, request, now_ns(), 0});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void Spans::write_csv(const std::string& path) const {
  std::ofstream out(path);
  out << "span,layer,parent,request,start_ns,end_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << ',' << s.layer << ','
        << (s.parent == kNone ? std::string("-") : std::to_string(s.parent))
        << ',' << s.request << ',' << s.start << ',' << s.end << '\n';
  }
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  metrics_[name] = {value, unit, samples};
}

void Report::fail(const std::string& why) {
  if (failures_.size() < 20) failures_.push_back(why);
}

namespace {
std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
}  // namespace

std::string Report::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_
      << ", \"failed\": " << (attempted_ - std::min(ok_, attempted_))
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    out << (first ? "" : ", ") << quote(name) << ": {\"value\": "
        << number(m.value) << ", \"unit\": " << quote(m.unit)
        << ", \"samples\": " << m.samples << "}";
    first = false;
  }
  out << "}, \"info\": {";
  first = true;
  for (const auto& [key, value] : info_) {
    out << (first ? "" : ", ") << quote(key) << ": " << quote(value);
    first = false;
  }
  out << "}, \"failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    out << (i ? ", " : "") << quote(failures_[i]);
  }
  out << "]}";
  return out.str();
}

double steal_s() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double user, nice, system, idle, iowait, irq, softirq, steal;
  if (!(stat >> cpu >> user >> nice >> system >> idle >> iowait >> irq >>
        softirq >> steal) ||
      cpu != "cpu") {
    return 0.0;
  }
  return steal / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double online_cpus() {
  return static_cast<double>(std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN)));
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the kernel reports kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::int64_t cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::uint64_t wal_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".log") total += entry.file_size();
  }
  return total;
}

void remove_wal(const std::string& dir) {
  std::vector<std::filesystem::path> wal;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".log") wal.push_back(entry.path());
  }
  for (const auto& path : wal) std::filesystem::remove(path);
}

}  // namespace perfbench
