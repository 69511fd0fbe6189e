#include "wire.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <stdexcept>

#include "storage/snapshot.h"
#include "storage/storage.h"

namespace perfbench {

namespace fs = std::filesystem;
using itree::net::MsgType;
using itree::net::Request;
using itree::net::Response;
using itree::net::Status;

namespace {

/// One non-blocking client connection speaking the framed protocol.
class Conn {
 public:
  explicit Conn(std::uint16_t port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    for (int attempt = 0;; ++attempt) {
      fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (fd_ < 0) throw std::runtime_error("socket() failed");
      if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        break;
      }
      ::close(fd_);
      fd_ = -1;
      if (attempt >= 100) throw std::runtime_error("connect() failed");
      ::usleep(10000);
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
  }
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd() const { return fd_; }
  void queue(const Request& request) {
    out_ += itree::net::frame(itree::net::encode_request(request));
  }
  bool want_write() const { return sent_ < out_.size(); }

  /// Writes what the socket takes; false on a hard error.
  bool flush() {
    while (sent_ < out_.size()) {
      const ssize_t n = ::send(fd_, out_.data() + sent_, out_.size() - sent_,
                               MSG_NOSIGNAL);
      if (n > 0) {
        sent_ += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        return false;
      }
    }
    if (sent_ == out_.size()) {
      out_.clear();
      sent_ = 0;
    }
    return true;
  }

  /// Decodes every complete response the socket has; false on EOF,
  /// error or wire garbage.
  bool receive(std::vector<Response>* out) {
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n > 0) {
        decoder_.feed(buf, static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < sizeof(buf)) break;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        return false;
      }
    }
    std::string payload;
    while (decoder_.next(&payload)) {
      out->push_back(itree::net::decode_response(payload));
    }
    return !decoder_.corrupt();
  }

  /// Blocking round trip (set-up, probes and final checks only).
  Response call(const Request& request, double timeout_s = 60.0) {
    queue(request);
    const double deadline = now_s() + timeout_s;
    std::vector<Response> got;
    while (got.empty()) {
      if (!flush()) throw std::runtime_error("send failed");
      pollfd p{fd_, static_cast<short>(POLLIN | (want_write() ? POLLOUT : 0)),
               0};
      ::poll(&p, 1, 100);
      if ((p.revents & POLLIN) && !receive(&got)) {
        throw std::runtime_error("connection lost");
      }
      if (now_s() > deadline) throw std::runtime_error("request timed out");
    }
    return got.front();
  }

 private:
  int fd_ = -1;
  std::string out_;
  std::size_t sent_ = 0;
  itree::net::FrameDecoder decoder_;
};

}  // namespace

itree::storage::StorageConfig storage_config(const Spec& spec,
                                             const std::string& dir) {
  itree::storage::StorageConfig config;
  config.data_dir = dir;
  config.fsync = kWalFsync;
  // One segment per pass: opening a segment fsyncs the directory, a
  // shared-disk round trip the workloads keep off their timed path.
  config.segment_bytes = 1u << 30;
  config.mechanism_name = spec.mechanism;
  return config;
}

std::string latest_snapshot(const std::string& dir) {
  const auto snaps = itree::storage::list_snapshots(dir);
  if (snaps.empty()) throw std::runtime_error("no snapshot in " + dir);
  return dir + "/" + snaps.back().second;
}

void seed_data_dir(const itree::Mechanism& mechanism, const Spec& spec,
                   const std::string& dir, const std::vector<Preload>& trees) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  itree::storage::Storage seed(mechanism, spec.campaigns,
                               storage_config(spec, dir));
  for (std::size_t c = 0; c < spec.campaigns; ++c) {
    const itree::Tree tree = trees[c].tree();
    seed.campaign(c).restore_snapshot(tree, tree.participant_count());
  }
  seed.snapshot_now();
}

namespace {

Request make_request(MsgType type, std::size_t campaign, NodeId node = 0) {
  Request r;
  r.type = type;
  r.campaign = static_cast<std::uint32_t>(campaign);
  r.node = node;
  return r;
}

}  // namespace

WireStack::WireStack(const itree::Mechanism& mechanism, const Spec& spec,
                     const StackConfig& config, const std::string& dir,
                     const PreloadSource& preload) {
  itree::net::ServerConfig server_config;
  server_config.campaigns = spec.campaigns;
  server_config.reactors = config.reactors;
  if (config.durable) {
    if (preload.trees != nullptr) {
      seed_data_dir(mechanism, spec, dir, *preload.trees);
    } else {
      fs::remove_all(dir);
      fs::create_directories(dir);
      for (const auto& entry : fs::directory_iterator(preload.image_dir)) {
        fs::copy_file(entry.path(), dir + "/" + entry.path().filename().string());
      }
    }
    server_config.storage = storage_config(spec, dir);
  }
  server_ = std::make_unique<itree::net::Server>(mechanism, server_config);
  if (!config.durable) {
    std::optional<itree::storage::SnapshotData> image;
    if (!preload.image_dir.empty()) {
      image = itree::storage::MappedSnapshot(latest_snapshot(preload.image_dir))
                  .materialize();
    }
    for (std::size_t c = 0; c < spec.campaigns; ++c) {
      if (image) {
        auto& snap = image->campaigns[c];
        server_->mutable_campaign(c).adopt_snapshot(
            std::move(snap.tree), snap.events_applied, snap.aggregates);
      } else {
        const itree::Tree tree = (*preload.trees)[c].tree();
        server_->mutable_campaign(c).restore_snapshot(tree,
                                                      tree.participant_count());
      }
    }
  }
  auto run = [](auto* service) {
    try {
      service->run();
    } catch (const std::exception& error) {
      std::fprintf(stderr, "perfbench: serving thread failed: %s\n",
                   error.what());
      std::_Exit(3);
    }
  };
  threads_.emplace_back(run, server_.get());
  try {
    if (config.routed) {
      itree::router::RouterConfig router_config;
      router_config.campaigns = static_cast<std::uint32_t>(spec.campaigns);
      router_config.shards = {"127.0.0.1:" + std::to_string(server_->port())};
      router_config.reactors = 1;
      router_ = std::make_unique<itree::router::Router>(router_config);
      threads_.emplace_back(run, router_.get());
    }
    // Serving starts when every campaign answers through the entry point
    // (the router dials its backends asynchronously).
    for (std::size_t c = 0; c < spec.campaigns; ++c) {
      Conn probe(port());
      for (int attempt = 0;; ++attempt) {
        const Response r = probe.call(make_request(MsgType::kStats, c));
        if (r.ok()) break;
        if (attempt > 1000) throw std::runtime_error("stack never came up");
        ::usleep(2000);
      }
    }
  } catch (...) {
    stop();  // a constructor that throws runs no destructor
    throw;
  }
}

WireStack::~WireStack() { stop(); }

std::uint16_t WireStack::port() const {
  return router_ ? router_->port() : server_->port();
}

itree::router::RouterCounters WireStack::router_counters() const {
  return router_ ? router_->counters() : itree::router::RouterCounters{};
}

void WireStack::stop() {
  if (stopped_) return;
  stopped_ = true;
  if (router_) router_->request_shutdown();
  server_->request_shutdown();
  for (auto& t : threads_) t.join();
}

namespace {

struct InFlight {
  bool batch = false;
  std::size_t campaign = 0;
  std::size_t index = 0;  ///< batch index or read index
  std::int64_t due = 0;   ///< open loop: scheduled send time
  std::int64_t sent = 0;
  std::uint32_t span = Spans::kNone;
};

struct Endpoint {
  std::unique_ptr<Conn> conn;
  std::size_t campaign = 0;  ///< writers only
  std::size_t next = 0;      ///< position in the request sequence
  std::size_t total = 0;
  std::int64_t freed_at = 0;
  std::deque<InFlight> inflight;
};

/// Dials `port` until the connection lands on (or off) the reactor
/// owning campaign 0, told apart by whether a probe read is forwarded.
std::unique_ptr<Conn> place(WireStack& stack, std::uint16_t port,
                            bool on_owner, std::vector<std::string>* notes) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    auto conn = std::make_unique<Conn>(port);
    const auto before = stack.server().counters().requests_forwarded;
    conn->call(make_request(MsgType::kReward, 0, 1));
    const bool forwarded =
        stack.server().counters().requests_forwarded != before;
    if (forwarded != on_owner) return conn;
  }
  notes->push_back("connection placement not reached after 200 dials");
  return std::make_unique<Conn>(port);
}

}  // namespace

WireResult drive(WireStack& stack, const Spec& spec, const Traffic& traffic,
                 const std::vector<Stream>& streams, Spans* spans) {
  WireResult result;
  const bool placed = spec.stack.reactors > 1 && !stack.routed();
  const std::size_t cycle = 1 + traffic.reads_per_batch;
  std::vector<Endpoint> writers(spec.campaigns);
  for (std::size_t c = 0; c < spec.campaigns; ++c) {
    writers[c].conn = placed ? place(stack, stack.port(), true,
                                     &result.failures)
                             : std::make_unique<Conn>(stack.port());
    writers[c].campaign = c;
    writers[c].total = streams[c].batch_count() * cycle;
  }
  Endpoint reader;
  const bool open_loop = traffic.open_read_rate > 0.0;
  if (open_loop) {
    reader.conn = placed ? place(stack, stack.port(), false,
                                 &result.failures)
                         : std::make_unique<Conn>(stack.port());
  }
  const double spacing_ns = open_loop ? 1e9 / traffic.open_read_rate : 0.0;

  const std::int64_t t0 = now_ns();
  const double cpu0 = thread_cpu_s();
  std::uint64_t request_id = 0;
  auto due_of = [&](std::size_t i) {
    return t0 + static_cast<std::int64_t>(static_cast<double>(i) * spacing_ns);
  };
  auto writers_done = [&] {
    for (const auto& w : writers) {
      if (w.next < w.total || !w.inflight.empty()) return false;
    }
    return true;
  };
  std::vector<pollfd> fds;
  std::vector<Response> responses;
  bool broken = false;

  while (!broken) {
    const bool writing = !writers_done();
    if (!writing && reader.inflight.empty()) break;
    std::int64_t now = now_ns();
    if ((now - t0) > 150'000'000'000LL) {
      result.failures.push_back("wire pass exceeded 150 s");
      break;
    }
    for (auto& w : writers) {
      while (w.inflight.size() < traffic.window && w.next < w.total) {
        const std::size_t b = w.next / cycle;
        const std::size_t r = w.next % cycle;
        const Stream& stream = streams[w.campaign];
        InFlight f;
        f.campaign = w.campaign;
        Request request;
        if (r == 0) {
          request = make_request(MsgType::kEventBatch, w.campaign);
          request.batch.assign(
              stream.events.begin() + static_cast<std::ptrdiff_t>(b * stream.batch),
              stream.events.begin() +
                  static_cast<std::ptrdiff_t>((b + 1) * stream.batch));
          f.batch = true;
          f.index = b;
        } else {
          f.index = b * traffic.reads_per_batch + (r - 1);
          request = make_request(MsgType::kReward, w.campaign,
                                 stream.reads[f.index]);
        }
        w.conn->queue(request);
        now = now_ns();
        if (!open_loop && w.freed_at != 0) {
          result.lateness_us.add(static_cast<double>(now - w.freed_at) * 1e-3);
          w.freed_at = 0;
        }
        f.sent = now;
        if (spans) {
          f.span = spans->open(f.batch ? "wire.batch" : "wire.read",
                               Spans::kNone, ++request_id);
        }
        w.inflight.push_back(f);
        ++w.next;
        ++result.attempted;
      }
    }
    if (open_loop && writing) {
      std::size_t i = reader.next;
      while (due_of(i) <= now_ns()) {
        const std::size_t c = i % spec.campaigns;
        const std::size_t k = i / spec.campaigns;
        if (k >= streams[c].reads.size()) break;
        InFlight f;
        f.campaign = c;
        f.index = k;
        f.due = due_of(i);
        reader.conn->queue(make_request(MsgType::kReward, c, streams[c].reads[k]));
        f.sent = now_ns();
        result.lateness_us.add(static_cast<double>(f.sent - f.due) * 1e-3);
        if (spans) f.span = spans->open("wire.read", Spans::kNone, ++request_id);
        reader.inflight.push_back(f);
        ++result.attempted;
        reader.next = ++i;
      }
    }

    fds.clear();
    auto watch = [&](Endpoint& e) {
      if (!e.conn->flush()) broken = true;
      fds.push_back({e.conn->fd(),
                     static_cast<short>(POLLIN | (e.conn->want_write() ? POLLOUT : 0)),
                     0});
    };
    for (auto& w : writers) watch(w);
    if (open_loop) watch(reader);
    std::int64_t wait_ns = 100'000'000;
    if (open_loop && writing) {
      wait_ns = std::max<std::int64_t>(0, due_of(reader.next) - now_ns());
    }
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                      static_cast<long>(wait_ns % 1'000'000'000)};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) < 0 && errno != EINTR) {
      result.failures.push_back("ppoll failed");
      break;
    }

    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      Endpoint& e = i < writers.size() ? writers[i] : reader;
      if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) broken = true;
      responses.clear();
      if ((fds[i].revents & POLLIN) && !e.conn->receive(&responses)) {
        broken = true;
      }
      for (const Response& r : responses) {
        const std::int64_t t = now_ns();
        if (e.inflight.empty()) {
          result.failures.push_back("response without a request");
          broken = true;
          break;
        }
        const InFlight f = e.inflight.front();
        e.inflight.pop_front();
        e.freed_at = t;
        if (spans) spans->close(f.span);
        const Stream& stream = streams[f.campaign];
        if (f.batch) {
          bool good = r.status == Status::kOkBatch &&
                      r.batch_results.size() == stream.batch &&
                      r.batch_count == stream.batch;
          for (std::size_t k = 0; good && k < stream.batch; ++k) {
            good = r.batch_results[k] ==
                   stream.expected_ids[f.index * stream.batch + k];
          }
          if (!good) {
            result.failures.push_back(
                "campaign " + std::to_string(f.campaign) + " batch " +
                std::to_string(f.index) + ": unexpected ack (" +
                (r.ok() ? "id mismatch" : r.message) + ")");
            continue;
          }
          result.write_us.add(static_cast<double>(t - f.sent) * 1e-3);
          result.events += static_cast<double>(stream.batch);
        } else {
          if (r.status != Status::kOkValue || !std::isfinite(r.value) ||
              r.value < 0.0) {
            result.failures.push_back("campaign " + std::to_string(f.campaign) +
                                      ": bad reward reply (" + r.message + ")");
            continue;
          }
          const std::int64_t from = open_loop ? f.due : f.sent;
          result.read_us.add(static_cast<double>(t - from) * 1e-3);
          result.reads += 1.0;
        }
        ++result.ok;
      }
    }
  }
  if (broken) result.failures.push_back("connection broken during the pass");
  result.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  result.gen_cpu_s = thread_cpu_s() - cpu0;
  return result;
}

void verify_final_state(WireStack& stack, const Spec& spec,
                        const Expected& expected,
                        std::vector<std::string>* failures) {
  for (std::size_t c = 0; c < spec.campaigns; ++c) {
    Conn conn(stack.port());
    const Response rewards = conn.call(make_request(MsgType::kRewardsBatch, c));
    if (rewards.status != Status::kOkVector ||
        rewards.rewards.size() != expected.nodes[c] ||
        digest(rewards.rewards) != expected.digests[c]) {
      failures->push_back("campaign " + std::to_string(c) +
                          ": served rewards digest " + hex(digest(rewards.rewards)) +
                          " over " + std::to_string(rewards.rewards.size()) +
                          " nodes != in-process " + hex(expected.digests[c]) +
                          " over " + std::to_string(expected.nodes[c]));
    }
    const Response audit = conn.call(make_request(MsgType::kAudit, c));
    if (audit.status != Status::kOkValue || !(audit.value < 1e-9)) {
      failures->push_back("campaign " + std::to_string(c) + ": audit " +
                          std::to_string(audit.value) + " >= 1e-9");
    }
  }
}

}  // namespace perfbench
