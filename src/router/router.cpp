#include "router/router.h"

#include <arpa/inet.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <stdexcept>

#include "net/retry.h"
#include "net/session_loop.h"
#include "net/spsc_ring.h"
#include "util/bench_json.h"  // monotonic_seconds
#include "util/io.h"

namespace itree::router {

using net::ErrorCode;
using net::FrameDecoder;
using net::MsgType;
using net::Response;
using net::ServerStatsBody;
using net::SessionLoop;
using net::Status;

namespace {

/// Backend reconnect schedule: 10 ms doubling to 640 ms (net/retry.h).
/// A supervisor restart notification resets it to dial immediately.
constexpr std::chrono::milliseconds kReconnectInitial(10);
constexpr std::chrono::milliseconds kReconnectCap(640);

/// Restart-notification ring capacity per reactor; a full ring only
/// delays the redial to the next backoff attempt, so small is fine.
constexpr std::size_t kRestartRingCapacity = 64;

/// Resolves "a.b.c.d:port" to the address every dial uses; throws
/// std::invalid_argument naming the endpoint on anything else.
sockaddr_in parse_endpoint(const std::string& text) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == text.size()) {
    throw std::invalid_argument("Router: expected HOST:PORT, got '" + text +
                                "'");
  }
  char* end = nullptr;
  const unsigned long port =
      std::strtoul(text.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || port == 0 || port > 65535) {
    throw std::invalid_argument("Router: bad port in '" + text + "'");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, text.substr(0, colon).c_str(),
                  &addr.sin_addr) != 1) {
    throw std::invalid_argument("Router: shard endpoint '" + text +
                                "' is not an IPv4 address:port");
  }
  return addr;
}

/// Little-endian u32 at `offset` of a raw request payload (the routing
/// peek — the router never decodes a routed frame beyond this).
std::uint32_t peek_u32(std::string_view payload, std::size_t offset) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(
             static_cast<std::uint8_t>(payload[offset + i]))
         << (8 * i);
  }
  return v;
}

bool carries_campaign(MsgType type) {
  switch (type) {
    case MsgType::kJoin:
    case MsgType::kContribute:
    case MsgType::kReward:
    case MsgType::kRewardsBatch:
    case MsgType::kAudit:
    case MsgType::kStats:
    case MsgType::kEventBatch:
    case MsgType::kRewardAt:
      return true;
    default:
      return false;
  }
}

bool is_replication(MsgType type) {
  switch (type) {
    case MsgType::kReplHello:
    case MsgType::kReplSnapshot:
    case MsgType::kReplSegment:
    case MsgType::kReplHeartbeat:
      return true;
    default:
      return false;
  }
}

}  // namespace

// --- RouterReactor ----------------------------------------------------

/// The router's SessionLoop handler: the backend pool, SHARD_MAP and
/// the SERVER_STATS fan-out.
class RouterReactor final : public SessionLoop::Handler {
 public:
  /// Router-specific counter slots; the session counters live in the
  /// loop. Router::counters() sums both across reactors.
  enum Counter : std::size_t {
    kRequestsRouted,
    kResponsesRelayed,
    kAnsweredLocally,
    kShardDownErrors,
    kBackendFailures,
    kBackendReconnects,
    kStatsResets,
    kCounterCount,
  };

  /// One SERVER_STATS fan-out in flight: a leg per shard; the summed
  /// body (or the first failure's error) is delivered to the client
  /// once every leg resolved.
  struct StatsJoin {
    int fd = -1;
    std::uint64_t serial = 0;
    std::uint64_t seq = 0;
    std::size_t remaining = 0;
    bool failed = false;
    std::string error_payload;  ///< first failing leg's encoded response
    ServerStatsBody sum;
  };

  /// One routed frame awaiting its backend response. Workers answer
  /// strictly in request order per connection, so a FIFO of these per
  /// backend is the whole correlation state.
  struct Pending {
    int fd = -1;  ///< client session (serial guards fd reuse)
    std::uint64_t serial = 0;
    std::uint64_t seq = 0;  ///< the session sequencer slot to release
    std::shared_ptr<StatsJoin> stats;  ///< non-null: a fan-out leg
  };

  /// One pooled, pipelined connection to a shard worker.
  struct Backend {
    std::uint32_t shard = 0;
    sockaddr_in addr{};    ///< resolved once, at Router construction
    std::string endpoint;  ///< original "host:port" for error frames
    int fd = -1;
    bool connecting = false;
    bool ever_connected = false;
    FrameDecoder decoder;
    std::string out;
    std::size_t out_sent = 0;
    std::deque<Pending> pending;
    net::Backoff backoff{kReconnectInitial, kReconnectCap};
    double next_attempt = 0.0;  ///< monotonic deadline; 0 = dial now
    bool touched = false;
    /// Last stats_seq observed from this worker (restart detection).
    std::uint64_t last_stats_seq = 0;

    bool connected() const { return fd >= 0 && !connecting; }
    std::size_t out_bytes() const { return out.size() - out_sent; }
  };

  RouterReactor(Router& router, std::uint16_t port);
  ~RouterReactor();

  SessionLoop& loop() { return loop_; }
  const SessionLoop& loop() const { return loop_; }

  /// Dials every shard; called before the loop serves its first frame.
  /// Failures land on the backoff schedule.
  void dial_backends() {
    for (Backend& backend : backends_) {
      start_connect(backend);
    }
  }

  /// Supervisor monitor thread -> this reactor: worker `shard` came
  /// back; redial without waiting out the backoff.
  void push_restart(std::uint32_t shard) {
    // A full ring only delays the redial to the next backoff attempt.
    restart_ring_.push(std::uint32_t{shard});
    loop_.wake();
  }

  std::uint64_t counter(Counter c) const {
    return counters_[c].load(std::memory_order_relaxed);
  }

  void on_frame(SessionLoop::Session& session, std::uint64_t seq,
                const std::string& payload) override;
  void on_fd_ready(int fd, std::uint32_t events) override;
  void on_tick() override;
  int next_timeout_ms() override;

 private:
  using Session = SessionLoop::Session;

  void count(Counter c, std::uint64_t n = 1) {
    counters_[c].fetch_add(n, std::memory_order_relaxed);
  }

  std::uint32_t shard_of(std::uint32_t campaign) const {
    return campaign % static_cast<std::uint32_t>(backends_.size());
  }

  void serve_shard_map(Session& session, std::uint64_t seq);
  void serve_server_stats(Session& session, std::uint64_t seq,
                          const std::string& payload);
  void handle_stats_leg(Backend& backend, const Pending& pending,
                        const std::string& payload);
  void fail_stats_leg(StatsJoin& join, std::string error_payload);
  void complete_stats(StatsJoin& join);
  void forward(Backend& backend, std::string_view payload,
               Pending&& pending);
  void deliver_error(Session& session, std::uint64_t seq, ErrorCode code,
                     std::string message);

  void start_connect(Backend& backend);
  void on_backend_connected(Backend& backend);
  void on_backend_readable(Backend& backend);
  void on_backend_writable(Backend& backend);
  void fail_backend(Backend& backend, const std::string& reason);
  void schedule_reconnect(Backend& backend);
  void flush_backend(Backend& backend);
  void update_backend_interest(Backend& backend);
  Response shard_down(const Backend& backend, const std::string& reason);
  void drain_restart_ring();

  Router& router_;
  SessionLoop loop_;
  std::vector<Backend> backends_;  ///< indexed by shard
  /// Supervisor restart notifications (producer: monitor thread).
  net::SpscRing<std::uint32_t> restart_ring_{kRestartRingCapacity};
  std::atomic<std::uint64_t> counters_[kCounterCount] = {};
};

RouterReactor::RouterReactor(Router& router, std::uint16_t port)
    : router_(router),
      loop_(SessionLoop::Options{"Router", router.config_.host, port,
                                 router.config_.idle_timeout_seconds,
                                 router.config_.max_write_buffer},
            *this) {
  backends_.resize(router_.shard_addrs_.size());
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    Backend& backend = backends_[i];
    backend.shard = static_cast<std::uint32_t>(i);
    backend.addr = router_.shard_addrs_[i];
    backend.endpoint = router_.config_.shards[i];
  }
}

RouterReactor::~RouterReactor() {
  for (Backend& backend : backends_) {
    if (backend.fd >= 0) {
      ::close(backend.fd);
    }
  }
}

int RouterReactor::next_timeout_ms() {
  const double now = monotonic_seconds();
  double deadline_ms = -1.0;
  for (const Backend& backend : backends_) {
    if (backend.fd >= 0) {
      continue;  // up or dialling: epoll will say
    }
    const double wait_ms = (backend.next_attempt - now) * 1000.0;
    if (wait_ms <= 0.0) {
      return 0;  // a redial is due right now
    }
    if (deadline_ms < 0.0 || wait_ms < deadline_ms) {
      deadline_ms = wait_ms;
    }
  }
  return deadline_ms < 0.0 ? -1
                           : std::max(1, static_cast<int>(deadline_ms) + 1);
}

void RouterReactor::on_fd_ready(int fd, std::uint32_t events) {
  const auto it =
      std::find_if(backends_.begin(), backends_.end(),
                   [fd](const Backend& backend) { return backend.fd == fd; });
  if (it == backends_.end()) {
    return;  // replaced earlier this tick
  }
  Backend& backend = *it;
  if (events & (EPOLLERR | EPOLLHUP)) {
    fail_backend(backend, "connection to worker lost");
    return;
  }
  if (events & EPOLLOUT) {
    on_backend_writable(backend);
  }
  if (backend.fd == fd && (events & EPOLLIN)) {
    on_backend_readable(backend);
  }
}

void RouterReactor::on_tick() {
  drain_restart_ring();
  const double now = monotonic_seconds();
  bool stalled = false;
  for (Backend& backend : backends_) {
    if (backend.fd < 0 && now >= backend.next_attempt) {
      start_connect(backend);
    }
    if (backend.touched) {
      backend.touched = false;
      if (backend.connected()) {
        flush_backend(backend);
      }
    }
    stalled = stalled ||
              backend.out_bytes() > router_.config_.max_backend_buffer;
  }
  // Any backend past max_backend_buffer stalls reads on every session
  // (coarse head-of-line backpressure; docs/sharding.md).
  loop_.set_read_paused(stalled);
}

void RouterReactor::on_frame(Session& session, std::uint64_t seq,
                             const std::string& payload) {
  // The routing peek: type byte + (for campaign frames) the campaign
  // id. Everything else in the payload is the worker's business — the
  // frame crosses the router byte-for-byte, so a malformed body earns
  // its kBadRequest from the worker and the error frame passes back
  // through unchanged.
  const MsgType type = static_cast<MsgType>(
      static_cast<std::uint8_t>(payload[0]));
  if (carries_campaign(type)) {
    if (payload.size() < 5) {
      loop_.count(SessionLoop::kProtocolErrors);
      deliver_error(session, seq, ErrorCode::kBadRequest,
                    "message body truncated");
      return;
    }
    const std::uint32_t campaign = peek_u32(payload, 1);
    if (campaign >= router_.config_.campaigns) {
      deliver_error(session, seq, ErrorCode::kUnknownCampaign,
                    "unknown campaign " + std::to_string(campaign));
      return;
    }
    Backend& backend = backends_[shard_of(campaign)];
    if (!backend.connected()) {
      count(kShardDownErrors);
      loop_.deliver(session, seq,
                    shard_down(backend, "no connection to worker"));
      return;
    }
    forward(backend, payload, Pending{session.fd, session.serial, seq, {}});
    count(kRequestsRouted);
    return;
  }
  switch (type) {
    case MsgType::kShutdown:
      if (router_.config_.allow_remote_shutdown) {
        router_.request_shutdown();
        loop_.deliver(session, seq, Response{});  // kOk
        count(kAnsweredLocally);
      } else {
        deliver_error(session, seq, ErrorCode::kRejected,
                      "remote shutdown is disabled");
      }
      return;
    case MsgType::kServerStats:
      serve_server_stats(session, seq, payload);
      return;
    case MsgType::kShardMap:
      serve_shard_map(session, seq);
      return;
    default:
      if (is_replication(type)) {
        // A replication stream is one shard's WAL; fanning it through
        // the router would splice shard histories. Replicas dial their
        // shard's worker directly (docs/sharding.md).
        deliver_error(session, seq, ErrorCode::kRejected,
                      "replication streams must target a shard worker "
                      "directly, not the router");
        return;
      }
      loop_.count(SessionLoop::kProtocolErrors);
      deliver_error(
          session, seq, ErrorCode::kBadRequest,
          "unknown request type " +
              std::to_string(static_cast<std::uint8_t>(type)));
      return;
  }
}

void RouterReactor::deliver_error(Session& session, std::uint64_t seq,
                                  ErrorCode code, std::string message) {
  loop_.deliver(session, seq, net::error_response(code, std::move(message)));
  count(kAnsweredLocally);
}

void RouterReactor::serve_shard_map(Session& session, std::uint64_t seq) {
  Response response;
  response.status = Status::kOkShardMap;
  response.shard_map.campaigns = router_.config_.campaigns;
  response.shard_map.shards.reserve(backends_.size());
  for (const Backend& backend : backends_) {
    net::ShardMapEntry entry;
    entry.endpoint = backend.endpoint;
    entry.healthy = backend.connected() ? 1 : 0;
    entry.restarts = router_.restart_counter_
                         ? router_.restart_counter_(backend.shard)
                         : 0;
    response.shard_map.shards.push_back(std::move(entry));
  }
  loop_.deliver(session, seq, response);
  count(kAnsweredLocally);
}

void RouterReactor::serve_server_stats(Session& session, std::uint64_t seq,
                                       const std::string& payload) {
  // Fail fast before fanning out: a partial sum that silently omits a
  // dead shard would under-report the deployment.
  for (Backend& backend : backends_) {
    if (!backend.connected()) {
      count(kShardDownErrors);
      loop_.deliver(session, seq,
                    shard_down(backend, "no connection to worker"));
      return;
    }
  }
  auto join = std::make_shared<StatsJoin>();
  join->fd = session.fd;
  join->serial = session.serial;
  join->seq = seq;
  join->remaining = backends_.size();
  join->sum.stats_seq =
      router_.stats_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  for (Backend& backend : backends_) {
    Pending pending;
    pending.stats = join;
    forward(backend, payload, std::move(pending));
  }
  count(kAnsweredLocally);
}

void RouterReactor::handle_stats_leg(Backend& backend,
                                     const Pending& pending,
                                     const std::string& payload) {
  StatsJoin& join = *pending.stats;
  Response response;
  try {
    response = net::decode_response(payload);
  } catch (const net::ProtocolError&) {
    fail_stats_leg(join, net::encode_response(net::error_response(
                             ErrorCode::kBadRequest,
                             "undecodable SERVER_STATS from shard " +
                                 std::to_string(backend.shard))));
    return;
  }
  if (response.status != Status::kOkServerStats) {
    fail_stats_leg(join, payload);  // pass the error through
    return;
  }
  const ServerStatsBody& s = response.server_stats;
  if (backend.last_stats_seq != 0 && s.stats_seq <= backend.last_stats_seq) {
    // The worker restarted between polls: every cumulative counter
    // below restarted from zero. Count it instead of pretending the
    // deployment's totals went backwards.
    count(kStatsResets);
  }
  backend.last_stats_seq = s.stats_seq;
  ServerStatsBody& sum = join.sum;
  sum.reactors += s.reactors;
  sum.sessions_accepted += s.sessions_accepted;
  sum.sessions_closed += s.sessions_closed;
  sum.requests_served += s.requests_served;
  sum.protocol_errors += s.protocol_errors;
  sum.sessions_timed_out += s.sessions_timed_out;
  sum.backpressure_stalls += s.backpressure_stalls;
  sum.events_batched += s.events_batched;
  sum.batch_flushes += s.batch_flushes;
  sum.requests_forwarded += s.requests_forwarded;
  sum.event_batches += s.event_batches;
  sum.committed_seq += s.committed_seq;
  sum.applied_seq += s.applied_seq;
  sum.primary_seq += s.primary_seq;
  sum.repl_records_shipped += s.repl_records_shipped;
  sum.token_waits += s.token_waits;
  sum.token_bounces += s.token_bounces;
  sum.writes_redirected += s.writes_redirected;
  if (--join.remaining == 0) {
    complete_stats(join);
  }
}

void RouterReactor::fail_stats_leg(StatsJoin& join,
                                   std::string error_payload) {
  if (!join.failed) {
    join.failed = true;
    join.error_payload = std::move(error_payload);
  }
  if (--join.remaining == 0) {
    complete_stats(join);
  }
}

void RouterReactor::complete_stats(StatsJoin& join) {
  Session* session = loop_.live_session(join.fd, join.serial);
  if (session == nullptr) {
    return;
  }
  if (join.failed) {
    loop_.deliver_payload(*session, join.seq, join.error_payload);
    return;
  }
  Response response;
  response.status = Status::kOkServerStats;
  response.server_stats = join.sum;
  loop_.deliver(*session, join.seq, response);
}

void RouterReactor::forward(Backend& backend, std::string_view payload,
                            Pending&& pending) {
  net::append_frame(backend.out, payload);
  backend.pending.push_back(std::move(pending));
  backend.touched = true;
}

// --- Backend pool -----------------------------------------------------

void RouterReactor::start_connect(Backend& backend) {
  backend.fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (backend.fd < 0) {
    schedule_reconnect(backend);
    return;
  }
  const int one = 1;
  ::setsockopt(backend.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int rc =
      ::connect(backend.fd, reinterpret_cast<const sockaddr*>(&backend.addr),
                sizeof(backend.addr));
  backend.connecting = rc != 0;
  if ((rc != 0 && errno != EINPROGRESS) ||
      !loop_.watch(backend.fd,
                   EPOLLIN | (backend.connecting || backend.out_bytes() > 0
                                  ? EPOLLOUT
                                  : 0u))) {
    ::close(backend.fd);
    backend.fd = -1;
    backend.connecting = false;
    schedule_reconnect(backend);
    return;
  }
  if (!backend.connecting) {
    on_backend_connected(backend);
  }
}

void RouterReactor::on_backend_connected(Backend& backend) {
  backend.connecting = false;
  backend.backoff.reset();
  if (backend.ever_connected) {
    count(kBackendReconnects);
  }
  backend.ever_connected = true;
  update_backend_interest(backend);
}

void RouterReactor::on_backend_writable(Backend& backend) {
  if (backend.connecting) {
    int error = 0;
    socklen_t len = sizeof(error);
    ::getsockopt(backend.fd, SOL_SOCKET, SO_ERROR, &error, &len);
    if (error != 0) {
      fail_backend(backend,
                   std::string("connect: ") + std::strerror(error));
      return;
    }
    on_backend_connected(backend);
  }
  flush_backend(backend);
}

void RouterReactor::on_backend_readable(Backend& backend) {
  char buffer[65536];
  while (true) {
    std::size_t received = 0;
    const io::IoStatus status =
        io::recv_some(backend.fd, buffer, sizeof(buffer), &received);
    if (status == io::IoStatus::kProgress) {
      backend.decoder.feed(buffer, received);
      if (received < sizeof(buffer)) {
        break;
      }
      continue;
    }
    if (status == io::IoStatus::kWouldBlock) {
      break;
    }
    // EOF or hard error: in-flight requests fail over to kShardDown.
    fail_backend(backend, status == io::IoStatus::kEof
                              ? "worker closed the connection"
                              : std::string("recv: ") +
                                    std::strerror(errno));
    return;
  }

  std::string payload;
  while (backend.decoder.next(&payload)) {
    if (backend.pending.empty()) {
      fail_backend(backend, "unsolicited response from worker");
      return;
    }
    Pending pending = std::move(backend.pending.front());
    backend.pending.pop_front();
    if (pending.stats != nullptr) {
      handle_stats_leg(backend, pending, payload);
      continue;
    }
    if (Session* session = loop_.live_session(pending.fd, pending.serial)) {
      // Byte-for-byte relay: re-frame the payload, never re-encode it —
      // write-ack tokens, NOT_PRIMARY redirects and error details cross
      // unchanged.
      loop_.deliver_payload(*session, pending.seq, payload);
      count(kResponsesRelayed);
    }
  }
  if (backend.decoder.corrupt()) {
    fail_backend(backend, "worker stream corrupt: " +
                              backend.decoder.corruption());
  }
}

Response RouterReactor::shard_down(const Backend& backend,
                                   const std::string& reason) {
  return net::error_response(
      ErrorCode::kShardDown, "shard " + std::to_string(backend.shard) +
                                 " (" + backend.endpoint +
                                 ") is down: " + reason);
}

void RouterReactor::fail_backend(Backend& backend,
                                 const std::string& reason) {
  if (backend.fd >= 0) {
    loop_.unwatch(backend.fd);
    ::close(backend.fd);
    backend.fd = -1;
  }
  const bool was_connected = backend.ever_connected;
  backend.connecting = false;
  backend.decoder = FrameDecoder();
  backend.out.clear();
  backend.out_sent = 0;
  if (was_connected && !backend.pending.empty()) {
    count(kShardDownErrors, backend.pending.size());
  }
  // Every in-flight request fails fast. A write the worker had already
  // applied but not yet acknowledged is reported down — the standard
  // at-most-once ambiguity of a mid-flight failure (docs/sharding.md).
  const Response down = shard_down(backend, reason);
  for (Pending& pending : backend.pending) {
    if (pending.stats != nullptr) {
      fail_stats_leg(*pending.stats, net::encode_response(down));
    } else if (Session* session =
                   loop_.live_session(pending.fd, pending.serial)) {
      loop_.deliver(*session, pending.seq, down);
    }
  }
  backend.pending.clear();
  if (was_connected) {
    count(kBackendFailures);
  }
  schedule_reconnect(backend);
}

void RouterReactor::schedule_reconnect(Backend& backend) {
  backend.next_attempt =
      monotonic_seconds() +
      std::chrono::duration<double>(backend.backoff.next()).count();
}

void RouterReactor::flush_backend(Backend& backend) {
  while (backend.out_bytes() > 0) {
    std::size_t sent = 0;
    const io::IoStatus status =
        io::send_some(backend.fd, backend.out.data() + backend.out_sent,
                      backend.out_bytes(), &sent);
    if (status == io::IoStatus::kProgress) {
      backend.out_sent += sent;
      continue;
    }
    if (status == io::IoStatus::kWouldBlock) {
      break;
    }
    fail_backend(backend,
                 std::string("send: ") + std::strerror(errno));
    return;
  }
  if (backend.out_sent == backend.out.size()) {
    backend.out.clear();
    backend.out_sent = 0;
  } else if (backend.out_sent > 4096 &&
             backend.out_sent * 2 > backend.out.size()) {
    backend.out.erase(0, backend.out_sent);
    backend.out_sent = 0;
  }
  update_backend_interest(backend);
}

void RouterReactor::update_backend_interest(Backend& backend) {
  if (backend.fd < 0) {
    return;
  }
  loop_.rewatch(backend.fd,
                EPOLLIN | (backend.connecting || backend.out_bytes() > 0
                               ? EPOLLOUT
                               : 0u));
}

void RouterReactor::drain_restart_ring() {
  std::uint32_t shard = 0;
  while (restart_ring_.pop(&shard)) {
    if (shard >= backends_.size()) {
      continue;
    }
    Backend& backend = backends_[shard];
    if (backend.fd < 0) {
      // The common case: the crash was seen via TCP first and the
      // backoff is ticking. The worker is back — dial immediately.
      backend.backoff.reset();
      backend.next_attempt = 0.0;
    }
    // Still-connected case: the old instance's death surfaces through
    // TCP (EPOLLHUP / recv EOF) on its own; tearing down here could
    // race a connection already re-established to the new worker.
  }
}

// --- Router -----------------------------------------------------------

Router::Router(RouterConfig config) : config_(std::move(config)) {
  if (config_.shards.empty()) {
    throw std::invalid_argument("Router: need at least one shard");
  }
  if (config_.campaigns == 0) {
    throw std::invalid_argument("Router: need at least one campaign");
  }
  if (config_.reactors == 0) {
    config_.reactors = 1;
  }
  shard_addrs_.reserve(config_.shards.size());
  for (const std::string& endpoint : config_.shards) {
    shard_addrs_.push_back(parse_endpoint(endpoint));
  }
  reactors_.reserve(config_.reactors);
  reactors_.push_back(std::make_unique<RouterReactor>(*this, config_.port));
  port_ = reactors_[0]->loop().port();
  for (std::size_t i = 1; i < config_.reactors; ++i) {
    reactors_.push_back(std::make_unique<RouterReactor>(*this, port_));
  }
}

Router::~Router() = default;

void Router::run() {
  std::vector<SessionLoop*> loops;
  for (const auto& reactor : reactors_) {
    // Before any reactor thread starts, so no loop is running yet.
    reactor->dial_backends();
    loops.push_back(&reactor->loop());
  }
  SessionLoop::run_all(loops);
}

void Router::request_shutdown() {
  for (const auto& reactor : reactors_) {
    reactor->loop().request_drain();
  }
}

void Router::note_shard_restarted(std::uint32_t shard) {
  for (const auto& reactor : reactors_) {
    reactor->push_restart(shard);
  }
}

void Router::set_restart_counter(
    std::function<std::uint64_t(std::uint32_t)> counter) {
  restart_counter_ = std::move(counter);
}

RouterCounters Router::counters() const {
  RouterCounters total;
  for (const auto& reactor : reactors_) {
    const SessionLoop& loop = reactor->loop();
    total.sessions_accepted += loop.counter(SessionLoop::kSessionsAccepted);
    total.sessions_closed += loop.counter(SessionLoop::kSessionsClosed);
    total.requests_routed +=
        reactor->counter(RouterReactor::kRequestsRouted);
    total.responses_relayed +=
        reactor->counter(RouterReactor::kResponsesRelayed);
    // An unframeable stream's one error frame is answered locally too.
    total.requests_answered_locally +=
        reactor->counter(RouterReactor::kAnsweredLocally) +
        loop.counter(SessionLoop::kStreamErrors);
    total.protocol_errors += loop.counter(SessionLoop::kProtocolErrors);
    total.sessions_timed_out += loop.counter(SessionLoop::kSessionsTimedOut);
    total.backpressure_stalls +=
        loop.counter(SessionLoop::kBackpressureStalls);
    total.shard_down_errors +=
        reactor->counter(RouterReactor::kShardDownErrors);
    total.backend_failures +=
        reactor->counter(RouterReactor::kBackendFailures);
    total.backend_reconnects +=
        reactor->counter(RouterReactor::kBackendReconnects);
    total.stats_resets_detected +=
        reactor->counter(RouterReactor::kStatsResets);
  }
  return total;
}

std::size_t Router::reactor_count() const { return reactors_.size(); }

}  // namespace itree::router
