#include "net/session_loop.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <thread>

#include "util/bench_json.h"  // monotonic_seconds
#include "util/io.h"

namespace itree::net {

namespace {

/// A peer that neither reads nor disconnects could stall a graceful
/// drain forever; after this many seconds the drain force-closes.
constexpr double kDrainDeadlineSeconds = 5.0;

/// Response chunks are coalesced up to this size, then a fresh chunk
/// starts; a flush gathers up to kMaxFlushIov chunks into one sendmsg.
constexpr std::size_t kOutChunkBytes = 256 * 1024;
constexpr int kMaxFlushIov = 64;

/// epoll_event.data.u64 = kind << 32 | fd, so a handler fd can never be
/// mistaken for a session slot.
enum FdKind : std::uint64_t { kSessionFd, kListenFd, kWakeFd, kWatchedFd };

std::uint64_t tag(FdKind kind, int fd) {
  return (static_cast<std::uint64_t>(kind) << 32) |
         static_cast<std::uint32_t>(fd);
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Frames `response` onto `out`; the plain ACK comes pre-encoded.
void append_response(std::string& out, const Response& response) {
  if (response.status == Status::kOk && response.seq == 0) {
    out += ok_frame();  // the most common response
    return;
  }
  try {
    append_framed_response(out, response);
  } catch (const ProtocolError&) {
    // Response larger than a frame allows (gigantic reward vector):
    // degrade to an in-protocol error instead of a broken stream.
    append_framed_response(
        out, error_response(ErrorCode::kRejected,
                            "response exceeds frame size limit"));
  }
}

}  // namespace

SessionLoop::SessionLoop(Options options, Handler& handler)
    : options_(std::move(options)), handler_(handler) {
  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    fail("socket");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  // Every reactor binds its own listener to the same address; the
  // kernel hashes incoming connections across them.
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    throw std::runtime_error(options_.name + ": bad host '" +
                             options_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 512) != 0) {
    const std::string what = std::strerror(errno);
    ::close(listen_fd_);
    throw std::runtime_error(options_.name + ": cannot listen on " +
                             options_.host + ":" +
                             std::to_string(options_.port) + ": " + what);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                &bound_len);
  port_ = ntohs(bound.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    const std::string what = std::strerror(errno);
    for (const int fd : {listen_fd_, epoll_fd_, wake_fd_}) {
      if (fd >= 0) {
        ::close(fd);
      }
    }
    throw std::runtime_error(options_.name + ": epoll_create1/eventfd: " +
                             what);
  }
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.u64 = tag(kListenFd, listen_fd_);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &event);
  event.data.u64 = tag(kWakeFd, wake_fd_);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &event);
}

SessionLoop::~SessionLoop() {
  for (auto& session : sessions_) {
    if (session) {
      ::close(session->fd);
    }
  }
  ::close(listen_fd_);
  ::close(epoll_fd_);
  ::close(wake_fd_);
}

void SessionLoop::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void SessionLoop::request_drain() {
  drain_requested_.store(true, std::memory_order_release);
  wake();
}

void SessionLoop::run_all(const std::vector<SessionLoop*>& loops) {
  std::vector<std::exception_ptr> errors(loops.size());
  const auto run_one = [&loops, &errors](std::size_t i) {
    try {
      loops[i]->run();
    } catch (...) {
      errors[i] = std::current_exception();
      for (SessionLoop* loop : loops) {
        loop->request_drain();
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(loops.size() - 1);
  for (std::size_t i = 1; i < loops.size(); ++i) {
    threads.emplace_back(run_one, i);
  }
  run_one(0);
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (const std::exception_ptr& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
}

SessionLoop::Session* SessionLoop::session_at(int fd) {
  return (fd >= 0 && static_cast<std::size_t>(fd) < sessions_.size())
             ? sessions_[fd].get()
             : nullptr;
}

int SessionLoop::timeout_ms() {
  if (draining_) {
    return 20;
  }
  int timeout = handler_.next_timeout_ms();
  if (options_.idle_timeout_seconds > 0 && (timeout < 0 || timeout > 100)) {
    timeout = 100;  // idle harvest cadence
  }
  return timeout;
}

void SessionLoop::run() {
  static constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];

  while (true) {
    const int ready =
        ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms());
    if (ready < 0) {
      if (errno == EINTR) {
        continue;
      }
      fail("epoll_wait");
    }
    for (int i = 0; i < ready; ++i) {
      const std::uint64_t data = events[i].data.u64;
      const int fd = static_cast<int>(static_cast<std::uint32_t>(data));
      const std::uint32_t mask = events[i].events;
      switch (static_cast<FdKind>(data >> 32)) {
        case kListenFd:
          accept_ready();
          continue;
        case kWakeFd: {
          // Clear-before-drain: any poke that lands after this read
          // re-arms the eventfd, so it is never lost.
          std::uint64_t drained = 0;
          [[maybe_unused]] const ssize_t n =
              ::read(wake_fd_, &drained, sizeof(drained));
          continue;
        }
        case kWatchedFd:
          handler_.on_fd_ready(fd, mask);
          continue;
        case kSessionFd:
          break;
      }
      Session* session = session_at(fd);
      if (session == nullptr) {
        continue;  // closed earlier this tick
      }
      if (mask & (EPOLLERR | EPOLLHUP)) {
        session->broken = true;
        continue;
      }
      if ((mask & EPOLLIN) && !draining_) {
        on_readable(*session);
      }
      if (mask & EPOLLOUT) {
        on_writable(*session);
      }
    }

    handler_.on_tick();
    flush_touched();

    // Sweep sessions that broke or finished their final flush.
    for (std::size_t fd = 0; fd < sessions_.size(); ++fd) {
      const Session* session = sessions_[fd].get();
      if (session != nullptr &&
          (session->broken ||
           (session->close_after_flush && session->out_bytes == 0 &&
            session->fully_released()))) {
        close_session(static_cast<int>(fd));
      }
    }

    const double now = monotonic_seconds();
    if (options_.idle_timeout_seconds > 0 && !draining_) {
      harvest_idle(now);
    }
    if (!draining_ && drain_requested_.load(std::memory_order_acquire)) {
      begin_drain();
      drain_started_ = now;
    }
    if (draining_ && drain_step(now)) {
      return;
    }
  }
}

void SessionLoop::accept_ready() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return;
      }
      if (errno == EINTR || errno == ECONNABORTED) {
        continue;
      }
      return;  // EMFILE etc.: drop the pending connection, stay up
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (static_cast<std::size_t>(fd) >= sessions_.size()) {
      sessions_.resize(fd + 1);
    }
    auto session = std::make_unique<Session>();
    session->fd = fd;
    session->serial = ++next_serial_;
    session->last_activity = monotonic_seconds();
    session->reading = !read_paused_;
    epoll_event event{};
    event.events = session->reading ? EPOLLIN : 0u;
    event.data.u64 = tag(kSessionFd, fd);
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0) {
      ::close(fd);
      continue;
    }
    sessions_[fd] = std::move(session);
    count(kSessionsAccepted);
  }
}

void SessionLoop::on_readable(Session& session) {
  char buffer[65536];
  bool saw_eof = false;
  while (session.reading) {
    std::size_t received = 0;
    const io::IoStatus status =
        io::recv_some(session.fd, buffer, sizeof(buffer), &received);
    if (status == io::IoStatus::kProgress) {
      session.decoder.feed(buffer, received);
      session.last_activity = monotonic_seconds();
      if (received < sizeof(buffer)) {
        break;  // likely drained; epoll is level-triggered anyway
      }
      continue;
    }
    if (status == io::IoStatus::kEof) {
      saw_eof = true;
      break;
    }
    if (status == io::IoStatus::kWouldBlock) {
      break;
    }
    session.broken = true;
    return;
  }

  std::string payload;
  while (session.decoder.next(&payload)) {
    handler_.on_frame(session, session.next_seq++, payload);
    if (session.broken) {
      return;
    }
  }
  if (session.decoder.corrupt()) {
    // The stream can no longer be framed: answer once, then hang up.
    count(kProtocolErrors);
    count(kStreamErrors);
    deliver(session, session.next_seq++,
            error_response(ErrorCode::kBadRequest,
                           session.decoder.corruption()));
    session.close_after_flush = true;
    if (session.reading) {
      session.reading = false;
      update_interest(session);
    }
  }
  if (saw_eof) {
    if (session.decoder.buffered() != 0 && !session.decoder.corrupt()) {
      count(kProtocolErrors);  // mid-frame disconnect
    }
    session.broken = true;
  }
}

void SessionLoop::on_writable(Session& session) {
  flush(session);
  if (session.broken) {
    return;
  }
  maybe_resume_reading(session);
  update_interest(session);
}

std::string& SessionLoop::tail_chunk(Session& session) {
  if (session.outq.empty() ||
      session.outq.back().size() >= kOutChunkBytes) {
    session.outq.emplace_back();
  }
  return session.outq.back();
}

void SessionLoop::deliver(Session& session, std::uint64_t seq,
                          const Response& response) {
  if (seq != session.next_send) {
    append_response(session.held[seq], response);
    return;
  }
  std::string& tail = tail_chunk(session);
  const std::size_t before = tail.size();
  append_response(tail, response);
  released(session, tail.size() - before);
}

void SessionLoop::deliver_payload(Session& session, std::uint64_t seq,
                                  std::string_view payload) {
  if (seq != session.next_send) {
    append_frame(session.held[seq], payload);
    return;
  }
  std::string& tail = tail_chunk(session);
  const std::size_t before = tail.size();
  append_frame(tail, payload);
  released(session, tail.size() - before);
}

void SessionLoop::released(Session& session, std::size_t bytes) {
  session.out_bytes += bytes;
  count(kResponsesReleased);
  ++session.next_send;
  // The slot the wire waited for is out: release what queued behind it.
  auto it = session.held.begin();
  while (it != session.held.end() && it->first == session.next_send) {
    tail_chunk(session) += it->second;
    session.out_bytes += it->second.size();
    count(kResponsesReleased);
    ++session.next_send;
    it = session.held.erase(it);
  }
  if (!session.touched) {
    session.touched = true;
    touched_.push_back(session.fd);
  }
  if (session.reading && session.out_bytes > options_.max_write_buffer) {
    // Slow reader: stop accepting its requests until it drains.
    session.reading = false;
    count(kBackpressureStalls);
  }
}

void SessionLoop::flush(Session& session) {
  while (session.out_bytes > 0) {
    iovec iov[kMaxFlushIov];
    int iovcnt = 0;
    for (std::size_t c = 0;
         c < session.outq.size() && iovcnt < kMaxFlushIov; ++c) {
      const std::string& chunk = session.outq[c];
      const std::size_t skip = (c == 0) ? session.front_sent : 0;
      if (chunk.size() == skip) {
        continue;
      }
      iov[iovcnt].iov_base = const_cast<char*>(chunk.data() + skip);
      iov[iovcnt].iov_len = chunk.size() - skip;
      ++iovcnt;
    }
    if (iovcnt == 0) {
      break;
    }
    std::size_t sent = 0;
    const io::IoStatus status =
        io::sendv_some(session.fd, iov, iovcnt, &sent);
    if (status == io::IoStatus::kProgress) {
      session.last_activity = monotonic_seconds();
      session.out_bytes -= sent;
      while (sent > 0) {
        std::string& front = session.outq.front();
        const std::size_t avail = front.size() - session.front_sent;
        if (sent >= avail) {
          sent -= avail;
          session.outq.pop_front();
          session.front_sent = 0;
        } else {
          session.front_sent += sent;
          sent = 0;
        }
      }
      continue;
    }
    if (status == io::IoStatus::kWouldBlock) {
      break;
    }
    session.broken = true;
    return;
  }
}

void SessionLoop::flush_touched() {
  for (const int fd : touched_) {
    Session* session = session_at(fd);
    if (session == nullptr) {
      continue;
    }
    session->touched = false;
    if (!session->broken) {
      on_writable(*session);
    }
  }
  touched_.clear();
}

void SessionLoop::maybe_resume_reading(Session& session) {
  // Backpressure release: the peer caught up, resume reading. This must
  // run on EVERY flush path, not just EPOLLOUT — when a flush drains
  // the whole queue in one send, a paused session would otherwise end
  // up with neither EPOLLIN nor EPOLLOUT armed and sleep forever while
  // its remaining pipelined requests sit in the kernel receive buffer.
  if (!session.reading && !session.close_after_flush && !draining_ &&
      !read_paused_ && session.out_bytes < options_.max_write_buffer / 2) {
    session.reading = true;
  }
}

void SessionLoop::update_interest(Session& session) {
  epoll_event event{};
  event.events = (session.reading && !draining_ ? EPOLLIN : 0u) |
                 (session.out_bytes > 0 ? EPOLLOUT : 0u);
  event.data.u64 = tag(kSessionFd, session.fd);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, session.fd, &event);
}

SessionLoop::Session* SessionLoop::live_session(int fd,
                                                std::uint64_t serial) {
  Session* session = session_at(fd);
  return (session != nullptr && session->serial == serial &&
          !session->broken)
             ? session
             : nullptr;
}

void SessionLoop::set_read_paused(bool paused) {
  if (paused == read_paused_) {
    return;
  }
  read_paused_ = paused;
  for (auto& owned : sessions_) {
    Session* session = owned.get();
    if (session == nullptr || session->broken) {
      continue;
    }
    if (paused) {
      if (session->reading) {
        session->reading = false;
        count(kBackpressureStalls);
        update_interest(*session);
      }
    } else {
      maybe_resume_reading(*session);
      update_interest(*session);
    }
  }
}

bool SessionLoop::watch(int fd, std::uint32_t events) {
  epoll_event event{};
  event.events = events;
  event.data.u64 = tag(kWatchedFd, fd);
  return ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) == 0;
}

void SessionLoop::rewatch(int fd, std::uint32_t events) {
  epoll_event event{};
  event.events = events;
  event.data.u64 = tag(kWatchedFd, fd);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &event);
}

void SessionLoop::unwatch(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

void SessionLoop::close_session(int fd) {
  if (session_at(fd) == nullptr) {
    return;
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  sessions_[fd].reset();
  count(kSessionsClosed);
}

void SessionLoop::harvest_idle(double now) {
  for (std::size_t fd = 0; fd < sessions_.size(); ++fd) {
    const Session* session = sessions_[fd].get();
    if (session != nullptr && session->out_bytes == 0 &&
        session->fully_released() &&
        now - session->last_activity > options_.idle_timeout_seconds) {
      count(kSessionsTimedOut);
      close_session(static_cast<int>(fd));
    }
  }
}

void SessionLoop::begin_drain() {
  draining_ = true;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
  // Stop reading everywhere; only flush from here on. Handler fds stay
  // registered so in-flight work can still come home.
  for (auto& session : sessions_) {
    if (session) {
      update_interest(*session);
    }
  }
}

bool SessionLoop::drain_step(double now) {
  const bool handler_settled = handler_.drain_settled();
  const bool deadline = now - drain_started_ > kDrainDeadlineSeconds;
  bool sessions_settled = true;
  for (std::size_t fd = 0; fd < sessions_.size(); ++fd) {
    const Session* session = sessions_[fd].get();
    if (session == nullptr) {
      continue;
    }
    if ((session->out_bytes == 0 && session->fully_released()) ||
        deadline) {
      close_session(static_cast<int>(fd));
    } else {
      sessions_settled = false;
    }
  }
  return (sessions_settled && handler_settled) || deadline;
}

}  // namespace itree::net
