// One reactor's client-session core, shared by net::Server and
// router::Router (docs/architecture.md, "Session core").
//
// A SessionLoop owns everything a front end needs to hold wire
// sessions: its own SO_REUSEPORT listener, an epoll loop and a wake
// eventfd; the fd-indexed sessions with serial numbers that guard
// against fd reuse; the per-session response sequencer (every decoded
// frame takes the next sequence number and responses reach the wire
// strictly in that order, however they complete); chunked write queues
// flushed with vectored sendmsg; slow-reader backpressure; idle
// harvest; the graceful-drain state machine; and run_all(), the
// N-reactor thread fan-out.
//
// What a front end does with a frame is its Handler's business. The
// loop calls five hooks, all on the loop's own thread: a frame arrived
// (on_frame), a handler-registered fd is ready (on_fd_ready), per-tick
// work once the ready events were handled (on_tick), the handler's next
// deadline (next_timeout_ms), and whether the handler's in-flight work
// has settled during a drain (drain_settled).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/protocol.h"

namespace itree::net {

class SessionLoop {
 public:
  struct Session {
    int fd = -1;
    std::uint64_t serial = 0;  ///< unique per loop; guards fd reuse
    FrameDecoder decoder;
    /// Framed responses awaiting the wire; front_sent is the prefix of
    /// the front chunk already sent, out_bytes the total pending.
    std::deque<std::string> outq;
    std::size_t front_sent = 0;
    std::size_t out_bytes = 0;
    /// Sequencer: frames take next_seq at decode; next_send is the next
    /// slot the wire is waiting for. Completions for later slots wait,
    /// already framed, in `held`.
    std::uint64_t next_seq = 0;
    std::uint64_t next_send = 0;
    std::map<std::uint64_t, std::string> held;
    double last_activity = 0.0;
    bool reading = true;          ///< EPOLLIN wanted
    bool close_after_flush = false;
    bool broken = false;          ///< hard error / EOF: close this tick
    bool touched = false;         ///< queued output since the last flush

    /// True when every assigned sequence slot reached the write queue.
    bool fully_released() const {
      return next_send == next_seq && held.empty();
    }
  };

  class Handler {
   public:
    /// A complete frame arrived on `session`. Its answer must be handed
    /// back through deliver()/deliver_payload() at slot `seq`, now or
    /// in a later tick.
    virtual void on_frame(Session& session, std::uint64_t seq,
                          const std::string& payload) = 0;
    /// An fd registered with watch() reported epoll `events`.
    virtual void on_fd_ready(int /*fd*/, std::uint32_t /*events*/) {}
    /// Runs once per tick after the ready events, before queued output
    /// is flushed.
    virtual void on_tick() {}
    /// Milliseconds until the handler needs a tick; -1 for none.
    virtual int next_timeout_ms() { return -1; }
    /// Called every tick while draining; true once nothing the handler
    /// owes a session is still in flight.
    virtual bool drain_settled() { return true; }

   protected:
    ~Handler() = default;  // never deleted through the interface
  };

  struct Options {
    std::string name;  ///< "Server" / "Router", for error messages
    std::string host;
    std::uint16_t port = 0;  ///< 0 = kernel-assigned
    /// Sessions with no traffic for this long are closed; 0 disables.
    double idle_timeout_seconds = 0.0;
    /// Past this many pending output bytes a session stops being read
    /// until its peer drains it below half the mark.
    std::size_t max_write_buffer = 4u << 20;
  };

  enum Counter : std::size_t {
    kSessionsAccepted,
    kSessionsClosed,
    kResponsesReleased,
    kProtocolErrors,
    /// Sessions answered once and closed for an unframeable byte
    /// stream (also counted in kProtocolErrors).
    kStreamErrors,
    kSessionsTimedOut,
    kBackpressureStalls,
    kCounterCount,
  };

  /// Binds and listens at once, so port() is valid before run(). Throws
  /// std::runtime_error on any socket/epoll setup failure.
  SessionLoop(Options options, Handler& handler);
  ~SessionLoop();

  SessionLoop(const SessionLoop&) = delete;
  SessionLoop& operator=(const SessionLoop&) = delete;

  std::uint16_t port() const { return port_; }

  /// Serves until a requested drain settled (or its deadline passed).
  void run();

  /// Runs loops[0] on the calling thread and the others on dedicated
  /// threads. A loop that throws drains every loop; the first error is
  /// rethrown once all of them returned.
  static void run_all(const std::vector<SessionLoop*>& loops);

  /// Async-signal-safe: a single eventfd write.
  void wake();
  /// Async-signal-safe: stop accepting and reading, flush what is
  /// owed, then return from run().
  void request_drain();
  bool draining() const { return draining_; }

  /// Hands slot `seq` its response. In order, it is encoded straight
  /// into the session's tail write chunk; ahead of order, it is framed
  /// into `held` until the slots before it are released.
  void deliver(Session& session, std::uint64_t seq,
               const Response& response);
  /// deliver() for a response that is already encoded (a relayed
  /// payload crosses byte-for-byte).
  void deliver_payload(Session& session, std::uint64_t seq,
                       std::string_view payload);

  /// The session at `fd` if it is still the one `serial` named and has
  /// not broken; nullptr otherwise.
  Session* live_session(int fd, std::uint64_t serial);

  /// Loop-wide read pause (the router sets it while a backend is over
  /// its buffer mark): no session is read until it is lifted.
  void set_read_paused(bool paused);

  /// Registers a handler-owned fd; its events go to on_fd_ready().
  bool watch(int fd, std::uint32_t events);
  void rewatch(int fd, std::uint32_t events);
  void unwatch(int fd);

  std::uint64_t counter(Counter c) const {
    return counters_[c].load(std::memory_order_relaxed);
  }
  void count(Counter c, std::uint64_t n = 1) {
    counters_[c].fetch_add(n, std::memory_order_relaxed);
  }

 private:
  Session* session_at(int fd);
  int timeout_ms();
  void accept_ready();
  void on_readable(Session& session);
  void on_writable(Session& session);
  std::string& tail_chunk(Session& session);
  void released(Session& session, std::size_t bytes);
  void flush(Session& session);
  void flush_touched();
  void maybe_resume_reading(Session& session);
  void update_interest(Session& session);
  void close_session(int fd);
  void harvest_idle(double now);
  void begin_drain();
  bool drain_step(double now);

  Options options_;
  Handler& handler_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> drain_requested_{false};
  bool draining_ = false;
  double drain_started_ = 0.0;
  bool read_paused_ = false;

  std::uint64_t next_serial_ = 0;
  std::vector<std::unique_ptr<Session>> sessions_;  ///< indexed by fd
  std::vector<int> touched_;  ///< fds with queued output this tick
  std::atomic<std::uint64_t> counters_[kCounterCount] = {};
};

}  // namespace itree::net
