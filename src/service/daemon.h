#ifndef ANMAT_SERVICE_DAEMON_H_
#define ANMAT_SERVICE_DAEMON_H_

/// \file daemon.h
/// anmatd: the long-running ANMAT service daemon.
///
/// `anmat serve --socket <path>` turns the one-shot CLI into a resident
/// service: a unix-domain-socket listener speaking the framed JSON
/// protocol (framing.h + protocol.h), routing requests to per-project
/// `ProjectHost`s (project_host.h) whose warm engines amortize project
/// opens and automaton compilation across requests.
///
/// Threading model — one poll thread, an executor pool:
///
///  * The thread that calls `Serve` runs a poll(2) loop. It owns every
///    socket: it accepts, reads, decodes frames, and writes responses.
///    Cheap daemon-scope verbs (`ping`, `stats`, `shutdown`) are answered
///    inline.
///  * Project verbs are submitted to a `ThreadPool` of executor threads,
///    so a slow detect on one connection never blocks another
///    connection's rules edit. Within a project the host (not this file)
///    orders writers on its writer mutex; readers work on a snapshot and
///    never wait for them.
///  * Executors never touch sockets. A finished request is pushed onto
///    the connection's outbox (mutex-guarded) and the poll thread is
///    woken through a self-pipe; it alone moves outbox bytes to the
///    socket. A connection that died mid-request simply discards the
///    response.
///
/// Error containment: a request-level failure (bad verb, bad params, a
/// Status from the host) answers that request and keeps the connection. A
/// framing failure (oversized length, garbage) is unrecoverable on that
/// byte stream — the connection gets one final error frame and is closed
/// — but never touches other connections or the daemon. Tests drive both
/// under ASan.
///
/// Shutdown: the `shutdown` verb (or `RequestStop` from another thread /
/// a signal handler) stops accepting, lets in-flight requests finish,
/// flushes every outbox, then returns from `Serve`. Destroying the
/// daemon destroys the hosts — releasing every project flock — and
/// unlinks the socket path.
///
/// Daemon-scope verbs (everything else is routed to a host, keyed by the
/// `project` param — the project directory):
///
///   ping          -> {"pid": ..., "protocol": 1}
///   stats         -> {"pid", "connections", "in_flight", "projects",
///                     "project_stats": [{"dir",
///                     "streams", "automaton_cache": {"hits", "misses",
///                     "fallbacks", "dispatch": {"automata",
///                     "total_states", "total_patterns", "flushes",
///                     "probes", "probe_hits", "hits", "misses"}},
///                     "warm_datasets": {"entries", "bytes", "hits",
///                     "misses"}}]}
///   shutdown      -> {"stopping": true}, then a graceful drain
///   project.open  -> params {"dir"}: opens (or reuses) the host, returns
///                    its info block
///   project.init  -> params {"dir", "name"?, "coverage"?,
///                    "violations"?}: initializes a fresh project
///                    (`ProjectHost::InitProject`) and hosts it

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "service/framing.h"
#include "service/project_host.h"
#include "service/protocol.h"
#include "util/json.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace anmat {

/// \brief The anmatd server: listener + poll loop + project hosts.
class Daemon {
 public:
  struct Options {
    std::string socket_path;
    /// Frames above this are framing errors (garbage rejection).
    size_t max_frame_bytes = kDefaultMaxFrameBytes;
    /// Executor threads running project verbs (>= 1).
    size_t executor_threads = 4;
    /// Engine threads per project host (ExecutionOptions semantics).
    size_t engine_threads = 1;
    /// Flock wait when opening a project (a CLI writer may hold it).
    int lock_wait_ms = 10000;
  };

  /// Binds and listens on `options.socket_path` (replacing a stale socket
  /// left by a killed daemon; refusing — AlreadyExists — when a live
  /// daemon answers on it). Does not serve yet.
  static Result<std::unique_ptr<Daemon>> Start(const Options& options);

  /// Runs the poll loop on the calling thread until `shutdown` arrives or
  /// `RequestStop` is called. Returns OK after a graceful drain.
  Status Serve();

  /// Asks a running `Serve` to drain and return. Safe from any thread and
  /// from signal handlers (one atomic store + one pipe write).
  void RequestStop();

  /// Closes every connection, destroys the hosts (releasing their project
  /// locks) and unlinks the socket path.
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket_path() const { return options_.socket_path; }

 private:
  /// One client connection, owned by the poll thread; executors hold a
  /// shared_ptr only to reach the outbox.
  struct Connection {
    Connection(int fd, size_t max_frame_bytes)
        : fd(fd), decoder(max_frame_bytes) {}
    int fd;
    FrameDecoder decoder;
    /// EOF seen or framing broken: never read again.
    bool input_closed = false;
    /// Framing broke: close as soon as the final error frame is flushed.
    bool failed = false;
    /// Bytes on their way out (poll thread only).
    std::string write_buf;
    size_t write_off = 0;
    /// Guards `outbox` (the only connection state executors may touch).
    Mutex outbox_mu;
    /// Encoded response frames from executor threads.
    std::vector<std::string> outbox ANMAT_GUARDED_BY(outbox_mu);
  };

  explicit Daemon(Options options) : options_(std::move(options)) {}

  /// Routes one decoded frame: answers ping/stats/shutdown inline,
  /// submits project verbs to the executor pool.
  void HandleFrame(const std::shared_ptr<Connection>& conn,
                   const std::string& payload);

  /// Executes a project verb on an executor thread and returns the
  /// serialized response payload.
  std::string ExecuteVerb(const ServiceRequest& request);
  Result<VerbResult> RunProjectVerb(const ServiceRequest& request);

  /// The host serving `dir`, opening it on first use — or, given
  /// `init_params`, initializing a fresh project there (AlreadyExists when
  /// it is hosted). Opens of the same directory are serialized so a
  /// project is never hosted twice.
  Result<ProjectHost*> GetOrOpenHost(const std::string& dir,
                                     const JsonValue* init_params);

  JsonValue StatsJson();

  void Enqueue(const std::shared_ptr<Connection>& conn, std::string payload);
  void Wake();

  /// Moves outbox frames into write buffers; returns true if any
  /// connection still has bytes to flush.
  bool StageWrites();
  void ReadFrom(const std::shared_ptr<Connection>& conn);
  void WriteTo(const std::shared_ptr<Connection>& conn);

  Options options_;
  int listen_fd_ = -1;
  /// True once this instance bound the socket path; only then may the
  /// destructor unlink it (a failed Start must not remove the socket of
  /// the live daemon that out-raced us).
  bool owns_socket_ = false;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::unique_ptr<ThreadPool> pool_;

  std::atomic<bool> stop_requested_{false};
  /// Set by the shutdown verb: stop accepting, drain, exit.
  bool draining_ = false;
  std::atomic<int64_t> in_flight_{0};

  /// Poll thread only.
  std::map<int, std::shared_ptr<Connection>> conns_;

  /// `hosts_mu_` guards the map (lookups stay cheap); `open_mu_` extends
  /// over the blocking open so concurrent first requests for one project
  /// cannot host it twice.
  Mutex hosts_mu_;
  Mutex open_mu_;
  std::map<std::string, std::unique_ptr<ProjectHost>> hosts_
      ANMAT_GUARDED_BY(hosts_mu_);
};

}  // namespace anmat

#endif  // ANMAT_SERVICE_DAEMON_H_
