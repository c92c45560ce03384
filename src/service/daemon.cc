#include "service/daemon.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <utility>
#include <vector>

namespace anmat {
namespace {

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IoError(std::string("fcntl(O_NONBLOCK): ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

/// The canonical hosts-map key for a project directory, so "./proj",
/// "proj/" and its absolute path all reach the same host.
std::string CanonicalDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::path p = std::filesystem::absolute(dir, ec);
  if (ec) return dir;
  return p.lexically_normal().string();
}

}  // namespace

Result<std::unique_ptr<Daemon>> Daemon::Start(const Options& options) {
  if (options.socket_path.empty()) {
    return Status::InvalidArgument("daemon needs a socket path");
  }
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (options.socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument(
        "socket path too long (" + std::to_string(options.socket_path.size()) +
        " bytes; the unix-socket limit is " +
        std::to_string(sizeof(addr.sun_path) - 1) + ")");
  }
  std::memcpy(addr.sun_path, options.socket_path.c_str(),
              options.socket_path.size() + 1);

  std::unique_ptr<Daemon> daemon(new Daemon(options));  // lint: new-ok (private ctor, owned by the unique_ptr)
  if (daemon->options_.executor_threads == 0) {
    daemon->options_.executor_threads = 1;
  }

  daemon->listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (daemon->listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  if (::bind(daemon->listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) == 0) {
    daemon->owns_socket_ = true;
  } else {
    if (errno != EADDRINUSE) {
      return Status::IoError("bind " + options.socket_path + ": " +
                             std::strerror(errno));
    }
    // A socket file already exists. If a daemon answers on it, refuse;
    // otherwise it is a stale leftover of a killed daemon — replace it.
    const int probe = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (probe >= 0 &&
        ::connect(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
            0) {
      ::close(probe);
      return Status::AlreadyExists("a daemon is already serving " +
                                   options.socket_path);
    }
    if (probe >= 0) ::close(probe);
    ::unlink(options.socket_path.c_str());
    if (::bind(daemon->listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) < 0) {
      return Status::IoError("bind " + options.socket_path + ": " +
                             std::strerror(errno));
    }
    daemon->owns_socket_ = true;
  }
  if (::listen(daemon->listen_fd_, 64) < 0) {
    return Status::IoError(std::string("listen: ") + std::strerror(errno));
  }
  ANMAT_RETURN_NOT_OK(SetNonBlocking(daemon->listen_fd_));

  int pipe_fds[2];
  if (::pipe(pipe_fds) < 0) {
    return Status::IoError(std::string("pipe: ") + std::strerror(errno));
  }
  daemon->wake_read_fd_ = pipe_fds[0];
  daemon->wake_write_fd_ = pipe_fds[1];
  ANMAT_RETURN_NOT_OK(SetNonBlocking(daemon->wake_read_fd_));
  ANMAT_RETURN_NOT_OK(SetNonBlocking(daemon->wake_write_fd_));

  daemon->pool_ =
      std::make_unique<ThreadPool>(daemon->options_.executor_threads);
  return daemon;
}

Daemon::~Daemon() {
  // Executors may still be finishing discarded requests; they only touch
  // outboxes, so draining the pool before tearing anything down is enough.
  if (pool_ != nullptr) pool_->Wait();
  for (auto& [fd, conn] : conns_) ::close(fd);
  conns_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
  // Only the instance that bound the path may remove it: a Start that
  // lost the race to a live daemon must not unlink that daemon's socket.
  if (owns_socket_ && !options_.socket_path.empty()) {
    ::unlink(options_.socket_path.c_str());
  }
  // hosts_ dies last: destroying a ProjectHost releases its project flock.
}

void Daemon::RequestStop() {
  stop_requested_.store(true);
  Wake();
}

void Daemon::Wake() {
  const char byte = 'w';
  // A full pipe already guarantees a pending wakeup.
  [[maybe_unused]] const ssize_t ignored =
      ::write(wake_write_fd_, &byte, 1);
}

void Daemon::Enqueue(const std::shared_ptr<Connection>& conn,
                     std::string payload) {
  {
    MutexLock lock(&conn->outbox_mu);
    conn->outbox.push_back(EncodeFrame(payload));
  }
  Wake();
}

bool Daemon::StageWrites() {
  bool pending = false;
  for (auto& [fd, conn] : conns_) {
    std::vector<std::string> frames;
    {
      MutexLock lock(&conn->outbox_mu);
      frames.swap(conn->outbox);
    }
    for (std::string& frame : frames) conn->write_buf += frame;
    if (conn->write_off < conn->write_buf.size()) pending = true;
  }
  return pending;
}

void Daemon::ReadFrom(const std::shared_ptr<Connection>& conn) {
  char buf[64 * 1024];
  while (!conn->input_closed) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->decoder.Feed(buf, static_cast<size_t>(n));
      std::string payload;
      while (true) {
        auto next = conn->decoder.Next(&payload);
        if (!next.ok()) {
          // Framing is beyond recovery: answer once, then close after the
          // flush. Stop reading — the byte stream has no boundaries left.
          Enqueue(conn, SerializeServiceError(0, next.status()));
          conn->input_closed = true;
          conn->failed = true;
          break;
        }
        if (!next.value()) break;
        HandleFrame(conn, payload);
      }
      continue;
    }
    if (n == 0) {
      conn->input_closed = true;  // EOF; flush what we owe, then close
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    conn->input_closed = true;  // ECONNRESET and friends
    conn->failed = true;
    break;
  }
}

void Daemon::WriteTo(const std::shared_ptr<Connection>& conn) {
  while (conn->write_off < conn->write_buf.size()) {
    // MSG_NOSIGNAL: a peer that vanished must surface as EPIPE here, not
    // kill the daemon with SIGPIPE.
    const ssize_t n =
        ::send(conn->fd, conn->write_buf.data() + conn->write_off,
               conn->write_buf.size() - conn->write_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn->write_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    // EPIPE etc.: the peer is gone; drop what we owed it. Kept, the
    // unsent bytes would hold the connection (and a stop's drain) open
    // while poll reports it writable on every turn.
    conn->input_closed = true;
    conn->failed = true;
    conn->write_buf.clear();
    conn->write_off = 0;
    return;
  }
  if (conn->write_off == conn->write_buf.size()) {
    conn->write_buf.clear();
    conn->write_off = 0;
  }
}

Status Daemon::Serve() {
  while (true) {
    // Order matters for the drain check below: executors Enqueue the
    // response *before* decrementing in_flight_, so reading in_flight_
    // first guarantees that any completion it reports as done already has
    // its frame in an outbox — which the StageWrites that follows stages.
    // Reading it after staging could observe 0 with the final response
    // still unstaged, and the drain would drop it.
    const int64_t in_flight = in_flight_.load();
    const bool writes_pending = StageWrites();

    // Reap connections that are finished: input gone and nothing left to
    // flush (or broken outright once their final frame got out).
    for (auto it = conns_.begin(); it != conns_.end();) {
      Connection& c = *it->second;
      const bool flushed = c.write_off >= c.write_buf.size();
      bool outbox_empty;
      {
        MutexLock lock(&c.outbox_mu);
        outbox_empty = c.outbox.empty();
      }
      if (c.input_closed && flushed && outbox_empty) {
        ::close(c.fd);
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }

    const bool stopping = draining_ || stop_requested_.load();
    if (stopping && in_flight == 0 && !writes_pending) {
      // Drained: every accepted request answered, every answer flushed.
      for (auto& [fd, conn] : conns_) ::close(fd);
      conns_.clear();
      return Status::OK();
    }

    std::vector<pollfd> fds;
    fds.push_back({wake_read_fd_, POLLIN, 0});
    if (!stopping) fds.push_back({listen_fd_, POLLIN, 0});
    std::vector<std::shared_ptr<Connection>> polled;
    for (auto& [fd, conn] : conns_) {
      short events = 0;
      if (!conn->input_closed) events |= POLLIN;
      if (conn->write_off < conn->write_buf.size()) events |= POLLOUT;
      if (events == 0) continue;  // waiting on an executor only
      fds.push_back({fd, events, 0});
      polled.push_back(conn);
    }

    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("poll: ") + std::strerror(errno));
    }

    size_t index = 0;
    if (fds[index].revents & POLLIN) {
      char drain[256];
      while (::read(wake_read_fd_, drain, sizeof(drain)) > 0) {
      }
    }
    ++index;

    if (!stopping) {
      if (fds[index].revents & POLLIN) {
        while (true) {
          const int fd = ::accept(listen_fd_, nullptr, nullptr);
          if (fd < 0) break;  // EAGAIN / transient
          if (!SetNonBlocking(fd).ok()) {
            ::close(fd);
            continue;
          }
          conns_[fd] = std::make_shared<Connection>(
              fd, options_.max_frame_bytes);
        }
      }
      ++index;
    }

    for (const std::shared_ptr<Connection>& conn : polled) {
      const short revents = fds[index++].revents;
      if (revents & POLLOUT) WriteTo(conn);
      if (revents & (POLLIN | POLLHUP | POLLERR)) {
        if (!conn->input_closed) ReadFrom(conn);
      }
    }
  }
}

void Daemon::HandleFrame(const std::shared_ptr<Connection>& conn,
                         const std::string& payload) {
  auto request = ParseServiceRequest(payload);
  if (!request.ok()) {
    // The frame was intact, just meaningless: per-request error, the
    // connection lives on.
    Enqueue(conn, SerializeServiceError(0, request.status()));
    return;
  }

  const std::string& verb = request->verb;
  if (verb == "ping") {
    JsonValue result = JsonValue::Object();
    result.Set("pid", JsonValue::Int(static_cast<int64_t>(::getpid())));
    result.Set("protocol", JsonValue::Int(1));
    Enqueue(conn, SerializeServiceOk(request->id, std::move(result)));
    return;
  }
  if (verb == "stats") {
    Enqueue(conn, SerializeServiceOk(request->id, StatsJson()));
    return;
  }
  if (verb == "shutdown") {
    JsonValue result = JsonValue::Object();
    result.Set("stopping", JsonValue::Bool(true));
    Enqueue(conn, SerializeServiceOk(request->id, std::move(result)));
    draining_ = true;
    return;
  }

  // Project verb: runs on the executor pool so one slow request never
  // stalls the poll loop. The completion wakeup doubles as the drain
  // signal during shutdown.
  in_flight_.fetch_add(1);
  ServiceRequest req = std::move(request).value();
  pool_->Submit([this, conn, req = std::move(req)]() {
    std::string response = ExecuteVerb(req);
    Enqueue(conn, std::move(response));
    in_flight_.fetch_sub(1);
    Wake();
  });
}

JsonValue Daemon::StatsJson() {
  JsonValue projects = JsonValue::Array();
  size_t num_projects = 0;
  {
    MutexLock lock(&hosts_mu_);
    num_projects = hosts_.size();
    for (auto& [dir, host] : hosts_) {
      JsonValue entry = JsonValue::Object();
      entry.Set("dir", JsonValue::String(dir));
      entry.Set("streams", JsonValue::Int(static_cast<int64_t>(
                               host->num_streams())));
      entry.Set("automaton_cache", host->CacheStatsJson());
      entry.Set("warm_datasets", host->WarmStatsJson());
      projects.push_back(std::move(entry));
    }
  }
  JsonValue result = JsonValue::Object();
  result.Set("pid", JsonValue::Int(static_cast<int64_t>(::getpid())));
  result.Set("connections",
             JsonValue::Int(static_cast<int64_t>(conns_.size())));
  result.Set("in_flight", JsonValue::Int(in_flight_.load()));
  result.Set("projects", JsonValue::Int(static_cast<int64_t>(num_projects)));
  result.Set("project_stats", std::move(projects));
  return result;
}

Result<ProjectHost*> Daemon::GetOrOpenHost(const std::string& dir,
                                           const JsonValue* init_params) {
  const std::string key = CanonicalDir(dir);
  if (init_params == nullptr) {
    MutexLock lock(&hosts_mu_);
    auto it = hosts_.find(key);
    if (it != hosts_.end()) return it->second.get();
  }
  // First request for this project: the open (lock acquire + recovery +
  // catalog load) runs under open_mu_ so a concurrent first request for
  // the same directory cannot host it twice.
  MutexLock open_lock(&open_mu_);
  {
    MutexLock lock(&hosts_mu_);
    auto it = hosts_.find(key);
    if (it != hosts_.end()) {
      if (init_params == nullptr) return it->second.get();
      // Never replace a live host: executors may hold raw ProjectHost*
      // into it. Reachable despite Init's own catalog check if the
      // catalog file was deleted externally while the project is hosted.
      return Status::AlreadyExists("project " + key +
                                   " is already hosted by this daemon");
    }
  }
  Project::OpenOptions open_options;
  open_options.lock_wait_ms = options_.lock_wait_ms;
  ANMAT_ASSIGN_OR_RETURN(Project project,
                         init_params != nullptr
                             ? ProjectHost::InitProject(key, *init_params)
                             : Project::Open(key, open_options));
  ProjectHost::Options host_options;
  host_options.engine_threads = options_.engine_threads;
  auto host = std::make_unique<ProjectHost>(std::move(project), host_options);
  ProjectHost* raw = host.get();
  MutexLock lock(&hosts_mu_);
  hosts_[key] = std::move(host);
  return raw;
}

std::string Daemon::ExecuteVerb(const ServiceRequest& request) {
  auto result = RunProjectVerb(request);
  if (!result.ok()) return SerializeServiceError(request.id, result.status());
  return SerializeServiceOk(request.id, std::move(result->result),
                            result->text);
}

Result<VerbResult> Daemon::RunProjectVerb(const ServiceRequest& request) {
  // project.open and project.init name the directory "dir" and answer
  // with the host's info block; every other verb names it "project".
  const bool init = request.verb == "project.init";
  const bool open = init || request.verb == "project.open";
  const char* dir_key = open ? "dir" : "project";
  auto dir = request.params.GetString(dir_key);
  if (!dir.ok()) {
    return Status::InvalidArgument("verb \"" + request.verb +
                                   "\" needs a \"" + dir_key +
                                   "\" param (project directory)");
  }
  ANMAT_ASSIGN_OR_RETURN(
      ProjectHost * host,
      GetOrOpenHost(dir.value(), init ? &request.params : nullptr));
  return host->Dispatch(open ? "info" : request.verb, request.params);
}

}  // namespace anmat
