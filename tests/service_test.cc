// Tests for the anmatd service stack: framing (length-prefixed frames,
// garbage rejection), the request/response protocol, and the daemon
// end-to-end over a real unix socket — workflow verbs, protocol
// robustness (malformed / truncated / oversized frames, mid-request
// disconnects) without taking the daemon down, fork()-based concurrent
// writers proving the host's writer mutex loses no edit, kill -9
// of a serving daemon leaving the project recoverable, and the
// byte-identity of daemon results with the report-layer JSON the
// one-shot CLI prints. The ProjectHost tests pin snapshot reads (a
// reader answers while a writer is parked inside its save) and warm
// datasets (in-place rewrites, a changed schema, truncation).

#include "service/daemon.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "anmat/engine.h"
#include "anmat/project.h"
#include "anmat/report.h"
#include "csv/csv_reader.h"
#include "detect/detector.h"
#include "pattern/pattern_parser.h"
#include "service/client.h"
#include "service/framing.h"
#include "service/protocol.h"

namespace anmat {
namespace {

/// A fresh directory path under the test temp dir (not yet created).
std::string FreshDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "/anmat_service_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Writes the paper's Table-2 zip/city CSV and returns its path.
std::string WriteZipCsv(const std::string& tag) {
  const std::string path =
      ::testing::TempDir() + "/anmat_service_" + tag + ".csv";
  std::ofstream out(path);
  out << "zip,city\n90001,Los Angeles\n90002,Los Angeles\n"
         "90003,Los Angeles\n90004,New York\n";
  return path;
}

/// Socket paths must fit sockaddr_un (~108 bytes); TempDir can be long,
/// so daemon sockets live under /tmp directly.
std::string FreshSocket(const std::string& tag) {
  const std::string path = "/tmp/anmat_service_" + tag + ".sock";
  ::unlink(path.c_str());
  return path;
}

// -- Framing ----------------------------------------------------------------

TEST(FramingTest, RoundTripSingleFrame) {
  const std::string frame = EncodeFrame("{\"verb\":\"ping\"}");
  ASSERT_EQ(frame.size(), 4 + 15u);
  FrameDecoder decoder;
  decoder.Feed(frame.data(), frame.size());
  std::string payload;
  ASSERT_TRUE(decoder.Next(&payload).value());
  EXPECT_EQ(payload, "{\"verb\":\"ping\"}");
  EXPECT_FALSE(decoder.Next(&payload).value());
  EXPECT_EQ(decoder.pending_bytes(), 0u);
}

TEST(FramingTest, ByteAtATimeDelivery) {
  // A truncated frame is not an error: the decoder stays pending until
  // the rest arrives, however the kernel slices the stream.
  const std::string frame = EncodeFrame("hello");
  FrameDecoder decoder;
  std::string payload;
  for (size_t i = 0; i + 1 < frame.size(); ++i) {
    decoder.Feed(frame.data() + i, 1);
    ASSERT_FALSE(decoder.Next(&payload).value()) << "byte " << i;
  }
  decoder.Feed(frame.data() + frame.size() - 1, 1);
  ASSERT_TRUE(decoder.Next(&payload).value());
  EXPECT_EQ(payload, "hello");
}

TEST(FramingTest, ManyFramesInOneFeed) {
  std::string wire;
  for (int i = 0; i < 100; ++i) {
    wire += EncodeFrame(std::string("p").append(std::to_string(i)));
  }
  FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  std::string payload;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(decoder.Next(&payload).value()) << "frame " << i;
    EXPECT_EQ(payload, std::string("p").append(std::to_string(i)));
  }
  EXPECT_FALSE(decoder.Next(&payload).value());
}

TEST(FramingTest, ZeroLengthIsFramingError) {
  const char zeros[4] = {0, 0, 0, 0};
  FrameDecoder decoder;
  decoder.Feed(zeros, sizeof(zeros));
  std::string payload;
  auto next = decoder.Next(&payload);
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kParseError);
}

TEST(FramingTest, OversizedLengthIsFramingError) {
  // 0xFFFFFFFF little-endian: far above any max_frame_bytes.
  const unsigned char huge[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  FrameDecoder decoder(/*max_frame_bytes=*/1024);
  decoder.Feed(reinterpret_cast<const char*>(huge), sizeof(huge));
  std::string payload;
  auto next = decoder.Next(&payload);
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kParseError);
  EXPECT_NE(next.status().message().find("4294967295"), std::string::npos);
}

TEST(FramingTest, AsciiGarbageDecodesToImplausibleLength) {
  // "GET / HTTP/1.1" — someone pointed an HTTP client at the socket. The
  // first four bytes decode to ~540 MiB, which the cap rejects.
  const std::string garbage = "GET / HTTP/1.1\r\n\r\n";
  FrameDecoder decoder;
  decoder.Feed(garbage.data(), garbage.size());
  std::string payload;
  EXPECT_FALSE(decoder.Next(&payload).ok());
}

TEST(FramingTest, StickyAfterError) {
  const char zeros[4] = {0, 0, 0, 0};
  FrameDecoder decoder;
  decoder.Feed(zeros, sizeof(zeros));
  std::string payload;
  ASSERT_FALSE(decoder.Next(&payload).ok());
  // The stream is beyond recovery; feeding a valid frame cannot resync.
  const std::string frame = EncodeFrame("late");
  decoder.Feed(frame.data(), frame.size());
  EXPECT_FALSE(decoder.Next(&payload).ok());
}

// -- Protocol ---------------------------------------------------------------

TEST(ProtocolTest, RequestRoundTrip) {
  JsonValue params = JsonValue::Object();
  params.Set("project", JsonValue::String("/tmp/p"));
  const std::string payload =
      SerializeServiceRequest(7, "detect", std::move(params));
  ServiceRequest request = ParseServiceRequest(payload).value();
  EXPECT_EQ(request.id, 7u);
  EXPECT_EQ(request.verb, "detect");
  EXPECT_EQ(request.params.GetString("project").value(), "/tmp/p");
}

TEST(ProtocolTest, RequestDefaultsIdAndParams) {
  ServiceRequest request =
      ParseServiceRequest("{\"verb\":\"ping\"}").value();
  EXPECT_EQ(request.id, 0u);
  EXPECT_EQ(request.verb, "ping");
  EXPECT_TRUE(request.params.is_object());
}

TEST(ProtocolTest, RequestRejectsGarbage) {
  EXPECT_FALSE(ParseServiceRequest("not json").ok());
  EXPECT_FALSE(ParseServiceRequest("[1,2,3]").ok());
  EXPECT_FALSE(ParseServiceRequest("{\"id\":1}").ok());  // no verb
  EXPECT_FALSE(ParseServiceRequest("{\"verb\":42}").ok());
}

TEST(ProtocolTest, IdsMustBeIntegersInRange) {
  for (const char* id : {"1.5", "1e300", "9223372036854775807"}) {
    const std::string request =
        std::string("{\"id\":") + id + ",\"verb\":\"ping\"}";
    const Result<ServiceRequest> parsed = ParseServiceRequest(request);
    ASSERT_FALSE(parsed.ok()) << id;
    EXPECT_NE(parsed.status().message().find("\"id\""), std::string::npos);
    const std::string response = std::string("{\"id\":") + id +
                                 ",\"ok\":true,\"result\":{}}";
    EXPECT_FALSE(ParseServiceResponse(response).ok()) << id;
  }
  EXPECT_EQ(ParseServiceRequest("{\"id\":4.0,\"verb\":\"ping\"}")->id, 4u);
}

TEST(ProtocolTest, OkResponseRoundTrip) {
  JsonValue result = JsonValue::Object();
  result.Set("rows", JsonValue::Int(4));
  const std::string payload =
      SerializeServiceOk(9, std::move(result), "four rows\n");
  ServiceResponse response = ParseServiceResponse(payload).value();
  EXPECT_EQ(response.id, 9u);
  EXPECT_TRUE(response.ok);
  EXPECT_EQ(response.result.GetInt("rows").value(), 4);
  EXPECT_EQ(response.text, "four rows\n");
}

TEST(ProtocolTest, ErrorResponseRestoresStatusCode) {
  const std::string payload =
      SerializeServiceError(3, Status::NotFound("no project at /x"));
  ServiceResponse response = ParseServiceResponse(payload).value();
  EXPECT_EQ(response.id, 3u);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error.code(), StatusCode::kNotFound);
  EXPECT_EQ(response.error.message(), "no project at /x");
}

TEST(ProtocolTest, ResponseRejectsGarbage) {
  EXPECT_FALSE(ParseServiceResponse("").ok());
  EXPECT_FALSE(ParseServiceResponse("nope").ok());
  EXPECT_FALSE(ParseServiceResponse("{\"id\":1}").ok());  // no ok
}

// -- Daemon end-to-end ------------------------------------------------------

/// Starts a daemon on its own thread and guarantees teardown: tests ask
/// for shutdown via the protocol (or Stop()) and join.
class DaemonRunner {
 public:
  explicit DaemonRunner(const std::string& socket_path) {
    Daemon::Options options;
    options.socket_path = socket_path;
    daemon_ = Daemon::Start(options).value();
    thread_ = std::thread([this] { serve_status_ = daemon_->Serve(); });
  }

  ~DaemonRunner() { Stop(); }

  void Stop() {
    if (daemon_ == nullptr) return;
    daemon_->RequestStop();
    thread_.join();
    daemon_.reset();
  }

  /// Joins after a protocol-level shutdown (the verb already stopped the
  /// loop; RequestStop would be a no-op race).
  Status JoinAfterShutdownVerb() {
    thread_.join();
    daemon_.reset();
    return serve_status_;
  }

  Daemon& daemon() { return *daemon_; }

 private:
  std::unique_ptr<Daemon> daemon_;
  std::thread thread_;
  Status serve_status_ = Status::OK();
};

/// Inits a project at `dir`, discovers rules from the Table-2 CSV and
/// saves — the fixture every daemon test opens.
void SeedProject(const std::string& dir, const std::string& csv) {
  Project project = Project::Init(dir, "zips").value();
  Project::Parameters parameters;
  parameters.min_coverage = 0.5;
  parameters.allowed_violation_ratio = 0.3;
  project.set_parameters(parameters);
  ASSERT_TRUE(project.AttachDataset("zips", csv).ok());
  Relation data = project.LoadDataset().value();
  Engine engine;
  auto discovery = engine.Discover(data, project.discovery_options());
  ASSERT_TRUE(discovery.ok());
  ASSERT_FALSE(discovery->pfds.empty());
  for (const DiscoveredPfd& d : discovery->pfds) {
    project.AddDiscoveredRule(d, "zips");
  }
  ASSERT_TRUE(project.Save().ok());
}

/// Hand-records a second rule in the seeded project at `dir`, a constant
/// zip -> city PFD that New York violates (AddDiscoveredRule dedupes equal
/// pfds, so re-discovery won't do).
void AddSecondRule(const std::string& dir) {
  Project project = Project::Open(dir).value();
  DiscoveredPfd extra;
  Tableau tableau;
  TableauRow row;
  row.lhs.push_back(
      TableauCell::Of(ParseConstrainedPattern("(900)!\\D{2}").value()));
  row.rhs.push_back(
      TableauCell::Of(ParseConstrainedPattern("Los\\ Angeles").value()));
  tableau.AddRow(row);
  extra.pfd = Pfd::Simple("Zip", "zip", "city", tableau);
  extra.stats.total_rows = 4;
  extra.stats.covered_rows = 3;
  project.AddDiscoveredRule(extra, "manual");
  ASSERT_GE(project.rules().size(), 2u);
  ASSERT_TRUE(project.Save().ok());
}

JsonValue ConfirmAllParams(const std::string& dir) {
  JsonValue params = JsonValue::Object();
  params.Set("project", JsonValue::String(dir));
  params.Set("all", JsonValue::Bool(true));
  return params;
}

TEST(DaemonTest, PingStatsAndGracefulShutdown) {
  const std::string socket_path = FreshSocket("ping");
  const std::string dir = FreshDir("ping");
  const std::string csv = WriteZipCsv("ping");
  SeedProject(dir, csv);

  DaemonRunner runner(socket_path);
  DaemonClient client = DaemonClient::Connect(socket_path).value();

  ServiceResponse ping = client.Call("ping", JsonValue::Object()).value();
  ASSERT_TRUE(ping.ok);
  EXPECT_EQ(ping.result.GetInt("pid").value(),
            static_cast<int64_t>(::getpid()));
  EXPECT_EQ(ping.result.GetInt("protocol").value(), 1);

  // Opening the project makes the daemon hold its flock. Same-process
  // FileLock acquires share, so contention is observable only from
  // another process: a forked child's open must time out.
  JsonValue open = JsonValue::Object();
  open.Set("dir", JsonValue::String(dir));
  ServiceResponse info = client.Call("project.open", std::move(open)).value();
  ASSERT_TRUE(info.ok);
  EXPECT_EQ(info.result.GetString("name").value(), "zips");
  // (The child probes with raw flock on a fresh fd: FileLock's
  // same-process registry and the lock-holding file description are both
  // inherited across fork, so the library call would just share.)
  const auto lock_acquirable_from_child = [&dir] {
    const pid_t pid = ::fork();
    EXPECT_GE(pid, 0);
    if (pid == 0) {
      const int fd = ::open((dir + "/.anmat.lock").c_str(), O_RDWR);
      if (fd < 0) ::_exit(2);
      ::_exit(::flock(fd, LOCK_EX | LOCK_NB) == 0 ? 0 : 1);
    }
    int status = 0;
    EXPECT_EQ(::waitpid(pid, &status, 0), pid);
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  };
  EXPECT_FALSE(lock_acquirable_from_child());

  ServiceResponse stats = client.Call("stats", JsonValue::Object()).value();
  ASSERT_TRUE(stats.ok);
  EXPECT_EQ(stats.result.GetInt("projects").value(), 1);
  EXPECT_EQ(stats.result.GetInt("connections").value(), 1);
  ASSERT_NE(stats.result.Get("project_stats"), nullptr);
  const JsonValue& per_project = stats.result.Get("project_stats")->at(0);
  EXPECT_NE(per_project.Get("automaton_cache"), nullptr);

  ServiceResponse bye = client.Call("shutdown", JsonValue::Object()).value();
  ASSERT_TRUE(bye.ok);
  EXPECT_TRUE(bye.result.GetBool("stopping").value());
  EXPECT_TRUE(runner.JoinAfterShutdownVerb().ok());

  // The drain destroyed the hosts: flock released, socket unlinked.
  EXPECT_TRUE(lock_acquirable_from_child());
  EXPECT_FALSE(std::filesystem::exists(socket_path));
  std::filesystem::remove_all(dir);
}

TEST(DaemonTest, WorkflowVerbsMatchReportJson) {
  const std::string socket_path = FreshSocket("workflow");
  const std::string dir = FreshDir("workflow");
  const std::string csv = WriteZipCsv("workflow");
  SeedProject(dir, csv);

  // The expectation, computed cold: what the one-shot CLI would print
  // under --format json for detect against the confirmed rules.
  std::string expected_detect;
  {
    Project project = Project::Open(dir).value();
    for (const RuleRecord& rule : project.rules().records()) {
      ASSERT_TRUE(
          project.SetRuleStatus(rule.id, RuleStatus::kConfirmed).ok());
    }
    ASSERT_TRUE(project.Save().ok());
    Relation data = project.LoadDataset().value();
    Engine engine;
    auto detection = engine.Detect(data, project.ConfirmedPfds());
    ASSERT_TRUE(detection.ok());
    expected_detect =
        DetectionToJson(data, project.ConfirmedPfds(), *detection).Dump();
  }

  DaemonRunner runner(socket_path);
  DaemonClient client = DaemonClient::Connect(socket_path).value();

  JsonValue detect = JsonValue::Object();
  detect.Set("project", JsonValue::String(dir));
  ServiceResponse first = client.Call("detect", std::move(detect)).value();
  ASSERT_TRUE(first.ok) << first.error.message();
  // Byte-identical with the cold, report-layer rendering.
  EXPECT_EQ(first.result.Dump(), expected_detect);
  EXPECT_NE(first.text.find("=== Violations ==="), std::string::npos);

  const auto cache_counters = [&client] {
    ServiceResponse stats = client.Call("stats", JsonValue::Object()).value();
    const JsonValue& cache =
        *stats.result.Get("project_stats")->at(0).Get("automaton_cache");
    return std::make_pair(cache.GetInt("hits").value(),
                          cache.GetInt("misses").value());
  };
  const std::pair<int64_t, int64_t> after_first = cache_counters();

  // Again on the warm engine: identical bytes, answered from the kept
  // detection of the first call, so the automaton cache sees no lookup.
  JsonValue again = JsonValue::Object();
  again.Set("project", JsonValue::String(dir));
  ServiceResponse second = client.Call("detect", std::move(again)).value();
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(second.result.Dump(), expected_detect);
  EXPECT_GT(after_first.first, 0);
  EXPECT_EQ(cache_counters(), after_first);

  ServiceResponse stats = client.Call("stats", JsonValue::Object()).value();
  const JsonValue& warm =
      *stats.result.Get("project_stats")->at(0).Get("warm_datasets");
  EXPECT_EQ(warm.GetInt("entries").value(), 1);
  EXPECT_EQ(warm.GetInt("hits").value(), 1);
  EXPECT_EQ(warm.GetInt("misses").value(), 1);

  // rules.list mirrors RuleSetToJson.
  JsonValue list = JsonValue::Object();
  list.Set("project", JsonValue::String(dir));
  ServiceResponse rules = client.Call("rules.list", std::move(list)).value();
  ASSERT_TRUE(rules.ok);
  {
    Project::OpenOptions read_only;
    read_only.read_only = true;
    Project project = Project::Open(dir, read_only).value();
    EXPECT_EQ(rules.result.Dump(), RuleSetToJson(project.rules()).Dump());
  }
  std::filesystem::remove_all(dir);
}

TEST(DaemonTest, AnnotatePersistsNoteThroughDaemon) {
  const std::string socket_path = FreshSocket("annotate");
  const std::string dir = FreshDir("annotate");
  const std::string csv = WriteZipCsv("annotate");
  SeedProject(dir, csv);
  {
    DaemonRunner runner(socket_path);
    DaemonClient client = DaemonClient::Connect(socket_path).value();
    JsonValue params = JsonValue::Object();
    params.Set("project", JsonValue::String(dir));
    params.Set("id", JsonValue::Int(1));
    params.Set("note", JsonValue::String("zip drives city"));
    ServiceResponse response =
        client.Call("rules.annotate", std::move(params)).value();
    ASSERT_TRUE(response.ok) << response.error.message();
    EXPECT_EQ(response.text, "annotated rule 1\n");

    // Unknown ids fail with NotFound naming the id; connection lives.
    JsonValue missing = JsonValue::Object();
    missing.Set("project", JsonValue::String(dir));
    missing.Set("id", JsonValue::Int(99));
    missing.Set("note", JsonValue::String("x"));
    ServiceResponse bad =
        client.Call("rules.annotate", std::move(missing)).value();
    ASSERT_FALSE(bad.ok);
    EXPECT_EQ(bad.error.code(), StatusCode::kNotFound);
    EXPECT_NE(bad.error.message().find("99"), std::string::npos);
  }
  // The note survived the daemon: it was saved, not just cached.
  Project reopened = Project::Open(dir).value();
  EXPECT_EQ(reopened.rules().Find(1)->note, "zip drives city");
  std::filesystem::remove_all(dir);
}

TEST(DaemonTest, InitRoundTripsParametersThroughProjectJson) {
  const std::string socket_path = FreshSocket("init");
  const std::string dir = FreshDir("init");
  const std::string bad_dir = FreshDir("init-bad");
  DaemonRunner runner(socket_path);
  DaemonClient client = DaemonClient::Connect(socket_path).value();

  JsonValue params = JsonValue::Object();
  params.Set("dir", JsonValue::String(dir));
  params.Set("name", JsonValue::String("tuned"));
  params.Set("coverage", JsonValue::Number(0.5));
  params.Set("violations", JsonValue::Number(0.3));
  ServiceResponse init =
      client.Call("project.init", std::move(params)).value();
  ASSERT_TRUE(init.ok) << init.error.message();
  EXPECT_EQ(init.result.GetString("name").value(), "tuned");

  // A mistyped parameter fails the verb before anything reaches the disk.
  JsonValue bad = JsonValue::Object();
  bad.Set("dir", JsonValue::String(bad_dir));
  bad.Set("coverage", JsonValue::String("high"));
  ServiceResponse rejected =
      client.Call("project.init", std::move(bad)).value();
  ASSERT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.error.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(std::filesystem::exists(bad_dir + "/project.json"));
  runner.Stop();

  Project reopened = Project::Open(dir).value();
  EXPECT_EQ(reopened.name(), "tuned");
  EXPECT_DOUBLE_EQ(reopened.parameters().min_coverage, 0.5);
  EXPECT_DOUBLE_EQ(reopened.parameters().allowed_violation_ratio, 0.3);
  std::filesystem::remove_all(dir);
}

TEST(DaemonTest, FailedWriterVerbsLeaveNoPartialEdit) {
  const std::string socket_path = FreshSocket("partial");
  const std::string dir = FreshDir("partial");
  const std::string csv = WriteZipCsv("partial");
  SeedProject(dir, csv);
  // What the project holds before any failing verb, and what it must hold
  // after the one successful annotate below.
  Project expected = Project::Open(dir).value();
  ASSERT_EQ(expected.rules().Find(1)->status, RuleStatus::kDiscovered);
  ASSERT_TRUE(expected.AnnotateRule(1, "kept").ok());

  DaemonRunner runner(socket_path);
  DaemonClient client = DaemonClient::Connect(socket_path).value();
  const auto call = [&](const std::string& verb,
                        const std::function<void(JsonValue*)>& fill) {
    JsonValue params = JsonValue::Object();
    params.Set("project", JsonValue::String(dir));
    params.Set("dir", JsonValue::String(dir));
    fill(&params);
    return client.Call(verb, std::move(params)).value();
  };
  const auto state = [&] {
    return call("rules.list", [](JsonValue*) {}).result.Dump() + "\n" +
           call("project.open", [](JsonValue*) {}).result.Dump();
  };
  const std::string before = state();
  const auto one_known_one_unknown = [](JsonValue* params) {
    JsonValue ids = JsonValue::Array();
    ids.push_back(JsonValue::Int(1));
    ids.push_back(JsonValue::Int(999));
    params->Set("ids", std::move(ids));
  };

  for (const char* verb : {"rules.confirm", "rules.reject", "rules.delete"}) {
    ServiceResponse failed = call(verb, one_known_one_unknown);
    ASSERT_FALSE(failed.ok) << verb;
    EXPECT_NE(failed.error.message().find("999"), std::string::npos) << verb;
    EXPECT_EQ(state(), before) << verb << " left a partial edit";
  }
  ServiceResponse annotate_missing = call("rules.annotate", [](JsonValue* p) {
    p->Set("id", JsonValue::Int(999));
    p->Set("note", JsonValue::String("x"));
  });
  ASSERT_FALSE(annotate_missing.ok);
  EXPECT_EQ(state(), before);
  // discover sets parameters and attaches the dataset before loading it.
  ServiceResponse discover_missing = call("discover", [&](JsonValue* p) {
    p->Set("data", JsonValue::String(dir + "/no-such.csv"));
    p->Set("coverage", JsonValue::Number(0.9));
  });
  ASSERT_FALSE(discover_missing.ok);
  EXPECT_EQ(state(), before) << "discover left a partial edit";

  // A later successful save persists that edit and nothing else.
  ServiceResponse annotated = call("rules.annotate", [](JsonValue* p) {
    p->Set("id", JsonValue::Int(1));
    p->Set("note", JsonValue::String("kept"));
  });
  ASSERT_TRUE(annotated.ok) << annotated.error.message();
  runner.Stop();
  Project reopened = Project::Open(dir).value();
  EXPECT_EQ(RuleSetToJson(reopened.rules()).Dump(),
            RuleSetToJson(expected.rules()).Dump());
  EXPECT_EQ(reopened.datasets().size(), expected.datasets().size());
  EXPECT_DOUBLE_EQ(reopened.parameters().min_coverage,
                   expected.parameters().min_coverage);
  std::filesystem::remove_all(dir);
}

TEST(DaemonTest, RequestErrorsKeepTheConnection) {
  const std::string socket_path = FreshSocket("request-errors");
  DaemonRunner runner(socket_path);
  DaemonClient client = DaemonClient::Connect(socket_path).value();

  // Unknown verb on a project that exists nowhere: request-level error.
  JsonValue params = JsonValue::Object();
  params.Set("project", JsonValue::String(FreshDir("request-errors")));
  ServiceResponse missing = client.Call("detect", std::move(params)).value();
  ASSERT_FALSE(missing.ok);
  EXPECT_EQ(missing.error.code(), StatusCode::kNotFound);

  // Verb with no project param at all.
  ServiceResponse no_dir = client.Call("detect", JsonValue::Object()).value();
  ASSERT_FALSE(no_dir.ok);

  // The same connection still answers.
  ServiceResponse ping = client.Call("ping", JsonValue::Object()).value();
  EXPECT_TRUE(ping.ok);
}

/// Connects a raw socket (no client library) for wire-level abuse.
int RawConnect(const std::string& socket_path) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

/// Reads until EOF (the daemon closing the connection) and returns all
/// bytes received first.
std::string ReadUntilEof(int fd) {
  std::string all;
  char buf[4096];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    all.append(buf, static_cast<size_t>(n));
  }
  return all;
}

TEST(DaemonTest, MalformedJsonGetsErrorResponseAndConnectionLives) {
  const std::string socket_path = FreshSocket("malformed");
  DaemonRunner runner(socket_path);

  const int fd = RawConnect(socket_path);
  const std::string frame = EncodeFrame("this is not json");
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));

  // The framing was intact, so the daemon answers an ok:false response
  // with id 0 and keeps the connection open for the next frame.
  FrameDecoder decoder;
  std::string payload;
  char buf[4096];
  while (!decoder.Next(&payload).value()) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    ASSERT_GT(n, 0);
    decoder.Feed(buf, static_cast<size_t>(n));
  }
  ServiceResponse response = ParseServiceResponse(payload).value();
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.id, 0u);

  // Still alive: a well-formed ping on the same socket answers.
  const std::string ping =
      EncodeFrame(SerializeServiceRequest(1, "ping", JsonValue::Object()));
  ASSERT_EQ(::send(fd, ping.data(), ping.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(ping.size()));
  while (!decoder.Next(&payload).value()) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    ASSERT_GT(n, 0);
    decoder.Feed(buf, static_cast<size_t>(n));
  }
  EXPECT_TRUE(ParseServiceResponse(payload).value().ok);
  ::close(fd);
}

TEST(DaemonTest, GarbageBytesCloseOnlyThatConnection) {
  const std::string socket_path = FreshSocket("garbage");
  DaemonRunner runner(socket_path);

  const int fd = RawConnect(socket_path);
  const std::string garbage = "GET / HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(garbage.size()));

  // One final error frame, then EOF.
  const std::string all = ReadUntilEof(fd);
  FrameDecoder decoder;
  decoder.Feed(all.data(), all.size());
  std::string payload;
  ASSERT_TRUE(decoder.Next(&payload).value());
  ServiceResponse response = ParseServiceResponse(payload).value();
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error.code(), StatusCode::kParseError);
  ::close(fd);

  // The daemon is unharmed: a fresh client gets service.
  DaemonClient client = DaemonClient::Connect(socket_path).value();
  EXPECT_TRUE(client.Call("ping", JsonValue::Object()).value().ok);
}

TEST(DaemonTest, OversizedFrameClosesOnlyThatConnection) {
  const std::string socket_path = FreshSocket("oversized");
  DaemonRunner runner(socket_path);

  const int fd = RawConnect(socket_path);
  const unsigned char huge[4] = {0xFF, 0xFF, 0xFF, 0x7F};  // ~2 GiB
  ASSERT_EQ(::send(fd, huge, sizeof(huge), MSG_NOSIGNAL), 4);
  const std::string all = ReadUntilEof(fd);  // error frame + EOF
  EXPECT_FALSE(all.empty());
  ::close(fd);

  DaemonClient client = DaemonClient::Connect(socket_path).value();
  EXPECT_TRUE(client.Call("ping", JsonValue::Object()).value().ok);
}

TEST(DaemonTest, TruncatedFrameThenDisconnectIsHarmless) {
  const std::string socket_path = FreshSocket("truncated");
  DaemonRunner runner(socket_path);

  // A length prefix promising 1000 bytes, then silence, then a hangup.
  const int fd = RawConnect(socket_path);
  const unsigned char header[4] = {0xE8, 0x03, 0, 0};
  ASSERT_EQ(::send(fd, header, sizeof(header), MSG_NOSIGNAL), 4);
  ::close(fd);

  DaemonClient client = DaemonClient::Connect(socket_path).value();
  EXPECT_TRUE(client.Call("ping", JsonValue::Object()).value().ok);
}

TEST(DaemonTest, DisconnectMidRequestDiscardsTheResponse) {
  const std::string socket_path = FreshSocket("mid-request");
  const std::string dir = FreshDir("mid-request");
  const std::string csv = WriteZipCsv("mid-request");
  SeedProject(dir, csv);

  DaemonRunner runner(socket_path);
  {
    // Fire a real project verb and hang up before the answer: the
    // executor finishes the work and discards the response.
    const int fd = RawConnect(socket_path);
    JsonValue params = JsonValue::Object();
    params.Set("project", JsonValue::String(dir));
    const std::string frame = EncodeFrame(
        SerializeServiceRequest(1, "rules.list", std::move(params)));
    ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));
    ::close(fd);
  }

  DaemonClient client = DaemonClient::Connect(socket_path).value();
  EXPECT_TRUE(client.Call("ping", JsonValue::Object()).value().ok);
  runner.Stop();
  std::filesystem::remove_all(dir);
}

TEST(DaemonTest, PeerThatStopsReadingIsDroppedAndStopDrains) {
  // A peer that shut its read side makes the answer's send fail with
  // EPIPE. The daemon must drop the answer and reap the connection, not
  // keep it (poll reports it writable on every turn, and a stop would wait
  // for its flush forever).
  const std::string socket_path = FreshSocket("stops-reading");
  DaemonRunner runner(socket_path);
  const int fd = RawConnect(socket_path);
  ASSERT_EQ(::shutdown(fd, SHUT_RD), 0);
  const std::string frame =
      EncodeFrame(SerializeServiceRequest(1, "ping", JsonValue::Object()));
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));

  DaemonClient client = DaemonClient::Connect(socket_path).value();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  int64_t connections = 0;
  do {
    connections = client.Call("stats", JsonValue::Object())
                      .value()
                      .result.GetInt("connections")
                      .value();
  } while (connections != 1 && std::chrono::steady_clock::now() < deadline);
  EXPECT_EQ(connections, 1);
  ::close(fd);
  runner.Stop();
}

TEST(DaemonTest, ConcurrentConfirmsSerializeWithNoLostEdit) {
  const std::string socket_path = FreshSocket("writers");
  const std::string dir = FreshDir("writers");
  const std::string csv = WriteZipCsv("writers");
  SeedProject(dir, csv);
  // The race needs two distinct rules.
  AddSecondRule(dir);

  DaemonRunner runner(socket_path);

  // Two client processes race: each confirms a different rule through its
  // own connection. Both confirms copy the host's snapshot, edit and Save;
  // the host's writer mutex must serialize them so neither edit is lost.
  std::vector<pid_t> children;
  for (uint64_t id = 1; id <= 2; ++id) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      auto client = DaemonClient::Connect(socket_path);
      if (!client.ok()) ::_exit(10);
      JsonValue params = JsonValue::Object();
      params.Set("project", JsonValue::String(dir));
      JsonValue ids = JsonValue::Array();
      ids.push_back(JsonValue::Int(static_cast<int64_t>(id)));
      params.Set("ids", std::move(ids));
      auto response = client->Call("rules.confirm", std::move(params));
      if (!response.ok()) ::_exit(11);
      ::_exit(response->ok ? 0 : 12);
    }
    children.push_back(pid);
  }
  for (const pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }

  // Both edits visible through the daemon...
  DaemonClient client = DaemonClient::Connect(socket_path).value();
  JsonValue list = JsonValue::Object();
  list.Set("project", JsonValue::String(dir));
  ServiceResponse rules = client.Call("rules.list", std::move(list)).value();
  ASSERT_TRUE(rules.ok);
  int confirmed = 0;
  for (const JsonValue& rule : rules.result.Get("rules")->items()) {
    if (rule.GetString("status").value() == "confirmed") ++confirmed;
  }
  EXPECT_EQ(confirmed, 2);

  // ...and durable on disk after the daemon lets go.
  runner.Stop();
  Project reopened = Project::Open(dir).value();
  EXPECT_EQ(reopened.rules().Find(1)->status, RuleStatus::kConfirmed);
  EXPECT_EQ(reopened.rules().Find(2)->status, RuleStatus::kConfirmed);
  std::filesystem::remove_all(dir);
}

TEST(DaemonTest, Kill9MidTrafficLeavesProjectRecoverable) {
  const std::string socket_path = FreshSocket("kill9");
  const std::string dir = FreshDir("kill9");
  const std::string csv = WriteZipCsv("kill9");
  SeedProject(dir, csv);

  // The daemon lives in a child process so SIGKILL is survivable here.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    Daemon::Options options;
    options.socket_path = socket_path;
    auto daemon = Daemon::Start(options);
    if (!daemon.ok()) ::_exit(10);
    (void)(*daemon)->Serve();
    ::_exit(0);
  }

  // Wait for the socket to answer.
  Result<DaemonClient> client = Status::Internal("never connected");
  for (int attempt = 0; attempt < 200; ++attempt) {
    client = DaemonClient::Connect(socket_path);
    if (client.ok()) break;
    ::usleep(10 * 1000);
  }
  ASSERT_TRUE(client.ok()) << client.status().message();

  // One durable write through the daemon (the response arrives only after
  // Save committed), then SIGKILL with the daemon warm and holding the
  // project flock.
  ServiceResponse confirm =
      client->Call("rules.confirm", ConfirmAllParams(dir)).value();
  ASSERT_TRUE(confirm.ok) << confirm.error.message();
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));

  // The kernel released the flock with the process; open runs journal
  // recovery and must find the committed confirm.
  Project::OpenOptions prompt;
  prompt.lock_wait_ms = 2000;
  Project reopened = Project::Open(dir, prompt).value();
  EXPECT_EQ(reopened.rules().Find(1)->status, RuleStatus::kConfirmed);

  // The stale socket file is replaceable: a fresh daemon starts on it.
  Daemon::Options options;
  options.socket_path = socket_path;
  { auto fresh = Daemon::Start(options); EXPECT_TRUE(fresh.ok()); }
  ::unlink(socket_path.c_str());
  std::filesystem::remove_all(dir);
}

TEST(DaemonTest, SecondDaemonOnLiveSocketIsRefused) {
  const std::string socket_path = FreshSocket("exclusive");
  DaemonRunner runner(socket_path);
  Daemon::Options options;
  options.socket_path = socket_path;
  auto second = Daemon::Start(options);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kAlreadyExists);

  // The refused instance (destroyed inside Start) must not unlink the
  // live daemon's socket: new clients can still connect and be answered.
  auto client = DaemonClient::Connect(socket_path);
  ASSERT_TRUE(client.ok()) << client.status().message();
  ServiceResponse pong = client->Call("ping", JsonValue::Object()).value();
  EXPECT_TRUE(pong.ok);
}

TEST(DaemonTest, StreamVerbsAcrossOneConnection) {
  const std::string socket_path = FreshSocket("stream");
  const std::string dir = FreshDir("stream");
  const std::string csv = WriteZipCsv("stream");
  SeedProject(dir, csv);

  DaemonRunner runner(socket_path);
  DaemonClient client = DaemonClient::Connect(socket_path).value();
  ServiceResponse confirm =
      client.Call("rules.confirm", ConfirmAllParams(dir)).value();
  ASSERT_TRUE(confirm.ok);

  JsonValue open = JsonValue::Object();
  open.Set("project", JsonValue::String(dir));
  JsonValue columns = JsonValue::Array();
  columns.push_back(JsonValue::String("zip"));
  columns.push_back(JsonValue::String("city"));
  open.Set("columns", std::move(columns));
  ServiceResponse opened =
      client.Call("stream.open", std::move(open)).value();
  ASSERT_TRUE(opened.ok) << opened.error.message();
  const int64_t stream_id = opened.result.GetInt("stream").value();
  EXPECT_GT(stream_id, 0);

  JsonValue append = JsonValue::Object();
  append.Set("project", JsonValue::String(dir));
  append.Set("stream", JsonValue::Int(stream_id));
  JsonValue rows = JsonValue::Array();
  for (const char* zip : {"90001", "90002"}) {
    JsonValue row = JsonValue::Array();
    row.push_back(JsonValue::String(zip));
    row.push_back(JsonValue::String("Los Angeles"));
    rows.push_back(std::move(row));
  }
  append.Set("rows", std::move(rows));
  ServiceResponse appended =
      client.Call("stream.append", std::move(append)).value();
  ASSERT_TRUE(appended.ok) << appended.error.message();
  EXPECT_EQ(appended.result.GetInt("rows").value(), 2);

  JsonValue close = JsonValue::Object();
  close.Set("project", JsonValue::String(dir));
  close.Set("stream", JsonValue::Int(stream_id));
  ServiceResponse closed =
      client.Call("stream.close", std::move(close)).value();
  ASSERT_TRUE(closed.ok) << closed.error.message();
  EXPECT_EQ(closed.result.GetInt("rows").value(), 2);
  EXPECT_EQ(closed.result.GetInt("batches").value(), 1);

  // Closed means gone: a second close is NotFound.
  JsonValue gone = JsonValue::Object();
  gone.Set("project", JsonValue::String(dir));
  gone.Set("stream", JsonValue::Int(stream_id));
  ServiceResponse missing =
      client.Call("stream.close", std::move(gone)).value();
  EXPECT_FALSE(missing.ok);
  runner.Stop();
  std::filesystem::remove_all(dir);
}

// -- Readers against a parked writer ----------------------------------------

/// Parks the first fsync of a project journal until `Release`: the writer
/// verb that reaches it sits inside its `Save`, its edit not yet published.
class ParkJournalFsync : public FaultInjector {
 public:
  Status BeforeOp(FsOp op, const std::string& path) override {
    if (op != FsOp::kFsync ||
        path.find("journal.wal") == std::string::npos) {
      return Status::OK();
    }
    std::unique_lock<std::mutex> lock(mu_);
    if (parked_) return Status::OK();
    parked_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
    return Status::OK();
  }

  bool WaitParked(std::chrono::seconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [this] { return parked_; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool parked_ = false;
  bool released_ = false;
};

/// How long a read may take while a writer is parked. A detect on the
/// four-row table takes milliseconds, sanitizers included; a read that
/// queues behind the parked writer never finishes on its own.
constexpr std::chrono::seconds kReadBound{10};

TEST(ProjectHostTest, IntegerParamsRejectFractionsAndOutOfRange) {
  const std::string dir = FreshDir("int-params");
  const std::string csv = WriteZipCsv("int-params");
  SeedProject(dir, csv);
  {
    ProjectHost host(Project::Open(dir).value(), ProjectHost::Options());
    const auto dispatch = [&host](const std::string& verb,
                                  const std::string& params) {
      return host.Dispatch(verb, ParseJson(params).value());
    };
    // A fraction is not a rule id: 1.7 must not confirm rule 1.
    const std::string rules = dispatch("rules.list", "{}")->result.Dump();
    const Result<VerbResult> confirm =
        dispatch("rules.confirm", "{\"ids\":[1.7]}");
    ASSERT_FALSE(confirm.ok());
    EXPECT_EQ(confirm.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(confirm.status().message().find("\"ids\""), std::string::npos);
    EXPECT_EQ(dispatch("rules.list", "{}")->result.Dump(), rules);
    ASSERT_TRUE(dispatch("rules.confirm", "{\"all\":true}").ok());
    // Past int64's range a bare cast is undefined; a fraction truncates.
    for (const char* max : {"1e300", "9223372036854775807", "2.5"}) {
      const Result<VerbResult> detect =
          dispatch("detect", std::string("{\"max\":") + max + "}");
      ASSERT_FALSE(detect.ok()) << max;
      EXPECT_EQ(detect.status().code(), StatusCode::kInvalidArgument) << max;
      EXPECT_NE(detect.status().message().find("\"max\""), std::string::npos)
          << max;
    }
    EXPECT_TRUE(dispatch("detect", "{\"max\":2}").ok());
  }
  std::filesystem::remove_all(dir);
}

TEST(ProjectHostTest, ReadersNeverWaitOnAParkedWriter) {
  const std::string dir = FreshDir("parked");
  const std::string csv = WriteZipCsv("parked");
  SeedProject(dir, csv);
  ProjectHost host(Project::Open(dir).value(), ProjectHost::Options());
  JsonValue all = JsonValue::Object();
  all.Set("all", JsonValue::Bool(true));
  ASSERT_TRUE(host.Dispatch("rules.confirm", all).ok());

  const auto read = [&host](const std::string& verb) {
    Result<VerbResult> reply = host.Dispatch(verb, JsonValue::Object());
    return reply.ok() ? reply->result.Dump() : reply.status().ToString();
  };
  const std::vector<std::string> verbs = {"detect", "rules.list", "info"};
  std::vector<std::string> before;
  for (const std::string& verb : verbs) before.push_back(read(verb));

  ParkJournalFsync injector;
  SetFaultInjector(&injector);
  Status annotated = Status::OK();
  std::thread writer([&] {
    JsonValue params = JsonValue::Object();
    params.Set("id", JsonValue::Int(1));
    params.Set("note", JsonValue::String("parked note"));
    annotated = host.Dispatch("rules.annotate", params).status();
  });
  if (injector.WaitParked(kReadBound)) {
    for (size_t i = 0; i < verbs.size(); ++i) {
      auto reply = std::async(std::launch::async, read, verbs[i]);
      if (reply.wait_for(kReadBound) != std::future_status::ready) {
        ADD_FAILURE() << verbs[i] << " waited on the parked writer";
        // Let the queued read finish so the future's destructor returns.
        injector.Release();
        break;
      }
      EXPECT_EQ(reply.get(), before[i])
          << verbs[i] << " saw the write before it committed";
    }
  } else {
    ADD_FAILURE() << "the annotate never reached the journal fsync";
  }
  injector.Release();
  writer.join();
  SetFaultInjector(nullptr);
  ASSERT_TRUE(annotated.ok()) << annotated.ToString();

  // Committed and published: the next read sees the note.
  EXPECT_NE(read("rules.list").find("parked note"), std::string::npos);
  EXPECT_EQ(read("detect"), before[0]);
  std::filesystem::remove_all(dir);
}

// -- Warm datasets ------------------------------------------------------------

/// Writes `text` over `path` in place — same inode, cut to `text`'s
/// length — then moves the mtime on by a second. The warm key reads size
/// and mtime, and a coarse filesystem clock can stamp a rewrite with the
/// very mtime the previous load saw (project_host.h).
void RewriteInPlace(const std::string& path, const std::string& text) {
  const auto mtime = std::filesystem::last_write_time(path);
  {
    std::fstream out(path, std::ios::in | std::ios::out | std::ios::binary);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
  }
  std::filesystem::resize_file(path, text.size());
  std::filesystem::last_write_time(path, mtime + std::chrono::seconds(1));
}

/// What `detect --format json` prints for `path` against `rules`, from a
/// fresh read of the file.
std::string FreshDetectJson(const std::string& path,
                            const std::vector<Pfd>& rules) {
  Relation data = ReadCsvFile(path).value();
  Engine engine;
  return DetectionToJson(data, rules, engine.Detect(data, rules).value())
      .Dump();
}

/// The seeded project at `dir`, every rule confirmed and saved.
Project OpenConfirmed(const std::string& dir) {
  Project project = Project::Open(dir).value();
  for (const RuleRecord& rule : project.rules().records()) {
    EXPECT_TRUE(project.SetRuleStatus(rule.id, RuleStatus::kConfirmed).ok());
  }
  EXPECT_TRUE(project.Save().ok());
  return project;
}

TEST(ProjectHostTest, WarmDatasetFollowsInPlaceRewrites) {
  const std::string dir = FreshDir("warm");
  const std::string csv = WriteZipCsv("warm");
  SeedProject(dir, csv);
  Project project = OpenConfirmed(dir);
  const std::vector<Pfd> rules = project.ConfirmedPfds();
  ProjectHost host(std::move(project), ProjectHost::Options());
  const auto detect = [&host] {
    return host.Dispatch("detect", JsonValue::Object());
  };
  const auto warm = [&host](const char* key) {
    return host.WarmStatsJson().GetInt(key).value();
  };

  // Two detects in a row: one load, then the warm relation.
  const std::string original = FreshDetectJson(csv, rules);
  EXPECT_EQ(detect()->result.Dump(), original);
  EXPECT_EQ(warm("misses"), 1);
  EXPECT_EQ(warm("hits"), 0);
  EXPECT_EQ(detect()->result.Dump(), original);
  EXPECT_EQ(warm("misses"), 1);
  EXPECT_EQ(warm("hits"), 1);
  EXPECT_EQ(warm("entries"), 1);
  EXPECT_GT(warm("bytes"), 0);

  // Repair edits a copy: the warm relation still detects as before.
  ASSERT_TRUE(host.Dispatch("repair", JsonValue::Object()).ok());
  EXPECT_EQ(detect()->result.Dump(), original);

  // One cell rewritten, same size, same header: detect sees the new bytes.
  const std::string clean =
      "zip,city\n90001,Los Angeles\n90002,Los Angeles\n"
      "90003,Los Angeles\n90004,New York\n";
  std::string cell = clean;
  cell.replace(cell.find("90004,New York"), 14, "90004,New Yorj");
  RewriteInPlace(csv, cell);
  const std::string rewritten = FreshDetectJson(csv, rules);
  ASSERT_NE(rewritten, original);
  EXPECT_EQ(detect()->result.Dump(), rewritten);
  EXPECT_EQ(detect()->result.Dump(), rewritten);

  // A new header of the same size: the schema-change error still fires.
  std::string header = clean;
  header.replace(0, 8, "zip,town");
  RewriteInPlace(csv, header);
  Result<VerbResult> changed = detect();
  ASSERT_FALSE(changed.ok());
  EXPECT_NE(changed.status().message().find("changed schema"),
            std::string::npos)
      << changed.status().ToString();

  // Truncated in place to two rows, then to nothing: reloaded each time.
  RewriteInPlace(csv, clean);
  EXPECT_EQ(detect()->result.Dump(), original);
  RewriteInPlace(csv, clean.substr(0, clean.find("90003")));
  EXPECT_EQ(detect()->result.Dump(), FreshDetectJson(csv, rules));
  RewriteInPlace(csv, "");
  EXPECT_FALSE(detect().ok());
  std::filesystem::remove_all(dir);
}

TEST(ProjectHostTest, RuleEditsBetweenDetectsDetectTheNewRuleSet) {
  // The warm relation never changes, so only the rules decide whether a
  // detect is answered from the last one's kept state: after every
  // confirm or reject the detect equals an in-process DetectErrors under
  // the new confirmed set.
  const std::string dir = FreshDir("rule-edits");
  const std::string csv = WriteZipCsv("rule-edits");
  SeedProject(dir, csv);
  AddSecondRule(dir);
  std::vector<uint64_t> ids;
  {
    const Project project = Project::Open(dir).value();
    for (const RuleRecord& rule : project.rules().records()) {
      ids.push_back(rule.id);
    }
  }
  ASSERT_GE(ids.size(), 2u);
  const Relation data = ReadCsvFile(csv).value();
  ProjectHost host(Project::Open(dir).value(), ProjectHost::Options());
  const auto edit = [&host](const std::string& verb, uint64_t id) {
    JsonValue params = JsonValue::Object();
    JsonValue list = JsonValue::Array();
    list.push_back(JsonValue::Int(static_cast<int64_t>(id)));
    params.Set("ids", std::move(list));
    ASSERT_TRUE(host.Dispatch(verb, params).ok()) << verb << " " << id;
  };
  // Detects twice and returns the expected bytes.
  const auto check = [&](const std::string& step) -> std::string {
    Project::OpenOptions read_only;
    read_only.read_only = true;
    const std::vector<Pfd> rules =
        Project::Open(dir, read_only)->ConfirmedPfds();
    EXPECT_FALSE(rules.empty()) << step;
    const std::string expected =
        DetectionToJson(data, rules, DetectErrors(data, rules).value())
            .Dump();
    for (int repeat = 0; repeat < 2; ++repeat) {
      Result<VerbResult> reply = host.Dispatch("detect", JsonValue::Object());
      EXPECT_EQ(reply.ok() ? reply->result.Dump() : reply.status().ToString(),
                expected)
          << step;
    }
    return expected;
  };

  edit("rules.confirm", ids[0]);
  const std::string one = check("first rule confirmed");
  for (size_t i = 1; i < ids.size(); ++i) edit("rules.confirm", ids[i]);
  const std::string all = check("every rule confirmed");
  EXPECT_NE(one, all);
  edit("rules.reject", ids[0]);
  check("first rule rejected");
  edit("rules.confirm", ids[0]);
  EXPECT_EQ(check("first rule confirmed again"), all);
  for (size_t i = 1; i < ids.size(); ++i) edit("rules.reject", ids[i]);
  EXPECT_EQ(check("the others rejected"), one);
  std::filesystem::remove_all(dir);
}

TEST(ProjectHostTest, ConcurrentDetectsAndAnnotatesAgree) {
  const std::string dir = FreshDir("mixed");
  const std::string csv = WriteZipCsv("mixed");
  SeedProject(dir, csv);
  Project project = OpenConfirmed(dir);
  const std::string expected = FreshDetectJson(csv, project.ConfirmedPfds());
  ProjectHost host(std::move(project), ProjectHost::Options());

  // Readers share one warm relation and read snapshots while the writer
  // commits and publishes new ones.
  constexpr int kReaders = 3;
  constexpr int kDetects = 20;
  constexpr int kAnnotates = 5;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kReaders, 0);
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      for (int i = 0; i < kDetects; ++i) {
        Result<VerbResult> reply =
            host.Dispatch("detect", JsonValue::Object());
        if (!reply.ok() || reply->result.Dump() != expected) ++mismatches[r];
      }
    });
  }
  Status annotated = Status::OK();
  threads.emplace_back([&] {
    for (int i = 0; i < kAnnotates && annotated.ok(); ++i) {
      JsonValue params = JsonValue::Object();
      params.Set("id", JsonValue::Int(1));
      params.Set("note", JsonValue::String("note " + std::to_string(i)));
      annotated = host.Dispatch("rules.annotate", params).status();
    }
  });
  for (std::thread& t : threads) t.join();
  EXPECT_TRUE(annotated.ok()) << annotated.ToString();
  EXPECT_EQ(mismatches, std::vector<int>(kReaders, 0));
  EXPECT_EQ(host.WarmStatsJson().GetInt("entries").value(), 1);
  Result<VerbResult> list = host.Dispatch("rules.list", JsonValue::Object());
  ASSERT_TRUE(list.ok());
  EXPECT_NE(list->result.Dump().find("note 4"), std::string::npos);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace anmat
