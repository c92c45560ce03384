// anmat — command-line interface to the ANMAT pipeline.
//
// The original demo exposes a GUI (Figures 3-5) and a Jupyter front-end;
// this CLI is the scriptable substitute. It has two modes.
//
// Stateful project mode (the demo's §4 workflow, persisted in a project
// directory holding a catalog and a RuleSet v2 store):
//
//   anmat init <dir> [--name NAME] [--coverage G] [--violations V]
//       Create a project directory (catalog + empty rule store).
//
//   anmat discover --project <dir> [--data file.csv] [--name DATASET]
//                  [--coverage G] [--violations V] [--threads N]
//                  [--format json]
//       Attach/load a dataset, run discovery, and record every discovered
//       rule in the project store with lifecycle status `discovered` and
//       provenance (source dataset, coverage, violation ratio).
//
//   anmat rules list    --project <dir> [--format json]
//   anmat rules confirm <id...|all> --project <dir>
//   anmat rules reject  <id...|all> --project <dir>
//       Review the stored rules; only confirmed rules are applied.
//
//   anmat rules delete  <id...> --project <dir>
//       Remove stored rules permanently (ids are never reused; deleting an
//       unknown id exits 1 naming it).
//
//   anmat detect --project <dir> [--data DATASET] [--max N] [--threads N]
//                [--format json]
//   anmat repair --project <dir> [--data DATASET] [--out cleaned.csv]
//                [--threads N] [--format json]
//       Detect / repair against the project's confirmed rules.
//
//   anmat stream --project <dir> [--data DATASET] [--batch N]
//                [--clean off|constant|all] [--out cleaned.csv]
//                [--threads N] [--format json]
//       Streaming demo: feed the dataset through a DetectionStream in
//       batches of N rows (cumulative violations after each batch, paying
//       pattern work only for newly seen distinct values). --clean turns
//       on clean-on-ingest: `constant` applies confident constant-rule
//       repairs per batch, `all` additionally applies cumulative-majority
//       variable-rule repairs and surfaces majority flips as conflicts
//       (see detect/detection_stream.h). --out writes the accumulated
//       (cleaned) relation.
//
//   anmat profile --project <dir> [--data DATASET] [--threads N]
//                 [--format json]
//
//   anmat project fsck --project <dir> [--format json]
//       Crash recovery + health check: under the project lock, replay a
//       committed-but-unapplied save from the journal (or discard a torn
//       one), then verify the project loads. Exits 0 when the project is
//       healthy afterwards, 2 when state files remain corrupt (the error
//       names the file and byte offset).
//
//   anmat rules annotate <id> --note "<text>" --project <dir>
//       Attach a free-text reviewer note to a rule (empty --note clears
//       it); shown by rules list and persisted in the store.
//
// Daemon mode (src/service): `anmat serve` runs anmatd, a resident
// service holding each project open with a warm engine:
//
//   anmat serve --socket <path> [--threads N] [--workers N]
//               [--lock-wait-ms N]
//       Serve projects over a unix socket until SIGINT/SIGTERM or the
//       shutdown verb.
//
//   anmat <verb> ... --connect <socket>
//       Route a project verb (profile, discover, detect, repair, stream,
//       rules *, project fsck, init) over the daemon.
//
//   anmat daemon ping|stats|shutdown --connect <socket> [--format json]
//       Daemon-scope verbs: liveness, warm-cache statistics, graceful
//       shutdown.
//
// Every project verb has one implementation, ProjectHost
// (service/project_host.h). The CLI builds the verb's JSON params and
// either dispatches them to a ProjectHost it builds in this process over
// the project — opened writable for init, discover and rules edits,
// read-only for the reporting verbs, so those never block a concurrent
// writer — or, under --connect, sends the same params to the daemon. So
// --connect changes only the transport, never the output bytes. Only
// `project fsck` works on the directory directly without --connect: it
// must run on a project that cannot open.
//
// Project verbs also take --lock-wait-ms N: how long to wait for a
// contended project lock before failing (default 10000).
//
// One-shot mode (unchanged from earlier releases; the rule file is the
// state; profile, detect, repair and stream run the same verb bodies as
// the project forms):
//
//   anmat profile  <data.csv> [--threads N] [--format json]
//   anmat discover <data.csv> [--coverage G] [--violations V]
//                  [--rules out.json] [--table NAME] [--minimize BOOL]
//                  [--threads N] [--format json]
//   anmat detect   <data.csv> --rules rules.json [--max N] [--threads N]
//                  [--format json]
//   anmat repair   <data.csv> --rules rules.json [--out cleaned.csv]
//                  [--threads N] [--format json]
//   anmat stream   <data.csv> --rules rules.json [--batch N]
//                  [--clean off|constant|all] [--out cleaned.csv]
//                  [--threads N] [--format json]
//
// --threads N runs the stage on N worker threads (0 = all hardware
// threads); the output is byte-identical to a serial run. --format json
// emits the machine-readable view instead of the ASCII one. Unknown or
// repeated flags are rejected (exit code 1) naming the offending flag.
//
// Exit codes: 0 success, 1 usage error, 2 pipeline error.

#include <cerrno>
#include <climits>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "anmat/engine.h"
#include "anmat/project.h"
#include "anmat/report.h"
#include "pfd/implication.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/project_host.h"
#include "store/project_journal.h"
#include "store/rule_store.h"
#include "util/fs.h"
#include "util/json.h"

namespace {

int Usage() {
  std::cerr <<
      "usage:\n"
      "  anmat init <dir> [--name NAME] [--coverage G] [--violations V]\n"
      "  anmat profile  <data.csv> | --project <dir> [--data DATASET]\n"
      "                 [--threads N] [--format json]\n"
      "  anmat discover <data.csv> [--coverage G] [--violations V]\n"
      "                 [--rules out.json] [--table NAME] [--minimize BOOL]\n"
      "                 [--threads N] [--format json]\n"
      "  anmat discover --project <dir> [--data file.csv] [--name DATASET]\n"
      "                 [--coverage G] [--violations V] [--threads N]\n"
      "                 [--format json]\n"
      "  anmat project fsck  --project <dir> [--format json]\n"
      "  anmat rules list    --project <dir> [--format json]\n"
      "  anmat rules confirm <id...|all> --project <dir>\n"
      "  anmat rules reject  <id...|all> --project <dir>\n"
      "  anmat rules delete  <id...> --project <dir>\n"
      "  anmat detect   <data.csv> --rules rules.json | --project <dir>\n"
      "                 [--data DATASET] [--max N] [--threads N]\n"
      "                 [--format json]\n"
      "  anmat repair   <data.csv> --rules rules.json | --project <dir>\n"
      "                 [--data DATASET] [--out cleaned.csv] [--threads N]\n"
      "                 [--format json]\n"
      "  anmat stream   <data.csv> --rules rules.json | --project <dir>\n"
      "                 [--data DATASET] [--batch N]\n"
      "                 [--clean off|constant|all] [--out cleaned.csv]\n"
      "                 [--threads N] [--format json]\n"
      "  anmat rules annotate <id> --note \"<text>\" --project <dir>\n"
      "  anmat serve    --socket <path> [--threads N] [--workers N]\n"
      "                 [--lock-wait-ms N]\n"
      "  anmat daemon   ping|stats|shutdown --connect <socket>\n"
      "                 [--format json]\n"
      "project verbs also take --lock-wait-ms N and --connect <socket>\n"
      "(route through a running daemon; output is byte-identical)\n";
  return 1;
}

int Fail(const anmat::Status& status) {
  std::cerr << "anmat: " << status.ToString() << "\n";
  return 2;
}

int FlagError(const std::string& message) {
  std::cerr << "anmat: " << message << "\n";
  return 1;
}

struct ParsedArgs {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  bool Has(const std::string& key) const { return flags.count(key) > 0; }
  const std::string& Get(const std::string& key) const {
    return flags.at(key);
  }
};

/// Parses `--key value` flags and positionals. Every flag takes a value;
/// unknown flags, repeated flags and flags missing their value are errors
/// naming the offending flag. Returns an empty string on success.
std::string ParseArgs(int argc, char** argv, int first,
                      const std::set<std::string>& allowed,
                      ParsedArgs* out) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const std::string key = arg.substr(2);
      if (allowed.count(key) == 0) return "unknown flag: " + arg;
      if (out->flags.count(key) > 0) return "duplicate flag: " + arg;
      if (i + 1 >= argc) return "missing value for flag: " + arg;
      out->flags[key] = argv[++i];
    } else {
      out->positional.push_back(arg);
    }
  }
  return "";
}

/// Validates the syntax of every numeric flag present; returns an error
/// message naming the first malformed one ("" when all parse).
std::string ValidateNumericFlags(const ParsedArgs& args) {
  for (const char* key : {"coverage", "violations"}) {
    if (!args.Has(key)) continue;
    const std::string& value = args.Get(key);
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0') {
      return "invalid value for flag: --" + std::string(key) + ": \"" +
             value + "\" is not a number";
    }
  }
  for (const char* key : {"threads", "max", "batch", "lock-wait-ms",
                          "workers"}) {
    if (!args.Has(key)) continue;
    const std::string& value = args.Get(key);
    // Digits only: strtoul would skip leading whitespace and wrap a '-'
    // (even " -3") to a huge value instead of failing.
    if (value.empty() ||
        value.find_first_not_of("0123456789") != std::string::npos) {
      return "invalid value for flag: --" + std::string(key) + ": \"" +
             value + "\" is not a non-negative integer";
    }
    errno = 0;
    const unsigned long parsed = std::strtoul(value.c_str(), nullptr, 10);
    // --lock-wait-ms becomes an int; a larger value would wrap negative.
    // --max travels as a JSON number (a double), exact only up to 2^53.
    if (errno == ERANGE ||
        (std::string(key) == "lock-wait-ms" && parsed > INT_MAX) ||
        (std::string(key) == "max" && parsed > (1UL << 53))) {
      return "invalid value for flag: --" + std::string(key) + ": \"" +
             value + "\" is out of range";
    }
  }
  return "";
}

/// Rejects flags that parse but apply only to the other mode of the
/// command (one-shot vs --project); silently ignoring them would defeat
/// the strict flag contract.
std::string RejectFlags(const ParsedArgs& args,
                        const std::vector<const char*>& keys,
                        const std::string& why) {
  for (const char* key : keys) {
    if (args.Has(key)) return "--" + std::string(key) + " " + why;
  }
  return "";
}

double FlagDouble(const ParsedArgs& args, const std::string& key,
                  double fallback) {
  return args.Has(key) ? std::strtod(args.Get(key).c_str(), nullptr)
                       : fallback;
}

/// --threads N (default 1 = serial; 0 = all hardware threads).
size_t FlagThreads(const ParsedArgs& args) {
  return args.Has("threads")
             ? static_cast<size_t>(
                   std::strtoul(args.Get("threads").c_str(), nullptr, 10))
             : 1;
}

/// --format json selects the machine-readable output.
bool FlagJson(const ParsedArgs& args) {
  return args.Has("format") && args.Get("format") == "json";
}

/// --lock-wait-ms N: how long project opens wait for a contended lock.
int FlagLockWaitMs(const ParsedArgs& args) {
  return args.Has("lock-wait-ms")
             ? static_cast<int>(std::strtoul(
                   args.Get("lock-wait-ms").c_str(), nullptr, 10))
             : anmat::Project::OpenOptions().lock_wait_ms;
}

// ---------------------------------------------------------------------------
// Project verbs: one implementation (ProjectHost), two transports
// ---------------------------------------------------------------------------

/// A host verb's outcome in the shape the daemon client returns.
anmat::ServiceResponse ToResponse(anmat::Result<anmat::VerbResult> result) {
  anmat::ServiceResponse response;
  response.ok = result.ok();
  if (!result.ok()) {
    response.error = result.status();
    return response;
  }
  response.result = std::move(result->result);
  response.text = std::move(result->text);
  return response;
}

/// Runs project verbs: on the daemon under --connect, else on a
/// ProjectHost built in this process over the project the first verb
/// names. A bad Result is a transport failure (no daemon, a project that
/// will not open); a failed verb is a response with ok:false.
class VerbChannel {
 public:
  explicit VerbChannel(const ParsedArgs& args) : args_(args) {}

  bool remote() const { return args_.Has("connect"); }

  anmat::Result<anmat::ServiceResponse> Call(const std::string& verb,
                                             anmat::JsonValue params) {
    if (remote()) {
      if (!client_.has_value()) {
        ANMAT_ASSIGN_OR_RETURN(
            anmat::DaemonClient client,
            anmat::DaemonClient::Connect(args_.Get("connect")));
        client_.emplace(std::move(client));
      }
      return client_->Call(verb, std::move(params));
    }
    if (host_ == nullptr) {
      ANMAT_ASSIGN_OR_RETURN(anmat::Project project,
                             OpenProject(verb, params));
      anmat::ProjectHost::Options options;
      options.engine_threads = FlagThreads(args_);
      host_ = std::make_unique<anmat::ProjectHost>(std::move(project),
                                                   options);
    }
    // project.init answers with the new project's info block, as the
    // daemon does.
    return ToResponse(
        host_->Dispatch(verb == "project.init" ? "info" : verb, params));
  }

 private:
  /// Writable for init and the writer verbs; read-only otherwise, so
  /// reporting commands hold the lock only while crash recovery runs.
  anmat::Result<anmat::Project> OpenProject(
      const std::string& verb, const anmat::JsonValue& params) const {
    if (verb == "project.init") {
      ANMAT_ASSIGN_OR_RETURN(const std::string dir, params.GetString("dir"));
      return anmat::ProjectHost::InitProject(dir, params);
    }
    ANMAT_ASSIGN_OR_RETURN(const std::string dir,
                           params.GetString("project"));
    anmat::Project::OpenOptions options;
    options.read_only = !anmat::ProjectHost::IsWriterVerb(verb);
    options.lock_wait_ms = FlagLockWaitMs(args_);
    return anmat::Project::Open(dir, options);
  }

  const ParsedArgs& args_;
  std::optional<anmat::DaemonClient> client_;
  std::unique_ptr<anmat::ProjectHost> host_;
};

anmat::Status Check(const anmat::Result<anmat::ServiceResponse>& response) {
  if (!response.ok()) return response.status();
  return response->ok ? anmat::Status::OK() : response->error;
}

void Print(const anmat::ServiceResponse& response, bool json) {
  if (json) {
    std::cout << response.result.DumpPretty() << "\n";
  } else {
    std::cout << response.text;
  }
}

/// Prints a verb's answer — its result JSON under --format json, its text
/// otherwise. Transport and verb failures both exit 2.
int Finish(const anmat::Result<anmat::ServiceResponse>& response,
           bool json) {
  if (anmat::Status s = Check(response); !s.ok()) return Fail(s);
  Print(response.value(), json);
  return 0;
}

/// The params every project verb carries: the project dir and --data.
anmat::JsonValue ProjectParams(const ParsedArgs& args) {
  anmat::JsonValue params = anmat::JsonValue::Object();
  for (const char* key : {"project", "data"}) {
    if (args.Has(key)) params.Set(key, anmat::JsonValue::String(args.Get(key)));
  }
  return params;
}

/// A path the verb reads or writes, absolute: a daemon resolves relative
/// paths against its own working directory, not this process's.
void SetPath(anmat::JsonValue* params, const char* key,
             const std::string& path) {
  params->Set(key, anmat::JsonValue::String(
                       std::filesystem::absolute(path).string()));
}

/// --coverage and --violations, when given.
void SetParameters(anmat::JsonValue* params, const ParsedArgs& args) {
  for (const char* key : {"coverage", "violations"}) {
    if (args.Has(key)) {
      params->Set(key, anmat::JsonValue::Number(FlagDouble(args, key, 0)));
    }
  }
}

constexpr const char* kProjectIsRuleStore =
    "applies to the one-shot form, not --project mode (the project "
    "directory is the rule store)";

/// Confirmed rules from a standalone rule file (one-shot mode). v1 files
/// migrate as all-confirmed; a v2 file with rules but none confirmed is an
/// error pointing at the project workflow.
anmat::Result<std::vector<anmat::Pfd>> LoadConfirmedRules(
    const std::string& path) {
  anmat::RuleStore store(path);
  ANMAT_ASSIGN_OR_RETURN(anmat::RuleSet rules, store.Load());
  std::vector<anmat::Pfd> confirmed = rules.ConfirmedPfds();
  if (confirmed.empty() && !rules.empty()) {
    return anmat::Status::InvalidArgument(
        "rule file " + path + " has " + std::to_string(rules.size()) +
        " rule(s) but none confirmed; confirm them with 'anmat rules "
        "confirm' in a project, or edit the file");
  }
  return confirmed;
}

/// The inputs of a one-shot form: <data.csv> and, when `with_rules`, the
/// confirmed rules of --rules. Returns 0, or the exit code on failure.
int LoadOneShot(const ParsedArgs& args, bool with_rules,
                anmat::Relation* relation, std::vector<anmat::Pfd>* rules) {
  if (const std::string e = RejectFlags(args, {"data", "connect"},
                                        "requires --project mode");
      !e.empty()) {
    return FlagError(e);
  }
  if (args.positional.size() != 1 || (with_rules && !args.Has("rules"))) {
    return Usage();
  }
  auto data = anmat::ReadCsvFile(args.positional[0]);
  if (!data.ok()) return Fail(data.status());
  *relation = std::move(data).value();
  if (!with_rules) return 0;
  auto confirmed = LoadConfirmedRules(args.Get("rules"));
  if (!confirmed.ok()) return Fail(confirmed.status());
  *rules = std::move(confirmed).value();
  return 0;
}

anmat::Engine MakeEngine(const ParsedArgs& args) {
  return anmat::Engine(
      anmat::ExecutionOptions{FlagThreads(args), true, nullptr});
}

// ---------------------------------------------------------------------------
// init
// ---------------------------------------------------------------------------

int CmdInit(const ParsedArgs& args) {
  if (args.positional.size() != 1) return Usage();
  anmat::JsonValue params = anmat::JsonValue::Object();
  SetPath(&params, "dir", args.positional[0]);
  if (args.Has("name")) {
    params.Set("name", anmat::JsonValue::String(args.Get("name")));
  }
  SetParameters(&params, args);
  auto response = VerbChannel(args).Call("project.init", std::move(params));
  if (anmat::Status s = Check(response); !s.ok()) return Fail(s);
  std::cout << "initialized project \""
            << response->result.GetString("name").value_or(
                   args.positional[0])
            << "\" in " << args.positional[0] << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// profile / detect / repair
// ---------------------------------------------------------------------------

/// The project form runs `verb` through the channel; the one-shot form
/// runs the same verb body over <data.csv> (and --rules).
int CmdDatasetVerb(const std::string& verb, const ParsedArgs& args) {
  anmat::JsonValue params = ProjectParams(args);
  if (args.Has("max")) {
    params.Set("max", anmat::JsonValue::Int(static_cast<int64_t>(
                          std::strtoul(args.Get("max").c_str(), nullptr,
                                       10))));
  }
  if (args.Has("out")) SetPath(&params, "out", args.Get("out"));
  if (args.Has("project")) {
    if (!args.positional.empty()) return Usage();
    if (const std::string e =
            RejectFlags(args, {"rules"}, kProjectIsRuleStore);
        !e.empty()) {
      return FlagError(e);
    }
    return Finish(VerbChannel(args).Call(verb, std::move(params)),
                  FlagJson(args));
  }
  anmat::Relation relation;
  std::vector<anmat::Pfd> rules;
  if (int code = LoadOneShot(args, verb != "profile", &relation, &rules);
      code != 0) {
    return code;
  }
  anmat::Engine engine = MakeEngine(args);
  return Finish(ToResponse(anmat::RunDatasetVerb(engine, verb, relation,
                                                 rules, params)),
                FlagJson(args));
}

// ---------------------------------------------------------------------------
// discover
// ---------------------------------------------------------------------------

int CmdDiscoverOneShot(const ParsedArgs& args) {
  auto data = anmat::ReadCsvFile(args.positional[0]);
  if (!data.ok()) return Fail(data.status());
  anmat::DiscoveryOptions options;
  options.table_name = args.Has("table") ? args.Get("table") : "T";
  options.min_coverage = FlagDouble(args, "coverage", 0.4);
  options.allowed_violation_ratio = FlagDouble(args, "violations", 0.1);
  auto discovery = MakeEngine(args).Discover(data.value(), options);
  if (!discovery.ok()) return Fail(discovery.status());
  const std::vector<anmat::DiscoveredPfd>& discovered = discovery->pfds;
  if (FlagJson(args)) {
    std::cout << anmat::DiscoveredPfdsToJson(discovered).DumpPretty() << "\n";
  } else {
    std::cout << anmat::RenderDiscoveredPfdsView(discovered);
  }
  if (args.Has("rules")) {
    std::vector<anmat::Pfd> rules;
    for (const anmat::DiscoveredPfd& d : discovered) rules.push_back(d.pfd);
    if (args.Has("minimize") && args.Get("minimize") != "false") {
      anmat::MinimizeStats stats;
      rules = anmat::MinimizeRuleSet(rules, &stats);
      if (!FlagJson(args)) {
        std::cout << "\nminimized: " << stats.rows_before << " -> "
                  << stats.rows_after << " tableau rows\n";
      }
    }
    anmat::RuleStore store(args.Get("rules"));
    if (anmat::Status s = store.Save(rules); !s.ok()) return Fail(s);
    // Keep stdout pure JSON under --format json (pipeable into jq).
    if (!FlagJson(args)) {
      std::cout << "\nsaved " << rules.size() << " rule(s) to "
                << args.Get("rules") << "\n";
    }
  }
  return 0;
}

int CmdDiscover(const ParsedArgs& args) {
  if (!args.Has("project")) {
    if (const std::string e = RejectFlags(args, {"data", "name", "connect"},
                                          "requires --project mode");
        !e.empty()) {
      return FlagError(e);
    }
    if (args.positional.size() != 1) return Usage();
    return CmdDiscoverOneShot(args);
  }
  if (!args.positional.empty()) return Usage();
  if (const std::string e =
          RejectFlags(args, {"rules", "table", "minimize"},
                      kProjectIsRuleStore);
      !e.empty()) {
    return FlagError(e);
  }
  if (args.Has("name") && !args.Has("data")) {
    return FlagError("--name requires --data (it names the attached CSV)");
  }
  anmat::JsonValue params = ProjectParams(args);
  // discover's --data is a CSV path to attach, not a catalog name.
  if (args.Has("data")) SetPath(&params, "data", args.Get("data"));
  if (args.Has("name")) {
    params.Set("name", anmat::JsonValue::String(args.Get("name")));
  }
  SetParameters(&params, args);
  return Finish(VerbChannel(args).Call("discover", std::move(params)),
                FlagJson(args));
}

// ---------------------------------------------------------------------------
// rules
// ---------------------------------------------------------------------------

/// Rule-id positionals as the verbs' "ids" array. Digits only: strtoull
/// would wrap "-1" to 2^64-1 instead of failing.
anmat::Result<anmat::JsonValue> ParseRuleIds(
    const std::vector<std::string>& positional) {
  anmat::JsonValue ids = anmat::JsonValue::Array();
  for (const std::string& arg : positional) {
    const unsigned long long id =
        arg.empty() || arg.find_first_not_of("0123456789") != std::string::npos
            ? 0
            : std::strtoull(arg.c_str(), nullptr, 10);
    if (id == 0) {
      return anmat::Status::InvalidArgument("not a rule id: " + arg);
    }
    ids.push_back(anmat::JsonValue::Int(static_cast<int64_t>(id)));
  }
  return ids;
}

int CmdRules(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string sub = argv[2];
  // Only `list` renders output, so only it takes --format; only
  // `annotate` takes --note.
  std::set<std::string> allowed = {"project", "connect", "lock-wait-ms"};
  if (sub == "list") allowed.insert("format");
  if (sub == "annotate") allowed.insert("note");
  ParsedArgs args;
  const std::string error = ParseArgs(argc, argv, 3, allowed, &args);
  if (!error.empty()) return FlagError(error);
  if (const std::string e = ValidateNumericFlags(args); !e.empty()) {
    return FlagError(e);
  }
  if (!args.Has("project")) {
    return FlagError("'anmat rules " + sub + "' requires --project <dir>");
  }
  VerbChannel verbs(args);
  anmat::JsonValue params = ProjectParams(args);
  if (sub == "list") {
    return Finish(verbs.Call("rules.list", std::move(params)),
                  FlagJson(args));
  }
  if (sub != "confirm" && sub != "reject" && sub != "delete" &&
      sub != "annotate") {
    return Usage();
  }
  const bool all = sub != "delete" && sub != "annotate" &&
                   args.positional.size() == 1 &&
                   args.positional[0] == "all";
  if (sub == "annotate" && args.positional.size() != 1) {
    return FlagError("'anmat rules annotate' needs exactly one rule id");
  }
  if (args.positional.empty()) {
    return FlagError("'anmat rules " + sub + "' needs rule id(s)" +
                     (sub == "delete" ? "" : " or 'all'"));
  }
  if (all) {
    params.Set("all", anmat::JsonValue::Bool(true));
  } else {
    auto ids = ParseRuleIds(args.positional);
    if (!ids.ok()) return FlagError(ids.status().message());
    if (sub == "annotate") {
      params.Set("id", ids->at(0));
      // An absent --note clears the annotation (same as --note "").
      params.Set("note", anmat::JsonValue::String(
                             args.Has("note") ? args.Get("note") : ""));
    } else {
      params.Set("ids", std::move(ids).value());
    }
  }
  auto response = verbs.Call("rules." + sub, std::move(params));
  // An unknown id fails confirm/reject as a pipeline error (exit 2) but
  // delete/annotate as a usage error (exit 1) naming the id; either way
  // nothing persists.
  if (response.ok() && !response->ok &&
      (sub == "delete" || sub == "annotate")) {
    return FlagError(response->error.message());
  }
  return Finish(response, /*json=*/false);
}

// ---------------------------------------------------------------------------
// project (maintenance verbs)
// ---------------------------------------------------------------------------

/// fsck without a daemon: journal recovery under the project lock, then a
/// read-only open to see whether the project loads — it may not, which is
/// why this path does not go through a ProjectHost.
anmat::Result<anmat::ServiceResponse> FsckDirect(const ParsedArgs& args) {
  const std::string dir = args.Get("project");
  if (!std::filesystem::exists(dir + "/project.json") &&
      !std::filesystem::exists(dir + "/journal.wal")) {
    return anmat::Status::NotFound("no project catalog at " + dir +
                                   "/project.json");
  }
  // Recovery runs under the project lock, like Open's (a writer crashing
  // mid-save and an fsck racing it must not both touch the files).
  anmat::FileLockOptions lock_options;
  lock_options.max_wait_ms = FlagLockWaitMs(args);
  ANMAT_ASSIGN_OR_RETURN(
      anmat::FileLock lock,
      anmat::FileLock::Acquire(dir + "/.anmat.lock", lock_options));
  anmat::ProjectJournal journal(dir);
  ANMAT_ASSIGN_OR_RETURN(const anmat::JournalRecoveryReport report,
                         journal.Recover());

  // Recovery done; now verify the project actually loads. Our lock is
  // shared with Open's same-process acquire, so this does not deadlock.
  anmat::Project::OpenOptions options;
  options.read_only = true;
  options.lock_wait_ms = lock_options.max_wait_ms;
  auto project = anmat::Project::Open(dir, options);
  const anmat::Project* loaded = project.ok() ? &project.value() : nullptr;
  anmat::ServiceResponse response;
  response.ok = true;
  response.result = anmat::FsckToJson(report, loaded, project.status());
  response.text = anmat::RenderFsckView(report, loaded, project.status());
  return response;
}

int CmdProject(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string sub = argv[2];
  if (sub != "fsck") return Usage();
  ParsedArgs args;
  const std::string error = ParseArgs(
      argc, argv, 3, {"project", "format", "connect", "lock-wait-ms"},
      &args);
  if (!error.empty()) return FlagError(error);
  if (const std::string e = ValidateNumericFlags(args); !e.empty()) {
    return FlagError(e);
  }
  if (!args.Has("project")) {
    return FlagError("'anmat project fsck' requires --project <dir>");
  }
  if (!args.positional.empty()) return Usage();
  VerbChannel verbs(args);
  auto response = verbs.remote() ? verbs.Call("fsck", ProjectParams(args))
                                 : FsckDirect(args);
  if (anmat::Status s = Check(response); !s.ok()) return Fail(s);
  Print(response.value(), FlagJson(args));
  // Exit 2 when state files remain corrupt after recovery.
  return response->result.GetBool("healthy").value_or(false) ? 0 : 2;
}

// ---------------------------------------------------------------------------
// stream (streaming detection demo, optionally cleaning on ingest)
// ---------------------------------------------------------------------------

using VerbFn = std::function<anmat::Result<anmat::ServiceResponse>(
    const std::string& verb, anmat::JsonValue params)>;

/// The one stream loop: stream.open over `relation`'s schema, one
/// stream.append per batch — the wire protocol a live feed would use —
/// and stream.close; prints the per-batch lines and the summary, or one
/// JSON document.
int StreamLoop(const ParsedArgs& args, const anmat::Relation& relation,
               size_t batch_rows, const std::string& clean,
               const VerbFn& call) {
  anmat::JsonValue open = ProjectParams(args);
  anmat::JsonValue columns = anmat::JsonValue::Array();
  for (const anmat::ColumnSpec& c : relation.schema().columns()) {
    columns.push_back(anmat::JsonValue::String(c.name));
  }
  open.Set("columns", std::move(columns));
  open.Set("clean", anmat::JsonValue::String(clean));
  auto opened = call("stream.open", std::move(open));
  if (anmat::Status s = Check(opened); !s.ok()) return Fail(s);
  auto stream_id = opened->result.GetInt("stream");
  if (!stream_id.ok()) return Fail(stream_id.status());

  const bool json = FlagJson(args);
  anmat::JsonValue batches = anmat::JsonValue::Array();
  // Batch bounds stay in size_t: a --batch past the RowId range must not
  // wrap to a zero (or tiny) step; it is one batch of the whole relation.
  const size_t num_rows = relation.num_rows();
  for (size_t begin = 0, end = 0; begin < num_rows; begin = end) {
    end = begin + std::min(batch_rows, num_rows - begin);
    anmat::JsonValue rows = anmat::JsonValue::Array();
    for (size_t r = begin; r < end; ++r) {
      anmat::JsonValue row = anmat::JsonValue::Array();
      for (const std::string& cell :
           relation.Row(static_cast<anmat::RowId>(r))) {
        row.push_back(anmat::JsonValue::String(cell));
      }
      rows.push_back(std::move(row));
    }
    anmat::JsonValue params = ProjectParams(args);
    params.Set("stream", anmat::JsonValue::Int(stream_id.value()));
    params.Set("rows", std::move(rows));
    auto appended = call("stream.append", std::move(params));
    if (anmat::Status s = Check(appended); !s.ok()) return Fail(s);
    if (json) {
      batches.push_back(appended->result);
    } else {
      std::cout << appended->text;
    }
  }

  anmat::JsonValue close = ProjectParams(args);
  close.Set("stream", anmat::JsonValue::Int(stream_id.value()));
  if (args.Has("out")) SetPath(&close, "out", args.Get("out"));
  auto closed = call("stream.close", std::move(close));
  if (anmat::Status s = Check(closed); !s.ok()) return Fail(s);
  if (!json) {
    std::cout << closed->text;
    return 0;
  }
  // The close summary, with the per-append results as "batches".
  anmat::JsonValue root = anmat::JsonValue::Object();
  root.Set("rows", anmat::JsonValue::Int(
                       static_cast<int64_t>(relation.num_rows())));
  root.Set("batches", std::move(batches));
  for (const char* key :
       {"clean", "distinct_values", "violations", "repairs", "conflicts"}) {
    const anmat::JsonValue* value = closed->result.Get(key);
    if (value != nullptr) root.Set(key, *value);
  }
  std::cout << root.DumpPretty() << "\n";
  return 0;
}

int CmdStream(const ParsedArgs& args) {
  size_t batch_rows = 256;
  if (args.Has("batch")) {
    batch_rows = std::strtoul(args.Get("batch").c_str(), nullptr, 10);
    if (batch_rows == 0) {
      return FlagError("invalid value for flag: --batch: must be >= 1");
    }
  }
  const std::string clean = args.Has("clean") ? args.Get("clean") : "off";
  if (clean != "off" && clean != "constant" && clean != "all") {
    return FlagError("invalid value for flag: --clean: \"" + clean +
                     "\" (expected off, constant, or all)");
  }

  if (args.Has("project")) {
    if (!args.positional.empty()) return Usage();
    if (const std::string e =
            RejectFlags(args, {"rules"}, kProjectIsRuleStore);
        !e.empty()) {
      return FlagError(e);
    }
    // The client reads the CSV itself, from the catalog entry the
    // dataset verb names, checked against the schema it was attached with.
    VerbChannel verbs(args);
    auto dataset = verbs.Call("dataset", ProjectParams(args));
    if (anmat::Status s = Check(dataset); !s.ok()) return Fail(s);
    anmat::Project::DatasetEntry entry;
    entry.name = dataset->result.GetString("name").value_or("");
    entry.path = dataset->result.GetString("path").value_or("");
    entry.fingerprint = dataset->result.GetString("fingerprint").value_or("");
    auto relation = anmat::ReadCsvFile(entry.path);
    if (!relation.ok()) return Fail(relation.status());
    if (anmat::Status s = entry.CheckSchema(relation->schema()); !s.ok()) {
      return Fail(s);
    }
    return StreamLoop(args, relation.value(), batch_rows, clean,
                      [&verbs](const std::string& verb,
                               anmat::JsonValue params) {
                        return verbs.Call(verb, std::move(params));
                      });
  }

  anmat::Relation relation;
  std::vector<anmat::Pfd> rules;
  if (int code = LoadOneShot(args, true, &relation, &rules); code != 0) {
    return code;
  }
  anmat::Engine engine = MakeEngine(args);
  anmat::StreamState state;
  return StreamLoop(
      args, relation, batch_rows, clean,
      [&](const std::string& verb,
          anmat::JsonValue params) -> anmat::Result<anmat::ServiceResponse> {
        if (verb == "stream.open") {
          return ToResponse(
              anmat::StreamOpenVerb(engine, rules, params, 1, &state));
        }
        if (verb == "stream.append") {
          return ToResponse(anmat::StreamAppendVerb(&state, params));
        }
        return ToResponse(anmat::StreamCloseVerb(state, params));
      });
}

// ---------------------------------------------------------------------------
// serve / daemon (anmatd)
// ---------------------------------------------------------------------------

anmat::Daemon* g_daemon = nullptr;

extern "C" void HandleStopSignal(int) {
  // Async-signal-safe: one atomic store + one pipe write.
  if (g_daemon != nullptr) g_daemon->RequestStop();
}

int CmdServe(const ParsedArgs& args) {
  if (!args.positional.empty()) return Usage();
  if (!args.Has("socket")) {
    return FlagError("'anmat serve' requires --socket <path>");
  }
  anmat::Daemon::Options options;
  options.socket_path = args.Get("socket");
  options.engine_threads = FlagThreads(args);
  if (args.Has("workers")) {
    options.executor_threads = static_cast<size_t>(
        std::strtoul(args.Get("workers").c_str(), nullptr, 10));
  }
  options.lock_wait_ms = FlagLockWaitMs(args);
  auto daemon = anmat::Daemon::Start(options);
  if (!daemon.ok()) return Fail(daemon.status());
  g_daemon = daemon->get();
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  // Peers that vanish mid-write must surface as EPIPE, not kill us.
  std::signal(SIGPIPE, SIG_IGN);
  // endl flushes: scripts wait for this line before connecting.
  std::cout << "anmatd: serving on " << options.socket_path << std::endl;
  const anmat::Status status = (*daemon)->Serve();
  g_daemon = nullptr;
  if (!status.ok()) return Fail(status);
  std::cout << "anmatd: stopped\n";
  return 0;
}

int CmdDaemonVerb(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string sub = argv[2];
  if (sub != "ping" && sub != "stats" && sub != "shutdown") return Usage();
  ParsedArgs args;
  const std::string error =
      ParseArgs(argc, argv, 3, {"connect", "format"}, &args);
  if (!error.empty()) return FlagError(error);
  if (!args.Has("connect")) {
    return FlagError("'anmat daemon " + sub + "' requires --connect <socket>");
  }
  return Finish(VerbChannel(args).Call(sub, anmat::JsonValue::Object()),
                /*json=*/true);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];

  if (command == "rules") return CmdRules(argc, argv);
  if (command == "project") return CmdProject(argc, argv);
  if (command == "daemon") return CmdDaemonVerb(argc, argv);

  static const std::map<std::string, std::set<std::string>> kAllowedFlags = {
      {"init", {"name", "coverage", "violations", "connect"}},
      {"profile",
       {"project", "data", "threads", "format", "connect", "lock-wait-ms"}},
      {"discover",
       {"project", "data", "name", "coverage", "violations", "rules",
        "table", "minimize", "threads", "format", "connect",
        "lock-wait-ms"}},
      {"detect",
       {"project", "data", "rules", "max", "threads", "format", "connect",
        "lock-wait-ms"}},
      {"repair",
       {"project", "data", "rules", "out", "threads", "format", "connect",
        "lock-wait-ms"}},
      {"stream",
       {"project", "data", "rules", "batch", "clean", "out", "threads",
        "format", "connect", "lock-wait-ms"}},
      {"serve", {"socket", "threads", "workers", "lock-wait-ms"}},
  };
  auto allowed = kAllowedFlags.find(command);
  if (allowed == kAllowedFlags.end()) return Usage();

  ParsedArgs args;
  const std::string error = ParseArgs(argc, argv, 2, allowed->second, &args);
  if (!error.empty()) return FlagError(error);
  if (const std::string e = ValidateNumericFlags(args); !e.empty()) {
    return FlagError(e);
  }

  if (command == "init") return CmdInit(args);
  if (command == "discover") return CmdDiscover(args);
  if (command == "profile" || command == "detect" || command == "repair") {
    return CmdDatasetVerb(command, args);
  }
  if (command == "stream") return CmdStream(args);
  if (command == "serve") return CmdServe(args);
  return Usage();
}
