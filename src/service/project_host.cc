#include "service/project_host.h"

#include <sys/stat.h>

#include <filesystem>
#include <string_view>
#include <utility>

#include "anmat/report.h"
#include "csv/csv_writer.h"

namespace anmat {
namespace {

// -- Param lookups ----------------------------------------------------------
// Verb params are a JSON object assembled by a remote client; every lookup
// therefore type-checks and turns mismatches into InvalidArgument naming
// the key, never into a crash.

Result<std::string> ParamString(const JsonValue& params, const char* key,
                                std::string fallback) {
  const JsonValue* v = params.Get(key);
  if (v == nullptr) return fallback;
  if (!v->is_string()) {
    return Status::InvalidArgument(std::string("param \"") + key +
                                   "\" must be a string");
  }
  return v->as_string();
}

Result<int64_t> ParamInt(const JsonValue& params, const char* key,
                         int64_t fallback) {
  const JsonValue* v = params.Get(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) {
    return Status::InvalidArgument(std::string("param \"") + key +
                                   "\" must be a number");
  }
  return v->as_int();
}

Result<double> ParamDouble(const JsonValue& params, const char* key,
                           double fallback) {
  const JsonValue* v = params.Get(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) {
    return Status::InvalidArgument(std::string("param \"") + key +
                                   "\" must be a number");
  }
  return v->as_number();
}

/// Rule ids: a non-empty array of positive integers (`{"ids": [1, 2]}`).
Result<std::vector<uint64_t>> ParamIds(const JsonValue& params) {
  const JsonValue* v = params.Get("ids");
  if (v == nullptr || !v->is_array() || v->size() == 0) {
    return Status::InvalidArgument(
        "param \"ids\" must be a non-empty array of rule ids");
  }
  std::vector<uint64_t> ids;
  ids.reserve(v->size());
  for (const JsonValue& item : v->items()) {
    if (!item.is_number() || item.as_int() <= 0) {
      return Status::InvalidArgument("not a rule id: " + item.Dump());
    }
    ids.push_back(static_cast<uint64_t>(item.as_int()));
  }
  return ids;
}

/// Coverage and violation ratio from params, defaulting to `parameters`.
Result<Project::Parameters> ParamParameters(const JsonValue& params,
                                            Project::Parameters parameters) {
  ANMAT_ASSIGN_OR_RETURN(
      parameters.min_coverage,
      ParamDouble(params, "coverage", parameters.min_coverage));
  ANMAT_ASSIGN_OR_RETURN(
      parameters.allowed_violation_ratio,
      ParamDouble(params, "violations", parameters.allowed_violation_ratio));
  return parameters;
}

/// Writes `relation` to params' "out" when given; returns the text line
/// reporting it (empty when nothing was written).
Result<std::string> WriteOut(const JsonValue& params,
                             const Relation& relation,
                             const std::string& what) {
  ANMAT_ASSIGN_OR_RETURN(const std::string out_path,
                         ParamString(params, "out", ""));
  if (out_path.empty()) return std::string();
  ANMAT_RETURN_NOT_OK(WriteCsvFile(relation, out_path));
  return "wrote " + what + " table to " + out_path + "\n";
}

/// The catalog entry a verb operates on: `data` = catalog name, or the
/// path spelling that attached it (`discover --data` takes a CSV path and
/// attaches it under its stem).
Result<Project::DatasetEntry> FindData(const Project& project,
                                       const JsonValue& params) {
  ANMAT_ASSIGN_OR_RETURN(const std::string value,
                         ParamString(params, "data", ""));
  Result<Project::DatasetEntry> entry = project.FindDataset(value);
  if (entry.ok() || value.empty()) return entry;
  const std::string stem = std::filesystem::path(value).stem().string();
  if (!stem.empty() && stem != value) {
    Result<Project::DatasetEntry> by_stem = project.FindDataset(stem);
    if (by_stem.ok()) return by_stem;
  }
  return entry;
}

/// The confirmed rules; InvalidArgument when there are none.
Result<std::vector<Pfd>> ConfirmedRules(const Project& project) {
  std::vector<Pfd> rules = project.ConfirmedPfds();
  if (rules.empty()) {
    return Status::InvalidArgument(
        "project has no confirmed rules; run 'anmat rules confirm'");
  }
  return rules;
}

/// What a warm relation holds, estimated: the file's bytes (mapped or
/// read), interned bytes, one view per cell, and per column dictionary
/// its distinct values plus two ids per row.
size_t WarmBytes(const Relation& relation, size_t file_bytes) {
  size_t bytes = file_bytes + relation.arena().bytes_used() +
                 relation.num_rows() * relation.num_columns() *
                     (sizeof(std::string_view) + 2 * sizeof(uint32_t));
  for (size_t col = 0; col < relation.num_columns(); ++col) {
    const ColumnDictionary& dictionary = relation.dictionary(col);
    for (uint32_t id = 0; id < dictionary.num_values(); ++id) {
      bytes += dictionary.value(id).size() + sizeof(std::string) +
               sizeof(std::vector<RowId>);
    }
  }
  return bytes;
}

}  // namespace

// -- Verb bodies over explicit inputs ---------------------------------------

Result<VerbResult> RunDatasetVerb(Engine& engine, const std::string& verb,
                                  const Relation& relation,
                                  const std::vector<Pfd>& rules,
                                  const JsonValue& params) {
  VerbResult out;
  if (verb == "profile") {
    const std::vector<ColumnProfile> profiles = engine.Profile(relation);
    out.result = ProfilesToJson(profiles);
    out.text = RenderProfilingView(profiles);
  } else if (verb == "detect") {
    ANMAT_ASSIGN_OR_RETURN(DetectionResult detection,
                           engine.Detect(relation, rules));
    ANMAT_ASSIGN_OR_RETURN(const int64_t max, ParamInt(params, "max", -1));
    out.text = RenderViolationsView(relation, rules, detection,
                                    max >= 0 ? static_cast<size_t>(max) : 50);
    // Cap the violations array but keep the full counts in the stats
    // block, so the truncation is visible.
    if (max >= 0 && detection.violations.size() > static_cast<size_t>(max)) {
      detection.violations.resize(static_cast<size_t>(max));
    }
    out.result = DetectionToJson(relation, rules, detection);
  } else if (verb == "repair") {
    // The edits go to a copy with an arena of its own: `relation` may be
    // a warm dataset, whose arena must not grow with every repair.
    Relation repaired = relation;
    repaired.DetachArena();
    ANMAT_ASSIGN_OR_RETURN(RepairResult result,
                           engine.Repair(&repaired, rules));
    out.result = RepairToJson(result, rules);
    out.text = RenderRepairView(result);
    ANMAT_ASSIGN_OR_RETURN(const std::string wrote,
                           WriteOut(params, repaired, "cleaned"));
    out.text += wrote;
  } else {
    return Status::InvalidArgument("not a dataset verb: " + verb);
  }
  return out;
}

Result<VerbResult> StreamOpenVerb(Engine& engine, std::vector<Pfd> rules,
                                  const JsonValue& params, uint64_t id,
                                  StreamState* out) {
  const JsonValue* columns = params.Get("columns");
  if (columns == nullptr || !columns->is_array()) {
    return Status::InvalidArgument(
        "param \"columns\" must be an array of column names");
  }
  std::vector<std::string> names;
  names.reserve(columns->size());
  for (const JsonValue& c : columns->items()) {
    if (!c.is_string()) {
      return Status::InvalidArgument(
          "param \"columns\" must be an array of column names");
    }
    names.push_back(c.as_string());
  }
  ANMAT_ASSIGN_OR_RETURN(const std::string clean,
                         ParamString(params, "clean", "off"));
  if (clean != "off" && clean != "constant" && clean != "all") {
    return Status::InvalidArgument("param \"clean\": \"" + clean +
                                   "\" (expected off, constant, or all)");
  }

  ANMAT_ASSIGN_OR_RETURN(Schema schema, Schema::MakeText(names));
  ANMAT_ASSIGN_OR_RETURN(out->stream, engine.OpenStream(schema, rules));
  if (clean != "off") {
    out->stream->set_clean_on_ingest(true);
    out->stream->set_clean_variable_rules(clean == "all");
  }
  out->pfds = std::move(rules);
  out->clean = clean;

  VerbResult result;
  result.result = JsonValue::Object();
  result.result.Set("stream", JsonValue::Int(static_cast<int64_t>(id)));
  result.result.Set("clean", JsonValue::String(clean));
  result.text = "opened stream " + std::to_string(id) + " (" +
                std::to_string(names.size()) + " column(s), clean=" + clean +
                ")\n";
  return result;
}

Result<VerbResult> StreamAppendVerb(StreamState* stream,
                                    const JsonValue& params) {
  const JsonValue* rows = params.Get("rows");
  if (rows == nullptr || !rows->is_array()) {
    return Status::InvalidArgument(
        "param \"rows\" must be an array of row arrays");
  }
  std::vector<std::vector<std::string>> batch;
  batch.reserve(rows->size());
  for (const JsonValue& row : rows->items()) {
    if (!row.is_array()) {
      return Status::InvalidArgument(
          "param \"rows\" must be an array of row arrays");
    }
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (const JsonValue& cell : row.items()) {
      if (!cell.is_string()) {
        return Status::InvalidArgument("row cells must be strings");
      }
      cells.push_back(cell.as_string());
    }
    batch.push_back(std::move(cells));
  }

  ANMAT_ASSIGN_OR_RETURN(DetectionResult cumulative,
                         stream->stream->AppendRows(batch));
  stream->violations = cumulative.violations.size();
  const DetectionStream& s = *stream->stream;

  VerbResult out;
  out.result = JsonValue::Object();
  out.result.Set("rows", JsonValue::Int(static_cast<int64_t>(batch.size())));
  out.result.Set("cumulative_violations", JsonValue::Int(static_cast<int64_t>(
                                              stream->violations)));
  out.result.Set("repairs", JsonValue::Int(static_cast<int64_t>(
                                s.batch_repairs().size())));
  out.result.Set("conflicts", JsonValue::Int(static_cast<int64_t>(
                                  s.batch_conflicts().size())));
  out.text = "batch " + std::to_string(s.num_batches()) + ": +" +
             std::to_string(batch.size()) + " row(s), cumulative violations " +
             std::to_string(stream->violations) + ", repairs " +
             std::to_string(s.batch_repairs().size()) + ", conflicts " +
             std::to_string(s.batch_conflicts().size()) + "\n";
  return out;
}

Result<VerbResult> StreamCloseVerb(const StreamState& stream,
                                   const JsonValue& params) {
  const DetectionStream& s = *stream.stream;
  VerbResult out;
  out.result = JsonValue::Object();
  out.result.Set("rows", JsonValue::Int(static_cast<int64_t>(
                             s.relation().num_rows())));
  out.result.Set("batches",
                 JsonValue::Int(static_cast<int64_t>(s.num_batches())));
  out.result.Set("clean", JsonValue::String(stream.clean));
  out.result.Set("distinct_values", JsonValue::Int(static_cast<int64_t>(
                                        s.distinct_values())));
  out.result.Set("violations",
                 JsonValue::Int(static_cast<int64_t>(stream.violations)));
  JsonValue repairs = JsonValue::Array();
  for (const AppliedRepair& r : s.repairs()) {
    repairs.push_back(AppliedRepairToJson(r, stream.pfds));
  }
  out.result.Set("repairs", std::move(repairs));
  JsonValue conflicts = JsonValue::Array();
  for (const StreamConflict& c : s.conflicts()) {
    conflicts.push_back(StreamConflictToJson(c));
  }
  out.result.Set("conflicts", std::move(conflicts));

  out.text = "streamed " + std::to_string(s.relation().num_rows()) +
             " row(s) in " + std::to_string(s.num_batches()) +
             " batch(es): " + std::to_string(stream.violations) +
             " violation(s)";
  if (stream.clean != "off") {
    out.text += ", " + std::to_string(s.repairs().size()) +
                " repair(s) applied on ingest, " +
                std::to_string(s.conflicts().size()) + " conflict(s)";
  }
  out.text += "\n";
  for (const StreamConflict& c : s.conflicts()) {
    out.text += std::string("conflict [") + StreamConflictKindName(c) +
                "] row " + std::to_string(c.cell.row) + " column " +
                std::to_string(c.cell.column) + ": kept \"" + c.current +
                "\", one-shot repair would hold \"" + c.expected +
                "\" (rule " + std::to_string(c.pfd_index) + ", batch " +
                std::to_string(c.batch + 1) + ")\n";
  }
  ANMAT_ASSIGN_OR_RETURN(const std::string wrote,
                         WriteOut(params, s.relation(), "accumulated"));
  out.text += wrote;
  return out;
}

// -- ProjectHost ------------------------------------------------------------

ProjectHost::ProjectHost(Project project, const Options& options)
    : snapshot_(std::make_shared<const Project>(std::move(project))),
      engine_(ExecutionOptions{options.engine_threads, true, nullptr}) {}

Result<Project> ProjectHost::InitProject(const std::string& dir,
                                         const JsonValue& params) {
  // Type-check every param before anything touches the disk.
  ANMAT_ASSIGN_OR_RETURN(std::string name, ParamString(params, "name", ""));
  ANMAT_ASSIGN_OR_RETURN(const Project::Parameters parameters,
                         ParamParameters(params, Project::Parameters()));
  ANMAT_ASSIGN_OR_RETURN(Project project, Project::Init(dir, std::move(name)));
  project.set_parameters(parameters);
  ANMAT_RETURN_NOT_OK(project.Save());
  return project;
}

bool ProjectHost::IsWriterVerb(const std::string& verb) {
  return verb == "discover" || verb == "rules.confirm" ||
         verb == "rules.reject" || verb == "rules.delete" ||
         verb == "rules.annotate";
}

Result<VerbResult> ProjectHost::Dispatch(const std::string& verb,
                                         const JsonValue& params) {
  if (verb == "info") return Info();
  if (verb == "fsck") return Fsck();
  if (verb == "dataset") return Dataset(params);
  if (verb == "discover") return Discover(params);
  if (verb == "profile" || verb == "detect" || verb == "repair") {
    return OnDataset(verb, params);
  }
  if (verb == "rules.list") return RulesList();
  if (verb == "rules.confirm") {
    return RulesSetStatus(params, RuleStatus::kConfirmed);
  }
  if (verb == "rules.reject") {
    return RulesSetStatus(params, RuleStatus::kRejected);
  }
  if (verb == "rules.delete") return RulesDelete(params);
  if (verb == "rules.annotate") return RulesAnnotate(params);
  if (verb == "stream.open") return StreamOpen(params);
  if (verb == "stream.append") return StreamAppend(params);
  if (verb == "stream.close") return StreamClose(params);
  return Status::InvalidArgument("unknown verb: " + verb);
}

JsonValue ProjectHost::CacheStatsJson() {
  JsonValue stats = JsonValue::Object();
  stats.Set("hits",
            JsonValue::Int(static_cast<int64_t>(engine_.automata().hits())));
  stats.Set("misses", JsonValue::Int(
                          static_cast<int64_t>(engine_.automata().misses())));
  stats.Set("fallbacks",
            JsonValue::Int(
                static_cast<int64_t>(engine_.automata().fallbacks())));
  const DispatchStats dispatch = engine_.automata().dispatch_stats();
  JsonValue d = JsonValue::Object();
  d.Set("automata", JsonValue::Int(static_cast<int64_t>(dispatch.automata)));
  d.Set("total_states",
        JsonValue::Int(static_cast<int64_t>(dispatch.total_states)));
  d.Set("total_patterns",
        JsonValue::Int(static_cast<int64_t>(dispatch.total_patterns)));
  d.Set("flushes", JsonValue::Int(static_cast<int64_t>(dispatch.flushes)));
  d.Set("probes", JsonValue::Int(static_cast<int64_t>(dispatch.probes)));
  d.Set("probe_hits",
        JsonValue::Int(static_cast<int64_t>(dispatch.probe_hits)));
  d.Set("hits", JsonValue::Int(static_cast<int64_t>(dispatch.hits)));
  d.Set("misses", JsonValue::Int(static_cast<int64_t>(dispatch.misses)));
  stats.Set("dispatch", d);
  return stats;
}

JsonValue ProjectHost::WarmStatsJson() {
  MutexLock lock(&warm_mu_);
  JsonValue stats = JsonValue::Object();
  stats.Set("entries", JsonValue::Int(static_cast<int64_t>(warm_.size())));
  stats.Set("bytes", JsonValue::Int(static_cast<int64_t>(warm_bytes_)));
  stats.Set("hits", JsonValue::Int(static_cast<int64_t>(warm_hits_)));
  stats.Set("misses", JsonValue::Int(static_cast<int64_t>(warm_misses_)));
  return stats;
}

size_t ProjectHost::num_streams() {
  MutexLock lock(&streams_mu_);
  return streams_.size();
}

std::shared_ptr<const Project> ProjectHost::Snapshot() {
  MutexLock lock(&snapshot_mu_);
  return snapshot_;
}

Result<std::shared_ptr<const Project>> ProjectHost::Commit(Project next) {
  ANMAT_RETURN_NOT_OK(next.Save());
  auto published = std::make_shared<const Project>(std::move(next));
  MutexLock lock(&snapshot_mu_);
  snapshot_ = published;
  return published;
}

Result<std::shared_ptr<const Relation>> ProjectHost::WarmDataset(
    const Project& project, const Project::DatasetEntry& entry) {
  // A failed stat leaves the diagnosis to the load below.
  struct stat st {};
  const bool stated = ::stat(entry.path.c_str(), &st) == 0;
  FileIdentity file;
  if (stated) {
    file.device = static_cast<uint64_t>(st.st_dev);
    file.inode = static_cast<uint64_t>(st.st_ino);
    file.size = static_cast<uint64_t>(st.st_size);
    file.mtime_ns = static_cast<int64_t>(st.st_mtim.tv_sec) * 1000000000 +
                    st.st_mtim.tv_nsec;
  }
  {
    MutexLock lock(&warm_mu_);
    auto it = warm_.find(entry.name);
    if (it != warm_.end()) {
      const WarmEntry& warm = it->second;
      if (stated && warm.path == entry.path &&
          warm.fingerprint == entry.fingerprint && warm.file == file) {
        ++warm_hits_;
        return warm.relation;
      }
      warm_bytes_ -= warm.bytes;
      warm_.erase(it);
    }
    ++warm_misses_;
  }

  // Loaded without the lock; a concurrent miss on the same dataset loads
  // it too, and the later insert replaces the earlier.
  ANMAT_ASSIGN_OR_RETURN(Relation loaded, project.LoadDataset(entry.name));
  for (size_t col = 0; col < loaded.num_columns(); ++col) {
    loaded.dictionary(col);
  }
  auto relation = std::make_shared<const Relation>(std::move(loaded));
  const size_t bytes = WarmBytes(*relation, file.size);
  if (!stated || bytes > kMaxWarmDatasetBytes) return relation;

  MutexLock lock(&warm_mu_);
  if (auto it = warm_.find(entry.name); it != warm_.end()) {
    warm_bytes_ -= it->second.bytes;
    warm_.erase(it);
  }
  while (warm_bytes_ + bytes > kMaxWarmDatasetBytes) {
    auto oldest = warm_.begin();
    for (auto it = warm_.begin(); it != warm_.end(); ++it) {
      if (it->second.load_order < oldest->second.load_order) oldest = it;
    }
    warm_bytes_ -= oldest->second.bytes;
    warm_.erase(oldest);
  }
  warm_[entry.name] = WarmEntry{entry.path, entry.fingerprint, file,
                                relation, bytes, ++warm_loads_};
  warm_bytes_ += bytes;
  return relation;
}

Result<VerbResult> ProjectHost::Info() {
  const std::shared_ptr<const Project> project = Snapshot();
  const size_t confirmed = project->ConfirmedPfds().size();
  VerbResult out;
  out.result = JsonValue::Object();
  out.result.Set("name", JsonValue::String(project->name()));
  out.result.Set("dir", JsonValue::String(project->dir()));
  out.result.Set("datasets", JsonValue::Int(static_cast<int64_t>(
                                 project->datasets().size())));
  out.result.Set("rules", JsonValue::Int(static_cast<int64_t>(
                              project->rules().size())));
  out.result.Set("confirmed",
                 JsonValue::Int(static_cast<int64_t>(confirmed)));
  out.text = "project \"" + project->name() + "\" (" +
             std::to_string(project->datasets().size()) + " dataset(s), " +
             std::to_string(project->rules().size()) + " rule(s), " +
             std::to_string(confirmed) + " confirmed)\n";
  return out;
}

Result<VerbResult> ProjectHost::Fsck() {
  // The host ran journal recovery when it opened and has held the project
  // lock ever since — no save can have torn in between — so fsck reports
  // that recovery plus the live (healthy by construction) state.
  const std::shared_ptr<const Project> project = Snapshot();
  VerbResult out;
  out.result = FsckToJson(project->recovery(), project.get(), Status::OK());
  out.text = RenderFsckView(project->recovery(), project.get(), Status::OK());
  return out;
}

Result<VerbResult> ProjectHost::Dataset(const JsonValue& params) {
  // The catalog entry instead of the rows: a client (the CLI's stream
  // mode) reads the CSV itself, checks it against the fingerprint, and
  // feeds batches over the stream verbs.
  ANMAT_ASSIGN_OR_RETURN(const Project::DatasetEntry entry,
                         FindData(*Snapshot(), params));
  VerbResult out;
  out.result = JsonValue::Object();
  out.result.Set("name", JsonValue::String(entry.name));
  out.result.Set("path", JsonValue::String(entry.path));
  out.result.Set("fingerprint", JsonValue::String(entry.fingerprint));
  out.text = entry.name + ": " + entry.path + "\n";
  return out;
}

Result<VerbResult> ProjectHost::Discover(const JsonValue& params) {
  MutexLock writer(&writer_mu_);
  Project next = *Snapshot();
  ANMAT_ASSIGN_OR_RETURN(const Project::Parameters parameters,
                         ParamParameters(params, next.parameters()));
  next.set_parameters(parameters);

  ANMAT_ASSIGN_OR_RETURN(const std::string data,
                         ParamString(params, "data", ""));
  std::string dataset_name;
  if (!data.empty()) {
    ANMAT_ASSIGN_OR_RETURN(
        dataset_name,
        ParamString(params, "name",
                    std::filesystem::path(data).stem().string()));
    ANMAT_RETURN_NOT_OK(next.AttachDataset(dataset_name, data));
  } else {
    ANMAT_ASSIGN_OR_RETURN(Project::DatasetEntry entry, next.FindDataset());
    dataset_name = entry.name;
  }
  ANMAT_ASSIGN_OR_RETURN(Relation relation, next.LoadDataset(dataset_name));

  ANMAT_ASSIGN_OR_RETURN(
      DiscoveryResult discovery,
      engine_.Discover(relation, next.discovery_options()));
  for (const DiscoveredPfd& d : discovery.pfds) {
    next.AddDiscoveredRule(d, dataset_name);
  }
  ANMAT_ASSIGN_OR_RETURN(const std::shared_ptr<const Project> committed,
                         Commit(std::move(next)));

  VerbResult out;
  out.result = RuleSetToJson(committed->rules());
  out.text = RenderDiscoveredPfdsView(discovery.pfds) + "\nrecorded " +
             std::to_string(discovery.pfds.size()) +
             " rule(s) as discovered in " + committed->rules_path() +
             " (review with 'anmat rules list', apply with 'anmat rules "
             "confirm')\n";
  return out;
}

Result<VerbResult> ProjectHost::OnDataset(const std::string& verb,
                                          const JsonValue& params) {
  const std::shared_ptr<const Project> project = Snapshot();
  ANMAT_ASSIGN_OR_RETURN(const Project::DatasetEntry entry,
                         FindData(*project, params));
  ANMAT_ASSIGN_OR_RETURN(const std::shared_ptr<const Relation> relation,
                         WarmDataset(*project, entry));
  std::vector<Pfd> rules;
  if (verb != "profile") {
    ANMAT_ASSIGN_OR_RETURN(rules, ConfirmedRules(*project));
  }
  return RunDatasetVerb(engine_, verb, *relation, rules, params);
}

Result<VerbResult> ProjectHost::RulesList() {
  const std::shared_ptr<const Project> project = Snapshot();
  VerbResult out;
  out.result = RuleSetToJson(project->rules());
  out.text = RenderRuleSetView(project->rules());
  return out;
}

Result<VerbResult> ProjectHost::RulesSetStatus(const JsonValue& params,
                                               RuleStatus status) {
  MutexLock writer(&writer_mu_);
  Project next = *Snapshot();
  std::vector<uint64_t> ids;
  const JsonValue* all = params.Get("all");
  if (all != nullptr && all->is_bool() && all->as_bool()) {
    for (const RuleRecord& r : next.rules().records()) {
      // `confirm all` leaves rejected rules rejected; only an explicit id
      // overrides a rejection.
      if (status == RuleStatus::kConfirmed &&
          r.status == RuleStatus::kRejected) {
        continue;
      }
      ids.push_back(r.id);
    }
  } else {
    ANMAT_ASSIGN_OR_RETURN(ids, ParamIds(params));
  }
  for (uint64_t id : ids) {
    ANMAT_RETURN_NOT_OK(next.SetRuleStatus(id, status));
  }
  ANMAT_ASSIGN_OR_RETURN(const std::shared_ptr<const Project> committed,
                         Commit(std::move(next)));
  const size_t confirmed = committed->ConfirmedPfds().size();

  VerbResult out;
  out.result = JsonValue::Object();
  out.result.Set("marked", JsonValue::Int(static_cast<int64_t>(ids.size())));
  out.result.Set("confirmed",
                 JsonValue::Int(static_cast<int64_t>(confirmed)));
  out.text = "marked " + std::to_string(ids.size()) + " rule(s) " +
             RuleStatusName(status) + "; " + std::to_string(confirmed) +
             " rule(s) now confirmed\n";
  return out;
}

Result<VerbResult> ProjectHost::RulesDelete(const JsonValue& params) {
  MutexLock writer(&writer_mu_);
  Project next = *Snapshot();
  ANMAT_ASSIGN_OR_RETURN(const std::vector<uint64_t> ids, ParamIds(params));
  for (uint64_t id : ids) {
    // An unknown id rejects the whole command; nothing is persisted.
    ANMAT_RETURN_NOT_OK(next.DeleteRule(id));
  }
  ANMAT_ASSIGN_OR_RETURN(const std::shared_ptr<const Project> committed,
                         Commit(std::move(next)));

  VerbResult out;
  out.result = JsonValue::Object();
  out.result.Set("deleted", JsonValue::Int(static_cast<int64_t>(ids.size())));
  out.result.Set("remaining", JsonValue::Int(static_cast<int64_t>(
                                  committed->rules().size())));
  out.text = "deleted " + std::to_string(ids.size()) + " rule(s); " +
             std::to_string(committed->rules().size()) +
             " rule(s) remain (ids are never reused)\n";
  return out;
}

Result<VerbResult> ProjectHost::RulesAnnotate(const JsonValue& params) {
  MutexLock writer(&writer_mu_);
  ANMAT_ASSIGN_OR_RETURN(const int64_t id, ParamInt(params, "id", 0));
  if (id <= 0) {
    return Status::InvalidArgument("param \"id\" must be a positive rule id");
  }
  ANMAT_ASSIGN_OR_RETURN(const std::string note,
                         ParamString(params, "note", ""));
  Project next = *Snapshot();
  ANMAT_RETURN_NOT_OK(next.AnnotateRule(static_cast<uint64_t>(id), note));
  ANMAT_RETURN_NOT_OK(Commit(std::move(next)).status());

  VerbResult out;
  out.result = JsonValue::Object();
  out.result.Set("id", JsonValue::Int(id));
  out.result.Set("note", JsonValue::String(note));
  out.text = "annotated rule " + std::to_string(id) + "\n";
  return out;
}

Result<VerbResult> ProjectHost::StreamOpen(const JsonValue& params) {
  ANMAT_ASSIGN_OR_RETURN(std::vector<Pfd> rules, ConfirmedRules(*Snapshot()));
  uint64_t id = 0;
  {
    MutexLock lock(&streams_mu_);
    id = next_stream_id_++;
  }
  auto entry = std::make_shared<StreamEntry>();
  VerbResult out;
  {
    // Uncontended (the entry is not yet published), held for the
    // analysis's sake: the state is guarded by the entry's mutex.
    MutexLock lock(&entry->mu);
    ANMAT_ASSIGN_OR_RETURN(out, StreamOpenVerb(engine_, std::move(rules),
                                               params, id, &entry->state));
  }
  MutexLock lock(&streams_mu_);
  streams_[id] = std::move(entry);
  return out;
}

Result<VerbResult> ProjectHost::StreamAppend(const JsonValue& params) {
  ANMAT_ASSIGN_OR_RETURN(const int64_t id, ParamInt(params, "stream", 0));
  std::shared_ptr<StreamEntry> entry;
  {
    MutexLock lock(&streams_mu_);
    auto it = streams_.find(static_cast<uint64_t>(id));
    if (it == streams_.end()) {
      return Status::NotFound("no open stream with id " +
                              std::to_string(id));
    }
    entry = it->second;
  }
  // Appends to one stream serialize here; the registry lock is already
  // released, so other streams (and every other verb) proceed.
  MutexLock lock(&entry->mu);
  return StreamAppendVerb(&entry->state, params);
}

Result<VerbResult> ProjectHost::StreamClose(const JsonValue& params) {
  ANMAT_ASSIGN_OR_RETURN(const int64_t id, ParamInt(params, "stream", 0));
  std::shared_ptr<StreamEntry> entry;
  {
    MutexLock lock(&streams_mu_);
    auto it = streams_.find(static_cast<uint64_t>(id));
    if (it == streams_.end()) {
      return Status::NotFound("no open stream with id " +
                              std::to_string(id));
    }
    entry = std::move(it->second);
    streams_.erase(it);
  }
  // A straggling append that raced the close finishes first.
  MutexLock lock(&entry->mu);
  return StreamCloseVerb(entry->state, params);
}

}  // namespace anmat
