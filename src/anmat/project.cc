#include "anmat/project.h"

#include <filesystem>

#include "util/fs.h"

namespace anmat {

namespace {

constexpr int kCatalogVersion = 1;

}  // namespace

Result<Project> Project::Init(const std::string& dir, std::string name) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create project directory " + dir + ": " +
                           ec.message());
  }
  Project project(dir);
  if (std::filesystem::exists(project.catalog_path())) {
    return Status::AlreadyExists("project already initialized: " +
                                 project.catalog_path());
  }
  if (name.empty()) {
    // "proj/" has an empty filename(); step to the parent so the project
    // is named after the directory, trailing separator or not.
    std::filesystem::path p = std::filesystem::path(dir).lexically_normal();
    if (!p.has_filename()) p = p.parent_path();
    project.name_ = p.filename().string();
  } else {
    project.name_ = std::move(name);
  }
  if (project.name_.empty()) project.name_ = "anmat";
  ANMAT_ASSIGN_OR_RETURN(project.lock_,
                         FileLock::Acquire(project.lock_path()));
  // Re-check under the lock: another process may have initialized the
  // directory between the unlocked probe above and our acquire.
  if (std::filesystem::exists(project.catalog_path())) {
    return Status::AlreadyExists("project already initialized: " +
                                 project.catalog_path());
  }
  ANMAT_RETURN_NOT_OK(project.Save());
  return project;
}

Result<Project> Project::Open(const std::string& dir,
                              const OpenOptions& options) {
  Project project(dir);
  // Probe before creating the lock file: opening a directory that holds
  // no project (and no committed-but-unapplied save that would create
  // one) is NotFound, and should not litter the directory.
  if (!std::filesystem::exists(project.catalog_path()) &&
      !std::filesystem::exists(project.journal_path())) {
    return Status::NotFound("no project catalog at " + project.catalog_path());
  }
  FileLockOptions lock_options;
  lock_options.max_wait_ms = options.lock_wait_ms;
  ANMAT_ASSIGN_OR_RETURN(project.lock_,
                         FileLock::Acquire(project.lock_path(), lock_options));
  // Crash recovery under the lock: replay a committed save left by a
  // crashed writer (or discard a torn one) before reading any state.
  ProjectJournal journal(dir);
  ANMAT_ASSIGN_OR_RETURN(project.recovery_, journal.Recover());
  ANMAT_RETURN_NOT_OK(project.LoadCatalog());
  RuleStore store(project.rules_path());
  auto rules = store.Load();
  if (rules.ok()) {
    project.rules_ = std::move(rules).value();
  } else if (rules.status().code() != StatusCode::kNotFound) {
    return rules.status();  // present but unreadable: surface, don't clobber
  }
  if (options.read_only) project.lock_.Release();
  return project;
}

DiscoveryOptions Project::discovery_options() const {
  DiscoveryOptions options;
  options.min_coverage = parameters_.min_coverage;
  options.allowed_violation_ratio = parameters_.allowed_violation_ratio;
  options.table_name = name_;
  return options;
}

Status Project::AttachDataset(std::string name, std::string path,
                              const CsvOptions& options) {
  if (name.empty()) {
    return Status::InvalidArgument("dataset name must not be empty");
  }
  // Store an absolute path: the catalog must keep working from any later
  // working directory (a relative path would silently resolve against
  // whatever cwd the next `anmat … --project` happens to run in).
  std::error_code ec;
  const std::filesystem::path absolute = std::filesystem::absolute(path, ec);
  if (!ec) path = absolute.lexically_normal().string();
  // Fingerprint the schema as it looks right now (header record only); a
  // file that cannot be probed — missing, unreadable, or not a regular
  // file — attaches without one (and therefore without load-time checking)
  // rather than failing the attach.
  auto schema = ReadCsvSchema(path, options);
  std::string fingerprint =
      schema.ok() ? SchemaFingerprint(schema.value()) : "";
  for (size_t i = 0; i < datasets_.size(); ++i) {
    if (datasets_[i].name == name) {
      // Re-attaching re-points the entry and promotes it back to default.
      datasets_.erase(datasets_.begin() + static_cast<ptrdiff_t>(i));
      datasets_.push_back(DatasetEntry{std::move(name), std::move(path),
                                       std::move(fingerprint)});
      return Status::OK();
    }
  }
  datasets_.push_back(
      DatasetEntry{std::move(name), std::move(path), std::move(fingerprint)});
  return Status::OK();
}

Result<Project::DatasetEntry> Project::FindDataset(
    const std::string& name) const {
  if (datasets_.empty()) {
    return Status::NotFound("project has no attached datasets; run "
                            "discover with --data first");
  }
  if (name.empty()) return datasets_.back();
  for (const DatasetEntry& e : datasets_) {
    if (e.name == name) return e;
  }
  return Status::NotFound("no dataset named \"" + name +
                          "\" in project catalog");
}

Result<Relation> Project::LoadDataset(const std::string& name,
                                      const CsvOptions& options) const {
  ANMAT_ASSIGN_OR_RETURN(DatasetEntry entry, FindDataset(name));
  ANMAT_ASSIGN_OR_RETURN(Relation relation,
                         ReadCsvFile(entry.path, options));
  ANMAT_RETURN_NOT_OK(entry.CheckSchema(relation.schema()));
  return relation;
}

Status Project::DatasetEntry::CheckSchema(const Schema& schema) const {
  if (fingerprint.empty()) return Status::OK();
  const std::string current = SchemaFingerprint(schema);
  if (current == fingerprint) return Status::OK();
  return Status::InvalidArgument(
      "dataset \"" + name + "\" at " + path +
      " changed schema since it was attached (column fingerprint " + current +
      ", catalog recorded " + fingerprint + "); its columns are now [" +
      schema.ToString() +
      "] — re-attach it with 'anmat discover --project <dir> --data " + path +
      "' if the change is intentional");
}

uint64_t Project::AddDiscoveredRule(const DiscoveredPfd& discovered,
                                    std::string source) {
  RuleProvenance provenance;
  provenance.source = std::move(source);
  provenance.coverage = discovered.stats.Coverage();
  provenance.violation_ratio = discovered.stats.ViolationRate();
  if (const RuleRecord* existing = rules_.FindEqualPfd(discovered.pfd)) {
    const uint64_t id = existing->id;
    rules_.SetProvenance(id, std::move(provenance));
    return id;
  }
  return rules_.Add(discovered.pfd, std::move(provenance),
                    RuleStatus::kDiscovered);
}

Status Project::SetRuleStatus(uint64_t id, RuleStatus status) {
  return rules_.SetStatus(id, status);
}

Status Project::DeleteRule(uint64_t id) { return rules_.Delete(id); }

Status Project::AnnotateRule(uint64_t id, std::string note) {
  return rules_.SetNote(id, std::move(note));
}

Status Project::Save() const {
  if (!lock_.held()) {
    return Status::InvalidArgument(
        "project " + dir_ + " was opened read-only; reopen it writable "
        "(the default) to save");
  }
  // One journaled transaction over both files: the catalog and the rule
  // set land together or not at all, whatever happens mid-save.
  ProjectJournal journal(dir_);
  return journal.CommitAndApply({
      {"project.json", SerializeCatalog()},
      {"rules.json", SerializeRuleSet(rules_)},
  });
}

std::string Project::SerializeCatalog() const {
  JsonValue root = JsonValue::Object();
  root.Set("format", JsonValue::String("anmat-project"));
  root.Set("version", JsonValue::Int(kCatalogVersion));
  root.Set("name", JsonValue::String(name_));
  JsonValue parameters = JsonValue::Object();
  parameters.Set("min_coverage", JsonValue::Number(parameters_.min_coverage));
  parameters.Set("allowed_violation_ratio",
                 JsonValue::Number(parameters_.allowed_violation_ratio));
  root.Set("parameters", std::move(parameters));
  JsonValue datasets = JsonValue::Array();
  for (const DatasetEntry& e : datasets_) {
    JsonValue entry = JsonValue::Object();
    entry.Set("name", JsonValue::String(e.name));
    entry.Set("path", JsonValue::String(e.path));
    if (!e.fingerprint.empty()) {
      entry.Set("fingerprint", JsonValue::String(e.fingerprint));
    }
    datasets.push_back(std::move(entry));
  }
  root.Set("datasets", std::move(datasets));
  return root.DumpPretty();
}

Status Project::LoadCatalog() {
  auto content = ReadFileToString(catalog_path());
  if (!content.ok()) {
    if (content.status().code() == StatusCode::kNotFound) {
      return Status::NotFound("no project catalog at " + catalog_path());
    }
    return content.status();
  }
  if (Status parsed = ParseCatalog(content.value()); !parsed.ok()) {
    // Same diagnosable shape as a damaged rules.json: name the file,
    // keep the byte offset from the JSON parser, point at fsck.
    return CorruptStateFileError(catalog_path(), parsed);
  }
  return Status::OK();
}

Status Project::ParseCatalog(const std::string& text) {
  ANMAT_ASSIGN_OR_RETURN(JsonValue root, ParseJson(text));
  if (!root.is_object()) {
    return Status::ParseError("project catalog must be a JSON object");
  }
  ANMAT_ASSIGN_OR_RETURN(std::string format, root.GetString("format"));
  if (format != "anmat-project") {
    return Status::ParseError("unknown project catalog format: " + format);
  }
  ANMAT_ASSIGN_OR_RETURN(int64_t version, root.GetInt("version"));
  if (version != kCatalogVersion) {
    return Status::ParseError("unsupported project catalog version: " +
                              std::to_string(version));
  }
  ANMAT_ASSIGN_OR_RETURN(name_, root.GetString("name"));
  const JsonValue* parameters = root.Get("parameters");
  if (parameters == nullptr || !parameters->is_object()) {
    return Status::ParseError("project catalog missing parameters object");
  }
  ANMAT_ASSIGN_OR_RETURN(parameters_.min_coverage,
                         parameters->GetDouble("min_coverage"));
  ANMAT_ASSIGN_OR_RETURN(parameters_.allowed_violation_ratio,
                         parameters->GetDouble("allowed_violation_ratio"));
  const JsonValue* datasets = root.Get("datasets");
  if (datasets == nullptr || !datasets->is_array()) {
    return Status::ParseError("project catalog missing datasets array");
  }
  datasets_.clear();
  for (size_t i = 0; i < datasets->size(); ++i) {
    const JsonValue& entry = datasets->at(i);
    DatasetEntry e;
    ANMAT_ASSIGN_OR_RETURN(e.name, entry.GetString("name"));
    ANMAT_ASSIGN_OR_RETURN(e.path, entry.GetString("path"));
    // Optional: catalogs from earlier releases have no fingerprint (no
    // load-time schema check for those entries).
    if (const JsonValue* fp = entry.Get("fingerprint");
        fp != nullptr && fp->is_string()) {
      e.fingerprint = fp->as_string();
    }
    datasets_.push_back(std::move(e));
  }
  return Status::OK();
}

}  // namespace anmat
