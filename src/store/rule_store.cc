#include "store/rule_store.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "pattern/pattern_parser.h"
#include "util/fs.h"

namespace anmat {

namespace {

constexpr int kFormatVersion = 2;

JsonValue CellToJson(const TableauCell& cell) {
  JsonValue obj = JsonValue::Object();
  if (cell.is_wildcard()) {
    obj.Set("wildcard", JsonValue::Bool(true));
  } else {
    obj.Set("pattern", JsonValue::String(cell.pattern().ToString()));
  }
  return obj;
}

Result<TableauCell> CellFromJson(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::ParseError("tableau cell must be a JSON object");
  }
  const JsonValue* wildcard = json.Get("wildcard");
  if (wildcard != nullptr && wildcard->is_bool() && wildcard->as_bool()) {
    return TableauCell::Wildcard();
  }
  ANMAT_ASSIGN_OR_RETURN(std::string text, json.GetString("pattern"));
  ANMAT_ASSIGN_OR_RETURN(ConstrainedPattern p, ParseConstrainedPattern(text));
  return TableauCell::Of(std::move(p));
}

JsonValue AttrsToJson(const std::vector<std::string>& attrs) {
  JsonValue arr = JsonValue::Array();
  for (const std::string& a : attrs) arr.push_back(JsonValue::String(a));
  return arr;
}

Result<std::vector<std::string>> AttrsFromJson(const JsonValue* arr,
                                               const char* what) {
  if (arr == nullptr || !arr->is_array()) {
    return Status::ParseError(std::string("missing attribute list: ") + what);
  }
  std::vector<std::string> out;
  for (size_t i = 0; i < arr->size(); ++i) {
    if (!arr->at(i).is_string()) {
      return Status::ParseError(std::string("attribute is not a string: ") +
                                what);
    }
    out.push_back(arr->at(i).as_string());
  }
  return out;
}

JsonValue ProvenanceToJson(const RuleProvenance& provenance) {
  JsonValue obj = JsonValue::Object();
  obj.Set("source", JsonValue::String(provenance.source));
  obj.Set("coverage", JsonValue::Number(provenance.coverage));
  obj.Set("violation_ratio", JsonValue::Number(provenance.violation_ratio));
  return obj;
}

Result<RuleProvenance> ProvenanceFromJson(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::ParseError("rule provenance must be a JSON object");
  }
  RuleProvenance provenance;
  ANMAT_ASSIGN_OR_RETURN(provenance.source, json.GetString("source"));
  ANMAT_ASSIGN_OR_RETURN(provenance.coverage, json.GetDouble("coverage"));
  ANMAT_ASSIGN_OR_RETURN(provenance.violation_ratio,
                         json.GetDouble("violation_ratio"));
  return provenance;
}

JsonValue RecordToJson(const RuleRecord& record) {
  JsonValue obj = JsonValue::Object();
  obj.Set("id", JsonValue::Int(static_cast<int64_t>(record.id)));
  obj.Set("status", JsonValue::String(RuleStatusName(record.status)));
  obj.Set("provenance", ProvenanceToJson(record.provenance));
  if (!record.note.empty()) {
    obj.Set("note", JsonValue::String(record.note));
  }
  obj.Set("rule", PfdToJson(record.pfd));
  return obj;
}

Result<RuleRecord> RecordFromJson(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::ParseError("rule record must be a JSON object");
  }
  RuleRecord record;
  ANMAT_ASSIGN_OR_RETURN(int64_t id, json.GetInt("id"));
  if (id <= 0) {
    return Status::ParseError("rule id must be positive, got " +
                              std::to_string(id));
  }
  record.id = static_cast<uint64_t>(id);
  ANMAT_ASSIGN_OR_RETURN(std::string status_name, json.GetString("status"));
  ANMAT_ASSIGN_OR_RETURN(record.status, ParseRuleStatus(status_name));
  const JsonValue* provenance = json.Get("provenance");
  if (provenance == nullptr) {
    return Status::ParseError("rule record missing provenance object");
  }
  ANMAT_ASSIGN_OR_RETURN(record.provenance, ProvenanceFromJson(*provenance));
  // Optional: records written before notes existed simply have none.
  if (const JsonValue* note = json.Get("note");
      note != nullptr && note->is_string()) {
    record.note = note->as_string();
  }
  const JsonValue* rule = json.Get("rule");
  if (rule == nullptr) {
    return Status::ParseError("rule record missing rule object");
  }
  ANMAT_ASSIGN_OR_RETURN(record.pfd, PfdFromJson(*rule));
  return record;
}

}  // namespace

const char* RuleStatusName(RuleStatus status) {
  switch (status) {
    case RuleStatus::kDiscovered:
      return "discovered";
    case RuleStatus::kConfirmed:
      return "confirmed";
    case RuleStatus::kRejected:
      return "rejected";
  }
  return "discovered";
}

Result<RuleStatus> ParseRuleStatus(std::string_view name) {
  if (name == "discovered") return RuleStatus::kDiscovered;
  if (name == "confirmed") return RuleStatus::kConfirmed;
  if (name == "rejected") return RuleStatus::kRejected;
  return Status::ParseError("unknown rule status: " + std::string(name));
}

uint64_t RuleSet::Add(Pfd pfd, RuleProvenance provenance, RuleStatus status) {
  RuleRecord record;
  record.id = next_id_++;
  record.status = status;
  record.provenance = std::move(provenance);
  record.pfd = std::move(pfd);
  records_.push_back(std::move(record));
  return records_.back().id;
}

const RuleRecord* RuleSet::Find(uint64_t id) const {
  for (const RuleRecord& r : records_) {
    if (r.id == id) return &r;
  }
  return nullptr;
}

Status RuleSet::Delete(uint64_t id) {
  for (size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].id == id) {
      records_.erase(records_.begin() + static_cast<ptrdiff_t>(i));
      return Status::OK();
    }
  }
  return Status::NotFound("no rule with id " + std::to_string(id));
}

const RuleRecord* RuleSet::FindEqualPfd(const Pfd& pfd) const {
  for (const RuleRecord& r : records_) {
    if (r.pfd == pfd) return &r;
  }
  return nullptr;
}

Status RuleSet::SetStatus(uint64_t id, RuleStatus status) {
  for (RuleRecord& r : records_) {
    if (r.id == id) {
      r.status = status;
      return Status::OK();
    }
  }
  return Status::NotFound("no rule with id " + std::to_string(id));
}

Status RuleSet::SetNote(uint64_t id, std::string note) {
  for (RuleRecord& r : records_) {
    if (r.id == id) {
      r.note = std::move(note);
      return Status::OK();
    }
  }
  return Status::NotFound("no rule with id " + std::to_string(id));
}

Status RuleSet::SetProvenance(uint64_t id, RuleProvenance provenance) {
  for (RuleRecord& r : records_) {
    if (r.id == id) {
      r.provenance = std::move(provenance);
      return Status::OK();
    }
  }
  return Status::NotFound("no rule with id " + std::to_string(id));
}

std::vector<Pfd> RuleSet::PfdsWithStatus(RuleStatus status) const {
  std::vector<Pfd> out;
  for (const RuleRecord& r : records_) {
    if (r.status == status) out.push_back(r.pfd);
  }
  return out;
}

void RuleSet::Restore(RuleRecord record) {
  next_id_ = std::max(next_id_, record.id + 1);
  records_.push_back(std::move(record));
}

void RuleSet::RaiseNextId(uint64_t floor) {
  next_id_ = std::max(next_id_, floor);
}

JsonValue PfdToJson(const Pfd& pfd) {
  JsonValue obj = JsonValue::Object();
  obj.Set("table", JsonValue::String(pfd.table()));
  obj.Set("lhs", AttrsToJson(pfd.lhs_attrs()));
  obj.Set("rhs", AttrsToJson(pfd.rhs_attrs()));
  JsonValue rows = JsonValue::Array();
  for (const TableauRow& row : pfd.tableau().rows()) {
    JsonValue row_obj = JsonValue::Object();
    JsonValue lhs = JsonValue::Array();
    for (const TableauCell& c : row.lhs) lhs.push_back(CellToJson(c));
    JsonValue rhs = JsonValue::Array();
    for (const TableauCell& c : row.rhs) rhs.push_back(CellToJson(c));
    row_obj.Set("lhs", std::move(lhs));
    row_obj.Set("rhs", std::move(rhs));
    rows.push_back(std::move(row_obj));
  }
  obj.Set("tableau", std::move(rows));
  return obj;
}

Result<Pfd> PfdFromJson(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::ParseError("PFD must be a JSON object");
  }
  ANMAT_ASSIGN_OR_RETURN(std::string table, json.GetString("table"));
  ANMAT_ASSIGN_OR_RETURN(std::vector<std::string> lhs,
                         AttrsFromJson(json.Get("lhs"), "lhs"));
  ANMAT_ASSIGN_OR_RETURN(std::vector<std::string> rhs,
                         AttrsFromJson(json.Get("rhs"), "rhs"));
  const JsonValue* rows = json.Get("tableau");
  if (rows == nullptr || !rows->is_array()) {
    return Status::ParseError("missing tableau array");
  }
  Tableau tableau;
  for (size_t i = 0; i < rows->size(); ++i) {
    const JsonValue& row_json = rows->at(i);
    const JsonValue* lhs_cells = row_json.Get("lhs");
    const JsonValue* rhs_cells = row_json.Get("rhs");
    if (lhs_cells == nullptr || !lhs_cells->is_array() ||
        rhs_cells == nullptr || !rhs_cells->is_array()) {
      return Status::ParseError("tableau row " + std::to_string(i) +
                                " missing lhs/rhs arrays");
    }
    TableauRow row;
    for (size_t j = 0; j < lhs_cells->size(); ++j) {
      ANMAT_ASSIGN_OR_RETURN(TableauCell c, CellFromJson(lhs_cells->at(j)));
      row.lhs.push_back(std::move(c));
    }
    for (size_t j = 0; j < rhs_cells->size(); ++j) {
      ANMAT_ASSIGN_OR_RETURN(TableauCell c, CellFromJson(rhs_cells->at(j)));
      row.rhs.push_back(std::move(c));
    }
    tableau.AddRow(std::move(row));
  }
  return Pfd(std::move(table), std::move(lhs), std::move(rhs),
             std::move(tableau));
}

std::string SerializeRuleSet(const RuleSet& rules) {
  JsonValue root = JsonValue::Object();
  root.Set("format", JsonValue::String("anmat-rules"));
  root.Set("version", JsonValue::Int(kFormatVersion));
  root.Set("next_id", JsonValue::Int(static_cast<int64_t>(rules.next_id())));
  JsonValue arr = JsonValue::Array();
  for (const RuleRecord& r : rules.records()) {
    arr.push_back(RecordToJson(r));
  }
  root.Set("rules", std::move(arr));
  return root.DumpPretty();
}

std::string SerializeRuleSet(const std::vector<Pfd>& pfds) {
  RuleSet rules;
  for (const Pfd& p : pfds) rules.Add(p, {}, RuleStatus::kConfirmed);
  return SerializeRuleSet(rules);
}

std::string SerializeRuleSetV1(const std::vector<Pfd>& pfds) {
  JsonValue root = JsonValue::Object();
  root.Set("format", JsonValue::String("anmat-rules"));
  root.Set("version", JsonValue::Int(1));
  JsonValue arr = JsonValue::Array();
  for (const Pfd& p : pfds) arr.push_back(PfdToJson(p));
  root.Set("rules", std::move(arr));
  return root.DumpPretty();
}

Result<RuleSet> ParseRuleSet(std::string_view text) {
  ANMAT_ASSIGN_OR_RETURN(JsonValue root, ParseJson(text));
  if (!root.is_object()) {
    return Status::ParseError("rule set must be a JSON object");
  }
  ANMAT_ASSIGN_OR_RETURN(std::string format, root.GetString("format"));
  if (format != "anmat-rules") {
    return Status::ParseError("unknown rule file format: " + format);
  }
  ANMAT_ASSIGN_OR_RETURN(int64_t version, root.GetInt("version"));
  if (version != 1 && version != kFormatVersion) {
    return Status::ParseError("unsupported rule file version: " +
                              std::to_string(version));
  }
  const JsonValue* entries = root.Get("rules");
  if (entries == nullptr || !entries->is_array()) {
    return Status::ParseError("missing rules array");
  }

  RuleSet rules;
  if (version == 1) {
    // v1: a bare array of PFDs, defined to be the project's confirmed
    // rules. Migrate: sequential ids, confirmed status, empty provenance.
    for (size_t i = 0; i < entries->size(); ++i) {
      ANMAT_ASSIGN_OR_RETURN(Pfd p, PfdFromJson(entries->at(i)));
      rules.Add(std::move(p), {}, RuleStatus::kConfirmed);
    }
    return rules;
  }

  for (size_t i = 0; i < entries->size(); ++i) {
    ANMAT_ASSIGN_OR_RETURN(RuleRecord record, RecordFromJson(entries->at(i)));
    if (rules.Find(record.id) != nullptr) {
      return Status::ParseError("duplicate rule id " +
                                std::to_string(record.id));
    }
    rules.Restore(std::move(record));
  }
  if (const JsonValue* next_id = root.Get("next_id");
      next_id != nullptr && next_id->is_number()) {
    ANMAT_ASSIGN_OR_RETURN(const int64_t next, next_id->CheckedInt("next_id"));
    if (next > 0) rules.RaiseNextId(static_cast<uint64_t>(next));
  }
  return rules;
}

Status RuleStore::Save(const RuleSet& rules) const {
  return WriteFileAtomic(path_, SerializeRuleSet(rules));
}

Status RuleStore::Save(const std::vector<Pfd>& pfds) const {
  RuleSet rules;
  for (const Pfd& p : pfds) rules.Add(p, {}, RuleStatus::kConfirmed);
  return Save(rules);
}

Status CorruptStateFileError(const std::string& path, const Status& cause) {
  return Status::ParseError(
      "corrupt or unreadable state file " + path + ": " + cause.message() +
      " — if this file belongs to a project directory, run "
      "'anmat project fsck --project <dir>' to replay or discard any "
      "pending save; otherwise restore it from backup");
}

Result<RuleSet> RuleStore::Load() const {
  std::ifstream in(path_, std::ios::binary);
  if (!in) return Status::NotFound("rule file not found: " + path_);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto rules = ParseRuleSet(buffer.str());
  if (!rules.ok()) return CorruptStateFileError(path_, rules.status());
  return rules;
}

}  // namespace anmat
