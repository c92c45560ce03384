// Tests for the crash-safety stack: fs primitives (fsync'd atomic writes,
// advisory locking, fault injection), the write-ahead log, the project
// journal, and end-to-end crash recovery of Project::Save — including the
// full fault-injection matrix (crash at EVERY write/fsync/rename/truncate
// boundary inside a save, reopen, and verify the directory holds exactly
// the old or the new committed state, never a mix) and fork()-based
// multi-process lock contention.

#include "store/wal.h"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <climits>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "anmat/project.h"
#include "pattern/pattern_parser.h"
#include "store/project_journal.h"
#include "store/rule_store.h"
#include "util/fs.h"

namespace anmat {
namespace {

/// A fresh directory path under the test temp dir (not yet created).
std::string FreshDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "/anmat_durability_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string ReadAllBytes(const std::string& path) {
  return ReadFileToString(path).value();
}

void WriteRawFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

void AppendRawBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << bytes;
}

TableauCell PatternCell(const char* text) {
  return TableauCell::Of(ParseConstrainedPattern(text).value());
}

Pfd SamplePfd(const char* rhs_literal) {
  Tableau t;
  TableauRow row;
  row.lhs.push_back(PatternCell("(900)!\\D{2}"));
  row.rhs.push_back(PatternCell(rhs_literal));
  t.AddRow(row);
  return Pfd::Simple("Zip", "zip", "city", t);
}

DiscoveredPfd SampleDiscovered(const char* rhs_literal) {
  DiscoveredPfd d;
  d.pfd = SamplePfd(rhs_literal);
  d.stats.total_rows = 10;
  d.stats.covered_rows = 8;
  d.stats.violating_rows = 1;
  return d;
}

/// Counts fault boundaries; "crashes" (fails stickily, like a dead
/// process) at the crash_at-th one. INT_MAX = count only.
class CrashAtNthOpInjector : public FaultInjector {
 public:
  explicit CrashAtNthOpInjector(int crash_at) : crash_at_(crash_at) {}

  Status BeforeOp(FsOp op, const std::string& path) override {
    if (crashed_ || seen_++ == crash_at_) {
      crashed_ = true;
      return Status::IoError("injected crash at boundary " +
                             std::to_string(crash_at_) + " (" + FsOpName(op) +
                             " " + path + ")");
    }
    return Status::OK();
  }

  bool crashed() const { return crashed_; }
  int seen() const { return seen_; }

 private:
  int crash_at_;
  int seen_ = 0;
  bool crashed_ = false;
};

/// Crashes at the first temp-file write — i.e. immediately after the
/// journal commit point, before any file of the transaction is applied.
class CrashOnFirstTmpWriteInjector : public FaultInjector {
 public:
  Status BeforeOp(FsOp op, const std::string& path) override {
    (void)op;
    if (crashed_ || path.ends_with(".tmp")) {
      crashed_ = true;
      return Status::IoError("injected crash applying " + path);
    }
    return Status::OK();
  }

  bool crashed() const { return crashed_; }

 private:
  bool crashed_ = false;
};

/// Uninstalls the process-wide injector on scope exit, so a failing
/// ASSERT cannot leave it poisoning later tests.
struct InjectorGuard {
  explicit InjectorGuard(FaultInjector* injector) {
    SetFaultInjector(injector);
  }
  ~InjectorGuard() { SetFaultInjector(nullptr); }
};

// -- CRC32 ------------------------------------------------------------------

TEST(Crc32Test, KnownAnswers) {
  // The IEEE 802.3 check value — also what python3's zlib.crc32 returns,
  // which the CLI workflow test relies on to craft journal records.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_NE(Crc32("a"), Crc32("b"));
}

// -- WriteFileAtomic --------------------------------------------------------

TEST(WriteFileAtomicTest, WritesAndReplacesWithoutLeftovers) {
  const std::string dir = FreshDir("atomic");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/state.json";
  ASSERT_TRUE(WriteFileAtomic(path, "first").ok());
  EXPECT_EQ(ReadAllBytes(path), "first");
  ASSERT_TRUE(WriteFileAtomic(path, "second").ok());
  EXPECT_EQ(ReadAllBytes(path), "second");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove_all(dir);
}

TEST(WriteFileAtomicTest, InjectedCrashAtEveryBoundaryLeavesOldContent) {
  const std::string dir = FreshDir("atomic-fault");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/state.json";
  ASSERT_TRUE(WriteFileAtomic(path, "old").ok());

  // Count the boundaries of one write, then crash at each in turn. The
  // rename is the commit point of a single-file write, so every crash
  // strictly before it must leave the old content.
  CrashAtNthOpInjector counter(INT_MAX);
  {
    InjectorGuard guard(&counter);
    ASSERT_TRUE(WriteFileAtomic(path, "old").ok());
  }
  ASSERT_GE(counter.seen(), 3);  // write, fsync, rename (+ parent fsync)

  for (int k = 0; k < counter.seen(); ++k) {
    ASSERT_TRUE(WriteFileAtomic(path, "old").ok());
    CrashAtNthOpInjector injector(k);
    {
      InjectorGuard guard(&injector);
      const Status failed = WriteFileAtomic(path, "new");
      ASSERT_FALSE(failed.ok()) << "boundary " << k;
      EXPECT_TRUE(injector.crashed());
    }
    const std::string after = ReadAllBytes(path);
    // The final boundary is the parent-dir fsync, which runs after the
    // rename: by then the new content is already in place.
    if (k == counter.seen() - 1) {
      EXPECT_EQ(after, "new") << "boundary " << k;
    } else {
      EXPECT_EQ(after, "old") << "boundary " << k;
    }
  }
  std::filesystem::remove_all(dir);
}

// -- Write-ahead log --------------------------------------------------------

TEST(WalTest, AppendReadRoundTrip) {
  const std::string dir = FreshDir("wal");
  std::filesystem::create_directories(dir);
  WriteAheadLog log(dir + "/journal.wal");
  ASSERT_TRUE(log.Append("alpha").ok());
  ASSERT_TRUE(log.Append("").ok());
  ASSERT_TRUE(log.Append(std::string("bin\0ary", 7)).ok());

  WalRecoveryInfo info;
  const std::vector<std::string> records =
      log.ReadAll(&info, /*repair=*/false).value();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0], "alpha");
  EXPECT_EQ(records[1], "");
  EXPECT_EQ(records[2], std::string("bin\0ary", 7));
  EXPECT_FALSE(info.truncated_tail);

  ASSERT_TRUE(log.Reset().ok());
  EXPECT_TRUE(log.ReadAll(nullptr, false).value().empty());
  std::filesystem::remove_all(dir);
}

TEST(WalTest, MissingLogReadsAsEmpty) {
  WriteAheadLog log(FreshDir("wal-absent") + "/journal.wal");
  WalRecoveryInfo info;
  EXPECT_TRUE(log.ReadAll(&info, /*repair=*/true).value().empty());
  EXPECT_FALSE(info.truncated_tail);
}

TEST(WalTest, RepairTruncatesTornTail) {
  const std::string dir = FreshDir("wal-torn");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/journal.wal";
  WriteAheadLog log(path);
  ASSERT_TRUE(log.Append("committed-one").ok());
  ASSERT_TRUE(log.Append("committed-two").ok());
  const auto intact_size = std::filesystem::file_size(path);
  // A crash mid-append: half a header's worth of garbage at the tail.
  AppendRawBytes(path, "\x07\x00\x00");

  WalRecoveryInfo info;
  const std::vector<std::string> records =
      log.ReadAll(&info, /*repair=*/true).value();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1], "committed-two");
  EXPECT_TRUE(info.truncated_tail);
  EXPECT_EQ(info.tail_offset, intact_size);
  EXPECT_NE(info.detail.find("byte offset"), std::string::npos);
  // The repair physically removed the tail: the next scan is clean.
  EXPECT_EQ(std::filesystem::file_size(path), intact_size);
  WalRecoveryInfo again;
  ASSERT_EQ(log.ReadAll(&again, true).value().size(), 2u);
  EXPECT_FALSE(again.truncated_tail);
  std::filesystem::remove_all(dir);
}

TEST(WalTest, ChecksumMismatchDiscardsDamagedRecord) {
  const std::string dir = FreshDir("wal-crc");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/journal.wal";
  WriteAheadLog log(path);
  ASSERT_TRUE(log.Append("good record").ok());
  ASSERT_TRUE(log.Append("soon corrupt").ok());
  // Flip one payload byte of the second record.
  std::string bytes = ReadAllBytes(path);
  bytes.back() ^= 0x40;
  WriteRawFile(path, bytes);

  WalRecoveryInfo info;
  const std::vector<std::string> records =
      log.ReadAll(&info, /*repair=*/true).value();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], "good record");
  EXPECT_TRUE(info.truncated_tail);
  EXPECT_NE(info.detail.find("checksum mismatch"), std::string::npos);
  std::filesystem::remove_all(dir);
}

// -- Project journal --------------------------------------------------------

TEST(ProjectJournalTest, CommitAndApplyWritesFilesAndCheckpoints) {
  const std::string dir = FreshDir("journal");
  std::filesystem::create_directories(dir);
  ProjectJournal journal(dir);
  ASSERT_TRUE(journal
                  .CommitAndApply({{"project.json", "catalog-bytes"},
                                   {"rules.json", "rule-bytes"}})
                  .ok());
  EXPECT_EQ(ReadAllBytes(dir + "/project.json"), "catalog-bytes");
  EXPECT_EQ(ReadAllBytes(dir + "/rules.json"), "rule-bytes");
  // Checkpointed: the journal holds no pending transaction.
  EXPECT_EQ(std::filesystem::file_size(journal.journal_path()), 0u);
  const JournalRecoveryReport report = journal.Recover().value();
  EXPECT_EQ(report.action, JournalRecoveryReport::Action::kClean);
  std::filesystem::remove_all(dir);
}

TEST(ProjectJournalTest, RejectsPathTraversalNames) {
  ProjectJournal journal(FreshDir("journal-evil"));
  for (const char* name : {"../escape", "a/b", "..", ".", ""}) {
    const Status s = journal.CommitAndApply({{name, "x"}});
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << name;
  }
}

TEST(ProjectJournalTest, RecoverReplaysCommittedButUnappliedSave) {
  const std::string dir = FreshDir("journal-replay");
  std::filesystem::create_directories(dir);
  ProjectJournal journal(dir);
  ASSERT_TRUE(journal.CommitAndApply({{"rules.json", "old"}}).ok());

  // Crash immediately after the commit point: the record is durable but
  // no file of the transaction has been applied.
  CrashOnFirstTmpWriteInjector injector;
  {
    InjectorGuard guard(&injector);
    ASSERT_FALSE(journal.CommitAndApply({{"rules.json", "new"}}).ok());
    ASSERT_TRUE(injector.crashed());
  }
  EXPECT_EQ(ReadAllBytes(dir + "/rules.json"), "old");

  const JournalRecoveryReport report = journal.Recover().value();
  EXPECT_EQ(report.action, JournalRecoveryReport::Action::kReplayed);
  EXPECT_EQ(report.files_applied, 1u);
  EXPECT_EQ(ReadAllBytes(dir + "/rules.json"), "new");
  // Idempotent: a second recovery finds a clean journal.
  EXPECT_EQ(journal.Recover().value().action,
            JournalRecoveryReport::Action::kClean);
  std::filesystem::remove_all(dir);
}

TEST(ProjectJournalTest, RecoverDiscardsTornUncommittedRecord) {
  const std::string dir = FreshDir("journal-discard");
  std::filesystem::create_directories(dir);
  ProjectJournal journal(dir);
  WriteRawFile(dir + "/rules.json", "old");
  // A crash mid-append left half a record: not committed, must not apply.
  WriteRawFile(journal.journal_path(), "\xff\xff\xff");

  const JournalRecoveryReport report = journal.Recover().value();
  EXPECT_EQ(report.action, JournalRecoveryReport::Action::kDiscarded);
  EXPECT_TRUE(report.truncated_tail);
  EXPECT_EQ(ReadAllBytes(dir + "/rules.json"), "old");
  EXPECT_EQ(std::filesystem::file_size(journal.journal_path()), 0u);
  std::filesystem::remove_all(dir);
}

// -- File locking -----------------------------------------------------------

TEST(FileLockTest, SameProcessAcquiresShareOneLock) {
  const std::string dir = FreshDir("lock-share");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/.anmat.lock";
  FileLock first = FileLock::Acquire(path).value();
  // A second same-process acquire must not deadlock against our own
  // flock — it shares it (two Projects open on one directory do this).
  FileLock second = FileLock::Acquire(path).value();
  EXPECT_TRUE(first.held());
  EXPECT_TRUE(second.held());
  first.Release();
  EXPECT_TRUE(second.held());
  second.Release();
  EXPECT_FALSE(second.held());
  std::filesystem::remove_all(dir);
}

TEST(FileLockTest, StaleLockFileFromDeadProcessIsTakenOver) {
  const std::string dir = FreshDir("lock-stale");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/.anmat.lock";
  // A lock file left behind by a crashed process: the pid inside is dead
  // and no flock is held. flock semantics make this heal automatically —
  // acquire must succeed without any manual cleanup.
  WriteRawFile(path, "999999999");
  FileLockOptions options;
  options.max_wait_ms = 1000;
  FileLock lock = FileLock::Acquire(path, options).value();
  EXPECT_TRUE(lock.held());
  EXPECT_EQ(FileLock::ReadHolderPid(path),
            static_cast<int64_t>(::getpid()));
  std::filesystem::remove_all(dir);
}

TEST(FileLockTest, ContentionWithLiveProcessTimesOutNamingHolder) {
  const std::string dir = FreshDir("lock-contend");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/.anmat.lock";
  int ready[2];
  int release[2];
  ASSERT_EQ(::pipe(ready), 0);
  ASSERT_EQ(::pipe(release), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: take the lock, signal readiness, hold until released.
    auto lock = FileLock::Acquire(path);
    if (!lock.ok()) ::_exit(3);
    char token = 'r';
    if (::write(ready[1], &token, 1) != 1) ::_exit(4);
    (void)!::read(release[0], &token, 1);
    ::_exit(0);
  }
  char token = 0;
  ASSERT_EQ(::read(ready[0], &token, 1), 1);

  FileLockOptions options;
  options.max_wait_ms = 200;
  auto contended = FileLock::Acquire(path, options);
  ASSERT_FALSE(contended.ok());
  EXPECT_NE(contended.status().message().find("held by process"),
            std::string::npos);
  EXPECT_NE(contended.status().message().find(std::to_string(child)),
            std::string::npos);
  EXPECT_NE(contended.status().message().find("alive"), std::string::npos);

  ASSERT_EQ(::write(release[1], &token, 1), 1);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  EXPECT_EQ(WEXITSTATUS(status), 0);
  // The kernel released the child's flock at exit: acquirable again.
  EXPECT_TRUE(FileLock::Acquire(path, options).ok());
  ::close(ready[0]);
  ::close(ready[1]);
  ::close(release[0]);
  ::close(release[1]);
  std::filesystem::remove_all(dir);
}

// -- Project-level crash recovery -------------------------------------------

using DirState = std::pair<std::string, std::string>;

DirState StateOf(const std::string& dir) {
  return {ReadAllBytes(dir + "/project.json"),
          ReadAllBytes(dir + "/rules.json")};
}

void CopyProjectDir(const std::string& from, const std::string& to) {
  std::filesystem::remove_all(to);
  std::filesystem::create_directories(to);
  for (const auto& entry : std::filesystem::directory_iterator(from)) {
    std::filesystem::copy(entry.path(),
                          to + "/" + entry.path().filename().string());
  }
}

/// The deterministic mutation the crash tests re-run on every iteration:
/// new parameters, a new catalog entry, a new rule.
void MutateProject(Project* project) {
  Project::Parameters parameters;
  parameters.min_coverage = 0.33;
  parameters.allowed_violation_ratio = 0.05;
  project->set_parameters(parameters);
  ASSERT_TRUE(project->AttachDataset("extra", "/data/extra.csv").ok());
  project->AddDiscoveredRule(SampleDiscovered("New\\ York"), "extra");
}

TEST(ProjectCrashRecoveryTest, EveryCrashPointRecoversToOldOrNewState) {
  const std::string base = FreshDir("matrix-base");
  {
    Project project = Project::Init(base, "matrix").value();
    ASSERT_TRUE(project.AttachDataset("zips", "/data/zips.csv").ok());
    project.AddDiscoveredRule(SampleDiscovered("Los\\ Angeles"), "zips");
    ASSERT_TRUE(project.Save().ok());
  }
  const DirState old_state = StateOf(base);

  // Dry run on a copy: capture the committed new state and count the
  // fault boundaries one Save crosses.
  const std::string probe = FreshDir("matrix-probe");
  CopyProjectDir(base, probe);
  CrashAtNthOpInjector counter(INT_MAX);
  {
    Project project = Project::Open(probe).value();
    MutateProject(&project);
    InjectorGuard guard(&counter);
    ASSERT_TRUE(project.Save().ok());
  }
  const DirState new_state = StateOf(probe);
  ASSERT_NE(new_state, old_state);
  ASSERT_NE(new_state.second, old_state.second);  // the rules really changed
  const int boundaries = counter.seen();
  ASSERT_GE(boundaries, 8) << "a journaled two-file save crosses at least "
                              "append+fsync, 2x(write+fsync+rename+dirsync), "
                              "truncate+fsync";

  // The matrix: crash at every boundary, reopen, and require the
  // directory to hold exactly the old or the new state — never a mix.
  for (int k = 0; k < boundaries; ++k) {
    const std::string work = FreshDir("matrix-work");
    CopyProjectDir(base, work);
    CrashAtNthOpInjector injector(k);
    {
      Project project = Project::Open(work).value();
      MutateProject(&project);
      InjectorGuard guard(&injector);
      ASSERT_FALSE(project.Save().ok()) << "boundary " << k;
      ASSERT_TRUE(injector.crashed()) << "boundary " << k;
    }

    Project reopened = Project::Open(work).value();
    const DirState recovered = StateOf(work);
    EXPECT_TRUE(recovered == old_state || recovered == new_state)
        << "boundary " << k << " (" << FsOpName(FaultInjector::FsOp::kWrite)
        << "...) recovered to a state that is neither the old nor the new "
           "committed one:\n--- project.json ---\n"
        << recovered.first << "\n--- rules.json ---\n" << recovered.second;
    // Recovery checkpointed the journal: nothing pending.
    EXPECT_EQ(std::filesystem::file_size(reopened.journal_path()), 0u)
        << "boundary " << k;
    // And the loaded view matches the on-disk state.
    EXPECT_EQ(reopened.rules().size(),
              recovered == new_state ? 2u : 1u)
        << "boundary " << k;
    std::filesystem::remove_all(work);
  }
  std::filesystem::remove_all(base);
  std::filesystem::remove_all(probe);
}

TEST(ProjectCrashRecoveryTest, OpenReportsReplayedSave) {
  const std::string dir = FreshDir("replay-report");
  {
    Project project = Project::Init(dir, "crashy").value();
    MutateProject(&project);
    // Crash right after the commit point: the save is decided but no
    // file has been rewritten yet.
    CrashOnFirstTmpWriteInjector injector;
    InjectorGuard guard(&injector);
    ASSERT_FALSE(project.Save().ok());
    ASSERT_TRUE(injector.crashed());
  }
  Project reopened = Project::Open(dir).value();
  EXPECT_EQ(reopened.recovery().action,
            JournalRecoveryReport::Action::kReplayed);
  EXPECT_EQ(reopened.recovery().files_applied, 2u);
  EXPECT_EQ(reopened.rules().size(), 1u);  // the mutation's rule survived
  EXPECT_EQ(reopened.parameters().min_coverage, 0.33);
  std::filesystem::remove_all(dir);
}

TEST(ProjectCrashRecoveryTest, ReadOnlyOpenReleasesLockAndRejectsSave) {
  const std::string dir = FreshDir("read-only");
  { ASSERT_TRUE(Project::Init(dir, "ro").ok()); }
  Project::OpenOptions options;
  options.read_only = true;
  Project project = Project::Open(dir, options).value();
  EXPECT_FALSE(project.holds_lock());
  const Status save = project.Save();
  ASSERT_FALSE(save.ok());
  EXPECT_NE(save.message().find("read-only"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(ProjectCrashRecoveryTest, ConcurrentWritersBothSurviveUnderTheLock) {
  const std::string dir = FreshDir("two-writers");
  {
    Project project = Project::Init(dir, "contended").value();
    project.AddDiscoveredRule(SampleDiscovered("Los\\ Angeles"), "a");
    project.AddDiscoveredRule(SampleDiscovered("New\\ York"), "b");
    ASSERT_TRUE(project.Save().ok());
  }  // destroyed: the parent must not hold the lock across fork()

  // Two writer processes, each confirming a different rule through its
  // own open→modify→save cycle. The project lock is held from Open to
  // process exit, so the cycles serialize and neither confirmation can
  // overwrite the other.
  const auto spawn_confirmer = [&dir](uint64_t id) -> pid_t {
    const pid_t pid = ::fork();
    if (pid != 0) return pid;
    auto project = Project::Open(dir);
    if (!project.ok()) ::_exit(10);
    if (!project->SetRuleStatus(id, RuleStatus::kConfirmed).ok()) ::_exit(11);
    if (!project->Save().ok()) ::_exit(12);
    ::_exit(0);
  };
  const pid_t first = spawn_confirmer(1);
  ASSERT_GE(first, 0);
  const pid_t second = spawn_confirmer(2);
  ASSERT_GE(second, 0);
  for (const pid_t child : {first, second}) {
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }

  Project reopened = Project::Open(dir).value();
  EXPECT_EQ(reopened.recovery().action, JournalRecoveryReport::Action::kClean);
  ASSERT_EQ(reopened.rules().size(), 2u);
  EXPECT_EQ(reopened.rules().Find(1)->status, RuleStatus::kConfirmed);
  EXPECT_EQ(reopened.rules().Find(2)->status, RuleStatus::kConfirmed);
  std::filesystem::remove_all(dir);
}

// -- Corrupt state-file corpus ----------------------------------------------

std::string CorpusFile(const std::string& name) {
  return std::string(ANMAT_TEST_CORPUS_DIR) + "/" + name;
}

/// A healthy project directory to graft corrupt files into.
std::string HealthyProject(const std::string& tag) {
  const std::string dir = FreshDir(tag);
  Project project = Project::Init(dir, "victim").value();
  project.AddDiscoveredRule(SampleDiscovered("Los\\ Angeles"), "zips");
  EXPECT_TRUE(project.Save().ok());
  return dir;
}

TEST(CorruptStateTest, DamagedRulesFileNamesFileOffsetAndFsck) {
  for (const char* name :
       {"rules_truncated.json", "rules_garbage.json", "rules_empty.json"}) {
    const std::string dir = HealthyProject("corpus-rules");
    std::filesystem::copy_file(
        CorpusFile(name), dir + "/rules.json",
        std::filesystem::copy_options::overwrite_existing);
    auto project = Project::Open(dir);
    ASSERT_FALSE(project.ok()) << name;
    const std::string& message = project.status().message();
    EXPECT_EQ(project.status().code(), StatusCode::kParseError) << name;
    EXPECT_NE(message.find(dir + "/rules.json"), std::string::npos) << name;
    EXPECT_NE(message.find("offset"), std::string::npos) << name;
    EXPECT_NE(message.find("anmat project fsck"), std::string::npos) << name;
    std::filesystem::remove_all(dir);
  }
}

TEST(CorruptStateTest, DamagedCatalogNamesFileOffsetAndFsck) {
  for (const char* name :
       {"project_truncated.json", "project_garbage.json"}) {
    const std::string dir = HealthyProject("corpus-catalog");
    std::filesystem::copy_file(
        CorpusFile(name), dir + "/project.json",
        std::filesystem::copy_options::overwrite_existing);
    auto project = Project::Open(dir);
    ASSERT_FALSE(project.ok()) << name;
    const std::string& message = project.status().message();
    EXPECT_EQ(project.status().code(), StatusCode::kParseError) << name;
    EXPECT_NE(message.find(dir + "/project.json"), std::string::npos) << name;
    EXPECT_NE(message.find("offset"), std::string::npos) << name;
    EXPECT_NE(message.find("anmat project fsck"), std::string::npos) << name;
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace anmat
