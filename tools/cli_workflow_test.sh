#!/usr/bin/env bash
# End-to-end test of the CLI's stateful project workflow (run by ctest as
# `cli_workflow_test` with the anmat binary path as $1):
#
#   init → discover → rules list → rules confirm → detect → repair →
#   stream (clean-on-ingest) → rules delete
#
# plus the one-shot forms against a standalone rule file, the v1→v2 rule
# store migration from the CLI's point of view, the strict flag parsing
# (unknown/duplicate flags exit 1 naming the flag), and the anmatd daemon:
# serve → ping → the same verbs over --connect (byte-identical to the
# direct --format json outputs) → graceful shutdown releasing the project
# lock.
set -euo pipefail

ANMAT="${1:?usage: cli_workflow_test.sh <path-to-anmat-binary>}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

fail() { echo "FAIL: $*" >&2; exit 1; }

cat > zips.csv <<'EOF'
zip,city
90001,Los Angeles
90002,Los Angeles
90003,Los Angeles
90004,New York
EOF

# --- project workflow ------------------------------------------------------

"$ANMAT" init proj --name zips --coverage 0.5 --violations 0.3 \
  | grep -q 'initialized project "zips"' || fail "init"
[ -f proj/project.json ] || fail "init wrote no catalog"
[ -f proj/rules.json ] || fail "init wrote no rule store"

"$ANMAT" discover --project proj --data zips.csv \
  | grep -q 'recorded .* rule(s) as discovered' || fail "discover --project"

"$ANMAT" rules list --project proj | grep -q '\[1\] discovered' \
  || fail "rules list shows discovered lifecycle"
"$ANMAT" rules list --project proj --format json \
  | grep -q '"status": "discovered"' || fail "rules list --format json"

# Unconfirmed rules are not applied.
if "$ANMAT" detect --project proj 2>err.txt; then
  fail "detect with no confirmed rules should fail"
fi
grep -q 'no confirmed rules' err.txt || fail "detect error message"

"$ANMAT" rules confirm all --project proj \
  | grep -q 'rule(s) now confirmed' || fail "rules confirm all"
"$ANMAT" rules list --project proj | grep -q '\[1\] confirmed' \
  || fail "confirm persisted"

"$ANMAT" detect --project proj | grep -q 'New York' || fail "detect --project"
"$ANMAT" detect --project proj --format json | grep -q '"violations"' \
  || fail "detect --project --format json"

"$ANMAT" repair --project proj --out cleaned.csv \
  | grep -q 'applied .* repair(s)' || fail "repair --project"
grep -q '90004,Los Angeles' cleaned.csv || fail "repair cleaned the table"
"$ANMAT" repair --project proj --format json | grep -q '"repairs"' \
  || fail "repair --format json"

"$ANMAT" rules reject 1 --project proj >/dev/null || fail "rules reject"
"$ANMAT" rules list --project proj | grep -q '\[1\] rejected' \
  || fail "reject persisted"

# `confirm all` leaves rejected rules rejected; an explicit id overrides.
"$ANMAT" rules confirm all --project proj >/dev/null || fail "confirm all"
"$ANMAT" rules list --project proj | grep -q '\[1\] rejected' \
  || fail "confirm all must not resurrect a rejection"
"$ANMAT" rules confirm 1 --project proj >/dev/null
"$ANMAT" rules list --project proj | grep -q '\[1\] confirmed' \
  || fail "explicit confirm overrides rejection"

"$ANMAT" profile --project proj | grep -q 'Profiling' \
  || fail "profile --project"

# --- one-shot forms (unchanged surface) ------------------------------------

"$ANMAT" discover zips.csv --coverage 0.5 --violations 0.3 --rules r.json \
  | grep -q 'saved .* rule(s)' || fail "one-shot discover --rules"
# --format json keeps stdout pure JSON even when also saving rules.
"$ANMAT" discover zips.csv --coverage 0.5 --violations 0.3 \
  --rules r_json_mode.json --format json \
  | python3 -c 'import json,sys; json.load(sys.stdin)' \
  || fail "discover --format json stdout must be pure JSON"
if "$ANMAT" rules confirm -1 --project proj 2>err.txt; then
  fail "negative rule id should be rejected"
fi
grep -q -- 'not a rule id: -1' err.txt || fail "negative id named"
"$ANMAT" detect zips.csv --rules r.json | grep -q 'New York' \
  || fail "one-shot detect"
"$ANMAT" repair zips.csv --rules r.json --out cleaned2.csv --format json \
  | grep -q '"remaining_violations": 0' || fail "one-shot repair json"
grep -q '90004,Los Angeles' cleaned2.csv || fail "one-shot repair output"

# --- v1 rule files migrate transparently -----------------------------------

python3 - <<'EOF' || fail "building v1 rule file"
import json
d = json.load(open("r.json"))
assert d["version"] == 2, d["version"]
v1 = {"format": "anmat-rules", "version": 1,
      "rules": [r["rule"] for r in d["rules"]]}
json.dump(v1, open("r_v1.json", "w"))
EOF
"$ANMAT" detect zips.csv --rules r_v1.json | grep -q 'New York' \
  || fail "v1 rule file loads transparently"

# --- strict flag parsing ---------------------------------------------------

if "$ANMAT" detect zips.csv --rules r.json --bogus 1 2>err.txt; then
  fail "unknown flag should exit nonzero"
fi
[ "$("$ANMAT" detect zips.csv --rules r.json --bogus 1 >/dev/null 2>&1; echo $?)" = 1 ] \
  || fail "unknown flag exit code should be 1"
grep -q -- 'unknown flag: --bogus' err.txt || fail "unknown flag named"

if "$ANMAT" detect zips.csv --rules r.json --rules r.json 2>err.txt; then
  fail "duplicate flag should exit nonzero"
fi
grep -q -- 'duplicate flag: --rules' err.txt || fail "duplicate flag named"

if "$ANMAT" detect zips.csv --rules 2>err.txt; then
  fail "flag missing value should exit nonzero"
fi
grep -q -- 'missing value for flag: --rules' err.txt \
  || fail "missing value named"

# Mode-mismatched flags are rejected, not silently ignored.
if "$ANMAT" discover --project proj --rules out.json 2>err.txt; then
  fail "--rules in project mode should be rejected"
fi
grep -q -- '--rules applies to the one-shot form' err.txt \
  || fail "mode-mismatch names the flag"
if "$ANMAT" detect zips.csv --rules r.json --data x 2>err.txt; then
  fail "--data in one-shot mode should be rejected"
fi
grep -q -- '--data requires --project' err.txt || fail "--data rejection"
if "$ANMAT" discover --project proj --name ds 2>err.txt; then
  fail "--name without --data should be rejected"
fi
grep -q -- '--name requires --data' err.txt || fail "--name rejection"

# Numeric flag values are validated.
if "$ANMAT" init proj2 --coverage high 2>err.txt; then
  fail "non-numeric --coverage should be rejected"
fi
grep -q -- 'invalid value for flag: --coverage' err.txt \
  || fail "numeric validation names the flag"
[ ! -d proj2 ] || [ ! -f proj2/project.json ] \
  || fail "rejected init must not create a catalog"
if "$ANMAT" detect zips.csv --rules r.json --threads two 2>err.txt; then
  fail "non-numeric --threads should be rejected"
fi
grep -q -- 'invalid value for flag: --threads' err.txt \
  || fail "--threads validation"
if "$ANMAT" profile zips.csv --threads -1 2>err.txt; then
  fail "negative --threads should be rejected"
fi
grep -q -- 'invalid value for flag: --threads' err.txt \
  || fail "negative --threads named (strtoul wrap)"
if "$ANMAT" profile zips.csv --threads ' -3' 2>err.txt; then
  fail "whitespace-prefixed negative --threads should be rejected"
fi
grep -q -- 'invalid value for flag: --threads' err.txt \
  || fail "whitespace-negative --threads named"
# A pipe cannot be mapped; it is read once and profiles like the file.
"$ANMAT" profile zips.csv > profile_file.txt || fail "profile zips.csv"
"$ANMAT" profile <(cat zips.csv) > profile_pipe.txt \
  || fail "profile of a process substitution"
diff profile_file.txt profile_pipe.txt || fail "profile of a pipe differs"
cat zips.csv | "$ANMAT" profile /dev/stdin > profile_stdin.txt \
  || fail "profile of /dev/stdin"
diff profile_file.txt profile_stdin.txt || fail "profile of stdin differs"
# --lock-wait-ms is held as an int: a value past INT_MAX is out of range,
# not a wrapped negative wait.
[ "$("$ANMAT" rules list --project proj --lock-wait-ms 3000000000 \
      >/dev/null 2>err.txt; echo $?)" = 1 ] \
  || fail "--lock-wait-ms past INT_MAX should exit 1"
grep -q -- 'invalid value for flag: --lock-wait-ms: "3000000000" is out of range' \
  err.txt || fail "--lock-wait-ms range error names the flag"
# --max travels as a JSON number: past 2^53 it is out of range, not rounded
# on its way to the verb.
[ "$("$ANMAT" detect --project proj --max 9223372036854775807 \
      >/dev/null 2>err.txt; echo $?)" = 1 ] \
  || fail "--max past 2^53 should exit 1"
grep -q -- 'invalid value for flag: --max: "9223372036854775807" is out of range' \
  err.txt || fail "--max range error names the flag"

# rules confirm/reject render nothing, so --format is rejected there.
if "$ANMAT" rules confirm all --project proj --format json 2>err.txt; then
  fail "--format on rules confirm should be rejected"
fi
grep -q -- 'unknown flag: --format' err.txt || fail "--format rejection"

# Re-running discover must not duplicate stored rules.
"$ANMAT" discover --project proj --data zips.csv >/dev/null \
  || fail "re-discover"
[ "$("$ANMAT" rules list --project proj | grep -c '^\[')" = 1 ] \
  || fail "re-discover duplicated rule records"

# --- streaming detection with clean-on-ingest ------------------------------

"$ANMAT" stream zips.csv --rules r.json --batch 2 --clean all \
  --out streamed.csv | grep -q 'repair(s) applied on ingest' \
  || fail "stream --clean all"
grep -q '90004,Los Angeles' streamed.csv \
  || fail "stream --clean all wrote the cleaned relation"
"$ANMAT" stream zips.csv --rules r.json --batch 2 --clean constant \
  | grep -q 'repair(s) applied on ingest' || fail "stream --clean constant"
"$ANMAT" stream zips.csv --rules r.json --format json \
  | python3 -c 'import json,sys
d = json.load(sys.stdin)
assert d["clean"] == "off", d["clean"]
assert d["rows"] == 4, d["rows"]
assert d["violations"] > 0, d' \
  || fail "stream --format json stdout must be pure JSON (clean off)"
"$ANMAT" stream --project proj --batch 3 --clean all \
  | grep -q 'streamed 4 row(s)' || fail "stream --project"
if "$ANMAT" stream zips.csv --rules r.json --clean sometimes 2>err.txt; then
  fail "invalid --clean mode should be rejected"
fi
grep -q -- 'invalid value for flag: --clean' err.txt \
  || fail "--clean validation names the flag"
if "$ANMAT" stream zips.csv --rules r.json --batch 0 2>err.txt; then
  fail "--batch 0 should be rejected"
fi
grep -q -- 'invalid value for flag: --batch' err.txt \
  || fail "--batch validation names the flag"
# A batch past the 32-bit row-id range is one batch of the whole relation
# (it once wrapped to a zero step and appended empty batches forever).
timeout 10 "$ANMAT" stream zips.csv --rules r.json --batch 4294967296 \
  | grep -q 'in 1 batch(es)' || fail "stream --batch 2^32 is one batch"
timeout 10 "$ANMAT" stream zips.csv --rules r.json --batch 4294967297 \
  | grep -q 'in 1 batch(es)' || fail "stream --batch 2^32+1 is one batch"

# --- catalog schema fingerprints -------------------------------------------

# Silently re-shaping the attached CSV must fail loudly at load time.
cp zips.csv zips.csv.orig
cat > zips.csv <<'EOF'
zipcode,city,region
90001,Los Angeles,CA
EOF
if "$ANMAT" detect --project proj 2>err.txt; then
  fail "detect against a re-shaped dataset should fail"
fi
grep -q 'changed schema' err.txt || fail "schema-change error message"
mv zips.csv.orig zips.csv
"$ANMAT" detect --project proj >/dev/null \
  || fail "detect works again once the schema is restored"

# --- rules delete ----------------------------------------------------------

if "$ANMAT" rules delete 99 --project proj 2>err.txt; then
  fail "deleting an unknown rule id should fail"
fi
[ "$("$ANMAT" rules delete 99 --project proj >/dev/null 2>&1; echo $?)" = 1 ] \
  || fail "unknown rule id delete exit code should be 1"
grep -q 'no rule with id 99' err.txt || fail "unknown rule id named"
"$ANMAT" rules delete 1 --project proj \
  | grep -q 'deleted 1 rule(s)' || fail "rules delete"
[ "$("$ANMAT" rules list --project proj | grep -c '^\[')" = 0 ] \
  || fail "delete left the rule behind"
# Ids are never reused: re-discovering the same rule assigns a fresh id.
"$ANMAT" discover --project proj --data zips.csv >/dev/null \
  || fail "re-discover after delete"
"$ANMAT" rules list --project proj | grep -q '^\[2\]' \
  || fail "deleted id 1 must not be reused"

# --- crash recovery, fsck, locking -----------------------------------------

# Healthy project: fsck is a no-op reporting health (exit 0).
"$ANMAT" project fsck --project proj | grep -q 'project: healthy' \
  || fail "fsck on healthy project"
"$ANMAT" project fsck --project proj --format json \
  | python3 -c 'import json,sys
d = json.load(sys.stdin)
assert d["healthy"] is True, d
assert d["action"] == "clean", d' \
  || fail "fsck --format json on healthy project"

# A corrupt rules file fails loudly — naming the file, the byte offset of
# the damage, and the fsck recovery path — and fsck reports it (exit 2).
cp proj/rules.json rules.json.bak
printf '{"format": "anmat-rules", "version": 2, "next' > proj/rules.json
if "$ANMAT" rules list --project proj 2>err.txt; then
  fail "rules list against a corrupt rule store should fail"
fi
grep -q 'proj/rules.json' err.txt || fail "corrupt-store error names the file"
grep -q 'offset' err.txt || fail "corrupt-store error carries the byte offset"
grep -q 'anmat project fsck' err.txt || fail "corrupt-store error points at fsck"
"$ANMAT" project fsck --project proj >fsck.txt 2>&1 && \
  fail "fsck on a corrupt project should exit nonzero"
[ "$("$ANMAT" project fsck --project proj >/dev/null 2>&1; echo $?)" = 2 ] \
  || fail "fsck corrupt exit code should be 2"
grep -q 'CORRUPT' fsck.txt || fail "fsck reports the corruption"
mv rules.json.bak proj/rules.json
"$ANMAT" project fsck --project proj | grep -q 'project: healthy' \
  || fail "fsck healthy again after restore"

# A committed-but-unapplied save (crash after the journal commit point):
# craft a real journal record — length-prefixed, CRC32-checksummed, the
# same zlib CRC the store uses — and let fsck replay it.
python3 - <<'EOF' || fail "crafting a committed journal record"
import json, struct, zlib
payload = json.dumps({
    "format": "anmat-journal", "version": 1,
    "files": [
        {"name": "rules.json", "content": open("proj/rules.json").read()},
        {"name": "marker.txt", "content": "replayed-by-fsck\n"},
    ],
}).encode()
with open("proj/journal.wal", "wb") as f:
    f.write(struct.pack("<II", len(payload), zlib.crc32(payload)) + payload)
EOF
"$ANMAT" project fsck --project proj | grep -q 'replayed a committed save' \
  || fail "fsck replays a committed journal record"
[ "$(cat proj/marker.txt)" = "replayed-by-fsck" ] \
  || fail "fsck applied the journaled files"
[ ! -s proj/journal.wal ] || fail "fsck checkpointed the journal"

# A torn journal tail (crash mid-append, before the commit point) is
# discarded; the previous state stands.
printf 'torn-garbage' >> proj/journal.wal
"$ANMAT" project fsck --project proj | grep -q 'discarded an uncommitted save' \
  || fail "fsck discards a torn journal tail"
[ ! -s proj/journal.wal ] || fail "fsck truncated the torn tail"

# A stale lock file from a dead process must not block anything: flock
# locks die with their holder, so the recorded pid is just a leftover.
echo 999999999 > proj/.anmat.lock
"$ANMAT" rules list --project proj >/dev/null \
  || fail "stale lock file must not block commands"

# Two concurrent writers confirming different rules: the project lock
# serializes their read-modify-write cycles, so neither confirmation is
# lost to the other's save.
cat > zips3.csv <<'EOF'
zip,city,state
90001,Los Angeles,CA
90002,Los Angeles,CA
90003,Los Angeles,CA
90004,New York,NY
EOF
"$ANMAT" init proj_lock --coverage 0.5 --violations 0.3 >/dev/null \
  || fail "init for lock test"
"$ANMAT" discover --project proj_lock --data zips3.csv >/dev/null \
  || fail "discover for lock test"
"$ANMAT" rules confirm 1 --project proj_lock >/dev/null &
writer_a=$!
"$ANMAT" rules confirm 2 --project proj_lock >/dev/null &
writer_b=$!
wait "$writer_a" || fail "concurrent writer A failed"
wait "$writer_b" || fail "concurrent writer B failed"
"$ANMAT" rules list --project proj_lock | grep -q '^\[1\] confirmed' \
  || fail "concurrent confirm of rule 1 was lost"
"$ANMAT" rules list --project proj_lock | grep -q '^\[2\] confirmed' \
  || fail "concurrent confirm of rule 2 was lost"

# --- anmatd: the daemon and --connect mode ---------------------------------

# One project, driven both ways. The one-shot outputs are captured FIRST:
# once the daemon hosts the project it holds the flock, and direct
# invocations would block on it.
"$ANMAT" init proj_d --name daemon-demo --coverage 0.5 --violations 0.3 \
  >/dev/null || fail "init for daemon test"
"$ANMAT" discover --project proj_d --data zips3.csv >/dev/null \
  || fail "discover for daemon test"
"$ANMAT" rules confirm all --project proj_d >/dev/null \
  || fail "confirm for daemon test"
"$ANMAT" rules list --project proj_d --format json > direct_rules.json \
  || fail "direct rules list json"
"$ANMAT" detect --project proj_d --format json > direct_detect.json \
  || fail "direct detect json"
"$ANMAT" repair --project proj_d --out direct_clean.csv --format json \
  > direct_repair.json || fail "direct repair json"
"$ANMAT" stream --project proj_d --batch 2 --clean constant --format json \
  > direct_stream.json || fail "direct stream json"
"$ANMAT" profile --project proj_d --format json > direct_profile.json \
  || fail "direct profile json"
"$ANMAT" project fsck --project proj_d --format json > direct_fsck.json \
  || fail "direct fsck json"
"$ANMAT" detect --project proj_d --max 2 > direct_detect_max.txt \
  || fail "direct detect --max 2"
"$ANMAT" detect --project proj_d --max 9007199254740992 >/dev/null \
  || fail "direct detect --max 2^53 (exact as a JSON number)"
"$ANMAT" stream --project proj_d --batch 2 --clean all \
  > direct_stream_all.txt || fail "direct stream --clean all"
"$ANMAT" rules list --project proj_d > direct_rules.txt \
  || fail "direct rules list"
"$ANMAT" init proj_p_direct --coverage 0.5 --violations 0.3 >/dev/null \
  || fail "direct init with parameters"

# A re-shaped attached CSV: stream must refuse it like detect does, in
# both modes and with the same message (the --connect half runs below).
cp zips3.csv zips_s.csv
"$ANMAT" init proj_s --coverage 0.5 --violations 0.3 >/dev/null \
  || fail "init for schema test"
"$ANMAT" discover --project proj_s --data zips_s.csv >/dev/null \
  || fail "discover for schema test"
"$ANMAT" rules confirm all --project proj_s >/dev/null \
  || fail "confirm for schema test"
sed -i '1s/.*/city,zip,extra/' zips_s.csv
if "$ANMAT" stream --project proj_s 2>direct_schema_err.txt; then
  fail "stream against a re-shaped dataset should fail"
fi
grep -q 'changed schema' direct_schema_err.txt \
  || fail "stream schema-change error message"

SOCK="$WORK/anmatd.sock"
"$ANMAT" serve --socket "$SOCK" > daemon.log 2>&1 &
daemon_pid=$!
for _ in $(seq 1 100); do [ -S "$SOCK" ] && break; sleep 0.05; done
[ -S "$SOCK" ] || fail "daemon did not create its socket"

"$ANMAT" daemon ping --connect "$SOCK" | grep -q '"protocol": 1' \
  || fail "daemon ping"

# Differential: every --connect response must be byte-identical to the
# one-shot CLI's --format json output (the daemon reuses the same
# renderers; --connect is transparent).
"$ANMAT" rules list --project proj_d --format json --connect "$SOCK" \
  > conn_rules.json || fail "connect rules list"
diff direct_rules.json conn_rules.json \
  || fail "rules list diverges between direct and --connect"
"$ANMAT" detect --project proj_d --format json --connect "$SOCK" \
  > conn_detect.json || fail "connect detect"
diff direct_detect.json conn_detect.json \
  || fail "detect diverges between direct and --connect"
"$ANMAT" repair --project proj_d --out conn_clean.csv --format json \
  --connect "$SOCK" > conn_repair.json || fail "connect repair"
diff direct_repair.json conn_repair.json \
  || fail "repair diverges between direct and --connect"
diff direct_clean.csv conn_clean.csv \
  || fail "repaired CSV diverges between direct and --connect"
"$ANMAT" stream --project proj_d --batch 2 --clean constant --format json \
  --connect "$SOCK" > conn_stream.json || fail "connect stream"
diff direct_stream.json conn_stream.json \
  || fail "stream diverges between direct and --connect"
"$ANMAT" profile --project proj_d --format json --connect "$SOCK" \
  > conn_profile.json || fail "connect profile"
diff direct_profile.json conn_profile.json \
  || fail "profile diverges between direct and --connect"
"$ANMAT" project fsck --project proj_d --format json --connect "$SOCK" \
  > conn_fsck.json || fail "connect fsck"
diff direct_fsck.json conn_fsck.json \
  || fail "fsck diverges between direct and --connect"
"$ANMAT" detect --project proj_d --max 2 --connect "$SOCK" \
  > conn_detect_max.txt || fail "connect detect --max 2"
diff direct_detect_max.txt conn_detect_max.txt \
  || fail "text detect --max 2 diverges between direct and --connect"
"$ANMAT" stream --project proj_d --batch 2 --clean all --connect "$SOCK" \
  > conn_stream_all.txt || fail "connect stream --clean all"
diff direct_stream_all.txt conn_stream_all.txt \
  || fail "text stream diverges between direct and --connect"
"$ANMAT" rules list --project proj_d --connect "$SOCK" > conn_rules.txt \
  || fail "connect rules list"
diff direct_rules.txt conn_rules.txt \
  || fail "text rules list diverges between direct and --connect"
# Re-discovery is idempotent (equal pfds dedupe onto their rule ids), so
# discover over --connect returns the same rule-store document.
"$ANMAT" discover --project proj_d --format json --connect "$SOCK" \
  > conn_discover.json || fail "connect discover"
diff direct_rules.json conn_discover.json \
  || fail "discover over --connect diverges from the rule store"

# The daemon host holds the project flock: a direct writer with a short
# --lock-wait-ms budget fails fast, naming the daemon process.
if "$ANMAT" rules confirm all --project proj_d --lock-wait-ms 50 \
    2>err.txt; then
  fail "direct writer should time out while the daemon holds the lock"
fi
grep -q 'held by process' err.txt \
  || fail "lock timeout should name the holding process"

# Mutations over --connect: annotate a rule, see the note, reject unknown
# ids with exit 1.
"$ANMAT" rules annotate 1 --note "from the daemon" --project proj_d \
  --connect "$SOCK" | grep -q 'annotated rule 1' || fail "connect annotate"
"$ANMAT" rules list --project proj_d --connect "$SOCK" \
  | grep -q 'note: from the daemon' || fail "annotate note shown in list"
[ "$("$ANMAT" rules annotate 99 --note x --project proj_d \
      --connect "$SOCK" >/dev/null 2>&1; echo $?)" = 1 ] \
  || fail "annotate unknown id over --connect should exit 1"

# stats exposes the warm engine's automaton cache counters.
"$ANMAT" daemon stats --connect "$SOCK" \
  | python3 -c 'import json,sys
d = json.load(sys.stdin)
assert d["projects"] == 1, d
cache = d["project_stats"][0]["automaton_cache"]
assert cache["hits"] > 0, cache' \
  || fail "daemon stats should show automaton cache hits"

# Projects the daemon first meets through init and a failing stream.
"$ANMAT" init proj_p_conn --coverage 0.5 --violations 0.3 \
  --connect "$SOCK" >/dev/null || fail "connect init with parameters"
python3 - <<'PY' || fail "init parameters diverge between direct and --connect"
import json
direct = json.load(open("proj_p_direct/project.json"))["parameters"]
conn = json.load(open("proj_p_conn/project.json"))["parameters"]
assert direct == conn, (direct, conn)
assert direct == {"min_coverage": 0.5, "allowed_violation_ratio": 0.3}, direct
PY
if "$ANMAT" stream --project proj_s --connect "$SOCK" \
    2>conn_schema_err.txt; then
  fail "stream --connect against a re-shaped dataset should fail"
fi
diff direct_schema_err.txt conn_schema_err.txt \
  || fail "stream schema-change error diverges between direct and --connect"

# Graceful shutdown: the verb drains, Serve returns, the process exits,
# the socket is unlinked, and the project flock is released — the next
# direct command (a save included) just works.
"$ANMAT" daemon shutdown --connect "$SOCK" | grep -q '"stopping": true' \
  || fail "daemon shutdown"
wait "$daemon_pid" || fail "daemon did not exit cleanly after shutdown"
[ ! -e "$SOCK" ] || fail "daemon left its socket behind"
"$ANMAT" rules confirm all --project proj_d --lock-wait-ms 2000 >/dev/null \
  || fail "project lock not released after daemon shutdown"
grep -q 'note: from the daemon' \
  <("$ANMAT" rules list --project proj_d) \
  || fail "daemon-side annotate did not persist to disk"

echo "PASS: CLI project workflow end-to-end"
