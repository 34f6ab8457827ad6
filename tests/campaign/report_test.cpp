// Result-row and aggregation tests: JSONL roundtrip, dedup-by-cell
// (keep-last), torn-tail tolerance in the scanner, and deterministic
// report rendering.
#include "campaign/report.hpp"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <utility>

namespace coeff::campaign {
namespace {

ResultRow ok_row(std::int64_t cell) {
  ResultRow row;
  row.cell = cell;
  row.seed = 1000 + static_cast<std::uint64_t>(cell);
  row.status = "ok";
  row.scheme = "coefficient";
  row.fault = "iid";
  row.structural = "none";
  row.nodes = 8;
  row.statics = 20;
  row.dynamics = 6;
  row.util = 0.31;
  row.ber = 1e-6;
  row.released = 100;
  row.delivered = 98;
  row.missed = 2;
  row.copies_sent = 140;
  row.cycles = 20;
  row.miss_ratio = 0.02;
  row.d_released = 30;
  row.d_missed = 1;
  row.m_changes = 2;
  row.m_shed = 5;
  row.m_matchup = 4;
  row.m_dwell_l1 = 6;
  row.m_dwell_l2 = 1;
  row.e_total_uj = 12.5;
  row.e_sleep_uj = 1.25;
  return row;
}

/// Strip the d_* fields from a rendered row, producing the exact line an
/// older campaign (pre-dynamic-counters schema) would have written.
std::string strip_dynamic_counters(std::string line) {
  const auto start = line.find(",\"d_released\"");
  const auto end = line.rfind('}');
  EXPECT_NE(start, std::string::npos);
  line.erase(start, end - start);
  return line;
}

/// Strip only the mode/energy fields, producing the line a campaign
/// from the dynamic-counters era (pre-mode-protocol schema) wrote.
std::string strip_mode_energy_counters(std::string line) {
  const auto start = line.find(",\"m_changes\"");
  const auto end = line.rfind('}');
  EXPECT_NE(start, std::string::npos);
  line.erase(start, end - start);
  return line;
}

TEST(ResultRow, RendersAndParsesRoundTrip) {
  const ResultRow row = ok_row(7);
  const auto parsed = parse_row(render_row(row));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->cell, row.cell);
  EXPECT_EQ(parsed->seed, row.seed);
  EXPECT_EQ(parsed->status, row.status);
  EXPECT_EQ(parsed->scheme, row.scheme);
  EXPECT_EQ(parsed->fault, row.fault);
  EXPECT_EQ(parsed->released, row.released);
  EXPECT_EQ(parsed->missed, row.missed);
  EXPECT_DOUBLE_EQ(parsed->miss_ratio, row.miss_ratio);
  EXPECT_EQ(parsed->d_released, row.d_released);
  EXPECT_EQ(parsed->d_missed, row.d_missed);
  EXPECT_EQ(parsed->m_changes, row.m_changes);
  EXPECT_EQ(parsed->m_shed, row.m_shed);
  EXPECT_EQ(parsed->m_matchup, row.m_matchup);
  EXPECT_EQ(parsed->m_dwell_l1, row.m_dwell_l1);
  EXPECT_EQ(parsed->m_dwell_l2, row.m_dwell_l2);
  EXPECT_DOUBLE_EQ(parsed->e_total_uj, row.e_total_uj);
  EXPECT_DOUBLE_EQ(parsed->e_sleep_uj, row.e_sleep_uj);
  // Canonical: render(parse(render(x))) == render(x).
  EXPECT_EQ(render_row(*parsed), render_row(row));
}

TEST(ResultRow, LegacyRowsWithoutModeCountersParseToZero) {
  // Rows from campaigns that predate the mode/energy counters keep
  // parsing; the new fields default to 0 (the "protocol off" reading)
  // while every older field survives untouched.
  const std::string legacy = strip_mode_energy_counters(render_row(ok_row(7)));
  const auto parsed = parse_row(legacy);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->cell, 7);
  EXPECT_EQ(parsed->d_released, 30);  // dynamic-era fields still there
  EXPECT_EQ(parsed->m_changes, 0);
  EXPECT_EQ(parsed->m_shed, 0);
  EXPECT_EQ(parsed->m_matchup, 0);
  EXPECT_EQ(parsed->m_dwell_l1, 0);
  EXPECT_EQ(parsed->m_dwell_l2, 0);
  EXPECT_DOUBLE_EQ(parsed->e_total_uj, 0.0);
  EXPECT_DOUBLE_EQ(parsed->e_sleep_uj, 0.0);
}

TEST(ResultRow, GarbledModeCountersRejectTheRow) {
  // Present-but-unreadable is a corrupt row, not a legacy row.
  std::string line = render_row(ok_row(7));
  const auto pos = line.find("\"m_shed\":5");
  ASSERT_NE(pos, std::string::npos);
  line.replace(pos, std::string("\"m_shed\":5").size(), "\"m_shed\":xyz");
  EXPECT_FALSE(parse_row(line).has_value());

  std::string eline = render_row(ok_row(7));
  const auto epos = eline.find("\"e_total_uj\":");
  ASSERT_NE(epos, std::string::npos);
  const auto evalue_end = eline.find_first_of(",}", epos + 13);
  eline.replace(epos + 13, evalue_end - (epos + 13), "bogus");
  EXPECT_FALSE(parse_row(eline).has_value());
}

TEST(ResultRow, LegacyRowsWithoutDynamicCountersParseToZero) {
  // Rows from campaigns that predate the d_* counters must keep parsing
  // and default to 0 — the dynamic cross-check then skips them instead
  // of treating them as clean-measured cells.
  const std::string legacy = strip_dynamic_counters(render_row(ok_row(7)));
  const auto parsed = parse_row(legacy);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->cell, 7);
  EXPECT_EQ(parsed->released, 100);
  EXPECT_EQ(parsed->d_released, 0);
  EXPECT_EQ(parsed->d_missed, 0);
}

TEST(ResultRow, GarbledDynamicCountersRejectTheRow) {
  std::string line = render_row(ok_row(7));
  const auto pos = line.find("\"d_released\":30");
  ASSERT_NE(pos, std::string::npos);
  line.replace(pos, std::string("\"d_released\":30").size(),
               "\"d_released\":oops");
  EXPECT_FALSE(parse_row(line).has_value());
}

TEST(ResultRow, FailedRowCarriesReproHandle) {
  ResultRow row;
  row.cell = 3;
  row.seed = 777;
  row.status = "failed";
  row.scheme = "hosa";
  row.fault = "gilbert-elliott";
  row.structural = "crash";
  row.attempts = 2;
  row.reason = "watchdog-timeout";
  const auto parsed = parse_row(render_row(row));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status, "failed");
  EXPECT_EQ(parsed->seed, 777u);
  EXPECT_EQ(parsed->attempts, 2);
  EXPECT_EQ(parsed->reason, "watchdog-timeout");
}

TEST(ResultRow, GarbageNeverParses) {
  EXPECT_FALSE(parse_row("").has_value());
  EXPECT_FALSE(parse_row("not json").has_value());
  EXPECT_FALSE(parse_row("{\"cell\":}").has_value());
  EXPECT_FALSE(parse_row(std::string(512, '{')).has_value());
}

class ScanFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::string("scan_") +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    (void)::mkdir(dir_.c_str(), 0755);
    manifest_.cells = 8;
    manifest_.shards = 2;
  }
  void TearDown() override {
    for (int shard = 0; shard < manifest_.shards; ++shard) {
      (void)::remove(shard_results_path(dir_, shard).c_str());
    }
    (void)::rmdir(dir_.c_str());
  }
  void write_shard(int shard, const std::string& contents) {
    std::ofstream out(shard_results_path(dir_, shard), std::ios::binary);
    out << contents;
  }
  std::string dir_;
  CampaignManifest manifest_;
};

TEST_F(ScanFixture, DedupsByCellKeepingLast) {
  ResultRow stale = ok_row(2);
  stale.released = 1;  // superseded by the re-run after a resume
  write_shard(0, render_row(ok_row(0)) + "\n" + render_row(stale) + "\n" +
                     render_row(ok_row(2)) + "\n");
  write_shard(1, render_row(ok_row(1)) + "\n");
  const ResultScan scan = scan_results(dir_, manifest_);
  EXPECT_TRUE(scan.errors.empty());
  EXPECT_EQ(scan.duplicate_rows, 1);
  ASSERT_EQ(scan.rows.size(), 3u);
  EXPECT_EQ(scan.rows[0].cell, 0);
  EXPECT_EQ(scan.rows[1].cell, 1);
  EXPECT_EQ(scan.rows[2].cell, 2);
  EXPECT_EQ(scan.rows[2].released, 100);  // the later row won
}

TEST_F(ScanFixture, ToleratesTornTailAndCountsGarbage) {
  const std::string full = render_row(ok_row(0)) + "\n";
  write_shard(0, full + full.substr(0, full.size() / 2));  // torn tail
  write_shard(1, "mid-file garbage line\n" + render_row(ok_row(1)) + "\n");
  const ResultScan scan = scan_results(dir_, manifest_);
  EXPECT_EQ(scan.torn_tail_lines, 1);
  EXPECT_EQ(scan.unparsed_lines, 1);
  ASSERT_EQ(scan.rows.size(), 2u);
}

TEST(Aggregate, FoldsAndRendersDeterministically) {
  std::vector<ResultRow> rows;
  for (std::int64_t cell = 0; cell < 6; ++cell) rows.push_back(ok_row(cell));
  rows[3].status = "failed";
  rows[3].reason = "crash";
  rows[4].status = "shed";
  const CampaignAggregate aggregate = aggregate_rows(rows, 8);
  EXPECT_EQ(aggregate.expected, 8);
  EXPECT_EQ(aggregate.ok, 4);
  EXPECT_EQ(aggregate.failed, 1);
  EXPECT_EQ(aggregate.shed, 1);
  EXPECT_EQ(aggregate.missing, 2);
  EXPECT_EQ(aggregate.released, 4 * 100);
  EXPECT_EQ(aggregate.d_released, 4 * 30);
  EXPECT_EQ(aggregate.d_missed, 4 * 1);
  ASSERT_EQ(aggregate.quarantined.size(), 1u);
  EXPECT_EQ(aggregate.quarantined[0].cell, 3);
  ASSERT_EQ(aggregate.missing_cells.size(), 2u);

  CampaignManifest manifest;
  manifest.cells = 8;
  const std::string once = render_report_json(aggregate, manifest);
  const std::string twice =
      render_report_json(aggregate_rows(rows, 8), manifest);
  EXPECT_EQ(once, twice);
  EXPECT_NE(once.find("\"ok\":4"), std::string::npos);
  EXPECT_NE(once.find("\"d_released\":120"), std::string::npos);
  EXPECT_NE(once.find("\"d_missed\":4"), std::string::npos);
}

TEST(Aggregate, LegacyRowsAggregateWithZeroDynamicCounters) {
  // A mixed campaign — some rows written before the d_* schema — must
  // aggregate exactly the modern rows' dynamic counters, not reject or
  // miscount the legacy ones.
  std::vector<ResultRow> rows;
  for (std::int64_t cell = 0; cell < 4; ++cell) {
    const std::string line =
        cell < 2 ? strip_dynamic_counters(render_row(ok_row(cell)))
                 : render_row(ok_row(cell));
    const auto parsed = parse_row(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    rows.push_back(*parsed);
  }
  const CampaignAggregate aggregate = aggregate_rows(rows, 4);
  EXPECT_EQ(aggregate.ok, 4);
  EXPECT_EQ(aggregate.released, 4 * 100);  // static counters unaffected
  EXPECT_EQ(aggregate.d_released, 2 * 30);
  EXPECT_EQ(aggregate.d_missed, 2 * 1);
}

TEST(Aggregate, ModeAndEnergyCountersFoldAcrossEras) {
  // Two legacy rows (mode/energy absent => 0) and two modern rows: the
  // fold must sum exactly the modern contributions, and the report JSON
  // must carry the new keys.
  std::vector<ResultRow> rows;
  for (std::int64_t cell = 0; cell < 4; ++cell) {
    const std::string line =
        cell < 2 ? strip_mode_energy_counters(render_row(ok_row(cell)))
                 : render_row(ok_row(cell));
    const auto parsed = parse_row(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    rows.push_back(*parsed);
  }
  const CampaignAggregate aggregate = aggregate_rows(rows, 4);
  EXPECT_EQ(aggregate.ok, 4);
  EXPECT_EQ(aggregate.m_changes, 2 * 2);
  EXPECT_EQ(aggregate.m_shed, 2 * 5);
  EXPECT_EQ(aggregate.m_matchup, 2 * 4);
  EXPECT_EQ(aggregate.m_dwell_l1, 2 * 6);
  EXPECT_EQ(aggregate.m_dwell_l2, 2 * 1);
  EXPECT_DOUBLE_EQ(aggregate.e_total_uj, 2 * 12.5);
  EXPECT_DOUBLE_EQ(aggregate.e_sleep_uj, 2 * 1.25);

  CampaignManifest manifest;
  manifest.cells = 4;
  const std::string json = render_report_json(aggregate, manifest);
  EXPECT_NE(json.find("\"m_shed\":10"), std::string::npos);
  EXPECT_NE(json.find("\"m_matchup\":8"), std::string::npos);
  EXPECT_NE(json.find("\"e_total_uj\":"), std::string::npos);
  const std::string text = render_report_text(aggregate, manifest);
  EXPECT_NE(text.find("mode"), std::string::npos);
  EXPECT_NE(text.find("energy"), std::string::npos);
}

// Golden formats: exact bytes of every row status and of both report
// renderings, so a refactor of the writers cannot drift them silently.

ResultRow golden_failed_row() {
  ResultRow row;
  row.cell = 2;
  row.seed = 1002;
  row.status = "failed";
  row.scheme = "hosa";
  row.fault = "gilbert-elliott";
  row.structural = "crash";
  row.nodes = 16;
  row.statics = 40;
  row.dynamics = 10;
  row.util = 0.5;
  row.ber = 1e-7;
  row.attempts = 2;
  row.reason = "watchdog-timeout";
  return row;
}

ResultRow golden_shed_row() {
  ResultRow row;
  row.cell = 3;
  row.seed = 1003;
  row.status = "shed";
  return row;
}

/// A row from a campaign that predates the s_*/d_*/m_*/e_* counters.
constexpr const char* kGoldenLegacyRow =
    "{\"cell\":1,\"seed\":1001,\"status\":\"ok\",\"scheme\":\"fspec\","
    "\"fault\":\"common-mode\",\"structural\":\"blackout\",\"nodes\":4,"
    "\"statics\":12,\"dynamics\":3,\"util\":0.45,\"ber\":1e-05,"
    "\"released\":50,\"delivered\":47,\"missed\":3,\"source_lost\":1,"
    "\"copies_sent\":90,\"cycles\":10,\"miss_ratio\":0.06,"
    "\"degraded\":true,\"plan_swaps\":1,\"failovers\":2,\"frames_lost\":4}";

TEST(Golden, RowBytes) {
  ResultRow ok = ok_row(0);
  ok.frames_lost = 3;
  ok.s_released = 70;
  ok.s_missed = 1;
  EXPECT_EQ(render_row(ok),
            "{\"cell\":0,\"seed\":1000,\"status\":\"ok\",\"scheme\":"
            "\"coefficient\",\"fault\":\"iid\",\"structural\":\"none\","
            "\"nodes\":8,\"statics\":20,\"dynamics\":6,\"util\":0.31,"
            "\"ber\":1e-06,\"released\":100,\"delivered\":98,\"missed\":2,"
            "\"source_lost\":0,\"copies_sent\":140,\"cycles\":20,"
            "\"miss_ratio\":0.02,\"degraded\":false,\"plan_swaps\":0,"
            "\"failovers\":0,\"frames_lost\":3,\"s_released\":70,"
            "\"s_missed\":1,\"d_released\":30,\"d_missed\":1,"
            "\"m_changes\":2,\"m_shed\":5,\"m_matchup\":4,\"m_dwell_l1\":6,"
            "\"m_dwell_l2\":1,\"e_total_uj\":12.5,\"e_sleep_uj\":1.25}");
  EXPECT_EQ(render_row(golden_failed_row()),
            "{\"cell\":2,\"seed\":1002,\"status\":\"failed\",\"scheme\":"
            "\"hosa\",\"fault\":\"gilbert-elliott\",\"structural\":\"crash\","
            "\"nodes\":16,\"statics\":40,\"dynamics\":10,\"util\":0.5,"
            "\"ber\":1e-07,\"attempts\":2,\"reason\":\"watchdog-timeout\"}");
  EXPECT_EQ(render_row(golden_shed_row()),
            "{\"cell\":3,\"seed\":1003,\"status\":\"shed\"}");
}

CampaignAggregate golden_aggregate() {
  ResultRow ok = ok_row(0);
  ok.frames_lost = 3;
  ok.s_released = 70;
  ok.s_missed = 1;
  const auto legacy = parse_row(kGoldenLegacyRow);
  EXPECT_TRUE(legacy.has_value());
  // Cells 4 and 5 of 6 never reported: the missing pair.
  return aggregate_rows(
      {ok, legacy.value_or(ResultRow{}), golden_failed_row(),
       golden_shed_row()},
      6);
}

CampaignManifest golden_manifest() {
  CampaignManifest manifest;
  manifest.name = "golden";
  manifest.seed = 2026;
  manifest.cells = 6;
  manifest.shards = 2;
  return manifest;
}

TEST(Golden, ReportTextBytes) {
  EXPECT_EQ(
      render_report_text(golden_aggregate(), golden_manifest()),
      "campaign  : golden seed=2026 cells=6 shards=2 isolation=process\n"
      "cells     : ok=2 failed=1 shed=1 missing=2 / 6\n"
      "instances : released=150 delivered=145 missed=5 source_lost=1\n"
      "dynamic   : released=30 missed=1\n"
      "miss      : mean=0.04 max=0.06 | degraded_plans=1 plan_swaps=1 "
      "failovers=2\n"
      "wire      : copies_sent=230 cycles=30\n"
      "mode      : changes=2 shed=5 matchup=4 dwell_l1=6 dwell_l2=1\n"
      "energy    : total_uj=12.5 sleep_saved_uj=1.25\n"
      "by scheme:\n"
      "  coefficient              cells=1      released=100       "
      "missed=2       mean_miss=0.02\n"
      "  fspec                    cells=1      released=50        "
      "missed=3       mean_miss=0.06\n"
      "by fault model:\n"
      "  common-mode              cells=1      released=50        "
      "missed=3       mean_miss=0.06\n"
      "  iid                      cells=1      released=100       "
      "missed=2       mean_miss=0.02\n"
      "by structural fault:\n"
      "  blackout                 cells=1      released=50        "
      "missed=3       mean_miss=0.06\n"
      "  none                     cells=1      released=100       "
      "missed=2       mean_miss=0.02\n"
      "quarantined cells (rerun with the repro seed):\n"
      "  cell=2 seed=1002 attempts=2 reason=watchdog-timeout scheme=hosa "
      "fault=gilbert-elliott+crash\n"
      "missing cells: 4 5\n");
}

TEST(Golden, ReportJsonBytes) {
  EXPECT_EQ(
      render_report_json(golden_aggregate(), golden_manifest()),
      "{\"campaign\":\"golden\",\"seed\":2026,\"cells\":6,\"ok\":2,"
      "\"failed\":1,\"shed\":1,\"missing\":2,\"released\":150,"
      "\"delivered\":145,\"missed\":5,\"source_lost\":1,\"copies_sent\":230,"
      "\"cycles\":30,\"degraded_plans\":1,\"plan_swaps\":1,\"failovers\":2,"
      "\"d_released\":30,\"d_missed\":1,\"m_changes\":2,\"m_shed\":5,"
      "\"m_matchup\":4,\"m_dwell_l1\":6,\"m_dwell_l2\":1,"
      "\"e_total_uj\":12.5,\"e_sleep_uj\":1.25,\"miss_ratio_mean\":0.04,"
      "\"miss_ratio_max\":0.06,\"by_scheme\":{\"coefficient\":{\"cells\":1,"
      "\"released\":100,\"missed\":2,\"mean_miss\":0.02},\"fspec\":{"
      "\"cells\":1,\"released\":50,\"missed\":3,\"mean_miss\":0.06}},"
      "\"by_fault\":{\"common-mode\":{\"cells\":1,\"released\":50,"
      "\"missed\":3,\"mean_miss\":0.06},\"iid\":{\"cells\":1,"
      "\"released\":100,\"missed\":2,\"mean_miss\":0.02}},"
      "\"by_structural\":{\"blackout\":{\"cells\":1,\"released\":50,"
      "\"missed\":3,\"mean_miss\":0.06},\"none\":{\"cells\":1,"
      "\"released\":100,\"missed\":2,\"mean_miss\":0.02}},"
      "\"quarantined\":[{\"cell\":2,\"seed\":1002,\"status\":\"failed\","
      "\"scheme\":\"hosa\",\"fault\":\"gilbert-elliott\",\"structural\":"
      "\"crash\",\"nodes\":16,\"statics\":40,\"dynamics\":10,\"util\":0.5,"
      "\"ber\":1e-07,\"attempts\":2,\"reason\":\"watchdog-timeout\"}]}");
}

TEST(Golden, LongCampaignNameKeepsTheFirstLineWhole) {
  CampaignManifest manifest = golden_manifest();
  manifest.name = std::string(300, 'n');
  const std::string text = render_report_text(golden_aggregate(), manifest);
  const std::string first = "campaign  : " + manifest.name +
                            " seed=2026 cells=6 shards=2 isolation=process\n";
  EXPECT_EQ(text.substr(0, first.size()), first);
  EXPECT_EQ(text.compare(first.size(), 11, "cells     :"), 0);
}

// Schema coverage driven by the counter table: a new counter gets it
// with no new test code.

/// [start, end) of the value of `"key":` in a rendered row.
std::pair<std::size_t, std::size_t> value_span(const std::string& line,
                                               std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const auto at = line.find(needle);
  EXPECT_NE(at, std::string::npos) << key;
  if (at == std::string::npos) return {line.size(), line.size()};
  const auto start = at + needle.size();
  return {start, line.find_first_of(",}", start)};
}

TEST(RowSchema, KeysAreUnique) {
  std::set<std::string_view> seen;
  for (const RowCounterKey& counter : row_counter_keys()) {
    EXPECT_TRUE(seen.insert(counter.key).second) << counter.key;
  }
  EXPECT_FALSE(seen.empty());
}

TEST(RowSchema, EveryKeyRoundTrips) {
  // A distinct value per counter: re-rendering the parsed row must give
  // the same bytes, so every key reaches its own field and back.
  std::string line = render_row(ok_row(7));
  int distinct = 100;
  for (const RowCounterKey& counter : row_counter_keys()) {
    const auto [start, end] = value_span(line, counter.key);
    const std::string old = line.substr(start, end - start);
    const std::string value = old == "true"    ? "false"
                              : old == "false" ? "true"
                                               : std::to_string(distinct++);
    line.replace(start, end - start, value);
  }
  const auto parsed = parse_row(line);
  ASSERT_TRUE(parsed.has_value()) << line;
  EXPECT_EQ(render_row(*parsed), line);
}

TEST(RowSchema, OptionalKeysParseAbsentAsZero) {
  const std::string full = render_row(ok_row(7));
  for (const RowCounterKey& counter : row_counter_keys()) {
    const auto [start, end] = value_span(full, counter.key);
    const auto pair_start = full.rfind(',', start);
    std::string line = full;
    line.erase(pair_start, end - pair_start);
    const auto parsed = parse_row(line);
    if (!counter.optional) {
      EXPECT_FALSE(parsed.has_value()) << "required key dropped: " << line;
      continue;
    }
    ASSERT_TRUE(parsed.has_value()) << line;
    std::string expected = full;
    expected.replace(start, end - start, "0");
    EXPECT_EQ(render_row(*parsed), expected) << counter.key;
  }
}

TEST(RowSchema, GarbledValuesRejectTheRow) {
  const std::string full = render_row(ok_row(7));
  for (const RowCounterKey& counter : row_counter_keys()) {
    const auto [start, end] = value_span(full, counter.key);
    for (const char* garbage : {"xyz", "12abc", "nan", "1e400"}) {
      std::string line = full;
      line.replace(start, end - start, garbage);
      EXPECT_FALSE(parse_row(line).has_value()) << line;
    }
  }
}

}  // namespace
}  // namespace coeff::campaign
