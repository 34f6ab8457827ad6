#include "campaign/report.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <type_traits>
#include <unordered_map>
#include <variant>

#include "campaign/checkpoint.hpp"

namespace coeff::campaign {

namespace {

using Row = ResultRow;
using Agg = CampaignAggregate;
/// A row counter's field; the alternative held is its value type.
using RowField = std::variant<std::int64_t Row::*, double Row::*, bool Row::*>;
/// An aggregate total a counter folds into (or a text line prints).
using TotalField = std::variant<std::int64_t Agg::*, double Agg::*>;

/// Keys added after the first row schema are optional: absent parses
/// as 0 (rows from older campaigns), present-but-garbled still rejects.
enum Presence { kRequired, kOptional };
/// How `aggregate_rows` folds a counter over the ok rows into `total`.
enum Fold { kNoFold, kSum, kCountTrue };

struct Counter {
  std::string_view key;
  RowField field;
  Presence presence;
  Fold fold = kNoFold;
  TotalField total = {};
  std::string_view total_key = {};  ///< report key, when not `key`
};

/// The ok-row counter schema, in row order — which is also the order of
/// the folded totals in the JSON report. Adding a counter: one field in
/// ResultRow (and CampaignAggregate, if folded), one line in make_row,
/// one entry here.
constexpr Counter kCounters[] = {
    {"released", &Row::released, kRequired, kSum, &Agg::released},
    {"delivered", &Row::delivered, kRequired, kSum, &Agg::delivered},
    {"missed", &Row::missed, kRequired, kSum, &Agg::missed},
    {"source_lost", &Row::source_lost, kRequired, kSum, &Agg::source_lost},
    {"copies_sent", &Row::copies_sent, kRequired, kSum, &Agg::copies_sent},
    {"cycles", &Row::cycles, kRequired, kSum, &Agg::cycles},
    {"miss_ratio", &Row::miss_ratio, kRequired},  // folded to mean/max
    {"degraded", &Row::degraded, kRequired, kCountTrue, &Agg::degraded_plans,
     "degraded_plans"},
    {"plan_swaps", &Row::plan_swaps, kRequired, kSum, &Agg::plan_swaps},
    {"failovers", &Row::failovers, kRequired, kSum, &Agg::failovers},
    {"frames_lost", &Row::frames_lost, kRequired},
    {"s_released", &Row::s_released, kOptional},
    {"s_missed", &Row::s_missed, kOptional},
    {"d_released", &Row::d_released, kOptional, kSum, &Agg::d_released},
    {"d_missed", &Row::d_missed, kOptional, kSum, &Agg::d_missed},
    {"m_changes", &Row::m_changes, kOptional, kSum, &Agg::m_changes},
    {"m_shed", &Row::m_shed, kOptional, kSum, &Agg::m_shed},
    {"m_matchup", &Row::m_matchup, kOptional, kSum, &Agg::m_matchup},
    {"m_dwell_l1", &Row::m_dwell_l1, kOptional, kSum, &Agg::m_dwell_l1},
    {"m_dwell_l2", &Row::m_dwell_l2, kOptional, kSum, &Agg::m_dwell_l2},
    {"e_total_uj", &Row::e_total_uj, kOptional, kSum, &Agg::e_total_uj},
    {"e_sleep_uj", &Row::e_sleep_uj, kOptional, kSum, &Agg::e_sleep_uj},
};

/// Counter lines of the text report: each entry prints one total as
/// ` name=value`; an entry with a `line` label starts a new line.
struct TextTotal {
  std::string_view line;
  std::string_view name;
  TotalField total;
};

constexpr TextTotal kTextTotals[] = {
    {"instances :", "released", &Agg::released},
    {"", "delivered", &Agg::delivered},
    {"", "missed", &Agg::missed},
    {"", "source_lost", &Agg::source_lost},
    {"dynamic   :", "released", &Agg::d_released},
    {"", "missed", &Agg::d_missed},
    {"miss      :", "mean", &Agg::miss_ratio_mean},
    {"", "max", &Agg::miss_ratio_max},
    {"", "| degraded_plans", &Agg::degraded_plans},
    {"", "plan_swaps", &Agg::plan_swaps},
    {"", "failovers", &Agg::failovers},
    {"wire      :", "copies_sent", &Agg::copies_sent},
    {"", "cycles", &Agg::cycles},
    {"mode      :", "changes", &Agg::m_changes},
    {"", "shed", &Agg::m_shed},
    {"", "matchup", &Agg::m_matchup},
    {"", "dwell_l1", &Agg::m_dwell_l1},
    {"", "dwell_l2", &Agg::m_dwell_l2},
    {"energy    :", "total_uj", &Agg::e_total_uj},
    {"", "sleep_saved_uj", &Agg::e_sleep_uj},
};

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }  // control characters are dropped: tags never contain them
  }
  return out;
}

std::string format_double(double value) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.10g", value);
  return buf;
}

void append_value(std::string& out, std::int64_t v) {
  out += std::to_string(v);
}
void append_value(std::string& out, double v) { out += format_double(v); }
void append_value(std::string& out, bool v) { out += v ? "true" : "false"; }

/// Append `,"key":` to a JSON object under construction.
void append_key(std::string& out, std::string_view key) {
  out += ",\"";
  out += key;
  out += "\":";
}

/// `text` left-justified in a field of `width` (never truncated).
std::string padded(std::string text, std::size_t width) {
  if (text.size() < width) text.resize(width, ' ');
  return text;
}

/// Extract the raw value text of `"key":` in a flat JSON object.
/// Handles string values (returns unescaped content) and bare scalar
/// tokens; nullopt when absent or malformed.
std::optional<std::string> json_field(std::string_view line,
                                      std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const auto at = line.find(needle);
  if (at == std::string_view::npos) return std::nullopt;
  std::size_t i = at + needle.size();
  while (i < line.size() && line[i] == ' ') ++i;
  if (i >= line.size()) return std::nullopt;
  if (line[i] == '"') {
    std::string out;
    for (++i; i < line.size(); ++i) {
      if (line[i] == '\\') {
        if (i + 1 >= line.size()) return std::nullopt;
        out += line[++i];
      } else if (line[i] == '"') {
        return out;
      } else {
        out += line[i];
      }
    }
    return std::nullopt;  // unterminated string
  }
  std::size_t end = i;
  while (end < line.size() && line[end] != ',' && line[end] != '}' &&
         line[end] != ' ') {
    ++end;
  }
  if (end == i) return std::nullopt;
  return std::string(line.substr(i, end - i));
}

bool parse_value(const std::optional<std::string>& text, std::int64_t& out) {
  if (!text.has_value() || text->empty() || text->size() > 20) return false;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text->c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  out = value;
  return true;
}

bool parse_value(const std::optional<std::string>& text, std::uint64_t& out) {
  if (!text.has_value() || text->empty() || text->size() > 20 ||
      (*text)[0] == '-') {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text->c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  out = value;
  return true;
}

bool parse_value(const std::optional<std::string>& text, double& out) {
  if (!text.has_value() || text->empty()) return false;
  char* end = nullptr;
  const double value = std::strtod(text->c_str(), &end);
  if (end == nullptr || *end != '\0' || !std::isfinite(value)) return false;
  out = value;
  return true;
}

bool parse_value(const std::optional<std::string>& text, int& out) {
  std::int64_t wide = 0;
  if (!parse_value(text, wide) || wide < INT32_MIN || wide > INT32_MAX) {
    return false;
  }
  out = static_cast<int>(wide);
  return true;
}

bool parse_value(const std::optional<std::string>& text, std::string& out) {
  if (!text.has_value()) return false;
  out = *text;
  return true;
}

bool parse_value(const std::optional<std::string>& text, bool& out) {
  if (!text.has_value() || (*text != "true" && *text != "false")) {
    return false;
  }
  out = *text == "true";
  return true;
}

double mean_miss(const GroupStat& stat) {
  return stat.cells > 0 ? stat.miss_ratio_sum / static_cast<double>(stat.cells)
                        : 0.0;
}

void fold_group(std::map<std::string, GroupStat>& groups,
                const std::string& key, const ResultRow& row) {
  GroupStat& stat = groups[key];
  ++stat.cells;
  stat.released += row.released;
  stat.missed += row.missed;
  stat.miss_ratio_sum += row.miss_ratio;
}

void render_groups(std::string& out, const char* title,
                   const std::map<std::string, GroupStat>& groups) {
  if (groups.empty()) return;
  out += title;
  out += ":\n";
  for (const auto& [key, stat] : groups) {
    out += "  " + padded(key, 24) +
           " cells=" + padded(std::to_string(stat.cells), 6) +
           " released=" + padded(std::to_string(stat.released), 9) +
           " missed=" + padded(std::to_string(stat.missed), 7) +
           " mean_miss=" + format_double(mean_miss(stat)) + "\n";
  }
}

void render_groups_json(std::string& out, const char* key,
                        const std::map<std::string, GroupStat>& groups) {
  out += "\"";
  out += key;
  out += "\":{";
  bool first = true;
  for (const auto& [name, stat] : groups) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(name);
    out += "\":{\"cells\":" + std::to_string(stat.cells);
    out += ",\"released\":" + std::to_string(stat.released);
    out += ",\"missed\":" + std::to_string(stat.missed);
    out += ",\"mean_miss\":" + format_double(mean_miss(stat));
    out += '}';
  }
  out += '}';
}

}  // namespace

std::vector<RowCounterKey> row_counter_keys() {
  std::vector<RowCounterKey> keys;
  for (const Counter& counter : kCounters) {
    keys.push_back({counter.key, counter.presence == kOptional});
  }
  return keys;
}

ResultRow make_row(const ScenarioSpec& spec,
                   const core::ExperimentResult& result) {
  ResultRow row;
  row.cell = spec.cell;
  row.seed = spec.seed;
  row.status = "ok";
  row.scheme = scheme_tag(spec.scheme);
  row.fault = fault::to_string(spec.fault_model.kind);
  row.structural = to_string(spec.structural);
  row.nodes = spec.nodes;
  row.statics = spec.num_statics;
  row.dynamics = spec.num_dynamics;
  row.util = spec.utilization;
  row.ber = spec.fault_model.ber;
  const core::RunStats& run = result.run;
  row.released = run.statics.released + run.dynamics.released;
  row.delivered = run.statics.delivered + run.dynamics.delivered;
  row.missed = run.statics.missed + run.dynamics.missed;
  row.source_lost = run.statics.source_lost + run.dynamics.source_lost;
  row.copies_sent = run.statics.copies_sent + run.dynamics.copies_sent;
  row.cycles = result.cycles_run;
  row.miss_ratio = run.overall_miss_ratio();
  row.degraded = run.plan_degraded;
  row.plan_swaps = run.plan_swaps;
  row.failovers = run.failovers;
  row.frames_lost = run.frames_lost;
  row.s_released = run.statics.released;
  row.s_missed = run.statics.missed;
  row.d_released = run.dynamics.released;
  row.d_missed = run.dynamics.missed;
  row.m_changes = run.mode_changes;
  row.m_shed = run.mode_sheds;
  row.m_matchup = run.matchups;
  row.m_dwell_l1 = run.mode_cycles_l1;
  row.m_dwell_l2 = run.mode_cycles_l2;
  row.e_total_uj = run.energy_total_uj;
  row.e_sleep_uj = run.energy_sleep_saved_uj;
  return row;
}

ResultRow make_failed_row(const ScenarioSpec& spec, int attempts,
                          const std::string& reason) {
  ResultRow row;
  row.cell = spec.cell;
  row.seed = spec.seed;
  row.status = "failed";
  row.scheme = scheme_tag(spec.scheme);
  row.fault = fault::to_string(spec.fault_model.kind);
  row.structural = to_string(spec.structural);
  row.nodes = spec.nodes;
  row.statics = spec.num_statics;
  row.dynamics = spec.num_dynamics;
  row.util = spec.utilization;
  row.ber = spec.fault_model.ber;
  row.attempts = attempts;
  row.reason = reason;
  return row;
}

ResultRow make_shed_row(const ScenarioSpec& spec) {
  ResultRow row;
  row.cell = spec.cell;
  row.seed = spec.seed;
  row.status = "shed";
  return row;
}

std::string render_row(const ResultRow& row) {
  std::string out = "{\"cell\":" + std::to_string(row.cell);
  out += ",\"seed\":" + std::to_string(row.seed);
  out += ",\"status\":\"" + json_escape(row.status) + "\"";
  if (row.status == "shed") {
    // Degraded-path minimal row: identity only, never lies about detail.
    out += '}';
    return out;
  }
  out += ",\"scheme\":\"" + json_escape(row.scheme) + "\"";
  out += ",\"fault\":\"" + json_escape(row.fault) + "\"";
  out += ",\"structural\":\"" + json_escape(row.structural) + "\"";
  out += ",\"nodes\":" + std::to_string(row.nodes);
  out += ",\"statics\":" + std::to_string(row.statics);
  out += ",\"dynamics\":" + std::to_string(row.dynamics);
  out += ",\"util\":" + format_double(row.util);
  out += ",\"ber\":" + format_double(row.ber);
  if (row.status == "failed") {
    out += ",\"attempts\":" + std::to_string(row.attempts);
    out += ",\"reason\":\"" + json_escape(row.reason) + "\"";
    out += '}';
    return out;
  }
  for (const Counter& counter : kCounters) {
    append_key(out, counter.key);
    std::visit([&](auto field) { append_value(out, row.*field); },
               counter.field);
  }
  out += '}';
  return out;
}

std::optional<ResultRow> parse_row(std::string_view line) {
  if (line.size() < 2 || line.front() != '{' || line.back() != '}') {
    return std::nullopt;
  }
  ResultRow row;
  if (!parse_value(json_field(line, "cell"), row.cell) || row.cell < 0) {
    return std::nullopt;
  }
  if (!parse_value(json_field(line, "seed"), row.seed)) return std::nullopt;
  const auto status = json_field(line, "status");
  if (!status.has_value() ||
      (*status != "ok" && *status != "failed" && *status != "shed")) {
    return std::nullopt;
  }
  row.status = *status;
  if (row.status == "shed") return row;

  if (!parse_value(json_field(line, "scheme"), row.scheme) ||
      !parse_value(json_field(line, "fault"), row.fault) ||
      !parse_value(json_field(line, "structural"), row.structural) ||
      !parse_value(json_field(line, "nodes"), row.nodes) ||
      !parse_value(json_field(line, "statics"), row.statics) ||
      !parse_value(json_field(line, "dynamics"), row.dynamics) ||
      !parse_value(json_field(line, "util"), row.util) ||
      !parse_value(json_field(line, "ber"), row.ber)) {
    return std::nullopt;
  }
  if (row.status == "failed") {
    if (!parse_value(json_field(line, "attempts"), row.attempts) ||
        !parse_value(json_field(line, "reason"), row.reason)) {
      return std::nullopt;
    }
    return row;
  }
  for (const Counter& counter : kCounters) {
    const auto text = json_field(line, counter.key);
    if (!text.has_value() && counter.presence == kOptional) continue;
    const bool parsed = std::visit(
        [&](auto field) { return parse_value(text, row.*field); },
        counter.field);
    if (!parsed) return std::nullopt;
  }
  return row;
}

ResultScan scan_results(const std::string& dir,
                        const CampaignManifest& manifest) {
  ResultScan scan;
  std::unordered_map<std::int64_t, std::size_t> by_cell;
  for (int shard = 0; shard < manifest.shards; ++shard) {
    const std::string path = shard_results_path(dir, shard);
    const auto bytes = read_file(path);
    if (!bytes.has_value()) continue;  // shard not started yet
    std::size_t start = 0;
    while (start < bytes->size()) {
      const auto newline = bytes->find('\n', start);
      if (newline == std::string::npos) {
        ++scan.torn_tail_lines;
        break;
      }
      const std::string_view line =
          std::string_view(*bytes).substr(start, newline - start);
      start = newline + 1;
      if (line.empty()) continue;
      auto row = parse_row(line);
      if (!row.has_value()) {
        // A complete-but-unparseable line mid-file is garbage worth
        // counting; the lint rule turns it into a diagnostic.
        ++scan.unparsed_lines;
        continue;
      }
      const auto it = by_cell.find(row->cell);
      if (it != by_cell.end()) {
        ++scan.duplicate_rows;
        scan.rows[it->second] = std::move(*row);  // keep-last
      } else {
        by_cell.emplace(row->cell, scan.rows.size());
        scan.rows.push_back(std::move(*row));
      }
    }
  }
  std::sort(scan.rows.begin(), scan.rows.end(),
            [](const ResultRow& a, const ResultRow& b) {
              return a.cell < b.cell;
            });
  return scan;
}

CampaignAggregate aggregate_rows(const std::vector<ResultRow>& rows,
                                 std::int64_t expected_cells) {
  CampaignAggregate agg;
  agg.expected = expected_cells;
  std::vector<bool> seen(
      expected_cells > 0 ? static_cast<std::size_t>(expected_cells) : 0,
      false);
  for (const ResultRow& row : rows) {
    if (row.cell >= 0 && row.cell < expected_cells) {
      seen[static_cast<std::size_t>(row.cell)] = true;
    }
    if (row.status == "failed") {
      ++agg.failed;
      agg.quarantined.push_back(row);
      continue;
    }
    if (row.status == "shed") {
      ++agg.shed;
      continue;
    }
    ++agg.ok;
    for (const Counter& counter : kCounters) {
      if (counter.fold == kNoFold) continue;
      // kSum adds the value; kCountTrue adds a bool, i.e. 1 per true row.
      std::visit(
          [&](auto total, auto field) {
            using Total = std::remove_reference_t<decltype(agg.*total)>;
            agg.*total += static_cast<Total>(row.*field);
          },
          counter.total, counter.field);
    }
    agg.miss_ratio_mean += row.miss_ratio;
    agg.miss_ratio_max = std::max(agg.miss_ratio_max, row.miss_ratio);
    fold_group(agg.by_scheme, row.scheme, row);
    fold_group(agg.by_fault, row.fault, row);
    fold_group(agg.by_structural, row.structural, row);
  }
  if (agg.ok > 0) agg.miss_ratio_mean /= static_cast<double>(agg.ok);
  for (std::int64_t cell = 0; cell < expected_cells; ++cell) {
    if (!seen[static_cast<std::size_t>(cell)]) {
      ++agg.missing;
      if (agg.missing_cells.size() < 16) agg.missing_cells.push_back(cell);
    }
  }
  return agg;
}

std::string render_report_text(const CampaignAggregate& agg,
                               const CampaignManifest& manifest) {
  std::string out = "campaign  : " + manifest.name +
                    " seed=" + std::to_string(manifest.seed) +
                    " cells=" + std::to_string(manifest.cells) +
                    " shards=" + std::to_string(manifest.shards) +
                    " isolation=" + to_string(manifest.isolation) + "\n";
  out += "cells     : ok=" + std::to_string(agg.ok) +
         " failed=" + std::to_string(agg.failed) +
         " shed=" + std::to_string(agg.shed) +
         " missing=" + std::to_string(agg.missing) + " / " +
         std::to_string(agg.expected);
  for (const TextTotal& entry : kTextTotals) {
    if (!entry.line.empty()) {
      out += '\n';
      out += entry.line;
    }
    out += ' ';
    out += entry.name;
    out += '=';
    std::visit([&](auto total) { append_value(out, agg.*total); },
               entry.total);
  }
  out += '\n';
  render_groups(out, "by scheme", agg.by_scheme);
  render_groups(out, "by fault model", agg.by_fault);
  render_groups(out, "by structural fault", agg.by_structural);
  if (!agg.quarantined.empty()) {
    out += "quarantined cells (rerun with the repro seed):\n";
    for (const ResultRow& row : agg.quarantined) {
      out += "  cell=" + std::to_string(row.cell) +
             " seed=" + std::to_string(row.seed) +
             " attempts=" + std::to_string(row.attempts) +
             " reason=" + row.reason + " scheme=" + row.scheme +
             " fault=" + row.fault + "+" + row.structural + "\n";
    }
  }
  if (!agg.missing_cells.empty()) {
    out += "missing cells:";
    for (const std::int64_t cell : agg.missing_cells) {
      out += ' ';
      out += std::to_string(cell);
    }
    if (agg.missing > static_cast<std::int64_t>(agg.missing_cells.size())) {
      out += " ...";
    }
    out += '\n';
  }
  return out;
}

std::string render_report_json(const CampaignAggregate& agg,
                               const CampaignManifest& manifest) {
  std::string out = "{\"campaign\":\"" + json_escape(manifest.name) + "\"";
  out += ",\"seed\":" + std::to_string(manifest.seed);
  out += ",\"cells\":" + std::to_string(manifest.cells);
  out += ",\"ok\":" + std::to_string(agg.ok);
  out += ",\"failed\":" + std::to_string(agg.failed);
  out += ",\"shed\":" + std::to_string(agg.shed);
  out += ",\"missing\":" + std::to_string(agg.missing);
  for (const Counter& counter : kCounters) {
    if (counter.fold == kNoFold) continue;
    append_key(out, counter.total_key.empty() ? counter.key
                                              : counter.total_key);
    std::visit([&](auto total) { append_value(out, agg.*total); },
               counter.total);
  }
  out += ",\"miss_ratio_mean\":" + format_double(agg.miss_ratio_mean);
  out += ",\"miss_ratio_max\":" + format_double(agg.miss_ratio_max);
  out += ',';
  render_groups_json(out, "by_scheme", agg.by_scheme);
  out += ',';
  render_groups_json(out, "by_fault", agg.by_fault);
  out += ',';
  render_groups_json(out, "by_structural", agg.by_structural);
  out += ",\"quarantined\":[";
  bool first = true;
  for (const ResultRow& row : agg.quarantined) {
    if (!first) out += ',';
    first = false;
    out += render_row(row);
  }
  out += "]}";
  return out;
}

}  // namespace coeff::campaign
