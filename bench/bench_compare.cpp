// Compares BENCH_*.json files row by row:
//
//   bench_compare BASE.json NEW.json [BASE.json NEW.json ...]
//
// Each (BASE, NEW) pair is one run of the parent and one of the change, or,
// as a quick local check, the committed file and one fresh run. A row is
// identified by the fields that say what was measured (kIdentity: bench,
// op, variant or series, the sizes and threads), never by a measured value
// or a provenance stamp. Every *_ms and *_ns field is compared, lower is
// better: for each row and field the tool takes NEW/BASE in every pair and
// the median over the pairs. The row regresses when that median exceeds
// 1 + band, where band is the larger of kFloor and the interquartile range
// of the row's pair ratios (with one pair, kFloor alone). Rows found in
// only one file of a pair are listed and skipped.
//
// Exit status: 0 when no row regresses, 1 when one does, 2 when the input
// is refused: an unreadable file or one that names a row twice, a pair whose
// files differ in host_hw_threads, simd_backend or build_type, or a pair
// that shares no row. Takes no flags.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace {

/// The least band a row gets: in the A/A calibration (EXPERIMENTS.md,
/// "bench_compare") every row's median A/A ratio lies inside it.
constexpr double kFloor = 0.5;

/// The fields that name a row: what was run, on what sizes, on how many
/// workers.
const char* const kIdentity[] = {
    "bench",  "op",      "variant", "series",      "pattern",
    "shape",  "density", "span",    "n",           "m",
    "k",      "universe", "leaves", "iters",       "window",
    "queries", "ops",    "clients", "burst",       "round_grain",
    "tenants_offered",   "ties",    "threads"};

/// Provenance both files of a pair must share.
const char* const kSameHost[] = {"host_hw_threads", "simd_backend",
                                 "build_type"};

using Record = std::map<std::string, std::string>;

struct Rows {
  std::vector<std::string> order;      // identities, in file order
  std::map<std::string, Record> byid;  // identity -> fields
};

/// Reads the flat arrays BenchJson writes: objects whose values are
/// strings or numbers, no nesting. Returns false on anything else.
bool read_records(const std::string& path, std::vector<Record>& out) {
  std::ifstream in(path);
  if (!in) return false;
  const std::string s((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  size_t i = 0;
  auto skip_ws = [&] {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) {
      i++;
    }
  };
  auto eat = [&](char c) {
    skip_ws();
    if (i < s.size() && s[i] == c) {
      i++;
      return true;
    }
    return false;
  };
  auto read_string = [&](std::string& v) {
    if (!eat('"')) return false;
    for (; i < s.size() && s[i] != '"'; i++) {
      if (s[i] == '\\') i++;  // BenchJson escapes only '"' and '\'
      if (i < s.size()) v += s[i];
    }
    return eat('"');
  };
  if (!eat('[')) return false;
  if (eat(']')) return true;
  do {
    if (!eat('{')) return false;
    Record rec;
    if (!eat('}')) {
      do {
        std::string key, value;
        if (!read_string(key) || !eat(':')) return false;
        skip_ws();
        if (i < s.size() && s[i] == '"') {
          if (!read_string(value)) return false;
        } else {
          while (i < s.size() && s[i] != ',' && s[i] != '}' &&
                 !std::isspace(static_cast<unsigned char>(s[i]))) {
            value += s[i++];
          }
          if (value.empty()) return false;
        }
        rec[key] = value;
      } while (eat(','));
      if (!eat('}')) return false;
    }
    out.push_back(std::move(rec));
  } while (eat(','));
  return eat(']');
}

/// Keys each record by "key=value ..." over the identity fields it has.
/// Fails on an unreadable file or a row named twice.
bool load_rows(const std::string& path, Rows& rows) {
  std::vector<Record> recs;
  if (!read_records(path, recs)) return false;
  for (Record& rec : recs) {
    std::string id;
    for (const char* key : kIdentity) {
      auto it = rec.find(key);
      if (it == rec.end()) continue;
      if (!id.empty()) id += ' ';
      id += std::string(key) + "=" + it->second;
    }
    if (!rows.byid.emplace(id, std::move(rec)).second) return false;
    rows.order.push_back(id);
  }
  return true;
}

bool timed_field(const std::string& key) {
  auto ends = [&](const char* suffix) {
    return key.size() > 3 && key.compare(key.size() - 3, 3, suffix) == 0;
  };
  return ends("_ms") || ends("_ns");
}

/// Linear-interpolated quantile of sorted values.
double quantile(const std::vector<double>& sorted, double q) {
  const double h = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(h);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] +
         (h - static_cast<double>(lo)) * (sorted[lo + 1] - sorted[lo]);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantile(v, 0.5);
}

struct Series {
  std::string row, field;
  std::vector<double> base, fresh, ratio;  // one entry per pair
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3 || argc % 2 != 1) {
    std::fprintf(stderr,
                 "usage: bench_compare BASE.json NEW.json "
                 "[BASE.json NEW.json ...]\n");
    return 2;
  }
  std::vector<Series> series;
  std::map<std::pair<std::string, std::string>, size_t> index;
  for (int p = 1; p < argc; p += 2) {
    const std::string base_path = argv[p], new_path = argv[p + 1];
    Rows base, fresh;
    for (const std::string* path : {&base_path, &new_path}) {
      if (!load_rows(*path, path == &base_path ? base : fresh)) {
        std::fprintf(stderr,
                     "bench_compare: refused: cannot read %s, or it names a "
                     "row twice\n",
                     path->c_str());
        return 2;
      }
    }
    int shared = 0;
    for (const std::string& id : base.order) {
      auto it = fresh.byid.find(id);
      if (it == fresh.byid.end()) {
        std::printf("only in %s: %s\n", base_path.c_str(), id.c_str());
        continue;
      }
      shared++;
      const Record& b = base.byid[id];
      const Record& f = it->second;
      for (const char* key : kSameHost) {
        auto bv = b.find(key), fv = f.find(key);
        const std::string bs = bv == b.end() ? "" : bv->second;
        const std::string fs = fv == f.end() ? "" : fv->second;
        if (bs != fs) {
          std::fprintf(stderr,
                       "bench_compare: refused: %s and %s differ in %s "
                       "(%s vs %s) at %s\n",
                       base_path.c_str(), new_path.c_str(), key, bs.c_str(),
                       fs.c_str(), id.c_str());
          return 2;
        }
      }
      for (const auto& [key, value] : b) {
        auto fv = f.find(key);
        if (!timed_field(key) || fv == f.end()) continue;
        const double bx = std::strtod(value.c_str(), nullptr);
        const double fx = std::strtod(fv->second.c_str(), nullptr);
        if (!(bx > 0) || !(fx > 0)) continue;
        auto [slot, added] = index.try_emplace({id, key}, series.size());
        if (added) series.push_back({id, key, {}, {}, {}});
        Series& s = series[slot->second];
        s.base.push_back(bx);
        s.fresh.push_back(fx);
        s.ratio.push_back(fx / bx);
      }
    }
    for (const std::string& id : fresh.order) {
      if (base.byid.count(id) == 0) {
        std::printf("only in %s: %s\n", new_path.c_str(), id.c_str());
      }
    }
    if (shared == 0) {
      std::fprintf(stderr, "bench_compare: refused: %s and %s share no row\n",
                   base_path.c_str(), new_path.c_str());
      return 2;
    }
  }

  const int pairs = (argc - 1) / 2;
  std::printf("\n%-9s  %7s  %6s  %-16s  %12s  %12s  %s\n", "verdict", "ratio",
              "band", "field", "base", "new", "row");
  std::vector<const Series*> regressed;
  for (const Series& s : series) {
    std::vector<double> r = s.ratio;
    std::sort(r.begin(), r.end());
    const double ratio = quantile(r, 0.5);
    const double band = std::max(kFloor, quantile(r, 0.75) - quantile(r, 0.25));
    const bool slower = ratio > 1.0 + band;
    if (slower) regressed.push_back(&s);
    std::printf("%-9s  %7.3f  %6.3f  %-16s  %12.4f  %12.4f  %s\n",
                slower ? "REGRESSED" : "ok", ratio, band, s.field.c_str(),
                median(s.base), median(s.fresh), s.row.c_str());
  }
  std::printf("\nbench_compare: %zu timed fields over %d pair(s), floor %.2f; "
              "%zu regressed\n",
              series.size(), pairs, kFloor, regressed.size());
  for (const Series* s : regressed) {
    std::printf("regressed: %s %s\n", s->row.c_str(), s->field.c_str());
  }
  return regressed.empty() ? 0 : 1;
}
