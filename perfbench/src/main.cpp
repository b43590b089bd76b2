// perfbench: runs one workload against the parlis public API, checks every
// answer, and prints one JSON report line: every metric with its unit and
// sample count, the regime (realized k, frontier p50), provenance, and, in
// the traced run, the per-layer self-time table. perfbench/run.py builds
// this binary and turns the report into the benchmark's result line. One
// process runs one workload, so its peak RSS is that workload's.
//
//   perfbench --workload lis_bulk|lis_deep|wlis_bulk|serve_mix
//             --seed N --seconds S --trace 0|1 [--trace-dir DIR]
//             [--git-sha SHA] [--source-digest HEX] [--corrupt 1]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "parlis/parallel/scheduler.hpp"
#include "parlis/util/simd.hpp"

namespace {

using namespace perfbench;

struct Workload {
  const char* name;
  Result (*run)(const Config&, Tracer&);
};

const Workload kWorkloads[] = {
    {"lis_bulk", run_lis_bulk},
    {"lis_deep", run_lis_deep},
    {"wlis_bulk", run_wlis_bulk},
    {"serve_mix", run_serve_mix},
};

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Args {
  Config cfg;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  std::string trace_dir;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.cfg.workload = v;
    else if (k == "--seed") a.cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.cfg.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.cfg.trace = v == "1";
    else if (k == "--trace-dir") a.trace_dir = v;
    else if (k == "--corrupt") a.cfg.corrupt = v == "1";
    else if (k == "--git-sha") a.git_sha = v;
    else if (k == "--source-digest") a.source_digest = v;
    else return false;
  }
  return (argc % 2) == 1 && !a.cfg.workload.empty() && a.cfg.seconds > 0;
}

void print_report(const Args& args, const Config& cfg, const Result& res,
                  const Tracer& tracer, int nproc) {
  std::string s = "{\"workload\":" + json_str(cfg.workload) +
                  ",\"seed\":" + std::to_string(cfg.seed) +
                  ",\"trace\":" + (cfg.trace ? "1" : "0") +
                  ",\"attempted\":" + std::to_string(res.attempted) +
                  ",\"failed\":" + std::to_string(res.failed) + ",\"errors\":[";
  for (size_t i = 0; i < res.errors.size(); i++) {
    if (i) s += ",";
    s += json_str(res.errors[i]);
  }
  s += "],\"regime\":{\"k\":" + std::to_string(res.realized_k) +
       ",\"frontier_p50\":" + json_num(res.frontier_p50) + "}";
  s += ",\"provenance\":{\"git_sha\":" + json_str(args.git_sha) +
       ",\"source_digest\":" + json_str(args.source_digest) +
       ",\"compiler\":" + json_str(PERFBENCH_COMPILER) +
       ",\"flags\":" + json_str(PERFBENCH_FLAGS) +
       ",\"build_type\":" + json_str(PERFBENCH_BUILD_TYPE) +
       ",\"simd_backend\":" + json_str(parlis::simd::backend_name()) +
       ",\"num_workers\":" + std::to_string(parlis::num_workers()) +
       ",\"nproc\":" + std::to_string(nproc) +
       ",\"seed\":" + std::to_string(cfg.seed) + "}";
  s += ",\"metrics\":[";
  for (size_t i = 0; i < res.metrics.size(); i++) {
    const Metric& m = res.metrics[i];
    s += std::string(i ? "," : "") + "{\"name\":" + json_str(m.name) +
         ",\"value\":" + json_num(m.value) + ",\"unit\":" + json_str(m.unit) +
         ",\"samples\":" + std::to_string(m.samples) +
         ",\"note\":" + json_str(m.note) + "}";
  }
  s += "]";
  if (cfg.trace) {
    const auto logs = tracer.logs();
    int64_t dropped = 0;
    for (const SpanLog* l : logs) dropped += l->dropped();
    const bool wrote =
        !cfg.trace_out.empty() && write_chrome_trace(cfg.trace_out, logs);
    s += ",\"trace_file\":" + json_str(wrote ? cfg.trace_out : "") +
         ",\"dropped_spans\":" + std::to_string(dropped) + ",\"self_time\":[";
    bool first = true;
    for (const auto& [name, row] : self_time_table(logs)) {
      s += std::string(first ? "" : ",") + "{\"layer\":" + json_str(name) +
           ",\"count\":" + std::to_string(row.count) +
           ",\"total_ms\":" + json_num(row.total_ms) +
           ",\"self_ms\":" + json_num(row.self_ms) + "}";
      first = false;
    }
    s += "]";
  }
  s += "}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-dir DIR] [--git-sha SHA] "
                 "[--source-digest HEX] [--corrupt 1]\n");
    return 2;
  }
  // The pool is sized explicitly to the host's hardware threads.
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  parlis::set_num_workers(nproc > 0 ? nproc : 1);

  for (const Workload& w : kWorkloads) {
    if (args.cfg.workload != w.name) continue;
    Config cfg = args.cfg;
    if (!args.trace_dir.empty()) {
      cfg.trace_out = args.trace_dir + "/" + w.name + "-seed" +
                      std::to_string(cfg.seed) + ".json";
    }
    Tracer tracer(cfg.trace);
    const Result res = w.run(cfg, tracer);
    print_report(args, cfg, res, tracer, nproc);
    return res.failed == 0 ? 0 : 1;
  }
  std::fprintf(stderr, "perfbench: unknown workload %s\n",
               args.cfg.workload.c_str());
  return 2;
}
