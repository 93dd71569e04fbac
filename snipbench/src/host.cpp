#include "host.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <thread>

#include "snipr/core/json_writer.hpp"

namespace snipbench {

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

namespace {

std::string cpu_model() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  char line[512];
  std::string model = "unknown";
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "model name", 10) == 0) {
      const char* colon = std::strchr(line, ':');
      if (colon != nullptr) {
        model = colon + 1;
        while (!model.empty() && (model.front() == ' ' || model.front() == '\t')) {
          model.erase(model.begin());
        }
        while (!model.empty() &&
               (model.back() == '\n' || model.back() == ' ')) {
          model.pop_back();
        }
      }
      break;
    }
  }
  std::fclose(f);
  return model;
}

}  // namespace

Fingerprint host_fingerprint(std::size_t threads, std::string revision) {
  Fingerprint fp;
  fp.cpus = std::thread::hardware_concurrency();
  fp.cpu_model = cpu_model();
  fp.compiler = SNIPBENCH_COMPILER;
  fp.build_type = SNIPBENCH_BUILD_TYPE;
  fp.ipo = SNIPBENCH_IPO != 0;
  fp.threads = threads;
  fp.revision = std::move(revision);
  return fp;
}

std::string to_json(const Fingerprint& fp) {
  using snipr::core::json::append_string_field;
  using snipr::core::json::append_uint_field;
  std::string out;
  snipr::core::json::open_document(out, "snipbench.host.v1");
  append_uint_field(out, "cpus", fp.cpus);
  append_string_field(out, "cpu_model", fp.cpu_model);
  append_string_field(out, "compiler", fp.compiler);
  append_string_field(out, "build_type", fp.build_type);
  append_string_field(out, "ipo", fp.ipo ? "on" : "off");
  append_uint_field(out, "threads", fp.threads);
  append_string_field(out, "revision", fp.revision, /*comma=*/false);
  out += '}';
  return out;
}

}  // namespace snipbench
