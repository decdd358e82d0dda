#pragma once

// The box a timed bench ran on, for the "box" entry of its BENCH_*.json:
// timings only compare between runs on the same CPU model and count.

#include <fstream>
#include <string>
#include <thread>

namespace mmph::bench {

/// The first "model name" of /proc/cpuinfo, or "unknown".
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon != std::string::npos && colon + 2 <= line.size()) {
      return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// {"cpus": N, "model": "..."} for the current box.
inline std::string box_json() {
  return "{\"cpus\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"model\": \"" + cpu_model() + "\"}";
}

}  // namespace mmph::bench
