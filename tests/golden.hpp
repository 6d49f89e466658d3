// Committed decision transcripts ("goldens").
//
// A golden file under tests/golden/ holds the bit-exact decision sequence a
// seeded workload produced with the serial decision pipeline that the
// snapshot pipeline replaced: every plan's cookie, replica, path nodes, byte
// count and estimated share (doubles in hexfloat). Replaying the workload
// today must reproduce the file byte for byte, which is how a deletion in the
// decision path proves it changed no decision.
//
// On a mismatch the actual transcript is written next to the test binary as
// `<name>.actual`, so a diff against the golden shows exactly what moved.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>

#include "flowserver/flowserver.hpp"

namespace mayflower::golden {

inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Appends one plan to a transcript: a header line, then one line per
// assignment.
inline void append_plan(std::ostringstream& out, const std::string& header,
                        const std::vector<flowserver::ReadAssignment>& plan) {
  out << header << "\n" << std::hexfloat;
  for (const flowserver::ReadAssignment& a : plan) {
    out << "  cookie=" << a.cookie << " replica=" << a.replica
        << " bytes=" << a.bytes << " est=" << a.est_bw_bps << " path=";
    for (const net::NodeId node : a.path.nodes) out << node << ",";
    out << "\n";
  }
  out << std::defaultfloat;
}

// Passes iff `actual` equals tests/golden/<name> byte for byte.
inline ::testing::AssertionResult matches_golden(const std::string& name,
                                                 const std::string& actual) {
  const std::string expected =
      read_file(std::string(MAYFLOWER_GOLDEN_DIR) + "/" + name);
  if (!expected.empty() && actual == expected) {
    return ::testing::AssertionSuccess();
  }
  std::ofstream(name + ".actual", std::ios::binary) << actual;
  std::size_t line = 1;
  std::size_t i = 0;
  while (i < actual.size() && i < expected.size() && actual[i] == expected[i]) {
    if (actual[i] == '\n') ++line;
    ++i;
  }
  return ::testing::AssertionFailure()
         << "transcript differs from golden " << name << " at line " << line
         << " (actual written to " << name << ".actual)";
}

}  // namespace mayflower::golden
