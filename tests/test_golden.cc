// Golden outputs: the stdout of every paper artifact, pinned.
//
// tests/golden/MANIFEST lists each pinned file with the `cicmon` arguments
// whose stdout it holds; scripts/regen_golden.sh rewrites the files from the
// same list. Every entry runs on the default engine and again on the switch
// interpreter and must match its file byte for byte. The byte-identity tests
// elsewhere only prove that engines, jobs, shards and dispatch agree with
// each other; these prove the paper numbers did not move, so a changed
// timing constant, area model or hash unit fails here.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "support/subprocess.h"

#ifndef CICMON_CLI_PATH
#define CICMON_CLI_PATH "./cicmon"  // CMake injects the real binary location
#endif
#ifndef CICMON_GOLDEN_DIR
#define CICMON_GOLDEN_DIR "tests/golden"
#endif

namespace {

struct Entry {
  std::string file;
  std::string args;
};

std::vector<Entry> read_manifest() {
  std::ifstream in(CICMON_GOLDEN_DIR "/MANIFEST");
  std::vector<Entry> entries;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    Entry entry;
    if (!(fields >> entry.file) || entry.file.front() == '#') continue;
    std::getline(fields >> std::ws, entry.args);
    entries.push_back(entry);
  }
  return entries;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

// Runs the CLI and returns its stdout; `status` gets the raw wait status.
std::string run_cli(const std::string& args, int* status) {
  std::FILE* pipe = popen((CICMON_CLI_PATH " " + args + " 2> /dev/null").c_str(), "r");
  std::string out;
  if (pipe == nullptr) return out;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, pipe)) > 0) out.append(buffer, got);
  *status = pclose(pipe);
  return out;
}

void expect_every_artifact_matches(const std::string& engine_flags) {
  const std::vector<Entry> entries = read_manifest();
  ASSERT_FALSE(entries.empty()) << "no entries in " CICMON_GOLDEN_DIR "/MANIFEST";
  for (const Entry& entry : entries) {
    int status = -1;
    const std::string out = run_cli(entry.args + engine_flags, &status);
    EXPECT_TRUE(cicmon::support::exit_ok(status)) << "cicmon " << entry.args << engine_flags;
    EXPECT_EQ(out, read_file(CICMON_GOLDEN_DIR "/" + entry.file))
        << "cicmon " << entry.args << engine_flags << " no longer prints " << entry.file
        << " (scripts/regen_golden.sh rewrites it after an intended change)";
  }
}

TEST(Golden, EveryPaperArtifactMatchesOnTheDefaultEngine) {
  expect_every_artifact_matches("");
}

TEST(Golden, EveryPaperArtifactMatchesOnTheSwitchEngine) {
  expect_every_artifact_matches(" --engine switch");
}

TEST(Golden, EveryPinnedFileIsInTheManifest) {
  // A file the manifest does not name would never be checked or rewritten.
  std::set<std::string> listed{"MANIFEST"};
  for (const Entry& entry : read_manifest()) {
    EXPECT_TRUE(listed.insert(entry.file).second) << entry.file << " is listed twice";
  }
  for (const auto& file : std::filesystem::directory_iterator(CICMON_GOLDEN_DIR)) {
    EXPECT_TRUE(listed.count(file.path().filename().string()) > 0) << file.path();
  }
}

}  // namespace
