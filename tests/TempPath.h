//===- tests/TempPath.h - Per-process scratch file paths --------*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scratch paths for tests that write trace files.  ctest runs every test
/// case in its own process, in parallel under `ctest -j`, so a fixed name
/// lets two processes write one file at once; the process id in the name
/// keeps each process's files its own.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_TESTS_TEMPPATH_H
#define HERD_TESTS_TEMPPATH_H

#include <gtest/gtest.h>

#include <string>

#include <unistd.h>

namespace herd {

inline std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + std::to_string(::getpid()) + "_" + Name;
}

} // namespace herd

#endif // HERD_TESTS_TEMPPATH_H
