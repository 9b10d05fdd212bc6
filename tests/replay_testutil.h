// Shared helpers for the replay-run tests.
#ifndef RETRACE_TESTS_REPLAY_TESTUTIL_H_
#define RETRACE_TESTS_REPLAY_TESTUTIL_H_

#include <sstream>
#include <string>

#include "src/replay/replay_run.h"

namespace retrace {

// Empty when a resumed run and its run from main agree in everything the
// search reads; otherwise what differs.
inline std::string Diff(const ReplayRun& resumed, const ReplayRun& main) {
  std::ostringstream diff;
  const RunResult& a = resumed.out.result;
  const RunResult& b = main.out.result;
  if (a.status != b.status || a.exit_code != b.exit_code || a.message != b.message) {
    diff << "status/exit/message; ";
  }
  if (a.crash.kind != b.crash.kind || !a.crash.SameSite(b.crash) || a.crash.code != b.crash.code) {
    diff << "crash; ";
  }
  if (a.stats.instrs != b.stats.instrs || a.stats.branch_execs != b.stats.branch_execs ||
      a.stats.calls != b.stats.calls || a.stats.syscalls != b.stats.syscalls) {
    diff << "stats (instrs " << a.stats.instrs << " vs " << b.stats.instrs << "); ";
  }
  if (!(resumed.path == main.path)) {
    diff << "observer path (trace " << resumed.path.trace.size() << " vs "
         << main.path.trace.size() << ", cursor " << resumed.path.cursor << " vs "
         << main.path.cursor << "); ";
  }
  if (resumed.out.cells != main.out.cells) {
    diff << "cells; ";
  }
  if (resumed.out.domains != main.out.domains) {
    diff << "domains; ";
  }
  const auto& ia = resumed.out.cell_info;
  const auto& ib = main.out.cell_info;
  bool same_info = ia.size() == ib.size();
  for (size_t i = 0; same_info && i < ia.size(); ++i) {
    same_info = ia[i].kind == ib[i].kind && ia[i].tag1 == ib[i].tag1 && ia[i].tag2 == ib[i].tag2 &&
                ia[i].sys == ib[i].sys;
  }
  if (!same_info) {
    diff << "cell_info; ";
  }
  const auto& ta = resumed.out.dyn_trace;
  const auto& tb = main.out.dyn_trace;
  bool same_trace = ta.size() == tb.size();
  for (size_t i = 0; same_trace && i < ta.size(); ++i) {
    same_trace = ta[i].kind == tb[i].kind && ta[i].value == tb[i].value && ta[i].cell == tb[i].cell;
  }
  if (!same_trace) {
    diff << "dyn_trace; ";
  }
  if (resumed.out.stdout_text != main.out.stdout_text ||
      resumed.out.log_diverged != main.out.log_diverged) {
    diff << "stdout/log_diverged; ";
  }
  return diff.str();
}

}  // namespace retrace

#endif  // RETRACE_TESTS_REPLAY_TESTUTIL_H_
