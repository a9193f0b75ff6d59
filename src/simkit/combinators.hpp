// simkit/combinators.hpp — fork/join over Task<void>.
#pragma once

#include <utility>
#include <vector>

#include "simkit/engine.hpp"
#include "simkit/task.hpp"

namespace simkit {

/// Run all tasks concurrently (as spawned processes) and resume when every
/// one has completed.  If any task throws, the first failure (in spawn
/// order) is rethrown after all tasks have finished.
inline Task<void> when_all(Engine& eng, std::vector<Task<void>> tasks) {
  std::vector<ProcHandle> handles;
  handles.reserve(tasks.size());
  for (auto& t : tasks) handles.push_back(eng.spawn(std::move(t), "when_all"));
  std::exception_ptr first_error;
  for (auto& h : handles) {
    try {
      co_await h.join();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace simkit
