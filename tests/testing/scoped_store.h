// A fresh on-disk artifact store per test, removed again on destruction.
#pragma once

#include <filesystem>
#include <memory>
#include <string>
#include <system_error>

#include <unistd.h>

#include <gtest/gtest.h>

#include "core/artifact_store.h"

namespace bgpolicy::testing {

class ScopedStore {
 public:
  /// A store in a new directory under `parent`.
  explicit ScopedStore(const std::filesystem::path& parent =
                           std::filesystem::temp_directory_path()) {
    // The process id keeps concurrently running test binaries (ctest -j)
    // out of each other's stores; gtest's random seed is 0 unless
    // --gtest_shuffle is on, so it alone does not.
    static int counter = 0;
    root_ = parent /
            ("bgpolicy-store-test-" + std::to_string(::getpid()) + "-" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "-" + std::to_string(counter++));
    std::filesystem::remove_all(root_);
    store_ = std::make_unique<core::ArtifactStore>(root_);
  }
  ~ScopedStore() {
    store_.reset();
    std::error_code ignored;
    std::filesystem::remove_all(root_, ignored);
  }

  core::ArtifactStore& operator*() { return *store_; }
  core::ArtifactStore* operator->() { return store_.get(); }
  core::ArtifactStore* get() { return store_.get(); }

 private:
  std::filesystem::path root_;
  std::unique_ptr<core::ArtifactStore> store_;
};

}  // namespace bgpolicy::testing
