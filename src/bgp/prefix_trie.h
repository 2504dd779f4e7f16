// Binary radix (Patricia-lite) trie over IPv4 prefixes.
//
// Drives the causes analysis (Section 5.1.5): splitting detection needs "all
// less-specifics of p" and aggregation detection needs "is p covered by some
// other announced prefix".  Values are an arbitrary payload type.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "bgp/prefix.h"

namespace bgpolicy::bgp {

template <typename Value>
class PrefixTrie {
 public:
  PrefixTrie() : root_(std::make_unique<Node>()) {}

  /// Inserts or overwrites the value at `prefix`.  Returns true if the
  /// prefix was newly inserted, false if overwritten.
  bool insert(const Prefix& prefix, Value value) {
    Node* node = descend_create(prefix);
    const bool fresh = !node->value.has_value();
    node->value = std::move(value);
    if (fresh) ++size_;
    return fresh;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Exact-match lookup.
  [[nodiscard]] const Value* find(const Prefix& prefix) const {
    const Node* node = descend_find(prefix);
    if (node == nullptr || !node->value.has_value()) return nullptr;
    return &*node->value;
  }

  [[nodiscard]] Value* find(const Prefix& prefix) {
    return const_cast<Value*>(std::as_const(*this).find(prefix));
  }

  /// Calls fn(prefix, value) for every stored prefix that covers `prefix`
  /// (equal or less specific), from /0 downwards.
  void for_each_covering(
      const Prefix& prefix,
      const std::function<void(const Prefix&, const Value&)>& fn) const {
    const Node* node = root_.get();
    std::uint32_t network = 0;
    for (std::uint8_t depth = 0;; ++depth) {
      if (node->value) fn(Prefix(network, depth), *node->value);
      if (depth == prefix.length()) break;
      const int bit = (prefix.network() >> (31 - depth)) & 1;
      node = node->child[bit].get();
      if (node == nullptr) break;
      if (bit != 0) network |= 1U << (31 - depth);
    }
  }

 private:
  struct Node {
    std::optional<Value> value;
    std::array<std::unique_ptr<Node>, 2> child;
  };

  Node* descend_create(const Prefix& prefix) {
    Node* node = root_.get();
    for (std::uint8_t depth = 0; depth < prefix.length(); ++depth) {
      const int bit = (prefix.network() >> (31 - depth)) & 1;
      if (!node->child[bit]) node->child[bit] = std::make_unique<Node>();
      node = node->child[bit].get();
    }
    return node;
  }

  [[nodiscard]] const Node* descend_find(const Prefix& prefix) const {
    const Node* node = root_.get();
    for (std::uint8_t depth = 0; depth < prefix.length() && node != nullptr;
         ++depth) {
      const int bit = (prefix.network() >> (31 - depth)) & 1;
      node = node->child[bit].get();
    }
    return node;
  }

  std::unique_ptr<Node> root_;
  std::size_t size_ = 0;
};

}  // namespace bgpolicy::bgp
