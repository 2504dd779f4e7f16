// One field list per stored or served type.  Each such type declares,
// next to its struct and in its stored order,
//
//   template <typename V>
//   constexpr void fields(V& v, GaoParams& p) {
//     v("peer_degree_ratio", p.peer_degree_ratio);
//     ...
//   }
//
// and every reader of the type is a visitor over that one list: the binary
// writer and the checked reader that the artifact codec and the query
// service share (io/archive.h), the Infer store key's text
// (io::field_text), and the tests' field walks.  A visitor is called as
// v(name, member) once per field, in order.
//
// lists_every_member<T>(unlisted) is the compile-time check that a list
// names every member of the aggregate T but `unlisted` ones: the list is
// walked over an unconstructed T with a counting visitor and the count is
// compared with the number of initializers T's aggregate initialization
// takes.
#pragma once

#include <cstddef>

namespace bgpolicy::util {

namespace fields_detail {

/// Converts to any member type: T{AnyMember{}, ...} compiles exactly when
/// T has at least that many members.
struct AnyMember {
  template <typename T>
  operator T() const;  // NOLINT: implicit by design; never defined
};

struct Counter {
  std::size_t count = 0;
  template <typename T>
  constexpr void operator()(const char*, T&) {
    ++count;
  }
};

}  // namespace fields_detail

/// The number of members of the aggregate T.
template <typename T, typename... Members>
consteval std::size_t aggregate_arity() {
  if constexpr (requires { T{Members{}..., fields_detail::AnyMember{}}; }) {
    return aggregate_arity<T, Members..., fields_detail::AnyMember>();
  } else {
    return sizeof...(Members);
  }
}

/// The number of fields T's list names.  The list only binds references to
/// the members of a T that is never constructed (the union's literal
/// member is the active one), so T need not be a literal type.
template <typename T>
consteval std::size_t listed_fields() {
  union Storage {
    char none;
    T value;
    constexpr Storage() : none() {}
    constexpr ~Storage() {}
  } storage;
  fields_detail::Counter counter;
  fields(counter, storage.value);
  return counter.count;
}

/// True when T's field list names every member of T but `unlisted` ones.
template <typename T>
consteval bool lists_every_member(std::size_t unlisted = 0) {
  return listed_fields<T>() + unlisted == aggregate_arity<T>();
}

}  // namespace bgpolicy::util
