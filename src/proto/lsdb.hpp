// Link-state database shared by the IGP engines.
//
// An IS-IS LSP or OSPF router LSA never changes once originated: a newer
// one with a higher sequence number replaces it whole. Flood messages and
// databases therefore hold shared pointers to immutable LSPs, and a
// database is an origin-sorted vector of those pointers behind
// util::Cow. Forking a router copies one pointer; the first flood after a
// perturbation copies the vector of pointers, never an LSP.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "util/cow.hpp"

namespace mfv::proto {

template <typename Lsp>
class Lsdb {
 public:
  using Pointer = std::shared_ptr<const Lsp>;
  using Origin = decltype(Lsp::origin);

  /// The stored LSP originated by `origin`, or nullptr.
  const Lsp* find(const Origin& origin) const {
    auto it = position(*entries_, origin);
    return it != entries_->end() && (*it)->origin == origin ? it->get() : nullptr;
  }

  /// Stores `lsp`, replacing the LSP of the same origin if there is one.
  void put(Pointer lsp) {
    std::vector<Pointer>& entries = entries_.mutate();
    auto it = position(entries, lsp->origin);
    if (it != entries.end() && (*it)->origin == lsp->origin)
      *it = std::move(lsp);
    else
      entries.insert(it, std::move(lsp));
  }

  /// Iteration in origin order.
  auto begin() const { return entries_->begin(); }
  auto end() const { return entries_->end(); }
  size_t size() const { return entries_->size(); }

 private:
  template <typename Entries>
  static auto position(Entries& entries, const Origin& origin) {
    return std::lower_bound(entries.begin(), entries.end(), origin,
                            [](const Pointer& lsp, const Origin& key) { return lsp->origin < key; });
  }

  util::Cow<std::vector<Pointer>> entries_;
};

}  // namespace mfv::proto
