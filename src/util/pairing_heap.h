// Pairing heap: the in-memory priority-queue structure used by the paper
// (Section 3.2, citing Fredman et al. [13]).
//
// A min-heap over values of type T ordered by `Compare`. Supports O(1)
// insertion and melding, amortized O(log n) deletion, and handle-based
// erase/decrease-key — the estimator's `Q_M` (Section 2.2.4) needs to delete
// arbitrary elements located through a hash table, which std::priority_queue
// cannot do.
#ifndef SDJOIN_UTIL_PAIRING_HEAP_H_
#define SDJOIN_UTIL_PAIRING_HEAP_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "util/check.h"

namespace sdj {

// Min-heap; the element for which Compare orders before all others is at the
// top. Not copyable (owns its nodes); movable.
template <typename T, typename Compare = std::less<T>>
class PairingHeap {
 public:
  struct Node {
    explicit Node(T v) : value(std::move(v)) {}
    T value;
    Node* child = nullptr;    // leftmost child
    Node* sibling = nullptr;  // next sibling to the right
    Node* prev = nullptr;     // parent if leftmost child, else left sibling
  };
  // Opaque element handle, valid until the element is popped/erased or the
  // heap is cleared/destroyed.
  using Handle = Node*;

  PairingHeap() = default;
  explicit PairingHeap(Compare cmp) : cmp_(std::move(cmp)) {}
  ~PairingHeap() { Clear(); }

  PairingHeap(const PairingHeap&) = delete;
  PairingHeap& operator=(const PairingHeap&) = delete;
  PairingHeap(PairingHeap&& other) noexcept
      : cmp_(std::move(other.cmp_)),
        blocks_(std::move(other.blocks_)),
        free_nodes_(std::move(other.free_nodes_)),
        next_in_block_(other.next_in_block_),
        root_(other.root_),
        size_(other.size_) {
    other.next_in_block_ = 0;
    other.root_ = nullptr;
    other.size_ = 0;
  }
  PairingHeap& operator=(PairingHeap&& other) noexcept {
    if (this != &other) {
      Clear();
      cmp_ = std::move(other.cmp_);
      blocks_ = std::move(other.blocks_);
      free_nodes_ = std::move(other.free_nodes_);
      next_in_block_ = other.next_in_block_;
      root_ = other.root_;
      size_ = other.size_;
      other.next_in_block_ = 0;
      other.root_ = nullptr;
      other.size_ = 0;
    }
    return *this;
  }

  bool Empty() const { return root_ == nullptr; }
  size_t Size() const { return size_; }

  // Inserts `value`; returns a handle usable with Erase/DecreaseKey.
  Handle Push(T value) {
    Node* node = AllocNode(std::move(value));
    root_ = Meld(root_, node);
    ++size_;
    return node;
  }

  // Smallest element. Heap must be non-empty.
  const T& Top() const {
    SDJ_DCHECK(root_ != nullptr);
    return root_->value;
  }

  // Removes and returns the smallest element. Heap must be non-empty.
  T Pop() {
    SDJ_DCHECK(root_ != nullptr);
    Node* old_root = root_;
    root_ = CombineSiblings(old_root->child);
    if (root_ != nullptr) root_->prev = nullptr;
    T value = std::move(old_root->value);
    FreeNode(old_root);
    --size_;
    return value;
  }

  // Removes the element behind `handle` (which must be live in this heap).
  T Erase(Handle handle) {
    SDJ_DCHECK(handle != nullptr);
    if (handle == root_) return Pop();
    Detach(handle);
    Node* merged = CombineSiblings(handle->child);
    if (merged != nullptr) {
      merged->prev = nullptr;
      root_ = Meld(root_, merged);
    }
    T value = std::move(handle->value);
    FreeNode(handle);
    --size_;
    return value;
  }

  // Replaces the element behind `handle` with `value`, which must not order
  // after the current value (i.e., this is a decrease-key for min-heaps).
  void DecreaseKey(Handle handle, T value) {
    SDJ_DCHECK(handle != nullptr);
    SDJ_DCHECK(!cmp_(handle->value, value));
    handle->value = std::move(value);
    if (handle == root_) return;
    Detach(handle);
    handle->sibling = nullptr;
    root_ = Meld(root_, handle);
  }

  // Removes all elements.
  void Clear() {
    DeleteSubtree(root_);
    root_ = nullptr;
    size_ = 0;
  }

  // Visits every element in unspecified order (iterative, so degenerate
  // shapes cannot overflow the stack). The heap must not be mutated while
  // iterating. Used by snapshot serialization (DESIGN.md §11).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    std::vector<const Node*> stack;
    if (root_ != nullptr) stack.push_back(root_);
    while (!stack.empty()) {
      const Node* n = stack.back();
      stack.pop_back();
      fn(n->value);
      if (n->child != nullptr) stack.push_back(n->child);
      if (n->sibling != nullptr) stack.push_back(n->sibling);
    }
  }

 private:
  // The join pushes millions of entries per query; carving nodes out of
  // fixed-size blocks and recycling popped ones through a free list keeps
  // per-push cost at a bump allocation instead of a malloc round trip.
  // Handles stay stable because blocks never move.
  static constexpr size_t kNodesPerBlock = 1024;

  Node* AllocNode(T value) {
    if (!free_nodes_.empty()) {
      Node* node = free_nodes_.back();
      free_nodes_.pop_back();
      return new (node) Node(std::move(value));
    }
    if (blocks_.empty() || next_in_block_ == kNodesPerBlock) {
      // Not make_unique: that value-initializes (memsets) the whole block.
      blocks_.emplace_back(new std::byte[kNodesPerBlock * sizeof(Node)]);
      next_in_block_ = 0;
    }
    Node* slot = reinterpret_cast<Node*>(blocks_.back().get()) +
                 next_in_block_++;
    return new (slot) Node(std::move(value));
  }

  void FreeNode(Node* node) {
    node->~Node();
    free_nodes_.push_back(node);
  }

  // Links two heap roots; returns the resulting root. Either may be null.
  Node* Meld(Node* a, Node* b) {
    if (a == nullptr) return b;
    if (b == nullptr) return a;
    if (cmp_(b->value, a->value)) std::swap(a, b);
    // b becomes the leftmost child of a.
    b->prev = a;
    b->sibling = a->child;
    if (a->child != nullptr) a->child->prev = b;
    a->child = b;
    a->sibling = nullptr;
    a->prev = nullptr;
    return a;
  }

  // Unlinks `node` (a non-root) from its parent/sibling list.
  void Detach(Node* node) {
    SDJ_DCHECK(node->prev != nullptr);
    if (node->prev->child == node) {
      node->prev->child = node->sibling;
    } else {
      node->prev->sibling = node->sibling;
    }
    if (node->sibling != nullptr) node->sibling->prev = node->prev;
    node->prev = nullptr;
    node->sibling = nullptr;
  }

  // The classic two-pass pairing: meld siblings left-to-right in pairs, then
  // meld the pair roots right-to-left.
  // Pops reuse one scratch list instead of allocating a vector each time.
  Node* CombineSiblings(Node* first) {
    if (first == nullptr) return nullptr;
    std::vector<Node*>& pairs = pairs_scratch_;
    pairs.clear();
    while (first != nullptr) {
      Node* a = first;
      Node* b = first->sibling;
      first = (b != nullptr) ? b->sibling : nullptr;
      a->sibling = nullptr;
      a->prev = nullptr;
      if (b != nullptr) {
        b->sibling = nullptr;
        b->prev = nullptr;
      }
      pairs.push_back(Meld(a, b));
    }
    Node* result = pairs.back();
    for (size_t i = pairs.size() - 1; i-- > 0;) {
      result = Meld(pairs[i], result);
    }
    return result;
  }

  void DeleteSubtree(Node* node) {
    // Iterative deletion to avoid deep recursion on degenerate shapes.
    std::vector<Node*> stack;
    if (node != nullptr) stack.push_back(node);
    while (!stack.empty()) {
      Node* n = stack.back();
      stack.pop_back();
      if (n->child != nullptr) stack.push_back(n->child);
      if (n->sibling != nullptr) stack.push_back(n->sibling);
      FreeNode(n);
    }
  }

  static_assert(alignof(Node) <= alignof(std::max_align_t),
                "block storage relies on default new alignment");

  Compare cmp_;
  std::vector<std::unique_ptr<std::byte[]>> blocks_;
  std::vector<Node*> free_nodes_;
  size_t next_in_block_ = 0;
  Node* root_ = nullptr;
  size_t size_ = 0;
  std::vector<Node*> pairs_scratch_;  // CombineSiblings scratch
};

}  // namespace sdj

#endif  // SDJOIN_UTIL_PAIRING_HEAP_H_
